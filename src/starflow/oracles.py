"""Grid compose oracles: the one-step flow rules applied to a whole grid of
starts at once.

``flows.psi_compose`` and ``flows.kernel_compose`` are the literal one-row
references.  The oracles here apply the same one-step rules, over numpy
arrays, to every (walk, start time, start ray, start radius) of a grid and
record the value at every end time.  The kernel carries integer numerators
over a denominator that grows by the lcm of the alpha denominators at each
step that spreads junction mass, as in ``kernel_compose``.  The exhaustive
checks compare the closed forms with these grids.

This module is for tests only: nothing on the import path of
``starflow.cli`` loads it, and no other module of the package imports it.
"""

from __future__ import annotations

import numpy as np

from .graph import DiscreteMeasure, RayParams, interned_weight, point


def _grid(increments, p, radius) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """increments as a (walks, L) int64 array of +-1 steps, and the start
    times and radii as int64 vectors of one length, checked."""
    increments = np.atleast_2d(np.asarray(increments, dtype=np.int64))
    p, radius = np.asarray(p, dtype=np.int64), np.asarray(radius, dtype=np.int64)
    if not np.all(np.abs(increments) == 1):
        raise ValueError("increments must be +-1")
    if p.shape != radius.shape or p.ndim != 1:
        raise ValueError("start times and radii must be vectors of one length")
    if np.any(p < 0) or np.any(p > increments.shape[1]) or np.any(radius < 0):
        raise ValueError("start times must lie in [0, L] and radii be >= 0")
    return increments, p, radius


def psi_compose_grid(increments, eta, N: int, p, ray,
                     radius) -> tuple[np.ndarray, np.ndarray]:
    """Psi_{p,n}(x) by the one-step rule, for every walk, start and end time.

    ``increments`` is (walks, L); start s is (p[s], ray[s], radius[s]) at
    whole radii, and ``eta`` holds the mark of each step k -> k + 1, shape
    (L,) or (walks, L).  Returns (rays, radii), each (walks, starts, L + 1):
    entry n is Psi_{p,n}(x) for n >= p, and x for n <= p.  The junction
    carries ray N.
    """
    increments, p, radius = _grid(increments, p, radius)
    walks, length = increments.shape
    eta = np.broadcast_to(np.asarray(eta, dtype=np.int64), (walks, length))
    shape = (walks, len(p))
    cur_ray = np.broadcast_to(np.where(radius > 0, np.asarray(ray), N), shape).copy()
    cur_radius = np.broadcast_to(radius, shape).copy()
    rays = np.empty(shape + (length + 1,), dtype=np.int64)
    radii = np.empty_like(rays)
    rays[..., 0], radii[..., 0] = cur_ray, cur_radius
    for k in range(length):
        step = increments[:, k, None]
        live = p <= k
        leave = live & (cur_radius == 0) & (step == 1)
        cur_radius += np.where(live & (cur_radius > 0), step, 0) + leave
        cur_ray = np.where(leave, eta[:, k, None], np.where(cur_radius == 0, N, cur_ray))
        rays[..., k + 1], radii[..., k + 1] = cur_ray, cur_radius
    return rays, radii


def kernel_compose_grid(increments, params: RayParams, p, ray,
                        radius) -> tuple[np.ndarray, np.ndarray]:
    """K_{p,n}(x) by the one-step kernel rule, for every walk, start and end
    time, as integer numerators over one denominator per kernel.

    Starts are as in ``psi_compose_grid``.  Returns (numerators,
    denominators): numerators[w, s, n, i - 1, r] / denominators[w, s, n] is
    the weight of (ray i, radius r), with the junction's weight at
    [..., N - 1, 0].  For n <= p the kernel is the Dirac at x.  Every kernel
    is checked to be nonnegative and to sum to its denominator.
    """
    increments, p, radius = _grid(increments, p, radius)
    walks, length = increments.shape
    N = params.N
    scale, alpha = params.alpha_numerators
    alpha = np.array(alpha, dtype=np.int64)
    starts = len(p)
    reach = int(radius.max(initial=0)) + length + 1  # no start steps past it
    mass = np.zeros((walks, starts, N, reach), dtype=np.int64)
    ray = np.broadcast_to(np.asarray(ray, dtype=np.int64), (starts,))
    mass[:, np.arange(starts), np.where(radius > 0, ray, N) - 1, radius] = 1
    denominator = np.ones((walks, starts), dtype=np.int64)
    numerators = np.empty((walks, starts, length + 1, N, reach), dtype=np.int64)
    denominators = np.empty((walks, starts, length + 1), dtype=np.int64)
    numerators[:, :, 0], denominators[:, :, 0] = mass, denominator
    for k in range(length):
        up = increments[:, k, None] == 1
        live = p <= k
        hub = mass[..., N - 1, 0]
        factor = np.where(live & up & (hub > 0), scale, 1)
        rises = np.zeros_like(mass)
        rises[..., 2:] = mass[..., 1:-1] * factor[..., None, None]
        rises[..., 1] += hub[..., None] * alpha
        falls = np.zeros_like(mass)
        falls[..., 1:-1] = mass[..., 2:]
        falls[..., N - 1, 0] = hub + mass[..., 1].sum(axis=-1)
        moved = np.where(up[..., None, None], rises, falls)
        mass = np.where(live[:, None, None], moved, mass)
        denominator = denominator * factor
        numerators[:, :, k + 1], denominators[:, :, k + 1] = mass, denominator
    if np.any(numerators < 0) or np.any(numerators.sum(axis=(-2, -1)) != denominators):
        raise ValueError("grid kernel weights are not a probability")
    return numerators, denominators


def grid_points(rays: np.ndarray, radii: np.ndarray, N: int) -> np.ndarray:
    """The lattice point of each (ray, radius) pair, as an object array."""
    table = np.empty((N + 1, int(radii.max(initial=0)) + 1), dtype=object)
    for ray in range(1, N + 1):
        for r in range(table.shape[1]):
            table[ray, r] = point(ray, r, N)
    return table[rays, radii]


def grid_measures(numerators: np.ndarray,
                  denominators: np.ndarray) -> tuple[list[DiscreteMeasure], np.ndarray]:
    """(measures, index): each distinct kernel of a grid, built once through
    the validating DiscreteMeasure constructor, and the position in that list
    of each kernel of the grid (an array of the denominators' shape)."""
    N, reach = numerators.shape[-2:]
    rows = np.concatenate([numerators.reshape(-1, N * reach),
                           denominators.reshape(-1, 1)], axis=1)
    # each row as one opaque item: np.unique sorts those far faster than rows
    items = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, index = np.unique(items, return_index=True, return_inverse=True)
    measures = []
    for row in rows[first].tolist():
        weights, denominator = row[:-1], row[-1]
        measures.append(DiscreteMeasure(
            (point(cell // reach + 1, cell % reach, N), interned_weight(w, denominator))
            for cell, w in enumerate(weights) if w))
    return measures, index.reshape(denominators.shape)

"""Test-only references: each fast path of the package against a literal or
brute-force reading of its definition.

- ``Excursion`` and ``excursions_brute`` test every (p, q) pair of a path
  against the definition of an excursion; they check
  ``walk.excursion_table``.
- ``tau_sequence`` takes the block boundaries of the Csaki-Vincze transform
  from the literal int64 product S_{i-1} S_{i+1}, ``taus_from_first_hits``
  from the first hits of 2l by S-bar, and ``reflected_path`` is Y-bar; they
  check ``cv.transform`` and its inverse.
- ``step_chain`` is one transition of either chain from one uniform, its
  exit ray a binary search on the cumulative alpha; it checks
  ``chain.simulate_chain_batch`` and the ray marks.
- ``flipped_product_chain`` paints eta_i over each excursion of Y-bar, and
  ``proof_fact_violations`` counts the pathwise facts of the flipping proof
  that a ``chain.FlipBatch`` breaks.
- ``ks_statistic`` is the classic two-sided KS distance, against which
  ``stats.ks_statistic_lattice`` is checked.
- ``wiener_kernel`` is K^W_{s,t}(x) at one time; it checks the Wiener side
  of ``limit.convergence_profiles``.
- ``key_measure`` builds the measure that a key (spread, ray, radius) of the
  convergence pass names, and ``beta_slopes`` and ``beta_bound`` are beta's
  end slopes and the bound W1 TV / (W1 + TV) of a pair of keys, one pair at a
  time in scalar arithmetic; they check the pass's array bounds and its beta
  solves built from keys.
- ``psi_compose_grid`` and ``kernel_compose_grid`` apply the one-step flow
  rules of ``flows.psi_compose`` and ``flows.kernel_compose``, over numpy
  arrays, to every (walk, start time, start ray, start radius) of a grid and
  record the value at every end time.  The kernel carries integer numerators
  over a denominator that grows by the lcm of the alpha denominators at each
  step that spreads junction mass, as in ``kernel_compose``.  The exhaustive
  checks compare the closed forms with these grids.

Each reference reads only public names of the package, so none shares a
private helper with the fast path it checks.  Nothing on the import path of
``starflow.cli`` loads this module, and no other module of the package
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import FlipBatch
from .errors import NegativeValueError, OutOfDomainError, TooFewSamplesError
from .graph import (DiscreteMeasure, GraphPoint, RayParams, interned_weight, junction,
                    point)
from .limit import ContinuousPath, tau_hit
from .walk import WalkWindow, excursion_table


@dataclass(frozen=True)
class Excursion:
    """An excursion interval [start, end] of a nonnegative path, with its
    global ordinal (1-based, in start order)."""

    start: int
    end: int
    ordinal: int


def excursions_brute(path_y: np.ndarray) -> list[Excursion]:
    """Definition-checking oracle: test every (p, q) pair directly."""
    y = np.asarray(path_y)
    if np.any(y < 0):
        raise NegativeValueError("excursion decomposition needs a nonnegative path")
    n = len(y)

    def yv(j):
        if j == -1:
            return 0
        if 0 <= j < n:
            return int(y[j])
        return None  # outside the window: condition unverifiable

    found = []
    for p in range(n):
        for q in range(p + 1, n):
            vals = (yv(p), yv(p - 1), yv(q), yv(q + 1))
            if any(v is None or v != 0 for v in vals):
                continue
            if all(not (y[j] == 0 and y[j + 1] != 1) for j in range(p, q)):
                found.append((p, q))
    found.sort()
    return [Excursion(p, q, i + 1) for i, (p, q) in enumerate(found)]


def tau_sequence(values: np.ndarray) -> np.ndarray:
    """Block boundaries of the transform: all i >= 1 with S_{i-1} S_{i+1} < 0.

    ``values`` is S_0..S_n; the result lists the tau_l for l >= 1 in order
    (tau_0 = 0 is implicit).
    """
    s = np.asarray(values, dtype=np.int64)
    if len(s) < 3:
        return np.array([], dtype=np.int64)
    prod = s[:-2] * s[2:]  # index i-1 holds S_{i-1} S_{i+1}
    return np.nonzero(prod < 0)[0] + 1


def taus_from_first_hits(bar_values: np.ndarray) -> np.ndarray:
    """tau_l recovered from the transformed walk: first hit of 2l by S-bar,
    a new running maximum at an even level (a new maximum is >= 1, so even
    means >= 2)."""
    s = np.asarray(bar_values, dtype=np.int64)
    runmax = np.maximum.accumulate(s)
    return np.flatnonzero((runmax[1:] > runmax[:-1]) & ((s[1:] & 1) == 0)) + 1


def reflected_path(bar_values: np.ndarray) -> np.ndarray:
    """Y-bar_n = max_{k<=n} S-bar_k - S-bar_n."""
    s = np.asarray(bar_values)
    return np.maximum.accumulate(s, axis=-1) - s


def step_chain(params: RayParams, x: GraphPoint, u: float, lazy: bool = False) -> GraphPoint:
    """One transition from x given a uniform draw u in [0, 1).  A junction
    exit takes ray 1 + #{j < N : u >= c_j} over the cumulative edges c_j of
    alpha, so the ray clamps to N where the float sum ends just below 1."""
    if x.radius == 0:
        if lazy:
            if u < 0.5:
                return x
            u = (u - 0.5) * 2.0
        ray = np.searchsorted(params.alpha_cumulative[:-1], u, side="right") + 1
        return point(int(ray), 1, params.N)
    delta = 1 if u >= 0.5 else -1
    return point(x.ray, x.radius + delta, params.N)


def flipped_product_chain(s_bar: WalkWindow,
                          eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rays, radii) of the chain eta . Y-bar: ray mark eta_i inside the
    i-th excursion, junction (ray 0) wherever the reflected path is zero.
    Its transition law is the lazy matrix.  An excursion still open at the
    end is dropped: the chain stops at the last k with
    Y-bar_{k-1} = Y-bar_k = 0."""
    eta = np.asarray(eta)
    ybar = reflected_path(s_bar.values)
    exc = excursion_table(ybar[None])
    zero = ybar == 0
    covered_to = int(np.flatnonzero(zero & np.append(True, zero[:-1]))[-1]) + 1
    radii = ybar[:covered_to]
    rays = np.zeros(covered_to, dtype=eta.dtype)
    for start, end, ordinal in zip(exc.start.tolist(), exc.end.tolist(),
                                   exc.ordinal.tolist()):
        rays[start : end + 1] = eta[ordinal - 1]
    rays[radii == 0] = 0
    return rays, radii


def proof_fact_violations(batch: FlipBatch) -> np.ndarray:
    """Per row of a flip batch, the violations of the pathwise facts
    used in the flipping proof, over the completed blocks [tau_l, tau_{l+1}]:

    (a) for k in [tau_l + 2, tau_{l+1}]: S-bar_{k-1} = 2l + 1  iff  S_k = 0;
    (b) for k in [tau_l, tau_{l+1}]: Y-bar_k = 0 implies |S_{k+1}| <= 1, and
        S_{k+1} = 0 implies Y-bar_k = 0.
    """
    sbar, ybar, is_tau = batch.t.sbar, batch.ybar, batch.t.is_tau
    cols = np.arange(sbar.shape[1])
    last = batch.n_end[:, None]
    after = batch.t.s[:, 1:]  # S_{k+1} in column k
    # (a) at k = j + 1 for every j strictly inside block l = #(taus <= j) - 1
    l = np.cumsum(is_tau, axis=1) - 1
    bad_a = ~is_tau & (cols < last) & ((sbar == 2 * l + 1) != (after == 0))
    # (b) at every k of every block [tau_l, tau_{l+1}]: a tau between two
    # blocks is checked once for each
    bad_b = ((ybar == 0) & (np.abs(after) > 1)).astype(np.int64) + \
        ((after == 0) & (ybar != 0))
    checks = ((cols <= last) & (last > 0)) + (is_tau & (cols > 0) & (cols < last))
    return bad_a.sum(axis=1) + (bad_b * checks).sum(axis=1)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided sup distance between the empirical CDF and cdf.

    samples need not be pre-sorted.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    if m < 100:
        raise TooFewSamplesError(f"need >= 100 samples, got {m}")
    f = cdf(x)
    upper = np.max(np.arange(1, m + 1) / m - f)
    lower = np.max(f - np.arange(0, m) / m)
    return float(max(upper, lower))


def wiener_kernel(w: ContinuousPath, params: RayParams, s: float, t: float,
                  x: GraphPoint) -> DiscreteMeasure:
    """K^W_{s,t}(x): Dirac at the radial translate, radius |x| + W_t - W_s,
    up to tau_{s,x}; alpha spread at radius W+_{s,t} after.  Radii here are
    floats, so atoms carry float radii in a DiscreteMeasure with exact
    weights; a radius that is not positive is the junction."""
    tau = tau_hit(w, s, x)
    if t < s:
        raise OutOfDomainError(f"need s <= t, got {s} > {t}")
    if t > tau:
        return DiscreteMeasure.ray_spread(params, w.value(t) - w.running_min(s, t))
    radius = float(x.radius) + w.value(t) - w.value(s)
    if radius <= 0:
        return DiscreteMeasure.dirac(junction(params.N))
    return DiscreteMeasure.dirac(GraphPoint(x.ray, radius))


def key_measure(params: RayParams, spread: bool, ray: int, radius) -> DiscreteMeasure:
    """The alpha spread at a radius, or the Dirac at (ray, radius); the
    junction Dirac if the radius is not positive."""
    if radius <= 0:
        return DiscreteMeasure.dirac(junction(params.N))
    if spread:
        return DiscreteMeasure.ray_spread(params, radius)
    return DiscreteMeasure.dirac(GraphPoint(ray, radius))


def beta_slopes(weights, p_spread, p_ray, p_radius, q_spread, q_ray, q_radius):
    """(W1, TV): ``beta_distance``'s end slopes F'(0+) and -F'(1-) for
    P = key_measure(p_spread, p_ray, p_radius) and Q likewise with alpha =
    weights, ray by ray without building the measures.

    On ray i, P puts mass m at radius a and Q mass n at radius b (a = 0 where
    m = 0).  With c = P - Q off the junction, TV = ||c||_1 and W1 is the cost
    of moving c to the junction: (a - b) m + b |m - n| when a > b.
    """
    w1 = tv = 0
    for i, alpha in enumerate(weights, 1):
        a = p_radius if p_radius > 0 and (p_spread or i == p_ray) else 0
        b = q_radius if q_radius > 0 and (q_spread or i == q_ray) else 0
        m = (alpha if p_spread else 1) if a else 0
        n = (alpha if q_spread else 1) if b else 0
        if a == b:
            w1 += a * abs(m - n)
            tv += abs(m - n)
        else:
            w1 += (a - b) * m + b * abs(m - n) if a > b else (b - a) * n + a * abs(m - n)
            tv += m + n
    return w1, tv


def beta_bound(weights, *pair) -> float:
    """An upper bound on beta for the pair of ``beta_slopes``: F is concave
    with F(0) = F(1) = 0, so F(L) <= min(L W1, (1 - L) TV), whose max is
    W1 TV / (W1 + TV).  It is 0 only for equal measures."""
    w1, tv = beta_slopes(weights, *pair)
    return w1 * tv / (w1 + tv) if tv else 0.0


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

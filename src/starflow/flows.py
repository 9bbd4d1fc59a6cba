"""Discrete flow of mappings and flow of kernels on the star-graph lattice.

One step of the mapping flow moves a point at radius >= 1 radially by the walk
increment, and sends the junction to (mark ray, 1) on an up step and back to
the junction on a down step.  The kernel flow replaces the mark by the alpha
spread.  Closed forms skip the composition and read one scan of S_p..S_n:
before the hitting time of -|x| by the increment path the motion is a pure
radial translation; after it the value is the flow started at the junction,
whose radius is the reflected increment S+ and whose ray is the mark at the
last junction departure.

The flows move points of the lattice star graph: every entry point takes a
whole radius (2, 2.0 and Fraction(2) alike) and raises ValueError for any
other.  Kernel weights are exact rationals; equality of measures is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import ray_mark_rows
from .errors import EmptyWindowError, OutOfWindowError, WindowTooLargeError
from .graph import (DiscreteMeasure, GraphPoint, Radius, RayParams, interned_weight, junction,
                    point)
from .walk import WalkWindow, increment_rows

# the longest window kernel_is_conditional_law enumerates mark assignments on
_LAW_MAX_STEPS = 16


@dataclass(frozen=True)
class FlowRealization:
    """A walk window plus one ray mark per time index (the junction-departure
    choices), independent of the walk.  A walk with a leading replica axis
    takes one row of marks per walk (``eta[..., i]``); ``mark`` reads a
    one-row realization.

    The realization keeps its own read-only int64 copy of ``eta`` for the
    array readers, and a one-row realization the same marks as a tuple of
    ints that ``mark`` reads.  Neither can be written, so the two cannot
    differ.
    """

    walk: WalkWindow
    eta: np.ndarray  # eta[..., p - p_min] is the mark used by step p -> p+1
    params: RayParams

    def __post_init__(self):
        eta = np.array(self.eta, dtype=np.int64)
        eta.flags.writeable = False
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "_marks", tuple(eta.tolist()) if eta.ndim == 1 else None)

    @classmethod
    def generate(cls, params: RayParams, p_min: int, p_max: int, seed: int,
                 walk_streams, eta_streams) -> "FlowRealization":
        """The realization on [p_min, p_max] of the walk of stream walk_streams
        (``generate_walk``) and the marks of stream eta_streams
        (``chain.ray_mark_rows``).  With sequences of stream ids it holds one
        realization per pair, along a leading replica axis, drawn by one
        ``walk.increment_rows`` and one ``chain.ray_mark_rows`` call; row r is
        the realization of the r-th pair bit for bit."""
        if p_min >= p_max:
            raise EmptyWindowError(f"window [{p_min}, {p_max}] has no steps")
        one = np.ndim(walk_streams) == 0
        walk_ids, eta_ids = ([walk_streams], [eta_streams]) if one else \
            (walk_streams, eta_streams)
        increments = increment_rows(p_max - p_min, seed, walk_ids)
        eta = ray_mark_rows(params, p_max - p_min, seed, eta_ids)
        if one:
            increments, eta = increments[0], eta[0]
        return cls(WalkWindow(p_min, increments), eta, params)

    def mark(self, p: int) -> int:
        i = p - self.walk.p_min
        if self._marks is None:
            raise ValueError("mark reads need a one-row realization")
        if not 0 <= i < len(self._marks):
            raise OutOfWindowError(f"no mark at time {p}")
        return self._marks[i]


def _check_lattice(x: GraphPoint) -> None:
    """Reject a point whose radius is not a whole number."""
    if x.radius % 1:
        raise ValueError(f"radius {x.radius} is off the lattice")


def psi_one_step(fr: FlowRealization, p: int, x: GraphPoint) -> GraphPoint:
    """One transition of the mapping flow from time p to p+1."""
    _check_lattice(x)
    step = fr.walk.diff(p, p + 1)
    if x.radius > 0:
        return point(x.ray, x.radius + step, fr.params.N)
    if step == 1:
        return point(fr.mark(p), 1, fr.params.N)
    return junction(fr.params.N)


def psi_compose(fr: FlowRealization, p: int, n: int, x: GraphPoint) -> GraphPoint:
    """Psi_{p,n}(x) as a left-to-right composition of one-step maps.

    Applies the rule of ``psi_one_step`` to a plain (ray, radius) pair over
    the window's increments and builds one GraphPoint at the end.
    """
    _check_lattice(x)
    if n < p:
        raise OutOfWindowError(f"need p <= n, got {p} > {n}")
    if n == p:
        return x
    ray, radius = (x.ray, x.radius) if x.radius > 0 else (fr.params.N, 0)
    for k, step in enumerate(fr.walk.steps(p, n), p):
        if radius > 0:
            radius += step
        elif step == 1:
            ray, radius = fr.mark(k), 1
    return point(ray, radius, fr.params.N)


def _flow_radius(path: list[int], radius: Radius) -> tuple[bool, Radius, int]:
    """(hit, radius, j) of the flow from the lattice radius |x| along
    path = S_p..S_n.

    The hit of -|x| by S_{p,.} has happened by n when n > p and
    min_{[p, n-1]} S_{p,.} <= -|x| (steps are +-1).  Before it the radius is
    |x| + S_{p,n} and j is -1.  After it the radius is S+_{p,n} and j is the
    offset in path of J, the last time S attains its minimum over [p, n]:
    S_J is a running minimum there and S+ stays positive after it, so J < n
    is the last junction departure when S+_{p,n} > 0.
    """
    start, end = path[0], path[-1]
    if len(path) > 1:
        low = min(path[:-1])
        if low - start <= -radius:
            low = min(low, end)
            return True, end - low, len(path) - 1 - path[::-1].index(low)
    return False, radius + end - start, -1


def psi_closed_form(fr: FlowRealization, p: int, n: int, x: GraphPoint) -> GraphPoint:
    """Psi_{p,n}(x) without composing: radial translation before the hitting
    time of -|x|, then the junction-started flow value: radius S+_{p,n} on
    the ray of the mark at the last departure."""
    _check_lattice(x)
    if n < p:
        raise OutOfWindowError(f"need p <= n, got {p} > {n}")
    hit, radius, j = _flow_radius(fr.walk.path(p, n), x.radius)
    if not hit:
        return point(x.ray, radius, fr.params.N)
    if radius == 0:
        return junction(fr.params.N)
    return point(fr.mark(p + j), radius, fr.params.N)


def kernel_one_step(walk: WalkWindow, params: RayParams, p: int,
                    x: GraphPoint) -> DiscreteMeasure:
    _check_lattice(x)
    step = walk.diff(p, p + 1)
    if x.radius > 0:
        return DiscreteMeasure.dirac(point(x.ray, x.radius + step, params.N))
    if step == 1:
        return DiscreteMeasure.ray_spread(params, 1)
    return DiscreteMeasure.dirac(junction(params.N))


def kernel_compose(walk: WalkWindow, params: RayParams, p: int, n: int,
                   x: GraphPoint) -> DiscreteMeasure:
    """K_{p,n}(x) by chaining one-step kernels with exact rational weights.

    Applies the rule of ``kernel_one_step`` to a dict from (ray, radius) to
    integer numerators over a common denominator.  The denominator grows by
    the lcm of the alpha denominators at each step that spreads junction
    mass.  The weights are checked to be positive and to sum to the
    denominator, and one DiscreteMeasure is built at the end.
    """
    _check_lattice(x)
    if n < p:
        raise OutOfWindowError(f"need p <= n, got {p} > {n}")
    if n == p:
        return DiscreteMeasure.dirac(x)
    N = params.N
    hub = (N, 0)
    scale, numerators = params.alpha_numerators
    atoms = {(x.ray, x.radius) if x.radius > 0 else hub: 1}
    denominator = 1
    for step in walk.steps(p, n):
        factor = scale if step == 1 and hub in atoms else 1
        denominator *= factor
        moved: dict[tuple, int] = {}
        for (ray, radius), w in atoms.items():
            if radius > 0:
                key = (ray, radius + step) if radius + step else hub
                moved[key] = moved.get(key, 0) + w * factor
            elif step == 1:
                for out, a in enumerate(numerators, 1):
                    moved[out, 1] = moved.get((out, 1), 0) + w * a
            else:
                moved[hub] = moved.get(hub, 0) + w
        atoms = moved
    if any(w <= 0 for w in atoms.values()) or sum(atoms.values()) != denominator:
        raise ValueError(f"kernel weights {atoms} over {denominator} are not a probability")
    return DiscreteMeasure({point(ray, radius, N): interned_weight(w, denominator)
                            for (ray, radius), w in atoms.items()}, trusted=True)


def kernel_closed_form(walk: WalkWindow, params: RayParams, p: int, n: int,
                       x: GraphPoint) -> DiscreteMeasure:
    """K_{p,n}(x): Dirac at the radial translate before the hitting time,
    alpha spread at radius S+_{p,n} after."""
    _check_lattice(x)
    if n < p:
        raise OutOfWindowError(f"need p <= n, got {p} > {n}")
    hit, radius, _ = _flow_radius(walk.path(p, n), x.radius)
    if hit:
        return DiscreteMeasure.ray_spread(params, radius)
    return DiscreteMeasure.dirac(point(x.ray, radius, params.N))


def departure_candidates(walk: WalkWindow, p: int, n: int) -> list[int]:
    """The times j in [p, n) with S_j = min S over [p, j], that is
    S+_{p,j} = 0: where the flow can leave the junction and read a mark."""
    before = walk.path(p, n)[:-1]
    return [j for j, (v, low) in enumerate(zip(before, itertools.accumulate(before, min)), p)
            if v == low]


def kernel_is_conditional_law(walk: WalkWindow, params: RayParams, p: int, n: int,
                              x: GraphPoint) -> bool:
    """Check K_{p,n}(x) = E[delta_{Psi_{p,n}(x)} | sigma(S)] by enumerating
    every mark assignment on the window with its product alpha weight; the
    window may have at most 16 steps.  One scan of S_p..S_n fixes the one
    mark the flow reads, and each assignment is valued by its ray there
    (``_mark_law``)."""
    return _mark_law(walk, params, p, n, x) == kernel_closed_form(walk, params, p, n, x)


def _mark_law(walk: WalkWindow, params: RayParams, p: int, n: int,
              x: GraphPoint) -> DiscreteMeasure | None:
    """The law of Psi_{p,n}(x) given S, summed over every mark assignment of
    the departure candidates with its product alpha weight.

    Given S, Psi_{p,n}(x) reads one mark at most: the one at the last
    departure p + j, from one scan of S_p..S_n by ``_flow_radius``.  The marks
    elsewhere are never read, so they marginalize to total weight 1 and the
    sum over full assignments collapses to one over the candidates.  Each
    assignment's value is then its ray at p + j, or the one point the flow
    reaches without reading a mark.  None when the read is not a candidate:
    the flow cannot leave the junction there.
    """
    n_marks = len(walk.increments)
    if n_marks > _LAW_MAX_STEPS:
        raise WindowTooLargeError(f"{n_marks} steps exceeds enumeration limit {_LAW_MAX_STEPS}")
    _check_lattice(x)
    if n < p:
        raise OutOfWindowError(f"need p <= n, got {p} > {n}")
    hit, radius, j = _flow_radius(walk.path(p, n), x.radius)
    free = departure_candidates(walk, p, n)
    N = params.N
    if hit and radius:
        if p + j not in free:
            return None
        read = free.index(p + j)
        values = [point(ray, radius, N) for ray in range(1, N + 1)]
    else:  # no mark is read: every assignment gives the same point
        read = None
        values = [junction(N) if hit else point(x.ray, radius, N)]
    # weights are integer numerators over scale ** len(free); the validated
    # DiscreteMeasure build rejects them unless they sum to that denominator
    scale, numerators = params.alpha_numerators
    atoms: dict[GraphPoint, int] = {}
    for rays, weights in zip(itertools.product(range(N), repeat=len(free)),
                             itertools.product(numerators, repeat=len(free))):
        y = values[rays[read]] if read is not None else values[0]
        atoms[y] = atoms.get(y, 0) + math.prod(weights)
    denominator = scale ** len(free)
    return DiscreteMeasure((y, Fraction(w, denominator)) for y, w in atoms.items())


def closed_forms_from(fr: FlowRealization, p: int,
                      x: GraphPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(after, ray, radius) of Psi_{p,n}(x) for every n in [p, p_max], as
    arrays indexed by n - p along the last axis, one row per realization of
    fr (``values[..., k]``).

    after[n] is n > the hitting time of -|x| by S_{p,.}, which for +-1 steps
    is min_{[p, n-1]} S_{p,.} <= -|x|.  Before the hit the radius is
    |x| + S_{p,n} on x's ray; after it the radius is S+_{p,n} on the ray of
    the mark at the last departure, the last time S_{p,.} attains its
    minimum over [p, n].  The junction carries ray N.  K_{p,n}(x) is the
    alpha spread at that radius after the hit and the Dirac at Psi_{p,n}(x)
    before it, as in ``psi_closed_form`` and ``kernel_closed_form``.
    """
    _check_lattice(x)
    walk = fr.walk
    if not walk.p_min <= p <= walk.p_max:
        raise OutOfWindowError(f"index {p} outside [{walk.p_min}, {walk.p_max}]")
    i = p - walk.p_min
    s = walk.values[..., i:] - walk.values[..., i : i + 1]
    low = np.minimum.accumulate(s, axis=-1)
    departure = np.maximum.accumulate(np.where(s == low, np.arange(s.shape[-1]), 0), axis=-1)
    after = np.zeros(s.shape, dtype=bool)
    after[..., 1:] = low[..., :-1] <= -x.radius
    radius = np.where(after, s - low, x.radius + s)
    # a positive radius after the hit puts the departure before p_max
    mark = np.take_along_axis(fr.eta, np.minimum(i + departure, fr.eta.shape[-1] - 1), axis=-1)
    ray = np.where(radius == 0, fr.params.N, np.where(after, mark, x.ray))
    return after, ray, radius

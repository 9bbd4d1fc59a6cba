"""Discrete flow of mappings and flow of kernels on the star-graph lattice.

One step of the mapping flow moves a point at radius >= 1 radially by the walk
increment, and sends the junction to (mark ray, 1) on an up step and back to
the junction on a down step.  The kernel flow replaces the mark by the alpha
spread.  Closed forms skip the composition: before the hitting time of -|x| by
the increment path the motion is a pure radial translation; after it the value
is the flow started at the junction, whose radius is the reflected increment
S+ and whose ray is the mark at the last junction departure.

Kernel weights are exact rationals; equality of measures is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NegativeRadiusError, OutOfWindowError, WindowTooLargeError
from .graph import DiscreteMeasure, GraphPoint, RayParams, junction, move_along, point
from .walk import WalkWindow

# the longest window kernel_is_conditional_law enumerates mark assignments on
_LAW_MAX_STEPS = 16


@dataclass(frozen=True)
class FlowRealization:
    """A walk window plus one ray mark per time index (the junction-departure
    choices), independent of the walk."""

    walk: WalkWindow
    eta: np.ndarray  # eta[p - p_min] is the mark used by step p -> p+1
    params: RayParams

    @classmethod
    def generate(cls, walk: WalkWindow, params: RayParams, seed: int,
                 eta_stream_id: int) -> "FlowRealization":
        from .chain import draw_ray_marks

        n_marks = len(walk.increments)
        eta = draw_ray_marks(params, n_marks, seed, eta_stream_id)
        return cls(walk, eta, params)

    def mark(self, p: int) -> int:
        i = p - self.walk.p_min
        if not 0 <= i < len(self.eta):
            raise OutOfWindowError(f"no mark at time {p}")
        return int(self.eta[i])


def psi_one_step(fr: FlowRealization, p: int, x: GraphPoint) -> GraphPoint:
    """One transition of the mapping flow from time p to p+1."""
    step = fr.walk.diff(p, p + 1)
    if x.radius > 0:
        return move_along(x, step, fr.params.N)
    if step == 1:
        return point(fr.mark(p), 1, fr.params.N)
    return junction(fr.params.N)


def psi_compose(fr: FlowRealization, p: int, n: int, x: GraphPoint) -> GraphPoint:
    """Psi_{p,n}(x) as a left-to-right composition of one-step maps.

    Applies the rule of ``psi_one_step`` to a plain (ray, radius) pair over
    the window's increments and builds one GraphPoint at the end.
    """
    if n < p:
        raise OutOfWindowError(f"need p <= n, got {p} > {n}")
    if n == p:
        return x
    ray, radius = (x.ray, x.radius) if x.radius > 0 else (fr.params.N, 0)
    for k, step in enumerate(fr.walk.steps(p, n), p):
        if radius > 0:
            if radius < -step:
                raise _crossing(radius, step)
            radius += step
        elif step == 1:
            ray, radius = fr.mark(k), 1
    return point(ray, radius, fr.params.N)


def _crossing(radius, step: int) -> NegativeRadiusError:
    """The error ``move_along`` raises for a radial move below the junction."""
    return NegativeRadiusError(f"move from radius {radius} by {step} crosses the junction")


def _before_hit(walk: WalkWindow, p: int, n: int, radius) -> bool:
    """n <= the hitting time of -radius by S_{p,.}: nothing but radial
    translation has happened on [p, n].  Steps are +-1, so for a lattice
    radius this is a range-minimum query over [p, n - 1]."""
    if type(radius) is int and radius >= 0:
        return n == p or walk.window_min(p, n - 1) > -radius
    return n <= walk.hitting_time(p, radius)  # NOT_HIT exceeds every integer


def psi_closed_form(fr: FlowRealization, p: int, n: int, x: GraphPoint) -> GraphPoint:
    """Psi_{p,n}(x) without composing: radial translation before the hitting
    time of -|x|, then the junction-started flow value."""
    if n < p:
        raise OutOfWindowError(f"need p <= n, got {p} > {n}")
    if _before_hit(fr.walk, p, n, x.radius):
        return move_along(x, fr.walk.diff(p, n), fr.params.N)
    radius = fr.walk.s_plus(p, n)
    if radius == 0:
        return junction(fr.params.N)
    # the ray is the mark at the last departure J < n, the last time with
    # S+_{p,J} = 0: S_J is a running minimum there and S+ stays positive
    # after it, so J is the last time S attains its minimum over [p, n]
    return point(fr.mark(fr.walk.last_min_time(p, n)), radius, fr.params.N)


def kernel_one_step(walk: WalkWindow, params: RayParams, p: int,
                    x: GraphPoint) -> DiscreteMeasure:
    step = walk.diff(p, p + 1)
    if x.radius > 0:
        return DiscreteMeasure.dirac(move_along(x, step, params.N))
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
                if radius < -step:
                    raise _crossing(radius, step)
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
    return DiscreteMeasure(((point(ray, radius, N), Fraction(w, denominator))
                            for (ray, radius), w in atoms.items()), _checked=True)


def kernel_closed_form(walk: WalkWindow, params: RayParams, p: int, n: int,
                       x: GraphPoint) -> DiscreteMeasure:
    """K_{p,n}(x): Dirac at the radial translate before the hitting time,
    alpha spread at radius S+_{p,n} after."""
    if n < p:
        raise OutOfWindowError(f"need p <= n, got {p} > {n}")
    if _before_hit(walk, p, n, x.radius):
        return DiscreteMeasure.dirac(move_along(x, walk.diff(p, n), params.N))
    return DiscreteMeasure.ray_spread(params, walk.s_plus(p, n))


def kernel_is_conditional_law(walk: WalkWindow, params: RayParams, p: int, n: int,
                              x: GraphPoint) -> bool:
    """Check K_{p,n}(x) = E[delta_{Psi_{p,n}(x)} | sigma(S)] by enumerating
    every mark assignment on the window with its product alpha weight; the
    window may have at most 16 steps."""
    n_marks = len(walk.increments)
    if n_marks > _LAW_MAX_STEPS:
        raise WindowTooLargeError(f"{n_marks} steps exceeds enumeration limit {_LAW_MAX_STEPS}")
    # the flow reads a mark only at a departure index j with S+_{p,j} = 0, so
    # marks elsewhere marginalize to total weight 1 and the sum over full
    # assignments collapses to a sum over the departure candidates
    free = [j for j in range(p, n) if walk.s_plus(p, j) == 0]
    # weights are integer numerators over scale ** len(free); the validated
    # DiscreteMeasure build rejects them unless they sum to that denominator
    scale, numerators = params.alpha_numerators
    atoms: dict[GraphPoint, int] = {}
    eta = np.ones(n_marks, dtype=np.int64)
    for assignment in itertools.product(range(1, params.N + 1), repeat=len(free)):
        for j, ray in zip(free, assignment):
            eta[j - walk.p_min] = ray
        fr = FlowRealization(walk, eta, params)
        y = psi_closed_form(fr, p, n, x)
        atoms[y] = atoms.get(y, 0) + math.prod(numerators[ray - 1] for ray in assignment)
    denominator = scale ** len(free)
    law = DiscreteMeasure((y, Fraction(w, denominator)) for y, w in atoms.items())
    return law == kernel_closed_form(walk, params, p, n, x)


def closed_forms_from(fr: FlowRealization, p: int,
                      x: GraphPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(after, ray, radius) of Psi_{p,n}(x) for every n in [p, p_max], as
    arrays indexed by n - p, for a lattice radius |x|.

    after[n] is n > the hitting time of -|x| by S_{p,.}, which for +-1 steps
    is min_{[p, n-1]} S_{p,.} <= -|x|.  Before the hit the radius is
    |x| + S_{p,n} on x's ray; after it the radius is S+_{p,n} on the ray of
    the mark at the last departure, the last time S_{p,.} attains its
    minimum over [p, n].  The junction carries ray N.  K_{p,n}(x) is the
    alpha spread at that radius after the hit and the Dirac at Psi_{p,n}(x)
    before it, as in ``psi_closed_form`` and ``kernel_closed_form``.
    """
    walk = fr.walk
    if not walk.p_min <= p <= walk.p_max:
        raise OutOfWindowError(f"index {p} outside [{walk.p_min}, {walk.p_max}]")
    i = p - walk.p_min
    s = walk.values[i:] - walk.values[i]
    low = np.minimum.accumulate(s)
    departure = np.maximum.accumulate(np.where(s == low, np.arange(len(s)), 0))
    after = np.zeros(len(s), dtype=bool)
    after[1:] = low[:-1] <= -x.radius
    radius = np.where(after, s - low, x.radius + s)
    # a positive radius after the hit puts the departure before p_max
    mark = fr.eta[np.minimum(i + departure, len(fr.eta) - 1)]
    ray = np.where(radius == 0, fr.params.N, np.where(after, mark, x.ray))
    return after, ray, radius

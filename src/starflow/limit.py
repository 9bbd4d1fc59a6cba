"""Desk-scale limit objects: rescaled paths, the Wiener kernel, and the
convergence pass.

The almost-sure coupled limit is not constructible here, so the pass
substitutes (a) exact self-consistency at grid times — the rescaled discrete
kernel and the Wiener-kernel formula evaluated on the same rescaled walk
agree exactly — and (b) Monte Carlo profiles over increasing scale n whose
medians should shrink.  The output labels these as substitutions.

``convergence_profiles`` checks both limits on one realization per n: the
flow of kernels against the Wiener kernel (distance beta) and the flow of
mappings against its structural value (graph distance).  It finds the
hitting time of the rescaled walk once per n and decides at each mesh time
once whether that time is before or after the hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .beta import beta_distance
from .errors import OutOfDomainError
from .flows import kernel_closed_form, psi_closed_form
from .graph import DiscreteMeasure, GraphPoint, RayParams, graph_distance, junction, point
from .walk import NOT_HIT, WalkWindow


def floor_time(u: float) -> int:
    """Floor with the symmetric convention floor(u) = -floor(-u) for u <= 0."""
    if u <= 0:
        return -math.floor(-u)
    return math.floor(u)


@dataclass(frozen=True)
class ContinuousPath:
    """A piecewise-linear path with uniform breakpoints k/n.

    k0 is the walk index of the first breakpoint, so the domain is
    [k0/n, (k0+len-1)/n] and value(k/n) = walk value at k divided by sqrt(n).
    """

    n: int
    k0: int
    values: np.ndarray  # rescaled values at breakpoints

    @property
    def t_min(self) -> float:
        return self.k0 / self.n

    @property
    def t_max(self) -> float:
        return (self.k0 + len(self.values) - 1) / self.n

    def value(self, t: float) -> float:
        u = t * self.n - self.k0
        if u < -1e-9 or u > len(self.values) - 1 + 1e-9:
            raise OutOfDomainError(f"time {t} outside [{self.t_min}, {self.t_max}]")
        u = min(max(u, 0.0), len(self.values) - 1.0)
        k = int(math.floor(u))
        if k == len(self.values) - 1:
            return float(self.values[k])
        frac = u - k
        return float(self.values[k] * (1 - frac) + self.values[k + 1] * frac)

    def running_min(self, s: float, t: float) -> float:
        """inf over [s, t]; exact since extrema sit at breakpoints or endpoints."""
        lo, hi = self.value(s), self.value(t)
        a = int(math.ceil(s * self.n - self.k0 - 1e-9))
        b = int(math.floor(t * self.n - self.k0 + 1e-9))
        m = min(lo, hi)
        if b >= a:
            inner = float(np.min(self.values[max(a, 0) : b + 1]))
            m = min(m, inner)
        return m


def rescale_path(walk: WalkWindow, n: int) -> ContinuousPath:
    """Diffusive rescaling of a walk window: value S_k / sqrt(n) at time k/n."""
    return ContinuousPath(n, walk.p_min, walk.values / math.sqrt(n))


def tau_hit(w: ContinuousPath, s: float, x: GraphPoint | float):
    """First r >= s with W_r - W_s = -|x|, solved exactly on the linear
    segments; NOT_HIT if the level is never reached in the domain."""
    level = x if isinstance(x, (int, float)) else float(x.radius)
    if level < 0:
        raise OutOfDomainError("radius must be nonnegative")
    if s < w.t_min - 1e-9 or s > w.t_max + 1e-9:
        raise OutOfDomainError(f"time {s} outside path domain")
    if level == 0:
        return s
    target = w.value(s) - level
    k_start = int(math.ceil(s * w.n - w.k0 - 1e-9))
    prev_t = s
    prev_v = w.value(s)
    for k in range(max(k_start, 0), len(w.values)):
        t_k = (w.k0 + k) / w.n
        if t_k < s:
            continue
        v_k = float(w.values[k])
        if v_k <= target:
            # crossing inside [prev_t, t_k]
            frac = (prev_v - target) / (prev_v - v_k)
            return prev_t + frac * (t_k - prev_t)
        prev_t, prev_v = t_k, v_k
    return NOT_HIT


def wiener_kernel(w: ContinuousPath, params: RayParams, s: float, t: float,
                  x: GraphPoint) -> DiscreteMeasure:
    """K^W_{s,t}(x): Dirac at the radial translate before tau_{s,x}, alpha
    spread at radius W+_{s,t} after.  Radii here are floats, so atoms carry
    float radii in a DiscreteMeasure with exact weights."""
    return _wiener_at(w, params, s, t, x, tau_hit(w, s, x))[2]


def _wiener_at(w: ContinuousPath, params: RayParams, s: float, t: float, x: GraphPoint,
               tau) -> tuple[bool, float, DiscreteMeasure]:
    """(t after the hitting time tau = tau_{s,x}, limit radius at t,
    K^W_{s,t}(x)); the radius is |x| + W_t - W_s before the hit and W+_{s,t}
    after."""
    if t < s:
        raise OutOfDomainError(f"need s <= t, got {s} > {t}")
    if tau is NOT_HIT or t <= tau:
        radius = x.radius + w.value(t) - w.value(s)
        return False, radius, DiscreteMeasure.dirac(_float_point(x.ray, radius, params.N))
    radius = w.value(t) - w.running_min(s, t)
    if radius <= 0:
        return True, radius, DiscreteMeasure.dirac(junction(params.N))
    atoms = {_float_point(i, radius, params.N): params.alpha[i - 1]
             for i in range(1, params.N + 1)}
    return True, radius, DiscreteMeasure(atoms.items())


def _float_point(ray: int, radius: float, n_rays: int) -> GraphPoint:
    if radius <= 0:
        return junction(n_rays)
    return GraphPoint(ray, radius)


def grid_and_midpoints(n: int, s: float, t_end: float) -> np.ndarray:
    """Breakpoints k/n in [s, t_end] plus segment midpoints (where the sup of
    a piecewise-linear expression in t can sit), plus the endpoints."""
    k_lo = int(math.ceil(s * n - 1e-9))
    k_hi = int(math.floor(t_end * n + 1e-9))
    ks = np.arange(k_lo, k_hi + 1) / n
    mids = (ks[:-1] + ks[1:]) / 2 if len(ks) > 1 else np.empty(0)
    return np.unique(np.concatenate([[s, t_end], ks, mids]))


def convergence_profiles(fr_for_n, params: RayParams, s: float, big_t: float,
                         x: GraphPoint, n_list: list[int], times=None) -> list[dict]:
    """Profiles of both limits over n, on one realization per n.

    fr_for_n(n) -> FlowRealization whose walk covers [floor(ns), floor(n(s+T))].
    For each n the discrete start is x_n = (x.ray, round(sqrt(n) |x|)) in
    walk units.  sup_beta is sup_t beta(rescaled discrete kernel, Wiener
    kernel) and sup_distance is sup_t d(rescaled Psi, structural value with
    the realized rays), both on the same rescaled walk.  times: evaluation
    times for the sups; defaults to the full n-grid with midpoints, which is
    O(n) points — pass a fixed mesh for large-n sweeps.
    """
    x_limit = _float_point(x.ray, x.radius, params.N)
    rows = []
    for n in n_list:
        fr = fr_for_n(n)
        walk = fr.walk
        w = rescale_path(walk, n)
        root = math.sqrt(n)
        x_n = point(x.ray, round(root * x.radius), params.N)
        p = floor_time(n * s)
        k_max = walk.p_min + len(walk.increments)
        tau = tau_hit(w, s, x_limit)
        sup_beta = sup_d = 0.0
        for t in (grid_and_midpoints(n, s, s + big_t) if times is None else times):
            k_t = min(max(floor_time(n * t), walk.p_min), k_max)
            after, radius, limit = _wiener_at(w, params, s, t, x_limit, tau)
            kernel = _rescale_measure(kernel_closed_form(walk, params, p, k_t, x_n), n)
            sup_beta = max(sup_beta, float(beta_distance(kernel, limit)))
            y = psi_closed_form(fr, p, k_t, x_n)
            y_rescaled = _float_point(y.ray, y.radius / root, params.N)
            # after the hit the structural value sits on the realized ray
            ray = (y.ray if y.radius > 0 else params.N) if after else x_limit.ray
            phi = _float_point(ray, radius, params.N)
            sup_d = max(sup_d, graph_distance(y_rescaled, phi))
        rows.append({"n": n, "sup_beta": sup_beta, "sup_distance": sup_d})
    return rows


def _rescale_measure(m: DiscreteMeasure, n: int) -> DiscreteMeasure:
    root = math.sqrt(n)
    atoms: dict[GraphPoint, Fraction] = {}
    for pt, wgt in m.atoms.items():
        q = _float_point(pt.ray, pt.radius / root, 0) if pt.radius else pt
        atoms[q] = atoms.get(q, Fraction(0)) + wgt
    return DiscreteMeasure(atoms.items())

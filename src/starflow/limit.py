"""Desk-scale limit objects: rescaled paths, the Wiener kernel, and the
convergence harnesses.

The almost-sure coupled limit is not constructible here, so the harness
substitutes (a) exact self-consistency at grid times — the rescaled discrete
kernel and the Wiener-kernel formula evaluated on the same rescaled walk
agree exactly — and (b) Monte Carlo profiles over increasing scale n whose
medians should shrink.  The harness output labels these as substitutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .beta import beta_distance
from .errors import LatticeMismatchError, OutOfDomainError
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


def rescale_chain(radii: np.ndarray, rays: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled graph-valued breakpoint data: radii / sqrt(n) with rays kept.
    Interpolation between breakpoints is radial (consecutive points share a
    ray or pass through the junction)."""
    return radii / math.sqrt(n), rays


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
    if t < s:
        raise OutOfDomainError(f"need s <= t, got {s} > {t}")
    tau = tau_hit(w, s, x)
    if tau is NOT_HIT or t <= tau:
        radius = x.radius + w.value(t) - w.value(s)
        ray = x.ray if radius > 0 else params.N
        return DiscreteMeasure.dirac(_float_point(ray, radius, params.N))
    w_plus = w.value(t) - w.running_min(s, t)
    if w_plus <= 0:
        return DiscreteMeasure.dirac(junction(params.N))
    atoms = {_float_point(i, w_plus, params.N): params.alpha[i - 1]
             for i in range(1, params.N + 1)}
    return DiscreteMeasure(atoms.items())


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


def convergence_beta(walk_for_n, params: RayParams, s: float, big_t: float,
                     x: GraphPoint, x_n_for_n, n_list: list[int],
                     times=None) -> list[dict]:
    """Profile of sup_t beta(rescaled discrete kernel, Wiener kernel on the
    same rescaled walk) for each n.

    walk_for_n(n) -> WalkWindow covering [floor(ns), floor(n(s+T))];
    x_n_for_n(n) -> GraphPoint on the 1/sqrt(n) lattice approaching x
    (returned with its lattice radius in walk units, an integer).
    times: evaluation times for the sup; defaults to the full n-grid with
    midpoints, which is O(n) points — pass a fixed mesh for large-n sweeps.
    """
    from .flows import kernel_closed_form

    rows = []
    for n in n_list:
        walk = walk_for_n(n)
        w = rescale_path(walk, n)
        x_n = x_n_for_n(n)
        if x_n.radius != int(x_n.radius):
            raise LatticeMismatchError(f"sqrt(n) x_n = {x_n.radius} not a lattice radius")
        p = floor_time(n * s)
        sup_beta = 0.0
        for t in (grid_and_midpoints(n, s, s + big_t) if times is None else times):
            k_t = floor_time(n * t)
            k_t = min(max(k_t, walk.p_min), walk.p_min + len(walk.increments))
            discrete = kernel_closed_form(walk, params, p, k_t, x_n)
            rescaled = _rescale_measure(discrete, n)
            limit = wiener_kernel(w, params, s, t, _float_point(x.ray, x.radius, params.N)
                                  if x.radius else junction(params.N))
            sup_beta = max(sup_beta, float(beta_distance(rescaled, limit)))
        rows.append({"n": n, "sup_beta": sup_beta})
    return rows


def _rescale_measure(m: DiscreteMeasure, n: int) -> DiscreteMeasure:
    root = math.sqrt(n)
    atoms: dict[GraphPoint, Fraction] = {}
    for pt, wgt in m.atoms.items():
        q = _float_point(pt.ray, pt.radius / root, 0) if pt.radius else pt
        atoms[q] = atoms.get(q, Fraction(0)) + wgt
    return DiscreteMeasure(atoms.items())


def mapping_convergence(fr_for_n, params: RayParams, s: float, big_t: float,
                        x: GraphPoint, x_n_for_n, n_list: list[int],
                        times=None) -> list[dict]:
    """Profile of sup_t d(rescaled Psi, structural-formula value on the same
    rescaled walk with the same realized rays).  times as in
    convergence_beta."""
    from .flows import psi_closed_form

    rows = []
    for n in n_list:
        fr = fr_for_n(n)
        walk = fr.walk
        w = rescale_path(walk, n)
        x_n = x_n_for_n(n)
        p = floor_time(n * s)
        root = math.sqrt(n)
        sup_d = 0.0
        for t in (grid_and_midpoints(n, s, s + big_t) if times is None else times):
            k_t = floor_time(n * t)
            k_t = min(max(k_t, walk.p_min), walk.p_min + len(walk.increments))
            y = psi_closed_form(fr, p, k_t, x_n)
            y_rescaled = _float_point(y.ray, y.radius / root, params.N)
            tau = tau_hit(w, s, _float_point(x.ray, x.radius, params.N)
                          if x.radius else junction(params.N))
            if tau is not NOT_HIT and t > tau:
                w_plus = w.value(t) - w.running_min(s, t)
                ray = y.ray if y.radius > 0 else params.N
                phi = _float_point(ray, w_plus, params.N)
            else:
                radius = x.radius + w.value(t) - w.value(s)
                phi = _float_point(x.ray if x.radius else params.N, radius, params.N)
            sup_d = max(sup_d, graph_distance(y_rescaled, phi))
        rows.append({"n": n, "sup_distance": sup_d})
    return rows

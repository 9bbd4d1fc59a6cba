"""Desk-scale limit objects: rescaled paths, hitting times, and the
convergence pass.

The almost-sure coupled limit is not constructible here, so the pass
substitutes (a) exact self-consistency at grid times — the rescaled discrete
kernel and the Wiener-kernel formula evaluated on the same rescaled walk
agree exactly — and (b) Monte Carlo profiles over increasing scale n whose
medians should shrink.  The output labels these as substitutions.

``convergence_profiles`` checks both limits at one scale n on a chunk of
realizations that share one window: the flow of kernels against the Wiener
kernel (distance beta) and the flow of mappings against its structural value
(graph distance).  It works on (replicas, times) arrays over the whole time
mesh, the breakpoints and midpoints j/(2n); the discrete side reads the step
of each mesh time from its integer j (``step_at``), so both sides read one
breakpoint.  The discrete side is one ``closed_forms_from`` pass from the
fixed start time.  The Wiener side is the rescaled paths at every mesh time,
one prefix minimum and one hitting time per replica.  ``closed_forms_from``,
``ContinuousPath`` and ``tau_hit`` read each realization from the last axis
(``values[..., k]``), so one realization is the one-row case.

The pair of measures repeats along the mesh and across realizations, so the
sup of beta is taken over the distinct pairs.  A key (spread, ray, radius)
per side names each pair; the keys of a chunk, with the replica as the
primary column, are made distinct by one lexsort, so each replica's distinct
keys are one run in the order its keys alone would take.  The upper bound
W1 TV / (W1 + TV) from beta's two end slopes is computed for every key of
the chunk at once.  Per replica, the exact cutting plane of
``beta_distance`` runs on its keys in order of decreasing bound, on a ray
table built from the key without building measures, and stops once no bound
can raise the sup, so the sup is the same float as over every pair.  Solved
pairs go into a dict that the replicas of a call share and the caller may
share between calls (``starflow convergence`` shares one across its n and
chunks), so each distinct pair is solved once per run.  The graph distance
is one array expression.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .beta import beta_from_rays
from .errors import OutOfDomainError
from .flows import closed_forms_from
from .graph import GraphPoint, RayParams, point
from .walk import NOT_HIT, WalkWindow


def floor_time(u):
    """Floor with the symmetric convention floor(u) = -floor(-u) for u <= 0;
    elementwise on an array."""
    k = np.where(np.asarray(u) <= 0, np.ceil(u), np.floor(u)).astype(np.int64)
    return int(k) if k.ndim == 0 else k


def step_at(n: int, t):
    """The walk step k that the discrete side reads at time t, elementwise on
    an array: floor_time(n t) in exact arithmetic, except that a time that is
    the float of j/(2n) reads floor_time(j / 2).  The float of k/n can fall
    below k/n, and the float n t can round up to a step, so the step comes
    from the integer j with j/(2n) <= t < (j + 1)/(2n) in floats, which the
    rounding of j/(2n) keeps in order."""
    t = np.asarray(t, dtype=float)
    j = np.floor(2 * n * t)
    j -= j / (2 * n) > t
    j += (j + 1) / (2 * n) <= t
    k = np.where((j / (2 * n) == t) | (t > 0), floor_time(j / 2), floor_time((j + 1) / 2))
    return int(k) if k.ndim == 0 else k


def _scalar(a: np.ndarray):
    """A 0-d array as a float, any other array as it is."""
    return float(a) if a.ndim == 0 else a


@dataclass(frozen=True)
class ContinuousPath:
    """A piecewise-linear path with uniform breakpoints k/n.

    k0 is the walk index of the first breakpoint, so the domain is
    [k0/n, (k0+len-1)/n] and value(k/n) = walk value at k divided by sqrt(n).
    Values with leading axes hold one path per row (``values[..., k]``), and
    each reader returns one value per row and time.
    """

    n: int
    k0: int
    values: np.ndarray  # rescaled values at breakpoints

    @property
    def t_min(self) -> float:
        return self.k0 / self.n

    @property
    def t_max(self) -> float:
        return (self.k0 + self.values.shape[-1] - 1) / self.n

    def value(self, t):
        """The path at a time, or elementwise at an array of times; shape
        (rows..., times...)."""
        u = np.asarray(t, dtype=float) * self.n - self.k0
        last = self.values.shape[-1] - 1
        outside = (u < -1e-9) | (u > last + 1e-9)
        if np.any(outside):
            bad = np.asarray(t)[outside] if u.ndim else t
            raise OutOfDomainError(f"time {bad} outside [{self.t_min}, {self.t_max}]")
        u = np.clip(u, 0.0, last)
        # on the last breakpoint k = last - 1 and frac = 1 give its value
        k = np.minimum(np.floor(u).astype(np.int64), last - 1)
        frac = u - k
        # np.take along the last axis reads rows faster than values[..., k]
        return _scalar(np.take(self.values, k, axis=-1) * (1 - frac)
                       + np.take(self.values, k + 1, axis=-1) * frac)

    def running_min(self, s: float, t):
        """inf over [s, t], elementwise for an array of t; exact since
        extrema sit at breakpoints or endpoints."""
        a = max(int(math.ceil(s * self.n - self.k0 - 1e-9)), 0)
        b = np.floor(np.asarray(t, dtype=float) * self.n - self.k0 + 1e-9).astype(np.int64)
        # prefix[..., j] is the minimum of values[..., a : a + j], with
        # prefix[..., 0] = inf
        rest = self.values[..., a:]
        prefix = np.minimum.accumulate(
            np.concatenate([np.full((*rest.shape[:-1], 1), np.inf), rest], axis=-1), axis=-1)
        at_s = np.reshape(self.value(s), (*self.values.shape[:-1], *(1,) * b.ndim))
        m = np.minimum(np.minimum(at_s, self.value(t)),
                       np.take(prefix, np.clip(b + 1 - a, 0, prefix.shape[-1] - 1), axis=-1))
        return _scalar(m)


def rescale_path(walk: WalkWindow, n: int) -> ContinuousPath:
    """Diffusive rescaling of a walk window: value S_k / sqrt(n) at time k/n."""
    return ContinuousPath(n, walk.p_min, walk.values / math.sqrt(n))


def tau_hit(w: ContinuousPath, s: float, x: GraphPoint | float):
    """First r >= s with W_r - W_s = -|x|, solved exactly on the linear
    segments, one per row of w; NOT_HIT if the level is never reached in the
    domain."""
    level = x if isinstance(x, (int, float)) else float(x.radius)
    if level < 0:
        raise OutOfDomainError("radius must be nonnegative")
    if s < w.t_min - 1e-9 or s > w.t_max + 1e-9:
        raise OutOfDomainError(f"time {s} outside path domain")
    at_s = np.asarray(w.value(s))
    if level == 0:
        return _scalar(np.full(at_s.shape, s))
    target = at_s - level
    # the first breakpoint at or after s at or below the target, then the
    # crossing on the segment that ends there
    ks = np.arange(max(int(math.ceil(s * w.n - w.k0 - 1e-9)), 0), w.values.shape[-1])
    t_k = (w.k0 + ks) / w.n
    on = t_k >= s
    t_k, v_k = t_k[on], np.take(w.values, ks[on], axis=-1)
    if not len(t_k):  # s within the tolerance past the last breakpoint
        tau = np.full(at_s.shape, NOT_HIT)
    else:
        # j is the first breakpoint at or below the target, 0 where none is
        j = np.argmax(v_k <= target[..., None], axis=-1)
        cross_v = np.take_along_axis(v_k, j[..., None], -1)[..., 0]
        hit = cross_v <= target
        prev_t = np.where(j > 0, t_k[j - 1], s)
        prev_v = np.where(j > 0, np.take_along_axis(v_k, j[..., None] - 1, -1)[..., 0], at_s)
        frac = np.divide(prev_v - target, prev_v - cross_v, out=np.zeros(at_s.shape), where=hit)
        tau = np.where(hit, prev_t + frac * (t_k[j] - prev_t), NOT_HIT)
    # on one path NOT_HIT itself, which callers may test by identity
    return tau if tau.ndim else NOT_HIT if tau == NOT_HIT else float(tau)


def _measure_keys(spread, ray, radius) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key columns (spread, ray, radius) that name measures one to one: the
    alpha spread at a radius, the Dirac at (ray, radius), or the junction
    Dirac if the radius is not positive.  The ray is 0 for a spread, and the
    junction is (False, 0, 0.0)."""
    on = radius > 0
    return spread & on, np.where(spread | ~on, 0, ray), np.where(on, radius, 0.0)


def _distinct(columns: list[np.ndarray]) -> list[np.ndarray]:
    """The distinct rows of equal-length columns, compared by exact equality:
    one lexsort and a mask of the rows that differ from the row before
    (np.unique imports numpy.ma on first use).  The list of columns is
    sorted in place, so each unsorted column is freed once its copy is made."""
    order = np.lexsort(columns)
    for i, c in enumerate(columns):
        columns[i] = c[order]
    first = np.ones(len(order), dtype=bool)
    if len(order):
        first[1:] = np.any([c[1:] != c[:-1] for c in columns], axis=0)
    return [c[first] for c in columns]


def _beta_bounds(weights, p_spread, p_ray, p_radius, q_spread, q_ray, q_radius) -> np.ndarray:
    """For arrays of keys (spread, ray, radius) of P and Q, with alpha =
    weights: an upper bound on beta(P, Q) from its end slopes W1 = F'(0+)
    and TV = -F'(1-).  F is concave with F(0) = F(1) = 0, so F(L) <=
    min(L W1, (1 - L) TV), whose max is W1 TV / (W1 + TV); it is 0 only for
    equal measures.

    On ray i, P puts mass m at radius a and Q mass n at radius b (a = 0 where
    m = 0).  With c = P - Q off the junction, TV = ||c||_1 and W1 is the cost
    of moving c to the junction: (a - b) m + b |m - n| when a > b.  The sums
    run ray by ray, so each bound is the same float as the scalar sum.
    """
    w1 = tv = 0.0
    for i, alpha in enumerate(weights, 1):
        a = np.where((p_radius > 0) & (p_spread | (p_ray == i)), p_radius, 0.0)
        b = np.where((q_radius > 0) & (q_spread | (q_ray == i)), q_radius, 0.0)
        m = np.where(a > 0, np.where(p_spread, alpha, 1.0), 0.0)
        n = np.where(b > 0, np.where(q_spread, alpha, 1.0), 0.0)
        above, below, d = a > b, a < b, np.abs(m - n)
        w1 = w1 + np.where(above, (a - b) * m + b * d,
                           np.where(below, (b - a) * n + a * d, a * d))
        tv = tv + np.where(above | below, m + n, d)
    return np.divide(w1 * tv, w1 + tv, out=np.zeros(np.shape(tv)), where=tv > 0)


def _key_beta(weights, key: tuple) -> float:
    """beta(P, Q) for a key (spread, ray, radius) of P, then of Q: the ray
    table that ``beta_from_rays`` reads, built from the key in floats.  The
    values and their order are those ``beta_distance`` derives from the
    measures (rays from N down, each from its outermost point in), so beta is
    the same float."""
    p_spread, p_ray, p_radius, q_spread, q_ray, q_radius = key
    rays = []
    for i in range(len(weights), 0, -1):
        a = p_radius if p_radius > 0 and (p_spread or i == p_ray) else 0.0
        b = q_radius if q_radius > 0 and (q_spread or i == q_ray) else 0.0
        m = (weights[i - 1] if p_spread else 1.0) if a else 0.0
        n = (weights[i - 1] if q_spread else 1.0) if b else 0.0
        atoms = [(a, m - n)] if a == b else [(a, m), (b, -n)] if a > b else [(b, -n), (a, m)]
        atoms = [(radius, c) for radius, c in atoms if radius and c]
        if len(atoms) == 2:
            (outer, c_outer), (inner, c_inner) = atoms
            rays.append(([outer - inner, inner], [c_outer, c_inner]))
        elif atoms:
            rays.append(([atoms[0][0]], [atoms[0][1]]))
    return beta_from_rays(rays, False)


def _memo_beta(weights, betas: dict, key: tuple) -> float:
    """beta for a key, solved on its first call and read from betas after."""
    beta = betas.get(key)
    if beta is None:
        beta = betas[key] = _key_beta(weights, key)
    return beta


def _screened_sup(bounds: np.ndarray, keys: list[np.ndarray], solve) -> tuple[float, int]:
    """(max of 0 and solve(key) over every key, keys evaluated) for the rows
    of the key columns, given bounds at least solve(key) up to rounding, and
    0 only where solve(key) is.  Keys are evaluated by decreasing bound until
    no bound can raise the max; ties keep the key order, and either order
    evaluates every key of a tie, since its value cannot exceed the bound
    that let its first key through.  The margin is far above beta_distance's
    rounding (< 1e-15) and keeps a key whose value rounds above its bound."""
    order = np.argsort(-bounds, kind="stable")
    sup, evaluated = 0.0, 0
    for bound, key in zip(bounds[order].tolist(), zip(*(c[order].tolist() for c in keys))):
        if not bound or bound * (1 + 1e-9) + 1e-12 < sup:
            break
        sup = max(sup, solve(key))
        evaluated += 1
    return sup, evaluated


def grid_and_midpoints(n: int, s: float, t_end: float) -> np.ndarray:
    """Breakpoints k/n in [s, t_end] plus segment midpoints (where the sup of
    a piecewise-linear expression in t can sit), plus the endpoints, sorted
    and without repeats.  Breakpoints and midpoints are the floats j/(2n) of
    integers j, from which ``step_at`` reads their step."""
    k_lo = int(math.ceil(s * n - 1e-9))
    k_hi = int(math.floor(t_end * n + 1e-9))
    halves = np.arange(2 * k_lo, 2 * k_hi + 1) / (2 * n)
    # sort and drop neighbours by hand: np.unique imports numpy.ma on first use
    grid = np.sort(np.concatenate([[s, t_end], halves]))
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]


def convergence_profiles(fr, params: RayParams, s: float, big_t: float, x: GraphPoint,
                         n: int, times=None, betas: dict | None = None) -> list[dict]:
    """Profiles of both limits at scale n, one row per realization of fr: per
    row of a realization with a leading replica axis, in row order.

    fr's walk covers [floor(ns), floor(n(s+T))].  The discrete start is
    x_n = (x.ray, round(sqrt(n) |x|)) in walk units.  sup_beta is
    sup_t beta(rescaled discrete kernel, Wiener kernel) and sup_distance is
    sup_t d(rescaled Psi, structural value with the realized rays), both on
    the same rescaled walk.  times: evaluation times for the sups; defaults
    to the full n-grid with midpoints.  betas: beta by key of the pair of
    measures, filled as pairs are solved; calls that share one dict, and the
    rows of one call, solve each distinct pair once between them.  Each row
    also counts its mesh times, its distinct pairs of measures, the beta
    evaluations the sup took and the solves among them that betas did not
    hold before its row.
    """
    weights = [float(a) for a in params.alpha]
    betas = {} if betas is None else betas
    solve = functools.partial(_memo_beta, weights, betas)
    walk = fr.walk
    w = rescale_path(walk, n)
    root = math.sqrt(n)
    x_n = point(x.ray, round(root * x.radius), params.N)
    p = step_at(n, s)
    ts = np.asarray(grid_and_midpoints(n, s, s + big_t) if times is None else times,
                    dtype=float)
    if np.any(ts < s):
        raise OutOfDomainError(f"need s <= t, got {s} > {ts.min()}")
    # every array below is (replicas, times); a 1-D realization is one replica
    replicas = math.prod(walk.values.shape[:-1])
    shape = (replicas, len(ts))
    k_t = np.clip(step_at(n, ts), walk.p_min, walk.p_max)
    after_n, ray_n, radius_n = (np.reshape(np.take(a, k_t - p, axis=-1), shape)
                                for a in closed_forms_from(fr, p, x_n))
    radius_n = radius_n / root
    # the Wiener side: radial translate up to the hitting time, W+ after it
    after = ts > np.reshape(tau_hit(w, s, x), (-1, 1))
    wt = np.reshape(w.value(ts), shape)
    radius = np.where(after, wt - np.reshape(w.running_min(s, ts), shape),
                      float(x.radius) + wt - np.reshape(w.value(s), (-1, 1)))
    # after the hit the structural value sits on the realized ray
    phi_ray = np.where(radius > 0, np.where(after, ray_n, x.ray), params.N)
    phi = np.where(radius > 0, radius, 0.0)
    dist_sups = np.where(ray_n == phi_ray, np.abs(radius_n - phi), radius_n + phi).max(
        axis=1, initial=0.0).tolist()
    del wt, phi_ray, phi
    # beta is a function of its two measures, which repeat along the mesh
    # and across realizations: distinct pairs by key, each solved once.  The
    # replica is the primary sort column, so each replica's keys form one
    # run, in the order of the replica's keys alone.  Its column takes the
    # smallest integer type, one byte a key up to 256 replicas
    replica = np.broadcast_to(np.arange(replicas, dtype=np.min_scalar_type(replicas))[:, None],
                              shape)
    columns = [c.ravel() for c in (*_measure_keys(after_n, ray_n, radius_n),
                                   *_measure_keys(after, x.ray, radius), replica)]
    # the mesh arrays are not read again: free them before the sort
    del after_n, ray_n, radius_n, after, radius
    *keys, key_replica = _distinct(columns)
    del columns
    bounds = _beta_bounds(weights, *keys)
    ends = np.searchsorted(key_replica, np.arange(replicas + 1)).tolist()
    rows = []
    for lo, hi, sup_d in zip(ends, ends[1:], dist_sups):
        held = len(betas)
        sup_beta, evaluated = _screened_sup(bounds[lo:hi], [c[lo:hi] for c in keys], solve)
        rows.append({"n": n, "sup_beta": sup_beta, "sup_distance": sup_d,
                     "times": len(ts), "beta_pairs": hi - lo,
                     "beta_evaluations": evaluated,
                     "beta_solves": len(betas) - held})
    return rows

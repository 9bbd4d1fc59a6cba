"""Bounded-Lipschitz metric between finitely supported measures on the star graph.

beta(P, Q) = sup { |int g dP - int g dQ| : ||g||_inf + Lip(g) <= 1, g(0) = 0 }.

With Lipschitz budget L and sup budget M = 1 - L the problem splits by ray:
across rays d(z, w) = |z| + |w|, so |g(z) - g(w)| <= L d(z, w) follows from
the constraints that chain each ray out from the anchor g(0) = 0.  Hence
beta = max over L in [0, 1] of F(L) = sum over rays of V_r(L), where V_r(L)
is the best sum_i c_i g_i over one ray's points x_1 < ... < x_k (c = P - Q)
with |g_i| <= M and |g_i - g_{i-1}| <= L (x_i - x_{i-1}), x_0 = g_0 = 0.
F is concave and piecewise linear with F(0) = F(1) = 0.

``beta_distance`` is the production solver: a dynamic program per ray gives
V_r and its slope at one L, and a cutting plane maximises F.  It is exact (a
``Fraction``) when every radius is rational.  The cutting plane,
``beta_from_rays``, reads a table of (gaps, masses) per ray, so a caller that
knows the atoms of its measures can solve without building them.  Three
oracles check the solver, sharing none of its code.  Each solves the finite
LP over g on supp(P) u supp(Q) u {0} with every pair constraint, which is
exact because any feasible assignment there extends to the whole graph
(Lipschitz extension with truncation):

* ``beta_lp_oracle``     - HiGHS;
* ``beta_grid_oracle``   - brute-force grid search (<= 2 free values);
* ``beta_vertex_oracle`` - enumeration of the polytope's vertices (<= 4 free
                           values), independent of the LP solver's pivoting.
                           It solves a table of row subsets built once per
                           support size, in chunks of a fixed size.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .graph import DiscreteMeasure, GraphPoint, graph_distance

_FEAS_TOL = 1e-9
_FLOAT_GAP = 1e-14  # cutting-plane stop for float input: a few roundings
_GRID_STEP = 1e-3  # spacing of beta_grid_oracle's g-values
_VERTEX_CHUNK = 2048  # subsets beta_vertex_oracle solves at once
# HiGHS's default 1e-7 feasibility tolerance lets the LP overshoot beta by up
# to about 1e-7 when radii are below about 1e-6
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


def _rays(P: DiscreteMeasure, Q: DiscreteMeasure) -> tuple[list, bool]:
    """Per ray, (gaps, masses) of c = P - Q from the outermost point in, with
    gaps[i] = x_i - x_{i-1} (x_0 = 0); the junction and zero masses dropped.
    Numbers are Fractions when every radius is rational, else floats."""
    exact = not any(isinstance(pt.radius, float) for m in (P, Q) for pt in m.atoms)
    num = Fraction if exact else float
    diff: dict[tuple, Fraction | float] = {}
    for meas, sign in ((P, 1), (Q, -1)):
        for pt, w in meas.atoms.items():
            if pt.radius:
                key = (pt.ray, num(pt.radius))
                diff[key] = diff.get(key, 0) + sign * num(w)
    by_ray: dict[int, list] = {}
    for (ray, radius), c in sorted(diff.items(), reverse=True):
        if c:
            by_ray.setdefault(ray, []).append((radius, c))
    rays = []
    for atoms in by_ray.values():
        radii = [radius for radius, _ in atoms]
        rays.append(([a - b for a, b in zip(radii, radii[1:] + [0])], [c for _, c in atoms]))
    return rays, exact


def _value_at(knots: list, slopes: list, v, dv, at: tuple):
    """f and its derivative in L at the point ``at``, walking right from
    knots[0] (where they are v and dv), and the index of the piece holding it."""
    k = 0
    while knots[k + 1] <= at:
        s = slopes[k]
        v += s * (knots[k + 1][0] - knots[k][0])
        dv += s * (knots[k + 1][1] - knots[k][1])
        k += 1
    s = slopes[k]
    return v + s * (at[0] - knots[k][0]), dv + s * (at[1] - knots[k][1]), k


def _ray_value(gaps: list, masses: list, L):
    """(V_r(L), right derivative of V_r at L) for one ray, 0 < L < 1.

    f(g) is the best value of the points outside the current one given g
    there: concave and piecewise linear in g.  It is stored as its knots, each
    a pair (position, derivative of the position in L), the slope of each
    piece, which does not depend on L, and its value at the first knot.
    Tuples compare positions first and derivatives second, which orders the
    knots as they stand just right of L, so the derivative is the right one.
    """
    M = 1 - L
    lo, hi = (-M, 1), (M, -1)
    knots, slopes, v, dv = [lo, hi], [0], 0, 0
    for d, c in zip(gaps, masses):
        # restrict f to |g| <= M
        v, dv, k = _value_at(knots, slopes, v, dv, lo)
        knots, slopes = [lo] + knots[k + 1:], slopes[k:]
        k = len(knots) - 1
        while knots[k] >= hi:
            k -= 1
        knots, slopes = knots[:k + 1] + [hi], slopes[:k + 1]
        # add c g
        slopes = [s + c for s in slopes]
        v, dv = v + c * lo[0], dv + c * lo[1]
        # max over a window of half-width w = L d: split at the argmax knot j
        # (the first whose right slope is <= 0) and insert a flat piece
        j = next((k for k, s in enumerate(slopes) if s <= 0), len(slopes))
        w = L * d
        knots = ([(p - w, dp - d) for p, dp in knots[:j + 1]]
                 + [(p + w, dp + d) for p, dp in knots[j:]])
        slopes.insert(j, 0)
    return _value_at(knots, slopes, v, dv, (0, 0))[:2]  # the junction, g_0 = 0


def beta_distance(P: DiscreteMeasure, Q: DiscreteMeasure) -> Fraction | float:
    """Exact bounded-Lipschitz distance, a Fraction if every radius is rational."""
    return beta_from_rays(*_rays(P, Q))


def beta_from_rays(rays: list, exact: bool) -> Fraction | float:
    """beta of the ray table of ``_rays``: per ray, (gaps, masses) of P - Q
    from the outermost point in; exact for Fractions, else floats.

    Cutting plane on F: the first supporting lines have slope F'(0+), the cost
    of moving c to the junction (edge lengths times the mass beyond them), and
    F'(1-) = -||c||_1.  Each round evaluates F and its right derivative where
    the two current lines cross, and stops when F meets them there.
    """
    zero = Fraction(0) if exact else 0.0
    if not rays:
        return zero
    slope_lo = sum(d * abs(tail) for gaps, masses in rays
                   for d, tail in zip(gaps, itertools.accumulate(masses)))
    slope_hi = -sum(abs(c) for _, masses in rays for c in masses)
    lo, f_lo, hi, f_hi = zero, zero, zero + 1, zero
    while True:
        L = (f_hi - f_lo + slope_lo * lo - slope_hi * hi) / (slope_lo - slope_hi)
        if not lo < L < hi:  # float rounding only; exact crossings stay inside
            return max(f_lo, f_hi)
        f, slope = zero, zero
        for gaps, masses in rays:
            v, dv = _ray_value(gaps, masses, L)
            f, slope = f + v, slope + dv
        if f_lo + slope_lo * (L - lo) - f <= (0 if exact else _FLOAT_GAP) or slope == 0:
            return f
        if slope > 0:
            lo, f_lo, slope_lo = L, f, slope
        else:
            hi, f_hi, slope_hi = L, f, slope


def _signed_weights(P: DiscreteMeasure, Q: DiscreteMeasure) -> tuple[list[GraphPoint], np.ndarray]:
    """Union support without the junction, and the vector P - Q on it."""
    diff: dict[GraphPoint, Fraction] = {}
    for meas, sign in ((P, 1), (Q, -1)):
        for pt, w in meas.atoms.items():
            if pt.radius == 0:
                continue  # g(0) = 0, contributes nothing
            diff[pt] = diff.get(pt, Fraction(0)) + sign * w
    pts = [p for p, c in diff.items() if c != 0]
    c = np.array([float(diff[p]) for p in pts])
    return pts, c


def _constraint_rows(pts: list[GraphPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Rows A, b with A v <= b for v = (g_1..g_k, L, M).

    Encodes |g_z| <= M, |g_z - g_w| <= L d(z, w) for all pairs including the
    junction (where g = 0), and L + M <= 1.  M >= 0 and L >= 0 follow from
    |g_z| <= M and |g_z| <= L d(z, 0) with d(z, 0) > 0.
    """
    k = len(pts)
    rows, rhs = [], []

    def row(gcoef, Lcoef, Mcoef, b):
        r = np.zeros(k + 2)
        for j, v in gcoef:
            r[j] = v
        r[k] = Lcoef
        r[k + 1] = Mcoef
        rows.append(r)
        rhs.append(b)

    for j, z in enumerate(pts):
        row([(j, 1.0)], 0.0, -1.0, 0.0)   # g_j <= M
        row([(j, -1.0)], 0.0, -1.0, 0.0)  # -g_j <= M
        dj0 = float(z.radius)
        row([(j, 1.0)], -dj0, 0.0, 0.0)   # g_j <= L d(z, 0)
        row([(j, -1.0)], -dj0, 0.0, 0.0)
    for j, l in itertools.combinations(range(k), 2):
        d = float(graph_distance(pts[j], pts[l]))
        row([(j, 1.0), (l, -1.0)], -d, 0.0, 0.0)
        row([(j, -1.0), (l, 1.0)], -d, 0.0, 0.0)
    row([], 1.0, 1.0, 1.0)    # L + M <= 1
    return np.array(rows), np.array(rhs)


def beta_lp_oracle(P: DiscreteMeasure, Q: DiscreteMeasure) -> float:
    """The finite LP solved by HiGHS."""
    from scipy.optimize import linprog  # oracle only: keeps scipy.optimize off import

    pts, c = _signed_weights(P, Q)
    if len(pts) == 0:
        return 0.0
    A, b = _constraint_rows(pts)
    k = len(pts)
    obj = np.concatenate([-c, [0.0, 0.0]])  # linprog minimizes
    bounds = [(-1.0, 1.0)] * k + [(0.0, 1.0), (0.0, 1.0)]
    res = linprog(obj, A_ub=A, b_ub=b, bounds=bounds, method="highs",
                  options=_HIGHS_OPTIONS)
    if not res.success:  # pragma: no cover - LP is always feasible (g = 0)
        raise RuntimeError(f"beta LP failed: {res.message}")
    return max(0.0, -res.fun)


def beta_grid_oracle(P: DiscreteMeasure, Q: DiscreteMeasure) -> float:
    """Brute-force grid search over g-values in [-1, 1], 1e-3 apart.

    Enumerates every grid assignment and keeps those with
    ||g||_inf + Lip(g) <= 1.  Only practical for <= 2 free values.
    """
    pts, c = _signed_weights(P, Q)
    k = len(pts)
    if k == 0:
        return 0.0
    if k > 2:
        raise ValueError("grid oracle supports at most 2 free g-values")
    grid = np.arange(-1.0, 1.0 + _GRID_STEP / 2, _GRID_STEP)
    radii = np.array([float(p.radius) for p in pts])
    if k == 1:
        g = grid[:, None]
    else:
        g = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    sup = np.abs(g).max(axis=1)
    lip = np.max(np.abs(g) / radii[None, :], axis=1)  # anchor pairs (z, 0)
    if k == 2:
        d = float(graph_distance(pts[0], pts[1]))
        lip = np.maximum(lip, np.abs(g[:, 0] - g[:, 1]) / d)
    feasible = sup + lip <= 1.0 + _FEAS_TOL
    vals = g[feasible] @ c
    return float(np.abs(vals).max(initial=0.0))


def _combinations(m: int, r: int) -> np.ndarray:
    """The r-subsets of range(m), r >= 1, as the rows of an int8 array in
    the order of ``itertools.combinations``: each row of r - 1 values is
    followed by every value above its last."""
    combos = np.arange(m, dtype=np.int8)[:, None]
    for _ in range(r - 1):
        last = combos[:, -1].astype(np.int32)
        counts = m - 1 - last
        after = np.arange(counts.sum(), dtype=np.int32)
        after -= np.repeat(np.cumsum(counts, dtype=np.int32) - counts - last - 1, counts)
        combos = np.hstack([np.repeat(combos, counts, axis=0), after.astype(np.int8)[:, None]])
    return combos


@functools.lru_cache(maxsize=None)
def _vertex_subsets(m: int, n: int) -> np.ndarray:
    """Read-only int8 table of the n-subsets of m rows that the vertex oracle
    solves: each holds the last row m - 1 and n - 1 rows of the pairs
    (2i, 2i + 1) below it, and is kept when the first pair it holds only one
    row of gives its even row.  That is the lexicographically smaller of the
    subset and its mirror under 2i <-> 2i + 1; self-mirrors hold no lone row
    and are dropped.  So is every subset whose rows leave a column of A at
    zero on every support of n - 2 points: its determinant is exactly 0."""
    combos = _combinations(m - 1, n - 1)
    pair = combos >> 1  # rows are sorted, so the two rows of a pair sit side by side
    edge = np.ones((len(combos), 1), dtype=bool)
    lone = (np.hstack([edge, pair[:, 1:] != pair[:, :-1]])
            & np.hstack([pair[:, :-1] != pair[:, 1:], edge]))
    first = np.take_along_axis(combos, lone.argmax(axis=1)[:, None], 1)[:, 0]
    keep = lone.any(axis=1) & (first % 2 == 0)
    table = np.hstack([combos[keep], np.full((int(keep.sum()), 1), m - 1, dtype=np.int8)])
    # the zero pattern of A depends on the support size only: one point per
    # radius 1..n - 2 on one ray has it
    touched = _constraint_rows([GraphPoint(1, r) for r in range(1, n - 1)])[0] != 0
    if touched.shape != (m, n):
        raise ValueError(f"no support has {m} constraint rows and {n} unknowns")
    columns = (touched @ (1 << np.arange(n))).astype(np.uint8)  # each row's columns as bits
    table = table[np.bitwise_or.reduce(columns[table], axis=1) == (1 << n) - 1]
    table.flags.writeable = False
    return table


def beta_vertex_oracle(P: DiscreteMeasure, Q: DiscreteMeasure) -> float:
    """Exact optimum by enumerating basic feasible points of the polytope.

    Every vertex of {v : A v <= b} solves some n-subset of tight rows; the
    LP optimum is the best feasible such solution.  Every row but the last
    (L + M <= 1) has right-hand side 0, so a nonsingular subset without it
    solves to the origin, whose value 0 is the floor of the max: only the
    subsets through the last row are solved.  The other rows come in pairs
    2i, 2i + 1 that swap under g -> -g, which maps each vertex to one of the
    same |value|: of a subset and its mirror only the lexicographically
    smaller is solved, and a subset that is its own mirror, which solves to
    g = 0, not at all.  The subsets depend only on the support size, so their
    table is built once per size; it is solved in chunks of a fixed number of
    subsets, each n x n system factored on its own.  Exponential in the support size,
    intended for <= 4 non-junction support points.
    """
    pts, c = _signed_weights(P, Q)
    k = len(pts)
    if k == 0:
        return 0.0
    if k > 4:
        raise ValueError("vertex oracle supports at most 4 free g-values")
    A, b = _constraint_rows(pts)
    table = _vertex_subsets(*A.shape)
    best = 0.0
    for start in range(0, len(table), _VERTEX_CHUNK):
        combos = table[start:start + _VERTEX_CHUNK]
        sub_A = A[combos]                  # (subsets, n, n)
        sub_b = b[combos]
        good = np.abs(np.linalg.det(sub_A)) > 1e-10
        verts = np.linalg.solve(sub_A[good], sub_b[good][..., None])[..., 0]
        feas = np.all(A @ verts.T <= b[:, None] + _FEAS_TOL, axis=0)
        vals = verts[feas][:, :k] @ c
        best = max(best, float(np.abs(vals).max(initial=0.0)))
    return best

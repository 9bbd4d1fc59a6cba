"""Bounded-Lipschitz metric: the exact solver against the LP, grid and vertex
oracles, exact values, and metric properties."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from starflow.beta import (_FEAS_TOL, _constraint_rows, _ray_value, _rays,
                           _signed_weights, _vertex_subsets, beta_distance,
                           beta_grid_oracle, beta_lp_oracle, beta_vertex_oracle)
from starflow.graph import (DiscreteMeasure, GraphPoint, RayParams, graph_distance,
                            junction, point)
from starflow.rng import make_rng

PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))


def _dirac(ray, radius):
    return DiscreteMeasure.dirac(point(ray, radius, 3) if radius == int(radius)
                                 else GraphPoint(ray, radius))


def random_measure(rng, max_support=2):
    k = int(rng.integers(1, max_support + 1))
    pts = []
    while len(pts) < k:
        p = point(int(rng.integers(1, 4)), int(rng.integers(0, 5)), 3)
        if p not in pts:
            pts.append(p)
    cuts = np.sort(rng.integers(1, 10, size=len(pts) - 1)) if len(pts) > 1 else []
    weights = np.diff(np.concatenate([[0], cuts, [10]]))
    return DiscreteMeasure([(p, Fraction(int(w), 10)) for p, w in zip(pts, weights)
                            if w > 0])


def test_beta_identical_measures_zero():
    m = _dirac(1, 3)
    assert beta_distance(m, m) == 0


def test_beta_dirac_vs_junction_half():
    assert beta_distance(_dirac(1, 1), _dirac(1, 0)) == Fraction(1, 2)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0])
def test_beta_dirac_closed_form(r):
    p = DiscreteMeasure.dirac(GraphPoint(1, r))
    q = DiscreteMeasure.dirac(junction(3))
    val = beta_distance(p, q)
    assert val == pytest.approx(r / (1 + r), abs=1e-9)
    assert val == pytest.approx(beta_lp_oracle(p, q), abs=1e-9)
    exact = Fraction(r)
    assert beta_distance(DiscreteMeasure.dirac(GraphPoint(1, exact)), q) == \
        exact / (1 + exact)


def test_beta_spread_bound():
    for r, rp in ((3, 1), (2, 0.5), (1.25, 1.0)):
        p = DiscreteMeasure.ray_spread(PARAMS, r)
        q = DiscreteMeasure.ray_spread(PARAMS, rp)
        val = beta_distance(p, q)
        assert val == pytest.approx(beta_lp_oracle(p, q), abs=1e-9)
        assert val <= 2.0 + 1e-12


def test_lp_matches_grid_oracle_small():
    # the literal 1e-3 grid over g-values is only tractable for <= 2 free
    # values; random pairs here are built within that budget
    rng = make_rng(11, 0)
    for _ in range(25):
        p = random_measure(rng, max_support=1)
        q = random_measure(rng, max_support=1)
        support = set(p.atoms) | set(q.atoms)
        support.discard(junction(3))
        if len(support) > 2:
            continue
        grid = beta_grid_oracle(p, q)
        assert beta_lp_oracle(p, q) == pytest.approx(grid, abs=2e-3)
        assert float(beta_distance(p, q)) == pytest.approx(grid, abs=2e-3)


def test_lp_matches_vertex_oracle():
    # the two oracles check each other; criterion 6 checks the solver
    rng = make_rng(12, 0)
    for _ in range(200):
        p = random_measure(rng, max_support=2)
        q = random_measure(rng, max_support=2)
        assert beta_lp_oracle(p, q) == pytest.approx(
            beta_vertex_oracle(p, q), abs=1e-9)


def _vertex_reference(P, Q):
    """The vertex oracle solving every n-subset of the constraint rows."""
    pts, c = _signed_weights(P, Q)
    k = len(pts)
    if k == 0:
        return 0.0
    A, b = _constraint_rows(pts)
    n = k + 2
    combos = np.array(list(itertools.combinations(range(len(A)), n)))
    sub_A = A[combos]
    sub_b = b[combos]
    dets = np.linalg.det(sub_A)
    good = np.abs(dets) > 1e-10
    verts = np.linalg.solve(sub_A[good], sub_b[good][..., None])[..., 0]
    feas = np.all(A @ verts.T <= b[:, None] + _FEAS_TOL, axis=0)
    vals = verts[feas][:, :k] @ c
    return float(np.abs(vals).max(initial=0.0))


def _jitter_radii(rng, m):
    """m with each non-junction radius moved by a float in (-0.4, 0.4)."""
    return DiscreteMeasure((GraphPoint(pt.ray, pt.radius + float(rng.uniform(-0.4, 0.4)))
                            if pt.radius else pt, w) for pt, w in m.atoms.items())


def test_vertex_oracle_matches_full_subset_enumeration():
    # the subsets that leave out the L + M <= 1 row solve to the origin, so
    # solving only the rest must give the same float, bit for bit
    rng = make_rng(18, 0)
    wanted = {1: 70, 2: 70, 3: 70, 4: 5}  # pairs by number of free g-values
    while any(wanted.values()):
        p, q = random_measure(rng), random_measure(rng)
        if rng.random() < 0.5:
            p, q = _jitter_radii(rng, p), _jitter_radii(rng, q)
        k = len(_signed_weights(p, q)[0])
        if wanted.get(k, 0) == 0:
            continue
        wanted[k] -= 1
        assert beta_vertex_oracle(p, q) == _vertex_reference(p, q), (p, q)


def _vertex_unhalved(P, Q):
    """The vertex oracle solving every subset through the last row, a subset
    and its mirror under g -> -g both."""
    pts, c = _signed_weights(P, Q)
    k = len(pts)
    if k == 0:
        return 0.0
    A, b = _constraint_rows(pts)
    m, n = A.shape
    combos = np.array([(*rows, m - 1) for rows in itertools.combinations(range(m - 1), n - 1)])
    sub_A = A[combos]
    sub_b = b[combos]
    dets = np.linalg.det(sub_A)
    good = np.abs(dets) > 1e-10
    verts = np.linalg.solve(sub_A[good], sub_b[good][..., None])[..., 0]
    feas = np.all(A @ verts.T <= b[:, None] + _FEAS_TOL, axis=0)
    vals = verts[feas][:, :k] @ c
    return float(np.abs(vals).max(initial=0.0))


def test_vertex_oracle_matches_unhalved_enumeration():
    # a mirrored subset solves to the mirrored vertex, whose value has the
    # same absolute value, so solving one of each pair gives the same float
    rng = make_rng(19, 0)
    wanted = {1: 30, 2: 30, 3: 30, 4: 5}
    while any(wanted.values()):
        p, q = random_measure(rng), random_measure(rng)
        if rng.random() < 0.5:
            p, q = _jitter_radii(rng, p), _jitter_radii(rng, q)
        k = len(_signed_weights(p, q)[0])
        if wanted.get(k, 0) == 0:
            continue
        wanted[k] -= 1
        assert beta_vertex_oracle(p, q) == _vertex_unhalved(p, q), (p, q)


def _halved_subsets_reference(m, n):
    """The subsets through the last row of m that keep the lexicographically
    smaller of each mirror pair under 2i <-> 2i + 1, built from the sorted
    mirror of every subset."""
    combos = np.array(list(itertools.combinations(range(m - 1), n - 1)))
    mirror = np.sort(combos ^ 1, axis=1)
    first = (combos != mirror).argmax(axis=1)[:, None]
    keep = (np.take_along_axis(combos, first, 1) < np.take_along_axis(mirror, first, 1))[:, 0]
    return np.hstack([combos[keep], np.full((int(keep.sum()), 1), m - 1)])


def _covers_every_column(A, subsets):
    """For each row subset, whether its rows of A touch every column."""
    return (A[subsets] != 0).any(axis=1).all(axis=1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_vertex_subset_table_matches_mirror_filter(k):
    # the mirror filter's subsets, less those that leave a column of A at zero
    m, n = k * k + 3 * k + 1, k + 2  # rows of _constraint_rows on k points
    A = _constraint_rows([point(1, r, 3) for r in range(1, k + 1)])[0]
    assert A.shape == (m, n)
    table = _vertex_subsets(m, n)
    reference = _halved_subsets_reference(m, n)
    assert table.dtype == np.int8
    assert np.array_equal(table, reference[_covers_every_column(A, reference)])
    assert _vertex_subsets(m, n) is table  # built once per size
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_vertex_table_drops_only_subsets_with_a_zero_column(k):
    # every subset the mirror filter keeps and the table drops leaves a column
    # of A at zero on any support of k points, so its determinant is exactly
    # 0 and the det cut would have dropped it
    m, n = k * k + 3 * k + 1, k + 2
    halved = _halved_subsets_reference(m, n)
    kept = set(map(tuple, _vertex_subsets(m, n).tolist()))
    dropped = halved[[row not in kept for row in map(tuple, halved.tolist())]]
    assert len(kept) + len(dropped) == len(halved)
    assert len(dropped) == {1: 0, 2: 4, 3: 300, 4: 16380}[k]
    rng = make_rng(20, k)
    for _ in range(5):
        pts = [GraphPoint(int(rng.integers(1, 4)), float(rng.uniform(0.5, 4.0)))
               for _ in range(k)]
        A = _constraint_rows(pts)[0]
        assert not _covers_every_column(A, dropped).any()
        assert np.all(np.linalg.det(A[dropped]) == 0.0)


def _four_point_pair():
    p = DiscreteMeasure([(GraphPoint(1, 1.5), Fraction(1, 2)),
                         (GraphPoint(2, 0.7), Fraction(1, 2))])
    q = DiscreteMeasure([(GraphPoint(3, 2.5), Fraction(1, 3)),
                         (GraphPoint(1, 0.3), Fraction(2, 3))])
    assert len(_signed_weights(p, q)[0]) == 4
    return p, q


def _traced_peak(f, *args):
    """(f(*args), peak bytes tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_VERTEX_PEAK_BOUND = 8 * 2**20


def test_vertex_oracle_allocation_bound():
    # one 4-point call solves 32,760 subsets, whose systems take about 23 MiB
    # when solved at once; in chunks the call stays a few MiB, whether or not
    # the subset table is already cached
    p, q = _four_point_pair()
    _vertex_subsets.cache_clear()
    for _ in range(2):  # the first call builds the table
        value, peak = _traced_peak(beta_vertex_oracle, p, q)
        assert peak < _VERTEX_PEAK_BOUND, peak
        assert value == _vertex_unhalved(p, q)


def test_vertex_oracle_chunks_cover_the_table(monkeypatch):
    # the chunks hand every subset of the filtered table to det once, in
    # order, and none of them leaves a column at zero
    p, q = _four_point_pair()
    A, _ = _constraint_rows(_signed_weights(p, q)[0])
    seen, det = [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: seen.append(a.copy()) or det(a))
    beta_vertex_oracle(p, q)
    table = _vertex_subsets(*A.shape)
    assert len(seen) > 1 and len(table) == 32_760
    assert np.array_equal(np.concatenate(seen), A[table])
    assert (np.concatenate(seen) != 0).any(axis=1).all()


def test_traced_peak_sees_numpy_allocations():
    # the bound above is not vacuous: tracemalloc counts numpy's buffers
    _, peak = _traced_peak(lambda: float(np.ones(_VERTEX_PEAK_BOUND // 8 + 1).sum()))
    assert peak > _VERTEX_PEAK_BOUND


def test_oracle_support_limits():
    five = DiscreteMeasure((point(ray, radius, 3), Fraction(1, 5))
                           for ray, radius in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2)))
    three = DiscreteMeasure((point(ray, 1, 3), Fraction(1, 3)) for ray in (1, 2, 3))
    origin = DiscreteMeasure.dirac(junction(3))
    with pytest.raises(ValueError):
        beta_vertex_oracle(five, origin)
    with pytest.raises(ValueError):
        beta_grid_oracle(three, origin)


def test_beta_symmetry_and_triangle():
    rng = make_rng(13, 0)
    for _ in range(200):
        p = random_measure(rng)
        q = random_measure(rng)
        r = random_measure(rng)
        d_pq = beta_distance(p, q)
        assert d_pq == beta_distance(q, p)
        assert d_pq <= 2
        assert d_pq <= beta_distance(p, r) + beta_distance(r, q)


def test_beta_zero_iff_equal():
    rng = make_rng(14, 0)
    for _ in range(100):
        p = random_measure(rng)
        q = random_measure(rng)
        d = beta_distance(p, q)
        if p == q:
            assert d == 0
        else:
            assert d > 0


def test_beta_dirac_bounded_by_distance():
    rng = make_rng(15, 0)
    for _ in range(100):
        a = point(int(rng.integers(1, 4)), int(rng.integers(0, 6)), 3)
        b = point(int(rng.integers(1, 4)), int(rng.integers(0, 6)), 3)
        assert beta_distance(DiscreteMeasure.dirac(a), DiscreteMeasure.dirac(b)) \
            <= graph_distance(a, b)


def test_two_spreads_closed_form_vs_lp():
    for u, v in [(1.0, 3.0), (2.0, 2.0), (0.0, 4.0), (1.0, 1.5)]:
        p = (DiscreteMeasure.dirac(junction(3)) if u == 0
             else DiscreteMeasure([(GraphPoint(i, u), PARAMS.alpha[i - 1])
                                   for i in range(1, 4)]))
        q = (DiscreteMeasure.dirac(junction(3)) if v == 0
             else DiscreteMeasure([(GraphPoint(i, v), PARAMS.alpha[i - 1])
                                   for i in range(1, 4)]))
        assert beta_distance(p, q) == pytest.approx(beta_lp_oracle(p, q), abs=1e-9)


def test_dirac_vs_spread_closed_form_vs_lp():
    for ray, rad, spread in [(1, 2, 1.0), (2, 1, 3.0), (1, 0, 2.0), (3, 3, 3.0)]:
        d = point(ray, rad, 3)
        q = DiscreteMeasure([(GraphPoint(i, spread), PARAMS.alpha[i - 1])
                             for i in range(1, 4)])
        assert beta_distance(DiscreteMeasure.dirac(d), q) == pytest.approx(
            beta_lp_oracle(DiscreteMeasure.dirac(d), q), abs=1e-9)


def test_beta_counterexample_to_fixed_candidates():
    # the optimum sits at L = 1/4, which no 1/(1 + r) or 2/(2 + d) built from
    # the radii and pairwise distances reaches; those candidates give 49/60
    p = DiscreteMeasure([(GraphPoint(1, 1), Fraction(1, 10)),
                         (GraphPoint(2, Fraction(5, 2)), Fraction(1, 5)),
                         (junction(3), Fraction(7, 10))])
    q = DiscreteMeasure([(GraphPoint(1, 5), Fraction(9, 10)),
                         (junction(3), Fraction(1, 10))])
    assert beta_distance(p, q) == Fraction(33, 40)
    assert beta_lp_oracle(p, q) == pytest.approx(33 / 40, abs=1e-12)


def test_beta_result_type():
    rational = (_dirac(1, 2), DiscreteMeasure.ray_spread(PARAMS, Fraction(7, 3)))
    assert type(beta_distance(*rational)) is Fraction
    assert type(beta_distance(_dirac(1, 2), _dirac(1, 2))) is Fraction
    assert type(beta_distance(_dirac(1, 2), _dirac(2, 0.5))) is float


def _rich_measure(rng, kind):
    """Up to 7 atoms; "ray" puts 5 to 7 of them on ray 1.  Radii are integers,
    non-integer rationals or floats depending on the kind."""
    k = int(rng.integers(5, 8)) if kind == "ray" else int(rng.integers(1, 8))
    atoms = {}
    while len(atoms) < k:
        ray = 1 if kind == "ray" else int(rng.integers(1, 4))
        if kind == "float":
            radius = float(rng.uniform(0.05, 5.0))
        else:
            radius = Fraction(int(rng.integers(0, 40)), int(rng.integers(1, 8)))
        pt = point(ray, radius, 3)
        atoms[pt] = atoms.get(pt, 0) + int(rng.integers(1, 10))
    total = sum(atoms.values())
    return DiscreteMeasure((pt, Fraction(w, total)) for pt, w in atoms.items())


def test_beta_matches_lp_oracle_randomized():
    rng = make_rng(16, 0)
    kinds = ("ray", "rational", "float")
    for i in range(1_200):
        kind = kinds[i % 3]
        p, q = _rich_measure(rng, kind), _rich_measure(rng, kind)
        val = beta_distance(p, q)
        assert type(val) is (float if kind == "float" else Fraction)
        assert float(val) == pytest.approx(beta_lp_oracle(p, q), abs=1e-12), (p, q)
    # radii spread from 1e-9 to 5: the solver runs on them as Fractions, the
    # LP on the floats, within the LP's feasibility tolerance
    rng = make_rng(16, 1)
    for _ in range(300):
        p, q = _tiny_radius_atoms(rng), _tiny_radius_atoms(rng)
        exact = beta_distance(*(_measure(atoms, Fraction) for atoms in (p, q)))
        lp = beta_lp_oracle(*(_measure(atoms, float) for atoms in (p, q)))
        assert float(exact) == pytest.approx(lp, abs=1e-9), (p, q)


def _tiny_radius_atoms(rng):
    """1 to 5 atoms with log-uniform radii in [1e-9, 5] and weights summing to 1."""
    k = int(rng.integers(1, 6))
    atoms = {}
    while len(atoms) < k:
        radius = float(np.exp(rng.uniform(np.log(1e-9), np.log(5.0))))
        atoms[(int(rng.integers(1, 4)), radius)] = int(rng.integers(1, 10))
    total = sum(atoms.values())
    return [(ray, radius, Fraction(w, total)) for (ray, radius), w in atoms.items()]


def _measure(atoms, num):
    return DiscreteMeasure((point(ray, num(radius), 3), w) for ray, radius, w in atoms)


def test_ray_value_right_derivative_at_kinks():
    # with integer radii 1..5 the pieces of V_r(L) meet at rationals such as
    # 1/(1 + x) and 2/(2 + d), all on the grid k/60; there the solver's slope
    # must be the right derivative, which the cutting plane relies on
    rng = make_rng(17, 0)
    h = Fraction(1, 10**6)
    for _ in range(60):
        rays, _ = _rays(random_measure(rng, max_support=3),
                        random_measure(rng, max_support=3))
        for gaps, masses in rays:
            for k in range(1, 60):
                L = Fraction(k, 60)
                v, dv = _ray_value(gaps, masses, L)
                assert (_ray_value(gaps, masses, L + h)[0] - v) / h == dv

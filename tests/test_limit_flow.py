"""Rescaled paths, continuum kernel, hitting times, and convergence profiles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import starflow.limit
from starflow.beta import _rays, beta_distance, beta_lp_oracle
from starflow.errors import OutOfDomainError
from starflow.flows import (FlowRealization, closed_forms_from, kernel_closed_form,
                            psi_closed_form)
from starflow.graph import GraphPoint, RayParams, graph_distance, junction, point
from starflow.limit import (NOT_HIT, ContinuousPath, _beta_bounds, _distinct, _key_beta,
                            _memo_beta, _screened_sup, convergence_profiles, floor_time,
                            grid_and_midpoints, rescale_path, step_at, tau_hit)
from starflow.oracles import beta_bound, beta_slopes, key_measure, wiener_kernel
from starflow.rng import make_rng
from starflow.walk import generate_walk

PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))


def test_floor_time_symmetric():
    assert floor_time(2.7) == 2
    assert floor_time(3.0) == 3
    assert floor_time(-0.2) == 0
    assert floor_time(-1.0) == -1


def _reference_step(n, t):
    """The step read at time t, in exact rationals: floor(j / 2) where the
    float t is that of j/(2n), else floor(n t), with the symmetric floor."""
    j = round(Fraction(t) * 2 * n)
    u = Fraction(j, 2) if float(Fraction(j, 2 * n)) == t else Fraction(t) * n
    return math.floor(u) if u > 0 else -math.floor(-u)


def test_every_mesh_time_reads_its_own_breakpoint():
    # the float k/n can fall below k/n (at n = 100, 400 and 10^4, 3, 18 and
    # 573 times on [0, 1]); every mesh time j/(2n) must still read k = j // 2
    for n in range(1, 10_001):
        ts = grid_and_midpoints(n, 0.0, 1.0)
        j = np.arange(2 * n + 1)
        assert np.array_equal(ts, j / (2 * n)), n
        assert np.array_equal(step_at(n, ts), j // 2), n


@pytest.mark.parametrize("n", [1, 7, 10, 100, 400, 10_000])
def test_step_at_matches_exact_rationals(n):
    rng = make_rng(70, n)
    grid = np.arange(-2 * n, 2 * n + 1) / (2 * n)
    off = rng.uniform(-1.0, 1.0, size=200)
    near = np.nextafter(grid, np.where(rng.random(len(grid)) < 0.5, -np.inf, np.inf))
    for ts in (grid, off, near, np.array([0.29, -0.25, 0.3, 0.57, 0.58])):
        assert step_at(n, ts).tolist() == [_reference_step(n, t) for t in ts.tolist()]
    assert step_at(n, 0.58) == _reference_step(n, 0.58)


def test_rescale_endpoints():
    walk = generate_walk(0, 100, 61, 0)
    w = rescale_path(walk, 100)
    for k in (0, 17, 100):
        assert w.value(k / 100) == pytest.approx(walk.value(k) / 10.0)
    # linear interpolation between grid points
    mid = (walk.value(4) + walk.value(5)) / 2 / 10.0
    assert w.value(0.045) == pytest.approx(mid)


def test_running_min_matches_scan():
    walk = generate_walk(0, 200, 61, 1)
    w = rescale_path(walk, 200)
    vals = np.array([walk.value(k) for k in range(201)]) / np.sqrt(200)
    for a, b in [(0, 200), (13, 77), (100, 101), (55, 55)]:
        assert w.running_min(a / 200, b / 200) == pytest.approx(vals[a:b + 1].min())


def test_tau_hit_examples():
    # descending path 0 -> -2 over [0, 2]: |x| = 1 hits at t = 1
    w = ContinuousPath(1, 0, np.array([0.0, -1.0, -2.0]))
    assert tau_hit(w, 0.0, 1.0) == pytest.approx(1.0)
    assert tau_hit(w, 0.0, 0.0) == pytest.approx(0.0)
    assert tau_hit(w, 0.0, 1.5) == pytest.approx(1.5)
    # rising path never goes below its start
    up = ContinuousPath(1, 0, np.array([0.0, 1.0, 2.0]))
    assert tau_hit(up, 0.0, 0.5) is NOT_HIT


def _tau_hit_loop(w, s, level):
    """The breakpoint-by-breakpoint scan that ``tau_hit`` replaces: the
    reference it must equal exactly."""
    if level == 0:
        return s
    target = w.value(s) - level
    prev_t, prev_v = s, w.value(s)
    for k in range(max(int(math.ceil(s * w.n - w.k0 - 1e-9)), 0), len(w.values)):
        t_k = (w.k0 + k) / w.n
        if t_k < s:
            continue
        v_k = float(w.values[k])
        if v_k <= target:
            frac = (prev_v - target) / (prev_v - v_k)
            return prev_t + frac * (t_k - prev_t)
        prev_t, prev_v = t_k, v_k
    return NOT_HIT


def test_tau_hit_matches_loop_on_every_short_walk():
    # every +-1 walk of length <= 10 on [-1/4, (length - 1)/4], rescaled at
    # n = 4; s on the grid, off it and at both ends; level 0, levels hit on
    # and between breakpoints, and one never hit
    outcomes = set()
    for length in range(1, 11):
        for steps in itertools.product((-1, 1), repeat=length):
            w = ContinuousPath(4, -1, np.concatenate([[0.0], np.cumsum(steps)]) / 2)
            for s in (w.t_min, w.t_min + 0.25, w.t_min + 0.3, w.t_min + 0.6875, w.t_max):
                if s > w.t_max:
                    continue
                for level in (0.0, 0.5, 0.75, 1.0, 1.3, 100.0):
                    got = tau_hit(w, s, level)
                    assert got == _tau_hit_loop(w, s, level)
                    outcomes.add("never" if got is NOT_HIT else
                                 "grid" if got * 4 == round(got * 4) else "between")
    assert outcomes == {"never", "grid", "between"}


def test_tau_hit_out_of_domain():
    w = ContinuousPath(1, 0, np.array([0.0, -1.0]))
    with pytest.raises(OutOfDomainError):
        tau_hit(w, -0.5, 1.0)


def test_wiener_kernel_at_start_and_branches():
    walk = generate_walk(0, 400, 62, 0)
    w = rescale_path(walk, 400)
    x = point(2, 0.3, 3)
    m = wiener_kernel(w, PARAMS, 0.25, 0.25, x)
    (pt, mass), = m.atoms.items()
    assert pt.ray == 2 and pt.radius == pytest.approx(0.3)
    assert mass == pytest.approx(1.0)
    # before the hitting time: single translated atom on the same ray
    t_hit = tau_hit(w, 0.0, 2.0)
    if t_hit is not NOT_HIT and t_hit > 0.05:
        far = point(1, 2.0, 3)
        t = t_hit / 2
        mm = wiener_kernel(w, PARAMS, 0.0, t, far)
        (pt, mass), = mm.atoms.items()
        assert pt.ray == 1 and mass == pytest.approx(1.0)


def test_wiener_kernel_spread_masses():
    # after the hit, mass alpha_i on each ray at radius s_plus (if positive)
    w = ContinuousPath(1, 0, np.array([0.0, -1.0, 0.0, 1.0]))
    m = wiener_kernel(w, PARAMS, 0.0, 3.0, point(1, 0.5, 3))
    masses = {pt.ray: mass for pt, mass in m.atoms.items()}
    assert masses == {1: pytest.approx(0.5), 2: pytest.approx(1 / 3),
                      3: pytest.approx(1 / 6)}
    for pt in m.atoms:
        assert pt.radius == pytest.approx(2.0)  # W(3) - min over [0, 3]


def test_grid_and_midpoints():
    ts = grid_and_midpoints(4, 0.25, 1.0)
    assert ts[0] == pytest.approx(0.25) and ts[-1] == pytest.approx(1.0)
    assert len(ts) == 7


@pytest.mark.parametrize("n", [1, 3, 4, 7, 100, 1000, 10_000])
@pytest.mark.parametrize("s, t_end", [(0.0, 1.0), (0.25, 1.0), (-0.37, 0.63), (0.1, 0.1)])
def test_grid_and_midpoints_is_the_sorted_unique_mesh(n, s, t_end):
    # breakpoints k/n and midpoints (2k + 1)/(2n), each the float of its
    # rational
    k_lo, k_hi = math.ceil(s * n - 1e-9), math.floor(t_end * n + 1e-9)
    ks = np.arange(k_lo, k_hi + 1) / n
    mids = np.arange(2 * k_lo + 1, 2 * k_hi, 2) / (2 * n)
    expected = np.unique(np.concatenate([[s, t_end], ks, mids]))
    ts = grid_and_midpoints(n, s, t_end)
    assert ts.dtype == expected.dtype and np.array_equal(ts, expected)


def test_kernel_beta_zero_and_positive():
    w = ContinuousPath(1, 0, np.array([0.0, -1.0, 0.0]))
    a = wiener_kernel(w, PARAMS, 0.0, 2.0, junction(3))
    assert beta_distance(a, a) == 0.0
    b = wiener_kernel(w, PARAMS, 0.0, 1.5, junction(3))
    d = beta_distance(a, b)
    assert 0.0 < d <= 1.0
    assert d == pytest.approx(beta_lp_oracle(a, b), abs=1e-12)


def _fr_for_n(seed, eta_offset):
    def fr_for_n(n):
        return FlowRealization.generate(PARAMS, 0, n, seed, n, eta_offset + n)
    return fr_for_n


def _profiles(fr_for_n, s, big_t, x, n_list, **kwargs):
    """The rows of convergence_profiles at each n of n_list, in order."""
    return [row for n in n_list
            for row in convergence_profiles(fr_for_n(n), PARAMS, s, big_t, x, n, **kwargs)]


def test_convergence_beta_grid_self_consistency():
    rows = _profiles(_fr_for_n(63, 0), 0.0, 1.0, junction(3), [64, 256])
    assert [r["n"] for r in rows] == [64, 256]
    for r in rows:
        assert r["sup_beta"] >= 0.0
    # at grid times with x at the junction the discrete and continuum kernels
    # agree exactly, so the sup comes from interpolation slack and shrinks
    assert rows[1]["sup_beta"] < rows[0]["sup_beta"]


def test_mapping_convergence_decreasing():
    rows = _profiles(_fr_for_n(64, 10_000), 0.0, 1.0, junction(3), [64, 1024])
    assert rows[1]["sup_distance"] < rows[0]["sup_distance"]


def _fr_from(start, walk_seed, replicas=None):
    """fr_for_n on the window [floor(n s), n + 1] that the CLI draws when
    s + T = 1, from walk and mark stream n; with replicas, one row per
    replica r from stream ``_stream(n, r)``."""
    def fr_for_n(n):
        ids = n if replicas is None else [_stream(n, r) for r in range(replicas)]
        return FlowRealization.generate(PARAMS, math.floor(n * start), n + 1, walk_seed, ids, ids)
    return fr_for_n


def _stream(n, r):
    return n + 1_000_000 * r


# (s, T, x, n_list, window start / n, times): p = 0, p > 0, a window that
# starts below a negative, non-integer n s, an explicit mesh, and a start at
# the junction
POINTWISE_CASES = [
    (0.0, 1.0, point(2, 0.5, 3), [16, 64], 0.0, None),
    (0.3, 0.7, point(2, 0.5, 3), [16, 64], 0.0, None),
    (-0.25, 1.0, point(1, 0.5, 3), [10, 50], -0.25, None),
    (0.3, 0.7, point(2, 0.5, 3), [16, 64], 0.0, np.linspace(0.3, 1.0, 37)),
    (0.0, 1.0, junction(3), [16, 64], 0.0, None),
    # at n = 100 the floats 100 t of t = 0.29, 0.57 and 0.58 fall below the
    # step, and s = 0.29 is one of them
    (0.0, 1.0, junction(3), [100], 0.0, None),
    (0.29, 0.71, point(2, 0.2, 3), [100], 0.0, None),
]


def test_convergence_profiles_match_pointwise_definitions(rescale_measure):
    for case in POINTWISE_CASES:
        _check_pointwise(*case, rescale_measure)


def _check_pointwise(s, big_t, x, n_list, start, times, rescale_measure):
    # off the junction both hitting-time branches occur; recompute each sup
    # time by time from the public kernel and hitting-time functions, for
    # each row of a chunk of two realizations
    rows = _profiles(_fr_from(start, 65, replicas=2), s, big_t, x, n_list, times=times)
    assert len(rows) == 2 * len(n_list)
    branches = set()
    for i, row in enumerate(rows):
        n = row["n"]
        assert n == n_list[i // 2]
        stream = _stream(n, i % 2)
        fr = FlowRealization.generate(PARAMS, math.floor(n * start), n + 1, 65, stream, stream)
        w = rescale_path(fr.walk, n)
        x_n = point(x.ray, round(x.radius * np.sqrt(n)), 3)
        p = _reference_step(n, s)
        tau = tau_hit(w, s, x)
        sup_beta = sup_d = 0.0
        for t in (grid_and_midpoints(n, s, s + big_t) if times is None else times):
            k = _reference_step(n, t)
            discrete = rescale_measure(kernel_closed_form(fr.walk, PARAMS, p, k, x_n), n)
            limit = wiener_kernel(w, PARAMS, s, t, x)
            sup_beta = max(sup_beta, beta_distance(discrete, limit))
            y = psi_closed_form(fr, p, k, x_n)
            branches.add(t > tau)
            if t > tau:
                phi = GraphPoint(y.ray if y.radius else 3, w.value(t) - w.running_min(s, t))
            else:
                phi = GraphPoint(x.ray, x.radius + w.value(t) - w.value(s))
            if phi.radius <= 0:
                phi = junction(3)
            y_rescaled = GraphPoint(y.ray, y.radius / np.sqrt(n)) if y.radius else y
            sup_d = max(sup_d, graph_distance(y_rescaled, phi))
        assert row["sup_beta"] == sup_beta
        assert row["sup_distance"] == sup_d
    assert branches == {False, True}


# (s, T, x, n, times) of a chunk of realizations: from the junction; off it,
# where some replicas hit -|x| and some do not; an explicit mesh; and a start
# below a negative, non-integer n s
CHUNK_CASES = [
    (0.0, 1.0, junction(3), 100, None),
    (0.0, 1.0, point(2, 0.5, 3), 100, None),
    (0.3, 0.7, point(2, 0.5, 3), 64, np.linspace(0.3, 1.0, 37)),
    (-0.25, 1.0, point(1, 0.5, 3), 50, None),
]


@pytest.mark.parametrize("s, big_t, x, n, times", CHUNK_CASES,
                         ids=["junction", "x_radius", "times", "negative_s"])
def test_chunk_rows_equal_one_realization_rows(s, big_t, x, n, times):
    # the window the CLI draws, for 8 replicas at once and for each alone
    p_min, p_max = min(math.floor(n * s), 0), math.ceil(n * (s + big_t)) + 1
    chunk = FlowRealization.generate(PARAMS, p_min, p_max, 76, range(8), range(100, 108))
    ones = [FlowRealization.generate(PARAMS, p_min, p_max, 76, r, 100 + r) for r in range(8)]
    rows = convergence_profiles(chunk, PARAMS, s, big_t, x, n, times=times)
    betas = {}
    shared = [convergence_profiles(fr, PARAMS, s, big_t, x, n, times=times, betas=betas)[0]
              for fr in ones]
    fresh = [convergence_profiles(fr, PARAMS, s, big_t, x, n, times=times)[0] for fr in ones]
    # a chunk's replicas share its solves, as one-realization calls in
    # replica order that share one dict do
    assert rows == shared
    assert sum(row["beta_solves"] for row in rows) == len(betas)
    solves = [row.pop("beta_solves") for row in rows], [row.pop("beta_solves") for row in fresh]
    assert rows == fresh and solves[0] != solves[1]
    # the array readers: each row of the chunk is the one-realization call
    ts = grid_and_midpoints(n, s, s + big_t) if times is None else times
    p, x_n = step_at(n, s), point(x.ray, round(math.sqrt(n) * x.radius), 3)
    w = rescale_path(chunk.walk, n)
    chunk_forms = closed_forms_from(chunk, p, x_n)
    tau, at_s, at_ts, low = (tau_hit(w, s, x), w.value(s), w.value(ts), w.running_min(s, ts))
    assert all(a.shape[0] == 8 for a in (*chunk_forms, tau, at_s, at_ts, low))
    hits = set()
    for r, fr in enumerate(ones):
        assert all(np.array_equal(a[r], b) for a, b in
                   zip(chunk_forms, closed_forms_from(fr, p, x_n)))
        w_r = rescale_path(fr.walk, n)
        one_tau = tau_hit(w_r, s, x)
        assert tau[r] == one_tau and at_s[r] == w_r.value(s)
        assert np.array_equal(at_ts[r], w_r.value(ts))
        assert np.array_equal(low[r], w_r.running_min(s, ts))
        hits.add(one_tau is not NOT_HIT)
    assert hits == ({True} if x.radius == 0 else {True, False})


def test_path_readers_take_a_replica_axis():
    # scalar and array times on a (2, L) path, each row against its 1-D path
    rows = np.array([[0.0, -1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0, 2.0]])
    w = ContinuousPath(2, -1, rows)
    ts = np.array([-0.5, -0.25, 0.1, 0.75, 1.5])
    for r, values in enumerate(rows):
        one = ContinuousPath(2, -1, values)
        assert w.value(0.3)[r] == one.value(0.3)
        assert np.array_equal(w.value(ts)[r], one.value(ts))
        assert w.running_min(-0.25, 1.0)[r] == one.running_min(-0.25, 1.0)
        assert np.array_equal(w.running_min(-0.25, ts[1:])[r], one.running_min(-0.25, ts[1:]))
        for level in (0.0, 0.25, 0.5, 1.0):
            assert tau_hit(w, -0.25, level)[r] == tau_hit(one, -0.25, level)
    # a hit on the segment that starts at s, and one at a breakpoint
    assert tau_hit(w, -0.25, 0.25).tolist() == [-0.125, math.inf]
    assert tau_hit(w, -0.25, 0.5).tolist() == [0.0, math.inf]


def _recording(calls, solve):
    def recorded(weights, key):
        calls.append((key, solve(weights, key)))
        return calls[-1][1]
    return recorded


def test_convergence_profiles_one_beta_per_distinct_pair(monkeypatch, rescale_measure):
    calls = []
    monkeypatch.setattr(starflow.limit, "_key_beta", _recording(calls, _key_beta))
    # the walk hits -|x| inside [0, 1], and sqrt(n) |x| = 4.8 is off the
    # lattice, so the discrete and Wiener hitting times differ
    n, x = 256, point(2, 0.3, 3)
    fr_for_n = _fr_from(0.0, 66)
    row, = convergence_profiles(fr_for_n(n), PARAMS, 0.0, 1.0, x, n)
    mesh = grid_and_midpoints(n, 0.0, 1.0)
    assert row["times"] == len(mesh)
    assert 0 < len(calls) == row["beta_solves"] == row["beta_evaluations"] < row["beta_pairs"]
    assert row["beta_pairs"] < len(mesh)
    # the distinct pairs of measures along the mesh, from the definitions
    fr = fr_for_n(n)
    w = rescale_path(fr.walk, n)
    pairs = {}
    for t in mesh:
        p = rescale_measure(kernel_closed_form(fr.walk, PARAMS, 0, _reference_step(n, t),
                                               point(2, 5, 3)), n)
        q = wiener_kernel(w, PARAMS, 0.0, t, x)
        pairs[frozenset(p.atoms.items()), frozenset(q.atoms.items())] = p, q
    assert len(pairs) == row["beta_pairs"]
    # no pair is solved twice, each solve is beta of its pair, and no pair
    # left out can raise the sup
    solved = []
    for key, beta in calls:
        p, q = key_measure(PARAMS, *key[:3]), key_measure(PARAMS, *key[3:])
        solved.append((frozenset(p.atoms.items()), frozenset(q.atoms.items())))
        assert beta == float(beta_distance(p, q))
    assert len(set(solved)) == len(solved) and set(solved) <= set(pairs)
    for key in set(pairs) - set(solved):
        assert beta_distance(*pairs[key]) <= row["sup_beta"]


@pytest.mark.parametrize("n, walk_seed", [(256, 60), (1000, 61)])
def test_convergence_profiles_screened_sup_equals_full_sup(monkeypatch, n, walk_seed):
    # from the junction many pairs tie at the sup: bit for bit at n = 256,
    # up to the last bits at n = 1000
    fr = _fr_from(0.0, walk_seed)(n)
    row, = convergence_profiles(fr, PARAMS, 0.0, 1.0, junction(3), n)
    calls = []
    monkeypatch.setattr(starflow.limit, "_key_beta", _recording(calls, _key_beta))
    monkeypatch.setattr(starflow.limit, "_beta_bounds",
                        lambda weights, *keys: np.full(len(keys[0]), math.inf))
    full, = convergence_profiles(fr, PARAMS, 0.0, 1.0, junction(3), n)
    betas = [beta for _, beta in calls]
    assert full["beta_evaluations"] == full["beta_solves"] == full["beta_pairs"] == len(betas)
    assert full["beta_pairs"] == row["beta_pairs"] > row["beta_evaluations"]
    assert sum(full["sup_beta"] - b < 1e-12 for b in betas) > 1
    assert row["sup_beta"] == full["sup_beta"] == max(betas)


def test_screened_sup_keeps_values_that_round_above_their_bound():
    # B's value rounds 2e-16 above its bound (beta_distance's float excess
    # over the bound reaches about 4e-16) and above A's value, which is
    # solved first: the margin must keep B
    values = {("A",): 0.25 - 1e-16, ("B",): 0.25, ("C",): 0.1, ("equal",): 0.0}
    keys = [np.array(["C", "equal", "B", "A"])]
    bounds = np.array([0.2, 0.0, 0.25 - 2e-16, 0.25])
    assert _screened_sup(bounds, keys, values.get) == (0.25, 2)
    assert _screened_sup(np.zeros(1), [np.array(["equal"])], values.get) == (0.0, 0)


def test_screened_sup_evaluates_every_key_of_a_tie():
    # the tie at 0.5 is evaluated whole, in either key order
    values = {("A",): 0.5, ("B",): 0.4, ("C",): 0.1}
    bounds = np.array([0.5, 0.5, 0.2])
    for keys in (["A", "B", "C"], ["B", "A", "C"]):
        assert _screened_sup(bounds, [np.array(keys)], values.get) == (0.5, 2)


def _sides(radius):
    """(spread, ray, radius) keys of key_measure at one radius: the junction
    (reached two ways), the Dirac on each ray and the spread."""
    return [(False, 2, 0.0), (True, 1, 0.0), (True, 1, radius),
            *((False, ray, radius) for ray in (1, 2, 3))]


def _radius_pairs(rng, count):
    """count pairs of each kind: equal, 1 ulp apart, below 1e-7, random."""
    for _ in range(count):
        a, b = (float(r) for r in rng.uniform(0.0, 3.0, size=2))
        yield a, a
        yield a, math.nextafter(a, math.inf)
        yield a * 3e-8, b * 3e-8
        yield a, b


def test_beta_bound_is_an_upper_bound():
    weights = [float(a) for a in PARAMS.alpha]
    rng = make_rng(67, 0)
    for a, b in _radius_pairs(rng, 60):
        for p, q in itertools.product(_sides(a), _sides(b)):
            p_measure, q_measure = key_measure(PARAMS, *p), key_measure(PARAMS, *q)
            bound = beta_bound(weights, *p, *q)
            assert bound >= beta_distance(p_measure, q_measure) - 1e-15, (p, q)
            # the screen drops bound-0 pairs unsolved
            assert (bound == 0) == (p_measure == q_measure), (p, q)


def test_beta_slopes_are_beta_distance_end_slopes():
    rng = make_rng(68, 0)
    for _ in range(40):
        a, b = (Fraction(int(k), 7) for k in rng.integers(1, 15, size=2))
        for p, q in itertools.product(_sides(a), _sides(b)):
            rays, exact = _rays(key_measure(PARAMS, *p), key_measure(PARAMS, *q))
            assert exact
            # F'(0+) and F'(1-) as beta_distance derives them
            slope_lo = sum(d * abs(tail) for gaps, masses in rays
                           for d, tail in zip(gaps, itertools.accumulate(masses)))
            slope_hi = -sum(abs(c) for _, masses in rays for c in masses)
            assert beta_slopes(PARAMS.alpha, *p, *q) == (slope_lo, -slope_hi), (p, q)


def _check_keys(weights, keys, betas):
    """Each key's beta through betas, and the array bounds, against the
    scalar references of oracles, by ==."""
    rows = list(zip(*(np.asarray(c).tolist() for c in keys)))
    bounds = _beta_bounds(weights, *(np.asarray(c) for c in keys))
    assert bounds.tolist() == [beta_bound(weights, *key) for key in rows]
    for key in rows:
        p, q = key_measure(PARAMS, *key[:3]), key_measure(PARAMS, *key[3:])
        assert _memo_beta(weights, betas, key) == float(beta_distance(p, q)), key


def test_key_betas_and_bounds_match_the_references_on_edge_keys():
    # one dict for every key: the junction reached two ways, and a spread
    # and a Dirac keyed with the same ray and radius, must not share a beta
    weights = [float(a) for a in PARAMS.alpha]
    rng = make_rng(69, 0)
    betas = {}
    for a, b in _radius_pairs(rng, 15):
        pairs = [(*p, *q) for p, q in itertools.product(_sides(a), _sides(b))]
        _check_keys(weights, list(zip(*pairs)), betas)


@pytest.mark.parametrize("x", [junction(3), point(2, 0.5, 3)], ids=["junction", "x_radius"])
def test_key_betas_and_bounds_match_the_references_on_replica_keys(monkeypatch, x):
    # every distinct key of two replicas at n = 10^2, 10^3 and 10^4
    weights = [float(a) for a in PARAMS.alpha]
    seen = []

    def recording_sup(bounds, keys, solve):
        seen.append(keys)
        return _screened_sup(bounds, keys, solve)

    monkeypatch.setattr(starflow.limit, "_screened_sup", recording_sup)
    for walk_seed in (71, 72):
        _profiles(_fr_from(0.0, walk_seed), 0.0, 1.0, x, [100, 1000, 10_000])
    assert len(seen) == 6
    betas = {}
    for keys in seen:
        _check_keys(weights, keys, betas)


def test_distinct_rows_by_exact_equality():
    a = np.array([0.5, 0.25, 0.5, math.nextafter(0.5, 1.0), 0.5])
    flags = np.array([True, False, True, True, False])
    rows = list(zip(*(c.tolist() for c in _distinct([flags, a]))))
    assert sorted(rows) == sorted(set(zip(flags.tolist(), a.tolist())))
    assert [len(c) for c in _distinct([np.empty(0), np.empty(0)])] == [0, 0]


def test_shared_betas_give_the_rows_of_fresh_ones():
    x, n_list = point(1, 0.5, 3), [100, 1000]
    betas = {}
    shared, fresh = [], []
    for walk_seed in (73, 74, 75):
        fr_for_n = _fr_from(0.0, walk_seed)
        shared += _profiles(fr_for_n, 0.0, 1.0, x, n_list, betas=betas)
        fresh += _profiles(fr_for_n, 0.0, 1.0, x, n_list)
    solves = [row.pop("beta_solves") for row in shared], [row.pop("beta_solves") for row in fresh]
    assert shared == fresh
    # each distinct pair is solved once across the replicas, and some recur
    assert sum(solves[0]) == len(betas) < sum(solves[1])

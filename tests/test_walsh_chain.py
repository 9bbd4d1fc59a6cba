"""Chains on the lattice: step laws, excursion flipping, product chain."""

import dataclasses
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from starflow import chain, walk
from starflow.chain import (CASE_NO_EXCURSION, CASE_ONE_EARLY, CASE_ONE_LATE,
                            CASE_TWO, CASES, FlipBatch, _carry, _chain_states, _exit_ray,
                            _exit_rays, _step, _uniforms, flip_batch, flip_batches,
                            ray_mark_rows, simulate_chain_batch, transition_counts)
from starflow.cv import stops, transform
from starflow.flows import FlowRealization, closed_forms_from
from starflow.graph import RayParams, junction, point
from starflow.oracles import (Excursion, excursions_brute, flipped_product_chain,
                              proof_fact_violations, reflected_path, step_chain,
                              tau_sequence)
from starflow.rng import make_rng
from starflow.stats import (chi_square, chi_square_pvalue, updown_chi_square)
from starflow.walk import ExcursionTable, WalkWindow, excursion_table, generate_walk, row_blocks

PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))


def test_step_q_from_interior():
    x = point(2, 3, 3)
    assert step_chain(PARAMS, x, 0.2, lazy=False) == point(2, 2, 3)
    assert step_chain(PARAMS, x, 0.8, lazy=False) == point(2, 4, 3)


def test_step_q_junction_ray_frequencies():
    rng = make_rng(31, 0)
    hits = np.zeros(4)
    for u in rng.random(100_000):
        y = step_chain(PARAMS, junction(3), u, lazy=False)
        hits[y.ray] += 1
    freqs = hits[1:] / hits.sum()
    for i, a in enumerate(PARAMS.alpha):
        sigma = np.sqrt(float(a) * (1 - float(a)) / 100_000)
        assert abs(freqs[i] - float(a)) < 3.5 * sigma


def test_step_q_degenerate_alpha():
    # alpha entries must be positive, so the degenerate case is N = 1
    params = RayParams(1, (Fraction(1),))
    for u in (0.0, 0.3, 0.999):
        assert step_chain(params, junction(1), u, lazy=False) == point(1, 1, 1)


def test_step_lazy_holding():
    rng = make_rng(32, 0)
    holds = sum(step_chain(PARAMS, junction(3), u, lazy=True).radius == 0
                for u in rng.random(100_000))
    assert abs(holds / 100_000 - 0.5) < 0.005
    # away from the junction identical to Q
    x = point(1, 2, 3)
    assert step_chain(PARAMS, x, 0.2, lazy=True) == step_chain(PARAMS, x, 0.2, lazy=False)


def test_step_lazy_exit_rays():
    rng = make_rng(33, 0)
    hits = np.zeros(4)
    n = 200_000
    for u in rng.random(n):
        y = step_chain(PARAMS, junction(3), u, lazy=True)
        if y.radius == 1:
            hits[y.ray] += 1
    for i, a in enumerate(PARAMS.alpha, start=1):
        target = float(a) / 2
        sigma = np.sqrt(target * (1 - target) / n)
        assert abs(hits[i] / n - target) < 3.5 * sigma


def _radius_paths(n_steps, n_replicas, seed, stream, lazy):
    """The (steps + 1, R) radii of ``_chain_states``, one chain per column."""
    return np.array([radii.copy() for _, radii in
                     _chain_states(n_steps, n_replicas, seed, stream, lazy)])


def test_simulate_chain_lattice_moves():
    d = np.abs(np.diff(_radius_paths(500, 20, 34, 0, lazy=False), axis=0))
    assert set(d.ravel().tolist()) <= {1}  # chain Q never holds
    lazy = _radius_paths(500, 20, 34, 1, lazy=True)
    holds = np.diff(lazy, axis=0) == 0
    assert np.all(lazy[:-1][holds] == 0)  # holds only at the junction


def _fold_step_chain(params, u, lazy):
    """Reference: step_chain folded over the rows of a (steps, R) uniform
    array, one chain per column; the (steps + 1, R) rays and radii."""
    state = [junction(params.N)] * u.shape[1]
    path = [state]
    for row in u:
        state = [step_chain(params, x, v, lazy=lazy) for x, v in zip(state, row.tolist())]
        path.append(state)
    rays = np.array([[x.ray for x in s] for s in path])
    radii = np.array([[x.radius for x in s] for s in path])
    return rays, radii


@pytest.mark.parametrize("lazy", [False, True])
def test_simulate_chain_batch_matches_folded_step_chain(lazy):
    # several horizons, so that intermediate states are checked too
    n_replicas, seed = 40, 35
    for n_steps in (1, 2, 7, 200):
        for stream in range(5):
            u = make_rng(seed, stream).random((n_steps, n_replicas))
            rays, radii = _fold_step_chain(PARAMS, u, lazy)
            got_rays, got_radii = simulate_chain_batch(PARAMS, n_steps, n_replicas, seed,
                                                       stream, lazy=lazy)
            assert np.array_equal(got_radii, radii[-1])
            positive = radii[-1] > 0
            assert np.array_equal(got_rays[positive], rays[-1][positive])
            if not lazy:
                # parity lock of chain Q
                assert np.all(got_radii % 2 == n_steps % 2)


def _skorokhod_chains(params, u, lazy):
    """Pathwise oracle: the final (rays, radii) of the chains that the
    uniforms u (steps, R) drive, one chain per column, from the Skorokhod
    maps of T, the running sum of d = +-1.  The lazy radius is
    T - min(0, min T); the immediate-exit radius is T + 2 max(0, max
    ceil(-T / 2)).  The ray is the exit ray of the last exit's uniform
    (lazy: of 2u - 1), and 0 before the first exit."""
    t = np.zeros((u.shape[0] + 1, u.shape[1]), dtype=np.int64)
    np.cumsum(np.where(u >= 0.5, 1, -1), axis=0, out=t[1:])
    if lazy:
        radii = t - np.minimum(0, np.minimum.accumulate(t, axis=0))
    else:
        radii = t + 2 * np.maximum(0, np.maximum.accumulate(-(t // 2), axis=0))
    exits = radii[:-1] == 0
    if lazy:
        exits &= u >= 0.5
    last = u.shape[0] - 1 - np.argmax(exits[::-1], axis=0)
    u_exit = u[last, np.arange(u.shape[1])]
    if lazy:
        u_exit = 2 * u_exit - 1
    rays = np.minimum(np.searchsorted(params.alpha_cumulative, u_exit, side="right") + 1,
                      params.N)
    return np.where(exits.any(axis=0), rays, 0), radii[-1]


def _assert_matches_skorokhod_oracle(n_steps, n_replicas, seed, stream, lazy):
    u = make_rng(seed, stream).random((n_steps, n_replicas))
    rays, radii = _skorokhod_chains(PARAMS, u, lazy)
    got_rays, got_radii = simulate_chain_batch(PARAMS, n_steps, n_replicas, seed, stream,
                                               lazy=lazy)
    assert np.array_equal(got_radii, radii)
    assert np.array_equal(got_rays, rays)


@pytest.mark.parametrize("lazy", [False, True])
def test_simulate_chain_batch_matches_skorokhod_oracle(lazy):
    # exact equality, junction rays included, across the row blocks in
    # which the stream's words are drawn
    seed = 36
    for n_steps in (1, 2, 7, 200):
        for n_replicas in (1, 5, 40, 10_000):
            for stream in range(3):
                _assert_matches_skorokhod_oracle(n_steps, n_replicas, seed, stream, lazy)
    # 3,000 replicas take blocks of 43, 43 and 14 steps; the radii are int8
    # up to 127 steps, int16 from 128 and int32 from 2**15
    assert [s.stop - s.start for s in row_blocks(100, 3_000)] == [43, 43, 14]
    for n_steps, n_replicas in ((100, 3_000), (127, 2), (128, 2), (2**15 - 1, 2), (2**15, 2)):
        for stream in range(3):
            _assert_matches_skorokhod_oracle(n_steps, n_replicas, seed, stream, lazy)
    # no step: every chain is at the junction and has never left it
    rays, radii = simulate_chain_batch(PARAMS, 0, 5, seed, 0, lazy=lazy)
    assert rays.tolist() == radii.tolist() == [0] * 5


class _ConstantWords:
    """A stand-in generator whose bit generator draws one word throughout."""

    def __init__(self, word):
        self.bit_generator = self
        self.word = word

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


@pytest.mark.parametrize("n_steps", [127, 128, 2**15 - 1, 2**15])
@pytest.mark.parametrize("lazy", [False, True])
def test_chain_radius_dtype_holds_every_radius(n_steps, lazy, monkeypatch):
    # every draw up: the radius reaches n_steps, the largest value of the
    # dtype at 127 and 2**15 - 1 steps, from one exit at step 1
    monkeypatch.setattr(chain, "make_rng", lambda seed, stream_id: _ConstantWords(2**64 - 1))
    rays, radii = simulate_chain_batch(PARAMS, n_steps, 2, 1, 0, lazy=lazy)
    assert radii.tolist() == [n_steps] * 2 and rays.tolist() == [PARAMS.N] * 2
    # every draw down: the lazy chain never leaves; the other one swings
    # between 1 and 0, and u < 1/2 at its exits gives ray 1
    monkeypatch.setattr(chain, "make_rng", lambda seed, stream_id: _ConstantWords(2**63 - 1))
    rays, radii = simulate_chain_batch(PARAMS, n_steps, 2, 1, 0, lazy=lazy)
    assert radii.tolist() == [0 if lazy else n_steps % 2] * 2
    assert rays.tolist() == [0 if lazy else 1] * 2


@pytest.mark.parametrize("params", [PARAMS, RayParams.uniform(10)], ids=["default", "tenths"])
def test_exit_ray_clamps_the_last_uniform(params):
    # the float cumulative alpha ends just below 1, where u can still fall
    top = np.nextafter(1.0, 0.0)
    assert params.alpha_cumulative[-1] == top
    assert _exit_ray(params, top) == params.N
    assert step_chain(params, junction(params.N), top).ray == params.N


@pytest.mark.parametrize("params", [PARAMS, RayParams.uniform(10)], ids=["default", "tenths"])
def test_exit_ray_at_bin_edges(params):
    # a draw on an edge of the float cumulative alpha opens the next bin
    cum = params.alpha_cumulative
    for u in np.concatenate([[0.0], cum[cum < 1], np.nextafter(cum, 0.0)]).tolist():
        assert _exit_ray(params, u) == min(1 + int(np.sum(cum <= u)), params.N)


def _searchsorted_exit_ray(params, u):
    """The exit ray as one binary search over the inner cumulative edges."""
    return np.searchsorted(params.alpha_cumulative[:-1], u, side="right") + 1


@pytest.mark.parametrize("params", [RayParams.uniform(1), PARAMS, RayParams.uniform(12)],
                         ids=["one_ray", "default", "twelfths"])
def test_exit_ray_matches_searchsorted(params):
    cum = params.alpha_cumulative
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum,
                        np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)])
    u = u[u < 1.0]
    rays = _exit_ray(params, u)
    assert rays.dtype == params.ray_dtype == np.int8
    assert rays.tolist() == _searchsorted_exit_ray(params, u).tolist()
    # one Python float at a time
    assert [int(_exit_ray(params, v)) for v in u.tolist()] == rays.tolist()
    # a batch of rows, as the flip batches look up their marks
    grid = np.stack([u, u[::-1]])
    assert np.array_equal(_exit_ray(params, grid), _searchsorted_exit_ray(params, grid))


def _edge_words(edges):
    """Words whose uniforms lie on either side of each edge: the smallest
    multiple k 2**-53 at or above it and the one below, for k in [0, 2**53),
    each word once with its low 11 bits clear and once with them set."""
    ks = {k for e in edges for k in (math.ceil(e * 2**53) - 1, math.ceil(e * 2**53))
          if 0 <= k < 2**53}
    words = np.array(sorted(ks), dtype=np.uint64) << np.uint64(11)
    return np.concatenate([words, words | np.uint64(2**11 - 1)])


@pytest.mark.parametrize("params", [PARAMS, RayParams.uniform(10)], ids=["default", "tenths"])
@pytest.mark.parametrize("lazy", [False, True])
def test_array_step_matches_step_chain_at_edges(params, lazy):
    cum = params.alpha_cumulative
    words = _edge_words(np.concatenate([[0.0, 0.5, 1.0], cum, (1.0 + cum) / 2]).tolist())
    words = words[words > 0]  # so that a kept word tells an exit from the initial 0
    radius, w = (a.ravel() for a in np.meshgrid(np.arange(4, dtype=np.int16), words))
    u = _uniforms(w)
    assert np.array_equal(u >= 0.5, w >= 2**63)
    expected = [step_chain(params, point(2, int(r), params.N), v, lazy=lazy)
                for r, v in zip(radius.tolist(), u.tolist())]
    start = radius.copy()
    last = np.zeros(len(w), dtype=np.uint64)
    d = np.where(w >= 2**63, 1, -1).astype(radius.dtype)
    _step(radius, last, w, d, np.zeros_like(radius) if lazy else None)
    assert radius.tolist() == [x.radius for x in expected]
    kept = last == w
    assert kept.tolist() == [r == 0 and x.radius == 1 for r, x in zip(start.tolist(), expected)]
    assert not last[~kept].any()
    rays = _exit_rays(params, last, 1, lazy)
    assert all(x.ray == r for x, r, k in zip(expected, rays.tolist(), kept.tolist()) if k)


def _marks(seed, length, streams):
    """(walks, excursion marks, block marks) of the given streams, one row
    each: the inputs of one flip realization per stream."""
    incs = np.stack([generate_walk(0, length, seed, k).increments for k in streams])
    eta = ray_mark_rows(PARAMS, length, seed, [k + 50_000 for k in streams])
    beta_aux = ray_mark_rows(PARAMS, length, seed, [k + 90_000 for k in streams])
    return incs, eta, beta_aux


def _flip_rows(seed, length, streams):
    """The flip realizations of the given streams, as one batch."""
    incs, eta, beta_aux = _marks(seed, length, streams)
    return flip_batch(transform(incs), eta, beta_aux)


def _flip_row(batch, r):
    """Row r of a flip batch as the per-block reference gives it: (rays,
    radii) up to the end of the last completed block, the taus, the block
    case names, the excursions of the reflected path and whether a trailing
    partial block was truncated."""
    n = int(batch.n_end[r])
    own = batch.exc.row == r
    excs = [Excursion(*e) for e in zip(batch.exc.start[own].tolist(),
                                       batch.exc.end[own].tolist(),
                                       batch.exc.ordinal[own].tolist())]
    cases = [CASES[c] for c in batch.cases[batch.block_row == r].tolist()]
    return (batch.rays[r, : n + 1], batch.radii[r, : n + 1], np.flatnonzero(batch.t.is_tau[r]),
            cases, excs, n < batch.rays.shape[1] - 1)


def test_flip_radial_part_is_abs_s():
    s = WalkWindow(0, _marks(37, 300, [0])[0][0])
    _, radii, *_ = _flip_row(_flip_rows(37, 300, [0]), 0)
    assert np.array_equal(radii, np.abs(s.values[: len(radii)]))


def test_flip_block_boundaries_at_zero():
    s = WalkWindow(0, _marks(37, 300, [1])[0][0])
    _, radii, taus, *_ = _flip_row(_flip_rows(37, 300, [1]), 0)
    for tau in taus:
        assert s.values[tau] == 0
        assert radii[tau] == 0


def test_flip_cases_exhaustive():
    seen = set()
    batch = _flip_rows(38, 200, range(60))
    for r in range(60):
        _, _, taus, block_cases, *_ = _flip_row(batch, r)
        assert len(block_cases) == len(taus) - 1
        seen.update(block_cases)
        for case, (lo, hi) in zip(block_cases, zip(taus[:-1], taus[1:])):
            assert case in (CASE_NO_EXCURSION, CASE_ONE_EARLY, CASE_ONE_LATE,
                            CASE_TWO)
            if case == CASE_NO_EXCURSION:
                assert hi == lo + 2
    assert seen == {CASE_NO_EXCURSION, CASE_ONE_EARLY, CASE_ONE_LATE, CASE_TWO}


def test_flip_bound_many_replicas():
    assert _flip_rows(39, 120, range(300)).bound_deviation().max() <= 2


def test_proof_facts_pathwise():
    assert not proof_fact_violations(_flip_rows(40, 150, range(300))).any()


def _flip_reference(s_bar, s, eta, beta_aux):
    """The per-block flip loop, on brute-force excursions: (rays, radii,
    taus, block cases, excursions, truncated) as _flip_row gives them."""
    sbar_vals = s_bar.values
    s_vals = s.values
    ybar = reflected_path(sbar_vals)
    exc = excursions_brute(ybar)
    taus_all = np.concatenate([[0], tau_sequence(s_vals)])
    complete = taus_all[taus_all <= len(sbar_vals) - 1]
    n_end = int(complete[-1])
    rays = np.zeros(n_end + 1, dtype=np.int64)
    cases = []
    for l in range(len(complete) - 1):
        lo, hi = int(complete[l]), int(complete[l + 1])
        assert ybar[lo] == 0 and ybar[hi] == 0
        assert not any(e.start < lo < e.end or e.start < hi < e.end for e in exc)
        inside = [e for e in exc if lo <= e.start and e.end <= hi]
        if len(inside) == 0:
            assert hi == lo + 2
            rays[lo : hi + 1] = beta_aux[l]
            cases.append(CASE_NO_EXCURSION)
        elif len(inside) == 1:
            e = inside[0]
            if e.end == hi - 2:
                rays[lo : hi + 1] = eta[e.ordinal - 1]
                cases.append(CASE_ONE_EARLY)
            else:
                assert e.end == hi - 1
                t_star = e.start + 1
                assert t_star == lo + 2
                rays[lo:t_star] = beta_aux[l]
                rays[t_star : hi + 1] = eta[e.ordinal - 1]
                cases.append(CASE_ONE_LATE)
        else:
            assert len(inside) == 2
            e1, e2 = inside
            t_star = e2.start + 1
            rays[lo:t_star] = eta[e1.ordinal - 1]
            rays[t_star : hi + 1] = eta[e2.ordinal - 1]
            cases.append(CASE_TWO)
    radii = np.abs(s_vals[: n_end + 1])
    rays[radii == 0] = 0
    return rays, radii, complete, cases, exc, n_end < len(sbar_vals) - 1


def _bound_reference(rays, radii, exc, s_bar, eta):
    """The per-time loop of the flip bound."""
    ybar = reflected_path(s_bar.values)
    worst = 0
    for e in exc:
        if e.end >= len(radii):
            continue
        mark = int(eta[e.ordinal - 1])
        for n in range(e.start, e.end + 1):
            if rays[n] == 0 or rays[n] == mark or ybar[n] == 0:
                worst = max(worst, abs(int(radii[n]) - int(ybar[n])))
            else:
                worst = max(worst, int(radii[n]) + int(ybar[n]))
    return worst


def _counts_reference(rays, radii):
    """The per-time loop of the transition counts of one chain: holds, exits
    per ray and the up and down moves by from-radius, as dicts."""
    hold, exits, up, down = 0, {}, {}, {}
    for k in range(len(radii) - 1):
        a, b = int(radii[k]), int(radii[k + 1])
        if a == 0 and b == 0:
            hold += 1
        elif a == 0:
            exits[int(rays[k + 1])] = exits.get(int(rays[k + 1]), 0) + 1
        else:
            moves = up if b > a else down
            moves[a] = moves.get(a, 0) + 1
    return hold, exits, up, down


def _as_dict(counts):
    return {i: c for i, c in enumerate(counts.tolist()) if c}


def _assert_counts(counts, hold, exits, up, down):
    """transition_counts output against the reference's dicts."""
    assert counts["hold"] == hold
    assert len(counts["exits"]) == PARAMS.N
    assert _as_dict(np.append(0, counts["exits"])) == exits
    assert _as_dict(counts["up_by_r"]) == up
    assert _as_dict(counts["down_by_r"]) == down
    assert len(counts["up_by_r"]) == len(counts["down_by_r"])


def _proof_facts_reference(s, s_bar):
    """The per-block loops of the proof facts (a) and (b)."""
    s_vals = s.values
    sbar_vals = s_bar.values
    ybar = reflected_path(sbar_vals)
    taus = np.concatenate([[0], tau_sequence(s_vals)])
    bad = 0
    for l in range(len(taus) - 1):
        lo, hi = int(taus[l]), int(taus[l + 1])
        for k in range(lo + 2, hi + 1):
            bad += (sbar_vals[k - 1] == 2 * l + 1) != (s_vals[k] == 0)
        for k in range(lo, hi + 1):
            bad += ybar[k] == 0 and abs(int(s_vals[k + 1])) > 1
            bad += s_vals[k + 1] == 0 and ybar[k] != 0
    return bad


@pytest.mark.parametrize("length", range(3, 13))
def test_flip_batch_matches_per_block_reference_exhaustive(length):
    # every +-1 walk of this length in one batch, with seeded marks
    incs = np.array(list(itertools.product((1, -1), repeat=length)), dtype=np.int64)
    t = transform(incs)
    rng = make_rng(45, length)
    eta = rng.integers(1, 4, size=incs.shape)
    beta_aux = rng.integers(1, 4, size=incs.shape)
    batch = flip_batch(t, eta, beta_aux)
    # flip_batches draws as many marks of each kind as Y-bar has zeros
    zeros = np.count_nonzero(batch.ybar == 0, axis=1)
    assert np.all(np.bincount(batch.exc.row, minlength=len(incs)) <= zeros)
    assert np.all(np.bincount(batch.block_row, minlength=len(incs)) <= zeros)
    bounds = batch.bound_deviation()
    facts = proof_fact_violations(batch)
    hold, exits, up, down = 0, {}, {}, {}
    for r in range(len(incs)):
        s, s_bar = WalkWindow(0, incs[r]), WalkWindow(0, t.xbar[r])
        rays, radii, taus, cases, exc, truncated = _flip_reference(s_bar, s, eta[r],
                                                                   beta_aux[r])
        got = _flip_row(batch, r)
        assert np.array_equal(got[0], rays), incs[r]
        assert np.array_equal(got[1], radii), incs[r]
        assert np.array_equal(got[2], taus), incs[r]
        assert got[3:] == (cases, exc, truncated), incs[r]
        # past the last completed block the chain sits at ray 0
        assert not batch.rays[r, len(rays):].any(), incs[r]
        assert bounds[r] == _bound_reference(rays, radii, exc, s_bar, eta[r]), incs[r]
        assert facts[r] == _proof_facts_reference(s, s_bar), incs[r]
        row = _counts_reference(rays, radii)
        hold += row[0]
        for total, part in zip((exits, up, down), row[1:]):
            for key, c in part.items():
                total[key] = total.get(key, 0) + c
    _assert_counts(transition_counts(PARAMS, batch.rays, batch.radii, batch.n_end),
                   hold, exits, up, down)


def test_flip_transition_law():
    # one long path: short truncated replicas bias the interior counts
    batch = _flip_rows(41, 100_000, [0])
    counts = transition_counts(PARAMS, batch.rays, batch.radii, batch.n_end)
    assert counts["hold"] == 0
    stat, dof = chi_square(counts["exits"], PARAMS.alpha)
    assert chi_square_pvalue(stat, dof) > 0.01
    stat, dof = updown_chi_square(counts["up_by_r"], counts["down_by_r"])
    assert chi_square_pvalue(stat, dof) > 0.01


def test_product_chain_structure():
    s_bar = generate_walk(0, 400, 42, 0)
    y_bar = reflected_path(s_bar.values)
    exc = excursions_brute(y_bar)
    eta = ray_mark_rows(PARAMS, len(exc), 42, [1])[0]
    rays, radii = flipped_product_chain(s_bar, eta)
    n = len(radii)
    assert np.array_equal(radii, y_bar[:n])
    for e in exc:
        if e.end < n:
            seg = rays[e.start : e.end + 1]
            positive = radii[e.start : e.end + 1] > 0
            assert np.all(seg[positive] == eta[e.ordinal - 1])


def test_product_chain_transition_law():
    s_bar = generate_walk(0, 100_000, 43, 0)
    exc = excursion_table(reflected_path(s_bar.values)[None])
    eta = ray_mark_rows(PARAMS, len(exc.row), 43, [1])[0]
    rays, radii = flipped_product_chain(s_bar, eta)
    counts = transition_counts(PARAMS, rays[None], radii[None],
                               np.array([len(radii) - 1]))
    # junction row of the lazy matrix: hold 1/2, exit i with alpha_i/2
    cells = np.concatenate([[counts["hold"]], counts["exits"]])
    probs = np.concatenate([[0.5], [float(a) / 2 for a in PARAMS.alpha]])
    stat, dof = chi_square(cells, probs)
    assert chi_square_pvalue(stat, dof) > 0.01
    stat, dof = updown_chi_square(counts["up_by_r"], counts["down_by_r"])
    assert chi_square_pvalue(stat, dof) > 0.01


def _product_chain_reference(s_bar, eta):
    """The per-excursion loop that painted the marks of the product chain."""
    ybar = reflected_path(s_bar.values)
    exc = excursion_table(ybar[None])
    last_end = exc.end[-1] if len(exc.end) else -1
    tail = np.nonzero(ybar > 0)[0]
    tail = tail[tail > last_end]
    covered_to = int(tail[0]) if tail.size else len(ybar)
    radii = ybar[:covered_to].copy()
    rays = np.zeros(covered_to, dtype=np.int64)
    for start, end, ordinal in zip(exc.start.tolist(), exc.end.tolist(),
                                   exc.ordinal.tolist()):
        if end < covered_to:
            rays[start : end + 1] = eta[ordinal - 1]
    rays[radii == 0] = 0
    return rays, radii


def test_product_chain_matches_per_excursion_reference():
    lengths = make_rng(45, 0).integers(5, 1001, size=300)
    for k, length in enumerate(lengths.tolist()):
        s_bar = generate_walk(0, length, 45, k + 1)
        eta = ray_mark_rows(PARAMS, length, 45, [10_000 + k])[0]
        rays, radii = flipped_product_chain(s_bar, eta)
        ref_rays, ref_radii = _product_chain_reference(s_bar, eta)
        assert np.array_equal(rays, ref_rays)
        assert np.array_equal(radii, ref_radii)
        # the lazy chain holds at the junction; counts stop at n_end
        for n_end in (len(radii) - 1, len(radii) // 2):
            counts = transition_counts(PARAMS, rays[None], radii[None], np.array([n_end]))
            _assert_counts(counts, *_counts_reference(ref_rays[: n_end + 1],
                                                      ref_radii[: n_end + 1]))


def _flow_from_junction(s_bar, eta):
    """(rays, radii) of the flow of mappings from the junction at time 0,
    driven by -S-bar, with every departure inside excursion i given the mark
    eta_i; the junction is on ray 0."""
    exc = excursion_table(reflected_path(s_bar.values)[None])
    marks = np.ones(len(s_bar), dtype=np.int64)
    for start, end, ordinal in zip(exc.start.tolist(), exc.end.tolist(),
                                   exc.ordinal.tolist()):
        marks[start : end + 1] = eta[ordinal - 1]
    fr = FlowRealization(WalkWindow(0, -s_bar.increments), marks, PARAMS)
    _, rays, radii = closed_forms_from(fr, 0, junction(PARAMS.N))
    return np.where(radii == 0, 0, rays), radii


def _assert_product_chain_is_flow(s_bar, eta):
    rays, radii = flipped_product_chain(s_bar, eta)
    flow_rays, flow_radii = _flow_from_junction(s_bar, eta)
    assert np.array_equal(radii, flow_radii[: len(radii)]), s_bar.increments
    assert np.array_equal(rays, flow_rays[: len(rays)]), s_bar.increments


def test_product_chain_is_the_flow_from_the_junction():
    # the chain eta . Y-bar is the discrete flow of mappings started at the
    # junction: every walk of length <= 12, then random walks up to 1000 steps
    rng = make_rng(48, 0)
    for length in range(1, 13):
        for incs in itertools.product((1, -1), repeat=length):
            _assert_product_chain_is_flow(WalkWindow(0, incs),
                                          rng.integers(1, PARAMS.N + 1, size=length))
    for k, length in enumerate(rng.integers(5, 1001, size=300).tolist()):
        _assert_product_chain_is_flow(generate_walk(0, length, 48, k + 1),
                                      ray_mark_rows(PARAMS, length, 48, [10_000 + k])[0])


def _assert_rays_follow_marks(batch):
    """On every kept excursion, from its start + 1, M off the junction is on
    the ray of the excursion's mark, and the flip bound is the max of
    ||S_n| - Y-bar_n| over the times n of the kept excursions; the number of
    kept excursions."""
    dev = np.abs(batch.radii - batch.ybar)
    want = np.zeros(len(batch.rays), dtype=np.int64)
    kept = 0
    for r, start, end, mark in zip(batch.exc.row.tolist(), batch.exc.start.tolist(),
                                   batch.exc.end.tolist(), batch.marks.tolist()):
        if end > batch.n_end[r]:
            continue
        kept += 1
        off = batch.radii[r, start + 1 : end + 1] > 0
        assert np.all(batch.rays[r, start + 1 : end + 1][off] == mark)
        want[r] = max(want[r], dev[r, start : end + 1].max())
    assert np.array_equal(batch.bound_deviation(), want)
    return kept


@pytest.mark.parametrize("length", range(3, 13))
def test_flip_rays_follow_excursion_marks_exhaustive(length):
    incs = np.array(list(itertools.product((1, -1), repeat=length)), dtype=np.int64)
    rng = make_rng(49, length)
    _assert_rays_follow_marks(flip_batch(transform(incs),
                                         rng.integers(1, 4, size=incs.shape),
                                         rng.integers(1, 4, size=incs.shape)))


@pytest.mark.parametrize("params, length, rows", [(PARAMS, 100_000, 5),
                                                   (RayParams.uniform(12), 1_000, 300)],
                         ids=["long", "short_twelve_rays"])
def test_flip_rays_follow_excursion_marks_on_batches(params, length, rows):
    kept = [_assert_rays_follow_marks(b) for b in
            flip_batches(params, length, 50, range(0, 10 * rows, 10))]
    assert min(kept) > 0


def _row_arrays(batch, r):
    """Every array of row r of a flip batch on its live columns 0..n_end
    (S to n_end + 1), its blocks and its kept excursions included."""
    n = int(batch.n_end[r])
    kept = (batch.exc.row == r) & (batch.exc.end <= n)
    t = batch.t
    return [t.s[r, : n + 2], t.xbar[r, :n], t.sbar[r, : n + 1], t.runmax[r, : n + 1],
            t.is_tau[r, : n + 1], batch.ybar[r, : n + 1], batch.rays[r, : n + 1],
            batch.radii[r, : n + 1], batch.n_end[r : r + 1], batch.exc.start[kept],
            batch.exc.end[kept], batch.exc.ordinal[kept], batch.marks[kept],
            batch.cases[batch.block_row == r]]


def test_flip_batches_rows_are_flip_realizations():
    # the row of stream k is the flip of the walk of stream k with marks
    # from k + 1, k + 2; three rows per block, in one window
    length = 40_000
    ids = range(600, 670, 10)
    batches = list(flip_batches(PARAMS, length, 46, ids))
    rows = {k: (b, r) for b in batches for r, k in enumerate(b.streams.tolist())}
    assert sorted(rows) == list(ids) and sum(len(b.streams) for b in batches) == len(ids)
    for k, (batch, r) in rows.items():
        one = flip_batch(transform(generate_walk(0, length, 46, k).increments[None]),
                         ray_mark_rows(PARAMS, length, 46, [k + 1]),
                         ray_mark_rows(PARAMS, length, 46, [k + 2]))
        got, want = _row_arrays(batch, r), _row_arrays(one, 0)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert batch.rays.dtype == batch.marks.dtype == np.int8
        assert batch.streams.dtype == np.uint64
        assert batch.t.s.dtype == (np.int16 if batch.radii.shape[1] < 2**14 else np.int32)


@pytest.mark.parametrize("length, block_steps, window",
                         [(200, 2_000, 3), (200, 2_000, 1), (61, 130, 2), (301, 300, 16),
                          (300, 2**17, 16), (4, 8, 16)])
def test_flip_batches_sort_rows_by_stop_and_fill_the_budget(length, block_steps, window,
                                                            monkeypatch):
    # windows of `window` row blocks; in each, the rows in stable stop
    # order, cut greedily into batches of rows x width <= the block budget;
    # at 4 steps, batches fill the budget of 8 exactly
    monkeypatch.setattr(walk, "ROW_BLOCK_STEPS", block_steps)
    monkeypatch.setattr(chain, "FLIP_WINDOW_BLOCKS", window)
    ids = range(0, 970, 10)
    stop = {k: _stop_of(generate_walk(0, length, 58, k).increments) for k in ids}
    window_rows = max(1, block_steps // length) * window
    windows = {}
    for batch in flip_batches(PARAMS, length, 58, ids):
        streams = batch.streams.tolist()
        stops_ = [stop[k] for k in streams]
        assert batch.n_end.tolist() == stops_ == sorted(stops_)
        assert batch.radii.shape == (len(streams), min(length, stops_[-1] + 2))
        assert len(streams) == 1 or batch.radii.size <= block_steps
        windows.setdefault(ids.index(streams[0]) // window_rows, []).append(streams)
    assert len(windows) == -(-len(ids) // window_rows)
    for w, batches in windows.items():
        rows = ids[w * window_rows : (w + 1) * window_rows]
        assert sum(batches, []) == sorted(rows, key=stop.get)
        # the next row would not have fit
        for now, after in zip(batches, batches[1:]):
            assert (len(now) + 1) * min(length, stop[after[0]] + 2) > block_steps


def test_flip_batches_drop_each_block_once_its_rows_are_gathered(monkeypatch):
    # one row per block: when a batch is flipped, no block whose rows are
    # all in it or in earlier batches is alive
    monkeypatch.setattr(walk, "ROW_BLOCK_STEPS", 400)
    blocks, gathered = [], set()
    increment_rows, flip = chain.increment_rows, chain.flip_batch

    def drawn(length, seed, ids):
        x = increment_rows(length, seed, ids)
        blocks.append((set(ids), weakref.ref(x)))
        return x

    def flipped(t, eta, beta_aux, streams):
        gathered.update(streams.tolist())
        assert [ids for ids, x in blocks if x() is not None and ids <= gathered] == []
        return flip(t, eta, beta_aux, streams)

    monkeypatch.setattr(chain, "increment_rows", drawn)
    monkeypatch.setattr(chain, "flip_batch", flipped)
    batches = list(flip_batches(PARAMS, 300, 59, range(0, 200, 10)))
    assert len(blocks) == 20 and gathered == set(range(0, 200, 10))
    assert 1 < len(batches) < 20


def test_ray_mark_rows_match_generator_uniforms():
    # row by row, and each row the exit rays of the generator's uniforms
    ids = [2, 2**63, 2**64 - 1, 2]
    rows = ray_mark_rows(PARAMS, 50, 47, ids)
    assert np.array_equal(rows, np.stack([ray_mark_rows(PARAMS, 50, 47, [k])[0] for k in ids]))
    assert np.array_equal(rows, np.stack([_exit_ray(PARAMS, make_rng(47, k).random(50))
                                          for k in ids]))


def test_ray_mark_rows_reproducible_prefix():
    a = ray_mark_rows(PARAMS, 10, 44, [5])[0]
    b = ray_mark_rows(PARAMS, 25, 44, [5])[0]
    assert np.array_equal(a, b[:10])


# flip_batches flips the transform pass of the walks' first
# min(L, max(n_end) + 2) columns; each such batch is checked against
# flip_batch on the full-width pass, and its bound and counts against the
# same formulas on every column.

def _full_width_bound(batch):
    kept = batch.exc.end <= batch.n_end[batch.exc.row]
    start, end = batch.exc.start[kept], batch.exc.end[kept]
    assert np.all(end + 1 < batch.rays.shape[1])  # every reset is a column
    mark = _carry(batch.rays.shape, np.repeat(batch.exc.row[kept], 2),
                  np.column_stack([start, end + 1]).ravel(),
                  np.column_stack([batch.marks[kept], np.zeros_like(start)]).ravel())
    rays, radii, ybar = batch.rays, batch.radii.astype(np.int64), batch.ybar
    same_ray = (rays == 0) | (rays == mark) | (ybar == 0)
    dev = np.where(same_ray, np.abs(radii - ybar), radii + ybar)
    return np.where(mark > 0, dev, 0).max(axis=1, initial=0)


def _full_width_counts(rays, radii, n_end):
    radii = radii.astype(np.int64)
    live = np.arange(1, radii.shape[1]) <= n_end[:, None]
    before, after = radii[:, :-1], radii[:, 1:]
    up = after > before
    moves = np.bincount((2 * before + up)[live], minlength=2 * int(radii.max()) + 2)
    up_by_r, down_by_r = moves[1::2].copy(), moves[::2].copy()
    up_by_r[0] = down_by_r[0] = 0
    return {"hold": int(moves[0]),
            "exits": np.bincount(rays[:, 1:][live & up & (before == 0)],
                                 minlength=PARAMS.N + 1)[1:],
            "up_by_r": up_by_r, "down_by_r": down_by_r}


def _assert_same_counts(got, want):
    """Equal counts; the radius arrays of the full width may run on in zeros
    past the largest radius up to the last stop."""
    assert got["hold"] == want["hold"]
    assert np.array_equal(got["exits"], want["exits"])
    for key in ("up_by_r", "down_by_r"):
        n = len(got[key])
        assert n == len(got["up_by_r"]) and n <= len(want[key])
        assert np.array_equal(got[key], want[key][:n]) and not want[key][n:].any()


def _kept_excursions(batch):
    kept = batch.exc.end <= batch.n_end[batch.exc.row]
    return [a[kept] for a in (*batch.exc, batch.marks)]


def _assert_cut_matches_full_width(incs, eta, beta_aux):
    """flip_batch on the pass of the columns up to the last stop + 1 against
    flip_batch on the full one: every kept column, block, kept excursion,
    bound, proof fact and count."""
    full = flip_batch(transform(incs), eta, beta_aux)
    assert np.array_equal(stops(np.asarray(incs, dtype=np.int8)), full.n_end)
    width = min(incs.shape[1], int(full.n_end.max()) + 2)
    batch = flip_batch(transform(incs[:, :width]), eta, beta_aux)
    assert batch.radii.shape == (len(incs), width)
    for got, want in zip([*batch.t, batch.ybar, batch.rays, batch.radii],
                         [*full.t, full.ybar, full.rays, full.radii]):
        assert np.array_equal(got, want[:, : got.shape[1]])
    assert all(a.shape[1] == width for a in (batch.t.sbar, batch.t.runmax, batch.t.is_tau))
    assert batch.t.s.shape[1] == width + 1 and batch.t.xbar.shape[1] == width - 1
    for got, want in [(batch.n_end, full.n_end), (batch.block_row, full.block_row),
                      (batch.cases, full.cases),
                      *zip(_kept_excursions(batch), _kept_excursions(full))]:
        assert np.array_equal(got, want)
    bound = batch.bound_deviation()
    assert np.array_equal(bound, full.bound_deviation())
    assert np.array_equal(bound, _full_width_bound(full))
    assert np.array_equal(proof_fact_violations(batch), proof_fact_violations(full))
    counts = transition_counts(PARAMS, batch.rays, batch.radii, batch.n_end)
    _assert_same_counts(counts, _full_width_counts(full.rays, full.radii, full.n_end))
    assert np.array_equal(batch.exit_counts(PARAMS), counts["exits"])
    up, down = batch.move_counts()
    assert np.array_equal(up, counts["up_by_r"]) and np.array_equal(down, counts["down_by_r"])
    return batch


@pytest.mark.parametrize("length", [2, 3, 4, 7, 40, 301])
def test_flip_batch_cut_at_last_stop_matches_full_width(length):
    rng = make_rng(52, length)
    incs = rng.integers(0, 2, size=(200, length)) * 2 - 1
    incs[0] = 1  # S never returns to 0: no completed block
    eta, beta_aux = (rng.integers(1, 4, size=incs.shape) for _ in range(2))
    batch = _assert_cut_matches_full_width(incs, eta, beta_aux)
    assert batch.n_end[0] == 0
    # every row stops at 0: the cut keeps two columns
    stopped = np.where(np.arange(length) % 3 == 2, -1, 1)
    incs = np.stack([stopped, -stopped, np.ones(length, dtype=np.int64)])
    assert not _assert_cut_matches_full_width(incs, eta[:3], beta_aux[:3]).n_end.any()


def _stopping_at(stop, length, sign=1):
    """A walk of length steps whose last block boundary is at the even
    column stop: it alternates back to 0 at stop, steps on the same way and
    never returns."""
    back = np.tile([sign, -sign], stop // 2)
    return np.concatenate([back, np.full(length - stop, -sign if stop else sign)])


@pytest.mark.parametrize("stop, length", [(0, 9), (2, 9), (2, 3), (8, 10), (8, 9),
                                          (298, 300), (298, 299)],
                         ids=["0", "2", "2_of_3", "L-2", "L-1", "L-2_300", "L-1_299"])
def test_cut_at_a_last_stop_of_each_place_matches_full_width(stop, length):
    # the first two rows stop at stop and the others earlier; a stop is at
    # an even column (test_no_walk_stops_at_an_odd_column), so column 2
    # stands in for 1, and L - 2 and L - 1 take lengths of both parities
    rows = [_stopping_at(stop, length), _stopping_at(stop, length, -1)]
    rows += [_stopping_at(s, length, (-1) ** s) for s in range(0, stop, 2)]
    rng = make_rng(54, length)
    rows += [r for r in rng.integers(0, 2, size=(40, length)) * 2 - 1
             if _stop_of(r) < stop]
    incs = np.stack(rows).astype(np.int8)
    eta, beta_aux = (rng.integers(1, 4, size=incs.shape) for _ in range(2))
    batch = _assert_cut_matches_full_width(incs, eta, beta_aux)
    assert batch.n_end.max() == batch.n_end[0] == stop
    assert batch.radii.shape[1] == min(length, stop + 2)


def _stop_of(incs):
    """The last block boundary of one walk, from the literal product test."""
    taus = tau_sequence(np.append(0, np.cumsum(incs)))
    return int(taus[-1]) if taus.size else 0


def test_no_walk_stops_at_an_odd_column():
    # a stop is a block boundary, where S = 0, and the last even column is
    # the stop of some walk
    for length in range(2, 11):
        incs = np.array(list(itertools.product((1, -1), repeat=length)), dtype=np.int8)
        n_end = flip_batch(transform(incs), incs, incs).n_end
        assert not (n_end % 2).any()
        assert n_end.max() == length - 1 - (length - 1) % 2


def test_flip_batches_cut_on_long_paths_matches_full_width():
    # one row per batch, as flip-check's long paths are drawn
    for k in range(0, 30, 10):
        incs = generate_walk(0, 60_000, 53, k).increments[None]
        eta, beta_aux = (ray_mark_rows(PARAMS, 60_000, 53, [k + j]) for j in (1, 2))
        batch = _assert_cut_matches_full_width(incs, eta, beta_aux)
        assert batch.n_end[0] < 60_000 - 1


def test_bound_keeps_an_excursion_ending_at_the_last_stop():
    # a transformed walk's kept excursions end before n_end, so this batch is
    # built by hand: row 1's last kept excursion ends at its n_end, the last
    # stop of the batch, and its reset point falls on the last column
    radii = np.array([[0, 2, 0, 1, 0, 0, 0], [0, 1, 2, 3, 4, 5, 0]])
    ybar = np.array([[0, 1, 0, 1, 0, 0, 0], [0, 1, 1, 1, 1, 1, 0]])
    n_end = np.array([2, 5])
    exc = ExcursionTable(np.array([0, 1]), np.array([0, 0]), np.array([2, 5]),
                         np.array([1, 1]))
    changes = (np.array([0, 1]), np.array([1, 1]), np.array([2, 1]))
    batch = FlipBatch(None, ybar, radii, n_end, exc, np.array([2, 1]),
                      np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), changes)
    assert batch.rays.tolist() == [[0, 2, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1, 0]]
    assert batch.bound_deviation().tolist() == _full_width_bound(batch).tolist() == [1, 4]
    # cut one column short, the reset falls past the last column and is dropped
    short = FlipBatch(None, ybar[:, :6], radii[:, :6], n_end, exc, np.array([2, 1]),
                      batch.block_row, batch.cases, changes)
    assert short.bound_deviation().tolist() == [1, 4]


def test_carry_drops_change_points_at_or_past_the_width():
    # clamping the point at 3 to the last column would end row 0's mark there
    rows, pos, marks = [0, 0, 1, 1, 1], [0, 3, 1, 2, 9], [5, 0, 7, 4, 6]
    assert _carry((2, 3), rows, pos, marks).tolist() == [[5, 5, 5], [0, 7, 4]]
    assert np.array_equal(_carry((2, 3), rows[:1] + rows[2:4], pos[:1] + pos[2:4],
                                 marks[:1] + marks[2:4]),
                          _carry((2, 10), rows, pos, marks)[:, :3])


# Rays, marks and the ray carry are int8 up to 127 rays and int16 past it;
# walk values are int16 below 2**14 steps and int32 from there.  Each is
# checked against the same computation in int64 at the boundary.

@pytest.mark.parametrize("n_rays", [127, 128])
def test_ray_dtype_holds_every_ray_and_difference(n_rays):
    params = RayParams.uniform(n_rays)
    assert params.ray_dtype == (np.int8 if n_rays == 127 else np.int16)
    rows = ray_mark_rows(params, 4_000, 55, [3, 2**64 - 1])
    assert rows.dtype == params.ray_dtype and rows.max() == n_rays and rows.min() == 1
    uniforms = np.stack([make_rng(55, k).random(4_000) for k in (3, 2**64 - 1)])
    assert np.array_equal(rows, _searchsorted_exit_ray(params, uniforms))
    cum = params.alpha_cumulative
    edges = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum[cum < 1],
                            np.nextafter(cum, 0.0)])
    rays = _exit_ray(params, edges)
    assert rays.dtype == params.ray_dtype
    assert np.array_equal(rays, _searchsorted_exit_ray(params, edges))
    # change points from 1 to N and back, N to 0: differences of +-(N - 1), -N
    marks = np.array([1, n_rays, 1, n_rays, 0, n_rays], dtype=params.ray_dtype)
    row, pos = np.array([0, 0, 0, 1, 1, 1]), np.array([0, 2, 3, 1, 4, 5])
    got = _carry((2, 7), row, pos, marks)
    want = _carry((2, 7), row, pos, marks.astype(np.int64))
    assert got.dtype == params.ray_dtype and np.array_equal(got, want)
    assert want.tolist() == [[1, 1, n_rays, 1, 1, 1, 1], [0, n_rays, n_rays, n_rays, 0,
                                                          n_rays, n_rays]]


def _widened(t):
    """The transform pass t with its values in int64."""
    return t._replace(s=t.s.astype(np.int64), sbar=t.sbar.astype(np.int64),
                      runmax=t.runmax.astype(np.int64))


@pytest.mark.parametrize("length", [2**14 - 1, 2**14, 2**14 + 1])
def test_value_dtype_holds_the_widest_values(length, monkeypatch):
    # monotone walks, and walks that climb half their length and come back
    # to stop there: their block holds the widest values a stop allows
    half = (length - 2) // 2
    climb = np.concatenate([np.ones(half), -np.ones(length - half)])
    incs = np.stack([np.ones(length), -np.ones(length), climb, -climb]).astype(np.int8)
    # S has length steps, S-bar one fewer
    dtype = np.int16 if length < 2**14 else np.int32
    t = transform(incs)
    assert t.s.dtype == dtype
    assert t.sbar.dtype == t.runmax.dtype == (np.int16 if length <= 2**14 else np.int32)
    s = np.hstack([np.zeros((4, 1), dtype=np.int64), np.cumsum(incs, axis=1, dtype=np.int64)])
    sbar = np.hstack([np.zeros((4, 1), dtype=np.int64),
                      np.cumsum(t.xbar, axis=1, dtype=np.int64)])
    assert np.array_equal(t.s, s) and np.array_equal(t.sbar, sbar)
    assert np.array_equal(t.runmax, np.maximum.accumulate(sbar, axis=1))
    assert abs(int(t.s[0, -1])) == abs(int(t.sbar[0, -1])) + 1 == length
    rng = make_rng(56, length)
    eta, beta_aux = (rng.integers(1, 4, size=incs.shape) for _ in range(2))
    full = flip_batch(t, eta, beta_aux)
    wide = flip_batch(_widened(t), eta, beta_aux)
    assert full.n_end.tolist() == [0, 0, 2 * half, 2 * half]
    # the sums the flip forms reach twice the length
    for a, b in [(full.radii + full.ybar, wide.radii + wide.ybar),
                 (2 * full.radii + 1, 2 * wide.radii + 1)]:
        assert np.array_equal(a, b) and a.max() >= 2 * length - 3
    # through flip_batches, its walks replaced by these
    monkeypatch.setattr(chain, "increment_rows", lambda n, seed, ids: incs[: len(ids)])
    (batch,) = flip_batches(PARAMS, length, 57, range(0, 40, 10))
    assert batch.t.s.dtype == dtype and batch.rays.dtype == np.int8
    eta, beta_aux = (ray_mark_rows(PARAMS, length, 57, range(j, 40 + j, 10)) for j in (1, 2))
    wide = flip_batch(_widened(transform(incs)), eta, beta_aux)
    for got, want in [(batch.bound_deviation(), wide.bound_deviation()),
                      (proof_fact_violations(batch), proof_fact_violations(wide))]:
        assert np.array_equal(got, want)
    assert batch.bound_deviation().max() <= 2 and batch.n_end.max() == 2 * half
    counts = transition_counts(PARAMS, batch.rays, batch.radii, batch.n_end)
    want = transition_counts(PARAMS, wide.rays, wide.radii.astype(np.int64), wide.n_end)
    for key in ("hold", "exits", "up_by_r", "down_by_r"):
        assert np.array_equal(counts[key], want[key]), key
    # the monotone rows reach radius 2 half by the last stop, but only the
    # climbing ones are live: up and back once each
    assert len(counts["up_by_r"]) == 2 * half + 1
    assert counts["up_by_r"][1:half].tolist() == counts["down_by_r"][2 : half + 1].tolist() \
        == [2] * (half - 1)

"""Chains on the lattice: step laws, excursion flipping, product chain."""

from fractions import Fraction

import numpy as np
import pytest

from starflow.chain import (CASE_NO_EXCURSION, CASE_ONE_EARLY, CASE_ONE_LATE,
                            CASE_TWO, check_proof_facts, draw_ray_marks,
                            flip_bound_deviation, flip_excursions,
                            flipped_product_chain, simulate_chain,
                            simulate_chain_batch, step_chain, transition_counts)
from starflow.cv import cv_forward, reflected_path
from starflow.errors import NotAPreimageError
from starflow.graph import RayParams, junction, point
from starflow.rng import make_rng
from starflow.stats import (chi_square, chi_square_pvalue, updown_chi_square)
from starflow.walk import excursions, generate_walk

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


def test_simulate_chain_lattice_moves():
    path = simulate_chain(PARAMS, 500, 34, 0)
    d = np.abs(np.diff(path.radii))
    assert set(d.tolist()) <= {1}  # chain Q never holds
    lazy = simulate_chain(PARAMS, 500, 34, 1, lazy=True)
    dl = np.diff(lazy.radii)
    holds = (dl == 0)
    assert np.all(lazy.radii[:-1][holds] == 0)  # holds only at the junction


def test_simulate_chain_batch_matches_single():
    rays, radii = simulate_chain_batch(PARAMS, 200, 50, 35, 0)
    assert radii.min() >= 0
    assert np.all((radii % 2) == 0)  # parity lock of chain Q after even steps
    # one replica draws the same uniforms as the single path, one per step
    for lazy in (False, True):
        for stream in range(50):
            rays, radii = simulate_chain_batch(PARAMS, 200, 1, 35, stream, lazy=lazy)
            path = simulate_chain(PARAMS, 200, 35, stream, lazy=lazy)
            assert radii[0] == path.radii[-1]
            if radii[0] > 0:
                assert rays[0] == path.rays[-1]


def _flip(seed, length, stream):
    s = generate_walk(0, length, seed, stream)
    s_bar = cv_forward(s)
    exc = excursions(reflected_path(s_bar.values))
    eta = draw_ray_marks(PARAMS, len(exc), seed, stream + 50_000)
    beta_aux = draw_ray_marks(PARAMS, length, seed, stream + 90_000)
    return flip_excursions(s_bar, s, eta, beta_aux, PARAMS), s, s_bar, eta


def test_flip_rejects_non_preimage():
    s = generate_walk(0, 40, 36, 0)
    other = generate_walk(0, 40, 36, 1)
    s_bar = cv_forward(other)
    with pytest.raises(NotAPreimageError):
        flip_excursions(s_bar, s, np.ones(10, dtype=np.int64),
                        np.ones(40, dtype=np.int64), PARAMS)


def test_flip_radial_part_is_abs_s():
    res, s, s_bar, eta = _flip(37, 300, 0)
    n = len(res.chain)
    assert np.array_equal(res.chain.radii, np.abs(s.values[:n]))


def test_flip_block_boundaries_at_zero():
    res, s, s_bar, eta = _flip(37, 300, 1)
    for tau in res.taus:
        assert s.values[tau] == 0
        assert res.chain.radii[tau] == 0


def test_flip_cases_exhaustive():
    seen = set()
    for stream in range(60):
        res, *_ = _flip(38, 200, stream)
        assert len(res.block_cases) == len(res.taus) - 1
        seen.update(res.block_cases)
        for case, (lo, hi) in zip(res.block_cases,
                                  zip(res.taus[:-1], res.taus[1:])):
            assert case in (CASE_NO_EXCURSION, CASE_ONE_EARLY, CASE_ONE_LATE,
                            CASE_TWO)
            if case == CASE_NO_EXCURSION:
                assert hi == lo + 2
    assert seen == {CASE_NO_EXCURSION, CASE_ONE_EARLY, CASE_ONE_LATE, CASE_TWO}


def test_flip_bound_many_replicas():
    worst = 0
    for stream in range(300):
        res, s, s_bar, eta = _flip(39, 120, stream)
        worst = max(worst, flip_bound_deviation(res, s_bar, eta))
    assert worst <= 2


def test_proof_facts_pathwise():
    for stream in range(300):
        s = generate_walk(0, 150, 40, stream)
        s_bar = cv_forward(s)
        assert check_proof_facts(s, s_bar) == 0


def test_flip_transition_law():
    # one long path: short truncated replicas bias the interior counts
    res, *_ = _flip(41, 100_000, 0)
    counts = transition_counts(res.chain)
    assert counts["hold"] == 0
    stat, dof = chi_square(counts["exits"], PARAMS.alpha)
    assert chi_square_pvalue(stat, dof) > 0.01
    stat, dof = updown_chi_square(counts["up_by_r"], counts["down_by_r"])
    assert chi_square_pvalue(stat, dof) > 0.01


def test_product_chain_structure():
    s_bar = generate_walk(0, 400, 42, 0)
    y_bar = reflected_path(s_bar.values)
    exc = excursions(y_bar)
    eta = draw_ray_marks(PARAMS, len(exc), 42, 1)
    chain = flipped_product_chain(s_bar, eta, PARAMS)
    n = len(chain)
    assert np.array_equal(chain.radii, y_bar[:n])
    for e in exc:
        if e.end < n:
            seg = chain.rays[e.start : e.end + 1]
            positive = chain.radii[e.start : e.end + 1] > 0
            assert np.all(seg[positive] == eta[e.ordinal - 1])


def test_product_chain_transition_law():
    s_bar = generate_walk(0, 100_000, 43, 0)
    exc = excursions(reflected_path(s_bar.values))
    eta = draw_ray_marks(PARAMS, len(exc), 43, 1)
    chain = flipped_product_chain(s_bar, eta, PARAMS)
    counts = transition_counts(chain)
    # junction row of the lazy matrix: hold 1/2, exit i with alpha_i/2
    cells = np.concatenate([[counts["hold"]], counts["exits"]])
    probs = np.concatenate([[0.5], [float(a) / 2 for a in PARAMS.alpha]])
    stat, dof = chi_square(cells, probs)
    assert chi_square_pvalue(stat, dof) > 0.01
    stat, dof = updown_chi_square(counts["up_by_r"], counts["down_by_r"])
    assert chi_square_pvalue(stat, dof) > 0.01


def test_draw_ray_marks_reproducible_prefix():
    a = draw_ray_marks(PARAMS, 10, 44, 5)
    b = draw_ray_marks(PARAMS, 25, 44, 5)
    assert np.array_equal(a, b[:10])

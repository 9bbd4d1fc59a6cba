"""Acceptance gate: seven criteria with stated tolerances and runtime budgets.

Each test prints a `[criterion k] ... PASS` line on success so the gate can
be read off the pytest -v output directly.  Budgets are wall-clock upper
bounds measured inside the test (generation + verification).
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from starflow.beta import beta_distance, beta_vertex_oracle
from starflow.chain import (flip_batches, flip_realization, simulate_chain_batch,
                            transition_counts)
from starflow.cv import (cv_deviation_batch, cv_forward_increments, cv_inverse_increments,
                         tau_sequence, taus_from_first_hits)
from starflow.flows import (FlowRealization, kernel_closed_form, kernel_compose,
                            kernel_is_conditional_law, psi_closed_form, psi_compose)
from starflow.graph import (DiscreteMeasure, GraphPoint, RayParams, junction, point)
from starflow.limit import (_rescale_measure, convergence_profiles, rescale_path,
                            wiener_kernel)
from starflow.rng import make_rng
from starflow.stats import (chi_square, chi_square_pvalue, updown_chi_square,
                            walsh_marginal_check)
from starflow.walk import WalkWindow, generate_walk, random_increments

PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
SEED = 20260826


# ---------------------------------------------------------------------------
# Criterion 1: transform bound, 10^4 walks x 10^3 steps, zero violations, <10 s
# ---------------------------------------------------------------------------

def test_criterion_1_cv_bound():
    t0 = time.time()
    X = random_increments((10_000, 1_000), SEED, 1)
    dev = cv_deviation_batch(X)
    violations = int((dev > 2).sum())
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 10.0
    print(f"\n[criterion 1] CV bound <= 2 on 10^4 x 10^3: "
          f"max deviation {int(dev.max())}, {violations} violations, "
          f"{elapsed:.1f}s PASS")


# ---------------------------------------------------------------------------
# Criterion 2: transform structure, all checks exact
# ---------------------------------------------------------------------------

def test_criterion_2_cv_structure():
    X = random_increments((10_000, 1_000), SEED, 2)
    bars = cv_forward_increments(X)
    S = np.concatenate([np.zeros((10_000, 1), np.int64), np.cumsum(X, axis=1)], axis=1)
    Sbar = np.concatenate([np.zeros((10_000, 1), np.int64), np.cumsum(bars, axis=1)],
                          axis=1)
    # tau recursion vs first hit of 2l by the transformed walk, every realized l
    for r in range(10_000):
        taus = tau_sequence(S[r])
        hits = taus_from_first_hits(Sbar[r])
        m = min(len(taus), len(hits))
        assert np.array_equal(taus[:m], hits[:m])
        assert len(taus) == len(hits)
    # evenness T(S) = T(-S)
    assert np.array_equal(bars, cv_forward_increments(-X))
    # inverse roundtrip and the exact preimage pair
    assert np.array_equal(cv_inverse_increments(bars, X[:, 0]), X)
    assert np.array_equal(cv_inverse_increments(bars, -X[:, 0]), -X)
    print("\n[criterion 2] tau recursion = first-hit, evenness, roundtrip, "
          "preimage pair {S, -S}: exact on 10^4 replicas PASS")


# ---------------------------------------------------------------------------
# Criterion 3: excursion flipping bound, transition law, proof facts, <10 s
# ---------------------------------------------------------------------------

def test_criterion_3_flip():
    t0 = time.time()
    worst = 0
    fact_violations = 0
    for batch in flip_batches(PARAMS, 200, SEED, range(30_000, 130_000, 10)):
        worst = max(worst, int(batch.bound_deviation().max()))
        fact_violations += int(batch.proof_fact_violations().sum())
    assert worst <= 2
    assert fact_violations == 0
    # transition frequencies on one 10^5-step realization, Bonferroni 1%
    result, *_ = flip_realization(PARAMS, 100_000, SEED, 777)
    counts = transition_counts(result.chain)
    assert counts["hold"] == 0  # immediate-exit chain never holds at 0
    stat_e, dof_e = chi_square(counts["exits"], PARAMS.alpha)
    p_exit = chi_square_pvalue(stat_e, dof_e)
    stat_u, dof_u = updown_chi_square(counts["up_by_r"], counts["down_by_r"])
    p_ud = chi_square_pvalue(stat_u, dof_u)
    adj = 0.01 / 2
    assert p_exit > adj
    assert p_ud > adj
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 3] flip bound <= 2 (worst {worst}), proof facts "
          f"0 violations, transition chi2 p=({p_exit:.3f}, {p_ud:.3f}) "
          f"> {adj}, {elapsed:.1f}s PASS")


# ---------------------------------------------------------------------------
# Criterion 4: flow exactness, exhaustive + spot checks + kernels, <60 s
# ---------------------------------------------------------------------------

def test_criterion_4_flow_exactness():
    t0 = time.time()
    eta = np.tile([2, 1, 3, 1], 3).astype(np.int64)
    # mapping: every walk of length 12, every window, every |x| <= 3
    for bits in itertools.product((1, -1), repeat=12):
        fr = FlowRealization(WalkWindow(0, np.array(bits)), eta, PARAMS)
        for p in range(13):
            for n in range(p, 13):
                for radius in range(4):
                    x = point(1, radius, 3)
                    assert psi_closed_form(fr, p, n, x) == psi_compose(fr, p, n, x)
    # mapping: 10^4 random spot checks at length 10^3
    walk = generate_walk(0, 1_000, SEED, 40)
    fr = FlowRealization.generate(walk, PARAMS, SEED, 41)
    rng = make_rng(SEED, 42)
    for _ in range(10_000):
        p = int(rng.integers(0, 1_000))
        n = int(rng.integers(p, 1_001))
        x = point(int(rng.integers(1, 4)), int(rng.integers(0, 4)), 3)
        assert psi_closed_form(fr, p, n, x) == psi_compose(fr, p, n, x)
    # kernel: closed form = exact rational composition on the length-12 grid
    for bits in itertools.product((1, -1), repeat=12):
        w = WalkWindow(0, np.array(bits))
        for p in (0, 6, 12):
            for n in range(p, 13):
                for radius in range(4):
                    x = point(1, radius, 3)
                    assert kernel_compose(w, PARAMS, p, n, x) == \
                        kernel_closed_form(w, PARAMS, p, n, x)
    # kernel cocycle, exact rational chaining on random triples
    rng = make_rng(SEED, 43)
    for _ in range(128):
        bits = (rng.integers(0, 2, size=12) * 2 - 1).astype(np.int64)
        w = WalkWindow(0, bits)
        p, q = sorted(int(v) for v in rng.integers(0, 13, size=2))
        r = int(rng.integers(p, q + 1))
        x = point(int(rng.integers(1, 4)), int(rng.integers(0, 4)), 3)
        via = {}
        for y, wy in kernel_compose(w, PARAMS, p, r, x).atoms.items():
            for z, wz in kernel_compose(w, PARAMS, r, q, y).atoms.items():
                via[z] = via.get(z, Fraction(0)) + wy * wz
        assert DiscreteMeasure(via.items()) == kernel_compose(w, PARAMS, p, q, x)
    # conditional law by full mark enumeration on windows up to 16
    for bits in itertools.product((1, -1), repeat=6):
        assert kernel_is_conditional_law(WalkWindow(0, np.array(bits)), PARAMS,
                                         0, 6, junction(3))
    for length in (12, 16):
        w = generate_walk(0, length, SEED, 44 + length)
        assert kernel_is_conditional_law(w, PARAMS, 0, length, junction(3))
        assert kernel_is_conditional_law(w, PARAMS, 0, length, point(1, 2, 3))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 4] flow/kernel exactness (exhaustive length 12, "
          f"10^4 spot checks, cocycle, conditional law <= 16): {elapsed:.1f}s PASS")


# ---------------------------------------------------------------------------
# Criterion 5: Donsker marginals for both chains, n = 10^4, 10^4 replicas, <2 min
# ---------------------------------------------------------------------------

def test_criterion_5_donsker():
    t0 = time.time()
    reports = {}
    for lazy, label in ((False, "immediate-exit"), (True, "lazy")):
        rays, radii = simulate_chain_batch(PARAMS, 10_000, 10_000, SEED,
                                           50 + lazy, lazy=lazy)
        report = walsh_marginal_check(rays, radii, 10_000, PARAMS, level=0.01)
        assert report["pass"], f"{label}: {report}"
        reports[label] = report
    elapsed = time.time() - t0
    assert elapsed < 120.0
    parts = ", ".join(f"{k}: KS {v['ks_statistic']:.4f} < {v['ks_critical']:.4f}, "
                      f"chi2 p {v['chi2_pvalue']:.3f}" for k, v in reports.items())
    print(f"\n[criterion 5] Donsker marginals ({parts}), {elapsed:.1f}s PASS")


# ---------------------------------------------------------------------------
# Criterion 6: solver vs vertex oracle on 10^3 pairs (1e-9), exact Dirac values
# ---------------------------------------------------------------------------

def _random_measure(rng, max_support=2):
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


def test_criterion_6_beta_metric():
    rng = make_rng(SEED, 60)
    worst = 0.0
    for _ in range(1_000):
        p = _random_measure(rng)
        q = _random_measure(rng)
        worst = max(worst, abs(beta_distance(p, q) - beta_vertex_oracle(p, q)))
    assert worst < 1e-9
    for r in (0.5, 1.0, 2.0, 5.0):
        val = beta_distance(DiscreteMeasure.dirac(GraphPoint(1, r)),
                            DiscreteMeasure.dirac(junction(3)))
        assert val == pytest.approx(r / (1 + r), abs=1e-9)
    for r in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5), Fraction(7, 3)):
        assert beta_distance(DiscreteMeasure.dirac(GraphPoint(1, r)),
                             DiscreteMeasure.dirac(junction(3))) == r / (1 + r)
    print(f"\n[criterion 6] solver vs vertex oracle worst gap {worst:.2e} < 1e-9 on "
          f"10^3 pairs; dirac values r/(1+r) exact PASS")


# ---------------------------------------------------------------------------
# Criterion 7: convergence profiles + grid self-consistency, <3 min
# ---------------------------------------------------------------------------

def test_criterion_7_convergence():
    t0 = time.time()
    n_list = [100, 1_000, 10_000]
    # fixed evaluation mesh: generic times where the 1/sqrt(n) interpolation
    # slack is visible for every n
    mesh = np.linspace(1 / 64, 1.0, 40)
    beta_sups = {n: [] for n in n_list}
    dist_sups = {n: [] for n in n_list}
    for rep in range(200):
        def fr_for_n(n, rep=rep):
            return FlowRealization.generate(generate_walk(0, n, SEED, 70_000 + rep),
                                            PARAMS, SEED, 80_000 + rep)

        for row in convergence_profiles(fr_for_n, PARAMS, 0.0, 1.0, junction(3), n_list,
                                        times=mesh):
            beta_sups[row["n"]].append(row["sup_beta"])
            dist_sups[row["n"]].append(row["sup_distance"])
    med_beta = [float(np.median(beta_sups[n])) for n in n_list]
    med_dist = [float(np.median(dist_sups[n])) for n in n_list]
    assert all(a > b for a, b in zip(med_beta, med_beta[1:])), med_beta
    assert all(a > b for a, b in zip(med_dist, med_dist[1:])), med_dist
    # grid-time self-consistency: exact at every grid point
    worst = 0.0
    for n in n_list:
        walk = generate_walk(0, n, SEED, 90_000 + n)
        w = rescale_path(walk, n)
        for k in range(n + 1):
            discrete = _rescale_measure(kernel_closed_form(walk, PARAMS, 0, k,
                                                           junction(3)), n)
            limit = wiener_kernel(w, PARAMS, 0.0, k / n, junction(3))
            worst = max(worst, beta_distance(discrete, limit))
    assert worst < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 180.0
    print(f"\n[criterion 7] medians beta {med_beta} and distance {med_dist} "
          f"strictly decreasing; grid self-consistency worst {worst:.1e}; "
          f"{elapsed:.1f}s PASS")

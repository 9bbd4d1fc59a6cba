"""Statistical machinery: KS variants, chi-square helpers, marginal checks."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom, norm

from starflow.chain import simulate_chain_batch
from starflow.errors import SparseCellsError, TooFewSamplesError
from starflow.graph import RayParams
from starflow.rng import make_rng
from starflow.stats import (chi_square, chi_square_pvalue, half_normal_cdf,
                            ks_critical, ks_statistic, ks_statistic_lattice,
                            updown_chi_square, walsh_marginal_check)

PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))


def test_ks_null_calibration():
    rng = make_rng(71, 0)
    samples = rng.standard_normal(10_000)
    stat = ks_statistic(samples, norm.cdf)
    assert stat < ks_critical(10_000, 0.01)


def test_ks_detects_shift():
    rng = make_rng(71, 1)
    samples = rng.standard_normal(10_000) + 0.2
    assert ks_statistic(samples, norm.cdf) > ks_critical(10_000, 0.01)


def test_ks_constant_samples():
    samples = np.zeros(500)
    assert ks_statistic(samples, norm.cdf) >= 0.5


def test_ks_too_few_samples():
    with pytest.raises(TooFewSamplesError):
        ks_statistic(np.zeros(50), norm.cdf)


def test_ks_critical_value():
    # sqrt(-ln(alpha/2)/2) = 1.628... at alpha = 0.01
    assert ks_critical(10_000, 0.01) == pytest.approx(1.6276 / 100.0, rel=1e-3)


def test_ks_lattice_exact_match_is_small():
    # samples drawn exactly on the lattice from the discretized reference:
    # the lattice statistic ignores the within-cell jump that dominates the
    # classic statistic
    rng = make_rng(71, 2)
    spacing = 0.02
    z = rng.standard_normal(20_000)
    samples = np.round(z / spacing) * spacing
    classic = ks_statistic(samples, norm.cdf)
    lattice = ks_statistic_lattice(samples, norm.cdf, spacing)
    assert lattice < classic
    assert lattice < ks_critical(20_000, 0.01)


def test_chi_square_exact_fit_zero():
    stat, dof = chi_square(np.array([50, 30, 20]), np.array([0.5, 0.3, 0.2]))
    assert stat == pytest.approx(0.0)
    assert dof == 2


def test_chi_square_null_calibration():
    rng = make_rng(71, 3)
    probs = np.array([0.5, 1 / 3, 1 / 6])
    rejections = 0
    for _ in range(200):
        counts = rng.multinomial(600, probs)
        stat, dof = chi_square(counts, probs)
        rejections += chi_square_pvalue(stat, dof) < 0.01
    assert rejections <= 8


def test_chi_square_sparse_cells():
    with pytest.raises(SparseCellsError):
        chi_square(np.array([10, 1]), np.array([0.999, 0.001]))


def test_half_normal_cdf():
    assert half_normal_cdf(0.0) == pytest.approx(0.0)
    assert half_normal_cdf(1.0) == pytest.approx(2 * norm.cdf(1.0) - 1.0)
    assert half_normal_cdf(-1.0) == 0.0


def test_updown_chi_square_balanced():
    up = np.array([0, 500, 480, 250])
    down = np.array([0, 510, 475, 240])
    stat, dof = updown_chi_square(up, down)
    assert dof == 3
    assert chi_square_pvalue(stat, dof) > 0.01


def test_updown_chi_square_drops_sparse_states():
    up = np.array([0, 500, 3])
    down = np.array([0, 510, 2])
    _, dof = updown_chi_square(up, down)
    assert dof == 1


def test_walsh_marginal_check_null():
    rays, radii = simulate_chain_batch(PARAMS, n_steps=2_500, n_replicas=4_000,
                                       seed=72, stream_id=0, lazy=False)
    report = walsh_marginal_check(rays, radii, 2_500, PARAMS)
    assert report["pass"]
    assert report["ks_statistic"] < report["ks_critical"]


def test_walsh_marginal_check_detects_bad_marks():
    rays, radii = simulate_chain_batch(PARAMS, n_steps=2_500, n_replicas=4_000,
                                       seed=72, stream_id=1, lazy=False)
    bad_rays = np.where(radii > 0, 1, rays)
    report = walsh_marginal_check(bad_rays, radii, 2_500, PARAMS)
    assert not report["chi2_pass"]
    assert not report["pass"]


def _exact_radius_cdf(n: int, lazy: bool) -> np.ndarray:
    """P(radius <= k) for k = 0..n after n steps from the junction: |S_n| for
    the immediate-exit chain, M_n for the lazy one, where
    P(M_n <= k) = P(-k - 1 <= S_n <= k).  S_n = 2B - n, B ~ Binomial(n, 1/2)."""
    k = np.arange(n + 1)
    low = -k - 1 if lazy else -k
    return (binom.cdf(np.floor((n + k) / 2), n, 0.5)
            - binom.cdf(np.ceil((n + low) / 2) - 1, n, 0.5))


@pytest.mark.parametrize("lazy", [False, True])
def test_walsh_marginal_target_matches_exact_radius_law(lazy):
    # radii at the quantiles (i + 1/2)/m of the exact law: their empirical
    # CDF is within 1/m of it, so the KS statistic is the target's own error
    # (0.0126 for the lazy chain with the target half a unit higher)
    n, m = 1_000, 1_000_000
    radii = np.searchsorted(_exact_radius_cdf(n, lazy), (np.arange(m) + 0.5) / m)
    cell = np.arange(m) % 6
    rays = np.where(radii > 0, 1 + (cell >= 3) + (cell >= 5), 0)
    report = walsh_marginal_check(rays, radii, n, PARAMS)
    assert report["ks_statistic"] < 1e-3


def test_seed_determinism():
    a = make_rng(73, 0).standard_normal(5)
    b = make_rng(73, 0).standard_normal(5)
    c = make_rng(73, 1).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

"""Statistical checks: empirical CDF distances, Pearson counts tests, and
the fixed-time marginal checks for the rescaled chains.

The radial marginal target at t = 1 is the half-normal CDF 2*Phi(r) - 1.
Chain radii live on the lattice of spacing 1/sqrt(n), so the raw empirical
CDF carries a deterministic lattice bias of order the spacing.  For both
chains P(radius <= k) is close to 2*Phi((k + 1)/sqrt(n)) - 1: the
immediate-exit radius is |S_n|, whose values have the parity of n, and the
lazy radius M_n - S_n has the law of the running maximum M_n, with
P(M_n <= k) = P(-k - 1 <= S_n <= k).  Comparing the empirical CDF at each
radius k with the target one lattice unit higher, at (k + 1)/sqrt(n),
removes the bias without touching the noise.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps

from .errors import SparseCellsError, TooFewSamplesError
from .graph import RayParams


def ks_statistic(samples: np.ndarray, cdf, shift: float = 0.0) -> float:
    """Two-sided sup distance between the empirical CDF and cdf.

    samples need not be pre-sorted.  shift evaluates the target CDF at
    x + shift (lattice continuity correction); 0 is the plain statistic.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    if m < 100:
        raise TooFewSamplesError(f"need >= 100 samples, got {m}")
    f = cdf(x + shift)
    upper = np.max(np.arange(1, m + 1) / m - f)
    lower = np.max(f - np.arange(0, m) / m)
    return float(max(upper, lower))


def ks_statistic_lattice(samples: np.ndarray, cdf, spacing: float) -> float:
    """KS distance for lattice-valued samples against a continuous target.

    The two-sided statistic vs a continuous CDF is bounded below by half the
    largest cell mass no matter the sample size, so we compare the empirical
    CDF to the target only at the cell right boundaries v + spacing/2 (the
    discretized reference).  The continuous critical value is conservative
    for this statistic.
    """
    x = np.asarray(samples, dtype=float)
    m = len(x)
    if m < 100:
        raise TooFewSamplesError(f"need >= 100 samples, got {m}")
    values, counts = np.unique(x, return_counts=True)
    ecdf = np.cumsum(counts) / m
    target = cdf(values + spacing / 2.0)
    return float(np.max(np.abs(ecdf - target)))


def ks_critical(m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided critical value c(alpha)/sqrt(m)."""
    return math.sqrt(-math.log(alpha / 2) / 2) / math.sqrt(m)


def chi_square(observed: np.ndarray, expected_probs: np.ndarray) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom for a one-way table."""
    obs = np.asarray(observed, dtype=float)
    total = obs.sum()
    exp = np.asarray([float(p) for p in expected_probs]) * total
    if np.any(exp < 5):
        raise SparseCellsError(f"expected cell counts below 5: {exp.min():.2f}")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, len(obs) - 1


def chi_square_pvalue(stat: float, dof: int) -> float:
    return float(sps.chi2.sf(stat, dof))


def updown_chi_square(up_by_r: np.ndarray, down_by_r: np.ndarray,
                      min_visits: int = 20) -> tuple[float, int]:
    """Per-radius fair-coin test of interior transitions, Pearson-summed.

    Aggregating all interior states against 50/50 is wrong for a chain path
    stopped at a junction visit: total downs exceed total ups by exactly the
    number of junction exits.  Per from-state the up/down choice is a fair
    coin, so sum (up_r - down_r)^2 / (up_r + down_r) over states with enough
    visits, asymptotically chi-square with one dof per state.
    """
    up = np.asarray(up_by_r, dtype=float)
    down = np.asarray(down_by_r, dtype=float)
    visits = up + down
    keep = visits >= min_visits
    keep[0] = False  # radius 0 handled by the exit test
    if not np.any(keep):
        raise SparseCellsError("no interior radius has enough visits")
    stat = float(np.sum((up[keep] - down[keep]) ** 2 / visits[keep]))
    return stat, int(np.sum(keep))


def half_normal_cdf(r):
    """CDF of |B_1|: 2*Phi(r) - 1 for r >= 0."""
    r = np.asarray(r, dtype=float)
    return np.clip(2.0 * sps.norm.cdf(r) - 1.0, 0.0, 1.0)


def walsh_marginal_check(rays: np.ndarray, radii: np.ndarray, n: int,
                         params: RayParams, level: float = 0.01) -> dict:
    """Marginal checks of a rescaled chain at t = 1.

    rays/radii: final states of the replicas after n steps (lattice units).
    The KS test reads the target one lattice unit above each radius (see the
    module docstring), which is ``ks_statistic_lattice`` with spacing
    2/sqrt(n).  Returns a report dict with both tests, Bonferroni-adjusted.
    """
    m = len(radii)
    scaled = radii / math.sqrt(n)
    ks = ks_statistic_lattice(scaled, half_normal_cdf, 2.0 / math.sqrt(n))
    adj = level / 2  # two tests in the family
    ks_crit = ks_critical(m, adj)
    positive = radii > 0
    counts = np.bincount(rays[positive], minlength=params.N + 1)[1:]
    stat, dof = chi_square(counts, params.alpha)
    p_chi = chi_square_pvalue(stat, dof)
    report = {
        "replicas": m,
        "ks_statistic": ks,
        "ks_critical": ks_crit,
        "ks_pass": ks < ks_crit,
        "chi2_statistic": stat,
        "chi2_dof": dof,
        "chi2_pvalue": p_chi,
        "chi2_pass": p_chi > adj,
        "level": level,
    }
    report["pass"] = bool(report["ks_pass"] and report["chi2_pass"])
    return report

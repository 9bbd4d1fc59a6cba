"""Statistical checks: empirical CDF distances, Pearson counts tests, and
the fixed-time marginal checks for the rescaled chains.

The two distribution functions the checks need are closed forms over the
standard library's ``math``:

- The half-normal CDF is 2*Phi(r) - 1 = erf(r/sqrt(2)).  The erf form has no
  cancellation near r = 0.
- The chi-square upper tail with integer k >= 1 degrees of freedom is the
  regularized Q(k/2, h) at h = stat/2.  With m = k // 2 and a = 0 (k even)
  or 1/2 (k odd), Q = Q(a, h) + sum_{j<m} h^(a+j) e^-h / Gamma(a+j+1), where
  Q(0, h) = 0 and Q(1/2, h) = erfc(sqrt(h)).  Each term is taken in logs
  with ``math.lgamma`` and the sum is scaled by its largest term, so it does
  not underflow to 0 where e^-h alone would (h > 745, reached by the
  up/down row's many degrees of freedom).

The radial marginal target at t = 1 is the half-normal CDF.  Chain radii
live on the lattice of spacing 1/sqrt(n), so the raw empirical CDF carries a
deterministic lattice bias of order the spacing.  For both chains
P(radius <= k) is close to 2*Phi((k + 1)/sqrt(n)) - 1: the
immediate-exit radius is |S_n|, whose values have the parity of n, and the
lazy radius M_n - S_n has the law of the running maximum M_n, with
P(M_n <= k) = P(-k - 1 <= S_n <= k).  Comparing the empirical CDF at each
radius k with the target one lattice unit higher, at (k + 1)/sqrt(n),
removes the bias without touching the noise.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import SparseCellsError, TooFewSamplesError
from .graph import RayParams

# radii with fewer interior visits are left out of updown_chi_square
_MIN_VISITS = 20
# family level of the two tests of walsh_marginal_check
_MARGINAL_LEVEL = 0.01


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


def ray_chi_square(counts: np.ndarray, alpha) -> tuple[float, int, float]:
    """(statistic, dof, p-value) of ray counts against the ray law alpha.

    With one ray every count falls in one category, so there is nothing to
    test: it passes with statistic 0, dof 0 and p = 1.
    """
    if len(alpha) == 1:
        return 0.0, 0, 1.0
    stat, dof = chi_square(counts, alpha)
    return stat, dof, chi_square_pvalue(stat, dof)


def chi_square_pvalue(stat: float, dof: int) -> float:
    """P(chi-square with dof degrees of freedom > stat), for integer dof >= 1.

    The tail sum of the module docstring, scaled by its largest term j0 and
    summed down and up from it until the terms fall below rounding.
    """
    dof = operator.index(dof)
    if dof < 1:
        raise ValueError(f"dof: need an integer >= 1, got {dof}")
    if stat <= 0:
        return 1.0
    h = stat / 2.0
    a, m = (dof % 2) / 2.0, dof // 2
    base = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    if m == 0:
        return base
    # the term ratio t_{j+1}/t_j = h/(a+j+1) passes 1 at j = h - a
    j0 = min(max(math.floor(h - a), 0), m - 1)
    total = 1.0
    # down: t_{j-1} = t_j (a + j)/h; up: t_j = t_{j-1} h/(a + j)
    for ratios in (((a + j) / h for j in range(j0, 0, -1)),
                   (h / (a + j) for j in range(j0 + 1, m))):
        term = 1.0
        for ratio in ratios:
            term *= ratio
            total += term
            if term < 1e-17 * total:
                break
    log_t0 = (a + j0) * math.log(h) - h - math.lgamma(a + j0 + 1)
    return min(base + math.exp(log_t0) * total, 1.0)


def updown_chi_square(up_by_r: np.ndarray, down_by_r: np.ndarray) -> tuple[float, int]:
    """Per-radius fair-coin test of interior transitions, Pearson-summed.

    Aggregating all interior states against 50/50 is wrong for a chain path
    stopped at a junction visit: total downs exceed total ups by exactly the
    number of junction exits.  Per from-state the up/down choice is a fair
    coin, so sum (up_r - down_r)^2 / (up_r + down_r) over states with at
    least 20 visits, asymptotically chi-square with one dof per state.
    """
    up = np.asarray(up_by_r, dtype=float)
    down = np.asarray(down_by_r, dtype=float)
    visits = up + down
    keep = visits >= _MIN_VISITS
    keep[0] = False  # radius 0 handled by the exit test
    if not np.any(keep):
        raise SparseCellsError("no interior radius has enough visits")
    stat = float(np.sum((up[keep] - down[keep]) ** 2 / visits[keep]))
    return stat, int(np.sum(keep))


def half_normal_cdf(r):
    """CDF of |B_1|: erf(r/sqrt(2)) for r >= 0 and 0 below, elementwise."""
    r = np.asarray(r, dtype=float)
    cdf = np.array([math.erf(v) for v in (r / math.sqrt(2.0)).ravel().tolist()])
    return np.clip(cdf.reshape(r.shape), 0.0, 1.0)


def walsh_marginal_check(rays: np.ndarray, radii: np.ndarray, n: int,
                         params: RayParams) -> dict:
    """Marginal checks of a rescaled chain at t = 1.

    rays/radii: final states of the replicas after n steps (lattice units).
    The KS test reads the target one lattice unit above each radius (see the
    module docstring), which is ``ks_statistic_lattice`` with spacing
    2/sqrt(n).  Returns a report dict with both tests, Bonferroni-adjusted.
    """
    m = len(radii)
    scaled = radii / math.sqrt(n)
    ks = ks_statistic_lattice(scaled, half_normal_cdf, 2.0 / math.sqrt(n))
    adj = _MARGINAL_LEVEL / 2  # two tests in the family
    ks_crit = ks_critical(m, adj)
    positive = radii > 0
    counts = np.bincount(rays[positive], minlength=params.N + 1)[1:]
    stat, dof, p_chi = ray_chi_square(counts, params.alpha)
    report = {
        "replicas": m,
        "ks_statistic": ks,
        "ks_critical": ks_crit,
        "ks_pass": ks < ks_crit,
        "chi2_statistic": stat,
        "chi2_dof": dof,
        "chi2_pvalue": p_chi,
        "chi2_pass": p_chi > adj,
        "level": _MARGINAL_LEVEL,
        "adjusted_level": adj,
    }
    report["pass"] = bool(report["ks_pass"] and report["chi2_pass"])
    return report

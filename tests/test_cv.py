"""Csaki-Vincze transform: worked example, exact invariants, distribution checks."""

import itertools

import numpy as np
import pytest

from starflow.cv import cv_check_blocks, cv_inverse_increments, transform
from starflow.errors import TooShortError
from starflow.oracles import reflected_path, tau_sequence, taus_from_first_hits
from starflow.rng import make_rng
from starflow.stats import chi_square, chi_square_pvalue
from starflow.walk import ROW_BLOCK_STEPS, generate_walk, random_increments, row_blocks


def _walks(length, seed, streams):
    """(len(streams), length) steps, row k the walk of stream streams[k]."""
    return np.stack([generate_walk(0, length, seed, k).increments for k in streams])


def _path(steps):
    """Values 0, S_1, ..., S_n of a walk's steps."""
    return np.concatenate([[0], np.cumsum(steps)])


def test_forward_worked_example():
    x = np.array([1, 1, -1, -1, -1])
    s = _path(x)
    assert tau_sequence(s).tolist() == [4]
    t = transform(x[None])
    assert t.xbar[0].tolist() == [-1, 1, 1, 1]
    assert t.is_tau[0].tolist() == [True, False, False, False, True]
    assert t.sbar[0].tolist() == [0, -1, 0, 1, 2]
    y_bar = reflected_path(t.sbar[0])
    assert np.array_equal(y_bar, t.runmax[0] - t.sbar[0])
    deviation = np.abs(y_bar - np.abs(s[: len(y_bar)]))
    assert deviation.tolist() == [0, 0, 2, 1, 0]
    assert cv_check_blocks([x[None]]).deviation.tolist() == [2]


def test_transform_too_short():
    with pytest.raises(TooShortError):
        transform(np.array([[1]]))
    with pytest.raises(TooShortError):
        cv_check_blocks([np.array([[1]])])


def test_forward_even_function():
    incs = _walks(50, 21, range(1_000))
    assert np.array_equal(transform(incs).xbar, transform(-incs).xbar)


def test_tau_first_hit_consistency():
    incs = _walks(200, 22, range(1_000))
    sbar = transform(incs).sbar
    for x, bar_vals in zip(incs, sbar):
        taus = tau_sequence(_path(x))
        hits = taus_from_first_hits(bar_vals)
        realized = taus[taus <= len(bar_vals) - 1]
        assert np.array_equal(realized, hits[: len(realized)])


def test_roundtrip():
    incs = _walks(100, 23, range(1_000))
    back = cv_inverse_increments(transform(incs).xbar, incs[:, 0])
    assert np.array_equal(back, incs)


def test_preimage_pair():
    bars = _walks(60, 24, range(200))
    plus = cv_inverse_increments(bars, 1)
    minus = cv_inverse_increments(bars, -1)
    assert np.array_equal(plus, -minus)
    assert np.array_equal(transform(plus).xbar, bars)
    assert np.array_equal(transform(minus).xbar, bars)


def test_invariant_monotone_walk():
    assert cv_check_blocks([np.ones((1, 20), dtype=np.int8)]).deviation[0] <= 2


def test_invariant_random_walks():
    incs = (make_rng(25, 0).integers(0, 2, size=(2_000, 200)) * 2 - 1).astype(np.int64)
    bars = transform(incs).xbar
    s = np.cumsum(incs, axis=1)
    s_bar = np.cumsum(bars, axis=1)
    y_bar = np.maximum.accumulate(np.hstack([np.zeros((2_000, 1), dtype=np.int64),
                                             s_bar]), axis=1) - \
        np.hstack([np.zeros((2_000, 1), dtype=np.int64), s_bar])
    dev = np.abs(y_bar - np.abs(np.hstack([np.zeros((2_000, 1), dtype=np.int64),
                                           s]))[:, : y_bar.shape[1]])
    assert dev.max() <= 2


def test_deviation_batch_matches_per_walk_formula():
    # reference: the per-walk formula | Y-bar - |S| | over the range of S-bar
    for k in range(200):
        x = generate_walk(0, 2 + 3 * k, 27, k).increments
        y_bar = reflected_path(_path(transform(x[None]).xbar[0]))
        expected = int(np.abs(y_bar - np.abs(_path(x)[: len(y_bar)])).max())
        assert cv_check_blocks([x[None]]).deviation[0] == expected


def test_transformed_walk_is_srw():
    # increment frequencies and lag-1 pair frequencies of S-bar
    incs = (make_rng(26, 0).integers(0, 2, size=(10_000, 40)) * 2 - 1).astype(np.int64)
    bars = transform(incs).xbar
    ups = int((bars == 1).sum())
    stat, dof = chi_square(np.array([ups, bars.size - ups]), np.array([0.5, 0.5]))
    assert chi_square_pvalue(stat, dof) > 0.01
    pairs = (bars[:, :-1] == 1) * 2 + (bars[:, 1:] == 1)
    counts = np.bincount(pairs.ravel(), minlength=4)
    stat, dof = chi_square(counts, np.full(4, 0.25))
    assert chi_square_pvalue(stat, dof) > 0.01


def test_first_step_independent_of_transform():
    # chi-square independence between S_1 and the sign pattern of (Sbar_1, Sbar_2)
    incs = (make_rng(27, 0).integers(0, 2, size=(10_000, 30)) * 2 - 1).astype(np.int64)
    bars = transform(incs).xbar
    s1 = incs[:, 0]
    pattern = (bars[:, 0] == 1) * 2 + (bars[:, 1] == 1)
    table = np.zeros((2, 4))
    for i, sign in enumerate((-1, 1)):
        table[i] = np.bincount(pattern[s1 == sign], minlength=4)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    dof = (2 - 1) * (4 - 1)
    assert chi_square_pvalue(stat, dof) > 0.01


def test_cv_inverse_minimal_window():
    # m = 1 is the smallest legal input; the result has two increments
    x = cv_inverse_increments(np.array([1]), 1)
    assert len(x) == 2
    assert transform(x[None]).xbar[0].tolist() == [1]


def test_cv_inverse_names_a_wrong_number_of_signs():
    bars = np.ones((3, 4), dtype=np.int8)
    with pytest.raises(ValueError, match=r"epsilon: need one sign or one per row, "
                                         r"got 2 signs for 3 rows"):
        cv_inverse_increments(bars, [1, -1])
    with pytest.raises(ValueError, match="got 0 signs for 3 rows"):
        cv_inverse_increments(bars, [])
    with pytest.raises(ValueError, match="got 2 signs for 1 rows"):
        cv_inverse_increments(bars[0], [1, 1])
    # one sign for all rows, or one per row
    assert np.array_equal(cv_inverse_increments(bars, [-1]), cv_inverse_increments(bars, -1))
    assert cv_inverse_increments(bars, [1, -1, 1]).shape == (3, 5)


def _every_walk(length: int) -> np.ndarray:
    """Every +-1 walk of the given length, one per row."""
    return np.array(list(itertools.product((-1, 1), repeat=length)), dtype=np.int8)


@pytest.mark.parametrize("length", range(2, 15))
def test_transform_and_inverse_on_every_short_walk(length):
    # the forward signs read off the side of S, the inverse signs off
    # floor(runmax / 2) and the XOR flips, on every path: each walk with
    # either first step, and every S-bar path with either epsilon
    X = _every_walk(length)
    t = transform(X)
    bars, _, _, is_tau = _cv_reference(X, X[:, 0])
    assert np.array_equal(t.xbar, bars) and np.array_equal(t.is_tau, is_tau)
    assert np.array_equal(cv_inverse_increments(t.xbar, X[:, 0]), X)
    sbar_steps = _every_walk(length - 1)
    for eps in (-1, 1):
        x = cv_inverse_increments(sbar_steps, eps)
        assert np.array_equal(x[:, 0], np.full(len(x), eps))
        assert np.array_equal(transform(x).xbar, sbar_steps)
        assert np.array_equal(_cv_reference(x, x[:, 0])[0], sbar_steps)


def _cv_reference(X: np.ndarray, eps: np.ndarray):
    """(T increments, deviation per row, T^{-1}(T(X), eps), block boundaries
    tau_0 = 0 and S_{i-1} S_{i+1} < 0) of a (R, n) batch by the whole-array
    int64 code the row-block pass replaced."""
    X = np.asarray(X, dtype=np.int64)
    R, n = X.shape
    zero = np.zeros((R, 1), dtype=np.int64)
    S = np.concatenate([zero, np.cumsum(X, axis=1)], axis=1)
    ind = S[:, :-2] * S[:, 2:] < 0
    l = np.zeros((R, n - 1), dtype=np.int64)
    if n > 2:
        l[:, 1:] = np.cumsum(ind[:, : n - 2], axis=1)
    Xbar = np.where(l % 2 == 0, -1, 1) * X[:, :1] * X[:, 1:]
    Sbar = np.concatenate([zero, np.cumsum(Xbar, axis=1)], axis=1)
    runmax = np.maximum.accumulate(Sbar, axis=1)
    dev = np.abs(runmax - Sbar - np.abs(S[:, : Sbar.shape[1]])).max(axis=1)
    new_max = np.zeros_like(Sbar, dtype=bool)
    new_max[:, 1:] = runmax[:, 1:] > runmax[:, :-1]
    is_tau = new_max & (Sbar >= 2) & (Sbar % 2 == 0)
    sign = np.where(np.cumsum(is_tau[:, :-1], axis=1) % 2 == 0, -1, 1)
    eps = np.asarray(eps, dtype=np.int64).reshape(-1, 1)
    back = np.concatenate([eps, sign * eps * Xbar], axis=1)
    return Xbar, dev, back, np.concatenate([np.ones((R, 1), dtype=bool), ind], axis=1)


@pytest.mark.parametrize("length", [2, 3, 4, 999, 1_000])
def test_block_transforms_match_reference(length):
    # enough rows to cross at least one row-block boundary
    rows = 2 * (ROW_BLOCK_STEPS // length) + 7
    X = random_increments((rows, length), 31, length)
    eps = make_rng(32, length).integers(0, 2, size=rows) * 2 - 1
    bars, dev, back, is_tau = _cv_reference(X, eps)
    for block in row_blocks(rows, length):
        t = transform(X[block])
        assert np.array_equal(t.is_tau, is_tau[block])
        assert np.array_equal(t.xbar, bars[block])
    assert np.array_equal(cv_inverse_increments(bars, eps), back)
    assert np.array_equal(cv_inverse_increments(bars, X[:, 0]), X)
    blocks = [X[i : i + 100] for i in range(0, rows, 100)]
    report = cv_check_blocks(blocks)
    assert np.array_equal(report.deviation, dev)
    assert report.even_gap == 0 and report.roundtrip_gap == 0


@pytest.mark.parametrize("step", [1, -1])
def test_monotone_walk_beyond_int32_product(step):
    # |S| passes 46341, where S_{i-1} S_{i+1} leaves int32; there is no boundary
    X = np.full((1, 100_000), step, dtype=np.int8)
    assert tau_sequence(np.concatenate([[0], np.cumsum(X[0])])).size == 0
    bars, dev, back, is_tau = _cv_reference(X, X[:, 0])
    t = transform(X)
    assert np.array_equal(t.is_tau, is_tau)
    assert np.array_equal(t.xbar, bars)
    assert np.array_equal(cv_inverse_increments(bars, X[:, 0]), back)
    report = cv_check_blocks([X])
    assert np.array_equal(report.deviation, dev)
    assert report.even_gap == 0 and report.roundtrip_gap == 0

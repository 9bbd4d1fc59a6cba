"""The Csaki-Vincze walk transform, its inverse pair, and its invariants.

The transform maps a simple random walk S on [0, n] to another simple walk
S-bar on [0, n-1] whose running-max reflection stays within distance 2 of
|S|.  Block boundaries are the times tau_l where S_{i-1} S_{i+1} < 0 (with
tau_0 = 0); the sign of the transformed increment alternates between blocks.
The transform is even (T(S) = T(-S)) and invertible up to global sign given
the single extra bit S_1.

The batched transforms and checks run over row blocks of at most
``walk.ROW_BLOCK_STEPS`` steps, on int8 steps and int32 values.
``tau_sequence`` keeps the literal int64 product and is their reference.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import TooShortError
from .walk import WalkWindow, row_blocks


def tau_sequence(values: np.ndarray) -> np.ndarray:
    """Block boundaries of the transform: all i >= 1 with S_{i-1} S_{i+1} < 0.

    ``values`` is S_0..S_n; the result lists the tau_l for l >= 1 in order
    (tau_0 = 0 is implicit).
    """
    s = np.asarray(values, dtype=np.int64)
    if len(s) < 3:
        return np.array([], dtype=np.int64)
    prod = s[:-2] * s[2:]  # index i-1 holds S_{i-1} S_{i+1}
    return np.nonzero(prod < 0)[0] + 1


def taus_from_first_hits(bar_values: np.ndarray) -> np.ndarray:
    """tau_l recovered from the transformed walk: first hit of 2l by S-bar."""
    s = np.asarray(bar_values, dtype=np.int64)
    runmax = np.maximum.accumulate(s)
    new_max = np.empty(len(s), dtype=bool)
    new_max[0] = False
    new_max[1:] = runmax[1:] > runmax[:-1]
    is_tau = new_max & (s >= 2) & (s % 2 == 0)
    return np.nonzero(is_tau)[0]


def _values(x: np.ndarray) -> np.ndarray:
    """Values 0, S_1, ..., S_n of each row of a (R, n) step block, in int32
    (int64 for rows too long for int32)."""
    dtype = np.int32 if x.shape[1] < 2**31 else np.int64
    s = np.zeros((x.shape[0], x.shape[1] + 1), dtype=dtype)
    np.cumsum(x, axis=1, dtype=dtype, out=s[:, 1:])
    return s


def _odd_prefix(marks: np.ndarray) -> np.ndarray:
    """(R, k + 1) parity of the number of marks among the first j columns of
    a (R, k) bool block, for j = 0..k."""
    odd = np.zeros((marks.shape[0], marks.shape[1] + 1), dtype=bool)
    np.logical_xor.accumulate(marks, axis=1, out=odd[:, 1:])
    return odd


def _forward(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """T's int8 increments for a (R, n) int8 step block x with values s."""
    n = x.shape[1]
    # A boundary at i has S_{i-1}, S_{i+1} of opposite signs.  With +-1 steps
    # that means S_i = 0 and X_i = X_{i+1}, a test no length can overflow.
    # Column i-1 holds i = 1..n-2; a boundary at n-1 moves no increment.
    bound = (s[:, 1 : n - 1] == 0) & (x[:, : n - 2] == x[:, 1 : n - 1])
    xbar = x[:, 1:] * x[:, :1]
    # sign (-1)^(l+1), l(j) = number of boundaries <= j - 1, for j = 1..n-1
    return np.negative(xbar, out=xbar, where=~_odd_prefix(bound))


def _inverse(xbar: np.ndarray, sbar: np.ndarray, runmax: np.ndarray,
             eps: np.ndarray) -> np.ndarray:
    """T^{-1}'s int8 increments with first steps eps (R, 1) for a (R, m)
    int8 block xbar, given its values sbar and their running maximum."""
    m = xbar.shape[1]
    # tau_l is the first hit of 2l: a new running maximum at an even level
    # (a new maximum is >= 1, so even means >= 2); column k-1 holds k = 1..m-1
    is_tau = (runmax[:, 1:m] > runmax[:, : m - 1]) & ((sbar[:, 1:m] & 1) == 0)
    x = np.empty((xbar.shape[0], m + 1), dtype=np.int8)
    x[:, :1] = eps
    np.multiply(xbar, eps, out=x[:, 1:])
    np.negative(x[:, 1:], out=x[:, 1:], where=~_odd_prefix(is_tau))
    return x


def _forward_pass(x: np.ndarray):
    """(S, T's increments, S-bar, running max of S-bar) of one step block."""
    s = _values(x)
    xbar = _forward(x, s)
    sbar = _values(xbar)
    return s, xbar, sbar, np.maximum.accumulate(sbar, axis=1)


def _deviation(s: np.ndarray, sbar: np.ndarray, runmax: np.ndarray) -> np.ndarray:
    """Per row, max | Y-bar - |S| | over the range of S-bar."""
    return np.abs((runmax - sbar) - np.abs(s[:, : sbar.shape[1]])).max(axis=1)


def _batch(X: np.ndarray, min_length: int, what: str) -> tuple[np.ndarray, bool]:
    """(X as a (R, n) batch, whether it was one (n,) walk); n >= min_length."""
    X = np.asarray(X)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] < min_length:
        raise TooShortError(f"{what} needs walk length >= {min_length}")
    return X, single


def cv_forward_increments(X: np.ndarray) -> np.ndarray:
    """Transform increments (int8); works on a (R, n) batch or a single (n,)
    walk, one row block at a time."""
    X, single = _batch(X, 2, "transform")
    R, n = X.shape
    out = np.empty((R, n - 1), dtype=np.int8)
    for rows in row_blocks(R, n):
        x = X[rows].astype(np.int8, copy=False)
        out[rows] = _forward(x, _values(x))
    return out[0] if single else out


def cv_inverse_increments(Xbar: np.ndarray, epsilon) -> np.ndarray:
    """Inverse transform (int8); epsilon in {-1, +1} is the recovered first
    step, one per row."""
    Xbar, single = _batch(Xbar, 1, "inverse transform")
    eps = np.asarray(epsilon).reshape(-1, 1)
    if not np.all(np.abs(eps) == 1):
        raise ValueError("epsilon must be +-1")
    R, m = Xbar.shape
    eps = np.broadcast_to(eps.astype(np.int8), (R, 1))
    out = np.empty((R, m + 1), dtype=np.int8)
    for rows in row_blocks(R, m):
        xbar = Xbar[rows].astype(np.int8, copy=False)
        sbar = _values(xbar)
        out[rows] = _inverse(xbar, sbar, np.maximum.accumulate(sbar, axis=1), eps[rows])
    return out[0] if single else out


def cv_forward(w: WalkWindow) -> WalkWindow:
    """T(S): transform a walk window on [p, p+n] into one on [0, n-1]."""
    return WalkWindow(0, cv_forward_increments(w.increments))


def cv_inverse(w_bar: WalkWindow, epsilon: int) -> WalkWindow:
    """A member of T^{-1}{S-bar} with first step epsilon, on [0, m+1]."""
    return WalkWindow(0, cv_inverse_increments(w_bar.increments, epsilon))


def reflected_path(bar_values: np.ndarray) -> np.ndarray:
    """Y-bar_n = max_{k<=n} S-bar_k - S-bar_n."""
    s = np.asarray(bar_values)
    return np.maximum.accumulate(s, axis=-1) - s


def cv_deviation_batch(X: np.ndarray) -> np.ndarray:
    """Per-walk max deviation | Y-bar - |S| | for a (R, n) increment batch."""
    X, _ = _batch(X, 2, "transform")
    R, n = X.shape
    out = np.empty(R, dtype=np.int32)
    for rows in row_blocks(R, n):
        s, _, sbar, runmax = _forward_pass(X[rows].astype(np.int8, copy=False))
        out[rows] = _deviation(s, sbar, runmax)
    return out


def cv_invariant_check(w: WalkWindow) -> int:
    """max_n | Y-bar_n - |S_n| | over the common range; the contract is <= 2.
    The one-row case of ``cv_deviation_batch`` (TooShortError below length 2)."""
    return int(cv_deviation_batch(w.increments[None])[0])


class CvCheck(NamedTuple):
    """The transform's checks over a batch of walks."""

    deviation: np.ndarray  # per walk, max | Y-bar - |S| | (the bound is 2)
    even_gap: int          # max | T(S) - T(-S) | over all increments
    roundtrip_gap: int     # max | T^{-1}(T(S), S_1) - S | over all increments


def cv_check_blocks(blocks: Iterable[np.ndarray]) -> CvCheck:
    """Bound, evenness and round trip of T on int8 step blocks (R, n), one
    pass per block: S, S-bar and its running maximum are built once and
    shared by the three checks; the evenness check transforms -S itself."""
    devs, even_gap, roundtrip_gap = [], 0, 0
    for x in blocks:
        s, xbar, sbar, runmax = _forward_pass(x)
        devs.append(_deviation(s, sbar, runmax))
        even_gap = max(even_gap, int(np.abs(xbar - _forward(-x, -s)).max()))
        back = _inverse(xbar, sbar, runmax, x[:, :1])
        roundtrip_gap = max(roundtrip_gap, int(np.abs(back - x).max()))
    return CvCheck(np.concatenate(devs), even_gap, roundtrip_gap)

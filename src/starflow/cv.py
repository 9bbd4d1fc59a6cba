"""The Csaki-Vincze walk transform, its inverse pair, and its invariants.

The transform maps a simple random walk S on [0, n] to another simple walk
S-bar on [0, n-1] whose running-max reflection stays within distance 2 of
|S|.  Block boundaries are the times tau_l where S_{i-1} S_{i+1} < 0 (with
tau_0 = 0); the sign of the transformed increment alternates between blocks.
The transform is even (T(S) = T(-S)) and invertible up to global sign given
the single extra bit S_1.

``transform`` is the one forward pass: it builds S, the boundaries, T's
increments, S-bar and its running maximum of a step block, and
``cv_check_blocks`` and the excursion flip in ``chain`` both read it.  They
take row blocks of at most ``walk.ROW_BLOCK_STEPS`` steps, on int8 steps and
int16 values (int32 from 2**14 steps on), and ``cv_inverse_increments`` runs
over the same row blocks.  ``stops`` gives each row's last block boundary
from the S and boundary pass alone; the flip sorts its rows by it and
transforms each batch only up to its largest stop + 2.  Their references,
the literal int64 product S_{i-1} S_{i+1} and the first hits of S-bar, are
in ``oracles``.

Neither direction scans for the block parity: the forward sign is read off
the side of S, the inverse sign off floor(running max of S-bar / 2).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import TooShortError
from .walk import row_blocks


def _values(x: np.ndarray) -> np.ndarray:
    """Values 0, S_1, ..., S_n of each row of a (R, n) step block: int16 for
    n < 2**14, int32 for n < 2**30, else int64, so that the sums of two
    values the flip forms, up to 2n + 1, fit too."""
    n = x.shape[1]
    dtype = np.int16 if n < 2**14 else np.int32 if n < 2**30 else np.int64
    s = np.zeros((x.shape[0], x.shape[1] + 1), dtype=dtype)
    np.cumsum(x, axis=1, dtype=dtype, out=s[:, 1:])
    return s


def _boundaries(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(R, n) block boundaries of a (R, n) step block x with values s:
    tau_0 = 0 and every i in [1, n - 1] with S_{i-1} S_{i+1} < 0.  With +-1
    steps that means S_i = 0 and X_i = X_{i+1}, a test no length can
    overflow; column i holds i."""
    n = x.shape[1]
    is_tau = np.empty(x.shape, dtype=bool)
    is_tau[:, 0] = True
    np.equal(s[:, 1:n], 0, out=is_tau[:, 1:])
    is_tau[:, 1:] &= x[:, : n - 1] == x[:, 1:]
    return is_tau


def _forward(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """T's int8 increments for a (R, n) int8 step block x with values s.

    Increment j = 1..n-1 is (-1)^(l+1) X_1 X_{j+1}, l + 1 the number of taus
    <= j - 1 (tau_0 too).  Each tau_l, l >= 1, is a crossing of 0 by S, so
    the sign is -1 exactly when S is still on the side of X_1 at time j, the
    side of the odd sum S_{j-1} + S_j.  So no scan is needed: the increment
    is -X_{j+1} on the positive side and X_{j+1} on the negative one, and XOR
    with -2 negates a +-1 step.
    """
    n = x.shape[1]
    flip = np.greater(s[:, : n - 1] + s[:, 1:n], 0).view(np.int8)
    flip *= -2
    flip ^= x[:, 1:]
    return flip


def _inverse(xbar: np.ndarray, runmax: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """T^{-1}'s int8 increments with first steps eps (R, 1) for a (R, m)
    int8 block xbar, given the running maximum of its values.

    Increment k = 1..m has sign (-1)^(l+1), l the number of taus in
    [1, k - 1].  tau_l is the first hit of 2l by S-bar, so l is
    floor(runmax_{k-1} / 2), and no scan is needed: XOR with -2 negates a +-1
    step where l is even.
    """
    m = xbar.shape[1]
    flip = runmax[:, :m] & 2
    flip -= 2
    x = np.empty((xbar.shape[0], m + 1), dtype=np.int8)
    x[:, :1] = eps
    np.multiply(xbar, eps, out=x[:, 1:])
    np.bitwise_xor(x[:, 1:], flip, out=x[:, 1:])
    return x


class Transform(NamedTuple):
    """One forward pass of T over a (R, n) step block, n >= 2."""

    s: np.ndarray       # (R, n + 1) values S_0..S_n
    xbar: np.ndarray    # (R, n - 1) int8 increments of S-bar = T(S)
    sbar: np.ndarray    # (R, n) values S-bar_0..S-bar_{n-1}
    runmax: np.ndarray  # (R, n) running maximum of S-bar; Y-bar = runmax - sbar
    is_tau: np.ndarray  # (R, n) block boundaries: tau_0 = 0 and S_i = 0, X_i = X_{i+1}


def last_boundaries(is_tau: np.ndarray) -> np.ndarray:
    """Per row of a (R, n) boundary mask, its last block boundary."""
    return is_tau.shape[1] - 1 - np.argmax(is_tau[:, ::-1], axis=1)


def stops(x: np.ndarray) -> np.ndarray:
    """Per row of a (R, n) int8 block of +-1 steps, its last block boundary,
    where a flipped chain stops; from the S and boundary pass of
    ``transform``."""
    return last_boundaries(_boundaries(x, _values(x)))


def transform(x: np.ndarray) -> Transform:
    """S, its boundaries, T's increments, S-bar and its running maximum for a
    (R, n) block of +-1 steps, in one pass; TooShortError below n = 2.

    T is causal: each array of the pass of the first m columns of x is the
    leading columns of the same array of the pass of x.
    """
    x = np.asarray(x).astype(np.int8, copy=False)
    if x.shape[1] < 2:
        raise TooShortError("transform needs walk length >= 2")
    s = _values(x)
    is_tau = _boundaries(x, s)
    xbar = _forward(x, s)
    sbar = _values(xbar)
    return Transform(s, xbar, sbar, np.maximum.accumulate(sbar, axis=1), is_tau)


def _deviation(t: Transform) -> np.ndarray:
    """Per row, max | Y-bar - |S| | over the range of S-bar."""
    return np.abs((t.runmax - t.sbar) - np.abs(t.s[:, : t.sbar.shape[1]])).max(axis=1)


def cv_inverse_increments(Xbar: np.ndarray, epsilon) -> np.ndarray:
    """Inverse transform (int8); epsilon in {-1, +1} is the recovered first
    step, one for every row or one per row (ValueError otherwise)."""
    Xbar = np.asarray(Xbar)
    single = Xbar.ndim == 1
    if single:
        Xbar = Xbar[None, :]
    if Xbar.shape[1] < 1:
        raise TooShortError("inverse transform needs walk length >= 1")
    eps = np.asarray(epsilon).reshape(-1, 1)
    if not np.all(np.abs(eps) == 1):
        raise ValueError("epsilon must be +-1")
    R, m = Xbar.shape
    if len(eps) not in (1, R):
        raise ValueError(f"epsilon: need one sign or one per row, got {len(eps)} signs "
                         f"for {R} rows")
    eps = np.broadcast_to(eps.astype(np.int8), (R, 1))
    out = np.empty((R, m + 1), dtype=np.int8)
    for rows in row_blocks(R, m):
        xbar = Xbar[rows].astype(np.int8, copy=False)
        out[rows] = _inverse(xbar, np.maximum.accumulate(_values(xbar), axis=1), eps[rows])
    return out[0] if single else out


class CvCheck(NamedTuple):
    """The transform's checks over a batch of walks."""

    deviation: np.ndarray  # per walk, max | Y-bar - |S| | (the bound is 2)
    even_gap: int          # max | T(S) - T(-S) | over all increments
    roundtrip_gap: int     # max | T^{-1}(T(S), S_1) - S | over all increments


def cv_check_blocks(blocks: Iterable[np.ndarray]) -> CvCheck:
    """Bound, evenness and round trip of T on int8 step blocks (R, n), one
    ``transform`` per block shared by the three checks; the evenness check
    transforms -S itself, from -x and -s."""
    devs, even_gap, roundtrip_gap = [], 0, 0
    for x in blocks:
        t = transform(x)
        devs.append(_deviation(t))
        neg = _forward(-x, -t.s)
        even_gap = max(even_gap, int(np.abs(t.xbar - neg).max()))
        back = _inverse(t.xbar, t.runmax, x[:, :1])
        roundtrip_gap = max(roundtrip_gap, int(np.abs(back - x).max()))
    return CvCheck(np.concatenate(devs), even_gap, roundtrip_gap)

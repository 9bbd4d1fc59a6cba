"""Simple random walks on two-sided integer index windows.

All quantities are anchor-free: only differences S_n - S_p are ever used, so
a window stores values relative to its own origin and supports negative
indices transparently.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .errors import EmptyWindowError, NegativeValueError, OutOfWindowError
from .rng import make_rng, stream_rows


# the hitting time of a level that is never reached: above every time
NOT_HIT = math.inf

# steps per row block of the batched draws, transforms and flip batches; it
# keeps each temporary near 1 MiB instead of one full-size array each
ROW_BLOCK_STEPS = 2 ** 17


class WalkWindow:
    """A +-1 increment path on [p_min, p_max], values anchored to S_{p_min} = 0.

    ``values[..., i] = S_{p_min + i} - S_{p_min}``: increments with leading
    axes hold one walk per row on the one window, for the array readers.
    The per-query methods read a one-row window; callers scan it as the
    Python list slices of ``path`` and ``steps``.
    """

    __slots__ = ("p_min", "p_max", "increments", "values", "_value_list", "_step_list")

    def __init__(self, p_min: int, increments: np.ndarray):
        increments = np.asarray(increments, dtype=np.int64)
        if increments.size == 0:
            raise EmptyWindowError("window has no steps")
        if not np.all(np.abs(increments) == 1):
            raise ValueError("increments must be +-1")
        self.p_min = int(p_min)
        self.p_max = int(p_min) + increments.shape[-1]
        self.increments = increments
        self.values = np.concatenate([np.zeros((*increments.shape[:-1], 1), dtype=np.int64),
                                      np.cumsum(increments, axis=-1)], axis=-1)
        self._value_list = None
        self._step_list = None

    def __len__(self):
        return self.p_max - self.p_min

    def _idx(self, p: int) -> int:
        if not self.p_min <= p <= self.p_max:
            raise OutOfWindowError(f"index {p} outside [{self.p_min}, {self.p_max}]")
        return p - self.p_min

    def value(self, p: int) -> int:
        """S_p - S_{p_min}."""
        return int(self.values[self._idx(p)])

    def diff(self, p: int, n: int) -> int:
        """S_{p,n} = S_n - S_p."""
        v = self._lists()[0]
        return v[self._idx(n)] - v[self._idx(p)]

    def _lists(self) -> tuple[list[int], list[int]]:
        """values and increments as Python lists, built on first use: the
        per-query methods read list entries, not numpy scalars."""
        if self._value_list is None:
            if self.values.ndim != 1:
                raise ValueError("per-query reads need a one-row window")
            self._value_list = self.values.tolist()
            self._step_list = self.increments.tolist()
        return self._value_list, self._step_list

    def path(self, p: int, n: int) -> list[int]:
        """S_p, ..., S_n (anchored at S_{p_min} = 0) as Python ints."""
        lo, hi = self.p_min, self.p_max
        if not (lo <= p <= hi and lo <= n <= hi):
            self._idx(p), self._idx(n)  # raises for the index outside
        return self._lists()[0][p - lo : n - lo + 1]

    def steps(self, p: int, n: int) -> list[int]:
        """Increments S_{k+1} - S_k for k in [p, n), as Python ints."""
        lo, hi = self.p_min, self.p_max
        if not (lo <= p <= hi and lo <= n <= hi):
            self._idx(p), self._idx(n)  # raises for the index outside
        return self._lists()[1][p - lo : n - lo]


def row_blocks(n_rows: int, length: int) -> Iterator[slice]:
    """Slices of consecutive rows of a (n_rows, length) batch holding at most
    ROW_BLOCK_STEPS steps each (and at least one row)."""
    rows = max(1, ROW_BLOCK_STEPS // max(1, length))
    return (slice(i, min(i + rows, n_rows)) for i in range(0, n_rows, rows))


def increment_blocks(replicas: int, length: int, seed: int,
                     stream_id: int = 0) -> Iterator[np.ndarray]:
    """The rows of ``random_increments((replicas, length), ...)`` as int8
    blocks over ``row_blocks``.

    Each block takes the next words of the one (seed, stream_id) stream.  A
    block of an odd number of steps leaves the high half of its last word to
    the next block, as a generator's buffered 32-bit half would, so the
    blocks reproduce one ``Generator.integers`` draw of the whole array bit
    for bit.
    """
    bit_generator = make_rng(seed, stream_id).bit_generator
    held = np.empty(0, dtype=np.int8)  # the step of a half the last block left
    for rows in row_blocks(replicas, length):
        size = (rows.stop - rows.start) * length
        words = bit_generator.random_raw((size - len(held) + 1) // 2)
        steps = np.concatenate([held, _fair_steps(words, 2 * len(words))])
        held = steps[size:]
        yield steps[:size].reshape(-1, length)


def _fair_steps(words: np.ndarray, count: int) -> np.ndarray:
    """The first count fair +-1 steps (int8) that ``Generator.integers(0, 2,
    dtype=np.int64)`` draws from the 64-bit words along the last axis: each
    step is the top bit of one 32-bit half of a word, the low half first."""
    halves = words.astype("<u8", copy=False).view("<u4")[..., :count]
    steps = (halves >> 31).astype(np.int8)
    steps *= 2
    steps -= 1
    return steps


def increment_rows(length: int, seed: int, stream_ids: Sequence[int]) -> np.ndarray:
    """Row r is ``random_increments(length, seed, stream_ids[r])``: one walk
    per stream, from the first words of each (``rng.stream_rows``)."""
    return _fair_steps(stream_rows(seed, stream_ids, (length + 1) // 2), length)


def random_increments(shape, seed: int, stream_id: int = 0) -> np.ndarray:
    """Fair +-1 steps (int8) of the given shape from the (seed, stream_id)
    stream; a (replicas, length) shape fills one walk per row."""
    out = np.empty(shape, dtype=np.int8)
    rows = out.reshape(-1, out.shape[-1])
    i = 0
    for block in increment_blocks(rows.shape[0], rows.shape[1], seed, stream_id):
        rows[i : i + len(block)] = block
        i += len(block)
    return out


def generate_walk(p_min: int, p_max: int, seed: int, stream_id: int = 0) -> WalkWindow:
    """Deterministic SRW on [p_min, p_max] from the (seed, stream_id) stream."""
    if p_min >= p_max:
        raise EmptyWindowError(f"window [{p_min}, {p_max}] has no steps")
    return WalkWindow(p_min, random_increments(p_max - p_min, seed, stream_id))


class ExcursionTable(NamedTuple):
    """The excursions of a (R, L) batch of nonnegative paths, one entry per
    excursion in row-major start order: its row, its interval [start, end]
    and its 1-based ordinal within the row."""

    row: np.ndarray
    start: np.ndarray
    end: np.ndarray
    ordinal: np.ndarray


def excursion_table(paths: np.ndarray) -> ExcursionTable:
    """Decompose every row of a (R, L) batch of nonnegative paths at once.

    An excursion [p, q] has Y_p = Y_{p-1} = 0 and Y_q = Y_{q+1} = 0, with the
    convention Y_{-1} = 0, and no interior zero followed by another zero.  So
    with a "pair" at k meaning Y_{k-1} = Y_k = 0, the excursions run between
    consecutive pairs k1 < k2 of one row with k2 >= k1 + 2, as [k1, k2 - 1].
    An interval still open at the end of its row has no closing pair.
    """
    y = np.asarray(paths)
    if np.any(y < 0):
        raise NegativeValueError("excursion decomposition needs a nonnegative path")
    zero = y == 0
    pair = zero.copy()
    pair[:, 1:] &= zero[:, :-1]
    rows, cols = np.nonzero(pair)
    keep = (rows[1:] == rows[:-1]) & (cols[1:] - cols[:-1] >= 2)
    row = rows[:-1][keep]
    ordinal = np.arange(1, len(row) + 1) - np.searchsorted(row, row)
    return ExcursionTable(row, cols[:-1][keep], cols[1:][keep] - 1, ordinal)

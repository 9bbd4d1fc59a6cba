"""Simple random walks on two-sided integer index windows.

All quantities are anchor-free: only differences S_n - S_p are ever used, so
a window stores values relative to its own origin and supports negative
indices transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyWindowError, NegativeValueError, OutOfWindowError
from .rng import make_rng


class NotHitType:
    """Symbolic +infinity returned when a hitting level is never reached."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotHit"

    def __gt__(self, other):
        return True

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, NotHitType)


NOT_HIT = NotHitType()


class WalkWindow:
    """A +-1 increment path on [p_min, p_max], values anchored to S_{p_min} = 0.

    ``values[i] = S_{p_min + i} - S_{p_min}``; a sparse table over values
    gives O(1) range-minimum queries (value and last position) after
    O(n log n) preprocessing.
    """

    __slots__ = ("p_min", "p_max", "increments", "values", "_min_table", "_value_list",
                 "_step_list")

    def __init__(self, p_min: int, increments: np.ndarray):
        increments = np.asarray(increments, dtype=np.int64)
        if increments.size == 0:
            raise EmptyWindowError("window has no steps")
        if not np.all(np.abs(increments) == 1):
            raise ValueError("increments must be +-1")
        self.p_min = int(p_min)
        self.p_max = int(p_min) + len(increments)
        self.increments = increments
        self.values = np.concatenate([[0], np.cumsum(increments)])
        self._min_table = None
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
            self._value_list = self.values.tolist()
            self._step_list = self.increments.tolist()
        return self._value_list, self._step_list

    def steps(self, p: int, n: int) -> list[int]:
        """Increments S_{k+1} - S_k for k in [p, n), as Python ints."""
        i, j = self._idx(p), self._idx(n)
        return self._lists()[1][i:j]

    def _build_min_table(self):
        # level k holds, for each start i, the last index of the minimum of
        # values[i : i + 2**k], as a Python list
        v = self.values
        prev = np.arange(len(v))
        levels = [range(len(v))]
        span = 1
        while span * 2 <= len(v):
            a, b = prev[: len(prev) - span], prev[span:]
            prev = np.where(v[a] < v[b], a, b)
            levels.append(prev.tolist())
            span *= 2
        self._min_table = levels

    def _range_min(self, p: int, n: int) -> tuple[int, int, int]:
        """(i, j, h): the offsets of p and n, and the last offset in [i, j]
        at which values attains its minimum over [i, j]."""
        i, j = self._idx(p), self._idx(n)
        if i > j:
            raise OutOfWindowError(f"empty range [{p}, {n}]")
        if self._min_table is None:
            self._build_min_table()
        k = (j - i + 1).bit_length() - 1
        t = self._min_table[k]
        a, b = t[i], t[j - (1 << k) + 1]  # on a tie b is the later index
        v = self._lists()[0]
        return i, j, a if v[a] < v[b] else b

    def window_min(self, p: int, n: int) -> int:
        """min_{h in [p,n]} S_h - S_p (anchor-free), O(1) per query."""
        i, _, h = self._range_min(p, n)
        return self._value_list[h] - self._value_list[i]

    def s_plus(self, p: int, n: int) -> int:
        """S^+_{p,n} = S_{p,n} - min_{h in [p,n]} S_{p,h} >= 0."""
        _, j, h = self._range_min(p, n)
        return self._value_list[j] - self._value_list[h]

    def last_min_time(self, p: int, n: int) -> int:
        """The last h in [p, n] with S_h = min_{[p,n]} S, O(1) per query."""
        return self.p_min + self._range_min(p, n)[2]

    def hitting_time(self, w_p: int, depth: int):
        """Smallest q >= p with S_q - S_p = -depth, or NOT_HIT.

        Steps are +-1, so the first time the running minimum reaches -depth
        is the first hit of the level itself.
        """
        p = w_p
        i = self._idx(p)
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if depth == 0:
            return p
        rel = self.values[i:] - self.values[i]
        hits = np.nonzero(rel == -depth)[0]
        if hits.size == 0:
            return NOT_HIT
        return p + int(hits[0])

    def slice_values(self, p: int, n: int) -> np.ndarray:
        """Values S_h - S_p for h in [p, n]."""
        i, j = self._idx(p), self._idx(n)
        return self.values[i : j + 1] - self.values[i]


def random_increments(shape, seed: int, stream_id: int = 0) -> np.ndarray:
    """Fair +-1 steps (int64) of the given shape from the (seed, stream_id)
    stream; a (replicas, length) shape fills one walk per row."""
    rng = make_rng(seed, stream_id)
    return rng.integers(0, 2, size=shape, dtype=np.int64) * 2 - 1


def generate_walk(p_min: int, p_max: int, seed: int, stream_id: int = 0) -> WalkWindow:
    """Deterministic SRW on [p_min, p_max] from the (seed, stream_id) stream."""
    if p_min >= p_max:
        raise EmptyWindowError(f"window [{p_min}, {p_max}] has no steps")
    return WalkWindow(p_min, random_increments(p_max - p_min, seed, stream_id))


@dataclass(frozen=True)
class Excursion:
    """An excursion interval [start, end] of a nonnegative path, with its
    global ordinal (1-based, in start order)."""

    start: int
    end: int
    ordinal: int


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


def excursions(path_y: np.ndarray, a: int = 0) -> list[Excursion]:
    """Decompose a nonnegative path on [a, a + len - 1] into excursions.

    The one-row case of ``excursion_table``: every interior zero of an
    excursion is immediately followed by 1, and intervals still open at the
    window end are discarded.  Returned in start order with ordinals 1, 2, ...
    """
    table = excursion_table(np.asarray(path_y)[None, :])
    return [Excursion(a + p, a + q, i + 1)
            for i, (p, q) in enumerate(zip(table.start.tolist(), table.end.tolist()))]


def excursions_brute(path_y: np.ndarray, a: int = 0) -> list[Excursion]:
    """Definition-checking oracle: test every (p, q) pair directly."""
    y = np.asarray(path_y)
    if np.any(y < 0):
        raise NegativeValueError("excursion decomposition needs a nonnegative path")
    n = len(y)

    def yv(j):
        if j == -1:
            return 0
        if 0 <= j < n:
            return int(y[j])
        return None  # outside the window: condition unverifiable

    found = []
    for p in range(n):
        for q in range(p + 1, n):
            vals = (yv(p), yv(p - 1), yv(q), yv(q + 1))
            if any(v is None or v != 0 for v in vals):
                continue
            if all(not (y[j] == 0 and y[j + 1] != 1) for j in range(p, q)):
                found.append((p, q))
    found.sort()
    return [Excursion(a + p, a + q, i + 1) for i, (p, q) in enumerate(found)]

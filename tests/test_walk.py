"""Walk windows: generation, path reads, window statistics, hitting times, excursions."""

import csv
from pathlib import Path

import numpy as np
import pytest

from starflow.errors import EmptyWindowError, NegativeValueError, OutOfWindowError
from starflow.flows import _flow_radius
from starflow import walk
from starflow.oracles import Excursion, excursions_brute
from starflow.rng import make_rng
from starflow.walk import (NOT_HIT, ROW_BLOCK_STEPS, WalkWindow, excursion_table,
                           generate_walk, increment_blocks, increment_rows, random_increments)

KEYS = (0, 2**63, 2**64 - 1)

GOLDEN = Path(__file__).parent / "golden" / "walk_seed1_win0_8.csv"


def example_walk():
    # S = (0, 1, 2, 1, 0, -1)
    return WalkWindow(0, np.array([1, 1, -1, -1, -1]))


def test_generate_walk_golden():
    w = generate_walk(0, 8, 1, 0)
    with GOLDEN.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        k = int(row["index"])
        assert int(row["increment"]) == w.increments[k - 1]
        assert int(row["value"]) == w.value(k)


def test_generate_walk_reproducible():
    a = generate_walk(-5, 20, 42, 7)
    b = generate_walk(-5, 20, 42, 7)
    assert np.array_equal(a.increments, b.increments)
    c = generate_walk(-5, 20, 42, 8)
    assert not np.array_equal(a.increments, c.increments)


@pytest.mark.parametrize("shape", [(300, 999), (20_000, 7), (400_001,)])
def test_block_draws_match_one_shot_draw(shape):
    # odd lengths, and replica counts that leave the last block part full
    one_shot = make_rng(5, 3).integers(0, 2, size=shape, dtype=np.int64) * 2 - 1
    drawn = random_increments(shape, 5, 3)
    assert drawn.dtype == np.int8
    assert np.array_equal(drawn, one_shot)
    if len(shape) == 2:
        blocks = list(increment_blocks(*shape, 5, 3))
        assert len(blocks) == -(-shape[0] // (ROW_BLOCK_STEPS // shape[1])) > 1
        assert np.array_equal(np.concatenate(blocks), one_shot)


def _generator_steps(seed, stream_id, shape):
    return make_rng(seed, stream_id).integers(0, 2, size=shape, dtype=np.int64) * 2 - 1


@pytest.mark.parametrize("length", [*range(1, 10), 999, 1000, 1001])
@pytest.mark.parametrize("seed", KEYS)
def test_word_steps_are_generator_integers(seed, length):
    rows = increment_rows(length, seed, [*KEYS, 5])
    assert rows.dtype == np.int8 and rows.shape == (4, length)
    for row, stream_id in zip(rows, [*KEYS, 5]):
        want = _generator_steps(seed, stream_id, length)
        assert np.array_equal(row, want)
        assert np.array_equal(random_increments(length, seed, stream_id), want)


@pytest.mark.parametrize("block_steps, shape", [(3, (7, 3)), (16, (7, 5)), (5, (9, 1)),
                                                (1, (3, 1)), (81, (5, 27))])
def test_blocks_carry_the_odd_half_across_blocks(monkeypatch, block_steps, shape):
    # blocks of an odd number of steps leave half a word to the next block
    monkeypatch.setattr(walk, "ROW_BLOCK_STEPS", block_steps)
    assert shape[0] * shape[1] % 2 == 1
    blocks = list(increment_blocks(*shape, 2**63, 2**64 - 1))
    assert len(blocks) > 1 and {len(b) * shape[1] % 2 for b in blocks[:-1]} == {1}
    want = _generator_steps(2**63, 2**64 - 1, shape)
    assert np.array_equal(np.concatenate(blocks), want)
    assert np.array_equal(random_increments(shape, 2**63, 2**64 - 1), want)


def test_generate_walk_empty_window():
    with pytest.raises(EmptyWindowError):
        generate_walk(0, 0, 1, 0)


def test_clt_mean():
    n = 10_000
    finals = np.array([generate_walk(0, 100, 3, s).value(100) for s in range(n)])
    assert abs(finals.mean() / 10.0) < 0.05  # 3 sigma band ~ 0.03


# The window statistics of the closed forms come from one scan of a path
# read, flows._flow_radius; each is checked here against a scan of values.

def test_window_min_against_scan():
    # -r is hit before n iff min_{[p, n-1]} S_{p,.} <= -r, for a whole r
    rng = make_rng(6, 0)
    w = generate_walk(-30, 60, 6, 1)
    for _ in range(1_000):
        p = int(rng.integers(-30, 60))
        n = int(rng.integers(p + 1, 61))
        scan = min(w.value(h) for h in range(p, n)) - w.value(p)
        for radius in range(4):
            assert _flow_radius(w.path(p, n), radius)[0] == (scan <= -radius)


def test_last_min_time_and_steps_against_scan():
    rng = make_rng(6, 2)
    w = generate_walk(-30, 60, 6, 3)
    for _ in range(1_000):
        p = int(rng.integers(-30, 60))
        n = int(rng.integers(p, 61))
        low = min(w.value(h) for h in range(p, n + 1))
        if n > p:  # the junction start has hit by n
            j = _flow_radius(w.path(p, n), 0)[2]
            assert p + j == max(h for h in range(p, n + 1) if w.value(h) == low)
        assert w.path(p, n) == [w.value(h) for h in range(p, n + 1)]
        assert w.steps(p, n) == [w.diff(k, k + 1) for k in range(p, n)]
    with pytest.raises(OutOfWindowError):
        w.path(5, 61)
    with pytest.raises(OutOfWindowError):
        w.steps(-31, 0)


def _s_plus(w, p, n):
    """S+_{p,n}: the radius of the flow started at the junction."""
    return _flow_radius(w.path(p, n), 0)[1]


def test_s_plus_examples():
    w = example_walk()
    assert _s_plus(w, 0, 0) == 0
    assert _s_plus(w, 0, 5) == 0
    assert _s_plus(w, 0, 2) == 2


def test_s_plus_zero_iff_min_at_right_end():
    rng = make_rng(7, 0)
    w = generate_walk(0, 200, 7, 2)
    for _ in range(10_000):
        p = int(rng.integers(0, 200))
        n = int(rng.integers(p, 201))
        sp = _s_plus(w, p, n)
        assert sp >= 0
        assert (sp == 0) == (w.values[p : n + 1].min() == w.values[n])


def _hit_by(w, p, n, depth):
    """Whether S_{p,.} has hit -depth before time n."""
    return _flow_radius(w.path(p, n), depth)[0]


def test_hitting_time_examples():
    # S = (0, 1, 2, 1, 0, -1, 0): 0 is hit at p, -1 first at 5
    w = WalkWindow(0, np.array([1, 1, -1, -1, -1, 1]))
    assert _hit_by(w, 0, 1, 0)
    assert [_hit_by(w, 0, n, 1) for n in range(7)] == [False] * 6 + [True]
    up = WalkWindow(0, np.ones(6, dtype=np.int64))
    assert not _hit_by(up, 0, 6, 3)


def test_hitting_time_monotone_in_depth():
    w = generate_walk(0, 300, 8, 3)
    rng = make_rng(8, 1)
    for _ in range(1_000):
        p = int(rng.integers(0, 300))
        n = int(rng.integers(p, 301))
        d1 = int(rng.integers(0, 5))
        d2 = d1 + int(rng.integers(1, 5))
        assert _hit_by(w, p, n, d1) >= _hit_by(w, p, n, d2)


def test_not_hit_ordering():
    assert NOT_HIT > 10**18
    assert not (NOT_HIT <= 5)
    assert NOT_HIT >= NOT_HIT


def test_out_of_window():
    w = example_walk()
    with pytest.raises(OutOfWindowError):
        w.value(9)


def _one_row(y) -> list[Excursion]:
    """The excursions of one path, read off its one-row excursion table."""
    table = excursion_table(np.asarray(y)[None, :])
    return [Excursion(*e) for e in zip(table.start.tolist(), table.end.tolist(),
                                       table.ordinal.tolist())]


def test_excursions_spec_example():
    y = np.array([0, 1, 0, 0, 1, 2, 1, 0])
    got = _one_row(y)
    assert got == excursions_brute(y)
    assert [(e.start, e.end) for e in got] == [(0, 2)]
    assert got[0].ordinal == 1


def test_excursions_all_zero():
    assert _one_row(np.zeros(9, dtype=np.int64)) == []


def test_excursions_negative_rejected():
    with pytest.raises(NegativeValueError):
        excursion_table(np.array([[0, 1, -1, 0]]))
    with pytest.raises(NegativeValueError):
        excursions_brute(np.array([0, 1, -1, 0]))


def _all_lazy_reflected_paths(length):
    """All nonnegative paths from 0 with steps in {-1, 0, +1}, 0-step only at 0."""
    paths = [[0]]
    for _ in range(length):
        new = []
        for p in paths:
            last = p[-1]
            if last == 0:
                new.append(p + [0])
                new.append(p + [1])
            else:
                new.append(p + [last - 1])
                new.append(p + [last + 1])
        paths = new
    return paths


def _excursion_test_paths(length):
    """Every lazy reflected path of the given length up to 11 steps, and
    2000 sampled ones above."""
    if length <= 11:
        return _all_lazy_reflected_paths(length)
    # cap the enumeration but keep the largest sizes spot-checked
    rng = make_rng(9, length)
    paths = []
    for _ in range(2_000):
        p = [0]
        for _ in range(length):
            if p[-1] == 0:
                p.append(int(rng.integers(0, 2)))
            else:
                p.append(p[-1] + int(rng.integers(0, 2)) * 2 - 1)
        paths.append(p)
    return paths


@pytest.mark.parametrize("length", range(1, 15))
def test_excursions_exhaustive_vs_brute(length):
    for p in _excursion_test_paths(length):
        y = np.array(p)
        assert _one_row(y) == excursions_brute(y), f"path {p}"


@pytest.mark.parametrize("length", range(1, 15))
def test_excursion_table_rows_vs_brute(length):
    # each row of one (R, L) batch decomposes as the path alone does, so no
    # excursion joins two rows.  Rows are never padded: zeros after a row
    # would close an excursion still open at its end.  The second batch
    # drops each path's first value, so rows may start above zero.
    paths = np.array(_excursion_test_paths(length))
    for batch in (paths, paths[:, 1:]):
        table = excursion_table(batch)
        for r, y in enumerate(batch):
            own = table.row == r
            got = list(zip(table.start[own].tolist(), table.end[own].tolist(),
                           table.ordinal[own].tolist()))
            want = [(e.start, e.end, e.ordinal) for e in excursions_brute(y)]
            assert got == want, f"row {r}: {y.tolist()}"


def test_excursions_disjoint_ordered_interior():
    rng = make_rng(10, 0)
    for trial in range(1_000):
        y = [0]
        for _ in range(60):
            y.append(y[-1] + int(rng.integers(0, 2)) * 2 - 1 if y[-1] > 0
                     else int(rng.integers(0, 2)))
        y = np.array(y)
        exc = _one_row(y)
        for i, e in enumerate(exc):
            assert e.ordinal == i + 1
            if i + 1 < len(exc):
                assert e.end < exc[i + 1].start
            for j in range(e.start, e.end):
                if y[j] == 0:
                    assert y[j + 1] == 1


def test_excursions_two_intervals():
    y = np.array([0, 1, 0, 0, 1, 2, 1, 0, 0])
    assert [(e.start, e.end) for e in _one_row(y)] == [(0, 2), (3, 7)]
    assert _one_row(y) == excursions_brute(y)

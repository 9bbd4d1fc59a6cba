"""Walk windows: generation, window statistics, hitting times, excursions."""

import csv
from pathlib import Path

import numpy as np
import pytest

from starflow.errors import EmptyWindowError, NegativeValueError, OutOfWindowError
from starflow.rng import make_rng
from starflow.walk import (NOT_HIT, WalkWindow, excursion_table, excursions,
                           excursions_brute, generate_walk)

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


def test_generate_walk_empty_window():
    with pytest.raises(EmptyWindowError):
        generate_walk(0, 0, 1, 0)


def test_clt_mean():
    n = 10_000
    finals = np.array([generate_walk(0, 100, 3, s).value(100) for s in range(n)])
    assert abs(finals.mean() / 10.0) < 0.05  # 3 sigma band ~ 0.03


def test_window_min_against_scan():
    rng = make_rng(6, 0)
    w = generate_walk(-30, 60, 6, 1)
    for _ in range(1_000):
        p = int(rng.integers(-30, 60))
        n = int(rng.integers(p, 61))
        scan = min(w.value(h) for h in range(p, n + 1)) - w.value(p)
        assert w.window_min(p, n) == scan


def test_last_min_time_and_steps_against_scan():
    rng = make_rng(6, 2)
    w = generate_walk(-30, 60, 6, 3)
    for _ in range(1_000):
        p = int(rng.integers(-30, 60))
        n = int(rng.integers(p, 61))
        low = min(w.value(h) for h in range(p, n + 1))
        assert w.last_min_time(p, n) == max(h for h in range(p, n + 1) if w.value(h) == low)
        assert w.steps(p, n) == [w.diff(k, k + 1) for k in range(p, n)]
    with pytest.raises(OutOfWindowError):
        w.last_min_time(5, 4)
    with pytest.raises(OutOfWindowError):
        w.steps(-31, 0)


def test_s_plus_examples():
    w = example_walk()
    assert w.s_plus(0, 0) == 0
    assert w.s_plus(0, 5) == 0
    assert w.s_plus(0, 2) == 2


def test_s_plus_zero_iff_min_at_right_end():
    rng = make_rng(7, 0)
    w = generate_walk(0, 200, 7, 2)
    for _ in range(10_000):
        p = int(rng.integers(0, 200))
        n = int(rng.integers(p, 201))
        sp = w.s_plus(p, n)
        assert sp >= 0
        assert (sp == 0) == (w.window_min(p, n) == w.diff(p, n))


def test_hitting_time_examples():
    w = example_walk()
    assert w.hitting_time(0, 0) == 0
    assert w.hitting_time(0, 1) == 5
    up = WalkWindow(0, np.ones(6, dtype=np.int64))
    assert up.hitting_time(0, 3) is NOT_HIT


def test_hitting_time_monotone_in_depth():
    w = generate_walk(0, 300, 8, 3)
    rng = make_rng(8, 1)
    for _ in range(1_000):
        p = int(rng.integers(0, 300))
        d1 = int(rng.integers(0, 5))
        d2 = d1 + int(rng.integers(1, 5))
        t1, t2 = w.hitting_time(p, d1), w.hitting_time(p, d2)
        assert t1 <= t2


def test_not_hit_ordering():
    assert NOT_HIT > 10**18
    assert not (NOT_HIT <= 5)
    assert NOT_HIT >= NOT_HIT


def test_out_of_window():
    w = example_walk()
    with pytest.raises(OutOfWindowError):
        w.value(9)


def test_excursions_spec_example():
    y = np.array([0, 1, 0, 0, 1, 2, 1, 0])
    got = excursions(y)
    assert got == excursions_brute(y)
    assert [(e.start, e.end) for e in got] == [(0, 2)]
    assert got[0].ordinal == 1


def test_excursions_all_zero():
    assert excursions(np.zeros(9, dtype=np.int64)) == []


def test_excursions_negative_rejected():
    with pytest.raises(NegativeValueError):
        excursions(np.array([0, 1, -1, 0]))


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
        assert excursions(y) == excursions_brute(y), f"path {p}"


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
        exc = excursions(y)
        for i, e in enumerate(exc):
            assert e.ordinal == i + 1
            if i + 1 < len(exc):
                assert e.end < exc[i + 1].start
            for j in range(e.start, e.end):
                if y[j] == 0:
                    assert y[j + 1] == 1


def test_excursion_window_offset():
    y = np.array([0, 1, 0, 0, 1, 2, 1, 0, 0])
    got = excursions(y, a=5)
    assert [(e.start, e.end) for e in got] == [(5, 7), (8, 12)]

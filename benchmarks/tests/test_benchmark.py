"""Tests of the benchmark itself: smoke runs, span arithmetic, check accounting.

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from checks import Tally, account_subcommand, compare_digests  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_of_each_workload(workload):
    untraced = run.measure(workload, 5, 0, trace=False, size="tiny")
    assert untraced["tally"]["failed"] == 0, untraced["tally"]["failures"]
    assert untraced["tally"]["attempted"] > 0
    assert sorted(untraced["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(v > 0 for v in untraced["metrics"].values())
    assert len(untraced["runs"]) == 2
    traced = run.measure(workload, 5, 0, trace=True, size="tiny")
    assert traced["tally"]["failed"] == 0, traced["tally"]["failures"]
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", ["flip-loop", "exact-oracles"])
def test_counts_repeat_for_one_seed(workload):
    first, second = (run.measure(workload, 9, 0, trace=True, size="tiny")["metrics"]
                     for _ in range(2))
    assert {m: first[m] for m in COUNTS} == {m: second[m] for m in COUNTS}
    assert first["chain.flip_blocks_i"] > 0 or first["beta.vertex_calls"] > 0


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]; second root [11, 12]
    spans = [
        ("cli.main", "cli", 0.0, 10.0, -1),
        ("cv.a", "cv", 1.0, 4.0, 0),
        ("walk.b", "walk", 2.0, 3.0, 1),
        ("cv.c", "cv", 5.0, 9.0, 0),
        ("stats.d", "stats", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    tracer = Tracer()
    tracer.spans = spans
    metrics = tracer.layer_metrics()
    assert (metrics["cli.self_s"], metrics["cv.self_s"], metrics["walk.self_s"],
            metrics["stats.self_s"]) == (3.0, 6.0, 1.0, 1.0)
    assert tracer.traced_seconds() == 11.0
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == 11.0


def _manifest(tmp_path, rows):
    (tmp_path / "flip-check_manifest.json").write_text(json.dumps({"checks": [
        {"name": name, "status": status, "value": 0, "threshold": 0}
        for name, status in rows]}))


def test_exact_fail_row_raises_checks_failed(tmp_path):
    _manifest(tmp_path, [("flip_bound_max_deviation", "FAIL"), ("flip_exit_chi2", "pass")])
    tally = Tally()
    account_subcommand(tally, tmp_path, "flip-check", 1)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "flip_bound_max_deviation" in tally.failures[0]


def test_statistical_fail_row_is_tallied_apart(tmp_path):
    _manifest(tmp_path, [("flip_bound_max_deviation", "pass"), ("flip_exit_chi2", "FAIL")])
    tally = Tally()
    account_subcommand(tally, tmp_path, "flip-check", 1)
    assert (tally.attempted, tally.failed) == (2, 0)
    assert (tally.stat_attempted, tally.stat_failed) == (1, 1)


@pytest.mark.parametrize("code", [1, 2, "RuntimeError: boom"])
def test_exit_code_must_match_the_manifest(tmp_path, code):
    _manifest(tmp_path, [("flip_bound_max_deviation", "pass")])
    tally = Tally()
    account_subcommand(tally, tmp_path, "flip-check", code)
    assert tally.failed == 1


def test_missing_manifest_is_a_failed_check(tmp_path):
    tally = Tally()
    account_subcommand(tally, tmp_path, "cv-check", 2)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_digest_mismatch_is_a_failed_check():
    tally = Tally()
    compare_digests(tally, {"a.csv": "1", "b.svg": "2"}, {"a.csv": "1", "b.svg": "3"})
    compare_digests(tally, {"a.csv": "1"}, {})
    assert (tally.attempted, tally.failed) == (3, 2)


def test_tail_percentile_needs_ten_runs_beyond_it():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([float(v) for v in range(20)]) == (50.0, 9.0)

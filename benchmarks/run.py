"""Benchmark of the starflow CLI and oracles; see NOTES.md for the workloads.

    python3 benchmarks/run.py --workload batch-array --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

Run from a checkout: the program is imported from ``src`` with no install.
Each iteration is a fresh child process (child.py) that sets up, runs the
workload once and reports.  Iterations repeat until ``--seconds`` is used up,
at least two of them.

``--trace 0`` gives every iteration a fresh input derived from ``--seed`` and
reports the end-to-end metrics of BENCHMARK.json as medians over the
iterations.  ``--trace 1`` runs (untraced, traced) pairs, each pair on one
input.  It reports the per-layer metrics of the first traced iteration and
the tracing overhead over all pairs, and it compares every artifact digest
between the two runs of a pair.  The last line of standard output is one
JSON object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Tally, compare_digests
from workloads import SIZES, WORKLOADS, sub_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# BLAS/OpenMP threads in the child.  beta_vertex_oracle's batched 6x6
# solves gain nothing from a second thread here (1.45 s vs 1.51 s per
# four-point pair on 2 cores), and one thread keeps runs from contending.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_DEADLINE_S = 170.0  # every child of one workload run ends by then
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def plan(k: int, trace: bool) -> tuple[int, bool]:
    """(input index, traced) of the k-th iteration of a run."""
    if trace:
        return k // 2, k % 2 == 1
    return k, False


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(dict.fromkeys(THREAD_VARS, str(THREADS)))
    return env


def run_child(workload, size: str, seed: int, traced: bool, work: Path,
              timeout: float, spans: Path | None = None) -> dict:
    work.mkdir(parents=True)
    config = work / "run.cfg"
    config.write_text(workload.config_text(seed))
    result = work / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload.name,
           "--size", size, "--config", str(config), "--out", str(work / "out"),
           "--result", str(result), "--seed", str(seed), "--trace", str(int(traced))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload.name}: child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload.name}: child exited {proc.returncode}\n{proc.stderr}")
    data = json.loads(result.read_text())
    data.update(seed=seed, traced=traced, stderr=proc.stderr)
    shutil.rmtree(work)
    return data


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload for about `seconds` and summarize its iterations."""
    workload = SIZES[size][name]
    work = WORK_DIR / f"{name}-{os.getpid()}"
    spans = OUT_DIR / f"{name}-seed{seed}-spans.json" if trace else None
    if spans:
        OUT_DIR.mkdir(exist_ok=True)
    runs = []
    step = 2 if trace else 1  # traced runs go in (untraced, traced) pairs
    start = time.monotonic()
    try:
        k = 0
        while True:
            index, traced = plan(k, trace)
            timeout = RUN_DEADLINE_S - (time.monotonic() - start)
            runs.append(run_child(workload, size, sub_seed(seed, index), traced,
                                  work / f"iter{k}", timeout, spans if k == 1 else None))
            k += 1
            elapsed = time.monotonic() - start
            if k >= 2 and k % step == 0 and elapsed * (k + step) / k > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    return summarize(workload, seed, trace, runs)


def summarize(workload, seed: int, trace: bool, runs: list[dict]) -> dict:
    tally = Tally()
    for run in runs:
        tally.add(run["tally"])
    by_seed: dict[int, list[dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(run)
    for group in by_seed.values():
        for first, second in zip(group, group[1:]):
            compare_digests(tally, first["digests"], second["digests"])
    if trace:
        metrics = dict(next(r for r in runs if r["traced"])["layers"])
        metrics["trace.overhead_s"] = statistics.median(
            traced["wall_s"] - untraced["wall_s"]
            for untraced, traced in zip(runs[::2], runs[1::2]))
    else:
        metrics = {m: statistics.median(r[m] for r in runs) for m in END_TO_END}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "timings": {m: [r[m] for r in runs if not r["traced"]]
                    for m in ("wall_s", "cpu_s", "setup_s")},
        "tally": vars(tally),
        "configs": {str(s): workload.config_text(s) for s in by_seed},
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
    }


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with ten or fewer samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": source.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": THREADS,
            "python_executable": sys.executable}


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(summary: dict, units: dict) -> None:
    name = summary["workload"]
    for metric, value in summary["metrics"].items():
        line = f"{name}: {metric} = {value:.6g} {units[metric]}"
        samples = summary["timings"].get(metric)
        if samples and not summary["trace"]:
            tail = tail_percentile(samples)
            tail_text = (f"p{tail[0]:.0f} = {tail[1]:.6g} {units[metric]}" if tail
                         else "no percentile has ten runs beyond it")
            line += f"  (median of {len(samples)} runs; {tail_text})"
        print(line)
    tally = summary["tally"]
    print(f"{name}: checks_failed = {tally['failed']} / {tally['attempted']} attempted; "
          f"statistical rows failed = {tally['stat_failed']} / {tally['stat_attempted']} "
          f"(not gating)")
    for failure in tally["failures"][:20]:
        print(f"{name}: FAILED CHECK {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "starflow" / "cli.py").is_file():
        print(f"error: no starflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    try:
        summaries = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    OUT_DIR.mkdir(exist_ok=True)
    env["versions"] = summaries[0]["runs"][0]["versions"]
    print("environment: " + json.dumps(env))
    for summary in summaries:
        summary["environment"] = env
        report(summary, units)
        path = OUT_DIR / f"{summary['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
    attempted = sum(s["tally"]["attempted"] for s in summaries)
    failed = sum(s["tally"]["failed"] for s in summaries)
    prefix = len(summaries) > 1
    metrics = {(f"{s['workload']}.{m}" if prefix else m): {"value": v, "unit": units[m]}
               for s in summaries for m, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

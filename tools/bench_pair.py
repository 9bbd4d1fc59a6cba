"""Paired benchmark runs of two commits, written to BENCH_<pr>.json.

    python3 tools/bench_pair.py --pr 21 --base 79389db --change HEAD \\
        --workload exact-oracles --pairs 10 --seed 7501 --seconds 8

Each side is a ``git archive`` checkout of its commit in a directory of its
own.  Pair i runs ``python3 benchmarks/run.py --workload W --seed S+i
--seconds T --trace 0`` in each checkout, the base first on even pairs and
the change first on odd ones.  A run's value of a metric is run.py's median
over its iterations.  Per metric the record keeps every pair's two values,
each side's median and quartiles (``statistics.quantiles``, inclusive) and
the number of pairs the change won, that is, where it reads lower.
``--trace-seed`` adds ``--trace-runs`` pairs of ``--trace 1`` runs on
seeds from it on, alternating in the same way.  A traced run's per-layer
metrics are those of its first traced iteration; the record keeps each run's
and, per side, their median.

Workloads already in the output file and not run again are kept, so the
workloads of one record can be run one at a time.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def checkout(commit: str, into: Path) -> None:
    """The files of commit, from ``git archive``, under into."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """run.py's result line and environment for one run in a checkout."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a check failed, which is recorded
        raise SystemExit(f"run.py exited {proc.returncode} in {tree}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line.split(": ", 1)[1]) for line in lines
               if line.startswith("environment: "))
    result = json.loads(lines[-1])
    return {"env": env, "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def paired_runs(trees: dict, workload: str, seeds: list[int], seconds: float,
                trace: int) -> dict[str, list[dict]]:
    """Each side's runs on the seeds, the base first on even pairs."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_bench(trees[side], workload, seed, seconds, trace))
            print(f"{workload} trace {trace} pair {i + 1}/{len(seeds)} {side}: "
                  f"{runs[side][-1]['metrics']}", file=sys.stderr)
    return runs


def measure(trees: dict, workload: str, seeds: list[int], seconds: float) -> tuple[dict, dict]:
    """(record of the paired runs of one workload, environment of a run)."""
    runs = paired_runs(trees, workload, seeds, seconds, 0)
    metrics = {}
    for name in runs["base"][0]["metrics"]:
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        metrics[name] = {
            **{side: {**spread(values[side]), "runs": values[side]} for side in SIDES},
            "change_wins": sum(c < b for b, c in zip(values["base"], values["change"])),
        }
    record = {"seeds": seeds, "seconds": seconds, "pairs": len(seeds),
              "failed_checks": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
              "metrics": metrics}
    return record, runs["base"][0]["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="the record is BENCH_<pr>.json")
    parser.add_argument("--base", required=True, help="commit before the change")
    parser.add_argument("--change", default="HEAD", help="commit with the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace-seed", type=int, help="add --trace 1 runs from this seed on")
    parser.add_argument("--trace-runs", type=int, default=1, help="traced runs per side")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the root")
    parser.add_argument("--work-dir", type=Path, help="where the checkouts go for the runs "
                        "(default: the system's temporary directory)")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    commits = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    record = json.loads(out.read_text()) if out.exists() else {}
    if record and record.get("commits") != commits:
        raise SystemExit(f"{out} records other commits: {record.get('commits')}")
    record.update(description=__doc__.split("\n\n")[2].replace("\n", " "), commits=commits)
    scratch = Path(tempfile.mkdtemp(prefix="bench-pair-", dir=args.work_dir))
    try:
        trees = {side: scratch / side for side in SIDES}
        for side in SIDES:
            checkout(commits[side], trees[side])
        seeds = list(range(args.seed, args.seed + args.pairs))
        for workload in args.workload:
            entry, env = measure(trees, workload, seeds, args.seconds)
            if args.trace_seed is not None:
                trace_seeds = list(range(args.trace_seed, args.trace_seed + args.trace_runs))
                traced = paired_runs(trees, workload, trace_seeds, args.seconds, 1)
                entry["trace"] = {"seeds": trace_seeds, "seconds": args.seconds}
                for side in SIDES:
                    layers = [r["metrics"] for r in traced[side]]
                    entry["trace"][side] = {
                        "median": {m: statistics.median(r[m] for r in layers) for m in layers[0]},
                        "runs": layers}
            record.setdefault("workloads", {})[workload] = entry
            record["environment"] = {"nproc": env["nproc"], "blas_threads": env["blas_threads"],
                                     "versions": env["versions"]}
            out.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['base']['median']:.6g} "
                  f"[{m['base']['q1']:.6g}, {m['base']['q3']:.6g}] -> "
                  f"{m['change']['median']:.6g}, change won {m['change_wins']}/{entry['pairs']}")
        if "trace" in entry:
            base, change = (entry["trace"][side]["median"] for side in SIDES)
            for name in base:
                print(f"{workload} traced median {name}: {base[name]:.6g} -> {change[name]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

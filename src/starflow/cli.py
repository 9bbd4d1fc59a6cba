"""Batch command-line entry point.

Subcommands run the verification suites at config-controlled scale and emit
deterministic artifacts into the output directory: a manifest JSON (config
echo, seed, content hash), per-check CSV, and SVG profile plots.  The exit
code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import json
import math
import platform
import statistics
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .chain import CASES, flip_batches, simulate_chain_batch
from .config import RunConfig, load_config
from .cv import cv_check_blocks
from .errors import ConfigError, SparseCellsError, StarflowError
from .flows import (FlowRealization, departure_candidates, kernel_closed_form,
                    kernel_compose, kernel_is_conditional_law, psi_closed_form, psi_compose)
from .graph import junction, point
from .limit import convergence_profiles
from .rng import make_rng
from .stats import chi_square_pvalue, ray_chi_square, updown_chi_square, walsh_marginal_check
from .svg import line_plot
from .walk import WalkWindow, increment_blocks, row_blocks

# fixed stream ids per purpose.  They do not keep subcommands apart:
# flow-check's walk is the first 64 steps of cv-check's replica 0 (both read
# STREAM_WALK), and from 600 flip replicas on, flip-check's streams
# STREAM_FLIP * 1000 + 10 k (+ 1, + 2) run into convergence's 10_000 + rep
STREAM_WALK, STREAM_ETA, STREAM_CHAIN, STREAM_FLIP, STREAM_SPOT = 1, 2, 3, 4, 5


def _pad_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


class CheckList:
    def __init__(self):
        self.rows: list[dict] = []
        self.work: list[dict] = []  # work counts for the manifest, if any

    def add(self, name: str, value, threshold, passed: bool):
        self.rows.append({"name": name, "status": "pass" if passed else "FAIL",
                          "value": value, "threshold": threshold})

    @property
    def ok(self) -> bool:
        return all(r["status"] == "pass" for r in self.rows)


def _write_manifest(out: Path, subcommand: str, cfg: RunConfig, checks: CheckList,
                    elapsed_s: float):
    config_dict = cfg.as_dict()
    # where the artifacts go is not an input: leave it out of the hash
    hashed = {k: v for k, v in config_dict.items() if k != "output_dir"}
    digest = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()
    manifest = {
        "subcommand": subcommand,
        "config": config_dict,
        "seed": cfg.seed,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "input_hash": digest,
        "elapsed_s": elapsed_s,
        "checks": checks.rows,
    }
    if checks.work:
        manifest["work"] = checks.work
    (out / f"{subcommand}_manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str) + "\n")


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_cv_check(cfg: RunConfig, out: Path) -> CheckList:
    checks = CheckList()
    report = cv_check_blocks(increment_blocks(cfg.replicas, cfg.length, cfg.seed, STREAM_WALK))
    dev = report.deviation
    checks.add("cv_bound_max_deviation", int(dev.max()), 2, bool(dev.max() <= 2))
    checks.add("cv_even", report.even_gap, 0, report.even_gap == 0)
    checks.add("cv_roundtrip", report.roundtrip_gap, 0, report.roundtrip_gap == 0)
    _write_csv(out / "cv_check.csv", ["replica", "max_deviation"],
               list(enumerate(dev.tolist())))
    return checks


def run_chain_donsker(cfg: RunConfig, out: Path) -> CheckList:
    checks = CheckList()
    params = cfg.ray_params()
    rows = []
    for lazy, label in ((False, "chain_q"), (True, "chain_lazy")):
        rays, radii = simulate_chain_batch(params, cfg.length, cfg.replicas,
                                           cfg.seed, STREAM_CHAIN + (1 if lazy else 0),
                                           lazy=lazy)
        report = walsh_marginal_check(rays, radii, cfg.length, params)
        checks.add(f"{label}_ks", report["ks_statistic"], report["ks_critical"],
                   report["ks_pass"])
        checks.add(f"{label}_chi2", report["chi2_pvalue"], f"> {report['adjusted_level']}",
                   report["chi2_pass"])
        rows.append([label, report["ks_statistic"], report["ks_critical"],
                     report["chi2_statistic"], report["chi2_pvalue"]])
    _write_csv(out / "chain_donsker.csv",
               ["chain", "ks_stat", "ks_crit", "chi2_stat", "chi2_p"], rows)
    return checks


# glibc mallopt parameters and the ceilings of its adaptive thresholds on
# 64-bit builds (DEFAULT_MMAP_THRESHOLD_MAX and twice it)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_MAX = 32 * 2**20


def _keep_freed_heap() -> None:
    """Let glibc's malloc keep up to 64 MiB of freed heap for reuse.

    flip-check builds and frees one batch of tens of MB after another.
    glibc raises its trim threshold only to twice the largest freed mmap
    chunk, a few MB here, so it returns each freed batch to the OS and the
    next one faults the same pages in again.  This starts both thresholds
    at the ceilings glibc's own adaptation stops at.  The setting holds for
    the rest of the process; a C library without ``mallopt`` is left as it
    is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX)


def _flip_totals(params, seed: int, length: int, stream_ids,
                 short: bool) -> tuple[int, dict, dict]:
    """(worst bound deviation, transition counts, work counts) summed over
    the flip realizations of the streams: the bound and the junction exits
    of the short replicas, or the up and down moves of the long paths, with
    the bound left at 0.  Each batch is reduced to these before the next one
    is built.  The work counts are the replicas, the walk steps drawn, the
    live transitions counted (the sum of n_end), the completed blocks by
    case, the batches and the columns they flipped (rows x width); the short
    replicas' also name the least stream id of a row with the worst bound
    deviation, which replays alone as that stream's one-row batch.
    """
    def reduce(batch):
        if short:
            dev = batch.bound_deviation()
            worst = int(dev.max())
            rank = (-worst, int(batch.streams[dev == worst].min()))
            counts = {"exits": batch.exit_counts(params)}
        else:
            rank, counts = (0, 0), dict(zip(("up_by_r", "down_by_r"), batch.move_counts()))
        return (rank, counts, int(batch.n_end.sum()),
                np.bincount(batch.cases, minlength=len(CASES)), batch.radii.size)

    ranks, live, blocks, columns, totals = [], 0, np.zeros(len(CASES), dtype=np.int64), 0, {}
    for rank, counts, n_end, cases, cells in map(reduce, flip_batches(params, length, seed,
                                                                       stream_ids)):
        ranks.append(rank)
        totals = {key: _pad_add(totals.get(key, np.zeros(0, dtype=np.int64)), part)
                  for key, part in counts.items()}
        live += n_end
        blocks += cases
        columns += cells
    worst, stream = min(ranks, default=(0, 0))
    work = {"replicas": len(stream_ids), "length": length, "steps": len(stream_ids) * length,
            "live_transitions": live, "blocks": dict(zip(CASES, blocks.tolist())),
            "batches": len(ranks), "flipped_columns": columns}
    if short:
        work["worst_stream"] = stream
    return -worst, totals, work


def flip_stream_ids(replicas: int, length: int) -> tuple[range, range, int]:
    """flip-check's stream ids of its short replicas, one per 10 replicas and
    at least 10, and of its five long paths, and the long paths' length."""
    short = STREAM_FLIP * 1000
    return (range(short, short + 10 * max(replicas // 10, 10), 10),
            range(STREAM_FLIP * 7919, STREAM_FLIP * 7919 + 50, 10),
            max(length, 20 * replicas))


def run_flip_check(cfg: RunConfig, out: Path) -> CheckList:
    _keep_freed_heap()
    checks = CheckList()
    params = cfg.ray_params()
    short_ids, long_ids, long_len = flip_stream_ids(cfg.replicas, cfg.length)
    # junction exits follow the marks, which are independent of the walk, so
    # truncation at the last completed block cannot bias them
    worst, short, short_work = _flip_totals(params, cfg.seed, cfg.length, short_ids,
                                            short=True)
    # interior up/down frequencies do get biased by that truncation (it is a
    # look-ahead boundary), and the bias does not average out over short
    # replicas, so those are counted on long paths.  The cut is not small
    # there either: at 20,000 replicas of 1,000 steps and seed 4242, the five
    # paths of 400,000 steps end their last block at 202,490, 379,826,
    # 390,772, 101,750 and 1,068.  The manifest's work list records the live
    # transitions each population counted.
    _, long, long_work = _flip_totals(params, cfg.seed, long_len, long_ids, short=False)
    checks.work = [{"population": "short replicas", **short_work},
                   {"population": "long paths", **long_work}]
    checks.add("flip_bound_max_deviation", worst, 2, worst <= 2)
    try:
        _, _, p_exit = ray_chi_square(short["exits"], params.alpha)
    except SparseCellsError as exc:
        raise SparseCellsError(
            f"replicas, length: the short-replica exit test counted "
            f"{int(short['exits'].sum())} junction exits over {len(short_ids)} replicas of "
            f"{cfg.length} steps ({exc}); raise replicas or length") from exc
    checks.add("flip_exit_chi2", p_exit, "> 0.005", p_exit > 0.005)
    stat2, dof2 = updown_chi_square(long["up_by_r"], long["down_by_r"])
    p_ud = chi_square_pvalue(stat2, dof2)
    checks.add("flip_updown_chi2", p_ud, "> 0.005", p_ud > 0.005)
    _write_csv(out / "flip_check.csv", ["check", "value"],
               [["max_deviation", worst], ["exit_p", p_exit], ["updown_p", p_ud]])
    return checks


def run_flow_check(cfg: RunConfig, out: Path) -> CheckList:
    checks = CheckList()
    params = cfg.ray_params()
    rng = make_rng(cfg.seed, STREAM_SPOT)
    length = min(cfg.length, 64)
    fr = FlowRealization.generate(params, 0, length, cfg.seed, STREAM_WALK, STREAM_ETA)
    walk = fr.walk
    bad_cocycle = bad_closed = 0
    trials = 200
    for _ in range(trials):
        p = int(rng.integers(0, length))
        q = int(rng.integers(p, length + 1))
        r = int(rng.integers(p, q + 1))
        x = point(int(rng.integers(1, params.N + 1)), int(rng.integers(0, 4)), params.N)
        via = psi_compose(fr, r, q, psi_compose(fr, p, r, x))
        direct = psi_compose(fr, p, q, x)
        if via != direct:
            bad_cocycle += 1
        if psi_closed_form(fr, p, q, x) != direct:
            bad_closed += 1
    checks.add("psi_cocycle_violations", bad_cocycle, 0, bad_cocycle == 0)
    checks.add("psi_closed_form_violations", bad_closed, 0, bad_closed == 0)
    # the exhaustive kernel and law windows, clamped to the walk
    k_len, law_len = min(length, 12), min(length, 10)
    short = WalkWindow(0, walk.increments[:k_len])
    bad_kernel = 0
    for p in range(0, k_len + 1):
        for n in range(p, k_len + 1):
            for radius in range(0, 4):
                x = point(1, radius, params.N)
                if kernel_compose(short, params, p, n, x) != \
                        kernel_closed_form(short, params, p, n, x):
                    bad_kernel += 1
    checks.add("kernel_closed_form_violations", bad_kernel, 0, bad_kernel == 0)
    law_walk = WalkWindow(0, walk.increments[:law_len])
    cond = kernel_is_conditional_law(law_walk, params, 0, law_len, junction(params.N))
    checks.add("kernel_conditional_law", cond, True, cond)
    checks.work = [
        {"check": "psi_cocycle_violations", "trials": trials},
        {"check": "psi_closed_form_violations", "comparisons": trials},
        {"check": "kernel_closed_form_violations",
         "grid_cells": (k_len + 1) * (k_len + 2) // 2 * 4},
        {"check": "kernel_conditional_law",
         "assignments": params.N ** len(departure_candidates(law_walk, 0, law_len))},
    ]
    _write_csv(out / "flow_check.csv", ["check", "violations"],
               [[r["name"], r["value"]] for r in checks.rows])
    return checks


def convergence_chunks(params, seed: int, s: float, big_t: float, n: int,
                       replicas: int) -> Iterator[tuple[range, FlowRealization]]:
    """(replicas, realization) of each chunk of ``starflow convergence``'s
    replicas at scale n: replica r draws its walk from stream 10_000 + r and
    its marks from stream 20_000 + r on the window [min(floor(ns), 0),
    ceil(n(s + T)) + 1].

    A chunk holds the rows of one ``walk.row_blocks`` block, at 16 of its
    one-byte steps per window step, so up to 8,192 window steps.  The pass
    holds up to ``config.PASS_BYTES_PER_STEP`` bytes a window step; traced, a
    full chunk takes 1.5 MB, less than one replica's 2.4 MB at n = 10^4,
    where a chunk is one replica.
    """
    p_min, p_max = min(math.floor(n * s), 0), math.ceil(n * (s + big_t)) + 1
    for rows in row_blocks(replicas, 16 * (p_max - p_min)):
        reps = range(rows.start, rows.stop)
        yield reps, FlowRealization.generate(params, p_min, p_max, seed,
                                             [10_000 + r for r in reps],
                                             [20_000 + r for r in reps])


def run_convergence(cfg: RunConfig, out: Path) -> CheckList:
    checks = CheckList()
    params = cfg.ray_params()
    n_list = list(cfg.n_list)
    replicas = 50 if cfg.replicas >= 1000 else max(cfg.replicas // 20, 5)
    x = point(cfg.x_ray, cfg.x_radius, params.N)
    counts = ("times", "beta_pairs", "beta_evaluations", "beta_solves")
    checks.work = [{"n": n, "replicas": replicas, **dict.fromkeys(counts, 0)} for n in n_list]
    sups = {}  # (replica, n) -> (sup_beta, sup_distance)
    betas = {}  # beta by pair of measures, shared by every n and replica
    for n, work in zip(n_list, checks.work):
        for reps, fr in convergence_chunks(params, cfg.seed, cfg.s, cfg.T, n, replicas):
            rows = convergence_profiles(fr, params, cfg.s, cfg.T, x, n, betas=betas)
            for rep, row in zip(reps, rows):
                sups[rep, n] = row["sup_beta"], row["sup_distance"]
                for count in counts:
                    work[count] += row[count]
    # the rows in replica order, as one pass per replica would give them
    beta_rows = [[n, rep, sups[rep, n][0]] for rep in range(replicas) for n in n_list]
    dist_rows = [[n, rep, sups[rep, n][1]] for rep in range(replicas) for n in n_list]
    _write_csv(out / "convergence_beta.csv", ["n", "replica", "sup_beta"], beta_rows)
    _write_csv(out / "convergence_distance.csv", ["n", "replica", "sup_distance"],
               dist_rows)
    # statistics.median, not np.median, which imports numpy.ma on first use
    medians_beta = [float(statistics.median(r[2] for r in beta_rows if r[0] == n))
                    for n in n_list]
    medians_dist = [float(statistics.median(r[2] for r in dist_rows if r[0] == n))
                    for n in n_list]
    dec_beta = all(a > b for a, b in zip(medians_beta, medians_beta[1:]))
    dec_dist = all(a > b for a, b in zip(medians_dist, medians_dist[1:]))
    checks.add("beta_profile_decreasing", medians_beta, "strictly decreasing", dec_beta)
    checks.add("distance_profile_decreasing", medians_dist, "strictly decreasing",
               dec_dist)
    line_plot(out / "convergence.svg",
              {"median sup beta": (n_list, medians_beta),
               "median sup distance": (n_list, medians_dist)},
              title="Convergence profiles (self-consistency proxy, "
                    "not the a.s. coupled limit)",
              x_label="n", y_label="median sup")
    return checks


SUBCOMMANDS = {
    "cv-check": run_cv_check,
    "chain-donsker": run_chain_donsker,
    "flip-check": run_flip_check,
    "flow-check": run_flow_check,
    "convergence": run_convergence,
}


# built once, on import: building it reads the locale, which would
# otherwise be imported inside the first run
PARSER = argparse.ArgumentParser(
    prog="starflow", description="Verification suites for star-graph flow approximations.")
PARSER.add_argument("subcommand", choices=[*SUBCOMMANDS, "all"])
PARSER.add_argument("--config", default=None, help="flat key = value file")
PARSER.add_argument("--output-dir", default=None, help="override output_dir")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.output_dir:
        cfg.output_dir = args.output_dir
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: output_dir: {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    names = list(SUBCOMMANDS) if args.subcommand == "all" else [args.subcommand]
    failed = False
    for name in names:
        start = time.perf_counter()
        try:
            checks = SUBCOMMANDS[name](cfg, out)
        except StarflowError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            return 2
        _write_manifest(out, name, cfg, checks, time.perf_counter() - start)
        for row in checks.rows:
            print(f"{name}: {row['name']}: {row['status']} "
                  f"(value={row['value']}, threshold={row['threshold']})")
        failed = failed or not checks.ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

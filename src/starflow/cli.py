"""Batch command-line entry point.

Subcommands run the verification suites at config-controlled scale and emit
deterministic artifacts into the output directory: a manifest JSON (config
echo, seed, content hash), per-check CSV, and SVG profile plots.  The exit
code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chain import flip_batches, flip_realization, simulate_chain_batch, transition_counts
from .config import RunConfig, load_config
from .cv import cv_deviation_batch, cv_forward_increments, cv_inverse_increments
from .errors import ConfigError, StarflowError
from .flows import (FlowRealization, kernel_closed_form, kernel_compose,
                    kernel_is_conditional_law, psi_closed_form, psi_compose)
from .graph import junction, point
from .limit import convergence_profiles
from .rng import make_rng
from .stats import (chi_square, chi_square_pvalue, updown_chi_square,
                    walsh_marginal_check)
from .svg import line_plot
from .walk import WalkWindow, generate_walk, random_increments

# fixed stream ids per purpose, so subcommands never share draws
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

    def add(self, name: str, value, threshold, passed: bool):
        self.rows.append({"name": name, "status": "pass" if passed else "FAIL",
                          "value": value, "threshold": threshold})

    @property
    def ok(self) -> bool:
        return all(r["status"] == "pass" for r in self.rows)


def _write_manifest(out: Path, subcommand: str, cfg: RunConfig, checks: CheckList):
    config_dict = cfg.as_dict()
    # where the artifacts go is not an input: leave it out of the hash
    hashed = {k: v for k, v in config_dict.items() if k != "output_dir"}
    digest = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()
    manifest = {
        "subcommand": subcommand,
        "config": config_dict,
        "seed": cfg.seed,
        "version": __version__,
        "input_hash": digest,
        "checks": checks.rows,
    }
    (out / f"{subcommand}_manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str) + "\n")


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_cv_check(cfg: RunConfig, out: Path) -> CheckList:
    checks = CheckList()
    incs = random_increments((cfg.replicas, cfg.length), cfg.seed, STREAM_WALK)
    dev = cv_deviation_batch(incs)
    checks.add("cv_bound_max_deviation", int(dev.max()), 2, bool(dev.max() <= 2))
    bars = cv_forward_increments(incs)
    even = cv_forward_increments(-incs)
    checks.add("cv_even", int(np.abs(bars - even).max()), 0, bool((bars == even).all()))
    back = cv_inverse_increments(bars, incs[:, 0])
    checks.add("cv_roundtrip", int(np.abs(back - incs).max()), 0,
               bool((back == incs).all()))
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
        checks.add(f"{label}_chi2", report["chi2_pvalue"], "> adjusted level",
                   report["chi2_pass"])
        rows.append([label, report["ks_statistic"], report["ks_critical"],
                     report["chi2_statistic"], report["chi2_pvalue"]])
    _write_csv(out / "chain_donsker.csv",
               ["chain", "ks_stat", "ks_crit", "chi2_stat", "chi2_p"], rows)
    return checks


def _flip_replica_checks(params, cfg: RunConfig, replicas: int) -> tuple[int, np.ndarray]:
    """(worst bound deviation, junction exits per ray) over the short flip
    replicas; their batches are released when this returns."""
    worst = 0
    exits = np.zeros(params.N, dtype=np.int64)
    stream_ids = range(STREAM_FLIP * 1000, STREAM_FLIP * 1000 + 10 * replicas, 10)
    for batch in flip_batches(params, cfg.length, cfg.seed, stream_ids):
        worst = max(worst, int(batch.bound_deviation().max()))
        # junction exits follow the marks, which are independent of the walk,
        # so truncation at the last completed block cannot bias them
        exits += batch.exit_counts()
    return worst, exits


def run_flip_check(cfg: RunConfig, out: Path) -> CheckList:
    checks = CheckList()
    params = cfg.ray_params()
    replicas = max(cfg.replicas // 10, 10)
    worst, exits = _flip_replica_checks(params, cfg, replicas)
    # interior up/down frequencies do get biased by that truncation (it is a
    # look-ahead boundary), and the bias does not average out over short
    # replicas; on long paths it is negligible, so count those separately
    up_by_r = np.zeros(1, dtype=np.int64)
    down_by_r = np.zeros(1, dtype=np.int64)
    long_len = max(cfg.length, 20 * cfg.replicas)
    for r in range(5):
        # keep only the chain: the long walks held into the next replica
        # would raise the peak memory of this loop by about a tenth
        result = flip_realization(params, long_len, cfg.seed,
                                  STREAM_FLIP * 7919 + 10 * r)[0]
        counts = transition_counts(result.chain)
        up_by_r = _pad_add(up_by_r, counts["up_by_r"])
        down_by_r = _pad_add(down_by_r, counts["down_by_r"])
    checks.add("flip_bound_max_deviation", worst, 2, worst <= 2)
    stat, dof = chi_square(exits, params.alpha)
    p_exit = chi_square_pvalue(stat, dof)
    checks.add("flip_exit_chi2", p_exit, "> 0.005", p_exit > 0.005)
    stat2, dof2 = updown_chi_square(up_by_r, down_by_r)
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
    walk = generate_walk(0, length, cfg.seed, STREAM_WALK)
    fr = FlowRealization.generate(walk, params, cfg.seed, STREAM_ETA)
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
    short = WalkWindow(0, walk.increments[:12])
    bad_kernel = 0
    for p in range(0, 13):
        for n in range(p, 13):
            for radius in range(0, 4):
                x = point(1, radius, params.N)
                if kernel_compose(short, params, p, n, x) != \
                        kernel_closed_form(short, params, p, n, x):
                    bad_kernel += 1
    checks.add("kernel_closed_form_violations", bad_kernel, 0, bad_kernel == 0)
    cond = kernel_is_conditional_law(WalkWindow(0, walk.increments[:10]), params,
                                     0, 10, junction(params.N))
    checks.add("kernel_conditional_law", cond, True, cond)
    _write_csv(out / "flow_check.csv", ["check", "violations"],
               [[r["name"], r["value"]] for r in checks.rows])
    return checks


def run_convergence(cfg: RunConfig, out: Path) -> CheckList:
    checks = CheckList()
    params = cfg.ray_params()
    n_list = list(cfg.n_list)
    replicas = 50 if cfg.replicas >= 1000 else max(cfg.replicas // 20, 5)
    x = point(cfg.x_ray, cfg.x_radius, params.N)
    beta_rows, dist_rows = [], []
    for rep in range(replicas):
        def fr_for_n(n, rep=rep):
            horizon = int(math.ceil(n * (cfg.s + cfg.T))) + 1
            walk = generate_walk(min(int(n * cfg.s), 0), horizon, cfg.seed, 10_000 + rep)
            return FlowRealization.generate(walk, params, cfg.seed, 20_000 + rep)

        for row in convergence_profiles(fr_for_n, params, cfg.s, cfg.T, x, n_list):
            beta_rows.append([row["n"], rep, row["sup_beta"]])
            dist_rows.append([row["n"], rep, row["sup_distance"]])
    _write_csv(out / "convergence_beta.csv", ["n", "replica", "sup_beta"], beta_rows)
    _write_csv(out / "convergence_distance.csv", ["n", "replica", "sup_distance"],
               dist_rows)
    medians_beta = [float(np.median([r[2] for r in beta_rows if r[0] == n]))
                    for n in n_list]
    medians_dist = [float(np.median([r[2] for r in dist_rows if r[0] == n]))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="starflow",
        description="Verification suites for star-graph flow approximations.")
    parser.add_argument("subcommand", choices=[*SUBCOMMANDS, "all"])
    parser.add_argument("--config", default=None, help="flat key = value file")
    parser.add_argument("--output-dir", default=None, help="override output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.output_dir:
        cfg.output_dir = args.output_dir
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = list(SUBCOMMANDS) if args.subcommand == "all" else [args.subcommand]
    failed = False
    for name in names:
        try:
            checks = SUBCOMMANDS[name](cfg, out)
        except StarflowError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            return 2
        _write_manifest(out, name, cfg, checks)
        for row in checks.rows:
            print(f"{name}: {row['name']}: {row['status']} "
                  f"(value={row['value']}, threshold={row['threshold']})")
        failed = failed or not checks.ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

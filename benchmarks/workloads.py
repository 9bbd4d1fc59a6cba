"""The four benchmark workloads: generated configs, CLI steps, oracle sweep.

Why each workload exists, and which layers it loads or bypasses, is written
in NOTES.md beside this file.  Each workload has a full size, which the
benchmark measures, and a tiny size for the benchmark's own smoke tests.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from checks import Tally

PARAMS_TEXT = "N = 3\nalpha = 1/2, 1/3, 1/6\n"

# tolerance of beta_distance (HiGHS LP) against the exact vertex enumeration
BETA_TOLERANCE = 2e-3


@dataclass(frozen=True)
class Workload:
    name: str
    subcommands: tuple[str, ...]
    config: dict
    sizes: dict = field(default_factory=dict)  # oracle sweep sizes, if any

    def config_text(self, seed: int) -> str:
        keys = "".join(f"{k} = {v}\n" for k, v in self.config.items())
        return f"{PARAMS_TEXT}seed = {seed}\n{keys}"


# (support size of P, support size of Q) for each beta pair.  The vertex
# oracle's cost grows from about 5 ms at two support points to about 1.5 s at
# four, so the schedule is fixed and only positions and weights are random.
BETA_SUPPORTS = ((2, 2),) + ((2, 1), (1, 2)) * 10 + ((1, 1),) * 19

WORKLOADS = {
    "batch-array": Workload("batch-array", ("cv-check", "chain-donsker"),
                            {"replicas": 10_000, "length": 1_000}),
    "flip-loop": Workload("flip-loop", ("flip-check",),
                          {"replicas": 20_000, "length": 1_000}),
    "convergence": Workload("convergence", ("convergence",),
                            {"replicas": 100, "n_list": "100, 1000", "x_radius": 0.5}),
    "exact-oracles": Workload("exact-oracles", ("flow-check",), {"length": 64},
                              {"walk_length": 7, "law_windows": ((12, 6), (16, 8)),
                               "beta_supports": BETA_SUPPORTS}),
}

TINY = {
    "batch-array": Workload("batch-array", ("cv-check", "chain-donsker"),
                            {"replicas": 400, "length": 50}),
    "flip-loop": Workload("flip-loop", ("flip-check",),
                          {"replicas": 400, "length": 200}),
    "convergence": Workload("convergence", ("convergence",),
                            {"replicas": 100, "n_list": "16, 64", "x_radius": 0.5}),
    "exact-oracles": Workload("exact-oracles", ("flow-check",), {"length": 16},
                              {"walk_length": 3, "law_windows": ((6, 3),),
                               "beta_supports": ((2, 1), (1, 1))}),
}

SIZES = {"full": WORKLOADS, "tiny": TINY}


def sub_seed(seed: int, index: int) -> int:
    """The config seed of the index-th input of a run with this seed."""
    digest = hashlib.sha256(f"starflow-bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def run_body(workload: Workload, config: Path, out: Path, seed: int, params,
             tally: Tally) -> list[tuple[str, object]]:
    """The timed part of one run: each CLI subcommand, then the oracle sweep.

    Returns (subcommand, exit code) pairs; an exception raised by the CLI is
    recorded in place of the exit code, so it counts as a failed check.
    """
    from starflow import cli

    codes = []
    for sub in workload.subcommands:
        try:
            code = cli.main([sub, "--config", str(config), "--output-dir", str(out)])
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            code = f"{type(exc).__name__}: {exc}"
        codes.append((sub, code))
    if workload.sizes:
        oracle_sweep(params, workload.sizes, seed, tally)
    return codes


def oracle_sweep(params, sizes: dict, seed: int, tally: Tally) -> None:
    """Library use of the oracles, each comparison counted as one check."""
    from starflow import beta, flows, graph, walk

    rng = np.random.default_rng(seed)
    length = sizes["walk_length"]
    eta = rng.integers(1, params.N + 1, size=length)
    for bits in itertools.product((1, -1), repeat=length):
        w = walk.WalkWindow(0, np.array(bits))
        fr = flows.FlowRealization(w, eta, params)
        ray = int(rng.integers(1, params.N + 1))
        for p in range(length + 1):
            for n in range(p, length + 1):
                for radius in range(4):
                    x = graph.point(ray, radius, params.N)
                    tally.check(flows.psi_closed_form(fr, p, n, x)
                                == flows.psi_compose(fr, p, n, x),
                                ("psi closed form != compose", bits, p, n, x))
                    tally.check(flows.kernel_closed_form(w, params, p, n, x)
                                == flows.kernel_compose(w, params, p, n, x),
                                ("kernel closed form != compose", bits, p, n, x))
    for window, free in sizes["law_windows"]:
        w = walk.WalkWindow(0, walk_with_departures(rng, window, free))
        for x in (graph.junction(params.N), graph.point(1, 2, params.N)):
            tally.check(flows.kernel_is_conditional_law(w, params, 0, window, x),
                        ("kernel is not the conditional law", w.increments.tolist(), x))
    for support in sizes["beta_supports"]:
        p_meas, q_meas = random_measure_pair(rng, params.N, support)
        lp = beta.beta_distance(p_meas, q_meas)
        exact = beta.beta_vertex_oracle(p_meas, q_meas)
        tally.check(abs(lp - exact) <= BETA_TOLERANCE,
                    ("beta LP vs vertex oracle", lp, exact, p_meas, q_meas))


def walk_with_departures(rng, length: int, free: int) -> np.ndarray:
    """A random +-1 walk whose running minimum is attained at exactly `free`
    of the times 0..length-1.  Those are the marks the conditional-law check
    enumerates (N**free assignments), so fixing the number fixes its cost."""
    while True:
        bits = rng.choice(np.array([1, -1]), size=length)
        values = np.concatenate([[0], np.cumsum(bits)])[:length]
        if int(np.sum(values == np.minimum.accumulate(values))) == free:
            return bits


def random_measure_pair(rng, n_rays: int, support: tuple[int, int]):
    """Two measures on distinct non-junction points with weights in tenths."""
    from starflow.graph import DiscreteMeasure, point

    points: list = []
    while len(points) < sum(support):
        candidate = point(int(rng.integers(1, n_rays + 1)), int(rng.integers(1, 5)), n_rays)
        if candidate not in points:
            points.append(candidate)
    measures = []
    for chunk in (points[: support[0]], points[support[0]:]):
        cuts = np.sort(rng.choice(np.arange(1, 10), size=len(chunk) - 1, replace=False))
        weights = np.diff(np.concatenate([[0], cuts, [10]]))
        measures.append(DiscreteMeasure((pt, Fraction(int(w), 10))
                                        for pt, w in zip(chunk, weights)))
    return measures

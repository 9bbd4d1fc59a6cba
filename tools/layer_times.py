"""Median per-call wall time of the batched layers of this checkout.

    python3 tools/layer_times.py

starflow is imported from ``src`` of the checkout this script sits in, so a
copy of it in a ``git archive`` checkout of another commit times that
commit.  Only public functions are called, at seed 1.  Each layer runs once
to warm up and then ``REPEATS`` times in this process; the table gives the
median and the quartiles (``statistics.quantiles``, inclusive) of those
calls.

The sizes are those of the benchmark's workloads: ``batch-array`` runs
``cv-check`` and ``chain-donsker`` at 10^4 replicas of 10^3 steps, and
``flip-loop`` runs ``flip-check`` at replicas = 20,000 and length = 1,000,
which flips 2,000 short replicas of 1,000 steps and five long paths of
400,000 steps on the streams that ``cli.flip_stream_ids`` names.  A second
table gives, per flip population, the batches and the columns flipped over
them (rows x width) against the walk steps drawn.
``excursion_table`` alone decomposes the reflected paths Y-bar of
``cv-check``'s 10^4 walks in one call; they are built on its warm-up call.

The subcommand rows time the bodies of ``cli.run_cv_check``,
``run_chain_donsker`` and ``run_flip_check`` at those sizes, CSV written
into a temporary directory: once in this process alone (``cli._cpus``
patched to 1) and once on the default process count: two, one of them a
forked worker, on Linux when this process may run on two or more CPUs.

The convergence rows run from the junction over [0, 1] on the window and
the walk and mark streams of ``starflow convergence``.  One
``convergence_profiles`` call runs on one replica and on one chunk of 5
replicas (the ``convergence`` workload's count) at n = 10^3 and at
n = 10^4.  The README config's whole pass runs 50 replicas at n = 10^2,
10^3 and 10^4, n by n over the chunks of ``cli.convergence_chunks``, which
share one dict of solved pairs.  The draws are timed with the calls.  Every
call, warm-up included, starts from an empty dict.  ``beta_distance`` is timed per call:
one call of the row solves a fixed mix of pairs, Diracs and alpha spreads
against Diracs and spreads, on one ray and across rays, and its time is
divided by their number.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starflow import cli  # noqa: E402
from starflow.beta import beta_distance  # noqa: E402
from starflow.chain import flip_batches, simulate_chain_batch  # noqa: E402
from starflow.cli import (STREAM_CHAIN, STREAM_WALK, convergence_chunks,  # noqa: E402
                          flip_stream_ids)
from starflow.config import parse_config  # noqa: E402
from starflow.cv import cv_check_blocks, transform  # noqa: E402
from starflow.flows import FlowRealization  # noqa: E402
from starflow.graph import DiscreteMeasure, GraphPoint, RayParams, junction  # noqa: E402
from starflow.limit import convergence_profiles  # noqa: E402
from starflow.walk import excursion_table, increment_blocks  # noqa: E402

SEED = 1
REPEATS = 7
REPLICAS, LENGTH = 10_000, 1_000
FLIP_REPLICAS = 20_000
FLIP_SHORT, FLIP_LONG, FLIP_LONG_LENGTH = flip_stream_ids(FLIP_REPLICAS, LENGTH)
PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))


def walk_transform() -> None:
    for x in increment_blocks(REPLICAS, LENGTH, SEED, STREAM_WALK):
        transform(x)


@functools.cache
def reflected_paths() -> np.ndarray:
    """Y-bar of cv-check's walks, (REPLICAS, LENGTH), built once, on the
    warm-up call of ``excursion_table``."""
    parts = [t.runmax - t.sbar
             for t in map(transform, increment_blocks(REPLICAS, LENGTH, SEED, STREAM_WALK))]
    return np.concatenate(parts)


def flips(length: int, stream_ids: range) -> None:
    for _ in flip_batches(PARAMS, length, SEED, stream_ids):
        pass


def flipped_columns(length: int, stream_ids: range) -> tuple[int, int]:
    """(batches, flipped columns) of ``flip_batches``: the columns are
    rows x width summed over the batches."""
    sizes = [batch.radii.size for batch in flip_batches(PARAMS, length, SEED, stream_ids)]
    return len(sizes), sum(sizes)


def convergence_chunk(n: int, replicas: int) -> None:
    """One call on replicas 0, 1, ... of ``starflow convergence`` at scale n,
    drawn in one chunk."""
    fr = FlowRealization.generate(PARAMS, 0, n + 1, SEED, range(10_000, 10_000 + replicas),
                                  range(20_000, 20_000 + replicas))
    convergence_profiles(fr, PARAMS, 0.0, 1.0, junction(PARAMS.N), n)


def convergence_pass(n_list: list[int], replicas: int) -> None:
    betas = {}
    for n in n_list:
        for _, fr in convergence_chunks(PARAMS, SEED, 0.0, 1.0, n, replicas):
            convergence_profiles(fr, PARAMS, 0.0, 1.0, junction(PARAMS.N), n, betas=betas)


def measure_pairs() -> list[tuple[DiscreteMeasure, DiscreteMeasure]]:
    """The fixed mix of pairs that beta_distance is timed on."""
    def side(kind: int, radius: float) -> DiscreteMeasure:
        if kind == 0:
            return DiscreteMeasure.ray_spread(PARAMS, radius)
        return DiscreteMeasure.dirac(GraphPoint(kind, radius))

    radii = [0.1 * k + 0.013 for k in range(1, 11)]
    return [(side(p, a), side(q, b)) for p in range(PARAMS.N + 1)
            for q in range(PARAMS.N + 1) for a, b in zip(radii, radii[3:] + radii[:3])]


PAIRS = measure_pairs()


def solve_pairs() -> None:
    for p, q in PAIRS:
        beta_distance(p, q)


def subcommand(run, replicas: int, processes: int | None) -> None:
    """One call of a ``cli.run_*`` body at seed 1 and LENGTH steps, on
    ``processes`` CPUs, or on the CPUs of this process if None."""
    cfg = parse_config(f"N = 3\nalpha = 1/2, 1/3, 1/6\nseed = {SEED}\n"
                       f"replicas = {replicas}\nlength = {LENGTH}\n")
    cpus = (mock.patch.object(cli, "_cpus", lambda: processes) if processes
            else contextlib.nullcontext())
    with tempfile.TemporaryDirectory() as out, cpus:
        run(cfg, Path(out))


SIZE = f"{REPLICAS} x {LENGTH}"
DEFAULT = f"{cli._processes(2)} proc"
SUBCOMMANDS = [(f"{run.__name__}, {label}", f"{replicas} x {LENGTH}",
                functools.partial(subcommand, run, replicas, processes))
               for run, replicas in ((cli.run_cv_check, REPLICAS),
                                     (cli.run_chain_donsker, REPLICAS),
                                     (cli.run_flip_check, FLIP_REPLICAS))
               for label, processes in (("1 proc", 1), (DEFAULT, None))]
LAYERS = [
    ("increment_blocks + transform", SIZE, walk_transform),
    ("excursion_table", SIZE, lambda: excursion_table(reflected_paths())),
    ("cv_check_blocks (walks included)", SIZE,
     lambda: cv_check_blocks(increment_blocks(REPLICAS, LENGTH, SEED, STREAM_WALK))),
    ("simulate_chain_batch, immediate exit", SIZE,
     lambda: simulate_chain_batch(PARAMS, LENGTH, REPLICAS, SEED, STREAM_CHAIN)),
    ("simulate_chain_batch, lazy", SIZE,
     lambda: simulate_chain_batch(PARAMS, LENGTH, REPLICAS, SEED, STREAM_CHAIN + 1,
                                  lazy=True)),
    ("flip_batches, short replicas", f"{len(FLIP_SHORT)} x {LENGTH}",
     lambda: flips(LENGTH, FLIP_SHORT)),
    ("flip_batches, long paths", f"{len(FLIP_LONG)} x {FLIP_LONG_LENGTH}",
     lambda: flips(FLIP_LONG_LENGTH, FLIP_LONG)),
    *SUBCOMMANDS,
    ("beta_distance, per call", f"{len(PAIRS)} pairs", solve_pairs, len(PAIRS)),
    ("convergence_profiles, 1 replica", "n = 10^3", lambda: convergence_chunk(1_000, 1)),
    ("convergence_profiles, 1 replica", "n = 10^4", lambda: convergence_chunk(10_000, 1)),
    ("convergence_profiles, 5-replica chunk", "n = 10^3", lambda: convergence_chunk(1_000, 5)),
    ("convergence_profiles, 5-replica chunk", "n = 10^4",
     lambda: convergence_chunk(10_000, 5)),
    ("convergence pass, README config", "50 x 3 n",
     lambda: convergence_pass([100, 1_000, 10_000], 50)),
]


def time_calls(call, per: int = 1) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) in seconds of REPEATS calls,
    after one warm-up call, each divided by per, the calls of the layer that
    one call makes."""
    call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) / per)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def main() -> int:
    print(f"{'layer':<38} {'size':<14} {'median_s':>9} {'q1_s':>9} {'q3_s':>9}")
    for name, size, call, *per in LAYERS:
        median, q1, q3 = time_calls(call, *per)
        print(f"{name:<38} {size:<14} {median:9.4g} {q1:9.4g} {q3:9.4g}", flush=True)
    print(f"\n{'flip population':<38} {'batches':>9} {'columns':>11} {'steps':>11}")
    for name, length, ids in (("short replicas", LENGTH, FLIP_SHORT),
                              ("long paths", FLIP_LONG_LENGTH, FLIP_LONG)):
        batches, columns = flipped_columns(length, ids)
        print(f"{name:<38} {batches:>9} {columns:>11} {len(ids) * length:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The library surface the benchmark in ``benchmarks/`` reaches.

The benchmark installs its tracer over named starflow functions and calls the
exact oracles by their module paths.  This runs its oracle sweep at the tiny
``exact-oracles`` sizes under the tracer, so deleting or moving a name it
reaches fails here.
"""

from fractions import Fraction
from pathlib import Path

import starflow.cli  # noqa: F401  (the tracer wraps every layer module)
from starflow.graph import RayParams

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def test_benchmark_oracle_sweep_under_the_tracer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    from checks import Tally
    from spans import Tracer
    from workloads import TINY, oracle_sweep

    params = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    tally, tracer = Tally(), Tracer()
    tracer.install()
    try:
        oracle_sweep(params, TINY["exact-oracles"].sizes, 5, tally)
    finally:
        tracer.uninstall()
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures
    assert tracer.spans

"""One benchmark iteration in a fresh process.

Started by run.py with ``src`` on PYTHONPATH and the BLAS/OpenMP thread count
pinned.  It imports ``starflow.cli`` and parses the generated config (the
set-up), runs the workload body once, then counts its checks and writes a
JSON result file.  Set-up time runs from ``--spawned``, a CLOCK_MONOTONIC
reading the parent took just before starting this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced spans here")
    args = parser.parse_args()

    import numpy
    import scipy
    import starflow.cli  # noqa: F401  (the set-up a CLI user pays)
    from starflow.config import load_config

    cfg = load_config(args.config)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned

    from checks import Tally, account_subcommand, artifact_bytes, artifact_digests
    from spans import Tracer
    from workloads import SIZES, run_body

    workload = SIZES[args.size][args.workload]
    tally = Tally()
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    codes = run_body(workload, args.config, args.out, args.seed, cfg.ray_params(), tally)
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.uninstall()

    for sub, code in codes:
        account_subcommand(tally, args.out, sub, code)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "exit_codes": dict(codes),
        "digests": artifact_digests(args.out),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "starflow": starflow.__version__},
    }
    if tracer:
        layers = tracer.layer_metrics()
        layers["cli.artifact_bytes"] = artifact_bytes(args.out)
        traced = tracer.traced_seconds()
        layers["trace.outside_s"] = wall_s - traced
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        # layer self times partition the time inside starflow calls, which
        # cannot exceed the traced wall time
        tally.check(abs(self_total - traced) <= 1e-6 * max(traced, 1.0) and traced <= wall_s,
                    f"trace accounting: self times {self_total}, traced {traced}, wall {wall_s}")
        result.update(layers=layers, spans=len(tracer.spans))
        if args.spans:
            args.spans.write_text(json.dumps(tracer.spans))
    result["tally"] = vars(tally)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

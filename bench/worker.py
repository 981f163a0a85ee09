"""One benchmark pass in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --mode pass|setup
                            --trace 0|1 --scale full|tiny --workdir DIR [--spans FILE]

run.py starts one of these per pass, with `src` on PYTHONPATH.  The clock
starts before numpy, mpmath and permfix are imported, so ``setup_s`` covers
those imports and the building of the workload's inputs.  ``--mode setup``
stops there; ``--mode pass`` then times the workload, runs its correctness
checks and prints one JSON line.  Times are reported at reference speed
(bench/speed.py), with the raw wall times beside them.
"""
import time

T0 = time.perf_counter()

from speed import Speedometer  # noqa: E402

SPEED = Speedometer()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "setup"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, Path(args.workdir))
    setup_end = SPEED.clock()
    result = {
        "setup_s": SPEED.normalize(T0, setup_end),
        "setup_raw_s": setup_end - T0,
        "env": environment(),
    }
    if args.mode == "pass":
        result.update(run_pass(workload, args))
    SPEED.stop()
    print(json.dumps(result))
    return 0


def run_pass(workload, args) -> dict:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(SPEED.clock)
        spans.install(tracer)
    start = SPEED.clock()
    items = workload.run(SPEED.clock)
    end = SPEED.clock()
    factor = SPEED.factor(start, end)
    for item in items:
        item["seconds"] = SPEED.normalize(item["start"], item["end"])
        item["raw_seconds"] = item["end"] - item["start"]
    out = {"wall_s": (end - start) * factor, "wall_raw_s": end - start, "speed_factor": factor, "items": items}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = spans.layer_metrics(tracer, scale=factor)
        if args.spans:
            tracer.dump(Path(args.spans))

    import workloads

    checks = workloads.Checks()
    out["digests"] = workload.check(checks)
    out["checks"] = checks.verdicts
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "PERMFIX_GUARD_N": os.environ.get("PERMFIX_GUARD_N"),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    raise SystemExit(main())

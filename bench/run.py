"""The permfix benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Run it from the repository root; the workloads and metrics are declared in
BENCHMARK.json.  Each pass of a workload runs in a fresh single-threaded
process (bench/worker.py), so imports, set-up and in-process caches are paid
per pass as a user pays them.  Passes repeat until the next one would end
after ``--seconds``; at least one always runs.  The children get the
numpy/BLAS thread variables pinned to 1 and PERMFIX_GUARD_N unset, and load
permfix from ``src``.

Times are measured on the process's own clock and reported at reference
speed (bench/speed.py): the host's speed is sampled during every interval,
so drift caused by other tenants of a shared machine does not move the
figures while a slower or faster program does.  Raw wall times stay in the
result files.  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics:

* ``wall_s``: median over passes of the timed region's time;
* ``setup_s``: median over at least five fresh processes of the time to
  import permfix and its dependencies and build the workload's inputs;
* ``peak_rss_mb``: median over passes of the pass process's peak RSS;
* ``work_per_s``: the workload's work units per second of the items doing
  them: replica-steps of `run_coupling` (mc-coupling), N values whose full
  certificate set completed (exact-sweep), permutations and orderings
  enumerated, computed from N! (enumerate);
* ``max_n_item_s``: the time of the workload's largest-N item alone.

The error rate is ``failed / attempted`` over every correctness check of
every pass, plus the comparison of each pass's digests with the first's.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
wrap permfix's public functions (bench/spans.py) and the line holds the
per-layer metrics (medians over traced passes) and ``trace.overhead_ratio``,
the median traced wall time over the median untraced one.

Details of every run (environment, per-item times, verdicts, digests) go to
``bench/results/``; spans of traced passes go there too.  Nothing is written
into permfix's data files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
MIN_SETUPS = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tree_digest(root: Path, pattern: str = "*") -> str:
    """sha256 over the relative paths and bytes of the files under root matching pattern."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PERMFIX_GUARD_N", None)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    """Starts the worker processes of one run and keeps the run's deadline."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.t0 = time.monotonic()
        self.count = 0

    def worker(self, mode: str, trace: int = 0) -> dict:
        self.count += 1
        WORK.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=WORK))
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--trace", str(trace), "--scale", self.scale, "--workdir", str(workdir),
        ]
        if trace:
            cmd += ["--spans", str(RESULTS / f"spans-{self.workload}-seed{self.seed}-{self.count}.json")]
        remaining = DEADLINE_S - (time.monotonic() - self.t0)
        try:
            if remaining <= 0:
                raise BenchError("run deadline passed")
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


def measure(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """Run the passes of one run and reduce them to the reported metrics."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, scale)
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(runner.worker("pass"))
        if trace:
            traced.append(runner.worker("pass", trace=1))
        per_round = runner.elapsed() / len(plain)
        if runner.elapsed() + per_round > seconds:
            break
    setups = [p["setup_s"] for p in plain]
    if not trace:
        while len(setups) < MIN_SETUPS:
            setups.append(runner.worker("setup")["setup_s"])

    passes = plain + traced
    verdicts = [(name, ok) for p in passes for name, ok in p["checks"]]
    for key, first in passes[0]["digests"].items():
        for k, p in enumerate(passes[1:], start=2):
            verdicts.append((f"pass {k}: digest of {key} equals pass 1's", p["digests"][key] == first))
    failed = [name for name, ok in verdicts if not ok]

    if trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain)
        )
        values = layers
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "work_per_s": statistics.median(work_rate(p["items"]) for p in plain),
            "max_n_item_s": statistics.median(
                sum(i["seconds"] for i in p["items"] if i["max_n"]) for p in plain
            ),
        }

    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "env": {
            **passes[0]["env"],
            "git_commit": git_commit(),
            "src_sha256": tree_digest(ROOT / "src", "*.py"),
        },
        "passes": passes,
        "setups_s": setups,
        "attempted": len(verdicts),
        "failed_checks": failed,
        "error_rate": len(failed) / len(verdicts),
        "metrics": metrics,
    }
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def work_rate(items: list[dict]) -> float:
    units = sum(i["units"] for i in items)
    seconds = sum(i["seconds"] for i in items if i["units"])
    return units / seconds


def report(record: dict) -> dict:
    """The result line; a readable summary goes to stderr."""
    passes = record["passes"]
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={len(passes)} error_rate={record['error_rate']:.4g} "
        f"({len(record['failed_checks'])} failed of {record['attempted']} checks); "
        f"raw wall {statistics.median(p['wall_raw_s'] for p in passes):.4g} s at median "
        f"speed factor {statistics.median(p['speed_factor'] for p in passes):.3f}",
        file=sys.stderr,
    )
    for name in record["failed_checks"]:
        print(f"  FAILED: {name}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {
        "correct": not record["failed_checks"],
        "attempted": record["attempted"],
        "failed": len(record["failed_checks"]),
        "metrics": record["metrics"],
    }


def selftest() -> int:
    """Every workload at tiny sizes, untraced and traced.

    `measure` already fails when a declared metric is not computed; this adds
    that every value is finite, end-to-end values are positive, and no check
    fails."""
    problems = []
    for w in load_spec()["workloads"]:
        for trace in (0, 1):
            result = report(measure(w["name"], seed=1, seconds=1, trace=trace, scale="tiny"))
            for name, entry in result["metrics"].items():
                if not math.isfinite(entry["value"]) or (trace == 0 and entry["value"] <= 0):
                    problems.append(f"{w['name']} trace={trace}: {name} = {entry['value']}")
            if result["failed"] or result["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: {result['failed']} of {result['attempted']} checks failed")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "permfix" / "__init__.py").is_file():
        print(f"bench: no permfix sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        names = [w["name"] for w in load_spec()["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        result = report(measure(args.workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's calls into permfix, run in process at its smallest scale.

The benchmark under bench/ calls permfix by name (bench/workloads.py) and
wraps its public functions by name for the per-layer metrics
(bench/spans.py).  Renaming or reshaping one of those names would otherwise
show only when the benchmark itself runs.  Every workload runs here at scale
"tiny", once plain and once traced, and every one of its checks must pass.
"""
import math
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return spans, workloads


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_every_workload_passes_its_checks(bench, tmp_path, traced):
    spans, workloads = bench
    assert workloads.WORKLOADS
    for name, workload_type in workloads.WORKLOADS.items():
        workload = workload_type(1, "tiny", tmp_path / name)
        tracer = spans.Tracer(time.perf_counter)
        if traced:
            spans.install(tracer)
        try:
            workload.run(time.perf_counter)
        finally:
            tracer.uninstall()
        checks = workloads.Checks()
        workload.check(checks)
        failed = [check for check, ok in checks.verdicts if not ok]
        assert checks.verdicts and not failed, (name, failed)
        if traced:
            metrics = spans.layer_metrics(tracer)
            assert metrics and all(math.isfinite(v) for v in metrics.values()), (name, metrics)

"""Span and counter shim for the traced benchmark run.

The shim measures each layer of permfix from outside the package.  It
replaces a public function by a wrapper at every binding the package holds
(``permfix.kernels.build_restricted`` and the copy that ``coupling`` imported
with ``from .kernels import build_restricted`` alike), so calls between
layers are seen as well as calls from the benchmark.  Each call records a
span ``[name, start, end, parent]`` in memory; counters are updated from the
call's arguments and return value.  Nothing under ``src/`` changes.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

CountFn = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str | None, fn: Callable, count: CountFn | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(record)
                record[1] = tracer.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = tracer.clock()
                    tracer._stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def wrap_function(self, module, attr: str, name: str | None, count: CountFn | None = None) -> None:
        """Wrap ``module.attr`` at every permfix binding of the same object.

        ``name=None`` wraps for counting only, without a span.
        """
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "permfix" and not mod_name.startswith("permfix."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, count: CountFn | None = None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- reading the spans ------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts only the outermost span of a name, so a function
        that calls itself is not counted twice; self time is a span's
        duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if not self._inside_same_name(i):
                row["busy_s"] += end - start
                row["self_s"] += end - start - child_time[i]
        return out

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# the permfix boundaries and the per-layer metrics read from them
# ---------------------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def install(tracer: Tracer) -> None:
    """Wrap the public functions the per-layer metrics are read from."""
    from permfix import altcouplings, cli, coupling, exactdist, kernels, lumping, moments, perms, rng

    def words(t, args, kwargs, result):
        t.add("rng.words", len(result))

    def replica_steps(t, args, kwargs, result):
        cfg = _arg(args, kwargs, 0, "cfg")
        t.add("coupling.replica_steps", cfg.replicas * cfg.horizon)

    def ascent_samples(t, args, kwargs, result):
        t.add("altcouplings.samples", _arg(args, kwargs, 0, "samples"))

    def mallows_samples(t, args, kwargs, result):
        t.add("altcouplings.samples", _arg(args, kwargs, 1, "replicas"))

    def orderings(t, args, kwargs, result):
        t.add("altcouplings.orderings", math.factorial(_arg(args, kwargs, 0, "N") + 1))

    def derangement_n(t, args, kwargs, result):
        n = _arg(args, kwargs, 0, "n_max")
        t.counters["exactdist.derangements.max_n"] = max(
            t.counters.get("exactdist.derangements.max_n", 0), n
        )

    def pairs(t, args, kwargs, result):
        t.add("kernels.check_reversibility.pairs_checked", result.pairs_checked)

    def permutations(t, args, kwargs, result):
        t.add("perms.permutations", math.factorial(_arg(args, kwargs, 0, "N")))

    def file_written(t, args, kwargs, result):
        t.add("cli.files_written", 1)
        t.add("cli.bytes_written", Path(result).stat().st_size)

    tracer.wrap_method(rng.VectorStreams, "uniforms", "rng.uniforms", words)
    tracer.wrap_function(coupling, "run_coupling", "coupling.run_coupling", replica_steps)
    tracer.wrap_function(coupling, "selector_kernels", "coupling.selector_kernels")
    tracer.wrap_function(coupling, "drift_certificate", "coupling.drift_certificate")
    tracer.wrap_function(altcouplings, "ascent_peak_batch", "altcouplings.ascent_peak_batch", ascent_samples)
    tracer.wrap_function(altcouplings, "mallows_discrepancy", "altcouplings.mallows_discrepancy", mallows_samples)
    tracer.wrap_function(altcouplings, "peak_tail_exact", "altcouplings.peak_tail_exact", orderings)
    tracer.wrap_function(exactdist, "derangements", "exactdist.derangements", derangement_n)
    tracer.wrap_function(exactdist, "fixed_point_pmf", "exactdist.fixed_point_pmf")
    tracer.wrap_function(exactdist, "tv_distance", "exactdist.tv_distance")
    tracer.wrap_function(exactdist, "log_rate", "exactdist.log_rate")
    tracer.wrap_function(kernels, "p_closedform", "kernels.p_closedform")
    tracer.wrap_function(kernels, "p_recursion", "kernels.p_recursion")
    tracer.wrap_function(kernels, "p_bruteforce", "kernels.p_bruteforce")
    tracer.wrap_function(kernels, "build_restricted", "kernels.build_restricted")
    tracer.wrap_function(kernels, "check_reversibility", "kernels.check_reversibility", pairs)
    tracer.wrap_function(lumping, "cycle_type_chain", "lumping.cycle_type_chain")
    tracer.wrap_function(lumping, "transposition_walk", "lumping.transposition_walk")
    tracer.wrap_function(lumping, "project", "lumping.project")
    tracer.wrap_function(lumping, "dynkin_check", "lumping.dynkin_check")
    tracer.wrap_function(moments, "gram_bruteforce", "moments.gram_bruteforce")
    tracer.wrap_function(perms, "iter_permutations", None, permutations)
    tracer.wrap_function(cli, "write_table", None, file_written)
    tracer.wrap_function(cli, "write_json", None, file_written)
    tracer.wrap_function(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of one traced pass; 0 for a layer the pass never
    called.  Times are multiplied by scale (the pass's reference-speed factor)."""
    spans = tracer.summary()
    counters = tracer.counters

    def span(name: str, field: str) -> float:
        value = spans.get(name, {}).get(field, 0.0)
        return value if field == "calls" else value * scale

    def per(total_s: float, count: float, scale: float) -> float:
        return total_s / count * scale if count else 0.0

    words = counters.get("rng.words", 0)
    steps = counters.get("coupling.replica_steps", 0)
    out = {
        "rng.words": words,
        "rng.ns_per_word": per(span("rng.uniforms", "busy_s"), words, 1e9),
        "coupling.run_coupling.busy_s": span("coupling.run_coupling", "busy_s"),
        "coupling.replica_steps": steps,
        "coupling.self_ns_per_replica_step": per(span("coupling.run_coupling", "self_s"), steps, 1e9),
        "altcouplings.ascent_peak_batch.busy_s": span("altcouplings.ascent_peak_batch", "busy_s"),
        "altcouplings.mallows_discrepancy.busy_s": span("altcouplings.mallows_discrepancy", "busy_s"),
        "altcouplings.samples": counters.get("altcouplings.samples", 0),
        "altcouplings.peak_tail_exact.busy_s": span("altcouplings.peak_tail_exact", "busy_s"),
        "altcouplings.orderings": counters.get("altcouplings.orderings", 0),
        "exactdist.derangements.calls": span("exactdist.derangements", "calls"),
        "exactdist.derangements.busy_s": span("exactdist.derangements", "busy_s"),
        "exactdist.derangements.max_n": counters.get("exactdist.derangements.max_n", 0),
        "exactdist.fixed_point_pmf.busy_s": span("exactdist.fixed_point_pmf", "busy_s"),
        "exactdist.tv_distance.busy_s": span("exactdist.tv_distance", "busy_s"),
        "exactdist.log_rate.busy_s": span("exactdist.log_rate", "busy_s"),
        "kernels.p_closedform.busy_s": span("kernels.p_closedform", "busy_s"),
        "kernels.p_recursion.busy_s": span("kernels.p_recursion", "busy_s"),
        "kernels.p_bruteforce.busy_s": span("kernels.p_bruteforce", "busy_s"),
        "kernels.build_restricted.busy_s": span("kernels.build_restricted", "busy_s"),
        "kernels.check_reversibility.busy_s": span("kernels.check_reversibility", "busy_s"),
        "kernels.check_reversibility.pairs_checked": counters.get(
            "kernels.check_reversibility.pairs_checked", 0
        ),
        "coupling.drift_certificate.calls": span("coupling.drift_certificate", "calls"),
        "coupling.drift_certificate.busy_s": span("coupling.drift_certificate", "busy_s"),
        "coupling.drift_certificate.self_s": span("coupling.drift_certificate", "self_s"),
        "lumping.cycle_type_chain.busy_s": span("lumping.cycle_type_chain", "busy_s"),
        "lumping.cycle_type_chain.self_s": span("lumping.cycle_type_chain", "self_s"),
        "lumping.transposition_walk.busy_s": span("lumping.transposition_walk", "busy_s"),
        "lumping.project.busy_s": span("lumping.project", "busy_s"),
        "lumping.dynkin_check.busy_s": span("lumping.dynkin_check", "busy_s"),
        "perms.permutations": counters.get("perms.permutations", 0),
        "moments.gram_bruteforce.busy_s": span("moments.gram_bruteforce", "busy_s"),
        "cli.main.busy_s": span("cli.main", "busy_s"),
        "cli.self_s": span("cli.main", "self_s"),
        "cli.files_written": counters.get("cli.files_written", 0),
        "cli.bytes_written": counters.get("cli.bytes_written", 0),
    }
    return out

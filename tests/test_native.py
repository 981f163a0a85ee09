"""The shares the compiled loops run in: how `native.shares` splits the
replicas, that it raises what any share raises after every share has
joined, and that on one CPU it starts no thread; the ascent/peak loop's
-1 for an unresolved replica; and the C source itself: that it compiles
without a warning and that every loop's ctypes declaration has its C
parameter count."""
import os
import re
import shutil
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from permfix import altcouplings, native
from permfix.coupling import RunConfig, run_coupling
from permfix.rng import scramble


def routines():
    """One call of each routine with a compiled loop, by the loop's name."""
    cfg = RunConfig(N=8, horizon=40, replicas=300, seed=9, checkpoints=(0, 20))
    return {
        "permfix_advance": lambda: run_coupling(cfg),
        "permfix_ascent_peak": lambda: altcouplings.ascent_peak_batch(300, seed=9, ns=(1, 4)),
        "permfix_mallows": lambda: altcouplings.mallows_discrepancy(10, replicas=300, K=20, seed=9),
    }


class Boom(RuntimeError):
    pass


def off_the_caller(result):
    """A fake loop: Boom in a share another thread runs, result in the caller's."""
    def loop(*args):
        if threading.current_thread() is not threading.main_thread():
            raise Boom("a share failed")
        return result
    return loop


class TestShares:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 61, 20_000])
    def test_contiguous_shares_in_order(self, monkeypatch, cpus, count):
        # k = min(cpus, count) slices, each of the floor or ceiling of
        # count / k, covering range(count) in order
        monkeypatch.setattr(native, "cpus", lambda: cpus)
        bounds = native.shares(lambda a, b: (a, b), count)
        k = min(cpus, count)
        assert len(bounds) == k
        assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
        assert bounds[-1][1] == count
        assert {b - a for a, b in bounds} <= {count // k, -(-count // k)}

    def test_the_caller_runs_the_last_share(self, monkeypatch):
        monkeypatch.setattr(native, "cpus", lambda: 3)
        runners = native.shares(lambda a, b: threading.current_thread(), 9)
        assert runners[-1] is threading.main_thread()
        assert threading.main_thread() not in runners[:-1]
        assert len(set(runners)) == 3

    def test_cpu_count_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert native.cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert native.cpus() == 1

    def test_affinity_mask_sets_the_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert native.cpus() == 3

    def test_many_shares_under_a_short_switch_interval(self, monkeypatch):
        # eight shares, whatever the CPUs, switching threads as often as the
        # interpreter allows: every share's result lands in its own slot
        monkeypatch.setattr(native, "cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                parts = native.shares(lambda a, b: [r * r for r in range(a, b)], 5000)
                assert sum(parts, []) == [r * r for r in range(5000)]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", [{0}, {6}, {2, 4}, {0, 2, 4, 6}])
    def test_an_error_is_raised_after_every_share_joined(self, monkeypatch, failing):
        # four shares of two: [0, 2), [2, 4), [4, 6) and the caller's [6, 8)
        monkeypatch.setattr(native, "cpus", lambda: 4)
        threads = threading.active_count()
        done = []

        def fn(a, b):
            if a in failing:
                raise Boom(f"share at {a}")
            done.append(a)

        with pytest.raises(Boom, match=f"share at {min(failing)}$"):
            native.shares(fn, 8)
        assert threading.active_count() == threads
        assert sorted(done) == sorted({0, 2, 4, 6} - failing)


class TestLoopsInShares:
    @pytest.mark.parametrize("loop", ["permfix_advance", "permfix_ascent_peak", "permfix_mallows"])
    def test_an_error_in_another_share_reaches_the_caller(self, monkeypatch, loop):
        fake = SimpleNamespace(**{
            name: off_the_caller(None if name == "permfix_advance" else 0)
            for name in ("permfix_advance", "permfix_ascent_peak", "permfix_mallows")
        })
        monkeypatch.setattr(native, "library", lambda: fake)
        monkeypatch.setattr(native, "cpus", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(Boom):
            routines()[loop]()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("caller", [True, False])
    def test_an_unresolved_replica_in_one_share_is_refused(self, monkeypatch, caller):
        # of two shares, the caller's or the other reports -1 and the other 0 ties
        def ascent_peak(base, first, count, joint):
            joint[1, 2] += count
            return -1 if (threading.current_thread() is threading.main_thread()) == caller else 0

        monkeypatch.setattr(native, "library", lambda: SimpleNamespace(permfix_ascent_peak=ascent_peak))
        monkeypatch.setattr(native, "cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="unresolved after 64 uniforms"):
            altcouplings.ascent_peak_batch(30, seed=1)

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        if shutil.which(native.BUILD[0]) is None:
            pytest.skip("no C compiler")
        assert native.library() is not None
        made = []

        class Counted(threading.Thread):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", Counted)
        expected = {}
        for mask, threads in (({0}, False), ({0, 1}, True)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask, raising=False)
            for name, routine in routines().items():
                made.clear()
                result = routine()
                assert bool(made) == threads
                if name == "permfix_advance":
                    result = result.by_time
                assert expected.setdefault(name, result) == result


# `next_word` and `next_words_lanes` made to return the previous word plus
# one: every replica rises from its first word on and never peaks
RISING_WORDS = (
    ("return scramble(*s += GOLDEN) >> (64 - WORD_BITS);", "return ++*s;"),
    (
        "*s = _mm512_add_epi64(*s, _mm512_set1_epi64((long long)GOLDEN));\n"
        "    return _mm512_srli_epi64(scramble_lanes(*s), 64 - WORD_BITS);",
        "return *s = _mm512_add_epi64(*s, _mm512_set1_epi64(1));",
    ),
)


class TestUnresolvedReplica:
    """Both compiled ascent/peak bodies, the lanes and the one-replica
    loop, return -1 when a replica has no peak after 64 words, having
    counted nothing, and the batch raises it."""

    @pytest.fixture
    def rising(self, monkeypatch, tmp_path):
        """The loops built from words that only rise, in a cache under
        tmp_path; the loaded library is dropped again on leaving."""
        if shutil.which(native.BUILD[0]) is None:
            pytest.skip("no C compiler")
        source = native.SOURCE
        for old, new in RISING_WORDS:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "SOURCE", source)
        native.library.cache_clear()
        try:
            lib = native.library()
            assert lib is not None
            yield lib
        finally:
            monkeypatch.undo()
            native.library.cache_clear()

    # under 16 replicas the one-replica loop runs alone; from 16 on the
    # lanes run first, where the CPU has them, and return before it
    @pytest.mark.parametrize("count", [1, 7, 8, 15, 16, 17, 33])
    def test_the_loop_returns_minus_one_and_counts_nothing(self, rising, count):
        joint = np.zeros((64, 64), dtype=np.int64)
        assert rising.permfix_ascent_peak(scramble(5), 3, count, joint) == -1
        assert not joint.any()

    def test_the_batch_raises(self, rising):
        with pytest.raises(RuntimeError, match="unresolved after 64 uniforms"):
            altcouplings.ascent_peak_batch(33, seed=5)


class TestOneSplitPerCall:
    """Every Monte Carlo routine splits its replicas once per call, over
    range(replicas), and runs its engine inside the shares."""

    @pytest.mark.parametrize("loop, engine", [
        *((loop, engine) for loop in ("permfix_advance", "permfix_ascent_peak", "permfix_mallows")
          for engine in ("compiled", "numpy")),
        ("permfix_advance", "traced"),  # only the coupling records traces
    ])
    def test_one_call_of_shares_over_every_replica(self, monkeypatch, loop, engine):
        if engine == "numpy":
            monkeypatch.setattr(native, "library", lambda: None)
        elif engine == "compiled" and shutil.which(native.BUILD[0]) is None:
            pytest.skip("no C compiler")
        routine = routines()[loop]
        if engine == "traced":
            cfg = RunConfig(N=8, horizon=40, replicas=300, seed=9, checkpoints=(0, 20), emit_traces=True)
            routine = lambda: run_coupling(cfg)  # noqa: E731
        counts, shares = [], native.shares
        monkeypatch.setattr(native, "cpus", lambda: 3)
        monkeypatch.setattr(native, "shares", lambda fn, count: counts.append(count) or shares(fn, count))
        routine()
        assert counts == [300]


class TestSource:
    """The C source compiles cleanly to object code, and `library()`
    declares each loop with as many arguments as its C prototype takes:
    ctypes checks the count it is given against argtypes, not against the C
    function."""

    @pytest.fixture(autouse=True)
    def compiler(self):
        if shutil.which(native.BUILD[0]) is None:
            pytest.skip("no C compiler")

    # "not-x86-64" compiles the source without its AVX-512 lanes, as a host
    # of another architecture sees it; -ffreestanding takes <stdint.h> from
    # the compiler alone, since the C library's headers would read the
    # missing __x86_64__ as a 32-bit x86 target.  Each variant is built to
    # an object at -O2, not only parsed: some errors (an intrinsic or an
    # always_inline helper that cannot be inlined across target attributes)
    # come only while code is generated, and the not-x86-64 source is built
    # nowhere else
    @pytest.mark.parametrize(
        "defines", [(), ("-DWORD_BITS=3",), ("-U__x86_64__", "-ffreestanding")],
        ids=["default", "word-bits-3", "not-x86-64"],
    )
    def test_compiles_cleanly_as_c99(self, defines):
        command = [
            native.BUILD[0], *defines, "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror",
            "-O2", "-c", "-o", os.devnull, "-x", "c", "-",
        ]
        result = subprocess.run(command, input=native.SOURCE.encode(), capture_output=True)
        assert result.returncode == 0, result.stderr.decode()

    def test_every_loop_declares_its_parameter_count(self):
        prototypes = re.findall(r"^\w+ (permfix_\w+)\(([^)]*)\)", native.SOURCE, re.MULTILINE)
        assert [name for name, _ in prototypes] == ["permfix_advance", "permfix_ascent_peak", "permfix_mallows"]
        lib = native.library()
        assert lib is not None
        for name, parameters in prototypes:
            assert len(getattr(lib, name).argtypes) == len(parameters.split(",")), name

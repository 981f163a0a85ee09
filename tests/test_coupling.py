"""The monotone coupling simulator, its certificates and assembled bound."""
import bisect
import dataclasses
import math
import shutil
import threading
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest

from permfix import altcouplings, coupling, native
from permfix.coupling import (
    SELECTORS,
    START_MODES,
    STAT_NAMES,
    Aggregates,
    CouplingTrace,
    RunConfig,
    assemble_tv_bound,
    birth_death_thresholds,
    drift_certificate,
    monotonicity_certificate,
    plugin_sigma,
    run_coupling,
    selector_kernels,
    step,
    suggested_horizon,
    within_bound,
)
from permfix.exactdist import exp_interval, pi_conditioned, tv_distance, zeta_law
from permfix.kernels import (
    StochasticKernel,
    build_restricted,
    p_closedform,
    restricted_kernel,
    reversible_pair,
)
from permfix.rng import grid_cut
import exact_reference
from scalar_reference import Stream

SEED_NEAR_2_64 = (1 << 64) - 5


def pair_step(x, y, u, k_x, k_y):
    """One shared-uniform move of both chains on their exact thresholds."""
    return step(x, u, *birth_death_thresholds(k_x)), step(y, u, *birth_death_thresholds(k_y))


def exact_replay(cfg):
    """The exact oracle of both block engines: one trace per replica, from
    its uniforms redrawn as Fractions (`Stream.uniform_fraction`), each start
    state the number of exact CDF cuts (`ExactDist.cumulative`) at or below
    its uniform, as in `coupling._block_start`, and its moves made by `step`
    on the exact thresholds, all in a plain loop.  Its u are Fractions; a float u of an
    engine's trace compares equal exactly when it is the same number."""
    k_x, k_y, law_x, law_y = selector_kernels(cfg.N, cfg.selector)
    thr_x, thr_y = birth_death_thresholds(k_x), birth_death_thresholds(k_y)
    cdf_x, cdf_y = law_x.cumulative(), law_y.cumulative()
    traces = []
    for r in range(cfg.replicas):
        draw = Stream(cfg.seed, r).uniform_fraction
        u0 = draw()
        x = bisect.bisect_right(cdf_x, u0)
        if cfg.start_mode == "shared":
            y = bisect.bisect_right(cdf_y, u0)
        elif cfg.start_mode == "independent":
            y = bisect.bisect_right(cdf_y, draw())
        else:
            y = x
        tau = 0 if x == y else None
        tau0_x = 0 if x == 0 else None
        tau0_y = 0 if y == 0 else None
        steps, z, zt, zh = [], [], [], []
        for k in range(cfg.horizon):
            u = draw()
            steps.append((x, y, u))
            xn, yn = step(x, u, *thr_x), step(y, u, *thr_y)
            if x == y and xn != yn:
                z.append(k)
            if x <= y and xn > yn:
                zt.append(k)
            if x >= y and xn < yn:
                zh.append(k)
            x, y = xn, yn
            if tau is None and x == y:
                tau = k + 1
            if tau0_x is None and x == 0:
                tau0_x = k + 1
            if tau0_y is None and y == 0:
                tau0_y = k + 1
        traces.append(CouplingTrace(
            steps=tuple(steps), final=(x, y), tau=tau, tau0_x=tau0_x, tau0_y=tau0_y,
            z_incr=tuple(z), ztilde_incr=tuple(zt), zhat_incr=tuple(zh),
        ))
    return tuple(traces)


def exact_counts(cfg):
    """`run_coupling(cfg).by_time` as the exact oracle has it, read off its
    traces: at checkpoint n an event counts when it happened by time n."""

    def after(t, n):
        return t is None or t > n

    def by(times, n):
        return bool(times) and times[0] < n  # step k takes time k to k + 1

    def flags(tr, n):
        x, y = tr.steps[n][:2] if n < cfg.horizon else tr.final
        return (
            x != y, after(tr.tau, n), by(tr.z_incr, n), by(tr.ztilde_incr, n),
            by(tr.zhat_incr, n), after(tr.tau0_x, n), after(tr.tau0_y, n),
        )

    traces = exact_replay(cfg)
    by_time = {}
    for n in cfg.checkpoints:
        totals = [sum(column) for column in zip(*(flags(tr, n) for tr in traces))]
        by_time[n] = Aggregates(n=n, replicas=cfg.replicas, counts=dict(zip(STAT_NAMES, totals)))
    return by_time


class TestRunConfig:
    def test_checkpoints_include_horizon(self):
        cfg = RunConfig(N=8, horizon=100, replicas=10, seed=0, checkpoints=(10,))
        assert cfg.checkpoints == (10, 100)

    def test_checkpoints_from_a_one_shot_iterable(self):
        # a generator is read once, so its points are checked and kept
        cfg = RunConfig(N=8, horizon=10, replicas=2, seed=0, checkpoints=(p for p in (2, 5)))
        assert cfg.checkpoints == (2, 5, 10)
        with pytest.raises(ValueError, match="checkpoints must be an integer"):
            RunConfig(N=8, horizon=10, replicas=2, seed=0, checkpoints=(p for p in (2, 2.5)))

    @pytest.mark.parametrize("seed", [np.int64(1), np.uint64((1 << 64) - 1)])
    def test_numpy_integer_seed_is_refused(self, seed):
        # the seed's type rule is that of the counts (`check_integer`)
        with pytest.raises(ValueError, match="seed must lie in"):
            RunConfig(N=8, horizon=3, replicas=2, seed=seed)

    def test_validation(self):
        with pytest.raises(ValueError, match="N must be >= 5"):
            RunConfig(N=4, horizon=1, replicas=1, seed=0)
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            RunConfig(N=8, horizon=-1, replicas=1, seed=0)
        with pytest.raises(ValueError):
            RunConfig(N=8, horizon=1, replicas=1, seed=0, selector="nope")
        with pytest.raises(ValueError, match="checkpoints must lie in"):
            RunConfig(N=8, horizon=5, replicas=1, seed=0, checkpoints=(9,))
        with pytest.raises(ValueError, match="checkpoints must be >= 0"):
            RunConfig(N=8, horizon=5, replicas=1, seed=0, checkpoints=(2, -1))
        with pytest.raises(ValueError, match="replicas must be >= 1"):
            RunConfig(N=8, horizon=5, replicas=0, seed=0)
        with pytest.raises(ValueError, match="start_mode"):
            RunConfig(N=8, horizon=5, replicas=1, seed=0, start_mode="nope")
        # bool is a subclass of int, and a float or a string is no count
        for field in ("N", "horizon", "replicas"):
            for value in (True, 8.0, 2.5, "8"):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    RunConfig(**{"N": 8, "horizon": 5, "replicas": 4, "seed": 1, field: value})
        for seed in (True, 1.0, "1"):
            with pytest.raises(ValueError, match="seed must lie in"):
                RunConfig(N=8, horizon=5, replicas=4, seed=seed)
        # any truthy value would select the traced engine
        for value in ("no", 1, None):
            with pytest.raises(ValueError, match="emit_traces must be a bool"):
                RunConfig(N=8, horizon=5, replicas=4, seed=1, emit_traces=value)


    @pytest.mark.parametrize("point", [1.5, "a", True, np.int64(3)])
    def test_checkpoints_are_integers(self, point):
        # the one type rule of the counts (`check_integer`), per checkpoint
        with pytest.raises(ValueError, match="checkpoints must be an integer"):
            RunConfig(N=8, horizon=5, replicas=1, seed=0, checkpoints=(2, point))

    @pytest.mark.parametrize("checkpoints", [5, None, 2.5])
    def test_checkpoints_that_are_not_iterable(self, checkpoints):
        # a ValueError, as for every other bad field, not a TypeError
        with pytest.raises(ValueError, match="checkpoints must be an iterable of integers"):
            RunConfig(N=8, horizon=5, replicas=1, seed=0, checkpoints=checkpoints)


class TestMonotoneStep:
    def test_u_zero_steps_down(self):
        p_check, r, _ = build_restricted(10)
        x, y = pair_step(3, 5, 0.0, p_check, r)
        assert (x, y) == (2, 4)

    def test_u_near_one_steps_up(self):
        p_check, r, _ = build_restricted(10)
        x, y = pair_step(3, 3, Fraction((1 << 53) - 1, 1 << 53), p_check, r)
        assert (x, y) == (4, 4)

    def test_identical_kernels_stay_coupled(self):
        _, r, _ = build_restricted(9)
        for k in range(0, 64):
            u = Fraction(2 * k + 1, 128)
            x, y = pair_step(2, 2, u, r, r)
            assert x == y

    def test_disagreement_measure_equals_p_gap(self):
        # from x = y = 3 the set of u splitting the chains is exactly the
        # stay-threshold gap |1 - 2p(3)| / (N(N-1))
        n = 10
        p_check, r, _ = build_restricted(n)
        _, stay_x = birth_death_thresholds(p_check)
        _, stay_y = birth_death_thresholds(r)
        gap = abs(stay_x[3] - stay_y[3])
        p = p_closedform(n)
        assert gap == abs(1 - 2 * p[3]) / Fraction(n * (n - 1))

    def test_boundaries_respected(self):
        _, r, _ = build_restricted(8)
        big_u = Fraction((1 << 53) - 1, 1 << 53)
        assert pair_step(0, 0, 0.0, r, r) == (0, 0)
        top = r.states[-1]
        assert pair_step(top, top, big_u, r, r) == (top, top)
        # u exactly on a cut point falls in the interval above it
        down, stay = birth_death_thresholds(r)
        assert step(2, down[2], down, stay) == 2
        assert step(2, stay[2], down, stay) == 3

    def test_array_step_matches_scalar_step(self):
        p_check, _, _ = build_restricted(9)
        down, stay = birth_death_thresholds(p_check)
        down_f, stay_f = np.array([float(v) for v in down]), np.array([float(v) for v in stay])
        xs = np.repeat(np.arange(6), 7)
        us = np.tile(np.linspace(0.0, 0.999, 7), 6)
        moved = step(xs, us, down_f, stay_f)
        assert moved.tolist() == [step(int(x), Fraction(u), down, stay) for x, u in zip(xs, us)]


class TestRunCoupling:
    def test_identical_selector_zero_disagreement(self):
        cfg = RunConfig(N=8, horizon=400, replicas=300, seed=7, selector="r-r")
        stats = run_coupling(cfg)
        assert stats.final.counts["neq"] == 0
        assert stats.final.counts["tau_gt"] == 0

    def test_deterministic_across_blocks(self, monkeypatch):
        cfg = RunConfig(N=8, horizon=300, replicas=500, seed=3, checkpoints=(0, 150))
        traced = RunConfig(N=8, horizon=60, replicas=300, seed=3, emit_traces=True)
        runs = []
        for block_size in (64, 128, 1 << 14):
            monkeypatch.setattr(coupling, "BLOCK_SIZE", block_size)
            plain, with_traces = run_coupling(cfg), run_coupling(traced)
            runs.append((plain.by_time, with_traces.by_time, with_traces.traces))
        assert len(runs[0][2]) == 300
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_exact_mode_matches_double(self):
        cfg = RunConfig(N=8, horizon=400, replicas=200, seed=42, checkpoints=(0, 100, 400))
        assert run_coupling(cfg).by_time == exact_counts(cfg)

    @pytest.mark.parametrize("start_mode", START_MODES)
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_exact_mode_matches_double_seed_near_2_64(self, selector, start_mode):
        cfg = RunConfig(
            N=8, horizon=200, replicas=80, seed=SEED_NEAR_2_64, selector=selector,
            start_mode=start_mode, checkpoints=(0, 20, 150),
        )
        assert run_coupling(cfg).by_time == exact_counts(cfg)

    def test_trace_mode_matches_vector(self):
        kwargs = dict(N=8, horizon=250, replicas=150, seed=11, checkpoints=(0, 250))
        plain = run_coupling(RunConfig(**kwargs))
        traced = run_coupling(RunConfig(emit_traces=True, **kwargs))
        assert plain.final.counts == traced.final.counts
        assert len(traced.traces) == 150

    def test_trace_contents(self):
        cfg = RunConfig(N=8, horizon=120, replicas=40, seed=5, emit_traces=True)
        stats = run_coupling(cfg)
        for tr in stats.traces:
            assert len(tr.steps) == 120
            for x, y, u in tr.steps:
                assert 0 <= x <= 4 and 0 <= y <= 4 and 0.0 <= u < 1.0
            if tr.tau is not None:
                assert tr.tau <= 120
            # increments are recorded in increasing order
            assert list(tr.z_incr) == sorted(tr.z_incr)

    def test_stationarity_start_dominates_exact_tv(self):
        # first inequality of the coupling bound at the sample level
        n = 8
        cfg = RunConfig(N=n, horizon=300, replicas=4000, seed=17)
        stats = run_coupling(cfg)
        tv = float(tv_distance(pi_conditioned(n), zeta_law(n), "half"))
        assert tv <= stats.final.estimate("neq") + 3 * stats.final.sigma("neq") + 1e-12

    def test_independent_start_mode(self):
        cfg = RunConfig(N=8, horizon=50, replicas=200, seed=1, start_mode="independent")
        stats = run_coupling(cfg)
        assert stats.by_time[50].replicas == 200

    def test_copy_start_mode_keeps_equal_for_identical_kernels(self):
        cfg = RunConfig(
            N=8, horizon=100, replicas=100, seed=2, selector="r-r", start_mode="copy_x"
        )
        assert run_coupling(cfg).final.counts["neq"] == 0

    @pytest.mark.parametrize("engine", ["compiled", "numpy", "traces"])
    def test_checkpoint_zero_calls_no_advance(self, monkeypatch, engine):
        # a checkpoint at 0 tallies the start states of each block and
        # advances nothing; the later checkpoints advance by their gaps.
        # The 50 replicas are one block in each share
        cfg = RunConfig(
            N=8, horizon=60, replicas=50, seed=4, checkpoints=(0, 20), emit_traces=engine == "traces"
        )
        if engine != "compiled":
            monkeypatch.setattr(native, "library", lambda: None)
        steps = {}  # id(X) -> (X, the steps of each advance of its block); X is kept, so no id is reused

        def counted(advance):
            def run(*args):
                steps.setdefault(id(args[3]), (args[3], []))[1].append(args[6])
                advance(*args)
            return run

        for name in ("_advance_compiled", "_advance_numpy"):
            monkeypatch.setattr(coupling, name, counted(getattr(coupling, name)))
        stats = run_coupling(cfg)
        assert [gaps for _, gaps in steps.values()] == [[20, 40]] * min(native.cpus(), cfg.replicas)
        _, X, Y, ev = coupling._block_start(cfg, coupling._grid_tables(cfg), 0, cfg.replicas)
        assert list(stats.by_time[0].counts.values()) == coupling._tally(X, Y, ev)
        assert stats.by_time == exact_counts(cfg)
        if engine == "traces":
            assert [tr.steps[0][:2] for tr in stats.traces] == list(zip(X.tolist(), Y.tolist()))
            assert stats.traces == exact_replay(cfg)


@pytest.fixture
def compiled():
    """The compiled advance; skips only where no C compiler is installed."""
    if shutil.which(native.BUILD[0]) is None:
        pytest.skip("no C compiler")
    assert native.library() is not None, "a compiler is installed but the compiled loops did not build"
    return coupling._advance_compiled


@pytest.fixture
def fresh_engine(monkeypatch):
    """Forget the library loaded for this process, and load it again after the test."""
    native.library.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    native.library.cache_clear()


def engines(cfg, monkeypatch):
    """Counts of cfg from the compiled loop, the numpy engine (the loader
    reporting failure) and the exact replay."""
    fast = run_coupling(cfg).by_time
    exact = exact_counts(cfg)
    with monkeypatch.context() as m:
        m.setattr(native, "library", lambda: None)
        vector = run_coupling(cfg).by_time
    return fast, vector, exact


class TestGridCuts:
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_every_cut_rounds_up_onto_the_grid(self, selector):
        # one uint64 grid numerator per state 0..N-4 in each of the six
        # tables; every start law charges all of [0, N-4], so its CDF is its
        # `cumulative()` and ends at 2^53
        grid = 2 ** 53
        for N in range(5, 61):
            k_x, k_y, law_x, law_y = selector_kernels(N, selector)
            exact = (
                *birth_death_thresholds(k_x), *birth_death_thresholds(k_y),
                law_x.cumulative(), law_y.cumulative(),
            )
            tables = coupling._grid_tables(RunConfig(N=N, horizon=0, replicas=1, seed=0, selector=selector))
            assert [len(t) for t in tables] == [N - 3] * 6
            assert all(t.dtype == np.uint64 for t in tables)
            assert [int(t[-1]) for t in tables[4:]] == [grid, grid]
            for cuts, stored in zip(exact, tables, strict=True):
                for c, g in zip(cuts, stored, strict=True):
                    assert int(g) == grid_cut(c)
                    assert Fraction(int(g), grid) >= c
                    assert Fraction(int(g), grid) - c < Fraction(1, grid)
                    assert g <= grid

    def test_grid_decides_as_the_exact_cut(self):
        for c in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 2 ** 53), Fraction(2, 3)):
            g = grid_cut(c)
            for j in (g - 1, g, g + 1):
                if 0 <= j < 2 ** 53:
                    assert (Fraction(j, 2 ** 53) < c) == (j < g)


    @pytest.mark.parametrize("selector", SELECTORS)
    def test_tables_equal_grid_cuts_of_oracle_laws(self, selector):
        # the start-law CDFs against the `Fraction` formulas of
        # `exact_reference`: pi_N conditioned on [0, N-4] for P_check, the
        # truncated Poisson law for R, the ratio form for R_tilde
        for N in range(5, 61):
            k_x, k_y, _, _ = selector_kernels(N, selector)
            oracle = {
                "P_check": lambda k: exact_reference.conditioned(exact_reference.pi_law(N), 0, N - 4),
                "R": lambda k: exact_reference.truncated_poisson(N - 4),
                "R_tilde": exact_reference.birth_death_stationary,
            }
            laws = [oracle[k.label](k) for k in (k_x, k_y)]
            exact = (
                *birth_death_thresholds(k_x), *birth_death_thresholds(k_y),
                *(list(accumulate(law[x] for x in range(N - 3))) for law in laws),
            )
            tables = coupling._grid_tables(RunConfig(N=N, horizon=0, replicas=1, seed=0, selector=selector))
            assert [[int(g) for g in t] for t in tables] == [[grid_cut(c) for c in t] for t in exact]


class TestEventTable:
    @pytest.mark.parametrize("N", range(5, 41))
    def test_every_entry_is_the_event_rule(self, N):
        # bits 0-2 are `_events` of the step, bits 3-5 met and the two hits;
        # every (x, y, mx, my) has its own entry, moves off [0, N-4] included
        size = N - 3
        table = coupling._event_table(N)
        seen = set()
        for x in range(size):
            for y in range(size):
                for mx in range(3):
                    for my in range(3):
                        xn, yn = x + 1 - mx, y + 1 - my
                        flags = (*coupling._events(x, y, xn, yn), xn == yn, xn == 0, yn == 0)
                        i = (x * size + y) * 9 + 3 * mx + my
                        assert table[i] == sum(int(f) << bit for bit, f in enumerate(flags))
                        seen.add(i)
        assert seen == set(range(len(table)))

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            coupling._event_table(8)[0] = 0


class TestEngineEquivalence:
    """The compiled loop, the numpy engine and the exact oracle, count for count."""

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("N", [5, 30])
    @pytest.mark.parametrize("start_mode", START_MODES)
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_engines_agree(self, compiled, monkeypatch, selector, start_mode, N, seed):
        cfg = RunConfig(
            N=N, horizon=120, replicas=60, seed=seed, selector=selector,
            start_mode=start_mode, checkpoints=(0, 1),
        )
        assert cfg.checkpoints == (0, 1, 120)
        fast, vector, exact = engines(cfg, monkeypatch)
        assert fast == vector == exact

    @pytest.mark.parametrize("start_mode", START_MODES)
    def test_horizon_zero(self, compiled, monkeypatch, start_mode):
        cfg = RunConfig(N=9, horizon=0, replicas=200, seed=3, selector="pcheck-r", start_mode=start_mode)
        fast, vector, exact = engines(cfg, monkeypatch)
        assert fast == vector == exact
        assert list(fast) == [0]
        assert fast[0].counts["neq"] == fast[0].counts["tau_gt"]

    @pytest.mark.parametrize("replicas", [1, 3, 61])
    @pytest.mark.parametrize("N", [5, 100])
    @pytest.mark.parametrize("start_mode", START_MODES)
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_engines_agree_at_the_edges(self, compiled, monkeypatch, selector, start_mode, N, replicas):
        # odd replica counts down to one, two states (N = 5) and an 85 KB
        # event table (N = 100)
        cfg = RunConfig(
            N=N, horizon=60, replicas=replicas, seed=SEED_NEAR_2_64, selector=selector,
            start_mode=start_mode, checkpoints=(0, 1),
        )
        fast, vector, exact = engines(cfg, monkeypatch)
        assert fast == vector == exact

    def test_small_ragged_blocks(self, compiled, monkeypatch):
        cfg = RunConfig(
            N=9, horizon=80, replicas=50, seed=SEED_NEAR_2_64, selector="pcheck-rtilde",
            start_mode="independent", checkpoints=(0, 1, 40),
        )
        whole = run_coupling(cfg).by_time
        monkeypatch.setattr(coupling, "BLOCK_SIZE", 7)  # seven blocks of 7, then one of 1
        fast, vector, exact = engines(cfg, monkeypatch)
        assert fast == vector == exact == whole

    def test_uniform_on_a_cut_falls_above_it(self, compiled, monkeypatch):
        # Tables whose cuts sit exactly on the words of replica 0, so each of
        # the three decisions below is taken with u equal to its cut.
        seed = next(s for s in range(100) if self._words(s)[1] < self._words(s)[2])
        j0, j1, j2 = self._words(seed)
        top = 2 ** 53
        tables = tuple(np.array(t, dtype=np.uint64) for t in (
            [0, j1, 0], [top, j2, top],  # X: down on j1, up on j2
            [0, 0, 0], [top, top, top],  # Y: never moves
            [j0, top, top],  # X(0) = 1: u0 sits on the first cut
            [0, 0, top],  # Y(0) = 2
        ))
        monkeypatch.setattr(coupling, "_grid_tables", lambda cfg: tables)
        cfg = RunConfig(N=6, horizon=2, replicas=1, seed=seed, checkpoints=(0, 1))
        # X: 1, then 1 (u = down cut, not below it), then 2 (u = stay cut); Y stays at 2
        expected = {0: (1, 1, 0, 0, 0, 1, 1), 1: (1, 1, 0, 0, 0, 1, 1), 2: (0, 0, 0, 0, 0, 1, 1)}
        fast = run_coupling(cfg).by_time
        monkeypatch.setattr(native, "library", lambda: None)
        vector = run_coupling(cfg).by_time
        for counts in (fast, vector):
            assert {n: tuple(a.counts.values()) for n, a in counts.items()} == expected

    def test_compiled_loop_rejects_a_short_table(self, compiled, monkeypatch):
        # the C loop indexes the tables by state unchecked; one cut missing
        # from any cut table, a table that moves or starts a chain off
        # [0, N-4], one byte missing from the event table, or an event table
        # built for another N is refused by `run_coupling` before any block
        # starts
        cfg = RunConfig(N=6, horizon=5, replicas=3, seed=1)
        tables = coupling._grid_tables(cfg)
        started, advanced = [], []
        block_start = coupling._block_start
        monkeypatch.setattr(coupling, "_block_start", lambda *a: started.append(a) or block_start(*a))
        monkeypatch.setattr(coupling, "_advance_compiled", lambda *a: advanced.append(a) or compiled(*a))

        def refused(tables, match):
            with monkeypatch.context() as m:
                m.setattr(coupling, "_grid_tables", lambda cfg: tables)
                with pytest.raises(ValueError, match=match):
                    run_coupling(cfg)
            assert started == [] and advanced == []

        def patched(i, at, cut):
            table = tables[i].copy()
            table[at] = cut
            return tables[:i] + (table,) + tables[i + 1:]

        for i in range(6):
            refused(tables[:i] + (tables[i][:-1],) + tables[i + 1:], "one cut per state")
        for i in (0, 2):  # a down move from 0
            refused(patched(i, 0, 1), "every state")
        for i in (1, 3, 4, 5):  # an up move from N-4, or a start above it
            refused(patched(i, -1, 2 ** 53 - 1), "every state")
        event_table = coupling._event_table
        for wrong in (event_table(6)[:-1], event_table(5), event_table(7)):
            with monkeypatch.context() as m:
                m.setattr(coupling, "_event_table", lambda N, wrong=wrong: wrong)
                refused(tables, "event table")
        assert run_coupling(cfg).by_time == exact_counts(cfg)
        blocks = min(native.cpus(), cfg.replicas)  # one per share
        assert len(started) == blocks and len(advanced) == blocks * len(cfg.checkpoints)

    @pytest.mark.parametrize("N", [5, 30, 100])
    @pytest.mark.parametrize("start_mode", START_MODES)
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_advances_leave_each_replica_alike(self, compiled, selector, start_mode, N):
        # replica for replica, not only in total: from one block start each
        # advance leaves the same streams, states and event bytes whether
        # the 60 steps are taken in one call or as 0 + 1 + 59, so no
        # checkpoint changes a path.  The two advances leave every replica
        # alike except one the compiled loop settled (X's tables equal Y's,
        # X = Y, and met and both hits in its byte), which it leaves before
        # its next word; there they still agree on the event byte and on
        # X != Y, all that `_tally` reads
        cfg = RunConfig(
            N=N, horizon=60, replicas=61, seed=SEED_NEAR_2_64, selector=selector,
            start_mode=start_mode,
        )
        tables, events = coupling._grid_tables(cfg), coupling._event_table(N)
        ends = []
        for advance in (compiled, coupling._advance_numpy):
            runs = []
            for chunks in ((60,), (0, 1, 59)):
                streams, X, Y, ev = coupling._block_start(cfg, tables, 0, cfg.replicas)
                start = streams.states.copy()
                for steps in chunks:
                    advance(tables, events, streams, X, Y, ev, steps)
                runs.append((streams.states, X, Y, ev))
            assert [a.tolist() for a in runs[0]] == [a.tolist() for a in runs[1]]
            ends.append(runs[0])
        assert (ends[1][0] != start).all()  # numpy moves every replica
        (states, X, Y, ev), (states_np, X_np, Y_np, ev_np) = ends
        assert (ev == ev_np).all() and ((X != Y) == (X_np != Y_np)).all()
        same = all((tables[i] == tables[i + 2]).all() for i in (0, 1))
        assert same == (selector == "r-r")
        bits = coupling._event_byte(0, 0, 0, 1, 1, 1)
        settled = same & (X == Y) & ((ev & bits) == bits)
        awake = ~settled
        for a, b in ((states, states_np), (X, X_np), (Y, Y_np)):
            assert (a[awake] == b[awake]).all()
        behind = states != states_np
        assert not (behind & awake).any()
        assert behind.any() == same  # r-r settles replicas in all 9 cases

    @pytest.mark.parametrize("start_mode", START_MODES)
    def test_settled_across_checkpoints(self, compiled, monkeypatch, start_mode):
        # r-r replicas settle at a block start or at one checkpoint and draw
        # nothing at the later ones, which still tally the full simulation
        cfg = RunConfig(
            N=8, horizon=400, replicas=100, seed=SEED_NEAR_2_64, selector="r-r",
            start_mode=start_mode, checkpoints=(0, 1, 5, 50, 400),
        )
        (fast, fast_states), (vector, states) = self._runs(cfg, monkeypatch)
        assert fast == vector == exact_counts(cfg)
        assert (fast_states != states).any()

    @pytest.mark.parametrize("start_mode", START_MODES)
    def test_settling_reads_the_tables_not_the_selector(self, compiled, monkeypatch, start_mode):
        # a pcheck-r config handed r-r's tables, Y's step tables as copies of
        # X's: the compiled loop settles replicas, whose streams fall behind
        # numpy's, and the counts are r-r's exact ones.  With one cut of Y's
        # one grid step higher the tables differ, and nothing settles
        cfg = RunConfig(
            N=8, horizon=200, replicas=100, seed=SEED_NEAR_2_64, start_mode=start_mode,
            checkpoints=(0, 1, 5, 50),
        )
        r_r = dataclasses.replace(cfg, selector="r-r")
        down, stay, _, _, cdf_x, cdf_y = coupling._grid_tables(r_r)
        moved = stay.copy()
        moved[1] += 1  # Y's stay cut at state 1
        exact = exact_counts(r_r)
        for y_tables, settles in (((down.copy(), stay.copy()), True), ((down.copy(), moved), False)):
            tables = (down, stay, *y_tables, cdf_x, cdf_y)
            with monkeypatch.context() as m:
                m.setattr(coupling, "_grid_tables", lambda cfg: tables)
                (fast, fast_states), (vector, states) = self._runs(cfg, m)
            assert fast == vector == exact
            assert (fast_states != states).any() == settles

    @staticmethod
    def _runs(cfg, monkeypatch):
        """(counts, the streams of every replica after the run) of cfg from
        the compiled loop, then from numpy (the loader reporting failure)."""
        block_start, runs = coupling._block_start, []

        def started(*args):
            blocks[args[2]] = block_start(*args)  # by first replica: shares start in any order
            return blocks[args[2]]

        for library in (native.library, lambda: None):
            with monkeypatch.context() as m:
                blocks = {}
                m.setattr(native, "library", library)
                m.setattr(coupling, "_block_start", started)
                counts = run_coupling(cfg).by_time
            runs.append((counts, np.concatenate([blocks[first][0].states for first in sorted(blocks)])))
        return runs

    @staticmethod
    def _words(seed):
        stream = Stream(seed, 0)
        return [stream.next_word() >> 11 for _ in range(3)]

    @pytest.mark.parametrize("breakage", ["missing compiler", "compile error", "unwritable cache"])
    def test_failed_build_falls_back(self, compiled, fresh_engine, tmp_path, breakage):
        # every routine with a compiled loop returns what it returned compiled
        cfg = RunConfig(N=8, horizon=150, replicas=300, seed=9, checkpoints=(0, 75))
        routines = (
            lambda: run_coupling(cfg).by_time,
            lambda: altcouplings.ascent_peak_batch(3000, seed=9, ns=(1, 4, 63)),
            lambda: altcouplings.mallows_discrepancy(10, replicas=3000, K=20, seed=9),
        )
        expected = [routine() for routine in routines]
        fresh_engine.setenv("XDG_CACHE_HOME", str(tmp_path))
        if breakage == "missing compiler":
            fresh_engine.setattr(native, "BUILD", (str(tmp_path / "no-cc"), *native.BUILD[1:]))
        elif breakage == "compile error":
            fresh_engine.setattr(native, "SOURCE", native.SOURCE + "\n#error broken\n")
        else:
            (tmp_path / "permfix").write_text("")  # a file where the cache directory belongs
        native.library.cache_clear()
        assert native.library() is None
        assert [routine() for routine in routines] == expected
        if breakage != "unwritable cache":
            assert list((tmp_path / "permfix").iterdir()) == []  # no partial build left

    def test_cache_rebuilds_after_deletion(self, compiled, fresh_engine, tmp_path):
        cfg = RunConfig(N=8, horizon=100, replicas=100, seed=4, selector="pcheck-rtilde")
        expected = run_coupling(cfg).by_time
        fresh_engine.setenv("XDG_CACHE_HOME", str(tmp_path))
        for _ in range(2):
            native.library.cache_clear()
            assert native.library() is not None
            assert [f.suffix for f in (tmp_path / "permfix").iterdir()] == [".so"]
            assert run_coupling(cfg).by_time == expected
            shutil.rmtree(tmp_path / "permfix")


class TestShares:
    """`run_coupling` splits the replicas once per call, one contiguous share
    per CPU (`native.shares`), and runs every engine inside the shares; the
    number of shares changes no replica."""

    @staticmethod
    def per_share_count(monkeypatch, k):
        """Run on k CPUs, recording the [a, b) of every share started."""
        seen, shares = [], native.shares
        monkeypatch.setattr(native, "cpus", lambda: k)
        monkeypatch.setattr(native, "shares", lambda fn, count: shares(
            lambda a, b: seen.append((a, b)) or fn(a, b), count
        ))
        return seen

    @pytest.mark.parametrize("replicas", [1, 3, 61, 20_000])
    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("start_mode", START_MODES)
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_counts_do_not_depend_on_the_shares(self, compiled, monkeypatch, selector, start_mode, seed, replicas):
        # 20,000 replicas run as a block of 2^14 and one of 3,616 on one
        # CPU, and as blocks of each share on more; r-r replicas settle at
        # different checkpoints in different shares
        cfg = RunConfig(
            N=8, horizon=400, replicas=replicas, seed=seed, selector=selector,
            start_mode=start_mode, checkpoints=(0, 1, 5, 50, 400),
        )
        counts = {}
        for k in (1, 2, 3, 8):
            with monkeypatch.context() as m:
                seen = self.per_share_count(m, k)
                counts[k] = run_coupling(cfg).by_time
            assert len(seen) == min(k, replicas)  # one split per run
        assert counts[2] == counts[3] == counts[8] == counts[1]

    @pytest.mark.parametrize("replicas", [1, 3, 61, 20_000])
    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_an_advance_starts_no_share(self, compiled, monkeypatch, selector, seed, replicas):
        # the compiled advance moves every replica it is given in one call on
        # the calling thread, whatever the CPUs; replica for replica, settled
        # replicas (r-r) included, it leaves the same streams, X, Y and bytes
        cfg = RunConfig(
            N=30, horizon=300, replicas=replicas, seed=seed, selector=selector,
            start_mode="independent",
        )
        tables, events = coupling._grid_tables(cfg), coupling._event_table(cfg.N)
        ends = {}
        for k in (1, 8):
            with monkeypatch.context() as m:
                seen = self.per_share_count(m, k)
                m.setattr(threading, "Thread", None)  # starting a thread would fail
                streams, X, Y, ev = coupling._block_start(cfg, tables, 0, replicas)
                compiled(tables, events, streams, X, Y, ev, cfg.horizon)
            assert seen == []
            ends[k] = [a.tolist() for a in (streams.states, X, Y, ev)]
        assert ends[8] == ends[1]

    @pytest.fixture(scope="class")
    def traced(self):
        """A traced config of 2^14 + 301 replicas and its exact (traces, counts)."""
        cfg = RunConfig(
            N=8, horizon=3, replicas=coupling.BLOCK_SIZE + 301, seed=SEED_NEAR_2_64,
            selector="pcheck-rtilde", start_mode="independent", emit_traces=True, checkpoints=(0, 1),
        )
        return cfg, (exact_replay(cfg), exact_counts(cfg))

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_traces_across_a_block_boundary(self, monkeypatch, traced, k):
        # one block in each share, or two on one CPU; the traces are joined
        # in replica order
        cfg, expected = traced
        with monkeypatch.context() as m:
            seen = self.per_share_count(m, k)
            stats = run_coupling(cfg)
        assert len(seen) == k
        assert (stats.traces, stats.by_time) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_numpy_fallback_in_shares(self, compiled, monkeypatch, k):
        # the numpy advance runs inside the shares as the compiled one does,
        # over 2^14 + 301 replicas; r-r replicas settle in the compiled loop
        cfg = RunConfig(
            N=8, horizon=60, replicas=coupling.BLOCK_SIZE + 301, seed=0, selector="r-r",
            checkpoints=(0, 5),
        )
        runs = []
        for library in (native.library, lambda: None):
            with monkeypatch.context() as m:
                m.setattr(native, "library", library)
                seen = self.per_share_count(m, k)
                runs.append(run_coupling(cfg).by_time)
            assert len(seen) == k
        with monkeypatch.context() as m:
            m.setattr(native, "library", lambda: None)
            self.per_share_count(m, 1)
            runs.append(run_coupling(cfg).by_time)
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_counts_do_not_depend_on_ragged_shares(self, compiled, monkeypatch, selector):
        # 1,003 replicas run as one share, as 501 + 502 and as 334 + 334 + 335:
        # no share is a multiple of 8, so each ends on the compiled loop's
        # one-replica remainder, wherever its first replicas ran in lanes
        cfg = RunConfig(
            N=8, horizon=300, replicas=1003, seed=SEED_NEAR_2_64, selector=selector,
            checkpoints=(0, 7, 60),
        )
        counts = {}
        for k in (1, 2, 3):
            with monkeypatch.context() as m:
                seen = self.per_share_count(m, k)
                counts[k] = run_coupling(cfg).by_time
            assert len(seen) == k and all((b - a) % 8 for a, b in seen)
        with monkeypatch.context() as m:
            m.setattr(native, "library", lambda: None)
            numpy_counts = run_coupling(cfg).by_time
        assert counts[1] == counts[2] == counts[3] == numpy_counts


def advance_numpy_settling(tables, events, streams, X, Y, ev, steps):
    """`_advance_numpy` one move at a time, holding in place every replica
    the compiled loop calls settled before the move: X's step tables equal
    Y's, X = Y, and its byte holds met, X at 0 and Y at 0."""
    same = all(np.array_equal(tables[i], tables[i + 2]) for i in (0, 1))
    bits = coupling._event_byte(0, 0, 0, 1, 1, 1)
    for _ in range(steps):
        held = same & (X == Y) & ((ev & bits) == bits)
        before = [a.copy() for a in (streams.states, X, Y, ev)]
        coupling._advance_numpy(tables, events, streams, X, Y, ev, 1)
        for now, then in zip((streams.states, X, Y, ev), before):
            now[held] = then[held]


class TestLanes:
    """Where the CPU has AVX-512 F and DQ, the compiled advance moves the
    first count - count % 16 replicas of a non-settling run in lanes, two
    groups of 8 per step, and the rest one by one; settling runs (r-r)
    move one by one everywhere.  Every replica ends as the numpy advance
    leaves it, held where it settled."""

    @pytest.mark.parametrize("N", [5, 8, 30, 200])  # N = 200: the 349 KB event table
    @pytest.mark.parametrize("replicas", [1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 61])
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_each_replica_moves_as_numpy_moves_it(self, compiled, selector, replicas, N):
        cfg = RunConfig(
            N=N, horizon=0, replicas=replicas, seed=SEED_NEAR_2_64, selector=selector,
            start_mode="independent",
        )
        tables, events = coupling._grid_tables(cfg), coupling._event_table(N)
        fast = coupling._block_start(cfg, tables, 0, replicas)
        slow = coupling._block_start(cfg, tables, 0, replicas)
        for steps in (40, 23):  # twice in a row, from where the first call left each replica
            compiled(tables, events, *fast, steps)
            advance_numpy_settling(tables, events, *slow, steps)
            for a, b in zip((fast[0].states, *fast[1:]), (slow[0].states, *slow[1:])):
                assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_event_table_at_any_byte_alignment(self, compiled, offset):
        # the lanes read the event table by aligned dwords; a table starting
        # at any byte of one gives the same bytes.  At N = 8 every group of 8
        # replicas reaches the top pair of states, whose entries end the
        # table: 17, 25 and 33 replicas run both groups of the 16-replica
        # body once or twice, and 1 or 9 replicas one by one after it
        for replicas in (17, 25, 33):
            cfg = RunConfig(N=8, horizon=0, replicas=replicas, seed=3, selector="pcheck-rtilde")
            tables, events = coupling._grid_tables(cfg), coupling._event_table(cfg.N)
            shifted = np.zeros(len(events) + 4, dtype=np.uint8)[offset:offset + len(events)]
            shifted[:] = events
            fast = coupling._block_start(cfg, tables, 0, cfg.replicas)
            slow = coupling._block_start(cfg, tables, 0, cfg.replicas)
            compiled(tables, shifted, *fast, 500)
            coupling._advance_numpy(tables, events, *slow, 500)
            for a, b in zip((fast[0].states, *fast[1:]), (slow[0].states, *slow[1:])):
                assert a.tolist() == b.tolist()


class TestTraceReplay:
    """The traces of the numpy engine equal the exact replay's, field for
    field, u included."""

    @staticmethod
    def replay(N, selector, start_mode):
        cfg = RunConfig(
            N=N, horizon=300, replicas=60, seed=SEED_NEAR_2_64, selector=selector,
            start_mode=start_mode, emit_traces=True,
        )
        traces = run_coupling(cfg).traces
        assert len(traces) == cfg.replicas
        assert all(len(tr.steps) == cfg.horizon for tr in traces)
        assert traces == exact_replay(cfg)

    @pytest.mark.parametrize("start_mode", START_MODES)
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_traces_replay_exactly(self, selector, start_mode):
        self.replay(9, selector, start_mode)

    @pytest.mark.parametrize("start_mode", START_MODES)
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_traces_replay_exactly_at_smallest_n(self, selector, start_mode):
        self.replay(5, selector, start_mode)  # states {0, 1}

    def test_horizon_zero(self):
        cfg = RunConfig(N=9, horizon=0, replicas=200, seed=3, start_mode="independent", emit_traces=True)
        stats = run_coupling(cfg)
        assert stats.traces == exact_replay(cfg)
        assert stats.by_time == exact_counts(cfg)
        assert all(tr.steps == () for tr in stats.traces)
        assert {tr.tau for tr in stats.traces} == {0, None}
        assert all((tr.tau == 0) == (tr.final[0] == tr.final[1]) for tr in stats.traces)


class TestMonotonicityCertificate:
    @pytest.mark.parametrize("which", [1, 2])
    def test_r_kernels_monotone(self, which):
        kernels = build_restricted(10)
        report = monotonicity_certificate(kernels[which])
        assert report.ok
        assert all(margin >= 0 for _, margin in report.margins)
        assert any(margin > 0 for _, margin in report.margins)

    def test_pcheck_monotone_too(self):
        p_check, _, _ = build_restricted(10)
        assert monotonicity_certificate(p_check).ok

    def test_constructed_failure(self):
        # down-rate 1 at the top state, but stay+down below it downstairs
        kernel = StochasticKernel((0, 1), ((4, {0: 1, 1: 3}), (1, {0: 1})), label="steep")
        report = monotonicity_certificate(kernel)
        assert not report.ok
        assert report.margins[0][1] < 0


def drift_bound_values(N, which, theta):
    """F_bar(y) on y in [1, N-4]: F(y) with the upper ends of 45-digit
    enclosures of e^{-theta/N} and e^{theta/N}, on the exact thresholds."""
    down, stay = birth_death_thresholds(restricted_kernel(N, which))
    em = exp_interval(-theta / N, 45).hi - 1
    ep = exp_interval(theta / N, 45).hi - 1
    return [1 + em * down[y] + ep * (1 - stay[y]) for y in range(1, N - 3)]


class TestDriftCertificate:
    """c_est = N^3 (1 - max F_bar) against F_bar rebuilt here; where on
    [1, N-4] the max lies is not asserted."""

    def test_r_certificate_n10(self):
        cert = drift_certificate(10, "R")
        assert cert.theta == 1.0
        assert cert.c_est > 0

    def test_r_values_below_one(self):
        cert = drift_certificate(50, "R")
        values = drift_bound_values(50, "R", cert.theta)
        assert all(v < 1 for v in values)
        assert cert.c_est == 50 ** 3 * (1 - max(values))

    def test_exp_over_n_fails_for_r_tilde(self):
        # the literal exp(y/N) test function has no margin for R_tilde
        cert = coupling._drift_for(12, "R_tilde", Fraction(1))
        assert cert.c_est < 0

    def test_r_tilde_auto_theta_positive(self):
        cert = drift_certificate(12, "R_tilde")
        assert cert.theta < 1
        assert cert.c_est > 0

    def test_tail_bound_decays(self):
        cert = drift_certificate(10, "R")
        assert cert.tail_bound(0) == math.e
        assert cert.tail_bound(10 ** 5) < 1e-6

    def test_values_are_exact(self):
        cert = drift_certificate(9, "R_tilde")
        assert isinstance(cert.theta, Fraction) and isinstance(cert.c_est, Fraction)
        values = drift_bound_values(9, "R_tilde", cert.theta)
        assert all(isinstance(v, Fraction) for v in values)
        assert cert.c_est == 9 ** 3 * (1 - max(values))

    @pytest.mark.parametrize("N", list(range(5, 61)) + [100, 200, 300, 400])
    def test_closed_form_equals_max_over_every_state(self, N):
        # F_bar(1) alone against F_bar over all of [1, N-4], on the
        # kernel's own thresholds
        for which, thetas in (("R", (1,)), ("R_tilde", (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)))):
            for theta in thetas:
                cert = coupling._drift_for(N, which, Fraction(theta))
                assert cert.c_est == N ** 3 * (1 - max(drift_bound_values(N, which, Fraction(theta))))


def drift_rate_mp(N, which, theta):
    """N^3 (1 - max_{y >= 1} F(y)) for the true F, evaluated at 100 digits."""
    kernel = restricted_kernel(N, which)
    with mpmath.workdps(100):
        t = mpmath.mpf(theta.numerator) / (theta.denominator * N)
        em, ep = mpmath.exp(-t) - 1, mpmath.exp(t) - 1

        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        worst = max(
            1 + em * mp(kernel.row(y).get(y - 1, Fraction(0)))
            + ep * mp(kernel.row(y).get(y + 1, Fraction(0)))
            for y in kernel.states if y != 0
        )
        return N ** 3 * (1 - worst)


class TestDriftRigour:
    """c_est is a lower bound on the true rate, and a tight one."""

    CASES = [
        (N, which, theta)
        for N in (5, 10, 57, 200)
        for which, thetas in (("R", (1,)), ("R_tilde", (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))))
        for theta in thetas
    ]

    @pytest.mark.parametrize("N, which, theta", CASES)
    def test_c_est_below_and_within_1e_30(self, N, which, theta):
        cert = coupling._drift_for(N, which, Fraction(theta))
        c_true = drift_rate_mp(N, which, Fraction(theta))
        with mpmath.workdps(100):
            c_est = mpmath.mpf(cert.c_est.numerator) / cert.c_est.denominator
            assert c_est <= c_true
            assert c_true - c_est < mpmath.mpf(10) ** -30

    def test_auto_theta_is_the_best_of_the_grid(self):
        grid = [coupling._drift_for(20, "R_tilde", Fraction(t)).c_est
                for t in (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))]
        assert drift_certificate(20, "R_tilde").c_est == max(grid)


class TestAssembledBound:
    def test_n_zero_is_vacuous_but_finite(self):
        report = assemble_tv_bound(10, 0)
        assert report.analytic_bound == pytest.approx(2 * math.e)

    def test_dominates_exact_tv(self):
        n_steps = int(10 ** 4 * math.log(10))
        report = assemble_tv_bound(10, n_steps)
        exact_tv = tv_distance(pi_conditioned(10), zeta_law(10), "half")
        assert report.analytic_bound >= float(exact_tv)

    def test_both_horizon_readings_available(self):
        # the quartic rule (forced by the c/N^3 drift rate) and the linear
        # one differ by a factor close to N^3
        quartic = suggested_horizon(10, exponent=4)
        linear = suggested_horizon(10, exponent=1)
        assert 0.9 * 10 ** 3 <= quartic / linear <= 1.1 * 10 ** 3
        assert assemble_tv_bound(10, quartic).analytic_bound > 0
        assert assemble_tv_bound(10, linear).analytic_bound > 0

    def test_rates_computed_once_per_n(self, monkeypatch, clear_memos):
        # R takes one certificate, R_tilde one per theta of its grid
        calls = []
        real = coupling._drift_for

        def counted(N, which, theta):
            calls.append(N)
            return real(N, which, theta)

        monkeypatch.setattr(coupling, "_drift_for", counted)
        clear_memos()
        for n in (0, 100, 10 ** 6):
            assemble_tv_bound(11, n)
        suggested_horizon(11, exponent=4)
        suggested_horizon(11, exponent=1)
        assert calls == [11] * 5

    def test_rates_are_the_certificates(self):
        report = assemble_tv_bound(12, 50)
        rates = (drift_certificate(12, "R").c_est, drift_certificate(12, "R_tilde").c_est)
        assert report.c_hat == float(min(rates))

    def test_empirical_assembly_monotone_in_inputs(self):
        low = Aggregates(n=10, replicas=100, counts={
            "neq": 0, "tau_gt": 0, "z_pos": 1, "ztilde_pos": 1, "zhat_pos": 1,
            "tau0x_gt": 1, "tau0y_gt": 1,
        })
        high = Aggregates(n=10, replicas=100, counts={
            "neq": 0, "tau_gt": 0, "z_pos": 9, "ztilde_pos": 1, "zhat_pos": 1,
            "tau0x_gt": 1, "tau0y_gt": 1,
        })
        a = assemble_tv_bound(8, 10, estimates=low).empirical_bound
        b = assemble_tv_bound(8, 10, estimates=high).empirical_bound
        assert a < b


class TestSelectorKernels:
    def test_stationary_laws_match_selectors(self):
        k_x, k_y, law_x, law_y = selector_kernels(9, "pcheck-r")
        assert k_x.label == "P_check" and k_y.label == "R"
        assert law_x == pi_conditioned(9)
        assert law_y == zeta_law(9)

    def test_rtilde_selector_uses_its_stationary_law(self):
        _, k_y, _, law_y = selector_kernels(9, "pcheck-rtilde")
        assert k_y.label == "R_tilde"
        from permfix.kernels import check_reversibility

        assert check_reversibility(k_y, law_y).ok

    def test_selectors_read_the_catalogue(self):
        labels = {
            "pcheck-r": ("P_check", "R"),
            "r-r": ("R", "R"),
            "pcheck-rtilde": ("P_check", "R_tilde"),
        }
        assert set(labels) == set(SELECTORS)
        for selector, (label_x, label_y) in labels.items():
            for N in (5, 9, 30):
                k_x, law_x = reversible_pair(N, label_x)
                k_y, law_y = reversible_pair(N, label_y)
                assert selector_kernels(N, selector) == (k_x, k_y, law_x, law_y)

    def test_r_r_builds_r_once(self):
        k_x, k_y, law_x, law_y = selector_kernels(9, "r-r")
        assert k_x is k_y and law_x is law_y


class TestWithinBound:
    # estimate p = count / trials against bound + 3 sigma, sigma = sqrt(p (1 - p) / trials)

    def test_count_zero_has_no_spread(self):
        assert within_bound(0, 10 ** 6, 0.0)
        assert not within_bound(0, 10 ** 6, -1e-12)

    def test_count_one_is_three_sigma(self):
        trials = 10 ** 4
        p = 1 / trials
        sigma = math.sqrt(p * (1 - p) / trials)
        assert within_bound(1, trials, 0.0)
        assert within_bound(1, trials, p - 2.9 * sigma)
        assert not within_bound(1, trials, p - 3.1 * sigma)

    def test_count_equal_to_trials_has_no_spread(self):
        # with a floor of 1e-12 on p (1 - p), 1 - 1e-9 would pass at 10^6 trials
        assert within_bound(10 ** 6, 10 ** 6, 1.0)
        assert not within_bound(10 ** 6, 10 ** 6, 1 - 1e-9)

    def test_one_sigma_for_every_estimate(self):
        # the coupling's aggregates and the Mallows estimate report the same
        # sigma, bit for bit, as the verdict rule uses
        assert plugin_sigma(0, 7) == plugin_sigma(7, 7) == 0.0
        assert plugin_sigma(1, 4) == math.sqrt(0.25 * 0.75 / 4)
        agg = Aggregates(n=3, replicas=7, counts={"neq": 2})
        assert agg.sigma("neq") == plugin_sigma(2, 7)
        d = altcouplings.mallows_discrepancy(10, replicas=500, K=20, seed=3)
        assert d.sigma == plugin_sigma(round(d.estimate * 500), 500)

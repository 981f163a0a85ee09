"""Mallows bit-chain and ascent/peak couplings."""
import itertools
import math
import shutil
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from permfix import native
from permfix.coupling import within_bound
from permfix.altcouplings import (
    AscentPeakBatch,
    AscentPeakSample,
    MallowsDiscrepancy,
    _ascent_peak_numpy,
    ascent_peak_batch,
    empirical_half_tv,
    mallows_discrepancy,
    mallows_exact_pmf,
    peak_tail_exact,
)
from permfix.exactdist import fixed_point_pmf, poisson_truncated, tv_distance
from permfix.perms import EnumerationGuardError
from permfix.rng import VectorStreams
import exact_reference
from scalar_reference import (
    Stream,
    TieEncountered,
    ascent_peak_from_uniforms,
    ascent_peak_sample,
    mallows_sample,
)

TOP_SEED = 2 ** 64 - 1


def on_eighths(monkeypatch):
    """Round every uniform of the scalar and numpy streams down to the 1/8
    grid, where ties are common: the numpy words keep their top 3 bits."""
    scalar_uniform = Stream.uniform
    vector_words = VectorStreams.next_words
    monkeypatch.setattr(Stream, "uniform", lambda self: math.floor(scalar_uniform(self) * 8) / 8)
    monkeypatch.setattr(VectorStreams, "next_words", lambda self: vector_words(self) & np.uint64(7 << 61))


def scalar_batch(seed, samples, ns=()):
    """The AscentPeakBatch of ascent_peak_sample(seed, r), r < samples, in a
    plain loop; a tie drops the replica."""
    drawn = []
    for r in range(samples):
        try:
            drawn.append(ascent_peak_sample(seed, r))
        except TieEncountered:
            pass
    m_n = {N: [x.truncated(N)[2] for x in drawn] for N in ns}
    return AscentPeakBatch(
        samples=len(drawn),
        ties=samples - len(drawn),
        m_counts=dict(Counter(x.m for x in drawn)),
        m_n_counts={N: dict(Counter(m_n[N])) for N in ns},
        disagree={N: sum(a != x.m for a, x in zip(m_n[N], drawn)) for N in ns},
    )


@pytest.fixture
def compiled():
    """The compiled loops; skips only where no C compiler is installed."""
    if shutil.which(native.BUILD[0]) is None:
        pytest.skip("no C compiler")
    assert native.library() is not None, "a compiler is installed but the loops did not build"


def on_numpy(routine, monkeypatch):
    """routine() with the library reported missing: the numpy bodies."""
    with monkeypatch.context() as m:
        m.setattr(native, "library", lambda: None)
        return routine()


class TestMallowsExact:
    def test_n1_degenerate(self):
        assert mallows_exact_pmf(1) == {1: Fraction(1)}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_fixed_point_law(self, n):
        assert mallows_exact_pmf(n) == fixed_point_pmf(n)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_equals_fraction_dp(self, n):
        assert mallows_exact_pmf(n) == exact_reference.mallows_pmf(n)
        assert mallows_exact_pmf(n).integer_weights[0] == math.factorial(n)

    @pytest.mark.parametrize("value", [True, 9.0, np.int64(9)])
    def test_refuses_non_integer_n(self, value):
        with pytest.raises(ValueError, match="N must be an integer"):
            mallows_exact_pmf(value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_refuses_n_below_one(self, value):
        with pytest.raises(ValueError, match="N must be >= 1"):
            mallows_exact_pmf(value)

    def test_sample_consistent_with_bits(self):
        n, K = 6, 16
        for seed in (0, 3, 11, 2 ** 64 - 1):
            sample = mallows_sample(n, K, Stream(seed, 0))
            b = sample.bits
            assert len(b) == K and b[0] == 1
            assert sample.s_n == sum(b[i] * b[i + 1] for i in range(n - 1)) + b[n - 1]
            assert sample.s_trunc == sum(b[i] * b[i + 1] for i in range(K - 1))
            assert 0 <= sample.s_n <= n
            assert sample.tail_bound == Fraction(1, K)


class TestMallowsDiscrepancy:
    @pytest.mark.parametrize("n", [1, 2, 10, 20])
    def test_vector_estimate_counts_the_scalar_samples(self, n):
        # replica r of the vectorized estimate draws the words of Stream(seed, r)
        # (X_1 from none, X_n from word n - 1) even where it skips them
        replicas, K, seed = 2000, 2 * n, 7
        d = mallows_discrepancy(n, replicas=replicas, K=K, seed=seed)
        differ = 0
        for r in range(replicas):
            sample = mallows_sample(n, K, Stream(seed, r))
            differ += sample.s_n != sample.s_trunc
        assert round(d.estimate * replicas) == differ
        assert differ > 0

    def test_estimate_scales_like_one_over_n(self):
        scaled = []
        for n in (10, 20, 40, 80):
            d = mallows_discrepancy(n, replicas=40000, K=2 * n, seed=5)
            scaled.append(n * d.estimate)
        assert max(scaled) <= 3 * min(scaled)

    def test_estimate_dominates_half_tv(self):
        # any coupling disagrees at least as often as the total variation
        n = 12
        d = mallows_discrepancy(n, replicas=40000, K=3 * n, seed=9)
        tv = tv_distance(fixed_point_pmf(n), poisson_truncated(60), "half")
        assert d.estimate >= float(tv) - 3 * d.sigma

    def test_truncation_stability(self):
        n = 10
        a = mallows_discrepancy(n, replicas=30000, K=2 * n, seed=4)
        b = mallows_discrepancy(n, replicas=30000, K=4 * n, seed=4)
        assert abs(a.estimate - b.estimate) <= float(a.tail_bound) + 3 * (a.sigma + b.sigma)

    def test_k_guard(self):
        with pytest.raises(ValueError, match="K must be >= 11"):
            mallows_discrepancy(10, replicas=10, K=10, seed=0)

    @pytest.mark.parametrize("replicas", [0, -1])
    def test_replicas_below_one_rejected(self, replicas):
        with pytest.raises(ValueError, match="replicas must be >= 1"):
            mallows_discrepancy(10, replicas=replicas, K=20, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="N must be >= 1"):
            mallows_discrepancy(n, replicas=10, K=5, seed=0)

    @pytest.mark.parametrize("field", ["N", "K", "replicas"])
    @pytest.mark.parametrize("value", [True, 2.5, 10.0, "10"])
    def test_non_integer_counts_rejected(self, field, value):
        # a float count used to die in ctypes, and replicas=True ran one replica
        args = {"N": 10, "replicas": 20, "K": 20, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            mallows_discrepancy(args["N"], replicas=args["replicas"], K=args["K"], seed=0)


def mallows_differ_by_enumeration(N, K):
    """P[S_N != S_K] over every bit vector X_2..X_K (X_1 = 1), each of
    weight prod 1/n or 1 - 1/n, with S_N and S_K as defined."""
    total = Fraction(0)
    for tail in itertools.product((0, 1), repeat=K - 1):
        bits = (1, *tail)
        weight = math.prod(Fraction(1, n) if x else 1 - Fraction(1, n) for n, x in enumerate(bits, 1))
        s_n = sum(bits[i] * bits[i + 1] for i in range(N - 1)) + bits[N - 1]
        s_k = sum(bits[i] * bits[i + 1] for i in range(K - 1))
        total += weight * (s_n != s_k)
    return total


class TestMallowsDifferExact:
    """`exact_reference.mallows_differ`, the exact P[S_N != S_K], and the
    Monte Carlo counts of both engines against it."""

    def test_pinned_values(self):
        # D = 1 - X_2 at N = 1, K = 2
        assert exact_reference.mallows_differ(1, 2) == Fraction(1, 2)
        assert float(exact_reference.mallows_differ(10, 20)) == pytest.approx(0.1234846174, abs=1e-10)

    @pytest.mark.parametrize("N, K", [(N, K) for N in range(1, 5) for K in range(N + 1, N + 7)])
    def test_equals_enumeration(self, N, K):
        assert exact_reference.mallows_differ(N, K) == mallows_differ_by_enumeration(N, K)

    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @pytest.mark.parametrize("N, K", [(10, 20), (80, 160)])
    def test_estimate_within_four_sigma(self, monkeypatch, engine, N, K):
        # Both engines draw X_n = 1{j < cut} with cut = grid_cut(1.0 / n):
        # cut * 2^-53 lies within 2^-52 of 1/n (the double 1.0 / n rounded up
        # to the 53-bit grid), so the law of D = S_N - S_K, made of the
        # K - N + 1 bits X_N..X_K, moves by less than (K - N + 1) 2^-52,
        # far below sigma
        if engine == "compiled":
            if shutil.which(native.BUILD[0]) is None:
                pytest.skip("no C compiler")
            assert native.library() is not None
        else:
            monkeypatch.setattr(native, "library", lambda: None)
        replicas = 200_000
        p = float(exact_reference.mallows_differ(N, K))
        sigma = math.sqrt(p * (1 - p) / replicas)
        estimate = mallows_discrepancy(N, replicas=replicas, K=K, seed=23).estimate
        assert abs(estimate - p) <= 4 * sigma


class TestAscentPeakDefinitions:
    def test_descending_then_ascending(self):
        sample = ascent_peak_from_uniforms([0.9, 0.7, 0.5, 0.3, 0.6, 0.8, 0.2])
        assert sample.s == 4  # first ascent at U_4 < U_5
        assert sample.t == 6  # first peak at U_6
        assert sample.m == 4  # T - S = 2 is even

    def test_immediate_ascent_and_peak(self):
        sample = ascent_peak_from_uniforms([0.1, 0.9, 0.2])
        assert sample.s == 1
        assert sample.t == 2
        assert sample.m == 0  # T - S odd

    def test_truncation(self):
        sample = AscentPeakSample(s=5, t=9)
        assert sample.truncated(3) == (3, 3, 3)
        assert sample.truncated(7) == (5, 7, 5)
        s_n, t_n, m_n = sample.truncated(6)
        assert (s_n, t_n) == (5, 6) and m_n == 4  # parity flips under truncation

    def test_tie_detected(self):
        with pytest.raises(TieEncountered):
            ascent_peak_from_uniforms([0.5, 0.5, 0.1, 0.9, 0.1])

    def test_seeded_sample_deterministic(self):
        assert ascent_peak_sample(5) == ascent_peak_sample(5)


class TestAscentPeakBatch:
    def test_batch_matches_scalar_samples(self):
        # replica r of the batch must read Stream(21, r) however the live
        # replicas were compacted before it resolved
        ns = range(2, 9)
        batch = ascent_peak_batch(500, seed=21, ns=ns)
        samples = [ascent_peak_sample(21, r) for r in range(500)]
        assert batch.samples == 500 and batch.ties == 0
        assert batch.m_counts == dict(Counter(x.m for x in samples))
        for N in ns:
            m_n = [x.truncated(N)[2] for x in samples]
            assert batch.m_n_counts[N] == dict(Counter(m_n))
            assert batch.disagree[N] == sum(a != x.m for a, x in zip(m_n, samples))

    def test_ties_counted_only_among_the_uniforms_a_replica_reads(self, monkeypatch):
        # on a 1/8 grid ties are common; a replica that has resolved must not
        # be dropped for a tie in a column drawn only for the others.  The
        # grid is patched into `next_words`, which only the numpy body reads.
        on_eighths(monkeypatch)
        monkeypatch.setattr(native, "library", lambda: None)
        seed = 17
        batch = ascent_peak_batch(2000, seed)
        ties = 0
        m_counts = Counter()
        for r in range(2000):
            try:
                m_counts[ascent_peak_sample(seed, r).m] += 1
            except TieEncountered:
                ties += 1
        assert ties > 0
        assert batch.ties == ties
        assert batch.samples == 2000 - ties
        assert batch.m_counts == dict(m_counts)

    def test_compiled_ties_on_three_bit_words(self, compiled, monkeypatch, tmp_path):
        # the loops built with 3-bit words compare on the same 1/8 grid, so
        # the compiled tie branch is taken as often as the numpy one
        seed = 17
        on_eighths(monkeypatch)
        expected = scalar_batch(seed, 2000)
        assert expected.ties > 0
        assert on_numpy(lambda: ascent_peak_batch(2000, seed), monkeypatch) == expected
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "BUILD", (native.BUILD[0], "-DWORD_BITS=3", *native.BUILD[1:]))
        native.library.cache_clear()
        try:
            assert native.library() is not None
            assert ascent_peak_batch(2000, seed) == expected
        finally:
            monkeypatch.undo()
            native.library.cache_clear()

    def test_repeated_n_counted_once(self):
        assert ascent_peak_batch(1000, seed=3, ns=(4, 4, 5)) == ascent_peak_batch(1000, seed=3, ns=(4, 5))

    def test_ns_from_a_one_shot_iterable(self):
        # a generator is read once, so its N are checked and kept
        batch = ascent_peak_batch(100, seed=0, ns=(n for n in (4, 6)))
        assert batch == ascent_peak_batch(100, seed=0, ns=(4, 6))
        assert set(batch.m_n_counts) == set(batch.disagree) == {4, 6}
        with pytest.raises(ValueError, match="every N in ns must be an integer"):
            ascent_peak_batch(100, seed=0, ns=(n for n in (4, True)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_numpy_unresolved_replica_is_refused(self, monkeypatch, k):
        # words that only rise give every replica its ascent S = 1 and never
        # a peak: the numpy body returns -1, as the compiled loop does, and
        # the caller raises, on one CPU or with a share on another thread
        rising = itertools.count(1)
        monkeypatch.setattr(
            VectorStreams, "next_words",
            lambda self: np.full(len(self.states), next(rising) << 11, dtype=np.uint64),
        )
        joint = np.zeros((64, 64), dtype=np.int64)
        assert _ascent_peak_numpy(VectorStreams(0, 0, 5), joint) == -1
        assert not joint.any()
        monkeypatch.setattr(native, "library", lambda: None)
        monkeypatch.setattr(native, "cpus", lambda: k)
        with pytest.raises(RuntimeError, match="unresolved after 64 uniforms"):
            ascent_peak_batch(5, seed=0)

    @pytest.mark.parametrize("ns", [(0,), (4, -1), (1, 0)])
    def test_n_below_one_rejected(self, ns):
        with pytest.raises(ValueError, match="every N in ns must be >= 1"):
            ascent_peak_batch(10, seed=0, ns=ns)

    @pytest.mark.parametrize("ns", [(2.5,), (4, True), (4, 4.0), ("4",)])
    def test_non_integer_n_rejected(self, ns):
        # N = 2.5 used to give M_N atoms at -0.5 and 1.5
        with pytest.raises(ValueError, match="every N in ns must be an integer"):
            ascent_peak_batch(100, seed=0, ns=ns)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            ascent_peak_batch(samples, seed=0)

    @pytest.mark.parametrize("ns", [5, None])
    def test_ns_that_is_not_iterable(self, ns):
        with pytest.raises(ValueError, match="every N in ns must be an iterable of integers"):
            ascent_peak_batch(10, 1, ns=ns)

    @pytest.mark.parametrize("samples", [True, 2.5, 100.0, "100"])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            ascent_peak_batch(samples, seed=0)

    def test_n1_law_is_a_point_mass_at_one(self):
        # pi_1 puts all its mass on one fixed point, and M_1 = 1 - 1{0 odd}
        batch = ascent_peak_batch(1000, seed=2, ns=(1,))
        assert batch.m_n_counts[1] == {1: 1000}

    def test_m_law_close_to_poisson(self):
        batch = ascent_peak_batch(120_000, seed=8, ns=())
        ref = poisson_truncated(40)
        tv = empirical_half_tv(batch.m_counts, batch.samples, ref)
        assert tv <= 3 * math.sqrt(20 / batch.samples)

    def test_m_n_law_close_to_pi(self):
        batch = ascent_peak_batch(120_000, seed=8, ns=(4,))
        tv = empirical_half_tv(batch.m_n_counts[4], batch.samples, fixed_point_pmf(4))
        assert tv <= 3 * math.sqrt(20 / batch.samples)

    def test_disagreement_bounded_by_peak_tail(self):
        batch = ascent_peak_batch(120_000, seed=13, ns=(6,))
        assert within_bound(batch.disagree[6], batch.samples, float(peak_tail_exact(6)))


class TestSeedRange:
    """A seed outside [0, 2^64) would alias seed mod 2^64.  Each routine
    checks it before it picks an engine, so both engines refuse it."""

    @pytest.fixture(autouse=True, params=["compiled", "numpy"])
    def engine(self, request, monkeypatch):
        if request.param == "compiled":
            request.getfixturevalue("compiled")
        else:
            monkeypatch.setattr(native, "library", lambda: None)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_ascent_peak_rejects_seeds_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            ascent_peak_batch(100, seed)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_mallows_rejects_seeds_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            mallows_discrepancy(10, replicas=100, K=20, seed=seed)

    def test_top_seed_accepted(self):
        assert ascent_peak_batch(100, TOP_SEED).samples == 100
        assert mallows_discrepancy(10, replicas=100, K=20, seed=TOP_SEED).replicas == 100


def scalar_mallows_differ(seed, N, K, replicas):
    """The replicas r < replicas with S_N != S_K, from mallows_sample."""
    drawn = (mallows_sample(N, K, Stream(seed, r)) for r in range(replicas))
    return sum(x.s_n != x.s_trunc for x in drawn)


class TestEngineEquivalence:
    """The compiled loop, the numpy body and the scalar oracle give the same
    results.  Replica r reads stream (seed, r) in every engine, so a run of
    fewer replicas is a prefix of one of more."""

    @pytest.mark.parametrize("samples", [1, 3, 61, 20_000])
    @pytest.mark.parametrize("seed", [0, TOP_SEED])
    def test_ascent_peak(self, compiled, monkeypatch, seed, samples):
        ns = (1, 63)
        fast = ascent_peak_batch(samples, seed, ns=ns)
        assert fast == on_numpy(lambda: ascent_peak_batch(samples, seed, ns=ns), monkeypatch)
        assert fast == scalar_batch(seed, samples, ns)

    # 7, 8, 9 and 15, 16, 17 replicas: at the edges of the compiled loop's
    # groups of 8 lanes
    @pytest.mark.parametrize("replicas", [1, 3, 7, 8, 9, 15, 16, 17, 61, 20_000])
    @pytest.mark.parametrize("K_of_N", ["N + 1", "2N"])
    @pytest.mark.parametrize("N", [1, 2, 10, 80])
    @pytest.mark.parametrize("seed", [0, TOP_SEED])
    def test_mallows(self, compiled, monkeypatch, seed, N, K_of_N, replicas):
        K = N + 1 if K_of_N == "N + 1" else 2 * N
        fast = mallows_discrepancy(N, replicas=replicas, K=K, seed=seed)
        assert fast == on_numpy(lambda: mallows_discrepancy(N, replicas=replicas, K=K, seed=seed), monkeypatch)
        # the scalar oracle draws every bit, 2 us a word: it runs the 20,000
        # replicas only where K is small
        if replicas < 20_000 or N <= 2:
            differ = scalar_mallows_differ(seed, N, K, replicas)
            assert fast == MallowsDiscrepancy(
                N=N, K=K, replicas=replicas, estimate=differ / replicas,
                sigma=math.sqrt(differ / replicas * (1 - differ / replicas) / replicas),
                tail_bound=Fraction(1, K),
            )


class TestShares:
    """Each compiled loop runs once per share of the replicas
    (`native.shares`); the number of shares changes no count."""

    @staticmethod
    def on_cpus(k, routine, monkeypatch):
        """routine() on k CPUs."""
        with monkeypatch.context() as m:
            m.setattr(native, "cpus", lambda: k)
            return routine()

    @pytest.mark.parametrize("samples", [1, 3, 61, 20_000])
    @pytest.mark.parametrize("seed", [0, TOP_SEED])
    def test_ascent_peak(self, compiled, monkeypatch, seed, samples):
        results = [
            self.on_cpus(k, lambda: ascent_peak_batch(samples, seed, ns=range(1, 9)), monkeypatch)
            for k in (1, 2, 3, 8)
        ]
        assert results[1:] == results[:1] * 3
        assert results[0].samples + results[0].ties == samples

    def test_ascent_peak_ties_in_several_shares(self, compiled, monkeypatch, tmp_path):
        # 3-bit words tie often: the replicas that tie lie in several of
        # eight shares, and their tie counts add up
        seed, samples = 17, 2000
        on_eighths(monkeypatch)
        expected = scalar_batch(seed, samples)
        tied = set()
        for r in range(samples):
            try:
                ascent_peak_sample(seed, r)
            except TieEncountered:
                tied.add(r * 8 // samples)  # its share of eight
        assert len(tied) > 1
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "BUILD", (native.BUILD[0], "-DWORD_BITS=3", *native.BUILD[1:]))
        native.library.cache_clear()
        try:
            assert native.library() is not None
            for k in (1, 2, 3, 8):
                assert self.on_cpus(k, lambda: ascent_peak_batch(samples, seed), monkeypatch) == expected
        finally:
            monkeypatch.undo()
            native.library.cache_clear()

    # 1,003 replicas: 501 + 502 on 2 CPUs and 334 + 334 + 335 on 3, so no
    # share after the first starts at a multiple of 8 and every share ends
    # on the compiled loop's one-replica remainder
    @pytest.mark.parametrize("replicas", [1, 3, 61, 1003, 20_000])
    @pytest.mark.parametrize("N", [1, 2, 10])  # N = 2 starts past 0 words, N = 1 skips none
    @pytest.mark.parametrize("seed", [0, TOP_SEED])
    def test_mallows(self, compiled, monkeypatch, seed, N, replicas):
        results = [
            self.on_cpus(k, lambda: mallows_discrepancy(N, replicas=replicas, K=2 * N + 1, seed=seed), monkeypatch)
            for k in (1, 2, 3, 8)
        ]
        assert results[1:] == results[:1] * 3

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_numpy_bodies_in_shares(self, compiled, monkeypatch, k):
        # each share runs the numpy body on its own streams, VectorStreams(seed,
        # a, b - a): the results equal one share's and the compiled loop's
        routines = (
            lambda: ascent_peak_batch(20_000, TOP_SEED, ns=(1, 4, 63)),
            lambda: mallows_discrepancy(10, replicas=20_000, K=21, seed=TOP_SEED),
        )
        for routine in routines:
            fast = routine()
            whole = self.on_cpus(1, lambda: on_numpy(routine, monkeypatch), monkeypatch)
            shared = self.on_cpus(k, lambda: on_numpy(routine, monkeypatch), monkeypatch)
            assert shared == whole == fast


class TestPeakTailExact:
    def test_n2_equality(self):
        assert peak_tail_exact(2) == Fraction(2, 3)

    def test_n3(self):
        value = peak_tail_exact(3)
        assert value <= Fraction(1, 3)
        assert value == Fraction(8, 24)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bound_ratio_at_most_one(self, n):
        ratio = peak_tail_exact(n) / Fraction(2 ** n, math.factorial(n + 1))
        assert ratio <= 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_direct_recount(self, n):
        # independent recount over all (n+1)! orderings: those whose
        # interior has no local max
        m = n + 1
        count = sum(
            1
            for p in permutations(range(m))
            if not any(p[i - 1] < p[i] > p[i + 1] for i in range(1, m - 1))
        )
        assert peak_tail_exact(n) == Fraction(count, math.factorial(m))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_v_shaped_count(self, n):
        # a peak-free ordering decreases to its minimum and then increases;
        # each of the other n values goes left or right of it: 2^n orderings
        assert peak_tail_exact(n) == Fraction(2 ** n, math.factorial(n + 1))

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            peak_tail_exact(11)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_unmemoised_prefix_count(self, n):
        assert peak_tail_exact(n) == exact_reference.peak_tail_prefix_count(n)

    def test_memo_lives_for_one_call(self, monkeypatch):
        # a count kept across calls would answer without meeting the guard
        first = peak_tail_exact(9)
        assert peak_tail_exact(9) == first
        monkeypatch.setenv("PERMFIX_GUARD_N", "5")
        with pytest.raises(EnumerationGuardError):
            peak_tail_exact(9)

    @pytest.mark.parametrize("value", [True, 9.0, np.int64(9)])
    def test_refuses_non_integer_n(self, value):
        with pytest.raises(ValueError, match="N must be an integer"):
            peak_tail_exact(value)

    @pytest.mark.parametrize("value", [1, 0])
    def test_refuses_n_below_two(self, value):
        with pytest.raises(ValueError, match="N must be >= 2"):
            peak_tail_exact(value)

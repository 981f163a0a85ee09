"""Mallows bit-chain and ascent/peak couplings."""
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from permfix.altcouplings import (
    AscentPeakSample,
    TieEncountered,
    ascent_peak_batch,
    ascent_peak_from_uniforms,
    ascent_peak_sample,
    empirical_half_tv,
    mallows_discrepancy,
    mallows_exact_pmf,
    mallows_sample,
    peak_tail_exact,
)
from permfix.exactdist import fixed_point_pmf, poisson_truncated, tv_distance
from permfix.perms import EnumerationGuardError
from permfix.rng import Stream, VectorStreams


class TestMallowsExact:
    def test_n1_degenerate(self):
        assert mallows_exact_pmf(1) == {1: Fraction(1)}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_fixed_point_law(self, n):
        assert mallows_exact_pmf(n) == fixed_point_pmf(n)

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
        with pytest.raises(ValueError):
            mallows_discrepancy(10, replicas=10, K=10, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="N must be >= 1"):
            mallows_discrepancy(n, replicas=10, K=5, seed=0)


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
        # be dropped for a tie in a column drawn only for the others
        scalar_uniform = Stream.uniform
        vector_uniforms = VectorStreams.uniforms
        monkeypatch.setattr(Stream, "uniform", lambda self: math.floor(scalar_uniform(self) * 8) / 8)
        monkeypatch.setattr(VectorStreams, "uniforms", lambda self: np.floor(vector_uniforms(self) * 8) / 8)
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

    def test_repeated_n_counted_once(self):
        assert ascent_peak_batch(1000, seed=3, ns=(4, 4, 5)) == ascent_peak_batch(1000, seed=3, ns=(4, 5))

    @pytest.mark.parametrize("ns", [(0,), (4, -1), (1, 0)])
    def test_n_below_one_rejected(self, ns):
        with pytest.raises(ValueError, match="every N in ns must be >= 1"):
            ascent_peak_batch(10, seed=0, ns=ns)

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
        rate = batch.disagree_rate(6)
        tail = float(peak_tail_exact(6))
        sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / batch.samples)
        assert rate <= tail + 3 * sigma


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

"""Mallows bit-chain and ascent/peak couplings."""
import math
from fractions import Fraction
from itertools import permutations

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
from permfix.rng import Stream


class TestMallowsExact:
    def test_n1_degenerate(self):
        assert mallows_exact_pmf(1).as_dict() == {1: Fraction(1)}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_fixed_point_law(self, n):
        assert mallows_exact_pmf(n).as_dict() == fixed_point_pmf(n).as_dict()

    def test_sample_consistent_with_bits(self):
        sample = mallows_sample(6, 16, Stream(3, 0))
        assert sample.bits[0] == 1
        assert 0 <= sample.s_n <= 6
        assert sample.tail_bound == Fraction(1, 16)


class TestMallowsDiscrepancy:
    @pytest.mark.parametrize("n", [10, 20])
    def test_vector_estimate_counts_the_scalar_samples(self, n):
        # replica r of the vectorized estimate draws the words of Stream(seed, r)
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
        sample = AscentPeakSample(s=5, t=9, uniforms_used=10)
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
        batch = ascent_peak_batch(500, seed=21, ns=(6,))
        from collections import Counter

        ref = Counter(ascent_peak_sample(21, r).m for r in range(500))
        assert batch.m_counts == dict(ref)

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

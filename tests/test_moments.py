"""Falling-factorial moments, Bell numbers, the Gram matrix and its systems."""
import math
from fractions import Fraction
from itertools import permutations as iter_perms

import pytest

from permfix.exactdist import derangements
from permfix.kernels import p_closedform, state_space
from permfix.moments import (
    bell_numbers,
    coefficient_systems,
    eta2_fk,
    eta2_fk_bruteforce,
    falling_moment,
    gram,
    gram_bruteforce,
    raw_moment_equality,
    solve_exact,
)
from permfix.perms import EnumerationGuardError


class TestBellNumbers:
    def test_triangle_values(self):
        assert bell_numbers(6) == [1, 1, 2, 5, 15, 52, 203]

    def test_partition_count_oracle(self):
        # B_4 = number of set partitions of a 4-element set, counted directly
        def partitions(items):
            if not items:
                yield []
                return
            head, *rest = items
            for part in partitions(rest):
                for i in range(len(part)):
                    yield part[:i] + [[head] + part[i]] + part[i + 1:]
                yield [[head]] + part

        assert bell_numbers(4)[4] == sum(1 for _ in partitions([1, 2, 3, 4]))


class TestFallingMoments:
    def test_k0_is_one(self):
        assert falling_moment(6, 0) == 1

    def test_n4_k3(self):
        # only x = 4 contributes: 4*3*2 * (1/24) = 1
        assert falling_moment(4, 3) == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_orders_equal_one(self, n):
        assert all(falling_moment(n, k) == 1 for k in range(n + 1))

    @pytest.mark.parametrize("n", [5, 6])
    def test_falling_factorial_is_tuple_count(self, n):
        # F_k counts ordered k-tuples of distinct fixed points, pointwise
        for perm in iter_perms(range(n)):
            fixed = [i for i in range(n) if perm[i] == i]
            for k in range(n + 1):
                tuples = sum(1 for _ in iter_perms(fixed, k))
                assert tuples == math.perm(len(fixed), k)


class TestRawMoments:
    def test_n4_k2(self):
        assert raw_moment_equality(4, 2) == (Fraction(2), 2, True)

    def test_n4_k4(self):
        assert raw_moment_equality(4, 4) == (Fraction(15), 15, True)

    def test_n4_k5_differs(self):
        moment, bell, equal = raw_moment_equality(4, 5)
        assert (moment, bell, equal) == (Fraction(51), 52, False)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equality_up_to_n_and_break_after(self, n):
        for k in range(n + 1):
            assert raw_moment_equality(n, k)[2]
        assert not raw_moment_equality(n, n + 1)[2]


class TestEta2Fk:
    def test_plain_expectation(self):
        assert eta2_fk(5, 0) == Fraction(1, 2)

    def test_vanishes_at_top_orders(self):
        assert eta2_fk(5, 4) == 0
        assert eta2_fk(5, 5) == 0

    @pytest.mark.parametrize("n,k", [(4, 0), (5, 2), (6, 3), (6, 5), (7, 7)])
    def test_bruteforce_agrees(self, n, k):
        assert eta2_fk(n, k) == eta2_fk_bruteforce(n, k)

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            eta2_fk_bruteforce(9, 0)


class TestGram:
    def test_corner_entries(self):
        g = gram(6)
        assert g.entry(0, 0) == 1
        assert g.entry(1, 1) == 2
        assert g.entry(6, 6) == math.factorial(6)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_matches_bruteforce(self, n):
        assert gram(n).entries == gram_bruteforce(n).entries

    def test_symmetric_and_first_row_ones(self):
        builds = [gram(n) for n in range(0, 13)] + [gram_bruteforce(n) for n in range(0, 8)]
        for g in builds:
            size = len(g.indices)
            assert len(g.entries) == size and all(len(r) == size for r in g.entries)
            assert all(g.entries[0][j] == 1 for j in range(size)), g.N
            assert all(
                g.entries[i][j] == g.entries[j][i] for i in range(size) for j in range(size)
            ), g.N

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            gram_bruteforce(8)


class TestSolver:
    def test_known_system(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        assert solve_exact(m, [Fraction(5), Fraction(10)]) == [Fraction(1), Fraction(3)]

    def test_singular_detected(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(ZeroDivisionError):
            solve_exact(m, [Fraction(1), Fraction(1)])


class TestCoefficientSystems:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_reconstructs_2p(self, n):
        systems = coefficient_systems(n)
        p = p_closedform(n)
        for x in state_space(n):
            assert systems.f_values[x] == 2 * p[x]
        assert systems.f_values[n - 2] == 2

    @pytest.mark.parametrize("n", range(4, 13))
    def test_b_is_e0(self, n):
        # column 0 of G is all ones (symmetry and a first row of ones), so
        # G e_0 = (1, ..., 1), the right-hand side of the b system
        G = gram(n)
        assert all(row[0] == 1 for row in G.entries)
        e0 = [Fraction(1)] + [Fraction(0)] * (len(G.indices) - 1)
        systems = coefficient_systems(n)
        assert list(systems.b) == e0
        assert all(isinstance(v, Fraction) for v in systems.b)
        assert solve_exact(G.entries, [Fraction(1)] * len(G.indices)) == e0

    def test_c_is_difference(self):
        systems = coefficient_systems(6)
        assert all(c == a - b for a, b, c in zip(systems.a, systems.b, systems.c))

    def test_needed_functional_positive_and_small(self):
        systems = coefficient_systems(10)
        assert systems.needed_functional.lo >= 0
        assert systems.needed_functional.hi < Fraction(1, 100)


class TestLemmaB1Chain:
    @pytest.mark.parametrize("n", range(4, 21))
    def test_exact_gap_identity(self, n):
        # |2p(x) - 1| = (N-x-1) / ((N-x)! * sum_{l<=N-x} (-1)^l / l!)
        #             = (N-x-1) / D_{N-x}
        p = p_closedform(n)
        d = derangements(n)
        for x in range(0, n - 1):
            m = n - x
            assert abs(2 * p[x] - 1) == Fraction(m - 1, d[m])

    def test_partial_sums_bracketed(self):
        # sum_{l<=m} (-1)^l / l! = D_m / m! lies in [1/3, 1/2] for m >= 2
        d = derangements(39)
        for m in range(2, 40):
            s = Fraction(d[m], math.factorial(m))
            assert Fraction(1, 3) <= s <= Fraction(1, 2)

"""The int8 permutation table, its ranks, transposition moves and cycle counts, and the guards."""
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from permfix import kernels, lumping, moments, perms
from permfix.exactdist import ExactDist
from permfix.perms import (
    CycleType,
    EnumerationGuardError,
    all_cycle_types,
    cycle_counts_table,
    lex_rank,
    permutation_table,
    transposition_ranks,
)


def cycle_counts(perm):
    """(eta_1, ..., eta_N) of one permutation by the marking sweep: the
    scalar oracle for `cycle_counts_table`."""
    n = len(perm)
    seen = [False] * n
    counts = [0] * n
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        counts[length - 1] += 1
    return tuple(counts)


def apply_transposition(perm, a, b):
    """tau * perm for tau = (a b), one tuple at a time: the scalar oracle for
    `transposition_ranks`."""
    out = list(perm)
    out[perm.index(a)] = b
    out[perm.index(b)] = a
    return tuple(out)


class TestMarkingSweep:
    def test_examples(self):
        assert cycle_counts(()) == ()
        assert cycle_counts((0, 1, 2)) == (3, 0, 0)
        assert cycle_counts((1, 0, 3, 4, 2)) == (0, 1, 1, 0, 0)
        assert cycle_counts((1, 2, 3, 0)) == (0, 0, 0, 1)


class TestPermutationTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_are_the_lexicographic_permutations(self, n):
        table = permutation_table(n)
        assert table.dtype == np.int8
        assert table.shape == (math.factorial(n), n)
        assert table.tolist() == [list(p) for p in permutations(range(n))]

    def test_n0_has_one_empty_row(self):
        assert permutation_table(0).shape == (1, 0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="N must be >= 0"):
            permutation_table(-1)


class TestLexRank:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_rank_of_the_table_is_its_row_index(self, n):
        assert lex_rank(permutation_table(n)).tolist() == list(range(math.factorial(n)))

    def test_any_row_order(self):
        table = permutation_table(5)
        order = np.random.default_rng(0).permutation(len(table))
        assert (lex_rank(table[order]) == order).all()


class TestTranspositionRanks:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_scalar_swap(self, n):
        perms_n = list(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms_n)}
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        got = list(transposition_ranks(permutation_table(n)))
        assert len(got) == len(pairs)
        for (a, b), ranks in zip(pairs, got):
            assert ranks.tolist() == [index[apply_transposition(p, a, b)] for p in perms_n]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_walk_rows_equal_the_scalar_swap(self, n):
        walk = lumping.transposition_walk(n)
        weight = Fraction(2, n * (n - 1))
        perms_n = list(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms_n)}
        assert walk.states == tuple(range(math.factorial(n)))
        for r in walk.states:
            expected = {
                index[apply_transposition(perms_n[r], a, b)]: weight
                for a in range(n) for b in range(a + 1, n)
            }
            assert walk.row(r) == expected
            assert list(walk.row(r)) == list(expected)


class TestRankStates:
    """Rank r of the S_N chains is row r of the table, the r-th permutation
    in lexicographic order."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_blocks_are_the_cycle_types_of_the_ranks(self, n):
        chain = lumping.permutation_chain(n)
        perms_n = list(permutations(range(n)))
        assert chain.kernel.states == tuple(range(len(perms_n)))
        for r, perm in enumerate(perms_n):
            assert chain.blocks[r] == CycleType(cycle_counts(perm))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_uniform_law_is_one_over_n_factorial_per_rank(self, n):
        law = lumping.uniform_on_permutations(n)
        assert isinstance(law, ExactDist)
        den, nums = law.integer_weights
        assert den == math.factorial(n)
        assert dict(nums) == dict.fromkeys(range(den), 1)


class TestCycleCountsTable:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_equals_the_marking_sweep(self, n):
        table = permutation_table(n)
        got = cycle_counts_table(table)
        assert got.shape == (len(table), n)
        assert [tuple(row) for row in got.tolist()] == [
            cycle_counts(tuple(row)) for row in table.tolist()
        ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_sizes(self, n):
        found = Counter(map(tuple, cycle_counts_table(permutation_table(n)).tolist()))
        assert found == {t.counts: t.class_size() for t in all_cycle_types(n)}


class TestFixedPointSums:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_equals_the_marking_sweep(self, n):
        count, two_cycles = [0] * (n + 1), [0] * (n + 1)
        for perm in permutations(range(n)):
            eta = cycle_counts(perm) + (0, 0)
            count[eta[0]] += 1
            two_cycles[eta[0]] += eta[1]
        assert perms.fixed_point_sums(n) == (count, two_cycles)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_equals_the_cycle_counts_table(self, n):
        table = permutation_table(n)
        # two zero columns give every n an eta_1 and an eta_2 column, n = 0 and 1 too
        counts = np.hstack([cycle_counts_table(table), np.zeros((len(table), 2), dtype=np.uint8)])
        eta1, eta2 = counts[:, 0], counts[:, 1]
        count = np.bincount(eta1, minlength=n + 1).tolist()
        two_cycles = [int(eta2[eta1 == x].sum()) for x in range(n + 1)]
        assert perms.fixed_point_sums(n) == (count, two_cycles)

    @pytest.mark.parametrize("rows", [13, 5039, 5040])
    def test_the_same_sums_for_any_slice_of_rows(self, rows, monkeypatch):
        # 7! = 5040 rows as ragged slices of 13, as 5039 + 1, and as one slice
        expected = perms.fixed_point_sums(7)
        monkeypatch.setattr(perms, "ROWS_PER_SLICE", rows)
        assert perms.fixed_point_sums(7) == expected

    @pytest.mark.parametrize("n", range(0, 9))
    def test_callers_equal_their_closed_forms(self, n):
        """Every caller over its whole guard range: p and eta2_fk to 8, gram to 7."""
        if n >= 1:
            assert kernels.p_bruteforce(n).values == kernels.p_closedform(n).values
        if n <= 7:
            assert moments.gram_bruteforce(n).entries == moments.gram(n).entries
        assert all(moments.eta2_fk_bruteforce(n, k) == moments.eta2_fk(n, k) for k in range(n + 1))


class TestGuardBeforeAllocation:
    @pytest.mark.parametrize("oracle", [
        lambda: kernels.p_bruteforce(30),
        lambda: lumping.cycle_type_chain(30),
        lambda: lumping.permutation_chain(30),
        lambda: moments.gram_bruteforce(30),
        lambda: moments.eta2_fk_bruteforce(30, 0),
        lambda: lumping.uniform_on_permutations(30),
        lambda: lumping.transposition_walk(30),
    ], ids=["p_bruteforce", "cycle_type_chain", "permutation_chain", "gram_bruteforce", "eta2_fk_bruteforce",
            "uniform_on_permutations", "transposition_walk"])
    def test_guard_raises_before_the_table_is_built(self, oracle, monkeypatch):
        def no_table(N):
            raise AssertionError(f"permutation_table({N}) built before the guard")

        def no_tuples(N):
            raise AssertionError(f"iter_permutations({N}) called before the guard")

        monkeypatch.delenv(perms.GUARD_ENV, raising=False)
        for module in (perms, lumping):
            monkeypatch.setattr(module, "permutation_table", no_table)
        monkeypatch.setattr(perms, "iter_permutations", no_tuples)
        with pytest.raises(EnumerationGuardError):
            oracle()

"""Projection, intertwining, Dynkin checks, and the symmetric-group chains."""
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfix import lumping
from permfix.exactdist import fixed_point_pmf, poisson_truncated
from permfix.kernels import (
    StochasticKernel,
    build_penta,
    check_reversibility,
    p_bruteforce,
    poisson_reversible_penta,
)
from permfix.lumping import (
    PartitionedChain,
    cycle_type_chain,
    dynkin_check,
    permutation_chain,
    project,
    reversibility_transfer,
    transposition_walk,
)
from permfix.perms import CycleType, EnumerationGuardError


def rotation_chain():
    """Three-state deterministic rotation: uniform invariant, not reversible."""
    third = Fraction(1, 3)
    kernel = StochasticKernel((0, 1, 2), ((1, {1: 1}), (1, {2: 1}), (1, {0: 1})), label="rotation")
    return PartitionedChain(
        kernel=kernel,
        invariant={0: third, 1: third, 2: third},
        blocks={0: 0, 1: 1, 2: 1},
    )


class TestProjection:
    def test_trivial_partition_identity(self):
        n = 6
        chain = cycle_type_chain(n)
        trivial = PartitionedChain(
            kernel=chain.kernel,
            invariant=chain.invariant,
            blocks={t: t for t in chain.kernel.states},
        )
        result = project(trivial)
        assert result.kernel.states == chain.kernel.states
        for t in chain.kernel.states:
            assert result.kernel.row(t) == chain.kernel.row(t)
        assert result.mu1 == dict(chain.invariant)

    def test_one_block_partition(self):
        chain = cycle_type_chain(5)
        lumped = PartitionedChain(
            kernel=chain.kernel,
            invariant=chain.invariant,
            blocks={t: 0 for t in chain.kernel.states},
        )
        result = project(lumped)
        assert result.kernel.states == (0,)
        assert result.kernel.entry(0, 0) == 1
        assert result.mu1 == {0: Fraction(1)}

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_projection_vs_penta_known_relationship(self, n):
        # Verified by full enumeration: the eta_1 projection of the cycle-type
        # chain reproduces the penta kernel's size-two entries exactly, while
        # its size-one entries are exactly twice the penta rates.  Literal
        # entrywise equality fails by that factor; both kernels share the
        # reversible law pi_N.
        result = project(cycle_type_chain(n))
        penta = build_penta(n, p_bruteforce(n))
        assert result.kernel.states == penta.states
        for x in penta.states:
            for y in penta.states:
                if x == y:
                    continue
                projected = result.kernel.entry(x, y)
                literal = penta.entry(x, y)
                if abs(x - y) == 2:
                    assert projected == literal
                elif abs(x - y) == 1:
                    assert projected == 2 * literal
                else:
                    assert projected == 0 == literal
        assert check_reversibility(result.kernel, fixed_point_pmf(n)).ok

    def test_mu1_is_pi(self):
        n = 6
        result = project(cycle_type_chain(n))
        assert result.mu1 == fixed_point_pmf(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_walk_projects_to_cycle_type_chain(self, n):
        # W != V: the transposition walk on S_n lumped by cycle type, the
        # brute-force check of the case analysis in `cycle_type_chain`
        projected = project(permutation_chain(n)).kernel
        reference = cycle_type_chain(n).kernel
        assert set(projected.states) == set(reference.states)
        for t in reference.states:
            assert projected.row(t) == reference.row(t)

    def test_zero_mass_block_impossible_by_construction(self):
        chain = cycle_type_chain(4)
        assert all(m > 0 for m in project(chain).mu1.values())


class TestReversibilityTransfer:
    def test_transposition_walk_instance(self):
        report = reversibility_transfer(permutation_chain(4))
        assert report.upstream_reversible
        assert report.projected_reversible

    def test_report_carries_the_projection(self):
        chain = cycle_type_chain(5)
        carried = reversibility_transfer(chain).projection
        direct = project(chain)
        assert carried.kernel.states == direct.kernel.states
        assert all(carried.kernel.row(v) == direct.kernel.row(v) for v in direct.kernel.states)
        assert carried.mu1 == direct.mu1

    def test_rotation_chain_fails_upstream(self):
        report = reversibility_transfer(rotation_chain())
        assert not report.upstream_reversible
        # two-state projections are automatically reversible for mu_1
        assert report.projected_reversible

    def test_poisson_kernel_through_parity_blocks(self):
        n = 6
        kernel = poisson_reversible_penta(n)
        chain = PartitionedChain(
            kernel=kernel,
            invariant=poisson_truncated(n),
            blocks={x: x % 2 for x in kernel.states},
        )
        report = reversibility_transfer(chain)
        assert report.upstream_reversible
        assert report.projected_reversible

    def test_zero_weight_state_rejected(self):
        # state 1 leaks into the absorbing state 0, so mu = (1, 0) is invariant
        kernel = StochasticKernel((0, 1), ((1, {0: 1}), (2, {0: 1, 1: 1})), label="absorbing")
        chain = PartitionedChain(
            kernel=kernel,
            invariant={0: Fraction(1), 1: Fraction(0)},
            blocks={0: 0, 1: 0},
        )
        with pytest.raises(ValueError):
            reversibility_transfer(chain)

    def test_zero_weight_state_dropped_from_the_integer_law(self):
        kernel = StochasticKernel((0, 1), ((1, {0: 1}), (2, {0: 1, 1: 1})), label="absorbing")
        chain = PartitionedChain(
            kernel=kernel, invariant={0: Fraction(1), 1: Fraction(0)}, blocks={0: 0, 1: 0}
        )
        assert chain.integer_invariant == (1, {0: 1})
        assert dict(chain.invariant) == {0: 1, 1: 0}
        assert project(chain).mu1 == {0: 1}
        split = PartitionedChain(kernel=kernel, invariant=chain.invariant, blocks={0: 0, 1: 1})
        with pytest.raises(ValueError, match="block 1 has zero invariant mass"):
            project(split)


class TestDynkin:
    def test_own_blocks_all_true(self):
        chain = cycle_type_chain(4)
        own = PartitionedChain(
            kernel=chain.kernel,
            invariant=chain.invariant,
            blocks={t: t for t in chain.kernel.states},
        )
        assert all(dynkin_check(own).values())

    def test_s5_eta1_pattern(self):
        # blocks 2, 3, 5 are singleton conjugacy-class groups, so their rows
        # are trivially constant; blocks 0 and 1 each contain two cycle types
        # with different two-cycle counts, which breaks the condition.
        result = dynkin_check(cycle_type_chain(5))
        falses = {pair for pair, ok in result.items() if not ok}
        assert falses == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)}
        for v in (2, 3, 5):
            assert all(result[(v, w)] for w in (0, 1, 2, 3, 5))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_walk_is_lumpable_by_cycle_type(self, n):
        # every member of a conjugacy class sends the same mass to each class
        assert all(dynkin_check(permutation_chain(n)).values())

    def test_block_with_distinct_rows(self):
        # a block of two states whose rows put different mass on another
        # block; with a single all-encompassing block the condition would
        # hold vacuously, so a second block is needed to expose it
        kernel = StochasticKernel(
            (0, 1, 2),
            ((2, {0: 1, 2: 1}), (4, {0: 1, 1: 2, 2: 1}), (8, {0: 4, 1: 3, 2: 1})),
            label="three",
        )
        invariant = {0: Fraction(11, 25), 1: Fraction(6, 25), 2: Fraction(8, 25)}
        chain = PartitionedChain(
            kernel=kernel, invariant=invariant, blocks={0: "a", 1: "a", 2: "b"}
        )
        result = dynkin_check(chain)
        assert result[("a", "b")] is False
        assert result[("b", "a")] is True


class TestTranspositionWalk:
    def test_n2(self):
        walk = transposition_walk(2)
        a, b = walk.states
        assert walk.entry(a, b) == 1
        assert walk.entry(b, a) == 1

    def test_row_normalization_n5(self):
        walk = transposition_walk(5)
        sigma = walk.states[0]
        assert sum(walk.row(sigma).values()) == 1
        assert all(v == Fraction(2, 20) for v in walk.row(sigma).values())

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_uniform_invariant(self, n):
        from permfix.lumping import uniform_on_permutations

        walk = transposition_walk(n)
        assert walk.is_invariant(uniform_on_permutations(n))

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            transposition_walk(9)


class TestCycleTypeChain:
    def test_identity_row_n3(self):
        chain = cycle_type_chain(3)
        row = chain.kernel.row(CycleType((3, 0, 0)))
        assert row == {CycleType((1, 1, 0)): Fraction(1)}

    def test_double_transposition_row_n4(self):
        # 2 of the 6 transpositions undo one 2-cycle, 4 merge to a 4-cycle
        chain = cycle_type_chain(4)
        row = chain.kernel.row(CycleType((0, 2, 0, 0)))
        assert row == {
            CycleType((2, 1, 0, 0)): Fraction(1, 3),
            CycleType((0, 0, 0, 1)): Fraction(2, 3),
        }

    def test_invariant_is_class_weights(self):
        chain = cycle_type_chain(5)
        total = sum(chain.invariant.values())
        assert total == 1
        assert chain.invariant[CycleType((5, 0, 0, 0, 0))] == Fraction(1, 120)

    def test_blocks_are_fixed_point_counts(self):
        chain = cycle_type_chain(4)
        assert chain.blocks[CycleType((0, 0, 0, 1))] == 0
        assert chain.blocks[CycleType((4, 0, 0, 0))] == 4
        assert chain.block_ids() == (0, 1, 2, 4)

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            cycle_type_chain(9)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_points(self, n):
        # S_1 has no transposition, so the walk has no rows to lump
        with pytest.raises(ValueError, match="N must be >= 2"):
            cycle_type_chain(n)

    def test_n2(self):
        chain = cycle_type_chain(2)
        assert chain.kernel.row(CycleType((2, 0))) == {CycleType((0, 1)): Fraction(1)}

    def test_guard_override(self, monkeypatch):
        monkeypatch.setenv("PERMFIX_GUARD_N", "3")
        with pytest.raises(EnumerationGuardError):
            cycle_type_chain(4)


class TestPartitionedChainValidation:
    def test_non_invariant_rejected(self):
        kernel = StochasticKernel((0, 1), ((1, {1: 1}), (2, {0: 1, 1: 1})), label="bad")
        with pytest.raises(ValueError):
            PartitionedChain(
                kernel=kernel,
                invariant={0: Fraction(1, 2), 1: Fraction(1, 2)},
                blocks={0: 0, 1: 0},
            )

    def test_invariant_and_blocks_read_only(self):
        chain = cycle_type_chain(4)
        t = chain.kernel.states[0]
        with pytest.raises(TypeError):
            chain.invariant[t] = Fraction(7)
        with pytest.raises(TypeError):
            chain.blocks[t] = 99
        assert dict(chain.invariant) == {s: s.class_weight() for s in chain.kernel.states}
        assert dict(chain.blocks) == {s: s.fixed_points for s in chain.kernel.states}

    def test_incomplete_blocks_rejected(self):
        chain = cycle_type_chain(3)
        blocks = dict(chain.blocks)
        blocks.popitem()
        with pytest.raises(ValueError):
            PartitionedChain(kernel=chain.kernel, invariant=chain.invariant, blocks=blocks)


def naive_is_invariant(kernel, weights):
    """w K = w, adding one `Fraction` at a time (the reference for `is_invariant`)."""
    acc = {s: Fraction(0) for s in kernel.states}
    for s, row in zip(kernel.states, kernel.rows):
        for t, q in row.items():
            acc[t] += weights[s] * q
    return all(acc[s] == weights[s] for s in kernel.states)


def naive_block_rows(chain):
    """Q(w, A_v') for every state w, adding one `Fraction` at a time."""
    out = {}
    for w, row in zip(chain.kernel.states, chain.kernel.rows):
        acc = defaultdict(Fraction)
        for w2, q in row.items():
            acc[chain.blocks[w2]] += q
        out[w] = dict(acc)
    return out


def naive_projection(chain):
    """(rows by block, block masses) of `project`, one `Fraction` at a time."""
    mass = defaultdict(Fraction)
    for w, v in chain.blocks.items():
        mass[v] += chain.invariant[w]
    rows = {v: defaultdict(Fraction) for v in mass}
    for w, row in zip(chain.kernel.states, chain.kernel.rows):
        v = chain.blocks[w]
        for w2, q in row.items():
            rows[v][chain.blocks[w2]] += chain.invariant[w] / mass[v] * q
    return {v: {t: x for t, x in r.items() if x} for v, r in rows.items()}, dict(mass)


def nudged(law):
    """law with half of its first state's mass moved to its second state."""
    states = list(law)
    eps = law[states[0]] / 2
    return {**law, states[0]: law[states[0]] - eps, states[1]: law[states[1]] + eps}


def assert_matches_naive(chain):
    ids = chain.block_ids()  # _block_rows names blocks by their index here
    block_rows = {}
    for v, members in zip(ids, lumping._block_rows(chain), strict=True):
        for w, den, row in members:
            assert chain.blocks[w] == v
            block_rows[w] = {ids[k]: Fraction(n, den) for k, n in row.items()}
    assert block_rows == naive_block_rows(chain)
    rows, mass = naive_projection(chain)
    result = project(chain)
    assert result.mu1 == mass
    assert {v: dict(result.kernel.row(v)) for v in result.kernel.states} == rows
    assert chain.kernel.is_invariant(chain.invariant)
    assert naive_is_invariant(chain.kernel, chain.invariant)
    perturbed = nudged(chain.invariant)
    assert chain.kernel.is_invariant(perturbed) == naive_is_invariant(chain.kernel, perturbed)
    return perturbed


@st.composite
def conductance_chains(draw):
    """A random walk on 2-5 states with symmetric integer conductances c(x, y)
    and a positive self-loop: K(x, y) = c(x, y) / c(x) is reversible for
    mu(x) = c(x) / sum c, exactly.  Blocks are drawn at random."""
    size = draw(st.integers(2, 5))
    c = {}
    for i in range(size):
        for j in range(i, size):
            c[i, j] = c[j, i] = draw(st.integers(1 if i == j else 0, 6))
    totals = [sum(c[i, j] for j in range(size)) for i in range(size)]
    kernel = StochasticKernel(
        tuple(range(size)),
        tuple((totals[i], {j: c[i, j] for j in range(size) if c[i, j]}) for i in range(size)),
        label="conductance",
    )
    blocks = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    return PartitionedChain(
        kernel=kernel,
        invariant={i: Fraction(t, sum(totals)) for i, t in enumerate(totals)},
        blocks=dict(enumerate(blocks)),
    )


class TestCommonDenominatorSums:
    """`is_invariant`, `_block_rows` and `project` against
    term-by-term `Fraction` sums."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_permutation_chain(self, n):
        chain = permutation_chain(n)
        assert not chain.kernel.is_invariant(assert_matches_naive(chain))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_cycle_type_chain(self, n):
        chain = cycle_type_chain(n)
        assert not chain.kernel.is_invariant(assert_matches_naive(chain))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(conductance_chains(), st.lists(st.integers(1, 9), min_size=5, max_size=5))
    def test_small_reversible_chains(self, chain, raw):
        assert_matches_naive(chain)
        states = chain.kernel.states
        law = {s: Fraction(r, sum(raw[:len(states)])) for s, r in zip(states, raw)}
        assert chain.kernel.is_invariant(law) == naive_is_invariant(chain.kernel, law)

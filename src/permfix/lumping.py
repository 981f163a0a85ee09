"""Projection of Markov chains along a state-space partition.

Given a kernel Q on W with invariant law mu and a partition W = union of
blocks A_v, the projected kernel on block ids is

    P(v, v') = sum_{w in A_v, w' in A_{v'}} (mu(w) / mu(A_v)) Q(w, w')

with invariant law mu_1(v) = mu(A_v).  With the constant-row link
Lambda(w, v) = mu_1(v), the intertwining Q Lambda = Lambda P reduces to
mu_1 P = mu_1, which `project` checks exactly; reversibility of mu transfers
to mu_1.  Each kernel row is summed into blocks, Q(w, A_v'), in one place
(`_block_rows`), which both `project` and `dynkin_check` read: integer
numerators over the row's own denominator, keyed by block index (the
position in `block_ids()`); labels name only the projected kernel.  The
invariant law is read once, as integers n_w over one denominator
(`exactdist.over_one_denominator`, held to `exactdist.checked_weights`): a
block's mass is the sum m_v of its n_w, the mu_1 that `project` returns,
and its projected row one integer sum over m_v times the lcm of its
members' row denominators.
Instantiated on the symmetric group: the transposition walk on the ranks
range(N!) of `perms.permutation_table`, its moves tau sigma from one rule
(`perms.transposition_ranks`), its uniform law N! unit numerators; the
coagulation-fragmentation chain on cycle types, built by the merge/split
case analysis alone; and the further lumping through the fixed-point
count that reproduces the penta-diagonal kernel.  That the walk lumps to
the case analysis is checked by brute force in the tests, by `project`
and `dynkin_check` on `permutation_chain`.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Hashable, Mapping

import numpy as np

from . import kernels
from .exactdist import ExactDist, checked_weights, over_one_denominator
from .kernels import StochasticKernel
from .perms import (
    CycleType,
    all_cycle_types,
    check_guard,
    cycle_counts_table,
    permutation_table,
    transposition_ranks,
)


@dataclass(frozen=True)
class PartitionedChain:
    """A kernel with exact invariant law and a partition of its state space.

    The law is read once, as `integer_invariant` = (den, {state:
    numerator}) under `exactdist.checked_weights`, zero weights dropped;
    the chain's own checks are that the law and the partition are defined
    exactly on the states and that the law is invariant.  An `ExactDist`
    is kept as given, any other law stored as `Fraction`s; all are
    read-only, so a validated chain stays validated.
    """

    kernel: StochasticKernel
    invariant: Mapping[Hashable, Fraction]
    blocks: Mapping[Hashable, Hashable]
    integer_invariant: tuple[int, Mapping[Hashable, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states = self.kernel.states
        if set(self.invariant) != set(states):
            raise ValueError("invariant law must be defined exactly on the states")
        den, nums = checked_weights(*over_one_denominator(self.invariant))
        if not isinstance(self.invariant, ExactDist):
            inv = MappingProxyType({s: Fraction(nums.get(s, 0), den) for s in states})
            object.__setattr__(self, "invariant", inv)
        if not self.kernel.is_invariant(self.invariant):
            raise ValueError("mu Q != mu: not an invariant law")
        if set(self.blocks) != set(states):
            raise ValueError("every state must be assigned a block")
        object.__setattr__(self, "blocks", MappingProxyType(dict(self.blocks)))
        object.__setattr__(self, "integer_invariant", (den, nums))

    def block_ids(self) -> tuple[Hashable, ...]:
        return tuple(sorted(set(self.blocks.values())))


@dataclass(frozen=True)
class ProjectionResult:
    """Projected kernel and its invariant law mu_1 (the block masses)."""

    kernel: StochasticKernel
    mu1: dict[Hashable, Fraction]


def _block_rows(chain: PartitionedChain) -> list[list[tuple[Hashable, int, dict[int, int]]]]:
    """Q(w, A_v') for every state w, by block: entry j lists the members w
    of block `chain.block_ids()[j]`, in the kernel's state order, as (w,
    den, {k: numerator}), the row of w summed into block indices k over
    its own denominator."""
    ids = chain.block_ids()
    index = {v: j for j, v in enumerate(ids)}
    block_of = {w: index[v] for w, v in chain.blocks.items()}
    out: list[list] = [[] for _ in ids]
    for w, (den, row) in zip(chain.kernel.states, chain.kernel.integer_rows):
        sums: dict[int, int] = defaultdict(int)
        for w2, n in row.items():
            sums[block_of[w2]] += n
        out[block_of[w]].append((w, den, dict(sums)))
    return out


def project(chain: PartitionedChain) -> ProjectionResult:
    """Project the chain along its partition and check mu_1 invariant for the
    projected kernel (an `AssertionError` if not).  A zero-mass block is an
    error.
    """
    ids = chain.block_ids()
    den, mu = chain.integer_invariant
    mu1, rows = {}, []
    for v, members in zip(ids, _block_rows(chain)):
        m = sum(mu.get(w, 0) for w, _, _ in members)
        if m == 0:
            raise ValueError(f"block {v!r} has zero invariant mass")
        # share mu(w) / mu(A_v) = n_w / m_v times Q(w, A_v') = n / row_den,
        # all over one row denominator m_v * lcm(row_den)
        common = math.lcm(*(row_den for _, row_den, _ in members))
        nums: dict[int, int] = defaultdict(int)
        for w, row_den, sums in members:
            share = mu.get(w, 0) * (common // row_den)
            for k, n in sums.items():
                nums[k] += share * n
        mu1[v] = Fraction(m, den)
        rows.append((m * common, {ids[k]: n for k, n in nums.items()}))
    projected = StochasticKernel(ids, rows, label=f"proj({chain.kernel.label})")
    if not projected.is_invariant(mu1):
        raise AssertionError("mu_1 is not invariant for the projected kernel")
    return ProjectionResult(kernel=projected, mu1=mu1)


@dataclass(frozen=True)
class TransferReport:
    upstream_reversible: bool
    projected_reversible: bool
    projection: ProjectionResult


def reversibility_transfer(chain: PartitionedChain) -> TransferReport:
    """Check mu reversible for Q and mu_1 reversible for the projection,
    which the report carries.

    A state of zero weight raises `ValueError`, as in `check_reversibility`;
    a projection that fails its check raises `AssertionError`, as in `project`.
    """
    upstream = kernels.check_reversibility(chain.kernel, chain.invariant)
    result = project(chain)
    projected = kernels.check_reversibility(result.kernel, result.mu1)
    return TransferReport(
        upstream_reversible=upstream.ok,
        projected_reversible=projected.ok,
        projection=result,
    )


def dynkin_check(chain: PartitionedChain) -> dict[tuple[Hashable, Hashable], bool]:
    """Is Q(w, A_{v'}) constant over w in A_v, for every block pair (v, v')?

    When every entry is True the projected kernel coincides with the
    classical lumped chain.
    """
    ids = chain.block_ids()
    out: dict[tuple[Hashable, Hashable], bool] = {}
    for v, ((_, den0, first), *rest) in zip(ids, _block_rows(chain)):
        for k, v2 in enumerate(ids):
            n0 = first.get(k, 0)
            out[(v, v2)] = all(row.get(k, 0) * den0 == n0 * den for _, den, row in rest)
    return out


# ---------------------------------------------------------------------------
# symmetric-group instances
# ---------------------------------------------------------------------------

def transposition_walk(N: int) -> StochasticKernel:
    """The random-transposition walk on S_N, T(sigma, tau sigma) = 2/(N(N-1)),
    on the lexicographic ranks range(N!): rank r is row r of the table."""
    if N < 2:
        raise ValueError("N must be >= 2")
    check_guard(N, 8, "transposition_walk")
    moves = np.column_stack(list(transposition_ranks(permutation_table(N))))  # [sigma, (a b)]
    den = N * (N - 1) // 2
    rows = [(den, dict.fromkeys(targets, 1)) for targets in moves.tolist()]
    return StochasticKernel(range(len(rows)), rows, label=f"T_{N}")


def uniform_on_permutations(N: int) -> ExactDist:
    """The uniform law on S_N, on the lexicographic ranks (guarded: N! states)."""
    check_guard(N, 8, "uniform_on_permutations")
    size = math.factorial(N)
    return ExactDist(size, dict.fromkeys(range(size), 1))


def _split_pair_count(length: int, part: int) -> int:
    """Transposition pairs inside one cycle of the given length producing the
    split {part, length - part}: length pairs when the parts differ, length/2
    when the cycle splits evenly."""
    other = length - part
    if part > other:
        return 0
    return length // 2 if part == other else length


def _cycle_type_row(ct: CycleType) -> tuple[int, dict[CycleType, int]]:
    """Direct case analysis of one random-transposition move on a cycle
    type, as (N(N-1), {target: numerator})."""
    N = ct.N
    counts = ct.counts
    den = N * (N - 1)  # probabilities are 2 * (pair count) / (N(N-1))
    twice_pairs: dict[CycleType, int] = defaultdict(int)  # numerators over den

    def bump(new_counts: list[int], pairs: int) -> None:
        if pairs:
            twice_pairs[CycleType(tuple(new_counts))] += 2 * pairs

    # merge two cycles of lengths l != m
    for l in range(1, N + 1):
        if counts[l - 1] == 0:
            continue
        for m in range(l + 1, N + 1):
            if counts[m - 1] == 0:
                continue
            pairs = l * counts[l - 1] * m * counts[m - 1]
            nc = list(counts)
            nc[l - 1] -= 1
            nc[m - 1] -= 1
            nc[l + m - 1] += 1
            bump(nc, pairs)
        # merge two distinct cycles of the same length l
        if counts[l - 1] >= 2 and 2 * l <= N:
            pairs = counts[l - 1] * (counts[l - 1] - 1) // 2 * l * l
            nc = list(counts)
            nc[l - 1] -= 2
            nc[2 * l - 1] += 1
            bump(nc, pairs)
    # split one cycle of length l >= 2 into {a, l - a}
    for l in range(2, N + 1):
        if counts[l - 1] == 0:
            continue
        for a in range(1, l // 2 + 1):
            pairs = counts[l - 1] * _split_pair_count(l, a)
            nc = list(counts)
            nc[l - 1] -= 1
            nc[a - 1] += 1
            nc[l - a - 1] += 1
            bump(nc, pairs)

    twice_pairs[ct] += den - sum(twice_pairs.values())
    return den, dict(twice_pairs)


def _type_index(table: np.ndarray, types: list[CycleType]) -> np.ndarray:
    """Position in `types` of each row's cycle type.  A multiplicity vector
    read as a number base N+1 sorts as the vector does, and `types` is
    sorted by multiplicity vector."""
    N = table.shape[1]

    def keys(counts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(counts), dtype=np.int64)
        for column in counts.T:
            out = out * (N + 1) + column
        return out

    return np.searchsorted(keys(np.array([t.counts for t in types])), keys(cycle_counts_table(table)))


def cycle_type_chain(N: int) -> PartitionedChain:
    """The coagulation-fragmentation chain on cycle types of S_N.

    Each row is the merge/split case analysis of one random-transposition
    move (`_cycle_type_row`), so S_N is never enumerated; the tests check
    the rows against the brute-force lumping of the walk,
    `project(permutation_chain(N))`.  The result carries the class-size
    invariant law and the eta_1 partition.  The guard bounds the number of
    cycle types (22 at N = 8); no walk on N! states is built.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    check_guard(N, 8, "cycle_type_chain")
    types = all_cycle_types(N)
    kernel = StochasticKernel(types, [_cycle_type_row(t) for t in types], label=f"Q_cycle_{N}")
    invariant = {t: t.class_weight() for t in types}
    blocks = {t: t.fixed_points for t in types}
    return PartitionedChain(kernel=kernel, invariant=invariant, blocks=blocks)


def permutation_chain(N: int) -> PartitionedChain:
    """The transposition walk with the uniform law, partitioned by cycle type."""
    walk = transposition_walk(N)
    types = all_cycle_types(N)
    type_of = _type_index(permutation_table(N), types)
    return PartitionedChain(
        kernel=walk,
        invariant=uniform_on_permutations(N),
        blocks=dict(enumerate(types[t] for t in type_of.tolist())),
    )

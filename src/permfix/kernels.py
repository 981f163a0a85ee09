"""Markov kernels attached to the fixed-point count of a uniform permutation.

The central object is the penta-diagonal kernel P on V = [0, N-2] u {N}
driven by the conditional two-cycle mean p(x) = E[eta_2 | eta_1 = x], with

    P(x, x-1) = x(N-x) / (N(N-1))        P(x, x+1) = (N-x-2p(x)) / (N(N-1))
    P(x, x-2) = x(x-1) / (N(N-1))        P(x, x+2) = 2p(x) / (N(N-1))

and the diagonal completing each row.  Three independent routes to p are
provided (brute-force enumeration, the derangement closed form, and the
reversibility recursion in p), with the derived birth-and-death kernels
and an exact detailed-balance check, which for a law with positive weights
also settles Kolmogorov's cycle criterion.  A kernel row enters and is
stored as integer numerators over one row denominator (N(N-1) times the
denominator of k for the family below), under `exactdist.checked_weights`,
the rule a law is held to, so its row sum is one integer sum.  A law is
read as integers over its one denominator
(`exactdist.over_one_denominator`): detailed balance compares d(x) K(x,y)
with d(y) K(y,x) by integer cross-multiplication, the law's denominator
cancelling, and the invariance check w K = w adds each column over the
lcm of the row denominators.  A `Fraction` is built only where a value is
read: an entry, a value of p, a residual.

`p_closedform` is memoised by the package's one memo rule,
`lru_cache(maxsize=8, typed=True)`: the routes that need p at one N (the
kernels P, P~, P^ and P_check, the moments) share one build, and a bool, a
float or a numpy integer misses the memo and is refused.  The shared
`PFunction` is frozen, its values a read-only mapping.

One catalogue pairs each of the seven kernels with the law it is
reversible for: `reversible_pair(N, label)` over `KERNEL_LABELS`.  It is the
only place that pairing is written; `permfix kernel`, the coupling's
selectors and the tests read it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

from .exactdist import (
    ExactDist,
    check_integer,
    checked_weights,
    derangements,
    fixed_point_pmf,
    over_one_denominator,
    pi_conditioned,
    poisson_truncated,
    zeta_law,
)
from .perms import check_guard, fixed_point_sums


def state_space(N: int) -> tuple[int, ...]:
    """V = [0, N-2] u {N}: the values eta_1 can take (N-1 is impossible)."""
    check_integer("N", N, 0)
    return tuple(range(N - 1)) + (N,)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class StochasticKernel:
    """Row-stochastic kernel over an explicit ordered state list.

    A row enters as integer numerators over one denominator:
    `StochasticKernel(states, rows, label)` takes row i as the pair
    (den, {target: numerator}) of rows[i], the entries numerator / den.
    The kernel's own check is that every target is a state; the rest is
    `exactdist.checked_weights`, whose refusal is re-raised with the row
    named.  Each row is stored once, as `integer_rows[i]`, the pair that
    rule gives back: reduced by one gcd, zero entries dropped, the
    numerators a read-only mapping, so equal kernels store equal rows, `==`
    compares states, entries and label, and a validated kernel stays
    validated.  Rows are keyed by the target *state label*, never by index
    arithmetic, so a state absent from the list (such as N-1 in V) cannot
    be addressed at all.  `Fraction`s are built only where an entry is
    read: `rows`, `row`, `entry` and `to_json_dict` give reduced ones.
    """

    states: tuple[Hashable, ...]
    integer_rows: tuple[tuple[int, Mapping[Hashable, int]], ...]
    label: str = ""
    _positions: Mapping[Hashable, int] = field(repr=False, compare=False)

    def __init__(
        self,
        states: Sequence[Hashable],
        rows: Sequence[tuple[int, Mapping[Hashable, int]]],
        label: str = "",
    ) -> None:
        states = tuple(states)
        if len(states) != len(rows):
            raise ValueError("states/rows length mismatch")
        index = {s: i for i, s in enumerate(states)}
        if len(index) != len(states):
            raise ValueError("duplicate states")
        stored = []
        for s, (den, row) in zip(states, rows):
            if not row.keys() <= index.keys():
                unknown = next(t for t in row if t not in index)
                raise ValueError(f"row {s!r} targets unknown state {unknown!r}")
            try:
                stored.append(checked_weights(den, row))
            except ValueError as err:
                raise ValueError(f"row {s!r}: {err}") from None
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "integer_rows", tuple(stored))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_positions", index)

    @property
    def rows(self) -> tuple[dict[Hashable, Fraction], ...]:
        return tuple(
            {t: Fraction(n, den) for t, n in row.items()} for den, row in self.integer_rows
        )

    def index(self, state: Hashable) -> int:
        try:
            return self._positions[state]
        except KeyError:
            raise ValueError(f"{state!r} is not a state of kernel {self.label!r}") from None

    def row(self, state: Hashable) -> dict[Hashable, Fraction]:
        den, row = self.integer_rows[self.index(state)]
        return {t: Fraction(n, den) for t, n in row.items()}

    def entry(self, x: Hashable, y: Hashable) -> Fraction:
        den, row = self.integer_rows[self.index(x)]
        self.index(y)  # an unknown target raises ValueError, as a source does
        return Fraction(row.get(y, 0), den)

    def bandwidth(self) -> int:
        """Largest |i - j| over nonzero off-diagonal entries, in list positions."""
        pos = self._positions
        width = 0
        for s, (_, row) in zip(self.states, self.integer_rows):
            for t in row:
                width = max(width, abs(pos[s] - pos[t]))
        return width

    def is_invariant(self, weights: Mapping[Hashable, Fraction]) -> bool:
        """Does weights * K = weights hold exactly?

        With w(s) = a_s / m over the weights' one denominator and the rows
        over the lcm L of their denominators, each column of w K is one
        integer sum over m L.
        """
        _, w = over_one_denominator(weights)
        common = math.lcm(*(den for den, _ in self.integer_rows))
        columns = dict.fromkeys(self.states, 0)  # (w K)(t), over m L
        for s, (den, row) in zip(self.states, self.integer_rows):
            scale = w.get(s, 0) * (common // den)
            if scale:
                for t, n in row.items():
                    columns[t] += scale * n
        return all(n == w.get(s, 0) * common for s, n in columns.items())

    def to_json_dict(self) -> dict:
        pos = self._positions
        cols = []
        for den, row in self.integer_rows:
            entries = []
            for t in sorted(row, key=pos.__getitem__):
                g = math.gcd(row[t], den)
                entries.append({"to": t, "num": row[t] // g, "den": den // g})
            cols.append(entries)
        return {
            "label": self.label,
            "states": list(self.states),
            "rows": [{"from": s, "cols": c} for s, c in zip(self.states, cols)],
        }


# ---------------------------------------------------------------------------
# the conditional two-cycle mean p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PFunction:
    """Exact values of p(x) = E[eta_2 | eta_1 = x] on V.

    Only the domain and non-negativity, read off each value's numerator,
    are checked.  The forced values
    p(N) = 0, p(N-2) = 1, p(N-3) = 0 hold for every route to p; a p that
    breaks one makes `build_penta` move off V, which `StochasticKernel`
    rejects.  `values` is a read-only mapping, so a checked p stays checked.
    """

    N: int
    values: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        if set(self.values) != set(state_space(self.N)):
            raise ValueError("p must be defined exactly on V")
        if any(v.numerator < 0 for v in self.values.values()):
            raise ValueError("p must be non-negative")
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]


def p_bruteforce(N: int) -> PFunction:
    """p by full enumeration of S_N (guarded: N! permutations)."""
    check_integer("N", N, 1)
    check_guard(N, 8, "p_bruteforce")
    count, two_cycles = fixed_point_sums(N)
    values = {x: Fraction(two_cycles[x], c) for x, c in enumerate(count) if c}
    return PFunction(N=N, values=values)


@lru_cache(maxsize=8, typed=True)  # typed, so a bool or a float misses it and is refused
def p_closedform(N: int) -> PFunction:
    """p(x) = (1/2) (D_{N-x-2} / (N-x-2)!) ((N-x)! / D_{N-x}) for x <= N-2,
    that is D_{m-2} m(m-1) / (2 D_m) with m = N-x: one `Fraction` per x."""
    check_integer("N", N, 1)
    table = derangements(N)
    values: dict[int, Fraction] = {N: Fraction(0)}
    for x in range(N - 1):
        m = N - x
        values[x] = Fraction(table[m - 2] * m * (m - 1), 2 * table[m])
    return PFunction(N=N, values=values)


def recursion_map(N: int, x: int, p: Fraction | int) -> Fraction:
    """p(x) from p(x+1) = p by reversibility: m(m-1-2p) / (2((m-1)^2 - 2p))
    with m = N-x; fixed point 1/2.

    With p = a/b this is m((m-1)b - 2a) / (2((m-1)^2 b - 2a)), one
    `Fraction` built from integers.
    """
    a, b = p.as_integer_ratio()
    m = N - x
    return Fraction(m * ((m - 1) * b - 2 * a), 2 * ((m - 1) ** 2 * b - 2 * a))


def p_recursion(N: int) -> PFunction:
    """p from the downward reversibility iteration: the forced values
    p(N) = 0, p(N-2) = 1 and p(N-3) = 0, then p(x) = `recursion_map`(N, x,
    p(x+1)) for x = N-4 down to 0, in one pass.

    The third route to p, independent of the other two; `permfix kernel`
    and the acceptance tests check it against the closed form.
    """
    check_integer("N", N, 4)
    values = {N: Fraction(0), N - 2: Fraction(1), N - 3: Fraction(0)}
    for x in range(N - 4, -1, -1):
        values[x] = recursion_map(N, x, values[x + 1])
    return PFunction(N=N, values=values)


# ---------------------------------------------------------------------------
# kernel builders
# ---------------------------------------------------------------------------

Moves = tuple[int, dict[Hashable, int]]  # (den, {target: numerator over den})


def penta_moves(N: int, x: int, k: Fraction | int) -> Moves:
    """The moves from x of the penta-diagonal family driven by k.

    Down by one at x(N-x), down by two at x(x-1), up by one at N-x-k and up
    by two at k, all over N(N-1).  P, P~, P^ and P_check have k = 2p(x); R
    and P_bar set k = 1, and R~ sets k = 1/2.  With k = a/b the moves are
    integer numerators over N(N-1) b.  Each builder keeps the moves its
    state space and band allow.  N is not checked here: this is a formula
    for one state, and every caller has checked N.
    """
    a, b = k.as_integer_ratio()
    return N * (N - 1) * b, {
        x - 1: x * (N - x) * b,
        x - 2: x * (x - 1) * b,
        x + 1: (N - x) * b - a,
        x + 2: a,
    }


def _kernel(states: Sequence[Hashable], moves: Iterable[Moves], label: str) -> StochasticKernel:
    """Rows from per-state moves, (den, {target: numerator}): zero weights
    dropped, the diagonal set to den - (sum of the moves).
    `StochasticKernel` rejects a move to an unknown state and a negative
    entry, the diagonal included."""
    rows = []
    for s, (den, row) in zip(states, moves):
        row = {t: n for t, n in row.items() if n}
        row[s] = den - sum(row.values())
        rows.append((den, row))
    return StochasticKernel(states, rows, label)


def _neighbour_kernel(
    states: Sequence[Hashable], moves: Iterable[Moves], label: str
) -> StochasticKernel:
    """`_kernel` keeping only the moves between neighbours in the order of states."""
    kept = []
    for i, (den, row) in enumerate(moves):
        near = states[max(i - 1, 0):i + 2]
        kept.append((den, {t: n for t, n in row.items() if t in near}))
    return _kernel(states, kept, label)


def _relabelled(moves: Moves, at: Mapping[Hashable, Hashable]) -> Moves:
    """The moves to targets in `at`, each target renamed to at[target]."""
    den, row = moves
    return den, {at[t]: n for t, n in row.items() if t in at}


def build_penta(N: int, p: PFunction) -> StochasticKernel:
    """The penta-diagonal kernel P on V: every move of the family, k = 2p.

    The boundary coefficients vanish exactly where a move would leave V
    (p(N-3) = 0 kills (N-3, N-1), p(N-2) = 1 kills (N-2, N-1), p(N) = 0
    kills both upward moves from N).
    """
    check_integer("N", N, 1)
    if p.N != N:
        raise ValueError("p was built for a different N")
    V = state_space(N)
    return _kernel(V, (penta_moves(N, x, 2 * p[x]) for x in V), "P")


def build_tridiag_tilde(N: int, p: PFunction) -> StochasticKernel:
    """P~ : the birth-and-death kernel keeping only the moves of P between
    neighbours of V, so the size-two move between N-2 and N stays (N-1 is
    not a state); removed weight goes to the diagonal."""
    check_integer("N", N, 1)
    if p.N != N:
        raise ValueError("p was built for a different N")
    V = state_space(N)
    return _neighbour_kernel(V, (penta_moves(N, x, 2 * p[x]) for x in V), "P_tilde")


def hat_ordering(N: int) -> tuple[int, ...]:
    """The zig-zag ordering z of V behind P^.

    Even N:  N-3, N-5, ..., 3, 1, 0, 2, 4, ..., N-2, N
    Odd  N:  N-3, N-5, ..., 2, 0, 1, 3, ..., N-2, N
    Consecutive entries differ by two except at the single 0/1 seam, so the
    neighbor moves of the reordered chain are exactly the size-two moves of
    P plus the 0-1 edge that keeps it irreducible.
    """
    check_integer("N", N, 4)
    head = (N - 1) // 2
    z = tuple(N - 3 - 2 * i for i in range(head)) + tuple(
        2 + 2 * i - N for i in range(head, N)
    )
    return z


def build_hat(N: int) -> StochasticKernel:
    """P^ on index states [0, N-1]: P^(i, j) = P(z_i, z_j) for |i - j| = 1."""
    z = hat_ordering(N)
    p = p_closedform(N)
    at = {x: i for i, x in enumerate(z)}
    moves = (_relabelled(penta_moves(N, x, 2 * p[x]), at) for x in z)
    return _neighbour_kernel(tuple(range(N)), moves, "P_hat")


def hat_stationary(N: int) -> ExactDist:
    """pi^ with pi^(i) = pi(z_i): the reversible law of P^, pi_N's
    numerators reordered."""
    z = hat_ordering(N)
    den, nums = fixed_point_pmf(N).integer_weights
    return ExactDist(den, {i: nums.get(z[i], 0) for i in range(N)})


RESTRICTED_LABELS = ("P_check", "R", "R_tilde")
CONSTANT_K = {"R": Fraction(1), "R_tilde": Fraction(1, 2)}  # the family's k for R and R_tilde


def restricted_kernel(N: int, label: str) -> StochasticKernel:
    """One of the restricted kernels P_check, R, R_tilde on [0, N-4].

    The moves of the family between neighbours of [0, N-4], with k = 2p(x)
    for P_check and the constant `CONSTANT_K[label]` (1 and 1/2) for R and
    R_tilde: up-rates N-x-2p(x), N-x-1 and N-x-1/2 over the common
    down-rate x(N-x).  R is the p = 1/2 member whose reversible law is the
    conditioned Poisson zeta, and R_tilde dominates the p-chain from above.
    Only P_check needs p, so only it pays for `p_closedform`.
    """
    if label not in RESTRICTED_LABELS:
        raise ValueError(f"label must be one of {RESTRICTED_LABELS}")
    check_integer("N", N, 5)
    states = tuple(range(N - 3))
    if label == "P_check":
        p = p_closedform(N)
        moves = (penta_moves(N, x, 2 * p[x]) for x in states)
    else:
        moves = (penta_moves(N, x, CONSTANT_K[label]) for x in states)
    return _neighbour_kernel(states, moves, label)


def build_restricted(N: int) -> tuple[StochasticKernel, StochasticKernel, StochasticKernel]:
    """(P_check, R, R_tilde) on [0, N-4]; see `restricted_kernel`."""
    return tuple(restricted_kernel(N, label) for label in RESTRICTED_LABELS)


def poisson_reversible_penta(N: int) -> StochasticKernel:
    """The penta-diagonal kernel on the full interval [0, N] with p == 1/2.

    The moves of the family with k = 1 that stay inside [0, N]: up-rates
    N-x-1 and 1 (size one and two), down-rates x(N-x) and x(x-1).  The
    truncation of Poisson(1) to [0, N] is exactly reversible for it.
    """
    check_integer("N", N, 2)
    states = tuple(range(N + 1))
    inside = {y: y for y in states}
    moves = (_relabelled(penta_moves(N, x, 1), inside) for x in states)
    return _kernel(states, moves, "P_bar")


# `exactdist.poisson_truncated` under a second name, for `bench/workloads.py`
# alone; it goes with the next change to the benchmark
poisson_box_law = poisson_truncated


def birth_death_stationary(kernel: StochasticKernel) -> ExactDist:
    """Stationary law of an irreducible birth-and-death kernel by the
    detailed-balance product form, in integers.  On the edge (x_i, x_{i+1}),
    a_i and b_i are the numerators of K(x_i, x_{i+1}) and K(x_{i+1}, x_i),
    each times the other row's den, so w(x_{i+1}) / w(x_i) = a_i / b_i and
    w(x_k) is prop. to prod_{i<k} a_i prod_{i>=k} b_i.  Each pair is divided
    by its gcd before the products are taken: the ratios, and so the law in
    lowest terms, are unchanged, and the products stay short (at most about
    2,600 bits for R~ at N = 200, against 5,800 unreduced)."""
    states, rows = kernel.states, kernel.integer_rows
    if kernel.bandwidth() > 1:
        raise ValueError("kernel is not tri-diagonal in its state order")
    ups, downs = [], []  # a_i and b_i
    for i in range(len(states) - 1):
        x, y = states[i], states[i + 1]
        (up_den, up_row), (down_den, down_row) = rows[i], rows[i + 1]
        up, down = up_row.get(y, 0), down_row.get(x, 0)
        if up == 0 or down == 0:
            raise ValueError(f"kernel not irreducible across edge ({x!r}, {y!r})")
        a, b = up * down_den, down * up_den
        g = math.gcd(a, b)
        ups.append(a // g)
        downs.append(b // g)
    below = [*accumulate(ups, operator.mul, initial=1)]  # prod_{i<k} a_i
    above = [*accumulate(reversed(downs), operator.mul, initial=1)][::-1]  # prod_{i>=k} b_i
    nums = {s: b * a for s, b, a in zip(states, below, above)}
    return ExactDist(sum(nums.values()), nums)


# ---------------------------------------------------------------------------
# the catalogue: each kernel with the law it is reversible for
# ---------------------------------------------------------------------------

KERNEL_LABELS = ("P", "P_tilde", "P_hat", "P_check", "R", "R_tilde", "P_bar")


def reversible_pair(N: int, label: str) -> tuple[StochasticKernel, ExactDist]:
    """(kernel, the law it is reversible for) for one of `KERNEL_LABELS`.

    The one place that pairs a kernel with its law: P and P_tilde go with
    pi_N, P_hat with `hat_stationary`, P_check with `pi_conditioned`, R with
    `zeta_law`, R_tilde with its own `birth_death_stationary`, and P_bar
    with `poisson_truncated`.  The kernel's `.label` is `label`.  Only the
    kernel asked for is built; an unknown label, or a restricted one at
    N < 5, raises ValueError.
    """
    if label in ("P", "P_tilde"):
        build = build_penta if label == "P" else build_tridiag_tilde
        return build(N, p_closedform(N)), fixed_point_pmf(N)
    if label == "P_hat":
        return build_hat(N), hat_stationary(N)
    if label == "P_bar":
        return poisson_reversible_penta(N), poisson_truncated(N)
    if label not in RESTRICTED_LABELS:
        raise ValueError(f"label must be one of {KERNEL_LABELS}")
    kernel = restricted_kernel(N, label)
    if label == "P_check":
        return kernel, pi_conditioned(N)
    if label == "R":
        return kernel, zeta_law(N)
    return kernel, birth_death_stationary(kernel)


# ---------------------------------------------------------------------------
# reversibility checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReversibilityReport:
    """Outcome of exact detailed-balance verification.

    `pairs_checked` counts the pairs covered by the check: all S(S-1)/2
    unordered pairs of distinct states of an S-state kernel.  Only the pairs
    with a nonzero entry in either direction are compared; on every other
    pair both sides are 0.
    """

    ok: bool
    pairs_checked: int
    first_violation: tuple | None = None  # (x, y, d(x) K(x,y) - d(y) K(y,x))


def check_reversibility(kernel: StochasticKernel, dist: Mapping) -> ReversibilityReport:
    """Verify d(x) K(x,y) = d(y) K(y,x) on all pairs; states carrying zero
    weight are rejected outright.  The weights are taken as exact rationals,
    so `ok` and the residual are exact even for float weights.

    With every weight positive, detailed balance is the whole check: it gives
    K(x,y) K(y,z) K(z,x) = K(x,z) K(z,y) K(y,x) on every cycle (Kolmogorov's
    criterion).  One pass over the rows, in state order, meets each nonzero
    entry once.  An entry x -> y with y later in the list (positions i < j)
    is compared with its reverse; an entry with y earlier is a violation of
    the pair (j, i) only when the reverse entry is missing, since otherwise
    row y compared the pair already.  Of the violations met, the one first in
    (i, j) order is reported, the one an all-pairs scan would meet first.
    With the law over one denominator m (`over_one_denominator`),
    d(x) = a/m, and row x over den, d(x) K(x,y) = a n / (m den): m cancels,
    so the two sides are compared by integer cross-multiplication, and the
    `Fraction` residual is formed, over m, after the pass and only for the
    reported violation.
    """
    states, rows, pos = kernel.states, kernel.integer_rows, kernel._positions
    m, weights = over_one_denominator(dist)
    nums = [weights.get(s, 0) for s in states]  # d(x) K(x, y) = nums[i] n / (m den_i)
    for s, a in zip(states, nums):
        if a <= 0:
            raise ValueError(f"state {s!r} has zero weight")

    first = None  # the earliest violating (i, j) met so far
    for i, (x, (den_x, row_x)) in enumerate(zip(states, rows)):
        a_x = nums[i]
        for y, n in row_x.items():
            j = pos[y]
            if j > i:
                den_y, row_y = rows[j]
                if a_x * n * den_y != nums[j] * row_y.get(x, 0) * den_x:
                    if first is None or (i, j) < first:
                        first = (i, j)
            elif j < i and x not in rows[j][1]:
                if first is None or (j, i) < first:
                    first = (j, i)

    violation = None
    if first is not None:
        i, j = first
        x, y = states[i], states[j]
        (den_x, row_x), (den_y, row_y) = rows[i], rows[j]
        lhs = nums[i] * row_x.get(y, 0) * den_y
        rhs = nums[j] * row_y.get(x, 0) * den_x
        violation = (x, y, Fraction(lhs - rhs, m * den_x * den_y))
    return ReversibilityReport(
        ok=violation is None,
        pairs_checked=len(states) * (len(states) - 1) // 2,
        first_violation=violation,
    )


def prop41_bound(N: int, x: int) -> Fraction:
    """|2p(x) - 1| <= 1/(N-x-2)! for x in [0, N-2]."""
    return Fraction(1, math.factorial(N - x - 2))


def lemma_b1_bound(N: int, x: int) -> Fraction:
    """|2p(x) - 1| <= 3 (N-x-1) / (N-x)! for x in [0, N-2]."""
    return 3 * Fraction(N - x - 1, math.factorial(N - x))

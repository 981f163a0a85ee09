"""Markov kernels attached to the fixed-point count of a uniform permutation.

The central object is the penta-diagonal kernel P on V = [0, N-2] u {N}
driven by the conditional two-cycle mean p(x) = E[eta_2 | eta_1 = x], with

    P(x, x-1) = x(N-x) / (N(N-1))        P(x, x+1) = (N-x-2p(x)) / (N(N-1))
    P(x, x-2) = x(x-1) / (N(N-1))        P(x, x+2) = 2p(x) / (N(N-1))

and the diagonal completing each row.  Three independent routes to p are
provided (brute-force enumeration, the derangement closed form, and the
reversibility recursion), together with the derived birth-and-death kernels
and an exact detailed-balance check, which for a law with positive weights
also settles Kolmogorov's cycle criterion.  Row sums and the invariance
check w K = w add their terms over one common denominator
(`exactdist._exact_sum`), and detailed balance compares d(x) K(x,y) with
d(y) K(y,x) by integer cross-multiplication.

One catalogue pairs each of the seven kernels with the law it is
reversible for: `reversible_pair(N, label)` over `KERNEL_LABELS`.  It is the
only place that pairing is written; `permfix kernel`, the coupling's
selectors and the tests read it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from .exactdist import (
    ExactDist,
    _exact_sum,
    derangements,
    fixed_point_pmf,
    pi_conditioned,
    poisson_truncated,
    zeta_law,
)
from .perms import check_guard, fixed_point_sums


def state_space(N: int) -> tuple[int, ...]:
    """V = [0, N-2] u {N}: the values eta_1 can take (N-1 is impossible)."""
    return tuple(range(N - 1)) + (N,)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticKernel:
    """Row-stochastic kernel over an explicit ordered state list.

    Entries are stored as exact rationals (`Fraction`), and each stored row
    must sum to exactly 1; rows are stored as mappings keyed by the target
    *state label*, never by index arithmetic, so a state absent from the
    list (such as N-1 in V) cannot be addressed at all.
    """

    states: tuple[Hashable, ...]
    rows: tuple[Mapping[Hashable, Fraction], ...]
    label: str = ""
    _positions: Mapping[Hashable, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.states) != len(self.rows):
            raise ValueError("states/rows length mismatch")
        index = {s: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ValueError("duplicate states")
        frozen = []
        for s, row in zip(self.states, self.rows):
            stored = {}
            for t, w in row.items():
                if t not in index:
                    raise ValueError(f"row {s!r} targets unknown state {t!r}")
                q = w if isinstance(w, Fraction) else Fraction(w)
                if q.numerator < 0:  # the denominator is positive
                    raise ValueError(f"negative entry at ({s!r}, {t!r}): {w}")
                if q:
                    stored[t] = q
            total = _exact_sum(map(Fraction.as_integer_ratio, stored.values()))
            if total != 1:
                raise ValueError(f"row {s!r} sums to {total}, not 1")
            frozen.append(stored)
        object.__setattr__(self, "rows", tuple(frozen))
        object.__setattr__(self, "_positions", index)

    def index(self, state: Hashable) -> int:
        try:
            return self._positions[state]
        except KeyError:
            raise ValueError(f"{state!r} is not a state of kernel {self.label!r}") from None

    def row(self, state: Hashable) -> Mapping[Hashable, Fraction]:
        return self.rows[self.index(state)]

    def entry(self, x: Hashable, y: Hashable) -> Fraction:
        row = self.row(x)
        self.index(y)  # an unknown target raises ValueError, as a source does
        return row.get(y, Fraction(0))

    def bandwidth(self) -> int:
        """Largest |i - j| over nonzero off-diagonal entries, in list positions."""
        pos = self._positions
        width = 0
        for s, row in zip(self.states, self.rows):
            for t in row:
                width = max(width, abs(pos[s] - pos[t]))
        return width

    def is_invariant(self, weights: Mapping[Hashable, Fraction]) -> bool:
        """Does weights * K = weights hold exactly?

        The products w(s) K(s, t) go in unnormalised, as (w.num v.num,
        w.den v.den); a column keeps one integer numerator per distinct
        denominator, and is then summed over one common denominator.
        """
        w = {s: Fraction(weights.get(s, 0)) for s in self.states}
        columns: dict[Hashable, dict[int, int]] = {s: {} for s in self.states}
        for s, row in zip(self.states, self.rows):
            wn, wd = w[s].as_integer_ratio()
            if wn:
                for t, v in row.items():
                    vn, vd = v.as_integer_ratio()
                    column = columns[t]
                    column[wd * vd] = column.get(wd * vd, 0) + wn * vn
        return all(
            _exact_sum((n, d) for d, n in columns[s].items()) == w[s] for s in self.states
        )

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "states": list(self.states),
            "rows": [
                {
                    "from": s,
                    "cols": [
                        {"to": t, "num": w.numerator, "den": w.denominator}
                        for t, w in sorted(row.items(), key=lambda kv: self.index(kv[0]))
                    ],
                }
                for s, row in zip(self.states, self.rows)
            ],
        }


# ---------------------------------------------------------------------------
# the conditional two-cycle mean p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PFunction:
    """Exact values of p(x) = E[eta_2 | eta_1 = x] on V.

    Only the domain and non-negativity are checked.  The forced values
    p(N) = 0, p(N-2) = 1, p(N-3) = 0 hold for every route to p; a p that
    breaks one makes `build_penta` move off V, which `StochasticKernel`
    rejects.
    """

    N: int
    values: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        if set(self.values) != set(state_space(self.N)):
            raise ValueError("p must be defined exactly on V")
        if any(v < 0 for v in self.values.values()):
            raise ValueError("p must be non-negative")
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]


def p_bruteforce(N: int) -> PFunction:
    """p by full enumeration of S_N (guarded: N! permutations)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    check_guard(N, 8, "p_bruteforce")
    count, two_cycles = fixed_point_sums(N)
    values = {x: Fraction(two_cycles[x], c) for x, c in enumerate(count) if c}
    return PFunction(N=N, values=values)


def p_closedform(N: int) -> PFunction:
    """p(x) = (1/2) (D_{N-x-2} / (N-x-2)!) ((N-x)! / D_{N-x}) for x <= N-2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    table = derangements(N)
    values: dict[int, Fraction] = {N: Fraction(0)}
    for x in range(N - 1):
        m = N - x
        values[x] = Fraction(1, 2) * Fraction(
            table[m - 2] * math.factorial(m), math.factorial(m - 2) * table[m]
        )
    return PFunction(N=N, values=values)


def recursion_map(N: int, x: int, r: Fraction) -> Fraction:
    """F_x(r) = (N-x)(N-x-1-r) / ((N-x-1)^2 - r); fixed point F_x(1) = 1."""
    return (N - x) * ((N - x - 1) - Fraction(r)) / ((N - x - 1) ** 2 - Fraction(r))


def p_recursion(N: int) -> PFunction:
    """p from the downward reversibility iteration seeded at k(N-3) = 0.

    Writes k = 2p and iterates k(x) = F_x(k(x+1)) from x = N-4 down to 0.
    The third route to p, independent of the other two; `permfix kernel`
    and the acceptance tests check it against the closed form.
    """
    if N < 4:
        raise ValueError("the recursion needs N >= 4")
    k: dict[int, Fraction] = {N - 3: Fraction(0)}
    for x in range(N - 4, -1, -1):
        k[x] = recursion_map(N, x, k[x + 1])
    values = {x: v / 2 for x, v in k.items()}
    values[N - 2] = Fraction(1)
    values[N] = Fraction(0)
    return PFunction(N=N, values=values)


# ---------------------------------------------------------------------------
# kernel builders
# ---------------------------------------------------------------------------

def _penta_moves(N: int, x: int, k: Fraction | int) -> dict[int, Fraction]:
    """The moves from x of the penta-diagonal family driven by k.

    Down by one at x(N-x), down by two at x(x-1), up by one at N-x-k and up
    by two at k, all over N(N-1).  P, P~, P^ and P_check have k = 2p(x); R
    and P_bar set k = 1, and R~ sets k = 1/2.  Each builder keeps the moves
    its state space and band allow.
    """
    den = N * (N - 1)
    return {
        x - 1: Fraction(x * (N - x), den),
        x - 2: Fraction(x * (x - 1), den),
        x + 1: Fraction(N - x - k, den),
        x + 2: Fraction(k, den),
    }


def _kernel(states: Sequence[Hashable], moves: Iterable[Mapping], label: str) -> StochasticKernel:
    """Rows from per-state moves: zero weights dropped, the diagonal set to
    1 - (sum of the moves).  `StochasticKernel` rejects a move to an unknown
    state and a negative entry, the diagonal included."""
    rows = []
    for s, row in zip(states, moves):
        row = {t: w for t, w in row.items() if w != 0}
        row[s] = 1 - _exact_sum(w.as_integer_ratio() for w in row.values())
        rows.append(row)
    return StochasticKernel(tuple(states), tuple(rows), label=label)


def _neighbour_kernel(
    states: Sequence[Hashable], moves: Iterable[Mapping], label: str
) -> StochasticKernel:
    """`_kernel` keeping only the moves between neighbours in the order of states."""
    kept = []
    for i, row in enumerate(moves):
        near = states[max(i - 1, 0):i + 2]
        kept.append({t: w for t, w in row.items() if t in near})
    return _kernel(states, kept, label)


def build_penta(N: int, p: PFunction) -> StochasticKernel:
    """The penta-diagonal kernel P on V: every move of the family, k = 2p.

    The boundary coefficients vanish exactly where a move would leave V
    (p(N-3) = 0 kills (N-3, N-1), p(N-2) = 1 kills (N-2, N-1), p(N) = 0
    kills both upward moves from N).
    """
    if p.N != N:
        raise ValueError("p was built for a different N")
    V = state_space(N)
    return _kernel(V, (_penta_moves(N, x, 2 * p[x]) for x in V), "P")


def build_tridiag_tilde(N: int, p: PFunction) -> StochasticKernel:
    """P~ : the birth-and-death kernel keeping only the moves of P between
    neighbours of V, so the size-two move between N-2 and N stays (N-1 is
    not a state); removed weight goes to the diagonal."""
    if p.N != N:
        raise ValueError("p was built for a different N")
    V = state_space(N)
    return _neighbour_kernel(V, (_penta_moves(N, x, 2 * p[x]) for x in V), "P_tilde")


def hat_ordering(N: int) -> tuple[int, ...]:
    """The zig-zag ordering z of V behind P^.

    Even N:  N-3, N-5, ..., 3, 1, 0, 2, 4, ..., N-2, N
    Odd  N:  N-3, N-5, ..., 2, 0, 1, 3, ..., N-2, N
    Consecutive entries differ by two except at the single 0/1 seam, so the
    neighbor moves of the reordered chain are exactly the size-two moves of
    P plus the 0-1 edge that keeps it irreducible.
    """
    if N < 4:
        raise ValueError("the hat ordering needs N >= 4")
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
    moves = (
        {at[y]: w for y, w in _penta_moves(N, x, 2 * p[x]).items() if y in at} for x in z
    )
    return _neighbour_kernel(tuple(range(N)), moves, "P_hat")


def hat_stationary(N: int) -> ExactDist:
    """pi^ with pi^(i) = pi(z_i): the reversible law of P^."""
    z = hat_ordering(N)
    pi = fixed_point_pmf(N)
    return ExactDist({i: pi.get(z[i], 0) for i in range(N)})


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
    if N < 5:
        raise ValueError("the restricted kernels need N >= 5")
    states = tuple(range(N - 3))
    if label == "P_check":
        p = p_closedform(N)
        moves = (_penta_moves(N, x, 2 * p[x]) for x in states)
    else:
        moves = (_penta_moves(N, x, CONSTANT_K[label]) for x in states)
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
    if N < 2:
        raise ValueError("N must be >= 2")
    states = tuple(range(N + 1))
    moves = ({y: w for y, w in _penta_moves(N, x, 1).items() if 0 <= y <= N} for x in states)
    return _kernel(states, moves, "P_bar")


def poisson_box_law(N: int) -> ExactDist:
    """`exactdist.poisson_truncated` under a second name.

    Its only caller is `bench/workloads.py`; it goes with the next change to
    the benchmark.  Package code and tests call `poisson_truncated`.
    """
    return poisson_truncated(N)


def birth_death_stationary(kernel: StochasticKernel) -> ExactDist:
    """Stationary law of an irreducible birth-and-death kernel via the
    detailed-balance product formula w(x+1)/w(x) = K(x, x+1)/K(x+1, x)."""
    states = kernel.states
    if kernel.bandwidth() > 1:
        raise ValueError("kernel is not tri-diagonal in its state order")
    weights = {states[0]: Fraction(1)}
    for i in range(len(states) - 1):
        x, y = states[i], states[i + 1]
        up = kernel.entry(x, y)
        down = kernel.entry(y, x)
        if up == 0 or down == 0:
            raise ValueError(f"kernel not irreducible across edge ({x!r}, {y!r})")
        weights[y] = weights[x] * up / down
    total = _exact_sum(map(Fraction.as_integer_ratio, weights.values()))
    return ExactDist({s: w / total for s, w in weights.items()})


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
    criterion).  The pairs (i < j, in state-list positions) with K(x,y) or
    K(y,x) nonzero are visited in (i, j) order, and the scan stops at the
    first violation, the one an all-pairs scan would meet first.  The two
    sides are compared by integer cross-multiplication; the `Fraction`
    residual is formed only for that violation.
    """
    weights = []
    for s in kernel.states:
        w = Fraction(dist.get(s, 0))
        if w <= 0:
            raise ValueError(f"state {s!r} has zero weight")
        weights.append(w)

    states, rows, pos = kernel.states, kernel.rows, kernel._positions
    pairs = set()
    for i, row in enumerate(rows):
        for t in row:
            j = pos[t]
            if i < j:
                pairs.add((i, j))
            elif j < i:
                pairs.add((j, i))

    first = None
    zero = Fraction(0)
    for i, j in sorted(pairs):
        x, y = states[i], states[j]
        wx, wy = weights[i], weights[j]
        kxy, kyx = rows[i].get(y, zero), rows[j].get(x, zero)
        if (wx.numerator * kxy.numerator * wy.denominator * kyx.denominator
                != wy.numerator * kyx.numerator * wx.denominator * kxy.denominator):
            first = (x, y, wx * kxy - wy * kyx)
            break

    return ReversibilityReport(
        ok=first is None,
        pairs_checked=len(states) * (len(states) - 1) // 2,
        first_violation=first,
    )


def prop41_bound(N: int, x: int) -> Fraction:
    """|2p(x) - 1| <= 1/(N-x-2)! for x in [0, N-2]."""
    return Fraction(1, math.factorial(N - x - 2))


def lemma_b1_bound(N: int, x: int) -> Fraction:
    """|2p(x) - 1| <= 3 (N-x-1) / (N-x)! for x in [0, N-2]."""
    return 3 * Fraction(N - x - 1, math.factorial(N - x))

"""Two alternative couplings of the fixed-point law with Poisson(1).

The Mallows construction: independent bits X_n with P[X_n = 1] = 1/n (so
X_1 == 1) and

    S_N     = X_1 X_2 + X_2 X_3 + ... + X_{N-1} X_N + X_N
    S_inf   = X_1 X_2 + X_2 X_3 + ...

couple pi_N with Poisson(1), but the pair disagrees with probability of
order 1/N.  The ascent/peak construction: from i.i.d. uniforms U_1, U_2, ...

    S = min{n >= 1 : U_n < U_{n+1}}          (first ascent)
    T = min{n >= 2 : U_n > max(U_{n-1}, U_{n+1})}   (first peak)
    M = S - 1{T - S odd}

has M ~ Poisson(1) exactly, while the truncated variant M_N built from
S_N = min(S, N), T_N = min(T, N) has law pi_N; they differ only when a
peak fails to appear by index N, an event of probability at most
2^N / (N+1)!.

Both Monte Carlo routines split their replicas once per call, one
contiguous share per CPU (`native.shares`); each share runs the compiled
loop, or the numpy body on its own streams where the library is missing,
and the shares' counts are summed.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import native
from .coupling import check_integer, check_integers, plugin_sigma
from .exactdist import ExactDist
from .perms import check_guard
from .rng import VectorStreams, check_seed, grid_cut, scramble


# ---------------------------------------------------------------------------
# the Mallows bit-chain coupling
# ---------------------------------------------------------------------------

def mallows_exact_pmf(N: int) -> ExactDist:
    """Exact law of S_N by dynamic programming over (last bit, partial sum).

    The weights after bit n are integers over n!: X_n = 0 has probability
    (n - 1)/n and X_n = 1 has 1/n, so a 0 bit multiplies a weight by n - 1
    and a 1 bit by 1, and the law is the final weights over N!.  It must
    coincide with the fixed-point law pi_N; the test suite enforces it.
    """
    check_integer("N", N, 1)
    # state: (last bit value, sum of adjacent products so far)
    dist: dict[tuple[int, int], int] = {(1, 0): 1}  # X_1 == 1
    for n in range(2, N + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (prev, acc), w in dist.items():
            for bit, factor in ((0, n - 1), (1, 1)):
                key = (bit, acc + (prev & bit))
                nxt[key] = nxt.get(key, 0) + w * factor
        dist = nxt
    law: dict[int, int] = {}
    for (last, acc), w in dist.items():
        law[acc + last] = law.get(acc + last, 0) + w
    return ExactDist(math.factorial(N), law)


@dataclass(frozen=True)
class MallowsDiscrepancy:
    N: int
    K: int
    replicas: int
    estimate: float
    sigma: float
    tail_bound: Fraction


def _mallows_differ_numpy(streams: VectorStreams, N: int, K: int, cuts: np.ndarray) -> int:
    """The replicas with S_N != S_K, column by column in numpy, from streams
    past the words of X_2..X_{N-1}: X_n is 1 when the word j < cuts[n - 1]."""
    if N == 1:
        prev = np.ones(len(streams.states), dtype=bool)
    else:
        prev = (streams.next_words() >> 11) < cuts[N - 1]
    diff = prev.astype(np.int64)  # S_N - S_K, accumulated from X_N on
    for n in range(N + 1, K + 1):
        bit = (streams.next_words() >> 11) < cuts[n - 1]
        diff -= prev & bit
        prev = bit
    return int(np.count_nonzero(diff))


def mallows_discrepancy(N: int, replicas: int, K: int, seed: int) -> MallowsDiscrepancy:
    """Monte Carlo estimate of P[S_N != S_inf], truncating the series at K.

    The two sums share their first N - 1 products, so

        S_N - S_K = X_N - (X_N X_{N+1} + ... + X_{K-1} X_K)

    and X_2..X_{N-1} cancel.  Replica r draws X_n from word n - 1 of its
    stream (replica r of VectorStreams(seed, 0, replicas)), as the uniform
    U < 1/n; the words of the cancelled bits are skipped in O(1), and only
    X_N..X_K are drawn (X_1 == 1 is drawn from no word).  Both the compiled
    loop (`native.library()`'s `permfix_mallows`) and the numpy body, its
    fallback, compare the 53-bit word j with cuts[n - 1] = grid_cut(1.0 / n);
    on x86-64 CPUs with AVX-512 F and DQ the compiled loop runs 8 replicas
    at a time in vector lanes, with the same counts.
    The replicas are split once, one contiguous share per CPU the process
    may run on (`native.shares`), and the shares run in parallel.  A share
    [a, b) runs the compiled loop, which derives its replicas' start states
    from scramble(seed) and a, or the numpy body on VectorStreams(seed, a,
    b - a).  The count of replicas with S_N != S_K is the sum over the
    shares, the same whatever their number.
    The truncation can misclassify a replica only if some product
    X_k X_{k+1} with k >= K is one; that has probability at most
    sum_{k >= K} 1/(k(k+1)) = 1/K, reported as tail_bound.
    """
    check_integer("N", N, 1)
    check_integer("K", K, N + 1)
    check_integer("replicas", replicas, 1)
    seed = check_seed(seed)
    cuts = np.array([grid_cut(1.0 / n) for n in range(1, K + 1)], dtype=np.uint64)
    lib, base = native.library(), scramble(seed)

    def share(a: int, b: int) -> int:
        if lib is not None:
            return lib.permfix_mallows(base, a, b - a, N, K, cuts)
        streams = VectorStreams(seed, a, b - a)
        if N > 1:
            streams.skip(N - 2)
        return _mallows_differ_numpy(streams, N, K, cuts)

    differ = sum(native.shares(share, replicas))
    return MallowsDiscrepancy(
        N=N, K=K, replicas=replicas, estimate=differ / replicas,
        sigma=plugin_sigma(differ, replicas),
        tail_bound=Fraction(1, K),
    )


# ---------------------------------------------------------------------------
# the ascent/peak coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AscentPeakSample:
    """First ascent S, first peak T, and M = S - 1{T - S odd}."""

    s: int
    t: int

    @property
    def m(self) -> int:
        return self.s - ((self.t - self.s) % 2)

    def truncated(self, N: int) -> tuple[int, int, int]:
        """(S_N, T_N, M_N) with S_N = min(S, N), T_N = min(T, N)."""
        s_n = min(self.s, N)
        t_n = min(self.t, N)
        return s_n, t_n, s_n - ((t_n - s_n) % 2)


@dataclass(frozen=True)
class AscentPeakBatch:
    """Empirical laws of M and of the truncated M_N for each requested N."""

    samples: int
    ties: int
    m_counts: Mapping[int, int]
    m_n_counts: Mapping[int, Mapping[int, int]]
    disagree: Mapping[int, int]  # count of M != M_N per N

    def disagree_rate(self, N: int) -> float:
        return self.disagree[N] / self.samples


def _ascent_peak_numpy(streams: VectorStreams, joint: np.ndarray) -> int:
    """Fill joint[s, t] column by column in numpy; return the ties, or -1
    when a replica has neither S nor T after 64 uniforms, as the compiled
    loop does."""
    ties = 0
    s_live = np.zeros(len(streams.states), dtype=np.int8)  # S of each live replica, 0 while unset
    rose = np.zeros(len(streams.states), dtype=bool)  # U_{n-1} < U_n
    j_curr = streams.next_words() >> 11
    for n in range(1, 64):  # P[T > 63] <= 2^63/64!: never reached in practice
        j_next = streams.next_words() >> 11
        asc = j_curr < j_next
        s_live[(s_live == 0) & asc] = n
        peak = rose & (j_curr > j_next)
        tied = j_curr == j_next
        joint[:n, n] = np.bincount(s_live[peak], minlength=n)
        ties += int(np.count_nonzero(tied))
        rest = ~(peak | tied)
        if not rest.any():
            return ties
        if not rest.all():
            s_live, asc, j_next = s_live[rest], asc[rest], j_next[rest]
            streams.keep(rest)
        rose, j_curr = asc, j_next
    return -1


def ascent_peak_batch(samples: int, seed: int, ns: Sequence[int] = ()) -> AscentPeakBatch:
    """Batch sampling of (S, T) over many replicas.

    Replica r compares U_n with U_{n+1} for n = 1, 2, ... until its first
    peak or its first tie, reading word n of its stream (replica r of
    VectorStreams(seed, 0, samples)) as U_n.  A peak at n needs
    U_{n-1} < U_n, an ascent at n - 1, so S < T and the replica stops at T.
    It also stops when the two uniforms it compares are equal; ties are
    counted and the replica dropped (53-bit uniforms make them
    astronomically unlikely).  Both engines compare the 53-bit words j of
    the uniforms: the compiled loop (`native.library()`'s
    `permfix_ascent_peak`) runs each replica to its end, and the numpy body,
    its fallback, runs column n over the replicas still live.  Either way a
    replica reads the same words and no others.  The replicas are split
    once, one contiguous share per CPU the process may run on
    (`native.shares`), and the shares run in parallel.  A share [a, b) fills
    its own joint counts by the compiled loop, which derives its replicas'
    start states from scramble(seed) and a, or by the numpy body on
    VectorStreams(seed, a, b - a); the sums of the joints and of the ties do
    not depend on the number of shares.  Either engine reports -1 for a
    replica with no peak after 64 uniforms, and that is raised here.  The
    laws of M and M_N are read off the joint counts of (S, T).
    """
    check_integer("samples", samples, 1)
    ns = tuple(dict.fromkeys(check_integers("every N in ns", ns, 1)))
    seed = check_seed(seed)
    lib, base = native.library(), scramble(seed)

    def share(a: int, b: int) -> tuple[int, np.ndarray]:
        joint = np.zeros((64, 64), dtype=np.int64)  # joint[s, t]: replicas with S = s, T = t
        if lib is not None:
            return lib.permfix_ascent_peak(base, a, b - a, joint), joint
        return _ascent_peak_numpy(VectorStreams(seed, a, b - a), joint), joint

    ties, joints = zip(*native.shares(share, samples))
    if min(ties) < 0:
        raise RuntimeError("S or T unresolved after 64 uniforms")
    ties, joint = sum(ties), sum(joints)

    m_counts: Counter = Counter()
    m_n_counts: dict[int, Counter] = {N: Counter() for N in ns}
    disagree = dict.fromkeys(ns, 0)
    for s, t in zip(*np.nonzero(joint)):
        sample = AscentPeakSample(s=int(s), t=int(t))
        count = int(joint[s, t])
        m_counts[sample.m] += count
        for N in ns:
            m_n = sample.truncated(N)[2]
            m_n_counts[N][m_n] += count
            if m_n != sample.m:
                disagree[N] += count
    return AscentPeakBatch(
        samples=int(joint.sum()),
        ties=ties,
        m_counts=dict(m_counts),
        m_n_counts={N: dict(c) for N, c in m_n_counts.items()},
        disagree=disagree,
    )


def peak_tail_exact(N: int) -> Fraction:
    """Exact P[T > N]: the share of the (N+1)! relative orderings of
    U_1..U_{N+1} with no interior local maximum at an index n in [2, N].

    The orderings are counted prefix by prefix, one actual value at a time,
    never placing a value that would make the last entry a peak.  A prefix's
    peak-free completions depend only on the state (last value, unused
    values, rising into last), so each state is counted once, in a memo
    local to the call; there is no closed form and no relabelling by rank.
    The result is checked against the bound 2^N / (N+1)! by criterion 9 and
    by the `peak_tail_bound` verdict of `permfix alt`, not here.
    """
    check_integer("N", N, 2)
    check_guard(N, 10, "peak_tail_exact")
    m = N + 1

    @lru_cache(maxsize=None)
    def extensions(last: int, unused: int, rising: bool) -> int:
        """Peak-free completions of a prefix ending at value last (risen into
        when rising), where bit v of unused marks the values still to place."""
        if not unused:
            return 1
        # after a rise, a value below last would make last a peak
        allowed = unused >> last + 1 << last + 1 if rising else unused
        count = 0
        while allowed:
            bit = allowed & -allowed
            v = bit.bit_length() - 1
            count += extensions(v, unused ^ bit, v > last)
            allowed ^= bit
        return count

    # the start state: last = m lies above every value, so the first entry
    # does not rise into its place and cannot count as a peak
    return Fraction(extensions(m, (1 << m) - 1, False), math.factorial(m))


def empirical_half_tv(pmf_counts: Mapping[int, int], samples: int, reference: ExactDist) -> float:
    """Half-convention distance between an empirical law and an exact one."""
    points = set(pmf_counts) | set(reference)
    total = 0.0
    for x in points:
        diff = pmf_counts.get(x, 0) / samples - float(reference.get(x, 0))
        if diff > 0:
            total += diff
    return total

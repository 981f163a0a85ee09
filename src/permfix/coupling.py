"""Monotone coupling of the restricted birth-and-death chains on [0, N-4].

Two chains X (kernel P_check, reversible law pi_check) and Y (kernel R,
reversible law zeta) are driven by one shared uniform per step (`step`),

    x' = x - 1  if u < K(x, x-1)
    x' = x      if u < K(x, x-1) + K(x, x)
    x' = x + 1  otherwise,

together with the event counters Z (meetings that split), Z-tilde
(order violations downward) and Z-hat (order violations upward), the
coupling time tau and the hitting times of zero.

Both engines read one table format (`_grid_tables`): six uint64 tables
with one cut per state 0..N-4, the (down, stay) thresholds of X and of Y
and the CDFs of X(0) and Y(0).  Every uniform is drawn as its 53-bit word
j, and every cut c is stored as g = ceil(c * 2^53) (`rng.grid_cut`), so
j * 2^-53 < c exactly when j < g: the engines decide alike by construction.

`run_coupling` splits the replicas once, into one contiguous share per CPU
the process may run on (`native.shares`), and each share runs its replicas
in blocks, each started by one rule (`_block_start`): X(0) is the number
of CDF cuts at or below a start word, and likewise Y(0).  Every start law
charges only [0, N-4], so the last CDF cut is 2^53 and that number is
already a state.  A share advances each block to each checkpoint in turn
and tallies it there (`_tally`) from one event byte per replica, the OR of
the bytes (`_event_table`) of its start and its moves.  Only the advance
differs between engines: counts-only runs take a compiled C loop
(`native.library()`'s `permfix_advance`), `step`'s rule on the integers j
and g, or the numpy advance where the library cannot be built or loaded,
with identical results; traced runs always take the numpy advance, which
alone records the path.  Every engine runs inside the shares.  Both are
tested against an exact replay in the tests, which redraws each replica's
uniforms as Fractions and moves it with `step` on the exact thresholds.

The compiled loop stops moving a settled replica.  A replica is settled
when X's step tables equal Y's (as for r-r), X = Y, and its event byte
holds met, X at 0 and Y at 0.  Two copies of one chain driven by one
uniform move together once they meet, so every later move keeps X = Y: no
Z, Z-tilde or Z-hat fires, the arrival bits are set already and X != Y
stays false.  `_tally` reads nothing else, so the counts are those of the
full simulation; only the settled replica's X, Y and stream stop where it
settled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from . import native
from .exactdist import ExactDist, exp_interval
from .kernels import CONSTANT_K, StochasticKernel, penta_moves, reversible_pair
from .rng import TWO_NEG53, VectorStreams, check_seed, grid_cut

# the catalogue labels (`kernels.reversible_pair`) of X's and Y's kernels
_SELECTOR_LABELS = {
    "pcheck-r": ("P_check", "R"),
    "r-r": ("R", "R"),
    "pcheck-rtilde": ("P_check", "R_tilde"),
}
SELECTORS = tuple(_SELECTOR_LABELS)
START_MODES = ("shared", "independent", "copy_x")
STAT_NAMES = ("neq", "tau_gt", "z_pos", "ztilde_pos", "zhat_pos", "tau0x_gt", "tau0y_gt")


def check_integer(name: str, value: object, minimum: int) -> None:
    """ValueError unless value is an int of at least minimum; a bool is
    refused, though Python counts it as one.  The one type and range rule
    for the counts of the Monte Carlo entry points and for the N of
    `altcouplings`' exact laws."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_integers(name: str, values: Iterable[object], minimum: int) -> tuple[int, ...]:
    """values as a tuple, read once (they may be a one-shot iterable), each
    checked by `check_integer`; ValueError when values is not iterable."""
    try:
        items = iter(values)
    except TypeError:
        raise ValueError(f"{name} must be an iterable of integers") from None
    values = tuple(items)
    for value in values:
        check_integer(name, value, minimum)
    return values


@dataclass(frozen=True)
class RunConfig:
    """Reproducible description of one coupled simulation."""

    N: int
    horizon: int
    replicas: int
    seed: int
    selector: str = "pcheck-r"
    start_mode: str = "shared"
    emit_traces: bool = False
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name, minimum in (("N", 5), ("horizon", 0), ("replicas", 1)):
            check_integer(name, getattr(self, name), minimum)
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.selector not in SELECTORS:
            raise ValueError(f"selector must be one of {SELECTORS}")
        if self.start_mode not in START_MODES:
            raise ValueError(f"start_mode must be one of {START_MODES}")
        if not isinstance(self.emit_traces, bool):
            raise ValueError("emit_traces must be a bool")
        points = sorted(set(check_integers("checkpoints", self.checkpoints, 0)) | {self.horizon})
        if points[-1] > self.horizon:
            raise ValueError("checkpoints must lie in [0, horizon]")
        object.__setattr__(self, "checkpoints", tuple(points))


@dataclass(frozen=True)
class CouplingTrace:
    """Per-step record of one coupled trajectory pair."""

    steps: tuple[tuple[int, int, float], ...]  # (x, y, u) before each step
    final: tuple[int, int]
    tau: int | None
    tau0_x: int | None
    tau0_y: int | None
    z_incr: tuple[int, ...]
    ztilde_incr: tuple[int, ...]
    zhat_incr: tuple[int, ...]


@dataclass(frozen=True)
class Aggregates:
    """Counts of the monitored events at one time point."""

    n: int
    replicas: int
    counts: Mapping[str, int]

    def estimate(self, stat: str) -> float:
        return self.counts[stat] / self.replicas

    def sigma(self, stat: str) -> float:
        return plugin_sigma(self.counts[stat], self.replicas)


def plugin_sigma(count: int, trials: int) -> float:
    """The plug-in binomial standard error sqrt(p (1 - p) / trials) of the
    estimate p = count / trials; it is 0 at p = 0 and p = 1."""
    p = count / trials
    return math.sqrt(p * (1.0 - p) / trials)


def within_bound(count: int, trials: int, bound: float) -> bool:
    """Is the estimate p = count / trials at most bound + 3 sigma?

    The one rule for a Monte Carlo verdict against an upper bound, with
    sigma = `plugin_sigma(count, trials)`: count = 0 passes every
    bound >= 0, and count = trials passes only a bound >= 1.
    """
    return count / trials <= bound + 3 * plugin_sigma(count, trials)


@dataclass(frozen=True)
class CouplingStats:
    config: RunConfig
    by_time: Mapping[int, Aggregates]
    traces: tuple[CouplingTrace, ...] = ()

    @property
    def final(self) -> Aggregates:
        return self.by_time[self.config.horizon]


def selector_kernels(N: int, selector: str) -> tuple[StochasticKernel, StochasticKernel, ExactDist, ExactDist]:
    """(K_X, K_Y, law of X(0), law of Y(0)) for a selector: the catalogue
    pairs of its two labels, so each chain starts from its reversible law.
    When both labels agree the pair is built once."""
    if selector not in _SELECTOR_LABELS:
        raise ValueError(f"unknown selector {selector!r}")
    label_x, label_y = _SELECTOR_LABELS[selector]
    k_x, law_x = reversible_pair(N, label_x)
    k_y, law_y = (k_x, law_x) if label_y == label_x else reversible_pair(N, label_y)
    return k_x, k_y, law_x, law_y


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def birth_death_thresholds(kernel: StochasticKernel) -> tuple[list[Fraction], list[Fraction]]:
    """(down, down+stay) cut points per state, exact."""
    if kernel.bandwidth() > 1:
        raise ValueError("monotone stepping needs a birth-and-death kernel")
    down, stay = [], []
    states = kernel.states
    for i, (x, (den, row)) in enumerate(zip(states, kernel.integer_rows)):
        d = row.get(states[i - 1], 0) if i > 0 else 0
        down.append(Fraction(d, den))
        stay.append(Fraction(d + row.get(x, 0), den))
    return down, stay


def step(x, u, down, stay):
    """The shared-uniform monotone move: x - 1 if u < down[x], x if
    u < stay[x], else x + 1.

    Restricted states are 0..N-4, so a state is its own index into its
    chain's `birth_death_thresholds`.  The same expression moves an int
    under a Fraction u, and a numpy array of states under an array of
    53-bit words j against the grid numerators of `_grid_tables`.
    """
    return x + 1 - (u < stay[x]) - (u < down[x])


# ---------------------------------------------------------------------------
# the block engines: one checkpoint loop, a compiled or a numpy advance
# ---------------------------------------------------------------------------

BLOCK_SIZE = 1 << 14  # replicas per block; counts do not depend on it


def _grid_tables(cfg: RunConfig) -> tuple[np.ndarray, ...]:
    """Six uint64 tables of grid numerators, one cut per state 0..N-4: the
    (down, stay) thresholds of X and of Y, then the CDFs of X(0) and Y(0),
    the `cumulative()` of each start law (every start law charges all of
    [0, N-4], so its last cut is 2^53).  Built once per run and shared by
    its blocks."""
    k_x, k_y, law_x, law_y = selector_kernels(cfg.N, cfg.selector)
    cuts = (
        *birth_death_thresholds(k_x),
        *birth_death_thresholds(k_y),
        law_x.cumulative(),
        law_y.cumulative(),
    )
    return tuple(np.array([grid_cut(c) for c in t], dtype=np.uint64) for t in cuts)


def _events(x, y, xn, yn):
    """The (Z, Z-tilde, Z-hat) flags of the steps (x, y) -> (xn, yn),
    elementwise: a meeting that splits, X going from at or below Y to above
    it, and X going from at or above Y to below it."""
    return (x == y) & (xn != yn), (x <= y) & (xn > yn), (x >= y) & (xn < yn)


def _arrivals(x, y):
    """The flags met (x = y), X at 0 and Y at 0 of the states (x, y), elementwise."""
    return x == y, x == 0, y == 0


def _event_byte(*flags) -> np.ndarray:
    """One uint8 per element with flags[b] as bit b.  An event byte holds the
    `_events` of a step in bits 0-2 and the `_arrivals` of the states it
    reaches in bits 3-5; a replica's byte ORs those of its start and steps."""
    return sum(np.asarray(f, dtype=np.uint8) << b for b, f in enumerate(flags)).astype(np.uint8)


@lru_cache(maxsize=8)  # built once per run's N, not per block; 349 KB at N = 200
def _event_table(N: int) -> np.ndarray:
    """The event byte of every move: one per (x, y, mx, my), at index
    (x (N-3) + y) 9 + 3 mx + my, for the step to x' = x + 1 - mx,
    y' = y + 1 - my (`step`, with mx and my the numbers of the state's
    (down, stay) grid numerators above the step's word j).  Entries of
    moves off [0, N-4], which never happen, are filled all the same.  The
    table is shared by every run at N, so it is read-only."""
    x, y, mx, my = np.ix_(*(np.arange(n) for n in (N - 3, N - 3, 3, 3)))
    xn, yn = x + 1 - mx, y + 1 - my
    table = _event_byte(*_events(x, y, xn, yn), *_arrivals(xn, yn)).ravel()
    table.flags.writeable = False
    return table


def _block_start(
    cfg: RunConfig, tables: tuple, first: int, count: int
) -> tuple[VectorStreams, np.ndarray, np.ndarray, np.ndarray]:
    """(streams, X, Y, ev) of replicas [first, first + count): their streams,
    past the start words, their start states, each the number of CDF cuts
    at or below a 53-bit start word (a state, as the last cut is 2^53), and
    their event bytes, the `_arrivals` of the start states."""
    cdf_x, cdf_y = tables[4:]
    streams = VectorStreams(cfg.seed, first, count)
    j = streams.next_words() >> 11
    X = np.searchsorted(cdf_x, j, side="right")
    if cfg.start_mode == "independent":
        j = streams.next_words() >> 11
    Y = X.copy() if cfg.start_mode == "copy_x" else np.searchsorted(cdf_y, j, side="right")
    return streams, X, Y, _event_byte(0, 0, 0, *_arrivals(X, Y))


def _tally(X: np.ndarray, Y: np.ndarray, ev: np.ndarray) -> list[int]:
    """The STAT_NAMES counts of replicas at (X, Y) with event bytes ev."""
    z, ztilde, zhat, met, hit_x, hit_y = (np.count_nonzero(ev & (1 << b)) for b in range(6))
    n = len(ev)
    return [np.count_nonzero(X != Y), n - met, z, ztilde, zhat, n - hit_x, n - hit_y]


def _check_tables(N: int, tables: tuple, events: np.ndarray) -> None:
    """Refuse tables that would index off [0, N-4]; the compiled loop
    indexes them by state unchecked."""
    down_x, stay_x, down_y, stay_y, cdf_x, cdf_y = tables
    size = N - 3
    if {len(t) for t in tables} != {size}:
        raise ValueError("every table must hold one cut per state of [0, N-4]")
    if down_x[0] or down_y[0] or any(t[-1] != 1 << 53 for t in (stay_x, stay_y, cdf_x, cdf_y)):
        raise ValueError("the tables must keep every state in [0, N-4]")
    if len(events) != size * size * 9:
        raise ValueError("the event table must hold 9 entries per pair of states of [0, N-4]")


def _advance_numpy(tables, events, streams, X, Y, ev, steps, path=None) -> None:
    """Advance replicas at (X, Y), with event bytes ev, by `steps` moves, in
    place: each move takes the 53-bit word j of the next uniform of their
    streams, moves by `step` and ORs the move's `_event_table` byte into ev.
    When path is a list, (X, Y, j) is appended to it after each move."""
    down_x, stay_x, down_y, stay_y = tables[:4]
    size = len(down_x)
    for _ in range(steps):
        j = streams.next_words() >> 11
        Xn, Yn = step(X, j, down_x, stay_x), step(Y, j, down_y, stay_y)
        ev |= events[(X * size + Y) * 9 + 3 * (X + 1 - Xn) + (Y + 1 - Yn)]
        X[:], Y[:] = Xn, Yn
        if path is not None:
            path.append((Xn, Yn, j))


def _advance_compiled(tables, events, streams, X, Y, ev, steps, path=None) -> None:
    """`_advance_numpy` by the compiled loop (`native.library()`'s
    `permfix_advance`, which must have loaded); it records no path.  One
    call moves every replica it is given in place, on the calling thread:
    the replicas are split across CPUs once per run, by `run_coupling`.

    When X's step tables equal Y's, a replica is settled once X = Y and its
    event byte holds met, X at 0 and Y at 0: each later move takes both
    chains by one word to one state, so X = Y stays, no Z, Z-tilde or Z-hat
    fires and the arrival bits are set already.  The loop leaves a settled
    replica before drawing its next word, so its tally is the full
    simulation's; after a call its X, Y and stream are those it settled at.
    """
    down_x, stay_x, down_y, stay_y = tables[:4]
    same = np.array_equal(down_x, down_y) and np.array_equal(stay_x, stay_y)
    settle = int(_event_byte(0, 0, 0, 1, 1, 1)) if same else 0
    native.library().permfix_advance(
        streams.states, X, Y, ev, len(X), steps, *tables[:4], events, len(down_x), settle
    )


def _traces_from_path(path: list) -> list[CouplingTrace]:
    """One trace per replica (column) from a block's path: its start (X, Y),
    then (X, Y, j) after each step; step k takes time k to k + 1 under the
    uniform j 2^-53 of entry k + 1."""
    xs, ys = (np.array([entry[i] for entry in path]) for i in (0, 1))
    js = np.array([entry[2] for entry in path[1:]], dtype=np.uint64)
    us = js.reshape(len(path) - 1, xs.shape[1]) * TWO_NEG53

    def first(hit: np.ndarray) -> list[int | None]:
        return [int(t) if h else None for t, h in zip(hit.argmax(axis=0), hit.any(axis=0))]

    def times(flags: np.ndarray) -> list[tuple[int, ...]]:
        return [tuple(np.flatnonzero(col).tolist()) for col in flags.T]

    tau, tau0_x, tau0_y = first(xs == ys), first(xs == 0), first(ys == 0)
    z, zt, zh = (times(flags) for flags in _events(xs[:-1], ys[:-1], xs[1:], ys[1:]))
    paths = zip(xs.T.tolist(), ys.T.tolist(), us.T.tolist())
    return [
        CouplingTrace(
            steps=tuple(zip(x, y, u)), final=(x[-1], y[-1]), tau=tau[r], tau0_x=tau0_x[r],
            tau0_y=tau0_y[r], z_incr=z[r], ztilde_incr=zt[r], zhat_incr=zh[r],
        )
        for r, (x, y, u) in enumerate(paths)
    ]


def run_coupling(cfg: RunConfig) -> CouplingStats:
    """Simulate all replicas and aggregate the event counts.

    The replicas are split once, into one contiguous share per CPU the
    process may run on (`native.shares`), and the shares run in parallel.
    A share runs its replicas in blocks of at most BLOCK_SIZE, each started
    by `_block_start`, advanced to each checkpoint in turn and tallied
    there; tables, event table and advance are chosen once, before any
    share starts.  Replica r always consumes stream (seed, r), so the counts
    and traces do not depend on the shares, on BLOCK_SIZE, on the
    checkpoints or on the advance; the shares' counts are summed and their
    traces joined in share order, which is replica order, and all counts
    are exact integers.  The compiled advance draws no word for a settled
    replica (X's step tables equal Y's, X = Y, met and both hits seen), at a
    block start or at any later checkpoint, since no later move could
    change its tally.
    """
    tables, events = _grid_tables(cfg), _event_table(cfg.N)
    _check_tables(cfg.N, tables, events)
    compiled = not cfg.emit_traces and native.library() is not None
    advance = _advance_compiled if compiled else _advance_numpy

    def share(a: int, b: int) -> tuple[np.ndarray, list[CouplingTrace]]:
        counts = np.zeros((len(cfg.checkpoints), len(STAT_NAMES)), dtype=np.int64)
        traces: list[CouplingTrace] = []
        for first in range(a, b, BLOCK_SIZE):
            streams, X, Y, ev = _block_start(cfg, tables, first, min(BLOCK_SIZE, b - first))
            path = [(X.copy(), Y.copy())] if cfg.emit_traces else None
            done = 0
            for row, n in enumerate(cfg.checkpoints):
                if n > done:  # a checkpoint at 0 tallies the start; nothing moves
                    advance(tables, events, streams, X, Y, ev, n - done, path)
                counts[row] += _tally(X, Y, ev)
                done = n
            if path is not None:
                traces += _traces_from_path(path)
        return counts, traces

    counts, traces = zip(*native.shares(share, cfg.replicas))
    by_time = {
        n: Aggregates(n=n, replicas=cfg.replicas, counts=dict(zip(STAT_NAMES, row)))
        for n, row in zip(cfg.checkpoints, sum(counts).tolist())
    }
    return CouplingStats(config=cfg, by_time=by_time, traces=tuple(t for part in traces for t in part))


# ---------------------------------------------------------------------------
# certificates and the assembled bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    """K(x, [x-1, x]) >= K(x+1, x) margins of a birth-and-death kernel."""

    ok: bool
    margins: tuple[tuple[int, Fraction], ...]


def monotonicity_certificate(kernel: StochasticKernel) -> MonotonicityReport:
    down, stay = birth_death_thresholds(kernel)
    margins = tuple((x, stay[i] - down[i + 1]) for i, x in enumerate(kernel.states[:-1]))
    return MonotonicityReport(ok=all(m >= 0 for _, m in margins), margins=margins)


@dataclass(frozen=True)
class DriftCertificate:
    """Certified per-step contraction of exp(theta y / N).

    F(y) = E[exp(theta (Y' - y)/N) | Y = y]
         = 1 + (e^{-theta/N} - 1) K(y, y-1) + (e^{theta/N} - 1) K(y, y+1)

    Both rates are >= 0, so the upper ends of rational enclosures of
    e^{-theta/N} and e^{theta/N} give an exact rational F_bar >= F, and
    c_est = N^3 (1 - max F_bar over y in [1, N-4]) is an exact rational
    lower bound on the contraction rate.  Positivity certifies the
    hitting-time tail P[tau_0 > n] <= e^{1 - c_est n / N^3} for any initial
    law (theta <= 1 keeps the constant e valid).

    For R and R_tilde the maximum is at y = 1, so one exact evaluation
    gives c_est and no kernel is built.  On [1, N-4] the down-rate
    y(N-y)/(N(N-1)) is smallest at y = 1, since
    y(N-y) - (N-1) = (y-1)(N-1-y) >= 0, and the up-rate (N-y-k)/(N(N-1)),
    with k = 1 and 1/2, is largest there: it falls with y, and the top
    state N-4 has none.  For theta >= 0 the enclosed e^{-theta/N} - 1 is
    <= 0 and the enclosed e^{theta/N} - 1 is >= 0, so F_bar(y) <= F_bar(1).
    """

    N: int
    theta: Fraction
    c_est: Fraction

    def tail_bound(self, n: int) -> float:
        return math.exp(min(1 - self.c_est * n / self.N ** 3, 700))


_DRIFT_DIGITS = 45  # enclosure width of e^{-+theta/N}; far below any margin c/N^3


def _drift_for(N: int, which: str, theta: Fraction) -> DriftCertificate:
    # the upper ends (m/dm, q/dq) of e^{-theta/N} and e^{theta/N}
    (m, dm), (q, dq) = (
        exp_interval(sign * theta / N, _DRIFT_DIGITS).hi.as_integer_ratio() for sign in (-1, 1)
    )
    den, moves = penta_moves(N, 1, CONSTANT_K[which])  # the rates K(1, 0) and K(1, 2)
    up = moves[2] if N > 5 else 0  # y = 1 is the top state at N = 5
    # F_bar(1) - 1 = (m/dm - 1) K(1, 0) + (q/dq - 1) K(1, 2) = excess / (dm dq den),
    # and F_bar(1) is the maximum
    excess = (m - dm) * moves[0] * dq + (q - dq) * up * dm
    return DriftCertificate(N=N, theta=theta, c_est=Fraction(-N ** 3 * excess, dm * dq * den))


def drift_certificate(N: int, which: str = "R") -> DriftCertificate:
    """Drift certificate for R (theta = 1, the classical exp(y/N) function)
    or R_tilde.

    The exp(y/N) test function does not contract for R_tilde (its up/down
    gap of one half is beaten by the second-order terms near y = 1), so for
    R_tilde the rate theta is the best of the grid 1, 1/2, 1/4, 1/8; any
    theta in (0, 1/2) restores a positive margin.
    """
    if N < 5:
        raise ValueError("N must be >= 5")
    if which not in CONSTANT_K:
        raise ValueError("which must be 'R' or 'R_tilde'")
    if which == "R":
        thetas = (Fraction(1),)
    else:
        thetas = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    return max((_drift_for(N, which, t) for t in thetas), key=lambda cert: cert.c_est)


@lru_cache(maxsize=None)
def _c_hat(N: int) -> float:
    """c_hat, the smaller of the certified R and R_tilde rates, once per N."""
    return float(min(drift_certificate(N, which).c_est for which in ("R", "R_tilde")))


@dataclass(frozen=True)
class TVBoundReport:
    """The section-5 bound, assembled analytically and from simulation."""

    N: int
    n: int
    c_hat: float
    analytic_bound: float
    empirical_bound: float | None


def assemble_tv_bound(N: int, n: int, estimates: Aggregates | None = None) -> TVBoundReport:
    """5 * 2^N n / N! + 2 e^{1 - c_hat n / N^3} with c_hat the smaller of the
    R and R_tilde drift rates, plus the same bound rebuilt from empirical
    terms (Z, Z-tilde, Z-hat and both hitting tails) when provided."""
    c_hat = _c_hat(N)
    linear = float(Fraction(5 * 2 ** N * n, math.factorial(N)))
    exp_term = 2 * math.exp(min(1.0 - c_hat * n / N ** 3, 700.0))
    empirical = None
    if estimates is not None:
        empirical = sum(
            estimates.estimate(s)
            for s in ("z_pos", "ztilde_pos", "zhat_pos", "tau0x_gt", "tau0y_gt")
        )
    return TVBoundReport(
        N=N, n=n, c_hat=c_hat, analytic_bound=linear + exp_term, empirical_bound=empirical,
    )


def suggested_horizon(N: int, exponent: int = 4) -> int:
    """ceil(N^exponent ln N / c_hat): the horizon at which the exponential
    term of the assembled bound drops to about e^{1 - N ln N}.

    The drift rate c_hat/N^3 per step forces exponent 4 for that target;
    exponent 1 is the other reading found in the source material and is
    exposed so both assembled bounds can be reported side by side.
    """
    c_hat = _c_hat(N)
    if c_hat <= 0:
        raise ValueError(f"no positive drift certificate at N={N}")
    return math.ceil(N ** exponent * math.log(N) / c_hat)

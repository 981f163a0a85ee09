"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

One check fails, with the analysis recorded alongside:

* criterion 3's second clause asserts the fixed-point-count projection of
  the transposition walk equals the penta-diagonal kernel P entrywise; full
  enumeration for N <= 7 shows the projection's size-one rates are exactly
  twice P's, while the size-two rates match.  The walk picks each of the
  C(N,2) transpositions with probability 2/(N(N-1)); from eta_1 = x it
  lowers eta_1 by one with probability 2x(N-x)/(N(N-1)) (x(N-x) pairs of one
  fixed and one moved point) and raises it by one with mean probability
  2(N-x-2p(x))/(N(N-1)) (each point on a cycle of length >= 3 can be split
  off), against P's x(N-x)/(N(N-1)) and (N-x-2p(x))/(N(N-1)).  Both kernels
  share the same reversible law, Kolmogorov products and downward recursion,
  which is why every other result is insensitive to the factor.  A lazy
  walk scales all moves alike, so no uniform transposition walk lumps to P
  as written; which side is off needs the paper's own rates for P;

* criterion 10 checks log_rate against a two-term expansion with a rigorous
  remainder, not against the leading term alone.  With B = 2^{N+1}/(N+1)!,
  the total distance satisfies N/(N+2) B <= TV <= N/(N+2) B + 2^{N+3}/(N+3)!.
  The lower end is tv_bracket's.  For the upper end, |pi_N(k) - e^{-1}/k!|
  is (1/k!) |sum_{j>m} (-1)^j/j!| with m = N-k, an alternating tail at most
  1/(m+1)! - 1/(m+2)! + 1/(m+3)!; the binomial sums of these three terms
  over k = 0..N leave, besides N/(N+2) B + 2^{N+3}/(N+3)!, a negative
  remainder that outweighs the Poisson mass beyond N (N >= 2); the
  criterion also checks this bracket exactly for N = 4..15.  Stirling's
  formula with remainder in (0, 1/(12N)) then gives

      T_N = -1 + (1 + ln 2)/ln N + (ln 2 - ln(N+1) - ln(2 pi N)/2)/(N ln N),
      ln(N/(N+2))/(N ln N) - 1/(12 N^2 ln N)
          <= rate - T_N <= ln((N^2+3N+4)/((N+2)(N+3)))/(N ln N).

  The second term of T_N is O(ln N/N), not o(1): it puts the rate 0.081 from
  the leading-order value at N = 20 and 0.053 at N = 30, so no fixed window
  around -1 + (1 + ln 2)/ln N can hold on this range.
"""
import math
import time
from fractions import Fraction

import pytest

from permfix import altcouplings, coupling, exactdist, kernels, lumping, moments


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def total_tv(n: int) -> exactdist.Interval:
    return exactdist.tv_distance(
        exactdist.fixed_point_pmf(n), exactdist.poisson_pmf(n, digits=50), "total"
    )


def test_criterion_01_exact_bound_bracket():
    t0 = time.monotonic()
    failures = []
    for n in range(4, 16):
        lower, upper = exactdist.tv_bracket(n)
        if not total_tv(n).certainly_within(lower, upper):
            failures.append(n)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 5.0
    assert verdict(
        1, ok,
        f"total TV inside the bracket for N=4..15 at 50-digit certainty "
        f"(failures={failures}, {elapsed:.2f}s < 5s)",
    )


def test_criterion_02_triple_agreement_and_bounds():
    t0 = time.monotonic()
    triple_ok = all(
        kernels.p_bruteforce(n).values
        == kernels.p_closedform(n).values
        == kernels.p_recursion(n).values
        for n in range(4, 9)
    )
    small_ok = all(
        kernels.p_bruteforce(n).values == kernels.p_closedform(n).values
        for n in range(1, 4)
    )
    closed_rec_ok = all(
        kernels.p_closedform(n).values == kernels.p_recursion(n).values
        for n in range(4, 31)
    )
    bounds_ok = True
    signs_ok = True
    for n in range(4, 31):
        p = kernels.p_closedform(n)
        for x in range(0, n - 1):
            gap = abs(2 * p[x] - 1)
            bounds_ok = bounds_ok and gap <= kernels.prop41_bound(n, x)
            bounds_ok = bounds_ok and gap <= kernels.lemma_b1_bound(n, x)
        for off in range(0, n - 1):
            s = 2 * p[n - 2 - off] - 1
            signs_ok = signs_ok and ((s > 0) if off % 2 == 0 else (s < 0))
    elapsed = time.monotonic() - t0
    ok = triple_ok and small_ok and closed_rec_ok and bounds_ok and signs_ok and elapsed < 60
    assert verdict(
        2, ok,
        f"triple agreement N<=8, closed=recursion N<=30, Prop4.1+LemmaB.1 bounds, "
        f"sign alternation ({elapsed:.2f}s < 60s)",
    )


def test_criterion_03_intertwining_and_projection_equality():
    intertwining_ok = True
    size_two_ok = True
    literal_equal = True
    for n in range(4, 8):
        chain = lumping.cycle_type_chain(n)
        try:
            result = lumping.project(chain)  # certifies Q Lambda = Lambda P
        except AssertionError:
            intertwining_ok = False
            continue
        penta = kernels.build_penta(n, kernels.p_closedform(n))
        for x in penta.states:
            for y in penta.states:
                pe, pr = penta.entry(x, y), result.kernel.entry(x, y)
                if pe != pr:
                    literal_equal = False
                if x != y and abs(x - y) == 2 and pe != pr:
                    size_two_ok = False
    ok = intertwining_ok and literal_equal
    assert verdict(
        3, ok,
        "intertwining exact for N<=7 "
        f"({'pass' if intertwining_ok else 'fail'}); projection equals the "
        f"penta kernel entrywise ({'pass' if literal_equal else 'fail'}: "
        f"size-two entries match={size_two_ok}, size-one entries are exactly "
        "twice the penta rates, see module docstring)",
    ), (
        "the eta_1 projection of the transposition walk has size-one rates "
        "exactly double the penta kernel's; entrywise equality as stated "
        "cannot hold (the factor is invariant under every downstream check)"
    )


def test_criterion_04_reversibility_suites():
    bad = []
    for n in range(4, 13):
        for name in ("P", "P_tilde", "P_hat", "P_check", "R"):
            if n < 5 and name in kernels.RESTRICTED_LABELS:
                continue
            report = kernels.check_reversibility(*kernels.reversible_pair(n, name))
            if not report.ok:
                bad.append((n, name))
    assert verdict(
        4, not bad,
        f"detailed balance + Kolmogorov cycles exact for (P,pi), (P~,pi), "
        f"(P^,pi^), (P_check,pi_check), (R,zeta), N<=12 (violations={bad})",
    )


def test_criterion_05_moments():
    ok = True
    for n in range(1, 13):
        ok = ok and all(moments.falling_moment(n, k) == 1 for k in range(n + 1))
        ok = ok and all(moments.raw_moment_equality(n, k)[2] for k in range(n + 1))
        ok = ok and not moments.raw_moment_equality(n, n + 1)[2]
    assert verdict(
        5, ok,
        "falling moments equal 1 for k<=N; raw moments equal Bell numbers for "
        "k<=N and differ at k=N+1; exact, N<=12",
    )


def test_criterion_06_gram():
    gram_ok = all(
        moments.gram(n).entries == moments.gram_bruteforce(n).entries
        for n in range(1, 8)
    )
    coeff_ok = True
    for n in range(4, 11):
        try:
            moments.coefficient_systems(n)  # raises if f != 2p anywhere
        except AssertionError:
            coeff_ok = False
    assert verdict(
        6, gram_ok and coeff_ok,
        f"closed-form Gram equals brute force N<=7 ({gram_ok}); coefficient "
        f"solve reconstructs f=2p exactly N<=10 ({coeff_ok})",
    )


def test_criterion_07_coupling_simulator():
    t0 = time.monotonic()
    n_steps, replicas, n_val = 10 ** 5, 10 ** 4, 8
    cfg = coupling.RunConfig(
        N=n_val, horizon=n_steps, replicas=replicas, seed=20240801, selector="pcheck-r"
    )
    stats = coupling.run_coupling(cfg)
    final = stats.final

    z_cap = float(Fraction(2 ** n_val * n_steps, math.factorial(n_val)))
    zz_cap = float(Fraction(2 ** (n_val + 1) * n_steps, math.factorial(n_val)))
    z_ok = coupling.within_bound(final.counts["z_pos"], final.replicas, z_cap)
    zt_ok = coupling.within_bound(final.counts["ztilde_pos"], final.replicas, zz_cap)
    zh_ok = coupling.within_bound(final.counts["zhat_pos"], final.replicas, zz_cap)

    tail_sum = sum(
        final.estimate(s) for s in ("tau0x_gt", "tau0y_gt", "ztilde_pos", "zhat_pos")
    )
    slack = 4 * 3 * max(final.sigma(s) for s in coupling.STAT_NAMES)
    tails_ok = final.estimate("tau_gt") <= tail_sum + slack

    rr = coupling.run_coupling(
        coupling.RunConfig(
            N=n_val, horizon=n_steps, replicas=replicas, seed=20240801, selector="r-r"
        )
    )
    rr_ok = rr.final.counts["neq"] == 0

    elapsed = time.monotonic() - t0
    ok = z_ok and zt_ok and zh_ok and tails_ok and rr_ok and elapsed < 300
    assert verdict(
        7, ok,
        f"N=8, n=1e5, 1e4 replicas: P[Z>0]={final.estimate('z_pos'):.4f} <= "
        f"{z_cap:.1f}+3s ({z_ok}); Z~/Z^ bounds ({zt_ok}/{zh_ok}); tails "
        f"decomposition ({tails_ok}); (R,R) disagreement=0 ({rr_ok}); "
        f"{elapsed:.0f}s < 300s",
    )


def test_criterion_08_drift():
    t0 = time.monotonic()
    nonpositive = [
        n for n in range(10, 201) if coupling.drift_certificate(n, "R").c_est <= 0
    ]
    cert10 = coupling.drift_certificate(10, "R")
    cfg = coupling.RunConfig(
        N=10, horizon=10 ** 5, replicas=10 ** 4, seed=77, selector="pcheck-r",
        checkpoints=(10 ** 3, 10 ** 4, 10 ** 5),
    )
    stats = coupling.run_coupling(cfg)
    tail_ok = True
    observed = {}
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        est = stats.by_time[n].estimate("tau0y_gt")
        cap = cert10.tail_bound(n) * 1.05
        observed[n] = (est, cap)
        tail_ok = tail_ok and est <= cap
    elapsed = time.monotonic() - t0
    ok = not nonpositive and tail_ok
    assert verdict(
        8, ok,
        f"c_est>0 for 10<=N<=200 (violations={nonpositive}); empirical "
        f"P[tau0_Y>n] within 1.05x certificate at N=10 for n in 1e3/1e4/1e5 "
        f"({observed}); {elapsed:.0f}s",
    )


def test_criterion_09_alternative_couplings():
    t0 = time.monotonic()
    mallows_ok = all(
        altcouplings.mallows_exact_pmf(n) == exactdist.fixed_point_pmf(n) for n in range(1, 13)
    )

    scaled = []
    for n in (10, 20, 40, 80):
        d = altcouplings.mallows_discrepancy(n, replicas=10 ** 5, K=2 * n, seed=31)
        scaled.append(n * d.estimate)
    rate_ok = max(scaled) <= 3 * min(scaled)

    batch = altcouplings.ascent_peak_batch(10 ** 6, seed=97, ns=tuple(range(2, 9)))
    m_tv = altcouplings.empirical_half_tv(
        batch.m_counts, batch.samples, exactdist.poisson_truncated(40)
    )
    m_ok = m_tv <= 0.005
    m_n_tv = {
        n: altcouplings.empirical_half_tv(
            batch.m_n_counts[n], batch.samples, exactdist.fixed_point_pmf(n)
        )
        for n in range(2, 9)
    }
    m_n_ok = all(v <= 0.005 for v in m_n_tv.values())

    disagree_ok = True
    for n in range(2, 9):
        tail = float(altcouplings.peak_tail_exact(n))
        disagree_ok = disagree_ok and coupling.within_bound(batch.disagree[n], batch.samples, tail)

    enum_ok = all(
        altcouplings.peak_tail_exact(n)
        <= Fraction(2 ** n, math.factorial(n + 1))
        for n in range(2, 11)
    )
    elapsed = time.monotonic() - t0
    ok = mallows_ok and rate_ok and m_ok and m_n_ok and disagree_ok and enum_ok
    assert verdict(
        9, ok,
        f"Mallows law == pi N<=12 ({mallows_ok}); N*P[S_N!=S_inf] within x3 "
        f"({[round(s, 3) for s in scaled]}); M-law TV={m_tv:.5f}<=0.005 "
        f"({m_ok}); M_N laws <=0.005 ({m_n_ok}); disagreement <= P[T>N]+3s "
        f"({disagree_ok}); enumerated tails within 2^N/(N+1)! for N<=10 "
        f"({enum_ok}); {elapsed:.0f}s",
    )


def test_criterion_10_asymptotic_rate():
    sharp_failures = []
    for n in range(4, 16):
        bracket_lo = exactdist.tv_bracket(n)[0]
        bracket_hi = bracket_lo + Fraction(2 ** (n + 3), math.factorial(n + 3))
        if not total_tv(n).certainly_within(bracket_lo, bracket_hi):
            sharp_failures.append(n)
    rates = {n: exactdist.log_rate(n) for n in range(10, 51)}
    values = [rates[n] for n in range(10, 51)]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    leading = {}
    residual = {}
    within = {}
    for n in (20, 30, 40, 50):
        ln_n = math.log(n)
        first = -1 + (1 + math.log(2)) / ln_n
        two_term = first + (
            math.log(2) - math.log(n + 1) - 0.5 * math.log(2 * math.pi * n)
        ) / (n * ln_n)
        leading[n] = abs(rates[n] - first)
        lower = math.log(n / (n + 2)) / (n * ln_n) - 1 / (12 * n * n * ln_n)
        upper = math.log((n * n + 3 * n + 4) / ((n + 2) * (n + 3))) / (n * ln_n)
        residual[n] = rates[n] - two_term
        within[n] = lower - 1e-9 <= residual[n] <= upper + 1e-9
    ok = not sharp_failures and decreasing and all(within.values())
    assert verdict(
        10, ok,
        "total TV inside [N/(N+2) B, N/(N+2) B + 2^{N+3}/(N+3)!] for N=4..15 "
        f"(failures={sharp_failures}); "
        f"log_rate strictly decreasing on 10..50 ({decreasing}); rate - T_N = "
        f"{ {n: f'{r:.5f}' for n, r in residual.items()} } inside the "
        f"rigorous two-term remainder ({within}); |rate - (-1+(1+ln2)/ln N)| = "
        f"{ {n: round(d, 4) for n, d in leading.items()} }; the limit -1 "
        "itself is certified only asymptotically",
    ), (
        "the total TV must lie inside the sharp bracket the remainder rests on; "
        "log_rate must decrease strictly on 10..50 and, at N = 20, 30, 40, 50, "
        "differ from the two-term expansion T_N by an amount inside the "
        "remainder bound derived in the module docstring"
    )

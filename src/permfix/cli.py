"""Command-line front end: reproducible runs, delimited outputs, verdicts.

Subcommands: exact, kernel, project, couple, alt, moments, all.  Every run
prints a report record (JSON) to stdout listing the emitted files and a
pass/fail/skipped-guard verdict per check, and exits nonzero iff any verdict
failed.  Data files contain no timestamps, so identical configuration and
seed give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import altcouplings, coupling, exactdist, kernels, lumping, moments
from .perms import EnumerationGuardError
from .rng import check_seed

PASS, FAIL, SKIP = "pass", "fail", "skipped-guard"


class ConfigError(ValueError):
    """A CLI configuration problem, reported with its field path."""


def _fmt(value: Any) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return value


def write_table(path: Path, rows: Sequence[Mapping[str, Any]], fmt: str) -> Path:
    """Write rows as CSV, JSON or JSON lines ("jsonl": one object per line,
    values as given); CSV takes its field order from the first row."""
    if fmt == "jsonl":
        path = path.with_suffix(".jsonl")
        path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        return path
    if fmt == "json":
        path = path.with_suffix(".json")
        payload = [{k: _fmt(v) for k, v in row.items()} for row in rows]
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return path
    path = path.with_suffix(".csv")
    with path.open("w", newline="") as fh:
        if not rows:
            return path
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    return path


def write_json(path: Path, payload: Any) -> Path:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


class Report:
    """One run's outputs and verdicts; its output directory is created at once."""

    def __init__(self, command: str, settings: Mapping[str, Any], out: str):
        self.command = command
        self.settings = dict(settings)
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []
        self.verdicts: dict[str, str] = {}
        self.t0 = time.monotonic()

    def emit(self, path: Path) -> None:
        self.outputs.append(str(path))

    def write_table(self, name: str, rows: Sequence[Mapping[str, Any]], fmt: str) -> None:
        self.emit(write_table(self.out / name, rows, fmt))

    def write_json(self, name: str, payload: Any) -> None:
        self.emit(write_json(self.out / name, payload))

    def verdict(self, name: str, ok: bool | str) -> None:
        self.verdicts[name] = ok if isinstance(ok, str) else (PASS if ok else FAIL)

    def finish(self) -> int:
        blob = json.dumps(self.settings, sort_keys=True, default=str).encode()
        record = {
            "command": self.command,
            "config_hash": hashlib.sha256(blob).hexdigest(),
            "seed": self.settings.get("seed"),
            "outputs": self.outputs,
            "wall_time_s": round(time.monotonic() - self.t0, 3),
            "verdicts": self.verdicts,
        }
        print(json.dumps(record, indent=1, sort_keys=True))
        return 1 if FAIL in self.verdicts.values() else 0


def parse_range(text: str) -> list[int]:
    """'4..15' or '7' -> list of N values."""
    lo, sep, hi = text.partition("..")
    try:
        ns = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        ns = []
    if not ns:
        raise ConfigError(f"n-range: expected N or a nonempty range like 4..15, got {text!r}")
    return ns


def require_n(N: int, minimum: int, field: str = "n") -> int:
    """N itself, or a ConfigError when it is below the subcommand's minimum."""
    if N < minimum:
        raise ConfigError(f"{field}: must be >= {minimum}, got {N}")
    return N


def require_seed(seed: int | None) -> int:
    """The seed (0 when unset), or a ConfigError when it lies outside [0, 2^64)."""
    try:
        return check_seed(seed or 0)
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_exact(args: argparse.Namespace) -> int:
    ns = parse_range(args.n)
    require_n(ns[0], 1)
    report = Report("exact", {"n": ns, "seed": None}, args.out)

    pi_rows, summary = [], []
    for N in ns:
        pi = exactdist.fixed_point_pmf(N)
        for x, w in pi.items():
            pi_rows.append({"N": N, "x": x, "num": w.numerator, "den": w.denominator})
        ref = exactdist.poisson_pmf(N)
        tv_half = exactdist.tv_distance(pi, ref, "half")
        tv_total = tv_half.scale(2)
        lower, upper = exactdist.tv_bracket(N)
        in_bracket = tv_total.certainly_within(lower, upper)
        report.verdict(f"tv_bracket_N{N}", in_bracket)
        row = {
            "N": N,
            "tv_half_lo": float(tv_half.lo),
            "tv_half_hi": float(tv_half.hi),
            "tv_total_lo": float(tv_total.lo),
            "tv_total_hi": float(tv_total.hi),
            "bracket_lower": lower,
            "bracket_upper": upper,
            "in_bracket": in_bracket,
        }
        row["log_rate"] = exactdist.log_rate_from_tv(N, tv_total) if N >= 4 else ""
        summary.append(row)
    report.write_table("pi_table", pi_rows, args.format)
    report.write_table("exact_summary", summary, args.format)
    return report.finish()


def cmd_kernel(args: argparse.Namespace) -> int:
    N = require_n(args.n, 4)
    report = Report("kernel", {"n": N, "seed": None}, args.out)

    p_closed = kernels.p_closedform(N)
    p_rec = kernels.p_recursion(N)
    try:
        p_brute = kernels.p_bruteforce(N)
        report.verdict("p_triple_agreement",
                       p_brute.values == p_closed.values == p_rec.values)
    except EnumerationGuardError:
        report.verdict("p_triple_agreement", SKIP)
        report.verdict("p_closed_equals_recursion", p_closed.values == p_rec.values)

    rows = []
    for x in kernels.state_space(N):
        margin = abs(2 * p_closed[x] - 1)
        rows.append({
            "x": x,
            "p": p_closed[x],
            "abs_2p_minus_1": margin,
            "prop41_bound": kernels.prop41_bound(N, x) if x <= N - 2 else "",
            "lemma_b1_bound": kernels.lemma_b1_bound(N, x) if x <= N - 2 else "",
        })
    report.write_table("p_table", rows, args.format)

    for label in kernels.KERNEL_LABELS:
        if N == 4 and label in kernels.RESTRICTED_LABELS:
            continue
        kern, law = kernels.reversible_pair(N, label)
        report.verdict(f"reversible_{label}", kernels.check_reversibility(kern, law).ok)
        report.write_json(f"kernel_{label}.json", kern.to_json_dict())
    return report.finish()


def cmd_project(args: argparse.Namespace) -> int:
    N = require_n(args.n, 2)
    report = Report("project", {"n": N, "seed": None}, args.out)
    try:
        chain = lumping.cycle_type_chain(N)
    except EnumerationGuardError:
        report.verdict("intertwining", SKIP)
        return report.finish()

    try:
        transfer = lumping.reversibility_transfer(chain)
        report.verdict("intertwining", True)
    except AssertionError:
        report.verdict("intertwining", False)
        return report.finish()
    result = transfer.projection

    # The projected walk reproduces the penta kernel's size-two entries
    # exactly; its size-one entries come out at exactly twice the penta
    # rates (the two kernels share the same reversible law and recursion).
    penta = kernels.build_penta(N, kernels.p_closedform(N))
    size_two_equal = True
    size_one_doubled = True
    for x in penta.states:
        for y in penta.states:
            if x == y:
                continue
            pe, pr = penta.entry(x, y), result.kernel.entry(x, y)
            if abs(x - y) == 2:
                size_two_equal = size_two_equal and pe == pr
            elif abs(x - y) == 1:
                size_one_doubled = size_one_doubled and pr == 2 * pe
            else:
                size_one_doubled = size_one_doubled and pr == 0
    report.verdict("projection_matches_penta_size_two", size_two_equal)
    report.verdict("projection_size_one_exactly_doubled", size_one_doubled)

    report.verdict("reversibility_transfer",
                   transfer.upstream_reversible and transfer.projected_reversible)

    dyn = lumping.dynkin_check(chain)
    dyn_rows = [
        {"from_block": str(v), "to_block": str(w), "dynkin": ok}
        for (v, w), ok in sorted(dyn.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
    ]
    report.write_table("dynkin", dyn_rows, args.format)
    report.write_json("projected_kernel.json", result.kernel.to_json_dict())
    report.write_json("partition.json", {str(t.counts): int(v) for t, v in chain.blocks.items()})
    return report.finish()


def _load_couple_config(args: argparse.Namespace) -> coupling.RunConfig:
    data: dict[str, Any] = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config: {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        data.update(raw)
    for key, flag in (("N", args.n), ("n", args.horizon), ("replicas", args.replicas),
                      ("seed", args.seed)):
        if flag is not None:
            data[key] = flag
    # each field's type and range is RunConfig's to check
    fields = {"N", "n", "replicas", "seed", "selector", "emit_traces", "start_mode", "checkpoints"}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"config.{sorted(unknown)[0]}: unknown field")
    for required in ("N", "n"):
        if required not in data:
            raise ConfigError(f"config.{required}: missing")
    try:
        return coupling.RunConfig(
            N=data["N"],
            horizon=data["n"],
            replicas=data.get("replicas", 1000),
            seed=data.get("seed", 0),
            selector=data.get("selector", "pcheck-r"),
            start_mode=data.get("start_mode", "shared"),
            emit_traces=data.get("emit_traces", False),
            checkpoints=data.get("checkpoints", ()),
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


def cmd_couple(args: argparse.Namespace) -> int:
    cfg = _load_couple_config(args)
    report = Report("couple", {
        "N": cfg.N, "n": cfg.horizon, "replicas": cfg.replicas, "seed": cfg.seed,
        "selector": cfg.selector, "start_mode": cfg.start_mode, "emit_traces": cfg.emit_traces,
        "checkpoints": list(cfg.checkpoints),
    }, args.out)

    stats = coupling.run_coupling(cfg)
    rows = []
    for n in cfg.checkpoints:
        agg = stats.by_time[n]
        for stat in coupling.STAT_NAMES:
            rows.append({
                "n": n, "stat": stat, "count": agg.counts[stat],
                "estimate": agg.estimate(stat), "sigma": agg.sigma(stat),
            })
    report.write_table("aggregates", rows, args.format)

    if cfg.emit_traces:
        report.write_table("traces", [
            {
                "steps": [list(s) for s in tr.steps], "final": list(tr.final),
                "tau": tr.tau, "tau0_x": tr.tau0_x, "tau0_y": tr.tau0_y,
                "z_incr": list(tr.z_incr), "ztilde_incr": list(tr.ztilde_incr),
                "zhat_incr": list(tr.zhat_incr),
            }
            for tr in stats.traces
        ], "jsonl")

    final = stats.final
    if cfg.selector == "r-r" and cfg.start_mode in ("shared", "copy_x"):
        report.verdict("identical_chains_agree", final.counts["neq"] == 0)

    n = cfg.horizon
    z_bound = float(Fraction(2 ** cfg.N * n, math.factorial(cfg.N)))
    zz_bound = float(Fraction(2 ** (cfg.N + 1) * n, math.factorial(cfg.N)))
    for name, stat, cap in (
        ("z_bound", "z_pos", z_bound),
        ("ztilde_bound", "ztilde_pos", zz_bound),
        ("zhat_bound", "zhat_pos", zz_bound),
    ):
        report.verdict(name, coupling.within_bound(final.counts[stat], final.replicas, cap))
    tail_sum = sum(final.estimate(s) for s in ("tau0x_gt", "tau0y_gt", "ztilde_pos", "zhat_pos"))
    slack = 4 * 3 * max(final.sigma(s) for s in coupling.STAT_NAMES)
    report.verdict("tails_decomposition", final.estimate("tau_gt") <= tail_sum + slack)

    mono_rows = []
    for label in ("R", "R_tilde"):
        kern, _ = kernels.reversible_pair(cfg.N, label)
        cert = coupling.monotonicity_certificate(kern)
        report.verdict(f"monotone_{kern.label}", cert.ok)
        mono_rows += [{"kernel": kern.label, "x": x, "margin": m} for x, m in cert.margins]
    report.write_table("monotonicity", mono_rows, args.format)

    exact_tv = float(exactdist.tv_distance(
        exactdist.pi_conditioned(cfg.N), exactdist.zeta_law(cfg.N), "half"
    ))
    # the run's horizon with its estimates, then both horizon readings
    bound_rows = []
    for rule, n, estimates in (
        ("run", cfg.horizon, final),
        ("N^4 ln N / c", coupling.suggested_horizon(cfg.N, exponent=4), None),
        ("N ln N / c", coupling.suggested_horizon(cfg.N, exponent=1), None),
    ):
        bound = coupling.assemble_tv_bound(cfg.N, n, estimates=estimates)
        bound_rows.append({
            "horizon_rule": rule,
            "N": bound.N, "n": bound.n, "c_hat": bound.c_hat,
            "analytic_bound": bound.analytic_bound,
            "empirical_bound": bound.empirical_bound,
            "exact_tv_pi_check_zeta": exact_tv,
        })
    report.verdict("drift_positive", bound_rows[0]["c_hat"] > 0)
    report.write_table("tv_bound", bound_rows, args.format)
    return report.finish()


def cmd_alt(args: argparse.Namespace) -> int:
    seed = require_seed(args.seed)
    samples = 100_000 if args.replicas is None else require_n(args.replicas, 1, "replicas")
    report = Report("alt", {"seed": seed, "samples": samples}, args.out)

    equal = all(
        altcouplings.mallows_exact_pmf(N) == exactdist.fixed_point_pmf(N) for N in range(1, 13)
    )
    report.verdict("mallows_pmf_equals_pi", equal)

    disc_rows = []
    for N in (10, 20, 40, 80):
        d = altcouplings.mallows_discrepancy(N, replicas=samples, K=2 * N, seed=seed)
        disc_rows.append({
            "N": N, "K": d.K, "estimate": d.estimate, "sigma": d.sigma,
            "N_times_estimate": N * d.estimate, "tail_bound": d.tail_bound,
        })
    scaled = [row["N_times_estimate"] for row in disc_rows]
    report.verdict("mallows_rate_stable", max(scaled) <= 3 * min(scaled))
    report.write_table("mallows_discrepancy", disc_rows, args.format)

    tails = {N: altcouplings.peak_tail_exact(N) for N in range(2, 9)}
    ns = (4, 6, 8)
    batch = altcouplings.ascent_peak_batch(samples, seed, ns=ns)
    tol = 3 * math.sqrt(20 / batch.samples)
    poisson_like = exactdist.poisson_truncated(40)  # the tail beyond 40 is negligible
    m_tv = altcouplings.empirical_half_tv(batch.m_counts, batch.samples, poisson_like)
    report.verdict("m_law_close_to_poisson", m_tv <= tol)
    rows = [{"law": "M", "half_tv": m_tv, "tolerance": tol, "samples": batch.samples,
             "ties": batch.ties}]
    for N in ns:
        tv_n = altcouplings.empirical_half_tv(
            batch.m_n_counts[N], batch.samples, exactdist.fixed_point_pmf(N)
        )
        report.verdict(f"m{N}_law_close_to_pi", tv_n <= tol)
        report.verdict(f"disagree_bound_N{N}",
                       coupling.within_bound(batch.disagree[N], batch.samples, float(tails[N])))
        rows.append({"law": f"M_{N}", "half_tv": tv_n, "tolerance": tol,
                     "samples": batch.samples, "ties": batch.ties})
    report.write_table("ascent_peak", rows, args.format)

    tail_rows = []
    for N, exact_tail in tails.items():
        bound = Fraction(2 ** N, math.factorial(N + 1))
        tail_rows.append({"N": N, "p_T_gt_N": exact_tail, "bound": bound,
                          "ratio": float(exact_tail / bound)})
    report.verdict("peak_tail_bound", all(r["ratio"] <= 1 for r in tail_rows))
    report.write_table("peak_tail", tail_rows, args.format)
    return report.finish()


def cmd_moments(args: argparse.Namespace) -> int:
    N = require_n(args.n, 4)
    report = Report("moments", {"n": N, "seed": None}, args.out)

    report.verdict("falling_moments_one",
                   all(moments.falling_moment(N, k) == 1 for k in range(N + 1)))
    rows = []
    ok_raw = True
    for k in range(N + 2):
        m, bell, eq = moments.raw_moment_equality(N, k)
        rows.append({"k": k, "moment": m, "bell": bell, "equal": eq})
        ok_raw = ok_raw and (eq == (k <= N))
    report.verdict("raw_moments_match_bell", ok_raw)
    report.write_table("moments", rows, args.format)

    g_closed = moments.gram(N)
    try:
        report.verdict("gram_matches_oracle", g_closed.entries == moments.gram_bruteforce(N).entries)
    except EnumerationGuardError:
        report.verdict("gram_matches_oracle", SKIP)

    gram_rows = [
        {"k": k, "l": l, "value": g_closed.entry(k, l)}
        for k in g_closed.indices for l in g_closed.indices
    ]
    report.write_table("gram", gram_rows, args.format)

    try:
        systems = moments.coefficient_systems(N)
        report.verdict("coefficients_reconstruct_2p", True)
        coeff_rows = [
            {"k": k, "a": a, "b": b, "c": c}
            for k, a, b, c in zip(systems.indices, systems.a, systems.b, systems.c)
        ]
        coeff_rows.append({
            "k": "needed_functional",
            "a": float(systems.needed_functional.lo),
            "b": float(systems.needed_functional.hi),
            "c": "",
        })
        report.write_table("coefficients", coeff_rows, args.format)
    except AssertionError:
        report.verdict("coefficients_reconstruct_2p", False)
    return report.finish()


def cmd_all(args: argparse.Namespace) -> int:
    base = Path(args.out)
    runs = {}
    for name, fn, overrides in (
        ("exact", cmd_exact, {"n": "4..12"}),
        ("kernel", cmd_kernel, {"n": 8}),
        ("project", cmd_project, {"n": 6}),
        ("couple", cmd_couple, {"n": 8, "horizon": 2000, "replicas": 2000}),
        ("alt", cmd_alt, {"replicas": 20000}),
        ("moments", cmd_moments, {"n": 7}),
    ):
        sub = argparse.Namespace(**vars(args))
        sub.out = str(base / name)
        for key, val in overrides.items():
            setattr(sub, key, val)
        runs[name] = (fn, sub)
    # --seed and --config are checked before any subcommand writes its outputs
    require_seed(args.seed)
    _load_couple_config(runs["couple"][1])
    failures = 0
    for fn, sub in runs.values():
        failures += fn(sub)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permfix",
        description="Exact and simulated analysis of the fixed-point law of a "
                    "random permutation against Poisson(1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("exact", help="exact laws, distances and bounds")
    p.add_argument("--n", "--n-range", dest="n", required=True,
                   help="N or a range like 4..15")
    common(p)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("kernel", help="build and verify all kernels at one N")
    p.add_argument("--n", type=int, required=True, help="N >= 4")
    common(p)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("project", help="cycle-type chain and its projection")
    p.add_argument("--n", type=int, required=True, help="N >= 2")
    common(p)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("couple", help="monotone coupling simulation")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--n", type=int, default=None, help="N override")
    p.add_argument("--horizon", type=int, default=None, help="horizon override")
    p.add_argument("--replicas", type=int, default=None, help="replica count override")
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("alt", help="Mallows and ascent/peak couplings")
    p.add_argument("--replicas", type=int, default=None, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_alt)

    p = sub.add_parser("moments", help="falling moments, Bell numbers, Gram")
    p.add_argument("--n", type=int, required=True, help="N >= 4")
    common(p)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("all", help="run every subcommand with small defaults")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_all)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: what each pass runs and how it is checked.

A workload is built in two steps.  The constructor builds its inputs (the
run configurations, the seed-shuffled order of N values, the output
directories); that is part of the measured set-up time.  `run` then times
each item, one call or group of calls into permfix, and keeps the outputs.
`check` runs after the timed region and records one verdict per correctness
check, returning digests that let two passes with the same seed be compared.

Each item carries a count of work units and a flag marking the item at the
workload's largest N, from which the end-to-end metrics are derived:

* ``mc-coupling``: a unit is one replica-step of `run_coupling`; the
  largest-N item is the N=30 `run_coupling` call, where an engine change
  that scales with the chain's state space shows.
* ``exact-sweep``: a unit is one N whose full certificate set completed;
  the largest-N item is the N=200 certificate set.
* ``enumerate``: a unit is one permutation or ordering enumerated, computed
  from N! (or (N+1)! orderings for `peak_tail_exact`); the largest-N item is
  `cycle_type_chain(7)`, the largest chain built (a walk on 5040 states).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from permfix import altcouplings, cli, coupling, exactdist, kernels, lumping, moments
from run import tree_digest

SIZES = {
    "full": {
        "mc-coupling": {
            "n8_replicas": 1 << 14,
            "n8_horizon": 2000,
            "n8_checkpoints": (200, 1000),
            "n30_replicas": 1 << 15,
            "n30_horizon": 1000,
            "ascent_samples": 10 ** 6,
            "mallows_replicas": 10 ** 5,
        },
        "exact-sweep": {
            "drift_r": tuple(range(10, 201, 10)),
            "drift_r_tilde": (10, 20, 50, 100, 150, 200),
            "log_rate": tuple(range(10, 51)) + (100, 150, 200),
            "p_routes": tuple(range(10, 201, 10)),
            "kernels": (50, 100, 200),
            "cli_exact": "4..30",
            "cli_kernel": "30",
        },
        "enumerate": {
            "cycle_type": 7,
            "permutation_chain": 6,
            "walk": 6,
            "p_bruteforce": 8,
            "gram": 7,
            "peak_tail": 9,
            "cli_project": "7",
        },
    },
    "tiny": {
        "mc-coupling": {
            "n8_replicas": 512,
            "n8_horizon": 100,
            "n8_checkpoints": (10, 50),
            "n30_replicas": (1 << 14) + 256,
            "n30_horizon": 10,
            "ascent_samples": 20_000,
            "mallows_replicas": 20_000,
        },
        "exact-sweep": {
            "drift_r": (10, 15, 20),
            "drift_r_tilde": (10, 20),
            "log_rate": (10, 11, 12, 13, 14, 20),
            "p_routes": (10, 15, 20),
            "kernels": (10, 12),
            "cli_exact": "4..8",
            "cli_kernel": "9",
        },
        "enumerate": {
            "cycle_type": 5,
            "permutation_chain": 4,
            "walk": 4,
            "p_bruteforce": 6,
            "gram": 5,
            "peak_tail": 6,
            "cli_project": "5",
        },
    },
}


class Item(NamedTuple):
    """One timed call or group of calls into permfix."""

    name: str
    fn: Callable[[], object]
    units: float = 0
    max_n: bool = False


class Checks:
    """Verdicts of one pass, in the order they were made."""

    def __init__(self) -> None:
        self.verdicts: list[tuple[str, bool]] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.verdicts.append((name, bool(ok)))


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def run_cli(argv: list[str]) -> int:
    """cli.main in-process, with its report record kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """Inputs, timed items and checks of one workload at one scale."""

    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.size = SIZES[scale][self.name]
        self.workdir = workdir
        self.items: list[Item] = []
        self.out: dict[str, object] = {}

    def run(self, clock: Callable[[], float]) -> list[dict]:
        """Run every item in order, keeping its output under its name and its
        start and end on clock."""
        timings = []
        for item in self.items:
            start = clock()
            self.out[item.name] = item.fn()
            timings.append({"name": item.name, "start": start, "end": clock(),
                            "units": item.units, "max_n": item.max_n})
        return timings

    def check(self, check: Checks) -> dict[str, str]:
        raise NotImplementedError


def _stream_seed(seed: int, label: str) -> int:
    """A 64-bit stream seed for one engine call, derived from the run's seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8], "little")


class McCoupling(Workload):
    """The Monte Carlo half: narrow-long coupling runs and wide-short batches."""

    name = "mc-coupling"

    def __init__(self, seed: int, scale: str, workdir: Path):
        super().__init__(seed, scale, workdir)
        s = self.size
        self.configs = {
            "pcheck-r": coupling.RunConfig(
                N=8, horizon=s["n8_horizon"], replicas=s["n8_replicas"],
                seed=_stream_seed(seed, "pcheck-r"), selector="pcheck-r",
                checkpoints=s["n8_checkpoints"],
            ),
            "r-r": coupling.RunConfig(
                N=8, horizon=s["n8_horizon"], replicas=s["n8_replicas"],
                seed=_stream_seed(seed, "r-r"), selector="r-r",
            ),
            "pcheck-rtilde": coupling.RunConfig(
                N=30, horizon=s["n30_horizon"], replicas=s["n30_replicas"],
                seed=_stream_seed(seed, "pcheck-rtilde"), selector="pcheck-rtilde",
            ),
        }
        top_n = max(cfg.N for cfg in self.configs.values())
        for label, cfg in self.configs.items():
            self.items.append(Item(
                f"run_coupling {label}", lambda cfg=cfg: coupling.run_coupling(cfg),
                units=cfg.replicas * cfg.horizon, max_n=cfg.N == top_n,
            ))
        self.ascent_ns = tuple(range(2, 9))
        self.items.append(Item(
            "ascent_peak_batch",
            lambda: altcouplings.ascent_peak_batch(
                s["ascent_samples"], _stream_seed(seed, "ascent"), ns=self.ascent_ns
            ),
        ))
        self.mallows_ns = (10, 20, 40, 80)
        for N in self.mallows_ns:
            self.items.append(Item(
                f"mallows_discrepancy N={N}",
                lambda N=N: altcouplings.mallows_discrepancy(
                    N, replicas=s["mallows_replicas"], K=2 * N, seed=_stream_seed(seed, "mallows")
                ),
            ))

    def check(self, check: Checks) -> dict[str, str]:
        digests = {}
        for label, cfg in self.configs.items():
            stats = self.out[f"run_coupling {label}"]
            final = stats.final
            digests[label] = _digest({n: dict(a.counts) for n, a in stats.by_time.items()})
            # criterion 7: the tails decomposition holds pathwise for every selector
            tail_sum = sum(final.estimate(s) for s in ("tau0x_gt", "tau0y_gt", "ztilde_pos", "zhat_pos"))
            slack = 4 * 3 * max(final.sigma(s) for s in coupling.STAT_NAMES)
            check(f"{label}: tails decomposition", final.estimate("tau_gt") <= tail_sum + slack)
        rr = self.out["run_coupling r-r"].final
        check("r-r: disagreement count is 0", rr.counts["neq"] == 0)

        cfg = self.configs["pcheck-r"]
        final = self.out["run_coupling pcheck-r"].final
        n, N = cfg.horizon, cfg.N
        z_cap = float(Fraction(2 ** N * n, math.factorial(N)))
        zz_cap = float(Fraction(2 ** (N + 1) * n, math.factorial(N)))
        check("pcheck-r: Z bound", final.estimate("z_pos") <= z_cap + 3 * final.sigma("z_pos"))
        check("pcheck-r: Z~ bound", final.estimate("ztilde_pos") <= zz_cap + 3 * final.sigma("ztilde_pos"))
        check("pcheck-r: Z^ bound", final.estimate("zhat_pos") <= zz_cap + 3 * final.sigma("zhat_pos"))

        batch = self.out["ascent_peak_batch"]
        digests["ascent_peak_batch"] = _digest(
            [batch.samples, batch.ties, batch.m_counts, batch.m_n_counts, batch.disagree]
        )
        # criterion 9 allows 0.005 at 1e6 samples; the tolerance scales as 1/sqrt(samples)
        tol = 0.005 * math.sqrt(10 ** 6 / batch.samples)
        m_tv = altcouplings.empirical_half_tv(batch.m_counts, batch.samples, exactdist.poisson_truncated(40))
        check("ascent/peak: M half-TV to Poisson(1)", m_tv <= tol)
        for N in self.ascent_ns:
            tv = altcouplings.empirical_half_tv(batch.m_n_counts[N], batch.samples, exactdist.fixed_point_pmf(N))
            check(f"ascent/peak: M_{N} half-TV to pi_{N}", tv <= tol)
            rate = batch.disagree_rate(N)
            sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / batch.samples)
            check(f"ascent/peak: P[M != M_{N}] <= P[T > {N}] + 3 sigma",
                  rate <= float(altcouplings.peak_tail_exact(N)) + 3 * sigma)

        scaled = [N * self.out[f"mallows_discrepancy N={N}"].estimate for N in self.mallows_ns]
        digests["mallows"] = _digest(scaled)
        check("mallows: N * P[S_N != S_inf] within a factor 3", 0 < min(scaled) and max(scaled) <= 3 * min(scaled))
        return digests


class ExactSweep(Workload):
    """The exact rational core at growing N, each N visited by several routes."""

    name = "exact-sweep"

    def __init__(self, seed: int, scale: str, workdir: Path):
        super().__init__(seed, scale, workdir)
        s = self.size
        ns = sorted(set(s["drift_r"]) | set(s["drift_r_tilde"]) | set(s["log_rate"])
                    | set(s["p_routes"]) | set(s["kernels"]))
        # the seed only shuffles the visiting order; the work is the same
        random.Random(seed).shuffle(ns)
        for N in ns:
            self.items.append(Item(f"N={N}", lambda N=N: self.certify(N), units=1, max_n=N == max(ns)))
        self.cli_runs = {
            "exact": ["exact", "--n", s["cli_exact"]],
            "kernel": ["kernel", "--n", s["cli_kernel"]],
        }
        for label, argv in self.cli_runs.items():
            out = workdir / f"cli-{label}"
            self.items.append(Item(f"cli {label}", lambda argv=argv, out=out: run_cli(argv + ["--out", str(out)])))

    def certify(self, N: int) -> dict:
        """Every certificate the sweep asks of one N."""
        s = self.size
        got: dict = {}
        if N in s["drift_r"]:
            got["drift_R"] = coupling.drift_certificate(N, "R")
        if N in s["drift_r_tilde"]:
            got["drift_R_tilde"] = coupling.drift_certificate(N, "R_tilde")
        if N in s["log_rate"]:
            got["log_rate"] = exactdist.log_rate(N)
            digits = max(50, math.ceil(N * math.log10(N)) + 20)
            got["tv_total"] = exactdist.tv_distance(
                exactdist.fixed_point_pmf(N), exactdist.poisson_pmf(N, digits=digits), "total"
            )
        if N in s["p_routes"]:
            got["p_routes"] = (kernels.p_closedform(N), kernels.p_recursion(N))
        if N in s["kernels"]:
            got["reversibility"] = self.all_kernels(N)
        return got

    @staticmethod
    def all_kernels(N: int) -> dict:
        """Every kernel builder at N, each checked for reversibility against its law."""
        p = kernels.p_closedform(N)
        pi = exactdist.fixed_point_pmf(N)
        p_check, r, r_tilde = kernels.build_restricted(N)
        built = {
            "P": (kernels.build_penta(N, p), pi),
            "P_tilde": (kernels.build_tridiag_tilde(N, p), pi),
            "P_hat": (kernels.build_hat(N), kernels.hat_stationary(N)),
            "P_check": (p_check, exactdist.pi_conditioned(N)),
            "R": (r, exactdist.zeta_law(N)),
            "R_tilde": (r_tilde, kernels.birth_death_stationary(r_tilde)),
            "P_bar": (kernels.poisson_reversible_penta(N), kernels.poisson_box_law(N)),
        }
        return {name: kernels.check_reversibility(k, law) for name, (k, law) in built.items()}

    def check(self, check: Checks) -> dict[str, str]:
        rates = {}
        for item in self.items:
            if not item.name.startswith("N="):
                continue
            N = int(item.name[2:])
            got = self.out[item.name]
            for which in ("drift_R", "drift_R_tilde"):
                if which in got:
                    check(f"N={N}: {which} c_est > 0", got[which].c_est > 0)
            if "tv_total" in got:
                lower, upper = exactdist.tv_bracket(N)
                check(f"N={N}: total TV inside tv_bracket", got["tv_total"].certainly_within(lower, upper))
                rates[N] = got["log_rate"]
            if "p_routes" in got:
                closed, rec = got["p_routes"]
                check(f"N={N}: p closed form equals p recursion", closed.values == rec.values)
            for name, report in got.get("reversibility", {}).items():
                check(f"N={N}: {name} reversible", report.ok)
        # criterion 10 in its verified form: the rate decreases strictly
        # (its 0.05 window around the asymptote is red by design)
        ordered = [rates[N] for N in sorted(rates)]
        check("log_rate strictly decreasing in N", all(a > b for a, b in zip(ordered, ordered[1:])))

        digests = {}
        for label, argv in self.cli_runs.items():
            check(f"cli {label}: exit code 0", self.out[f"cli {label}"] == 0)
            first = self.workdir / f"cli-{label}"
            again = self.workdir / f"cli-{label}-again"
            run_cli(argv + ["--out", str(again)])
            digests[f"cli {label}"] = tree_digest(first)
            check(f"cli {label}: output tree byte-identical on a second run", tree_digest(again) == digests[f"cli {label}"])
        return digests


class Enumerate(Workload):
    """Brute-force symmetric-group routes: many tuple states, each N once."""

    name = "enumerate"

    def __init__(self, seed: int, scale: str, workdir: Path):
        super().__init__(seed, scale, workdir)
        s = self.size
        f = math.factorial
        ct, pc, walk = s["cycle_type"], s["permutation_chain"], s["walk"]
        self.items = [
            Item(f"cycle_type_chain({ct})", lambda: lumping.cycle_type_chain(ct), units=f(ct), max_n=True),
            Item(f"project/dynkin/transfer({ct})", self.project_cycle_types),
            Item(f"project(permutation_chain({pc}))",
                 lambda: lumping.project(lumping.permutation_chain(pc)), units=2 * f(pc)),
            Item(f"check_reversibility(transposition_walk({walk}))",
                 lambda: kernels.check_reversibility(
                     lumping.transposition_walk(walk), lumping.uniform_on_permutations(walk)),
                 units=2 * f(walk)),
            Item(f"p_bruteforce({s['p_bruteforce']})",
                 lambda: kernels.p_bruteforce(s["p_bruteforce"]), units=f(s["p_bruteforce"])),
            Item(f"gram_bruteforce({s['gram']})",
                 lambda: moments.gram_bruteforce(s["gram"]), units=f(s["gram"])),
            Item(f"peak_tail_exact({s['peak_tail']})",
                 lambda: altcouplings.peak_tail_exact(s["peak_tail"]),
                 units=f(s["peak_tail"] + 1)),
            Item(f"cli project --n {s['cli_project']}",
                 lambda: run_cli(["project", "--n", s["cli_project"], "--out", str(workdir / "cli-project")]),
                 units=f(int(s["cli_project"]))),
        ]

    def project_cycle_types(self):
        chain = self.out[self.items[0].name]
        return (lumping.project(chain), lumping.dynkin_check(chain), lumping.reversibility_transfer(chain))

    def check(self, check: Checks) -> dict[str, str]:
        s = self.size
        ct = s["cycle_type"]
        check(f"cycle_type_chain({ct}) completed its own cross-check",
              isinstance(self.out[f"cycle_type_chain({ct})"], lumping.PartitionedChain))
        projected, dynkin, transfer = self.out[f"project/dynkin/transfer({ct})"]
        check(f"N={ct}: reversibility transfers to the projection",
              transfer.upstream_reversible and transfer.projected_reversible)
        # criterion 3 in its verified form (literal equality is red by design)
        penta = kernels.build_penta(ct, kernels.p_closedform(ct))
        doubled = equal = True
        for x in penta.states:
            for y in penta.states:
                pe, pr = penta.entry(x, y), projected.kernel.entry(x, y)
                if abs(x - y) == 1:
                    doubled = doubled and pr == 2 * pe
                elif abs(x - y) == 2:
                    equal = equal and pr == pe
        check(f"N={ct}: projection size-one rates exactly double the penta kernel's", doubled)
        check(f"N={ct}: projection size-two rates equal the penta kernel's", equal)

        pc = s["permutation_chain"]
        lumped = self.out[f"project(permutation_chain({pc}))"].kernel
        reference = lumping.cycle_type_chain(pc).kernel
        check(f"N={pc}: projected walk equals the cycle-type chain",
              set(lumped.states) == set(reference.states)
              and all(dict(lumped.row(v)) == dict(reference.row(v)) for v in reference.states))

        walk = s["walk"]
        check(f"N={walk}: transposition walk reversible for the uniform law",
              self.out[f"check_reversibility(transposition_walk({walk}))"].ok)
        n = s["p_bruteforce"]
        check(f"N={n}: p brute force equals p closed form",
              self.out[f"p_bruteforce({n})"].values == kernels.p_closedform(n).values)
        n = s["gram"]
        check(f"N={n}: Gram brute force equals its closed form",
              self.out[f"gram_bruteforce({n})"].entries == moments.gram(n).entries)
        n = s["peak_tail"]
        check(f"N={n}: peak tail at most 2^N/(N+1)!",
              self.out[f"peak_tail_exact({n})"] <= Fraction(2 ** n, math.factorial(n + 1)))
        check("cli project: exit code 0", self.out[f"cli project --n {s['cli_project']}"] == 0)
        return {
            "dynkin_failing_pairs": str(sum(not ok for ok in dynkin.values())),
            "cli project": tree_digest(self.workdir / "cli-project"),
        }


WORKLOADS = {w.name: w for w in (McCoupling, ExactSweep, Enumerate)}

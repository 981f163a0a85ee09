"""End-to-end runs of the command-line interface."""
import csv
import hashlib
import json

import pytest

from permfix import cli, exactdist
from permfix.cli import FAIL, ConfigError, build_parser, main, parse_range, write_table
from permfix.kernels import StochasticKernel
from test_exactdist import series_exp_interval
from test_kernels import json_from_entries


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_range():
    assert parse_range("4..7") == [4, 5, 6, 7]
    assert parse_range("9") == [9]


@pytest.mark.parametrize("text", ["4..", "..4", "abc", "4..x", "", "7..5"])
def test_parse_range_rejects_bad_input(text):
    with pytest.raises(ConfigError, match="n-range"):
        parse_range(text)


@pytest.mark.parametrize("argv", [
    ["exact", "--n", "4.."],
    ["exact", "--n", "abc"],
    ["exact", "--n", "0..3"],
    ["kernel", "--n", "1"],
    ["kernel", "--n", "3"],
    ["project", "--n", "1"],
    ["moments", "--n", "3"],
    ["couple", "--n", "4", "--horizon", "10"],
    ["couple", "--n", "8", "--horizon", "10", "--replicas", "0"],
    ["couple", "--n", "8", "--horizon", "-1"],
])
def test_bad_n_is_a_configuration_error(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["kernel", "--n", "x"],
    ["project", "--n", "2.5"],
    ["moments", "--n", ""],
    ["couple", "--n", "8", "--horizon", "ten"],
    ["alt", "--replicas", "1e5"],
    ["couple", "--n", "8", "--horizon", "10", "--seed", "s"],
])
def test_non_integer_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exact", "--n", "4", "--seed", "1"],
    ["kernel", "--n", "6", "--seed", "1"],
    ["project", "--n", "4", "--seed", "1"],
    ["moments", "--n", "5", "--seed", "1"],
    ["kernel", "--n", "6", "--digits", "60"],
    ["project", "--n", "4", "--digits", "60"],
    ["couple", "--n", "8", "--horizon", "10", "--digits", "60"],
    ["alt", "--digits", "60"],
    ["moments", "--n", "5", "--digits", "60"],
    ["exact", "--n", "4", "--digits", "60"],
    ["all", "--digits", "60"],
    ["all", "--n", "8"],
    ["all", "--horizon", "10"],
    ["all", "--replicas", "10"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel", "--n", "4"],
    ["project", "--n", "2"],
    ["moments", "--n", "4"],
])
def test_smallest_accepted_n(argv, tmp_path, capsys):
    code, report = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    assert FAIL not in report["verdicts"].values()


def test_exact_command(tmp_path, capsys):
    code, report = run_cli(capsys, "exact", "--n", "4..6", "--out", str(tmp_path))
    assert code == 0
    assert report["verdicts"]["tv_bracket_N4"] == "pass"
    table = (tmp_path / "pi_table.csv").read_text().splitlines()
    assert table[0] == "N,x,num,den"
    assert "4,0,3,8" in table


def test_exact_command_smallest_n(tmp_path, capsys):
    code, report = run_cli(capsys, "exact", "--n", "1..3", "--out", str(tmp_path))
    assert code == 0
    assert set(report["verdicts"]) == {"tv_bracket_N1", "tv_bracket_N2", "tv_bracket_N3"}


def test_exact_high_precision_log_rate_row(tmp_path, capsys):
    code, report = run_cli(
        capsys, "exact", "--n", "30", "--out", str(tmp_path)
    )
    assert code == 0
    header, row = (tmp_path / "exact_summary.csv").read_text().splitlines()
    rate = dict(zip(header.split(","), row.split(",")))["log_rate"]
    assert abs(float(rate) - (-0.5553474730683111)) < 1e-9


def test_exact_resolves_every_bracket_from_n45_to_n60(tmp_path, capsys):
    code, report = run_cli(capsys, "exact", "--n", "45..60", "--out", str(tmp_path))
    assert code == 0
    assert report["verdicts"] == {f"tv_bracket_N{n}": "pass" for n in range(45, 61)}


def test_exact_n100_log_rate(tmp_path, capsys):
    code, report = run_cli(capsys, "exact", "--n", "100", "--out", str(tmp_path))
    assert code == 0
    header, row = (tmp_path / "exact_summary.csv").read_text().splitlines()
    rate = float(dict(zip(header.split(","), row.split(",")))["log_rate"])
    assert -1 < rate < 0


def test_exact_files_match_frozen_digests(tmp_path, capsys):
    # sha256 of both data files of `exact --n 1..60`; any change to a weight,
    # a TV endpoint, a bracket or a log rate changes a digest
    golden = {
        "pi_table.csv": "5de5f520de4f9dd032a0cfdf8bd2cb78553686d3bf1c4c2356efe1c0ea28adc2",
        "exact_summary.csv": "71fa6ba2b47b3cc27bf423f7f69619745034d501887638534356daa1c284481b",
    }
    code, _ = run_cli(capsys, "exact", "--n", "1..60", "--out", str(tmp_path))
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden


def test_exact_computes_one_tv_per_n(tmp_path, capsys, monkeypatch):
    # the log rate is read off the TV the row already holds
    calls = []
    real = exactdist.tv_distance

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exactdist, "tv_distance", counted)
    code, _ = run_cli(capsys, "exact", "--n", "3..12", "--out", str(tmp_path))
    assert code == 0
    assert len(calls) == 10
    monkeypatch.undo()
    with (tmp_path / "exact_summary.csv").open() as fh:
        rates = {int(row["N"]): row["log_rate"] for row in csv.DictReader(fh)}
    assert rates[3] == ""
    assert all(float(rates[N]) == exactdist.log_rate(N) for N in range(4, 13))


def test_exact_json_format(tmp_path, capsys):
    code, report = run_cli(
        capsys, "exact", "--n", "4", "--out", str(tmp_path), "--format", "json"
    )
    assert code == 0
    rows = json.loads((tmp_path / "pi_table.json").read_text())
    assert {"N": 4, "x": 0, "num": 3, "den": 8} in rows


def test_kernel_command(tmp_path, capsys):
    code, report = run_cli(capsys, "kernel", "--n", "6", "--out", str(tmp_path))
    assert code == 0
    assert report["verdicts"]["p_triple_agreement"] == "pass"
    assert report["verdicts"]["reversible_P"] == "pass"
    kernel = json.loads((tmp_path / "kernel_P.json").read_text())
    assert kernel["label"] == "P"
    assert kernel["states"] == [0, 1, 2, 3, 4, 6]


@pytest.mark.parametrize("n, labels", [
    (4, ("P", "P_tilde", "P_hat", "P_bar")),
    (5, ("P", "P_tilde", "P_hat", "P_check", "R", "R_tilde", "P_bar")),
])
def test_kernel_files_in_catalogue_order(n, labels, tmp_path, capsys):
    # the restricted kernels P_check, R, R_tilde need N >= 5
    code, report = run_cli(capsys, "kernel", "--n", str(n), "--out", str(tmp_path))
    assert code == 0
    kernel_files = [str(tmp_path / f"kernel_{label}.json") for label in labels]
    assert report["outputs"] == [str(tmp_path / "p_table.csv")] + kernel_files
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["p_table.csv"] + [f"kernel_{label}.json" for label in labels]
    )
    reversible = {name for name in report["verdicts"] if name.startswith("reversible_")}
    assert reversible == {f"reversible_{label}" for label in labels}


def test_kernel_guard_skip(tmp_path, capsys):
    code, report = run_cli(capsys, "kernel", "--n", "9", "--out", str(tmp_path))
    assert code == 0
    assert report["verdicts"]["p_triple_agreement"] == "skipped-guard"
    assert report["verdicts"]["p_closed_equals_recursion"] == "pass"


@pytest.mark.parametrize("argv", [
    ["kernel", "--n", "30"],
    ["kernel", "--n", "50"],
    ["exact", "--n", "4..30"],
], ids=["kernel-30", "kernel-50", "exact-4..30"])
def test_files_equal_the_reference_routes(argv, tmp_path, capsys, monkeypatch):
    # the same files when every kernel's JSON is built from `entry()` and
    # e^x is enclosed one `Fraction` term at a time, so the reduction of
    # large denominators is pinned beyond the frozen digests' N
    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert main(argv + ["--out", str(tmp_path / "fast")]) == 0
    with monkeypatch.context() as m:
        m.setattr(StochasticKernel, "to_json_dict", json_from_entries)
        m.setattr(exactdist, "exp_interval", series_exp_interval)
        exactdist.inv_e_interval.cache_clear()
        assert main(argv + ["--out", str(tmp_path / "reference")]) == 0
    exactdist.inv_e_interval.cache_clear()
    capsys.readouterr()
    fast = tree(tmp_path / "fast")
    assert len(fast) == (8 if argv[0] == "kernel" else 2)
    assert fast == tree(tmp_path / "reference")


def test_project_command(tmp_path, capsys):
    code, report = run_cli(capsys, "project", "--n", "6", "--out", str(tmp_path))
    assert code == 0
    assert report["verdicts"]["intertwining"] == "pass"
    assert report["verdicts"]["projection_matches_penta_size_two"] == "pass"
    assert report["verdicts"]["projection_size_one_exactly_doubled"] == "pass"


def test_couple_command_with_config(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "N": 8, "n": 400, "replicas": 250, "seed": 12, "selector": "r-r",
    }))
    code, report = run_cli(
        capsys, "couple", "--config", str(config), "--out", str(tmp_path / "run")
    )
    assert code == 0
    assert report["verdicts"]["identical_chains_agree"] == "pass"
    assert report["verdicts"]["drift_positive"] == "pass"
    agg = (tmp_path / "run" / "aggregates.csv").read_text()
    assert "neq" in agg


def test_couple_outputs_deterministic(tmp_path, capsys):
    args = ("couple", "--n", "8", "--horizon", "300", "--replicas", "200",
            "--seed", "5")
    run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    for name in ("aggregates.csv", "monotonicity.csv", "tv_bound.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_all_outputs_deterministic(tmp_path, capsys):
    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    for name in ("a", "b"):
        assert main(["all", "--seed", "1", "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    first = tree(tmp_path / "a")
    assert len(first) == 22
    assert first == tree(tmp_path / "b")


def test_all_files_match_frozen_digests(tmp_path, capsys):
    # sha256 of every data file of `all --seed 1`, so that the kernel,
    # project, couple, alt and moments outputs are pinned byte for byte as
    # well as the exact ones
    golden = {
        "alt/ascent_peak.csv":
            "fb958951415267ed7cc71bddd69d8d64b9a194407ed01bfecb3b9a6d7ccbe98c",
        "alt/mallows_discrepancy.csv":
            "f74d7e9183037f546e25d8439f15d5cd9ef5bb10e438df9d9372d31c6d19fd6a",
        "alt/peak_tail.csv":
            "9c315f81342042161d42f40e26c80ee36efd3b2f02e670f1ba24443f26507126",
        "couple/aggregates.csv":
            "e7431b67f9ea238b3da3bcddf8726e826e1bd36497dbf05171e436e3d322af0f",
        "couple/monotonicity.csv":
            "8c07ae8a063024ac5427727cc141ac200d4e9fd61664fca6113293d422162173",
        "couple/tv_bound.csv":
            "c6a785d6e4a80a5469187212f945206debdce16341c2bc6016f1ae34f790d269",
        "exact/exact_summary.csv":
            "0291a1ed932fcfb08151064a36ee38a9fa9428a60a5823b9feef31397eebba55",
        "exact/pi_table.csv":
            "0741f49800e9a217a794092461133c92bdf4d0b02b6356b1cabaa20cf401a2c3",
        "kernel/kernel_P.json":
            "fb765ce486602b8e8481c13b97cff31824c3127b4c8010bc8d84afc8d7905c29",
        "kernel/kernel_P_bar.json":
            "5a15de12702b8676b823479de15c09cb07b344c9d22d7b9faa6f8fbcb7bf249e",
        "kernel/kernel_P_check.json":
            "276b380ce41602c0e4124fb78d48101c9c441e71af1bd88d6f7b2dd0f0d4be26",
        "kernel/kernel_P_hat.json":
            "dccdafc72e418b45be57634ed04995a6f4c7022fa6b80d129188f194b35e0229",
        "kernel/kernel_P_tilde.json":
            "309b5a96c6b1ea6c874201d3422dbcead14f60518077926ad2c0c398dc02278d",
        "kernel/kernel_R.json":
            "24a3137bf25a2bc2b8fe2b7064ef0ad8657a0f66ac15bbeebfd6ab2f614e5eff",
        "kernel/kernel_R_tilde.json":
            "552a668af2f202b592539045c5d97b8c8096af84dda52a18305712671f7b7150",
        "kernel/p_table.csv":
            "31f33bb6efd7e164afd45ccbcf75a662ae2875a546d46b76851345dfffd90a06",
        "moments/coefficients.csv":
            "338c6c81b57f9f5da1af51cf92e7bf10a37afd2486fbd52c4b176d5c2b94822d",
        "moments/gram.csv":
            "a2be9c12786e4083ee565228d9432393ecebf5189b72c370849c428fe86ef1cd",
        "moments/moments.csv":
            "d3683931b97124162bc7a16d13f101ac471a5bc58bfc2223b0fa06ddd1461746",
        "project/dynkin.csv":
            "41a4b15a7e924271f236305afbb940dc3b5a8fe0f28fad58671443a4b26d40f2",
        "project/partition.json":
            "c7d3a4f55b85b382c40ea74d78be1b883182abe904a8ad3c9f5eebb29bc2f88d",
        "project/projected_kernel.json":
            "b439d658e3e358b1e46b93fbb9739b40196749ef9ae477c9f6b4be5d1147caf9",
    }
    assert main(["all", "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*") if p.is_file()
    }
    assert digests == golden


@pytest.mark.parametrize("argv, golden", [
    (["project", "--n", "7"], {
        "dynkin.csv": "97ccff9d9dfce9a4e64897ec2aaea05d4dbf8801046ff6d89cfce8df5b7467e5",
        "partition.json": "fe4db3d25cc451cd724483d30741336d6b9accd59bba136776893565bbe054ce",
        "projected_kernel.json": "4e760da5b668bf971b62e5a6c910bbba53980964f140f3fae15689e691ec90a4",
    }),
    (["moments", "--n", "10"], {
        "coefficients.csv": "c609dc728750aeeba8b19d2f367579ad032d2225849f266d09ad9a7b16dd36b9",
        "gram.csv": "20bdda6d218af2f4112090a481cf8388fe02a37f402411f4ac37b699109a45fd",
        "moments.csv": "dbe9fcbc4711b2f58263840aaaf3111fc2f0b64672df22f05f6863de73c2a323",
    }),
], ids=["project-7", "moments-10"])
def test_files_past_all_match_frozen_digests(argv, golden, tmp_path, capsys):
    # sha256 of every data file of a projection and a Gram run at an N that
    # `all` does not reach: the projected rows, the block masses and the
    # Gram sums are pinned there too
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == golden


def test_couple_traces(tmp_path, capsys, monkeypatch):
    # every file of the run, traces.jsonl included, is written by the
    # module-level `write_table`, the function the benchmark counts files at
    written = []

    def counted(*args):
        written.append(str(write_table(*args)))
        return written[-1]

    monkeypatch.setattr(cli, "write_table", counted)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "N": 8, "n": 50, "replicas": 5, "seed": 1, "emit_traces": True,
    }))
    code, report = run_cli(
        capsys, "couple", "--config", str(config), "--out", str(tmp_path / "run")
    )
    assert code == 0
    assert report["outputs"] == written
    assert str(tmp_path / "run" / "traces.jsonl") in written
    lines = (tmp_path / "run" / "traces.jsonl").read_text().splitlines()
    assert len(lines) == 5
    assert len(json.loads(lines[0])["steps"]) == 50


@pytest.mark.parametrize("start_mode, golden", [
    ("shared", ("2189b1b4e66e3ce7df3942dae910fcbea7b4b6bb6623040f0fd37820908f089e",
                "68424bac94ff16968947f1f1029ebb837d92e767843a5c88cb8e4aa3e771194e")),
    ("independent", ("8f8fc0609e0064979578e6e7aea06041bbafd1c9f0c57893a888e4ab6587dda8",
                     "aa17cf5b2469c6865b59b0aab0d5127dd79a56b78cd41df82c49468e83abe993")),
    ("copy_x", ("636d2119460950c61b1ad9581f9b2ae48ccb14ed54cf81a8755190be0c5133e7",
                "ff86af1b641560facb0ca19ebc7941a980d65db266b86c43ded48512e4a39fdf")),
])
def test_couple_traces_match_frozen_digests(start_mode, golden, tmp_path, capsys):
    # sha256 of (traces.jsonl, aggregates.csv) of one traced run per start
    # mode; under pcheck-rtilde each file has replicas with Z and Z-hat events
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "N": 9, "n": 50, "replicas": 16, "seed": 7, "selector": "pcheck-rtilde",
        "start_mode": start_mode, "emit_traces": True, "checkpoints": [0, 25],
    }))
    code, _ = run_cli(capsys, "couple", "--config", str(config), "--out", str(tmp_path / "run"))
    assert code == 0
    names = ("traces.jsonl", "aggregates.csv")
    assert tuple(hashlib.sha256((tmp_path / "run" / n).read_bytes()).hexdigest() for n in names) == golden


def test_couple_aggregates_match_frozen_digest_at_n30(tmp_path, capsys):
    # sha256 of aggregates.csv of one untraced run at N = 30, past the N of
    # the other pinned runs, so R-tilde's law and both start CDFs at a larger
    # N reach a pinned file.  The exit code is not pinned: under
    # pcheck-rtilde the z and z-hat verdicts fail, an open question of scope.
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "N": 30, "n": 200, "replicas": 2000, "seed": 5, "selector": "pcheck-rtilde",
        "start_mode": "shared",
    }))
    run_cli(capsys, "couple", "--config", str(config), "--out", str(tmp_path / "run"))
    digest = hashlib.sha256((tmp_path / "run" / "aggregates.csv").read_bytes()).hexdigest()
    assert digest == "89ebd1ebb4597ea55bdf28e00210b979b7c1ce97a06dfd6f074210bf14ddf232"


def test_couple_traces_agree_with_aggregates(tmp_path, capsys):
    horizon = 300
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "N": 9, "n": horizon, "replicas": 60, "seed": (1 << 64) - 5,
        "selector": "pcheck-rtilde", "emit_traces": True, "checkpoints": [0, 100],
    }))
    run_cli(capsys, "couple", "--config", str(config), "--out", str(tmp_path / "run"))
    with (tmp_path / "run" / "aggregates.csv").open() as fh:
        counts = {
            row["stat"]: int(row["count"]) for row in csv.DictReader(fh)
            if int(row["n"]) == horizon
        }
    traces = [json.loads(line) for line in (tmp_path / "run" / "traces.jsonl").open()]

    def later(t):
        return t is None or t > horizon

    from_traces = {
        "neq": sum(tr["final"][0] != tr["final"][1] for tr in traces),
        "tau_gt": sum(later(tr["tau"]) for tr in traces),
        "z_pos": sum(bool(tr["z_incr"]) for tr in traces),
        "ztilde_pos": sum(bool(tr["ztilde_incr"]) for tr in traces),
        "zhat_pos": sum(bool(tr["zhat_incr"]) for tr in traces),
        "tau0x_gt": sum(later(tr["tau0_x"]) for tr in traces),
        "tau0y_gt": sum(later(tr["tau0_y"]) for tr in traces),
    }
    assert from_traces == counts
    assert counts["z_pos"] > 0


def test_couple_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"N": 8, "n": 10, "selector": "nope"}))
    code = main(["couple", "--config", str(config), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "selector" in err


# every field's type is RunConfig's rule; the CLI only names the file's fields
@pytest.mark.parametrize("field, message", [
    ({"replicas": True}, "replicas must be an integer"),
    ({"checkpoints": [1.5]}, "checkpoints must be an integer"),
    ({"checkpoints": ["a"]}, "checkpoints must be an integer"),
    ({"N": "8"}, "N must be an integer"),
    ({"selector": 5}, "selector must be one of"),
    ({"start_mode": 3}, "start_mode must be one of"),
    ({"emit_traces": 1}, "emit_traces must be a bool"),
    ({"seed": 1.5}, "seed must lie in"),
    ({"checkpoints": 5}, "checkpoints must be an iterable of integers"),
    ({"checkpoints": None}, "checkpoints must be an iterable of integers"),
], ids=["bool-replicas", "float-checkpoint", "string-checkpoint", "string-N", "int-selector",
        "int-start-mode", "int-emit-traces", "float-seed", "int-checkpoints", "null-checkpoints"])
def test_couple_bad_field_type(field, message, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"N": 8, "n": 10, **field}))
    code = main(["couple", "--config", str(config), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert not (tmp_path / "x").exists()


def test_couple_unknown_field(tmp_path, capsys):
    config = tmp_path / "bad.json"
    for name, value in (("replica", 5), ("precision", "double")):
        config.write_text(json.dumps({"N": 8, "n": 10, name: value}))
        code = main(["couple", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"config.{name}: unknown field" in capsys.readouterr().err


def test_all_rejects_a_bad_config_before_writing(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"N": 8, "n": 10, "seed": -1}))
    assert main(["all", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "seed must lie in" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("case", ["missing", "unreadable", "not-json"])
@pytest.mark.parametrize("command", ["couple", "all"])
def test_config_file_that_cannot_be_loaded(command, case, tmp_path, capsys):
    config = tmp_path / "c.json"
    if case == "unreadable":
        config.mkdir()  # reading a directory fails whatever the permissions
    elif case == "not-json":
        config.write_text('{"N": 8, "n": ')
    assert main([command, "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: config: {config}:" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


def test_alt_command(tmp_path, capsys):
    code, report = run_cli(
        capsys, "alt", "--replicas", "15000", "--seed", "3", "--out", str(tmp_path)
    )
    assert code == 0
    assert report["verdicts"]["mallows_pmf_equals_pi"] == "pass"
    assert report["verdicts"]["peak_tail_bound"] == "pass"
    assert (tmp_path / "mallows_discrepancy.csv").exists()


@pytest.mark.parametrize("replicas", ["0", "-3"])
def test_alt_replicas_below_one(replicas, tmp_path, capsys):
    assert main(["alt", "--replicas", replicas, "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert f"replicas: must be >= 1, got {replicas}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", [-1, 1 << 64])
@pytest.mark.parametrize("argv", [
    ["couple", "--n", "8", "--horizon", "10", "--replicas", "5"],
    ["alt", "--replicas", "100"],
    ["all"],
])
def test_seed_outside_64_bits_is_a_configuration_error(argv, seed, tmp_path, capsys):
    # the streams reduce seeds mod 2^64, so these would alias 2^64 - 1 and 0
    assert main(argv + ["--seed", str(seed), "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "seed must lie in" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["couple", "--n", "8", "--horizon", "10", "--replicas", "5"],
    ["alt", "--replicas", "2000"],
])
def test_largest_seed_accepted(argv, tmp_path, capsys):
    code, report = run_cli(capsys, *argv, "--seed", str((1 << 64) - 1), "--out", str(tmp_path))
    assert code != 2
    assert report["seed"] == (1 << 64) - 1


def test_moments_command(tmp_path, capsys):
    code, report = run_cli(capsys, "moments", "--n", "6", "--out", str(tmp_path))
    assert code == 0
    assert report["verdicts"]["gram_matches_oracle"] == "pass"
    assert report["verdicts"]["coefficients_reconstruct_2p"] == "pass"
    gram = (tmp_path / "gram.csv").read_text().splitlines()
    assert gram[0] == "k,l,value"


def test_report_lists_every_output(tmp_path, capsys):
    code, report = run_cli(capsys, "moments", "--n", "5", "--out", str(tmp_path))
    assert code == 0
    for path in report["outputs"]:
        assert path.startswith(str(tmp_path))

import json
from pathlib import Path

import pytest

import degseq.cli as cli
from degseq.acceptance import CriterionResult
from degseq.io import read_degree_file


def run(args):
    return cli.main(args)


def read_meta(out):
    return json.loads((Path(out) / "metadata.json").read_text())


class TestGeneratorSpec:
    @pytest.mark.parametrize(
        "spec, code",
        [
            # too few were IndexError tracebacks; too many ran, ignoring the extra
            ("powerlaw(100)", 1),
            ("perturbed-regular(10)", 1),
            ("regular(10)", 1),
            ("powerlaw(100,2.5,2,20,9)", 1),
            ("perturbed-regular(10,3,0.5,1,2)", 1),
            ("regular(10,3,1)", 1),
            ("powerlaw(100,2.5,2,20)", 0),
            ("perturbed-regular(10,3,0.5)", 0),
            ("perturbed-regular(10,3,0.5,7)", 0),
        ],
    )
    def test_argument_count(self, tmp_path, capsys, spec, code):
        assert run(["sample-gnd", "--degrees", spec, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("error: ") and "arguments" in err[0]


class TestOracleCommand:
    def test_writes_family_and_marginals(self, tmp_path):
        out = tmp_path / "o"
        assert run(["oracle", "--degrees", "regular(4,2)", "--out", str(out)]) == 0
        meta = read_meta(out)
        assert meta["family_size"] == 3
        lines = (out / "marginals.csv").read_text().splitlines()
        assert lines[0] == "i,j,value"
        values = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[1:]}
        assert values[("0", "1")] == pytest.approx(2 / 3)

    def test_cap_exit_code(self, tmp_path):
        code = run(["oracle", "--degrees", "regular(12,3)", "--out", str(tmp_path / "x")])
        assert code == 3


class TestDegreeResolution:
    def test_non_graphical_file_exits_2(self, tmp_path):
        deg = tmp_path / "d.txt"
        deg.write_text("3\n3\n1\n1\n")
        code = run(["sample-gnd", "--degrees", str(deg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_degree_file_written(self, tmp_path):
        out = tmp_path / "o"
        assert run(["sample-gnd", "--degrees", "regular(5,2)", "--out", str(out), "--runs", "2"]) == 0
        assert read_degree_file(out / "degrees.txt").degrees == (2,) * 5


class TestSampleGnd:
    def test_exact_mode_with_checkpoints(self, tmp_path):
        out = tmp_path / "o"
        code = run([
            "sample-gnd", "--degrees", "regular(4,2)", "--mode", "exact",
            "--runs", "50", "--checkpoints", "1,2", "--seed", "5",
            "--out", str(out), "--save-graphs",
        ])
        assert code == 0
        assert (out / "run_00000.edges").exists()
        assert (out / "concentration.json").exists()
        meta = read_meta(out)
        assert meta["checkpoints"] == [1, 2]


class TestSampleGnw:
    def test_marginal_report_written(self, tmp_path):
        out = tmp_path / "o"
        code = run([
            "sample-gnw", "--degrees", "regular(6,3)", "--runs", "200",
            "--seed", "9", "--out", str(out), "--w-kind", "p",
        ])
        assert code == 0
        assert (out / "w_matrix.csv").exists()
        assert (out / "marginals.csv").exists()
        assert "worst_abs_z" in read_meta(out)


class TestSeqApproxP:
    def test_runs_with_schedule(self, tmp_path):
        out = tmp_path / "o"
        code = run([
            "seq-approx-p", "--degrees", "regular(6,3)", "--runs", "200",
            "--seed", "2", "--out", str(out), "--zeta", "0.2", "--zeta-prime", "0.2",
        ])
        assert code == 0
        meta = read_meta(out)
        assert meta["zeta"] == 0.2
        assert (out / "marginals.csv").exists()


class TestCouple:
    def test_traces_and_metadata(self, tmp_path):
        out = tmp_path / "o"
        code = run([
            "couple", "--degrees", "regular(6,2)", "--runs", "10", "--seed", "4",
            "--mode", "exact", "--denom", "exact-max", "--out", str(out),
        ])
        assert code == 0
        meta = read_meta(out)
        assert 0.0 <= meta["fallback_fraction"] <= 1.0
        assert meta["containment_violations"] == 0
        lines = (out / "traces.ndjson").read_text().splitlines()
        assert len(lines) == 10
        record = json.loads(lines[0])
        assert {"fallback", "poisson_steps", "eta_min"} <= set(record)

    def test_deterministic_outputs(self, tmp_path):
        args = lambda out: [
            "couple", "--degrees", "regular(6,2)", "--runs", "5", "--seed", "11",
            "--mode", "asymptotic", "--denom", "certified-bound", "--out", out,
        ]
        assert run(args(str(tmp_path / "a"))) == 0
        assert run(args(str(tmp_path / "b"))) == 0
        for name in ["traces.ndjson", "degrees.txt"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        ma = read_meta(tmp_path / "a")
        mb = read_meta(tmp_path / "b")
        ma.pop("wall_time_s")
        mb.pop("wall_time_s")
        assert ma == mb


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degrees": "regular(6,2)", "runs": 3, "seed": 1}))
        out = tmp_path / "o"
        code = run([
            "couple", "--config", str(cfg), "--runs", "4", "--out", str(out),
            "--mode", "exact", "--denom", "exact-max",
        ])
        assert code == 0
        assert read_meta(out)["runs"] == 4

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degrees": "regular(6,2)", "bogus": 1}))
        code = run(["couple", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "text", ["null", "5", '"ab"', "[]"], ids=["null", "number", "string", "list"]
    )
    def test_config_not_an_object_exits_1(self, tmp_path, capsys, text):
        # null and 5 were TypeError tracebacks, "ab" reported unknown keys 'a'
        # and 'b', and [] ran as if there were no config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        args = ["couple", "--degrees", "regular(6,2)", "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: config file must hold a JSON object"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--runs", "0"], None),  # was a ZeroDivisionError traceback
            (["--runs", "-2"], None),  # was exit 0 with fallback_fraction -0.0
            ([], {"runs": "3"}),  # was a TypeError traceback
            ([], {"runs": True}),
            ([], {"seed": -1}),
            ([], {"checkpoints": [1, -2]}),
            (["--checkpoints", "1,x"], None),
            ([], {"zeta": "0.5"}),  # was a TypeError traceback
            ([], {"save_graphs": "no"}),  # was truthy: edge files were written
            ([], {"c_mult": None}),
            ([], {"lam": True}),
            ([], {"w_kind": "gnp"}),
        ],
        ids=["runs-0", "runs-negative", "runs-string", "runs-bool", "seed-negative",
             "checkpoint-negative", "checkpoint-not-int", "zeta-string", "save-graphs-string",
             "c-mult-null", "lam-bool", "w-kind-unknown"],
    )
    def test_bad_value_exits_1_with_one_line(self, tmp_path, capsys, flags, config):
        args = ["couple", "--degrees", "regular(6,2)", "--out", str(tmp_path / "o")] + flags
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config", [{"degrees": 5}, {"degrees": "regular(6,2)", "out": 5}], ids=["degrees", "out"]
    )
    def test_non_string_path_exits_1(self, tmp_path, capsys, monkeypatch, config):
        # each was a TypeError traceback; only the config file sets them
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(config))
        assert run(["couple", "--config", "cfg.json"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "command, flags, config",
        [
            ("couple", ["--lam", "3"], None),
            ("couple", ["--w-kind", "p"], None),
            ("couple", ["--checkpoints", "1,2"], None),
            ("sample-gnw", ["--zeta", "0.3"], None),
            ("sample-gnw", [], {"xi": 0.2}),
            ("seq-approx-p", [], {"w_kind": "p"}),
            ("sample-gnd", ["--c-mult", "2"], None),
            ("oracle", ["--xi", "0.1"], None),
            ("oracle", [], {"checkpoints": []}),
        ],
        ids=["couple-lam", "couple-w-kind", "couple-checkpoints", "gnw-zeta", "gnw-xi-config",
             "approx-p-w-kind-config", "gnd-c-mult", "oracle-xi", "oracle-checkpoints-config"],
    )
    def test_unread_field_exits_1(self, tmp_path, capsys, command, flags, config):
        # each exited 0 as if the value had been applied
        args = [command, "--degrees", "regular(4,2)", "--out", str(tmp_path / "o")] + flags
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command", ["couple", "oracle", "sample-gnd", "sample-gnw", "seq-approx-p", "verify-suite"]
    )
    def test_shared_flags_valid_for_every_command(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(cli, "run_battery", lambda: [CriterionResult("stub", True, 0.0, "ok")])
        args = [command, "--degrees", "regular(4,2)", "--out", str(tmp_path / "o"),
                "--mode", "exact", "--denom", "exact-max", "--runs", "2", "--seed", "3",
                "--save-graphs"]
        assert run(args) == 0


class TestVerifySuite:
    def test_exit_code_5_on_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_battery",
            lambda: [CriterionResult("stub", False, 0.0, "forced failure")],
        )
        code = run(["verify-suite", "--out", str(tmp_path / "v")])
        assert code == 5
        report = json.loads((tmp_path / "v" / "acceptance_report.json").read_text())
        assert report[0]["passed"] is False

    def test_exit_code_0_on_pass(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_battery",
            lambda: [CriterionResult("stub", True, 0.0, "ok")],
        )
        assert run(["verify-suite", "--out", str(tmp_path / "v")]) == 0

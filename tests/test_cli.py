import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from math import isfinite
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degseq.cli as cli
from degseq.acceptance import CriterionResult
from degseq.deggen import parse_generator_spec
from degseq.io import read_degree_file


def run(args):
    return cli.main(args)


def parse_spec(spec):
    return parse_generator_spec(spec, seed=0).degrees.degrees


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

    @pytest.mark.parametrize("spec, word", [
        # each ran to exit 0 with every degree at d_min, the last two after
        # a numpy RuntimeWarning on NaN or all-zero weights
        ("powerlaw(10,nan,2,3)", "exponent"),
        ("powerlaw(10,inf,2,3)", "exponent"),
        ("powerlaw(10,2000,2,3)", "exponent"),
        # the spec's seed was reduced mod 2^64: -1 ran as 2^64 - 1
        ("perturbed-regular(10,3,0.5,-1)", "seed must be an integer in [0, 2^64), got -1"),
        ("perturbed-regular(10,3,0.5,18446744073709551616)", "got 18446744073709551616"),
    ], ids=["nan-exponent", "inf-exponent", "underflow-exponent", "seed-minus-1", "seed-2-to-64"])
    def test_bad_values_exit_1_before_writing(self, tmp_path, capsys, spec, word):
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample-gnd", "--degrees", spec, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and word in err[0]
        assert not (out / "degrees.txt").exists()

    def test_spec_seed_below_2_to_the_64_is_its_own(self, tmp_path):
        # 2^64 - 1 is accepted and is not 2^65 - 1 in disguise
        top = parse_spec("perturbed-regular(40,3,0.5,18446744073709551615)")
        assert top == parse_spec("perturbed-regular(40,3,0.5,18446744073709551615)")
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            parse_spec("perturbed-regular(40,3,0.5,36893488147419103231)")
        assert run(["sample-gnd", "--degrees", "perturbed-regular(40,3,0.5,18446744073709551615)",
                    "--out", str(tmp_path / "o")]) == 0
        assert read_degree_file(tmp_path / "o" / "degrees.txt").degrees == top


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

    def test_family_cap_exits_3_with_one_line(self, tmp_path, capsys):
        # n = 10 is within the vertex cap; its 11180820 members are not
        code = run(["oracle", "--degrees", "regular(10,3)", "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: family of 11180820 graphs exceeds cap 5000000"]


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

    def test_asymptotic_escape_past_the_family_cap_exits_0(self, tmp_path):
        # regular(10,3) is within the vertex cap but past the family cap: an
        # escape once redrew G from the oracle, which refused it
        out = tmp_path / "o"
        code = run(["couple", "--degrees", "regular(10,3)", "--runs", "20", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        traces = [json.loads(line) for line in (out / "traces.ndjson").read_text().splitlines()]
        escaped = [tr for tr in traces if tr["fallback"]]
        assert len(traces) == 20 and escaped
        assert not any("approx_g" in tr for tr in traces)

    def test_loop_state_with_no_completion_exits_0(self, tmp_path):
        # replica 8's step loop ends at a triangle of regular(4,2), which no
        # completion extends: the asymptotic completion restarted from it forever
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "degseq.cli", "couple", "--degrees", "regular(4,2)",
             "--zeta", "0.9", "--zeta-prime", "0.1", "--runs", "9", "--seed", "1",
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        last = json.loads((tmp_path / "o" / "traces.ndjson").read_text().splitlines()[8])
        assert last["fallback"] and last["fallback_step"] == last["poisson_steps"]


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
            # argparse printed its usage (several lines) and exited 2, the
            # code of a non-graphical sequence
            (["--runs", "abc"], None),
            (["--seed=1.5"], None),
            (["--zeta", "x"], None),
            (["--zeta"], None),
            (["--bogus", "1"], None),
            (["--mode", "fast"], None),
        ],
        ids=["runs-0", "runs-negative", "runs-string", "runs-bool", "seed-negative",
             "checkpoint-negative", "checkpoint-not-int", "zeta-string", "save-graphs-string",
             "c-mult-null", "lam-bool", "w-kind-unknown", "runs-flag-not-int",
             "seed-flag-not-int", "zeta-flag-not-float", "zeta-flag-no-value", "unknown-flag",
             "mode-unknown"],
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
        "command, flags, config, name",
        [
            ("couple", ["--c-mult", "nan"], None, "c_mult"),  # exited 0 with zeta = 1/2
            ("couple", ["--c-mult", "inf"], None, "c_mult"),  # exited 0 with zeta = 1/2
            ("seq-approx-p", ["--lam", "inf"], None, "lam"),  # an OverflowError traceback
            ("seq-approx-p", ["--lam", "nan"], None, "lam"),  # named no field
            ("seq-approx-p", [], {"zeta": float("-inf")}, "zeta"),
            ("couple", [], {"c_mult": 10**400}, "c_mult"),  # past the float range
        ],
        ids=["c-mult-nan", "c-mult-inf", "lam-inf", "lam-nan", "zeta-config-minus-inf",
             "c-mult-config-huge-int"],
    )
    def test_non_finite_exits_1_naming_the_field(self, tmp_path, capsys, command, flags, config,
                                                  name):
        args = [command, "--degrees", "regular(6,3)", "--out", str(tmp_path / "o")] + flags
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith(f"error: {name} must be a finite number")
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


    @pytest.mark.parametrize(
        "command, flags",
        [("couple", ["--zeta=-0.5"]), ("sample-gnd", ["--xi=-1", "--checkpoints", "1"]),
         ("seq-approx-p", ["--c-mult=-2", "--zeta", "0.3"]), ("seq-approx-p", ["--lam=-1"])],
        ids=["couple-zeta", "gnd-xi", "approx-p-c-mult", "approx-p-lam"],
    )
    def test_negative_knob_exits_1_before_writing(self, tmp_path, capsys, command, flags):
        # sample-gnd exited 0 with a band of negative width, and the others
        # wrote degrees.txt before the schedule rejected the value
        args = [command, "--degrees", "regular(6,2)", "--out", str(tmp_path / "o")] + flags
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and ">= 0" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["couple", "seq-approx-p"])
    @pytest.mark.parametrize(
        "flag, config",
        [("--zeta=1.5", None), ("--xi=0.9", None), ("--zeta-prime=1", None),
         (None, {"zeta": 1.0}), (None, {"xi": 0})],
        ids=["zeta-flag", "xi-flag", "zeta-prime-flag", "zeta-config", "xi-config"],
    )
    def test_out_of_domain_schedule_exits_1_before_writing(self, tmp_path, capsys, command,
                                                           flag, config):
        # positive values past the schedule's domain were rejected only by
        # default_params, after degrees.txt was written
        out = tmp_path / "o"
        args = [command, "--degrees", "regular(6,2)", "--out", str(out)]
        if flag is not None:
            args.append(flag)
        else:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "cfg.json")]
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "outside" in err[0]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_poisson_mean_past_bound_exits_1(self, tmp_path, capsys, seed):
        # seed 1 ended in an OverflowError traceback; seeds 2 and 3 drew
        # about 1e308 candidate steps and ran until killed
        args = ["seq-approx-p", "--degrees", "regular(6,2)", "--lam", "1e308",
                "--seed", str(seed), "--out", str(tmp_path / "o")]
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "at most" in err[0]

    @pytest.mark.parametrize(
        "args, code, message",
        [(["couple", "--degrees", "regular(6,2)", "--mode", "exact", "--denom", "certified-bound"],
          1, "certified bound"),
         (["sample-gnd", "--degrees", "regular(6,2)", "--checkpoints", "1,7"],
          1, "checkpoint 7 outside [0, 6]"),
         (["oracle", "--degrees", "regular(12,3)"], 3, "exceeds enumeration cap"),
         (["couple", "--degrees", "regular(12,3)", "--mode", "exact", "--denom", "exact-max"],
          3, "exceeds enumeration cap"),
         (["sample-gnd", "--degrees", "regular(12,3)", "--mode", "exact"],
          3, "exceeds enumeration cap"),
         (["seq-approx-p", "--degrees", "regular(6,2)", "--lam", "1e308"],
          1, "lam must be finite, >= 0 and at most")],
        ids=["couple-denom", "gnd-checkpoint", "oracle-cap", "couple-cap", "gnd-cap",
             "approx-p-lam"],
    )
    def test_bad_setup_exits_before_writing(self, tmp_path, capsys, args, code, message):
        # each wrote degrees.txt before the set-up or the first replica failed
        out = tmp_path / "o"
        assert run(args + ["--out", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not out.exists() or not any(out.iterdir())

    def test_bad_oracle_cap_exits_before_writing(self, tmp_path, capsys, monkeypatch):
        # an exact couple reads the cap when set-up enumerates the family
        monkeypatch.setenv("DEGSEQ_ORACLE_CAP", "abc")
        out = tmp_path / "o"
        assert run(["couple", "--degrees", "regular(6,2)", "--mode", "exact",
                    "--denom", "exact-max", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "DEGSEQ_ORACLE_CAP" in err[0]
        assert not out.exists() or not any(out.iterdir())


# each command's numeric flags and config keys, and what they are fed:
# non-finite, zero and negative numbers, and values of the wrong type
NUMERIC_FIELDS = ["runs", "seed", "xi", "zeta", "zeta_prime", "c_mult", "lam"]
BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), 0, 0.0, -1, -0.5, -(10**30)]
WRONG_TYPES = ["x", "1", "", True, False, None, [1], {"a": 1}]
FLAG_TEXTS = ["abc", "1e", "", "0x10", "1.5", "--"]


def must_fail(name, value, flag: bool) -> bool:
    """Whether no command may exit 0 with `value` for `name`: a non-finite or
    negative number, a zero run count, or a value of the wrong type (null
    stands for the default of the optional knobs)."""
    integral = name in ("runs", "seed")
    if flag:  # the flag's text, as argparse converts it
        try:
            value = (int if integral else float)(value)
        except ValueError:
            return True
    elif value is None:
        return name in ("runs", "seed", "c_mult")
    if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
        return True
    return not (isfinite(value) and value >= (1 if name == "runs" else 0))


@st.composite
def bad_inputs(draw):
    """A command line with one numeric field set badly, by flag or config key."""
    command = draw(st.sampled_from(["seq-approx-p", "sample-gnd", "couple", "sample-gnw"]))
    n = draw(st.integers(3, 8))
    args = [command, "--degrees", f"regular({n},{draw(st.integers(1, 2))})"]
    name = draw(st.sampled_from(NUMERIC_FIELDS))
    if name != "runs":  # a flag would win over the config key
        args += ["--runs", str(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        value = str(draw(st.sampled_from(BAD_NUMBERS + FLAG_TEXTS)))
        return args + [f"--{name.replace('_', '-')}={value}"], None, must_fail(name, value, True)
    value = draw(st.sampled_from(BAD_NUMBERS + WRONG_TYPES))
    return args, {name: value}, must_fail(name, value, False)


@given(bad_inputs())
@settings(max_examples=150, deadline=None)
def test_bad_numeric_input_ends_in_one_line_and_a_documented_code(case):
    args, config, fails = case
    with tempfile.TemporaryDirectory() as tmp:
        args = args + ["--out", os.path.join(tmp, "o")]
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            Path(path).write_text(json.dumps(config))
            args += ["--config", path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(args)
    lines = err.getvalue().splitlines()
    assert code in range(6)
    assert len(lines) <= 1 and "Traceback" not in err.getvalue()
    assert not (fails and code == 0)


class TestUnknownCommand:
    def test_rejected_before_anything_is_written(self, tmp_path):
        # each was accepted; run_experiment then wrote degrees.txt before raising
        out = tmp_path / "o"
        fields = {"degrees": "regular(4,2)", "out": str(out)}
        with pytest.raises(ValueError, match="unknown command 'bogus'"):
            cli.run_experiment(cli.ExperimentConfig(kind="bogus", **fields))
        with pytest.raises(ValueError, match="unknown command 'bogus'"):
            cli.ExperimentConfig.from_sources("bogus", None, fields)
        assert not out.exists()


def peak_mb(out, **fields) -> float:
    """The tracemalloc peak of one run, in MB."""
    config = cli.ExperimentConfig(out=str(out), **fields)
    tracemalloc.start()
    try:
        assert cli.run_experiment(config) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestKeepsOnlyWhatItReads:
    def test_sample_gnd_peak_does_not_grow_with_runs(self, tmp_path):
        # every final graph was kept in a list nothing read: 0.9 MB at 2 runs,
        # 2.2 MB at 6
        two, six = (peak_mb(tmp_path / str(runs), kind="sample-gnd", degrees="regular(500,10)",
                            runs=runs) for runs in (2, 6))
        assert six < 1.1 * two

    def test_seq_approx_p_builds_no_dense_reference_below_100_runs(self, tmp_path):
        # the dense lower law was built on every run: an 80 MB peak here
        peak = peak_mb(tmp_path / "o", kind="seq-approx-p", degrees="regular(2000,20)", runs=2)
        assert peak < 16


def test_import_leaves_scipy_special_unloaded():
    # scipy.special cost every `degseq` process about 0.4 s and 18 MB at
    # import; only the chi-square p-value needs it
    code = "import sys, degseq.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_replays_write_what_the_commands_write():
    # benchmarks/replay.py follows each command's loop; fidelity.py compares
    # the bytes, so a change to one side alone fails here
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "benchmarks/fidelity.py", "--runs", "2"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8 and all(line.startswith("ok ") for line in lines), proc.stdout


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

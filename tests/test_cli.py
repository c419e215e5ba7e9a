from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from scldpc import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    export_instance_json)
from scldpc import cli
from scldpc.cli import (EXIT_CAP_EXHAUSTED, EXIT_CHECK_FAILED, EXIT_OK,
                        EXIT_USAGE, main)


def run_cli(*argv: str) -> int:
    return main(list(argv))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_reports_feasible_regime(capsys):
    code = run_cli("bounds", "--gamma", "3", "--kappa", "7",
                   "--m", "1", "--lifting", "34")
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    feas = doc["feasibility"]
    assert feas["feasible"] is True
    assert feas["branch"] == "I"
    assert feas["k"] == 63
    assert feas["threshold_ii"] == "27/2816"
    assert feas["p_max"] == "3/272"
    assert doc["uniform_c4_regime"]["min_Z_at_this_m"] == 34
    assert doc["shift_caps"]["condition_held"] is True
    assert doc["walks"]["count"] == 63


def test_bounds_flags_unavoidable_regime(capsys):
    code = run_cli("bounds", "--gamma", "2", "--kappa", "2",
                   "--m", "0", "--lifting", "1")
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["uniform_c4_regime"]["unavoidable"] is True
    assert doc["feasibility"]["feasible"] is False
    assert "probability 1" in doc["feasibility"]["reason"]


@pytest.mark.parametrize("argv, count", [
    (["--gamma", "3", "--kappa", "3", "--pattern", "2", "--lifting", "1"],
     "9 of 9"),
    # Only the tbc 8-walks with coefficients +-2 are certain at Z=2.
    (["--gamma", "2", "--kappa", "3", "--pattern", "0", "--lifting", "2",
      "--two-g", "8", "--walk-mode", "tbc"], "3 of 6"),
])
def test_bounds_reports_certain_candidates(argv, count, capsys):
    code = run_cli("bounds", *argv)
    assert code == EXIT_OK
    feas = json.loads(capsys.readouterr().out)["feasibility"]
    assert feas["feasible"] is False
    assert "probability 1" in feas["reason"]
    assert count in feas["reason"]


@pytest.mark.parametrize("pattern, uniform", [
    ("0,2", False),   # p_max 3/8, not corollary 1's 19/81
    ("2", False),     # every candidate certain, not "avoidable"
    ("0,1", True),    # the uniform full pattern, spelled as a pattern
])
def test_bounds_corollary1_only_for_uniform_full_pattern(pattern, uniform,
                                                         capsys):
    code = run_cli("bounds", "--gamma", "3", "--kappa", "3",
                   "--pattern", pattern, "--lifting", "1")
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert ("uniform_c4_regime" in doc) is uniform
    assert doc["shift_caps"]["six_cycle_exponent"] == 24


def test_bounds_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--gamma", "3")
    assert exc.value.code == EXIT_USAGE


def test_bounds_rejects_float_memory(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--gamma", "3", "--kappa", "3", "--m", "1.5")
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["--length", "0"],              # L below memory + 1, as with --m
    ["--probs", "1/0,1"],           # not a rational
])
def test_bounds_rejects_malformed_pattern_scheme(argv, capsys):
    code = run_cli("bounds", "--gamma", "3", "--kappa", "3",
                   "--pattern", "0,1", *argv)
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_bounds_out_file(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = run_cli("bounds", "--gamma", "3", "--kappa", "3", "--m", "2",
                   "--out", str(out))
    assert code == EXIT_OK
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["walks"]["count"] == 9


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_jsonl_count(capsys):
    code = run_cli("enumerate", "--gamma", "3", "--kappa", "7")
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 63
    first = json.loads(lines[0])
    assert first["key"].startswith("c4:")
    assert first["avoidable"] is True


def test_enumerate_window_restriction(capsys):
    code = run_cli("enumerate", "--gamma", "3", "--kappa", "3",
                   "--rows", "0,1", "--cols", "0,1")
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1


def test_enumerate_probability_table(capsys):
    code = run_cli("enumerate", "--gamma", "3", "--kappa", "3",
                   "--probabilities", "--m", "1", "--lifting", "4")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 9
    assert all(r["spread"] == "3/8" for r in rows)
    assert all(r["joint"] == "3/32" for r in rows)


def test_enumerate_probabilities_need_a_scheme(capsys):
    code = run_cli("enumerate", "--gamma", "3", "--kappa", "3",
                   "--probabilities")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["enumerate", "--gamma", "3", "--kappa", "3", "--probabilities"],
    ["bounds", "--gamma", "3", "--kappa", "3"],
    ["enumerate", "--gamma", "3", "--kappa", "3"],
])
def test_probs_without_pattern_exits_2(argv, capsys):
    # --m spreads uniformly; silently dropping --probs would report the
    # uniform scheme as if it were the one asked for.  Without
    # --probabilities, enumerate reads no scheme flag at all.
    code = run_cli(*argv, "--m", "1", "--probs", "9/10,1/10",
                   "--lifting", "2")
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--probs" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# construct / verify / export
# ---------------------------------------------------------------------------

def _artifacts(d):
    return {name: (d / name).read_bytes()
            for name in ("instance.json", "code.alist", "trace.json")}


def test_construct_two_stage_is_reproducible(tmp_path, capsys):
    args = ["construct", "--gamma", "3", "--kappa", "4", "--m", "1",
            "--lifting", "8", "--seed", "7"]
    code_a = run_cli(*args, "--out-dir", str(tmp_path / "a"))
    code_b = run_cli(*args, "--out-dir", str(tmp_path / "b"))
    capsys.readouterr()
    assert code_a == code_b == EXIT_OK
    assert _artifacts(tmp_path / "a") == _artifacts(tmp_path / "b")
    trace = json.loads((tmp_path / "a" / "trace.json").read_text())
    assert trace["girth"] >= 6
    assert trace["terminated"] is True
    # artifacts embed the tool version, the resolved config and the seed
    assert trace["tool_version"] and trace["seed"] == 7
    assert trace["config"]["Z"] == 8 and trace["config"]["pattern"] == [0, 1]
    inst = json.loads((tmp_path / "a" / "instance.json").read_text())
    assert inst["tool_version"] == trace["tool_version"]
    assert inst["seed"] == 7


def test_construct_then_verify_then_export(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("construct", "--gamma", "3", "--kappa", "7", "--m", "1",
                   "--lifting", "34", "--seed", "1", "--out-dir", str(out),
                   "--construction", "joint")
    assert code == EXIT_OK
    inst = str(out / "instance.json")

    code = run_cli("verify", inst)
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verify: PASS" in captured
    assert "activation-check: PASS" in captured
    assert "girth-check: PASS" in captured

    code = run_cli("verify", inst, "--min-girth", "100")
    captured = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED
    assert "verify: FAIL" in captured

    alist2 = tmp_path / "re.alist"
    code = run_cli("export", inst, str(alist2))
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "export-check: PASS" in captured
    assert alist2.read_bytes() == (out / "code.alist").read_bytes()


def test_construct_cap_exhaustion_exits_3(tmp_path, capsys):
    # seed 0 starts with at least one active cycle, so a zero budget
    # cannot terminate; the partial result must still be written
    out = tmp_path / "partial"
    code = run_cli("construct", "--gamma", "3", "--kappa", "7", "--m", "1",
                   "--lifting", "34", "--seed", "0", "--out-dir", str(out),
                   "--construction", "joint", "--max-resamples", "0")
    captured = capsys.readouterr().out
    assert code == EXIT_CAP_EXHAUSTED
    assert "CAP EXHAUSTED" in captured
    assert (out / "instance.json").exists()
    trace = json.loads((out / "trace.json").read_text())
    assert trace["terminated"] is False


def test_construct_budget_caps_two_stage_lift_stage(tmp_path, capsys):
    out = tmp_path / "partial"
    code = run_cli("construct", "--gamma", "3", "--kappa", "4", "--m", "1",
                   "--lifting", "8", "--seed", "2", "--out-dir", str(out),
                   "--max-resamples", "0")
    assert code == EXIT_CAP_EXHAUSTED
    trace = json.loads((out / "trace.json").read_text())
    assert trace["stage2"]["max_resamples"] == 0
    assert trace["terminated"] is False


@pytest.mark.parametrize("construction", ["two-stage", "joint"])
def test_construct_negative_budget_exits_2(construction, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("construct", "--gamma", "3", "--kappa", "4", "--m", "1",
                   "--lifting", "7", "--seed", "1", "--out-dir", str(out),
                   "--construction", construction, "--max-resamples", "-1")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "non-negative" in captured.err
    assert not any((out / name).exists()
                   for name in ("instance.json", "code.alist", "trace.json"))
    assert not out.exists()


@pytest.mark.parametrize("scheme", [["--m", "0"], ["--pattern", "2"]])
def test_construct_two_stage_with_one_value_pattern(scheme, tmp_path,
                                                    capsys):
    code = run_cli("construct", "--gamma", "3", "--kappa", "4", *scheme,
                   "--lifting", "13", "--seed", "1",
                   "--out-dir", str(tmp_path))
    capsys.readouterr()
    assert code == EXIT_OK
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["stage1_cleared"] is False
    assert len(trace["survivors"]) == trace["targets"]["count"] == 18
    assert trace["girth"] >= 6


def test_construct_two_stage_with_no_working_stage_exits_2(tmp_path,
                                                          capsys):
    out = tmp_path / "out"
    code = run_cli("construct", "--gamma", "3", "--kappa", "4", "--m", "0",
                   "--lifting", "1", "--seed", "1", "--out-dir", str(out))
    assert code == EXIT_USAGE
    assert "at the lift stage" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_two_stage_at_memory_0(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("experiment", "--gamma", "3", "--kappa", "4",
                   "--mode", "two-stage", "--m", "0", "--lifting", "13",
                   "--trials", "5", "--seed", "1", "--out", str(out))
    capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(out.read_text())["trials_ok"] == 5


@pytest.mark.parametrize("flag", ["--stage1-max", "--stage2-max"])
def test_construct_has_one_budget_flag(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("construct", "--gamma", "3", "--kappa", "4", "--m", "1",
                "--lifting", "8", "--seed", "2",
                "--out-dir", str(tmp_path), flag, "5")
    assert exc.value.code == EXIT_USAGE


def test_construct_writes_every_probability_as_num_den(tmp_path, capsys):
    code = run_cli("construct", "--construction", "joint", "--gamma", "3",
                   "--kappa", "4", "--pattern", "2", "--lifting", "13",
                   "--seed", "1", "--out-dir", str(tmp_path))
    capsys.readouterr()
    assert code == EXIT_OK
    trace = json.loads((tmp_path / "trace.json").read_text())
    inst = json.loads((tmp_path / "instance.json").read_text())
    assert trace["config"]["probs"] == inst["probs"] == ["1/1"]


def test_verify_rejects_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 999}')
    code = run_cli("verify", str(bad))
    assert code == EXIT_USAGE


def _instance_doc() -> dict:
    """A valid 2x3 instance with (1, 1) masked out."""
    base = BaseCode(2, 3, mask=((1, 1, 1), (1, 0, 1)))
    partition = Assignment.from_dict(
        "partition", {e: k % 2 for k, e in enumerate(base.edges)}, 2, 3)
    lift = Assignment.from_dict(
        "lift", {e: (3 * k) % 5 for k, e in enumerate(base.edges)}, 2, 3)
    return json.loads(export_instance_json(CodeInstance(
        base, CouplingScheme.uniform(1, 2, 5), partition, lift)))


@pytest.mark.parametrize("name, cell, value", [
    ("gamma", None, 2.0), ("Z", None, "5"), ("partition", (0, 0), 0.9),
    ("lift", (0, 1), 3.7), ("partition", (1, 1), 7),
])
def test_verify_and_export_reject_malformed_fields(name, cell, value,
                                                   tmp_path, capsys):
    doc = _instance_doc()
    if cell:
        doc[name][cell[0]][cell[1]] = value
    else:
        doc[name] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("verify", str(bad)) == EXIT_USAGE
    assert run_cli("export", str(bad), str(tmp_path / "bad.alist")) \
        == EXIT_USAGE
    assert capsys.readouterr().err.count("error: ") == 2
    assert not (tmp_path / "bad.alist").exists()


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_shift_from_config_file(tmp_path, capsys):
    cfg = {"gamma": 3, "kappa": 3, "m": 2, "mode": "partition-only",
           "trials": 60, "seed": 11}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "stats.json"
    code = run_cli("experiment", "--config", str(path), "--op", "shift",
                   "--out", str(out))
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["trials_ok"] == 60
    assert doc["eliminate_count"] == 9
    assert doc["delta"] == {"observed": 8, "formula": 9,
                            "source": "formula", "used": 9}
    assert len(doc["observables"]) == 6


def test_experiment_flag_overrides_beat_config(tmp_path, capsys):
    cfg = {"gamma": 3, "kappa": 3, "m": 2, "mode": "partition-only",
           "trials": 60, "seed": 11}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run_cli("experiment", "--config", str(path), "--op", "shift",
                   "--trials", "25")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["trials_ok"] == 25


def test_experiment_baseline_op(capsys):
    code = run_cli("experiment", "--gamma", "3", "--kappa", "3", "--m", "2",
                   "--mode", "partition-only", "--trials", "200",
                   "--seed", "4", "--op", "baseline")
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["trials"] == 200
    assert doc["all_within"] is True
    assert len(doc["observables"]) == 6


def test_experiment_theorem2_op(capsys):
    code = run_cli("experiment", "--gamma", "3", "--kappa", "7", "--m", "1",
                   "--lifting", "34", "--mode", "joint", "--trials", "60",
                   "--seed", "2", "--op", "theorem2")
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["feasible"] is True
    assert doc["bound"] == "21/10"
    assert doc["passed"] is True


def test_experiment_sweep_csv(capsys):
    code = run_cli("experiment", "--gamma", "3", "--kappa", "3", "--m", "2",
                   "--mode", "partition-only", "--trials", "20",
                   "--seed", "4", "--op", "shift",
                   "--sweep", "m", "--sweep-values", "2,3")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == ["2", "3"]
    assert all(r["error"] == "" for r in rows)


@pytest.mark.parametrize("op", ["baseline", "theorem2"])
def test_experiment_sweep_runs_only_the_shift_op(op, capsys):
    code = run_cli("experiment", "--gamma", "3", "--kappa", "3", "--m", "1",
                   "--trials", "5", "--op", op,
                   "--sweep", "m", "--sweep-values", "1")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "--sweep" in captured.err and "--op" in captured.err


@pytest.mark.parametrize("field, value", [
    ("gamma", 3.0), ("trials", 5.0), ("m", "1"), ("Z", 2.5), ("seed", None),
    ("cap", 1.5), ("pattern", [0, 1.0]), ("eliminate", {"two_g": "4"}),
    ("observe", [{"two_g": 6, "cols": [0, 1.5, 2]}]),
])
def test_experiment_config_rejects_non_integer_fields(field, value,
                                                      tmp_path, capsys):
    cfg = {"gamma": 3, "kappa": 3, "m": 1, "mode": "partition-only",
           "trials": 5, "seed": 1}
    cfg[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("experiment", "--config", str(path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not an integer" in err


# Float probabilities used to run as binary-float rationals; a non-object
# structure or a non-list observe died with a traceback and exit 1.
@pytest.mark.parametrize("field, value", [
    ("probs", [0.5, 0.5]), ("probs", ["1/2", 0.5]), ("probs", "1/2,1/2"),
    ("probs", None), ("eliminate", 4), ("eliminate", [{"two_g": 4}]),
    ("observe", [4]), ("observe", 4), ("observe", {"two_g": 6}),
])
def test_experiment_config_rejects_malformed_fields(field, value, tmp_path,
                                                    capsys):
    cfg = {"gamma": 3, "kappa": 3, "pattern": [0, 1], "probs": ["1/2", "1/2"],
           "mode": "partition-only", "trials": 5, "seed": 1}
    cfg[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("experiment", "--config", str(path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}")


def test_experiment_config_reads_num_den_probs(tmp_path, capsys):
    cfg = {"gamma": 3, "kappa": 3, "pattern": [0, 1], "probs": ["1/3", "2/3"],
           "mode": "partition-only", "trials": 5, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("experiment", "--config", str(path)) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["probs"] == ["1/3", "2/3"]


def test_experiment_requires_shape_or_config(capsys):
    code = run_cli("experiment", "--op", "shift")
    assert code == EXIT_USAGE


def test_experiment_with_no_terminated_trial_fails(capsys):
    # A zero cap stops every joint trial before it terminates, so there is
    # nothing to check; the study used to pass vacuously and exit 0.
    code = run_cli("experiment", "--gamma", "3", "--kappa", "7", "--m", "1",
                   "--lifting", "2", "--mode", "joint", "--trials", "20",
                   "--cap", "0")
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials_ok"] == 0
    assert doc["all_checks_pass"] is False
    assert code == EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# unwritable outputs
# ---------------------------------------------------------------------------

# Each used to die with an OSError traceback and exit 1 ("check failed").
@pytest.mark.parametrize("argv", [
    ["bounds", "--gamma", "3", "--kappa", "4", "--m", "1",
     "--out", "{missing}/b.json"],
    ["enumerate", "--gamma", "2", "--kappa", "2", "--out", "{missing}/c.jsonl"],
    ["experiment", "--gamma", "3", "--kappa", "3", "--m", "1",
     "--mode", "partition-only", "--trials", "2", "--out", "{missing}/e.json"],
    ["construct", "--gamma", "3", "--kappa", "4", "--m", "1",
     "--lifting", "8", "--seed", "7", "--out-dir", "{file}/run"],
    ["export", "{instance}", "{missing}/x.alist"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_2(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):  # a bad path must stop each command first
        raise AssertionError("the work ran before the output path was "
                             "checked")

    for work in ("estimate_mt_shift", "enumerate_cycles",
                 "construct_two_stage"):
        monkeypatch.setattr(cli, work, no_work)
    (tmp_path / "file").write_text("")
    (tmp_path / "instance.json").write_text(json.dumps(_instance_doc()))
    paths = {"missing": tmp_path / "no" / "such", "file": tmp_path / "file",
             "instance": tmp_path / "instance.json"}
    code = run_cli(*(arg.format(**paths) for arg in argv))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "scldpc", "enumerate",
         "--gamma", "2", "--kappa", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK
    assert len(proc.stdout.strip().splitlines()) == 1

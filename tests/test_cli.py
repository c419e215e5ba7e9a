from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from scldpc import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    export_instance_json)
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


def test_experiment_requires_shape_or_config(capsys):
    code = run_cli("experiment", "--op", "shift")
    assert code == EXIT_USAGE


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

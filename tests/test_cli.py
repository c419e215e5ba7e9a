from __future__ import annotations

import csv
import gc
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from scldpc import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    SparseBinaryMatrix, enumerate_cycles,
                    export_instance_json)
from scldpc import bounds, cli
from scldpc.cli import (EXIT_CAP_EXHAUSTED, EXIT_CHECK_FAILED, EXIT_OK,
                        EXIT_USAGE, main)
from scldpc.moser_tardos import MTTrace


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
    assert doc["shift_caps"]["condition_held"] is False
    assert doc["walks"]["count"] == 63


@pytest.mark.parametrize("shape, eliminate, delta, lhs", [
    # Corollary 4's closed form (2*3-3)(2*7-3) = 33, not the observed 32.
    pytest.param(["--gamma", "3", "--kappa", "7", "--m", "1", "--lifting",
                  "34"], {"two_g": 4}, (33, "formula"), 1.019355685672142,
                 id="3x7-c4"),
    pytest.param(["--gamma", "3", "--kappa", "5", "--m", "2", "--lifting",
                  "7"], {"two_g": 6}, (59, "observed"), 4.506498974870374,
                 id="3x5-c6"),
    # The one tbc 8-walk of 2x2 depends on nothing: observed 0, used 1.
    pytest.param(["--gamma", "2", "--kappa", "2", "--m", "1", "--lifting",
                  "5"], {"two_g": 8, "mode": "tbc"}, (1, "observed"),
                 0.40774227426885673, id="2x2-tbc8"),
])
def test_bounds_and_the_shift_study_share_one_delta(shape, eliminate, delta,
                                                    lhs, tmp_path, capsys):
    walks = ["--two-g", str(eliminate["two_g"]),
             "--walk-mode", eliminate.get("mode", "simple")]
    assert run_cli("bounds", *shape, *walks) == EXIT_OK
    caps = json.loads(capsys.readouterr().out)["shift_caps"]
    observe = {"two_g": 6 if eliminate["two_g"] == 4 else 4}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"eliminate": eliminate,
                                  "observe": [observe]}))
    run_cli("experiment", *shape, "--config", str(config), "--op", "shift",
            "--mode", "joint", "--trials", "2", "--seed", "1", "--out",
            str(tmp_path / "s.json"))
    shift = json.loads((tmp_path / "s.json").read_text())
    assert (caps["delta"], caps["delta_source"]) == delta == \
        (shift["delta"]["used"], shift["delta"]["source"])
    assert caps["condition_lhs"] == shift["condition_lhs"] == lhs
    assert caps["condition_held"] is shift["condition_held"] is (lhs <= 1)


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


# Scheme flags, and whether they spell the uniform full pattern.
_CLOSED_FORM_SCHEMES = {
    "uniform": (["--m", "1", "--lifting", "34"], True),
    "all-rejected": (["--m", "0", "--lifting", "1"], True),
    "pattern": (["--pattern", "0,2", "--probs", "1/3,2/3", "--lifting", "5"],
                False),
}


@pytest.mark.parametrize("scheme", list(_CLOSED_FORM_SCHEMES))
@pytest.mark.parametrize("two_g", [4, 6])
def test_bounds_reads_its_closed_forms_off_the_target_set(two_g, scheme,
                                                          capsys):
    # tbc walks are the simple cycles at 2g in {4, 6}, so the documents
    # differ only in walks.mode; the closed-form blocks appear exactly
    # when the targets are every 4-cycle of the base.
    flags, full = _CLOSED_FORM_SCHEMES[scheme]
    for gamma in range(1, 5):
        for kappa in range(1, 6):
            shape = ["--gamma", str(gamma), "--kappa", str(kappa),
                     "--two-g", str(two_g), *flags]
            docs = {}
            for mode in ("simple", "tbc"):
                assert run_cli("bounds", *shape, "--walk-mode", mode) \
                    == EXIT_OK
                docs[mode] = json.loads(capsys.readouterr().out)
            docs["tbc"]["walks"]["mode"] = "simple"
            assert docs["tbc"] == docs["simple"], shape
            cset = enumerate_cycles(BaseCode(gamma, kappa), two_g, "simple")
            closed = bounds.c4_block_dims(cset) == (gamma, kappa)
            certified = "delta_observed" in docs["simple"]["feasibility"]
            caps = docs["simple"].get("shift_caps", {})
            assert ("six_cycle_drift" in caps) is closed, shape
            assert ("condition_held" in caps) is certified, shape
            assert ("uniform_c4_regime" in docs["simple"]) is \
                (closed and full), shape


def test_bounds_writes_null_for_a_threshold_too_long_for_text(capsys):
    # 4x5 tbc 8-walks observe Delta = 2742, so threshold I's exact value
    # has about 9400 digits: its text is null, its float still written.
    code = run_cli("bounds", "--gamma", "4", "--kappa", "5", "--m", "1",
                   "--lifting", "34", "--two-g", "8", "--walk-mode", "tbc")
    assert code == EXIT_OK
    feas = json.loads(capsys.readouterr().out)["feasibility"]
    assert feas["delta_observed"] == 2742
    assert feas["threshold_i"] is None
    assert feas["threshold_i_float"] == 0.0001341891093236967
    assert feas["feasible"] is False


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
    assert "probs" in captured.err
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


def test_construct_leaves_no_argparse_garbage(tmp_path, capsys):
    # main reuses one parser: a parser built per call is a web of
    # reference cycles that only the cyclic collector frees.
    args = ["construct", "--gamma", "3", "--kappa", "4", "--m", "1",
            "--lifting", "8", "--seed", "7", "--out-dir"]
    assert run_cli(*args, str(tmp_path / "warm")) == EXIT_OK
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert run_cli(*args, str(tmp_path / "run")) == EXIT_OK
        gc.collect()
        left = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert not left


@pytest.mark.parametrize("two_g", ["8", "10"])
def test_enumerate_leaves_no_cyclic_garbage(two_g, tmp_path, capsys):
    # The walk search recurses through a module-level function with its
    # state in arguments, so it leaves nothing for the cyclic collector.
    args = ["enumerate", "--gamma", "3", "--kappa", "4", "--two-g", two_g,
            "--walk-mode", "tbc", "--out"]
    assert run_cli(*args, str(tmp_path / "warm.jsonl")) == EXIT_OK
    gc.disable()
    try:
        gc.collect()
        assert run_cli(*args, str(tmp_path / "run.jsonl")) == EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


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


@pytest.mark.parametrize("construction", ["two-stage", "joint"])
def test_construct_without_targets_records_no_cap(construction, tmp_path,
                                                  capsys):
    # A 1x4 base has no cycles: no stage has events, so none has a cap.
    code = run_cli("construct", "--gamma", "1", "--kappa", "4", "--m", "1",
                   "--lifting", "3", "--construction", construction,
                   "--seed", "1", "--out-dir", str(tmp_path))
    capsys.readouterr()
    assert code == EXIT_OK
    trace = json.loads((tmp_path / "trace.json").read_text())
    runs = ([trace["stage1"], trace["stage2"]]
            if construction == "two-stage" else [trace["trace"]])
    assert [run["max_resamples"] for run in runs] == [None] * len(runs)


@pytest.mark.parametrize("scheme", [["--m", "0"], ["--pattern", "2"],
                                    ["--pattern", "1"]])
def test_construct_two_stage_with_one_value_pattern(scheme, tmp_path,
                                                    capsys):
    # Stage 1 has no events, so no cap; stage 2's events are every target.
    code = run_cli("construct", "--gamma", "3", "--kappa", "4", *scheme,
                   "--lifting", "13", "--seed", "1",
                   "--out-dir", str(tmp_path))
    capsys.readouterr()
    assert code == EXIT_OK
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["stage1"]["per_event"] == {}
    assert trace["stage1"]["max_resamples"] is None
    assert set(trace["stage2"]["per_event"]) == {
        c.key for c in enumerate_cycles(BaseCode(3, 4), 4)}
    assert trace["targets"]["count"] == 18
    assert trace["girth"] >= 6


@pytest.mark.parametrize("construction, runs", [
    ("two-stage", ["stage1", "stage2"]), ("joint", ["trace"])])
def test_construct_trace_states_each_fact_once(construction, runs, tmp_path,
                                               capsys):
    # One record per stage, with MTTrace's fields, and the outcome both
    # constructions share; a survivor list is stage 2's events.
    code = run_cli("construct", "--gamma", "3", "--kappa", "4", "--m", "1",
                   "--lifting", "7", "--construction", construction,
                   "--seed", "1", "--out-dir", str(tmp_path))
    capsys.readouterr()
    assert code == EXIT_OK
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert set(trace) == {"construction", *runs, "tool_version", "seed",
                          "config", "targets", "girth", "active_targets",
                          "total_resamples", "terminated"}
    for run in runs:
        assert set(trace[run]) == {f.name for f in fields(MTTrace)}


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


def test_experiment_theorem2_reads_no_observables(capsys):
    # The default c6 observe spec matches nothing on two rows; theorem2
    # does not build it.
    code = run_cli("experiment", "--op", "theorem2", "--gamma", "2",
                   "--kappa", "4", "--m", "3", "--mode", "partition-only",
                   "--trials", "50", "--seed", "1")
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["trials"] == 50


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


def test_experiment_theorem2_failed_check_exits_1(fresh_compile, monkeypatch,
                                                 capsys):
    # test_experiment_theorem2_op's run, against a bound of 0 resamples.
    monkeypatch.setattr(bounds, "theorem2_resample_bound",
                        lambda *args: Fraction(0))
    code = run_cli("experiment", "--gamma", "3", "--kappa", "7", "--m", "1",
                   "--lifting", "34", "--mode", "joint", "--trials", "60",
                   "--seed", "2", "--op", "theorem2")
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == "0/1" and doc["passed"] is False
    assert code == EXIT_CHECK_FAILED


def test_export_parse_back_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(_instance_doc()))
    monkeypatch.setattr(cli, "parse_alist",
                        lambda text: SparseBinaryMatrix(0, 0, []))
    code = run_cli("export", str(instance), str(tmp_path / "x.alist"))
    assert code == EXIT_CHECK_FAILED
    assert capsys.readouterr().out == \
        "export-check: FAIL (parse-back mismatch)\n"


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--gamma", "3", "--kappa", "4", "--m", "1", "--out", "{dir}"],
     "is a directory"),
    (["bounds", "--gamma", "3", "--kappa", "3", "--m", "1",
      "--pattern", "0,1"], "m and pattern are mutually exclusive"),
    (["experiment", "--config", "{list_config}"],
     "experiment config must be a JSON object"),
    (["experiment", "--gamma", "3", "--kappa", "3"],
     "either m or pattern is required"),
    (["experiment", "--gamma", "3", "--kappa", "3", "--m", "1",
      "--sweep", "m"], "--sweep requires --sweep-values"),
    (["enumerate", "--gamma", "3", "--kappa", "3", "--rows", "5,6"],
     "row 5 is outside the base (0..2)"),
    (["enumerate", "--gamma", "3", "--kappa", "3", "--cols", "0,3"],
     "column 3 is outside the base (0..2)"),
    (["experiment", "--gamma", "2", "--kappa", "4", "--m", "3",
      "--mode", "partition-only", "--trials", "50", "--seed", "1"],
     "observe spec c6 matches no candidates"),
    (["experiment", "--op", "baseline", "--gamma", "2", "--kappa", "4",
      "--m", "3", "--mode", "partition-only", "--trials", "50",
      "--seed", "1"], "observe spec c6 matches no candidates"),
    (["experiment", "--config", "{window_config}"],
     "column 7 is outside the base (0..2)"),
    # The JSONL listing reads no scheme, so Z would be ignored silently.
    (["enumerate", "--gamma", "2", "--kappa", "2", "--lifting", "7"],
     "--m, --pattern, --probs, --length and --lifting need --probabilities"),
], ids=["out-is-a-directory", "m-with-pattern", "config-not-an-object",
        "no-scheme", "sweep-without-values", "enumerate-rows-outside",
        "enumerate-cols-outside", "shift-observes-nothing",
        "baseline-observes-nothing", "observe-window-outside",
        "enumerate-lifting-without-probabilities"])
def test_usage_errors_exit_2(argv, message, tmp_path, capsys):
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "window.json").write_text(json.dumps(
        {"gamma": 3, "kappa": 3, "m": 2, "mode": "partition-only",
         "trials": 5, "observe": [{"two_g": 6, "cols": [7, 8]}]}))
    paths = {"dir": tmp_path, "list_config": tmp_path / "list.json",
             "window_config": tmp_path / "window.json"}
    code = run_cli(*(arg.format(**paths) for arg in argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, seed", [
    (["construct", "--gamma", "2", "--kappa", "3", "--m", "1", "--lifting",
      "5", "--seed", "-1", "--out-dir", "{out}"], -1),
    (["experiment", "--op", "shift", "--gamma", "3", "--kappa", "3", "--m",
      "1", "--trials", "5", "--seed", "-3"], -3),
], ids=["construct", "experiment"])
def test_negative_seed_exits_2_naming_it(argv, seed, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(*(arg.format(out=out) for arg in argv))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == f"error: a seed must be a non-negative integer, got {seed}\n"
    assert not out.exists()


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


# ---------------------------------------------------------------------------
# CI workflow
# ---------------------------------------------------------------------------

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" \
    / "tests.yml"
_WORKFLOW_RUNS = [shlex.split(line.split(" -m scldpc ", 1)[1])
                  for line in WORKFLOW.read_text().splitlines()
                  if "python -S -m scldpc " in line]


def test_workflow_runs_the_cli():
    assert len(_WORKFLOW_RUNS) >= 1


@pytest.mark.parametrize("argv", _WORKFLOW_RUNS, ids=lambda argv: argv[0])
def test_workflow_cli_lines_parse(argv, capsys):
    # A renamed or removed flag fails here, not only in the workflow.
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{' '.join(argv)}: {capsys.readouterr().err}")
    assert args.command == argv[0]


def _workflow_step(name: str) -> list[str]:
    """The command lines of the workflow step ``name``'s ``run: |`` block."""
    lines = WORKFLOW.read_text().splitlines()
    at = next(n for n, line in enumerate(lines)
              if line.strip() == f"- name: {name}") + 1
    assert lines[at].strip() == "run: |"
    indent = len(lines[at]) - len(lines[at].lstrip())
    block = []
    for line in lines[at + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        if line.strip():
            block.append(line.strip())
    return block


def test_workflow_stdlib_step_runs(tmp_path):
    # The step as CI runs it, in order and under -S (no site-packages), on
    # this interpreter: every command exits 0, so the runtime needs nothing
    # beyond the standard library.
    root = WORKFLOW.parents[2]
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path))
    python = f"{shlex.quote(sys.executable)} -S "
    step = _workflow_step("Stdlib-only runtime")
    assert sum("python -S -m scldpc " in line for line in step) \
        == len(_WORKFLOW_RUNS)
    for line in step:
        proc = subprocess.run(line.replace("python -S ", python), shell=True,
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, f"{line}\n{proc.stderr}"

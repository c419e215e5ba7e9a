"""Golden outputs of the resampler, the experiment harness, the Monte
Carlo estimator and the CLI at fixed seeds.

Each library case hashes everything a run returns (assignments, every
MTTrace field, baseline hits, shift statistics, MC estimates).  The digests
were recorded before the event representation was unified, so any change to
draw order, event order, scopes or evaluation shows up here as a mismatch.
Each CLI case hashes the exit code and the bytes of every artifact the
command writes (instance.json, code.alist, trace.json, report JSON); those
digests were recorded before the stage rules (probability, cap, activity)
moved to one owner each.  The three two-stage digests that run at a
default, uncertified stage-1 cap (``construct_two_stage``,
``construct-two-stage``, ``experiment-shift-two-stage``) were re-recorded
when that cap became 0 (stage 1 is the initial draw alone); each equals
the earlier code run with that one rule replaced.  The five ``bounds``
digests besides 3x7 (every target certain, no candidates, an explicit
pattern, tbc 8-walks, six-cycles) were recorded before ``bounds`` read
the compiled joint stage instead of its own probabilities and Theorem 1
call.  The two ``bounds`` digests with a ``shift_caps`` condition
(``bounds-3x7-m1-z34``, ``bounds-3x4-pattern-z5``) were re-recorded when
that condition took its Delta from ``bounds.shift_delta``, the closed form
the shift study uses, instead of the closed form - 1; the report also
names that Delta and its source.  ``bounds-3x3-m1-tbc8-z2`` and
``bounds-3x5-m2-z7-c6`` were re-recorded when ``bounds`` wrote that
condition, its Delta and source for every family with a certificate, not
only the complete 4-cycle family; the added ``shift_caps`` keys are their
only change.  ``construct-two-stage-m0`` (memory 0:
stage 1 rejects every target and stage 2 lifts them all) was recorded
before stage 2 chose its survivors by the compiled partition forms
instead of a grid check.
Seven digests were re-recorded when ``run_mt`` became the Moser-Tardos
loop (redraw the least occurring event until none occurs) instead of
Moser's depth-first RESAMPLE recursion; each equals the earlier code run
with that one rule replaced.  ``run_stage_partition``, ``run_stage_lift``,
``run_joint`` and ``construct-two-stage-m0`` changed their assignments
(the two rules pick different events where the dependency graph is not
complete); ``construct_two_stage``, ``construct-two-stage`` and
``construct-joint`` changed only in ``wall_iterations``, which now equals
``total_resamples``.
The two stage runners return their values in the stage layout (one per
``base.edges``); their cases hash the grid ``stage_grid`` builds from
those values, the grid the runners returned when the digests were
recorded.
Seven digests were re-recorded when a trace came to state each fact once:
``MTTrace`` lost ``wall_iterations`` (a copy of ``total_resamples``) and
``metadata`` (the constant inner order, and stage 2's survivors, a copy of
its ``per_event`` keys), ``TwoStageReport`` lost ``survivor_keys`` and
``stage1_cleared``, and the two-stage ``trace.json`` its top-level
``survivors`` and ``stage1_cleared``.  For ``run_stage_partition``,
``run_stage_lift``, ``run_joint``, ``construct_two_stage`` (which now
hashes ``dataclasses.asdict`` of the report), ``construct-two-stage``,
``construct-two-stage-m0`` and ``construct-joint``, the earlier output with
those keys deleted equals the new one, and ``instance.json`` and
``code.alist`` are byte-identical; the one other change is
``construct-two-stage-m0``'s stage-1 ``max_resamples``, 0 before and null
now (stage 1 has no events there, so no cap).
Two digests were re-recorded when ``construct_two_stage`` came to take one
cap, ``max_resamples``, on its lift stage, and stage 1 always ran on its
compile's ``budget(0)``.  ``construct_two_stage``'s last case dropped its
explicit stage-1 cap of 200 and equals the earlier code's default call;
``estimate_mt_shift``'s two-stage ``cap=300`` case equals the earlier
code with the harness passing no stage-1 cap (``cap`` had capped both
stages there).
To print the current digests: ``python tests/test_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from scldpc import (BaseCode, CouplingScheme, ExperimentConfig,
                    StructureSpec, construct_two_stage, enumerate_cycles,
                    estimate_baseline, estimate_mt_shift, run_joint,
                    run_stage_lift, run_stage_partition)
from scldpc.cli import main
from helpers import HarmfulStructure, mc_structure_prob, stage_grid


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _c4_c6(base: BaseCode):
    return enumerate_cycles(base, 4).union(enumerate_cycles(base, 6))


def _partition():
    base = BaseCode(3, 5)
    scheme = CouplingScheme.uniform(1, lifting_degree=13)
    c4 = enumerate_cycles(base, 4)
    out = []
    for seed in range(4):
        a, t = run_stage_partition(base, scheme, c4, seed, 150)
        out.append([stage_grid(base, "partition", a).values,
                    dataclasses.asdict(t)])
    # Default cap (certified at m=3 on 2x3), and a non-uniform pattern.
    small = BaseCode(2, 3)
    for scheme in (CouplingScheme.uniform(3),
                   CouplingScheme((0, 2, 5), ("1/2", "1/3", "1/6"), 6)):
        a, t = run_stage_partition(small, scheme,
                                   enumerate_cycles(small, 4), 11)
        out.append([stage_grid(small, "partition", a).values,
                    dataclasses.asdict(t)])
    return out


def _lift():
    out = []
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(0, lifting_degree=5)
    flat = [0] * len(base.edges)
    c8 = enumerate_cycles(base, 8, "tbc")
    assert any(abs(c) == 2 for cand in c8 for _, c in cand.coeffs)
    for seed in range(3):
        a, t = run_stage_lift(base, scheme, flat, c8, seed, 400)
        out.append([stage_grid(base, "lift", a).values,
                    dataclasses.asdict(t)])
    base = BaseCode(3, 5)
    scheme = CouplingScheme.uniform(1, lifting_degree=11)
    targets = _c4_c6(base)
    part, _ = run_stage_partition(base, scheme, targets, 5, 100)
    for seed in range(3):
        a, t = run_stage_lift(base, scheme, part, targets, seed)
        out.append([stage_grid(base, "lift", a).values,
                    dataclasses.asdict(t)])
    return out


def _joint():
    out = []
    base = BaseCode(3, 4)
    for m, z in ((0, 13), (1, 9), (2, 4)):
        scheme = CouplingScheme.uniform(m, lifting_degree=z)
        targets = _c4_c6(base)
        for seed in range(2):
            inst, t = run_joint(base, scheme, targets, seed, 3000)
            out.append([inst.partition.values, inst.lift.values,
                        dataclasses.asdict(t)])
    return out


def _two_stage():
    out = []
    base = BaseCode(2, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    for seed in range(3):
        inst, rep = construct_two_stage(base, scheme,
                                        enumerate_cycles(base, 4), seed)
        out.append([inst.partition.values, inst.lift.values,
                    dataclasses.asdict(rep)])
    base = BaseCode(3, 5)
    scheme = CouplingScheme.uniform(1, lifting_degree=13)
    inst, rep = construct_two_stage(base, scheme, _c4_c6(base), 2)
    out.append([inst.partition.values, inst.lift.values,
                dataclasses.asdict(rep)])
    return out


def _config(**kw) -> ExperimentConfig:
    doc = dict(gamma=3, kappa=3, scheme=CouplingScheme.uniform(2),
               mode="partition-only", trials=200, seed=77,
               eliminate=StructureSpec(4), observe=(StructureSpec(6),))
    doc.update(kw)
    return ExperimentConfig(**doc)


def _baseline():
    cfgs = [
        _config(),
        _config(scheme=CouplingScheme.uniform(1, lifting_degree=3),
                mode="joint"),
        _config(scheme=CouplingScheme.uniform(0, lifting_degree=2),
                mode="joint", trials=100),
        _config(scheme=CouplingScheme.uniform(0), trials=50),
    ]
    return [dataclasses.asdict(estimate_baseline(c)) for c in cfgs]


def _shift():
    cfgs = [
        _config(trials=60),
        _config(scheme=CouplingScheme.uniform(1, lifting_degree=5),
                mode="joint", trials=40),
        # Disjoint window: null check; overlapping window: Wilson caps.
        _config(kappa=6, scheme=CouplingScheme.uniform(1, lifting_degree=8),
                mode="two-stage", trials=20, cap=300,
                eliminate=StructureSpec(4, cols=(0, 1, 2)),
                observe=(StructureSpec(4, cols=(3, 4, 5)),
                         StructureSpec(4, cols=(2, 3)))),
    ]
    return [dataclasses.asdict(estimate_mt_shift(c)) for c in cfgs]


def _mc():
    base = BaseCode(3, 4)
    c4 = enumerate_cycles(base, 4)
    c6 = enumerate_cycles(base, 6)
    struct = HarmfulStructure((c4[0], c4[1], c6[0]))
    out = []
    for z in (1, 2, 3):
        for m in (0, 1):
            scheme = CouplingScheme.uniform(m, lifting_degree=z)
            out.append(mc_structure_prob(struct, scheme, 300, 5 + z))
    return out


CASES = {
    "run_stage_partition": _partition,
    "run_stage_lift": _lift,
    "run_joint": _joint,
    "construct_two_stage": _two_stage,
    "estimate_baseline": _baseline,
    "estimate_mt_shift": _shift,
    "mc_structure_prob": _mc,
}

GOLDEN = {
    "construct_two_stage":
        "143106d9c11a628cec7259cb316396e72c952335a0a1a32cac96c6ae367bd727",
    "estimate_baseline":
        "0bb40ce5b8d1740bf5392acc7f4084d08598e008aff78b4168d498f71df129b9",
    "estimate_mt_shift":
        "2753a061e65d7f000583e2e50bd2e8215ec0734c91551b15fa7009d420b37118",
    "mc_structure_prob":
        "40bb4a63349faa5f3585e6723b960315fa725c8001817831675371e968b84675",
    "run_joint":
        "7a8acab61730d274c14b03847e67115524720ca574cac1265149d268f98d73b8",
    "run_stage_lift":
        "de915adf7ed3ad1cdc0fa9052d698b6af25a0bb729f0cf7a62685f687ceb5673",
    "run_stage_partition":
        "986a1a0c1fb310af541f0bca119e66654ca6b3dd64e83d8d474169e59733eee3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert _digest(CASES[name]()) == GOLDEN[name]


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------

def _cli_digest(out: Path, argv: list[str], artifacts: list[str]) -> str:
    """sha256 over the exit code and the bytes of each written artifact."""
    code = main(argv)
    h = hashlib.sha256(str(code).encode())
    for name in artifacts:
        data = (out / name).read_bytes()
        h.update(f"\n{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


_CONSTRUCT_FILES = ["instance.json", "code.alist", "trace.json"]
_EXPERIMENT = ["experiment", "--gamma", "3", "--kappa", "3", "--seed", "9"]


def _construct(construction: str, scheme: list[str]):
    def case(out: Path) -> str:
        argv = ["construct", "--gamma", "3", "--kappa", "5", *scheme,
                "--seed", "4", "--out-dir", str(out),
                "--construction", construction]
        return _cli_digest(out, argv, _CONSTRUCT_FILES)
    return case


def _bounds(gamma: int, kappa: int, *extra: str):
    def case(out: Path) -> str:
        argv = ["bounds", "--gamma", str(gamma), "--kappa", str(kappa),
                *extra, "--out", str(out / "bounds.json")]
        return _cli_digest(out, argv, ["bounds.json"])
    return case


def _experiment(op: str, mode: str, *extra: str):
    def case(out: Path) -> str:
        argv = [*_EXPERIMENT, "--op", op, "--mode", mode, *extra,
                "--out", str(out / "report.json")]
        return _cli_digest(out, argv, ["report.json"])
    return case


CLI_CASES = {
    "construct-two-stage": _construct("two-stage",
                                      ["--m", "1", "--lifting", "13"]),
    # Memory 0: every target is rejected at stage 1 and lifted as it is.
    "construct-two-stage-m0": _construct("two-stage",
                                         ["--m", "0", "--lifting", "13"]),
    "construct-joint": _construct("joint", ["--m", "1", "--lifting", "13",
                                            "--two-g", "6"]),
    "bounds-3x7-m1-z34": _bounds(3, 7, "--m", "1", "--lifting", "34"),
    # Every target certain to occur; no candidates; an explicit pattern;
    # tbc 8-walks; six-cycles.
    "bounds-3x4-m0": _bounds(3, 4, "--m", "0"),
    "bounds-1x4-m2": _bounds(1, 4, "--m", "2"),
    "bounds-3x4-pattern-z5": _bounds(3, 4, "--pattern", "0,2,5", "--probs",
                                     "1/2,1/4,1/4", "--lifting", "5"),
    "bounds-3x3-m1-tbc8-z2": _bounds(3, 3, "--m", "1", "--two-g", "8",
                                     "--walk-mode", "tbc", "--lifting", "2"),
    "bounds-3x5-m2-z7-c6": _bounds(3, 5, "--m", "2", "--lifting", "7",
                                   "--two-g", "6"),
    "experiment-shift-partition-only": _experiment(
        "shift", "partition-only", "--m", "2", "--trials", "40"),
    "experiment-shift-joint": _experiment(
        "shift", "joint", "--m", "1", "--lifting", "5", "--trials", "30"),
    "experiment-shift-two-stage": _experiment(
        "shift", "two-stage", "--m", "1", "--lifting", "7", "--trials", "20"),
    "experiment-baseline-partition-only": _experiment(
        "baseline", "partition-only", "--m", "2", "--trials", "100"),
    "experiment-baseline-joint": _experiment(
        "baseline", "joint", "--m", "1", "--lifting", "3", "--trials", "100"),
    "experiment-theorem2-partition-only": _experiment(
        "theorem2", "partition-only", "--m", "18", "--trials", "30"),
    "experiment-theorem2-joint": _experiment(
        "theorem2", "joint", "--m", "1", "--lifting", "13", "--trials", "30"),
}

GOLDEN_CLI = {
    "bounds-1x4-m2":
        "9531fccfb9e0e3ed7fe5fadb21d47b34863adc93d76e9330c0fc98f3afbdc54c",
    "bounds-3x3-m1-tbc8-z2":
        "8344518de31567d1ce47d0990dd10b1d2eee1a9a87480436f421ddb28cbda830",
    "bounds-3x4-m0":
        "abdd53dfaa1be3b5a221fab9c56ecda007623c625a2ade99cf38f8f9527165d8",
    "bounds-3x4-pattern-z5":
        "320f9d8719cc9c31f33fd8b5857c14f9ae3fd8a18752cd725541044ec8bd8892",
    "bounds-3x5-m2-z7-c6":
        "f2f5c7a149235594936b9b2b1246523c666909d9948720b28dbfe13a01fa81c3",
    "bounds-3x7-m1-z34":
        "f0340a6e8b73b541f01648f805569f349596d3f3f8fb41b7ac6bd0763d8093a2",
    "construct-joint":
        "df974304ec4023fdffc5d786573b2bd589f2f1a544b5340577251bcfe64208a0",
    "construct-two-stage":
        "34a777cc75b890b427e2165dfa874d5a85f3ddba54ea26f8a14d0200bcca7245",
    "construct-two-stage-m0":
        "5b21b8e4e5455572915d842397d3dec4ccd7a433fa7a25c3b33e4effc62c348f",
    "experiment-baseline-joint":
        "57044272025cc2d65187681916d458c710712bf39fdcbbd13f0f5aa43e6f559d",
    "experiment-baseline-partition-only":
        "181b5a0e3a2efd3f09bb78e4a4bc03885e076c65c78db51ac1c7be0b7008dba3",
    "experiment-shift-joint":
        "c5d3edfeffa549191597e3a9b17ae198d4d9dc6c4a20c910fd452dda341db986",
    "experiment-shift-partition-only":
        "6758d6cc9786af75816b33447230238a386e927d0ce66e2831269335bb66a7de",
    "experiment-shift-two-stage":
        "77407d4d2d96515748273fc874588ca55955b6b0ce9c9c01e0161505da779aa4",
    "experiment-theorem2-joint":
        "c74debbce78b142952c77e6a9685d2a75fc25690b44b9741ae5793e1d70ae754",
    "experiment-theorem2-partition-only":
        "29c1ac8ccd729dde2c63ce4e6834a4717e82b949f4afe42a88c8a42894b8d9d6",
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_golden_cli_digest(name, tmp_path, capsys):
    assert CLI_CASES[name](tmp_path) == GOLDEN_CLI[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(CASES[name]())}",')
    for name in sorted(CLI_CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{name}":\n        "{CLI_CASES[name](Path(tmp))}",')

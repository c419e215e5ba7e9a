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
call.
To print the current digests: ``python tests/test_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from scldpc import (Assignment, BaseCode, CouplingScheme, ExperimentConfig,
                    HarmfulStructure, StructureSpec, construct_two_stage,
                    enumerate_cycles, estimate_baseline, estimate_mt_shift,
                    mc_structure_prob, run_joint, run_stage_lift,
                    run_stage_partition)
from scldpc.cli import main


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
        out.append([a.values, dataclasses.asdict(t)])
    # Default cap (certified at m=3 on 2x3), and a non-uniform pattern.
    small = BaseCode(2, 3)
    for scheme in (CouplingScheme.uniform(3),
                   CouplingScheme((0, 2, 5), ("1/2", "1/3", "1/6"), 6)):
        a, t = run_stage_partition(small, scheme,
                                   enumerate_cycles(small, 4), 11)
        out.append([a.values, dataclasses.asdict(t)])
    return out


def _lift():
    out = []
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(0, lifting_degree=5)
    flat = Assignment.from_dict("partition", {e: 0 for e in base.edges},
                                3, 3)
    c8 = enumerate_cycles(base, 8, "tbc")
    assert any(abs(c) == 2 for cand in c8 for _, c in cand.coeffs)
    for seed in range(3):
        a, t = run_stage_lift(base, scheme, flat, c8, seed, 400)
        out.append([a.values, dataclasses.asdict(t)])
    base = BaseCode(3, 5)
    scheme = CouplingScheme.uniform(1, lifting_degree=11)
    targets = _c4_c6(base)
    part, _ = run_stage_partition(base, scheme, targets, 5, 100)
    for seed in range(3):
        a, t = run_stage_lift(base, scheme, part, targets, seed)
        out.append([a.values, dataclasses.asdict(t)])
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
    inst, rep = construct_two_stage(base, scheme, _c4_c6(base), 2,
                                    stage1_max=200)
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
        "66b2bb9ecf7a1bd81fa49aa7d3b1f2b50caa35d26b1a99b6f0fd33709e352cec",
    "estimate_baseline":
        "0bb40ce5b8d1740bf5392acc7f4084d08598e008aff78b4168d498f71df129b9",
    "estimate_mt_shift":
        "afed2613d6d362640c2ceee892a1abc09d533f20ed175230c5b10b16a6e06f4a",
    "mc_structure_prob":
        "40bb4a63349faa5f3585e6723b960315fa725c8001817831675371e968b84675",
    "run_joint":
        "552d1b736374a779506234b975abf5d7016a5a6a677c7ad95e2b2d825d61a62f",
    "run_stage_lift":
        "b5d5deafea9900cac2ca31176b222092a9b967b85acbb956279bb19e0115e13f",
    "run_stage_partition":
        "aea12a3a4524a9f8507dee5cf83ab9a34614e357bc54f80f0b57fabc96e52d22",
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
        "471e08c76df6790a59ca2aac380d23e0b51c148d89525d3b69fd0b4b7276166a",
    "bounds-3x4-m0":
        "abdd53dfaa1be3b5a221fab9c56ecda007623c625a2ade99cf38f8f9527165d8",
    "bounds-3x4-pattern-z5":
        "5cdb2c75633bc8e4ac1dcfc54123cfb5115a81ace26282a417605ccb3c5343c5",
    "bounds-3x5-m2-z7-c6":
        "0cf60c583a5c0876ad45645ba3cc6862b6aa5a7078bddc579c5adc85a8ca8d81",
    "bounds-3x7-m1-z34":
        "dcac6e3f9f1838e0df199c4ba82b0d7ad19330be48502e6f772ada0a37011f97",
    "construct-joint":
        "9f1b78b3c240a53c724ffc834da7648637abfd4d759dcd23f34114d889ba9f70",
    "construct-two-stage":
        "3a1206fbfd817bac9eceb45176e8dcedb2ebc17c685277ce67190170c86c7944",
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

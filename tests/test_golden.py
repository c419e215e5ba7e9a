"""Golden outputs of the resampler, the experiment harness and the Monte
Carlo estimator at fixed seeds.

Each case hashes everything a run returns (assignments, every MTTrace
field, baseline hits, shift statistics, MC estimates).  The digests were
recorded before the event representation was unified, so any change to
draw order, event order, scopes or evaluation shows up here as a mismatch.
To print the current digests: ``python tests/test_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from scldpc import (Assignment, BaseCode, CouplingScheme, ExperimentConfig,
                    HarmfulStructure, StructureSpec, construct_two_stage,
                    enumerate_cycles, estimate_baseline, estimate_mt_shift,
                    mc_structure_prob, run_joint, run_stage_lift,
                    run_stage_partition)


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
        "7da432bd81f1ff151a80899355da59d351fc4b6dbcf42d2a1bd0294bde4bc02e",
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


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(CASES[name]())}",')

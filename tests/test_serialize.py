from __future__ import annotations

import json
from fractions import Fraction

import pytest

from scldpc import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    export_instance_json, import_instance_json)


def _instance() -> CodeInstance:
    base = BaseCode(2, 3, mask=((1, 1, 1), (1, 0, 1)))
    scheme = CouplingScheme((0, 2), (Fraction(1, 3), Fraction(2, 3)), 4, 5)
    partition = Assignment.from_dict(
        "partition", {e: [0, 2][k % 2] for k, e in enumerate(base.edges)},
        2, 3)
    lift = Assignment.from_dict(
        "lift", {e: (3 * k) % 5 for k, e in enumerate(base.edges)}, 2, 3)
    return CodeInstance(base, scheme, partition, lift, seed=99)


def test_roundtrip_preserves_everything():
    inst = _instance()
    text = export_instance_json(inst)
    back = import_instance_json(text)
    assert back.base == inst.base
    assert back.scheme == inst.scheme
    assert back.partition == inst.partition
    assert back.lift == inst.lift
    assert back.seed == 99
    # exact fractions survive the trip
    assert back.scheme.probs == (Fraction(1, 3), Fraction(2, 3))


def test_export_is_deterministic_text():
    inst = _instance()
    assert export_instance_json(inst) == export_instance_json(inst)
    assert export_instance_json(inst).endswith("\n")


def test_rejects_unknown_schema_version():
    doc = json.loads(export_instance_json(_instance()))
    # true and 1.0 equal 1 in Python, but are not the integer 1.
    for version in (999, True, 1.0):
        doc["version"] = version
        with pytest.raises(ValueError, match="unsupported schema version"):
            import_instance_json(json.dumps(doc))


def test_rejects_missing_field():
    doc = json.loads(export_instance_json(_instance()))
    del doc["partition"]
    with pytest.raises(ValueError):
        import_instance_json(json.dumps(doc))


def test_rejects_garbage():
    with pytest.raises(ValueError):
        import_instance_json("not json at all {")
    with pytest.raises(ValueError):
        import_instance_json("[1, 2, 3]")


def _corrupt(path: str, value) -> str:
    """The instance document with one field (or one cell, for a
    ``name.row.col`` path) replaced by ``value``."""
    doc = json.loads(export_instance_json(_instance()))
    name, *cell = path.split(".")
    if cell:
        doc[name][int(cell[0])][int(cell[1])] = value
    else:
        doc[name] = value
    return json.dumps(doc)


# Each non-integer is named; the grid cases were read truncated (0.9 as 0,
# 3.7 as 3) and the masked-out values accepted.
MALFORMED = [
    ("gamma", 2.0, "gamma"),
    ("Z", "5", "Z"),
    ("L", True, "L"),
    ("pattern", [0, 2.0], "pattern"),
    ("mask.0.1", 0.9, "mask"),
    ("partition.0.0", 0.9, "partition"),
    ("lift.0.1", 3.7, "lift"),
    ("partition", "0,2", "partition"),
    ("seed", 1.5, "seed"),
    ("probs", [0.5, 0.5], "probs"),
    ("probs", ["1/0", "1/1"], "probs"),
    ("partition.1.1", 7, "masked-out"),
    ("lift.1.1", 3, "masked-out"),
]


@pytest.mark.parametrize("path, value, named", MALFORMED)
def test_rejects_malformed_fields(path, value, named):
    with pytest.raises(ValueError, match=named):
        import_instance_json(_corrupt(path, value))


@pytest.mark.parametrize("stage", ["partition", "lift"])
def test_instance_rejects_values_off_the_mask(stage):
    inst = _instance()
    grids = {"partition": inst.partition, "lift": inst.lift}
    values = [list(row) for row in grids[stage].values]
    values[1][1] = 0  # (1, 1) is masked out
    grids[stage] = Assignment(stage, tuple(map(tuple, values)))
    with pytest.raises(ValueError, match="masked-out"):
        CodeInstance(inst.base, inst.scheme, grids["partition"],
                     grids["lift"])

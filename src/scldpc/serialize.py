"""Lossless JSON serialization of code instances.

The schema is versioned and deliberately small: everything needed to rebuild
the lifted matrix bit for bit, plus the seed that produced the instance.
Rationals are encoded as "num/den" strings so nothing is ever rounded.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .model import Assignment, BaseCode, CodeInstance, CouplingScheme

SCHEMA_VERSION = 1


def _frac_str(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def export_instance_json(instance: CodeInstance) -> str:
    doc = {
        "version": SCHEMA_VERSION,
        "tool_version": __version__,
        "gamma": instance.base.gamma,
        "kappa": instance.base.kappa,
        "mask": [list(row) for row in instance.base.mask],
        "pattern": list(instance.scheme.pattern),
        "probs": [_frac_str(p) for p in instance.scheme.probs],
        "L": instance.scheme.coupling_length,
        "Z": instance.scheme.lifting_degree,
        "partition": [list(row) for row in instance.partition.values],
        "lift": [list(row) for row in instance.lift.values],
        "seed": instance.seed,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def _check_ints(name: str, value: object, depth: int,
                holes: bool = False) -> None:
    """``value`` must be an integer, or lists nested ``depth`` deep around
    integers; null stands in for an integer when ``holes``."""
    if depth:
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        for v in value:
            _check_ints(name, v, depth - 1, holes)
    elif not (holes and value is None) and (
            isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{name}: {value!r} is not an integer")


def import_instance_json(text: str) -> CodeInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    required = ("gamma", "kappa", "mask", "pattern", "probs", "L", "Z",
                "partition", "lift")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    for name, depth in (("gamma", 0), ("kappa", 0), ("L", 0), ("Z", 0),
                        ("pattern", 1), ("mask", 2), ("partition", 2),
                        ("lift", 2), ("seed", 0)):
        _check_ints(name, doc.get(name), depth,
                    holes=name in ("partition", "lift", "seed"))
    probs = doc["probs"]
    if not isinstance(probs, list) or not all(isinstance(p, str)
                                              for p in probs):
        raise ValueError(f"probs must be a list of strings, got {probs!r}")
    try:
        probs = tuple(map(Fraction, probs))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"probs: {exc}") from None
    base = BaseCode(doc["gamma"], doc["kappa"],
                    tuple(tuple(row) for row in doc["mask"]))
    scheme = CouplingScheme(tuple(doc["pattern"]), probs, doc["L"], doc["Z"])
    partition = Assignment("partition",
                           tuple(tuple(row) for row in doc["partition"]))
    lift = Assignment("lift", tuple(tuple(row) for row in doc["lift"]))
    return CodeInstance(base, scheme, partition, lift, doc.get("seed"))

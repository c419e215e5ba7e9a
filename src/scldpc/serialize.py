"""Lossless JSON serialization of code instances.

The schema is versioned and deliberately small: everything needed to rebuild
the lifted matrix bit for bit, plus the seed that produced the instance.
Rationals are encoded as "num/den" strings so nothing is ever rounded.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .model import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    frac_text)

SCHEMA_VERSION = 1


def code_params(gamma: int, kappa: int, scheme: CouplingScheme) -> dict:
    """The parameter block every document writes for a code: the base
    shape and the coupling scheme, probabilities as "num/den" text."""
    return {"gamma": gamma, "kappa": kappa,
            "pattern": list(scheme.pattern),
            "probs": [frac_text(p) for p in scheme.probs],
            "L": scheme.coupling_length, "Z": scheme.lifting_degree}


def export_instance_json(instance: CodeInstance) -> str:
    doc = {
        "version": SCHEMA_VERSION,
        "tool_version": __version__,
        **code_params(instance.base.gamma, instance.base.kappa,
                      instance.scheme),
        "mask": [list(row) for row in instance.base.mask],
        "partition": [list(row) for row in instance.partition.values],
        "lift": [list(row) for row in instance.lift.values],
        "seed": instance.seed,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def check_ints(name: str, value: object, depth: int,
                holes: bool = False) -> None:
    """``value`` must be an integer, or lists nested ``depth`` deep around
    integers; null stands in for an integer when ``holes``."""
    if depth:
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        for v in value:
            check_ints(name, v, depth - 1, holes)
    elif not (holes and value is None) and (
            isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{name}: {value!r} is not an integer")


def check_probs(name: str, value: object) -> tuple[Fraction, ...]:
    """``value`` must be a list of "num/den" strings; returns the rationals."""
    if not isinstance(value, list) or not all(isinstance(p, str)
                                              for p in value):
        raise ValueError(f'{name} must be a list of "num/den" strings, '
                         f"got {value!r}")
    try:
        return tuple(map(Fraction, value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def read_scheme(doc: dict) -> CouplingScheme:
    """The coupling scheme of a document, the reader of ``code_params``:
    ``m`` (uniform over 0..m) or ``pattern`` with ``probs`` (uniform when
    absent), ``L`` (null: memory + 1) and ``Z`` (default 1).  Both ``m``
    and ``pattern``, ``probs`` without ``pattern``, or neither is a
    ValueError naming the keys, as is a malformed value."""
    for name, depth in (("m", 0), ("pattern", 1), ("L", 0), ("Z", 0)):
        if name in doc:
            check_ints(name, doc[name], depth, holes=name == "L")
    if "m" in doc and "pattern" in doc:
        raise ValueError("m and pattern are mutually exclusive")
    if "probs" in doc and "pattern" not in doc:
        raise ValueError("probs needs pattern (m spreads uniformly)")
    if "m" not in doc and "pattern" not in doc:
        raise ValueError("either m or pattern is required")
    length, lifting = doc.get("L"), doc.get("Z", 1)
    if "m" in doc:
        return CouplingScheme.uniform(doc["m"], length, lifting)
    n = len(doc["pattern"])
    probs = (check_probs("probs", doc["probs"]) if "probs" in doc
             else (Fraction(1, n),) * n)
    return CouplingScheme(tuple(doc["pattern"]), probs, length, lifting)


def import_instance_json(text: str) -> CodeInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    required = ("gamma", "kappa", "mask", "pattern", "probs", "L", "Z",
                "partition", "lift")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    for name, depth in (("gamma", 0), ("kappa", 0), ("mask", 2),
                        ("partition", 2), ("lift", 2), ("seed", 0)):
        check_ints(name, doc.get(name), depth,
                    holes=name in ("partition", "lift", "seed"))
    base = BaseCode(doc["gamma"], doc["kappa"],
                    tuple(tuple(row) for row in doc["mask"]))
    scheme = read_scheme(doc)
    partition = Assignment("partition",
                           tuple(tuple(row) for row in doc["partition"]))
    lift = Assignment("lift", tuple(tuple(row) for row in doc["lift"]))
    return CodeInstance(base, scheme, partition, lift, doc.get("seed"))

"""The record types' methods behave as ``dataclasses.dataclass``'s.

Every record class in ``scldpc`` (``helpers.record_classes``) is compared
with a twin class that the standard library builds from the same fields
and frozenness.  Each test takes one instance of the class from a small
run of the whole pipeline and the twin instance holding the same field
values.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from scldpc import (BaseCode, CouplingScheme, ExperimentConfig, StructureSpec,
                    bounds, construct_two_stage, enumerate_cycles,
                    estimate_baseline, estimate_mt_shift, joint_prob,
                    verify_theorem2)
from scldpc.model import record
from scldpc.moser_tardos import compile_events
from scldpc.walks import dependency_degree
from helpers import record_classes

_RECORDS = record_classes()


def _frozen(cls: type) -> bool:
    return cls.__setattr__ is not object.__setattr__


def _gather(obj, found: dict) -> None:
    """Every record reachable from ``obj``, the first of each class."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        found.setdefault(type(obj), obj)
        for f in dataclasses.fields(obj):
            _gather(getattr(obj, f.name), found)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _gather(item, found)


@pytest.fixture(scope="module")
def samples() -> dict:
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    c4 = enumerate_cycles(base, 4)
    probs = [joint_prob(c, scheme).joint for c in c4]
    config = ExperimentConfig(
        gamma=3, kappa=4, scheme=scheme, mode="two-stage", trials=3, seed=2,
        eliminate=StructureSpec(4), observe=(StructureSpec(6),))
    found: dict = {}
    _gather([
        construct_two_stage(base, scheme, c4, 1),
        compile_events(c4, scheme, "partition"),
        joint_prob(c4[0], scheme),
        dependency_degree(c4),
        bounds.theorem1_feasibility(c4, probs),
        bounds.corollary1_check(3, 4, 1, 8),
        bounds.shift_bound_symmetric(Fraction(1, 64), 9, 2),
        bounds.corollary4_bound(3, 4, 6),
        estimate_baseline(config),
        estimate_mt_shift(config),
        verify_theorem2(config),
    ], found)
    return found


def _twin(cls: type) -> type:
    """The class ``dataclasses.dataclass`` builds from ``cls``'s fields."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)], frozen=_frozen(cls))


def _pair(cls: type, samples: dict) -> tuple[object, object, list]:
    """A sample record, its twin instance and their field values."""
    assert cls in samples, f"no sample {cls.__qualname__} in the run"
    obj = samples[cls]
    values = [getattr(obj, f.name) for f in dataclasses.fields(cls)]
    return obj, _twin(cls)(*values), values


def _outcome(fn):
    """What ``fn()`` gives: its result, or the class of what it raises."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 (the class is compared)
        return type(e)


def _message(make) -> str:
    """The text of the TypeError ``make()`` raises."""
    with pytest.raises(TypeError) as info:
        make()
    return str(info.value)


def _changed(obj):
    """A copy with its first field replaced by a fresh object."""
    other = copy.copy(obj)
    object.__setattr__(other, dataclasses.fields(obj)[0].name, object())
    return other


def test_every_record_class_is_sampled(samples):
    assert len(_RECORDS) >= 20
    assert [c for c in _RECORDS if c not in samples] == []


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__qualname__)
def test_construction_repr_and_fields(cls, samples, monkeypatch):
    obj, twin, values = _pair(cls, samples)
    # asdict copies each leaf; sharing them instead lets a leaf without
    # value equality (a compiled ``Sampler``) compare equal to itself.
    monkeypatch.setattr(copy, "deepcopy", lambda x, memo=None: x)
    names = [f.name for f in dataclasses.fields(cls)]
    assert repr(obj) == repr(twin)
    assert cls(*values) == obj
    assert cls(**dict(zip(names, values))) == obj
    assert dataclasses.replace(obj) == obj
    assert dataclasses.asdict(obj) == dataclasses.asdict(twin)
    assert dataclasses.astuple(obj) == dataclasses.astuple(twin)


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__qualname__)
def test_equality_and_hash(cls, samples):
    obj, twin, values = _pair(cls, samples)
    twin_copy = type(twin)(*values)
    for mine, theirs in ((obj, twin), (copy.copy(obj), twin_copy),
                         (_changed(obj), _changed(twin))):
        assert (obj == mine) == (twin == theirs)
        assert (obj != mine) == (twin != theirs)
    assert obj != twin and not obj == twin and twin != obj
    assert _outcome(lambda: hash(obj)) == _outcome(lambda: hash(twin))
    if not _frozen(cls):
        assert cls.__hash__ is None
    # A copy given other field values hashes those, not the hash its
    # original stored.
    assert (_outcome(lambda: hash(_changed(obj)) == hash(obj))
            == _outcome(lambda: hash(_changed(twin)) == hash(twin)))


def test_a_pickled_record_hashes_its_fields_in_another_process():
    # A str hashes differently under another hash seed, so a record's
    # stored hash must not travel in its pickle.
    dump = ("import pickle, sys; from scldpc import StructureSpec; "
            "spec = StructureSpec(6, 'tbc'); hash(spec); "
            "sys.stdout.buffer.write(pickle.dumps(spec))")
    load = ("import pickle, sys; from scldpc import StructureSpec; "
            "spec = pickle.loads(sys.stdin.buffer.read()); "
            "print(spec in {StructureSpec(6, 'tbc')})")
    pickled = subprocess.run(
        [sys.executable, "-c", dump], capture_output=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED="1")).stdout
    out = subprocess.run(
        [sys.executable, "-c", load], input=pickled, capture_output=True,
        check=True, env=dict(os.environ, PYTHONHASHSEED="2")).stdout
    assert out.strip() == b"True"


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__qualname__)
def test_assignment_and_deletion(cls, samples):
    obj, twin, _ = _pair(cls, samples)
    name = dataclasses.fields(cls)[0].name
    for rec in (copy.copy(obj), copy.copy(twin)):
        if _frozen(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                rec.not_a_field = None
        else:
            setattr(rec, name, None)
            assert getattr(rec, name) is None


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__qualname__)
def test_argument_errors(cls, samples):
    _, twin, values = _pair(cls, samples)
    required = [f for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING]
    if required:
        assert _message(cls) == _message(type(twin))
    assert (_message(lambda: cls(*values, None))
            == _message(lambda: type(twin)(*values, None)))
    first = dataclasses.fields(cls)[0].name
    assert (_message(lambda: cls(*values, **{first: values[0]}))
            == _message(lambda: type(twin)(*values, **{first: values[0]})))
    assert (_message(lambda: cls(*values, not_a_field=1))
            == _message(lambda: type(twin)(*values, not_a_field=1)))


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__qualname__)
def test_signature(cls):
    def params(c):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(_twin(cls))


@pytest.mark.parametrize("frozen", [False, True])
def test_a_required_field_after_a_defaulted_one_is_refused(frozen):
    # Python binds defaults to the last parameters, so accepted, R(5)
    # would give R(a=5, b=1).
    with pytest.raises(TypeError, match=r"record R: non-default argument "
                                        r"'b' follows default argument"):
        @record(frozen=frozen)
        class R:
            a: int = 1
            b: int


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("names", [(), ("a",)], ids=["no-field", "one-field"])
def test_records_of_no_field_and_one_field(names, frozen):
    # Two fields or more are read by one attrgetter; fewer, one at a time.
    mine = record(type("R", (), {"__annotations__": dict.fromkeys(names)}),
                  frozen=frozen)
    twin = dataclasses.make_dataclass("R", names, frozen=frozen)

    def facts(cls):
        ones = [1] * len(names)
        one = cls(*ones)
        return (repr(one), one == cls(*ones), one == cls(*[2] * len(names)),
                _outcome(lambda: hash(one)),
                _message(cls) if names else None,
                _message(lambda: cls(*ones, 9)),
                _message(lambda: cls(*ones, b=1)))

    assert facts(mine) == facts(twin)


@pytest.mark.parametrize("frozen", [False, True])
def test_a_default_factory_is_refused_at_decoration(frozen):
    # Accepted, it would make the field silently required and leave the
    # Field object as the class attribute.
    with pytest.raises(TypeError, match=r"record R: field 'b' has a "
                                        r"default_factory"):
        @record(frozen=frozen)
        class R:
            a: int
            b: list = dataclasses.field(default_factory=list)


def test_defaults_and_post_init():
    # A default and __post_init__, through the record's __init__; no record
    # field has a default factory (``record`` does not support one).
    assert not [(cls.__qualname__, f.name) for cls in _RECORDS
                for f in dataclasses.fields(cls)
                if f.default_factory is not dataclasses.MISSING]
    assert StructureSpec() == StructureSpec(4, "simple", None, None)
    assert StructureSpec(rows=(2, 0)).rows == (0, 2)
    assert BaseCode(2, 2).mask == ((1, 1), (1, 1))
    assert BaseCode.mask is None

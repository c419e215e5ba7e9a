"""One reader for a coupling scheme: ``serialize.read_scheme`` reads config
files, the CLI's scheme flags and instance.json alike."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scldpc import CouplingScheme, ExperimentConfig, StructureSpec
from scldpc.cli import EXIT_OK, EXIT_USAGE, build_parser, main, _scheme_from
from scldpc.experiments import MODES
from scldpc.serialize import code_params, read_scheme


@st.composite
def schemes(draw) -> CouplingScheme:
    pattern = sorted(draw(st.sets(st.integers(0, 30), min_size=1,
                                  max_size=6)))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(pattern),
                            max_size=len(pattern)))
    probs = tuple(Fraction(w, sum(weights)) for w in weights)
    length = draw(st.none() | st.integers(pattern[-1] + 1, 60))
    return CouplingScheme(tuple(pattern), probs, length,
                          draw(st.integers(1, 300)))


@settings(max_examples=100, deadline=None)
@given(scheme=schemes(), gamma=st.integers(1, 6), kappa=st.integers(1, 9))
def test_read_scheme_reads_what_code_params_writes(scheme, gamma, kappa):
    doc = json.loads(json.dumps(code_params(gamma, kappa, scheme)))
    assert read_scheme(doc) == scheme


@settings(max_examples=100, deadline=None)
@given(scheme=schemes(), gamma=st.integers(1, 6), kappa=st.integers(1, 9),
       mode=st.sampled_from(MODES), trials=st.integers(1, 10**5),
       seed=st.integers(0, 2**32), cap=st.none() | st.integers(0, 10**6))
def test_config_round_trip(scheme, gamma, kappa, mode, trials, seed, cap):
    cfg = ExperimentConfig(gamma, kappa, scheme, mode, trials, seed,
                           StructureSpec(4), (StructureSpec(6),), cap)
    doc = json.loads(json.dumps(cfg.to_json()))
    assert ExperimentConfig.from_json(doc) == cfg


def test_read_scheme_defaults():
    assert read_scheme({"m": 2}) == CouplingScheme.uniform(2)
    assert read_scheme({"m": 2, "L": None, "Z": 5}) == \
        CouplingScheme.uniform(2, 3, 5)
    assert read_scheme({"pattern": [0, 3], "L": 9}) == CouplingScheme(
        (0, 3), (Fraction(1, 2), Fraction(1, 2)), 9)


@pytest.mark.parametrize("key, message", [
    ("gamma", "missing fields: gamma"), ("kappa", "missing fields: kappa"),
    ("m", "either m or pattern is required"),
])
def test_from_json_names_a_missing_field(key, message):
    doc = {"gamma": 3, "kappa": 3, "m": 1}
    del doc[key]
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(doc)


# Each rejected scheme as an experiment config's keys and as the scheme
# flags of ``bounds``: both exit 2 with one message naming the keys.
REJECTED = [
    ({"m": 1, "pattern": [0, 1]}, ["--m", "1", "--pattern", "0,1"],
     "m and pattern are mutually exclusive"),
    ({"m": 1, "probs": ["9/10", "1/10"]}, ["--m", "1", "--probs", "9/10,1/10"],
     "probs needs pattern"),
    ({}, [], "either m or pattern is required"),
    ({"pattern": [0, 1], "probs": ["1/0", "1/1"]},
     ["--pattern", "0,1", "--probs", "1/0,1"], "probs: "),
    ({"pattern": [0, 1], "probs": ["1/1"]},
     ["--pattern", "0,1", "--probs", "1/1"],
     "probs length must match pattern length"),
    ({"pattern": [0, 2], "L": 2}, ["--pattern", "0,2", "--length", "2"],
     "coupling length must be at least memory + 1"),
    ({"m": -1}, ["--m", "-1"], "memory must be non-negative"),
    ({"m": 1, "Z": 0}, ["--m", "1", "--lifting", "0"],
     "lifting degree must be at least 1"),
]


@pytest.mark.parametrize("keys, flags, message", REJECTED,
                         ids=["m-with-pattern", "probs-without-pattern",
                              "no-scheme", "probs-not-rational",
                              "probs-length", "length-below-memory",
                              "negative-memory", "lifting-zero"])
def test_config_and_flags_reject_a_scheme_alike(keys, flags, message,
                                                tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gamma": 3, "kappa": 3, "trials": 5,
                                "seed": 1, "mode": "partition-only",
                                **keys}))
    from_config = main(["experiment", "--config", str(path)])
    config_err = capsys.readouterr().err
    from_flags = main(["bounds", "--gamma", "3", "--kappa", "3", *flags])
    captured = capsys.readouterr()
    assert from_config == from_flags == EXIT_USAGE
    assert captured.out == ""
    assert config_err == captured.err
    assert captured.err.startswith("error: ") and message in captured.err


def _experiment(cfg: dict, tmp_path, capsys) -> tuple[int, str]:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["experiment", "--config", str(path)])
    return code, capsys.readouterr().out


def test_config_pattern_without_probs_is_uniform(tmp_path, capsys):
    # Like --pattern without --probs; it used to exit 2.
    cfg = {"gamma": 3, "kappa": 3, "pattern": [0, 2], "Z": 3, "trials": 20,
           "seed": 1, "mode": "partition-only"}
    implicit = _experiment(cfg, tmp_path, capsys)
    explicit = _experiment({**cfg, "probs": ["1/2", "1/2"]}, tmp_path, capsys)
    assert implicit[0] == EXIT_OK and implicit == explicit
    flags = build_parser().parse_args(["bounds", "--gamma", "3", "--kappa",
                                       "3", "--pattern", "0,2",
                                       "--lifting", "3"])
    assert ExperimentConfig.from_json(cfg).scheme == _scheme_from(flags)


def test_m_flag_replaces_the_config_scheme(tmp_path, capsys):
    cfg = {"gamma": 3, "kappa": 3, "pattern": [0, 2],
           "probs": ["1/3", "2/3"], "trials": 5, "seed": 1,
           "mode": "partition-only"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path), "--m", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["pattern"] == [0, 1]
    assert doc["config"]["probs"] == ["1/2", "1/2"]

"""Stage rules against the per-stage code they replaced, and the harness
against the runners it calls.

``probability.stage_prob``, ``moser_tardos.stage_cap`` and
``walks.is_active`` each replaced copies in the stage runners, the
experiment harness and the CLI.  The old copies are kept below as oracles,
on c4, c6 and tbc 8-walks (coefficients +-2) under uniform, non-uniform and
one-value patterns.  The experiment harness owns no budget: its trials
must equal direct runner calls, and the runners' one-entry memos of
``compile_events`` and ``stage_cap`` must equal fresh computations.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from scldpc import (AdmissionError, Assignment, BaseCode, CandidateSet,
                    CouplingScheme, ExperimentConfig, StructureSpec,
                    construct_two_stage, default_cap, enumerate_cycles,
                    is_active_lift, is_active_partition, joint_prob,
                    lift_prob_exact, run_joint, run_stage_partition,
                    spreading_prob_exact)
from scldpc import experiments, walks
from scldpc.moser_tardos import FALLBACK_CAP, compile_events, stage_cap
from scldpc.probability import seed_sequence, stage_blocks, stage_prob
from scldpc.walks import is_active

SCHEMES = [
    CouplingScheme.uniform(1, lifting_degree=5),
    CouplingScheme.uniform(2, lifting_degree=4),
    CouplingScheme((0, 2, 5), (Fraction(1, 2), Fraction(1, 3),
                               Fraction(1, 6)), 6, 6),
    CouplingScheme.uniform(0, lifting_degree=3),
]
# Caps: uncertified (the flat fallback), certified in some stages only
# (joint but not lift at Z=29), and certified in every stage.
CAP_SCHEMES = [
    CouplingScheme.uniform(1, lifting_degree=5),
    CouplingScheme.uniform(1, lifting_degree=29),
    CouplingScheme.uniform(3, lifting_degree=61),
    CouplingScheme((0, 2, 5), (Fraction(1, 2), Fraction(1, 3),
                               Fraction(1, 6)), 6, 97),
    CouplingScheme.uniform(30, lifting_degree=101),
]


def _walk_sets() -> list[CandidateSet]:
    b34 = BaseCode(3, 4)
    tbc = enumerate_cycles(BaseCode(3, 3), 8, "tbc")
    assert any(abs(c) == 2 for cand in tbc for _, c in cand.coeffs)
    return [enumerate_cycles(b34, 4), enumerate_cycles(b34, 6), tbc]


def _old_stage_prob(cand, scheme, stage):
    """The stage runners' inline probability lists."""
    if stage == "partition":
        return spreading_prob_exact(cand, scheme)
    if stage == "lift":
        return lift_prob_exact(cand, scheme.lifting_degree)
    return joint_prob(cand, scheme).joint


def _old_candidate_prob(cand, config):
    """experiments._candidate_prob."""
    if config.mode == "partition-only":
        return spreading_prob_exact(cand, config.scheme)
    return joint_prob(cand, config.scheme).joint


def _old_is_active(cand, mode, partition, lift, z):
    """experiments._is_active and the CLI's inline conjunction."""
    if mode == "partition-only":
        return is_active_partition(cand, partition)
    return (is_active_partition(cand, partition)
            and is_active_lift(cand, lift, z))


def _config(scheme, mode, cap=None):
    return ExperimentConfig(3, 4, scheme, mode, 1, 0, StructureSpec(4),
                            (StructureSpec(6),), cap)


@pytest.mark.parametrize("scheme", SCHEMES, ids=range(len(SCHEMES)))
def test_stage_prob_equals_old_per_stage_choice(scheme):
    for cset in _walk_sets():
        for cand in cset:
            for stage in ("partition", "lift", "joint"):
                assert stage_prob(cand, scheme, stage) == \
                    _old_stage_prob(cand, scheme, stage)
            for mode in experiments.MODES:
                config = _config(scheme, mode)
                assert stage_prob(cand, scheme,
                                  experiments._stage(config)) == \
                    _old_candidate_prob(cand, config)


@pytest.mark.parametrize("scheme", CAP_SCHEMES, ids=range(len(CAP_SCHEMES)))
def test_stage_cap_equals_default_cap_over_old_list(scheme):
    for cset in _walk_sets():
        for stage in ("partition", "lift", "joint"):
            probs = [_old_stage_prob(c, scheme, stage) for c in cset]
            assert stage_cap(cset, scheme, stage) == \
                default_cap(cset, probs)


@pytest.mark.parametrize("cap", [None, 77])
@pytest.mark.parametrize("mode", experiments.MODES)
def test_run_trials_calls_the_runners_as_they_are(mode, cap, monkeypatch):
    # Z=61 certifies the lift stage (the partition stage is uncertified,
    # so stage 1 is one draw): each trial's lift cap is over its own
    # survivors, and the caps differ between trials.
    scheme = CouplingScheme.uniform(3, lifting_degree=61)
    config = ExperimentConfig(3, 4, scheme, mode, 8, 3, StructureSpec(4),
                              (StructureSpec(6),), cap)
    base, elim = config.base, StructureSpec(4).build(config.base)
    reports = []

    def recording_two_stage(*args):
        reports.append(construct_two_stage(*args))
        return reports[-1]

    monkeypatch.setattr(experiments, "construct_two_stage",
                        recording_two_stage)
    results, counts = experiments._run_trials(config, elim)

    expected, expected_counts = [], []
    for t in range(config.trials):
        seed_t = seed_sequence(config.seed, experiments.STREAM_TRIALS + t)
        if mode == "partition-only":
            partition, run = run_stage_partition(base, scheme, elim, seed_t,
                                                 cap)
            lift = None
        else:
            if mode == "joint":
                instance, run = run_joint(base, scheme, elim, seed_t, cap)
            else:
                instance, run = construct_two_stage(base, scheme, elim,
                                                    seed_t, cap, cap)
            partition, lift = instance.partition, instance.lift
        if run.terminated:
            expected.append((partition, lift))
            expected_counts.append(run.total_resamples)
    assert (results, counts) == (expected, expected_counts)

    assert len(reports) == (config.trials if mode == "two-stage" else 0)
    lift_caps = set()
    for _, report in reports:
        survivors = CandidateSet(base, tuple(
            c for c in elim if c.key in report.survivor_keys))
        want = cap if cap is not None else (
            stage_cap(survivors, scheme, "lift") if len(survivors) else None)
        assert report.lift_trace.max_resamples == want
        lift_caps.add(want)
    if mode == "two-stage" and cap is None:
        assert lift_caps != {stage_cap(elim, scheme, "lift")}


def test_two_stage_stage1_cap_is_the_certified_cap_or_zero():
    # Uncertified partition stage: the default stage 1 is the initial draw.
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    c4 = enumerate_cycles(base, 4)
    assert stage_cap(c4, scheme, "partition") == FALLBACK_CAP
    for seed in range(4):
        default = construct_two_stage(base, scheme, c4, seed)
        assert default == construct_two_stage(base, scheme, c4, seed,
                                               stage1_max=0)
        trace = default[1].partition_trace
        assert trace.total_resamples == 0 == trace.max_resamples
    # Certified partition stage: its own default cap.
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(18, lifting_degree=7)
    c4 = enumerate_cycles(base, 4)
    cap = stage_cap(c4, scheme, "partition")
    assert cap == 2000
    for seed in range(4):
        assert construct_two_stage(base, scheme, c4, seed) == \
            construct_two_stage(base, scheme, c4, seed, stage1_max=cap)


def _by_value(system):
    """``system`` with each block's sampler replaced by its arrays, so that
    two compiles compare equal when they draw alike."""
    return replace(system, blocks=tuple(
        (tuple(sampler.values), tuple(sampler.cum), mod)
        for sampler, mod in system.blocks))


def test_memos_equal_fresh_computations():
    scheme = CouplingScheme.uniform(3, lifting_degree=61)
    c4, c6, _ = _walk_sets()
    calls = [(c4, "partition"), (c4, "partition"), (c6, "partition"),
             (c6, "lift"), (c4, "lift"), (c4, "lift"), (c4, "partition"),
             (c6, "joint"), (c6, "joint")]
    compile_events.cache_clear()
    stage_cap.cache_clear()
    memo = [(_by_value(compile_events(cset, scheme, stage)),
             stage_cap(cset, scheme, stage)) for cset, stage in calls]
    assert compile_events.cache_info().hits == \
        stage_cap.cache_info().hits == 3
    for (cset, stage), got in zip(calls, memo):
        compile_events.cache_clear()
        stage_cap.cache_clear()
        assert got == (_by_value(compile_events(cset, scheme, stage)),
                       stage_cap(cset, scheme, stage))
    # An AdmissionError is not cached: it is raised on every call.
    one_value = CouplingScheme.uniform(0, lifting_degree=3)
    for _ in range(2):
        with pytest.raises(AdmissionError):
            compile_events(c4, one_value, "partition")


def _grid(stage, base, rng, high):
    return Assignment.from_dict(
        stage, {e: int(rng.integers(0, high)) for e in base.edges},
        base.gamma, base.kappa)


@pytest.mark.parametrize("z", [1, 2, 3])
def test_is_active_equals_old_conjunction(z):
    rng = np.random.default_rng(z)
    seen = set()
    for cset in _walk_sets():
        base = cset.base
        for _ in range(40):
            partition = _grid("partition", base, rng, 2)
            lift = _grid("lift", base, rng, z)
            for cand in cset:
                both = is_active(cand, partition, lift, z)
                assert both == _old_is_active(cand, "joint", partition,
                                              lift, z)
                alone = is_active(cand, partition)
                assert alone == _old_is_active(cand, "partition-only",
                                               partition, None, z)
                seen.update([both, alone])
    assert seen == {True, False}


def test_is_active_checks_lift_only_after_an_active_partition(monkeypatch):
    """Same calls, in the same order, as the old conjunction."""
    calls = []
    for name in ("is_active_partition", "is_active_lift"):
        fn = getattr(walks, name)
        monkeypatch.setattr(walks, name, lambda *a, _fn=fn, _n=name:
                            calls.append(_n) or _fn(*a))
    base = BaseCode(2, 2)
    cand = enumerate_cycles(base, 4)[0]
    zero = Assignment.from_dict("partition", {e: 0 for e in base.edges},
                                2, 2)
    spread = Assignment.from_dict(
        "partition", {e: int(e == (0, 1)) for e in base.edges}, 2, 2)
    assert is_active(cand, zero, zero, 3)
    assert calls == ["is_active_partition", "is_active_lift"]
    calls.clear()
    assert not is_active(cand, spread, zero, 3)
    assert calls == ["is_active_partition"]
    calls.clear()
    assert is_active(cand, zero)
    assert calls == ["is_active_partition"]


@pytest.mark.parametrize("stage", ["", "Joint", "two-stage", "partition "])
def test_unknown_stage_is_rejected(stage):
    scheme = CouplingScheme.uniform(1, lifting_degree=5)
    cand = enumerate_cycles(BaseCode(2, 2), 4)[0]
    with pytest.raises(ValueError, match="unknown stage"):
        stage_blocks(scheme, stage)
    with pytest.raises(ValueError, match="unknown stage"):
        stage_prob(cand, scheme, stage)

"""Stage rules against the per-stage code they replaced, and the harness
against the runners it calls.

``probability.stage_prob``, ``moser_tardos.stage_cap`` and
``walks.is_active`` each replaced copies in the stage runners, the
experiment harness and the CLI.  The old copies are kept below as oracles,
on c4, c6 and tbc 8-walks (coefficients +-2) under uniform, non-uniform and
one-value patterns.  The experiment harness owns no budget: its trials
must equal direct runner calls, counted as each finishes, with no earlier
trial's output kept alive.  A compiled stage owns its decisions:
``compile_events``' one-entry memo must equal fresh computations, its
``rejected`` targets are exactly those certain to occur, and its Theorem 1
certificate is computed only when a default budget or the harness reads
it.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scldpc import (AdmissionError, Assignment, BaseCode, CandidateSet,
                    CouplingScheme, ExperimentConfig, StructureSpec,
                    construct_two_stage, default_cap, enumerate_cycles,
                    is_active_lift, is_active_partition, joint_prob,
                    lift_prob_exact, run_joint, run_stage_lift,
                    run_stage_partition, spreading_prob_exact)
from scldpc import bounds, experiments, walks
from scldpc.moser_tardos import (FALLBACK_CAP, compile_events, run_mt,
                                 stage_cap)
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
    observe = StructureSpec(6).build(base).candidates
    reports = []

    def recording_two_stage(*args):
        reports.append(construct_two_stage(*args))
        return reports[-1]

    monkeypatch.setattr(experiments, "construct_two_stage",
                        recording_two_stage)
    hits, counts = experiments._run_trials(config, elim, observe)

    expected, expected_counts = [0] * len(observe), []
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
            for k, c in enumerate(observe):
                expected[k] += is_active(c, partition, lift,
                                         scheme.lifting_degree)
            expected_counts.append(run.total_resamples)
    assert (hits, counts) == (expected, expected_counts)

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


@pytest.mark.parametrize("mode", experiments.MODES)
def test_shift_harness_holds_no_earlier_trial_output(mode, monkeypatch):
    # While trial t runs, trial t-1's output may still be bound to the
    # loop's names; anything older must already be freed.
    scheme = CouplingScheme.uniform(3, lifting_degree=61)
    config = ExperimentConfig(3, 4, scheme, mode, 6, 3, StructureSpec(4),
                              (StructureSpec(6),))
    refs: list[list[weakref.ref]] = []  # per trial, its output grids

    def watched(runner):
        def run(*args):
            alive = [t for t, grids in enumerate(refs[:-1])
                     if any(r() is not None for r in grids)]
            assert not alive, f"outputs of trials {alive} are still alive"
            out, trace = runner(*args)
            grids = ([out] if isinstance(out, Assignment)
                     else [out.partition, out.lift])
            refs.append([weakref.ref(g) for g in grids])
            return out, trace
        return run

    for name in ("run_stage_partition", "run_joint", "construct_two_stage"):
        monkeypatch.setattr(experiments, name,
                            watched(getattr(experiments, name)))
    stats = experiments.estimate_mt_shift(config)
    assert len(refs) == stats.trials_ok == config.trials


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
    memo = [(_by_value(compile_events(cset, scheme, stage)),
             stage_cap(cset, scheme, stage)) for cset, stage in calls]
    # Three repeated compiles, and every stage_cap reads the stage just
    # compiled.
    assert compile_events.cache_info().hits == 3 + len(calls)
    for (cset, stage), got in zip(calls, memo):
        compile_events.cache_clear()
        assert got == (_by_value(compile_events(cset, scheme, stage)),
                       stage_cap(cset, scheme, stage))
    # A rejected system is cached like any other; run_mt raises on every
    # call.
    one_value = CouplingScheme.uniform(0, lifting_degree=3)
    compile_events.cache_clear()
    system = compile_events(c4, one_value, "partition")
    assert system.rejected == tuple(c.key for c in c4)
    for _ in range(2):
        assert compile_events(c4, one_value, "partition") is system
        with pytest.raises(AdmissionError):
            run_mt(system, 0)
        with pytest.raises(AdmissionError):
            run_stage_partition(c4.base, one_value, c4, 0)
    assert compile_events.cache_info().misses == 1


@pytest.fixture
def fresh_compile():
    """An empty compile memo before and after: a cached system keeps the
    certificate it computed, also under a monkeypatched Theorem 1."""
    compile_events.cache_clear()
    yield
    compile_events.cache_clear()


def test_certified_stage1_budget_at_the_fallback_value_is_kept(
        fresh_compile, monkeypatch):
    # A certified partition stage whose budget happens to equal
    # FALLBACK_CAP (1000 x a bound of 1000) keeps it: stage 1 is read off
    # the certificate, not off the cap's value.
    real = bounds.theorem1_feasibility

    def bound_1000(*args, **kwargs):
        return replace(real(*args, **kwargs), resample_bound=Fraction(1000))

    monkeypatch.setattr(bounds, "theorem1_feasibility", bound_1000)
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(18, lifting_degree=7)
    c4 = enumerate_cycles(base, 4)
    assert stage_cap(c4, scheme, "partition") == FALLBACK_CAP
    _, report = construct_two_stage(base, scheme, c4, 3)
    assert report.partition_trace.max_resamples == FALLBACK_CAP == 10 ** 6


def test_an_explicit_cap_costs_no_certificate(fresh_compile, monkeypatch):
    calls = []
    real = bounds.theorem1_feasibility
    monkeypatch.setattr(bounds, "theorem1_feasibility",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    c4 = enumerate_cycles(base, 4)
    partition, _ = run_stage_partition(base, scheme, c4, 0, 5)
    run_stage_lift(base, scheme, partition, c4, 1, 5)
    run_joint(base, scheme, c4, 2, 5)
    construct_two_stage(base, scheme, c4, 3, 5, 5)
    assert calls == []
    run_joint(base, scheme, c4, 2)  # the default cap reads the certificate
    assert len(calls) == 1


@st.composite
def _admission_cases(draw) -> tuple[CandidateSet, CouplingScheme]:
    """Every 4-, 6- or tbc 8-walk (avoidable or not) over a random masked
    base, a pattern of 1-3 values with random weights, and Z in 1..4."""
    gamma = draw(st.integers(2, 3))
    kappa = draw(st.integers(2, 4))
    cell = st.sampled_from((1, 1, 0)) if draw(st.booleans()) else st.just(1)
    mask = draw(st.lists(st.lists(cell, min_size=kappa, max_size=kappa),
                         min_size=gamma, max_size=gamma))
    base = BaseCode(gamma, kappa, mask=tuple(map(tuple, mask)))
    two_g, mode = draw(st.sampled_from([(4, "simple"), (6, "simple"),
                                        (8, "tbc")]))
    pattern = tuple(sorted(draw(st.sets(st.integers(0, 3), min_size=1,
                                        max_size=3))))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(pattern),
                            max_size=len(pattern)))
    scheme = CouplingScheme(pattern,
                            tuple(Fraction(w, sum(weights)) for w in weights),
                            pattern[-1] + 1, draw(st.integers(1, 4)))
    return enumerate_cycles(base, two_g, mode), scheme


@settings(max_examples=60, deadline=None)
@given(case=_admission_cases())
def test_rejected_are_the_targets_certain_to_occur(case):
    # Probabilities are positive and a closed walk's coefficients sum to
    # zero, so a target without forms, and only such a target, occurs
    # with probability 1.
    cset, scheme = case
    for stage in ("partition", "lift", "joint"):
        certain = tuple(c.key for c in cset
                        if stage_prob(c, scheme, stage) == 1)
        system = compile_events(cset, scheme, stage)
        assert system.rejected == certain
        if certain:
            with pytest.raises(AdmissionError) as err:
                run_mt(system, 0, 0)
            assert (err.value.labels, err.value.stage) == (certain, stage)
        else:
            run_mt(system, 0, 0)


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

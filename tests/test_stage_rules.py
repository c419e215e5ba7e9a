"""Stage rules against the per-stage code they replaced, and the harness
against the runners it calls.

``probability.stage_prob`` and the default budget each stage runner hands
to ``run_mt`` each replaced copies in the stage runners and the experiment
harness; the shift harness and the CLI's ``construct``/``verify`` decide
an output's activity with the stage compile (``probability.stage_forms``)
over the output's values in the stage layout (a stage runner's values as
returned, an instance's as ``moser_tardos.values_from_grids`` reads them
off its grids), where they used to check the grids walk by walk.  The
old copies are kept below as oracles, on c4, c6 and tbc 8-walks
(coefficients +-2) under uniform, non-uniform and one-value patterns.
The experiment harness owns no budget: its trials must equal direct
runner calls, counted as each finishes, with no earlier trial's output
kept alive.  A compiled stage owns
its decisions: ``compile_events``' two-entry memo must equal fresh
computations, hit on equal keys built apart and hold the whole target
sets across two-stage trials, its ``rejected`` targets are exactly those
certain to occur, and its Theorem 1 certificate is computed only when a
default budget or the harness reads it.  A run without a cap runs on its
compiled stage's ``budget()`` and records it, equal to the run with that
budget passed; a stage without events has no cap.  The two-stage pipeline
compiles the whole target set once and must agree with the rule it replaced (a
second compile of the targets with partition forms), and a second study
or construct on an equal set compares target sets a fixed number of
times, not once per trial, at memory 0 too.  Stage values stay in the
stage layout: the two-stage pipeline must equal stage 1's values fed to
stage 2, its instance must hold them on the base edges' cells, and a
partition-only study builds no grid.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scldpc import (AdmissionError, Assignment, BaseCode, CandidateSet,
                    CodeInstance, CouplingScheme, ExperimentConfig,
                    StructureSpec, construct_two_stage,
                    derive_child_seeds, enumerate_cycles,
                    is_active_lift, is_active_partition, joint_prob,
                    lift_prob_exact, run_joint, run_stage_lift,
                    run_stage_partition, spreading_prob_exact)
from scldpc import bounds, cli, experiments, moser_tardos
from scldpc.moser_tardos import (FALLBACK_CAP, TwoStageReport,
                                 compile_events, run_mt, values_from_grids)
from scldpc.probability import (recorded_seed, seed_sequence, stage_blocks,
                                stage_forms, stage_prob, vanish)
from helpers import default_cap, stage_grid

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
    """experiments._is_active and the CLI's inline conjunction: the walk
    checked on the output's grids."""
    if mode == "partition-only":
        return is_active_partition(cand, partition)
    return (is_active_partition(cand, partition)
            and is_active_lift(cand, lift, z))


class _Handed(Exception):
    """Raised by the ``run_mt`` stand-in; its one arg is the budget."""


def _budget(runner, *args):
    """The resample budget ``runner`` runs ``run_mt`` on, captured by a
    stand-in that returns at once (by raising): the cap it hands over, or
    the handed system's own ``budget()`` when it hands None."""
    def handed(system, seed, max_resamples=None):
        raise _Handed(system.budget() if max_resamples is None
                      else max_resamples)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moser_tardos, "run_mt", handed)
        with pytest.raises(_Handed) as got:
            runner(*args)
    return got.value.args[0]


def _stage_budget(cset, scheme, stage):
    """The default budget of ``stage``'s runner over ``cset``; an all-zero
    partition leaves every target alive for the lift stage."""
    base = cset.base
    if stage == "partition":
        return _budget(run_stage_partition, base, scheme, cset, 0)
    if stage == "lift":
        zero = [0] * len(base.edges)
        return _budget(run_stage_lift, base, scheme, zero, cset, 0)
    return _budget(run_joint, base, scheme, cset, 0)


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
    # The stage cap is the budget each runner hands to run_mt by default.
    for cset in _walk_sets():
        for stage in ("partition", "lift", "joint"):
            probs = [_old_stage_prob(c, scheme, stage) for c in cset]
            assert _stage_budget(cset, scheme, stage) == \
                default_cap(cset, probs)
        # An in-pattern grid, the top pattern value on edge (0,0) and the
        # bottom one elsewhere: none of the targets it clears survives, so
        # their lift stage has no events and no cap.
        base = cset.base
        lo, hi = scheme.pattern[0], scheme.pattern[-1]
        corner = Assignment.from_dict(
            "partition", {e: hi if e == (0, 0) else lo for e in base.edges},
            base.gamma, base.kappa)
        cleared = CandidateSet(base, tuple(
            c for c in cset if not is_active_partition(c, corner)))
        assert len(cleared)
        assert _budget(run_stage_lift, base, scheme,
                       values_from_grids(base, corner), cleared, 0) is None


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
            values, run = run_stage_partition(base, scheme, elim, seed_t,
                                              cap)
            partition, lift = stage_grid(base, "partition", values), None
        else:
            if mode == "joint":
                instance, run = run_joint(base, scheme, elim, seed_t, cap)
            else:
                instance, run = construct_two_stage(base, scheme, elim,
                                                    seed_t, cap)
            partition, lift = instance.partition, instance.lift
        if run.terminated:
            for k, c in enumerate(observe):
                expected[k] += _old_is_active(c, mode, partition, lift,
                                              scheme.lifting_degree)
            expected_counts.append(run.total_resamples)
    assert (hits, counts) == (expected, expected_counts)

    assert len(reports) == (config.trials if mode == "two-stage" else 0)
    lift_caps = set()
    for _, report in reports:
        survivors = CandidateSet(base, tuple(
            c for c in elim if c.key in report.lift_trace.per_event))
        want = cap if cap is not None else (
            default_cap(survivors, [_old_stage_prob(c, scheme, "lift")
                                    for c in survivors])
            if len(survivors) else None)
        assert report.lift_trace.max_resamples == want
        lift_caps.add(want)
    if mode == "two-stage" and cap is None:
        assert lift_caps != {default_cap(elim, [
            _old_stage_prob(c, scheme, "lift") for c in elim])}


@pytest.mark.parametrize("mode", experiments.MODES)
def test_shift_harness_holds_no_earlier_trial_output(mode, monkeypatch):
    # While trial t runs, trial t-1's output may still be bound to the
    # loop's names; anything older must already be freed.
    scheme = CouplingScheme.uniform(3, lifting_degree=61)
    config = ExperimentConfig(3, 4, scheme, mode, 6, 3, StructureSpec(4),
                              (StructureSpec(6),))
    # Per trial, its trace (or report), and its instance where the runner
    # returns one: a list of values cannot be weakly referenced.
    refs: list[list[weakref.ref]] = []

    def watched(runner):
        def run(*args):
            alive = [t for t, outs in enumerate(refs[:-1])
                     if any(r() is not None for r in outs)]
            assert not alive, f"outputs of trials {alive} are still alive"
            out, trace = runner(*args)
            outs = (trace,) if isinstance(out, list) else (out, trace)
            refs.append([weakref.ref(o) for o in outs])
            return out, trace
        return run

    for name in ("run_stage_partition", "run_joint", "construct_two_stage"):
        monkeypatch.setattr(experiments, name,
                            watched(getattr(experiments, name)))
    stats = experiments.estimate_mt_shift(config)
    assert len(refs) == stats.trials_ok == config.trials


def test_two_stage_stage1_cap_is_the_certified_cap_or_zero():
    # Uncertified partition stage: stage 1 is the initial draw.
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    c4 = enumerate_cycles(base, 4)
    assert _stage_budget(c4, scheme, "partition") == FALLBACK_CAP
    for seed in range(4):
        trace = construct_two_stage(base, scheme, c4, seed)[1].partition_trace
        assert trace == run_stage_partition(
            base, scheme, c4, derive_child_seeds(seed, 2)[0], 0)[1]
        assert trace.total_resamples == 0 == trace.max_resamples
    # Certified partition stage: its own budget.
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(18, lifting_degree=7)
    c4 = enumerate_cycles(base, 4)
    cap = _stage_budget(c4, scheme, "partition")
    assert cap == 2000
    for seed in range(4):
        trace = construct_two_stage(base, scheme, c4, seed)[1].partition_trace
        assert trace == run_stage_partition(
            base, scheme, c4, derive_child_seeds(seed, 2)[0], cap)[1]


@pytest.mark.parametrize("memory, lifting, stage1_cap", [
    (1, 8, 0), (18, 7, 2000), (0, 13, None)],
    ids=["uncertified", "certified", "no-events"])
def test_two_stage_max_resamples_caps_the_lift_stage_alone(
        memory, lifting, stage1_cap, tmp_path):
    # Stage 1 runs on its compile's budget(0) (no cap without events)
    # whatever the construction's cap is, 0 included; the cap is stage 2's,
    # and construct --max-resamples writes that same stage-1 cap.
    base = BaseCode(3, 3 if memory == 18 else 4)
    scheme = CouplingScheme.uniform(memory, lifting_degree=lifting)
    c4 = enumerate_cycles(base, 4)
    _, default = construct_two_stage(base, scheme, c4, 1)
    for cap in (0, 1, 5):
        _, report = construct_two_stage(base, scheme, c4, 1, cap)
        assert report.partition_trace == default.partition_trace
        assert report.partition_trace.max_resamples == stage1_cap
        assert report.lift_trace.max_resamples == cap
        out = tmp_path / str(cap)
        cli.main(["construct", "--gamma", "3", "--kappa",
                  str(base.kappa), "--m", str(memory), "--lifting",
                  str(lifting), "--seed", "1", "--out-dir", str(out),
                  "--max-resamples", str(cap)])
        trace = json.loads((out / "trace.json").read_text())
        assert trace["stage1"]["max_resamples"] == stage1_cap
        assert trace["stage2"]["max_resamples"] == cap


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
             _stage_budget(cset, scheme, stage)) for cset, stage in calls]
    # Three repeated compiles, the partition and joint runners read the
    # stage just compiled, and the lift runner reads the targets' partition
    # compile; it compiles its survivors outside the memo.
    assert compile_events.cache_info().hits == 12
    for (cset, stage), got in zip(calls, memo):
        compile_events.cache_clear()
        assert got == (_by_value(compile_events(cset, scheme, stage)),
                       _stage_budget(cset, scheme, stage))
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


def test_memo_keys_hash_as_their_fields():
    # The scheme and the target set hash once, to the dataclass hash of
    # their fields, so equal keys built apart share one compile.
    def build():
        scheme = CouplingScheme((0, 2, 5), ("1/2", "1/3", "1/6"), 6, 7)
        return scheme, enumerate_cycles(BaseCode(3, 4), 4)

    (s1, c1), (s2, c2) = build(), build()
    for a, b in ((s1, s2), (c1, c2)):
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(
            tuple(getattr(a, f.name) for f in fields(a)))
    compile_events.cache_clear()
    first = compile_events(c1, s1, "lift")
    assert compile_events(c2, s2, "lift") is first
    info = compile_events.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_two_stage_trials_compile_stage1_once():
    # The harness compiles the whole set first; then each trial's two-stage
    # call, stage 1 and stage 2 (to pick its survivors) read that compile.
    # The survivor sets differ per trial and stay out of the memo.
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    config = ExperimentConfig(3, 4, scheme, "two-stage", 12, 5,
                              StructureSpec(4), (StructureSpec(6),))
    elim = StructureSpec(4).build(config.base)
    compile_events.cache_clear()
    experiments._run_trials(config, elim)
    info = compile_events.cache_info()
    assert (info.misses, info.hits) == (1, 3 * config.trials)


def test_memory_0_trials_compile_both_whole_sets_once():
    # At memory 0 the partition compile rejects every target, so stage 1
    # runs on no targets: the memo holds the target set and the empty set,
    # and stage 2 reads the first to pick its survivors.
    scheme = CouplingScheme.uniform(0, lifting_degree=13)
    config = ExperimentConfig(3, 4, scheme, "two-stage", 10, 5,
                              StructureSpec(4), ())
    elim = StructureSpec(4).build(config.base)
    assert compile_events(elim, scheme, "partition").rejected
    compile_events.cache_clear()
    experiments._run_trials(config, elim)
    info = compile_events.cache_info()
    assert (info.misses, info.hits) == (2, 3 * config.trials - 1)
    for cset in (elim, CandidateSet(elim.base, ())):
        compile_events(cset, scheme, "partition")
    assert compile_events.cache_info().misses == 2


def _reference_two_stage(base, scheme, cset, seed, max_resamples):
    """The two-stage rule this package had before: stage 1 runs on the
    targets with partition forms (a second compile when some are
    rejected) on that set's certified cap or 0 (no cap without them), and
    stage 2 lifts the survivors among all targets."""
    forms = compile_events(cset, scheme, "partition").forms
    rest = CandidateSet(base, tuple(c for c, fs in zip(cset, forms) if fs))
    cap = default_cap(rest, [spreading_prob_exact(c, scheme) for c in rest],
                      uncertified=0) if len(rest) else None
    s1, s2 = derive_child_seeds(seed, 2)
    partition, trace1 = run_stage_partition(base, scheme, rest, s1, cap)
    lift, trace2 = run_stage_lift(base, scheme, partition, cset, s2,
                                  max_resamples)
    return (CodeInstance(base, scheme, stage_grid(base, "partition",
                                                  partition),
                         stage_grid(base, "lift", lift),
                         seed=recorded_seed(seed)),
            TwoStageReport(trace1, trace2))


def _outcome(construct, *args):
    """The construction, or the stage and labels of its AdmissionError."""
    try:
        return construct(*args)
    except AdmissionError as err:
        return err.stage, err.labels


@st.composite
def _two_stage_cases(draw) -> tuple[CandidateSet, CouplingScheme, int]:
    """Every 4-, 6- or tbc 8- to 12-walk (tbc 12 carries all-zero walks)
    over a random masked base, a pattern of 1-3 values, Z in 1..6 and a
    seed."""
    two_g, mode = draw(st.sampled_from([(4, "simple"), (6, "simple"),
                                        (8, "tbc"), (10, "tbc"),
                                        (12, "tbc")]))
    gamma = draw(st.integers(2, 3))
    kappa = draw(st.integers(2, 3 if two_g == 12 else 4))
    cell = st.sampled_from((1, 1, 0)) if draw(st.booleans()) else st.just(1)
    mask = draw(st.lists(st.lists(cell, min_size=kappa, max_size=kappa),
                         min_size=gamma, max_size=gamma))
    base = BaseCode(gamma, kappa, mask=tuple(map(tuple, mask)))
    pattern = tuple(sorted(draw(st.sets(st.integers(0, 3), min_size=1,
                                        max_size=3))))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(pattern),
                            max_size=len(pattern)))
    scheme = CouplingScheme(pattern,
                            tuple(Fraction(w, sum(weights)) for w in weights),
                            pattern[-1] + 1, draw(st.integers(1, 6)))
    return (enumerate_cycles(base, two_g, mode), scheme,
            draw(st.integers(0, 5)))


@settings(max_examples=80, deadline=None)
@given(case=_two_stage_cases())
@example(case=(enumerate_cycles(BaseCode(2, 3), 12, "tbc"),
               CouplingScheme.uniform(1, lifting_degree=4), 0))
@example(case=(enumerate_cycles(BaseCode(3, 3), 12, "tbc"),
               CouplingScheme.uniform(0, lifting_degree=5), 1))
def test_two_stage_equals_the_rule_with_a_second_compile(case):
    # A partition compile rejects a target only when the pattern has one
    # value (it rejects them all, and the rest is empty) or when all the
    # target's coefficients vanish: then it has no lift form either, and
    # stage 2 refuses the run whatever stage 1 drew.
    # Stage 2's cap is fixed (a lift stage that cannot clear its survivors
    # would run to FALLBACK_CAP); stage 1 keeps its default.
    cset, scheme, seed = case
    base = cset.base
    looked_up = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moser_tardos, "compile_events",
                   lambda c, *key: looked_up.append(c) or compile_events(
                       c, *key))
        compile_events.cache_clear()
        got = _outcome(construct_two_stage, base, scheme, cset, seed, 200)
    rejected = compile_events(cset, scheme, "partition").rejected
    # One compile of the targets, reached by identity; at most the empty
    # set besides.
    assert all(c is cset for c in looked_up if len(c))
    assert compile_events.cache_info().misses == 1 + bool(rejected)
    want = _outcome(_reference_two_stage, base, scheme, cset, seed, 200)
    if len(scheme.pattern) == 1 or not rejected:
        assert got == want
    else:
        assert got[0] == want[0] == "lift"
        zero = {c.key for c in cset if not c.avoidable}
        assert zero and zero <= set(got[1])


@settings(max_examples=60, deadline=None)
@given(case=_two_stage_cases())
def test_two_stage_is_its_stage_runners_in_the_stage_layout(case):
    # Stage 1's values go to stage 2 as the runner returned them; the
    # instance holds both stages' values on base.edges' cells, partition
    # first.  Stage 1 without events has no cap; stage 2's cap is fixed,
    # as above.
    cset, scheme, seed = case
    base = cset.base
    whole = compile_events(cset, scheme, "partition")
    stage1, cap = ((CandidateSet(base, ()), None) if whole.rejected
                   else (cset, whole.budget(0)))
    s1, s2 = derive_child_seeds(seed, 2)
    partition, trace1 = run_stage_partition(base, scheme, stage1, s1, cap)
    try:
        lift, trace2 = run_stage_lift(base, scheme, partition, cset, s2, 200)
    except AdmissionError as err:
        assert _outcome(construct_two_stage, base, scheme, cset, seed,
                        200) == (err.stage, err.labels)
        return
    instance, report = construct_two_stage(base, scheme, cset, seed, 200)
    assert report == TwoStageReport(trace1, trace2)
    assert instance == CodeInstance(
        base, scheme, stage_grid(base, "partition", partition),
        stage_grid(base, "lift", lift), seed=recorded_seed(seed))
    assert values_from_grids(base, instance.partition, instance.lift) == \
        partition + lift


def test_a_partition_only_study_builds_no_grid(monkeypatch):
    # Its trials read stage 1's values as the runner returns them.
    built = []
    init = Assignment.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Assignment, "__init__", counted)
    Assignment("partition", ((0,),))
    assert len(built) == 1
    config = ExperimentConfig(3, 3, CouplingScheme.uniform(18),
                              "partition-only", 40, 1, StructureSpec(4),
                              (StructureSpec(6),))
    assert experiments.estimate_mt_shift(config).trials_ok == 40
    assert len(built) == 1


def _equal_set_comparisons(monkeypatch, run) -> int:
    """``CandidateSet.__eq__`` calls made by ``run()``."""
    calls = []
    real = CandidateSet.__eq__
    with monkeypatch.context() as mp:
        mp.setattr(CandidateSet, "__eq__",
                   lambda a, b: calls.append(1) or real(a, b))
        run()
    return len(calls)


@pytest.mark.parametrize("mode, m", [
    *(pytest.param(mode, 3, id=mode) for mode in experiments.MODES),
    *(pytest.param(mode, 0, id=f"{mode}-m0")
      for mode in ("joint", "two-stage"))])
def test_a_second_equal_study_compares_target_sets_a_fixed_number_of_times(
        mode, m, monkeypatch, fresh_compile):
    # Each study builds its own eliminate set; the first compile keeps the
    # set it was given, and every trial then reaches it by identity (at
    # memory 0, every two-stage trial runs stage 1 on the base's one empty
    # set).  Memory 0 rejects every partition-only target.
    scheme = CouplingScheme.uniform(m, lifting_degree=61)
    counts = []
    for trials in (4, 12):
        config = ExperimentConfig(3, 4, scheme, mode, trials, 3,
                                  StructureSpec(4), (StructureSpec(6),))
        experiments.estimate_mt_shift(config)
        counts.append(_equal_set_comparisons(
            monkeypatch, lambda: experiments.estimate_mt_shift(config)))
    assert counts[0] == counts[1] <= 3


@pytest.mark.parametrize("m", [0, 1])
def test_a_second_equal_construct_compares_target_sets_a_fixed_number_of_times(
        m, monkeypatch, fresh_compile):
    # The call compares its own set with the memoised one once, then runs
    # both stages on the compile's set (at memory 0, stage 1 on the base's
    # one empty set, reached by identity).
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(m, lifting_degree=13)
    first = enumerate_cycles(base, 4)
    construct_two_stage(base, scheme, first, 0)
    again = enumerate_cycles(base, 4)
    assert again == first and again is not first
    assert _equal_set_comparisons(
        monkeypatch,
        lambda: construct_two_stage(base, scheme, again, 1)) == 1


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
    assert _stage_budget(c4, scheme, "partition") == FALLBACK_CAP
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
    assert calls == []
    # Stage 1 always runs on its budget(0): a capped two-stage run reads
    # its certificate alone, as construct --max-resamples does.
    construct_two_stage(base, scheme, c4, 3, 5)
    assert len(calls) == 1
    run_joint(base, scheme, c4, 2)  # the default cap reads the certificate
    assert len(calls) == 2


def test_a_failing_certificate_is_not_an_uncertified_one(fresh_compile,
                                                         monkeypatch):
    # A stage with targets and none rejected always gets Theorem 1's
    # verdict, so an error there is raised instead of becoming the
    # FALLBACK_CAP budget.
    def broken(*args, **kwargs):
        raise ValueError("broken bound")

    monkeypatch.setattr(bounds, "theorem1_feasibility", broken)
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    with pytest.raises(ValueError, match="broken bound"):
        run_joint(base, scheme, enumerate_cycles(base, 4), 2)


def test_no_targets_or_a_rejected_one_is_no_certificate(fresh_compile,
                                                        monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("Theorem 1 evaluated")

    monkeypatch.setattr(bounds, "theorem1_feasibility", unreachable)
    base = BaseCode(3, 4)
    empty = compile_events(CandidateSet(base, ()),
                           CouplingScheme.uniform(1), "joint")
    assert empty.certificate is None
    memory0 = compile_events(enumerate_cycles(base, 4),
                             CouplingScheme.uniform(0), "partition")
    assert memory0.rejected and memory0.certificate is None


# A run its probe cap does not finish is left out where the budget passes
# this: an uncertified stage would spend its 10**6 resamples.
_BUDGET_PROBE, _PROBED_BUDGET = 400, 10_000


@st.composite
def _budget_cases(draw) -> tuple[CandidateSet, CouplingScheme, int]:
    """Every 4-, 6- or tbc 8-walk over a random masked 3x3 to 3x5 base, a
    pattern of 1-3 values, Z in 1..13 and a seed."""
    two_g, mode = draw(st.sampled_from([(4, "simple"), (6, "simple"),
                                        (8, "tbc")]))
    kappa = draw(st.integers(3, 5))
    cell = st.sampled_from((1, 1, 1, 0)) if draw(st.booleans()) \
        else st.just(1)
    mask = draw(st.lists(st.lists(cell, min_size=kappa, max_size=kappa),
                         min_size=3, max_size=3))
    base = BaseCode(3, kappa, mask=tuple(map(tuple, mask)))
    pattern = tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=1,
                                        max_size=3))))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(pattern),
                            max_size=len(pattern)))
    scheme = CouplingScheme(pattern,
                            tuple(Fraction(w, sum(weights)) for w in weights),
                            pattern[-1] + 1, draw(st.integers(1, 13)))
    return (enumerate_cycles(base, two_g, mode), scheme,
            draw(st.integers(0, 5)))


@settings(max_examples=60, deadline=None)
@given(case=_budget_cases())
@example(case=(enumerate_cycles(BaseCode(2, 3), 4),
               CouplingScheme.uniform(1, lifting_degree=5), 0))
def test_each_runner_defaults_to_its_stage_budget(case):
    # Without a cap a runner runs on its compiled stage's budget (stage 2:
    # its survivors' compile) and records it, and the run equals the one
    # with that budget passed.  Stage 2 lifts the survivors of a partition
    # spread over the pattern.
    cset, scheme, seed = case
    base, pattern = cset.base, scheme.pattern
    partition = [pattern[(seed + i * j) % len(pattern)]
                 for i, j in base.edges]
    runs = {
        "partition": lambda cap: run_stage_partition(base, scheme, cset,
                                                     seed, cap),
        "lift": lambda cap: run_stage_lift(base, scheme, partition, cset,
                                           seed, cap),
        "joint": lambda cap: run_joint(base, scheme, cset, seed, cap),
    }
    for stage, run in runs.items():
        try:
            probe = run(_BUDGET_PROBE)[1]
        except AdmissionError as err:
            assert _outcome(run, None) == (err.stage, err.labels)
            continue
        targets = cset if stage != "lift" else CandidateSet(base, tuple(
            c for c in cset if c.key in probe.per_event))
        budget = compile_events(targets, scheme, stage).budget()
        if not probe.terminated and budget > _PROBED_BUDGET:
            continue
        default = run(None)
        assert default[1].max_resamples == budget
        assert default == run(budget)


@pytest.mark.parametrize("shape, scheme, certified", [
    ((3, 4), CouplingScheme.uniform(1, lifting_degree=8), False),
    ((2, 3), CouplingScheme.uniform(1, lifting_degree=5), True),
])
def test_run_mt_without_a_cap_runs_on_the_stage_budget(shape, scheme,
                                                       certified):
    # Systems that clear at seed 0 after one resample, so a run without a
    # cap ends whatever cap it takes.
    system = compile_events(enumerate_cycles(BaseCode(*shape), 4), scheme,
                            "joint")
    assert (system.budget() == FALLBACK_CAP) is not certified
    values, trace = run_mt(system, 0)
    assert trace.terminated and trace.total_resamples == 1
    assert trace.max_resamples == system.budget() is not None
    assert (values, trace) == run_mt(system, 0, system.budget())


@pytest.mark.parametrize("targets", [(), CandidateSet(BaseCode(3, 4), ())],
                         ids=["tuple", "set"])
def test_no_targets_no_cap(targets):
    # Every stage without events records no cap, whatever it defaults to
    # with targets: the two-stage pipeline's stage 1 too.
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=3)
    values, first = run_stage_partition(base, scheme, targets, 0)
    _, lift = run_stage_lift(base, scheme, values, targets, 1)
    _, joint = run_joint(base, scheme, targets, 2)
    _, report = construct_two_stage(base, scheme, targets, 3)
    for trace in (first, lift, joint, report.partition_trace,
                  report.lift_trace):
        assert trace.terminated and trace.total_resamples == 0
        assert trace.max_resamples is None


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


@st.composite
def _outputs(draw) -> tuple[CandidateSet, CouplingScheme, Assignment,
                            Assignment]:
    """Every 4-, 6- or tbc 8-walk over a base with or without a mask, a
    scheme (uniform m in 0..2, the pattern (0, 2, 5) or the one value
    (2,); Z in {1, 2, 3, 4, 7}), and an output's grids: partition values
    from the pattern and shifts in [0, Z), each grid sometimes flat so
    that many walks are active."""
    gamma, kappa = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    mask = None
    if draw(st.booleans()):
        mask = tuple(tuple(draw(st.sampled_from((1, 1, 0)))
                           for _ in range(kappa)) for _ in range(gamma))
    base = BaseCode(gamma, kappa, mask=mask)
    two_g, mode = draw(st.sampled_from([(4, "simple"), (6, "simple"),
                                        (8, "tbc")]))
    z = draw(st.sampled_from((1, 2, 3, 4, 7)))
    scheme = draw(st.sampled_from([
        CouplingScheme.uniform(0, lifting_degree=z),
        CouplingScheme.uniform(1, lifting_degree=z),
        CouplingScheme.uniform(2, lifting_degree=z),
        CouplingScheme((0, 2, 5), (Fraction(1, 2), Fraction(1, 3),
                                   Fraction(1, 6)), 6, z),
        CouplingScheme((2,), (Fraction(1),), None, z)]))

    def grid(stage, values):
        flat = draw(st.integers(0, 3)) == 0
        value = draw(values)
        return Assignment.from_dict(
            stage, {e: value if flat else draw(values) for e in base.edges},
            gamma, kappa)

    return (enumerate_cycles(base, two_g, mode), scheme,
            grid("partition", st.sampled_from(scheme.pattern)),
            grid("lift", st.integers(0, z - 1)))


@settings(max_examples=300, deadline=None)
@given(case=_outputs())
def test_stage_forms_on_output_values_equal_old_conjunction(case):
    # Each mode's output is read in its stage's layout: the partition
    # alone, or partition then lift.
    cset, scheme, partition, lift = case
    base, z = cset.base, scheme.lifting_degree
    for mode in experiments.MODES:
        config = _config(scheme, mode)
        grids = (partition,) if mode == "partition-only" else (partition,
                                                               lift)
        values = values_from_grids(base, *grids)
        _, fs = stage_forms(base.edges, cset, scheme,
                            experiments._stage(config))
        assert len(values) == len(base.edges) * len(grids)
        for cand, f in zip(cset, fs):
            assert vanish(f, values) == _old_is_active(cand, mode, partition,
                                                       lift, z)


def _grid(stage, base, rng, high):
    return Assignment.from_dict(
        stage, {e: int(rng.integers(0, high)) for e in base.edges},
        base.gamma, base.kappa)


@pytest.mark.parametrize("z", [1, 2, 3])
def test_is_active_equals_old_conjunction(z):
    # Random 0/1 spreading grids and shifts in [0, Z) on c4, c6 and tbc
    # 8-walks, decided by the stage compile over the grids' values.
    rng = np.random.default_rng(z)
    scheme = CouplingScheme.uniform(1, lifting_degree=z)
    seen = set()
    for cset in _walk_sets():
        base = cset.base
        _, joint = stage_forms(base.edges, cset, scheme, "joint")
        _, part = stage_forms(base.edges, cset, scheme, "partition")
        for _ in range(40):
            partition = _grid("partition", base, rng, 2)
            lift = _grid("lift", base, rng, z)
            both_values = values_from_grids(base, partition, lift)
            alone_values = values_from_grids(base, partition)
            for cand, fj, fp in zip(cset, joint, part):
                both = vanish(fj, both_values)
                assert both == _old_is_active(cand, "joint", partition,
                                              lift, z)
                alone = vanish(fp, alone_values)
                assert alone == _old_is_active(cand, "partition-only",
                                               partition, None, z)
                seen.update([both, alone])
    assert seen == {True, False}


@pytest.mark.parametrize("two_g", [4, 6])
def test_audit_equals_old_conjunction_on_uncleared_outputs(two_g):
    # No resample: the initial joint draw, with some targets still active.
    base = BaseCode(3, 4)
    seen = 0
    for scheme in (CouplingScheme.uniform(1, lifting_degree=3),
                   CouplingScheme((0, 2, 5), (Fraction(1, 2), Fraction(1, 3),
                                              Fraction(1, 6)), 6, 2)):
        targets = enumerate_cycles(base, two_g)
        for seed in range(6):
            instance, trace = run_joint(base, scheme, targets, seed, 0)
            _, _, active = cli._audit(instance, targets)
            assert active == [
                c.key for c in targets
                if _old_is_active(c, "joint", instance.partition,
                                  instance.lift, scheme.lifting_degree)]
            assert trace.terminated == (not active)
            seen += bool(active)
    assert seen > 0


@pytest.mark.parametrize("stage", ["", "Joint", "two-stage", "partition "])
def test_unknown_stage_is_rejected(stage):
    scheme = CouplingScheme.uniform(1, lifting_degree=5)
    cand = enumerate_cycles(BaseCode(2, 2), 4)[0]
    with pytest.raises(ValueError, match="unknown stage"):
        stage_blocks(scheme, stage)
    with pytest.raises(ValueError, match="unknown stage"):
        stage_prob(cand, scheme, stage)

from __future__ import annotations

import math
from dataclasses import asdict, fields
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scldpc import (AdmissionError, BaseCode, CandidateSet,
                    CouplingScheme, assemble_qc, cli, construct_two_stage,
                    derive_child_seeds,
                    enumerate_cycles, girth, joint_prob, run_joint,
                    run_stage_lift, run_stage_partition,
                    spreading_prob_exact)
from scldpc.moser_tardos import (MTTrace, compile_events, run_mt,
                                 values_from_grids)
from scldpc.probability import draw, recorded_seed, rng, vanish
from scldpc.walks import WalkCandidate, is_active_lift, is_active_partition
from helpers import (closed_neighbourhoods, default_cap, stage_grid,
                     support_mod)


def _flat_partition(base: BaseCode) -> list[int]:
    return [0] * len(base.edges)


# ---------------------------------------------------------------------------
# Core loop behavior
# ---------------------------------------------------------------------------

def test_no_targets_means_plain_sampling():
    base = BaseCode(2, 3)
    scheme = CouplingScheme.uniform(1, lifting_degree=4)
    from scldpc import CandidateSet
    empty = CandidateSet(base, ())
    values, trace = run_stage_partition(base, scheme, empty, seed=3)
    assert trace.terminated
    assert trace.total_resamples == 0
    assert len(values) == len(base.edges)
    assert all(v in scheme.pattern for v in values)


def test_geometric_resample_cost_single_event():
    # One 4-cycle, uniform memory 1: active with p = 3/8, and each
    # resample redraws the full scope, so the count is geometric with
    # mean p/(1-p) = 0.6.
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(1)
    targets = enumerate_cycles(base, 4, "simple")
    n = 4000
    counts = []
    for t in range(n):
        _, trace = run_stage_partition(base, scheme, targets, seed=t)
        counts.append(trace.total_resamples)
    mean = sum(counts) / n
    p = 3 / 8
    expect = p / (1 - p)
    sd = math.sqrt(p) / (1 - p)            # geometric variance
    assert abs(mean - expect) <= 4 * sd / math.sqrt(n)


def test_geometric_resample_cost_lift_event():
    # Single lift condition mod 2: p = 1/2, expected resamples 1.
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(0, lifting_degree=2)
    targets = enumerate_cycles(base, 4, "simple")
    partition = _flat_partition(base)
    n = 4000
    total = 0
    for t in range(n):
        lift, trace = run_stage_lift(base, scheme, partition, targets,
                                     seed=t)
        total += trace.total_resamples
        assert not is_active_lift(targets[0], stage_grid(base, "lift", lift),
                                  2)
    assert total / n == pytest.approx(1.0, abs=4 * math.sqrt(2) / math.sqrt(n))


def test_final_state_never_contains_active_target():
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(2, lifting_degree=3)
    targets = enumerate_cycles(base, 4, "simple")
    for seed in range(25):
        instance, trace = run_joint(base, scheme, targets, seed=seed)
        assert trace.terminated
        for c in targets:
            assert not (is_active_partition(c, instance.partition)
                        and is_active_lift(c, instance.lift, 3))


def test_determinism_and_seed_sensitivity():
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    targets = enumerate_cycles(base, 4, "simple")
    a1, r1 = construct_two_stage(base, scheme, targets, seed=11)
    a2, r2 = construct_two_stage(base, scheme, targets, seed=11)
    assert a1.partition == a2.partition and a1.lift == a2.lift
    assert r1.partition_trace.total_resamples == \
        r2.partition_trace.total_resamples
    assert r1.lift_trace.per_event == r2.lift_trace.per_event
    others = [construct_two_stage(base, scheme, targets, seed=s)[0]
              for s in range(5)]
    assert any(o.lift != a1.lift or o.partition != a1.partition
               for o in others)


def test_trace_bookkeeping():
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(1, lifting_degree=4)
    targets = enumerate_cycles(base, 4, "simple")
    _, trace = run_joint(base, scheme, targets, seed=2)
    assert trace.total_resamples == sum(trace.per_event.values())
    assert list(trace.per_event) == [c.key for c in targets]


def test_a_trace_records_what_the_run_decided():
    # Five fields; wall_iterations is a read-only view of total_resamples
    # (the benchmark's counter reads it), for every runner's trace.
    assert [f.name for f in fields(MTTrace)] == [
        "total_resamples", "per_event", "terminated", "seed",
        "max_resamples"]
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=5)
    targets = enumerate_cycles(base, 4)
    partition, first = run_stage_partition(base, scheme, targets, 1, 3)
    _, report = construct_two_stage(base, scheme, targets, 4)
    traces = [
        run_mt(compile_events(targets, scheme, "joint"), 0)[1], first,
        run_stage_lift(base, scheme, partition, targets, 2)[1],
        run_joint(base, scheme, targets, 3)[1],
        report.partition_trace, report.lift_trace]
    assert any(t.total_resamples for t in traces)
    for trace in traces:
        assert trace.wall_iterations == trace.total_resamples
        assert "wall_iterations" not in asdict(trace)
        with pytest.raises(AttributeError):
            trace.wall_iterations = 0


def test_cap_exhaustion_reports_partial_state():
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(1, lifting_degree=2)
    targets = enumerate_cycles(base, 4, "simple")
    seen_cap = False
    for seed in range(30):
        instance, trace = run_joint(base, scheme, targets, seed=seed,
                                    max_resamples=0)
        if not trace.terminated:
            seen_cap = True
            active = [c for c in targets
                      if is_active_partition(c, instance.partition)
                      and is_active_lift(c, instance.lift, 2)]
            assert active            # the partial state is honestly bad
            break
    assert seen_cap


@pytest.mark.parametrize("cap", [-1, -6300])
def test_negative_cap_is_rejected(cap):
    base = BaseCode(3, 3)
    scheme = CouplingScheme.uniform(1, lifting_degree=2)
    system = compile_events(enumerate_cycles(base, 4), scheme, "joint")
    with pytest.raises(ValueError, match="non-negative"):
        run_mt(system, 0, cap)


@pytest.mark.parametrize("runner", [
    run_stage_partition, run_joint, construct_two_stage,
    lambda base, scheme, targets, seed: run_stage_lift(
        base, scheme, _flat_partition(base), targets, seed),
], ids=["partition", "joint", "two-stage", "lift"])
def test_targets_over_another_base_are_rejected(runner):
    scheme = CouplingScheme.uniform(1, lifting_degree=2)
    with pytest.raises(ValueError,
                       match="target set was built over a different base"):
        runner(BaseCode(3, 4), scheme, enumerate_cycles(BaseCode(3, 3), 4), 0)


@pytest.mark.parametrize("seed", [1.5, [1, 2.5], "7"])
def test_a_seed_that_is_not_an_integer_is_a_type_error(seed):
    base = BaseCode(2, 3)
    scheme = CouplingScheme.uniform(1, lifting_degree=2)
    with pytest.raises(TypeError, match="a seed must be an integer or a "
                                        "sequence of them"):
        run_joint(base, scheme, enumerate_cycles(base, 4), seed)


def test_numpy_integer_seed_is_recorded():
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    c4 = enumerate_cycles(base, 4)
    instance, trace = run_joint(base, scheme, c4, np.int64(5))
    reference, _ = run_joint(base, scheme, c4, 5)
    assert (trace.seed, instance.seed) == (5, 5)
    assert instance.lift == reference.lift
    assert instance.partition == reference.partition
    two_stage, _ = construct_two_stage(base, scheme, c4, np.int64(5))
    assert two_stage.seed == 5
    _, streamed = run_joint(base, scheme, c4, np.random.SeedSequence(5))
    assert streamed.seed is None


def test_two_stage_replays_a_seed_sequence():
    """Two equal calls on one SeedSequence give one instance, the stream
    of the integer seed it holds."""
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=13)
    c4 = enumerate_cycles(base, 4)
    ss = np.random.SeedSequence(5)
    first = construct_two_stage(base, scheme, c4, ss)
    assert construct_two_stage(base, scheme, c4, ss) == first
    by_int, _ = construct_two_stage(base, scheme, c4, 5)
    assert (first[0].partition, first[0].lift) == \
        (by_int.partition, by_int.lift)


def test_two_stage_leaves_the_seed_sequence_untouched():
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=13)
    ss = np.random.SeedSequence(5, spawn_key=(3,))
    pool = ss.pool.copy()
    construct_two_stage(base, scheme, enumerate_cycles(base, 4), ss)
    assert (ss.entropy, ss.spawn_key, ss.n_children_spawned) == (5, (3,), 0)
    assert np.array_equal(ss.pool, pool)
    assert derive_child_seeds(ss, 2) == [
        int(c.generate_state(1, np.uint64)[0])
        for c in np.random.SeedSequence(5, spawn_key=(3,)).spawn(2)]


def test_two_stage_report_outcome_and_budget():
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    c4 = enumerate_cycles(base, 4)
    outcomes = set()
    for cap in (None, 0):
        for seed in range(4):
            _, report = construct_two_stage(base, scheme, c4, seed, cap)
            assert report.terminated is report.lift_trace.terminated
            assert report.total_resamples == (
                report.partition_trace.total_resamples
                + report.lift_trace.total_resamples)
            outcomes.add(report.terminated)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Admission checks: never resample the unresamplable
# ---------------------------------------------------------------------------

def test_zero_memory_rejected():
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(0)
    targets = enumerate_cycles(base, 4, "simple")
    with pytest.raises(AdmissionError) as err:
        run_stage_partition(base, scheme, targets, seed=0)
    assert "partition" in str(err.value)


def test_trivial_lift_rejected():
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(1, lifting_degree=1)
    targets = enumerate_cycles(base, 4, "simple")
    partition = _flat_partition(base)
    # the lift stage alone cannot break anything at Z = 1 ...
    with pytest.raises(AdmissionError):
        run_stage_lift(base, scheme, partition, targets, seed=0)
    # ... but jointly the spreading variables still can
    instance, trace = run_joint(base, scheme, targets, seed=0)
    assert trace.terminated
    assert not is_active_partition(targets[0], instance.partition)
    # with no working stage at all the target is hopeless
    frozen = CouplingScheme.uniform(0, lifting_degree=1)
    with pytest.raises(AdmissionError):
        run_joint(base, frozen, targets, seed=0)


def test_unavoidable_walk_rejected_everywhere():
    base = BaseCode(3, 3)
    w = WalkCandidate.from_nodes((0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 2), base)
    scheme = CouplingScheme.uniform(2, lifting_degree=5)
    with pytest.raises(AdmissionError):
        run_joint(base, scheme, [w], seed=0)


def test_coefficients_vanishing_mod_z_rejected():
    base = BaseCode(2, 2)
    doubled = WalkCandidate.from_nodes((0, 0, 1, 1, 0, 0, 1, 1), base)
    partition = _flat_partition(base)
    bad = CouplingScheme.uniform(1, lifting_degree=2)   # +-2 = 0 mod 2
    with pytest.raises(AdmissionError):
        run_stage_lift(base, bad, partition, [doubled], seed=0)
    ok = CouplingScheme.uniform(1, lifting_degree=4)
    lift, trace = run_stage_lift(base, ok, partition, [doubled], seed=0)
    assert trace.terminated
    assert not is_active_lift(doubled, stage_grid(base, "lift", lift), 4)


# ---------------------------------------------------------------------------
# Stage composition
# ---------------------------------------------------------------------------

def test_lift_stage_only_tracks_survivors():
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(1, lifting_degree=4)
    targets = enumerate_cycles(base, 4, "simple")
    # partition that already kills the only 4-cycle: no lift events at all
    # (values in the order of base.edges: (0,0), (0,1), (1,0), (1,1))
    dead = [1, 0, 0, 0]
    lift, trace = run_stage_lift(base, scheme, dead, targets, seed=0)
    assert trace.per_event == {}
    assert trace.total_resamples == 0
    # flat partition keeps it alive: one event
    alive, trace2 = run_stage_lift(base, scheme, _flat_partition(base),
                                   targets, seed=0)
    assert trace2.per_event == {targets[0].key: trace2.total_resamples}


def _lift_with_partition(partition: list[int]):
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(1, lifting_degree=4)
    return run_stage_lift(base, scheme, partition,
                          enumerate_cycles(base, 4, "simple"), seed=0)


def test_lift_stage_rejects_a_partition_that_misses_an_edge():
    with pytest.raises(ValueError,
                       match="partition holds 3 values for 4 base edges"):
        _lift_with_partition([0, 0, 0])


@pytest.mark.parametrize("n", [0, 5, 8])
def test_lift_stage_rejects_a_partition_of_another_length(n):
    with pytest.raises(ValueError,
                       match=f"partition holds {n} values for 4 base edges"):
        _lift_with_partition([0] * n)


def test_lift_stage_rejects_a_partition_value_outside_the_pattern():
    # A one-value pattern has no partition form, so every target survives
    # any partition the scheme can draw; a stray value is refused, not
    # read.
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(0, lifting_degree=4)
    targets = enumerate_cycles(base, 4, "simple")
    with pytest.raises(ValueError,
                       match=r"value 1 on \(0, 1\) not in pattern"):
        run_stage_lift(base, scheme, [0, 1, 0, 0], targets, seed=0)


@lru_cache(maxsize=None)
def _avoidable_walks(kappa: int, two_g: int, mode: str) -> CandidateSet:
    base = BaseCode(3, kappa)
    return CandidateSet(base, tuple(
        c for c in enumerate_cycles(base, two_g, mode) if c.avoidable))


@st.composite
def _survivor_cases(draw):
    """The avoidable c4, c6 or tbc 8-walks of a 3x3 to 3x5 base, a scheme
    with several values, one value or memory 0 (Z odd, so no walk is
    certain to occur at the lift stage), a seed, and a stage-1 cap: None
    for a two-stage run, an int for its stage 1 run on that cap, "grid"
    for the random in-pattern partition drawn alongside instead."""
    cset = _avoidable_walks(draw(st.integers(3, 5)), *draw(st.sampled_from(
        [(4, "simple"), (6, "simple"), (8, "tbc")])))
    pattern = draw(st.one_of(
        st.sets(st.integers(0, 3), min_size=2).map(sorted).map(tuple),
        st.integers(1, 3).map(lambda v: (v,)), st.just((0,))))
    n = len(pattern)
    scheme = CouplingScheme(pattern, (Fraction(1, n),) * n,
                            lifting_degree=draw(st.sampled_from((3, 5, 13))))
    n = len(cset.base.edges)
    partition = draw(st.lists(st.sampled_from(pattern), min_size=n,
                              max_size=n))
    stage1_max = draw(st.sampled_from(("grid", 0, 1, 2, None)))
    return (cset, scheme, partition, stage1_max,
            draw(st.integers(0, 2 ** 32 - 1)))


_NO_C4_SURVIVES = (_avoidable_walks(3, 4, "simple"),
                   CouplingScheme.uniform(3, lifting_degree=13))


@settings(max_examples=80, deadline=None)
@given(case=_survivor_cases())
@example(case=(*_NO_C4_SURVIVES, [0, 0, 0, 0, 1, 2, 0, 2, 1], "grid", 0))
@example(case=(*_NO_C4_SURVIVES, None, 1, 1))
def test_lift_survivors_are_the_grid_check_survivors(case):
    # Stage 2 picks its survivors with the partition forms; the grid check
    # walk by walk is the oracle, on random grids and on stage 1's output.
    # Its trace's events are those survivors, in canonical order.  The
    # examples leave none: a partition no 4-cycle survives, and a stage 1
    # that clears them in one resample.
    cset, scheme, partition, stage1_max, seed = case
    base = cset.base
    if stage1_max is None:
        instance, report = construct_two_stage(base, scheme, cset, seed, 20)
        partition = values_from_grids(base, instance.partition)
    elif stage1_max != "grid":
        # Stage 1 as the two-stage run draws it, on this cap instead.
        stage1 = CandidateSet(base, ()) if compile_events(
            cset, scheme, "partition").rejected else cset
        partition, _ = run_stage_partition(
            base, scheme, stage1, derive_child_seeds(seed, 2)[0], stage1_max)
    grid = stage_grid(base, "partition", partition)
    expected = [c.key for c in cset if is_active_partition(c, grid)]
    _, trace = run_stage_lift(base, scheme, partition, cset, seed, 20)
    assert list(trace.per_event) == expected
    if stage1_max is None:
        assert list(report.lift_trace.per_event) == expected


def test_two_stage_composition_produces_girth_six():
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    targets = enumerate_cycles(base, 4, "simple")
    for seed in range(20):
        instance, report = construct_two_stage(base, scheme, targets,
                                               seed=seed)
        assert report.lift_trace.terminated
        h = assemble_qc(instance)
        assert girth(h) >= 6
        # stage 2's events are the targets stage 1 left occurring
        assert list(report.lift_trace.per_event) == [
            c.key for c in targets
            if is_active_partition(c, instance.partition)]


@pytest.mark.parametrize("scheme", [
    CouplingScheme.uniform(0, lifting_degree=13),
    CouplingScheme((2,), (Fraction(1),), lifting_degree=13),
])
def test_two_stage_lifts_what_the_partition_cannot_thin(scheme):
    # A one-value pattern leaves every target active after any partition:
    # stage 1 has nothing to thin, and stage 2 gets every target.
    base = BaseCode(3, 4)
    targets = enumerate_cycles(base, 4)
    with pytest.raises(AdmissionError):
        run_stage_partition(base, scheme, targets, seed=1)
    instance, report = construct_two_stage(base, scheme, targets, seed=1)
    # Stage 1 has no events, so no cap; stage 2's events are every target.
    assert report.partition_trace.total_resamples == 0
    assert report.partition_trace.per_event == {}
    assert report.partition_trace.max_resamples is None
    assert list(report.lift_trace.per_event) == [c.key for c in targets]
    assert report.terminated
    assert girth(assemble_qc(instance)) >= 6


def test_two_stage_with_no_working_stage_names_the_lift():
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(0, lifting_degree=1)
    with pytest.raises(AdmissionError) as err:
        construct_two_stage(base, scheme, enumerate_cycles(base, 4), seed=1)
    assert err.value.stage == "lift"


def test_two_stage_seed_decomposition_is_documented_mixing():
    seeds = derive_child_seeds(1234, 2)
    assert seeds == derive_child_seeds(1234, 2)
    assert seeds != derive_child_seeds(1235, 2)
    assert len(set(derive_child_seeds(7, 16))) == 16
    ss = np.random.SeedSequence(1234)
    expect = [int(c.generate_state(1, np.uint64)[0]) for c in ss.spawn(2)]
    assert seeds == expect


# ---------------------------------------------------------------------------
# Default caps
# ---------------------------------------------------------------------------

def test_default_cap_uses_certificate_when_feasible():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    scheme = CouplingScheme.uniform(1, lifting_degree=34)
    probs = [joint_prob(c, scheme).joint for c in cset]
    # observed delta 32: bound 63/30, ceil = 3, cap = 3000
    assert default_cap(cset, probs) == 3000


def test_default_cap_fallback_when_infeasible():
    base = BaseCode(3, 3)
    cset = enumerate_cycles(base, 4, "simple")
    scheme = CouplingScheme.uniform(1)
    probs = [spreading_prob_exact(c, scheme) for c in cset]
    from scldpc.moser_tardos import FALLBACK_CAP
    assert default_cap(cset, probs) == FALLBACK_CAP


# ---------------------------------------------------------------------------
# Compiled events: the graph the resampler walks is Theorem 1's
# ---------------------------------------------------------------------------

@st.composite
def _target_sets(draw, max_kappa: int = 4
                 ) -> tuple[CandidateSet, CouplingScheme]:
    """A random subset of the 4-, 6- or tbc 8-walks over a random masked
    base, with a pattern of at least two values and a small Z >= 2 (an
    even Z drops the +-2 terms of 8-walks from the lift scopes)."""
    gamma = draw(st.integers(2, 3))
    kappa = draw(st.integers(2, max_kappa))
    cell = st.sampled_from((1, 1, 0)) if draw(st.booleans()) else st.just(1)
    mask = draw(st.lists(st.lists(cell, min_size=kappa, max_size=kappa),
                         min_size=gamma, max_size=gamma))
    base = BaseCode(gamma, kappa, mask=tuple(map(tuple, mask)))
    two_g, mode = draw(st.sampled_from([(4, "simple"), (6, "simple"),
                                        (8, "tbc")]))
    cands = [c for c in enumerate_cycles(base, two_g, mode) if c.avoidable]
    kept = draw(st.lists(st.booleans(), min_size=len(cands),
                         max_size=len(cands)))
    pattern = tuple(sorted(draw(st.sets(st.integers(0, 3), min_size=2))))
    n = len(pattern)
    scheme = CouplingScheme(pattern, tuple(Fraction(1, n) for _ in pattern),
                            pattern[-1] + 1, draw(st.integers(2, 3)))
    cset = CandidateSet(base, tuple(c for c, k in zip(cands, kept) if k))
    return cset, scheme


def _closed_neighbourhoods(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    sets = [{a} for a in range(n)]
    for a, b in pairs:
        sets[a].add(b)
        sets[b].add(a)
    return tuple(tuple(sorted(s)) for s in sets)


def _support_pairs(cset: CandidateSet) -> list[tuple[int, int]]:
    """Oracle: every pair of candidates whose supports intersect."""
    return [(a, b) for a, ca in enumerate(cset) for b, cb in enumerate(cset)
            if a < b and set(ca.support) & set(cb.support)]


# 2x4 8-walks at Z=2: events sharing only +-2 edges share no lift variable,
# yet they share a support edge, so they stay neighbours.
_EVEN_Z_8_WALKS = (enumerate_cycles(BaseCode(2, 4), 8, "tbc"),
                   CouplingScheme((0, 1), (Fraction(1, 2),) * 2, 2, 2))


@settings(max_examples=150, deadline=None)
@given(targets=_target_sets())
@example(targets=_EVEN_Z_8_WALKS)
def test_compiled_neighbors_are_the_dependency_graph(targets):
    # Every stage walks its target set's one support graph, the graph
    # Theorem 1 counts, and holds that very object.
    cset, scheme = targets
    z = scheme.lifting_degree
    lift_set = CandidateSet(cset.base, tuple(c for c in cset
                                             if support_mod(c, z)))
    for subset, stage in ((cset, "partition"), (cset, "joint"),
                          (lift_set, "lift")):
        system = compile_events(subset, scheme, stage)
        assert system.labels == tuple(c.key for c in subset)
        assert system.neighbors is system.cset.neighbourhoods
        assert system.neighbors == _closed_neighbourhoods(
            len(subset), _support_pairs(subset))


@settings(max_examples=150, deadline=None)
@given(targets=_target_sets(), one_value=st.booleans())
@example(targets=_EVEN_Z_8_WALKS, one_value=False)
def test_scope_graph_is_the_support_graph_where_runs_cannot_move(targets,
                                                                 one_value):
    # Where the events' scope graph equals the support graph, a run walks
    # the same neighbourhoods either way: every partition stage, a joint
    # stage with two or more pattern values, and the lift stage and a
    # one-value joint stage unless Z divides a nonzero coefficient.
    cset, scheme = targets
    z = scheme.lifting_degree
    if one_value:
        scheme = CouplingScheme(scheme.pattern[:1], (Fraction(1),),
                                scheme.coupling_length, z)
    stages = [] if one_value else ["partition", "joint"]
    if all(c % z for cand in cset for _, c in cand.coeffs if c):
        stages += ["lift", "joint"] if one_value else ["lift"]
    for stage in stages:
        system = compile_events(cset, scheme, stage)
        assert closed_neighbourhoods(system.scopes) == system.neighbors


def _count_graph_builds(monkeypatch) -> list:
    """Count builds of ``CandidateSet.neighbourhoods``, the graph's one
    builder."""
    builds = []
    real = CandidateSet.neighbourhoods.func

    def counted(cset):
        builds.append(cset)
        return real(cset)

    prop = cached_property(counted)
    prop.__set_name__(CandidateSet, "neighbourhoods")
    monkeypatch.setattr(CandidateSet, "neighbourhoods", prop)
    return builds


@pytest.mark.parametrize("command, expected", [
    ("bounds", 1), ("construct_two_stage", 2), ("run_joint", 1)])
def test_each_target_set_builds_its_graph_once(command, expected,
                                               fresh_compile, monkeypatch,
                                               capsys):
    # The compile and the certificate read one graph per set: the targets',
    # plus the survivors' in a two-stage construction.
    builds = _count_graph_builds(monkeypatch)
    base = BaseCode(3, 7)
    scheme = CouplingScheme.uniform(1, lifting_degree=34)
    if command == "bounds":
        assert cli.main(["bounds", "--gamma", "3", "--kappa", "7", "--m",
                         "1", "--lifting", "34"]) == 0
    elif command == "construct_two_stage":
        _, report = construct_two_stage(
            base, scheme, enumerate_cycles(base, 4, "simple"), seed=1)
        assert report.lift_trace.per_event
    else:
        run_joint(base, scheme, enumerate_cycles(base, 4, "simple"), seed=1)
    assert len(builds) == expected


# ---------------------------------------------------------------------------
# run_mt against the loop that evaluates every event after each redraw
# ---------------------------------------------------------------------------

def _least_occurring_oracle(system, seed, max_resamples=None):
    """The Moser-Tardos loop read literally: after every redraw evaluate
    every event, and redraw the least occurring one."""
    blocks, n_vars, event_forms = system.blocks, system.n, system.forms
    gen = rng(seed)
    values = draw(gen, blocks, n_vars)
    per_event = [0] * len(event_forms)
    total = 0
    while True:
        occurring = [t for t, f in enumerate(event_forms) if vanish(f, values)]
        if not occurring or (max_resamples is not None
                             and total >= max_resamples):
            break
        draw(gen, blocks, n_vars, values, system.scopes[occurring[0]])
        total += 1
        per_event[occurring[0]] += 1
    trace = MTTrace(
        total_resamples=total,
        per_event=dict(zip(system.labels, per_event)),
        terminated=not occurring,
        seed=recorded_seed(seed),
        max_resamples=max_resamples,
    )
    return values, trace


# A cap of None (the system's budget, at least 1000 resamples when it has
# events) runs where the oracle terminates within this; a system it cannot
# clear that fast runs at this cap instead.
_UNCAPPED_PROBE = 400

# c4 at memory 1, Z=2.  The cap cuts 3x3 seed 0 before its first redraw
# (cap 0) and part-way (cap 4); its dependency graph is complete.  On 3x5,
# events outside the last redrawn event's neighbours occur while it runs.
_C4_3X3 = (enumerate_cycles(BaseCode(3, 3), 4),
           CouplingScheme.uniform(1, lifting_degree=2))
_C4_3X5 = (enumerate_cycles(BaseCode(3, 5), 4),
           CouplingScheme.uniform(1, lifting_degree=2))


@settings(max_examples=200, deadline=None)
@given(targets=_target_sets(max_kappa=5),
       stage=st.sampled_from(("partition", "lift", "joint")),
       seed=st.integers(0, 2 ** 32 - 1),
       cap=st.none() | st.integers(0, 30))
@example(targets=_C4_3X3, stage="joint", seed=0, cap=None)
@example(targets=_C4_3X3, stage="joint", seed=0, cap=0)
@example(targets=_C4_3X3, stage="joint", seed=0, cap=4)
@example(targets=_C4_3X5, stage="joint", seed=26, cap=1)
@example(targets=_C4_3X5, stage="joint", seed=0, cap=None)
@example(targets=_C4_3X5, stage="joint", seed=1, cap=30)
def test_run_mt_equals_the_every_event_loop(targets, stage, seed, cap):
    cset, scheme = targets
    system = compile_events(cset, scheme, stage)
    if system.rejected:
        system = compile_events(CandidateSet(cset.base, tuple(
            c for c, fs in zip(cset, system.forms) if fs)), scheme, stage)
    if cap is None and not _least_occurring_oracle(
            system, seed, _UNCAPPED_PROBE)[1].terminated:
        cap = _UNCAPPED_PROBE
    values, trace = run_mt(system, seed, cap)
    oracle_values, oracle_trace = _least_occurring_oracle(
        system, seed, system.budget() if cap is None else cap)
    assert values == oracle_values
    assert asdict(trace) == asdict(oracle_trace)

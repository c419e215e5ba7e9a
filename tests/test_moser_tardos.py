from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scldpc import (AdmissionError, Assignment, BaseCode, CandidateSet,
                    CouplingScheme, assemble_qc, construct_two_stage,
                    default_cap, dependency_pairs, derive_child_seeds,
                    enumerate_cycles, girth, joint_prob, run_joint,
                    run_stage_lift, run_stage_partition,
                    spreading_prob_exact)
from scldpc.moser_tardos import compile_events, run_mt
from scldpc.walks import WalkCandidate, is_active_lift, is_active_partition


def _flat_partition(base: BaseCode) -> Assignment:
    return Assignment.from_dict("partition", {e: 0 for e in base.edges},
                                base.gamma, base.kappa)


# ---------------------------------------------------------------------------
# Core loop behavior
# ---------------------------------------------------------------------------

def test_no_targets_means_plain_sampling():
    base = BaseCode(2, 3)
    scheme = CouplingScheme.uniform(1, lifting_degree=4)
    from scldpc import CandidateSet
    empty = CandidateSet(base, ())
    assignment, trace = run_stage_partition(base, scheme, empty, seed=3)
    assert trace.terminated
    assert trace.total_resamples == 0
    assert assignment.covers(base)
    assert all(v in scheme.pattern for _, v in assignment.items())


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
        assert not is_active_lift(targets[0], lift, 2)
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
    assert r1.survivor_keys == r2.survivor_keys
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
    assert set(trace.per_event) <= {c.key for c in targets}
    assert trace.wall_iterations <= max(trace.total_resamples, 1)
    assert trace.metadata["inner_order"] == "global-least-index"


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
    for caps in ({}, {"stage1_max": 3, "stage2_max": 0}):
        for seed in range(4):
            _, report = construct_two_stage(base, scheme, c4, seed, **caps)
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
    assert not is_active_lift(doubled, lift, 4)


# ---------------------------------------------------------------------------
# Stage composition
# ---------------------------------------------------------------------------

def test_lift_stage_only_tracks_survivors():
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(1, lifting_degree=4)
    targets = enumerate_cycles(base, 4, "simple")
    # partition that already kills the only 4-cycle: no lift events at all
    dead = Assignment.from_dict(
        "partition", {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}, 2, 2)
    lift, trace = run_stage_lift(base, scheme, dead, targets, seed=0)
    assert trace.metadata["survivors"] == []
    assert trace.total_resamples == 0
    # flat partition keeps it alive: one event
    alive, trace2 = run_stage_lift(base, scheme, _flat_partition(base),
                                   targets, seed=0)
    assert trace2.metadata["survivors"] == [targets[0].key]


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
        # survivors recorded in the report are exactly the stage-2 events
        assert set(report.survivor_keys) == \
            set(report.lift_trace.metadata["survivors"])


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
    assert report.partition_trace.total_resamples == 0
    assert report.stage1_cleared is False
    assert report.survivor_keys == tuple(c.key for c in targets)
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
def _target_sets(draw) -> tuple[CandidateSet, CouplingScheme]:
    """A random subset of the 4-, 6- or tbc 8-walks over a random masked
    base, with a pattern of at least two values and a small Z >= 2 (an
    even Z drops the +-2 terms of 8-walks from the lift scopes)."""
    gamma = draw(st.integers(2, 3))
    kappa = draw(st.integers(2, 4))
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


# 2x4 8-walks at Z=2: events sharing only +-2 edges share no lift variable.
_EVEN_Z_8_WALKS = (enumerate_cycles(BaseCode(2, 4), 8, "tbc"),
                   CouplingScheme((0, 1), (Fraction(1, 2),) * 2, 2, 2))


@settings(max_examples=150, deadline=None)
@given(targets=_target_sets())
@example(targets=_EVEN_Z_8_WALKS)
def test_compiled_neighbors_are_the_dependency_graph(targets):
    cset, scheme = targets
    labels = tuple(c.key for c in cset)
    expected = _closed_neighbourhoods(len(cset), dependency_pairs(cset))
    for stage in ("partition", "joint"):
        system = compile_events(cset, scheme, stage)
        assert system.labels == labels
        assert system.neighbors == expected

    z = scheme.lifting_degree
    lift_set = CandidateSet(cset.base, tuple(c for c in cset
                                             if c.support_mod(z)))
    lift_pairs = [(a, b) for a, ca in enumerate(lift_set)
                  for b, cb in enumerate(lift_set)
                  if a < b and set(ca.support_mod(z)) & set(cb.support_mod(z))]
    system = compile_events(lift_set, scheme, "lift")
    assert system.labels == tuple(c.key for c in lift_set)
    assert system.neighbors == _closed_neighbourhoods(len(lift_set),
                                                      lift_pairs)

"""Resampling engine: kill target walks by redrawing the edges they use.

Variable framework: one integer variable per masked base edge and stage
(spreading value with the scheme's distribution, lift shift uniform on
[0, Z)).  Each avoidable target walk becomes a bad event, a conjunction of
one or two linear conditions over those variables (integer condition on
spreading values, condition mod Z on shifts); the event's scope is the set
of variables the surviving conditions actually mention.

The solver is the classic resample-until-clean procedure with the
depth-first recursion order made explicit:

    while some bad event occurs:
        RESAMPLE(least occurring event)               # canonical order
    RESAMPLE(e):
        redraw the variables in scope(e)
        while some event sharing scope with e occurs:
            RESAMPLE(least such event)

"least" always means the global canonical candidate order restricted to
the relevant subset (recorded in trace metadata), and "sharing scope"
includes e itself.  Every run is a pure function of (inputs, seed).

Tautological targets (constant-true conditions: all coefficients zero, a
one-value pattern, or every coefficient divisible by Z) can never be
resampled away and are rejected up front with an AdmissionError naming
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .model import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    Edge)
from .probability import (joint_prob, lift_prob_exact, spreading_prob_exact)
from .walks import CandidateSet, WalkCandidate, is_active_partition
from . import bounds

FALLBACK_CAP = 10 ** 6
PIPELINE_STAGE1_CAP_FACTOR = 100

SeedLike = Union[int, np.random.SeedSequence]


class AdmissionError(ValueError):
    """Raised when targets include constant-true (unremovable) events."""

    def __init__(self, labels: Sequence[str], stage: str):
        self.labels = tuple(labels)
        self.stage = stage
        super().__init__(
            f"targets always active at the {stage} stage (cannot be "
            f"resampled away): {', '.join(self.labels)}")


class _Categorical:
    """Exact sampler over integer values with rational probabilities."""

    def __init__(self, values: Sequence[int], probs) -> None:
        self.values = np.array(values, dtype=np.int64)
        self.denom = math.lcm(*(p.denominator for p in probs))
        weights = [int(p * self.denom) for p in probs]
        self.cum = np.cumsum(np.array(weights, dtype=np.int64))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.integers(0, self.denom, size=n)
        return self.values[np.searchsorted(self.cum, u, side="right")]


class _Uniform:
    def __init__(self, z: int) -> None:
        self.z = z

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(0, self.z, size=n)


@dataclass(frozen=True)
class Segment:
    start: int
    stop: int
    sampler: object


class VariableFramework:
    """Named integer variables in contiguous segments, one sampler each."""

    def __init__(self, names: Sequence[str],
                 segments: Sequence[Segment]) -> None:
        self.names = tuple(names)
        self.segments = tuple(segments)
        covered = sorted((s.start, s.stop) for s in segments)
        pos = 0
        for a, b in covered:
            if a != pos or b < a:
                raise ValueError("segments must tile the variable range")
            pos = b
        if pos != len(self.names):
            raise ValueError("segments must cover every variable")

    def __len__(self) -> int:
        return len(self.names)

    def sample_all(self, rng: np.random.Generator) -> list[int]:
        values = [0] * len(self.names)
        for seg in self.segments:
            drawn = seg.sampler.draw(rng, seg.stop - seg.start)
            for k, v in enumerate(drawn, start=seg.start):
                values[k] = int(v)
        return values

    def resample(self, rng: np.random.Generator, idxs: Sequence[int],
                 values: list[int]) -> None:
        for seg in self.segments:
            mine = [k for k in idxs if seg.start <= k < seg.stop]
            if not mine:
                continue
            drawn = seg.sampler.draw(rng, len(mine))
            for k, v in zip(mine, drawn):
                values[k] = int(v)


@dataclass(frozen=True)
class Condition:
    var_idx: tuple[int, ...]
    coeffs: tuple[int, ...]
    modulus: Optional[int]

    def holds(self, values: Sequence[int]) -> bool:
        total = 0
        for v, c in zip(self.var_idx, self.coeffs):
            total += c * values[v]
        if self.modulus is not None:
            total %= self.modulus
        return total == 0


@dataclass(frozen=True)
class Event:
    label: str
    order: tuple
    conditions: tuple[Condition, ...]
    scope: tuple[int, ...]

    def occurs(self, values: Sequence[int]) -> bool:
        return all(c.holds(values) for c in self.conditions)


@dataclass
class MTTrace:
    total_resamples: int
    per_event: dict[str, int]
    wall_iterations: int
    terminated: bool
    seed: Optional[int]
    max_resamples: Optional[int]
    metadata: dict = field(default_factory=dict)


def run_mt(framework: VariableFramework, events: Sequence[Event],
           seed: SeedLike,
           max_resamples: Optional[int] = None) -> tuple[list[int], MTTrace]:
    """Resample until no event occurs (or the cap is hit).

    None disables the cap; the stage runners always pass one.  Returns the
    final variable values and the trace; ``terminated`` is False iff the
    cap cut the run short, in which case the values are the partial state.
    """
    events = sorted(events, key=lambda e: e.order)
    rng = np.random.default_rng(seed)
    n_ev = len(events)
    values = framework.sample_all(rng)

    var_events: dict[int, list[int]] = {}
    for n, e in enumerate(events):
        if not e.scope:
            raise ValueError(f"event {e.label} has empty scope")
        for v in e.scope:
            var_events.setdefault(v, []).append(n)
    neighbors: list[tuple[int, ...]] = []
    for n, e in enumerate(events):
        touching: set[int] = set()
        for v in e.scope:
            touching.update(var_events[v])
        neighbors.append(tuple(sorted(touching)))

    occ = [e.occurs(values) for e in events]
    per_event = [0] * n_ev
    total = 0
    wall = 0
    capped = False

    def resample(n: int) -> bool:
        """One redraw of event n's scope; False when the cap refuses it."""
        nonlocal total
        if max_resamples is not None and total >= max_resamples:
            return False
        framework.resample(rng, events[n].scope, values)
        total += 1
        per_event[n] += 1
        for t in neighbors[n]:
            occ[t] = events[t].occurs(values)
        return True

    while not capped:
        start = next((n for n in range(n_ev) if occ[n]), None)
        if start is None:
            break
        wall += 1
        if not resample(start):
            capped = True
            break
        stack = [start]
        while stack and not capped:
            top = stack[-1]
            nxt = next((t for t in neighbors[top] if occ[t]), None)
            if nxt is None:
                stack.pop()
                continue
            if not resample(nxt):
                capped = True
                break
            stack.append(nxt)

    terminated = not capped
    if terminated and any(e.occurs(values) for e in events):
        raise AssertionError("resampler stopped while an event still occurs")
    trace = MTTrace(
        total_resamples=total,
        per_event={events[n].label: per_event[n] for n in range(n_ev)},
        wall_iterations=wall,
        terminated=terminated,
        seed=seed if isinstance(seed, int) else None,
        max_resamples=max_resamples,
        metadata={"inner_order": "global-least-index"},
    )
    return values, trace


# ---------------------------------------------------------------------------
# Stage plumbing
# ---------------------------------------------------------------------------

def _normalize_targets(base: BaseCode,
                       targets) -> tuple[CandidateSet,
                                         tuple[WalkCandidate, ...]]:
    if isinstance(targets, CandidateSet):
        if targets.base != base:
            raise ValueError("target set was built over a different base")
        return targets, targets.candidates
    cands = tuple(sorted(set(targets), key=lambda c: c.sort_key))
    return CandidateSet(base, cands), cands


def _edge_index(base: BaseCode) -> dict[Edge, int]:
    return {e: n for n, e in enumerate(base.edges)}


def _partition_condition(cand: WalkCandidate, index: dict[Edge, int],
                         pattern_size: int) -> Optional[Condition]:
    terms = [(index[e], c) for e, c in cand.coeffs if c != 0]
    if not terms or pattern_size == 1:
        return None
    return Condition(tuple(t[0] for t in terms),
                     tuple(t[1] for t in terms), None)


def _lift_condition(cand: WalkCandidate, index: dict[Edge, int], z: int,
                    offset: int) -> Optional[Condition]:
    terms = [(offset + index[e], c % z) for e, c in cand.coeffs
             if c % z != 0]
    if not terms:
        return None
    return Condition(tuple(t[0] for t in terms),
                     tuple(t[1] for t in terms), z)


def _build_events(cands: Sequence[WalkCandidate], conditions_of,
                  stage: str) -> list[Event]:
    events = []
    rejected = []
    for cand in cands:
        conds = [c for c in conditions_of(cand) if c is not None]
        if not conds:
            rejected.append(cand.key)
            continue
        scope = tuple(sorted({v for c in conds for v in c.var_idx}))
        events.append(Event(cand.key, cand.sort_key, tuple(conds), scope))
    if rejected:
        raise AdmissionError(rejected, stage)
    return events


def _partition_framework(base: BaseCode,
                         scheme: CouplingScheme) -> VariableFramework:
    names = [f"P[{i},{j}]" for i, j in base.edges]
    sampler = _Categorical(scheme.pattern, scheme.probs)
    return VariableFramework(names, [Segment(0, len(names), sampler)])


def _lift_framework(base: BaseCode, z: int) -> VariableFramework:
    names = [f"L[{i},{j}]" for i, j in base.edges]
    return VariableFramework(names, [Segment(0, len(names), _Uniform(z))])


def _joint_framework(base: BaseCode,
                     scheme: CouplingScheme) -> VariableFramework:
    edges = base.edges
    names = [f"P[{i},{j}]" for i, j in edges] + \
            [f"L[{i},{j}]" for i, j in edges]
    return VariableFramework(names, [
        Segment(0, len(edges), _Categorical(scheme.pattern, scheme.probs)),
        Segment(len(edges), 2 * len(edges), _Uniform(scheme.lifting_degree)),
    ])


def default_cap(cset: CandidateSet, probs) -> int:
    """1000x the expected-resamples bound when the run is certified to
    converge, a flat large cap otherwise."""
    if len(cset) == 0:
        return FALLBACK_CAP
    try:
        rep = bounds.theorem1_feasibility(cset, probs,
                                          delta_source="observed")
    except ValueError:
        return FALLBACK_CAP
    if rep.feasible:
        if rep.resample_bound is not None:
            return 1000 * max(1, math.ceil(rep.resample_bound))
        return 1000 * max(1, rep.k)
    return FALLBACK_CAP


def _grid_from_values(base: BaseCode, stage: str, values: Sequence[int],
                      index: dict[Edge, int], offset: int = 0) -> Assignment:
    grid: list[list[Optional[int]]] = [[None] * base.kappa
                                       for _ in range(base.gamma)]
    for (i, j), n in index.items():
        grid[i][j] = values[offset + n]
    return Assignment(stage, tuple(tuple(row) for row in grid))


def run_stage_partition(base: BaseCode, scheme: CouplingScheme, targets,
                        seed: SeedLike,
                        max_resamples: Optional[int] = None
                        ) -> tuple[Assignment, MTTrace]:
    """Draw spreading values until no target survives the integer condition."""
    cset, cands = _normalize_targets(base, targets)
    index = _edge_index(base)
    events = _build_events(
        cands,
        lambda c: [_partition_condition(c, index, len(scheme.pattern))],
        "partition")
    if max_resamples is None:
        probs = [spreading_prob_exact(c, scheme) for c in cset]
        max_resamples = default_cap(cset, probs)
    framework = _partition_framework(base, scheme)
    values, trace = run_mt(framework, events, seed, max_resamples)
    return _grid_from_values(base, "partition", values, index), trace


def run_stage_lift(base: BaseCode, scheme: CouplingScheme,
                   partition: Assignment, targets, seed: SeedLike,
                   max_resamples: Optional[int] = None
                   ) -> tuple[Assignment, MTTrace]:
    """Draw lift shifts killing the targets that survived the partition.

    Only partition-active targets become events; with no survivors the
    result is a plain uniform draw with zero resamples.
    """
    cset, cands = _normalize_targets(base, targets)
    z = scheme.lifting_degree
    survivors = tuple(c for c in cands if is_active_partition(c, partition))
    index = _edge_index(base)
    events = _build_events(
        survivors, lambda c: [_lift_condition(c, index, z, 0)], "lift")
    if max_resamples is None and survivors:
        sset = CandidateSet(base, survivors)
        probs = [lift_prob_exact(c, z) for c in sset]
        max_resamples = default_cap(sset, probs)
    framework = _lift_framework(base, z)
    values, trace = run_mt(framework, events, seed, max_resamples)
    trace.metadata["survivors"] = [c.key for c in survivors]
    return _grid_from_values(base, "lift", values, index), trace


def run_joint(base: BaseCode, scheme: CouplingScheme, targets,
              seed: SeedLike, max_resamples: Optional[int] = None
              ) -> tuple[CodeInstance, MTTrace]:
    """Resample spreading values and lift shifts together (one event per
    target, conjunction of both conditions)."""
    cset, cands = _normalize_targets(base, targets)
    index = _edge_index(base)
    z = scheme.lifting_degree
    n_edges = len(base.edges)

    def conditions(c: WalkCandidate):
        return [_partition_condition(c, index, len(scheme.pattern)),
                _lift_condition(c, index, z, n_edges)]

    events = _build_events(cands, conditions, "joint")
    if max_resamples is None:
        probs = [joint_prob(c, scheme) for c in cset]
        max_resamples = default_cap(cset, probs)
    framework = _joint_framework(base, scheme)
    values, trace = run_mt(framework, events, seed, max_resamples)
    partition = _grid_from_values(base, "partition", values, index)
    lift = _grid_from_values(base, "lift", values, index, offset=n_edges)
    instance = CodeInstance(base, scheme, partition, lift,
                            seed=seed if isinstance(seed, int) else None)
    return instance, trace


@dataclass
class TwoStageReport:
    partition_trace: MTTrace
    lift_trace: MTTrace
    survivor_keys: tuple[str, ...]
    stage1_cleared: bool


def derive_child_seeds(seed: SeedLike, n: int) -> list[int]:
    """Independent integer seeds via SeedSequence spawning (documented
    mixing: children are hash-derived, collision-resistant, replayable)."""
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return [int(child.generate_state(1, np.uint64)[0])
            for child in ss.spawn(n)]


def construct_two_stage(base: BaseCode, scheme: CouplingScheme, targets,
                        seed: SeedLike,
                        stage1_max: Optional[int] = None,
                        stage2_max: Optional[int] = None
                        ) -> tuple[CodeInstance, TwoStageReport]:
    """Partition stage first (best effort), then lift the survivors.

    The partition stage alone is often unsatisfiable (it merely thins the
    targets), so inside the pipeline its cap defaults to a modest
    100 x k when no convergence certificate exists, and hitting it is not
    an error: whatever survives goes to the lift stage.
    """
    cset, cands = _normalize_targets(base, targets)
    s1, s2 = derive_child_seeds(seed, 2)
    if stage1_max is None:
        probs = [spreading_prob_exact(c, scheme) for c in cset]
        cap = default_cap(cset, probs)
        if cap == FALLBACK_CAP:
            cap = PIPELINE_STAGE1_CAP_FACTOR * max(1, len(cset))
        stage1_max = cap
    partition, trace1 = run_stage_partition(base, scheme, cands, s1,
                                            stage1_max)
    lift, trace2 = run_stage_lift(base, scheme, partition, cands, s2,
                                  stage2_max)
    instance = CodeInstance(base, scheme, partition, lift,
                            seed=seed if isinstance(seed, int) else None)
    report = TwoStageReport(
        partition_trace=trace1,
        lift_trace=trace2,
        survivor_keys=tuple(trace2.metadata.get("survivors", ())),
        stage1_cleared=trace1.terminated,
    )
    return instance, report

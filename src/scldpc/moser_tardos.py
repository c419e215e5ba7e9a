"""Resampling engine: kill target walks by redrawing the edges they use.

Variables: one integer per masked base edge and stage, laid out as the
stage's blocks (``probability.stage_blocks``): spreading values with the
scheme's distribution, lift shifts uniform on [0, Z), or both.  Each
avoidable target walk becomes a bad event: its linear forms
(``probability.forms``, one per block, over the integers for spreading
values and mod Z for shifts) all vanish.  The event's scope is the set of
variables its forms mention.

Each run compiles its targets once (``compile_events``) into an
``EventSystem``: the layout, and per event in canonical candidate order its
label, forms, scope and dependency neighbourhood.  ``run_mt`` then only
resamples.  The solver is the classic resample-until-clean procedure with
the depth-first recursion order made explicit:

    while some bad event occurs:
        RESAMPLE(least occurring event)               # canonical order
    RESAMPLE(e):
        redraw the variables in scope(e)
        while some event sharing scope with e occurs:
            RESAMPLE(least such event)

"least" always means the global canonical candidate order restricted to
the relevant subset (recorded in trace metadata), and "sharing scope"
includes e itself.  Every run is a pure function of (inputs, seed).

Tautological targets (no forms left: all coefficients zero, a one-value
pattern, or every coefficient divisible by Z) can never be resampled away
and are rejected up front with an AdmissionError naming them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .model import Assignment, BaseCode, CodeInstance, CouplingScheme
from .probability import (Block, Form, draw, edge_index, forms, stage_blocks,
                          stage_prob, vanish)
from .walks import CandidateSet, is_active_partition
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


@dataclass(frozen=True)
class EventSystem:
    """One stage's bad events, compiled for ``run_mt``.

    ``blocks`` and ``n`` (variables per block) are the stage layout; the
    per-event tuples run in canonical candidate order.  ``neighbors[e]``
    lists, sorted, every event sharing a variable with e, e included.
    """

    blocks: tuple[Block, ...]
    n: int
    labels: tuple[str, ...]
    forms: tuple[tuple[Form, ...], ...]
    scopes: tuple[tuple[int, ...], ...]
    neighbors: tuple[tuple[int, ...], ...]


@dataclass
class MTTrace:
    total_resamples: int
    per_event: dict[str, int]
    wall_iterations: int
    terminated: bool
    seed: Optional[int]
    max_resamples: Optional[int]
    metadata: dict = field(default_factory=dict)


def compile_events(cset: CandidateSet, scheme: CouplingScheme,
                   stage: str) -> EventSystem:
    """One event per target, in the set's canonical order; raises
    AdmissionError naming the targets with no forms in the stage."""
    blocks = stage_blocks(scheme, stage)
    index = edge_index(cset.base.edges)
    event_forms = tuple(forms(c, index, blocks) for c in cset)
    rejected = [c.key for c, fs in zip(cset, event_forms) if not fs]
    if rejected:
        raise AdmissionError(rejected, stage)
    scopes = tuple(tuple(sorted({v for var_idx, _, _ in fs for v in var_idx}))
                   for fs in event_forms)
    var_events: dict[int, list[int]] = {}
    for e, scope in enumerate(scopes):
        for v in scope:
            var_events.setdefault(v, []).append(e)
    neighbors = tuple(tuple(sorted({t for v in scope for t in var_events[v]}))
                      for scope in scopes)
    return EventSystem(blocks, len(index), tuple(c.key for c in cset),
                       event_forms, scopes, neighbors)


def run_mt(system: EventSystem, seed: SeedLike,
           max_resamples: Optional[int] = None) -> tuple[list[int], MTTrace]:
    """Resample until no event occurs (or the cap is hit).

    None disables the cap; the stage runners always pass one.  Returns
    the final variable values and the trace; ``terminated`` is False iff
    the cap cut the run short, in which case the values are the partial
    state.
    """
    blocks, n_vars, event_forms = system.blocks, system.n, system.forms
    scopes, neighbors = system.scopes, system.neighbors
    rng = np.random.default_rng(seed)
    n_ev = len(event_forms)
    values = draw(rng, blocks, n_vars)
    occ = [vanish(f, values) for f in event_forms]
    per_event = [0] * n_ev
    total = 0
    wall = 0
    capped = False

    def resample(n: int) -> bool:
        """One redraw of event n's scope; False when the cap refuses it."""
        nonlocal total
        if max_resamples is not None and total >= max_resamples:
            return False
        draw(rng, blocks, n_vars, values, scopes[n])
        total += 1
        per_event[n] += 1
        for t in neighbors[n]:
            occ[t] = vanish(event_forms[t], values)
        return True

    while not capped:
        start = next((n for n in range(n_ev) if occ[n]), None)
        if start is None:
            break
        wall += 1
        capped = not resample(start)
        stack = [start]
        while stack and not capped:
            nxt = next((t for t in neighbors[stack[-1]] if occ[t]), None)
            if nxt is None:
                stack.pop()
            else:
                capped = not resample(nxt)
                stack.append(nxt)

    terminated = not capped
    if terminated and any(vanish(f, values) for f in event_forms):
        raise AssertionError("resampler stopped while an event still occurs")
    trace = MTTrace(
        total_resamples=total,
        per_event=dict(zip(system.labels, per_event)),
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

def _normalize_targets(base: BaseCode, targets) -> CandidateSet:
    if isinstance(targets, CandidateSet):
        if targets.base != base:
            raise ValueError("target set was built over a different base")
        return targets
    return CandidateSet(base, tuple(set(targets)))


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


def stage_cap(cset: CandidateSet, scheme: CouplingScheme, stage: str) -> int:
    """``default_cap`` over the targets' activation probabilities in the
    stage (``probability.stage_prob``)."""
    return default_cap(cset, [stage_prob(c, scheme, stage) for c in cset])


def pipeline_stage1_cap(cset: CandidateSet, scheme: CouplingScheme) -> int:
    """Stage-1 cap of the two-stage pipeline: ``default_cap`` when the
    partition stage is certified, PIPELINE_STAGE1_CAP_FACTOR x k otherwise."""
    cap = stage_cap(cset, scheme, "partition")
    if cap == FALLBACK_CAP:
        cap = PIPELINE_STAGE1_CAP_FACTOR * max(1, len(cset))
    return cap


def _grid_from_values(base: BaseCode, stage: str, values: Sequence[int],
                      offset: int = 0) -> Assignment:
    grid: list[list[Optional[int]]] = [[None] * base.kappa
                                       for _ in range(base.gamma)]
    for n, (i, j) in enumerate(base.edges):
        grid[i][j] = values[offset + n]
    return Assignment(stage, tuple(tuple(row) for row in grid))


def run_stage_partition(base: BaseCode, scheme: CouplingScheme, targets,
                        seed: SeedLike,
                        max_resamples: Optional[int] = None
                        ) -> tuple[Assignment, MTTrace]:
    """Draw spreading values until no target survives the integer condition."""
    cset = _normalize_targets(base, targets)
    system = compile_events(cset, scheme, "partition")
    if max_resamples is None:
        max_resamples = stage_cap(cset, scheme, "partition")
    values, trace = run_mt(system, seed, max_resamples)
    return _grid_from_values(base, "partition", values), trace


def run_stage_lift(base: BaseCode, scheme: CouplingScheme,
                   partition: Assignment, targets, seed: SeedLike,
                   max_resamples: Optional[int] = None
                   ) -> tuple[Assignment, MTTrace]:
    """Draw lift shifts killing the targets that survived the partition.

    Only partition-active targets become events; with no survivors the
    result is a plain uniform draw with zero resamples.
    """
    cset = _normalize_targets(base, targets)
    survivors = CandidateSet(base, tuple(
        c for c in cset if is_active_partition(c, partition)))
    system = compile_events(survivors, scheme, "lift")
    if max_resamples is None and len(survivors):
        max_resamples = stage_cap(survivors, scheme, "lift")
    values, trace = run_mt(system, seed, max_resamples)
    trace.metadata["survivors"] = list(system.labels)
    return _grid_from_values(base, "lift", values), trace


def run_joint(base: BaseCode, scheme: CouplingScheme, targets,
              seed: SeedLike, max_resamples: Optional[int] = None
              ) -> tuple[CodeInstance, MTTrace]:
    """Resample spreading values and lift shifts together (one event per
    target, conjunction of both forms)."""
    cset = _normalize_targets(base, targets)
    system = compile_events(cset, scheme, "joint")
    if max_resamples is None:
        max_resamples = stage_cap(cset, scheme, "joint")
    values, trace = run_mt(system, seed, max_resamples)
    partition = _grid_from_values(base, "partition", values)
    lift = _grid_from_values(base, "lift", values, offset=len(base.edges))
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
    cset = _normalize_targets(base, targets)
    s1, s2 = derive_child_seeds(seed, 2)
    if stage1_max is None:
        stage1_max = pipeline_stage1_cap(cset, scheme)
    partition, trace1 = run_stage_partition(base, scheme, cset, s1,
                                            stage1_max)
    lift, trace2 = run_stage_lift(base, scheme, partition, cset, s2,
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

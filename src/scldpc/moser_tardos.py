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
from functools import lru_cache
from typing import Optional, Sequence

from .model import Assignment, BaseCode, CodeInstance, CouplingScheme
from .probability import (Block, Form, SeedLike, draw, edge_index, forms,
                          recorded_seed, rng, seed_int, seed_sequence,
                          stage_blocks, stage_prob, vanish)
from .walks import CandidateSet, closed_neighbourhoods, is_active_partition
from . import bounds

FALLBACK_CAP = 10 ** 6


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
    per-event tuples run in canonical candidate order, and ``neighbors``
    is their dependency relation, ``walks.closed_neighbourhoods(scopes)``.
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


# Pure over frozen inputs, and no caller mutates the result.  One entry
# serves an experiment's repeated trials; more would keep an earlier
# target set alive for the life of the process.
@lru_cache(maxsize=1)
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
    return EventSystem(blocks, len(index), tuple(c.key for c in cset),
                       event_forms, scopes, closed_neighbourhoods(scopes))


def run_mt(system: EventSystem, seed: SeedLike,
           max_resamples: Optional[int] = None) -> tuple[list[int], MTTrace]:
    """Resample until no event occurs (or the cap is hit).

    None disables the cap (``run_stage_lift``'s default with no
    survivors); a negative cap is a ValueError.  Returns the final
    values and the trace; ``terminated`` is False iff the cap cut the
    run short, in which case the values are the partial state.
    """
    if max_resamples is not None and max_resamples < 0:
        raise ValueError("resample cap must be non-negative")
    blocks, n_vars, event_forms = system.blocks, system.n, system.forms
    scopes, neighbors = system.scopes, system.neighbors
    gen = rng(seed)
    n_ev = len(event_forms)
    values = draw(gen, blocks, n_vars)
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
        draw(gen, blocks, n_vars, values, scopes[n])
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
        seed=recorded_seed(seed),
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


@lru_cache(maxsize=1)  # one entry, as compile_events
def stage_cap(cset: CandidateSet, scheme: CouplingScheme, stage: str) -> int:
    """``default_cap`` over the targets' activation probabilities in the
    stage (``probability.stage_prob``)."""
    return default_cap(cset, [stage_prob(c, scheme, stage) for c in cset])


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
    instance = CodeInstance(base, scheme, partition, lift, seed=trace.seed)
    return instance, trace


@dataclass
class TwoStageReport:
    partition_trace: MTTrace
    lift_trace: MTTrace
    survivor_keys: tuple[str, ...]
    stage1_cleared: bool

    @property
    def terminated(self) -> bool:
        """Did stage 2 terminate, completing the construction?"""
        return self.lift_trace.terminated

    @property
    def total_resamples(self) -> int:
        """Resamples of both stages together."""
        return (self.partition_trace.total_resamples
                + self.lift_trace.total_resamples)


def derive_child_seeds(seed: SeedLike, n: int) -> list[int]:
    """Independent integer seeds: child i is the stream
    ``seed_sequence(seed, i)`` (what SeedSequence spawning gives a fresh
    stream, hash-derived and collision-resistant), so a SeedSequence seed
    is left as it is and replays."""
    return [seed_int(seed_sequence(seed, i)) for i in range(n)]


def construct_two_stage(base: BaseCode, scheme: CouplingScheme, targets,
                        seed: SeedLike,
                        stage1_max: Optional[int] = None,
                        stage2_max: Optional[int] = None
                        ) -> tuple[CodeInstance, TwoStageReport]:
    """Partition stage first (best effort), then lift the survivors.

    Stage 1 runs over the targets the partition stage can thin; the rest
    (e.g. every target at memory 0) go to stage 2 as they are.  Its cap
    defaults to the partition stage's ``stage_cap`` when that stage is
    certified, and to 0 otherwise: without a certificate a capped run
    guarantees nothing, so stage 1 is the initial draw alone.  Whatever
    survives goes to the lift stage.
    """
    cset = _normalize_targets(base, targets)
    try:  # the compile names the targets no partition can thin
        compile_events(cset, scheme, "partition")
        thinnable = cset
    except AdmissionError as exc:
        always = set(exc.labels)
        thinnable = CandidateSet(base, tuple(
            c for c in cset if c.key not in always))
    s1, s2 = derive_child_seeds(seed, 2)
    if stage1_max is None:
        stage1_max = stage_cap(thinnable, scheme, "partition")
        if stage1_max == FALLBACK_CAP:
            stage1_max = 0
    partition, trace1 = run_stage_partition(base, scheme, thinnable, s1,
                                            stage1_max)
    lift, trace2 = run_stage_lift(base, scheme, partition, cset, s2,
                                  stage2_max)
    instance = CodeInstance(base, scheme, partition, lift,
                            seed=recorded_seed(seed))
    survivors = tuple(trace2.metadata["survivors"])
    report = TwoStageReport(
        partition_trace=trace1,
        lift_trace=trace2,
        survivor_keys=survivors,
        stage1_cleared=not survivors,
    )
    return instance, report

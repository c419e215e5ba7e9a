"""Resampling engine: kill target walks by redrawing the edges they use.

Variables: one integer per masked base edge and stage, laid out as the
stage's blocks (``probability.stage_blocks``): spreading values with the
scheme's distribution, lift shifts uniform on [0, Z), or both.  Each
avoidable target walk becomes a bad event: its linear forms
(``probability.forms``, one per block, over the integers for spreading
values and mod Z for shifts) all vanish.  The event's scope is the set of
variables its forms mention; it decides what a resample redraws.

Each run compiles its targets once into an ``EventSystem``: the layout,
and per event in canonical candidate order its label, forms, scope and
dependency neighbourhood (the events sharing a support edge), and on first
use its Theorem 1 ``certificate``, which sets its resample ``budget``.  A
run or study compiles each target set once (``compile_events``) and
reaches the compile by identity: later lookups pass the compiled system's
own ``cset``.  Stage 2 picks its survivors with the whole set's partition
forms on stage 1's values, kept in the stage layout (only a
``CodeInstance`` holds grids), and compiles them fresh per trial.
``run_mt`` then only resamples, up to the budget unless given a cap: the
Moser-Tardos loop

    while some bad event occurs:
        redraw the variables in scope(least occurring event)

where "least" is the canonical candidate order.  A redraw can only
change the events sharing a support edge with the redrawn one, so only
those are evaluated again.  Every run is a pure function of (inputs,
seed); its trace keys each event's resamples by label, so stage 2's trace
lists its survivors.

Tautological targets (no forms left: all coefficients zero, a one-value
pattern, or every coefficient divisible by Z) can never be resampled away:
the compile records them (``rejected``), and ``run_mt`` raises an
AdmissionError naming them before it draws.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .model import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    record)
from .probability import (Block, Form, SeedLike, draw, recorded_seed, rng,
                          seed_int, seed_sequence, stage_forms, stage_prob,
                          vanish)
from .walks import CandidateSet
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


@record(frozen=True)
class EventSystem:
    """One stage's bad events, compiled for ``run_mt``.

    ``blocks`` and ``n`` (variables per block) are the stage layout; the
    per-event tuples run in canonical candidate order, and ``neighbors``
    is their dependency relation, the graph Theorem 1 counts: the target
    set's ``neighbourhoods`` (events adjacent iff their supports share a
    base edge).
    ``rejected`` names, in that order, the targets with no forms.
    """

    cset: CandidateSet
    scheme: CouplingScheme
    stage: str
    blocks: tuple[Block, ...]
    n: int
    labels: tuple[str, ...]
    forms: tuple[tuple[Form, ...], ...]
    scopes: tuple[tuple[int, ...], ...]
    neighbors: tuple[tuple[int, ...], ...]
    rejected: tuple[str, ...]

    @cached_property
    def certificate(self) -> Optional[bounds.BoundReport]:
        """Theorem 1 on the observed degree over the targets' stage
        probabilities; None without targets or with ``rejected`` ones
        (certain to occur), where it does not apply."""
        if self.rejected or not self.labels:
            return None
        return bounds.theorem1_feasibility(
            self.cset, [stage_prob(c, self.scheme, self.stage)
                        for c in self.cset], delta_source="observed")

    def budget(self, uncertified: int = FALLBACK_CAP) -> Optional[int]:
        """The stage's default resample cap: None without events, 1000x
        the certificate's resample bound (or target count) when it
        certifies, else ``uncertified``."""
        if not self.labels:
            return None
        rep = self.certificate
        if rep is None or not rep.feasible:
            return uncertified
        bound = rep.resample_bound
        return 1000 * max(1, rep.k if bound is None else math.ceil(bound))


@record
class MTTrace:
    """One resampler run: total and per-event resamples, whether it
    terminated (no target left occurring) rather than hit its cap, the
    seed and the cap.  ``per_event`` has one entry per event, zeros
    included, in canonical order: its keys are the stage's events, for
    stage 2 the survivors."""

    total_resamples: int
    per_event: dict[str, int]
    terminated: bool
    seed: Optional[int]
    max_resamples: Optional[int]

    @property
    def wall_iterations(self) -> int:
        """``total_resamples``: each redraw is one iteration of the loop.
        Kept for the benchmark's counter, and deleted with it."""
        return self.total_resamples


def _compile(cset: CandidateSet, scheme: CouplingScheme,
             stage: str) -> EventSystem:
    """One event per target, in the set's canonical order; the targets
    with no forms in the stage are recorded as ``rejected``."""
    edges = cset.base.edges
    blocks, event_forms = stage_forms(edges, cset, scheme, stage)
    scopes = tuple(tuple(sorted({v for var_idx, _, _ in fs for v in var_idx}))
                   for fs in event_forms)
    return EventSystem(
        cset, scheme, stage, blocks, len(edges), tuple(c.key for c in cset),
        event_forms, scopes, cset.neighbourhoods,
        tuple(c.key for c, fs in zip(cset, event_forms) if not fs))


# Pure over frozen inputs; only the certificate is filled in later, once.
# Stage 2's survivor sets differ per trial and bypass the memo.
compile_events = lru_cache(maxsize=2)(_compile)


def run_mt(system: EventSystem, seed: SeedLike,
           max_resamples: Optional[int] = None) -> tuple[list[int], MTTrace]:
    """Resample until no event occurs (or the cap is hit).

    Each step checks the cap, redraws the scope of the least occurring
    event and evaluates its neighbours again.  None means the stage's
    ``budget()`` (None only without events, which never resample); a
    negative cap is a ValueError.  Returns the final values and the trace;
    ``terminated`` is False iff the cap cut the run short, in which case
    the values are the partial state.
    """
    if system.rejected:
        raise AdmissionError(system.rejected, system.stage)
    if max_resamples is None:
        max_resamples = system.budget()
    elif max_resamples < 0:
        raise ValueError("resample cap must be non-negative")
    blocks, n_vars, event_forms = system.blocks, system.n, system.forms
    gen = rng(seed)
    values = draw(gen, blocks, n_vars)
    occurring = {t for t, f in enumerate(event_forms) if vanish(f, values)}
    per_event = [0] * len(event_forms)
    total = 0
    while occurring and total < max_resamples:
        e = min(occurring)
        draw(gen, blocks, n_vars, values, system.scopes[e])
        total += 1
        per_event[e] += 1
        for t in system.neighbors[e]:
            if vanish(event_forms[t], values):
                occurring.add(t)
            else:
                occurring.discard(t)

    terminated = not occurring
    if terminated and any(vanish(f, values) for f in event_forms):
        raise AssertionError("resampler stopped while an event still occurs")
    trace = MTTrace(
        total_resamples=total,
        per_event=dict(zip(system.labels, per_event)),
        terminated=terminated,
        seed=recorded_seed(seed),
        max_resamples=max_resamples,
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


@lru_cache(maxsize=2)
def _no_targets(base: BaseCode) -> CandidateSet:
    """One empty target set per base: its compile is reached by identity."""
    return CandidateSet(base, ())


def _instance(base: BaseCode, scheme: CouplingScheme, values: Sequence[int],
              seed: Optional[int]) -> CodeInstance:
    """The instance of joint-layout ``values``: each stage's masked cells,
    row-major (``base.edges``), take them in turn, partition first."""
    it = iter(values)
    grids = (Assignment(stage, tuple([next(it) if on else None for on in row]
                                     for row in base.mask))
             for stage in ("partition", "lift"))
    return CodeInstance(base, scheme, *grids, seed=seed)


def values_from_grids(base: BaseCode, *grids: Assignment) -> list[int]:
    """An instance's values in the stage layout: partition, then lift."""
    return [g.values[i][j] for g in grids for i, j in base.edges]


def run_stage_partition(base: BaseCode, scheme: CouplingScheme, targets,
                        seed: SeedLike, max_resamples: Optional[int] = None
                        ) -> tuple[list[int], MTTrace]:
    """Draw spreading values, one per ``base.edges``, until no target
    survives the integer condition."""
    cset = _normalize_targets(base, targets)
    return run_mt(compile_events(cset, scheme, "partition"), seed,
                  max_resamples)


def run_stage_lift(base: BaseCode, scheme: CouplingScheme,
                   partition: Sequence[int], targets, seed: SeedLike,
                   max_resamples: Optional[int] = None
                   ) -> tuple[list[int], MTTrace]:
    """Draw lift shifts, one per ``base.edges``, killing the targets that
    survived ``partition`` (stage 1's spreading values in that layout).

    The survivors are the targets whose partition forms all vanish on
    ``partition`` (a target without forms always survives); only they
    become events (the trace's ``per_event`` keys).  With none the result
    is a plain uniform draw with zero resamples.  A partition of another
    length or with a value outside the pattern is a ValueError.
    """
    cset = _normalize_targets(base, targets)
    if len(partition) != len(base.edges):
        raise ValueError(f"partition holds {len(partition)} values for "
                         f"{len(base.edges)} base edges")
    for e, v in zip(base.edges, partition):
        if v not in scheme.pattern:
            raise ValueError(f"partition value {v} on {e} not in pattern")
    stage1 = compile_events(cset, scheme, "partition")
    survivors = CandidateSet(base, tuple(
        c for c, fs in zip(cset, stage1.forms) if vanish(fs, partition)))
    return run_mt(_compile(survivors, scheme, "lift"), seed, max_resamples)


def run_joint(base: BaseCode, scheme: CouplingScheme, targets,
              seed: SeedLike, max_resamples: Optional[int] = None
              ) -> tuple[CodeInstance, MTTrace]:
    """Resample spreading values and lift shifts together (one event per
    target, conjunction of both forms)."""
    cset = _normalize_targets(base, targets)
    values, trace = run_mt(compile_events(cset, scheme, "joint"), seed,
                           max_resamples)
    return _instance(base, scheme, values, trace.seed), trace


@record
class TwoStageReport:
    """The two stages' traces of ``construct_two_stage``; the lift
    trace's events (its ``per_event`` keys) are the targets stage 1 left
    occurring."""

    partition_trace: MTTrace
    lift_trace: MTTrace

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
    root = seed_sequence(seed)
    return [seed_int(seed_sequence(root, i)) for i in range(n)]


def construct_two_stage(base: BaseCode, scheme: CouplingScheme, targets,
                        seed: SeedLike, max_resamples: Optional[int] = None
                        ) -> tuple[CodeInstance, TwoStageReport]:
    """Partition stage first (best effort), then lift the survivors.

    Stage 1 runs on the targets' partition compile, or on no targets when
    that compile ``rejected`` some: then either the pattern has one value
    and stage 1 can thin none, or a rejected target's coefficients all
    vanish, so it has no lift form either and stage 2 refuses the run
    whatever stage 1 drew; without events stage 1 has no cap.  Otherwise
    its cap is the compile's ``budget(0)``: without a certificate a capped
    run guarantees nothing, so stage 1 is the initial draw alone.
    Whatever survives goes to the lift stage, the run ``max_resamples``
    caps (None: its survivors' ``budget()``), as in ``run_joint``.
    """
    whole = compile_events(_normalize_targets(base, targets), scheme,
                           "partition")
    s1, s2 = derive_child_seeds(seed, 2)
    stage1 = _no_targets(base) if whole.rejected else whole.cset
    partition, trace1 = run_stage_partition(
        base, scheme, stage1, s1, None if whole.rejected else whole.budget(0))
    lift, trace2 = run_stage_lift(base, scheme, partition, whole.cset, s2,
                                  max_resamples)
    return (_instance(base, scheme, partition + lift, recorded_seed(seed)),
            TwoStageReport(trace1, trace2))

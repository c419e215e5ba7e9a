"""Library-style helpers that only the tests call.

None of these is on a path that ``scldpc`` itself runs, so they live here
rather than in the package:

* ``from_entries`` builds a ``SparseBinaryMatrix`` from (row, column)
  pairs;
* ``support_mod`` is a walk's lift-stage support;
* ``stage_grid`` is the ``Assignment`` grid of one stage's values in the
  stage layout (one per ``base.edges``), for the grid checks and goldens
  that read a stage runner's output;
* ``default_cap`` is the runners' budget rule written out on its own
  (the runners read it off the compiled stage, ``EventSystem.budget``),
  applied to a candidate set and its probabilities, with any ValueError
  from Theorem 1 read as no certificate;
* ``HarmfulStructure``, ``structure_joint_prob`` and ``mc_structure_prob``
  give the exact and Monte Carlo activation probability of a union of
  cycles;
* ``closed_neighbourhoods`` is the dependency relation over arbitrary
  scopes (each scope's sorted sharers, itself included), the oracle for
  the graph ``CandidateSet.neighbourhoods`` builds from the base-edge
  cliques and for the compiled events' variable scopes;
* ``dependency_pairs`` lists the dependency graph's edges;
* ``shift_bound_asymmetric`` is the shift bound's product over explicit
  clique weights (the study uses the symmetric bound's ``relaxed_bound``,
  which equals it at uniform weights 1/(Delta+1));
* ``CliqueCover``, ``build_pairwise_cover``, ``build_base_edge_cover``,
  ``verify_cover``, ``Lemma2Report`` and ``lemma2_evaluate`` are the
  generic clique-cover evaluator of the paper's Lemma 2, the independent
  route the tests check Theorem 1's closed forms against;
* ``record_classes`` lists the record classes the package's modules
  define (``dataclasses.is_dataclass`` finds them).
"""

from __future__ import annotations

import importlib
import itertools
import math
import pkgutil
from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import scldpc
from scldpc.model import (Assignment, BaseCode, CouplingScheme, Edge,
                          SparseBinaryMatrix)
from scldpc import bounds
from scldpc.probability import (ActivationProbability, draw, joint_prob,
                                lift_prob_bound, rng, stage_forms, vanish)
from scldpc.walks import (CandidateSet, WalkCandidate, dependency_degree,
                          harmful_weight)


def from_entries(nrows: int, ncols: int,
                 entries: Iterable[Edge]) -> SparseBinaryMatrix:
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for r, c in entries:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r},{c}) out of range")
        cols[c].add(r)
    return SparseBinaryMatrix(nrows, ncols, [sorted(s) for s in cols])


def stage_grid(base: BaseCode, stage: str,
               values: Sequence[int]) -> Assignment:
    if len(values) != len(base.edges):
        raise ValueError("one value per base edge expected")
    return Assignment.from_dict(stage, dict(zip(base.edges, values)),
                                base.gamma, base.kappa)


def support_mod(cand: WalkCandidate, z: int) -> tuple[Edge, ...]:
    """Edges whose coefficient stays nonzero mod Z (lift-stage support)."""
    if z < 1:
        raise ValueError("lifting degree must be at least 1")
    return tuple(e for e, c in cand.coeffs if c % z != 0)


def default_cap(cset: CandidateSet, probs, uncertified: int = 10 ** 6
                ) -> int:
    """1000x Theorem 1's resample bound (or the target count when it
    gives none, at least 1) if it holds, else ``uncertified`` (10**6, the
    package's FALLBACK_CAP)."""
    try:
        rep = bounds.theorem1_feasibility(cset, probs,
                                          delta_source="observed")
    except ValueError:
        return uncertified
    if not rep.feasible:
        return uncertified
    bound = rep.k if rep.resample_bound is None else rep.resample_bound
    return 1000 * max(1, math.ceil(bound))


@dataclass(frozen=True)
class HarmfulStructure:
    """A union of fundamental cycles treated as one object.

    Exploratory: multi-cycle structures are not resampling targets, but
    their activation probability is still useful for bound studies.
    """

    cycles: tuple[WalkCandidate, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.cycles:
            raise ValueError("structure needs at least one cycle")


def structure_joint_prob(struct: HarmfulStructure,
                         scheme: CouplingScheme
                         ) -> Optional[ActivationProbability]:
    """Exact joint activation when the cycles' supports are edge-disjoint.

    Disjoint supports make the per-cycle events independent, so the
    probabilities multiply.  Returns None when supports overlap; use
    mc_structure_prob (plus lift_prob_bound) there.
    """
    seen: set = set()
    for c in struct.cycles:
        for e in c.support:
            if e in seen:
                return None
            seen.add(e)
    spread = Fraction(1)
    lift = Fraction(1)
    for c in struct.cycles:
        p = joint_prob(c, scheme)
        spread *= p.spread
        lift *= p.lift
    bound = lift_prob_bound([c.two_g for c in struct.cycles],
                            scheme.lifting_degree)
    return ActivationProbability(spread, lift, bound)


def mc_structure_prob(struct: HarmfulStructure, scheme: CouplingScheme,
                      trials: int, seed: int) -> float:
    """Monte Carlo estimate of P[every cycle active] for overlapping supports."""
    if trials < 1:
        raise ValueError("need at least one trial")
    gen = rng(seed)
    edges = sorted({e for c in struct.cycles for e in c.edges})
    blocks, cycle_forms = stage_forms(edges, struct.cycles, scheme, "joint")
    all_forms = [f for fs in cycle_forms for f in fs]
    hits = sum(vanish(all_forms, draw(gen, blocks, len(edges)))
               for _ in range(trials))
    return hits / trials


def closed_neighbourhoods(scopes: Sequence[Sequence]
                          ) -> tuple[tuple[int, ...], ...]:
    """The dependency relation: for each scope, the sorted indices of every
    scope sharing an element with it, itself included; an empty scope gets
    ()."""
    members: dict = {}
    for n, scope in enumerate(scopes):
        for v in scope:
            members.setdefault(v, []).append(n)
    return tuple(tuple(sorted(set().union(*(members.get(v, ())
                                            for v in scope))))
                 for scope in scopes)


def dependency_pairs(cset: CandidateSet) -> tuple[tuple[int, int], ...]:
    """Sorted dependency-graph edges (index pairs with intersecting support)."""
    return tuple((a, b) for a, nb in enumerate(cset.neighbourhoods)
                 for b in nb if b > a)


def shift_bound_asymmetric(xs: Sequence[Fraction]) -> Fraction:
    """prod 1/(1 - x_B) over the bad events overlapping the observable.

    Empty product = 1: an observable sharing no variables with any
    resampling target cannot drift at all.
    """
    out = Fraction(1)
    for x in xs:
        x = Fraction(x)
        if not 0 < x < 1:
            raise ValueError("clique weights must lie in (0, 1)")
        out /= (1 - x)
    return out


@dataclass(frozen=True)
class CliqueCover:
    """A family of dependency-graph cliques with one uniform weight x."""

    kind: str
    cliques: tuple[tuple[int, ...], ...]
    x: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.x < 1:
            raise ValueError("clique weight must lie in (0, 1)")
        object.__setattr__(
            self, "cliques",
            tuple(tuple(sorted(set(k))) for k in self.cliques))


def build_pairwise_cover(cset: CandidateSet,
                         x: Optional[Fraction] = None) -> CliqueCover:
    """One 2-clique per dependency edge; default weight 1/Delta_observed."""
    if x is None:
        delta = dependency_degree(cset).delta_observed
        if delta < 2:
            raise ValueError("default weight 1/Delta needs Delta >= 2; "
                             "pass x explicitly")
        x = Fraction(1, delta)
    return CliqueCover("pairwise", dependency_pairs(cset), Fraction(x))


def build_base_edge_cover(cset: CandidateSet,
                          x: Optional[Fraction] = None) -> CliqueCover:
    """One clique per base edge (all candidates whose support crosses it);
    default weight 1/((W-1) h)."""
    cliques = tuple(members for _, members in sorted(cset.by_support.items()))
    if x is None:
        _, w = harmful_weight(cset)
        if w < 2:
            raise ValueError("default weight needs harmful weight >= 2; "
                             "pass x explicitly")
        h = max(c.vertex_count for c in cset)
        x = Fraction(1, (w - 1) * h)
    return CliqueCover("base-edge", cliques, Fraction(x))


def verify_cover(cover: CliqueCover, cset: CandidateSet) -> bool:
    """Does every dependency edge lie inside some clique?"""
    covered = {pair for clique in cover.cliques
               for pair in itertools.combinations(clique, 2)}
    return covered.issuperset(dependency_pairs(cset))


@dataclass(frozen=True)
class Lemma2Report:
    condition1_ok: bool
    condition2_ok: bool
    avoidance_lb: Fraction
    runtime_bound: Optional[Fraction]


def lemma2_evaluate(cover: CliqueCover,
                    probs: Sequence[Fraction]) -> Lemma2Report:
    """Evaluate the clique local-lemma conditions and conclusions exactly,
    for one event per probability in ``probs``.

    Condition (1): every clique's weight sum stays below 1.  Condition (2):
    for each event i and each clique v containing it,
    P_i <= x * prod over the *other* cliques u containing i of
    (1 - (|K_u| - 1) x).  Conclusions: avoidance >= prod over cliques of
    (1 - |K_v| x), and expected total resamples
    <= sum_i min over cliques v containing i of x / (1 - |K_v| x).

    Raises when some event sits in no clique: the cover then says nothing
    about it and any verdict would be vacuous.
    """
    n_events = len(probs)
    p_values = [Fraction(p) for p in probs]
    x = cover.x
    member_cliques: list[list[int]] = [[] for _ in range(n_events)]
    for v, clique in enumerate(cover.cliques):
        for i in clique:
            if i >= n_events:
                raise ValueError("clique references unknown event index")
            member_cliques[i].append(v)
    orphans = [i for i in range(n_events) if not member_cliques[i]]
    if orphans:
        raise ValueError(f"events in no clique: {orphans}")

    sizes = [len(k) for k in cover.cliques]
    condition1 = all(s * x < 1 for s in sizes)
    condition2 = all(
        p <= math.prod((1 - (sizes[u] - 1) * x for u in cliques if u != v),
                       start=x)
        for p, cliques in zip(p_values, member_cliques) for v in cliques)
    avoidance = math.prod((1 - s * x for s in sizes), start=Fraction(1))
    least = [min((x / (1 - sizes[v] * x) for v in cliques
                  if sizes[v] * x < 1), default=None)
             for cliques in member_cliques]
    runtime = None if None in least else sum(least, Fraction(0))
    return Lemma2Report(condition1, condition2, avoidance, runtime)


def record_classes() -> list[type]:
    """The record classes of every ``scldpc`` module, in module order."""
    modules = [importlib.import_module(f"scldpc.{info.name}")
               for info in pkgutil.iter_modules(scldpc.__path__)
               if info.name != "__main__"]
    return [obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and is_dataclass(obj)
            and obj.__module__ == module.__name__]

"""The clique-cover route against the loops it replaced.

``lemma2_evaluate``, ``verify_cover`` and ``build_pairwise_cover`` state
the clique local lemma one expression per condition and conclusion.  The
``_old_*`` functions below are those three as they were before that
rewrite, verbatim, with the two dependency-view helpers they called.
Every result field must match them in value and in type, and every
``ValueError`` they raise must be raised with the same message.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional, Sequence

from hypothesis import given, settings, strategies as st

from scldpc import BaseCode, CandidateSet, enumerate_cycles
from scldpc.walks import DependencyReport
from helpers import (CliqueCover, Lemma2Report, build_base_edge_cover,
                     build_pairwise_cover, closed_neighbourhoods,
                     dependency_pairs, lemma2_evaluate, verify_cover)


def _old_report_of(neighbourhoods):
    """``DependencyReport.of`` as it was, verbatim."""
    degrees = tuple(max(len(nb) - 1, 0) for nb in neighbourhoods)
    return DependencyReport(degrees, max(degrees, default=0),
                            sum(degrees) // 2)


def _old_neighbour_pairs(neighbourhoods: Sequence[Sequence[int]]
                         ) -> tuple[tuple[int, int], ...]:
    """``walks.neighbour_pairs`` as it was, verbatim."""
    return tuple((a, b) for a, nb in enumerate(neighbourhoods)
                 for b in nb if b > a)


def _old_build_pairwise_cover(cset: CandidateSet,
                              x: Optional[Fraction] = None) -> CliqueCover:
    """One 2-clique per dependency edge; default weight 1/Delta_observed."""
    neighbourhoods = closed_neighbourhoods([c.support for c in cset])
    pairs = _old_neighbour_pairs(neighbourhoods)
    if x is None:
        delta = _old_report_of(neighbourhoods).delta_observed
        if delta < 2:
            raise ValueError("default weight 1/Delta needs Delta >= 2; "
                             "pass x explicitly")
        x = Fraction(1, delta)
    return CliqueCover("pairwise", pairs, Fraction(x))


def _old_verify_cover(cover: CliqueCover, cset: CandidateSet) -> bool:
    """Does every dependency edge lie inside some clique?"""
    covered: set[tuple[int, int]] = set()
    for clique in cover.cliques:
        for a_pos, a in enumerate(clique):
            for b in clique[a_pos + 1:]:
                covered.add((a, b))
    return all(pair in covered for pair in dependency_pairs(cset))


def _old_lemma2_evaluate(cover: CliqueCover, n_events: int,
                         probs: Sequence[Fraction]) -> Lemma2Report:
    """``lemma2_evaluate`` before the rewrite, verbatim."""
    if len(probs) != n_events:
        raise ValueError("one probability per event")
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

    condition2 = True
    for i in range(n_events):
        for v in member_cliques[i]:
            rhs = x
            for u in member_cliques[i]:
                if u != v:
                    rhs *= 1 - (sizes[u] - 1) * x
            if p_values[i] > rhs:
                condition2 = False
                break
        if not condition2:
            break

    avoidance = Fraction(1)
    for s in sizes:
        avoidance *= (1 - s * x)

    runtime: Optional[Fraction] = Fraction(0)
    for i in range(n_events):
        ratios = [x / (1 - sizes[v] * x) for v in member_cliques[i]
                  if sizes[v] * x < 1]
        if not ratios:
            runtime = None
            break
        runtime += min(ratios)

    return Lemma2Report(condition1, condition2, avoidance, runtime)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _outcome(call, *args):
    """A call's result, or ("ValueError", message) when it raises one."""
    try:
        return call(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _typed(report):
    """Each field of a report or cover as (type, value)."""
    if isinstance(report, (Lemma2Report, CliqueCover)):
        return tuple((type(v), v) for v in vars(report).values())
    return type(report), report


def _thresholds(cover: CliqueCover, n_events: int) -> list[Fraction]:
    """Per event in range, its least condition-(2) right-hand side."""
    sizes = [len(k) for k in cover.cliques]
    out = []
    for i in range(n_events):
        mine = [v for v, k in enumerate(cover.cliques) if i in k]
        rhs = []
        for v in mine:
            value = cover.x
            for u in mine:
                if u != v:
                    value *= 1 - (sizes[u] - 1) * cover.x
            rhs.append(value)
        out.append(min(rhs, default=Fraction(0)))
    return out


@st.composite
def _probs(draw, cover: CliqueCover, n_events: int):
    """One probability per event: at its condition-(2) threshold, just
    above or below it, or anywhere in [0, 1]; rarely one too few, so
    that a clique may name an event with no probability."""
    tiny = Fraction(1, 10 ** 6)
    probs = []
    for t in _thresholds(cover, n_events):
        kind = draw(st.sampled_from(("at", "above", "below", "any")))
        if kind == "any":
            probs.append(Fraction(draw(st.integers(0, 40)), 40))
        else:
            probs.append(t + {"at": 0, "above": tiny, "below": -tiny}[kind])
    if probs and draw(st.integers(0, 19)) == 10:
        probs.pop()
    return probs


_WEIGHTS = st.builds(Fraction, st.integers(1, 6), st.integers(7, 12))


def _check(cover: CliqueCover, probs) -> None:
    old = _outcome(_old_lemma2_evaluate, cover, len(probs), probs)
    new = _outcome(lemma2_evaluate, cover, probs)
    assert _typed(new) == _typed(old)


@settings(max_examples=400, deadline=None)
@given(n_events=st.integers(0, 8), data=st.data())
def test_lemma2_on_random_covers_equals_the_loops(n_events, data):
    index = st.integers(0, n_events if data.draw(st.booleans()) else
                        max(n_events - 1, 0))
    cliques = data.draw(st.lists(st.lists(index, min_size=1, max_size=6),
                                 max_size=8))
    cover = CliqueCover("random", tuple(cliques), data.draw(_WEIGHTS))
    _check(cover, data.draw(_probs(cover, n_events)))


@functools.lru_cache(maxsize=None)
def _walks(gamma, kappa, kind):
    two_g, mode = {"c4": (4, "simple"), "c6": (6, "simple"),
                   "c8-tbc": (8, "tbc")}[kind]
    return enumerate_cycles(BaseCode(gamma, kappa), two_g, mode).candidates


@st.composite
def _candidate_sets(draw):
    gamma, kappa = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    pool = _walks(gamma, kappa, draw(st.sampled_from(("c4", "c6",
                                                      "c8-tbc"))))
    picked = draw(st.lists(st.sampled_from(pool), max_size=16, unique=True)
                  if pool else st.just([]))
    return CandidateSet(BaseCode(gamma, kappa), tuple(picked))


@settings(max_examples=300, deadline=None)
@given(cset=_candidate_sets(),
       route=st.sampled_from(("random", "pairwise", "pairwise-x",
                              "base-edge", "base-edge-subset")),
       data=st.data())
def test_covers_of_candidate_sets_equal_the_loops(cset, route, data):
    k = len(cset)
    x = data.draw(_WEIGHTS)
    if route == "random":
        members = st.integers(0, max(k - 1, 0))
        cover = CliqueCover("random", tuple(data.draw(st.lists(
            st.lists(members, min_size=1, max_size=5), max_size=12))), x)
    elif route.startswith("pairwise"):
        given_x = x if route == "pairwise-x" else None
        old = _outcome(_old_build_pairwise_cover, cset, given_x)
        cover = _outcome(build_pairwise_cover, cset, given_x)
        assert _typed(cover) == _typed(old)
        if not isinstance(cover, CliqueCover):
            return
    elif route == "base-edge":
        cover = _outcome(build_base_edge_cover, cset)
        if not isinstance(cover, CliqueCover):
            return
    else:
        whole = build_base_edge_cover(cset, x=x).cliques
        cover = CliqueCover("base-edge", tuple(data.draw(st.lists(
            st.sampled_from(whole), unique=True)) if whole else ()), x)
    assert _typed(verify_cover(cover, cset)) == _typed(
        _old_verify_cover(cover, cset))
    _check(cover, data.draw(_probs(cover, k)))


def test_verify_cover_reads_every_pair_of_a_clique():
    cset = enumerate_cycles(BaseCode(3, 3), 4)
    whole = CliqueCover("one", (tuple(range(len(cset))),), Fraction(1, 10))
    assert verify_cover(whole, cset) and _old_verify_cover(whole, cset)
    pairs = dependency_pairs(cset)
    short = CliqueCover("short", pairs[1:], Fraction(1, 10))
    assert not verify_cover(short, cset)
    assert not _old_verify_cover(short, cset)

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scldpc import (Assignment, BaseCode, CandidateSet, WalkCandidate,
                    dependency_degree, dependency_pairs, enumerate_cycles,
                    harmful_weight)
from scldpc.walks import (closed_neighbourhoods, is_active_lift,
                          is_active_partition)


# ---------------------------------------------------------------------------
# Independent reference enumeration (different algorithm: filter the full
# cartesian product and canonicalize with a locally written orbit helper)
# ---------------------------------------------------------------------------

def _ref_orbit(nodes: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(nodes)
    variants = []
    for start in range(0, n, 2):
        rot = nodes[start:] + nodes[:start]
        variants.append(rot)
        mirrored = (rot[0],) + tuple(reversed(rot[1:]))
        variants.append(mirrored)
    return variants


def _ref_valid(nodes: tuple[int, ...], simple: bool) -> bool:
    cols = nodes[0::2]
    rows = nodes[1::2]
    g = len(cols)
    if simple:
        if len(set(cols)) != g or len(set(rows)) != g:
            return False
    else:
        for t in range(g):
            if cols[t] == cols[(t + 1) % g]:
                return False
            if rows[t] == rows[(t + 1) % g]:
                return False
    return True


def _ref_enumerate(gamma: int, kappa: int, two_g: int,
                   simple: bool) -> set[tuple[int, ...]]:
    g = two_g // 2
    out: set[tuple[int, ...]] = set()
    for picks in itertools.product(*[range(kappa) if t % 2 == 0
                                     else range(gamma)
                                     for t in range(two_g)]):
        if not _ref_valid(picks, simple):
            continue
        out.add(min(_ref_orbit(picks)))
    return out


def _keys(cset: CandidateSet) -> set[tuple[int, ...]]:
    return {c.nodes for c in cset}


# ---------------------------------------------------------------------------
# Enumeration against the oracle and known counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma,kappa", [(2, 2), (2, 3), (2, 4), (3, 2),
                                         (3, 3), (3, 4), (4, 3), (4, 4)])
@pytest.mark.parametrize("two_g", [4, 6])
@pytest.mark.parametrize("mode", ["simple", "tbc"])
def test_enumeration_matches_bruteforce(gamma, kappa, two_g, mode):
    got = _keys(enumerate_cycles(BaseCode(gamma, kappa), two_g, mode))
    want = _ref_enumerate(gamma, kappa, two_g, mode == "simple")
    assert got == want


def test_simple_counts_are_binomial_products():
    # simple 4-cycles: one per (row pair, column pair)
    for gamma, kappa in [(2, 2), (3, 3), (3, 7), (4, 5), (6, 8)]:
        n = len(enumerate_cycles(BaseCode(gamma, kappa), 4, "simple"))
        assert n == comb(gamma, 2) * comb(kappa, 2)
    assert len(enumerate_cycles(BaseCode(3, 7), 4, "simple")) == 63
    # simple 6-cycles: ordered triples up to the 12-element symmetry
    for gamma, kappa in [(3, 3), (3, 4), (4, 4)]:
        n = len(enumerate_cycles(BaseCode(gamma, kappa), 6, "simple"))
        assert n == comb(gamma, 3) * comb(kappa, 3) * 6


def test_simple_equals_tbc_for_short_walks():
    for gamma, kappa in [(2, 2), (3, 3), (3, 4), (4, 4)]:
        base = BaseCode(gamma, kappa)
        for two_g in (4, 6):
            assert _keys(enumerate_cycles(base, two_g, "simple")) == \
                _keys(enumerate_cycles(base, two_g, "tbc"))


def test_tbc_strictly_larger_at_length_8():
    base = BaseCode(2, 2)
    simple = enumerate_cycles(base, 8, "simple")
    tbc = enumerate_cycles(base, 8, "tbc")
    assert len(simple) == 0          # needs 4 distinct rows and columns
    assert len(tbc) >= 1
    # the doubled 4-cycle traverses each base edge twice in one direction
    doubled = WalkCandidate.from_nodes((0, 0, 1, 1, 0, 0, 1, 1), base)
    assert doubled in set(tbc)
    assert sorted(v for _, v in doubled.coeffs) == [-2, -2, 2, 2]


def test_mask_restricts_enumeration():
    base = BaseCode(2, 2, mask=((1, 1), (1, 0)))
    assert len(enumerate_cycles(base, 4, "simple")) == 0


def test_canonical_form_invariant_under_symmetry():
    base = BaseCode(3, 4)
    for cand in enumerate_cycles(base, 6, "simple"):
        for variant in _ref_orbit(cand.nodes):
            rebuilt = WalkCandidate.from_nodes(variant, base)
            assert rebuilt.nodes == cand.nodes
            assert rebuilt.key == cand.key


def test_candidate_validation():
    base = BaseCode(3, 3)
    with pytest.raises(ValueError):
        WalkCandidate.from_nodes((0, 0, 1), base)           # odd length
    with pytest.raises(ValueError):
        WalkCandidate.from_nodes((0, 0, 0, 1), base)        # repeated column
    with pytest.raises(ValueError):
        WalkCandidate.from_nodes((0, 0, 1, 0), base)        # repeated row
    with pytest.raises(ValueError):
        WalkCandidate.from_nodes((0, 0, 3, 1), base)        # out of range
    with pytest.raises(ValueError):
        WalkCandidate.from_nodes((5, 0, 1, 1), base)        # out of range


def test_coefficients_of_plain_4cycle():
    base = BaseCode(2, 2)
    c = enumerate_cycles(base, 4, "simple")[0]
    assert c.nodes == (0, 0, 1, 1)
    assert dict(c.coeffs) == {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}
    assert c.avoidable
    assert set(c.support) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert c.vertex_count == 4
    assert c.two_g == 4 and c.g == 2


def test_unavoidable_walk_exists_at_length_12():
    # Tailbiting-consecutive walk whose net edge coefficients all vanish:
    # no spreading or lifting assignment can ever break it.
    base = BaseCode(3, 3)
    w = WalkCandidate.from_nodes((0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 2), base)
    assert not w.avoidable
    assert w.support == ()
    assert w.support_mod(7) == ()
    assert w in set(enumerate_cycles(base, 12, "tbc"))
    # and no such walk exists among shorter tailbiting-consecutive walks
    for two_g in (4, 6, 8, 10):
        assert all(c.avoidable
                   for c in enumerate_cycles(base, two_g, "tbc"))


def test_support_mod_drops_multiples():
    base = BaseCode(2, 2)
    doubled = WalkCandidate.from_nodes((0, 0, 1, 1, 0, 0, 1, 1), base)
    assert len(doubled.support) == 4          # coefficients +-2
    assert doubled.support_mod(2) == ()       # all vanish mod 2
    assert len(doubled.support_mod(4)) == 4


# ---------------------------------------------------------------------------
# Activity conditions
# ---------------------------------------------------------------------------

def test_partition_activity():
    base = BaseCode(2, 2)
    c = enumerate_cycles(base, 4, "simple")[0]
    flat = Assignment.from_dict("partition",
                                {e: 0 for e in base.edges}, 2, 2)
    assert is_active_partition(c, flat)
    skew = Assignment.from_dict(
        "partition", {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}, 2, 2)
    assert not is_active_partition(c, skew)
    partial = Assignment("partition", ((0, None), (0, 0)))
    with pytest.raises(ValueError):
        is_active_partition(c, partial)


def test_lift_activity():
    base = BaseCode(2, 2)
    c = enumerate_cycles(base, 4, "simple")[0]
    # +x00 -x01 -x10 +x11 mod z
    lift = Assignment.from_dict(
        "lift", {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 9}, 2, 2)
    assert is_active_lift(c, lift, 5)      # 1-3-2+9 = 5
    assert not is_active_lift(c, lift, 7)
    assert is_active_lift(c, lift, 1)      # everything is 0 mod 1


def test_activity_names_the_uncovered_stage():
    c = enumerate_cycles(BaseCode(2, 2), 4, "simple")[0]
    with pytest.raises(ValueError, match="^partition does not cover"):
        is_active_partition(c, Assignment("partition", ((0, None), (0, 0))))
    with pytest.raises(ValueError, match="^lift does not cover"):
        is_active_lift(c, Assignment("lift", ((0, 1), (None, 0))), 3)
    with pytest.raises(ValueError, match="lifting degree"):
        is_active_lift(c, Assignment("lift", ((0, 1), (1, 0))), 0)


# ---------------------------------------------------------------------------
# Weights, dependencies, set operations
# ---------------------------------------------------------------------------

def test_harmful_weight_3x7():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    counts, w_max = harmful_weight(base, cset)
    assert w_max == 12                     # (gamma-1) * (kappa-1)
    assert all(v == 12 for v in counts.values())


def test_dependency_degree_matches_bruteforce():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    cands = list(cset)
    degrees = []
    for a in cands:
        sa = set(a.support)
        degrees.append(sum(1 for b in cands
                           if b is not a and sa & set(b.support)))
    rep = dependency_degree(cset)
    assert rep.delta_observed == max(degrees) == 32
    assert rep.degrees == tuple(degrees)
    assert rep.edge_count == sum(degrees) // 2
    pairs = dependency_pairs(cset)
    assert len(pairs) == rep.edge_count
    assert all(a < b for a, b in pairs)


def _pairwise_neighbourhoods(scopes) -> tuple[tuple[int, ...], ...]:
    """Oracle: intersect every pair of scopes."""
    return tuple(tuple(b for b, other in enumerate(scopes)
                       if set(scope) & set(other))
                 for scope in scopes)


@settings(max_examples=200, deadline=None)
@given(scopes=st.lists(st.lists(st.integers(0, 12), max_size=5),
                       max_size=12))
def test_closed_neighbourhoods_match_pairwise_intersections(scopes):
    assert closed_neighbourhoods(scopes) == _pairwise_neighbourhoods(scopes)


@settings(max_examples=200, deadline=None)
@given(scopes=st.lists(st.lists(st.integers(0, 12), max_size=5),
                       max_size=12), data=st.data())
def test_closed_neighbourhoods_among_a_prefix(scopes, data):
    # Only the first ``among`` scopes count as neighbours.
    among = data.draw(st.integers(0, len(scopes)))
    assert closed_neighbourhoods(scopes, among) == tuple(
        tuple(b for b in nb if b < among)
        for nb in _pairwise_neighbourhoods(scopes))


def test_restrict_to_window():
    base = BaseCode(6, 8)
    cset = enumerate_cycles(base, 4, "simple")
    sub = cset.restrict(rows=(0, 1, 2), cols=(0, 1, 2, 3))
    assert len(sub) == comb(3, 2) * comb(4, 2)
    other = cset.restrict(rows=(3, 4, 5), cols=(4, 5, 6, 7))
    assert len(other) == comb(3, 2) * comb(4, 2)
    assert not set(sub.candidates) & set(other.candidates)


def test_union_and_duplicate_rejection():
    base = BaseCode(3, 3)
    c4 = enumerate_cycles(base, 4, "simple")
    c6 = enumerate_cycles(base, 6, "simple")
    both = c4.union(c6)
    assert len(both) == len(c4) + len(c6)
    # ordering is by (length, nodes): all 4-cycles first
    assert [c.two_g for c in both] == sorted(c.two_g for c in both)
    with pytest.raises(ValueError):
        CandidateSet(base, (c4[0], c4[0]))


def test_by_support_index():
    base = BaseCode(3, 3)
    cset = enumerate_cycles(base, 4, "simple")
    for edge, members in cset.by_support.items():
        for idx in members:
            assert edge in cset[idx].support


def test_keys_sorted_and_unique():
    base = BaseCode(3, 4)
    cset = enumerate_cycles(base, 6, "simple")
    keys = [c.key for c in cset]
    assert len(set(keys)) == len(keys)
    sort_keys = [c.sort_key for c in cset]
    assert sort_keys == sorted(sort_keys)


def test_json_lines_shape():
    base = BaseCode(2, 2)
    cset = enumerate_cycles(base, 4, "simple")
    import json
    lines = cset.to_json_lines().strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["key"] == cset[0].key
    assert doc["avoidable"] is True
    assert doc["nodes"] == [0, 0, 1, 1]

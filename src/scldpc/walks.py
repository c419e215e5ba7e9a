"""Closed-walk candidates in the base graph and their activation conditions.

A cycle of length 2g in the lifted Tanner graph projects down to a closed
walk in the base graph that alternates column and row nodes,

    c = (j_1, i_1, j_2, i_2, ..., j_g, i_g),   j_{g+1} = j_1,

using the "left" edges (i_k, j_k) and the "right" edges (i_k, j_{k+1}).
Each base edge e gets a signed coefficient: +1 for every left use, -1 for
every right use, summed over the walk.  The walk survives into the coupled
protograph iff the spreading values satisfy

    sum_e  coeff(e) * P(e) = 0          (over the integers)

and survives lifting iff the shifts satisfy

    sum_e  coeff(e) * L(e) = 0 (mod Z).

Two candidate universes are supported:

* ``simple``: all row nodes distinct and all column nodes distinct (proper
  2g-cycles in the base graph);
* ``tbc``: tailless backtrackless closed walks, i.e. cyclically consecutive
  column indices differ and cyclically consecutive row indices differ.  This
  coincides with ``simple`` for 2g in {4, 6} and is strictly larger from
  2g = 8 on (e.g. a 4-cycle traversed twice, coefficients +-2).

A candidate whose coefficients are all zero can never be deactivated by any
choice of P or L; it is flagged ``avoidable=False`` and must be excluded
from resampling targets.

Candidates are deduplicated up to rotation and orientation reversal by
taking the lexicographically smallest node sequence as the canonical form;
all deterministic orderings in the package sort by ``(two_g, nodes)``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .model import Assignment, BaseCode, Edge

MODES = ("simple", "tbc")


def _dihedral_orbit(nodes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All rotations of the sequence and of its orientation reversal."""
    reflected = (nodes[0],) + tuple(reversed(nodes[1:]))
    orbit = []
    for seq in (nodes, reflected):
        for s in range(0, len(seq), 2):
            orbit.append(seq[s:] + seq[:s])
    return orbit


def _edge_uses(nodes: tuple[int, ...]) -> dict[Edge, list[int]]:
    """Map each walk edge to its [left, right] use counts."""
    two_g = len(nodes)
    uses: dict[Edge, list[int]] = {}
    for k in range(0, two_g, 2):
        j, i = nodes[k], nodes[k + 1]
        j_next = nodes[(k + 2) % two_g]
        uses.setdefault((i, j), [0, 0])[0] += 1
        uses.setdefault((i, j_next), [0, 0])[1] += 1
    return uses


@dataclass(frozen=True)
class WalkCandidate:
    """One canonical closed-walk candidate.

    ``nodes`` is the canonical (j_1, i_1, ..., j_g, i_g) sequence; ``coeffs``
    pairs every edge the walk touches with its net signed coefficient
    (zero-coefficient edges are kept: they are part of the walk even though
    they cannot influence activation).
    """

    nodes: tuple[int, ...]
    coeffs: tuple[tuple[Edge, int], ...]

    @classmethod
    def from_nodes(cls, nodes: Sequence[int],
                   base: Optional[BaseCode] = None) -> "WalkCandidate":
        nodes = tuple(map(operator.index, nodes))
        two_g = len(nodes)
        if two_g < 4 or two_g % 2:
            raise ValueError("walk length must be an even number >= 4")
        g = two_g // 2
        for k in range(g):
            if nodes[2 * k] == nodes[(2 * k + 2) % two_g]:
                raise ValueError("consecutive column indices repeat (tail)")
            if nodes[2 * k + 1] == nodes[(2 * k + 3) % two_g]:
                raise ValueError("consecutive row indices repeat (backtrack)")
        if base is not None:
            for (i, j) in _edge_uses(nodes):
                if not (0 <= i < base.gamma and 0 <= j < base.kappa
                        and base.has_edge(i, j)):
                    raise ValueError(f"walk uses absent base edge ({i},{j})")
        canon = min(_dihedral_orbit(nodes))
        uses = _edge_uses(canon)
        coeffs = tuple(sorted((e, lr[0] - lr[1]) for e, lr in uses.items()))
        return cls(canon, coeffs)

    @property
    def two_g(self) -> int:
        return len(self.nodes)

    @property
    def g(self) -> int:
        return len(self.nodes) // 2

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge the walk traverses, zero-coefficient ones included."""
        return tuple(e for e, _ in self.coeffs)

    @cached_property
    def support(self) -> tuple[Edge, ...]:
        """Edges with nonzero net coefficient (the activation variables)."""
        return tuple(e for e, c in self.coeffs if c != 0)

    @property
    def avoidable(self) -> bool:
        return bool(self.support)

    def support_mod(self, z: int) -> tuple[Edge, ...]:
        """Edges whose coefficient stays nonzero mod Z (lift-stage support)."""
        if z < 1:
            raise ValueError("lifting degree must be at least 1")
        return tuple(e for e, c in self.coeffs if c % z != 0)

    @property
    def vertex_count(self) -> int:
        """Distinct vertices the walk visits (< two_g when nodes repeat)."""
        return len(set(self.nodes[0::2])) + len(set(self.nodes[1::2]))

    @property
    def is_simple(self) -> bool:
        rows = self.nodes[1::2]
        cols = self.nodes[0::2]
        return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.two_g, self.nodes)

    @property
    def key(self) -> str:
        """Human/JSON label, e.g. "c4:v0c0v1c1" (v = column, c = row)."""
        pairs = "".join(f"v{self.nodes[k]}c{self.nodes[k + 1]}"
                        for k in range(0, self.two_g, 2))
        return f"c{self.two_g}:{pairs}"


def enumerate_cycles(base: BaseCode, two_g: int,
                     mode: str = "simple") -> "CandidateSet":
    """Enumerate all candidates of one length, deduplicated canonically.

    DFS over alternating node sequences anchored so the first column index
    is the smallest column the walk visits; every orbit is still reached
    because rotation can bring any column to the front.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if two_g < 4 or two_g % 2:
        raise ValueError("walk length must be an even number >= 4")
    g = two_g // 2
    col_adj = [tuple(j for j in range(base.kappa) if base.mask[i][j])
               for i in range(base.gamma)]
    row_adj = [tuple(i for i in range(base.gamma) if base.mask[i][j])
               for j in range(base.kappa)]
    simple = mode == "simple"
    found: dict[tuple[int, ...], WalkCandidate] = {}
    seq: list[int] = []
    used_rows: set[int] = set()
    used_cols: set[int] = set()

    def close_ok(i_last: int) -> bool:
        j1, i1 = seq[0], seq[1]
        if j1 not in col_adj[i_last]:
            return False
        return i_last != i1  # backtrack through the closing column

    def dfs(depth: int) -> None:
        if depth == g:
            if close_ok(seq[-1]):
                canon = min(_dihedral_orbit(tuple(seq)))
                if canon not in found:
                    found[canon] = WalkCandidate.from_nodes(canon)
            return
        j_prev, i_prev = seq[-2], seq[-1]
        for j in col_adj[i_prev]:
            if j < seq[0] or j == j_prev:
                continue
            if simple and j in used_cols:
                continue
            last = depth == g - 1
            if last and j == seq[0]:
                continue  # closing column is seq[0]; a repeat here is a tail
            for i in row_adj[j]:
                if i == i_prev:
                    continue
                if simple and i in used_rows:
                    continue
                seq.extend((j, i))
                if simple:
                    used_cols.add(j)
                    used_rows.add(i)
                dfs(depth + 1)
                if simple:
                    used_rows.discard(i)
                    used_cols.discard(j)
                del seq[-2:]

    for j1 in range(base.kappa):
        for i1 in row_adj[j1]:
            seq[:] = [j1, i1]
            used_cols, used_rows = {j1}, {i1}
            dfs(1)
    return CandidateSet(base, tuple(sorted(found.values(),
                                           key=lambda c: c.sort_key)))


@dataclass(frozen=True)
class CandidateSet:
    """An ordered, deduplicated collection of candidates over one base."""

    base: BaseCode
    candidates: tuple[WalkCandidate, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.candidates),
                               key=lambda c: c.sort_key))
        if len(ordered) != len(self.candidates):
            raise ValueError("duplicate candidates in set")
        object.__setattr__(self, "candidates", ordered)

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[WalkCandidate]:
        return iter(self.candidates)

    def __getitem__(self, idx: int) -> WalkCandidate:
        return self.candidates[idx]

    @cached_property
    def by_edge(self) -> dict[Edge, tuple[int, ...]]:
        """Candidate indices through each edge (walk membership)."""
        out: dict[Edge, list[int]] = {}
        for n, c in enumerate(self.candidates):
            for e in c.edges:
                out.setdefault(e, []).append(n)
        return {e: tuple(v) for e, v in out.items()}

    @cached_property
    def by_support(self) -> dict[Edge, tuple[int, ...]]:
        """Candidate indices whose *support* contains each edge."""
        out: dict[Edge, list[int]] = {}
        for n, c in enumerate(self.candidates):
            for e in c.support:
                out.setdefault(e, []).append(n)
        return {e: tuple(v) for e, v in out.items()}

    def union(self, other: "CandidateSet") -> "CandidateSet":
        if other.base != self.base:
            raise ValueError("cannot merge candidate sets over different "
                             "bases")
        merged = set(self.candidates) | set(other.candidates)
        return CandidateSet(self.base, tuple(merged))

    def restrict(self, rows: Optional[Iterable[int]] = None,
                 cols: Optional[Iterable[int]] = None) -> "CandidateSet":
        """Keep candidates entirely inside the given row/column subsets."""
        rset = None if rows is None else set(rows)
        cset = None if cols is None else set(cols)
        kept = []
        for c in self.candidates:
            walk_rows = set(c.nodes[1::2])
            walk_cols = set(c.nodes[0::2])
            if rset is not None and not walk_rows <= rset:
                continue
            if cset is not None and not walk_cols <= cset:
                continue
            kept.append(c)
        return CandidateSet(self.base, tuple(kept))

    def to_json_lines(self) -> str:
        lines = []
        for c in self.candidates:
            lines.append(json.dumps({
                "key": c.key,
                "nodes": list(c.nodes),
                "coeffs": [[list(e), v] for e, v in c.coeffs],
                "avoidable": c.avoidable,
            }, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")


def _signed_sum(cand: WalkCandidate, assignment: Assignment,
                name: str) -> int:
    """sum_e coeff(e) * value(e) over every walk edge."""
    total = 0
    for (e, coef) in cand.coeffs:
        v = assignment.get(e)
        if v is None:
            raise ValueError(f"{name} does not cover walk edge {e}")
        total += coef * v
    return total


def is_active_partition(cand: WalkCandidate, partition: Assignment) -> bool:
    """Does the walk survive edge spreading (integer condition)?"""
    return _signed_sum(cand, partition, "partition") == 0


def is_active_lift(cand: WalkCandidate, lift: Assignment, z: int) -> bool:
    """Does the walk survive lifting (condition modulo Z)?"""
    if z < 1:
        raise ValueError("lifting degree must be at least 1")
    return _signed_sum(cand, lift, "lift") % z == 0


def is_active(cand: WalkCandidate, partition: Assignment,
              lift: Optional[Assignment] = None, z: int = 1) -> bool:
    """Is the walk active in the output: does it survive the partition
    and, when a lift is given, the lift too?"""
    if not is_active_partition(cand, partition):
        return False
    return lift is None or is_active_lift(cand, lift, z)


def harmful_weight(base: BaseCode,
                   cset: CandidateSet) -> tuple[dict[Edge, int], int]:
    """Per-edge candidate counts (walk membership) and their maximum W."""
    counts = {e: 0 for e in base.edges}
    for e, members in cset.by_edge.items():
        counts[e] = len(members)
    w_max = max(counts.values()) if counts else 0
    return counts, w_max


@dataclass(frozen=True)
class DependencyReport:
    degrees: tuple[int, ...]
    delta_observed: int
    edge_count: int


def closed_neighbourhoods(scopes: Sequence[Sequence],
                          among: Optional[int] = None
                          ) -> tuple[tuple[int, ...], ...]:
    """The dependency relation: for each scope, the sorted indices of every
    scope sharing an element with it, itself included; an empty scope gets
    ().  With ``among``, only the first ``among`` scopes are neighbours, so
    a later scope gets just the earlier ones it meets, and its cost does
    not grow with the number of later scopes."""
    members: dict = {}
    for n, scope in enumerate(scopes[:among]):
        for v in scope:
            members.setdefault(v, []).append(n)
    return tuple(tuple(sorted(set().union(*(members.get(v, ())
                                            for v in scope))))
                 for scope in scopes)


def dependency_degree(cset: CandidateSet) -> DependencyReport:
    """Dependency graph degrees: candidates adjacent iff supports intersect
    (an empty support has degree 0)."""
    degrees = tuple(max(len(nb) - 1, 0) for nb in
                    closed_neighbourhoods([c.support for c in cset]))
    return DependencyReport(degrees, max(degrees, default=0),
                            sum(degrees) // 2)


def dependency_pairs(cset: CandidateSet) -> tuple[tuple[int, int], ...]:
    """Sorted dependency-graph edges (index pairs with intersecting support)."""
    return tuple((a, b) for a, nb in enumerate(
                     closed_neighbourhoods([c.support for c in cset]))
                 for b in nb if b > a)

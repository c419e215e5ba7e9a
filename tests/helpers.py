"""Library-style helpers that only the tests call.

None of these is on a path that ``scldpc`` itself runs, so they live here
rather than in the package:

* ``from_entries`` builds a ``SparseBinaryMatrix`` from (row, column)
  pairs;
* ``support_mod`` is a walk's lift-stage support;
* ``default_cap`` is the runners' budget rule applied to a candidate set
  and its probabilities (the runners read it off the compiled stage's
  certificate), with any ValueError from Theorem 1 read as no
  certificate;
* ``HarmfulStructure``, ``structure_joint_prob`` and ``mc_structure_prob``
  give the exact and Monte Carlo activation probability of a union of
  cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from scldpc.model import CouplingScheme, Edge, SparseBinaryMatrix
from scldpc import bounds
from scldpc.moser_tardos import _cap
from scldpc.probability import (ActivationProbability, draw, joint_prob,
                                lift_prob_bound, rng, stage_forms, vanish)
from scldpc.walks import CandidateSet, WalkCandidate


def from_entries(nrows: int, ncols: int,
                 entries: Iterable[Edge]) -> SparseBinaryMatrix:
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for r, c in entries:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r},{c}) out of range")
        cols[c].add(r)
    return SparseBinaryMatrix(nrows, ncols, [sorted(s) for s in cols])


def support_mod(cand: WalkCandidate, z: int) -> tuple[Edge, ...]:
    """Edges whose coefficient stays nonzero mod Z (lift-stage support)."""
    if z < 1:
        raise ValueError("lifting degree must be at least 1")
    return tuple(e for e, c in cand.coeffs if c % z != 0)


def default_cap(cset: CandidateSet, probs) -> int:
    """1000x Theorem 1's resample bound if it holds, else FALLBACK_CAP."""
    try:
        rep = bounds.theorem1_feasibility(cset, probs,
                                          delta_source="observed")
    except ValueError:
        rep = None
    return _cap(rep)


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

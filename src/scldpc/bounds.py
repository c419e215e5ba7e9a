"""Feasibility thresholds, avoidance guarantees and resampling-cost bounds.

Everything is driven by one local-lemma condition.  Given k avoidable
candidates with activation probabilities P_i, dependency graph G (events
adjacent iff their supports share an edge), maximum dependency degree
Delta, per-structure vertex count h (4 for a 4-cycle family) and maximum
harmful weight W (most candidates through any one base edge), avoidance of
all candidates is guaranteed whenever

    max_i P_i  <=  max{ I, II },
    I  = (Delta-1)^(Delta-1) / Delta^Delta          (pairwise cliques)
    II = (h-1)^(h-1) / ((W-1) * h^h)                (base-edge cliques)

with the matching avoidance lower bounds

    (1 - 2/Delta)^{|E(G)|}          if I > II,
    (1 - W/((W-1)h))^{(base edges)} otherwise,

and expected total resample counts

    k / (Delta - 2)                 if I > II,
    k / ((W-1)h - W)                otherwise.

The closed forms above are the uniform-weight specialization of a clique
cover argument; the generic evaluator (`lemma2_evaluate`) reproduces them
exactly on regular families and is kept as an independent cross-check.

Exact rational arithmetic is used wherever the exponents stay manageable,
and each float is then that exact value rounded once (a value too large
for a double reads as inf).  Past the exponent limit the float comes from
``decimal`` at 60 significant digits in an exponent range wide enough that
Delta^Delta neither overflows nor underflows before the final rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from typing import Optional, Sequence

from .probability import spreading_prob_c4_uniform
from .walks import (CandidateSet, dependency_degree, dependency_pairs,
                    harmful_weight)

# Fractions with numerators around n^n stay cheap up to this point; past it
# the exact slot is left None and floats (still high-precision) take over.
EXACT_EXPONENT_LIMIT = 8192
_WIDE = Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)

def _pow_float(base_num: int, base_den: int, exponent: int) -> float:
    """(base_num/base_den)^exponent as a double: the exact power rounded
    once, or a 60-digit one past EXACT_EXPONENT_LIMIT."""
    if exponent > EXACT_EXPONENT_LIMIT:
        return float(_WIDE.power(_WIDE.divide(base_num, base_den), exponent))
    try:
        return float(Fraction(base_num, base_den) ** exponent)
    except OverflowError:
        return math.inf


def threshold_branch_i(delta: int) -> tuple[Optional[Fraction], float]:
    """(Delta-1)^(Delta-1)/Delta^Delta, with 0^0 = 1 so delta <= 1 gives 1.

    Degenerate note: at delta <= 2 the matching avoidance/runtime formulas
    lose meaning, but the threshold value itself is still defined.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta <= 1:
        return Fraction(1), 1.0
    if delta <= EXACT_EXPONENT_LIMIT:
        # From the reduced base: no gcd runs on the two huge coprime powers.
        exact = Fraction(delta - 1, delta) ** (delta - 1) / delta
        return exact, float(exact)
    return None, float(_WIDE.divide(_WIDE.power(delta - 1, delta - 1),
                                    _WIDE.power(delta, delta)))


def threshold_branch_ii(struct_size: int,
                        w: int) -> tuple[Optional[Fraction], Optional[float]]:
    """(h-1)^(h-1)/((W-1) h^h); None when W = 1 (no second branch)."""
    if struct_size < 2:
        raise ValueError("structure size must be at least 2")
    if w < 1:
        raise ValueError("harmful weight must be at least 1")
    if w == 1:
        return None, None
    h = struct_size
    if h <= EXACT_EXPONENT_LIMIT:
        exact = Fraction((h - 1) ** (h - 1), (w - 1) * h ** h)
        return exact, float(exact)
    return None, float(_WIDE.divide(
        _WIDE.power(h - 1, h - 1),
        _WIDE.multiply(w - 1, _WIDE.power(h, h))))


@dataclass(frozen=True)
class Thresholds:
    i_exact: Optional[Fraction]
    i_float: float
    ii_exact: Optional[Fraction]
    ii_float: Optional[float]

    @property
    def branch(self) -> str:
        """"I" when I > II (or II undefined), "II" otherwise."""
        if self.ii_float is None:
            return "I"
        if self.i_exact is not None and self.ii_exact is not None:
            return "I" if self.i_exact > self.ii_exact else "II"
        return "I" if self.i_float > self.ii_float else "II"

    @property
    def best_exact(self) -> Optional[Fraction]:
        if self.ii_exact is None:
            return self.i_exact
        if self.i_exact is None:
            return None
        return max(self.i_exact, self.ii_exact)

    @property
    def best_float(self) -> float:
        if self.ii_float is None:
            return self.i_float
        return max(self.i_float, self.ii_float)

    def admits(self, p: Fraction) -> bool:
        best = self.best_exact
        if best is not None:
            return p <= best
        return float(p) <= self.best_float


def theorem1_thresholds(delta: int, struct_size: int, w: int) -> Thresholds:
    i_exact, i_float = threshold_branch_i(delta)
    ii_exact, ii_float = threshold_branch_ii(struct_size, w)
    return Thresholds(i_exact, i_float, ii_exact, ii_float)


def theorem2_resample_bound(k: int, branch: str, delta: int, w: int,
                            struct_size: int) -> Optional[Fraction]:
    """Expected total resamples: k/(Delta-2) or k/((W-1)h - W).

    None when the denominator is not positive (bound not applicable).
    """
    if k < 0:
        raise ValueError("candidate count cannot be negative")
    if branch == "I":
        return Fraction(k, delta - 2) if delta > 2 else None
    if branch == "II":
        denom = (w - 1) * struct_size - w
        return Fraction(k, denom) if denom > 0 else None
    raise ValueError(f"unknown branch {branch!r}")


def formula_delta_c4(gamma: int, kappa: int) -> int:
    """Closed-form dependency degree (2 gamma - 3)(2 kappa - 3) for complete
    4-cycle families on all-ones bases.

    Brute force gives (2g-3)(2k-3) - 1 on every base checked (the closed
    form counts the event itself), so this value is one high and every
    bound built from it is safely conservative.  See dependency_degree for
    the observed number.
    """
    if gamma < 2 or kappa < 2:
        raise ValueError("need at least a 2x2 base")
    return (2 * gamma - 3) * (2 * kappa - 3)


def c4_block_dims(cset: CandidateSet) -> Optional[tuple[int, int]]:
    """Dims (r, c) when cset is the complete simple 4-cycle family of an
    all-ones block; None otherwise."""
    if len(cset) == 0:
        return None
    rows: set[int] = set()
    cols: set[int] = set()
    for cand in cset:
        if cand.two_g != 4 or not cand.is_simple:
            return None
        rows.update(cand.nodes[1::2])
        cols.update(cand.nodes[0::2])
    for i in rows:
        for j in cols:
            if not cset.base.has_edge(i, j):
                return None
    r, c = len(rows), len(cols)
    if len(cset) != math.comb(r, 2) * math.comb(c, 2):
        return None
    return r, c


@dataclass(frozen=True)
class BoundReport:
    k: int
    delta: int
    delta_source: str
    struct_size: int
    w_max: int
    dep_edges: int
    clique_count: int
    p_max: Fraction
    thresholds: Thresholds
    branch: str
    feasible: bool
    avoidance_lb: float
    resample_bound: Optional[Fraction]


def theorem1_feasibility(cset: CandidateSet, probs: Sequence[Fraction],
                         delta_source: str = "formula") -> BoundReport:
    """Check max_i P_i against the two-branch threshold.

    ``delta_source`` picks where the dependency degree comes from:
    "formula" uses the (2r-3)(2c-3) closed form (complete 4-cycle families on
    all-ones blocks only), "observed" measures the actual graph.
    Unavoidable candidates or probabilities >= 1 are rejected here; filter
    them out before asking for a feasibility verdict.
    """
    if len(probs) != len(cset):
        raise ValueError("one probability per candidate, in set order")
    bad = [c.key for c in cset if not c.avoidable]
    if bad:
        raise ValueError(f"unavoidable candidates present: {', '.join(bad)}")
    p_values = [Fraction(p) for p in probs]
    sure = [cset[n].key for n, p in enumerate(p_values) if p >= 1]
    if sure:
        raise ValueError("candidates certain to activate under this scheme "
                         f"(must be filtered upstream): {', '.join(sure)}")
    if not p_values:
        raise ValueError("empty candidate set")

    dep = dependency_degree(cset)
    if delta_source == "formula":
        dims = c4_block_dims(cset)
        if dims is None:
            raise ValueError("closed-form delta applies only to complete "
                             "4-cycle families on all-ones blocks; use "
                             "delta_source='observed'")
        delta = formula_delta_c4(*dims)
    elif delta_source == "observed":
        delta = dep.delta_observed
    else:
        raise ValueError(f"unknown delta source {delta_source!r}")

    _, w_max = harmful_weight(cset.base, cset)
    struct_size = max(c.vertex_count for c in cset)
    thresholds = theorem1_thresholds(delta, struct_size, w_max)
    branch = thresholds.branch
    p_max = max(p_values)
    feasible = thresholds.admits(p_max)
    clique_count = len(cset.base.edges)

    if branch == "I":
        if dep.edge_count == 0:
            avoidance = 1.0
        elif delta <= 2:
            avoidance = 0.0
        else:
            avoidance = _pow_float(delta - 2, delta, dep.edge_count)
    else:
        num = (w_max - 1) * struct_size - w_max
        den = (w_max - 1) * struct_size
        avoidance = _pow_float(num, den, clique_count) if num > 0 else 0.0

    return BoundReport(
        k=len(cset), delta=delta, delta_source=delta_source,
        struct_size=struct_size, w_max=w_max, dep_edges=dep.edge_count,
        clique_count=clique_count, p_max=p_max, thresholds=thresholds,
        branch=branch, feasible=feasible, avoidance_lb=avoidance,
        resample_bound=theorem2_resample_bound(len(cset), branch, delta,
                                               w_max, struct_size),
    )


@dataclass(frozen=True)
class Corollary1Report:
    gamma: int
    kappa: int
    memory: int
    z: int
    delta: int
    lhs: Fraction
    thresholds: Thresholds
    branch: str
    unavoidable: bool
    feasible: bool


def corollary1_check(gamma: int, kappa: int, memory: int,
                     z: int) -> Corollary1Report:
    """Girth-6 sufficient condition for the uniform full pattern:

        (2m^2+4m+3) / (3 (m+1)^3 Z)  <=  max{I, II},

    with Delta = (2 gamma - 3)(2 kappa - 3) and W - 1 = gamma kappa - gamma
    - kappa.  The m = 0, Z = 1 corner makes every 4-cycle certain
    (unavoidable), which no threshold can repair; it is reported as
    infeasible regardless of the comparison.
    """
    if gamma < 2 or kappa < 2:
        raise ValueError("need at least a 2x2 all-ones base")
    if memory < 0 or z < 1:
        raise ValueError("memory must be >= 0 and Z >= 1")
    delta = formula_delta_c4(gamma, kappa)
    w = (gamma - 1) * (kappa - 1)
    lhs = spreading_prob_c4_uniform(memory) / z
    thresholds = theorem1_thresholds(delta, 4, w)
    unavoidable = memory == 0 and z == 1
    feasible = (not unavoidable) and thresholds.admits(lhs)
    return Corollary1Report(gamma, kappa, memory, z, delta, lhs, thresholds,
                            thresholds.branch, unavoidable, feasible)


def corollary1_min_z(gamma: int, kappa: int, memory: int) -> int:
    """Smallest lifting degree passing corollary1_check at this memory."""
    check = corollary1_check(gamma, kappa, memory, 1)
    best = check.thresholds.best_exact
    if best is None:  # pragma: no cover - needs an absurdly large base
        raise ValueError("threshold too large for exact arithmetic")
    ratio = spreading_prob_c4_uniform(memory) / best
    z = max(1, math.ceil(ratio))
    while not corollary1_check(gamma, kappa, memory, z).feasible:
        z += 1
    return z


# ---------------------------------------------------------------------------
# Output-distribution shift bounds
# ---------------------------------------------------------------------------

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
class SymmetricShiftBound:
    p: Fraction
    delta: int
    n_overlap: int
    condition_lhs: float
    condition_held: bool
    bound: float
    relaxed_bound: float


def shift_bound_symmetric(p: Fraction, delta: int,
                          n_overlap: int) -> SymmetricShiftBound:
    """(1 + e p)^n with the precondition e p (Delta + 1) <= 1.

    When the precondition holds, e p <= 1/(Delta+1) < 1/Delta, giving the
    weaker but p-free form (1 + 1/Delta)^n reported alongside.
    """
    p = Fraction(p)
    if not 0 <= p < 1:
        raise ValueError("probability must be in [0, 1)")
    if delta < 1 or n_overlap < 0:
        raise ValueError("delta must be >= 1 and overlap count >= 0")
    lhs = math.e * float(p) * (delta + 1)
    return SymmetricShiftBound(
        p=p, delta=delta, n_overlap=n_overlap,
        condition_lhs=lhs, condition_held=lhs <= 1.0,
        bound=(1.0 + math.e * float(p)) ** n_overlap,
        relaxed_bound=(1.0 + 1.0 / delta) ** n_overlap,
    )


COROLLARY4_CAP = math.exp(8.0 / 3.0)


@dataclass(frozen=True)
class Corollary4Bound:
    delta: int
    w: int
    exponent: int
    value: float
    cap: Optional[float]


def corollary4_bound(gamma: int, kappa: int, two_k: int) -> Corollary4Bound:
    """Drift cap (1 + 1/Delta)^{2k W} for a 2k-cycle observable when the
    eliminated family is all 4-cycles of the all-ones base.

    For 6-cycles on bases with gamma, kappa >= 3 the exponent ratio
    6(gamma-1)(kappa-1) / ((2 gamma-3)(2 kappa-3)) is at most 8/3 (worst at
    3x3), so e^{8/3} ~ 14.392 caps the value universally; the cap is
    reported and checked in that regime and None elsewhere.
    """
    if gamma < 2 or kappa < 2:
        raise ValueError("need at least a 2x2 all-ones base")
    if two_k < 0 or two_k % 2:
        raise ValueError("cycle length must be even and non-negative")
    delta = formula_delta_c4(gamma, kappa)
    w = (gamma - 1) * (kappa - 1)
    exponent = two_k * w
    value = _pow_float(delta + 1, delta, exponent)
    cap = None
    if two_k == 6 and gamma >= 3 and kappa >= 3:
        cap = COROLLARY4_CAP
        if value > cap:  # pragma: no cover - mathematically impossible
            raise AssertionError("universal 6-cycle cap violated")
    return Corollary4Bound(delta, w, exponent, value, cap)


# ---------------------------------------------------------------------------
# Generic clique-cover evaluator (independent route to the closed forms)
# ---------------------------------------------------------------------------

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
        _, w = harmful_weight(cset.base, cset)
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


def lemma2_evaluate(cover: CliqueCover, n_events: int,
                    probs: Sequence[Fraction]) -> Lemma2Report:
    """Evaluate the clique local-lemma conditions and conclusions exactly.

    Condition (1): every clique's weight sum stays below 1.  Condition (2):
    for each event i and each clique v containing it,
    P_i <= x * prod over the *other* cliques u containing i of
    (1 - (|K_u| - 1) x).  Conclusions: avoidance >= prod over cliques of
    (1 - |K_v| x), and expected total resamples
    <= sum_i min over cliques v containing i of x / (1 - |K_v| x).

    Raises when some event sits in no clique: the cover then says nothing
    about it and any verdict would be vacuous.
    """
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

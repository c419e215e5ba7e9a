"""Feasibility thresholds, avoidance guarantees and resampling-cost bounds.

Everything is driven by one local-lemma condition.  Given k avoidable
candidates with activation probabilities P_i, dependency graph G (events
adjacent iff their supports share an edge), maximum dependency degree
Delta, per-structure vertex count h (4 for a 4-cycle family) and maximum
harmful weight W (most candidates whose support holds one base edge),
avoidance of all candidates is guaranteed whenever

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
cover argument.  The generic evaluator of that argument (the paper's
Lemma 2) reproduces them exactly on regular families; nothing here runs
it, so it lives with the tests (``tests/helpers.py``) as their
independent cross-check.

Each Theorem 1 and Corollary 4 number is a power (a/b)^e / c, and
``_power`` evaluates them all: exact with an exponent below 8192, its
float that value rounded once (inf past the double range); from 8192 on,
no exact value and a wide-range 60-digit ``decimal`` rounded once.  The
shift bounds' ``relaxed_bound`` (1+1/Delta)^n follows the same rule; only
their ``bound`` is plain float arithmetic, inf past the double range.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from typing import Optional, Sequence

from .model import record
from .probability import spreading_prob_c4_uniform
from .walks import CandidateSet, dependency_degree, harmful_weight

# Fractions with numerators around n^n stay cheap up to this point; past it
# the exact slot is left None and floats (still high-precision) take over.
EXACT_EXPONENT_LIMIT = 8192
_WIDE = Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)

def _power(a: int, b: int, e: int,
           c: int = 1) -> tuple[Optional[Fraction], float]:
    """(a/b)^e / c: exact while e < EXACT_EXPONENT_LIMIT (else None), and
    as a double that exact value rounded once (inf past the double range)
    or, past the limit, the 60-digit one rounded once."""
    if e >= EXACT_EXPONENT_LIMIT:
        wide = _WIDE.power(_WIDE.divide(a, b), e)
        return None, float(_WIDE.divide(wide, c))
    exact = Fraction(a, b) ** e / c
    try:
        return exact, float(exact)
    except OverflowError:
        return exact, math.inf


def threshold_branch_i(delta: int) -> tuple[Optional[Fraction], float]:
    """(Delta-1)^(Delta-1)/Delta^Delta, with 0^0 = 1 so delta <= 1 gives 1.

    Degenerate note: at delta <= 2 the matching avoidance/runtime formulas
    lose meaning, but the threshold value itself is still defined.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta <= 1:
        return Fraction(1), 1.0
    return _power(delta - 1, delta, delta - 1, delta)


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
    return _power(h - 1, h, h - 1, (w - 1) * h)


@record(frozen=True)
class Thresholds:
    """Theorem 1's two thresholds I and II, each exact (None past the
    exact-exponent limit) and as a float; II is None when W = 1."""

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


@record(frozen=True)
class BoundReport:
    """Theorem 1 over one candidate set: the inputs it read (k, Delta and
    its source, h, W, dependency edges, base-edge cliques, max P), the
    thresholds, the branch, the verdict and the branch's avoidance and
    expected-resample bounds."""

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

    _, w_max = harmful_weight(cset)
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
            avoidance = _power(delta - 2, delta, dep.edge_count)[1]
    else:
        num = (w_max - 1) * struct_size - w_max
        den = (w_max - 1) * struct_size
        avoidance = _power(num, den, clique_count)[1] if num > 0 else 0.0

    return BoundReport(
        k=len(cset), delta=delta, delta_source=delta_source,
        struct_size=struct_size, w_max=w_max, dep_edges=dep.edge_count,
        clique_count=clique_count, p_max=p_max, thresholds=thresholds,
        branch=branch, feasible=feasible, avoidance_lb=avoidance,
        resample_bound=theorem2_resample_bound(len(cset), branch, delta,
                                               w_max, struct_size),
    )


@record(frozen=True)
class Corollary1Report:
    """Corollary 1 at one (gamma, kappa, m, Z): the closed-form Delta, the
    4-cycle activation probability ``lhs`` against Theorem 1's thresholds,
    and the verdict (never feasible when every 4-cycle is unavoidable)."""

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

def shift_delta(cset: CandidateSet, observed: int) -> tuple[int, str]:
    """The Delta of the shift bounds' precondition and caps, and its
    source: Corollary 4's closed form ("formula") when ``cset`` is the
    complete 4-cycle family of an all-ones block, else ``observed``, the
    measured dependency degree raised to at least 1 ("observed")."""
    dims = c4_block_dims(cset)
    if dims is None:
        return max(1, observed), "observed"
    return formula_delta_c4(*dims), "formula"


@record(frozen=True)
class SymmetricShiftBound:
    """The symmetric shift cap (1 + e p)^n, its precondition
    e p (Delta + 1) <= 1 and the p-free form (1 + 1/Delta)^n."""

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
    try:
        bound = (1.0 + math.e * float(p)) ** n_overlap
    except OverflowError:
        bound = math.inf
    return SymmetricShiftBound(
        p=p, delta=delta, n_overlap=n_overlap,
        condition_lhs=lhs, condition_held=lhs <= 1.0, bound=bound,
        relaxed_bound=_power(delta + 1, delta, n_overlap)[1],
    )


COROLLARY4_CAP = math.exp(8.0 / 3.0)


@record(frozen=True)
class Corollary4Bound:
    """Corollary 4's drift cap (1 + 1/Delta)^exponent, exponent = 2k W,
    and the universal e^{8/3} ceiling where it applies (else None)."""

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
    value = _power(delta + 1, delta, exponent)[1]
    cap = None
    if two_k == 6 and gamma >= 3 and kappa >= 3:
        cap = COROLLARY4_CAP
        if value > cap:  # pragma: no cover - mathematically impossible
            raise AssertionError("universal 6-cycle cap violated")
    return Corollary4Bound(delta, w, exponent, value, cap)

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scldpc import (COROLLARY4_CAP, BaseCode, CandidateSet, CouplingScheme,
                    c4_block_dims, corollary1_check, corollary1_min_z,
                    corollary4_bound, dependency_degree, enumerate_cycles,
                    joint_prob, formula_delta_c4, shift_bound_symmetric,
                    spreading_prob_c4_uniform, spreading_prob_exact,
                    theorem1_feasibility, theorem1_thresholds,
                    theorem2_resample_bound, threshold_branch_i,
                    threshold_branch_ii)
from scldpc.bounds import shift_delta
from helpers import (CliqueCover, build_base_edge_cover, build_pairwise_cover,
                     lemma2_evaluate, shift_bound_asymmetric, verify_cover)


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

def test_threshold_branch_i_values():
    assert threshold_branch_i(0) == (Fraction(1), 1.0)
    assert threshold_branch_i(1) == (Fraction(1), 1.0)
    assert threshold_branch_i(2) == (Fraction(1, 4), 0.25)
    assert threshold_branch_i(3)[0] == Fraction(4, 27)
    exact, flt = threshold_branch_i(33)
    assert exact == Fraction(32 ** 32, 33 ** 33)
    assert flt == pytest.approx(0.011319813984547324, rel=1e-14)


def test_threshold_branch_i_large_delta_float_only():
    exact, flt = threshold_branch_i(100000)
    assert exact is None                      # too large for exact form
    assert flt == pytest.approx(1 / (math.e * 100000), rel=1e-4)


def test_threshold_branch_ii_values():
    exact, flt = threshold_branch_ii(4, 12)
    assert exact == Fraction(27, 2816)
    assert flt == pytest.approx(27 / 2816, rel=1e-14)
    assert threshold_branch_ii(4, 1) == (None, None)
    assert threshold_branch_ii(6, 2)[0] == Fraction(5 ** 5, 6 ** 6)


def test_branch_selection():
    t = theorem1_thresholds(33, 4, 12)
    assert t.branch == "I"                    # 0.0113 > 27/2816
    assert t.best_exact == t.i_exact
    t2 = theorem1_thresholds(50, 4, 2)        # I tiny, II = 27/256
    assert t2.branch == "II"
    assert t2.best_exact == Fraction(27, 256)
    t3 = theorem1_thresholds(5, 4, 1)         # II undefined -> I
    assert t3.branch == "I"


def test_thresholds_admit():
    t = theorem1_thresholds(33, 4, 12)
    assert t.admits(Fraction(3, 272))
    assert not t.admits(Fraction(3, 264))     # 1/88 > I(33)


# ---------------------------------------------------------------------------
# Expected-cost bound
# ---------------------------------------------------------------------------

def test_theorem2_closed_forms():
    assert theorem2_resample_bound(63, "I", 33, 12, 4) == Fraction(63, 31)
    assert theorem2_resample_bound(63, "II", 33, 12, 4) == Fraction(63, 32)
    assert theorem2_resample_bound(10, "I", 2, 5, 4) is None
    assert theorem2_resample_bound(10, "II", 9, 1, 4) is None


# ---------------------------------------------------------------------------
# Dependency degree audit and feasibility
# ---------------------------------------------------------------------------

def test_closed_form_delta():
    assert formula_delta_c4(3, 3) == 9
    assert formula_delta_c4(3, 7) == 33
    assert formula_delta_c4(4, 5) == 35


def test_observed_delta_is_one_below_formula():
    for gamma, kappa in [(3, 3), (3, 7), (4, 5)]:
        cset = enumerate_cycles(BaseCode(gamma, kappa), 4, "simple")
        observed = dependency_degree(cset).delta_observed
        assert observed == formula_delta_c4(gamma, kappa) - 1


def test_c4_block_dims():
    full = enumerate_cycles(BaseCode(3, 7), 4, "simple")
    assert c4_block_dims(full) == (3, 7)
    big = enumerate_cycles(BaseCode(6, 8), 4, "simple")
    sub = big.restrict(rows=(0, 1, 2), cols=(0, 1, 2, 3))
    assert c4_block_dims(sub) == (3, 4)
    from scldpc import CandidateSet
    incomplete = CandidateSet(full.base, full.candidates[:-1])
    assert c4_block_dims(incomplete) is None
    sixes = enumerate_cycles(BaseCode(3, 3), 6, "simple")
    assert c4_block_dims(sixes) is None


def test_shift_delta_is_the_closed_form_on_complete_c4_families():
    full = enumerate_cycles(BaseCode(3, 7), 4, "simple")
    assert shift_delta(full, 32) == (33, "formula")
    window = enumerate_cycles(BaseCode(3, 7), 4).restrict(cols=(0, 1, 2))
    assert shift_delta(window, 8) == (formula_delta_c4(3, 3), "formula")
    incomplete = CandidateSet(full.base, full.candidates[:-1])
    assert shift_delta(incomplete, 31) == (31, "observed")
    sixes = enumerate_cycles(BaseCode(3, 3), 6, "simple")
    assert shift_delta(sixes, 5) == (5, "observed")
    # The shift bounds need Delta >= 1: an observed 0 is reported as 1.
    assert shift_delta(sixes, 0) == (1, "observed")


def test_theorem1_feasibility_both_delta_sources():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    scheme = CouplingScheme.uniform(1, lifting_degree=34)
    probs = [joint_prob(c, scheme).joint for c in cset]

    formula = theorem1_feasibility(cset, probs, delta_source="formula")
    assert formula.delta == 33 and formula.branch == "I" and formula.feasible
    assert formula.resample_bound == Fraction(63, 31)

    observed = theorem1_feasibility(cset, probs, delta_source="observed")
    assert observed.delta == 32 and observed.feasible
    assert observed.resample_bound == Fraction(63, 30)

    # Z = 33 just misses the threshold under the closed-form delta
    tight = CouplingScheme.uniform(1, lifting_degree=33)
    probs33 = [joint_prob(c, tight).joint for c in cset]
    assert not theorem1_feasibility(cset, probs33,
                                    delta_source="formula").feasible


def test_theorem1_rejects_certain_events():
    base = BaseCode(3, 3)
    cset = enumerate_cycles(base, 4, "simple")
    with pytest.raises(ValueError):
        theorem1_feasibility(cset, [Fraction(1)] * len(cset),
                             delta_source="observed")


def test_avoidance_lower_bound_formulas():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    scheme = CouplingScheme.uniform(1, lifting_degree=34)
    probs = [joint_prob(c, scheme).joint for c in cset]
    rep = theorem1_feasibility(cset, probs, delta_source="formula")
    assert rep.avoidance_lb == pytest.approx(
        (31 / 33) ** rep.dep_edges, rel=1e-12)


# ---------------------------------------------------------------------------
# Uniform-coupling corollary and minimal parameters
# ---------------------------------------------------------------------------

def test_corollary1_at_3x7():
    ok = corollary1_check(3, 7, 1, 34)
    assert ok.feasible and ok.branch == "I" and not ok.unavoidable
    assert ok.lhs == Fraction(3, 8 * 34)
    assert ok.thresholds.ii_exact == Fraction(27, 2816)
    bad = corollary1_check(3, 7, 1, 33)
    assert not bad.feasible


def test_corollary1_min_z_exact_rational_oracle():
    # independent scan with exact arithmetic
    i_exact = Fraction(32 ** 32, 33 ** 33)
    ii_exact = Fraction(27, 2816)
    best = max(i_exact, ii_exact)
    z = 1
    while Fraction(3, 8) / z > best:
        z += 1
    assert z == 34
    assert corollary1_min_z(3, 7, 1) == 34


def test_corollary1_unavoidable_corner():
    rep = corollary1_check(2, 2, 0, 1)
    assert rep.unavoidable and not rep.feasible
    # one memory step or one extra lift dimension restores avoidability
    assert not corollary1_check(2, 2, 1, 1).unavoidable
    assert not corollary1_check(2, 2, 0, 2).unavoidable
    # a single 4-cycle has no neighbors, so the lemma admits any p < 1
    assert corollary1_check(2, 2, 1, 1).feasible


def test_corollary1_rejects_tiny_bases():
    with pytest.raises(ValueError):
        corollary1_check(1, 7, 1, 34)


# ---------------------------------------------------------------------------
# Distribution-shift caps
# ---------------------------------------------------------------------------

def test_asymmetric_shift_bound():
    assert shift_bound_asymmetric([]) == 1
    assert shift_bound_asymmetric([Fraction(1, 2)] * 2) == 4
    with pytest.raises(ValueError):
        shift_bound_asymmetric([Fraction(1)])


def test_symmetric_shift_bound_values():
    s = shift_bound_symmetric(Fraction(1, 100), 9, 24)
    assert s.condition_lhs == pytest.approx(math.e * 0.01 * 10, rel=1e-12)
    assert s.condition_held
    assert s.bound == pytest.approx((1 + math.e / 100) ** 24, rel=1e-12)
    assert s.relaxed_bound == pytest.approx((10 / 9) ** 24, rel=1e-12)
    assert s.relaxed_bound == pytest.approx(12.536600, rel=1e-6)
    hot = shift_bound_symmetric(Fraction(1, 2), 9, 4)
    assert not hot.condition_held
    # 2.019^2330 is past the double range: inf, as _power's powers.
    assert shift_bound_symmetric(Fraction(3, 8), 2742, 2330).bound == math.inf


def test_relaxed_shift_bound_is_the_asymmetric_product_rounded_once():
    # (1+1/Delta)^n = prod over n events of 1/(1 - 1/(Delta+1)), bit for bit.
    for delta in range(1, 200):
        x = [Fraction(1, delta + 1)]
        for n in range(60):
            relaxed = shift_bound_symmetric(Fraction(0), delta, n)
            assert relaxed.relaxed_bound == \
                float(shift_bound_asymmetric(x * n)), (delta, n)


@settings(max_examples=300, deadline=None)
@given(delta=st.integers(1, 2000), n=st.integers(1, 500),
       scale=st.fractions(0, Fraction(11, 10), max_denominator=10**6))
def test_symmetric_precondition_makes_it_the_least_cap(delta, n, scale):
    # p around the precondition's edge 1/(e(Delta+1)): where it holds, the
    # asymmetric route is certified and (1+e p)^n < (1+1/Delta)^n.
    p = scale * Fraction(math.exp(-1)) / (delta + 1)
    s = shift_bound_symmetric(p, delta, n)
    if s.condition_held:
        x = Fraction(1, delta + 1)
        assert p <= x * (1 - x) ** delta
        assert s.bound < s.relaxed_bound


def test_memory_threshold_for_symmetric_condition():
    # at 3x3 the precondition e p (Delta+1) <= 1 first holds at m = 18
    def lhs(m: int) -> float:
        return math.e * float(spreading_prob_c4_uniform(m)) * 10

    assert lhs(17) > 1.0
    assert lhs(18) <= 1.0
    s = shift_bound_symmetric(spreading_prob_c4_uniform(18), 9, 1)
    assert s.condition_held
    assert s.condition_lhs == pytest.approx(0.9551, rel=1e-3)


def test_corollary4_universal_cap_on_grid():
    worst = corollary4_bound(3, 3, 6)
    assert worst.exponent == 24
    assert worst.value == pytest.approx((10 / 9) ** 24, rel=1e-12)
    assert worst.cap == pytest.approx(math.exp(8 / 3), rel=1e-12)
    assert COROLLARY4_CAP == pytest.approx(14.391916, rel=1e-6)
    for gamma in (3, 4, 5, 8, 16, 33, 64):
        for kappa in (3, 4, 6, 12, 24, 48, 64):
            b = corollary4_bound(gamma, kappa, 6)
            assert 1.0 < b.value <= COROLLARY4_CAP
    # the value shrinks as the base grows; 3x3 is the worst case
    assert corollary4_bound(3, 4, 6).value < worst.value
    assert corollary4_bound(64, 64, 6).value < corollary4_bound(4, 4, 6).value


def test_corollary4_no_cap_outside_regime():
    assert corollary4_bound(2, 5, 6).cap is None
    assert corollary4_bound(3, 3, 4).cap is None


# ---------------------------------------------------------------------------
# Clique-cover route reproduces the closed forms exactly
# ---------------------------------------------------------------------------

def test_pairwise_cover_reproduces_branch_i():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    k = len(cset)
    p = Fraction(3, 272)
    cover = build_pairwise_cover(cset, x=Fraction(1, 33))
    assert verify_cover(cover, cset)
    rep = lemma2_evaluate(cover, [p] * k)
    assert rep.condition1_ok and rep.condition2_ok
    # runtime: exactly k / (Delta - 2) with Delta = 33
    assert rep.runtime_bound == Fraction(63, 31)
    # avoidance: exactly (1 - 2/Delta)^(dependency edges)
    n_edges = dependency_degree(cset).edge_count
    assert rep.avoidance_lb == (1 - Fraction(2, 33)) ** n_edges


def test_base_edge_cover_reproduces_branch_ii():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    k = len(cset)
    w = 12
    h = 4
    x = Fraction(1, (w - 1) * h)
    cover = build_base_edge_cover(cset, x=x)
    assert verify_cover(cover, cset)
    assert len(cover.cliques) == 21           # one clique per base edge
    assert all(len(c) == w for c in cover.cliques)
    # Z = 40 puts p under the 27/2816 threshold of this route
    p = Fraction(3, 320)
    rep = lemma2_evaluate(cover, [p] * k)
    assert rep.condition1_ok and rep.condition2_ok
    # runtime: exactly k / ((W-1) |H| - W)
    assert rep.runtime_bound == Fraction(63, 32)
    # avoidance: exactly (((W-1)|H| - W) / ((W-1)|H|))^(base edges)
    assert rep.avoidance_lb == (1 - Fraction(w, (w - 1) * h)) ** 21
    # at Z = 34 the same cover falls just outside its certificate
    close = lemma2_evaluate(cover, [Fraction(3, 272)] * k)
    assert close.condition1_ok and not close.condition2_ok


def test_cover_routes_match_feasibility_engine():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    scheme = CouplingScheme.uniform(1, lifting_degree=34)
    probs = [joint_prob(c, scheme).joint for c in cset]
    rep = theorem1_feasibility(cset, probs, delta_source="formula")

    pair = lemma2_evaluate(build_pairwise_cover(cset, x=Fraction(1, 33)),
                           probs)
    assert pair.runtime_bound == rep.resample_bound
    assert float(pair.avoidance_lb) == pytest.approx(rep.avoidance_lb,
                                                     rel=1e-12)


def test_lemma2_violated_conditions_detected():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    k = len(cset)
    cover = build_pairwise_cover(cset, x=Fraction(1, 33))
    # probability far above the threshold: condition 2 must fail
    rep = lemma2_evaluate(cover, [Fraction(1, 2)] * k)
    assert not rep.condition2_ok
    # weight saturating a clique: condition 1 (per-clique mass < 1) fails
    fat = build_base_edge_cover(cset, x=Fraction(1, 12))
    rep2 = lemma2_evaluate(fat, [Fraction(3, 272)] * k)
    assert not rep2.condition1_ok
    assert rep2.runtime_bound is None        # no positive denominator


def test_lemma2_rejects_uncovered_events():
    base = BaseCode(3, 7)
    cset = enumerate_cycles(base, 4, "simple")
    cover = build_pairwise_cover(cset, x=Fraction(1, 33))
    with pytest.raises(ValueError):
        lemma2_evaluate(cover, [Fraction(3, 272)] * (len(cset) + 1))


# ---------------------------------------------------------------------------
# Input checks and the degenerate paths
# ---------------------------------------------------------------------------

_C4_3X3 = enumerate_cycles(BaseCode(3, 3), 4)
_C6_3X3 = enumerate_cycles(BaseCode(3, 3), 6)
# One of these walks has all coefficients zero.
_TBC12_2X3 = enumerate_cycles(BaseCode(2, 3), 12, "tbc")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: threshold_branch_i(-1),
                 "delta must be non-negative", id="branch-i-delta"),
    pytest.param(lambda: threshold_branch_ii(1, 2),
                 "structure size must be at least 2", id="branch-ii-size"),
    pytest.param(lambda: threshold_branch_ii(4, 0),
                 "harmful weight must be at least 1", id="branch-ii-weight"),
    pytest.param(lambda: theorem2_resample_bound(-1, "I", 5, 2, 4),
                 "candidate count cannot be negative", id="theorem2-count"),
    pytest.param(lambda: theorem2_resample_bound(1, "III", 5, 2, 4),
                 "unknown branch 'III'", id="theorem2-branch"),
    pytest.param(lambda: formula_delta_c4(1, 3),
                 "need at least a 2x2 base", id="formula-delta-base"),
    pytest.param(lambda: theorem1_feasibility(_C4_3X3, []),
                 "one probability per candidate, in set order",
                 id="theorem1-probs"),
    pytest.param(lambda: theorem1_feasibility(
                     CandidateSet(_C4_3X3.base, ()), []),
                 "empty candidate set", id="theorem1-empty"),
    pytest.param(lambda: theorem1_feasibility(
                     _TBC12_2X3, [Fraction(1, 100)] * len(_TBC12_2X3)),
                 "unavoidable candidates present: "
                 "c12:v0c0v1c1v2c0v0c1v1c0v2c1", id="theorem1-unavoidable"),
    pytest.param(lambda: theorem1_feasibility(
                     _C6_3X3, [Fraction(1, 100)] * len(_C6_3X3)),
                 "closed-form delta applies only to complete 4-cycle "
                 "families", id="theorem1-formula-on-c6"),
    pytest.param(lambda: theorem1_feasibility(
                     _C4_3X3, [Fraction(1, 100)] * 9, delta_source="guess"),
                 "unknown delta source 'guess'", id="theorem1-source"),
    pytest.param(lambda: corollary1_check(3, 3, -1, 5),
                 "memory must be >= 0 and Z >= 1", id="corollary1-memory"),
    pytest.param(lambda: shift_bound_symmetric(Fraction(1), 5, 1),
                 "probability must be in [0, 1)", id="shift-probability"),
    pytest.param(lambda: shift_bound_symmetric(Fraction(1, 10), 0, 1),
                 "delta must be >= 1 and overlap count >= 0",
                 id="shift-delta"),
    pytest.param(lambda: corollary4_bound(1, 3, 6),
                 "need at least a 2x2 all-ones base", id="corollary4-base"),
    pytest.param(lambda: corollary4_bound(3, 3, 5),
                 "cycle length must be even and non-negative",
                 id="corollary4-length"),
    pytest.param(lambda: CliqueCover("pairwise", (), Fraction(1)),
                 "clique weight must lie in (0, 1)", id="cover-weight"),
    pytest.param(lambda: lemma2_evaluate(
                     CliqueCover("pairwise", ((0, 2),), Fraction(1, 2)),
                     [Fraction(1, 10)] * 2),
                 "clique references unknown event index",
                 id="lemma2-index"),
    pytest.param(lambda: build_pairwise_cover(
                     CandidateSet(_C4_3X3.base, _C4_3X3.candidates[:1])),
                 "default weight 1/Delta needs Delta >= 2",
                 id="pairwise-default-weight"),
    pytest.param(lambda: build_base_edge_cover(enumerate_cycles(
                     BaseCode(2, 2), 4)),
                 "default weight needs harmful weight >= 2",
                 id="base-edge-default-weight"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_c4_block_dims_degenerate_sets():
    assert c4_block_dims(CandidateSet(_C4_3X3.base, ())) is None
    # The 4-cycles of a 3x3 block with (2, 2) masked span rows and
    # columns 0-2, so the block they span misses an edge.
    masked = BaseCode(3, 3, mask=((1, 1, 1), (1, 1, 1), (1, 1, 0)))
    cset = enumerate_cycles(masked, 4)
    assert len(cset) == 5
    assert c4_block_dims(cset) is None
    assert c4_block_dims(_C4_3X3) == (3, 3)


def test_cover_default_weights():
    # 3x3 c4: Delta_observed = 8 (every two 4-cycles share an edge), and
    # harmful weight W = 4 with h = 4 vertices per 4-cycle.
    assert build_pairwise_cover(_C4_3X3).x == Fraction(1, 8)
    assert build_base_edge_cover(_C4_3X3).x == Fraction(1, 12)

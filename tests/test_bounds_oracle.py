"""mpmath as a test-time oracle for the floats that ``bounds`` returns.

The package evaluates its closed forms without mpmath: an exact Fraction
rounded once, or 60-digit ``decimal`` past ``EXACT_EXPONENT_LIMIT``.  Each
oracle below is the same expression evaluated by mpmath at 60 significant
digits, and every float must match it bit for bit.  The grids include values
that are exact binary ties, where a 60-digit decimal alone rounds 1 ulp off.
"""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from scldpc import BaseCode, enumerate_cycles
from scldpc.bounds import (_WIDE, EXACT_EXPONENT_LIMIT, _power,
                           corollary4_bound, theorem1_feasibility,
                           theorem1_thresholds, threshold_branch_i,
                           threshold_branch_ii)

_DPS = 60


def _mp_branch_i(delta: int) -> float:
    with mpmath.workdps(_DPS):
        return float(mpmath.power(delta - 1, delta - 1)
                     / mpmath.power(delta, delta))


def _mp_branch_ii(h: int, w: int) -> float:
    with mpmath.workdps(_DPS):
        return float(mpmath.power(h - 1, h - 1)
                     / ((w - 1) * mpmath.power(h, h)))


def _mp_pow(base_num: int, base_den: int, exponent: int) -> float:
    with mpmath.workdps(_DPS):
        return float(mpmath.power(mpmath.mpf(base_num) / base_den, exponent))


def _mismatches(pairs):
    return [(key, ours, oracle) for key, ours, oracle in pairs
            if ours != oracle]


def test_branch_i_matches_mpmath():
    deltas = [*range(2, 3001), EXACT_EXPONENT_LIMIT + 1, 10 ** 5]
    assert not _mismatches(
        (d, threshold_branch_i(d)[1], _mp_branch_i(d)) for d in deltas)


def test_branch_ii_matches_mpmath():
    assert threshold_branch_ii(16, 101)[1] == _mp_branch_ii(16, 101)  # tie
    assert not _mismatches(
        ((h, w), threshold_branch_ii(h, w)[1], _mp_branch_ii(h, w))
        for h in range(2, 40) for w in range(2, 300))


def test_corollary4_drift_matches_mpmath():
    def oracle(gamma, kappa, two_k):
        delta = (2 * gamma - 3) * (2 * kappa - 3)
        return _mp_pow(delta + 1, delta,
                       two_k * (gamma - 1) * (kappa - 1))

    assert not _mismatches(
        ((g, k, t), corollary4_bound(g, k, t).value, oracle(g, k, t))
        for g in range(2, 40) for k in range(2, 40) for t in range(4, 13, 2))


def test_corollary4_overflow_reads_inf():
    assert _mp_pow(2, 1, 1024) == math.inf
    assert corollary4_bound(2, 2, 1024).value == math.inf


@pytest.mark.parametrize("delta, h, w, winner", [
    (EXACT_EXPONENT_LIMIT + 1, 4, 2, "II"),       # II exact, I float-only
    (EXACT_EXPONENT_LIMIT + 1, 4, 10 ** 5, "I"),
    (10 ** 5, 9000, 2, "II"),                     # both float-only
    (10 ** 5, 10 ** 5, 3, "I"),
    (10 ** 5, 4, 1, "I"),                         # no branch II
])
def test_float_only_threshold_decisions_match_mpmath(delta, h, w, winner):
    # Past EXACT_EXPONENT_LIMIT branch I has no exact value, so the branch,
    # the best threshold and admission are decided on floats.
    with mpmath.workdps(_DPS):
        branch_i = mpmath.power(delta - 1, delta - 1) / mpmath.power(
            delta, delta)
        branch_ii = (None if w == 1 else mpmath.power(h - 1, h - 1)
                     / ((w - 1) * mpmath.power(h, h)))
        best = branch_i if branch_ii is None else max(branch_i, branch_ii)
        below, above = (Fraction(mpmath.nstr(best * f, 40))
                        for f in (1 - mpmath.mpf(10) ** -9,
                                  1 + mpmath.mpf(10) ** -9))
    oracle_winner = ("I" if branch_ii is None or branch_i > branch_ii
                     else "II")
    assert oracle_winner == winner
    t = theorem1_thresholds(delta, h, w)
    assert t.i_exact is None and t.best_exact is None
    assert t.branch == winner
    assert t.best_float == float(best)
    assert t.admits(below) and not t.admits(above)


@pytest.mark.parametrize("args", [
    (6, 8, 34),                          # branch-I avoidance at Delta = 8: a tie
    (120, 122, 29883),                   # past EXACT_EXPONENT_LIMIT
])
def test_pow_float_matches_mpmath(args):
    assert _power(*args)[1] == _mp_pow(*args)


@pytest.mark.parametrize("gamma, kappa, branch", [(3, 7, "I"), (9, 9, "II")])
def test_avoidance_lb_matches_mpmath(gamma, kappa, branch):
    cset = enumerate_cycles(BaseCode(gamma, kappa), 4, "simple")
    rep = theorem1_feasibility(cset, [Fraction(1, 10 ** 6)] * len(cset),
                               delta_source="observed")
    assert rep.branch == branch
    if branch == "I":
        oracle = _mp_pow(rep.delta - 2, rep.delta, rep.dep_edges)
    else:
        den = (rep.w_max - 1) * rep.struct_size
        oracle = _mp_pow(den - rep.w_max, den, rep.clique_count)
    assert 0.0 < rep.avoidance_lb == oracle


def test_import_does_not_load_mpmath():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, scldpc; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# The three hand-written powers that ``_power`` replaced, kept verbatim as
# an oracle: the thresholds tested the base against EXACT_EXPONENT_LIMIT
# and the avoidance and drift powers the exponent, and the thresholds
# evaluated the 60-digit decimal in another order.

def _old_pow_float(base_num: int, base_den: int, exponent: int) -> float:
    if exponent > EXACT_EXPONENT_LIMIT:
        return float(_WIDE.power(_WIDE.divide(base_num, base_den), exponent))
    try:
        return float(Fraction(base_num, base_den) ** exponent)
    except OverflowError:
        return math.inf


def _old_threshold_branch_i(delta: int):
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta <= 1:
        return Fraction(1), 1.0
    if delta <= EXACT_EXPONENT_LIMIT:
        exact = Fraction(delta - 1, delta) ** (delta - 1) / delta
        return exact, float(exact)
    return None, float(_WIDE.divide(_WIDE.power(delta - 1, delta - 1),
                                    _WIDE.power(delta, delta)))


def _old_threshold_branch_ii(struct_size: int, w: int):
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


def _same_pair(ours, old) -> bool:
    # Exact slots equal (None alike); doubles equal bit for bit.
    return ours[0] == old[0] and repr(ours[1]) == repr(old[1])


def test_power_keeps_threshold_i():
    deltas = [*range(0, 3001), *range(EXACT_EXPONENT_LIMIT - 3,
                                      EXACT_EXPONENT_LIMIT + 4)]
    assert [d for d in deltas if not _same_pair(
        threshold_branch_i(d), _old_threshold_branch_i(d))] == []


def test_power_keeps_threshold_ii():
    # Near the limit the old body's gcd on two 100 kbit powers costs about
    # 13 ms a call, so W is sampled there.
    grid = [*((h, w) for h in range(2, 41) for w in range(1, 301)),
            *((h, w) for h in range(EXACT_EXPONENT_LIMIT - 1,
                                    EXACT_EXPONENT_LIMIT + 3)
              for w in (2, *range(1, 301, 23), 300))]
    assert [(h, w) for h, w in grid if not _same_pair(
        threshold_branch_ii(h, w), _old_threshold_branch_ii(h, w))] == []


@pytest.mark.parametrize("exponent", [EXACT_EXPONENT_LIMIT - 1,
                                      EXACT_EXPONENT_LIMIT,
                                      EXACT_EXPONENT_LIMIT + 1])
def test_power_keeps_avoidance_and_drift_powers(exponent):
    # Branch-I avoidance (Delta-2)/Delta, drift (Delta+1)/Delta and
    # branch-II avoidance ((W-1)h - W)/((W-1)h) at h = 4 and 6.
    bases = [*((d - 2, d) for d in range(3, 200)),
             *((d + 1, d) for d in range(1, 200)),
             *(((w - 1) * h - w, (w - 1) * h)
               for h in (4, 6) for w in range(2, 60))]
    exact_slot = exponent < EXACT_EXPONENT_LIMIT
    mismatched = []
    for num, den in bases:
        exact, value = _power(num, den, exponent)
        old = _old_pow_float(num, den, exponent)
        if (repr(value) != repr(old) or (exact is not None) != exact_slot
                or (exact_slot and exact != Fraction(num, den) ** exponent)):
            mismatched.append((num, den))
    assert mismatched == []


def test_power_keeps_corollary4_values():
    assert corollary4_bound(2, 2, 1024).value == _old_pow_float(2, 1, 1024) \
        == math.inf
    # Exponent 8192 = 8 * 32 * 32, where the cut-off moved by one.
    assert corollary4_bound(33, 33, 8).value == _old_pow_float(3970, 3969,
                                                               8192)

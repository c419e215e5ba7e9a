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
from scldpc.bounds import (EXACT_EXPONENT_LIMIT, _pow_float,
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
    assert _pow_float(*args) == _mp_pow(*args)


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

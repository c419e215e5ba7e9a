from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scldpc import (BaseCode, CouplingScheme, enumerate_cycles, joint_prob,
                    lift_prob_bound, lift_prob_exact, probability_report,
                    spreading_prob_c4_uniform, spreading_prob_exact)
from scldpc.probability import (Sampler, draw, edge_index, forms, rng,
                                scheme_sampler, stage_blocks, uniform, vanish)
from scldpc.walks import WalkCandidate
from helpers import (HarmfulStructure, mc_structure_prob,
                     structure_joint_prob)


def _c4(base: BaseCode) -> WalkCandidate:
    return enumerate_cycles(base, 4, "simple")[0]


def _bruteforce_spreading(cand: WalkCandidate,
                          scheme: CouplingScheme) -> Fraction:
    """Independent oracle: enumerate every assignment of pattern values to
    the support edges and weight by the scheme probabilities."""
    edges = [e for e, _ in cand.coeffs]
    coeffs = [v for _, v in cand.coeffs]
    weight = dict(zip(scheme.pattern, scheme.probs))
    total = Fraction(0)
    for values in itertools.product(scheme.pattern, repeat=len(edges)):
        if sum(c * v for c, v in zip(coeffs, values)) == 0:
            w = Fraction(1)
            for v in values:
                w *= weight[v]
            total += w
    return total


def _fraction_convolution(terms, scheme: CouplingScheme) -> Fraction:
    """Oracle: the Fraction-valued convolution the integer kernel replaced."""
    dist: dict[int, Fraction] = {0: Fraction(1)}
    for coef in terms:
        nxt: dict[int, Fraction] = {}
        for s, p in dist.items():
            for a, q in zip(scheme.pattern, scheme.probs):
                key = s + coef * a
                nxt[key] = nxt.get(key, Fraction(0)) + p * q
        dist = nxt
    return dist.get(0, Fraction(0))


def _form(coeffs) -> WalkCandidate:
    """A candidate carrying an arbitrary signed form, one edge per entry."""
    return WalkCandidate((0, 0, 1, 1),
                         tuple(((0, k), c) for k, c in enumerate(coeffs)))


def _bruteforce_lift(cand: WalkCandidate, z: int) -> Fraction:
    edges = [e for e, _ in cand.coeffs]
    coeffs = [v for _, v in cand.coeffs]
    hits = 0
    for values in itertools.product(range(z), repeat=len(edges)):
        if sum(c * v for c, v in zip(coeffs, values)) % z == 0:
            hits += 1
    return Fraction(hits, z ** len(edges))


# ---------------------------------------------------------------------------
# Spreading-stage probabilities
# ---------------------------------------------------------------------------

def test_uniform_4cycle_closed_form_three_ways():
    base = BaseCode(2, 2)
    c = _c4(base)
    for m in range(6):
        scheme = CouplingScheme.uniform(m)
        closed = spreading_prob_c4_uniform(m)
        assert closed == Fraction(2 * m * m + 4 * m + 3, 3 * (m + 1) ** 3)
        assert spreading_prob_exact(c, scheme) == closed
        assert _bruteforce_spreading(c, scheme) == closed


def test_frozen_spreading_values():
    assert spreading_prob_c4_uniform(0) == 1
    assert spreading_prob_c4_uniform(1) == Fraction(3, 8)
    assert spreading_prob_c4_uniform(2) == Fraction(19, 81)


def test_spreading_prob_nonuniform_scheme():
    base = BaseCode(2, 2)
    c = _c4(base)
    scheme = CouplingScheme((0, 2), (Fraction(1, 4), Fraction(3, 4)), 3, 1)
    assert spreading_prob_exact(c, scheme) == _bruteforce_spreading(c, scheme)


def test_spreading_prob_6cycle_matches_bruteforce():
    base = BaseCode(3, 3)
    c = enumerate_cycles(base, 6, "simple")[0]
    for m in (1, 2):
        scheme = CouplingScheme.uniform(m)
        assert spreading_prob_exact(c, scheme) == \
            _bruteforce_spreading(c, scheme)


def test_unavoidable_walk_has_probability_one():
    base = BaseCode(3, 3)
    w = WalkCandidate.from_nodes((0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 2), base)
    assert spreading_prob_exact(w, CouplingScheme.uniform(3)) == 1
    assert lift_prob_exact(w, 64) == 1


@st.composite
def _schemes(draw) -> CouplingScheme:
    pattern = sorted(draw(st.sets(st.integers(0, 6), min_size=1,
                                  max_size=4)))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(pattern),
                            max_size=len(pattern)))
    probs = tuple(Fraction(w, sum(weights)) for w in weights)
    return CouplingScheme(tuple(pattern), probs, pattern[-1] + 1)


@settings(max_examples=100, deadline=None)
@given(scheme=_schemes(),
       coeffs=st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                       min_size=1, max_size=8))
def test_spreading_prob_matches_fraction_convolution(scheme, coeffs):
    assert spreading_prob_exact(_form(coeffs), scheme) == \
        _fraction_convolution(coeffs, scheme)


def test_spreading_cache_key_includes_probs():
    c = _form((1, -1, 1, -1))
    skewed = CouplingScheme((0, 2), (Fraction(1, 4), Fraction(3, 4)), 3)
    even = CouplingScheme((0, 2), (Fraction(1, 2), Fraction(1, 2)), 3)
    assert spreading_prob_exact(c, skewed) == Fraction(118, 256)
    assert spreading_prob_exact(c, even) == Fraction(3, 8)


def test_spreading_prob_ignores_length_and_lifting():
    c = enumerate_cycles(BaseCode(3, 3), 6, "simple")[0]
    ref = spreading_prob_exact(c, CouplingScheme.uniform(2))
    for length, z in ((3, 1), (7, 1), (3, 34), (11, 5)):
        scheme = CouplingScheme.uniform(2, coupling_length=length,
                                        lifting_degree=z)
        assert spreading_prob_exact(c, scheme) == ref


def test_spreading_prob_invariant_under_coefficient_order():
    scheme = CouplingScheme((0, 1, 3), (Fraction(1, 2), Fraction(1, 3),
                                        Fraction(1, 6)), 4)
    coeffs = (2, -1, 3, -1, -3)
    ref = _fraction_convolution(coeffs, scheme)
    for perm in itertools.permutations(coeffs):
        assert spreading_prob_exact(_form(perm), scheme) == ref


def test_spreading_prob_drops_zero_coefficients():
    scheme = CouplingScheme.uniform(3)
    assert spreading_prob_exact(_form((0, 0, 0)), scheme) == Fraction(1)
    assert spreading_prob_exact(_form((1, 0, -1, 0)), scheme) == \
        spreading_prob_exact(_form((1, -1)), scheme)


def test_c4_closed_form_matches_kernel_to_memory_25():
    c = _c4(BaseCode(2, 2))
    for m in range(26):
        assert spreading_prob_c4_uniform(m) == \
            spreading_prob_exact(c, CouplingScheme.uniform(m))


def test_asymptotic_decay_rate():
    # m * P approaches 2/3 from above as the memory grows
    for m in (50, 200):
        assert abs(m * spreading_prob_c4_uniform(m) - Fraction(2, 3)) \
            < Fraction(2, m)
    assert float(200 * spreading_prob_c4_uniform(200)) == \
        pytest.approx(2 / 3, rel=2e-2)


# ---------------------------------------------------------------------------
# Lift-stage probabilities
# ---------------------------------------------------------------------------

def test_lift_exact_is_gcd_over_z():
    base = BaseCode(2, 2)
    c = _c4(base)
    for z in range(1, 7):
        assert lift_prob_exact(c, z) == Fraction(1, z)
        assert lift_prob_exact(c, z) == _bruteforce_lift(c, z)


def test_lift_exact_6cycles_bruteforce():
    base = BaseCode(3, 3)
    for c in enumerate_cycles(base, 6, "simple")[:3]:
        for z in (2, 3, 4, 5):
            assert lift_prob_exact(c, z) == _bruteforce_lift(c, z)


def test_lift_exact_doubled_cycle():
    # coefficients +-2: gcd(2, 4) = 2 of the 4 shifts solve it
    base = BaseCode(2, 2)
    doubled = WalkCandidate.from_nodes((0, 0, 1, 1, 0, 0, 1, 1), base)
    assert lift_prob_exact(doubled, 4) == Fraction(1, 2)
    assert lift_prob_exact(doubled, 2) == 1
    assert _bruteforce_lift(doubled, 4) == Fraction(1, 2)


def test_lift_bound_formula_and_dominance():
    assert lift_prob_bound([4], 34) == Fraction(4, 4 * 34)
    assert lift_prob_bound([4, 6], 5) == Fraction(24, (4 * 5) ** 2)
    with pytest.raises(ValueError):
        lift_prob_bound([3], 5)
    base = BaseCode(3, 3)
    for two_g in (4, 6):
        for c in enumerate_cycles(base, two_g, "simple"):
            for z in (2, 3, 5, 8, 34):
                assert lift_prob_bound([c.two_g], z) >= \
                    lift_prob_exact(c, z)


# ---------------------------------------------------------------------------
# Joint probabilities and reports
# ---------------------------------------------------------------------------

def test_joint_probability_factorizes():
    base = BaseCode(2, 2)
    c = _c4(base)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    ap = joint_prob(c, scheme)
    assert ap.spread == Fraction(3, 8)
    assert ap.lift == Fraction(1, 8)
    assert ap.joint == Fraction(3, 64)
    assert ap.lift_bound == Fraction(4, 32)


def test_structure_joint_prob_disjoint_product():
    base = BaseCode(4, 4)
    cset = enumerate_cycles(base, 4, "simple")
    a = cset.restrict(rows=(0, 1), cols=(0, 1))[0]
    b = cset.restrict(rows=(2, 3), cols=(2, 3))[0]
    scheme = CouplingScheme.uniform(1, lifting_degree=4)
    s = HarmfulStructure((a, b))
    p = structure_joint_prob(s, scheme)
    assert p is not None
    single = joint_prob(a, scheme)
    assert p.spread == single.spread ** 2
    assert p.lift == single.lift ** 2
    assert p.joint == single.joint ** 2


def test_structure_joint_prob_overlapping_returns_none():
    base = BaseCode(3, 3)
    cset = enumerate_cycles(base, 4, "simple")
    s = HarmfulStructure((cset[0], cset[1]))
    assert structure_joint_prob(s, CouplingScheme.uniform(1)) is None


def test_mc_agrees_with_exact():
    base = BaseCode(4, 4)
    cset = enumerate_cycles(base, 4, "simple")
    a = cset.restrict(rows=(0, 1), cols=(0, 1))[0]
    b = cset.restrict(rows=(2, 3), cols=(2, 3))[0]
    scheme = CouplingScheme.uniform(1, lifting_degree=2)
    s = HarmfulStructure((a, b))
    exact = float(structure_joint_prob(s, scheme).joint)
    n = 40000
    est = mc_structure_prob(s, scheme, trials=n, seed=7)
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(est - exact) <= 4 * sigma


def test_probability_report_csv():
    base = BaseCode(2, 2)
    cset = enumerate_cycles(base, 4, "simple")
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    text = probability_report(cset, scheme)
    lines = text.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    doc = dict(zip(header, row))
    assert doc["key"] == cset[0].key
    assert doc["spread"] == "3/8"
    assert doc["joint"] == "3/64"
    assert float(doc["spread_float"]) == pytest.approx(0.375)
    # identical on repeat runs
    assert probability_report(cset, scheme) == text


# ---------------------------------------------------------------------------
# Sampler, stage layout, forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z", [1, 2, 3, 17, 34, 211])
def test_uniform_draws_are_rng_integers(z):
    a, b = rng(5), np.random.default_rng(5)
    for n in (1, 7, 300):
        assert uniform(z).draw(a, n) == b.integers(0, z, size=n).tolist()
    assert a.integers(0, 2 ** 62, 2) == b.integers(0, 2 ** 62, 2).tolist()


@settings(max_examples=60, deadline=None)
@given(scheme=_schemes(), seed=st.integers(0, 2 ** 32), n=st.integers(0, 40))
def test_scheme_sampler_matches_cumulative_search(scheme, seed, n):
    """Oracle: integer weights over the common denominator, one uniform
    draw per value, values read off by binary search."""
    denom = math.lcm(*(p.denominator for p in scheme.probs))
    cum = np.cumsum([int(p * denom) for p in scheme.probs])
    ref_rng = np.random.default_rng(seed)
    u = ref_rng.integers(0, denom, size=n)
    ref = np.array(scheme.pattern)[np.searchsorted(cum, u, side="right")]
    assert scheme_sampler(scheme).draw(rng(seed), n) == ref.tolist()


@settings(max_examples=80, deadline=None)
@given(scheme=_schemes(), z=st.integers(1, 9), n=st.integers(1, 6),
       stage=st.sampled_from(("partition", "lift", "joint")),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_redraw_goes_block_by_block(scheme, z, n, stage, seed, data):
    """Oracle: per block, the scope's variables in that block, one sampler
    call for the lot, skipped when there are none."""
    scheme = CouplingScheme(scheme.pattern, scheme.probs,
                            scheme.coupling_length, z)
    blocks = stage_blocks(scheme, stage)
    size = n * len(blocks)
    scope = sorted(data.draw(st.sets(st.integers(0, size - 1))))
    gen, ref_rng = rng(seed), np.random.default_rng(seed)
    values = draw(gen, blocks, n)
    ref = [0] * size
    for b, (sampler, _) in enumerate(blocks):
        ref[b * n:(b + 1) * n] = sampler.draw(ref_rng, n)
    assert values == ref
    draw(gen, blocks, n, values, scope)
    for b, (sampler, _) in enumerate(blocks):
        mine = [k for k in scope if b * n <= k < (b + 1) * n]
        if mine:
            for k, v in zip(mine, sampler.draw(ref_rng, len(mine))):
                ref[k] = v
    assert values == ref
    assert gen.integers(0, 2 ** 62, 2) == \
        ref_rng.integers(0, 2 ** 62, 2).tolist()


@settings(max_examples=150, deadline=None)
@given(scheme=_schemes(), z=st.integers(1, 8),
       coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=6),
       stage=st.sampled_from(("partition", "lift", "joint")),
       seed=st.integers(0, 2 ** 32))
def test_vanish_is_the_signed_sum_condition(scheme, z, coeffs, stage, seed):
    """Oracle: the integer sum of the P values is 0 and the sum of the L
    values is 0 mod Z, over every edge of a closed walk (coefficients
    summing to zero)."""
    coeffs = coeffs + [-sum(coeffs)]
    cand = _form(coeffs)
    scheme = CouplingScheme(scheme.pattern, scheme.probs,
                            scheme.coupling_length, z)
    blocks = stage_blocks(scheme, stage)
    n = len(coeffs)
    values = draw(rng(seed), blocks, n)
    fs = forms(cand, edge_index(cand.edges), blocks)
    conds = []
    for b, (_, modulus) in enumerate(blocks):
        total = sum(c * values[b * n + k] for k, c in enumerate(coeffs))
        conds.append(total % modulus == 0 if modulus else total == 0)
    assert vanish(fs, values) == all(conds)
    assert all(len(v) == len(c) and all(c) for v, c, _ in fs)


def test_sampler_total_must_fit_int64():
    """A total weight of 2**63 or more has no int64 draw; it is refused
    when the sampler is built, for explicit weights and for a scheme
    whose common denominator is that large."""
    with pytest.raises(OverflowError):
        Sampler((0, 1), (1, 1 << 63))
    p = 2 ** 64 - 59  # prime
    scheme = CouplingScheme((0, 1), (Fraction(1, p), 1 - Fraction(1, p)))
    with pytest.raises(OverflowError):
        scheme_sampler(scheme)
    assert Sampler((0, 1), (1, (1 << 63) - 1)).total == (1 << 63) - 1


def test_forms_drop_constant_true_blocks():
    doubled = _form((2, -2, 2, -2))
    index = edge_index(doubled.edges)
    assert forms(doubled, index,
                 stage_blocks(CouplingScheme.uniform(0, 1, 5), "joint")) == \
        (((4, 5, 6, 7), (2, 3, 2, 3), 5),)
    assert forms(doubled, index,
                 stage_blocks(CouplingScheme.uniform(1, 2, 2), "joint")) == \
        (((0, 1, 2, 3), (2, -2, 2, -2), 0),)
    assert forms(doubled, index,
                 stage_blocks(CouplingScheme.uniform(1, 2, 4), "lift")) == \
        (((0, 1, 2, 3), (2, 2, 2, 2), 4),)
    assert forms(doubled, index,
                 stage_blocks(CouplingScheme.uniform(0, 1, 2), "joint")) == ()
    assert vanish((), [])


_NO_EDGES = WalkCandidate((), ())


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: spreading_prob_exact(_NO_EDGES,
                                              CouplingScheme.uniform(1)),
                 "candidate has no edges", id="spreading-no-edges"),
    pytest.param(lambda: spreading_prob_c4_uniform(-1),
                 "memory must be non-negative", id="c4-uniform-memory"),
    pytest.param(lambda: lift_prob_exact(_c4(BaseCode(2, 2)), 0),
                 "lifting degree must be at least 1", id="lift-exact-z"),
    pytest.param(lambda: lift_prob_exact(_NO_EDGES, 3),
                 "candidate has no edges", id="lift-exact-no-edges"),
    pytest.param(lambda: lift_prob_bound([4], 0),
                 "lifting degree must be at least 1", id="lift-bound-z"),
    pytest.param(lambda: lift_prob_bound([], 3),
                 "need at least one cycle", id="lift-bound-no-cycles"),
    pytest.param(lambda: HarmfulStructure(()),
                 "structure needs at least one cycle", id="structure-empty"),
    pytest.param(lambda: mc_structure_prob(
                     HarmfulStructure((_c4(BaseCode(2, 2)),)),
                     CouplingScheme.uniform(1), 0, 0),
                 "need at least one trial", id="mc-trials"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

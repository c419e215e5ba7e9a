"""Top-level acceptance gate.

Each test below is one release criterion; ``pytest -v`` prints exactly one
PASSED/FAILED line per criterion.  Every expected number is either computed
by an independent brute-force oracle inside this file or is a frozen
constant that those oracles reproduce.  Timing ceilings are asserted with a
monotonic clock.
"""
from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from scldpc import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    ExperimentConfig, StructureSpec, Z99_ONE_SIDED,
                    assemble_qc, construct_two_stage, corollary1_min_z,
                    dependency_degree, enumerate_cycles, estimate_mt_shift,
                    girth, is_active_lift, is_active_partition,
                    lift_prob_bound, lift_prob_exact, formula_delta_c4,
                    spreading_prob_c4_uniform, spreading_prob_exact,
                    theorem2_resample_bound, threshold_branch_i,
                    threshold_branch_ii, verify_theorem2)
from test_graphs import tanner_has_4cycle


# ---------------------------------------------------------------------------
# criterion 1: four-cycle spreading probability, closed form vs brute force
# ---------------------------------------------------------------------------

def test_criterion_01_c4_spreading_probability_exact():
    base = BaseCode(2, 2)
    cand = enumerate_cycles(base, 4, "simple")[0]
    for m in range(0, 6):
        scheme = CouplingScheme.uniform(m)
        # independent oracle: walk all (m+1)^4 corner assignments and count
        # those whose alternating partition sum vanishes over the integers
        vals = range(m + 1)
        hits = sum(1 for a, b, c, d in itertools.product(vals, repeat=4)
                   if a - b + c - d == 0)
        oracle = Fraction(hits, (m + 1) ** 4)
        closed = spreading_prob_c4_uniform(m)
        engine = spreading_prob_exact(cand, scheme)
        assert closed == oracle, f"closed form wrong at m={m}"
        assert engine == oracle, f"engine probability wrong at m={m}"
        assert closed == Fraction(2 * m * m + 4 * m + 3, 3 * (m + 1) ** 3)
    assert spreading_prob_c4_uniform(1) == Fraction(3, 8)
    assert spreading_prob_c4_uniform(2) == Fraction(19, 81)


# ---------------------------------------------------------------------------
# criterion 2: activity predicate == 4-cycles of the assembled QC code
# ---------------------------------------------------------------------------

def test_criterion_02_candidate_activity_matches_qc_graph():
    start = time.monotonic()
    rng = np.random.default_rng(20260814)
    checked = 0
    for gamma, kappa in itertools.product((2, 3), (2, 3, 4)):
        base = BaseCode(gamma, kappa)
        cset = enumerate_cycles(base, 4, "simple")
        edges = [(i, j) for i in range(gamma) for j in range(kappa)]
        for _ in range(200):
            m = int(rng.integers(0, 3))
            z = int(rng.integers(1, 7))
            scheme = CouplingScheme.uniform(m, lifting_degree=z)
            part = Assignment.from_dict(
                "partition",
                {e: int(rng.integers(0, m + 1)) for e in edges},
                gamma, kappa)
            lift = Assignment.from_dict(
                "lift",
                {e: int(rng.integers(0, z)) for e in edges},
                gamma, kappa)
            inst = CodeInstance(base, scheme, part, lift)
            predicted = any(
                is_active_partition(c, part) and is_active_lift(c, lift, z)
                for c in cset)
            actual = tanner_has_4cycle(assemble_qc(inst))
            assert predicted == actual, (
                f"mismatch at gamma={gamma} kappa={kappa} m={m} Z={z}")
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 1200
    assert elapsed < 30.0, f"took {elapsed:.1f}s (ceiling 30s)"


# ---------------------------------------------------------------------------
# criterion 3: lifting-stage probability, exact value and upper bound
# ---------------------------------------------------------------------------

def test_criterion_03_lift_probability_exact_and_bounded():
    base = BaseCode(3, 3)
    for two_g in (4, 6):
        for cand in enumerate_cycles(base, two_g, "simple"):
            coeffs = [c for _, c in cand.coeffs if c != 0]
            support = len(coeffs)
            for z in range(1, 7):
                # oracle: enumerate every shift assignment on the support
                hits = sum(
                    1 for shifts in itertools.product(range(z),
                                                      repeat=support)
                    if sum(c * s for c, s in zip(coeffs, shifts)) % z == 0)
                oracle = Fraction(hits, z ** support)
                exact = lift_prob_exact(cand, z)
                assert exact == oracle, (cand.key, z)
                bound = lift_prob_bound([two_g], z)
                assert exact <= bound, (cand.key, z)


# ---------------------------------------------------------------------------
# criterion 4: frozen threshold constants for the 3x7, memory-1 family
# ---------------------------------------------------------------------------

def test_criterion_04_threshold_constants_3x7():
    delta = formula_delta_c4(3, 7)
    assert delta == 33
    exact_i, float_i = threshold_branch_i(delta)
    assert exact_i == Fraction(32 ** 32, 33 ** 33)
    assert float_i == pytest.approx(0.011319813984547324, abs=1e-12)
    assert float_i == pytest.approx(0.01132, rel=1e-3)
    exact_ii, _ = threshold_branch_ii(4, 12)
    assert exact_ii == Fraction(27, 2816)
    assert exact_i > exact_ii          # branch I is the better threshold
    assert corollary1_min_z(3, 7, 1) == 34
    # the certifying inequality at the boundary, in exact arithmetic
    assert Fraction(3, 8) * Fraction(1, 34) <= exact_i
    assert Fraction(3, 8) * Fraction(1, 33) > exact_i


# ---------------------------------------------------------------------------
# criterion 5: two-stage construction clears girth 6, 100 seeds
# ---------------------------------------------------------------------------

def test_criterion_05_two_stage_girth_100_seeds():
    start = time.monotonic()
    base = BaseCode(3, 4)
    scheme = CouplingScheme.uniform(1, lifting_degree=8)
    targets = enumerate_cycles(base, 4, "simple")
    for seed in range(100):
        inst, report = construct_two_stage(base, scheme, targets, seed=seed)
        assert report.lift_trace.terminated, f"seed {seed} hit the cap"
        h = assemble_qc(inst)
        assert girth(h) >= 6, f"seed {seed} produced girth {girth(h)}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s (ceiling 60s)"


# ---------------------------------------------------------------------------
# criterion 6: joint resampling cost stays under the certified bound
# ---------------------------------------------------------------------------

def test_criterion_06_joint_resample_cost_1000_trials():
    start = time.monotonic()
    cfg = ExperimentConfig(
        gamma=3, kappa=7,
        scheme=CouplingScheme.uniform(1, lifting_degree=34),
        mode="joint", trials=1000, seed=60,
        eliminate=StructureSpec(4), observe=(StructureSpec(6),))
    rep = verify_theorem2(cfg)
    assert rep.feasible and rep.branch == "I"
    assert rep.trials == 1000
    certified = Fraction(63, 31)       # k/(delta-2) at the published delta
    allowance = Z99_ONE_SIDED * rep.std / math.sqrt(rep.trials)
    assert rep.mean <= float(certified) + allowance, (
        f"mean {rep.mean:.3f} exceeds {float(certified):.3f} "
        f"+ {allowance:.3f}")
    assert rep.passed is True          # engine's own check agrees
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s (ceiling 300s)"


# ---------------------------------------------------------------------------
# criterion 7: measured six-cycle drift under four-cycle elimination
# ---------------------------------------------------------------------------

def test_criterion_07_c6_drift_capped_at_memory_18():
    start = time.monotonic()
    cfg = ExperimentConfig(
        gamma=3, kappa=3, scheme=CouplingScheme.uniform(18),
        mode="partition-only", trials=10_000, seed=70,
        eliminate=StructureSpec(4), observe=(StructureSpec(6),))
    stats = estimate_mt_shift(cfg)
    assert stats.trials_ok == 10_000 and stats.trials_failed == 0
    assert stats.condition_held, (
        f"drift precondition violated: lhs={stats.condition_lhs:.4f}")
    cap_family = (10 / 9) ** 24
    cap_universal = math.exp(8 / 3)
    cls = stats.classes[0]
    assert cls.cap_corollary4 == pytest.approx(cap_family, rel=1e-12)
    assert cls.cap_universal_c6 == pytest.approx(cap_universal, rel=1e-12)
    inflated = [o for o in stats.observables
                if o.ratio is not None and o.ratio > 1.0]
    for o in inflated:                 # reported, not gated
        print(f"note: {o.key} ratio {o.ratio:.4f} "
              f"(upper {o.ratio_upper:.4f})")
    for o in stats.observables:
        assert o.ratio_upper is not None
        assert o.ratio_upper <= cap_family, (
            f"{o.key}: upper {o.ratio_upper:.4f} > {cap_family:.4f}")
        assert o.ratio_upper <= cap_universal
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s (ceiling 600s)"


# ---------------------------------------------------------------------------
# criterion 8: resampling one window must not move a disjoint window
# ---------------------------------------------------------------------------

def test_criterion_08_disjoint_window_null_effect():
    start = time.monotonic()
    cfg = ExperimentConfig(
        gamma=6, kappa=8, scheme=CouplingScheme.uniform(29),
        mode="partition-only", trials=2000, seed=80,
        eliminate=StructureSpec(4, rows=(0, 1, 2), cols=(0, 1, 2, 3)),
        observe=(StructureSpec(4, rows=(3, 4, 5), cols=(4, 5, 6, 7)),
                 StructureSpec(6, rows=(3, 4, 5), cols=(4, 5, 6, 7))))
    stats = estimate_mt_shift(cfg)
    assert stats.trials_ok == 2000
    assert len(stats.observables) == 18 + 24
    for o in stats.observables:
        assert o.n_overlap == 0
        assert o.check_kind == "null-4sigma"
        assert o.check_passed is True, (
            f"{o.key}: p_hat={o.p_hat:.5f} vs p={float(o.p_omega):.5f}")
    assert stats.all_checks_pass
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s (ceiling 300s)"


# ---------------------------------------------------------------------------
# criterion 9: dependency-degree audit across base shapes
# ---------------------------------------------------------------------------

def test_criterion_09_dependency_degree_audit():
    for gamma, kappa, observed, published in (
            (3, 3, 8, 9), (3, 7, 32, 33), (4, 5, 34, 35)):
        cset = enumerate_cycles(BaseCode(gamma, kappa), 4, "simple")
        rep = dependency_degree(cset)
        assert rep.delta_observed == observed
        assert formula_delta_c4(gamma, kappa) == published
        assert rep.delta_observed == published - 1
        print(f"base {gamma}x{kappa}: observed degree {observed}, "
              f"published value {published}")
        # the runtime guarantee is monotone in the degree, so the engine
        # must give the looser figure under the published value
        k = len(cset)
        b_obs = theorem2_resample_bound(k, "I", observed, 12, 4)
        b_pub = theorem2_resample_bound(k, "I", published, 12, 4)
        assert b_obs == Fraction(k, observed - 2)
        assert b_pub == Fraction(k, published - 2)
        assert b_pub < b_obs


# ---------------------------------------------------------------------------
# criterion 10: CLI artifacts are byte-identical across reruns
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    from scldpc.cli import main
    start = time.monotonic()
    for label, args in (
            ("two-stage", ["construct", "--gamma", "3", "--kappa", "4",
                           "--m", "1", "--lifting", "8", "--seed", "7"]),
            ("joint", ["construct", "--gamma", "3", "--kappa", "7",
                       "--m", "1", "--lifting", "34", "--seed", "1",
                       "--construction", "joint"])):
        d1 = tmp_path / f"{label}-a"
        d2 = tmp_path / f"{label}-b"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        for name in ("instance.json", "code.alist", "trace.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (
                f"{label}/{name} differs between reruns")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s (ceiling 60s)"

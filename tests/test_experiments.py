from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scldpc import (BaseCode, CandidateSet, CouplingScheme, ExperimentConfig,
                    StructureSpec, enumerate_cycles, estimate_baseline,
                    estimate_mt_shift, spreading_prob_exact, sweep,
                    verify_theorem2, wilson_interval)
from scldpc import bounds
from scldpc.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from scldpc.experiments import (MODES, Z99_ONE_SIDED, _null_check,
                                _overlap_counts, _stage, _sum)
from scldpc.moser_tardos import compile_events
from helpers import support_mod


def _config(**overrides) -> ExperimentConfig:
    defaults = dict(
        gamma=3, kappa=3, scheme=CouplingScheme.uniform(2),
        mode="partition-only", trials=400, seed=20240814,
        eliminate=StructureSpec(4), observe=(StructureSpec(6),))
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_config_json_roundtrip():
    cfg = _config(scheme=CouplingScheme.uniform(2, lifting_degree=4),
                  mode="two-stage", cap=500)
    doc = cfg.to_json()
    back = ExperimentConfig.from_json(json.loads(json.dumps(doc)))
    assert back == cfg


def test_config_shorthand_memory():
    cfg = ExperimentConfig.from_json(
        {"gamma": 3, "kappa": 4, "m": 2, "Z": 8, "mode": "joint",
         "trials": 10, "seed": 1})
    assert cfg.scheme == CouplingScheme.uniform(2, lifting_degree=8)
    assert cfg.observe == (StructureSpec(6),)     # default observable


def test_config_validation():
    with pytest.raises(ValueError):
        _config(mode="banana")
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(cap=-1)


@pytest.mark.parametrize("two_g", [2, 5])
def test_structure_spec_rejects_bad_lengths(two_g):
    with pytest.raises(ValueError,
                       match="cycle length must be an even number >= 4"):
        StructureSpec(two_g)


def test_overlapping_observe_and_eliminate_rejected():
    cfg = _config(observe=(StructureSpec(4),))
    with pytest.raises(ValueError):
        estimate_mt_shift(cfg)


def test_empty_eliminate_rejected():
    cfg = _config(eliminate=StructureSpec(4, rows=(0,)))
    with pytest.raises(ValueError):
        estimate_baseline(cfg)


# A 2-row base has no 6-cycle; columns 7 and 8 lie outside a 3x3 base.
@pytest.mark.parametrize("overrides, message", [
    (dict(gamma=2, kappa=4), "observe spec c6 matches no candidates"),
    (dict(observe=(StructureSpec(6), StructureSpec(4, rows=(0,)))),
     "observe spec c4@r0x* matches no candidates"),
    (dict(observe=(StructureSpec(6, cols=(7, 8)),)),
     "column 7 is outside the base (0..2)"),
    (dict(observe=()), "observe lists no structure"),
], ids=["no-c6-in-two-rows", "one-row-window", "window-outside-base",
        "no-observe-spec"])
@pytest.mark.parametrize("study", [estimate_mt_shift, estimate_baseline])
def test_observe_spec_that_observes_nothing_rejected(study, overrides,
                                                     message):
    with pytest.raises(ValueError, match=re.escape(message)):
        study(_config(trials=5, **overrides))


def test_sweep_cell_that_observes_nothing_records_the_error():
    text = sweep(_config(trials=5), "gamma", [2])
    (row,) = csv.DictReader(io.StringIO(text))
    assert row["error"] == \
        "ValueError: observe spec c6 matches no candidates"


def test_theorem2_builds_only_the_eliminate_set(monkeypatch):
    built = []
    build = StructureSpec.build

    def recording_build(spec, base):
        built.append(spec)
        return build(spec, base)

    monkeypatch.setattr(StructureSpec, "build", recording_build)
    cfg = _config(gamma=2, kappa=4, trials=5,
                  observe=(StructureSpec(6), StructureSpec(4)))
    rep = verify_theorem2(cfg)
    assert built == [cfg.eliminate]
    assert rep.trials == 5


def test_structure_spec_labels_and_windows():
    spec = StructureSpec(4, rows=(2, 0, 1), cols=(0, 1, 2, 3))
    assert spec.rows == (0, 1, 2)                 # sorted on construction
    assert spec.label == "c4@r012x0123"
    assert StructureSpec(6).label == "c6"
    assert StructureSpec(8, mode="tbc").label == "c8-tbc"
    built = spec.build(BaseCode(6, 8))
    assert len(built) == 18


# ---------------------------------------------------------------------------
# Baseline sampling
# ---------------------------------------------------------------------------

def test_baseline_matches_exact_probabilities():
    cfg = _config(trials=3000)
    rep = estimate_baseline(cfg)
    assert rep.trials == 3000
    assert len(rep.rows) == 6                     # six 6-cycles on 3x3
    scheme = cfg.scheme
    for row in rep.rows:
        cand = [c for c in enumerate_cycles(BaseCode(3, 3), 6, "simple")
                if c.key == row.key][0]
        assert row.p_omega == spreading_prob_exact(cand, scheme)
    assert rep.all_within
    assert rep.max_abs_z <= 4.0


def test_baseline_is_deterministic():
    cfg = _config(trials=500)
    a = estimate_baseline(cfg)
    b = estimate_baseline(cfg)
    assert [(r.key, r.hits) for r in a.rows] == \
        [(r.key, r.hits) for r in b.rows]


def test_baseline_joint_mode_uses_joint_probability():
    cfg = _config(scheme=CouplingScheme.uniform(1, lifting_degree=3),
                  mode="joint", trials=2000)
    rep = estimate_baseline(cfg)
    for row in rep.rows:
        assert row.p_omega.denominator % 3 == 0   # lift factor 1/3
    assert rep.all_within


# ---------------------------------------------------------------------------
# Shift measurement
# ---------------------------------------------------------------------------

def test_shift_statistics_bookkeeping():
    cfg = _config(trials=300)
    stats = estimate_mt_shift(cfg)
    assert stats.trials_ok == 300 and stats.trials_failed == 0
    assert stats.eliminate_count == 9
    assert stats.delta_observed == 8
    assert stats.delta_formula == 9 and stats.delta_source == "formula"
    assert stats.p_elim_max == spreading_prob_exact(
        enumerate_cycles(BaseCode(3, 3), 4, "simple")[0], cfg.scheme)
    assert len(stats.observables) == 6
    for o in stats.observables:
        assert o.n_overlap == 9                   # every c4 touches every c6
        assert o.hits <= o.trials_ok
        assert 0.0 <= o.wilson_low <= o.p_hat <= o.wilson_high <= 1.0
    c6 = stats.classes[0]
    assert c6.cls == "c6" and c6.count == 6
    assert c6.cap_corollary4 == pytest.approx((10 / 9) ** 24, rel=1e-12)
    assert c6.cap_universal_c6 == pytest.approx(14.391916, rel=1e-6)


def test_shift_is_deterministic():
    cfg = _config(trials=200)
    a = estimate_mt_shift(cfg)
    b = estimate_mt_shift(cfg)
    assert [(o.key, o.hits) for o in a.observables] == \
        [(o.key, o.hits) for o in b.observables]
    assert a.resamples.total == b.resamples.total


@pytest.mark.parametrize("mode", MODES)
def test_shift_uses_the_observed_delta_without_a_c4_family(mode):
    # The c6 targets are no complete 4-cycle family, so there is no closed
    # form: the study runs on the certificate's observed degree and p.
    cfg = ExperimentConfig(
        gamma=3, kappa=4, scheme=CouplingScheme.uniform(6, lifting_degree=7),
        mode=mode, trials=20, seed=3, eliminate=StructureSpec(6),
        observe=(StructureSpec(4),))
    stats = estimate_mt_shift(cfg)
    certificate = compile_events(StructureSpec(6).build(cfg.base),
                                 cfg.scheme, _stage(cfg)).certificate
    assert stats.trials_ok == 20
    assert stats.delta_source == "observed" and stats.delta_formula is None
    assert stats.delta_used == stats.delta_observed == certificate.delta
    assert stats.p_elim_max == certificate.p_max


def test_shift_study_reports_a_symmetric_bound_past_the_double_range():
    # Each 4-cycle overlaps 1242 of the 1440 tbc 8-walk targets, where
    # (1 + e p)^n passes the double range; the precondition fails, so no
    # observable reports a symmetric cap.
    cfg = ExperimentConfig(
        gamma=3, kappa=6, scheme=CouplingScheme.uniform(1),
        mode="partition-only", trials=1, seed=1,
        eliminate=StructureSpec(8, mode="tbc"), observe=(StructureSpec(4),),
        cap=0)
    stats = estimate_mt_shift(cfg)
    assert stats.eliminate_count == 1440 and not stats.condition_held
    assert {o.n_overlap for o in stats.observables} == {1242}
    assert all(o.cap_symmetric is None for o in stats.observables)


def test_failed_trials_are_counted_not_dropped():
    # memory 1 on 3x4 cannot clear the partition stage; with a tiny cap
    # every trial fails and the stats must say so
    cfg = ExperimentConfig(
        gamma=3, kappa=4, scheme=CouplingScheme.uniform(1),
        mode="partition-only", trials=6, seed=5,
        eliminate=StructureSpec(4), observe=(StructureSpec(6),), cap=20)
    stats = estimate_mt_shift(cfg)
    assert stats.trials_failed == 6
    assert stats.trials_ok == 0
    for o in stats.observables:
        assert o.hits == 0 and o.p_hat == 0.0 and o.ratio is None
    assert stats.all_checks_pass is False  # nothing terminated to check


def test_means_add_left_to_right():
    # Python 3.12's sum() compensates rounding (it gives 2.0 here); the
    # reports keep one order so they are byte-identical on every version.
    assert _sum([1.0, 1e100, 1.0, -1e100]) == 0.0


def test_disjoint_windows_get_null_check():
    cfg = ExperimentConfig(
        gamma=6, kappa=8, scheme=CouplingScheme.uniform(2),
        mode="partition-only", trials=200, seed=9,
        eliminate=StructureSpec(4, rows=(0, 1, 2), cols=(0, 1, 2, 3)),
        observe=(StructureSpec(4, rows=(3, 4, 5), cols=(4, 5, 6, 7)),))
    stats = estimate_mt_shift(cfg)
    assert stats.delta_formula == 15                # complete 3x4 sub-window
    assert stats.delta_source == "formula"
    for o in stats.observables:
        assert o.n_overlap == 0
        assert o.check_kind == "null-4sigma"
        assert o.check_passed is True
    assert stats.all_checks_pass


# ---------------------------------------------------------------------------
# Null check and dependency counts
# ---------------------------------------------------------------------------

def test_null_check_with_zero_sigma_requires_exact_count():
    assert _null_check(0, 50, 1.0) is False
    assert _null_check(50, 50, 1.0) is True
    assert _null_check(0, 50, 0.0) is True
    assert _null_check(50, 50, 0.0) is False
    assert _null_check(49, 50, 1.0) is False
    assert _null_check(0, 0, 1.0) is None


def test_null_check_four_sigma():
    # p = 1/2, n = 100: sigma = 0.05, so |hits/n - 1/2| <= 0.2 passes.
    assert _null_check(70, 100, 0.5) is True
    assert _null_check(71, 100, 0.5) is False
    assert _null_check(29, 100, 0.5) is False


def test_memory_zero_baseline_rows_are_within():
    # One-value pattern: every c6 is active with p = 1 and sigma = 0.
    rep = estimate_baseline(_config(scheme=CouplingScheme.uniform(0),
                                    trials=40))
    assert all(r.p_omega == 1 and r.hits == 40 for r in rep.rows)
    assert all(r.within_4sigma for r in rep.rows)
    assert rep.all_within


def _pairwise_stage_supports(cand, config):
    """(spreading-stage support, lift-stage support) as edge sets."""
    spread = set(cand.support)
    if config.mode == "partition-only":
        return spread, set()
    return spread, set(support_mod(cand, config.scheme.lifting_degree))


def _pairwise_overlap_count(cand, elim, config):
    """Oracle: the pairwise count over both stages' supports."""
    s_int, s_mod = _pairwise_stage_supports(cand, config)
    n = 0
    for b in elim:
        b_int, b_mod = _pairwise_stage_supports(b, config)
        if (s_int & b_int) or (s_mod & b_mod):
            n += 1
    return n


def _pairwise_delta(elim, config):
    """Oracle: the O(k^2) dependency degree over both stages' supports."""
    cands = elim.candidates
    sups = [_pairwise_stage_supports(c, config) for c in cands]
    degs = []
    for a in range(len(cands)):
        d = 0
        for b in range(len(cands)):
            if a == b:
                continue
            if (sups[a][0] & sups[b][0]) or (sups[a][1] & sups[b][1]):
                d += 1
        degs.append(d)
    return max(degs, default=0)


@functools.lru_cache(maxsize=None)
def _walks(gamma, kappa, kind):
    base = BaseCode(gamma, kappa)
    if kind == "c12-tbc-zero":
        # Walks through an edge both ways, so with a zero coefficient.
        return tuple(c for c in enumerate_cycles(base, 12, "tbc")
                     if len(c.support) < len(c.edges))
    two_g, mode = {"c4": (4, "simple"), "c6": (6, "simple"),
                   "c8-tbc": (8, "tbc")}[kind]
    return enumerate_cycles(base, two_g, mode).candidates


@settings(max_examples=80, deadline=None)
@given(gamma=st.integers(2, 3), kappa=st.integers(2, 4),
       kind=st.sampled_from(("c4", "c6", "c8-tbc")), z=st.integers(1, 6),
       mode=st.sampled_from(MODES), data=st.data())
def test_dependency_counts_match_pairwise_oracle(gamma, kappa, kind, z,
                                                 mode, data):
    pool = _walks(gamma, kappa, kind)
    if not pool:
        return
    picked = pool if data.draw(st.booleans()) else data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=40,
                 unique=True))
    elim = CandidateSet(BaseCode(gamma, kappa), tuple(picked))
    config = _config(gamma=gamma, kappa=kappa, mode=mode,
                     scheme=CouplingScheme.uniform(1, lifting_degree=z))
    certificate = compile_events(elim, config.scheme,
                                 _stage(config)).certificate
    assert certificate.delta == _pairwise_delta(elim, config)
    probes = sum((_walks(gamma, kappa, k) for k in ("c4", "c6", "c8-tbc")),
                 ())
    zero = _walks(gamma, kappa, "c12-tbc-zero")
    if zero:
        probes += tuple(data.draw(st.lists(st.sampled_from(zero),
                                           max_size=30, unique=True)))
    assert _overlap_counts(elim, probes) == [
        _pairwise_overlap_count(cand, elim, config) for cand in probes]


_FAMILIES = ((4, "simple"), (6, "simple"), (8, "tbc"))


@settings(max_examples=100, deadline=None)
@given(gamma=st.integers(2, 3), kappa=st.integers(2, 5), data=st.data())
def test_overlap_counts_are_pairwise_support_intersections(gamma, kappa,
                                                           data):
    # Over masked bases, any eliminate and observe families: each count
    # is the number of eliminate walks whose support meets the probe's.
    masked = data.draw(st.booleans())
    cell = st.sampled_from((1, 1, 0)) if masked else st.just(1)
    mask = data.draw(st.lists(st.lists(cell, min_size=kappa,
                                       max_size=kappa),
                              min_size=gamma, max_size=gamma))
    base = BaseCode(gamma, kappa, mask=tuple(map(tuple, mask)))

    def family():
        walks = enumerate_cycles(base, *data.draw(st.sampled_from(
            _FAMILIES))).candidates
        kept = data.draw(st.lists(st.booleans(), min_size=len(walks),
                                  max_size=len(walks)))
        return tuple(c for c, k in zip(walks, kept) if k)

    elim = CandidateSet(base, family())
    probes = family()
    assert _overlap_counts(elim, probes) == [
        sum(1 for b in elim if set(b.support) & set(c.support))
        for c in probes]


def test_two_stage_mode_runs():
    cfg = _config(scheme=CouplingScheme.uniform(1, lifting_degree=8),
                  gamma=3, kappa=4, mode="two-stage", trials=15)
    stats = estimate_mt_shift(cfg)
    assert stats.trials_ok == 15
    assert stats.resamples.bound is None          # no single-run certificate
    assert stats.resamples.mean > 0


def test_theorem2_verification_feasible_case():
    cfg = ExperimentConfig(
        gamma=3, kappa=7, scheme=CouplingScheme.uniform(1,
                                                        lifting_degree=34),
        mode="joint", trials=150, seed=3,
        eliminate=StructureSpec(4), observe=(StructureSpec(6),))
    rep = verify_theorem2(cfg)
    assert rep.feasible and rep.branch == "I"
    assert rep.bound == Fraction(63, 30)
    assert rep.trials == 150
    assert rep.passed is True


def test_theorem2_verdict_uses_the_reported_allowance():
    cfg = ExperimentConfig(
        gamma=3, kappa=4, scheme=CouplingScheme.uniform(1,
                                                        lifting_degree=34),
        mode="joint", trials=40, seed=5,
        eliminate=StructureSpec(4), observe=(StructureSpec(6),))
    rep = verify_theorem2(cfg)
    assert rep.allowance == Z99_ONE_SIDED * rep.std / math.sqrt(rep.trials)
    assert rep.passed is (rep.mean <= float(rep.bound) + rep.allowance)


def test_failed_theorem2_check_fails_the_shift_study(fresh_compile,
                                                     monkeypatch, capsys):
    # Every observable check passes here, and so does the real Theorem 2
    # bound; a bound of 0 resamples alone must fail the study.
    cfg = ExperimentConfig(
        gamma=3, kappa=7, scheme=CouplingScheme.uniform(1,
                                                        lifting_degree=34),
        mode="joint", trials=60, seed=2,
        eliminate=StructureSpec(4), observe=(StructureSpec(6),))
    argv = ["experiment", "--gamma", "3", "--kappa", "7", "--m", "1",
            "--lifting", "34", "--mode", "joint", "--trials", "60",
            "--seed", "2", "--op", "shift"]
    stats = estimate_mt_shift(cfg)
    assert stats.resamples.bound_holds is True and stats.all_checks_pass
    assert main(argv) == EXIT_OK

    monkeypatch.setattr(bounds, "theorem2_resample_bound",
                        lambda *args: Fraction(0))
    compile_events.cache_clear()
    stats = estimate_mt_shift(cfg)
    assert stats.resamples.bound == 0 and stats.resamples.mean > 0
    assert not any(o.check_passed is False for o in stats.observables)
    assert stats.resamples.bound_holds is False
    assert stats.all_checks_pass is False
    assert main(argv) == EXIT_CHECK_FAILED
    capsys.readouterr()


def test_theorem2_not_applicable_when_infeasible():
    cfg = _config(trials=50)                      # m=2 at 3x3: infeasible
    rep = verify_theorem2(cfg)
    assert rep.feasible is False
    assert rep.bound is None and rep.passed is None


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------

def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(5, 10)
    # textbook value for 5/10 at 95%
    assert lo == pytest.approx(0.2366, abs=2e-4)
    assert hi == pytest.approx(0.7634, abs=2e-4)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_covers_truth():
    import numpy as np
    rng = np.random.default_rng(77)
    p = 0.3
    n = 400
    cover = 0
    reps = 200
    for _ in range(reps):
        hits = int(rng.binomial(n, p))
        lo, hi = wilson_interval(hits, n)
        cover += lo <= p <= hi
    assert cover / reps >= 0.90                   # nominal 95%


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_csv_shape_and_determinism():
    cfg = _config(trials=60)
    text = sweep(cfg, "m", [2, 3])
    assert text == sweep(cfg, "m", [2, 3])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["param"] == "m" and rows[0]["value"] == "2"
    assert rows[0]["memory"] == "2" and rows[1]["memory"] == "3"
    assert rows[0]["error"] == ""
    assert int(rows[0]["trials"]) == 60


def test_sweep_records_cell_errors():
    cfg = _config(trials=10)
    text = sweep(cfg, "m", [0, 2])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert "AdmissionError" in rows[0]["error"]   # m=0 is unresamplable
    assert rows[1]["error"] == ""


@pytest.mark.parametrize("param, bad, good, error", [
    ("Z", 0, 5, "ValueError: lifting degree must be at least 1"),
    ("gamma", 0, 4, "ValueError: base dimensions must be at least 1x1"),
    ("kappa", 1, 4, "ValueError: eliminate spec matches no candidates"),
])
def test_sweep_over_each_code_dimension(param, bad, good, error):
    text = sweep(_config(trials=10), param, [bad, good])
    failed, ran = csv.DictReader(io.StringIO(text))
    assert (failed["param"], failed["value"], failed["error"]) == \
        (param, str(bad), error)
    # The cell after the failed one still runs, on the swept value.
    assert (ran["param"], ran["value"], ran[param]) == \
        (param, str(good), str(good))
    assert ran["error"] == "" and ran["all_checks_pass"] in ("True", "False")
    assert int(ran["trials"]) == 10


@pytest.mark.parametrize("scheme, named", [
    (CouplingScheme((0, 5), ("1/2", "1/2"), 12), "pattern [0, 5]"),
    (CouplingScheme((0, 1, 2), ("1/2", "1/4", "1/4")),
     "probs ['1/2', '1/4', '1/4']"),
    (CouplingScheme.uniform(2, 7), "L 7"),
])
def test_sweep_over_m_keeps_no_scheme_it_would_replace(scheme, named):
    # Each cell spreads uniformly over 0..m at the default L, so a config
    # with another pattern, other weights or another L is refused whole.
    with pytest.raises(ValueError, match=re.escape(named)):
        sweep(_config(scheme=scheme, trials=5), "m", [5, 7])
    assert sweep(_config(scheme=scheme, trials=5), "Z", [])


def test_cli_sweep_over_m_of_an_explicit_pattern_exits_2(tmp_path, capsys):
    config = tmp_path / "sw.json"
    config.write_text(json.dumps(
        {"gamma": 3, "kappa": 3, "pattern": [0, 5], "probs": ["1/2", "1/2"],
         "L": 12, "trials": 5, "seed": 1, "mode": "partition-only"}))
    code = main(["experiment", "--config", str(config), "--sweep", "m",
                 "--sweep-values", "5,7"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "pattern [0, 5]" in captured.err


def test_sweep_empty_values_is_header_only():
    cfg = _config(trials=10)
    text = sweep(cfg, "Z", [])
    assert len(text.strip().splitlines()) == 1


def test_sweep_unknown_param_rejected():
    cfg = _config(trials=10)
    text = sweep(cfg, "seed", [1])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert "ValueError" in rows[0]["error"]

"""The shift study against the ``estimate_mt_shift`` it replaced.

``estimate_mt_shift`` builds each observable's row in one loop and each
class from its own slice of those rows, and reads the shift bounds' Delta
from ``bounds.shift_delta``.  ``_old_estimate_mt_shift`` below is the
function as it was before that rewrite, verbatim.  Over the three modes,
windows (null checks), tbc 8-walks, duplicated observe specs and explicit
caps (also ones that make trials fail), both must return the same
``asdict``, or raise the same error with the same message.
"""

from __future__ import annotations

from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from scldpc import CouplingScheme, ExperimentConfig, StructureSpec, bounds
from scldpc.experiments import (MODES, ClassStats, ExperimentStats,
                                ObservableStats, _build_sets, _null_check,
                                _overlap_counts, _resample_stats, _run_trials,
                                _stage, _sum, estimate_mt_shift,
                                wilson_interval)
from scldpc.moser_tardos import compile_events
from scldpc.probability import stage_prob
from helpers import shift_bound_asymmetric


def _old_estimate_mt_shift(config: ExperimentConfig) -> ExperimentStats:
    """``estimate_mt_shift`` as it was before the rewrite, verbatim."""
    elim, observed = _build_sets(config)
    flat = [c for _, oset in observed for c in oset]
    hits_all, resample_counts = _run_trials(config, elim, flat)
    n_ok = len(resample_counts)
    per_observable = iter(zip(hits_all, _overlap_counts(elim, flat)))

    stage = _stage(config)
    # Never None once a trial has run: a target certain to occur (the one
    # way to no certificate) raises AdmissionError on the first trial.
    rep = compile_events(elim, config.scheme, stage).certificate
    p_elim_max, delta_observed = rep.p_max, rep.delta
    dims = bounds.c4_block_dims(elim)
    delta_formula = None if dims is None else bounds.formula_delta_c4(*dims)
    if delta_formula is not None:
        delta_used, delta_source = delta_formula, "formula"
    else:
        delta_used, delta_source = delta_observed, "observed"
    delta_pos = max(1, delta_used)

    sym = bounds.shift_bound_symmetric(p_elim_max, delta_pos, 0)
    condition_held = sym.condition_held
    # Asymmetric route: x_B = 1/(Delta+1) certifies when p <= x(1-x)^Delta.
    x_asym = Fraction(1, delta_pos + 1)
    asym_threshold = x_asym * (1 - x_asym) ** delta_pos
    asym_certified = p_elim_max <= asym_threshold

    obs_stats: list[ObservableStats] = []
    class_stats: list[ClassStats] = []
    full_c4_elim = dims == (config.gamma, config.kappa)
    for label, oset in observed:
        ratios = []
        uppers = []
        for c in oset:
            p_omega = stage_prob(c, config.scheme, stage)
            hits, n_e = next(per_observable)
            p_hat = hits / n_ok if n_ok else 0.0
            lo, hi = wilson_interval(hits, n_ok)
            pf = float(p_omega)
            ratio = p_hat / pf if pf > 0 and n_ok else None
            r_up = hi / pf if pf > 0 and n_ok else None
            sym_c = bounds.shift_bound_symmetric(p_elim_max, delta_pos, n_e)
            cap_sym = sym_c.bound if condition_held else None
            cap_rel = sym_c.relaxed_bound if condition_held else None
            cap_asym = (float(shift_bound_asymmetric([x_asym] * n_e))
                        if asym_certified else None)
            if n_e == 0:
                # No shared variables: distribution must not move at all.
                passed, kind = _null_check(hits, n_ok, pf), "null-4sigma"
            else:
                applicable = [cap for cap in (cap_sym, cap_rel, cap_asym)
                              if cap is not None]
                if not applicable or r_up is None:
                    passed, kind = None, "none"
                else:
                    passed = all(r_up <= cap for cap in applicable)
                    kind = "wilson-upper-vs-caps"
            if ratio is not None:
                ratios.append(ratio)
            if r_up is not None:
                uppers.append(r_up)
            obs_stats.append(ObservableStats(
                key=c.key, cls=label, p_omega=p_omega, hits=hits,
                trials_ok=n_ok, p_hat=p_hat, ratio=ratio, wilson_low=lo,
                wilson_high=hi, ratio_upper=r_up, n_overlap=n_e,
                cap_symmetric=cap_sym, cap_relaxed=cap_rel,
                cap_asymmetric=cap_asym, check_passed=passed,
                check_kind=kind))
        cap4 = cap_e = None
        if (full_c4_elim and config.gamma >= 2 and config.kappa >= 2
                and all(c.is_simple for c in oset) and len(oset) > 0):
            two_k = oset[0].two_g
            if all(c.two_g == two_k for c in oset):
                c4b = bounds.corollary4_bound(config.gamma, config.kappa,
                                              two_k)
                cap4 = c4b.value
                cap_e = c4b.cap
        class_stats.append(ClassStats(
            cls=label, count=len(oset),
            mean_ratio=_sum(ratios) / len(ratios) if ratios else None,
            max_ratio=max(ratios) if ratios else None,
            max_ratio_upper=max(uppers) if uppers else None,
            cap_corollary4=cap4, cap_universal_c6=cap_e))

    res_stats = _resample_stats(config, elim, resample_counts)
    checks = [o.check_passed for o in obs_stats if o.check_passed is not None]
    all_pass = n_ok > 0 and all(checks)  # no terminated trial, no pass
    if res_stats.bound_holds is False:
        all_pass = False
    return ExperimentStats(
        config=config, trials_ok=n_ok, trials_failed=config.trials - n_ok,
        eliminate_count=len(elim), delta_observed=delta_observed,
        delta_formula=delta_formula, delta_used=delta_used,
        delta_source=delta_source, p_elim_max=p_elim_max,
        condition_lhs=sym.condition_lhs, condition_held=condition_held,
        asym_certified=asym_certified, observables=obs_stats,
        classes=class_stats, resamples=res_stats, all_checks_pass=all_pass)


def _outcome(estimate, config: ExperimentConfig):
    """``asdict`` of the stats, or the type and message of the error."""
    try:
        return asdict(estimate(config))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


# Full families, column windows (a window disjoint from the eliminated
# one gives null checks) and tbc 8-walks (not simple: no Corollary 4 cap).
_ELIMINATE = (StructureSpec(4), StructureSpec(4, cols=(0, 1)),
              StructureSpec(4, rows=(0, 1)), StructureSpec(6))
_OBSERVE = (StructureSpec(6), StructureSpec(4, cols=(2, 3)),
            StructureSpec(4, cols=(1, 2)), StructureSpec(8, "tbc"),
            StructureSpec(8, "tbc", cols=(2, 3)))
_SCHEMES = st.one_of(
    st.builds(lambda m, z: CouplingScheme.uniform(m, lifting_degree=z),
              st.integers(0, 3), st.integers(1, 7)),
    st.builds(lambda z: CouplingScheme((0, 2, 5), ("1/2", "1/4", "1/4"),
                                       lifting_degree=z),
              st.integers(1, 7)))


def _config(**kw) -> ExperimentConfig:
    doc = dict(gamma=3, kappa=4, scheme=CouplingScheme.uniform(1, None, 5),
               mode="joint", trials=8, seed=3, eliminate=StructureSpec(4),
               observe=(StructureSpec(6),), cap=None)
    doc.update(kw)
    return ExperimentConfig(**doc)


# Every trial hits its cap; a window disjoint from the eliminated one
# (null checks) beside an overlapping one, observed twice; tbc 8-walks
# observed twice.
_TRIALS_FAIL = _config(mode="partition-only", trials=4, cap=5)
_NULL_CHECKS = _config(kappa=6, mode="two-stage", trials=10,
                       eliminate=StructureSpec(4, cols=(0, 1, 2)),
                       observe=(StructureSpec(4, cols=(3, 4, 5)),
                                StructureSpec(4, cols=(2, 3)),
                                StructureSpec(4, cols=(3, 4, 5))))
_TBC_TWICE = _config(kappa=3, mode="partition-only",
                     scheme=CouplingScheme.uniform(3), trials=20,
                     observe=(StructureSpec(8, "tbc"), StructureSpec(6),
                              StructureSpec(8, "tbc")))


# Explicit caps only: a default cap on a stage no assignment clears (c4 on
# 3x4 at memory 1, partition only) would run to FALLBACK_CAP per trial.
# The examples run the default caps where every trial clears quickly.
@settings(max_examples=50, deadline=None)
@given(config=st.builds(
    _config, kappa=st.integers(4, 5),
    scheme=_SCHEMES, mode=st.sampled_from(MODES),
    trials=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
    eliminate=st.sampled_from(_ELIMINATE),
    observe=st.lists(st.sampled_from(_OBSERVE), min_size=1, max_size=3),
    cap=st.integers(0, 40)))
@example(config=_config())
@example(config=_TRIALS_FAIL)
@example(config=_NULL_CHECKS)
@example(config=_TBC_TWICE)
def test_estimate_mt_shift_equals_the_old_loops(config):
    assert _outcome(estimate_mt_shift, config) == \
        _outcome(_old_estimate_mt_shift, config)


def test_oracle_examples_reach_their_branches():
    failed = estimate_mt_shift(_TRIALS_FAIL)
    assert failed.trials_ok == 0 and not failed.all_checks_pass
    null = estimate_mt_shift(_NULL_CHECKS)
    assert {o.check_kind for o in null.observables
            if o.cls == "c4@r*x345"} == {"null-4sigma"}
    assert null.classes[0].cls == null.classes[2].cls
    tbc = estimate_mt_shift(_TBC_TWICE)
    assert [c.cap_corollary4 is None for c in tbc.classes] == \
        [True, False, True]

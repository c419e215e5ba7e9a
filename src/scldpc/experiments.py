"""Measuring how far resampled constructions drift from independent draws.

The resampler conditions the final assignment on "no target walk active",
which can only inflate the probability of *other* structures.  The theory
caps that inflation for an observable event E by

    P_MT[E] <= P_Omega[E] * prod over overlapping targets B of 1/(1 - x_B),

where the product runs over eliminate-targets sharing variables with E.
With the symmetric weights x_B = 1/(Delta + 1) this becomes
(1 + 1/Delta)^{n_E}; under the precondition e p (Delta + 1) <= 1 the
sharper (1 + e p)^{n_E} applies as well.  An observable sharing nothing
with the targets (n_E = 0) must not drift at all, which is checked as a
two-sided 4 sigma null instead of a one-sided cap.

The harness reads p and the observed Delta off the compiled stage's
certificate, the Delta of the bounds off ``bounds.shift_delta`` (Corollary
4's closed form on a complete 4-cycle family, as ``scldpc bounds`` uses,
else the observed one) and n_E off the targets' base-edge cliques
(``CandidateSet.sharing``, the union rule over ``by_support`` that also
gives the dependency graph; the same map gives Theorem 1's W); in one pass
over the trials it counts each observable as each trial terminates, with
``vanish`` on the output's values, as the baseline counts its draws.
Each observable's row is built once, and each class reads the rows of its
own observe spec.

Everything here is a pure function of (config, seed).  Randomness has one
owner, ``probability`` (``rng``, ``seed_sequence``, ``seed_int``): trial t
runs on the stream ``seed_sequence(seed, STREAM_TRIALS + t)``, i.e.
numpy's SeedSequence(seed, spawn_key=(STREAM_TRIALS + t,)) reproduced in
pure Python, so results do not depend on execution order and single
trials can be replayed.  Spawn keys below STREAM_TRIALS are reserved for
infrastructure streams (the baseline sampler uses 0; a sweep's cell c
takes its seed from stream c).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, replace
from fractions import Fraction
from typing import Optional, Sequence

from .model import BaseCode, CouplingScheme, frac_text, record
from .probability import (draw, rng, seed_int, seed_sequence, stage_forms,
                          stage_prob, vanish)
from .serialize import check_ints, code_params, read_scheme
from .walks import CandidateSet, WalkCandidate, enumerate_cycles
from . import bounds
from .moser_tardos import (compile_events, construct_two_stage, run_joint,
                           run_stage_partition, values_from_grids)

MODES = ("partition-only", "joint", "two-stage")

Z95 = 1.959963984540054
Z99_ONE_SIDED = 2.3263478740408408

STREAM_BASELINE = 0
STREAM_TRIALS = 16


@record(frozen=True)
class StructureSpec:
    """One observable/target class: cycle length, walk universe, and an
    optional row/column window restricting where the walks may live."""

    two_g: int = 4
    mode: str = "simple"
    rows: Optional[tuple[int, ...]] = None
    cols: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.two_g < 4 or self.two_g % 2:
            raise ValueError("cycle length must be an even number >= 4")
        if self.rows is not None:
            object.__setattr__(self, "rows", tuple(sorted(self.rows)))
        if self.cols is not None:
            object.__setattr__(self, "cols", tuple(sorted(self.cols)))

    @property
    def label(self) -> str:
        tag = f"c{self.two_g}"
        if self.mode != "simple":
            tag += f"-{self.mode}"
        if self.rows is not None or self.cols is not None:
            rows = "*" if self.rows is None else "".join(map(str, self.rows))
            cols = "*" if self.cols is None else "".join(map(str, self.cols))
            tag += f"@r{rows}x{cols}"
        return tag

    def build(self, base: BaseCode) -> CandidateSet:
        cset = enumerate_cycles(base, self.two_g, self.mode)
        if self.rows is not None or self.cols is not None:
            cset = cset.restrict(self.rows, self.cols)
        return cset

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict, name: str = "structure") -> "StructureSpec":
        """A non-object ``doc`` or a non-integer field is a ValueError
        naming it (``name`` is the config field holding ``doc``)."""
        if not isinstance(doc, dict):
            raise ValueError(f"{name} must be an object, got {doc!r}")
        rows = doc.get("rows")
        cols = doc.get("cols")
        check_ints("two_g", doc.get("two_g", 4), 0)
        for name, value in (("rows", rows), ("cols", cols)):
            if value is not None:
                check_ints(name, value, 1)
        return cls(doc.get("two_g", 4), doc.get("mode", "simple"),
                   None if rows is None else tuple(rows),
                   None if cols is None else tuple(cols))


@record(frozen=True)
class ExperimentConfig:
    """One study: the base, the coupling scheme, the construction mode,
    the trial count and seed, the eliminate and observe specs, and an
    optional resample cap on the partition or joint run, or the two-stage
    lift stage, as ``construct --max-resamples`` (None: its ``budget()``)."""

    gamma: int
    kappa: int
    scheme: CouplingScheme
    mode: str
    trials: int
    seed: int
    eliminate: StructureSpec
    observe: tuple[StructureSpec, ...]
    cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.cap is not None and self.cap < 0:
            raise ValueError("resample cap must be non-negative")
        object.__setattr__(self, "observe", tuple(self.observe))

    @property
    def base(self) -> BaseCode:
        return BaseCode(self.gamma, self.kappa)

    def to_json(self) -> dict:
        return {
            **code_params(self.gamma, self.kappa, self.scheme),
            "mode": self.mode, "trials": self.trials, "seed": self.seed,
            "cap": self.cap,
            "eliminate": self.eliminate.to_json(),
            "observe": [o.to_json() for o in self.observe],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """The scheme is ``serialize.read_scheme``'s.  A missing gamma or
        kappa, or a malformed field (a non-integer, probabilities other
        than "num/den" strings, a non-object structure), is a ValueError
        naming it; a null L or cap takes its default."""
        missing = [k for k in ("gamma", "kappa") if k not in doc]
        if missing:
            raise ValueError(f"missing fields: {', '.join(missing)}")
        for name in ("gamma", "kappa", "trials", "seed", "cap"):
            if name in doc:
                check_ints(name, doc[name], 0, holes=name == "cap")
        scheme = read_scheme(doc)
        observe = doc.get("observe", [{"two_g": 6}])
        if not isinstance(observe, list):
            raise ValueError(f"observe must be a list, got {observe!r}")
        return cls(
            gamma=doc["gamma"], kappa=doc["kappa"], scheme=scheme,
            mode=doc.get("mode", "two-stage"),
            trials=doc.get("trials", 1000), seed=doc.get("seed", 0),
            eliminate=StructureSpec.from_json(
                doc.get("eliminate", {"two_g": 4}), "eliminate"),
            observe=tuple(StructureSpec.from_json(o, "observe")
                          for o in observe),
            cap=doc.get("cap"),
        )


def _eliminate_set(config: ExperimentConfig) -> CandidateSet:
    elim = config.eliminate.build(config.base)
    if len(elim) == 0:
        raise ValueError("eliminate spec matches no candidates")
    return elim


def _observe_sets(config: ExperimentConfig, elim_keys=frozenset()
                  ) -> list[tuple[str, CandidateSet]]:
    """Each observe spec's set; no observe spec, an empty set or an
    observable whose key is in ``elim_keys`` is a ValueError."""
    if not config.observe:
        raise ValueError("observe lists no structure")
    base = config.base
    observed = []
    for spec in config.observe:
        oset = spec.build(base)
        if len(oset) == 0:
            raise ValueError(f"observe spec {spec.label} matches no "
                             "candidates")
        clash = [c.key for c in oset if c.key in elim_keys]
        if clash:
            raise ValueError("observe and eliminate sets overlap: "
                             + ", ".join(clash[:4]))
        observed.append((spec.label, oset))
    return observed


def _build_sets(config: ExperimentConfig
                ) -> tuple[CandidateSet, list[tuple[str, CandidateSet]]]:
    """The eliminate set and each observe spec's set, none of whose
    observables is also a target."""
    elim = _eliminate_set(config)
    return elim, _observe_sets(config, {c.key for c in elim})


def _stage(config: ExperimentConfig) -> str:
    """The stage whose draw the output follows: the partition alone, or
    spreading and lift together."""
    return "partition" if config.mode == "partition-only" else "joint"


def _overlap_counts(elim: CandidateSet,
                    cands: Sequence[WalkCandidate]) -> list[int]:
    """Per candidate, the number of eliminate-events sharing a variable
    with it: those ``elim.sharing`` its support.  The integer support
    decides in every mode: a coefficient nonzero mod Z is nonzero, so a
    mod-Z support lies inside it."""
    return [len(elim.sharing(c.support)) for c in cands]


def _null_check(hits: int, n: int, p: float) -> Optional[bool]:
    """Two-sided 4 sigma test of hits/n against p; when sigma is 0 (p is 0
    or 1) only hits == n p passes.  None without trials."""
    if n == 0:
        return None
    sigma = math.sqrt(p * (1.0 - p) / n)
    if sigma > 0:
        return abs(hits / n - p) <= 4.0 * sigma
    return hits == n * p


def _sum(values) -> float:
    """The floats added left to right.  Python 3.12's ``sum`` compensates
    its rounding, so the last bit of a mean would depend on the Python
    version; this is the order every earlier version used."""
    total = 0.0
    for v in values:
        total += v
    return total


def wilson_interval(hits: int, n: int, z: float = Z95) -> tuple[float, float]:
    if n <= 0:
        return 0.0, 1.0
    p = hits / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    low = 0.0 if hits == 0 else max(0.0, center - half)
    high = 1.0 if hits == n else min(1.0, center + half)
    return low, high


# ---------------------------------------------------------------------------
# Baseline (no resampling): exact values vs fresh product-measure draws
# ---------------------------------------------------------------------------

@record
class BaselineRow:
    """One observable under independent draws: its exact probability,
    hits, frequency, z-score and the two-sided 4 sigma verdict."""

    key: str
    cls: str
    p_omega: Fraction
    hits: int
    freq: float
    z_score: float
    within_4sigma: bool


@record
class BaselineReport:
    """``estimate_baseline``'s result: one row per observable, the largest
    |z| and whether every row passed."""

    trials: int
    rows: list[BaselineRow]
    max_abs_z: float
    all_within: bool


def estimate_baseline(config: ExperimentConfig) -> BaselineReport:
    """Sample the product measure directly and compare observed activation
    frequencies with the exact probabilities (4 sigma tolerance).  Nothing
    is eliminated, so the eliminate spec is never built."""
    observed = _observe_sets(config)
    gen = rng(seed_sequence(config.seed, STREAM_BASELINE))
    stage = _stage(config)
    flat: list[tuple[str, WalkCandidate, Fraction]] = []
    for label, oset in observed:
        for c in oset:
            flat.append((label, c, stage_prob(c, config.scheme, stage)))

    edges = config.base.edges
    blocks, cand_forms = stage_forms(edges, (c for _, c, _ in flat),
                                     config.scheme, stage)
    hits = [0] * len(flat)
    for _ in range(config.trials):
        values = draw(gen, blocks, len(edges))
        hits = [h + vanish(fs, values) for h, fs in zip(hits, cand_forms)]

    rows = []
    n = config.trials
    for k, (label, c, p) in enumerate(flat):
        pf = float(p)
        sigma = math.sqrt(pf * (1.0 - pf) / n)
        freq = hits[k] / n
        zscore = 0.0 if sigma == 0 else (freq - pf) / sigma
        ok = _null_check(hits[k], n, pf)
        rows.append(BaselineRow(c.key, label, p, hits[k], freq, zscore, ok))
    max_abs = max((abs(r.z_score) for r in rows), default=0.0)
    return BaselineReport(n, rows, max_abs, all(r.within_4sigma
                                                for r in rows))


# ---------------------------------------------------------------------------
# Resampled construction: per-observable shift statistics
# ---------------------------------------------------------------------------

@record
class ObservableStats:
    """One observable under resampling: exact and observed probability,
    their ratio with its Wilson upper end, the overlap count n_E, the caps
    that apply and the check that decided it."""

    key: str
    cls: str
    p_omega: Fraction
    hits: int
    trials_ok: int
    p_hat: float
    ratio: Optional[float]
    wilson_low: float
    wilson_high: float
    ratio_upper: Optional[float]
    n_overlap: int
    cap_symmetric: Optional[float]
    cap_relaxed: Optional[float]
    cap_asymmetric: Optional[float]
    check_passed: Optional[bool]
    check_kind: str


@record
class ClassStats:
    """One observe spec's summary of its observables' ratios, with
    Corollary 4's cap and the 6-cycle ceiling where they apply."""

    cls: str
    count: int
    mean_ratio: Optional[float]
    max_ratio: Optional[float]
    max_ratio_upper: Optional[float]
    cap_corollary4: Optional[float]
    cap_universal_c6: Optional[float]


@record
class ResampleStats:
    """Total resamples over the terminated trials (mean, std, max, sum)
    against Theorem 2's bound, where the stage has one."""

    mean: float
    std: float
    max: int
    total: int
    bound: Optional[Fraction]
    feasible: Optional[bool]
    branch: Optional[str]
    bound_holds: Optional[bool]


@record
class ExperimentStats:
    """``estimate_mt_shift``'s result: trial counts, the Deltas and p the
    caps used, the preconditions, per-observable and per-class rows, the
    resample statistics and the overall verdict."""

    config: ExperimentConfig
    trials_ok: int
    trials_failed: int
    eliminate_count: int
    delta_observed: int
    delta_formula: Optional[int]
    delta_used: int
    delta_source: str
    p_elim_max: Fraction
    condition_lhs: float
    condition_held: bool
    asym_certified: bool
    observables: list[ObservableStats]
    classes: list[ClassStats]
    resamples: ResampleStats
    all_checks_pass: bool


def _run_trials(config: ExperimentConfig, elim: CandidateSet,
                observe: Sequence[WalkCandidate] = ()
                ) -> tuple[list[int], list[int]]:
    """One construction per trial, the one ``config.mode`` names, called
    as ``construct`` calls it with ``config.cap``.  Each trial that
    terminates is counted as it finishes: the hits of each of ``observe``
    and the total resamples; the other trials hit their cap."""
    base = config.base
    scheme = config.scheme
    # Looked up per call: a runner replaced on this module is the one run.
    construct = {"partition-only": run_stage_partition, "joint": run_joint,
                 "two-stage": construct_two_stage}[config.mode]
    # Every trial reaches the first compile by identity, not by comparing.
    elim = compile_events(elim, scheme, "joint" if config.mode == "joint"
                          else "partition").cset
    _, obs_forms = stage_forms(base.edges, observe, scheme, _stage(config))
    hits = [0] * len(observe)
    resample_counts: list[int] = []
    root = seed_sequence(config.seed)
    for t in range(config.trials):
        seed_t = seed_sequence(root, STREAM_TRIALS + t)
        out, run = construct(base, scheme, elim, seed_t, config.cap)
        values = out if config.mode == "partition-only" else \
            values_from_grids(base, out.partition, out.lift)
        if run.terminated:
            resample_counts.append(run.total_resamples)
            hits = [h + vanish(fs, values) for h, fs in zip(hits, obs_forms)]
    return hits, resample_counts


def estimate_mt_shift(config: ExperimentConfig) -> ExperimentStats:
    """Run the construction many times and compare each observable's
    activation frequency with its product-measure probability."""
    elim, observed = _build_sets(config)
    flat = [c for _, oset in observed for c in oset]
    hits_all, resample_counts = _run_trials(config, elim, flat)
    n_ok = len(resample_counts)

    stage = _stage(config)
    # Never None once a trial has run: a target certain to occur (the one
    # way to no certificate) raises AdmissionError on the first trial.
    rep = compile_events(elim, config.scheme, stage).certificate
    delta_used, delta_source = bounds.shift_delta(elim, rep.delta)
    sym = bounds.shift_bound_symmetric(rep.p_max, delta_used, 0)
    # Asymmetric route: x_B = 1/(Delta+1) certifies when p <= x(1-x)^Delta,
    # and its cap prod 1/(1 - x_B) over n events is (1+1/Delta)^n.
    x_asym = Fraction(1, delta_used + 1)
    asym_certified = rep.p_max <= x_asym * (1 - x_asym) ** delta_used

    obs_stats: list[ObservableStats] = []
    labels = (label for label, oset in observed for _ in oset)
    for label, c, hits, n_e in zip(labels, flat, hits_all,
                                   _overlap_counts(elim, flat)):
        p_omega = stage_prob(c, config.scheme, stage)
        pf = float(p_omega)
        lo, hi = wilson_interval(hits, n_ok)
        rated = pf > 0 and n_ok > 0
        r_up = hi / pf if rated else None
        sym_c = bounds.shift_bound_symmetric(rep.p_max, delta_used, n_e)
        cap_sym = sym_c.bound if sym.condition_held else None
        cap_rel = sym_c.relaxed_bound if sym.condition_held else None
        cap_asym = sym_c.relaxed_bound if asym_certified else None
        # Least cap: e p (Delta+1) <= 1 gives (1+e p)^n < (1+1/Delta)^n as e p
        # < 1/Delta, and p <= 1/(e(Delta+1)) < x(1-x)^Delta (asym certified).
        cap = cap_sym if sym.condition_held else cap_asym
        if n_e == 0:
            # No shared variables: distribution must not move at all.
            passed, kind = _null_check(hits, n_ok, pf), "null-4sigma"
        elif cap is not None and rated:
            passed = r_up <= cap
            kind = "wilson-upper-vs-caps"
        else:
            passed, kind = None, "none"
        obs_stats.append(ObservableStats(
            key=c.key, cls=label, p_omega=p_omega, hits=hits,
            trials_ok=n_ok, p_hat=hits / n_ok if n_ok else 0.0,
            ratio=hits / n_ok / pf if rated else None, wilson_low=lo,
            wilson_high=hi, ratio_upper=r_up, n_overlap=n_e,
            cap_symmetric=cap_sym, cap_relaxed=cap_rel,
            cap_asymmetric=cap_asym, check_passed=passed, check_kind=kind))

    class_stats: list[ClassStats] = []
    full_c4_elim = bounds.c4_block_dims(elim) == (config.gamma, config.kappa)
    end = 0
    for label, oset in observed:
        # ratio and ratio_upper are None together (no trial, or p = 0).
        rows = [o for o in obs_stats[end:end + len(oset)]
                if o.ratio is not None]
        end += len(oset)
        c4b = (bounds.corollary4_bound(config.gamma, config.kappa,
                                       oset[0].two_g)
               if full_c4_elim and all(c.is_simple for c in oset) else None)
        class_stats.append(ClassStats(
            cls=label, count=len(oset),
            mean_ratio=(_sum(o.ratio for o in rows) / len(rows)
                        if rows else None),
            max_ratio=max((o.ratio for o in rows), default=None),
            max_ratio_upper=max((o.ratio_upper for o in rows), default=None),
            cap_corollary4=None if c4b is None else c4b.value,
            cap_universal_c6=None if c4b is None else c4b.cap))

    res_stats = _resample_stats(config, elim, resample_counts)
    return ExperimentStats(
        config=config, trials_ok=n_ok, trials_failed=config.trials - n_ok,
        eliminate_count=len(elim), delta_observed=rep.delta,
        delta_formula=delta_used if delta_source == "formula" else None,
        delta_used=delta_used, delta_source=delta_source,
        p_elim_max=rep.p_max, condition_lhs=sym.condition_lhs,
        condition_held=sym.condition_held, asym_certified=asym_certified,
        observables=obs_stats, classes=class_stats, resamples=res_stats,
        # No terminated trial, no pass; nor a failed check or cost bound.
        all_checks_pass=(n_ok > 0 and res_stats.bound_holds is not False
                         and all(o.check_passed is not False
                                 for o in obs_stats)))


def _allowance(std: float, n: int) -> float:
    """One-sided 99% sampling allowance on the mean of ``n`` counts whose
    sample standard deviation is ``std``; 0 without counts."""
    return Z99_ONE_SIDED * std / math.sqrt(n) if n else 0.0


def _resample_stats(config: ExperimentConfig, elim: CandidateSet,
                    counts: Sequence[int]) -> ResampleStats:
    n = len(counts)
    mean = sum(counts) / n if n else 0.0
    var = (_sum((c - mean) ** 2 for c in counts) / (n - 1)) if n > 1 else 0.0
    bound = feasible = branch = holds = None
    if config.mode in ("partition-only", "joint"):
        # Not None: the trials ran (see estimate_mt_shift).
        rep = compile_events(elim, config.scheme, _stage(config)).certificate
        feasible, branch = rep.feasible, rep.branch
        bound = rep.resample_bound if rep.feasible else None
        if bound is not None and n:
            holds = mean <= float(bound) + _allowance(math.sqrt(var), n)
    return ResampleStats(mean=mean, std=math.sqrt(var),
                         max=max(counts, default=0),
                         total=sum(counts), bound=bound, feasible=feasible,
                         branch=branch, bound_holds=holds)


@record
class Theorem2Report:
    """``verify_theorem2``'s result: the certified bound, the resample
    statistics over the terminated trials, the one-sided 99% allowance
    and the verdict (None without a bound or a trial)."""

    feasible: Optional[bool]
    branch: Optional[str]
    bound: Optional[Fraction]
    trials: int
    mean: float
    std: float
    max: int
    allowance: float
    passed: Optional[bool]


def verify_theorem2(config: ExperimentConfig) -> Theorem2Report:
    """Compare mean total resamples against the expected-cost bound with a
    one-sided 99% sampling allowance."""
    elim = _eliminate_set(config)
    _, counts = _run_trials(config, elim)
    stats = _resample_stats(config, elim, counts)
    n = len(counts)
    return Theorem2Report(stats.feasible, stats.branch, stats.bound, n,
                          stats.mean, stats.std, stats.max,
                          _allowance(stats.std, n), stats.bound_holds)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = [
    "param", "value", "gamma", "kappa", "memory", "L", "Z", "mode",
    "trials", "trials_failed", "eliminate_count", "delta_observed",
    "delta_used", "p_elim_max", "p_elim_max_float", "condition_held",
    "feasible", "branch", "resample_bound", "resample_mean",
    "resample_max", "bound_holds", "mean_ratio", "max_ratio",
    "max_ratio_upper", "all_checks_pass", "error",
]


def _cell_config(config: ExperimentConfig, param: str, value: int,
                 cell: int) -> ExperimentConfig:
    seed = seed_int(seed_sequence(config.seed, cell))
    if param == "m":
        scheme = CouplingScheme.uniform(
            value, lifting_degree=config.scheme.lifting_degree)
        return replace(config, scheme=scheme, seed=seed)
    if param == "Z":
        scheme = replace(config.scheme, lifting_degree=value)
        return replace(config, scheme=scheme, seed=seed)
    if param == "gamma":
        return replace(config, gamma=value, seed=seed)
    if param == "kappa":
        return replace(config, kappa=value, seed=seed)
    raise ValueError(f"cannot sweep over {param!r}")


def sweep(config: ExperimentConfig, param: str,
          values: Sequence[int]) -> str:
    """One CSV row per swept configuration; cells that fail to run carry
    the error message instead of silently vanishing.  A sweep over m
    builds each cell's scheme uniform over 0..m, so a config whose scheme
    is not of that form is a ValueError before any cell runs."""
    scheme = config.scheme
    if param == "m" and scheme != CouplingScheme.uniform(
            scheme.memory, lifting_degree=scheme.lifting_degree):
        raise ValueError(
            "a sweep over m would replace the config's scheme (pattern "
            f"{list(scheme.pattern)}, probs "
            f"{[frac_text(p) for p in scheme.probs]}, L "
            f"{scheme.coupling_length}) with one uniform over 0..m at the "
            "default L")
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS, restval="",
                            lineterminator="\n")
    writer.writeheader()
    for cell, value in enumerate(values):
        row = {"param": param, "value": value}
        try:
            cfg = _cell_config(config, param, int(value), cell)
            row.update(gamma=cfg.gamma, kappa=cfg.kappa,
                       memory=cfg.scheme.memory,
                       L=cfg.scheme.coupling_length,
                       Z=cfg.scheme.lifting_degree, mode=cfg.mode,
                       trials=cfg.trials)
            stats = estimate_mt_shift(cfg)
            # A class's three ratios are None together (no rated row).
            rated = [c for c in stats.classes if c.mean_ratio is not None]
            row.update(
                trials_failed=stats.trials_failed,
                eliminate_count=stats.eliminate_count,
                delta_observed=stats.delta_observed,
                delta_used=stats.delta_used,
                p_elim_max=frac_text(stats.p_elim_max),
                p_elim_max_float=float(stats.p_elim_max),
                condition_held=stats.condition_held,
                feasible=stats.resamples.feasible,
                branch=stats.resamples.branch,
                resample_bound=frac_text(stats.resamples.bound),
                resample_mean=stats.resamples.mean,
                resample_max=stats.resamples.max,
                bound_holds=stats.resamples.bound_holds,
                mean_ratio=_sum(c.mean_ratio for c in rated) / len(rated)
                if rated else None,
                max_ratio=max((c.max_ratio for c in rated), default=None),
                max_ratio_upper=max((c.max_ratio_upper for c in rated),
                                    default=None),
                all_checks_pass=stats.all_checks_pass,
            )
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            row["error"] = f"{type(exc).__name__}: {exc}"
        writer.writerow(row)
    return out.getvalue()

"""Command-line front end.

Subcommands:

* ``bounds``      feasibility thresholds and expected-cost bounds for a
                  coupling regime.
* ``enumerate``   walk candidates over a base (JSONL), optionally with
                  their activation probabilities (CSV).
* ``construct``   run the constrained sampler and write instance.json,
                  code.alist and trace.json.
* ``verify``      recheck a written instance: no target walk active, and
                  the lifted graph's girth clears the threshold.
* ``experiment``  baseline / distribution-shift / expected-cost studies
                  and parameter sweeps.
* ``export``      instance.json -> alist with a parse-back equality check.

Exit codes: 0 success, 1 a verification or bound check failed, 2 usage or
malformed input, 3 resampling cap exhausted.  All outputs are pure
functions of the arguments (sorted keys, no timestamps), so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, bounds as bounds_mod
from .alist import export_alist, parse_alist
from .experiments import (MODES as EXPERIMENT_MODES, ExperimentConfig,
                          estimate_baseline, estimate_mt_shift, sweep,
                          verify_theorem2)
from .graphs import girth
from .model import BaseCode, CodeInstance, CouplingScheme, assemble_qc
from .moser_tardos import construct_two_stage, run_joint
from .probability import probability_report, stage_prob
from .serialize import export_instance_json, import_instance_json
from .walks import MODES as WALK_MODES, enumerate_cycles, is_active

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP_EXHAUSTED = 3


def _frac(f: Optional[Fraction]) -> Optional[str]:
    return None if f is None else f"{f.numerator}/{f.denominator}"


def _write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out: Optional[str]) -> None:
    _write(json.dumps(doc, sort_keys=True, indent=1) + "\n", out)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _scheme_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, help="coupling memory (uniform "
                   "spreading over 0..m)")
    p.add_argument("--pattern", type=_int_list,
                   help="explicit spreading pattern, e.g. 0,1,3")
    p.add_argument("--probs", type=str,
                   help="pattern probabilities as fractions, e.g. "
                   "1/2,1/4,1/4")
    p.add_argument("--length", type=int, default=None,
                   help="coupling length L (default: memory + 1)")
    p.add_argument("--lifting", type=int, default=1, metavar="Z",
                   help="circulant size (default 1 = no lifting)")


def _scheme_from(args: argparse.Namespace) -> CouplingScheme:
    if args.pattern is not None:
        if args.m is not None:
            raise ValueError("--m and --pattern are mutually exclusive")
        if args.probs:
            probs = tuple(Fraction(t) for t in args.probs.split(","))
        else:
            n = len(args.pattern)
            probs = tuple(Fraction(1, n) for _ in range(n))
        length = args.length or (max(args.pattern) + 1)
        return CouplingScheme(args.pattern, probs, length, args.lifting)
    if args.m is None:
        raise ValueError("either --m or --pattern is required")
    return CouplingScheme.uniform(args.m, args.length, args.lifting)


def _walk_args(p: argparse.ArgumentParser, default_two_g: int = 4) -> None:
    p.add_argument("--two-g", type=int, default=default_two_g,
                   help="walk length (4 = four-cycles, 6 = six-cycles)")
    p.add_argument("--walk-mode", choices=WALK_MODES,
                   default="simple", help="candidate universe")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args: argparse.Namespace) -> int:
    base = BaseCode(args.gamma, args.kappa)
    scheme = _scheme_from(args)
    cset = enumerate_cycles(base, args.two_g, args.walk_mode)
    doc: dict = {
        "gamma": args.gamma, "kappa": args.kappa,
        "memory": scheme.memory, "L": scheme.coupling_length,
        "Z": scheme.lifting_degree,
        "walks": {"two_g": args.two_g, "mode": args.walk_mode,
                  "count": len(cset)},
    }
    probs = [stage_prob(c, scheme, "joint") for c in cset]
    certain = sum(1 for p in probs if p == 1)
    if certain:
        doc["feasibility"] = {
            "feasible": False,
            "reason": f"{certain} of {len(cset)} candidates active with "
                      "probability 1 (cannot be resampled away)",
        }
    elif len(cset) > 0:
        rep = bounds_mod.theorem1_feasibility(cset, probs,
                                              delta_source="observed")
        doc["feasibility"] = {
            "k": rep.k,
            "delta_observed": rep.delta,
            "w_max": rep.w_max,
            "p_max": _frac(rep.p_max),
            "p_max_float": float(rep.p_max),
            "threshold_i": _frac(rep.thresholds.i_exact),
            "threshold_i_float": rep.thresholds.i_float,
            "threshold_ii": _frac(rep.thresholds.ii_exact),
            "threshold_ii_float": rep.thresholds.ii_float,
            "branch": rep.branch,
            "feasible": rep.feasible,
            "avoidance_lb": rep.avoidance_lb,
            "resample_bound": _frac(rep.resample_bound),
            "resample_bound_float":
                None if rep.resample_bound is None
                else float(rep.resample_bound),
        }
        dims = bounds_mod.c4_block_dims(cset)
        if dims is not None:
            doc["feasibility"]["delta_formula"] = \
                bounds_mod.formula_delta_c4(*dims)
    else:
        doc["feasibility"] = {"feasible": True, "k": 0,
                              "reason": "no candidates to avoid"}

    if args.gamma >= 2 and args.kappa >= 2 and args.two_g == 4 \
            and args.walk_mode == "simple":
        # Corollary 1 holds only for spreading uniform over 0..memory.
        full = CouplingScheme.uniform(scheme.memory)
        if (scheme.pattern, scheme.probs) == (full.pattern, full.probs):
            c1 = bounds_mod.corollary1_check(args.gamma, args.kappa,
                                             scheme.memory,
                                             scheme.lifting_degree)
            doc["uniform_c4_regime"] = {
                "delta_formula": c1.delta,
                "lhs": _frac(c1.lhs),
                "lhs_float": float(c1.lhs),
                "branch": c1.branch,
                "unavoidable": c1.unavoidable,
                "feasible": c1.feasible,
                "min_Z_at_this_m": bounds_mod.corollary1_min_z(
                    args.gamma, args.kappa, scheme.memory),
            }
        c4b = bounds_mod.corollary4_bound(args.gamma, args.kappa, 6)
        doc["shift_caps"] = {
            "six_cycle_drift": c4b.value,
            "six_cycle_exponent": c4b.exponent,
            "universal_cap": c4b.cap,
        }
        if len(cset) > 0:
            p_max = max(probs)
            if p_max < 1:
                sym = bounds_mod.shift_bound_symmetric(
                    p_max, max(1, c4b.delta - 1), 0)
                doc["shift_caps"]["condition_lhs"] = sym.condition_lhs
                doc["shift_caps"]["condition_held"] = sym.condition_held
    _emit(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args: argparse.Namespace) -> int:
    base = BaseCode(args.gamma, args.kappa)
    cset = enumerate_cycles(base, args.two_g, args.walk_mode)
    if args.rows is not None or args.cols is not None:
        cset = cset.restrict(args.rows, args.cols)
    if args.probabilities:
        scheme = _scheme_from(args)
        text = probability_report(cset, scheme)
    else:
        text = cset.to_json_lines()
    _write(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args: argparse.Namespace) -> int:
    base = BaseCode(args.gamma, args.kappa)
    scheme = _scheme_from(args)
    targets = enumerate_cycles(base, args.two_g, args.walk_mode)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.construction == "joint":
        instance, trace = run_joint(base, scheme, targets, args.seed,
                                    args.max_resamples)
        ok = trace.terminated
        doc: dict = {"construction": "joint",
                     "trace": dataclasses.asdict(trace)}
        total = trace.total_resamples
    else:
        instance, report = construct_two_stage(
            base, scheme, targets, args.seed,
            stage1_max=args.stage1_max, stage2_max=args.stage2_max)
        ok = report.lift_trace.terminated
        doc = {
            "construction": "two-stage",
            "stage1": dataclasses.asdict(report.partition_trace),
            "stage2": dataclasses.asdict(report.lift_trace),
            "stage1_cleared": report.stage1_cleared,
            "survivors": list(report.survivor_keys),
        }
        total = (report.partition_trace.total_resamples
                 + report.lift_trace.total_resamples)

    h = assemble_qc(instance)
    g = girth(h)
    active = [c.key for c in targets
              if is_active(c, instance.partition, instance.lift,
                           scheme.lifting_degree)]
    doc.update({
        "tool_version": __version__,
        "seed": args.seed,
        "config": {
            "gamma": base.gamma, "kappa": base.kappa,
            "pattern": list(scheme.pattern),
            "probs": [str(p) for p in scheme.probs],
            "L": scheme.coupling_length, "Z": scheme.lifting_degree,
        },
        "targets": {"two_g": args.two_g, "mode": args.walk_mode,
                    "count": len(targets)},
        "girth": None if math.isinf(g) else g,
        "active_targets": active,
        "total_resamples": total,
        "terminated": ok,
    })

    (out_dir / "instance.json").write_text(export_instance_json(instance))
    (out_dir / "code.alist").write_text(export_alist(h))
    (out_dir / "trace.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n")
    print(f"wrote {out_dir / 'instance.json'}")
    print(f"wrote {out_dir / 'code.alist'}")
    print(f"wrote {out_dir / 'trace.json'}")
    print(f"girth: {'inf' if math.isinf(g) else g}")
    print(f"total-resamples: {total}")
    if not ok:
        print("construct: CAP EXHAUSTED (partial result written)")
        return EXIT_CAP_EXHAUSTED
    print("construct: OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _load_instance(path: str) -> CodeInstance:
    """The instance at ``path``; an unreadable file is a ValueError too,
    so ``main`` reports either as malformed input."""
    try:
        return import_instance_json(Path(path).read_text())
    except OSError as exc:
        raise ValueError(exc) from None


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    targets = enumerate_cycles(instance.base, args.two_g, args.walk_mode)
    z = instance.scheme.lifting_degree
    active = [c.key for c in targets
              if is_active(c, instance.partition, instance.lift, z)]
    h = assemble_qc(instance)
    g = girth(h)
    min_girth = args.min_girth if args.min_girth is not None \
        else args.two_g + 2

    ok_active = not active
    shown = " ".join(active[:8])
    print(f"activation-check: "
          + ("PASS" if ok_active else "FAIL")
          + f" ({len(active)} of {len(targets)} candidates active"
          + (f": {shown}" if active else "") + ")")
    ok_girth = g >= min_girth
    gtext = "inf" if math.isinf(g) else str(int(g))
    print(f"girth-check: " + ("PASS" if ok_girth else "FAIL")
          + f" (girth {gtext}, required >= {min_girth})")
    verdict = ok_active and ok_girth
    print("verify: " + ("PASS" if verdict else "FAIL"))
    return EXIT_OK if verdict else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _observable_doc(o) -> dict:
    return {
        "key": o.key, "class": o.cls,
        "p_omega": _frac(o.p_omega), "p_omega_float": float(o.p_omega),
        "hits": o.hits, "trials_ok": o.trials_ok, "p_hat": o.p_hat,
        "ratio": o.ratio, "wilson_low": o.wilson_low,
        "wilson_high": o.wilson_high, "ratio_upper": o.ratio_upper,
        "n_overlap": o.n_overlap, "cap_symmetric": o.cap_symmetric,
        "cap_relaxed": o.cap_relaxed, "cap_asymmetric": o.cap_asymmetric,
        "check_kind": o.check_kind, "check_passed": o.check_passed,
    }


def _shift_doc(stats) -> dict:
    return {
        "config": stats.config.to_json(),
        "trials_ok": stats.trials_ok,
        "trials_failed": stats.trials_failed,
        "eliminate_count": stats.eliminate_count,
        "delta": {"observed": stats.delta_observed,
                  "formula": stats.delta_formula,
                  "used": stats.delta_used,
                  "source": stats.delta_source},
        "p_elim_max": _frac(stats.p_elim_max),
        "p_elim_max_float": float(stats.p_elim_max),
        "condition_lhs": stats.condition_lhs,
        "condition_held": stats.condition_held,
        "asym_certified": stats.asym_certified,
        "observables": [_observable_doc(o) for o in stats.observables],
        "classes": [{
            "class": c.cls, "count": c.count, "mean_ratio": c.mean_ratio,
            "max_ratio": c.max_ratio, "max_ratio_upper": c.max_ratio_upper,
            "cap_corollary4": c.cap_corollary4,
            "cap_universal_c6": c.cap_universal_c6,
        } for c in stats.classes],
        "resamples": {
            "mean": stats.resamples.mean, "std": stats.resamples.std,
            "max": stats.resamples.max, "total": stats.resamples.total,
            "bound": _frac(stats.resamples.bound),
            "feasible": stats.resamples.feasible,
            "branch": stats.resamples.branch,
            "bound_holds": stats.resamples.bound_holds,
        },
        "all_checks_pass": stats.all_checks_pass,
    }


# (command-line flag, config key): each given flag overrides the config.
_CONFIG_FLAGS = (("gamma", "gamma"), ("kappa", "kappa"), ("m", "m"),
                 ("lifting", "Z"), ("trials", "trials"), ("seed", "seed"),
                 ("mode", "mode"), ("cap", "cap"))


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ValueError("experiment config must be a JSON object")
    else:
        doc = {}
    if args.m is not None:  # --m replaces the config's explicit scheme
        doc.pop("pattern", None)
        doc.pop("probs", None)
    for flag, key in _CONFIG_FLAGS:
        if getattr(args, flag) is not None:
            doc[key] = getattr(args, flag)
    if "gamma" not in doc or "kappa" not in doc:
        raise ValueError("gamma and kappa are required (config or flags)")
    if "pattern" not in doc and "m" not in doc:
        raise ValueError("spreading scheme is required (config or --m)")
    return ExperimentConfig.from_json(doc)


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.sweep:
        if not args.sweep_values:
            print("error: --sweep requires --sweep-values", file=sys.stderr)
            return EXIT_USAGE
        _write(sweep(config, args.sweep, args.sweep_values), args.out)
        return EXIT_OK

    if args.op == "baseline":
        rep = estimate_baseline(config)
        doc = {
            "config": config.to_json(),
            "trials": rep.trials,
            "observables": [{
                "key": r.key, "class": r.cls, "p_omega": _frac(r.p_omega),
                "p_omega_float": float(r.p_omega), "hits": r.hits,
                "freq": r.freq, "z_score": r.z_score,
                "within_4sigma": r.within_4sigma,
            } for r in rep.rows],
            "max_abs_z": rep.max_abs_z,
            "all_within": rep.all_within,
        }
        _emit(doc, args.out)
        return EXIT_OK if rep.all_within else EXIT_CHECK_FAILED

    if args.op == "theorem2":
        t2 = verify_theorem2(config)
        doc = {
            "config": config.to_json(),
            "feasible": t2.feasible, "branch": t2.branch,
            "bound": _frac(t2.bound),
            "bound_float": None if t2.bound is None else float(t2.bound),
            "trials": t2.trials, "mean": t2.mean, "std": t2.std,
            "max": t2.max, "allowance": t2.allowance, "passed": t2.passed,
        }
        _emit(doc, args.out)
        if t2.passed is False:
            return EXIT_CHECK_FAILED
        return EXIT_OK

    stats = estimate_mt_shift(config)
    _emit(_shift_doc(stats), args.out)
    return EXIT_OK if stats.all_checks_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args: argparse.Namespace) -> int:
    h = assemble_qc(_load_instance(args.instance))
    text = export_alist(h)
    Path(args.alist).write_text(text)
    back = parse_alist(text)
    if back != h:
        print("export-check: FAIL (parse-back mismatch)")
        return EXIT_CHECK_FAILED
    print(f"wrote {args.alist}")
    print(f"export-check: PASS ({h.nrows} x {h.ncols}, {h.nnz} ones)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scldpc",
        description="Spatially coupled LDPC construction with certified "
                    "cycle avoidance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="feasibility and cost bounds")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    _scheme_args(p)
    _walk_args(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("enumerate", help="list walk candidates")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    _walk_args(p)
    p.add_argument("--rows", type=_int_list, default=None,
                   help="restrict to these base rows, e.g. 0,1,2")
    p.add_argument("--cols", type=_int_list, default=None,
                   help="restrict to these base columns")
    p.add_argument("--probabilities", action="store_true",
                   help="emit an activation-probability CSV instead of "
                        "candidate JSONL (needs --m or --pattern)")
    _scheme_args(p)
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("construct", help="build one instance")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    _scheme_args(p)
    _walk_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--construction", choices=("two-stage", "joint"),
                   default="two-stage")
    p.add_argument("--max-resamples", type=int, default=None,
                   help="cap for the joint construction")
    p.add_argument("--stage1-max", type=int, default=None)
    p.add_argument("--stage2-max", type=int, default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="recheck a written instance")
    p.add_argument("instance", help="path to instance.json")
    _walk_args(p)
    p.add_argument("--min-girth", type=int, default=None,
                   help="required girth (default: walk length + 2)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="statistical studies")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--op", choices=("shift", "baseline", "theorem2"),
                   default="shift")
    p.add_argument("--gamma", type=int)
    p.add_argument("--kappa", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--lifting", type=int, metavar="Z")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=EXPERIMENT_MODES)
    p.add_argument("--cap", type=int, default=None,
                   help="per-trial resample cap override")
    p.add_argument("--sweep", choices=("m", "Z", "gamma", "kappa"))
    p.add_argument("--sweep-values", type=_int_list)
    p.add_argument("--out", help="write report here instead of stdout")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("export", help="instance.json -> alist")
    p.add_argument("instance")
    p.add_argument("alist")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

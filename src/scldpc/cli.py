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

Exit codes: 0 success, 1 a verification or bound check failed, 2 usage
error, malformed or unreadable input, or an unwritable output (``main``
maps every OSError and ValueError to 2), 3 resampling cap exhausted.  All
outputs are pure functions of the arguments (sorted keys, no timestamps),
so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
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
from .model import (BaseCode, CodeInstance, CouplingScheme,
                    SparseBinaryMatrix, assemble_qc, frac_text)
from .moser_tardos import (compile_events, construct_two_stage, run_joint,
                           values_from_grids)
from .probability import probability_report, stage_forms, vanish
from .serialize import (code_params, export_instance_json,
                        import_instance_json, read_scheme)
from .walks import MODES as WALK_MODES, CandidateSet, enumerate_cycles

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP_EXHAUSTED = 3


def _check_out(out: Optional[str], is_dir: bool = False) -> None:
    """Raise OSError before the work if ``out`` cannot be written; creates
    nothing.  A file's directory must exist; a directory is made later with
    its parents, so its nearest existing ancestor is checked."""
    if not out:
        return
    where = Path(out).absolute()
    if not is_dir and where.is_dir():
        raise IsADirectoryError(f"cannot write {out}: is a directory")
    where = where if is_dir else where.parent
    while is_dir and not where.exists():
        where = where.parent
    if not (where.is_dir() and os.access(where, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write {out}: no writable directory {where}")


def _write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out: Optional[str]) -> None:
    _write(json.dumps(doc, sort_keys=True, indent=1) + "\n", out)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


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
    p.add_argument("--lifting", type=int, default=None, metavar="Z",
                   help="circulant size (default 1 = no lifting)")


def _scheme_from(args: argparse.Namespace) -> CouplingScheme:
    """The scheme flags read as a config file's scheme keys."""
    doc = {"m": args.m, "pattern": args.pattern,
           "probs": args.probs.split(",") if args.probs else None,
           "L": args.length, "Z": args.lifting}
    return read_scheme({k: v for k, v in doc.items() if v is not None})


def _walk_args(p: argparse.ArgumentParser, default_two_g: int = 4) -> None:
    p.add_argument("--two-g", type=int, default=default_two_g,
                   help="walk length (4 = four-cycles, 6 = six-cycles)")
    p.add_argument("--walk-mode", choices=WALK_MODES,
                   default="simple", help="candidate universe")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args: argparse.Namespace) -> int:
    _check_out(args.out)
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
    system = compile_events(cset, scheme, "joint")
    rep = system.certificate
    if system.rejected:
        doc["feasibility"] = {
            "feasible": False,
            "reason": f"{len(system.rejected)} of {len(cset)} candidates "
                      "active with probability 1 (cannot be resampled away)",
        }
    elif rep is not None:
        delta, source = bounds_mod.shift_delta(cset, rep.delta)
        doc["feasibility"] = {
            "k": rep.k,
            "delta_observed": rep.delta,
            "w_max": rep.w_max,
            "p_max": frac_text(rep.p_max),
            "p_max_float": float(rep.p_max),
            "threshold_i": frac_text(rep.thresholds.i_exact),
            "threshold_i_float": rep.thresholds.i_float,
            "threshold_ii": frac_text(rep.thresholds.ii_exact),
            "threshold_ii_float": rep.thresholds.ii_float,
            "branch": rep.branch,
            "feasible": rep.feasible,
            "avoidance_lb": rep.avoidance_lb,
            "resample_bound": frac_text(rep.resample_bound),
            "resample_bound_float":
                None if rep.resample_bound is None
                else float(rep.resample_bound),
        }
        if source == "formula":
            doc["feasibility"]["delta_formula"] = delta
        sym = bounds_mod.shift_bound_symmetric(rep.p_max, delta, 0)
        doc["shift_caps"] = {"delta": delta, "delta_source": source,
                             "condition_lhs": sym.condition_lhs,
                             "condition_held": sym.condition_held}
    else:
        doc["feasibility"] = {"feasible": True, "k": 0,
                              "reason": "no candidates to avoid"}

    if bounds_mod.c4_block_dims(cset) == (args.gamma, args.kappa):
        # Corollary 1 holds only for spreading uniform over 0..memory.
        full = CouplingScheme.uniform(scheme.memory)
        if (scheme.pattern, scheme.probs) == (full.pattern, full.probs):
            c1 = bounds_mod.corollary1_check(args.gamma, args.kappa,
                                             scheme.memory,
                                             scheme.lifting_degree)
            doc["uniform_c4_regime"] = {
                "delta_formula": c1.delta,
                "lhs": frac_text(c1.lhs),
                "lhs_float": float(c1.lhs),
                "branch": c1.branch,
                "unavoidable": c1.unavoidable,
                "feasible": c1.feasible,
                "min_Z_at_this_m": bounds_mod.corollary1_min_z(
                    args.gamma, args.kappa, scheme.memory),
            }
        c4b = bounds_mod.corollary4_bound(args.gamma, args.kappa, 6)
        doc.setdefault("shift_caps", {}).update(
            six_cycle_drift=c4b.value, six_cycle_exponent=c4b.exponent,
            universal_cap=c4b.cap)
    _emit(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_out(args.out)
    scheme_flags = (args.m, args.pattern, args.probs, args.length,
                    args.lifting)
    if not args.probabilities and any(f is not None for f in scheme_flags):
        raise ValueError("--m, --pattern, --probs, --length and --lifting "
                         "need --probabilities")
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

def _audit(instance: CodeInstance, targets: CandidateSet
           ) -> tuple[SparseBinaryMatrix, float, list[str]]:
    """The instance's lifted matrix, its girth, and the keys of the
    targets active in it (all forms vanish in the joint layout)."""
    base = instance.base
    _, fs = stage_forms(base.edges, targets, instance.scheme, "joint")
    values = values_from_grids(base, instance.partition, instance.lift)
    active = [c.key for c, f in zip(targets, fs) if vanish(f, values)]
    h = assemble_qc(instance)
    return h, girth(h), active


def cmd_construct(args: argparse.Namespace) -> int:
    _check_out(args.out_dir, is_dir=True)
    base = BaseCode(args.gamma, args.kappa)
    scheme = _scheme_from(args)
    targets = enumerate_cycles(base, args.two_g, args.walk_mode)

    construct = {"joint": run_joint,
                 "two-stage": construct_two_stage}[args.construction]
    instance, run = construct(base, scheme, targets, args.seed,
                              args.max_resamples)
    if args.construction == "joint":
        doc: dict = {"construction": "joint",
                     "trace": dataclasses.asdict(run)}
    else:
        doc = {
            "construction": "two-stage",
            "stage1": dataclasses.asdict(run.partition_trace),
            "stage2": dataclasses.asdict(run.lift_trace),
        }

    h, g, active = _audit(instance, targets)
    doc.update({
        "tool_version": __version__,
        "seed": args.seed,
        "config": code_params(base.gamma, base.kappa, scheme),
        "targets": {"two_g": args.two_g, "mode": args.walk_mode,
                    "count": len(targets)},
        "girth": None if math.isinf(g) else g,
        "active_targets": active,
        "total_resamples": run.total_resamples,
        "terminated": run.terminated,
    })

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "instance.json").write_text(export_instance_json(instance))
    (out_dir / "code.alist").write_text(export_alist(h))
    _emit(doc, str(out_dir / "trace.json"))
    print(f"wrote {out_dir / 'instance.json'}")
    print(f"wrote {out_dir / 'code.alist'}")
    print(f"wrote {out_dir / 'trace.json'}")
    print(f"girth: {'inf' if math.isinf(g) else g}")
    print(f"total-resamples: {run.total_resamples}")
    if not run.terminated:
        print("construct: CAP EXHAUSTED (partial result written)")
        return EXIT_CAP_EXHAUSTED
    print("construct: OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    instance = import_instance_json(Path(args.instance).read_text())
    targets = enumerate_cycles(instance.base, args.two_g, args.walk_mode)
    _, g, active = _audit(instance, targets)
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

def _report_doc(report, config: ExperimentConfig,
                twins: Sequence[str]) -> dict:
    """An experiment report document: the report record's fields by
    ``asdict``, with ``cls`` written as "class", each exact rational as
    "num/den" text (plus a ``<name>_float`` twin for the fields named in
    ``twins``), the ``delta_*`` fields nested under "delta", and the
    resolved config."""
    def fields(pairs) -> dict:
        doc: dict = {}
        for name, value in pairs:
            if name in twins:
                doc[f"{name}_float"] = None if value is None else float(value)
            if isinstance(value, Fraction):
                value = frac_text(value)
            if name.startswith("delta_"):
                doc.setdefault("delta", {})[name[len("delta_"):]] = value
            else:
                doc["class" if name == "cls" else name] = value
        return doc
    return {**dataclasses.asdict(report, dict_factory=fields),
            "config": config.to_json()}


# (command-line flag, config key): each given flag overrides the config.
_CONFIG_FLAGS = (("gamma", "gamma"), ("kappa", "kappa"), ("m", "m"),
                 ("lifting", "Z"), ("trials", "trials"), ("seed", "seed"),
                 ("mode", "mode"), ("cap", "cap"))


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file overridden by the given flags."""
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
    return ExperimentConfig.from_json(doc)


def cmd_experiment(args: argparse.Namespace) -> int:
    _check_out(args.out)
    config = _load_config(args)
    if args.sweep:
        if args.op != "shift":
            raise ValueError(f"--sweep runs the shift study; it cannot be "
                             f"combined with --op {args.op}")
        if not args.sweep_values:
            raise ValueError("--sweep requires --sweep-values")
        _write(sweep(config, args.sweep, args.sweep_values), args.out)
        return EXIT_OK

    if args.op == "baseline":
        rep = estimate_baseline(config)
        doc = _report_doc(rep, config, ("p_omega",))
        doc["observables"] = doc.pop("rows")
        _emit(doc, args.out)
        return EXIT_OK if rep.all_within else EXIT_CHECK_FAILED

    if args.op == "theorem2":
        t2 = verify_theorem2(config)
        _emit(_report_doc(t2, config, ("bound",)), args.out)
        if t2.passed is False:
            return EXIT_CHECK_FAILED
        return EXIT_OK

    stats = estimate_mt_shift(config)
    _emit(_report_doc(stats, config, ("p_elim_max", "p_omega")), args.out)
    return EXIT_OK if stats.all_checks_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args: argparse.Namespace) -> int:
    h = assemble_qc(import_instance_json(Path(args.instance).read_text()))
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
                   help="cap on the run whose exhaustion exits 3: the "
                        "joint run, or the two-stage lift stage")
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
                   help="per-trial cap on the partition or joint run, or "
                        "the two-stage lift stage (as --max-resamples)")
    p.add_argument("--sweep", choices=("m", "Z", "gamma", "kappa"))
    p.add_argument("--sweep-values", type=_int_list)
    p.add_argument("--out", help="write report here instead of stdout")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("export", help="instance.json -> alist")
    p.add_argument("instance")
    p.add_argument("alist")
    p.set_defaults(func=cmd_export)

    return parser


# Built on the first call and reused: no action keeps state between parses.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

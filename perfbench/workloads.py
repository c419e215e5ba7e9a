"""The four benchmark workloads: set-up, one unit, and its correctness gate.

Each workload is closed-loop and single-client: the runner calls
``run_unit`` for the next seed only after the previous call returned.  A
unit returns a ``UnitResult``; ``ok`` is False when the program exhausted
its cap, failed a correctness check of the workload, or raised.

Importing this module imports ``scldpc``; ``setup_probe.py`` times that
import as part of set-up, so nothing here may be imported before the
probe's clock starts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Program functions are reached through their modules, never imported by
# name, so that the tracer's wrappers (installed on the modules) see them.
import scldpc
from scldpc import (alist, bounds, cli, experiments, graphs, model,
                    moser_tardos, probability, serialize, walks)

# 3000 trials keep the experiment's Wilson-interval checks far from their
# caps: at criterion 07's configuration the chance that one observable's
# upper bound crosses the smallest cap is about 5e-10 per unit (1.6e-6 at
# 2000 trials), so a correct program never fails the gate by chance.
SHIFT_TRIALS = 3000

PARAMS: dict[str, dict] = {
    "construct-c4": {
        "gamma": 3, "kappa": 7, "m": 1, "L": 2, "Z": 34, "targets": "c4",
        "construction": "two-stage", "min_girth": 6,
        "entry": "scldpc.cli.main(['construct', ...])",
    },
    "construct-c6-joint": {
        "gamma": 3, "kappa": 7, "m": 1, "L": 2, "Z": 17,
        "targets": "c4+c6", "construction": "joint", "min_girth": 8,
        "entry": "run_joint, assemble_qc, girth, activity recheck",
    },
    # About 18% of seeds (27 of 150 sampled) lift to girth 10, whose BFS
    # takes ~9 s instead of ~2.5 s: unit times here are bimodal.
    "lift-large": {
        "gamma": 3, "kappa": 7, "m": 2, "L": 20, "Z": 211,
        "targets": "c4+c6", "construction": "joint", "min_girth": 8,
        "entry": "run_joint, assemble_qc, girth, activity recheck, "
                 "alist round trip, instance JSON",
    },
    "experiment-shift": {
        "gamma": 3, "kappa": 3, "m": 18, "L": 19, "Z": 1,
        "mode": "partition-only", "eliminate": "c4", "observe": "c6",
        "trials": SHIFT_TRIALS,
        "entry": "estimate_mt_shift (criterion 07's configuration)",
    },
}

@dataclass
class Context:
    """What set-up hands to every unit of one workload."""

    name: str
    base: model.BaseCode
    scheme: model.CouplingScheme
    targets: object
    observe: object
    fingerprint: dict
    scratch: Optional[Path] = None


@dataclass
class UnitResult:
    ok: bool
    digest: str
    resamples: int
    detail: str = ""


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
    return h.hexdigest()


def setup(name: str) -> Context:
    """What ``scldpc bounds`` does for the workload's configuration:
    enumerate the targets, their exact activation probabilities and the
    Theorem 1 feasibility report."""
    p = PARAMS[name]
    base = model.BaseCode(p["gamma"], p["kappa"])
    scheme = model.CouplingScheme.uniform(p["m"], p["L"], p["Z"])
    c4 = walks.enumerate_cycles(base, 4)
    observe = None
    if name == "experiment-shift":
        targets = c4
        observe = walks.enumerate_cycles(base, 6)
        probs = [probability.spreading_prob_exact(c, scheme) for c in targets]
        obs_probs = [probability.spreading_prob_exact(c, scheme) for c in observe]
        probs_all = probs + obs_probs
    else:
        targets = c4 if p["targets"] == "c4" else \
            c4.union(walks.enumerate_cycles(base, 6))
        probs = [probability.joint_prob(c, scheme).joint for c in targets]
        probs_all = probs
    rep = bounds.theorem1_feasibility(targets, probs, delta_source="observed")
    fingerprint = {
        "targets": len(targets),
        "observed": 0 if observe is None else len(observe),
        "prob_sum": str(sum(probs_all)),
        "delta": rep.delta, "branch": rep.branch, "feasible": rep.feasible,
    }
    return Context(name, base, scheme, targets, observe, fingerprint)


def _active_targets(ctx: Context, instance) -> list[str]:
    z = ctx.scheme.lifting_degree
    return [c.key for c in ctx.targets
            if walks.is_active_partition(c, instance.partition)
            and walks.is_active_lift(c, instance.lift, z)]


def _unit_construct_c4(ctx: Context, seed: int) -> UnitResult:
    p = PARAMS[ctx.name]
    with tempfile.TemporaryDirectory(dir=ctx.scratch) as tmp:
        argv = ["construct", "--gamma", str(p["gamma"]),
                "--kappa", str(p["kappa"]), "--m", str(p["m"]),
                "--lifting", str(p["Z"]), "--seed", str(seed),
                "--out-dir", tmp]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        d = Path(tmp)
        instance_text = (d / "instance.json").read_text()
        alist_text = (d / "code.alist").read_text()
        doc = json.loads((d / "trace.json").read_text())
    resamples = doc["total_resamples"]
    digest = _sha(instance_text, alist_text)
    problems = []
    if rc != 0 or "construct: OK" not in out.getvalue():
        problems.append(f"exit code {rc}")
    if not doc["terminated"]:
        problems.append("cap exhausted")
    if doc["girth"] is not None and doc["girth"] < p["min_girth"]:
        problems.append(f"girth {doc['girth']} < {p['min_girth']}")
    if doc["active_targets"]:
        problems.append(f"{len(doc['active_targets'])} targets active")
    if doc["targets"]["count"] != len(ctx.targets):
        problems.append("target count differs from set-up")
    return UnitResult(not problems, digest, resamples, "; ".join(problems))


def _unit_joint(ctx: Context, seed: int, *, large: bool) -> UnitResult:
    min_girth = PARAMS[ctx.name]["min_girth"]
    instance, trace = moser_tardos.run_joint(ctx.base, ctx.scheme, ctx.targets, seed)
    h = model.assemble_qc(instance)
    g = graphs.girth(h)
    active = _active_targets(ctx, instance)
    problems = []
    if not trace.terminated:
        problems.append("cap exhausted")
    if g < min_girth:
        problems.append(f"girth {g} < {min_girth}")
    if active:
        problems.append(f"{len(active)} targets active")
    if large:
        alist_text = alist.export_alist(h)
        if alist.parse_alist(alist_text) != h:
            problems.append("alist round trip differs")
        digest = _sha(serialize.export_instance_json(instance), alist_text)
    else:
        digest = _sha(json.dumps([instance.partition.values,
                                  instance.lift.values]))
    return UnitResult(not problems, digest, trace.total_resamples,
                      "; ".join(problems))


def _stats_json(stats) -> str:
    return json.dumps(dataclasses.asdict(stats), sort_keys=True, default=str)


def _unit_shift(ctx: Context, seed: int) -> UnitResult:
    p = PARAMS[ctx.name]
    cfg = experiments.ExperimentConfig(
        gamma=p["gamma"], kappa=p["kappa"], scheme=ctx.scheme,
        mode=p["mode"], trials=p["trials"], seed=seed,
        eliminate=experiments.StructureSpec(4),
        observe=(experiments.StructureSpec(6),))
    stats = experiments.estimate_mt_shift(cfg)
    problems = []
    if not stats.all_checks_pass:
        problems.append("all_checks_pass is False")
    if stats.trials_failed or stats.trials_ok != p["trials"]:
        problems.append(f"{stats.trials_failed} trials hit their cap")
    if len(stats.observables) != len(ctx.observe):
        problems.append("observable count differs from set-up")
    return UnitResult(not problems, _sha(_stats_json(stats)),
                      stats.resamples.total, "; ".join(problems))


UNITS: dict[str, Callable[[Context, int], UnitResult]] = {
    "construct-c4": _unit_construct_c4,
    "construct-c6-joint": lambda ctx, s: _unit_joint(ctx, s, large=False),
    "lift-large": lambda ctx, s: _unit_joint(ctx, s, large=True),
    "experiment-shift": _unit_shift,
}


def run_unit(ctx: Context, seed: int) -> UnitResult:
    return UNITS[ctx.name](ctx, seed)

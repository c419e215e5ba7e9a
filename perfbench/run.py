"""scldpc benchmark: four construct/experiment workloads, one at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--units K]

Workloads (see ``workloads.py`` and ``README.md``): construct-c4,
construct-c6-joint, lift-large, experiment-shift.  Every unit is
closed-loop and single-client in this one process, with no worker threads.

``--trace 0`` measures with tracing off:

* setup_s      median over SETUP_PROBES fresh interpreters of the time from
               before ``import scldpc`` until the workload is ready (targets,
               exact probabilities, Theorem 1 feasibility);
* peak_rss_mb  peak resident memory of this process (``ru_maxrss``);

and reports, without a bound (see GATED), units_per_s (verified units per
second of unit wall time), unit_p50_s (median unit wall time) and
unit_tail_s (unit wall time at the highest percentile with at least ten
samples beyond it; the maximum when there are ten or fewer).

Units run until their wall times add up to ``--seconds``, after one
warm-up unit.

``--trace 1`` runs the same warm-up unit, then a fixed number of units
(UNITS_PER_S x --seconds, so the exact counters repeat at a given seed)
twice each, alternately traced and untraced first.  It reports the
per-layer metrics: mean self seconds per unit of each layer, exact counters
summed over the traced units, the set-up's own layer times, and the
tracing overhead.

``--units K`` fixes the unit count in both modes (a quick mode for tests).

The human-readable report goes to standard output, followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  The run record
(provenance, per-unit seeds, times and digests; spans when traced) is
written under ``perfbench/out/``.  The exit code is 1 when any correctness
check failed and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7

# Traced+untraced unit pairs per second of --seconds in trace mode, sized so
# a traced run takes about --seconds on a 2-CPU Xeon.
UNITS_PER_S = {"construct-c4": 1.0, "construct-c6-joint": 2.0,
               "lift-large": 0.1, "experiment-shift": 0.25}

WORKLOAD_NAMES = tuple(UNITS_PER_S)

# The end-to-end metrics of BENCHMARK.json, the only ones in the result line
# of --trace 0.  The unit timings are printed in the report but carry no
# bound: the 2-CPU Xeon host this was tuned on switches between a fast and a
# slow phase, about 1.6-1.9x apart, for 5 to 30 seconds at a time, so a
# 25-second run of 1-3 s units can fall wholly in either phase (see
# README.md for the measured spreads).
GATED = ("setup_s", "peak_rss_mb")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--units", type=int, default=None,
                   help="run exactly this many units instead of timing")
    return p.parse_args(argv)


def unit_seeds(workload: str, seed: int):
    """The workload's seed list, derived from the workload-seed argument."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.getrandbits(31)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workloads) -> dict:
    import numpy
    return {
        "scldpc_version": workloads.scldpc.__version__,
        "scldpc_file": workloads.scldpc.__file__,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "units": args.units,
        "params": workloads.PARAMS[args.workload],
    }


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------

def tail(walls: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with at least ten samples beyond it,
    and its label; the maximum when no percentile has ten beyond it."""
    s = sorted(walls)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of n={n} (fewer than 11 samples)"
    k = n - 11
    return s[k], f"p{100 * (k + 1) / n:.1f} of n={n} (10 samples beyond)"


def setup_probe(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_unit(workloads, ctx, seed: int, tracer=None, unit_id: str = ""):
    """One unit; (result, wall seconds).  Exceptions count as failures."""
    if tracer is not None:
        tracer.install()
        tracer.begin(unit_id)
    start = time.perf_counter()
    try:
        res = workloads.run_unit(ctx, seed)
    except Exception as exc:  # noqa: BLE001 - a raising unit is a failure
        traceback.print_exc(file=sys.stderr)
        res = workloads.UnitResult(False, "", 0, f"raised {exc!r}")
    wall = time.perf_counter() - start
    if tracer is not None:
        wall = tracer.end()  # the root span, so layer times add up to it
        tracer.uninstall()
    if not res.ok:
        print(f"FAILED unit seed={seed}: {res.detail}", file=sys.stderr)
    return res, wall


def warm_up(args, workloads, ctx) -> dict:
    """One untimed unit before the measured ones; still verified."""
    seed = next(unit_seeds(args.workload + "/warm-up", args.seed))
    res, wall = run_unit(workloads, ctx, seed)
    return unit_record(seed, res, wall, warmup=True)


def unit_record(seed: int, res, wall: float, **extra) -> dict:
    return {"seed": seed, "wall_s": wall, "ok": res.ok,
            "digest": res.digest, "resamples": res.resamples,
            "detail": res.detail, **extra}


def combined_digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r["digest"].encode())
    return h.hexdigest()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def measure(args, workloads, ctx) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics, tracing off.

    The set-up probes are spread evenly over the measured loop, so that
    their median samples the host's speed over the whole run rather than
    over the few seconds the probes would take back to back."""
    records = [warm_up(args, workloads, ctx)]
    seeds = unit_seeds(args.workload, args.seed)
    budget = args.units if args.units is not None else args.seconds
    walls: list[float] = []
    probes: list[dict] = []
    while True:
        progress = len(walls) if args.units is not None else sum(walls)
        if progress >= budget and walls:
            break
        if len(probes) * budget <= progress * SETUP_PROBES:
            probes.append(setup_probe(args.workload))
            continue
        seed = next(seeds)
        res, wall = run_unit(workloads, ctx, seed)
        walls.append(wall)
        records.append(unit_record(seed, res, wall))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args.workload))

    setup_ok = all(p["fingerprint"] == ctx.fingerprint
                   and Path(p["scldpc_file"]).is_relative_to(SRC)
                   for p in probes)
    if not setup_ok:
        print("FAILED: a set-up probe disagrees with this process's set-up",
              file=sys.stderr)
    ok = sum(r["ok"] for r in records[1:])
    tail_s, tail_label = tail(walls)
    setup_probes_s = [p["setup_s"] for p in probes]
    metrics = {
        "setup_s": metric(statistics.median(setup_probes_s), "s"),
        "units_per_s": metric(ok / sum(walls), "1/s"),
        "unit_p50_s": metric(statistics.median(walls), "s"),
        "unit_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"setup_probes_s": setup_probes_s, "setup_ok": setup_ok,
             "tail_label": tail_label}
    return metrics, records, extra


def trace(args, workloads, ctx, tracer,
          import_s: float) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics from a traced run, with an untraced twin of every
    unit for the overhead."""
    n = args.units if args.units is not None else \
        max(1, round(UNITS_PER_S[args.workload] * args.seconds))
    records = [warm_up(args, workloads, ctx)]
    seeds = unit_seeds(args.workload, args.seed)
    traced_wall = untraced_wall = 0.0
    for i in range(n):
        seed = next(seeds)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            res, wall = run_unit(workloads, ctx, seed,
                                 tracer if traced else None, f"u{i}")
            records.append(unit_record(seed, res, wall, traced=traced))
            if traced:
                traced_wall += wall
            else:
                untraced_wall += wall

    units = {f"u{i}" for i in range(n)}
    self_s = tracing.layer_self_times(tracer, units)
    setup_s = tracing.layer_self_times(tracer, {"setup"})
    counts = tracing.counter_totals(tracer, units)
    mt = tracing.mt_counters(
        tracer, units, tracer.original("probability.spreading_prob_exact"))

    def per_unit(layer: str) -> dict:
        return metric(self_s[layer] / n, "s")

    compile_s = (self_s["moser_tardos.partition"] + self_s["moser_tardos.lift"]
                 + self_s["moser_tardos.joint"])
    resamples = (mt["partition_resamples"] + mt["lift_resamples"]
                 + mt["joint_resamples"])
    metrics = {
        "walks.enumerate_s": per_unit("walks.enumerate"),
        "walks.candidates": metric(counts["walks.candidates"], "count"),
        "walks.is_active_s": per_unit("walks.is_active"),
        "walks.is_active_calls": metric(counts["walks.is_active_calls"],
                                        "count"),
        "probability.exact_s": per_unit("probability.exact"),
        "probability.exact_calls": metric(counts["probability.exact_calls"],
                                          "count"),
        "bounds.feasibility_s": per_unit("bounds.feasibility"),
        "bounds.feasibility_calls": metric(
            counts["bounds.feasibility_calls"], "count"),
        "moser_tardos.partition_s": per_unit("moser_tardos.partition"),
        "moser_tardos.lift_s": per_unit("moser_tardos.lift"),
        "moser_tardos.joint_s": per_unit("moser_tardos.joint"),
        "moser_tardos.pipeline_s": per_unit("moser_tardos.pipeline"),
        "moser_tardos.run_mt_s": per_unit("moser_tardos.run_mt"),
        "moser_tardos.compile_s": metric(compile_s / n, "s"),
        "moser_tardos.partition_resamples": metric(
            mt["partition_resamples"], "count"),
        "moser_tardos.lift_resamples": metric(mt["lift_resamples"], "count"),
        "moser_tardos.joint_resamples": metric(mt["joint_resamples"],
                                               "count"),
        "moser_tardos.wall_iterations": metric(mt["wall_iterations"],
                                               "count"),
        "moser_tardos.capped_runs": metric(mt["capped_runs"], "count"),
        "moser_tardos.event_evals": metric(mt["event_evals"], "count"),
        "moser_tardos.us_per_resample": metric(
            1e6 * self_s["moser_tardos.run_mt"] / resamples
            if resamples else 0.0, "us"),
        "moser_tardos.stage1_survivors": metric(mt["stage1_survivors"],
                                                "count"),
        "moser_tardos.stage1_expected_survivors": metric(
            mt["stage1_expected_survivors"], "count"),
        "model.assemble_qc_s": per_unit("model.assemble_qc"),
        "model.nnz": metric(counts["model.nnz"], "count"),
        "graphs.girth_s": per_unit("graphs.girth"),
        "graphs.vertices": metric(counts["graphs.vertices"], "count"),
        "alist.export_s": per_unit("alist.export"),
        "alist.parse_s": per_unit("alist.parse"),
        "alist.bytes": metric(counts["alist.bytes"], "count"),
        "serialize.export_s": per_unit("serialize.export"),
        "cli.self_s": per_unit("cli.self"),
        "experiments.trials_s": per_unit("experiments.trials"),
        "experiments.self_s": per_unit("experiments.self"),
        "experiments.trials_ok": metric(counts["experiments.trials_ok"],
                                        "count"),
        "experiments.trials_failed": metric(
            counts["experiments.trials_failed"], "count"),
        "setup.import_s": metric(import_s, "s"),
        "setup.walks.enumerate_s": metric(setup_s["walks.enumerate"], "s"),
        "setup.probability.exact_s": metric(setup_s["probability.exact"],
                                            "s"),
        "setup.bounds.feasibility_s": metric(setup_s["bounds.feasibility"],
                                             "s"),
        "tracing.units": metric(n, "count"),
        "tracing.unit_s": metric(traced_wall / n, "s"),
        "tracing.unattributed_s": per_unit("unattributed"),
        "tracing.overhead_frac": metric(traced_wall / untraced_wall - 1,
                                        "ratio"),
    }
    extra = {"missing_functions": tracer.missing,
             "event_evals": "computed from MTTrace.per_event and supports"}
    return metrics, records, extra


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "scldpc" / "__init__.py").is_file():
        print(f"error: no scldpc source tree at {SRC}", file=sys.stderr)
        return 2
    if args.units is not None and args.units < 1:
        print("error: --units must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start
    if not Path(workloads.scldpc.__file__).is_relative_to(SRC):
        print(f"error: imported scldpc from {workloads.scldpc.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin("setup")
    ctx = workloads.setup(args.workload)
    if tracer is not None:
        tracer.end()
        tracer.uninstall()

    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        ctx.scratch = Path(scratch)
        if args.trace:
            metrics, records, extra = trace(args, workloads, ctx, tracer,
                                            import_s)
        else:
            metrics, records, extra = measure(args, workloads, ctx)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and extra.get("setup_ok", True)
    digest_units = [r for r in records
                    if not r.get("warmup") and r.get("traced", True)]
    doc = {
        "provenance": provenance(args, workloads),
        "fingerprint": ctx.fingerprint,
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "digest": combined_digest(digest_units),
        "digest_units": len(digest_units),
        "metrics": metrics, "extra": extra, "units": records,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "unit", "layer", "start", "end"],
             "spans": tracer.spans}) + "\n")

    print("provenance " + json.dumps(doc["provenance"], sort_keys=True))
    for name, m in metrics.items():
        note = "" if args.trace or name in GATED else " (no bound)"
        print(f"{name} = {m['value']!r} {m['unit']}{note}")
    if "tail_label" in extra:
        print(f"unit_tail_s is {extra['tail_label']}; unit_p50_s over "
              f"n={len(records) - 1}")
    print(f"fail_frac = {doc['fail_frac']!r} ratio "
          f"({failed} of {attempted} units)")
    print(f"resamples = {sum(r['resamples'] for r in digest_units)} count "
          f"over {len(digest_units)} units")
    print(f"digest = sha256:{doc['digest']} over {len(digest_units)} units")
    print(f"record = {OUT / (stem + '.json')}")
    if not args.trace:
        metrics = {name: metrics[name] for name in GATED}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

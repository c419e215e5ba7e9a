"""Spans and exact counters recorded from outside the ``scldpc`` package.

``Tracer.install`` replaces each traced function with a wrapper in every
``scldpc`` module namespace that holds it, so a function another module
imported by name (``construct_two_stage`` in ``cli``,
``is_active_partition`` in ``experiments``) is traced too.  ``uninstall``
puts the originals back.  Nothing inside ``src/`` is edited.

A span is (id, parent id, unit id, layer, start, end); spans are kept in
memory and written out when the run ends.  A layer's self time is its
spans' durations minus the time their child spans cover.

Counters come from the traced calls' arguments and results.  The
resampler's event re-evaluations are not counted by wrapping
``Event.occurs``: they are computed afterwards from each run's
``MTTrace.per_event`` and the targets' supports (see ``mt_counters``).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable

# (module, function, layer).  Every layer is one per-layer metric
# ``<layer>_s``; a function absent from the package is skipped and listed
# in the run record, so a later refactor cannot crash the traced run.
TRACED = (
    ("walks", "enumerate_cycles", "walks.enumerate"),
    ("walks", "is_active_partition", "walks.is_active"),
    ("walks", "is_active_lift", "walks.is_active"),
    ("probability", "spreading_prob_exact", "probability.exact"),
    ("probability", "lift_prob_exact", "probability.exact"),
    ("probability", "joint_prob", "probability.exact"),
    ("bounds", "theorem1_feasibility", "bounds.feasibility"),
    ("moser_tardos", "run_mt", "moser_tardos.run_mt"),
    ("moser_tardos", "run_stage_partition", "moser_tardos.partition"),
    ("moser_tardos", "run_stage_lift", "moser_tardos.lift"),
    ("moser_tardos", "run_joint", "moser_tardos.joint"),
    ("moser_tardos", "construct_two_stage", "moser_tardos.pipeline"),
    ("moser_tardos", "default_cap", "moser_tardos.pipeline"),
    ("model", "assemble_qc", "model.assemble_qc"),
    ("graphs", "girth", "graphs.girth"),
    ("alist", "export_alist", "alist.export"),
    ("alist", "parse_alist", "alist.parse"),
    ("serialize", "export_instance_json", "serialize.export"),
    ("experiments", "estimate_mt_shift", "experiments.self"),
    ("experiments", "_run_trials", "experiments.trials"),
    ("cli", "main", "cli.self"),
    ("cli", "cmd_construct", "cli.self"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACED))

_STAGES = {"run_stage_partition": "partition", "run_stage_lift": "lift",
           "run_joint": "joint"}

COUNTERS = (
    "walks.candidates", "walks.is_active_calls", "probability.exact_calls",
    "bounds.feasibility_calls", "model.nnz", "graphs.vertices",
    "alist.bytes", "experiments.trials_ok", "experiments.trials_failed",
)


class Tracer:
    """Install/uninstall wrappers; collect spans, self times and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.mt_runs: list[tuple[str, str, tuple, dict, object]] = []
        self.missing: list[str] = []
        self.unit = "setup"
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, Callable] = {}
        self._originals: dict[str, Callable] = {}
        self._build()

    # -- wrapping ---------------------------------------------------------

    def _build(self) -> None:
        import scldpc  # noqa: F401 - loads every module listed in TRACED
        for mod_name, fn_name, layer in TRACED:
            mod = sys.modules.get(f"scldpc.{mod_name}")
            fn = getattr(mod, fn_name, None) if mod else None
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self._originals[f"{mod_name}.{fn_name}"] = fn
            self._wrappers[f"{mod_name}.{fn_name}"] = self._wrap(
                fn, fn_name, layer)

    def original(self, qualname: str) -> Callable:
        return self._originals[qualname]

    def install(self) -> None:
        by_id = {id(fn): self._wrappers[q]
                 for q, fn in self._originals.items()}
        for name, mod in list(sys.modules.items()):
            if name != "scldpc" and not name.startswith("scldpc."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = by_id.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, fn: Callable, fn_name: str, layer: str) -> Callable:
        observe = self._observer(fn, fn_name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.self_time[(self.unit, layer)] += dur - frame[1]
                self.spans.append((frame[0], parent, self.unit, layer,
                                   start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[(self.unit, name)] += n

    def _observer(self, fn: Callable, fn_name: str):
        """Per-function counter hook, run after the span has closed."""
        if fn_name == "enumerate_cycles":
            return lambda a, k, r: self._count("walks.candidates", len(r))
        if fn_name in ("is_active_partition", "is_active_lift"):
            return lambda a, k, r: self._count("walks.is_active_calls")
        if fn_name in ("spreading_prob_exact", "lift_prob_exact"):
            return lambda a, k, r: self._count("probability.exact_calls")
        if fn_name == "theorem1_feasibility":
            return lambda a, k, r: self._count("bounds.feasibility_calls")
        if fn_name == "assemble_qc":
            return lambda a, k, r: self._count(
                "model.nnz", sum(map(len, r.col_rows)))
        if fn_name == "girth":
            return lambda a, k, r: self._count(
                "graphs.vertices", a[0].nrows + a[0].ncols)
        if fn_name == "export_alist":
            return lambda a, k, r: self._count("alist.bytes", len(r))
        if fn_name == "estimate_mt_shift":
            def stats(a, k, r):
                self._count("experiments.trials_ok", r.trials_ok)
                self._count("experiments.trials_failed", r.trials_failed)
            return stats
        if fn_name in _STAGES:
            sig = inspect.signature(fn)
            stage = _STAGES[fn_name]

            def mt(a, k, r):
                # Bound later, in ``mt_counters``: binding here would add
                # to the parent's self time on every resampler call.
                self.mt_runs.append((self.unit, stage, a, k, (sig, r[1])))
            return mt
        return None

    # -- units -------------------------------------------------------------

    def begin(self, unit_id: str) -> None:
        """Open the root span of one unit; every traced call nests in it."""
        self.unit = unit_id
        self._next_id += 1
        self._stack.append([self._next_id, 0.0, time.perf_counter()])

    def end(self) -> float:
        """Close the unit's root span and return its wall time.  The part
        of it no traced call covers is the unit's unattributed time."""
        end = time.perf_counter()
        span_id, child, start = self._stack.pop()
        self.self_time[(self.unit, "unattributed")] += end - start - child
        self.spans.append((span_id, None, self.unit, "unit", start, end))
        return end - start


# ---------------------------------------------------------------------------
# Resampler counters, computed from the recorded MTTrace objects
# ---------------------------------------------------------------------------

def _scope(cand, stage: str, z: int, pattern_size: int) -> frozenset:
    """Variables of the event built for ``cand`` in ``stage``; mirrors the
    resampler's framework: a spreading variable per edge with a nonzero
    coefficient (none when the pattern has one value), a shift variable
    per edge whose coefficient is nonzero mod Z."""
    spread = () if pattern_size == 1 else \
        tuple(("P", e) for e, c in cand.coeffs if c != 0)
    shift = tuple(("L", e) for e, c in cand.coeffs if c % z != 0)
    if stage == "partition":
        return frozenset(spread)
    if stage == "lift":
        return frozenset(shift)
    return frozenset(spread + shift)


def neighbourhood_sizes(cands, stage: str, z: int,
                        pattern_size: int) -> dict[str, int]:
    """|N(e)|: events sharing a variable with e, e itself included."""
    scopes = {c.key: _scope(c, stage, z, pattern_size) for c in cands}
    by_var: dict = defaultdict(set)
    for key, scope in scopes.items():
        for v in scope:
            by_var[v].add(key)
    sizes = {}
    for key, scope in scopes.items():
        touching: set = set()
        for v in scope:
            touching |= by_var[v]
        sizes[key] = len(touching)
    return sizes


def mt_counters(tracer: Tracer, units: set[str],
                spreading_prob: Callable) -> dict[str, float]:
    """Exact resampler counters over the given units.

    ``event_evals`` = sum over runs of n_events (initial check) +
    sum_e per_event[e] * |N(e)| (each resample rechecks e's neighbourhood)
    + n_events (final check of a run that terminated).
    """
    out = {"partition_resamples": 0, "lift_resamples": 0,
           "joint_resamples": 0, "wall_iterations": 0, "capped_runs": 0,
           "event_evals": 0, "stage1_survivors": 0}
    expected = Fraction(0)
    cache: dict = {}
    for unit, stage, args, kwargs, (sig, trace) in tracer.mt_runs:
        if unit not in units:
            continue
        bound = sig.bind(*args, **kwargs).arguments
        scheme = bound["scheme"]
        cands = list(bound["targets"])
        z = scheme.lifting_degree
        by_key = {c.key: c for c in cands}
        events = tuple(sorted(trace.per_event))
        key = (stage, events, z, len(scheme.pattern))
        if key not in cache:
            cache[key] = neighbourhood_sizes(
                [by_key[k] for k in events], stage, z, len(scheme.pattern))
        sizes = cache[key]
        n_ev = len(events)
        out[f"{stage}_resamples"] += trace.total_resamples
        out["wall_iterations"] += trace.wall_iterations
        out["capped_runs"] += 0 if trace.terminated else 1
        out["event_evals"] += n_ev + (n_ev if trace.terminated else 0) + sum(
            n * sizes[k] for k, n in trace.per_event.items())
        if stage == "lift":
            # Stage 1 of a two-stage pipeline ended before this call: its
            # survivors are this stage's events, to compare with the
            # product-measure expectation of a plain draw.
            out["stage1_survivors"] += n_ev
            pkey = ("expected", tuple(c.key for c in cands), scheme)
            if pkey not in cache:
                cache[pkey] = sum((spreading_prob(c, scheme) for c in cands),
                                  Fraction(0))
            expected += cache[pkey]
    out["stage1_expected_survivors"] = float(expected)
    return out


def layer_self_times(tracer: Tracer, units: set[str]) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
    for (unit, layer), t in tracer.self_time.items():
        if unit in units:
            totals[layer] += t
    return totals


def counter_totals(tracer: Tracer, units: set[str]) -> dict[str, int]:
    totals = {name: 0 for name in COUNTERS}
    for (unit, name), n in tracer.counts.items():
        if unit in units:
            totals[name] += n
    return totals

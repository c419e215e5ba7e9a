"""Checks of the benchmark itself, in quick mode (``--units``).

Run with ``python -m pytest perfbench``.  The exact counters and the output
digest must repeat between two runs of the same code at the same seed, and
the per-layer self times must add up to the traced unit wall time.  Wall
times are printed by the benchmark but never compared with a threshold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def _traced(workload):
    rc, lines = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "1", "--units", "1")
    assert rc == 0, lines[-3:]
    digest = next(x for x in lines if x.startswith("digest = "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_and_digest_repeat(workload):
    (first, digest1), (second, digest2) = _traced(workload), \
        _traced(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert [m["name"] for m in SPEC["per_layer"]] == \
            list(result["metrics"])
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert digest1 == digest2

    # Every traced layer's self time plus the unattributed time is the
    # traced unit's wall time (compile_s is a sum of stage self times).
    m = {k: v["value"] for k, v in first["metrics"].items()}
    layers = sum(v for k, v in m.items()
                 if k.endswith("_s") and not k.startswith(("setup.",
                                                           "tracing."))
                 and k != "moser_tardos.compile_s")
    assert layers + m["tracing.unattributed_s"] == \
        pytest.approx(m["tracing.unit_s"], rel=1e-9)


def test_end_to_end_metrics_reported():
    rc, lines = _run("--workload", "construct-c6-joint", "--seed", "7",
                     "--seconds", "1", "--trace", "0", "--units", "2")
    assert rc == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, lines = _run("--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert rc != 0
    assert not any(x.startswith("{") for x in lines)

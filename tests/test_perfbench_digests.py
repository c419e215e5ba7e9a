"""The benchmark's output digests, pinned.

For each workload this computes, in process and with the benchmark's own
functions, the combined digest that ``perfbench/run.py --workload <name>
--seed 1 --units 3`` prints: set-up, then the first three unit seeds, each
unit checked correct.  A change that moves a digest changes what that
workload builds, so it must move on purpose and be re-pinned here.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

PINNED = {
    "construct-c4":
        "eedb580c97f465e7e0c33cd6a5b1241ded478d524a41c245b17b15139f162295",
    "construct-c6-joint":
        "16f362fb26bc6e2320e9d1f890097474382cb39b2c64efad4582a4fd9eb25786",
    "experiment-shift":
        "f50669558489ccc08b1bc302e8ffc74a0a1b50b16f98d07db9188f2abd9e5cc0",
    "lift-large":
        "25a466b4071cbee04bb610d1d288712da672f266bdc13e93464ab1d2191bc6d1",
}


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``run`` and ``workloads`` modules, imported as the
    runner imports them (its directory first on ``sys.path``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import workloads
    return run, workloads


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_digest_is_pinned(name, bench, tmp_path):
    run, workloads = bench
    ctx = workloads.setup(name)
    ctx.scratch = tmp_path
    results = [workloads.run_unit(ctx, seed)
               for seed in itertools.islice(run.unit_seeds(name, 1), 3)]
    assert [r.detail for r in results if not r.ok] == []
    digest = run.combined_digest([{"digest": r.digest} for r in results])
    assert digest == PINNED[name]

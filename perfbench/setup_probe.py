"""Time one workload set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src-dir> <workload>

Prints one JSON object: the seconds from before ``import scldpc`` until the
workload is ready for its first unit, and the set-up's fingerprint, which
``run.py`` compares with its own set-up.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import workloads  # noqa: E402 - imports scldpc; timed as part of set-up

ctx = workloads.setup(sys.argv[2])
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "fingerprint": ctx.fingerprint,
                  "scldpc_file": workloads.scldpc.__file__}))

"""numpy is loaded only by code that draws or seeds.

``scldpc.probability`` owns numpy and the random stream; the exact
probabilities, the bounds and the four commands that never draw (``bounds``,
``enumerate``, ``verify``, ``export``) must run without importing it.  Each
check runs in a fresh interpreter, so nothing the test process already
imported can hide a load.
"""

from __future__ import annotations

import json
import subprocess
import sys

_SCRIPT = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path

loaded = {}
def check(step):
    loaded[step] = "numpy" in sys.modules

import scldpc
check("import scldpc")

from scldpc import cli
from scldpc.model import Assignment, BaseCode, CodeInstance, CouplingScheme
from scldpc.serialize import export_instance_json

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

codes = {}
codes["bounds"] = run("bounds", "--gamma", "3", "--kappa", "4", "--m", "1",
                      "--lifting", "8")
check("cli bounds")
codes["enumerate"] = run("enumerate", "--gamma", "3", "--kappa", "3",
                         "--probabilities", "--m", "1", "--lifting", "4")
check("cli enumerate")

base = BaseCode(2, 2)
scheme = CouplingScheme.uniform(1, 2, 3)
inst = CodeInstance(base, scheme,
                    Assignment("partition", ((0, 0), (0, 1))),
                    Assignment("lift", ((0, 1), (2, 0))), seed=1)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "instance.json"
    path.write_text(export_instance_json(inst))
    codes["verify"] = run("verify", str(path))
    check("cli verify")
    codes["export"] = run("export", str(path), str(Path(tmp) / "H.alist"))
    check("cli export")

from scldpc import bounds, probability, walks, moser_tardos
cands = walks.enumerate_cycles(BaseCode(3, 7), 4)
scheme = CouplingScheme.uniform(1, lifting_degree=34)
probability.spreading_prob_exact(cands[0], scheme)
probs = [probability.joint_prob(c, scheme).joint for c in cands]
check("exact probabilities")
bounds.theorem1_feasibility(cands, probs)
check("theorem1_feasibility")

moser_tardos.run_joint(cands.base, scheme, cands, 1)
check("run_joint")
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_numpy_loads_only_at_the_first_draw():
    out = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True,
                         text=True, check=True).stdout
    doc = json.loads(out)
    assert doc["codes"] == {"bounds": 0, "enumerate": 0, "verify": 0,
                            "export": 0}
    assert doc["loaded"] == {
        "import scldpc": False, "cli bounds": False, "cli enumerate": False,
        "cli verify": False, "cli export": False,
        "exact probabilities": False, "theorem1_feasibility": False,
        "run_joint": True,
    }

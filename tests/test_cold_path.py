"""The package never imports numpy.

``scldpc.probability`` owns the random stream and draws it in pure Python,
so no step loads numpy: not the exact probabilities, the bounds or the
four commands that never draw (``bounds``, ``enumerate``, ``verify``,
``export``), and not the runners, the experiment harness or the commands
that draw (``construct``, ``experiment``).  Each check runs in a fresh
interpreter, so nothing the test process already imported can hide a load.
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
moser_tardos.construct_two_stage(cands.base, scheme, cands, 1)
check("construct_two_stage")

from scldpc import experiments
experiments.estimate_mt_shift(experiments.ExperimentConfig(
    gamma=3, kappa=4, scheme=CouplingScheme.uniform(1, lifting_degree=8),
    mode="two-stage", trials=3, seed=2,
    eliminate=experiments.StructureSpec(4),
    observe=(experiments.StructureSpec(6),)))
check("estimate_mt_shift")

with tempfile.TemporaryDirectory() as tmp:
    codes["construct"] = run("construct", "--gamma", "3", "--kappa", "4",
                             "--m", "1", "--lifting", "8", "--seed", "7",
                             "--out-dir", str(Path(tmp) / "run"))
    check("cli construct")
    codes["experiment"] = run("experiment", "--gamma", "3", "--kappa", "4",
                              "--mode", "two-stage", "--m", "0",
                              "--lifting", "13", "--trials", "3",
                              "--seed", "1",
                              "--out", str(Path(tmp) / "report.json"))
    check("cli experiment")
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_numpy_is_never_loaded():
    out = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True,
                         text=True, check=True).stdout
    doc = json.loads(out)
    assert doc["codes"] == {"bounds": 0, "enumerate": 0, "verify": 0,
                            "export": 0, "construct": 0, "experiment": 0}
    assert list(doc["loaded"]) == [
        "import scldpc", "cli bounds", "cli enumerate", "cli verify",
        "cli export", "exact probabilities", "theorem1_feasibility",
        "run_joint", "construct_two_stage", "estimate_mt_shift",
        "cli construct", "cli experiment",
    ]
    assert not any(doc["loaded"].values()), doc["loaded"]

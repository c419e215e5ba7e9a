"""The package never imports numpy, and importing it compiles no code
built from strings.

``scldpc.probability`` owns the random stream and draws it in pure Python,
so no step loads numpy: not the exact probabilities, the bounds or the
four commands that never draw (``bounds``, ``enumerate``, ``verify``,
``export``), and not the runners, the experiment harness or the commands
that draw (``construct``, ``experiment``).  Each check runs in a fresh
interpreter, so nothing the test process already imported can hide a load.

The same interpreter first imports every module the package's source
names outside the package, then counts, with an audit hook, the
``compile`` events of ``import scldpc`` and ``scldpc.cli`` whose source
is not a file: code generated at import (as ``dataclasses.dataclass``
generates its methods) would be compiled at every process start.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

_SCRIPT = r"""
import ast, contextlib, importlib, importlib.util, io, json, os, sys, tempfile
from pathlib import Path

# Preload what the package imports from outside itself, so the hook below
# sees only the package's own import.
spec = importlib.util.find_spec("scldpc")
package = Path(spec.submodule_search_locations[0])
outside = set()
for path in package.glob("*.py"):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            outside.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            outside.add(node.module)
for name in sorted(outside):
    if name.split(".")[0] != "scldpc":
        importlib.import_module(name)

generated = []
def audit(event, args):
    if event == "compile" and not (isinstance(args[1], str)
                                   and os.path.isfile(args[1])):
        generated.append(repr(args[1]))
sys.addaudithook(audit)

loaded = {}
def check(step):
    loaded[step] = "numpy" in sys.modules

import scldpc
check("import scldpc")

from scldpc import cli
import_generated = list(generated)
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
print(json.dumps({"loaded": loaded, "codes": codes,
                  "import_generated": import_generated}))
"""


@pytest.fixture(scope="module")
def doc():
    """The script's report, from one fresh interpreter for both tests."""
    out = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_numpy_is_never_loaded(doc):
    assert doc["codes"] == {"bounds": 0, "enumerate": 0, "verify": 0,
                            "export": 0, "construct": 0, "experiment": 0}
    assert list(doc["loaded"]) == [
        "import scldpc", "cli bounds", "cli enumerate", "cli verify",
        "cli export", "exact probabilities", "theorem1_feasibility",
        "run_joint", "construct_two_stage", "estimate_mt_shift",
        "cli construct", "cli experiment",
    ]
    assert not any(doc["loaded"].values()), doc["loaded"]


def test_import_compiles_no_generated_code(doc):
    assert doc["import_generated"] == []

"""The repository's pytest settings keep test failures readable.

``filterwarnings = ["error"]`` turns every warning into an error.  While
reporting a failure, the ``hypothesis`` plugin imports
``mypy_extensions.TypedDict``, whose DeprecationWarning would then crash
the run with INTERNALERROR and lose the falsifying example; the settings
ignore exactly that warning.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
'''


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    shutil.copy(_PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_fails.py").write_text(_FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out

"""Shared test set-up.

``pythonpath = ["src"]`` in pyproject.toml puts the package on the test
process's ``sys.path``; tests that start ``python -m scldpc`` need it on
``PYTHONPATH`` as well when the package is not installed.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from scldpc.moser_tardos import compile_events

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def fresh_compile():
    """An empty compile memo before and after: a cached system keeps the
    certificate it computed, also under a monkeypatched bound."""
    compile_events.cache_clear()
    yield
    compile_events.cache_clear()

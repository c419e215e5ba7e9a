"""The README's Library example runs and gives the values its comments state."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_library_example_states_its_values():
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    assert len(namespace["cands"]) == 63
    assert namespace["p"] == Fraction(3, 8)
    assert namespace["q"] == Fraction(1, 34)
    report = namespace["report"]
    assert report.feasible is True
    assert report.branch == "I"
    assert report.resample_bound == Fraction(63, 31)
    assert namespace["girth"](namespace["H"]) >= 6

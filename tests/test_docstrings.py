"""Every record class in ``scldpc`` carries a written docstring.

The records (``scldpc.model.record``) are dataclasses to ``dataclasses``
(``is_dataclass`` finds them).  A class built by ``dataclass`` without a
docstring gets ``Name(field: type, ...)`` as one, which ``help()`` shows
in place of a description; the last test keeps that text out too.
"""

from __future__ import annotations

import pytest

from helpers import record_classes

_DATACLASSES = record_classes()


def test_the_package_defines_dataclasses():
    assert len(_DATACLASSES) >= 20


@pytest.mark.parametrize("cls", _DATACLASSES, ids=lambda c: c.__qualname__)
def test_dataclass_has_its_own_docstring(cls):
    doc = cls.__dict__.get("__doc__") or ""
    assert doc.strip(), f"{cls.__qualname__} has no docstring"
    assert not doc.startswith(f"{cls.__name__}("), (
        f"{cls.__qualname__} shows the generated signature text")

"""Every dataclass in ``scldpc`` carries a written docstring.

Without one, ``dataclass`` generates ``Name(field: type, ...)`` as the
docstring, which ``help()`` then shows in place of a description (and
which Python 3.10-3.13 build with ``inspect.signature`` at import).
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest

import scldpc

_MODULES = [importlib.import_module(f"scldpc.{info.name}")
            for info in pkgutil.iter_modules(scldpc.__path__)
            if info.name != "__main__"]
_DATACLASSES = [obj for module in _MODULES for obj in vars(module).values()
                if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__]


def test_the_package_defines_dataclasses():
    assert len(_DATACLASSES) >= 20


@pytest.mark.parametrize("cls", _DATACLASSES, ids=lambda c: c.__qualname__)
def test_dataclass_has_its_own_docstring(cls):
    doc = cls.__dict__.get("__doc__") or ""
    assert doc.strip(), f"{cls.__qualname__} has no docstring"
    assert not doc.startswith(f"{cls.__name__}("), (
        f"{cls.__qualname__} shows the generated signature text")

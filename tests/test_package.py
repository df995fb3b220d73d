"""Package exports: ``qhaar`` re-exports the ``__all__`` of each library module."""
from __future__ import annotations

import importlib
from collections import Counter

import pytest

import qhaar

MODULES = ("errors", "qseries", "spectral", "orthopoly", "qsu2rep", "haarverify")


@pytest.mark.parametrize("name", MODULES)
def test_every_module_name_resolves_to_the_same_object(name) -> None:
    module = importlib.import_module(f"qhaar.{name}")
    for attr in module.__all__:
        assert getattr(qhaar, attr) is getattr(module, attr), (name, attr)


def test_all_joins_the_module_lists() -> None:
    joined = [n for m in MODULES for n in importlib.import_module(f"qhaar.{m}").__all__]
    assert qhaar.__all__ == joined + ["__version__"]


def test_star_import_binds_exactly_all() -> None:
    namespace: dict = {}
    exec("from qhaar import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qhaar.__all__)
    assert [n for n, count in Counter(qhaar.__all__).items() if count > 1] == []


@pytest.mark.parametrize("name", ["TAIL_TOL", "MAX_TERMS"])
def test_truncation_constants_only_in_qseries(name) -> None:
    # the loops read qseries at call time; a package-level copy would rebind nothing
    assert not hasattr(qhaar, name)
    assert hasattr(qhaar.qseries, name)

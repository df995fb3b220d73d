"""Package exports: ``qhaar`` re-exports the ``__all__`` of each library module, loaded
on first use."""
from __future__ import annotations

import argparse
import importlib
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qhaar
from qhaar import cli, haarverify

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


def test_readme_library_sketch_runs(capsys) -> None:
    # the README example runs as written, so it cannot go stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(block, {})
    labels = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert labels == ["1", "x", "x^2", "x^3", "x^4", "x^5", "x^6"]


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def test_import_loads_no_submodule_and_no_numpy() -> None:
    out = _fresh("import sys, qhaar; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('qhaar', 'numpy')))")
    assert out == "['qhaar']"


def test_name_is_bound_after_first_use() -> None:
    # later lookups are plain attributes, with no __getattr__ call
    out = _fresh("import qhaar; before = 'thm6_measure' in vars(qhaar); qhaar.thm6_measure; "
                 "print(before, vars(qhaar)['thm6_measure'] is qhaar.haarverify.thm6_measure)")
    assert out == "False True"


def test_dir_covers_all() -> None:
    assert set(qhaar.__all__) <= set(dir(qhaar))


def test_verify_targets_are_the_theorems_and_all() -> None:
    # the parser names them without loading haarverify
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    target = next(a for a in commands.choices["verify"]._actions if a.dest == "target")
    assert tuple(target.choices) == (*haarverify.THEOREMS, "all")


@pytest.mark.parametrize("record, change", [
    (lambda: qhaar.QContext(0.5), {"q": 2.0}),
    (lambda: qhaar.MomentFunctional("M", qhaar.QContext(0.5)), {"kind": "L"}),
    (lambda: qhaar.AWParams(0.3, 0.2, 0.0, 0.0, qhaar.QContext(0.5)), {"a": math.inf}),
    (lambda: qhaar.SphericalParams(0.4, 1.5), {"sigma": math.nan}),
    (lambda: qhaar.VerifyConfig(qhaar.QContext(0.5)), {"N": 0}),
    (lambda: cli.RunConfig(), {"seed": -1}),
], ids=["QContext", "MomentFunctional", "AWParams", "SphericalParams", "VerifyConfig", "RunConfig"])
def test_replace_runs_the_record_checks(record, change) -> None:
    with pytest.raises(qhaar.DomainError):
        record()._replace(**change)


def test_series_spec_replace_keeps_tuples() -> None:
    spec = qhaar.SeriesSpec([0.3], [0.2], 0.5, qhaar.QContext(0.5))._replace(upper=[0.1, 0.4])
    assert spec.upper == (0.1, 0.4) and spec.lower == (0.2,)

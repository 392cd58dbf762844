"""numpy stays the only runtime dependency: every module of the package
imports only from the standard library, numpy and the package itself.
And importing the package loads no more of numpy than importing numpy
does."""

from __future__ import annotations

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import quditprod
from quditprod import cli

SOURCES = sorted(Path(quditprod.__file__).parent.glob("*.py"))


def _foreign_imports(tree: ast.AST) -> list[str]:
    """The modules an import of the tree names that are neither
    ``__future__``, relative, in the standard library nor numpy."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {"__future__", "numpy"}
    return [name for name in names if name.partition(".")[0] not in allowed]


def test_sources_import_only_the_standard_library_and_numpy() -> None:
    assert len(SOURCES) > 1
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert _foreign_imports(tree) == [], path.name


def test_the_guard_refuses_a_third_party_import() -> None:
    tree = ast.parse("import numpy.linalg\nfrom scipy import stats\nfrom . import gf\nimport os")
    assert _foreign_imports(tree) == ["scipy"]


def test_import_leaves_numpy_random_unloaded() -> None:
    """Importing the package loads numpy.random exactly when importing
    numpy alone does: the Monte Carlo seeding class is defined on first
    use, not at import."""
    probe = "import sys, {}; print('numpy.random' in sys.modules)"
    loaded = [
        subprocess.run(
            [sys.executable, "-c", probe.format(module)], capture_output=True, text=True, check=True
        ).stdout
        for module in ("numpy", "quditprod")
    ]
    assert loaded[0] == loaded[1]


def test_public_callables_are_plain_functions_or_classes() -> None:
    """Every callable in a module's ``__all__``, and ``cli.main``, is a
    class or a plain function (``inspect.isfunction``) defined in that
    module.  The traced benchmark (perfbench/tracing.py) wraps exactly
    such functions; one behind a wrapper such as ``functools.cache``
    would drop out of its calls, and the traced run would fail."""
    modules = [
        importlib.import_module(f"quditprod.{path.stem}")
        for path in SOURCES
        if path.stem not in ("__init__", "__main__")
    ]
    exported = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    exported.append((cli, "main"))
    assert len(exported) > 40
    for module, name in exported:
        obj = getattr(module, name)
        if callable(obj) and not inspect.isclass(obj):
            assert inspect.isfunction(obj), f"{module.__name__}.{name} is not a plain function"
            assert obj.__module__ == module.__name__, f"{module.__name__}.{name} is defined elsewhere"

"""numpy stays the only runtime dependency: every module of the package
imports only from the standard library, numpy and the package itself.
And importing the package loads no more of numpy than importing numpy
does.  The package carries no dead code of two kinds: a module-level
import no module reads, and a private top-level function, class or
constant that nothing in the package refers to.  And it holds no
``assert`` statement, which ``python -O`` strips: a broken invariant
raises ``AssertionError`` explicitly.  And the package opens files for
writing in one function only, the CLI's writer, which also writes each
output's manifest.  And the package exports exactly the union of its
modules' ``__all__``, with no name in two of them, so no star import
shadows another."""

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


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names the module-level imports of the tree bind, ``from
    __future__`` aside, that no name of the tree reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def _unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each private top-level function, class or
    constant of the trees that no node of any tree names outside the
    definition itself: as a name read, an attribute or an import."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, name, node) for name in names if name[:1] == "_" != name[1:2]]
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.alias):
                refs.setdefault(node.name, []).append(node)
    unreferenced = []
    for module, name, node in defined:
        inside = {id(sub) for sub in ast.walk(node)}
        if all(id(ref) in inside for ref in refs.get(name, [])):
            unreferenced.append(f"{module}.{name}")
    return unreferenced


def test_sources_carry_no_unused_import_or_private_name() -> None:
    """Every module-level import is read, ``__init__``'s re-exports
    aside, and every private top-level name is referred to somewhere
    in the package.  Tests and benchmarks do not count as users."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in SOURCES
    }
    for module, tree in trees.items():
        if module != "__init__":
            assert _unused_imports(tree) == [], module
    assert _unreferenced_privates(trees) == []


def test_the_dead_code_guard_finds_an_unused_import_and_private_name() -> None:
    """A sketch module: the unread import and the private function only
    it calls itself are found; ``__future__``, a read import, a private
    read elsewhere, an aliased import and a public name are not."""
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import itertools\n"
        "import numpy as np\n"
        "from .gf import _mod as reduce\n"
        "_LIMIT = 3\n"
        "def _recurse(k):\n"
        "    return _recurse(k - 1) if k else np.zeros(_LIMIT)\n"
        "def _helper(a):\n"
        "    return reduce(a, 3)\n"
        "def public():\n"
        "    return _helper(1)\n"
    )
    assert _unused_imports(tree) == ["itertools"]
    assert _unreferenced_privates({"sketch": tree}) == ["sketch._recurse"]


def _exports(tree: ast.Module) -> list[str]:
    """The names of the tree's top-level ``__all__`` list or tuple, or
    none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _shared_exports(trees: dict[str, ast.Module]) -> list[str]:
    """``name: module, module, ...`` for each name that the ``__all__``
    of more than one tree lists, in name order."""
    owners: dict[str, list[str]] = {}
    for module, tree in trees.items():
        for name in _exports(tree):
            owners.setdefault(name, []).append(module)
    return [f"{name}: {', '.join(mods)}" for name, mods in sorted(owners.items()) if len(mods) > 1]


def test_no_name_is_exported_by_two_modules() -> None:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert sum(map(len, map(_exports, trees.values()))) > 40
    assert _shared_exports(trees) == []


def test_the_export_guard_finds_a_name_two_modules_export() -> None:
    """Sketch modules: ``y`` is listed by a list and by a tuple and
    found; a name one module lists, or another only defines, is not."""
    trees = {
        "a": ast.parse("__all__ = ['x', 'y']\nx = y = 1\n"),
        "b": ast.parse("y = 2\n__all__ = ('y', 'z')\nz = 3\n"),
        "c": ast.parse("x = 4\n"),
    }
    assert _shared_exports(trees) == ["y: a, b"]


def test_package_exports_exactly_the_modules_all() -> None:
    """The package's public names, its submodules aside, are the union
    of the modules' ``__all__``, each bound to its module's object."""
    modules = [
        importlib.import_module(f"quditprod.{path.stem}")
        for path in SOURCES
        if path.stem not in ("__init__", "__main__")
    ]
    exported = {name: getattr(mod, name) for mod in modules for name in getattr(mod, "__all__", ())}
    public = {
        name: value for name, value in vars(quditprod).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public.keys() == exported.keys()
    assert all(public[name] is exported[name] for name in public)


def _assert_statements(tree: ast.AST) -> list[int]:
    """The line of each ``assert`` statement of the tree."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_sources_hold_no_assert_statement() -> None:
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert _assert_statements(tree) == [], path.name


def test_the_assert_guard_finds_an_assert_statement() -> None:
    """A sketch module: the nested ``assert`` is found; an explicit
    raise, a name containing "assert" and an assert in a string are
    not."""
    tree = ast.parse(
        "def check(n):\n"
        "    if n < 0:\n"
        "        raise AssertionError('negative')\n"
        "    assert_ok = 'assert n'\n"
        "    for k in range(n):\n"
        "        assert k < n, k\n"
        "    return assert_ok\n"
    )
    assert _assert_statements(tree) == [6]


def _file_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """(top-level function, line), in line order, of each call of the
    tree that writes a file: ``open`` with a mode that is not a constant read mode, or a
    ``write_text`` / ``write_bytes`` method; calls outside any function
    name ``<module>``."""
    owner = {
        id(node): top.name
        for top in tree.body if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
    }
    writes = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            modes = [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "mode")]
            reads = all(
                isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")
                for mode in modes
            )
            if reads:
                continue
        elif not (isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")):
            continue
        writes.append((owner.get(id(node), "<module>"), node.lineno))
    return sorted(writes, key=lambda write: write[1])


def test_cli_opens_files_for_writing_only_in_its_writer() -> None:
    """``cli._save`` writes every CLI output it is handed and then that
    output's manifest; no other code of the package opens a file to
    write."""
    writes = [
        (path.stem, fn, line)
        for path in SOURCES
        for fn, line in _file_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert any(write[:2] == ("cli", "_save") for write in writes), "the writer is not found"
    assert [write for write in writes if write[:2] != ("cli", "_save")] == []


def test_the_writer_guard_finds_a_write_outside_the_writer() -> None:
    """A sketch module: an ``open`` in "w", "a" or "x" mode, by position
    or keyword or with a mode only known at run time, and a
    ``write_text`` are found, with their function; reads with or without
    a mode, and a write inside ``_save``, are reported under ``_save``
    or not at all."""
    tree = ast.parse(
        "def _save(path, text):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(text)\n"
        "def read(path):\n"
        "    with open(path, encoding='utf-8') as fh, open(path, 'rb') as raw:\n"
        "        return fh.read(), raw.read()\n"
        "def cmd(path, mode):\n"
        "    open(path, 'a').close()\n"
        "    open(path, mode=mode).close()\n"
        "    path.write_text('x')\n"
        "open('log', mode='x')\n"
    )
    assert _file_writes(tree) == [
        ("_save", 2), ("cmd", 8), ("cmd", 9), ("cmd", 10), ("<module>", 11)
    ]


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

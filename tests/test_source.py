"""Source checks: no imported name goes unused, no package module is imported
inside a function, every export exists, every module parses at the oldest
Python the package supports, and tier-1 runs every registered property."""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pivotlearn"


def _python_floor() -> tuple[int, int]:
    """(major, minor) of pyproject's requires-python lower bound."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def _exports(tree: ast.Module):
    """The literal __all__ of a parsed module, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names listed in __all__ count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exports(tree) or ())
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import csv\nimport os.path\nimport json as js\n"
        "from typing import Optional, Any\nfrom .core import kept\n"
        "__all__ = ['kept']\n"
        "def f(x: Optional[int]):\n    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == ["csv (line 2)", "js (line 4)", "Any (line 5)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _function_imports(source: str) -> list[str]:
    """'line N' for each import of a package module inside a function body.

    Such an import hides a cycle between modules until the function runs.
    """
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom):
                    names = [inner.module or ""] if not inner.level else ["pivotlearn"]
                elif isinstance(inner, ast.Import):
                    names = [alias.name for alias in inner.names]
                else:
                    continue
                if any(name.partition(".")[0] == "pivotlearn" for name in names):
                    lines.add(inner.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_function_import_check_sees_package_imports_only():
    source = (
        "from . import core\nimport json\n"
        "def f():\n    import math\n    from . import __version__\n"
        "    def g():\n        from .oracles import x\n"
        "class C:\n    def m(self):\n        import pivotlearn.core\n"
        "        from pivotlearn import seeding\n        from collections import abc\n"
    )
    assert _function_imports(source) == ["line 5", "line 7", "line 10", "line 11"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_package_import_inside_a_function(path):
    assert _function_imports(path.read_text()) == []


_EXPORTING = [p for p in sorted(SRC.glob("*.py")) if _exports(ast.parse(p.read_text())) is not None]


@pytest.mark.parametrize("path", _EXPORTING, ids=lambda p: p.name)
def test_every_export_exists(path):
    """Each name in a module's __all__ (the package's included) is an attribute of it.

    Only modules whose source defines __all__ are imported, so __main__,
    which runs the CLI on import, never is.
    """
    name = "pivotlearn" if path.stem == "__init__" else f"pivotlearn.{path.stem}"
    module = importlib.import_module(name)
    exports = _exports(ast.parse(path.read_text()))
    assert [n for n in exports if not hasattr(module, n)] == []


def _unread_exports(sources: dict[str, str], package_exports) -> list[str]:
    """module.name for each __all__ entry of a module that neither the package exports
    nor any module reads (a load of the bare name or an attribute of that name)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exports(tree) or ()
        if name not in package_exports and name not in read
    ]


def test_unread_export_check_sees_definitions_and_all_entries_only():
    sources = {
        "a": "__all__ = ['used', 'by_attr', 'unread', 'public']\n"
             "def used(): pass\ndef by_attr(): pass\ndef unread(): pass\ndef public(): pass\n",
        "b": "from . import a\nfrom .a import used\nunread = 1\nused()\na.by_attr()\n",
    }
    assert _unread_exports(sources, ["public"]) == ["a.unread"]


def test_every_export_has_a_reader():
    """A name in a module's __all__ is in the package's __all__ or read elsewhere in the source."""
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    package_exports = _exports(ast.parse(sources.pop("__init__")))
    assert _unread_exports(sources, package_exports) == []


def test_syntax_check_refuses_newer_constructs():
    assert _python_floor() == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # exception groups: 3.11
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_python_floor())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())


def test_registry_test_runs_every_registered_property():
    """Each verify suite is a case of the registry test, which runs all its properties."""
    import test_cli
    from pivotlearn.verify import SUITES

    marks = test_cli.test_verify_suite_passes.pytestmark
    assert [list(m.args[1]) for m in marks if m.name == "parametrize"] == [list(SUITES)]
    registered = {(suite, prop.check) for suite, props in SUITES.items() for prop in props}
    assert set(test_cli._STRONGER) <= registered

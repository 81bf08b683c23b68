"""Source checks: no imported name goes unused, every module parses at the oldest
Python the package supports, and tier-1 runs every registered property."""

import ast
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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
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

"""Source checks that need only the standard library: no imported name goes unused."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pivotlearn"


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

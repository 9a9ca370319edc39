"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "circfib"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))  # re-exports
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom math import gcd, lcm as least\n"
        "from typing import Callable\nfrom .x import y\n"
        "__all__ = ['y']\n"
        "def f(g: Callable) -> int:\n    return gcd(sys.maxsize, 2)\n"
    )
    assert unused_imports(source) == ["least", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

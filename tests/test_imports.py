"""Every name a module of the package imports is used there or re-exported
through ``__all__``.  A plain AST scan, since no linter is a dependency."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rrt"


def unused_imports(source: str) -> list[str]:
    """Imported names the module never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - used - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_spares_used_and_exported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "from .errors import DataFormatError\n"
        "__all__ = ['DataFormatError']\n"
        "def f(x: Sequence) -> None:\n"
        "    return np.asarray(x)\n"
    )
    assert unused_imports(source) == ["Iterable", "os"]

"""Every name a module of the package imports is used there or re-exported
through ``__all__``, and every name in ``__all__`` is read by code outside
the tests.  Plain AST scans, since no linter is a dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rrt"


def exported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def reads_from(tree: ast.Module, module: str) -> set[str]:
    """Names the code reads from the module (dotted, e.g. "rrt.model"):
    names it imports from it, attributes of aliases bound to it, and the
    first part of the attribute in a ("rrt.model", "attr.path") string
    pair, which is how the benchmark's tracer names the sites it patches."""
    out, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative imports occur only inside the package
                base = "rrt" + ("." + base if base else "")
            for a in node.names:
                if base == module:
                    out.add(a.name)
                elif f"{base}.{a.name}" == module:
                    aliases.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == module and a.asname}
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            first, second = node.elts
            if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                if first.value == module:
                    out.add(second.value.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            out.add(node.attr)
    return out


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
    return sorted(set(imported) - used - exported(tree))


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_read_outside_tests(path):
    # Read by another module of the package or by the benchmark.  A name
    # only tests use belongs in tests/oracles.py; one only its own module
    # reads stays out of __all__.  Dunder metadata is exempt.
    module = "rrt" if path.name == "__init__.py" else f"rrt.{path.stem}"
    readers = [p for p in SRC.glob("*.py") if p != path] + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(reads_from(ast.parse(p.read_text()), module) for p in readers))
    unread = {n for n in exported(ast.parse(path.read_text())) if not n.startswith("__")} - read
    assert sorted(unread) == []


def test_export_scan_reads_imports_module_attributes_and_site_pairs():
    tree = ast.parse(
        "from rrt.model import score_batch\n"
        "from rrt import autograd as ag\n"
        "from . import data\n"
        "from .model import check_records\n"
        "x = ag.attention + data.SynthConfig + np.scale\n"
        "SITES = (('rrt.autograd', 'Tensor.backward'), ('rrt.train', 'train'))\n"
    )
    assert reads_from(tree, "rrt.model") == {"score_batch", "check_records"}
    assert reads_from(tree, "rrt.autograd") == {"attention", "Tensor"}
    assert reads_from(tree, "rrt.data") == {"SynthConfig"}
    assert reads_from(tree, "rrt.train") == {"train"}


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize is most of a cold `rrt` command's start-up, and only
    # `rrt correspond` reads it (rrt.model.max_weight_assignment).
    code = "import sys, rrt.cli; assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

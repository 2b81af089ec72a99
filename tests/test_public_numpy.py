"""The package uses only public numpy API: no module imports or reads a private
numpy module or attribute (a dotted numpy name with a part ``_name``), so a numpy
release cannot change or remove a kernel underneath it unannounced."""

import ast
from pathlib import Path

import pytest

import deformcs

MODULES = sorted(Path(deformcs.__file__).parent.glob("*.py"))


def _private(dotted: str) -> bool:
    """Whether a dotted numpy name passes through a private part (dunders are public)."""
    return any(part.startswith("_") and not part.endswith("__")
               for part in dotted.split(".")[1:])


def private_numpy_names(source: str) -> list[str]:
    """The private numpy names that ``source`` imports, reads as an attribute of a
    numpy name, or asks ``getattr`` for by a literal string, in sorted order."""
    tree = ast.parse(source)
    bound, used = {}, set()   # local name -> the numpy name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    used.add(alias.name)
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module and (
                node.module.split(".")[0] == "numpy"):
            for alias in node.names:
                used.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            node = ast.Attribute(value=node.args[0], attr=node.args[1].value)
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            used.add(".".join([bound[node.id], *reversed(parts)]))
    return sorted(name for name in used if _private(name))


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"__init__.py", "discrete_flows.py", "cli.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_only_public_numpy(module):
    assert private_numpy_names(module.read_text()) == []


def test_every_form_of_private_numpy_access_is_found():
    source = """
import numpy as np
import numpy.linalg._umath_linalg
import numpy.linalg as la
from numpy.linalg import _umath_linalg as gufuncs, solve
from numpy import _core

def kernel():
    from numpy.lib import _index_tricks_impl
    return (np.linalg._umath_linalg.solve1, la._linalg, getattr(np.linalg, "_umath_linalg"),
            gufuncs.solve, np.__version__, np.linalg.solve, solve, _core)
"""
    assert private_numpy_names(source) == [
        "numpy._core", "numpy.lib._index_tricks_impl", "numpy.linalg._linalg",
        "numpy.linalg._umath_linalg", "numpy.linalg._umath_linalg.solve",
        "numpy.linalg._umath_linalg.solve1"]

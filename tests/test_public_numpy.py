"""The package uses only public numpy API: no module imports or reads a private
numpy module or attribute (a dotted numpy name with a part ``_name``), so a numpy
release cannot change or remove a kernel underneath it unannounced.  Its
``np.linalg`` calls are an inventory kept here, function by function."""

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


def linalg_calls(source: str) -> dict[str, list[str]]:
    """The ``np.linalg.<name>(...)`` calls of ``source``, as names in source order, under
    the innermost function each is in (``<module>`` outside any)."""
    calls = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            func = ast.unparse(child.func) if isinstance(child, ast.Call) else ""
            if func.startswith("np.linalg."):
                calls.setdefault(where, []).append(func.removeprefix("np.linalg."))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return calls


# The package's LAPACK calls, by module and function: each is a site whose bits come
# from the host's OpenBLAS kernel.  Adding a call, or retiring one, updates this table.
LINALG_CALLS = {
    ("algebra_core.py", "assoc_residual"): ["norm"],
    ("continuous_flows.py", "spectral_invariants"): ["eigvals"],
    ("continuous_flows.py", "integrate"): ["det"],
    ("dda_registry.py", "discrete_cs_residual"): ["norm"],
    ("discrete_flows.py", "_invariants"): ["det"],
    ("discrete_flows.py", "gauge_pairs"): ["det", "solve", "solve"],
}


def test_the_package_calls_np_linalg_only_where_its_inventory_says():
    found = {(module.name, where): names for module in MODULES
             for where, names in linalg_calls(module.read_text()).items()}
    assert found == LINALG_CALLS

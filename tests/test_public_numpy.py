"""The package uses only public numpy API: no module imports or reads a private
numpy module or attribute (a dotted numpy name with a part ``_name``), so a numpy
release cannot change or remove a kernel underneath it unannounced.  Its
``np.linalg`` calls and its matrix products are two inventories kept here, function
by function, with numpy names read through any alias an import gives them."""

import ast
from pathlib import Path

import pytest

import deformcs

MODULES = sorted(Path(deformcs.__file__).parent.glob("*.py"))


def _private(dotted: str) -> bool:
    """Whether a dotted numpy name passes through a private part (dunders are public)."""
    return any(part.startswith("_") and not part.endswith("__")
               for part in dotted.split(".")[1:])


def _numpy_imports(tree: ast.AST) -> tuple[dict[str, str], set[str]]:
    """The local names that the imports of ``tree`` bind to numpy names (in any scope),
    and every numpy name they import."""
    bound, imported = {}, set()   # local name -> the numpy name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    imported.add(alias.name)
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module and (
                node.module.split(".")[0] == "numpy"):
            for alias in node.names:
                imported.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound, imported


def _numpy_name(node: ast.AST, bound: dict[str, str]) -> str | None:
    """The dotted numpy name that a name or ``name.attr...`` expression reads, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(parts)])
    return None


def private_numpy_names(source: str) -> list[str]:
    """The private numpy names that ``source`` imports, reads as an attribute of a
    numpy name, or asks ``getattr`` for by a literal string, in sorted order."""
    tree = ast.parse(source)
    bound, used = _numpy_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            node = ast.Attribute(value=node.args[0], attr=node.args[1].value)
        if isinstance(node, ast.Attribute) and (name := _numpy_name(node, bound)):
            used.add(name)
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


def _sites(source: str, site) -> dict[str, list[str]]:
    """``site(node, bound)`` of each node of ``source`` where it is not None, in source
    order, under the innermost function each is in (``<module>`` outside any); ``bound``
    maps the local names of numpy names to those names."""
    tree = ast.parse(source)
    bound, _ = _numpy_imports(tree)
    found = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (name := site(child, bound)) is not None:
                found.setdefault(where, []).append(name)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(tree, "<module>")
    return found


def _called(node: ast.AST, bound: dict[str, str]) -> str:
    """The numpy name that a call calls, or "" for any other node."""
    return isinstance(node, ast.Call) and _numpy_name(node.func, bound) or ""


def linalg_calls(source: str) -> dict[str, list[str]]:
    """The ``numpy.linalg`` functions that ``source`` calls, by any alias, as names in
    source order, under the innermost function each is in."""
    def site(node, bound):
        name = _called(node, bound)
        return name.removeprefix("numpy.linalg.") if name.startswith("numpy.linalg.") else None
    return _sites(source, site)


def matmul_sites(source: str) -> dict[str, list[str]]:
    """The matrix products of ``source``: each ``@`` or ``@=`` as "@" and each call of
    ``numpy.matmul`` or ``numpy.dot``, by any alias, as that name, in source order, under
    the innermost function each is in."""
    def site(node, bound):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            return "@"
        name = _called(node, bound)
        return name.removeprefix("numpy.") if name in ("numpy.matmul", "numpy.dot") else None
    return _sites(source, site)


def test_every_form_of_a_linalg_call_or_matrix_product_is_found():
    source = """
import numpy as np
import numpy.linalg as la
from numpy import linalg, matmul as mm
from numpy.linalg import solve, det as determinant

x = np.linalg.norm(a)

def kernel(a, b):
    c = a @ b
    c @= b
    return (np.linalg.det(a), la.eigvals(a), linalg.solve(a, b), solve(a, b), determinant(a),
            np.matmul(a, b), mm(a, b), np.dot(a, b), np.linalg.solve.__doc__, np.sum(a))

def outer():
    def inner(a):
        return np.linalg.inv(a) @ a
    return la.norm(inner(1) @ 2)
"""
    assert linalg_calls(source) == {
        "<module>": ["norm"],
        "kernel": ["det", "eigvals", "solve", "solve", "det"],
        "inner": ["inv"], "outer": ["norm"]}
    assert matmul_sites(source) == {
        "kernel": ["@", "@", "matmul", "matmul", "dot"], "inner": ["@"], "outer": ["@"]}


def _inventory(sites) -> dict[tuple[str, str], list[str]]:
    return {(module.name, where): names for module in MODULES
            for where, names in sites(module.read_text()).items()}


# The package's LAPACK calls, by module and function: each is a site whose bits come
# from the host's OpenBLAS kernel.  Adding a call, or retiring one, updates this table.
LINALG_CALLS = {
    ("continuous_flows.py", "spectral_invariants"): ["eigvals"],
    ("continuous_flows.py", "integrate"): ["det"],
    ("discrete_flows.py", "gauge_pairs"): ["det", "solve"],
}

# The package's matrix products, by module and function: numpy may hand each one to the
# host's OpenBLAS, whose kernels may round them differently.  Kept like LINALG_CALLS.
MATMUL_SITES = {
    ("algebra_core.py", "trace_integrals"): ["@", "@"],
    ("algebra_core.py", "frobenius"): ["@"],
    ("algebra_core.py", "assoc_residual"): ["@", "@"],
    ("cli.py", "_map_artifacts"): ["@"],   # booleans times integers: exact, and no BLAS
    ("dda_registry.py", "_cs_norms"): ["@"] * 7,
    ("dda_registry.py", "discrete_cs_defect"): ["@", "@"],
    ("discrete_flows.py", "_invariants"): ["@"],
    ("discrete_flows.py", "oriented_assoc_defect"): ["@", "@"],
}


def test_the_package_calls_np_linalg_only_where_its_inventory_says():
    assert _inventory(linalg_calls) == LINALG_CALLS


def test_the_package_multiplies_matrices_only_where_its_inventory_says():
    assert _inventory(matmul_sites) == MATMUL_SITES

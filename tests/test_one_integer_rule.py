"""Every integer test the package makes goes through ``algebra_core.is_index``, the one
rule for an integer: a Python or numpy integer, not a bool.  ``isinstance(v, int)``
refuses numpy integers, and ``float(v).is_integer()`` takes True and 1.0 and raises
numpy's errors on a string, so no module may write either outside ``algebra_core``."""

import ast
from pathlib import Path

import pytest

import deformcs

MODULES = sorted(Path(deformcs.__file__).parent.glob("*.py"))


def _names_an_integer_type(node) -> bool:
    """Whether an isinstance class argument is, or is a tuple holding, int or Integral."""
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    return any((isinstance(t, ast.Name) and t.id in ("int", "Integral"))
               or (isinstance(t, ast.Attribute) and t.attr == "Integral") for t in types)


def stray_integer_tests(source: str, module: str) -> list[str]:
    """The ``isinstance(_, int)``, ``isinstance(_, numbers.Integral)`` and ``.is_integer()``
    calls of ``source``, as ``line: expression``; none in ``algebra_core.py``."""
    if module == "algebra_core.py":
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2
                and _names_an_integer_type(node.args[1])):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(func, ast.Attribute) and func.attr == "is_integer":
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"algebra_core.py", "dda_registry.py",
                                         "discrete_flows.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_tests_every_integer_through_is_index(module):
    assert stray_integer_tests(module.read_text(), module.name) == []


def test_every_form_of_a_stray_integer_test_is_found():
    source = """
import numbers
from numbers import Integral

def check(v, x, shape):
    ok = isinstance(v, int) and not isinstance(v, bool) and isinstance(v, (int, float))
    return ok, isinstance(x, numbers.Integral), isinstance(x, Integral), float(x).is_integer()

def fine(v):
    return isinstance(v, (float, str)), isinstance(v, np.ndarray), int(v), v.integer
"""
    assert stray_integer_tests(source, "discrete_flows.py") == [
        "6: isinstance(v, (int, float))", "6: isinstance(v, int)",
        "7: float(x).is_integer()", "7: isinstance(x, Integral)",
        "7: isinstance(x, numbers.Integral)"]
    assert stray_integer_tests(source, "algebra_core.py") == []

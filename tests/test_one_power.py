"""Every power the package takes goes through ``algebra_core._pow``, the one per-entry
power: ``x ** k`` on Python floats raises OverflowError past float range, where ``_pow``
gives inf.  So no module may write ``**`` anywhere else, except between two numeric
literals, which is a constant."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import deformcs
from deformcs.closed_forms import SolutionFamily, family_integrals
from deformcs.reductions import reconstruct_from_G

MODULES = sorted(Path(deformcs.__file__).parent.glob("*.py"))


def _literal(node) -> bool:
    """Whether node is a number written in the source, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def stray_powers(source: str, module: str) -> list[str]:
    """The ``**`` and ``**=`` of ``source`` outside ``algebra_core._pow`` whose operands
    are not both numeric literals, as ``line: expression``."""
    tree = ast.parse(source)
    exempt = set()
    if module == "algebra_core.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_pow":
                exempt.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt or not isinstance(getattr(node, "op", None), ast.Pow):
            continue
        if isinstance(node, ast.BinOp) and not (_literal(node.left) and _literal(node.right)):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.AugAssign):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"algebra_core.py", "reductions.py", "closed_forms.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_takes_every_power_through_pow(module):
    assert stray_powers(module.read_text(), module.name) == []


def test_every_form_of_a_stray_power_is_found():
    source = """
TINY, STEPS, HALF = 2.0 ** -900, 10 ** 6, +4 ** -0.5

def _pow(x, k):
    return x ** k

def kernel(x, kw):
    x **= 2
    return f(**kw), {**kw}, x ** 3, 2 ** x, (x + 1) ** 2.0, True ** 2
"""
    assert stray_powers(source, "reductions.py") == [
        "5: x ** k", "8: x **= 2", "9: (x + 1) ** 2.0", "9: 2 ** x", "9: True ** 2",
        "9: x ** 3"]
    assert stray_powers(source, "algebra_core.py") == [
        "8: x **= 2", "9: (x + 1) ** 2.0", "9: 2 ** x", "9: True ** 2", "9: x ** 3"]


def test_powers_past_float_range_give_inf_or_nan_instead_of_overflow_error():
    entries = reconstruct_from_G(1e200, 0.0, 0.0)
    integrals = family_integrals(SolutionFamily("Nilpotent3x3", {"alpha": 1e200, "beta": 1.0}))
    np.testing.assert_array_equal(list(entries.values()),
                                  [0.0, 1.0, -math.inf, 1e200, math.nan, math.inf])
    assert integrals == {"I1": 1e200, "I2": math.inf, "I3": math.inf}


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def test_finite_powers_keep_their_bits():
    # the expressions as they were written with **, on values up to 1e+-60
    rng = np.random.default_rng(21)
    rows = rng.standard_normal((500, 5)) * 10.0 ** rng.uniform(-60.0, 60.0, (500, 1))
    for G, G1, G2, B, B1 in rows.tolist():
        M = -0.5 * (G2 + 3.0 * G * G1 + G ** 3 - G * G * B - (G1 * B + G * B1))
        assert _bits(reconstruct_from_G(G, G1, G2, B, B1)["M"]) == _bits(M)
        a, b, g, d, mu = G, G1, G2, B, B1
        I3 = ((a + b) ** 3 - b ** 3) / 3.0 + (a + b) * (mu + b * (a + 2.0 * b)) - g * d
        fam = SolutionFamily("Nilpotent3x3", dict(zip(("alpha", "beta", "gamma", "delta", "mu"),
                                                      (a, b, g, d, mu))))
        assert _bits(family_integrals(fam)["I3"]) == _bits(I3)

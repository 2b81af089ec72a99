"""The discrete maps checked against the matrix central systems with sympy.

L2b: C1 TC2 = C2 C1;  L4: C1 TC2 = C2 TC1;  L5: C1 TC2 = C2 T^-1C1, with
C1 = [[B, E], [C, G]], C2 = [[E, M], [G, N]] and TC1, TC2 built the same way
from the shifted entries (B, C fixed).  The step kernel, which applies the
companion matrix K = C1^-1 C2 to columns, is run on symbols and must satisfy
each system identically; on dyadic rational points every step must match the
exact solution of the linear system to rounding.
"""

import pytest

from deformcs import discrete_flows
from deformcs.discrete_flows import init_map_state, step

sp = pytest.importorskip("sympy")

B, C, E, G, M, N = sp.symbols("B C E G M N", real=True)


def _pair(b, c, e, g, m, n):
    return sp.Matrix([[b, e], [c, g]]), sp.Matrix([[e, m], [g, n]])


@pytest.fixture
def symbolic_kernel(monkeypatch):
    # With the tolerance at 0 the guard |den| < tol is decidable for real
    # symbols (always false), so the kernel runs on expressions unchanged.
    monkeypatch.setattr(discrete_flows, "DEGENERACY_TOL", 0)
    return discrete_flows._advance


def _rational(values):
    """The kernel's float constants (1.0, c * 1.0) as the rationals they are."""
    return [sp.nsimplify(v) for v in values]


PB, PC, PE, PG = sp.symbols("PB PC PE PG", real=True)


@pytest.mark.parametrize("dda", ["L2b", "L4", "L5"])
@pytest.mark.parametrize("b, c", [(1, sp.Rational(1, 2)), (sp.Rational(-1, 3), 1), (1, 1)],
                         ids=["rows_kept", "rows_swapped", "b_c_one"])
def test_companion_columns_solve_each_central_system(symbolic_kernel, dda, b, c):
    prev = ((PB, PE), (PC, PG))
    shifted, left, _ = symbolic_kernel(dda, (b, c, E, G, M, N), prev)
    shifted = _rational(shifted)
    C1, C2 = _pair(b, c, E, G, M, N)
    TC1, TC2 = _pair(*shifted)
    X = {"L2b": C1, "L4": TC1, "L5": sp.Matrix(prev)}[dda]
    assert shifted[:2] == [b, c]
    assert (C1 * TC2 - C2 * X).applyfunc(sp.cancel) == sp.zeros(2, 2)
    assert left == (((b, E), (c, G)) if dda == "L5" else None)


def _exact_step(dda, values, prev):
    """Exact shifted entries: the linear central system solved in rationals."""
    b, c, e, g, m, n = (sp.Rational(v) for v in values)
    C1, C2 = _pair(b, c, e, g, m, n)
    te, tg, tm, tn = sp.symbols("te tg tm tn")
    TC1, TC2 = _pair(b, c, te, tg, tm, tn)
    X = {"L2b": C1, "L4": TC1}.get(dda)
    if X is None:
        pb, pc, pe, pg = (sp.Rational(v) for v in prev)
        X = sp.Matrix([[pb, pe], [pc, pg]])
    sol = sp.solve(list(C1 * TC2 - C2 * X), [te, tg, tm, tn], dict=True)
    assert len(sol) == 1
    return [b, c] + [sol[0][s] for s in (te, tg, tm, tn)]


@pytest.mark.parametrize("dda,values,prev", [
    ("L2b", (1.25, 0.375, 0.75, 1.5, 0.5, -0.875), None),
    ("L2b", (0.375, 1.25, 0.75, 1.5, 0.5, -0.875), None),
    ("L4", (1.0, 1.0, 0.375, 1.25, 0.75, -0.25), None),
    ("L4", (0.75, -0.5, 0.375, 1.25, 0.875, -0.25), None),
    ("L4", (-0.5, 0.75, 0.375, 1.25, 0.875, -0.25), None),
    ("L5", (1.0, 0.25, 0.625, 1.25, 0.5, 1.125), (1.0, 0.25, 0.5, 0.875)),
    ("L5", (0.25, -1.5, 0.625, 1.25, 0.5, 1.125), (1.0, 0.25, 0.5, 0.875)),
], ids=["L2b", "L2b_swapped", "L4_b_c_one", "L4_general", "L4_swapped", "L5", "L5_swapped"])
def test_step_matches_exact_solution(dda, values, prev):
    # dyadic inputs are exact in binary, so only the step itself rounds
    entries = dict(zip("BCEGMN", values))
    prev_entries = None if prev is None else dict(zip("BCEG", prev))
    got = step(dda, init_map_state(dda, entries, prev_entries)).values
    want = _exact_step(dda, values, prev if dda == "L5" else None)
    for g, w in zip(got, want):
        assert abs(g - float(w)) <= 1e-14 * max(1.0, abs(float(w)))

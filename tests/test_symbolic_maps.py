"""The discrete maps checked against the matrix central systems with sympy.

L2b: C1 TC2 = C2 C1;  L4: C1 TC2 = C2 TC1;  L5: C1 TC2 = C2 T^-1C1, with
C1 = [[B, E], [C, G]], C2 = [[E, M], [G, N]] and TC1, TC2 built the same way
from the shifted entries (B, C fixed).  The closed forms of L2b and L4 at
B = C = 1 are run on symbols and must satisfy their system identically; the
solve-based steps (L4 general, L5) must match the exact solution of the
linear system at rational points to rounding.
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


def test_l2b_closed_form_solves_central_system(symbolic_kernel):
    shifted, _ = symbolic_kernel("L2b", (B, C, E, G, M, N), None)
    C1, C2 = _pair(B, C, E, G, M, N)
    TC1, TC2 = _pair(*shifted)
    assert shifted[:2] == (B, C)
    assert sp.simplify(C1 * TC2 - C2 * C1) == sp.zeros(2, 2)


def test_l4_closed_form_solves_central_system(symbolic_kernel):
    shifted, _ = symbolic_kernel("L4", (1.0, 1.0, E, G, M, N), None)
    # the closed form writes its constants as floats; 1.0 is exactly 1
    shifted = [sp.nsimplify(v) for v in shifted]
    C1, C2 = _pair(1, 1, E, G, M, N)
    TC1, TC2 = _pair(*shifted)
    assert shifted[:2] == [1, 1]
    assert sp.simplify(C1 * TC2 - C2 * TC1) == sp.zeros(2, 2)


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
    ("L4", (1.0, 1.0, 0.375, 1.25, 0.75, -0.25), None),
    ("L4", (0.75, -0.5, 0.375, 1.25, 0.875, -0.25), None),
    ("L5", (1.0, 0.25, 0.625, 1.25, 0.5, 1.125), (1.0, 0.25, 0.5, 0.875)),
], ids=["L2b", "L4_closed", "L4_general", "L5"])
def test_step_matches_exact_solution(dda, values, prev):
    # dyadic inputs are exact in binary, so only the step itself rounds
    entries = dict(zip("BCEGMN", values))
    prev_entries = None if prev is None else dict(zip("BCEG", prev))
    got = step(dda, init_map_state(dda, entries, prev_entries)).values
    want = _exact_step(dda, values, prev if dda == "L5" else None)
    for g, w in zip(got, want):
        assert abs(g - float(w)) <= 1e-14 * max(1.0, abs(float(w)))

"""The flow and reduction right-hand sides checked against their derivations with sympy.

L2a: dC2/ds = [C2, C1] in the 3x3 and 2x2 layouts of ``algebra_core``.
L3: dC1/dy = adj(C1) [C1, C2] for the det-rescaled flow; the unimodular flow
agrees with it on det C1 = 1, and the simple flow is its M = N = 0 case.
Each reduction's conserved quantity, as its row of ``reductions.REDUCTIONS``
builds it, has zero derivative identically along the right-hand side the same
row builds; the elliptic r1 is conserved only on the set where elliptic_point
starts, and the test says why.
Every check is exact: the float coefficients of the code are converted to
rationals and each difference must expand to 0.
"""

import pytest

from deformcs import reductions
from deformcs.continuous_flows import SYSTEMS
from deformcs.integrators import Rhs
from deformcs.reductions import REDUCTIONS, chazy_second_integral, chazy_state_phi_B

sp = pytest.importorskip("sympy")

A, B, C, D, E, G, L, M, N = sp.symbols("A B C D E G L M N", real=True)
G1, G2 = sp.symbols("G1 G2", real=True)
ALPHA, BETA, GAMMA = sp.symbols("alpha beta gamma", real=True)


def _exact(expr):
    """``expr`` with every float written as the rational it stands for, expanded."""
    return sp.expand(sp.nsimplify(expr, rational=True))


def _rhs(system_id, values):
    """The flow's right-hand side on symbols: the expressions of its text, compiled without
    its guard, since L3_detnorm's |det C1| < tol cannot be decided for symbols."""
    sy = SYSTEMS[system_id]
    point = Rhs(sy.text.entries, sy.text.params, sy.text.exprs).point
    return list(point(tuple(values[k] for k in sy.evolved), tuple(values[k] for k in sy.free)))


def _ddt(integral, state, rhs):
    """The derivative of ``integral`` along the vector field ``rhs`` on ``state``."""
    return _exact(sum(sp.diff(integral, v) * f for v, f in zip(state, rhs)))


# ---------------------------------------------------------------------------
# Lax flows.
# ---------------------------------------------------------------------------

def test_l2a_3x3_rhs_is_the_lax_bracket():
    C1 = sp.Matrix([[0, A, D], [1, B, E], [0, C, G]])
    C2 = sp.Matrix([[0, D, L], [0, E, M], [1, G, N]])
    bracket = C2 * C1 - C1 * C2
    rhs = _rhs("L2a_3x3", dict(A=A, B=B, C=C, D=D, E=E, G=G, L=L, M=M, N=N))
    assert bracket[:, 0] == sp.zeros(3, 1)  # the unital column stays fixed
    want = [bracket[0, 1], bracket[1, 1], bracket[2, 1], bracket[0, 2], bracket[1, 2], bracket[2, 2]]
    assert [_exact(r - w) for r, w in zip(rhs, want)] == [0] * 6


def test_l2a_2x2_rhs_is_the_lax_bracket():
    C1 = sp.Matrix([[B, E], [C, G]])
    C2 = sp.Matrix([[E, M], [G, N]])
    bracket = C2 * C1 - C1 * C2
    rhs = _rhs("L2a_2x2", dict(B=B, C=C, E=E, G=G, M=M, N=N))
    want = [bracket[0, 0], bracket[1, 0], bracket[0, 1], bracket[1, 1]]
    assert [_exact(r - w) for r, w in zip(rhs, want)] == [0] * 4


def test_l3_detnorm_rhs_is_adjugate_times_bracket():
    C1 = sp.Matrix([[B, E], [C, G]])
    C2 = sp.Matrix([[E, M], [G, N]])
    want = C1.adjugate() * (C1 * C2 - C2 * C1)
    rhs = _rhs("L3_detnorm", dict(B=B, C=C, E=E, G=G, M=M, N=N))
    assert [_exact(r - w) for r, w in zip(rhs, want)] == [0] * 4  # row-major B, E, C, G


def test_l3_unimodular_agrees_with_detnorm_on_det_one():
    values = dict(B=B, C=C, E=E, G=G, M=M, N=N)
    constraint = B * G - C * E - 1
    for u, d in zip(_rhs("L3_unimodular", values), _rhs("L3_detnorm", values)):
        _, remainder = sp.reduced(_exact(u - d), [constraint], B, C, E, G, M, N)
        assert remainder == 0


def test_l3_simple_is_unimodular_at_m_n_zero():
    simple = _rhs("L3_simple", dict(B=B, C=C, E=E, G=G))
    unimodular = _rhs("L3_unimodular", dict(B=B, C=C, E=E, G=G, M=0, N=0))
    assert [_exact(s - u) for s, u in zip(simple, unimodular)] == [0] * 4


def test_reconstruct_from_g_solves_the_l2a_2x2_flow():
    # C = 1 and N = -E with B(t) free: E, G and N follow the flow identically,
    # and M does wherever G solves the Chazy equation with Phi = B' + B^2/2
    t = sp.Symbol("t", real=True)
    g, b = sp.Function("g")(t), sp.Function("b")(t)
    entries = reductions.reconstruct_from_G(g, g.diff(t), g.diff(t, 2), b, b.diff(t))
    assert (entries["B"], entries["C"], entries["N"]) == (b, 1.0, -entries["E"])
    phi = b.diff(t) + b * b / 2
    chazy = reductions.chazy_rhs("Generic", g, g.diff(t), g.diff(t, 2), phi, phi.diff(t))
    sy = SYSTEMS["L2a_2x2"]
    for name, rhs in zip(sy.evolved, _rhs("L2a_2x2", entries)):
        defect = (sp.diff(entries[name], t) - rhs).subs(g.diff(t, 3), chazy)
        assert _exact(defect) == 0, name


# ---------------------------------------------------------------------------
# Reductions: each conserved quantity has zero derivative along the RHS.
# ---------------------------------------------------------------------------

def _system(name, *params):
    """The state symbols, the right-hand side and the invariants at one state of one
    row of REDUCTIONS."""
    _, _, columns, build = REDUCTIONS[name]
    f, invariants = build(*params)
    return sp.symbols(columns, real=True), f, lambda *state: [
        *invariants(state).values()]


@pytest.mark.parametrize("variant", [v for v in REDUCTIONS if v.startswith("Chazy")])
def test_chazy_second_integral_is_conserved(variant):
    # ChazyIII divides by G behind a |G| < 1e-9 guard; G = 1 + g^2 with g real
    # keeps the guard decidable (always false) and the identity general in g.
    g = sp.Symbol("g", real=True)
    state, f, invariants = _system(variant)
    at = {G: 1 + g ** 2} if variant == "ChazyIII" else {}
    rhs = list(f(0.0, tuple(sp.sympify(v).subs(at) for v in state)))
    integral, = invariants(*state)
    # the table's row is the public second integral, closed by B or Phi
    phi, b, _ = chazy_state_phi_B(variant, state)
    closing = b if variant in ("ChazyV", "ChazyV_shifted") else phi
    assert _exact(integral - chazy_second_integral(G, G1, G2, closing, variant)) == 0
    total = sum(sp.diff(integral, v).subs(at) * r for v, r in zip(state, rhs))
    assert sp.simplify(_exact(total)) == 0


def test_boussinesq_third_integral_is_conserved():
    state, f, invariants = _system("Boussinesq", ALPHA, BETA, GAMMA)
    integral, = invariants(*state)
    assert _ddt(integral, state, list(f(0.0, state))) == 0


def test_elliptic_constraint_is_conserved():
    state, f, invariants = _system("Elliptic", ALPHA)
    assert state == (B, E, C)
    assert _ddt(invariants(*state)[1], state, list(f(0.0, state))) == 0


def test_elliptic_r1_is_conserved_only_where_elliptic_point_starts():
    # r1 drifts in general: d r1/dt = -2 B E^2 (B^2 - C E + 2 alpha E^2 - 4 E + 1).  On
    # r2 = 0 that is 4 B E^3 u with u = C - alpha E + 2, and u' = -B u, so the set
    # r2 = u = 0 where elliptic_point starts is kept by the flow and r1' vanishes on it.
    state, f, invariants = _system("Elliptic", ALPHA)
    rhs = list(f(0.0, state))
    r1, r2 = invariants(*state)
    u = C - ALPHA * E + 2
    assert _ddt(r1, state, rhs) == _exact(
        -2 * B * E ** 2 * (B ** 2 - C * E + 2 * ALPHA * E ** 2 - 4 * E + 1))
    assert _exact(_ddt(r1, state, rhs) - (-2 * B * E ** 2 * r2 + 4 * B * E ** 3 * u)) == 0
    assert _exact(_ddt(u, state, rhs) + B * u) == 0

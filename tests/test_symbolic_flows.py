"""The flow and reduction right-hand sides checked against their derivations with sympy.

L2a: dC2/ds = [C2, C1] in the 3x3 and 2x2 layouts of ``algebra_core``.
L3: dC1/dy = adj(C1) [C1, C2] for the det-rescaled flow; the unimodular flow
agrees with it on det C1 = 1, and the simple flow is its M = N = 0 case.
Each reduction conserves its integral identically along its right-hand side.
Every check is exact: the float coefficients of the code are converted to
rationals and each difference must expand to 0.
"""

import pytest

from deformcs import continuous_flows, reductions
from deformcs.continuous_flows import SYSTEMS
from deformcs.reductions import chazy_second_integral, chazy_state_phi_B

sp = pytest.importorskip("sympy")

A, B, C, D, E, G, L, M, N = sp.symbols("A B C D E G L M N", real=True)
G1, G2, PHI = sp.symbols("G1 G2 phi", real=True)
ALPHA, BETA, GAMMA = sp.symbols("alpha beta gamma", real=True)


def _exact(expr):
    """``expr`` with every float written as the rational it stands for, expanded."""
    return sp.expand(sp.nsimplify(expr, rational=True))


def _rhs(system_id, values):
    sy = SYSTEMS[system_id]
    return list(sy.rhs(tuple(values[k] for k in sy.evolved), tuple(values[k] for k in sy.free)))


def _ddt(integral, state, rhs):
    """The derivative of ``integral`` along the vector field ``rhs`` on ``state``."""
    return _exact(sum(sp.diff(integral, v) * f for v, f in zip(state, rhs)))


class _Captured(Exception):
    pass


def _rhs_handed_to_integrator(monkeypatch, run):
    """The right-hand side that ``run`` passes to ``integrate_fixed``."""
    seen = []

    def capture(f, *args, **kwargs):
        seen.append(f)
        raise _Captured

    monkeypatch.setattr(reductions, "integrate_fixed", capture)
    with pytest.raises(_Captured):
        run()
    return seen[0]


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


def test_l3_detnorm_rhs_is_adjugate_times_bracket(monkeypatch):
    # With the tolerance at 0 the singular guard |det| < tol is decidable for
    # real symbols (always false), so the RHS runs on expressions unchanged.
    monkeypatch.setattr(continuous_flows, "DEGENERACY_TOL", 0)
    C1 = sp.Matrix([[B, E], [C, G]])
    C2 = sp.Matrix([[E, M], [G, N]])
    want = C1.adjugate() * (C1 * C2 - C2 * C1)
    rhs = _rhs("L3_detnorm", dict(B=B, C=C, E=E, G=G, M=M, N=N))
    assert [_exact(r - w) for r, w in zip(rhs, want)] == [0] * 4  # row-major B, E, C, G


def test_l3_unimodular_agrees_with_detnorm_on_det_one(monkeypatch):
    monkeypatch.setattr(continuous_flows, "DEGENERACY_TOL", 0)
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

@pytest.mark.parametrize("variant", ["ChazyV", "ChazyV_shifted", "ChazyVII", "ChazyVIII",
                                     "ChazyIII"])
def test_chazy_second_integral_is_conserved(variant):
    # ChazyIII divides by G behind a |G| < 1e-9 guard; G = 1 + g^2 with g real
    # keeps the guard decidable (always false) and the identity general in g.
    g = sp.Symbol("g", real=True)
    at = {G: 1 + g ** 2} if variant == "ChazyIII" else {}
    state = {"ChazyVII": (G, G1, G2, B), "ChazyIII": (G, G1, G2, PHI, B)}.get(variant, (G, G1, G2))
    _, f = reductions._chazy_system(variant)
    rhs = list(f(0.0, tuple(sp.sympify(v).subs(at) for v in state)))
    phi, b, _ = chazy_state_phi_B(variant, state)
    closing = b if variant in ("ChazyV", "ChazyV_shifted") else phi
    integral = chazy_second_integral(G, G1, G2, closing, variant)
    total = sum(sp.diff(integral, v).subs(at) * r for v, r in zip(state, rhs))
    assert sp.simplify(_exact(total)) == 0


def test_boussinesq_third_integral_is_conserved(monkeypatch):
    f = _rhs_handed_to_integrator(monkeypatch, lambda: reductions.integrate_boussinesq(
        (0.0, 0.0), ALPHA, BETA, GAMMA, (0.0, 1.0), 0.1))
    E1 = sp.Symbol("E1", real=True)
    integral = reductions.boussinesq_rhs_and_companions(E, E1, ALPHA, BETA, GAMMA)[2]["I3"]
    assert _ddt(integral, (E, E1), list(f(0.0, (E, E1)))) == 0


def test_elliptic_constraint_is_conserved(monkeypatch):
    f = _rhs_handed_to_integrator(monkeypatch, lambda: reductions.integrate_elliptic(
        (0.0, 0.0, 0.0), ALPHA, (0.0, 1.0), 0.1))
    state = (B, E, C)
    assert _ddt(B * B + C * E + 1, state, list(f(0.0, state))) == 0

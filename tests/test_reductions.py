import math

import numpy as np
import pytest

from deformcs.algebra_core import MatrixPair
from deformcs.continuous_flows import first_integrals, spectral_invariants, state_from_entries
from deformcs.dda_registry import SampledField, cs_residual
from deformcs.errors import InvalidInputError
from deformcs.reductions import (CHAZY_VARIANTS, REDUCTIONS, boussinesq_pair,
                                 boussinesq_rhs_and_companions, chazy_eigenvalues, chazy_pair,
                                 chazy_rhs, chazy_second_integral, chazy_state_phi_B,
                                 elliptic_point, elliptic_system, integrate_boussinesq,
                                 integrate_chazy, integrate_elliptic, integrate_reduction,
                                 reconstruct_from_G)

CHAZY_RUNS = [
    ("ChazyV", (1.0, 0.5, -0.3), {}),
    ("ChazyV_shifted", (0.8, 0.2, -0.1), {}),
    ("ChazyVII", (0.9, 0.3, -0.2), dict(b0=0.0)),
    ("ChazyVIII", (0.7, 0.25, 0.1), {}),
    ("ChazyIII", (1.0, 0.5, -0.3), dict(phi0=0.5, b0=0.2)),
]


# ---------------------------------------------------------------------------
# Right-hand sides.
# ---------------------------------------------------------------------------

def test_chazy_rhs_examples():
    assert chazy_rhs("ChazyV", 1.0, 1.0, 0.0) == -6.0
    assert chazy_rhs("ChazyVIII", 1.0, 2.0, 123.0) == 12.0
    assert chazy_rhs("ChazyIII", 1.0, 1.0, 1.0) == -1.0


def test_chazy_rhs_unknown_variant():
    with pytest.raises(InvalidInputError):
        chazy_rhs("ChazyIX", 0.0, 0.0, 0.0)


def test_variants_agree_with_generic():
    rng = np.random.default_rng(31)
    for _ in range(50):
        G, G1, G2 = rng.uniform(-2, 2, size=3)
        # Phi = 0 gives Chazy V
        assert chazy_rhs("Generic", G, G1, G2, phi=0.0, dphi=0.0) == pytest.approx(
            chazy_rhs("ChazyV", G, G1, G2), rel=1e-12, abs=1e-12)
        # Phi = G' (so Phi' = G'') gives Chazy VII
        assert chazy_rhs("Generic", G, G1, G2, phi=G1, dphi=G2) == pytest.approx(
            chazy_rhs("ChazyVII", G, G1, G2), rel=1e-12, abs=1e-12)
        # B = 2G: Phi = 2G' + 2G^2, Phi' = 2G'' + 4GG' gives Chazy VIII
        assert chazy_rhs("Generic", G, G1, G2, phi=2 * G1 + 2 * G * G,
                         dphi=2 * G2 + 4 * G * G1) == pytest.approx(
            chazy_rhs("ChazyVIII", G, G1, G2), rel=1e-12, abs=1e-12)


def test_second_integral_examples():
    assert chazy_second_integral(0.0, 1.0, 0.0, 0.0, "ChazyV") == 0.5
    assert chazy_second_integral(0.0, 0.0, 0.0, 1.0, "ChazyV_shifted") == 0.0


def test_chazy_eigenvalues_from_integral():
    lam = chazy_eigenvalues(2.0)
    assert lam[0] == -1.0 and lam[1] == 1.0
    lam = chazy_eigenvalues(-2.0)
    assert lam[1] == pytest.approx(1j, abs=1e-15)


# ---------------------------------------------------------------------------
# Conservation along trajectories.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant,init,kw", CHAZY_RUNS)
def test_chazy_second_integral_conserved(variant, init, kw):
    traj = integrate_chazy(variant, init, (0.0, 0.5), 1e-3, **kw)
    assert traj.status == "completed"
    i2 = traj.invariants["I2_chazy"]
    assert np.max(np.abs(i2 - i2[0])) < 1e-8


def test_chazy_v_from_rest_state():
    traj = integrate_chazy("ChazyV", (1.0, 0.0, 0.0), (0.0, 0.5), 1e-3)
    i2 = traj.invariants["I2_chazy"]
    assert np.max(np.abs(i2 - i2[0])) < 1e-8


# ---------------------------------------------------------------------------
# Reconstruction back to 2x2 structure constants.
# ---------------------------------------------------------------------------

def test_reconstruct_constant_G():
    g = 0.7
    e = reconstruct_from_G(g, 0.0, 0.0, B=0.0)
    assert e["E"] == pytest.approx(-g * g / 2)
    assert e["N"] == pytest.approx(g * g / 2)
    assert e["M"] == pytest.approx(-g ** 3 / 2)
    assert e["C"] == 1.0
    # stationarity of the E equation:  E' = MC - EG = 0
    assert e["M"] * e["C"] - e["E"] * e["G"] == pytest.approx(0.0, abs=1e-15)


def test_reconstruct_zero_state():
    e = reconstruct_from_G(0.0, 0.0, 0.0, B=0.0)
    assert e == {"B": 0.0, "C": 1.0, "E": 0.0, "G": 0.0, "M": 0.0, "N": 0.0}


def test_reconstruct_traceless():
    rng = np.random.default_rng(32)
    for _ in range(20):
        G, G1, G2, B, B1 = rng.uniform(-2, 2, size=5)
        e = reconstruct_from_G(G, G1, G2, B, B1)
        assert e["E"] + e["N"] == 0.0


def test_second_integral_equals_twice_matrix_integral():
    # the third-order-equation integral is exactly 2 (E^2 + MG) = 2 I2 of the
    # 2x2 flow, and its eigenvalue formula matches the matrix spectrum
    rng = np.random.default_rng(33)
    for _ in range(20):
        G, G1, G2, B, B1 = rng.uniform(-1.5, 1.5, size=5)
        e = reconstruct_from_G(G, G1, G2, B, B1)
        phi = B1 + 0.5 * B * B
        i2 = chazy_second_integral(G, G1, G2, phi, "Generic")
        matrix_i2 = e["E"] ** 2 + e["M"] * e["G"]
        assert i2 == pytest.approx(2.0 * matrix_i2, rel=1e-10, abs=1e-12)
        st = state_from_entries("L2a_2x2", e)
        lam = sorted(z.real for z in spectral_invariants("L2a_2x2", st))
        want = sorted(z.real for z in chazy_eigenvalues(i2))
        if i2 >= 0:
            assert lam[0] == pytest.approx(want[0], abs=1e-10)
            assert lam[1] == pytest.approx(want[1], abs=1e-10)


def _sampled_residual(variant, init, x0, kw, h=1e-4):
    pairs = []
    for x in (x0 - h, x0, x0 + h):
        traj = integrate_chazy(variant, init, (0.0, math.log(x)), 1e-3, **kw)
        row = traj.states[-1]
        phi, B, B1 = chazy_state_phi_B(variant, row)
        pairs.append(chazy_pair(row[0], row[1], row[2], B, B1))
    fld = SampledField(dda="L2a", grid=np.array([x0 - h, x0, x0 + h]), pairs=tuple(pairs))
    return cs_residual("L2a", fld, 1).norms[0]


@pytest.mark.parametrize("variant,init,kw", CHAZY_RUNS)
def test_reconstruction_satisfies_lax_flow(variant, init, kw):
    assert _sampled_residual(variant, init, 1.4, kw) < 1e-5


def test_a_variant_without_a_reconstruction_is_named():
    with pytest.raises(InvalidInputError,
                       match="^variant 'Generic' carries no reconstruction data$"):
        chazy_state_phi_B("Generic", np.array([1.0, 0.5, -0.3]))


def test_reconstruction_residual_is_second_order():
    r1 = _sampled_residual("ChazyV", (1.0, 0.5, -0.3), 1.4, {}, h=1e-3)
    r2 = _sampled_residual("ChazyV", (1.0, 0.5, -0.3), 1.4, {}, h=5e-4)
    assert r1 / r2 == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------------------
# Boussinesq reduction.
# ---------------------------------------------------------------------------

def test_boussinesq_equilibrium():
    alpha, beta = 0.5, 0.3  # 6E^2 - 4 alpha E - beta has real roots
    roots = np.roots([6.0, -4.0 * alpha, -beta])
    E = float(roots[0].real)
    e2, _, _ = boussinesq_rhs_and_companions(E, 0.0, alpha, beta, 0.7)
    assert e2 == pytest.approx(0.0, abs=1e-12)
    traj = integrate_boussinesq((E, 0.0), alpha, beta, 0.7, (0.0, 0.3), 1e-3)
    assert np.max(np.abs(traj.states[:, 0] - E)) < 1e-12


def test_boussinesq_example_values():
    gamma = 0.9
    e2, entries, ints = boussinesq_rhs_and_companions(1.0, 0.0, 0.0, 0.0, gamma)
    assert e2 == 6.0
    assert ints["I3"] == pytest.approx(gamma * gamma + 1.0)
    assert entries["A"] == 2.0 and entries["N"] == -1.0
    assert entries["C"] == 1.0 and entries["B"] == 0.0 and entries["G"] == 0.0


def test_boussinesq_i3_conserved():
    traj = integrate_boussinesq((1.0, 0.0), 0.0, 0.0, 0.0, (0.0, 0.3), 1e-3)
    i3 = traj.invariants["I3"]
    assert np.max(np.abs(i3 - i3[0])) < 1e-8


def test_boussinesq_companions_satisfy_3x3_flow():
    alpha, beta, gamma = 0.3, -0.2, 0.5
    h, x0 = 1e-4, 1.5
    pairs = []
    for x in (x0 - h, x0, x0 + h):
        traj = integrate_boussinesq((1.0, 0.0), alpha, beta, gamma,
                                    (0.0, math.log(x)), 1e-3)
        E, E1 = traj.states[-1]
        pairs.append(boussinesq_pair(E, E1, alpha, beta, gamma))
    fld = SampledField(dda="L2a", grid=np.array([x0 - h, x0, x0 + h]), pairs=tuple(pairs))
    assert cs_residual("L2a", fld, 1).norms[0] < 1e-5


def test_boussinesq_i1_i2_exact_constants():
    alpha, beta = 0.4, 0.8
    st = state_from_entries("L2a_3x3",
                            boussinesq_rhs_and_companions(0.7, 0.2, alpha, beta, 0.1)[1])
    ints = first_integrals("L2a_3x3", st)
    assert ints["I1"] == pytest.approx(alpha, abs=1e-14)
    assert ints["I2"] == pytest.approx(0.5 * (beta + alpha * alpha), abs=1e-14)


# ---------------------------------------------------------------------------
# Elliptic reduction.
# ---------------------------------------------------------------------------

def test_elliptic_consistent_point():
    B, E, C = elliptic_point(1.0, 0.5)
    assert B == pytest.approx(math.sqrt(0.5))
    assert C == pytest.approx(-1.5)
    _, (r1, r2) = elliptic_system(B, E, C, 0.5)
    assert abs(r1) < 1e-14 and abs(r2) < 1e-14


def test_elliptic_zero_equilibrium():
    derivs, _ = elliptic_system(0.0, 0.0, 0.37, 0.5)
    assert derivs == (0.0, 0.0, 0.0)


def test_elliptic_point_needs_real_branch():
    with pytest.raises(InvalidInputError):
        elliptic_point(-1.0, 1.0)  # B^2 = -1 - 1 - 2 < 0


def test_elliptic_invariants_conserved():
    start = elliptic_point(1.0, 0.5)
    traj = integrate_elliptic(start, 0.5, (0.0, 0.5), 1e-3)
    assert traj.status == "completed"
    assert np.max(np.abs(traj.invariants["r1"])) < 1e-8
    assert np.max(np.abs(traj.invariants["r2"])) < 1e-8


def test_elliptic_preserves_b_plus_g_constraint():
    # G = -B by construction: the flow preserves det C1 = 1 i.e. r2 = 0, and
    # the reconstructed pair stays inside the unimodular L3 family
    start = elliptic_point(0.8, 0.3)
    traj = integrate_elliptic(start, 0.3, (0.0, 0.4), 1e-3)
    for B, E, C in traj.states[:: 50]:
        pair = MatrixPair.from_entries(2, dict(B=B, C=C, E=E, G=-B, M=0.0, N=1.0))
        assert abs(B * (-B) - C * E - 1.0) < 1e-8
        st = state_from_entries("L3_unimodular", pair.entries())
        ints = first_integrals("L3_unimodular", st)
        assert ints["I1"] == pytest.approx(0.0, abs=1e-12)
        assert ints["I2"] == pytest.approx(-1.0, abs=1e-8)


def test_boussinesq_i1_i2_bit_stable_along_trajectory():
    alpha, beta, gamma = 0.4, 0.8, -0.2
    traj = integrate_boussinesq((0.6, 0.1), alpha, beta, gamma, (0.0, 0.3), 1e-3)
    ref = None
    for E, E1 in traj.states[::25]:
        ints = boussinesq_rhs_and_companions(E, E1, alpha, beta, gamma)[2]
        if ref is None:
            ref = (ints["I1"], ints["I2"])
        # I1, I2 are functions of the parameters only: identical bits each step
        assert (ints["I1"], ints["I2"]) == ref
        # the matrix-trace route reconstructs them up to float cancellation
        st = state_from_entries(
            "L2a_3x3", boussinesq_rhs_and_companions(E, E1, alpha, beta, gamma)[1])
        matrix_ints = first_integrals("L2a_3x3", st)
        assert matrix_ints["I1"] == pytest.approx(ref[0], abs=1e-14)
        assert matrix_ints["I2"] == pytest.approx(ref[1], abs=1e-14)


# ---------------------------------------------------------------------------
# The table of reductions and the one run that reads it.
# ---------------------------------------------------------------------------

def test_table_rows_every_integrable_variant_and_its_own_params():
    assert [v for v in REDUCTIONS if v.startswith("Chazy")] == [
        v for v in CHAZY_VARIANTS if v != "Generic"]
    invariants = {"Boussinesq": ["I3"], "Elliptic": ["r1", "r2"]}
    for name, (entries, params, columns, _) in REDUCTIONS.items():
        assert columns[:len(entries)] == entries and len(params) >= len(columns) - len(entries)
        traj = integrate_reduction(name, (0.9, 0.1, 0.2)[:len(entries)], {}, (0.0, 0.01), 1e-3)
        assert (traj.kind, traj.columns) == (name, columns)
        assert list(traj.invariants) == invariants.get(name, ["I2_chazy"])
        assert traj.states.shape == (11, len(columns))
        assert all(v.shape == (11,) for v in traj.invariants.values())


@pytest.mark.parametrize("variant, params", [("ChazyV", {"b0": 0.1}),
                                             ("ChazyV_shifted", {"phi0": 0.0}),
                                             ("ChazyVIII", {"b0": 0.0, "phi0": 0.0}),
                                             ("ChazyVII", {"phi0": 0.5})])
def test_chazy_variants_reject_params_they_do_not_read(variant, params):
    with pytest.raises(InvalidInputError, match=f"{variant} params has unknown entries"):
        integrate_chazy(variant, (1.0, 0.5, -0.3), (0.0, 0.5), 1e-3, **params)


def test_carried_columns_start_at_their_params_and_a_left_out_param_is_zero():
    traj = integrate_chazy("ChazyIII", (1.0, 0.5, -0.3), (0.0, 0.0), 1e-3, phi0=0.5, b0=0.2)
    assert traj.states.tolist() == [[1.0, 0.5, -0.3, 0.5, 0.2]]
    same = integrate_reduction("ChazyVII", (0.9, 0.3, -0.2), {"b0": 0.0}, (0.0, 0.1), 1e-3)
    left_out = integrate_reduction("ChazyVII", (0.9, 0.3, -0.2), {}, (0.0, 0.1), 1e-3)
    assert same.states.tobytes() == left_out.states.tobytes()


@pytest.mark.parametrize("name, initial, named", [
    ("Generic", (1.0, 0.5, -0.3), "unknown reduction 'Generic'"),
    ("ChazyV", (1.0, 0.5), r"^ChazyV takes the initial entries \('G', 'G1', 'G2'\), got 2$"),
    ("Elliptic", (0.5, 0.5, -2.5, 1.0), "Elliptic takes the initial entries")])
def test_integrate_reduction_rejects_unknown_names_and_short_starts(name, initial, named):
    with pytest.raises(InvalidInputError, match=named):
        integrate_reduction(name, initial, {}, (0.0, 0.5), 1e-3)

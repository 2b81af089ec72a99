import json
import math
import re

import numpy as np
import pytest

from deformcs import cli
from deformcs.algebra_core import MatrixPair
from deformcs.continuous_flows import (SYSTEMS, first_integrals, get_system, integrate,
                                       spectral_invariants, state_from_entries)
from deformcs.closed_forms import SolutionFamily, eval_family
from deformcs.errors import InvalidInputError
from deformcs.integrators import integrate_fixed

from _oracles import commuting_2x2_pair


def _state(system, **entries):
    return state_from_entries(system, entries)


def _rhs(system, entries):
    """d(entry)/ds for every evolved entry: the system's RHS at a checked state."""
    sy = get_system(system)
    return dict(zip(sy.evolved, sy.rhs(*sy.split(state_from_entries(system, entries)))))


def _row(traj, i):
    """Row i of a trajectory as {column: value}."""
    return dict(zip(traj.columns, traj.states[i].tolist()))


# ---------------------------------------------------------------------------
# Vector fields.
# ---------------------------------------------------------------------------

def test_vector_field_l2a_2x2_example():
    st = _state("L2a_2x2", B=0, C=0, E=1, G=1, M=-1, N=-1)
    assert _rhs("L2a_2x2", st) == {"E": -1.0, "G": -1.0, "M": 1.0, "N": 1.0}


def test_vector_field_l3_simple_example():
    beta, alpha, delta, gamma = 0.4, 1.0, -0.2, 0.9
    st = _state("L3_simple", B=beta, E=alpha, C=delta, G=gamma)
    assert _rhs("L3_simple", st) == {
        "B": alpha, "E": 0.0, "C": gamma - beta, "G": -alpha}


@pytest.mark.parametrize("system", ["L2a_3x3", "L2a_2x2", "L3_detnorm"])
def test_stationary_commuting_point_is_fixed(system):
    if system == "L2a_3x3":
        # a unital associative algebra: commuting pair, all RHS vanish
        from _oracles import polynomial_algebra_pair
        pair = polynomial_algebra_pair(0.3, -0.5, 0.2)
        entries = pair.entries()
    else:
        rng = np.random.default_rng(21)
        while True:
            pair = commuting_2x2_pair(rng)
            e = pair.entries()
            if abs(e["B"] * e["G"] - e["C"] * e["E"]) > 0.05:
                break
        entries = pair.entries()
    st = state_from_entries(system, entries)
    rhs = _rhs(system, st)
    assert max(abs(v) for v in rhs.values()) < 1e-13
    traj = integrate(system, st, (0.0, 0.5), 1e-2)
    assert traj.status == "completed"
    end = _row(traj, -1)
    for k, v in entries.items():
        assert end[k] == pytest.approx(v, abs=1e-12)


def test_l2a_3x3_rhs_matches_lax_bracket():
    rng = np.random.default_rng(22)
    e = {k: rng.uniform(-1, 1) for k in ("A", "B", "C", "D", "E", "G", "L", "M", "N")}
    st = state_from_entries("L2a_3x3", e)
    rhs = _rhs("L2a_3x3", st)
    pair = MatrixPair.from_entries(3, st)
    bracket = pair.C2 @ pair.C1 - pair.C1 @ pair.C2
    # C2 entry positions: D (0,1), L (0,2), E (1,1), M (1,2), G (2,1), N (2,2)
    pos = {"D": (0, 1), "L": (0, 2), "E": (1, 1), "M": (1, 2), "G": (2, 1), "N": (2, 2)}
    for name, (r, c) in pos.items():
        assert rhs[name] == pytest.approx(bracket[r, c], abs=1e-14)


@pytest.mark.parametrize("entries, named", [
    (dict(B=0, C=0, E=1, G=1, M=-1), "missing entries ['N']"),
    (dict(B=0, C=0, E=math.inf, G=1, M=-1, N=-1), "entry['E'] must be a finite number, got inf"),
    (dict(B=0, C=math.nan, E=1, G=1, M=-1, N=-1), "entry['C'] must be a finite number, got nan"),
])
def test_state_rejects_missing_or_non_finite_entries_by_name(entries, named):
    with pytest.raises(InvalidInputError, match=re.escape(named)):
        state_from_entries("L2a_2x2", entries)


def test_l3_simple_state_is_the_m_n_zero_case():
    st = state_from_entries("L3_simple", dict(B=1, E=2, C=3, G=4, M=5))
    assert st == {"B": 1.0, "E": 2.0, "C": 3.0, "G": 4.0, "M": 0.0, "N": 0.0}


def test_unknown_system_rejected():
    with pytest.raises(InvalidInputError, match="unknown flow system 'L9_2x2'"):
        get_system("L9_2x2")


# ---------------------------------------------------------------------------
# First integrals and spectra.
# ---------------------------------------------------------------------------

def test_first_integrals_2x2_example():
    st = _state("L2a_2x2", B=0, C=0, E=1, G=2, M=3, N=4)
    ints = first_integrals("L2a_2x2", st)
    assert ints["I1"] == 5.0
    assert ints["I2"] == 14.5


def test_first_integrals_nilpotent_family():
    fam = SolutionFamily("Nilpotent2x2", {"alpha": 0.7, "beta": -0.4, "gamma": 0.9})
    for x in (2.0, 5.0):
        pair = eval_family(fam, x)
        st = state_from_entries("L2a_2x2", pair.entries())
        ints = first_integrals("L2a_2x2", st)
        assert ints["I1"] == pytest.approx(0.7, abs=1e-12)
        assert ints["I2"] == pytest.approx(0.9 + 0.5 * 0.7 ** 2, abs=1e-12)


def test_first_integrals_poly_l3_family():
    a, b, g = 0.5, 1.2, 1.1
    d = (b * g - 1.0) / a
    fam = SolutionFamily("PolyL3", {"alpha": a, "beta": b, "gamma": g, "delta": d})
    for y in (-1.0, 0.0, 2.0):
        pair = eval_family(fam, y)
        st = state_from_entries("L3_simple", pair.entries())
        ints = first_integrals("L3_simple", st)
        assert ints["I1"] == pytest.approx(b + g, abs=1e-12)
        assert ints["I2"] == pytest.approx(0.5 * (b * b + g * g + 2 * a * d), abs=1e-12)


def test_spectral_invariants_quadratic_formula():
    st = _state("L2a_2x2", B=0, C=0, E=1, G=2, M=3, N=4)
    lam = spectral_invariants("L2a_2x2", st)
    expect = sorted([(5 - math.sqrt(33)) / 2, (5 + math.sqrt(33)) / 2])
    assert lam[0].real == pytest.approx(expect[0], abs=1e-14)
    assert lam[1].real == pytest.approx(expect[1], abs=1e-14)
    assert lam[0].imag == lam[1].imag == 0.0


def test_spectral_invariants_nilpotent_family():
    a, g = 0.6, 0.3
    fam = SolutionFamily("Nilpotent2x2", {"alpha": a, "beta": 1.0, "gamma": g})
    pair = eval_family(fam, 3.0)
    st = state_from_entries("L2a_2x2", pair.entries())
    lam = spectral_invariants("L2a_2x2", st)
    root = math.sqrt(a * a + 4 * g)
    assert lam[0].real == pytest.approx(0.5 * (a - root), abs=1e-12)
    assert lam[1].real == pytest.approx(0.5 * (a + root), abs=1e-12)


def test_spectral_discriminant_squares_a_minus_d_correctly_rounded():
    # a - d = B = -0.6250000000000194 squares to 0.3906250000000243 when correctly rounded,
    # one ulp from what pow() gives; the discriminant (a - d)^2 + 4bc is 2.8e-17, so that
    # ulp moves both roots by ~1.5e-9.  The roots to 50 digits, by mpmath:
    st = _state("L3_simple", B=-0.6250000000000194, E=1.0, C=-0.09765625000000606, G=0.0)
    lam = spectral_invariants("L3_simple", st)
    assert lam.imag.tolist() == [0.0, 0.0]
    for got, want in zip(lam.real, (-0.31250000263418776, -0.31249999736583167)):
        assert abs(got - want) <= 1.5e-9


def test_spectral_double_eigenvalue():
    st = _state("L2a_2x2", B=0, C=0, E=2, G=0, M=3, N=2)  # E = N, GM = 0
    lam = spectral_invariants("L2a_2x2", st)
    assert lam.tolist() == [(2 + 0j), (2 + 0j)]


def test_det_trace_identity_2x2():
    rng = np.random.default_rng(23)
    for _ in range(20):
        e = {k: rng.uniform(-2, 2) for k in ("B", "C", "E", "G", "M", "N")}
        st = state_from_entries("L2a_2x2", e)
        ints = first_integrals("L2a_2x2", st)
        det = float(np.linalg.det(MatrixPair.from_entries(2, st).C2))
        assert det == pytest.approx(0.5 * ints["I1"] ** 2 - ints["I2"], abs=1e-12)


# ---------------------------------------------------------------------------
# Integration.
# ---------------------------------------------------------------------------

def test_integrate_matches_nilpotent_closed_form():
    st = _state("L2a_2x2", B=0, C=0, E=1, G=1, M=-1, N=-1)  # Eq. 51 at x = e
    traj = integrate("L2a_2x2", st, (1.0, 2.0), 1e-3)
    end = _row(traj, -1)
    assert end["E"] == pytest.approx(0.5, abs=1e-8)
    assert end["G"] == pytest.approx(0.5, abs=1e-8)
    assert end["M"] == pytest.approx(-0.5, abs=1e-8)
    assert end["N"] == pytest.approx(-0.5, abs=1e-8)
    assert end["x"] == pytest.approx(math.e ** 2)


def test_integrate_l3_simple_matches_polynomial_solution():
    a, b, g = 0.8, 1.3, 1.0
    d = (b * g - 1.0) / a
    st = _state("L3_simple", B=b, E=a, C=d, G=g)
    traj = integrate("L3_simple", st, (0.0, 0.7), 1e-3)
    fam = SolutionFamily("PolyL3", {"alpha": a, "beta": b, "gamma": g, "delta": d})
    want = eval_family(fam, 0.7).entries()
    got = _row(traj, -1)
    for k in ("B", "E", "C", "G"):
        assert got[k] == pytest.approx(want[k], abs=1e-10)


def test_order_four_convergence():
    # global error against the Eq. 51 closed form scales as step^4
    st = _state("L2a_2x2", B=0, C=0, E=1, G=1, M=-1, N=-1)
    exact = {"E": 0.5, "G": 0.5, "M": -0.5, "N": -0.5}
    errs = []
    for step in (0.1, 0.05):
        traj = integrate("L2a_2x2", st, (1.0, 2.0), step)
        end = _row(traj, -1)
        errs.append(max(abs(end[k] - exact[k]) for k in exact))
    ratio = errs[0] / errs[1]
    assert 4.0 <= ratio <= 64.0  # 16x within a factor of 4


def test_conservation_along_random_trajectory():
    rng = np.random.default_rng(24)
    e = {k: rng.uniform(-0.6, 0.6) for k in ("E", "G", "M", "N")}
    e.update({k: rng.uniform(-0.8, 0.8) for k in ("B", "C")})
    traj = integrate("L2a_2x2", state_from_entries("L2a_2x2", e), (0.0, 1.0), 1e-3)
    assert traj.status == "completed"
    for k in ("I1", "I2"):
        ref = traj.invariants[k][0]
        assert np.all(np.abs(traj.invariants[k] - ref) <= 1e-8 * max(1.0, abs(ref)))
    eig = traj.invariants["eigenvalues"]
    assert np.max(np.abs(eig - eig[0])) < 1e-8


def test_l3_unimodular_keeps_det_one():
    rng = np.random.default_rng(25)
    while True:
        e = {k: rng.uniform(-1, 1) for k in ("B", "C", "E", "G")}
        det = e["B"] * e["G"] - e["C"] * e["E"]
        if det > 0.2:
            break
    s = 1.0 / math.sqrt(det)
    for k in ("B", "C", "E", "G"):
        e[k] *= s
    e.update({"M": 0.3, "N": -0.4})
    traj = integrate("L3_unimodular", state_from_entries("L3_unimodular", e),
                     (0.0, 1.0), 1e-3)
    v = dict(zip(traj.columns, traj.states.T))
    assert np.all(np.abs(v["B"] * v["G"] - v["C"] * v["E"] - 1.0) < 1e-8)


def test_shift_invariance_of_autonomous_flow():
    e = dict(B=0.2, C=-0.3, E=0.4, G=0.5, M=-0.1, N=0.3)
    t1 = integrate("L2a_2x2", state_from_entries("L2a_2x2", e), (0.0, 1.0), 1e-2)
    t2 = integrate("L2a_2x2", state_from_entries("L2a_2x2", e), (5.0, 6.0), 1e-2)
    assert t1.columns[0] == "x"
    assert len(t1.ts) == len(t2.ts)
    assert np.all(np.abs(t2.ts - (t1.ts + 5.0)) <= 1e-12)
    assert np.array_equal(t1.states[:, 1:], t2.states[:, 1:])  # every entry, x aside


@pytest.mark.parametrize("B, G", [(1.0, 1.0), (2.0, 0.5)], ids=["B=G=1", "B/G=4"])
def test_singular_l3_flow_truncates(B, G):
    e = dict(B=B, C=1.0, E=1.0, G=G, M=0.5, N=0.5)  # det C1 = BG - CE = 0, B/G - CE = 0 or 3
    traj = integrate("L3_detnorm", state_from_entries("L3_detnorm", e), (0.0, 1.0), 1e-2)
    assert traj.status == "truncated"
    assert traj.diagnostic == "SingularFlowError: det C1 = 0.000e+00 is below tolerance"
    assert len(traj.states) == 1


def test_rhs_bug_propagates_instead_of_truncating():
    def rhs(_t, y):
        raise KeyError("missing")

    with pytest.raises(KeyError, match="missing"):
        integrate_fixed(rhs, 0.0, [1.0], 1.0, 0.1)


def test_blowup_truncates_with_diagnostic():
    # G' = -G^2 from G(0) = -3 has a pole at s = 1/3
    e = dict(B=0.0, C=0.0, E=0.0, G=-3.0, M=0.0, N=0.0)
    traj = integrate("L2a_2x2", state_from_entries("L2a_2x2", e), (0.0, 1.0), 1e-3)
    assert traj.status == "truncated"
    assert "overflow" in traj.diagnostic
    assert traj.ts[-1] < 1.0


def test_empty_span_gives_single_state():
    st = _state("L2a_2x2", B=0, C=0, E=1, G=1, M=-1, N=-1)
    traj = integrate("L2a_2x2", st, (0.0, 0.0), 1e-3)
    assert len(traj.states) == 1


def test_free_entries_stay_constant():
    st = _state("L2a_2x2", B=1.0, C=1.0, E=0.3, G=0.2, M=0.1, N=-0.2)
    traj = integrate("L2a_2x2", st, (0.0, 0.5), 1e-2)
    assert traj.columns == ("x", "E", "G", "M", "N", "B", "C")
    assert np.all(traj.states[:, 5:] == 1.0)


# ---------------------------------------------------------------------------
# One start entry past the range of the 2x2 square and of the 3x3 matmul.
# ---------------------------------------------------------------------------

_HUGE_STARTS = [(system, entry, huge) for system, sy in SYSTEMS.items()
                for entry in sy.evolved for huge in (1e200, 1e300)]


def _huge_start(system, entry, huge):
    """Entries 0.1, 0.2, ... in the system's order (det C1 != 0 for L3), one of them huge."""
    entries = {k: 0.1 * (i + 1) for i, k in enumerate(get_system(system).all_entries())}
    return {**entries, entry: huge}


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("system, entry, huge", _HUGE_STARTS)
def test_huge_start_entry_truncates_quietly(system, entry, huge, tmp_path, capsys):
    initial = _huge_start(system, entry, huge)
    state = state_from_entries(system, initial)
    integrals, eigenvalues = first_integrals(system, state), spectral_invariants(system, state)
    assert set(integrals) >= {"I1", "I2"} and eigenvalues.shape == (get_system(system).n,)
    traj = integrate(system, initial, (0.0, 0.01), 0.001)
    assert traj.status == "truncated" and len(traj.ts) == 1
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps({"kind": "flow", "system": system, "initial": initial,
                                    "span": [0.0, 0.01], "step": 0.001}))
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out), "--quiet"]) == cli.EXIT_SINGULAR
    assert capsys.readouterr() == ("", "")
    assert _strict_json((out / "report.json").read_text())["status"] == "truncated"

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from deformcs.algebra_core import MatrixPair, assoc_residual, pair_from_tensor, tensor_from_pair
from deformcs.closed_forms import SolutionFamily, eval_family, family_integrals, validate_family
from deformcs.continuous_flows import first_integrals, integrate, state_from_entries
from deformcs.dda_registry import (TensorGrid, SampledField, coisotropic_bracket_defect,
                                   coisotropic_cs_residual, cs_residual, discrete_cs_defect,
                                   discrete_cs_residual, quantum_cs_parts, quantum_cs_residual)
from deformcs.discrete_flows import (discrete_oriented_assoc_residual, init_map_state,
                                     orbit, step)
from deformcs.reductions import (boussinesq_rhs_and_companions, chazy_state_phi_B,
                                 elliptic_point, integrate_boussinesq, integrate_chazy,
                                 integrate_elliptic, reconstruct_from_G)
from _oracles import (assoc_defect_loops, coisotropic_bracket_loops, discrete_defect_loops,
                      polynomial_algebra_pair, quantum_defect_loops,
                      random_smooth_tensor_grid, random_symmetric_tensor)


def _report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


def _family_fd_residuals(fam, points, h):
    rep = validate_family(fam, points, h)
    return max(rep.norms)


def test_criterion_01_closed_form_validation():
    pts = [2.0, math.e, 10.0]
    fam2 = SolutionFamily("Nilpotent2x2", {"alpha": 0.6, "beta": 1.0, "gamma": -0.3})
    fam3 = SolutionFamily("Nilpotent3x3", {"alpha": 0.4, "beta": 0.8, "gamma": -0.2,
                                           "delta": 0.3, "mu": 0.6})
    for fam in (fam2, fam3):
        r_h = _family_fd_residuals(fam, pts, 1e-4)
        r_h2 = _family_fd_residuals(fam, pts, 5e-5)
        assert r_h < 1e-6
        assert 2.5 < r_h / r_h2 < 6.0  # ~4x shrink per halving
    poly = SolutionFamily("PolyL3", {"alpha": 0.8, "beta": 1.3, "gamma": 1.0,
                                     "delta": (1.3 - 1.0) / 0.8})
    assert _family_fd_residuals(poly, [-1.0, 0.0, 2.0], 1e-4) < 1e-12
    _report(1, "closed forms satisfy their central systems at O(h^2), PolyL3 exactly")


def test_criterion_02_first_integral_values():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        a, b, g = rng.uniform(-1.5, 1.5, size=3)
        fam = SolutionFamily("Nilpotent2x2", {"alpha": a, "beta": b, "gamma": g})
        want = family_integrals(fam)
        assert want["I1"] == a and want["I2"] == g + 0.5 * a * a
        for x in (2.0, math.e):
            st = state_from_entries("L2a_2x2", eval_family(fam, x).entries())
            got = first_integrals("L2a_2x2", st)
            for k in want:
                assert abs(got[k] - want[k]) <= 1e-12
        a, b, g, dd, mu = rng.uniform(-1.5, 1.5, size=5)
        fam3 = SolutionFamily("Nilpotent3x3", {"alpha": a, "beta": b, "gamma": g,
                                               "delta": dd, "mu": mu})
        want3 = family_integrals(fam3)
        assert want3["I3"] == pytest.approx(
            ((a + b) ** 3 - b ** 3) / 3 + (a + b) * (mu + b * (a + 2 * b)) - g * dd, abs=1e-14)
        for x in (2.0, math.e):
            st = state_from_entries("L2a_3x3", eval_family(fam3, x).entries())
            got3 = first_integrals("L2a_3x3", st)
            for k in want3:
                assert abs(got3[k] - want3[k]) <= 1e-12
    _report(2, "family integral formulas hold to 1e-12 over 100 random draws")


def _drifts(traj):
    """Worst drift of any first integral or of the spectrum, relative to max(1, |start|)."""
    worst = 0.0
    for vals in traj.invariants.values():  # I1.., then the eigenvalue rows
        scale = max(1.0, float(np.max(np.abs(vals[0]))))
        worst = max(worst, float(np.max(np.abs(vals - vals[0]))) / scale)
    return worst


def test_criterion_03_conservation_under_flow():
    rng = np.random.default_rng(31415)
    for _ in range(6):
        e = {k: rng.uniform(-0.6, 0.6) for k in ("E", "G", "M", "N")}
        e.update({k: rng.uniform(-0.8, 0.8) for k in ("B", "C")})
        traj = integrate("L2a_2x2", state_from_entries("L2a_2x2", e), (0.0, 1.0), 1e-3)
        assert traj.status == "completed" and _drifts(traj) <= 1e-8
    for _ in range(6):
        e = {k: rng.uniform(-0.5, 0.5) for k in ("D", "E", "G", "L", "M", "N")}
        e.update({k: rng.uniform(-0.6, 0.6) for k in ("A", "B", "C")})
        traj = integrate("L2a_3x3", state_from_entries("L2a_3x3", e), (0.0, 1.0), 1e-3)
        assert traj.status == "completed" and _drifts(traj) <= 1e-8
    for _ in range(6):
        while True:
            e = {k: rng.uniform(-0.7, 0.7) for k in ("B", "C", "E", "G")}
            if abs(e["B"] * e["G"] - e["C"] * e["E"]) > 0.2:
                break
        e.update({k: rng.uniform(-0.5, 0.5) for k in ("M", "N")})
        traj = integrate("L3_detnorm", state_from_entries("L3_detnorm", e),
                         (0.0, 1.0), 1e-3)
        assert traj.status == "completed" and _drifts(traj) <= 1e-8
    _report(3, "trace integrals and spectra conserved to 1e-8 on random flows")


CHAZY_CASES = [
    ("ChazyV", (1.0, 0.5, -0.3), {}),
    ("ChazyVII", (0.9, 0.3, -0.2), dict(b0=0.0)),
    ("ChazyVIII", (0.7, 0.25, 0.1), {}),
    ("ChazyIII", (1.0, 0.5, -0.3), dict(phi0=0.5, b0=0.2)),
]


def test_criterion_04_chazy_suite():
    for variant, init, kw in CHAZY_CASES:
        traj = integrate_chazy(variant, init, (0.0, 0.5), 1e-3, **kw)
        assert traj.status == "completed"
        i2 = traj.invariants["I2_chazy"]
        assert np.max(np.abs(i2 - i2[0])) < 1e-8, variant
        # reconstruction (E, M, N, C=1 from G) against the sampled 2x2 flow
        h, x0 = 1e-4, 1.4
        pairs = []
        for x in (x0 - h, x0, x0 + h):
            t = integrate_chazy(variant, init, (0.0, math.log(x)), 1e-3, **kw)
            row = t.states[-1]
            _, B, B1 = chazy_state_phi_B(variant, row)
            pairs.append(MatrixPair.from_entries(2, reconstruct_from_G(*row[:3], B, B1)))
        fld = SampledField(dda="L2a", grid=np.array([x0 - h, x0, x0 + h]), pairs=tuple(pairs))
        assert cs_residual("L2a", fld, 1).norms[0] < 1e-5, variant
    _report(4, "Chazy V/VII/VIII/III conserve the second integral and reconstruct")


def test_criterion_05_boussinesq_reduction():
    alpha, beta, gamma = 0.3, -0.2, 0.5
    traj = integrate_boussinesq((1.0, 0.0), alpha, beta, gamma, (0.0, 0.3), 1e-3)
    i3 = traj.invariants["I3"]
    assert np.max(np.abs(i3 - i3[0])) < 1e-8
    h, x0 = 1e-4, 1.5
    pairs = []
    for x in (x0 - h, x0, x0 + h):
        t = integrate_boussinesq((1.0, 0.0), alpha, beta, gamma, (0.0, math.log(x)), 1e-3)
        E, E1 = t.states[-1]
        _, entries, _ = boussinesq_rhs_and_companions(E, E1, alpha, beta, gamma)
        pairs.append(MatrixPair.from_entries(3, entries))
    fld = SampledField(dda="L2a", grid=np.array([x0 - h, x0, x0 + h]), pairs=tuple(pairs))
    assert cs_residual("L2a", fld, 1).norms[0] < 1e-5
    _report(5, "Boussinesq reduction conserves I3 and its companions solve the 3x3 flow")


def test_criterion_06_elliptic_reduction():
    for E0, alpha in ((1.0, 0.5), (0.8, 0.3)):
        start = elliptic_point(E0, alpha)
        traj = integrate_elliptic(start, alpha, (0.0, 0.5), 1e-3)
        assert traj.status == "completed"
        assert np.max(np.abs(traj.invariants["r1"])) < 1e-8
        assert np.max(np.abs(traj.invariants["r2"])) < 1e-8
    _report(6, "elliptic reduction keeps the quartic relation and B^2+CE+1 below 1e-8")


def test_criterion_07_discrete_maps():
    # hand-derived transitions, exactly
    st = init_map_state("L4", dict(B=1, C=1, E=0, G=1, M=1, N=0))
    s1 = step("L4", st)
    assert [s1.entries()[k] for k in ("E", "G", "M", "N")] == [1.0, 0.0, 0.0, 1.0]
    s2 = step("L4", s1)
    assert [s2.entries()[k] for k in ("E", "G", "M", "N")] == [1.0, 0.0, 0.0, 1.0]

    rng = np.random.default_rng(99)
    completed = 0
    for _ in range(100):
        e = dict(B=1.0, C=1.0)
        e.update({k: rng.uniform(-1.5, 1.5) for k in ("E", "G", "M", "N")})
        state0 = init_map_state("L4", e)
        run = orbit("L4", state0, 50)
        if run.status != "completed":
            # degeneracy must be flagged in the diagnostic, never a crash
            assert "singular" in run.diagnostic or "overflow" in run.diagnostic
            continue
        completed += 1
        for values in run.invariants.values():
            ref = values[0]
            assert np.max(np.abs(values - ref)) <= 1e-10 * max(1.0, abs(ref))
    assert completed >= 90

    # a state sitting on the degeneracy is excluded-and-flagged, not a crash
    degenerate = init_map_state("L4", dict(B=1, C=1, E=0.5, G=0.5, M=0.8, N=-0.2))
    assert "E_minus_G_degenerate" in degenerate.flags
    run = orbit("L4", degenerate, 50)
    assert run.status == "truncated"

    # L2b likewise.  Conjugation orbits can grow without bound; once entries
    # reach scale s, float64 can only resolve the O(1) invariants to eps*s^2,
    # so orbits that leave the resolvable regime (entries > 1e2, i.e. the
    # 1e-10 claim would be below evaluation noise) are excluded like the
    # degenerate ones.  They are a small, flagged minority.
    completed2b = excluded2b = 0
    for _ in range(100):
        while True:
            e = {k: rng.uniform(-1.0, 1.0) for k in ("B", "C", "E", "G", "M", "N")}
            if abs(e["B"] * e["G"] - e["C"] * e["E"]) > 0.1:
                break
        run = orbit("L2b", init_map_state("L2b", e), 50)
        growth = float(np.max(np.abs(run.entries[:, 2:])))
        if run.status != "completed" or growth > 1e2:
            excluded2b += 1
            assert run.status == "truncated" or growth > 1e2  # excluded for cause
            continue
        completed2b += 1
        for k in ("I1", "I2", "det_C2"):
            ref = run.invariants[k][0]
            assert np.max(np.abs(run.invariants[k] - ref)) <= 1e-10 * max(1.0, abs(ref))
    assert completed2b >= 80 and completed2b + excluded2b == 100
    _report(7, f"L4 and L2b maps conserve their trace invariants to 1e-10 over 50 steps "
               f"({completed2b} L2b orbits kept, {excluded2b} flagged for growth)")


def test_criterion_08_gauge_solutions():
    coeffs = {"phi0": [1.0, 0.3], "phi1": [0.0, 1.0, 0.1], "phi2": [0.2, 0.0, 1.0, 0.05]}
    fam = SolutionFamily("GaugeL5", coeffs)
    rep = validate_family(fam, [-1.0, 0.0, 1.0, 2.0])
    assert max(rep.norms) <= 1e-12
    xs = np.arange(-4, 6)
    phi = np.array([np.polynomial.polynomial.polyval(xs.astype(float), np.array(c))
                    for c in (coeffs["phi0"], coeffs["phi1"], coeffs["phi2"])])
    rep97 = discrete_oriented_assoc_residual(phi, xs)
    for label, norm in zip(rep97.labels, rep97.norms):
        x = float(label.split("=")[1])
        assert abs(norm - assoc_residual(eval_family(fam, x))) <= 1e-12
    _report(8, "gauge fields solve the shift system exactly; the oriented-associativity "
               "residual equals the commutator norm")


def test_criterion_09_section3_residual_evaluators():
    # constant associative constants: all three evaluators vanish
    pair = polynomial_algebra_pair(0.4, -0.3, 0.7)
    t = tensor_from_pair(pair)
    tg = TensorGrid(c=np.broadcast_to(t.c, (4, 4, 3, 3, 3)).copy(), spacing=0.1)
    assert quantum_cs_residual(tg, hbar=0.7).norms[0] < 1e-12
    assert max(coisotropic_cs_residual(tg).norms) < 1e-12
    assert max(discrete_cs_residual(tg).norms) < 1e-12

    rng = np.random.default_rng(555)
    h = 0.05
    for trial in range(50):
        unital = trial % 2 == 0
        n = 3 if unital else 2
        c = random_smooth_tensor_grid(rng, npts=4, h=h, n=n, unital=unital)
        tg = TensorGrid(c=c, spacing=h)
        deriv, quad = quantum_cs_parts(tg, hbar=0.3)
        defect = deriv + quad
        bracket = coisotropic_bracket_defect(tg)
        pt = (1 + trial % 2, 1 + (trial // 2) % 2)
        assert np.max(np.abs(defect[pt[0] - 1, pt[1] - 1]
                             - quantum_defect_loops(c, h, 0.3, pt))) <= 1e-12
        assert np.max(np.abs(bracket[pt[0] - 1, pt[1] - 1]
                             - coisotropic_bracket_loops(c, h, pt))) <= 1e-12
        got = discrete_cs_defect(tg)
        want = discrete_defect_loops(c, (pt[0] - 1, pt[1] - 1))
        for key in want:
            assert np.max(np.abs(got[key][pt[0] - 1, pt[1] - 1] - want[key])) <= 1e-12
    _report(9, "quantum/coisotropic/discrete evaluators vanish on associative constants "
               "and match their loop oracles on 50 random fields")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(424242)
    zeros = nonzeros = 0
    for trial in range(1000):
        dim3 = trial % 2 == 0
        if trial % 4 == 0:
            # constructively associative draws
            if dim3:
                pair = polynomial_algebra_pair(*rng.uniform(-1, 1, size=3))
            else:
                from _oracles import commuting_2x2_pair
                pair = commuting_2x2_pair(rng)
            tensor = tensor_from_pair(pair)
        else:
            c = random_symmetric_tensor(rng, 3 if dim3 else 2)
            from deformcs.algebra_core import StructTensor
            tensor = StructTensor(dim=3 if dim3 else 2, c=c)
        brute = assoc_defect_loops(tensor.c)
        res = assoc_residual(pair_from_tensor(tensor))
        assert (res < 1e-12) == (brute < 1e-12), (trial, res, brute)
        # the frozen seed keeps the two classes cleanly separated
        assert brute < 1e-13 or brute > 1e-6
        zeros += brute < 1e-13
        nonzeros += brute > 1e-6
    assert zeros >= 250 and nonzeros >= 700
    _report(10, f"pair-form residual and quadruple-loop oracle agree on 1000 tensors "
                f"({zeros} associative, {nonzeros} not)")

import json
import math
import re

import numpy as np
import pytest

from deformcs.algebra_core import MatrixPair, tensor_from_pair
from deformcs.closed_forms import SolutionFamily, eval_family
from deformcs.dda_registry import (_BLOCK_DOUBLES, TensorGrid, SampledField, assoc_defect_grid,
                                   coisotropic_bracket_defect, coisotropic_cs_residual,
                                   cs_residual, cs_residual_scan, discrete_cs_defect,
                                   discrete_cs_residual,
                                   lookup, quantum_cs_parts, quantum_cs_residual)
from deformcs.errors import (InvalidInputError, StencilRangeError, UnsupportedDDAError)

from _oracles import (assoc_defect_grid_first, coisotropic_bracket_grid_first,
                      coisotropic_bracket_loops, commuting_2x2_pair, discrete_defect_loops,
                      omega_l2a_loops, omega_l3_loops, polynomial_algebra_pair,
                      quantum_cs_parts_grid_first, quantum_defect_loops,
                      random_polynomial_field_2x2, random_smooth_tensor_grid)


# ---------------------------------------------------------------------------
# Registry lookups.
# ---------------------------------------------------------------------------

def test_lookup_operator_kinds():
    assert (lookup("L2a").p1_action, lookup("L2a").p2_action) == ("scaling_derivative", "none")
    assert (lookup("L1").p1_action, lookup("L1").p2_action) == ("none", "none")
    assert (lookup("L5").p1_action, lookup("L5").p2_action) == ("shift", "inverse_shift")
    assert (lookup("L2b").p1_action, lookup("L2b").p2_action) == ("shift", "none")
    assert (lookup("L3").p1_action, lookup("L3").p2_action) == ("none", "derivative_times_p1")
    assert (lookup("L4").p1_action, lookup("L4").p2_action) == ("shift", "shift")


def test_lookup_unknown():
    with pytest.raises(InvalidInputError, match="unknown dda"):
        lookup("L9")


def test_l1_has_no_central_system():
    fld = SampledField(dda="L1", grid=np.arange(3.0) + 1.0,
                       pairs=tuple(MatrixPair.from_entries(2, {}) for _ in range(3)))
    with pytest.raises(UnsupportedDDAError):
        cs_residual("L1", fld, 1)


# ---------------------------------------------------------------------------
# Per-DDA residual on sampled fields.
# ---------------------------------------------------------------------------

def _constant_commuting_field(dda, npts=5):
    rng = np.random.default_rng(11)
    pair = commuting_2x2_pair(rng)
    grid = np.arange(float(npts)) + (1.0 if dda in ("L2a", "L3") else 0.0)
    return SampledField(dda=dda, grid=grid, pairs=tuple(pair for _ in range(npts)))


@pytest.mark.parametrize("dda", ["L2a", "L2b", "L3", "L4", "L5"])
def test_constant_commuting_field_has_zero_residual(dda):
    fld = _constant_commuting_field(dda)
    assert cs_residual(dda, fld, 2).norms[0] < 1e-14


def test_l2a_residual_on_closed_form_converges():
    fam = SolutionFamily("Nilpotent2x2", {"alpha": 0.0, "beta": 1.0, "gamma": 0.0})
    values = []
    for h in (1e-4, 5e-5):
        xs = np.array([np.e - h, np.e, np.e + h])
        fld = SampledField(dda="L2a", grid=xs,
                           pairs=tuple(eval_family(fam, x) for x in xs))
        values.append(cs_residual("L2a", fld, 1).norms[0])
    assert values[0] < 1e-6
    assert values[0] / values[1] == pytest.approx(4.0, rel=0.3)


def test_l2a_matrix_residual_matches_component_oracle():
    rng = np.random.default_rng(3)
    h, x0 = 1e-3, 1.7
    xs = np.array([x0 - h, x0, x0 + h])
    for _ in range(5):
        pairs = random_polynomial_field_2x2(rng, xs)
        fld = SampledField(dda="L2a", grid=xs, pairs=pairs)
        got = cs_residual("L2a", fld, 1).norms[0]
        omega = omega_l2a_loops(pairs, xs, 1)
        # the (j, l) = (p2, p1) block, as a matrix in (n, k)
        blk = omega[:, 0, 1, :].T
        assert got == pytest.approx(float(np.linalg.norm(blk)), rel=1e-12)
        # all other index combinations are redundant: antisymmetric or zero
        assert np.allclose(omega[:, 1, 0, :], -omega[:, 0, 1, :])
        assert np.max(np.abs(omega[:, 0, 0, :])) == 0.0
        assert np.max(np.abs(omega[:, 1, 1, :])) == 0.0


def test_l3_matrix_residual_matches_component_oracle():
    rng = np.random.default_rng(4)
    h, x0 = 1e-3, 0.9
    xs = np.array([x0 - h, x0, x0 + h])
    pairs = random_polynomial_field_2x2(rng, xs)
    fld = SampledField(dda="L3", grid=xs, pairs=pairs)
    got = cs_residual("L3", fld, 1).norms[0]
    omega = omega_l3_loops(pairs, xs, 1)
    blk = np.array([[omega[1, k, 0, n] for k in range(2)] for n in range(2)])
    assert got == pytest.approx(float(np.linalg.norm(blk)), rel=1e-12)


def test_stencil_out_of_range():
    fld = _constant_commuting_field("L2a")
    with pytest.raises(StencilRangeError):
        cs_residual("L2a", fld, 0)
    with pytest.raises(StencilRangeError):
        cs_residual("L2a", fld, len(fld.pairs) - 1)
    fld5 = _constant_commuting_field("L5")
    with pytest.raises(StencilRangeError):
        cs_residual("L5", fld5, 0)
    expected = {"L2a": (1, 1), "L3": (1, 1), "L5": (1, 1), "L2b": (0, 1), "L4": (0, 1)}
    assert lookup("L1").stencil_reach == (0, 1)
    assert [d for d in ("L1", "L2a", "L2b", "L3", "L4", "L5") if lookup(d).discrete] == [
        "L2b", "L4", "L5"]
    for dda, reach in expected.items():
        assert lookup(dda).stencil_reach == reach
        fld = _constant_commuting_field(dda)
        behind, ahead = reach
        first, last = behind, len(fld.pairs) - 1 - ahead
        cs_residual(dda, fld, first)
        cs_residual(dda, fld, last)
        for i in (first - 1, last + 1):
            with pytest.raises(StencilRangeError):
                cs_residual(dda, fld, i)


def _random_field(dda, n, npts=6):
    rng = np.random.default_rng(21 + n)
    names = "ABCDEGLMN" if n == 3 else "BCEGMN"
    pairs = tuple(MatrixPair.from_entries(n, dict(zip(names, rng.uniform(-1, 1, len(names)))))
                  for _ in range(npts))
    grid = 0.7 + 0.05 * np.arange(npts) if dda in ("L2a", "L3") else np.arange(float(npts))
    return SampledField(dda=dda, grid=grid, pairs=pairs)


# The central systems of the module docstring, written out per point.
_DEFECT_AT = {
    "L2a": lambda P, x, h, i: (x[i] * (P[i + 1].C2 - P[i - 1].C2) / (2.0 * h)
                               - (P[i].C2 @ P[i].C1 - P[i].C1 @ P[i].C2)),
    "L3": lambda P, x, h, i: (P[i].C1 @ (P[i + 1].C1 - P[i - 1].C1) / (2.0 * h)
                              - (P[i].C1 @ P[i].C2 - P[i].C2 @ P[i].C1)),
    "L2b": lambda P, x, h, i: P[i].C1 @ P[i + 1].C2 - P[i].C2 @ P[i].C1,
    "L4": lambda P, x, h, i: P[i].C1 @ P[i + 1].C2 - P[i].C2 @ P[i + 1].C1,
    "L5": lambda P, x, h, i: P[i].C1 @ P[i + 1].C2 - P[i].C2 @ P[i - 1].C1,
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dda", ["L2a", "L3", "L2b", "L4", "L5"])
def test_whole_field_scan_matches_pointwise_residual(dda, n):
    fld = _random_field(dda, n)
    behind, ahead = lookup(dda).stencil_reach
    interior = range(behind, len(fld.pairs) - ahead)
    scan = cs_residual_scan(dda, fld)
    assert scan.labels == tuple(f"i={i}" for i in interior)
    assert scan.norms == tuple(cs_residual(dda, fld, i).norms[0] for i in interior)
    for i, norm in zip(interior, scan.norms):
        R = _DEFECT_AT[dda](fld.pairs, fld.grid, fld.spacing, i)
        assert norm == pytest.approx(float(np.linalg.norm(R)), rel=1e-12)
        assert norm > 1e-3   # a random field is far from any solution
    short = SampledField(dda=dda, grid=fld.grid[:behind + ahead],
                         pairs=fld.pairs[:behind + ahead])
    with pytest.raises(StencilRangeError, match="no interior points"):
        cs_residual_scan(dda, short)
    with pytest.raises(UnsupportedDDAError):
        cs_residual_scan("L1", SampledField(dda="L1", grid=fld.grid, pairs=fld.pairs))


def test_l2b_residual_zero_iff_conjugation_holds():
    rng = np.random.default_rng(8)
    B, C = 1.1, 0.4
    E, G, M, N = rng.uniform(-1, 1, size=4)
    pairs = []
    C2 = np.array([[E, M], [G, N]])
    for _ in range(4):
        C1 = np.array([[B, C2[0, 0]], [C, C2[1, 0]]])
        pairs.append(MatrixPair(2, C1, C2))
        C2 = np.linalg.inv(C1) @ C2 @ C1  # the discrete Lax conjugation
    fld = SampledField(dda="L2b", grid=np.arange(4.0), pairs=tuple(pairs))
    assert cs_residual("L2b", fld, 1).norms[0] < 1e-13
    # perturb the conjugation: residual departs from zero
    bad = list(pairs)
    bad[2] = MatrixPair(2, pairs[2].C1, pairs[2].C2 + np.array([[0.0, 0.1], [0.0, 0.0]]))
    fld_bad = SampledField(dda="L2b", grid=np.arange(4.0), pairs=tuple(bad))
    assert cs_residual("L2b", fld_bad, 1).norms[0] > 1e-3


def test_sampled_field_json_roundtrip():
    fld = _constant_commuting_field("L2a")
    doc = fld.to_json()
    back = SampledField.from_json(doc)
    assert np.array_equal(back.grid, fld.grid)
    for a, b in zip(back.pairs, fld.pairs):
        assert np.array_equal(a.C1, b.C1) and np.array_equal(a.C2, b.C2)
    with pytest.raises(InvalidInputError, match="grid"):
        SampledField.from_json({"dda": "L2a", "values": []})


def test_sampled_field_grid_validation():
    p = MatrixPair.from_entries(2, {})
    with pytest.raises(InvalidInputError, match="all 2x2 or all 3x3"):
        SampledField(dda="L2b", grid=np.arange(2.0), pairs=(p, MatrixPair.from_entries(3, {})))
    with pytest.raises(InvalidInputError):
        SampledField(dda="L2a", grid=np.array([1.0, 0.5]), pairs=(p, p))
    with pytest.raises(InvalidInputError):
        SampledField(dda="L2a", grid=np.array([0.0, 1.0, 3.0]), pairs=(p, p, p))
    with pytest.raises(InvalidInputError):
        SampledField(dda="L2b", grid=np.array([0.0, 0.5, 1.0]), pairs=(p, p, p))


def test_load_names_a_path_it_cannot_read(tmp_path):
    # a missing file or a directory is refused as input, not raised as a bare OSError
    for path, reason in ((tmp_path / "missing.json", "No such file or directory"),
                         (tmp_path, "not a regular file"), (str(tmp_path / "no" / "f.json"),
                                                        "No such file or directory")):
        named = f"sampled field file {str(path)!r} cannot be read: {reason}"
        with pytest.raises(InvalidInputError, match=re.escape(named)):
            SampledField.load(path)
    fld = _constant_commuting_field("L2a")
    (tmp_path / "field.json").write_text(json.dumps(fld.to_json()))
    assert np.array_equal(SampledField.load(tmp_path / "field.json").grid, fld.grid)


# ---------------------------------------------------------------------------
# Quantum / coisotropic / discrete evaluators.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spacing", [np.nan, np.inf, -np.inf, 0.0, -0.1, "1", None, True,
                                     pytest.param(10 ** 400, id="int-beyond-float"),
                                     np.float32(0.1)])
def test_tensor_grid_rejects_a_spacing_that_is_not_positive_and_finite(spacing):
    c = np.zeros((4, 4, 3, 3, 3))
    with pytest.raises(InvalidInputError) as got:
        TensorGrid(c=c, spacing=spacing)
    assert str(got.value) == f"spacing must be a positive finite number, got {spacing!r}"


def _constant_grid(pair, npts=4, h=0.1):
    t = tensor_from_pair(pair)
    c = np.broadcast_to(t.c, (npts, npts) + t.c.shape).copy()
    return TensorGrid(c=c, spacing=h)


def test_quantum_constant_associative_vanishes():
    tg = _constant_grid(polynomial_algebra_pair(0.4, -0.3, 0.7))
    assert quantum_cs_residual(tg, hbar=0.7).norms[0] < 1e-12


def test_quantum_hbar_zero_is_assoc_defect():
    rng = np.random.default_rng(13)
    c = rng.uniform(-1, 1, size=(3, 3, 3))
    c = 0.5 * (c + np.swapaxes(c, 0, 1))
    tg = TensorGrid(c=np.broadcast_to(c, (4, 4, 3, 3, 3)).copy(), spacing=0.1)
    expected = float(np.max(np.abs(assoc_defect_grid(tg)[0, 0])))
    assert expected > 1e-3
    assert quantum_cs_residual(tg, hbar=0.0).norms[0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("hbar", ["x", None, 10 ** 400, True, math.nan, math.inf,
                                  np.float32(0.5)],
                         ids=["str", "None", "int-beyond-float", "True", "nan", "inf", "float32"])
def test_quantum_refuses_an_hbar_that_is_not_a_finite_number(hbar):
    tg = _constant_grid(polynomial_algebra_pair(0.4, -0.3, 0.7))
    for call in (quantum_cs_residual, quantum_cs_parts):
        with pytest.raises(InvalidInputError) as got:
            call(tg, hbar)
        assert str(got.value) == f"hbar must be a finite number, got {hbar!r}"


def test_quantum_matches_loop_oracle():
    rng = np.random.default_rng(42)
    c = random_smooth_tensor_grid(rng, npts=5, h=0.05, n=3, unital=True)
    tg = TensorGrid(c=c, spacing=0.05)
    deriv, quad = quantum_cs_parts(tg, hbar=0.3)
    defect = deriv + quad
    for pt in ((1, 1), (2, 3), (3, 2)):
        oracle = quantum_defect_loops(c, 0.05, 0.3, pt)
        assert np.max(np.abs(defect[pt[0] - 1, pt[1] - 1] - oracle)) < 1e-12


def test_quantum_scaling_law():
    # scaling the field by s scales the derivative part by s, the quadratic by s^2
    rng = np.random.default_rng(77)
    c = random_smooth_tensor_grid(rng, npts=4, h=0.1, n=2, unital=False)
    tg = TensorGrid(c=c, spacing=0.1)
    d1, q1 = quantum_cs_parts(tg, hbar=0.9)
    for s in (2.0, 1.7):
        ds, qs = quantum_cs_parts(TensorGrid(c=s * c, spacing=0.1), hbar=0.9)
        assert np.allclose(ds, s * d1, rtol=1e-12, atol=1e-14)
        assert np.allclose(qs, s * s * q1, rtol=1e-12, atol=1e-14)


def test_coisotropic_constant_field():
    # constant associative: both residuals vanish
    tg = _constant_grid(polynomial_algebra_pair(0.2, 0.5, -0.4))
    rep = coisotropic_cs_residual(tg)
    assert rep.norms[0] < 1e-14 and rep.norms[1] < 1e-12
    # constant non-associative: algebraic part equals the associativity defect
    rng = np.random.default_rng(14)
    c = rng.uniform(-1, 1, size=(3, 3, 3))
    c = 0.5 * (c + np.swapaxes(c, 0, 1))
    tg2 = TensorGrid(c=np.broadcast_to(c, (4, 4, 3, 3, 3)).copy(), spacing=0.1)
    rep2 = coisotropic_cs_residual(tg2)
    assert rep2.norms[1] == pytest.approx(float(np.max(np.abs(assoc_defect_grid(tg2)[0, 0]))),
                                          rel=1e-14)


def test_coisotropic_matches_loop_oracle():
    rng = np.random.default_rng(15)
    c = random_smooth_tensor_grid(rng, npts=4, h=0.08, n=3, unital=True)
    tg = TensorGrid(c=c, spacing=0.08)
    bracket = coisotropic_bracket_defect(tg)
    for pt in ((1, 1), (2, 2), (1, 2)):
        oracle = coisotropic_bracket_loops(c, 0.08, pt)
        assert np.max(np.abs(bracket[pt[0] - 1, pt[1] - 1] - oracle)) < 1e-12


def test_discrete_constant_commuting_vanishes():
    rng = np.random.default_rng(16)
    tg = _constant_grid(commuting_2x2_pair(rng), npts=3)
    assert max(discrete_cs_residual(tg).norms) < 1e-14


def test_discrete_matches_loop_oracle():
    rng = np.random.default_rng(17)
    c = random_smooth_tensor_grid(rng, npts=4, h=1.0, n=3, unital=True)
    tg = TensorGrid(c=c, spacing=1.0)
    defects, inner = discrete_cs_defect(tg), tuple(s - 1 for s in c.shape[:2])
    assert all(m.shape == inner + (3, 3) for m in defects.values())
    for pt in np.ndindex(*inner):
        oracle = discrete_defect_loops(c, pt)
        assert set(defects) == set(oracle)
        for key, got in defects.items():
            assert np.max(np.abs(got[pt] - oracle[key])) < 1e-12


# (lattice shape, algebra size): index 0 is the unit direction when n exceeds the axes
@pytest.mark.parametrize("shape, n", [((6,), 2), ((4, 3), 2), ((4, 3), 3), ((3, 4, 2), 3),
                                      ((3, 4, 2), 4), ((2, 2, 2), 3)],
                         ids=["1d_unit", "2d", "2d_unit", "3d", "3d_unit", "3d_one_point"])
def test_discrete_cs_defect_covers_every_point_with_a_forward_neighbour(shape, n):
    rng = np.random.default_rng(21)
    c = rng.uniform(-1.0, 1.0, size=shape + (n, n, n))
    defects, inner = discrete_cs_defect(TensorGrid(c=c)), tuple(s - 1 for s in shape)
    assert sorted(defects) == sorted((j, l) for l in range(n) for j in range(l + 1, n))
    assert all(m.shape == inner + (n, n) for m in defects.values())
    for pt in np.ndindex(*inner):
        for key, mat in discrete_defect_loops(c, pt).items():
            assert np.max(np.abs(defects[key][pt] - mat)) < 1e-12


@pytest.mark.parametrize("shape, n, unital", [((4, 3, 5), 4, True), ((5, 4), 2, False)])
def test_discrete_residual_is_max_of_pointwise_oracle(shape, n, unital):
    rng = np.random.default_rng(19)
    c = rng.uniform(-1.0, 1.0, size=shape + (n, n, n))
    c = 0.5 * (c + np.swapaxes(c, -3, -2))
    if unital:
        c[..., 0, :, :] = np.eye(n)
        c[..., :, 0, :] = np.eye(n)
    rep = discrete_cs_residual(TensorGrid(c=c, spacing=1.0))
    worst = {}
    for pt in np.ndindex(*(s - 1 for s in shape)):
        for key, mat in discrete_defect_loops(c, pt).items():
            worst[key] = max(worst.get(key, 0.0), float(np.linalg.norm(mat)))
    assert rep.labels == tuple(f"discrete_cs[{j},{l}]" for j, l in sorted(worst))
    for got, key in zip(rep.norms, sorted(worst)):
        assert got == pytest.approx(worst[key], rel=0.0, abs=1e-12)


def test_discrete_residual_is_the_norm_of_its_view_bit_for_bit():
    rng = np.random.default_rng(20)
    for draw in range(60):
        dims = 1 + draw % 3
        n = max(2, dims + draw // 3 % 2)   # index 0 is the unit direction when n > dims
        tg = TensorGrid(c=rng.uniform(-1.0, 1.0, tuple(rng.integers(2, 5, dims)) + (n,) * 3))
        want = [np.max(np.linalg.norm(m, axis=(-2, -1)))
                for _, m in sorted(discrete_cs_defect(tg).items())]
        assert np.array(discrete_cs_residual(tg).norms).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("point", [1.5, 2.0, True, np.float64(1.0), "1", None],
                         ids=["half", "integral_float", "bool", "numpy_float", "text", "none"])
def test_cs_residual_refuses_a_point_that_is_not_an_integer(point):
    fld = _constant_commuting_field("L2b")
    with pytest.raises(InvalidInputError) as err:
        cs_residual("L2b", fld, point)
    assert str(err.value) == f"point must be an integer, got {point!r}"


def test_point_functions_take_python_and_numpy_integers():
    fld = _constant_commuting_field("L2b")
    want = cs_residual("L2b", fld, 1).norms
    for i in (np.int64(1), np.uint8(1)):
        assert cs_residual("L2b", fld, i).norms == want
    with pytest.raises(StencilRangeError):
        cs_residual("L2b", fld, np.int32(len(fld.pairs) - 1))


def test_discrete_missing_neighbour():
    for c in (np.zeros((1, 2, 2, 2)), np.zeros((4, 1, 2, 2, 2))):   # an axis of one point
        for call in (discrete_cs_defect, discrete_cs_residual):
            with pytest.raises(StencilRangeError,
                               match="^lattice too small for the forward-shift stencil$"):
                call(TensorGrid(c=c))


def test_tensor_grid_shape_validation():
    with pytest.raises(InvalidInputError):
        TensorGrid(c=np.zeros((4, 4, 3, 3, 2)))  # trailing axes not cubic
    with pytest.raises(InvalidInputError):
        TensorGrid(c=np.zeros((4, 3, 3, 3)))  # one grid axis cannot drive 3 indices
    with pytest.raises(InvalidInputError):
        TensorGrid(c=np.zeros((4, 4, 3, 3, 3)), spacing=0.0)
    with pytest.raises(InvalidInputError, match="^tensor grid needs at least one grid axis$"):
        TensorGrid(c=np.zeros((3, 3, 3)))


# ---------------------------------------------------------------------------
# Flow/map outputs feed back into the residual evaluators.
# ---------------------------------------------------------------------------

def test_l4_orbit_satisfies_its_central_system():
    from deformcs.discrete_flows import init_map_state, orbit

    run = orbit("L4", init_map_state("L4", dict(B=1, C=1, E=0.4, G=1.3, M=0.8, N=-0.2)), 8)
    fld = SampledField(dda="L4", grid=np.arange(float(len(run.states))),
                       pairs=tuple(s.pair for s in run.states))
    for i in range(len(run.states) - 1):
        assert cs_residual("L4", fld, i).norms[0] < 1e-12


def test_l3_trajectory_satisfies_its_central_system():
    from deformcs.continuous_flows import integrate, state_from_entries

    e = dict(B=1.1, C=0.4, E=0.3, G=1.2, M=0.2, N=-0.3)
    det = e["B"] * e["G"] - e["C"] * e["E"]
    traj = integrate("L3_detnorm", state_from_entries("L3_detnorm", e),
                     (0.0, 0.2), 1e-3)
    assert traj.status == "completed"
    # x = y det C1 turns the uniform y-grid into a uniform x-grid
    xs = traj.ts * det
    rows = [dict(zip(traj.columns, row)) for row in traj.states.tolist()]
    pairs = tuple(MatrixPair.from_entries(2, {k: r[k] for k in "BCEGMN"}) for r in rows)
    fld = SampledField(dda="L3", grid=xs, pairs=pairs)
    mid = len(xs) // 2
    res = cs_residual("L3", fld, mid).norms[0]
    assert res < 1e-5  # O(h^2) differencing of an RK4-accurate trajectory


# ---------------------------------------------------------------------------
# The point-innermost contractions equal the grid-first einsum forms exactly.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape, n", [
    ((7,), 1), ((7,), 2),            # one grid axis, index offset 0 and 1
    ((6, 5), 2), ((6, 5), 3),        # two axes
    ((40, 36), 3),                   # 1292 points: ten point blocks, the last one ragged
    ((4, 5, 3), 3), ((4, 3, 5), 4),  # three axes
    ((2, 6), 3), ((2, 2, 2), 4),     # no interior points: every norm is 0.0
    ((1, 5), 3),
])
def test_grid_contractions_equal_the_grid_first_forms(shape, n):
    rng = np.random.default_rng(sum(shape) * n)
    c = rng.normal(size=shape + (n, n, n))
    # symmetrised and not, so that no regrouping may rely on C_jk = C_kj
    for tg in (TensorGrid(c=0.5 * (c + np.swapaxes(c, -3, -2)), spacing=0.3),
               TensorGrid(c=c, spacing=0.3)):
        assert np.array_equal(assoc_defect_grid(tg), assoc_defect_grid_first(tg.c))
        deriv, quad = quantum_cs_parts_grid_first(tg, 0.7)
        for got, want in zip(quantum_cs_parts(tg, hbar=0.7), (deriv, quad)):
            assert got.shape == want.shape and np.array_equal(got, want)
        got, want = coisotropic_bracket_defect(tg), coisotropic_bracket_grid_first(tg)
        assert got.shape == want.shape and np.array_equal(got, want)
        rep = coisotropic_cs_residual(tg)
        interior = (slice(1, -1),) * len(shape)
        want_norms = [float(np.max(np.abs(a))) if a.size else 0.0
                      for a in (want, assoc_defect_grid_first(tg.c)[interior])]
        assert rep.norms == tuple(want_norms)
        want_quantum = float(np.max(np.abs(deriv + quad))) if deriv.size else 0.0
        assert quantum_cs_residual(tg, 0.7).norms == (want_quantum,)


@pytest.mark.parametrize("points", [38 * 34, 14 * 14])   # the (40, 36) and (16, 16) grids
def test_the_n3_cases_span_point_blocks_with_a_ragged_last_one(points):
    step = _BLOCK_DOUBLES // 3 ** 5
    assert points > step and points % step


def _spike(npts, where):
    """A smooth n = 3 grid with one 1e200 entry at c[where, 0, 0, 0]: its square overflows
    the associativity defect at that point, while the bracket stays finite."""
    rng = np.random.default_rng(23)
    c = random_smooth_tensor_grid(rng, npts=npts, h=0.1, n=3, unital=False)
    c[where + (0, 0, 0)] = 1e200
    return c


# 16 x 16 has 196 interior points, two blocks of the bracket for n = 3: the first
# interior point is in the first block, the last one in the last, ragged block.
@pytest.mark.parametrize("where", [(1, 1), (14, 14)])
def test_a_non_finite_block_maximum_is_not_hidden_by_the_other_blocks(where):
    tg = TensorGrid(c=_spike(16, where), spacing=0.1)
    with pytest.raises(InvalidInputError, match="'quantum_cs_max' is not a finite"):
        quantum_cs_residual(tg, 0.5)
    with pytest.raises(InvalidInputError, match="'assoc_defect_max' is not a finite"):
        coisotropic_cs_residual(tg)
    c = tg.c.copy()   # the same spike at the neighbour ahead overflows the bracket too
    c[(where[0] + 1, where[1]) + (0, 0, 0)] = 1e200
    with pytest.raises(InvalidInputError, match="'coisotropic_bracket_max' is not a finite"):
        coisotropic_cs_residual(TensorGrid(c=c, spacing=0.1))


def test_grid_operators_name_an_overflow_instead_of_warning():
    # RuntimeWarnings are errors in this suite, so a warning would fail here first
    tg = TensorGrid(c=_spike(6, (2, 3)), spacing=0.1)
    with pytest.raises(InvalidInputError, match="^residual 'quantum_cs_max' is not a finite"):
        quantum_cs_residual(tg, 0.5)
    with pytest.raises(InvalidInputError, match="^residual 'assoc_defect_max' is not a finite"):
        coisotropic_cs_residual(tg)
    with pytest.raises(InvalidInputError, match=r"^residual 'discrete_cs\[1,0\]' is not a finite"):
        discrete_cs_residual(tg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tensor_grid_names_its_first_non_finite_entry(bad):
    c = np.zeros((4, 4, 3, 3, 3))
    c[2, 2, 1, 1, 1] = c[3, 0, 0, 0, 0] = bad
    with pytest.raises(InvalidInputError,
                       match=re.escape("tensor grid entry c[2, 2, 1, 1, 1] is not finite")):
        TensorGrid(c=c, spacing=0.1)

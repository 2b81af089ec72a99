import math
import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from deformcs import closed_forms
from deformcs.algebra_core import assoc_residual, tensor_from_pair
from deformcs.closed_forms import (FAMILY_PARAMS, SolutionFamily, eval_family,
                                   family_integrals, validate_family)
from deformcs.continuous_flows import first_integrals, state_from_entries
from deformcs.errors import InvalidInputError, SingularGaugeError

from _oracles import eval_family_per_point, validate_family_per_point

GAUGE_QUADRATIC = {"phi0": [1.0], "phi1": [0.0, 1.0], "phi2": [0.0, 0.0, 1.0]}
GAUGE_CUBIC = {"phi0": [1.0, 0.3], "phi1": [0.0, 1.0, 0.1], "phi2": [0.2, 0.0, 1.0, 0.05]}


def _poly_l3(alpha, beta, gamma, **extra):
    delta = (beta * gamma - 1.0) / alpha
    return SolutionFamily("PolyL3", {"alpha": alpha, "beta": beta, "gamma": gamma,
                                     "delta": delta, **extra})


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def test_nilpotent_2x2_at_e():
    fam = SolutionFamily("Nilpotent2x2", {"alpha": 0.0, "beta": 1.0, "gamma": 0.0})
    e = eval_family(fam, math.e).entries()
    assert (e["E"], e["G"], e["M"], e["N"]) == (1.0, 1.0, -1.0, -1.0)
    assert e["B"] == e["C"] == 0.0


def test_upper_tri_at_one():
    fam = SolutionFamily("UpperTri2x2", {"alpha": 0.0, "beta": 1.0, "gamma": 1.0, "delta": 0.0})
    e = eval_family(fam, 1.0).entries()
    assert e["E"] == pytest.approx(0.5)
    assert e["G"] == pytest.approx(0.5)
    assert e["M"] == pytest.approx(-0.5)
    assert e["N"] == pytest.approx(-0.5)
    assert e["B"] == 1.0 and e["C"] == 0.0


def test_gauge_vandermonde_at_zero():
    fam = SolutionFamily("GaugeL5", GAUGE_QUADRATIC)
    pair = eval_family(fam, 0.0)
    # unital columns come out of the linear solve
    assert np.allclose(pair.C1[:, 0], [0, 1, 0], atol=1e-12)
    assert np.allclose(pair.C2[:, 0], [0, 0, 1], atol=1e-12)


def test_gauge_potentials_are_numpy_polynomial_values_bit_for_bit(monkeypatch):
    # GaugeL5's potentials run np.polyval on the reversed coefficients: numpy.polynomial's
    # Horner recursion with its operands commuted, so the same bits, NaN and -0.0 included
    seen = []
    monkeypatch.setattr(closed_forms, "gauge_pairs",
                        lambda potentials, x: seen.append(potentials) or (None,) * 5)
    rng = np.random.default_rng(3)
    points = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e300],
                             rng.normal(size=40) * 10.0 ** rng.integers(-60, 60, size=40)])
    for _ in range(300):
        coeffs = {}
        for k in FAMILY_PARAMS["GaugeL5"]:
            c = rng.normal(size=rng.integers(1, 7)) * 10.0 ** rng.integers(-8, 8)
            c[rng.random(c.size) < 0.2] = rng.choice([0.0, -0.0])
            coeffs[k] = c.tolist()
        closed_forms._family_stack(SolutionFamily("GaugeL5", coeffs), points)
        with np.errstate(all="ignore"):
            got = seen.pop()(points)
            want = np.array([npoly.polyval(points, np.array(c)) for c in coeffs.values()])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gauge_symmetry_of_structure_constants():
    fam = SolutionFamily("GaugeL5", GAUGE_CUBIC)
    for x in (-1.0, 0.0, 2.0):
        t = tensor_from_pair(eval_family(fam, x))
        assert np.max(np.abs(t.c - np.swapaxes(t.c, 0, 1))) < 1e-12


def test_domain_guards():
    fam = SolutionFamily("Nilpotent2x2", {"alpha": 0.0, "beta": 1.0, "gamma": 0.0})
    with pytest.raises(InvalidInputError):
        eval_family(fam, 1.0)  # ln x = 0 pole
    with pytest.raises(InvalidInputError):
        eval_family(fam, -2.0)
    tri = SolutionFamily("UpperTri2x2", {"alpha": 0.0, "beta": 1.0, "gamma": 1.0, "delta": 0.0})
    with pytest.raises(InvalidInputError):
        eval_family(tri, 0.0)
    with pytest.raises(InvalidInputError):
        eval_family(tri, -1.0)  # x = -beta
    with pytest.raises(InvalidInputError):
        SolutionFamily("UpperTri2x2", {"alpha": 0.0, "beta": 0.0, "gamma": 1.0, "delta": 0.0})


def test_gauge_singular_potentials():
    # Phi^1, Phi^2 constant multiples of Phi^0: rank-deficient gauge matrix
    fam = SolutionFamily("GaugeL5", {"phi0": [1.0, 1.0], "phi1": [2.0, 2.0],
                                     "phi2": [3.0, 3.0]})
    with pytest.raises(SingularGaugeError):
        eval_family(fam, 0.0)


def test_poly_l3_constraint_enforced():
    with pytest.raises(InvalidInputError):
        SolutionFamily("PolyL3", {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0})
    with pytest.raises(InvalidInputError):
        SolutionFamily("PolyL3", {"alpha": 1.0, "beta": 2.0, "gamma": 1.0, "delta": 1.0,
                                  "rho": 0.0})


def test_unknown_family():
    for params in ({}, {"alpha": 1.0}):
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                f"unknown solution family 'Quartic' (expected one of {tuple(FAMILY_PARAMS)})")
                + "$"):
            SolutionFamily("Quartic", params)


@pytest.mark.parametrize("family, params, named", [
    ("PolyL3", {"alpha": 1.0, "beta": 2.0, "gamma": 1.0, "delta": 1.0, "printed_form": "false"},
     "PolyL3 parameter 'printed_form' must be true or false, got 'false'"),
    ("Nilpotent2x2", {"alpha": 0.0, "printed_form": True},
     "Nilpotent2x2 params has unknown entries ['printed_form']"),
    ("UpperTri2x2", {"beta": 1.0, "printed_form": False},
     "UpperTri2x2 params has unknown entries ['printed_form']"),
    ("GaugeL5", {**GAUGE_CUBIC, "phi3": [5.0]}, "GaugeL5 params has unknown entries ['phi3']"),
    ("GaugeL5", {"phi0": [1.0], "phi1": [0.0, 1.0]}, "GaugeL5 needs polynomial coefficients 'phi2'"),
    ("Nilpotent2x2", {"alpha": "x"}, "Nilpotent2x2 params['alpha'] must be a finite number"),
    ("Nilpotent2x2", {"alpha": None}, "Nilpotent2x2 params['alpha'] must be a finite number"),
    ("Nilpotent3x3", {"mu": math.inf}, "Nilpotent3x3 params['mu'] must be a finite number"),
    ("Nilpotent3x3", {"beta": True}, "Nilpotent3x3 params['beta'] must be a finite number"),
    ("UpperTri2x2", {"beta": math.nan}, "UpperTri2x2 params['beta'] must be a finite number"),
    ("UpperTri2x2", {"beta": 1.0, "gamma": 10 ** 400},
     "UpperTri2x2 params['gamma'] must be a finite number"),
    ("PolyL3", {"alpha": 1.0, "beta": 2.0, "gamma": [1.0], "delta": 1.0},
     "PolyL3 params['gamma'] must be a finite number"),
    ("GaugeL5", {**GAUGE_CUBIC, "phi0": "abc"},
     "GaugeL5 parameter 'phi0' must be a nonempty sequence of numbers, got 'abc'"),
    ("GaugeL5", {**GAUGE_CUBIC, "phi1": [0.0, math.nan]},
     "GaugeL5 parameter 'phi1' must be finite numbers, got nan"),
    ("GaugeL5", {**GAUGE_CUBIC, "phi2": []},
     "GaugeL5 parameter 'phi2' must be a nonempty sequence of numbers, got []"),
    ("GaugeL5", {**GAUGE_CUBIC, "phi2": [1.0, None]},
     "GaugeL5 parameter 'phi2' must be finite numbers, got None"),
    ("GaugeL5", {**GAUGE_CUBIC, "phi0": 1.0},
     "GaugeL5 parameter 'phi0' must be a nonempty sequence of numbers, got 1.0"),
])
def test_family_rejects_parameters_it_would_ignore_or_misread(family, params, named):
    with pytest.raises(InvalidInputError, match=re.escape(named)):
        SolutionFamily(family, params)


def test_family_takes_numpy_floats_and_coefficient_arrays():
    fam = SolutionFamily("Nilpotent2x2", {"alpha": np.float64(0.5), "beta": 1})
    assert eval_family(fam, 2.0).entries() == eval_family_per_point(fam, 2.0).entries()
    gauge = SolutionFamily("GaugeL5", {k: np.array(v) for k, v in GAUGE_CUBIC.items()})
    assert np.array_equal(eval_family(gauge, 0.5).C1,
                          eval_family(SolutionFamily("GaugeL5", GAUGE_CUBIC), 0.5).C1)


# ---------------------------------------------------------------------------
# Validation against the governing systems.
# ---------------------------------------------------------------------------

def test_validate_nilpotent_2x2():
    fam = SolutionFamily("Nilpotent2x2", {"alpha": 0.0, "beta": 1.0, "gamma": 0.0})
    rep = validate_family(fam, [2.0, math.e, 10.0], h=1e-4)
    assert max(rep.norms) < 1e-6


def test_validate_nilpotent_3x3():
    fam = SolutionFamily("Nilpotent3x3", {"alpha": 0.4, "beta": 0.8, "gamma": -0.2,
                                          "delta": 0.3, "mu": 0.6})
    rep = validate_family(fam, [2.0, math.e, 10.0], h=1e-4)
    assert max(rep.norms) < 1e-6


def test_validate_upper_tri_verbatim_formulas():
    # the printed rational formulas solve the flow as stated
    fam = SolutionFamily("UpperTri2x2", {"alpha": 0.7, "beta": 1.3, "gamma": -0.4,
                                         "delta": 0.9})
    rep = validate_family(fam, [0.5, 2.0, 7.0], h=1e-4)
    assert max(rep.norms) < 1e-6


def test_validate_residual_shrinks_quadratically():
    fam = SolutionFamily("Nilpotent2x2", {"alpha": 0.5, "beta": 1.0, "gamma": -0.3})
    r1 = max(validate_family(fam, [2.0, math.e, 10.0], h=1e-4).norms)
    r2 = max(validate_family(fam, [2.0, math.e, 10.0], h=5e-5).norms)
    assert r1 / r2 == pytest.approx(4.0, rel=0.3)


def test_validate_poly_l3_exact():
    fam = _poly_l3(0.8, 1.3, 1.0)
    rep = validate_family(fam, [-1.0, 0.0, 2.0])
    assert max(rep.norms) < 1e-12


def test_poly_l3_printed_form_only_solves_at_alpha_one():
    printed = _poly_l3(2.0, 1.3, 1.0, printed_form=True)
    assert max(validate_family(printed, [1.0]).norms) > 1e-2
    corrected = _poly_l3(2.0, 1.3, 1.0)
    assert max(validate_family(corrected, [1.0]).norms) < 1e-12
    # at alpha = 1 the printed and corrected families coincide
    a1_printed = _poly_l3(1.0, 1.3, 1.0, printed_form=True)
    a1 = _poly_l3(1.0, 1.3, 1.0)
    assert np.array_equal(eval_family(a1_printed, 0.7).C1, eval_family(a1, 0.7).C1)


def test_validate_gauge_exact():
    fam = SolutionFamily("GaugeL5", GAUGE_CUBIC)
    rep = validate_family(fam, [0.0, 1.0, 3.0])
    assert max(rep.norms) < 1e-12


# ---------------------------------------------------------------------------
# Integral values.
# ---------------------------------------------------------------------------

def test_family_integrals_values():
    fam51 = SolutionFamily("Nilpotent2x2", {"alpha": 0.7, "beta": -0.4, "gamma": 0.9})
    assert family_integrals(fam51) == pytest.approx(
        {"I1": 0.7, "I2": 0.9 + 0.5 * 0.49})
    fam52 = SolutionFamily("UpperTri2x2", {"alpha": 0.6, "beta": 1.0, "gamma": 0.2,
                                           "delta": -0.3})
    assert family_integrals(fam52) == pytest.approx({"I1": 0.6, "I2": -0.3 + 0.18})
    a, b, g, d, mu = 0.4, 0.8, -0.2, 0.3, 0.6
    fam43 = SolutionFamily("Nilpotent3x3", {"alpha": a, "beta": b, "gamma": g,
                                            "delta": d, "mu": mu})
    ints = family_integrals(fam43)
    assert ints["I1"] == pytest.approx(a)
    assert ints["I2"] == pytest.approx(0.5 * a * a + 3 * b * b + 2 * a * b + mu)
    assert ints["I3"] == pytest.approx(((a + b) ** 3 - b ** 3) / 3.0
                                       + (a + b) * (mu + b * (a + 2 * b)) - g * d)


@pytest.mark.parametrize("family,system,points", [
    (SolutionFamily("Nilpotent2x2", {"alpha": 0.7, "beta": -0.4, "gamma": 0.9}),
     "L2a_2x2", (2.0, math.e, 10.0)),
    (SolutionFamily("UpperTri2x2", {"alpha": 0.6, "beta": 1.0, "gamma": 0.2, "delta": -0.3}),
     "L2a_2x2", (0.5, 2.0, 7.0)),
    (SolutionFamily("Nilpotent3x3", {"alpha": 0.4, "beta": 0.8, "gamma": -0.2,
                                     "delta": 0.3, "mu": 0.6}),
     "L2a_3x3", (2.0, math.e, 10.0)),
    (_poly_l3(0.8, 1.3, 1.0), "L3_simple", (-1.0, 0.0, 2.0)),
])
def test_family_integrals_match_flow_integrals_pointwise(family, system, points):
    want = family_integrals(family)
    for x in points:
        st = state_from_entries(system, eval_family(family, x).entries())
        got = first_integrals(system, st)
        for k, v in want.items():
            if k in got:
                assert got[k] == pytest.approx(v, abs=1e-12), (k, x)


def test_gauge_transition_integrals_are_identity_traces():
    fam = SolutionFamily("GaugeL5", GAUGE_CUBIC)
    assert family_integrals(fam) == {"I1": 3.0, "I2": 1.5, "I3": 1.0}
    for x in (0.0, 1.0):
        here = eval_family(fam, x)
        plus = eval_family(fam, x + 1.0)
        V = here.C1 @ plus.C2
        assert np.trace(V) == pytest.approx(3.0, abs=1e-12)
        assert np.trace(V @ V) / 2 == pytest.approx(1.5, abs=1e-12)
        assert np.trace(V @ V @ V) / 3 == pytest.approx(1.0, abs=1e-12)


def test_quadratic_gauge_is_iso_associative():
    fam = SolutionFamily("GaugeL5", GAUGE_QUADRATIC)
    for x in (-1.0, 0.0, 2.0):
        assert assoc_residual(eval_family(fam, x)) < 1e-12


# ---------------------------------------------------------------------------
# The stacked validation equals the one-point-at-a-time path bit for bit.
# ---------------------------------------------------------------------------

def _random_family(rng, family):
    if family == "GaugeL5":   # perturbations of the cubic potentials
        return SolutionFamily("GaugeL5", {k: [c + rng.uniform(-0.05, 0.05) for c in v]
                                          for k, v in GAUGE_CUBIC.items()})
    if family == "PolyL3":
        return _poly_l3(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0),
                        rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                        printed_form=bool(rng.integers(2)))
    params = {k: rng.uniform(-1.0, 1.0) for k in FAMILY_PARAMS[family]}
    if family == "UpperTri2x2":
        params["beta"] = rng.uniform(0.5, 1.5)
    return SolutionFamily(family, params)


@pytest.mark.parametrize("family, draws, lo, hi", [
    ("GaugeL5", 60, -3.0, 3.0),
    ("Nilpotent3x3", 20, 1.2, 12.0),
    ("Nilpotent2x2", 20, 0.2, 12.0),
    ("UpperTri2x2", 20, 0.2, 12.0),
    ("PolyL3", 20, -3.0, 3.0),
])
def test_validate_family_equals_the_per_point_path(family, draws, lo, hi):
    rng = np.random.default_rng(7)
    for _ in range(draws):
        fam = _random_family(rng, family)
        points = [float(p) for p in rng.uniform(lo, hi, size=5)]
        got, want = validate_family(fam, points), validate_family_per_point(fam, points)
        assert got.labels == want.labels
        assert got.norms == want.norms   # exact: the same floats, not approximately
        for x in points[:2]:
            pair, ref = eval_family(fam, x), eval_family_per_point(fam, x)
            assert np.array_equal(pair.C1, ref.C1) and np.array_equal(pair.C2, ref.C2)


_NIL2 = SolutionFamily("Nilpotent2x2", {"alpha": 0.0, "beta": 1.0, "gamma": 0.0})
_TRI = SolutionFamily("UpperTri2x2", {"alpha": 0.0, "beta": 1.0, "gamma": 1.0, "delta": 0.0})
_GAUGE = SolutionFamily("GaugeL5", GAUGE_CUBIC)
_SINGULAR_GAUGE = SolutionFamily("GaugeL5", {"phi0": [1.0, 1.0], "phi1": [2.0, 2.0],
                                             "phi2": [3.0, 3.0]})


@pytest.mark.parametrize("fam, points, h, named", [
    (_NIL2, [2.0, -1.0], 1e-4, "log families need x > 0"),
    (_NIL2, [2.0, 1.0], 1e-4, "too close to the ln x = 0 pole"),
    (_TRI, [2.0, 0.0], 1e-4, "UpperTri2x2 is singular at x = 0.0"),
    (_TRI, [2.0, -1.0], 1e-4, "UpperTri2x2 is singular at x = -1.0"),
    (_SINGULAR_GAUGE, [0.0], 1e-4, "gauge matrix is singular at x = -1.0"),
    (_GAUGE, [0.5, 1234567.3], 1e-4, "points: x=1234567.3: column 0 of C1"),
    (_NIL2, [2.0, 1e13], 1e-4, "with h=0.0001: grid must be strictly increasing"),
    # below 2^30 the spacing of floats is half that above, so p - h and p + h round unevenly
    (_NIL2, [2.0, 2.0 ** 30], 1e-4, "with h=0.0001: grid must be uniformly spaced"),
    (SolutionFamily("Nilpotent2x2", {"alpha": 0.0, "beta": 1e308, "gamma": 0.0}), [2.0], 1e-4,
     "residual 'L2a_cs' is not a finite nonnegative norm"),
    (_NIL2, [2.0, 2.0000001], 1e-4, "residual label 'x=2' occurs more than once"),
    # the first bad point decides: 1e13 collapses its stencil before -1 leaves the log domain
    (_NIL2, [2.0, 1e13, -1.0], 1e-4, "x=10000000000000.0 with h=0.0001: grid must be strictly"),
    (_NIL2, [2.0, -1.0, 1e13], 1e-4, "x=-1.0 with h=0.0001: log families need x > 0"),
    (_TRI, [0, 2.0], 1e-4, "points: x=0 with h=0.0001: UpperTri2x2 is singular at x = 0.0"),
    (_GAUGE, [0.5, 1e17, 1234567.3], 1e-4, "points: x=1e+17: gauge matrix is singular"),
    # int sample points: the prefix names the point as given
    (_NIL2, [2, -1], 1e-4, "points: x=-1 with h=0.0001: log families need x > 0, got -1.0001"),
    (_TRI, [2, 0], 1e-4, "points: x=0 with h=0.0001: UpperTri2x2 is singular at x = 0.0"),
    (_SINGULAR_GAUGE, [0], 1e-4, "points: x=0: gauge matrix is singular at x = -1.0"),
])
def test_validate_family_errors_match_the_per_point_path(fam, points, h, named):
    with pytest.raises(Exception) as want:
        validate_family_per_point(fam, points, h)
    with pytest.raises(type(want.value)) as got:
        validate_family(fam, points, h)
    assert str(got.value) == str(want.value)
    assert named in str(got.value)


# Where the per-point path evaluated each stencil value on its own, the stencil kernel
# evaluates a point's three values as one float stack and checks their layout after it:
# an int point's middle value is named as a float (the per-point path named the int 1),
# and a value that overflows to -inf (a NaN in its shared column) is reported after the
# domain error of the stencil's last value (the per-point path named its layout first).
@pytest.mark.parametrize("fam, points, h, text", [
    (_NIL2, [2, 1], 1e-4, "points: x=1 with h=0.0001: x = 1.0 is too close to the ln x = 0 pole"),
    (_TRI, [-1e308], 1e308, "points: x=-1e+308 with h=1e+308: UpperTri2x2 is singular at x = 0.0"),
])
def test_validate_family_errors_where_the_stencil_kernel_differs_from_the_per_point_path(
        fam, points, h, text):
    with pytest.raises(InvalidInputError) as got:
        validate_family(fam, points, h)
    assert str(got.value) == text


@pytest.mark.parametrize("points, h, text", [
    (["a"], 1e-4, "points must be finite numbers, got 'a'"),
    ([2.0, 10 ** 400], 1e-4, f"points must be finite numbers, got {10 ** 400}"),
    ([2.0, math.nan], 1e-4, "points must be finite numbers, got nan"),
    ([True], 1e-4, "points must be finite numbers, got True"),
    ([], 1e-4, "points must be a nonempty sequence of numbers, got []"),
    (2.0, 1e-4, "points must be a nonempty sequence of numbers, got 2.0"),
    ([2.0], math.nan, "h must be a positive finite number, got nan"),
    ([2.0], math.inf, "h must be a positive finite number, got inf"),
    ([2.0], "1", "h must be a positive finite number, got '1'"),
    ([2.0], 0.0, "h must be a positive finite number, got 0.0"),
    ([2.0], None, "h must be a positive finite number, got None"),
    ([2.0], True, "h must be a positive finite number, got True"),
    ([2.0], 10 ** 400, f"h must be a positive finite number, got {10 ** 400}"),
    ([2.0], np.float32(0.1), "h must be a positive finite number, got np.float32(0.1)"),
    # points are judged before h
    (["a"], -1.0, "points must be finite numbers, got 'a'"),
], ids=["str_point", "huge_int_point", "nan_point", "bool_point", "no_points", "not_a_sequence",
        "nan_h", "inf_h", "str_h", "zero_h", "none_h", "bool_h", "huge_int_h", "float32_h",
        "points_before_h"])
def test_validate_family_judges_its_points_and_h_first(points, h, text):
    for fam in (_NIL2, _GAUGE):   # h is judged even where the stencil ignores it
        with pytest.raises(InvalidInputError) as got:
            validate_family(fam, points, h)
        assert str(got.value) == text


def test_validate_family_takes_points_of_any_sequence_as_given():
    want = validate_family(_NIL2, [2, 3.5])
    for points in ((2, 3.5), np.array([2, 3.5])):
        got = validate_family(_NIL2, points)
        assert (got.labels, got.norms) == (want.labels, want.norms)


@pytest.mark.filterwarnings("error")
def test_validate_family_is_silent_past_the_first_bad_point():
    # the stack meets inf - inf at every point after the collapsed first one
    fam = SolutionFamily("Nilpotent3x3", {"alpha": 1e300, "beta": 1e300, "gamma": 1e300,
                                          "delta": 1e300, "mu": 1e300})
    with pytest.raises(InvalidInputError, match="x=10000000000000.0 with h=0.0001: grid"):
        validate_family(fam, [1e13, 2.0, 3.0], h=1e-4)


def test_eval_family_errors_name_the_point_as_given():
    for fam, point in ((_NIL2, 1), (_NIL2, -3), (_TRI, 0), (_SINGULAR_GAUGE, 0)):
        with pytest.raises(Exception) as want:
            eval_family_per_point(fam, point)
        with pytest.raises(type(want.value)) as got:
            eval_family(fam, point)
        assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("error")
def test_poly_l3_residual_with_a_nan_part_fails_naming_its_point():
    # at y = 1e308, dC - (G - B) is inf - inf: the NaN part must not read as an exact point
    fam = SolutionFamily("PolyL3", {"alpha": 1, "beta": 1, "gamma": 1, "delta": 0})
    with pytest.raises(InvalidInputError) as got:
        validate_family(fam, [0.5, 1e308])
    assert str(got.value) == "residual 'x=1e+308' is not a finite nonnegative norm"
    assert validate_family(fam, [0.5]).norms == validate_family_per_point(fam, [0.5]).norms

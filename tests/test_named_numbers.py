"""One rule judges every {name: number} input: known names, finite int or float values.

``algebra_core.finite_numbers`` is that rule.  Every entry point that takes named
structure constants or deformation parameters, in the package and in the CLI,
refuses a value that is not a finite int or float with an InvalidInputError that
names the entry, instead of converting a string, reading True as 1.0, letting NaN
through, or failing later with a bare ValueError, TypeError or OverflowError.

Four more rules of ``algebra_core`` are tested here the same way: ``one_of``, the one
lookup of a name in a catalogue, whose error lists the catalogue's names,
``finite_span``, the one rule for a span, ``float_array``, the one conversion of an
array argument, and ``is_index``, the one test of an integer, which takes numpy
integers wherever it takes Python ones.
"""

import json
import math
import re

import numpy as np
import pytest

from deformcs.algebra_core import (MatrixPair, StructTensor, assoc_residual, finite_numbers,
                                   float_array)
from deformcs.cli import EXIT_INVALID, ScenarioConfig, main
from deformcs.closed_forms import SolutionFamily, eval_family
from deformcs.continuous_flows import (first_integrals, get_system, integrate,
                                      spectral_invariants, state_from_entries)
from deformcs.dda_registry import SampledField, TensorGrid, lookup
from deformcs.discrete_flows import (MapState, check_map, discrete_oriented_assoc_residual,
                                     init_map_state, lattice_field_from_l5_orbit, orbit,
                                     oriented_assoc_defect, step)
from deformcs.errors import InvalidInputError
from deformcs.reductions import (chazy_rhs, chazy_second_integral, chazy_state_phi_B,
                                 integrate_chazy, integrate_reduction, reduction_row)

BAD_VALUES = ["1.5", "abc", None, True, math.nan, math.inf, 10 ** 400]
_MAP_START = {"B": 2.0, "C": 0.5, "E": 0.3, "G": 0.8, "M": 0.2, "N": 0.6}
_FLOW_START = {"B": 0.0, "C": 0.0, "E": 1.0, "G": 1.0, "M": -1.0, "N": -1.0}
_SPAN = (0.0, 0.01)
_G_ROW = (1.0, 0.5, -0.3)

# (entry point, the call with one value replaced, the entry its error must name)
PACKAGE = [
    ("init_map_state initial", lambda v: init_map_state("L4", {**_MAP_START, "B": v}),
     "L4 initial['B']"),
    ("init_map_state prev", lambda v: init_map_state("L5", _MAP_START, {"E": v}),
     "L5 prev['E']"),
    ("state_from_entries", lambda v: state_from_entries("L2a_2x2", {**_FLOW_START, "E": v}),
     "L2a_2x2 entry['E']"),
    ("integrate", lambda v: integrate("L3_detnorm", {**_FLOW_START, "B": 1.0, "M": v},
                                      _SPAN, 1e-3), "L3_detnorm entry['M']"),
    ("integrate_reduction initial",
     lambda v: integrate_reduction("Boussinesq", (v, 0.0), {}, _SPAN, 1e-3),
     "Boussinesq initial['E']"),
    ("integrate_reduction params",
     lambda v: integrate_reduction("Boussinesq", (0.1, 0.0), {"alpha": v}, _SPAN, 1e-3),
     "Boussinesq params['alpha']"),
    ("integrate_chazy params",
     lambda v: integrate_chazy("ChazyIII", (1.0, 0.5, -0.3), _SPAN, 1e-3, phi0=v),
     "ChazyIII params['phi0']"),
    ("SolutionFamily", lambda v: SolutionFamily("Nilpotent2x2", {"alpha": v, "beta": 1.0}),
     "Nilpotent2x2 params['alpha']"),
]

_FLOW = {"kind": "flow", "system": "L2a_2x2", "span": [1.0, 1.1], "step": 1e-2,
         "initial": {"E": 1.0, "G": 1.0, "M": -1.0, "N": -1.0}, "free": {"B": 0.0, "C": 0.0}}
_MAP = {"kind": "map", "dda": "L5", "steps": 3, "initial": _MAP_START, "prev": {"B": 1.0}}
_REDUCTION = {"kind": "reduction", "reduction": "Boussinesq", "span": [0.0, 0.01],
              "step": 1e-3, "initial": {"E": 0.3, "E1": 0.1}, "params": {"alpha": 0.5}}
_FAMILY = {"kind": "validate_family", "family": "Nilpotent2x2", "points": [2.0],
           "params": {"alpha": 0.0, "beta": 1.0}}

# (scenario, field, entry, the text its error must hold)
CLI = [
    (_FLOW, "initial", "E", "field 'initial'['E']"),
    (_FLOW, "free", "B", "field 'free'['B']"),
    (_MAP, "initial", "G", "field 'initial'['G']"),
    (_MAP, "prev", "B", "field 'prev'['B']"),
    (_REDUCTION, "initial", "E1", "field 'initial'['E1']"),
    (_REDUCTION, "params", "alpha", "field 'params'['alpha']"),
    (_FAMILY, "params", "alpha", "field 'params': Nilpotent2x2 params['alpha']"),
]


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("call, named", [case[1:] for case in PACKAGE],
                         ids=[case[0] for case in PACKAGE])
def test_package_entry_points_refuse_a_bad_value_by_name(call, named, value):
    with pytest.raises(InvalidInputError, match=re.escape(f"{named} must be a finite number")):
        call(value)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("doc, key, name, named", CLI,
                         ids=[f"{doc['kind']}-{key}" for doc, key, _, _ in CLI])
def test_cli_fields_refuse_a_bad_value_naming_the_field(tmp_path, capsys, doc, key, name,
                                                        named, value):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**doc, key: {**doc[key], name: value}}))
    assert main(["validate", str(scenario)]) == EXIT_INVALID
    assert f"{named} must be a finite number" in capsys.readouterr().err


def test_the_rule_returns_floats_and_names_unknown_entries_sorted():
    assert finite_numbers("x", {"b": 1, "a": -2.5}, "ab") == {"b": 1.0, "a": -2.5}
    assert type(finite_numbers("x", {"a": 3}, "a")["a"]) is float
    with pytest.raises(InvalidInputError, match=re.escape("x has unknown entries ['c', 'd']")):
        finite_numbers("x", {"d": 1.0, "a": 1.0, "c": math.nan}, "ab")
    named = "x['b'] must be a finite number, got 'q'"
    with pytest.raises(InvalidInputError, match=re.escape(named)):
        finite_numbers("x", {"a": 1.0, "b": "q", "c": None}, "abc")


@pytest.mark.parametrize("call, named", [
    (lambda: init_map_state("L4", {**_MAP_START, "Q": 1.0}),
     "L4 initial has unknown entries ['Q']"),
    (lambda: init_map_state("L5", _MAP_START, {"A": 1.0}), "L5 prev has unknown entries ['A']"),
    (lambda: integrate_reduction("Boussinesq", (0.1, 0.0), {"phi0": 0.5}, _SPAN, 1e-3),
     "Boussinesq params has unknown entries ['phi0']"),
], ids=["map initial", "map prev", "reduction params"])
def test_package_entry_points_name_unknown_entries(call, named):
    with pytest.raises(InvalidInputError, match=re.escape(named)):
        call()


_NOT_A_MAPPING = "must be a mapping of names to numbers, got "
_L2A_MISSING = "L2a_2x2 state is missing entries ['E', 'G', 'M', 'N', 'C']"
_NOT_PAIRS = "sampled field pairs must be MatrixPairs, got "
_VALUE = {"C1": [[1.0, 0.0], [0.0, 1.0]], "C2": [[0.0, 0.0], [1.0, 0.0]]}
_FIELD_PAIR = MatrixPair.from_entries(2, _FLOW_START)


@pytest.mark.parametrize("call, named", [
    (lambda: integrate("L2a_2x2", None, _SPAN, 1e-3), f"L2a_2x2 state {_NOT_A_MAPPING}None"),
    (lambda: init_map_state("L4", None), f"L4 initial {_NOT_A_MAPPING}None"),
    (lambda: SolutionFamily("Nilpotent2x2", ["alpha"]),
     f"Nilpotent2x2 params {_NOT_A_MAPPING}['alpha']"),
    (lambda: integrate_reduction("ChazyV", 5.0, {}, _SPAN, 1e-3),
     "ChazyV initial must be a sequence of numbers, got 5.0"),
    (lambda: integrate_reduction("ChazyV", _G_ROW, 5.0, _SPAN, 1e-3),
     f"ChazyV params {_NOT_A_MAPPING}5.0"),
    (lambda: orbit("L4", None, 3), "L4 state must be a MapState, got None"),
    (lambda: first_integrals("L2a_2x2", None), f"L2a_2x2 state {_NOT_A_MAPPING}None"),
    (lambda: first_integrals("L2a_2x2", {"B": 0.0}), _L2A_MISSING),
    (lambda: spectral_invariants("L2a_2x2", None), f"L2a_2x2 state {_NOT_A_MAPPING}None"),
    (lambda: spectral_invariants("L2a_2x2", {"B": 0.0}), _L2A_MISSING),
    (lambda: SampledField("L2b", [0.0, 1.0], [1, 2]), f"{_NOT_PAIRS}[1, 2]"),
    (lambda: SampledField("L2b", [0.0], [_VALUE]), f"{_NOT_PAIRS}[{_VALUE!r}]"),
    (lambda: SampledField("L2b", [0.0], None), f"{_NOT_PAIRS}None"),
    (lambda: SampledField("L2b", [0.0], _FIELD_PAIR), f"{_NOT_PAIRS}{_FIELD_PAIR!r}"),
    (lambda: SampledField("L2b", [0.0, 1.0], [_FIELD_PAIR, _VALUE]),
     f"{_NOT_PAIRS}{[_FIELD_PAIR, _VALUE]!r}"),
], ids=["integrate", "init_map_state", "SolutionFamily", "integrate_reduction initial",
        "integrate_reduction params", "orbit", "first_integrals", "first_integrals entries",
        "spectral_invariants", "spectral_invariants entries", "SampledField ints",
        "SampledField value dicts", "SampledField None", "SampledField one pair",
        "SampledField pair then value dict"])
def test_package_entry_points_refuse_a_container_of_the_wrong_kind(call, named):
    with pytest.raises(InvalidInputError) as got:
        call()
    assert str(got.value) == named


def test_a_flow_state_ignores_names_outside_its_system():
    entries = {**_FLOW_START, "A": "not read", "Q": math.nan}
    assert state_from_entries("L2a_2x2", entries) == {k: float(v) for k, v in _FLOW_START.items()}


_CHAZY_KEYS = ("ChazyV", "ChazyV_shifted", "Generic", "ChazyVII", "ChazyVIII", "ChazyIII")
_MAP_KEYS = ("L2b", "L4", "L5")

# (catalogue, its lookups with the name replaced, the names its error must list)
CATALOGUES = [
    ("dda", [lookup], ("L1", "L2a", "L2b", "L3", "L4", "L5")),
    ("flow system", [get_system, lambda v: integrate(v, _FLOW_START, _SPAN, 1e-3)],
     ("L2a_3x3", "L2a_2x2", "L3_detnorm", "L3_unimodular", "L3_simple")),
    ("reduction", [reduction_row, lambda v: integrate_reduction(v, _G_ROW, {}, _SPAN, 1e-3)],
     ("ChazyV", "ChazyV_shifted", "ChazyVII", "ChazyVIII", "ChazyIII", "Boussinesq",
      "Elliptic")),
    ("Chazy variant", [lambda v: chazy_rhs(v, *_G_ROW),
                       lambda v: chazy_second_integral(*_G_ROW, 0.0, v)], _CHAZY_KEYS),
    ("reconstruction variant", [lambda v: chazy_state_phi_B(v, np.array(_G_ROW))],
     ("ChazyV", "ChazyV_shifted", "ChazyVIII", "ChazyVII", "ChazyIII")),
    ("solution family", [lambda v: SolutionFamily(v, {})],
     ("Nilpotent3x3", "Nilpotent2x2", "UpperTri2x2", "PolyL3", "GaugeL5")),
    ("map dda", [check_map, lambda v: init_map_state(v, {}),
                 lambda v: orbit(v, init_map_state("L4", _MAP_START), 1)], _MAP_KEYS),
    ("kind", [lambda v: ScenarioConfig({"kind": v})],
     ("flow", "map", "validate_family", "residual_scan", "reduction")),
]


@pytest.mark.parametrize("name", ["Q", ["L2a"], None], ids=repr)
@pytest.mark.parametrize("what, calls, keys", CATALOGUES, ids=[c[0] for c in CATALOGUES])
def test_every_catalogue_lookup_names_the_catalogue_and_its_keys(what, calls, keys, name):
    for call in calls:
        with pytest.raises(InvalidInputError) as got:
            call(name)
        assert str(got.value) == f"unknown {what} {name!r} (expected one of {keys})"


_SPAN_RULE = "span must be two finite numbers (start, end) with end >= start, got "
_BAD_SPANS = [(0.0, 1.0, 99.0), 5.0, (0.0,), "01", (1.0, 0.5), (0.0, math.inf),
              np.array([0.0, 1.0, 99.0]), np.array([[0.0, 1.0]])]
_RUNS = [
    lambda span: integrate("L2a_2x2", _FLOW_START, span, 1e-3),
    lambda span: integrate_reduction("ChazyV", _G_ROW, {}, span, 1e-3),
]


@pytest.mark.parametrize("span", _BAD_SPANS, ids=repr)
@pytest.mark.parametrize("call", _RUNS, ids=["integrate", "integrate_reduction"])
def test_every_run_refuses_a_span_that_is_not_two_ordered_finite_numbers(call, span):
    with pytest.raises(InvalidInputError) as got:
        call(span)
    assert str(got.value) == _SPAN_RULE + repr(span)



@pytest.mark.parametrize("call", _RUNS, ids=["integrate", "integrate_reduction"])
def test_a_span_may_be_a_1d_array_of_its_two_ends(call):
    want, got = call((0.0, 0.01)), call(np.array([0.0, 0.01]))
    assert np.array_equal(got.ts, want.ts) and np.array_equal(got.states, want.states)


_XS = np.arange(-4, 6)
_PHI = np.array([1.0 + _XS * _XS, 2.0 - _XS, 0.5 + _XS * _XS * _XS])


# (a call whose array argument is not one, the error that names the argument)
@pytest.mark.parametrize("call, message", [
    (lambda: MatrixPair(2, [[1, "a"], [0, 1]], np.eye(2)), "C1 must be a list of numbers"),
    (lambda: MatrixPair(2, [[10 ** 400, 0], [0, 1]], np.eye(2)), "C1 must be a list of numbers"),
    (lambda: MatrixPair(2, np.eye(2), [[1], [0, 1]]), "C2 must be a list of numbers"),
    (lambda: StructTensor(2, "abc"), "tensor c must be a list of numbers"),
    (lambda: TensorGrid(c=[[1], [1, 2]]), "tensor grid c must be a list of numbers"),
    (lambda: assoc_residual(([["a"]], [["b"]])), "C1 must be a list of numbers"),
    (lambda: discrete_oriented_assoc_residual("a", _XS), "phi must be a list of numbers"),
    (lambda: discrete_oriented_assoc_residual(_PHI, [0, "a"]), "xs must be a list of numbers"),
    (lambda: oriented_assoc_defect("a", _XS), "phi must be a list of numbers"),
    (lambda: oriented_assoc_defect(_PHI, [0, "a"]), "xs must be a list of numbers"),
    # numpy converts these with dtype=float, but none of them is a list of numbers
    (lambda: MatrixPair(2, [["1", "0"], ["0.5", "1"]], [["0", "2"], ["1", "3"]]),
     "C1 must be a list of numbers"),
    (lambda: MatrixPair(2, [[None, 0], [0, 1]], [[0, 2], [1, 3]]), "C1 must be a list of numbers"),
    (lambda: MatrixPair(2, np.eye(2), np.eye(2) * (1 + 1j)), "C2 must be a list of numbers"),
    (lambda: StructTensor(2, np.ones((2, 2, 2), dtype=bool)), "tensor c must be a list of numbers"),
    (lambda: float_array("x", ["1.5", None]), "x must be a list of numbers"),
    (lambda: float_array("x", [True, False]), "x must be a list of numbers"),
    (lambda: float_array("x", None), "x must be a list of numbers"),
], ids=["MatrixPair string", "MatrixPair huge int", "MatrixPair ragged", "StructTensor",
        "TensorGrid", "assoc_residual", "gauge phi", "gauge xs", "gauge view phi",
        "gauge view xs", "MatrixPair numeric strings", "MatrixPair None", "MatrixPair complex",
        "StructTensor bools", "float_array string and None", "float_array bools",
        "float_array None"])
def test_array_and_integer_arguments_fail_closed_naming_the_argument(call, message):
    with pytest.raises(InvalidInputError) as got:
        call()
    assert str(got.value) == message


_SIX = (2.0, 0.5, 0.3, 0.8, 0.2, 0.6)


# (a call on a hand-built MapState that is not one, the start of the error that names it)
@pytest.mark.parametrize("call, message", [
    (lambda: orbit("L4", MapState(0, (1.0, 2.0)), 3),
     "L4 state values must be six numbers, got (1.0, 2.0)"),
    (lambda: step("L2b", MapState(0, (1.0, 2.0))),
     "L2b state values must be six numbers, got (1.0, 2.0)"),
    (lambda: orbit("L4", MapState(0, tuple("123456")), 3),
     "L4 state values must be six numbers, got ('1', '2', '3', '4', '5', '6')"),
    (lambda: step("L4", MapState(0, None)), "L4 state values must be six numbers, got None"),
    (lambda: orbit("L2b", MapState(0, (True,) * 6), 3),
     "L2b state values must be six numbers, got (True, True, True, True, True, True)"),
    (lambda: step("L2b", MapState(0, _SIX[:5] + (10 ** 400,))),
     "L2b state values must be six numbers, got (2.0, 0.5, 0.3, 0.8, 0.2, 1000"),
    (lambda: orbit("L5", MapState(0, _SIX, np.eye(3)), 3),
     "L5 state prev_C1 must be a 2x2 array of numbers, got array([[1., 0., 0.],"),
    (lambda: step("L5", MapState(0, _SIX, [[1.0, 0.0], [0.0, 1.0]])),
     "L5 state prev_C1 must be a 2x2 array of numbers, got [[1.0, 0.0], [0.0, 1.0]]"),
    (lambda: orbit("L5", MapState(0, _SIX, np.array([["1", "0"], ["0", "1"]])), 3),
     "L5 state prev_C1 must be a 2x2 array of numbers, got array([['1', '0'],"),
    (lambda: orbit("L4", MapState(0, _SIX, "C1"), 3),
     "L4 state prev_C1 must be a 2x2 array of numbers, got 'C1'"),
], ids=["orbit two values", "step two values", "strings", "None", "bools", "huge int",
        "3x3 prev_C1", "list prev_C1", "string prev_C1", "L4 string prev_C1"])
def test_a_malformed_hand_built_map_state_is_refused_naming_it(call, message):
    with pytest.raises(InvalidInputError) as got:
        call()
    assert str(got.value).startswith(message)


_PAIR = (np.eye(2), [[0.0, 0.0], [1.0, 0.0]])


# (a call with numpy integers, the same call with Python ones); cs_residual's point is
# tested in test_dda_registry.py
@pytest.mark.parametrize("call", [
    lambda i: orbit("L4", init_map_state("L4", _MAP_START), i(3)).entries,
    lambda i: MatrixPair(i(2), *_PAIR).entries(),
    lambda i: lattice_field_from_l5_orbit(
        orbit("L5", init_map_state("L5", _MAP_START, {"B": 1.0}), 5), (i(2), i(3))).c,
    lambda i: oriented_assoc_defect(_PHI, [i(x) for x in _XS]),
], ids=["orbit steps", "MatrixPair size", "lattice shape", "oriented_assoc_defect xs"])
def test_numpy_integers_count_as_integers(call):
    want, got = call(int), call(np.int64)
    if isinstance(want, dict):
        assert got == want
    else:
        assert np.array_equal(got, want)


_NIL2 = SolutionFamily("Nilpotent2x2", {"alpha": 1.0})


@pytest.mark.parametrize("point", ["x", None, True, math.nan], ids=repr)
def test_eval_family_refuses_a_point_that_is_not_a_finite_number(point):
    with pytest.raises(InvalidInputError) as got:
        eval_family(_NIL2, point)
    assert str(got.value) == f"point must be a finite number, got {point!r}"


def test_eval_family_names_a_valid_int_point_as_given():
    with pytest.raises(InvalidInputError) as got:
        eval_family(_NIL2, 1)
    assert str(got.value) == "x = 1 is too close to the ln x = 0 pole"

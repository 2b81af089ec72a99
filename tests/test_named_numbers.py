"""One rule judges every {name: number} input: known names, finite int or float values.

``algebra_core.finite_numbers`` is that rule.  Every entry point that takes named
structure constants or deformation parameters, in the package and in the CLI,
refuses a value that is not a finite int or float with an InvalidInputError that
names the entry, instead of converting a string, reading True as 1.0, letting NaN
through, or failing later with a bare ValueError, TypeError or OverflowError.
"""

import json
import math
import re

import pytest

from deformcs.algebra_core import finite_numbers
from deformcs.cli import EXIT_INVALID, main
from deformcs.closed_forms import SolutionFamily
from deformcs.continuous_flows import integrate, state_from_entries
from deformcs.discrete_flows import init_map_state
from deformcs.errors import InvalidInputError
from deformcs.reductions import integrate_chazy, integrate_reduction

BAD_VALUES = ["1.5", "abc", None, True, math.nan, math.inf, 10 ** 400]
_MAP_START = {"B": 2.0, "C": 0.5, "E": 0.3, "G": 0.8, "M": 0.2, "N": 0.6}
_FLOW_START = {"B": 0.0, "C": 0.0, "E": 1.0, "G": 1.0, "M": -1.0, "N": -1.0}
_SPAN = (0.0, 0.01)

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


def test_a_flow_state_ignores_names_outside_its_system():
    entries = {**_FLOW_START, "A": "not read", "Q": math.nan}
    assert state_from_entries("L2a_2x2", entries) == {k: float(v) for k, v in _FLOW_START.items()}

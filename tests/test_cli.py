import copy
import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deformcs.cli import EXIT_INVALID, EXIT_OK, EXIT_SINGULAR, main


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _read_report(out):
    return json.loads((out / "report.json").read_text())


FLOW_SCENARIO = {
    "kind": "flow", "system": "L2a_2x2",
    "initial": {"E": 1.0, "G": 1.0, "M": -1.0, "N": -1.0},
    "free": {"B": 0.0, "C": 0.0},
    "span": [1.0, 2.0], "step": 1e-3, "stride": 100,
}


def test_flow_scenario_end_to_end(tmp_path, capsys):
    scenario = _write(tmp_path, "flow.json", FLOW_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "trajectory.csv").open()))
    assert rows[0]["s"] == "1.0"
    assert float(rows[-1]["E"]) == pytest.approx(0.5, abs=1e-8)
    assert float(rows[-1]["x"]) == pytest.approx(math.e ** 2, rel=1e-9)
    report = _read_report(out)
    assert report["status"] == "completed"
    assert report["tool"] == "deform-cs"
    assert report["config"]["system"] == "L2a_2x2"
    drift = report["invariant_drift"]
    assert drift["I1"]["max_abs"] < 1e-10
    # this family has a defective double eigenvalue, so the spectrum is only
    # determined to sqrt(eps); nondegenerate drift bounds live in the flow tests
    assert drift["eigenvalues"]["max_abs"] < 1e-6


def test_map_scenario_reaches_fixed_point(tmp_path):
    scenario = _write(tmp_path, "map.json", {
        "kind": "map", "dda": "L4",
        "initial": {"B": 1, "C": 1, "E": 0, "G": 1, "M": 1, "N": 0},
        "steps": 10,
    })
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_OK
    rows = list(csv.DictReader((out / "orbit.csv").open()))
    assert len(rows) == 11
    assert [rows[1][k] for k in ("E", "G", "M", "N")] == ["1.0", "0.0", "0.0", "1.0"]
    assert [rows[10][k] for k in ("E", "G", "M", "N")] == ["1.0", "0.0", "0.0", "1.0"]
    report = _read_report(out)
    assert report["invariant_drift"]["I1"]["max_abs"] == 0.0


def test_validate_family_scenario(tmp_path):
    scenario = _write(tmp_path, "vf.json", {
        "kind": "validate_family", "family": "Nilpotent2x2",
        "params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0},
        "points": [2.0, math.e, 10.0], "h": 1e-4,
    })
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_OK
    report = _read_report(out)
    assert max(report["residuals"].values()) < 1e-6


def test_unknown_dda_is_validation_error(tmp_path, capsys):
    scenario = _write(tmp_path, "bad.json", {
        "kind": "map", "dda": "L9",
        "initial": {"B": 1, "C": 1, "E": 0, "G": 1, "M": 1, "N": 0},
        "steps": 5,
    })
    assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert "unknown dda" in capsys.readouterr().err


def test_missing_field_named_in_error(tmp_path, capsys):
    scenario = _write(tmp_path, "bad2.json", {"kind": "flow", "system": "L2a_2x2",
                                              "initial": {}})
    assert main(["run", str(scenario)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "missing" in err and "entries" in err or "span" in err


def test_validate_subcommand_parse_only(tmp_path):
    scenario = _write(tmp_path, "flow.json", FLOW_SCENARIO)
    assert main(["validate", str(scenario)]) == EXIT_OK
    bad = _write(tmp_path, "bad.json", {"kind": "flow", "system": "nope"})
    assert main(["validate", str(bad)]) == EXIT_INVALID
    assert not (tmp_path / "report.json").exists()  # validate writes nothing


def test_singular_run_exits_three_with_artifacts(tmp_path):
    scenario = _write(tmp_path, "pole.json", {
        "kind": "flow", "system": "L2a_2x2",
        "initial": {"E": 0.0, "G": -3.0, "M": 0.0, "N": 0.0},
        "free": {"B": 0.0, "C": 0.0},
        "span": [0.0, 1.0], "step": 1e-3,
    })
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_SINGULAR
    report = _read_report(out)
    assert report["status"] == "truncated"
    assert "overflow" in report["diagnostic"]
    assert (out / "trajectory.csv").exists()


def test_reduction_scenario(tmp_path):
    scenario = _write(tmp_path, "chazy.json", {
        "kind": "reduction", "reduction": "ChazyV",
        "initial": {"G": 1.0, "G1": 0.5, "G2": -0.3},
        "span": [0.0, 0.5], "step": 1e-3, "stride": 50,
    })
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_OK
    report = _read_report(out)
    assert report["invariant_drift"]["I2_chazy"]["max_abs"] < 1e-8
    rows = list(csv.DictReader((out / "trajectory.csv").open()))
    assert set(rows[0]) == {"t", "G", "G1", "G2", "I2_chazy"}


def test_residual_scan_scenario(tmp_path):
    xs = [1.0, 1.001, 1.002, 1.003, 1.004]
    t = [math.log(x) for x in xs]
    values = []
    for ti in t:
        # constant commuting pair: residual should be ~0
        values.append({"C1": [[0.5, 0.2], [0.1, 0.4]], "C2": [[0.2, 0.3], [0.4, 0.1]]})
    # make the shared column consistent: C2 col0 must equal C1 col1
    for v in values:
        v["C2"][0][0] = v["C1"][0][1]
        v["C2"][1][0] = v["C1"][1][1]
    scenario = _write(tmp_path, "scan.json", {
        "kind": "residual_scan", "dda": "L2a",
        "field": {"dda": "L2a", "grid": xs, "values": values},
    })
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_OK
    rows = list(csv.DictReader((out / "residuals.csv").open()))
    assert len(rows) == 3  # interior points only
    report = _read_report(out)
    assert len(report["residuals"]) == 3


def test_determinism_modulo_timestamp(tmp_path):
    scenario = _write(tmp_path, "flow.json", FLOW_SCENARIO)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        report["timestamp"] = "MASKED"
        outs.append((json.dumps(report, sort_keys=True),
                     (out / "trajectory.csv").read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_empty_trajectory_has_null_drift(tmp_path):
    doc = dict(FLOW_SCENARIO)
    doc["span"] = [1.0, 1.0]
    scenario = _write(tmp_path, "empty.json", doc)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_OK
    assert _read_report(out)["invariant_drift"] is None


def test_step_override(tmp_path):
    scenario = _write(tmp_path, "flow.json", FLOW_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--step", "0.01",
                 "--quiet"]) == EXIT_OK
    rows = list(csv.reader((out / "trajectory.csv").open()))
    assert len(rows) == 3  # header + states 0 and 100 of a 100-step run


def test_nonpositive_step_rejected(tmp_path, capsys):
    doc = dict(FLOW_SCENARIO)
    doc["step"] = -1.0
    scenario = _write(tmp_path, "flow.json", doc)
    assert main(["run", str(scenario)]) == EXIT_INVALID
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("step, named", [
    ("1e-300", "exceeds MAX_STEPS"), ("nan", "finite"), ("inf", "finite"), ("0", "positive")])
def test_step_override_is_checked_like_the_scenario_step(tmp_path, capsys, step, named):
    scenario = _write(tmp_path, "flow.json", FLOW_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--step", step]) == EXIT_INVALID
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_scenario_file_missing(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_INVALID
    assert "not found" in capsys.readouterr().err


def test_unreadable_scenario_or_field_file_exits_two(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    scan = _write(tmp_path, "scan.json", {"kind": "residual_scan", "dda": "L2a",
                                          "field_path": str(binary)})
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    scan_list = _write(tmp_path, "scan_list.json", {"kind": "residual_scan", "dda": "L2a",
                                                    "field_path": str(listed)})
    for path, named in ((tmp_path, "not found"), (binary, "not valid JSON"),
                        (scan, "sampled field file is not valid JSON"),
                        (scan_list, "sampled field must be a JSON object")):
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert named in capsys.readouterr().err


_MAP = {"kind": "map", "dda": "L5", "steps": 3,
        "initial": {"B": 1, "C": 0.5, "E": 0.3, "G": 0.8, "M": 0.2, "N": 0.6}}
_FIELD = {"dda": "L2a", "grid": [1.0, 1.001, 1.002],
          "values": [{"C1": [[0.5, 0.2], [0.1, 0.4]], "C2": [[0.2, 0.3], [0.4, 0.1]]}] * 3}
_CHAZY = {"kind": "reduction", "reduction": "ChazyV", "span": [0.0, 0.5], "step": 1e-3,
          "initial": {"G": 1.0, "G1": 0.5, "G2": -0.3}}
_SCAN = {"kind": "residual_scan", "dda": "L2a", "field": _FIELD}


@pytest.mark.parametrize("doc, named", [
    ({**_MAP, "initial": {**_MAP["initial"], "Q": 1.0}}, "'initial' has unknown entries ['Q']"),
    ({**_MAP, "prev": {"B": 1, "Z": 2}}, "'prev' has unknown entries ['Z']"),
    ({**FLOW_SCENARIO, "initial": {**FLOW_SCENARIO["initial"], "A": 1.0}},
     "'initial' has unknown entries ['A']"),
    ({**FLOW_SCENARIO, "free": {"B": 0.0, "C": 0.0, "M": 1.0}}, "'free' has unknown entries ['M']"),
    ({"kind": "validate_family", "family": "Nilpotent2x2", "points": [2.0],
      "params": {"alpha": "x", "beta": 1.0, "gamma": 0.0}}, "'params'['alpha']"),
    ({"kind": "validate_family", "family": "GaugeL5", "points": [0.5],
      "params": {"phi0": "abc", "phi1": [0.0, 1.0], "phi2": [0.0, 0.0, 1.0]}}, "'params'['phi0']"),
    ({"kind": "residual_scan", "dda": "L2a",
      "field": {**_FIELD, "values": _FIELD["values"][:2] + [{"C1": [[0.5, 0.2], [0.1, 0.4]]}]}},
     "value 2 needs numeric matrices 'C1' and 'C2'"),
    ({"kind": "validate_family", "family": "Nilpotent2x2", "points": [2.0, 2.0000001],
      "params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0}}, "'x=2' occurs more than once"),
    ({**_CHAZY, "initial": {"G": 1.0, "g1": 0.5, "G2": -0.3}},
     "'initial' has unknown entries ['g1']"),
    ({**_CHAZY, "params": {"b0": 0.1, "alpha": 1.0}}, "'params' has unknown entries ['alpha']"),
    ({**_CHAZY, "reduction": "Boussinesq", "initial": {"E": 0.3, "E1": 0.1},
      "params": {"alpha": 0.5, "phi0": 0.1}}, "'params' has unknown entries ['phi0']"),
    ({**_CHAZY, "reduction": "Elliptic", "initial": {"B": 0.5, "E": 0.5, "G": -2.5}},
     "'initial' has unknown entries ['G']"),
    ({**FLOW_SCENARIO, "span": [0.0, 1e300], "step": 1e-300}, "field 'step': span / step"),
    ({**_CHAZY, "span": [0.0, 1e7], "step": 1e-3}, "exceeds MAX_STEPS = 1000000"),
    ({**_MAP, "steps": 10 ** 6 + 1}, "field 'steps' must be a nonnegative integer at most"),
    ({**_SCAN, "field": {**_FIELD, "grid": ["a", 1.0, 2.0]}}, "'grid' must be a list of numbers"),
    ({**_SCAN, "field": {**_FIELD, "grid": {}}}, "'grid' must be a list of numbers"),
    ({**_SCAN, "field": {**_FIELD, "grid": [[1.0], [2.0, 3.0], [4.0]]}},
     "'grid' must be a list of numbers"),
    ({**_SCAN, "field": {**_FIELD, "dda": {}}}, "sampled field 'dda' must be a string"),
    ({**_SCAN, "field": {**_FIELD, "dda": 3}}, "sampled field 'dda' must be a string"),
    ({**_SCAN, "field": {**_FIELD, "values": 5}}, "sampled field 'values' must be a list"),
    ({"kind": "residual_scan", "dda": "L2a", "field_path": ""},
     "field 'field_path' does not name a file"),
    ({**FLOW_SCENARIO, "span": [0.0, 10 ** 400]}, "field 'span' must be finite"),
    ({**FLOW_SCENARIO, "initial": {**FLOW_SCENARIO["initial"], "E": 10 ** 400}},
     "field 'initial'['E'] must be a finite number"),
    ({"kind": "validate_family", "family": "Nilpotent2x2", "points": [10 ** 400],
      "params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0}}, "field 'points'"),
    ({"kind": "validate_family", "family": "Nilpotent2x2", "points": [2.0], "h": 10 ** 400,
      "params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0}}, "field 'h'"),
    ({**_SCAN, "field": {**_FIELD, "grid": [10 ** 400, 1.0, 2.0]}},
     "'grid' must be a list of numbers"),
    ({**_SCAN, "field": {**_FIELD, "values": [{"C1": [[10 ** 400]], "C2": [[0.0]]}] * 3}},
     "value 0 needs numeric matrices 'C1' and 'C2'"),
])
def test_malformed_scenario_exits_two_naming_the_field(tmp_path, capsys, doc, named):
    scenario = _write(tmp_path, "bad.json", doc)
    assert main(["run", str(scenario), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_INVALID
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fuzz: one node of a golden scenario replaced by an arbitrary JSON value.
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """The path of every node of a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.copy(doc)
    doc[path[0]] = _replace(doc[path[0]], path[1:], value)
    return doc


_GOLDEN_NODES = [(doc, path)
                 for doc in (json.loads(p.read_text())
                             for p in sorted(Path(__file__).parent.glob("golden/*/scenario.json")))
                 for path in _paths(doc)]


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(node=st.sampled_from(_GOLDEN_NODES), value=_JSON)
def test_validate_exits_zero_or_two_on_any_replaced_node(node, value):
    doc, path = node
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(_replace(doc, path, value)))
        assert main(["validate", str(scenario)]) in (EXIT_OK, EXIT_INVALID)

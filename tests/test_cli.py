import argparse
import copy
import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import deformcs
from deformcs import cli
from deformcs.cli import EXIT_INVALID, EXIT_OK, EXIT_SINGULAR, load_scenario, main
from deformcs.discrete_flows import init_map_state
from deformcs.errors import DeformError
from deformcs.integrators import step_count
from deformcs.reductions import REDUCTIONS


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
    with (out / "trajectory.csv").open() as fh:
        rows = list(csv.DictReader(fh))
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
    with (out / "orbit.csv").open() as fh:
        rows = list(csv.DictReader(fh))
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
    assert ("field 'dda': unknown map dda 'L9' (expected one of ('L2b', 'L4', 'L5'))"
            in capsys.readouterr().err)


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


_OVERFLOW_MAP = {"kind": "map", "dda": "L2b", "steps": 5,
                 "initial": {"B": 1.0, "C": 0.5, "E": 1e200, "G": 1e200, "M": 1e200, "N": 1e200}}


def test_map_step_to_non_finite_entries_exits_three_with_artifacts(tmp_path):
    # the first L2b step computes G M - E N = inf - inf: a numerical failure,
    # so the run is truncated (exit 3), not reported as bad input (exit 2)
    scenario = _write(tmp_path, "nan.json", _OVERFLOW_MAP)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_SINGULAR
    report = _read_report(out)
    assert report["status"] == "truncated"
    assert report["diagnostic"] == "state exceeded overflow guard at n=1"
    rows = list(csv.DictReader((out / "orbit.csv").read_text().splitlines()))
    assert [r["n"] for r in rows] == ["0"]


def _run_quiet(out, scenario):
    """(exit code, stdout, stderr) of ``deform-cs run --quiet`` in a fresh interpreter."""
    src = str(Path(deformcs.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "deformcs.cli", "run", str(scenario), "--out", str(out), "--quiet"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stdout, proc.stderr


def test_quiet_run_prints_nothing_when_invariants_overflow(tmp_path):
    # the invariants of the 1e200 start overflow to inf in orbit.csv; numpy
    # must not warn about that on stderr
    scenario = _write(tmp_path, "nan.json", _OVERFLOW_MAP)
    assert _run_quiet(tmp_path / "out", scenario) == (EXIT_SINGULAR, "", "")
    assert "inf" in (tmp_path / "out" / "orbit.csv").read_text()
    # a huge step overflows the first RK4 stages to inf and NaN: the run stops
    # at the guard, with no OverflowError from the right-hand side and no warning
    scenario = _write(tmp_path, "huge_step.json", {
        "kind": "reduction", "reduction": "Elliptic", "initial": {"B": 1, "E": 1, "C": -2},
        "params": {"alpha": 0}, "span": [0, 1e300], "step": 1e299})
    assert _run_quiet(tmp_path / "elliptic", scenario) == (EXIT_SINGULAR, "", "")
    assert _read_report(tmp_path / "elliptic")["diagnostic"] == (
        "state exceeded overflow guard 1e+12 at t=1e+299")


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_quiet_map_whose_solve_overflows_prints_nothing(tmp_path, dda):
    # G' = B + qC = 1e300 in the first step; C1 is regular, so the run stops at
    # the overflow guard, silently, and is not reported as singular
    scenario = _write(tmp_path, "huge.json", {
        "kind": "map", "dda": dda, "steps": 3,
        "initial": {"B": 1e300, "C": 0.5, "E": 1e10, "G": 2.0, "M": 0.3, "N": 0.1}})
    assert _run_quiet(tmp_path / "out", scenario) == (EXIT_SINGULAR, "", "")
    assert _read_report(tmp_path / "out")["diagnostic"] == "state exceeded overflow guard at n=1"


def test_map_with_a_subnormal_pivot_reports_its_truncation_without_a_numpy_warning(tmp_path):
    # a subnormal first pivot: 1/a and p = 3e309 are beyond the float range, so the
    # step's entries are NaN and the guard stops the run; no numpy warning may reach stderr
    scenario = _write(tmp_path, "subnormal.json", {
        "kind": "map", "dda": "L4", "steps": 3,
        "initial": {"B": 1e-310, "C": 0, "E": 0.5, "G": 1e300, "M": 0.3, "N": 0.2}})
    src, out = str(Path(deformcs.__file__).parents[1]), str(tmp_path / "out")
    proc = subprocess.run([sys.executable, "-m", "deformcs.cli", "run", str(scenario),
                           "--out", out], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (EXIT_SINGULAR, "")
    assert proc.stdout.startswith("[deform-cs] map: truncated (state exceeded overflow guard at "
                                  "n=1)\n")


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_map_whose_c1_has_a_zero_second_pivot_exits_three_with_artifacts(tmp_path, capsys, dda):
    # |BG - CE| = 2.9e-11 passes the tolerance check, but C1's second pivot rounds to 0
    scenario = _write(tmp_path, "lu.json", {
        "kind": "map", "dda": dda, "steps": 5,
        "initial": {"B": 8.768610301148978, "C": 0.4804184990778926, "E": 369740.7014836463,
                    "G": 20257.51706989476, "M": 0.5, "N": 0.25}})
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--quiet"]) == EXIT_SINGULAR
    assert capsys.readouterr() == ("", "")
    report = _read_report(out)
    assert report["status"] == "truncated"
    assert report["diagnostic"] == ("singular step at n=0: C1 is singular to working precision"
                                    " (BG - CE = -2.910e-11)")
    rows = list(csv.DictReader((out / "orbit.csv").read_text().splitlines()))
    assert [r["n"] for r in rows] == ["0"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reduction, initial, params, first_row", [
    ("Boussinesq", {"E": 1e200, "E1": 0.1}, {"alpha": 0.5, "beta": -0.2, "gamma": 0.1},
     "0.0,1e+200,0.1,nan"),
    ("Elliptic", {"B": 0.5, "E": 1e200, "C": -2.5}, {"alpha": -1.0},
     "0.0,0.5,1e+200,-2.5,nan,-2.4999999999999998e+200"),
    ("ChazyV", {"G": 1e200, "G1": 0.5, "G2": -0.3}, {}, "0.0,1e+200,0.5,-0.3,-inf"),
])
def test_quiet_reduction_from_a_huge_start_prints_nothing(tmp_path, capsys, reduction, initial,
                                                          params, first_row):
    # the integral of the start row overflows (E^3, E^4, G^4): the CSV gets inf or
    # NaN, with no OverflowError and no numpy warning
    doc = {"kind": "reduction", "reduction": reduction, "initial": initial,
           "span": [0.0, 0.05], "step": 0.001}
    scenario = _write(tmp_path, "huge.json", {**doc, "params": params} if params else doc)
    assert main(["run", str(scenario), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_SINGULAR
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[1] == first_row


@pytest.mark.filterwarnings("error")
def test_scan_with_non_finite_residual_exits_two_naming_the_point(tmp_path, capsys):
    small = {"C1": [[0.5, 0.2], [0.1, 0.4]], "C2": [[0.2, 0.3], [0.4, 0.1]]}
    big = {"C1": [[1e200] * 2] * 2, "C2": [[1e200] * 2] * 2}
    scenario = _write(tmp_path, "scan.json", {
        "kind": "residual_scan", "dda": "L2b",
        "field": {"dda": "L2b", "grid": [0.0, 1.0, 2.0, 3.0, 4.0],
                  "values": [small, small, small, big, small]}})
    assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "deform-cs: error: residual 'i=2' is not a finite nonnegative norm\n")


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
    with (out / "trajectory.csv").open() as fh:
        rows = list(csv.DictReader(fh))
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
    with (out / "residuals.csv").open() as fh:
        rows = list(csv.DictReader(fh))
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


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error")
def test_drift_of_an_invariant_that_is_not_finite_is_null_json(tmp_path, capsys):
    # gamma^2 overflows, so I3 is inf on every row and its deviation inf - inf
    doc = {"kind": "reduction", "reduction": "Boussinesq", "initial": {"E": 0.1, "E1": 0},
           "params": {"alpha": 0.2, "beta": 0.1, "gamma": 1e200},
           "span": [0, 0.01], "step": 0.001}
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "s.json", doc)), "--out", str(out)]) == EXIT_OK
    assert "Warning" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text(), parse_constant=_no_constant)
    assert report["invariant_drift"] == {"I3": {"max_abs": None, "max_rel": None}}
    # a NaN or infinite row, or finite rows further apart than the largest float
    null = {"x": {"max_abs": None, "max_rel": None}}
    for vals in ([1.0, math.inf], [math.nan, 1.0], [1.7e308, -1.7e308]):
        assert cli._drift_stats({"x": np.array(vals)}) == null
    assert cli._drift_stats({"x": np.array([1e308, -2.0])}) == {
        "x": {"max_abs": 1e308, "max_rel": 1.0}}


@pytest.mark.parametrize("step, named", [
    (-1.0, "positive"), (1e-300, "exceeds MAX_STEPS"), (math.nan, "finite"), (math.inf, "finite"),
    (0, "positive")])
def test_nonpositive_step_rejected(tmp_path, capsys, step, named):
    scenario = _write(tmp_path, "flow.json", {**FLOW_SCENARIO, "step": step})
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("deform-cs: error: field 'step'") and named in err
    assert not out.exists()


def test_scenario_file_missing(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_INVALID
    assert capsys.readouterr().err == (f"deform-cs: error: scenario file "
                                       f"{str(tmp_path / 'nope.json')!r} cannot be read: "
                                       f"No such file or directory\n")


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["validate", "--help"], [],
                                  ["run"], ["frob"], ["run", "s.json", "--step", "x"],
                                  ["run", "s.json", "--frob"]])
def test_reused_parser_prints_what_a_fresh_one_does(argv, capsys):
    outputs = []
    for parse in (cli._parser.__wrapped__().parse_args, main, main):
        with pytest.raises(SystemExit) as done:
            parse(argv)
        out = capsys.readouterr()
        outputs.append((done.value.code, out.out, out.err))
    assert outputs[1] == outputs[2] == outputs[0]
    assert cli._parser() is cli._parser()


def test_unreadable_scenario_or_field_file_exits_two(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    scan = _write(tmp_path, "scan.json", {"kind": "residual_scan", "dda": "L2a",
                                          "field_path": str(binary)})
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    scan_list = _write(tmp_path, "scan_list.json", {"kind": "residual_scan", "dda": "L2a",
                                                    "field_path": str(listed)})
    for path, named in ((tmp_path, f"scenario file {str(tmp_path)!r} cannot be read: not a "
                                   "regular file"), (binary, "scenario file is not valid JSON"),
                        (scan, "sampled field file is not valid JSON"),
                        (scan_list, "sampled field must be a JSON object")):
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert named in capsys.readouterr().err


def test_a_fifo_as_scenario_or_field_is_refused_without_blocking(tmp_path):
    # opening a FIFO for reading blocks until a writer comes, so it must be refused
    # before it is opened; the fresh interpreter and its timeout keep a regression
    # from hanging the suite
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    scan = _write(tmp_path, "scan.json", {"kind": "residual_scan", "dda": "L2a",
                                          "field_path": str(fifo)})
    src = str(Path(deformcs.__file__).parents[1])
    for scenario, message in (
            (scan, f"field 'field_path': sampled field file {str(fifo)!r} cannot be read: "
                   "not a regular file"),
            (fifo, f"scenario file {str(fifo)!r} cannot be read: not a regular file")):
        proc = subprocess.run([sys.executable, "-m", "deformcs.cli", "validate", str(scenario)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
        assert proc.stderr == f"deform-cs: error: {message}\n"


def test_a_nul_byte_in_a_scenario_or_field_path_cannot_be_read(tmp_path, capsys):
    scan = _write(tmp_path, "scan.json", {"kind": "residual_scan", "dda": "L2a",
                                          "field_path": "a\0b"})
    for scenario, message in (
            (str(scan), "field 'field_path': sampled field file 'a\\x00b' cannot be read: "
                        "embedded null byte"),
            ("a\0b", "scenario file 'a\\x00b' cannot be read: embedded null byte")):
        assert main(["validate", scenario]) == EXIT_INVALID
        assert capsys.readouterr().err == f"deform-cs: error: {message}\n"


def test_an_io_error_while_reading_exits_two_naming_the_file(tmp_path, capsys, monkeypatch):
    field = _write(tmp_path, "field.json", _FIELD)
    scan = _write(tmp_path, "scan.json", {"kind": "residual_scan", "dda": "L2a",
                                          "field_path": str(field)})
    real = Path.read_text

    def read_text(path, *args, **kwargs):
        if path.name in failing:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    for failing, message in (
            ({"field.json"}, f"field 'field_path': sampled field file {str(field)!r} cannot be "
                             "read: Input/output error"),
            ({"scan.json"}, f"scenario file {str(scan)!r} cannot be read: Input/output error")):
        assert main(["validate", str(scan)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"deform-cs: error: {message}\n"
    failing = ()
    assert main(["validate", str(scan)]) == EXIT_OK


_MAP = {"kind": "map", "dda": "L5", "steps": 3,
        "initial": {"B": 1, "C": 0.5, "E": 0.3, "G": 0.8, "M": 0.2, "N": 0.6}}
_FIELD = {"dda": "L2a", "grid": [1.0, 1.001, 1.002],
          "values": [{"C1": [[0.5, 0.2], [0.1, 0.4]], "C2": [[0.2, 0.3], [0.4, 0.1]]}] * 3}
_CHAZY = {"kind": "reduction", "reduction": "ChazyV", "span": [0.0, 0.5], "step": 1e-3,
          "initial": {"G": 1.0, "G1": 0.5, "G2": -0.3}}
_SCAN = {"kind": "residual_scan", "dda": "L2a", "field": _FIELD}
_SPAN_RULE = "span must be two finite numbers (start, end) with end >= start, got "
_FAMILIES = "(expected one of ('Nilpotent3x3', 'Nilpotent2x2', 'UpperTri2x2', 'PolyL3', 'GaugeL5'))"


@pytest.mark.parametrize("doc, named", [
    ({**_MAP, "initial": {**_MAP["initial"], "Q": 1.0}}, "'initial' has unknown entries ['Q']"),
    ({**_MAP, "prev": {"B": 1, "Z": 2}}, "'prev' has unknown entries ['Z']"),
    ({**FLOW_SCENARIO, "initial": {**FLOW_SCENARIO["initial"], "A": 1.0}},
     "'initial' has unknown entries ['A']"),
    ({**FLOW_SCENARIO, "free": {"B": 0.0, "C": 0.0, "M": 1.0}}, "'free' has unknown entries ['M']"),
    ({"kind": "validate_family", "family": "Nilpotent2x2", "points": [2.0],
      "params": {"alpha": "x", "beta": 1.0, "gamma": 0.0}},
     "field 'params': Nilpotent2x2 params['alpha'] must be a finite number, got 'x'"),
    ({"kind": "validate_family", "family": "GaugeL5", "points": [0.5],
      "params": {"phi0": "abc", "phi1": [0.0, 1.0], "phi2": [0.0, 0.0, 1.0]}},
     "field 'params': GaugeL5 parameter 'phi0' must be a nonempty sequence of numbers, "
     "got 'abc'"),
    ({"kind": "residual_scan", "dda": "L2a",
      "field": {**_FIELD, "values": _FIELD["values"][:2] + [{"C1": [[0.5, 0.2], [0.1, 0.4]]}]}},
     "value 2 needs numeric matrices 'C1' and 'C2'"),
    ({"kind": "validate_family", "family": "Nilpotent2x2", "points": [2.0, 2.0000001],
      "params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0}}, "'x=2' occurs more than once"),
    ({**_CHAZY, "initial": {"G": 1.0, "g1": 0.5, "G2": -0.3}},
     "'initial' has unknown entries ['g1']"),
    ({**_CHAZY, "params": {"b0": 0.1, "alpha": 1.0}},
     "'params' has unknown entries ['alpha', 'b0']"),
    ({**_CHAZY, "reduction": "Boussinesq", "initial": {"E": 0.3, "E1": 0.1},
      "params": {"alpha": 0.5, "phi0": 0.1}}, "'params' has unknown entries ['phi0']"),
    ({**_CHAZY, "reduction": "Elliptic", "initial": {"B": 0.5, "E": 0.5, "G": -2.5}},
     "'initial' has unknown entries ['G']"),
    ({**FLOW_SCENARIO, "span": [0.0, 1e300], "step": 1e-300}, "field 'step': span / step"),
    ({**_CHAZY, "span": [0.0, 1e7], "step": 1e-3}, "exceeds MAX_STEPS = 1000000"),
    ({**_MAP, "steps": 10 ** 6 + 1},
     "field 'steps': steps must be an integer from 0 to 1000000, got 1000001"),
    ({**_SCAN, "field": {**_FIELD, "grid": ["a", 1.0, 2.0]}}, "'grid' must be a list of numbers"),
    ({**_SCAN, "field": {**_FIELD, "grid": {}}}, "'grid' must be a list of numbers"),
    ({**_SCAN, "field": {**_FIELD, "grid": [[1.0], [2.0, 3.0], [4.0]]}},
     "'grid' must be a list of numbers"),
    ({**_SCAN, "field": {**_FIELD, "dda": {}}}, "sampled field 'dda' must be a string"),
    ({**_SCAN, "field": {**_FIELD, "dda": 3}}, "sampled field 'dda' must be a string"),
    ({**_SCAN, "field": {**_FIELD, "values": 5}}, "sampled field 'values' must be a list"),
    ({"kind": "residual_scan", "dda": "L2a", "field_path": ""},
     "field 'field_path': sampled field file '' cannot be read: not a regular file"),
    ({**FLOW_SCENARIO, "span": [0.0, 10 ** 400]}, f"field 'span': {_SPAN_RULE}[0.0, {10 ** 400}]"),
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
    ({**_SCAN, "field": {**_FIELD, "values": _FIELD["values"][:1] + [
        {"C1": [[0.5, 0.2], [0.1, 0.4]], "C2": [[0.2, None], [0.4, 0.1]]}] * 2}},
     "values[1].C2 has a non-finite entry"),
    ({"kind": "validate_family", "family": "Nilpotent2x2", "points": [1e13], "h": 1e-4,
      "params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0}},
     "points: x=10000000000000.0 with h=0.0001: "),
    ({"kind": "validate_family", "family": "GaugeL5", "points": [1234567.3],
      "params": {"phi0": [1.0, 0.2], "phi1": [0.0, 1.0, 0.1], "phi2": [0.5, 0.0, 1.0]}},
     "points: x=1234567.3: "),
    ({"kind": "validate_family", "family": "GaugeL5", "points": [0.5, 1e17],
      "params": {"phi0": [1.0, 0.2], "phi1": [0.0, 1.0, 0.1], "phi2": [0.5, 0.0, 1.0]}},
     "points: x=1e+17: gauge matrix is singular at x = 1e+17"),
    ({"kind": "validate_family", "family": "PolyL3", "points": [0.5],
      "params": {"alpha": 2.0, "beta": 1.3, "gamma": 1.0, "delta": 0.15,
                 "printed_form": "false"}},
     "PolyL3 parameter 'printed_form' must be true or false, got 'false'"),
    ({"kind": "validate_family", "family": "PolyL3", "points": [0.5],
      "params": {"alpha": 2.0, "beta": 1.3, "gamma": 1.0, "delta": 0.15, "printed_form": 1}},
     "PolyL3 parameter 'printed_form' must be true or false, got 1"),
    ({"kind": "validate_family", "family": "Nilpotent2x2", "points": [2.0],
      "params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0, "printed_form": True}},
     "field 'params': Nilpotent2x2 params has unknown entries ['printed_form']"),
    ({"kind": "validate_family", "family": "Nilpotent3x3", "points": [2.0],
      "params": {"alpha": 0.0, "printed_form": False}},
     "field 'params': Nilpotent3x3 params has unknown entries ['printed_form']"),
    ({"kind": "validate_family", "family": "UpperTri2x2", "points": [2.0],
      "params": {"beta": 1.0, "printed_form": True}},
     "field 'params': UpperTri2x2 params has unknown entries ['printed_form']"),
    ({"kind": "validate_family", "family": "GaugeL5", "points": [0.5],
      "params": {"phi0": [1.0, 0.2], "phi1": [0.0, 1.0], "phi2": [0.5, 0.0, 1.0], "phi3": [5]}},
     "field 'params': GaugeL5 params has unknown entries ['phi3']"),
    ({"kind": "validate_family", "family": "Quartic", "points": [2.0], "params": {}},
     f"deform-cs: error: field 'family': unknown solution family 'Quartic' {_FAMILIES}\n"),
    ({"kind": "validate_family", "family": "Quartic", "points": [2.0], "params": {"a": 1}},
     f"deform-cs: error: field 'family': unknown solution family 'Quartic' {_FAMILIES}\n"),
    ({**_MAP, "dda": "L2b", "prev": {"B": 7}}, "L2b is a first-order map: prev entries"),
    ({**_MAP, "dda": "L4", "prev": {"B": 7}}, "L4 is a first-order map: prev entries"),
    ({**_MAP, "dda": "L3"},
     "field 'dda': unknown map dda 'L3' (expected one of ('L2b', 'L4', 'L5'))"),
    ({**_CHAZY, "params": {"b0": 0.1}}, "field 'params' has unknown entries ['b0']"),
    ({**_CHAZY, "reduction": "ChazyVIII", "params": {"phi0": 0.5}},
     "field 'params' has unknown entries ['phi0']"),
    ({**_CHAZY, "reduction": "ChazyVII", "params": {"phi0": 0.5, "b0": 0.1}},
     "field 'params' has unknown entries ['phi0']"),
    ({**_CHAZY, "span": [0.5, 0.0]}, f"field 'span': {_SPAN_RULE}[0.5, 0.0]"),
    ({**_MAP, "steps": True},
     "field 'steps': steps must be an integer from 0 to 1000000, got True"),
    ({**_MAP, "stride": 0}, "field 'stride': stride must be an integer from 1 to 1000000, got 0"),
    ({**_MAP, "stride": True},
     "field 'stride': stride must be an integer from 1 to 1000000, got True"),
    ({**_CHAZY, "stride": "2"},
     "field 'stride': stride must be an integer from 1 to 1000000, got '2'"),
    ({**FLOW_SCENARIO, "system": "L9_2x2"}, "unknown flow system 'L9_2x2'"),
    ({"kind": "frob"}, "unknown kind 'frob' (expected one of ('flow', 'map', 'validate_family', "
                       "'residual_scan', 'reduction'))"),
    ({**_SCAN, "dda": "L1"}, "dda 'L1' drives no deformation; nothing to scan"),
    ({"kind": "residual_scan", "dda": "L2a"}, "missing required field 'field' (or 'field_path')"),
    ({**_SCAN, "dda": "L3"}, "field 'dda' mismatch: scenario says 'L3', field says 'L2a'"),
    ({"kind": "residual_scan", "dda": "L2a", "field_path": "no/such/field.json"},
     "field 'field_path': sampled field file 'no/such/field.json' cannot be read: "
     "No such file or directory"),
    ({**FLOW_SCENARIO, "strid": 5, "bogus": 1}, "scenario has unknown entries ['bogus', 'strid']"),
    ({**_MAP, "h": 1e-3}, "scenario has unknown entries ['h']"),
    ({**_CHAZY, "free": {}}, "scenario has unknown entries ['free']"),
    ({**_SCAN, "field_path": "no/such/field.json"},
     "give field 'field' or field 'field_path', not both"),
])
def test_malformed_scenario_exits_two_naming_the_field(tmp_path, capsys, doc, named):
    scenario = _write(tmp_path, "bad.json", doc)
    assert main(["run", str(scenario), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_INVALID
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("doc, key, text", [
    ({**_SCAN, "field": {**_FIELD, "dda": 3}}, "field", "sampled field 'dda' must be a string"),
    ({**FLOW_SCENARIO, "system": "X"}, "system", "unknown flow system 'X' (expected one of ("),
    ({**_CHAZY, "reduction": "X"}, "reduction", "unknown reduction 'X' (expected one of ("),
    ({**_SCAN, "dda": "Q"}, "dda",
     "unknown dda 'Q' (expected one of ('L1', 'L2a', 'L2b', 'L3', 'L4', 'L5'))"),
    ({**_MAP, "dda": "L2a"}, "dda", "unknown map dda 'L2a' (expected one of ('L2b', 'L4', 'L5'))"),
    ({**FLOW_SCENARIO, "free": {"B": 0.0}}, "initial", "L2a_2x2 state is missing entries ['C']"),
    ({**_MAP, "dda": "L4", "prev": {"B": 7}}, "prev",
     "L4 is a first-order map: prev entries apply to L5 only"),
], ids=["field", "system", "reduction", "dda_scan", "dda_map", "initial", "prev"])
def test_lookup_and_state_errors_name_their_field(tmp_path, capsys, doc, key, text):
    scenario = _write(tmp_path, "bad.json", doc)
    assert main(["validate", str(scenario)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"deform-cs: error: field {key!r}: {text}")


def test_run_prints_each_residual_it_reports(tmp_path, capsys):
    scenario = _write(tmp_path, "scan.json", _SCAN)
    out = tmp_path / "o"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    residuals = _read_report(out)["residuals"]
    assert list(residuals) == ["i=1"]
    for label, value in residuals.items():
        assert f"[deform-cs]   {label}: {value:.3e}\n" in printed


def test_docstring_lists_each_reductions_initial_entries_and_params():
    listed = {}
    table = cli.__doc__.split("params (each one left out is 0)")[1].split("\n\n")[1]
    for line in table.splitlines():
        names, text = re.split(r"\s{2,}", line.strip())
        listed.update(dict.fromkeys(names.split(", "), text))
    assert listed == {name: f"initial {', '.join(entries)}"
                      + (f"; params {', '.join(params)}" if params else "")
                      for name, (entries, params, *_) in REDUCTIONS.items()}


def test_docstring_lists_the_fields_each_kind_reads():
    table = cli.__doc__.split("fields; any other field exits 2:")[1].split("\n\n")[1]
    listed = {line.split()[0]: set(re.findall(r"\w+", line)[1:]) for line in table.splitlines()}
    assert listed == {kind: set(row[1]) for kind, row in cli.KINDS.items()}


def _synopses(text):
    """{command: (positionals, {option: takes a value})} of each ``deform-cs <command>``
    synopsis in text, the options bracketed as optional."""
    found = {}
    for command, rest in re.findall(r"deform-cs (run|validate)([^`#\n]*)", text):
        options = dict(re.findall(r"\[(--[\w-]+)( [A-Z]+)?\]", rest))
        positionals = re.sub(r"\[[^]]*\]", "", rest).split()
        found[command] = ([w.removesuffix(".json") for w in positionals],
                          {option: bool(value) for option, value in options.items()})
    return found


def test_readme_and_docstring_synopses_match_the_parser():
    commands = next(a for a in cli._parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {name: ([a.dest for a in sub._actions if not a.option_strings],
                     {a.option_strings[-1]: a.nargs != 0 for a in sub._actions
                      if a.option_strings and not a.required and a.dest != "help"})
              for name, sub in commands.items()}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = readme.split("\n## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    assert _synopses(usage) == parsed
    assert _synopses(cli.__doc__.split("\n\n")[1]) == parsed
    assert parsed["run"] == (["scenario"], {"--out": True, "--quiet": False})


def test_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys):
    scenario = Path(__file__).parent / "golden" / "map_l2b" / "scenario.json"
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out, code in ((blocker, errno.EEXIST), (blocker / "sub", errno.ENOTDIR)):
        assert main(["run", str(scenario), "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr() == ("", f"deform-cs: error: --out {str(out)!r} cannot be made "
                                           f"a directory: {os.strerror(code)}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "kept"


def test_importing_the_cli_loads_no_numpy_polynomial():
    src = str(Path(deformcs.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, deformcs.cli; "
         "print([m for m in sys.modules if m.startswith('numpy.polynomial')])"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_unknown_field_fails_validate_too(tmp_path, capsys):
    scenario = _write(tmp_path, "typo.json", {**FLOW_SCENARIO, "strid": 5})
    assert main(["validate", str(scenario)]) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", "deform-cs: error: scenario has unknown entries ['strid']\n")


_HUGE_REPROS = [
    ({"kind": "flow", "system": "L2a_2x2", "span": [0, 0.01], "step": 0.001,
      "initial": {"E": 1e200, "G": 1, "M": -1, "N": -1, "B": 0, "C": 0}}, EXIT_SINGULAR, ""),
    ({"kind": "flow", "system": "L2a_3x3", "span": [0, 0.01], "step": 0.001,
      "initial": {"A": 0, "B": 0, "C": 0, "D": 1e300, "E": 1e300, "G": 1, "L": 1, "M": 1,
                  "N": 1}}, EXIT_SINGULAR, ""),
    ({"kind": "validate_family", "family": "PolyL3", "points": [0.5, 1e308],
      "params": {"alpha": 1, "beta": 1, "gamma": 1, "delta": 0}}, EXIT_INVALID,
     "deform-cs: error: residual 'x=1e+308' is not a finite nonnegative norm\n"),
]


@pytest.mark.parametrize("doc, code, err", _HUGE_REPROS, ids=["L2a_2x2", "L2a_3x3", "PolyL3"])
def test_huge_inputs_neither_crash_warn_nor_read_as_exact(tmp_path, doc, code, err):
    # the 2x2 square of a - d and the 3x3 matmul overflow; PolyL3 meets inf - inf
    assert _run_quiet(tmp_path / "out", _write(tmp_path, "huge.json", doc)) == (code, "", err)


def test_map_run_builds_its_state_once(tmp_path, monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return init_map_state(*args)

    monkeypatch.setattr(cli, "init_map_state", counted)
    scenario = _write(tmp_path, "map.json", _MAP)
    assert main(["run", str(scenario), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Fuzz: one node of a golden scenario replaced by an arbitrary JSON value.
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    # huge finite numbers first, where derandomized draws reach them: past a square's range
    st.sampled_from([1e200, -1e300, 1.7976931348623157e308])
    | st.none() | st.booleans() | st.integers() | st.text(max_size=5)
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


def _validated_steps(cfg) -> int:
    """Map iterations or RK4 steps the scenario asks for; 0 for the other kinds."""
    if cfg.kind == "map":
        return cfg.doc["steps"]
    if cfg.kind in ("flow", "reduction"):
        return step_count(*map(float, cfg.doc["span"]), float(cfg.doc["step"]))
    return 0


@settings(max_examples=800, derandomize=True, deadline=None, database=None)
@given(node=st.sampled_from(_GOLDEN_NODES), value=_JSON)
def test_run_exits_zero_two_or_three_on_any_replaced_node(node, value):
    doc, path = node
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(_replace(doc, path, value)))
        try:
            assume(_validated_steps(load_scenario(scenario)) <= 2000)
        except DeformError:
            pass   # an invalid scenario runs too, and must exit 2
        out = str(Path(tmp) / "out")
        assert main(["run", scenario.as_posix(), "--out", out, "--quiet"]) in (
            EXIT_OK, EXIT_INVALID, EXIT_SINGULAR)

"""integrate_fixed against the tuple-and-zip RK4 loop of ``_oracles.rk4_loop``.

Every run must agree bit for bit: times, states, status, diagnostic, and the
(t, y) of every right-hand-side call.  The right-hand sides are those every
flow and reduction hands to the integrator in the recorded CLI scenarios, and
small synthetic ones that stop the run at each place it can stop.  Each Rhs a
flow or reduction hands over is run both as it was handed over, its text written
into the loop, and wrapped in a plain callable, which the loop calls.
"""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from deformcs import continuous_flows, integrators, reductions
from deformcs.cli import main
from deformcs.continuous_flows import SYSTEMS
from deformcs.errors import InvalidInputError, SingularFlowError
from deformcs.integrators import Rhs, integrate_fixed, step_count
from deformcs.reductions import REDUCTIONS, reduction_row

from _oracles import rk4_loop

GOLDEN = Path(__file__).parent / "golden"
_SPAN_RULE = "span must be two finite numbers (start, end) with end >= start, got "
SCENARIOS = {case.name: json.loads((case / "scenario.json").read_text())
             for case in sorted(GOLDEN.iterdir()) if case.name.startswith(("flow_", "reduction_"))}


def _runs_agree(make_f, *args, **kwargs):
    """Run integrate_fixed and rk4_loop, each on a fresh ``make_f()``; return the result
    and the number of right-hand-side calls: four per step taken."""
    runs = []
    for integrate in (integrate_fixed, rk4_loop):
        f, calls = make_f(), []

        def counted(t, y):
            calls.append((t, y))
            return f(t, y)

        runs.append((integrate(counted, *args, **kwargs), repr(calls), len(calls)))
    ((ts, ys, status, diagnostic), calls, count), ((rts, rys, *rest), rcalls, _) = runs
    assert ts.shape == rts.shape and ts.tobytes() == rts.tobytes()   # -0.0 and NaN too
    assert ys.shape == rys.shape and ys.tobytes() == rys.tobytes()
    assert np.array_equal(ts, rts) and np.array_equal(ys, rys)
    assert [status, diagnostic] == rest
    assert calls == rcalls
    if status == "completed":
        assert count == 4 * (len(ts) - 1)
    elif diagnostic.startswith("state exceeded"):   # the last step was taken, then dropped
        assert count == 4 * len(ts)
    return ts, ys, status, diagnostic, count


def _inlined_agrees(f, *args, **kwargs):
    """Run the Rhs f as it was handed over, its text written into the loop, and rk4_loop,
    which calls it; return the result, which must be the loop's bit for bit."""
    assert isinstance(f, Rhs)
    (ts, ys, status, diagnostic), (rts, rys, *rest) = (integrate_fixed(f, *args, **kwargs),
                                                       rk4_loop(f, *args, **kwargs))
    assert ts.shape == rts.shape and ts.tobytes() == rts.tobytes()   # -0.0 and NaN too
    assert ys.shape == rys.shape and ys.tobytes() == rys.tobytes()
    assert [status, diagnostic] == rest
    return ts, ys, status, diagnostic


def _rhs_of(name, *params):
    """The Rhs that the flow system or reduction ``name`` hands integrate_fixed."""
    if name in SYSTEMS:
        return SYSTEMS[name].text.bind(params)
    return reduction_row(name)[3](*params)[0]


# the Rhs of every flow system and reduction, its params bound to zeros
EVERY_RHS = {**{sy.id: _rhs_of(sy.id, *(0.0 for _ in sy.free)) for sy in SYSTEMS.values()},
             **{name: _rhs_of(name, *(0.0 for _ in names[len(columns) - len(entries):]))
                for name, (entries, names, columns, _) in REDUCTIONS.items()}}


def _run_scenario(name, tmp_path, out="out"):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIOS[name]))
    assert main(["run", str(scenario), "--out", str(tmp_path / out), "--quiet"]) in (0, 3)


def test_scenarios_cover_every_flow_and_reduction():
    assert {d["system"] for d in SCENARIOS.values() if "system" in d} == set(SYSTEMS)
    assert {d["reduction"] for d in SCENARIOS.values() if "reduction" in d} == set(REDUCTIONS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_flow_and_reduction_matches_the_loop(name, tmp_path, monkeypatch):
    seen = []

    def record(f, *args, **kwargs):
        seen.append((f, args, kwargs))
        return integrate_fixed(f, *args, **kwargs)

    for module in (continuous_flows, reductions):
        monkeypatch.setattr(module, "integrate_fixed", record)
    _run_scenario(name, tmp_path)
    (f, args, kwargs), = seen
    _runs_agree(lambda: f, *args, **kwargs)
    _inlined_agrees(f, *args, **kwargs)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cli_runs_write_the_rhs_text_into_the_loop_without_calling_it(name, tmp_path, monkeypatch):
    # every per-point evaluation of an Rhs (sy.rhs, a call f(t, y), chazy_rhs) reads .point
    calls, point = [], vars(Rhs)["point"].func
    monkeypatch.setattr(Rhs, "point", property(lambda rhs: calls.append(rhs) or point(rhs)))
    _run_scenario(name, tmp_path)
    assert calls == []
    # a plain callable in its place, as perfbench's tracer hands over, is called instead

    def called(f, *args):
        return integrate_fixed(lambda t, y: f(t, y), *args)

    for module in (continuous_flows, reductions):
        monkeypatch.setattr(module, "integrate_fixed", called)
    _run_scenario(name, tmp_path, "again")
    assert calls and all(isinstance(rhs, Rhs) for rhs in calls)


def _stray_names(rhs):
    """The names rhs's text reads beyond its entries, params, abs and SingularFlowError."""
    trees = [ast.parse(rhs.guards)] + [ast.parse(x, mode="eval") for x in rhs.exprs]
    read = {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return read - set(rhs.entries) - set(rhs.params) - {"abs", "SingularFlowError"}


@pytest.mark.parametrize("name", sorted(EVERY_RHS))
def test_every_rhs_text_reads_only_its_own_names(name):
    # in the loop's exec namespace a mistyped name would read a global instead of failing
    rhs = EVERY_RHS[name]
    assert len(rhs.exprs) == len(rhs.entries)
    assert _stray_names(rhs) == set()
    names = rhs.entries + rhs.params
    assert len(set(names)) == len(names) and not any(v.startswith("_") for v in names)
    # every other local of the loop the text is written into has the reserved prefix
    local = set(integrators._run_factory(rhs.key).__code__.co_varnames) - set(names)
    assert all(v.startswith("_") for v in local), sorted(local)


def test_a_mistyped_name_in_an_rhs_text_is_found():
    rhs = Rhs(("E", "E1"), ("alpha",), ("E1", "E * alhpa"),
              "if abs(E) < 1.0:\n    raise SingularFlowError(f'{E1 + y:g}')")
    assert _stray_names(rhs) == {"alhpa", "y"}


@pytest.mark.parametrize("f, args, rows, diagnostic", [
    pytest.param(_rhs_of("L3_detnorm", 0.5, 0.5), (0.0, (1.0, 1.0, 1.0, 1.0), 1.0, 0.01), 1,
                 "SingularFlowError: det C1 = 0.000e+00 is below tolerance",
                 id="L3_detnorm-singular-start"),
    pytest.param(_rhs_of("ChazyIII"), (0.0, (1e-3, -1.0, 0.0, 0.5, 0.2), 0.01, 1e-4), 10,
                 "SingularFlowError: ChazyIII quadrature needs G bounded away from 0",
                 id="ChazyIII-G-crosses-its-tolerance"),
    pytest.param(_rhs_of("ChazyV"), (0.0, (1e200, 0.0, 0.0), 1.0, 0.01), 1,
                 "state exceeded overflow guard 1e+12 at t=0.01", id="overflow-at-step-1"),
    pytest.param(_rhs_of("Boussinesq", 0.0, 0.0, 0.0), (0.0, (1e3, 0.0), 1.0, 1e-3), 39,
                 "state exceeded overflow guard 1e+12 at t=0.039", id="overflow-at-step-39"),
    pytest.param(_rhs_of("Elliptic", 0.5), (0.5, (0.5, 0.5, -2.5), 0.5, 0.1), 1, None,
                 id="zero-steps"),
    pytest.param(_rhs_of("L2a_2x2", 1.0, 0.5), (-0.0, (0.3, 0.2, 0.1, -0.2), 0.3, 0.1), 4, None,
                 id="negative-zero-start")])
def test_inlined_run_stops_like_the_loop(f, args, rows, diagnostic):
    ts, ys, status, got = _inlined_agrees(f, *args)
    assert (len(ts), len(ys), got) == (rows, rows, diagnostic)
    assert status == ("completed" if diagnostic is None else "truncated")
    assert math.copysign(1.0, ts[0]) == math.copysign(1.0, args[0])


def _grow(_t, y):   # y' = y
    return tuple(y)


def _unit(_t, y):   # y' = 1 in every entry
    return (1.0,) * len(y)


def _odd_at(call, value):
    """A maker of right-hand sides y' = y that raise ``value`` (an exception) at their
    ``call``-th call, or return ``value`` (a tuple) there."""
    def make():
        count = [0]

        def f(_t, y):
            count[0] += 1
            if count[0] != call:
                return tuple(y)
            if isinstance(value, Exception):
                raise value
            return value
        return f
    return make


def test_one_entry_state_matches_the_loop():
    ts, ys, status, _, _ = _runs_agree(lambda: _grow, 0.0, [1.0], 1.0, 0.1)
    assert status == "completed" and len(ts) == 11
    assert ys[-1, 0] == pytest.approx(math.e, rel=1e-6)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_singular_stage_truncates_like_the_loop(stage):
    # the third step's stage ``stage`` raises: two steps are kept
    make = _odd_at(8 + stage, SingularFlowError("pole"))
    ts, ys, status, diagnostic, calls = _runs_agree(make, 0.0, [1.0, -2.0], 1.0, 0.1)
    assert (status, diagnostic, len(ts), len(ys)) == ("truncated", "SingularFlowError: pole", 3, 3)
    assert calls == 8 + stage


def test_zero_division_truncates_like_the_loop():
    make = _odd_at(6, ZeroDivisionError("x"))
    _, _, status, diagnostic, _ = _runs_agree(make, 0.0, [1.0, 2.0, 3.0], 1.0, 0.1)
    assert (status, diagnostic) == ("truncated", "ZeroDivisionError: x")


def test_nan_state_truncates_like_the_loop():
    # the second step's third stage is NaN, and so is the state it leads to
    make = _odd_at(7, (math.nan, 1.0))
    ts, _, status, diagnostic, _ = _runs_agree(make, 0.0, [1.0, 2.0], 1.0, 0.1)
    assert status == "truncated" and len(ts) == 2
    assert diagnostic == "state exceeded overflow guard 1e+12 at t=0.2"


def test_state_just_past_the_guard_truncates_like_the_loop():
    # 1e12 itself passes the guard, 1e12 + 1 does not
    ts, ys, status, diagnostic, _ = _runs_agree(lambda: _unit, 0.0, [1e12 - 1.0, 0.0], 4.0, 1.0)
    assert status == "truncated" and ys[-1, 0] == 1e12 and len(ts) == 2
    assert diagnostic == "state exceeded overflow guard 1e+12 at t=2"


def test_empty_span_matches_the_loop():
    ts, ys, status, _, _ = _runs_agree(lambda: _grow, 0.5, [1.0, 2.0], 0.5, 0.1)
    assert status == "completed" and ts.tolist() == [0.5] and ys.tolist() == [[1.0, 2.0]]


def test_negative_zero_start_matches_the_loop():
    ts, *_ = _runs_agree(lambda: _grow, -0.0, [1.0], 0.3, 0.1)
    assert math.copysign(1.0, ts[0]) == -1.0 and len(ts) == 4


def test_short_rhs_raises_where_the_loop_broadcasts():
    def short(_t, y):
        return (1.0,)

    _, ys, status, _ = rk4_loop(short, 0.0, [1.0, 2.0], 0.3, 0.1)
    assert status == "completed" and ys[1, 1] == ys[1, 0]   # the second entry is lost
    with pytest.raises(ValueError, match="to unpack"):
        integrate_fixed(short, 0.0, [1.0, 2.0], 0.3, 0.1)


@pytest.mark.parametrize("call, value", [(1, (1.0, 2.0, 3.0)), (2, (1.0,)), (7, ()),
                                         (8, (1.0, 2.0, 3.0))])
def test_rhs_of_the_wrong_length_at_any_stage_raises(call, value):
    with pytest.raises(ValueError, match="to unpack"):
        integrate_fixed(_odd_at(call, value)(), 0.0, [1.0, 2.0], 0.3, 0.1)


@pytest.mark.parametrize("t0, t1, step, named", [
    (1.0, 0.5, 0.1, re.escape(_SPAN_RULE + "(1.0, 0.5)")),
    (0.0, math.inf, 0.1, re.escape(_SPAN_RULE + "(0.0, inf)")),
    (math.nan, 1.0, 0.1, re.escape(_SPAN_RULE + "(nan, 1.0)")),
    (0.0, 1.0, 0.0, "step must be a positive finite number, got 0.0"),
    (0.0, 1.0, -0.1, "step must be a positive finite number"),
    (0.0, 1.0, math.nan, "step must be a positive finite number, got nan"),
    (0.0, 1.0, math.inf, "step must be a positive finite number, got inf"),
    pytest.param(0, 10 ** 400, 1.0, re.escape(_SPAN_RULE + f"(0, {10 ** 400})"),
                 id="int-end-beyond-float"),
    pytest.param(0.0, 1.0, 10 ** 400, "step must be a positive", id="int-step-beyond-float"),
    (0.0, 1.0, "1", "step must be a positive finite number, got '1'"),
    (0.0, 1.0, None, "step must be a positive finite number, got None"),
    (0.0, 1.0, True, "step must be a positive finite number, got True"),
    (0.0, 1.0, np.float32(0.1), r"step must be a positive finite number, got np.float32\(0.1\)"),
    ("a", 1.0, 0.1, re.escape(_SPAN_RULE + "('a', 1.0)")),
    ("0", "1", 0.1, re.escape(_SPAN_RULE + "('0', '1')")),
    pytest.param(-10 ** 308, 10 ** 308, 1.0, "span / step = inf exceeds MAX_STEPS",
                 id="int-span-beyond-float")])
def test_step_count_is_the_one_span_and_step_rule(t0, t1, step, named):
    for call in (step_count, lambda *a: integrate_fixed(_grow, a[0], [1.0], *a[1:])):
        with pytest.raises(InvalidInputError, match=named):
            call(t0, t1, step)


def test_every_run_takes_the_span_and_step_rule_from_step_count():
    entries = {"E": 1, "G": 1, "M": -1, "N": -1, "B": 0, "C": 0}
    with pytest.raises(InvalidInputError, match="step must be a positive finite number"):
        continuous_flows.integrate("L2a_2x2", entries, (1.0, 2.0), 0.0)
    with pytest.raises(InvalidInputError, match=re.escape(_SPAN_RULE + "(2.0, 1.0)")):
        continuous_flows.integrate("L2a_2x2", entries, (2.0, 1.0), 1e-3)
    with pytest.raises(InvalidInputError, match=re.escape(_SPAN_RULE + "('a', 1.0)")):
        continuous_flows.integrate("L2a_2x2", entries, ("a", 1.0), 0.1)
    with pytest.raises(InvalidInputError, match=re.escape(_SPAN_RULE + "(0.5, 0.0)")):
        reductions.integrate_elliptic((0.5, 0.5, -2.5), -1.0, (0.5, 0.0), 1e-3)
    with pytest.raises(InvalidInputError, match="step must be a positive finite number"):
        reductions.integrate_chazy("ChazyV", (1.0, 0.5, -0.3), (0.0, 0.5), math.nan)

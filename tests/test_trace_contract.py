"""The entry points that ``perfbench/tracing.py`` wraps by name still carry the run.

perfbench credits each right-hand-side call to the layer whose span is open when
``integrate_fixed`` is called.  A flow run through the CLI must therefore reach
``integrate_fixed`` from inside the traced ``continuous_flows.integrate``, with one
first-integral and one eigenvalue span, a reduction run from inside one of the
traced ``reductions.integrate_*`` views, a map run must iterate inside one
traced ``discrete_flows.orbit``, and a residual scan must load its field through
one traced ``SampledField.load``;
if a change bypasses or renames them, the per-layer metrics read 0 (or land on
the CLI) without any benchmark failing, so these tests fail instead.  Every flow
system and every reduction is checked: each must call its right-hand side four
times per step through the ``f`` it hands to ``integrate_fixed``.  Those four
``*.rhs`` calls per step come from perfbench's wrapper: the plain callable it hands
``integrate_fixed`` in place of the ``Rhs`` selects the loop's call form.  An untraced
run writes the ``Rhs`` text into the loop and makes no call.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from deformcs.algebra_core import MatrixPair
from deformcs.cli import EXIT_INVALID, EXIT_OK, main
from deformcs.continuous_flows import SYSTEMS
from deformcs.dda_registry import SampledField
from deformcs.discrete_flows import init_map_state, orbit
from deformcs.integrators import step_count
from deformcs.reductions import REDUCTIONS

from _oracles import sampled_field_json_per_value

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing.Tracer()


def _short_run(key, value, tmp_path):
    """The scenario file of the first completed golden whose ``key`` is ``value``, cut
    to ten steps, and its step count."""
    for case in sorted(GOLDEN.iterdir()):
        doc = json.loads((case / "scenario.json").read_text())
        report = (case / "expected" / "report.json").read_text()
        if doc.get(key) == value and '"status": "completed"' in report:
            t0 = doc["span"][0]
            doc["span"] = [t0, t0 + 10 * doc["step"]]
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(doc))
            return scenario, step_count(*doc["span"], doc["step"])
    raise LookupError(f"no completed golden with {key} {value}")


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_flow_rhs_calls_are_traced_to_the_continuous_flows_layer(system, tmp_path):
    scenario, steps = _short_run("system", system, tmp_path)
    tracer = _tracer()
    with tracer.installed():
        code = main(["run", str(scenario), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK and steps > 0
    names = [span[0] for span in tracer.spans]
    for name in ("continuous_flows.integrate", "continuous_flows.integrals",
                 "continuous_flows.eig", "integrators.integrate_fixed"):
        assert names.count(name) == 1, name
    assert names.count("continuous_flows.rhs") == 4 * steps
    assert "cli.rhs" not in names


@pytest.mark.parametrize("reduction", sorted(REDUCTIONS))
def test_reduction_rhs_calls_are_traced_to_the_reductions_layer(reduction, tmp_path):
    scenario, steps = _short_run("reduction", reduction, tmp_path)
    tracer = _tracer()
    with tracer.installed():
        code = main(["run", str(scenario), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK and steps > 0
    names = [span[0] for span in tracer.spans]
    assert names.count("reductions.integrate") == 1
    assert names.count("integrators.integrate_fixed") == 1
    assert names.count("reductions.rhs") == 4 * steps
    assert "cli.rhs" not in names
    # the originals are back once the tracer is uninstalled
    assert main(["run", str(scenario), "--out", str(tmp_path / "again"), "--quiet"]) == EXIT_OK
    assert len(tracer.spans) == len(names)


def test_map_orbit_is_one_traced_span_with_its_flag_count(tmp_path):
    # general B, C: the general branch; det C2 = 0 is conserved, so every row is flagged
    initial = {"B": 2.0, "C": 0.5, "E": 1.0, "G": 1.0, "M": 1.0, "N": 1.0}
    doc = {"kind": "map", "dda": "L4", "initial": initial, "steps": 20}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    flags = int(orbit("L4", init_map_state("L4", initial), 20).flags.sum())
    tracer = _tracer()
    with tracer.installed():
        code = main(["run", str(scenario), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK
    spans = [span for span in tracer.spans if span[0] == "discrete_flows.orbit"]
    assert len(spans) == 1
    assert spans[0][5] == {"flags": flags} and flags > 0



L4_START = {"B": 1.0, "C": 1.0, "E": 0.4, "G": 1.3, "M": 0.8, "N": -0.2}


def _scan_fields():
    """A 2x2 field of L4 orbit states and a 3x3 one with a -0.0 and subnormal entries,
    built from pairs as perfbench builds its scan inputs."""
    run = orbit("L4", init_map_state("L4", L4_START), 7)
    yield SampledField(dda="L4", grid=np.arange(8.0), pairs=tuple(s.pair for s in run.states))
    pairs = tuple(MatrixPair.from_entries(3, {**{k: (7 * i - 3 * j) / 3 for j, k in
                                                 enumerate("ABCDEGLMN")},
                                              "A": -0.0, "N": 5e-324 * i}) for i in range(5))
    yield SampledField(dda="L2a", grid=1.5 + 0.25 * np.arange(5), pairs=pairs)


# sha256 of json.dumps(field.to_json()) for the two fields, as the per-value fields wrote them
SCAN_FIELD_SHA256 = ("2231ab13ec0be50a64c98b644a48b73770ed4110408a32685f318c6d4e998cab",
                     "847bafb7171f82b0c0787bbd7d46e29c7ab0adc3027f0c0045418a54df93f3d1")


def test_fields_built_from_pairs_serialise_to_the_per_value_bytes():
    for fld, digest in zip(_scan_fields(), SCAN_FIELD_SHA256, strict=True):
        text = json.dumps(fld.to_json())
        assert text == json.dumps(sampled_field_json_per_value(fld.dda, fld.grid, fld.pairs))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_scan_loads_its_field_in_one_traced_span_without_matrix_pairs(tmp_path):
    field = tmp_path / "field.json"
    field.write_text(json.dumps(next(_scan_fields()).to_json()))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"kind": "residual_scan", "dda": "L4",
                                    "field_path": str(field)}))
    tracer = _tracer()
    with tracer.installed():
        code = main(["run", str(scenario), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK
    names = [span[0] for span in tracer.spans]
    assert names.count("dda_registry.field_load") == 1
    assert "algebra_core.pair" not in names


def test_family_check_of_a_bad_point_builds_no_pair_and_runs_no_field_residual(tmp_path):
    # 1e13 collapses its stencil, so the points are redone one at a time
    doc = {"kind": "validate_family", "family": "Nilpotent2x2", "points": [2.0, 1e13],
           "params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0}}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    tracer = _tracer()
    with tracer.installed():
        code = main(["run", str(scenario), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_INVALID
    names = [span[0] for span in tracer.spans]
    assert names.count("closed_forms.validate_family") == 1
    assert "algebra_core.pair" not in names and "dda_registry.cs_residual" not in names

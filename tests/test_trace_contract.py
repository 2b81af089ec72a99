"""The entry points that ``perfbench/tracing.py`` wraps by name still carry the run.

perfbench credits each right-hand-side call to the layer whose span is open when
``integrate_fixed`` is called.  A reduction run through the CLI must therefore
reach ``integrate_fixed`` from inside one of the traced ``reductions.integrate_*``
views; if a change bypasses or renames them, the per-layer metrics read 0 (or
land on the CLI) without any benchmark failing, so this test fails instead.
"""

import json
import sys
from pathlib import Path

from deformcs.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing.Tracer()


def test_reduction_rhs_calls_are_traced_to_the_reductions_layer(tmp_path):
    steps = 20
    doc = {"kind": "reduction", "reduction": "ChazyVII", "params": {"b0": 0.1},
           "initial": {"G": 0.9, "G1": 0.3, "G2": -0.2},
           "span": [0.0, steps * 1e-3], "step": 1e-3}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    tracer = _tracer()
    with tracer.installed():
        code = main(["run", str(scenario), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK
    names = [span[0] for span in tracer.spans]
    assert names.count("reductions.integrate") == 1
    assert names.count("integrators.integrate_fixed") == 1
    assert names.count("reductions.rhs") == 4 * steps
    assert "cli.rhs" not in names
    # the originals are back once the tracer is uninstalled
    assert main(["run", str(scenario), "--out", str(tmp_path / "again"), "--quiet"]) == EXIT_OK
    assert len(tracer.spans) == len(names)

"""Keeps the benchmark from rotting: every workload, the gate and the trace at tiny sizes.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_selfcheck_passes():
    done = subprocess.run([sys.executable, str(RUN), "--selfcheck"], cwd=RUN.parent.parent,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAILED" not in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run([sys.executable, str(RUN), "--workload", "lax_flow", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _bench(tmp_path, monkeypatch):
    """The run.py module and a tiny-size Bench whose inputs go under tmp_path."""
    root = RUN.parent.parent
    monkeypatch.chdir(root)
    monkeypatch.syspath_prepend(str(root / "src"))
    monkeypatch.syspath_prepend(str(RUN.parent))
    import run
    monkeypatch.setattr(run, "WORK", tmp_path)
    return run, run.Bench(0, "tiny")


def test_gate_fails_ops_that_skip_repeated_runs(tmp_path, monkeypatch):
    """Rounds replay identical inputs; a program that only writes its outputs
    the first time must fail the gate, not pass on the earlier round's files."""
    run, bench = _bench(tmp_path, monkeypatch)
    ops = bench.setup("scalar_reduction")
    codes = {}
    real_main = bench.cli.main

    def main_skipping_repeats(argv):
        if tuple(argv) not in codes:
            codes[tuple(argv)] = real_main(argv)
        return codes[tuple(argv)]

    monkeypatch.setattr(bench.cli, "main", main_skipping_repeats)
    first, second = run.Stats(), run.Stats()
    bench.round(ops, first, None, measured=True)
    bench.round(ops, second, None, measured=True)
    assert first.failed == 0, first.problems
    assert second.failed == len(ops)


def test_direct_calls_get_new_argument_objects(tmp_path, monkeypatch):
    """No argument object is passed twice, so a cache keyed on identity cannot hit."""
    run, bench = _bench(tmp_path, monkeypatch)
    ops = [op for op in bench.setup("residual_grid") if op.call]
    bench.prepare("residual_grid", ops)
    dda_registry = bench.modules["dda_registry"]
    real, grids = dda_registry.quantum_cs_residual, []

    def spy(tg, hbar):
        grids.append(tg)
        return real(tg, hbar)

    monkeypatch.setattr(dda_registry, "quantum_cs_residual", spy)
    stats = run.Stats()
    bench.round(ops, stats, None, measured=True)
    bench.round(ops, stats, None, measured=True)
    assert stats.failed == 0, stats.problems
    recorded = [op.call[2][0] for op in ops if op.call[1] == "quantum_cs_residual"]
    assert len(grids) == 2 * len(recorded) > 0
    assert len({id(tg) for tg in grids + recorded}) == len(grids) + len(recorded)

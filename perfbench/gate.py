"""Per-op correctness gate; its failures feed ``ok_op_ratio`` and ``failed``.

Every op, on every seed, must show
  * the exit code fixed when its input was generated (0, or 3 for the
    intended truncations) and the matching report status;
  * the CSV row count implied by steps and stride (or by the scanned points);
  * invariant drift and residual norms within the tolerances below, which
    are the acceptance suite's where one applies;
  * for direct calls, norms equal to the independent ``oracle.py`` values.
On the default and held-out seeds at full size the gate also compares each
op with the output recorded at the seed commit in ``reference.json``: the
report minus its timestamp, and the norms of direct calls.  Keys a later
report adds (for example telemetry) are ignored; every recorded key must be
there with the same value, numbers within the reference tolerances.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import oracle

TOLERANCES = {
    "flow_drift": 1e-8,        # acceptance 03: integrals and spectra, max_rel
    "map_drift": 1e-10,        # acceptance 07: map invariants, max_rel
    "reduction_drift": 1e-8,   # acceptance 04-06: conserved quantities, max_abs
    "fd_residual": 1e-6,       # acceptance 01: O(h^2) stencils at h = 1e-4
    "poly_residual": 1e-12,    # acceptance 01: PolyL3 is checked exactly
    "exact_residual": 1e-12,   # acceptance 08: gauge fields solve the shift system
    "orbit_residual": 1e-10,   # acceptance 07's map bound, on fields cut from orbits
    "oracle_rel": 1e-12,       # acceptance 09-10, times max(1, |norm|)
    "reference_rel": 1e-9,     # against the recorded seed-commit outputs
    "reference_abs": 1e-10,
}

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
RECORDED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

_STATUS = {0: "completed", 3: "truncated"}


def load_reference(seed: int, workload: str) -> dict | None:
    """Recorded outputs for this seed and workload, or None if none were recorded."""
    if seed not in RECORDED_SEEDS or not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text())["seeds"][str(seed)][workload]


def expected_norms(op) -> list[float]:
    """Oracle norms for a direct call, computed from its inputs."""
    _, function, args = op.call
    if function == "quantum_cs_residual":
        tg, hbar = args
        return [oracle.quantum_max(tg.c, tg.spacing, hbar)]
    if function == "coisotropic_cs_residual":
        return list(oracle.coisotropic_max(args[0].c, args[0].spacing))
    if function == "discrete_cs_residual":
        return oracle.discrete_max(args[0].c)
    return oracle.gauge_commutators(*args)


def strip_report(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timestamp"}


def record(op, result) -> dict:
    """What ``reference.json`` keeps of one op's output."""
    if op.call:
        return {"norms": list(result.norms)}
    return {"exit": result, "report": strip_report(_read_report(op))}


def _read_report(op) -> dict:
    return json.loads((op.out / "report.json").read_text())


def _close(got: float, want: float, rel: float, abs_: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= abs_ + rel * abs(want)


def _match(want, got, where: str, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            problems.append(f"{where}: expected an object")
            return
        for key, value in want.items():
            if key not in got:
                problems.append(f"{where}.{key}: missing")
            else:
                _match(value, got[key], f"{where}.{key}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: expected a list of {len(want)}")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _match(w, g, f"{where}[{i}]", problems)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        if not isinstance(got, (int, float)) or isinstance(got, bool) or not _close(
                float(got), float(want), TOLERANCES["reference_rel"], TOLERANCES["reference_abs"]):
            problems.append(f"{where}: {got!r} differs from recorded {want!r}")
    elif want != got:
        problems.append(f"{where}: {got!r} differs from recorded {want!r}")


def _csv_rows(op, report: dict) -> int:
    name = next(iter(report["artifacts"].values()))
    with (op.out / name).open() as fh:
        return sum(1 for _ in fh) - 1


def _check_cli(op, code: int, problems: list[str]) -> dict:
    if code != op.exit:
        problems.append(f"exit code {code}, expected {op.exit}")
    report = _read_report(op)
    if report.get("status") != _STATUS.get(op.exit):
        problems.append(f"status {report.get('status')!r}, expected {_STATUS.get(op.exit)!r}")
    if op.rows is not None:
        rows = _csv_rows(op, report)
        if rows != op.rows:
            problems.append(f"{rows} CSV rows, expected {op.rows}")
    if op.drift and op.exit == 0:
        measure, tol = op.drift[0], TOLERANCES[op.drift[1]]
        drift = report.get("invariant_drift") or {}
        if not drift:
            problems.append("no invariant drift reported")
        for name, stats in drift.items():
            if not stats[measure] <= tol:
                problems.append(f"drift of {name} {stats[measure]:.3e} above {tol:g}")
    if op.residual_tol:
        norms = list(report.get("residuals", {}).values())
        if len(norms) != op.units:
            problems.append(f"{len(norms)} residuals, expected {op.units}")
        _check_bound(norms, op.residual_tol, problems)
    return report


def _check_bound(norms: list[float], tol_name: str, problems: list[str]) -> None:
    tol = TOLERANCES[tol_name]
    worst = max(norms, default=0.0)
    if not worst <= tol:
        problems.append(f"residual {worst:.3e} above {tol:g}")


def _check_call(op, result, problems: list[str]) -> None:
    norms = list(result.norms)
    want = op.expect_norms
    rel = TOLERANCES["oracle_rel"]
    if len(norms) != len(want) or not all(
            _close(g, w, 0.0, rel * max(1.0, abs(w))) for g, w in zip(norms, want)):
        problems.append(f"norms {norms[:4]} differ from oracle {want[:4]}")
    if op.residual_tol:
        _check_bound(norms, op.residual_tol, problems)


def check(op, result, reference: dict | None) -> list[str]:
    """Problems found in one op's output; an empty list means it passed."""
    problems: list[str] = []
    try:
        if op.call:
            _check_call(op, result, problems)
            got = {"norms": list(result.norms)}
        else:
            report = _check_cli(op, result, problems)
            got = {"exit": result, "report": strip_report(report)}
        if reference is not None:
            _match(reference[op.id], got, op.id, problems)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems

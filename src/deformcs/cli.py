"""Scenario-driven batch front-end.

``deform-cs run scenario.json [--out DIR] [--step H] [--quiet]`` reads one
JSON scenario, dispatches to the flows / maps / validators, and writes CSV
trajectories plus a JSON report; ``deform-cs validate scenario.json`` only
parses and validates.  Exit codes: 0 success, 2 invalid scenario, 3 run
truncated at a singularity (artifacts are still written).

Scenario kinds and their required fields:

    flow            system, initial, span, step            [free, stride]
    map             dda, initial, steps                    [prev, stride]
    validate_family family, params, points                 [h]
    residual_scan   dda, field | field_path
    reduction       reduction, initial, span, step         [params, stride]

Matrices inside scenario and field documents are JSON arrays of rows
(row-major), e.g. "C1": [[B, E], [C, G]].
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .algebra_core import ENTRY_POSITIONS_2
from .closed_forms import FAMILY_IDS, SolutionFamily, validate_family
from .continuous_flows import SYSTEMS, integrate, position_x, state_from_entries
from .dda_registry import SampledField, cs_residual, lookup
from .discrete_flows import MAP_DDAS, init_map_state, orbit
from .errors import DeformError, InvalidInputError
from .integrators import STATUS_COMPLETED
from .reductions import (CHAZY_VARIANTS, integrate_boussinesq, integrate_chazy,
                         integrate_elliptic)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SINGULAR = 3

REDUCTION_KINDS = tuple(v for v in CHAZY_VARIANTS if v != "Generic") + ("Boussinesq", "Elliptic")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and bool(np.isfinite(v))


class ScenarioConfig:
    """Validated scenario; construction raises InvalidInputError naming the field."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise InvalidInputError("scenario must be a JSON object")
        self.doc = doc
        self.kind = self._require(str, "kind")
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown kind {self.kind!r} (expected one of {tuple(KINDS)})")
        KINDS[self.kind][0](self)

    def _require(self, typ, key):
        if key not in self.doc:
            raise InvalidInputError(f"missing required field {key!r}")
        value = self.doc[key]
        if typ is float:
            if not _is_number(value):
                raise InvalidInputError(f"field {key!r} must be a finite number")
            return float(value)
        if not isinstance(value, typ):
            raise InvalidInputError(f"field {key!r} must be of type {typ.__name__}")
        return value

    def _span(self):
        span = self._require(list, "span")
        if len(span) != 2 or not all(isinstance(v, (int, float)) for v in span):
            raise InvalidInputError("field 'span' must be a [start, end] pair")
        if not all(np.isfinite(v) for v in span) or span[1] < span[0]:
            raise InvalidInputError("field 'span' must be finite with end >= start")
        return float(span[0]), float(span[1])

    def _step(self):
        step = self._require(float, "step")
        if step <= 0.0:
            raise InvalidInputError("field 'step' must be positive")
        return step

    def _stride(self):
        stride = self.doc.get("stride", 1)
        if not isinstance(stride, int) or isinstance(stride, bool) or stride < 1:
            raise InvalidInputError("field 'stride' must be a positive integer")
        return stride

    def _numbers(self, key, allowed=None):
        """A {name: finite number} field; names outside ``allowed`` are rejected."""
        values = self._require(dict, key)
        unknown = sorted(set(values) - set(allowed)) if allowed is not None else []
        if unknown:
            raise InvalidInputError(f"field {key!r} has unknown entries {unknown}")
        out = {}
        for name, v in values.items():
            if not _is_number(v):
                raise InvalidInputError(f"field {key!r}[{name!r}] must be a finite number")
            out[name] = float(v)
        return out

    def _validate_flow(self):
        system = self._require(str, "system")
        if system not in SYSTEMS:
            raise InvalidInputError(f"unknown system {system!r}")
        self.system = system
        sy = SYSTEMS[system]
        self.initial = self._numbers("initial", sy.all_entries())
        self.free = self._numbers("free", sy.free) if "free" in self.doc else {}
        self.span = self._span()
        self.step = self._step()
        self.stride = self._stride()
        # surfaces missing-entry errors at validation time
        state_from_entries(system, self.span[0], {**self.initial, **self.free})

    def _validate_map(self):
        dda = self._require(str, "dda")
        lookup(dda)
        if dda not in MAP_DDAS:
            raise InvalidInputError(f"dda {dda!r} is not a discrete map (use one of {MAP_DDAS})")
        self.dda = dda
        self.initial = self._numbers("initial", ENTRY_POSITIONS_2)
        self.prev = self._numbers("prev", ENTRY_POSITIONS_2) if "prev" in self.doc else None
        steps = self._require(int, "steps")
        if isinstance(steps, bool) or steps < 0:
            raise InvalidInputError("field 'steps' must be a nonnegative integer")
        self.steps = steps
        self.stride = self._stride()
        init_map_state(dda, self.initial, self.prev)

    def _validate_validate_family(self):
        family = self._require(str, "family")
        if family not in FAMILY_IDS:
            raise InvalidInputError(f"unknown family {family!r}")
        key = "family_params" if "family_params" in self.doc else "params"
        params = self._require(dict, key)
        for name, v in params.items():
            if family == "GaugeL5":
                if not (isinstance(v, list) and v and all(_is_number(c) for c in v)):
                    raise InvalidInputError(
                        f"field {key!r}[{name!r}] must be a nonempty list of finite numbers")
            elif name != "printed_form" and not _is_number(v):
                raise InvalidInputError(f"field {key!r}[{name!r}] must be a finite number")
        points = self._require(list, "points")
        if not points or not all(isinstance(v, (int, float)) for v in points):
            raise InvalidInputError("field 'points' must be a nonempty list of numbers")
        h = self.doc.get("h", 1e-4)
        if not isinstance(h, (int, float)) or h <= 0:
            raise InvalidInputError("field 'h' must be a positive number")
        self.family = SolutionFamily(family, params)
        self.points = [float(v) for v in points]
        self.h = float(h)

    def _validate_residual_scan(self):
        dda = self._require(str, "dda")
        spec = lookup(dda)
        if spec.id == "L1":
            raise InvalidInputError("dda 'L1' drives no deformation; nothing to scan")
        self.dda = dda
        if "field" in self.doc:
            self.field = SampledField.from_json(self._require(dict, "field"))
        elif "field_path" in self.doc:
            path = Path(self._require(str, "field_path"))
            if not path.exists():
                raise InvalidInputError(f"field 'field_path' points to a missing file: {path}")
            self.field = SampledField.load(path)
        else:
            raise InvalidInputError("missing required field 'field' (or 'field_path')")
        if self.field.dda != dda:
            raise InvalidInputError(
                f"field 'dda' mismatch: scenario says {dda!r}, field says {self.field.dda!r}")

    def _validate_reduction(self):
        reduction = self._require(str, "reduction")
        if reduction not in REDUCTION_KINDS:
            raise InvalidInputError(f"unknown reduction {reduction!r} (expected one of {REDUCTION_KINDS})")
        self.reduction = reduction
        self.initial = self._numbers("initial")
        self.params = self._numbers("params") if "params" in self.doc else {}
        self.span = self._span()
        self.step = self._step()
        self.stride = self._stride()


def load_scenario(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"scenario file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"scenario is not valid JSON: {exc}") from exc
    return ScenarioConfig(doc)


# ---------------------------------------------------------------------------
# Artifact writers.
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _drift_stats(history: list[dict[str, float]]) -> dict | None:
    if len(history) < 2:
        return None
    names = list(history[0])
    out = {}
    for name in names:
        ref = history[0][name]
        vals = np.array([h[name] for h in history if name in h])
        dev = float(np.max(np.abs(vals - ref)))
        out[name] = {"max_abs": dev, "max_rel": dev / max(1.0, abs(ref))}
    return out


def _eigen_drift(eigs: list[tuple[complex, ...]]) -> dict | None:
    if len(eigs) < 2:
        return None
    ref = np.array(eigs[0])
    dev = float(max(np.max(np.abs(np.array(e) - ref)) for e in eigs))
    return {"eigenvalues": {"max_abs": dev,
                            "max_rel": dev / max(1.0, float(np.max(np.abs(ref))))}}


# Each runner writes its CSV and returns (status, diagnostic, artifacts,
# residuals, invariant drift) for the report.

def _flow_artifacts(cfg: ScenarioConfig, out: Path):
    initial = state_from_entries(cfg.system, cfg.span[0], {**cfg.initial, **cfg.free})
    traj = integrate(cfg.system, initial, cfg.span, cfg.step, cfg.free or None)
    sy = SYSTEMS[cfg.system]
    int_names = list(traj.integral_history[0])
    n_eig = len(traj.eigen_history[0])
    header = (["s", "x"] + list(sy.evolved) + list(sy.free) + int_names
              + [f"Re_lambda_{i+1}" for i in range(n_eig)]
              + [f"Im_lambda_{i+1}" for i in range(n_eig)])
    rows = []
    for idx in range(0, len(traj.states), cfg.stride):
        st = traj.states[idx]
        e = st.entries()
        eig = traj.eigen_history[idx]
        rows.append([st.s, position_x(cfg.system, st)]
                    + [e[k] for k in sy.evolved] + [e[k] for k in sy.free]
                    + [traj.integral_history[idx][k] for k in int_names]
                    + [z.real for z in eig] + [z.imag for z in eig])
    _write_csv(out / "trajectory.csv", header, rows)
    drift = _drift_stats(list(traj.integral_history)) or None
    if drift is not None:
        drift.update(_eigen_drift(list(traj.eigen_history)) or {})
    return traj.status, traj.diagnostic, {"trajectory_csv": "trajectory.csv"}, {}, drift


def _map_artifacts(cfg: ScenarioConfig, out: Path):
    state0 = init_map_state(cfg.dda, cfg.initial, cfg.prev)
    run = orbit(cfg.dda, state0, cfg.steps)
    inv_names = sorted({k for inv in run.invariant_history for k in inv})
    header = ["n", "B", "C", "E", "G", "M", "N"] + inv_names + ["flags"]
    rows = []
    for idx in range(0, len(run.states), cfg.stride):
        st = run.states[idx]
        e = st.entries()
        inv = run.invariant_history[idx]
        rows.append([st.n] + [e[k] for k in ("B", "C", "E", "G", "M", "N")]
                    + [inv.get(k, "") for k in inv_names]
                    + [";".join(st.flags)])
    _write_csv(out / "orbit.csv", header, rows)
    complete = [inv for inv in run.invariant_history if inv]
    return run.status, run.diagnostic, {"orbit_csv": "orbit.csv"}, {}, _drift_stats(complete)


def _reduction_artifacts(cfg: ScenarioConfig, out: Path):
    r = cfg.reduction
    if r == "Boussinesq":
        initial = (cfg.initial.get("E", 0.0), cfg.initial.get("E1", 0.0))
        traj = integrate_boussinesq(initial, cfg.params.get("alpha", 0.0),
                                    cfg.params.get("beta", 0.0), cfg.params.get("gamma", 0.0),
                                    cfg.span, cfg.step)
    elif r == "Elliptic":
        initial = (cfg.initial.get("B", 0.0), cfg.initial.get("E", 0.0), cfg.initial.get("C", 0.0))
        traj = integrate_elliptic(initial, cfg.params.get("alpha", 0.0), cfg.span, cfg.step)
    else:
        initial = (cfg.initial.get("G", 0.0), cfg.initial.get("G1", 0.0), cfg.initial.get("G2", 0.0))
        traj = integrate_chazy(r, initial, cfg.span, cfg.step,
                               phi0=cfg.params.get("phi0", 0.0), b0=cfg.params.get("b0", 0.0))
    inv_names = list(traj.invariants)
    header = ["t"] + list(traj.columns) + inv_names
    rows = []
    for idx in range(0, len(traj.ts), cfg.stride):
        rows.append([float(traj.ts[idx])] + [float(v) for v in traj.states[idx]]
                    + [float(traj.invariants[k][idx]) for k in inv_names])
    _write_csv(out / "trajectory.csv", header, rows)
    history = [{k: float(traj.invariants[k][i]) for k in inv_names}
               for i in range(len(traj.ts))]
    return (traj.status, traj.diagnostic, {"trajectory_csv": "trajectory.csv"}, {},
            _drift_stats(history))


def _family_artifacts(cfg: ScenarioConfig, out: Path):
    rep = validate_family(cfg.family, cfg.points, cfg.h)
    return STATUS_COMPLETED, None, {}, rep.as_dict(), None


def _scan_artifacts(cfg: ScenarioConfig, out: Path):
    fld = cfg.field
    spec = lookup(cfg.dda)
    behind, ahead = spec.stencil_reach
    rows, residuals = [], {}
    for i in range(behind, len(fld.pairs) - ahead):
        norm = cs_residual(spec, fld, i).norms[0]
        residuals[f"i={i}"] = norm
        rows.append([i, float(fld.grid[i]), norm])
    if not rows:
        raise InvalidInputError("field has no interior points for this stencil")
    _write_csv(out / "residuals.csv", ["i", "x", "residual"], rows)
    return STATUS_COMPLETED, None, {"residuals_csv": "residuals.csv"}, residuals, None


# kind -> (validator, runner)
KINDS = {
    "flow": (ScenarioConfig._validate_flow, _flow_artifacts),
    "map": (ScenarioConfig._validate_map, _map_artifacts),
    "validate_family": (ScenarioConfig._validate_validate_family, _family_artifacts),
    "residual_scan": (ScenarioConfig._validate_residual_scan, _scan_artifacts),
    "reduction": (ScenarioConfig._validate_reduction, _reduction_artifacts),
}


def build_report(cfg: ScenarioConfig, status: str, diagnostic: str | None,
                 artifacts: dict, residuals: dict, drift: dict | None) -> dict:
    return {
        "tool": "deform-cs",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.doc,
        "status": status,
        "diagnostic": diagnostic,
        "artifacts": artifacts,
        "residuals": residuals,
        "invariant_drift": drift,
    }


def run(cfg: ScenarioConfig, out_dir: Path, quiet: bool = False) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    status, diagnostic, artifacts, residuals, drift = KINDS[cfg.kind][1](cfg, out_dir)
    report = build_report(cfg, status, diagnostic, artifacts, residuals, drift)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    if not quiet:
        print(f"[deform-cs] {cfg.kind}: {status}" +
              (f" ({diagnostic})" if diagnostic else ""))
        for label, value in residuals.items():
            print(f"[deform-cs]   {label}: {value:.3e}")
        print(f"[deform-cs] report: {out_dir / 'report.json'}")
    return EXIT_OK if status == STATUS_COMPLETED else EXIT_SINGULAR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="deform-cs",
                                     description="central-system deformation runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("scenario", help="path to scenario JSON")
    p_run.add_argument("--out", default=".", help="output directory (default: cwd)")
    p_run.add_argument("--step", type=float, default=None, help="override the step size")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress output")
    p_val = sub.add_parser("validate", help="parse and validate a scenario only")
    p_val.add_argument("scenario", help="path to scenario JSON")

    args = parser.parse_args(argv)
    try:
        cfg = load_scenario(args.scenario)
        if args.command == "validate":
            print(f"[deform-cs] scenario ok: kind={cfg.kind}")
            return EXIT_OK
        if args.step is not None:
            if args.step <= 0:
                raise InvalidInputError("field 'step' must be positive")
            if not hasattr(cfg, "step"):
                raise InvalidInputError(f"--step does not apply to kind {cfg.kind!r}")
            cfg.step = args.step
        return run(cfg, Path(args.out), quiet=args.quiet)
    except DeformError as exc:
        print(f"deform-cs: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .algebra_core import ENTRY_POSITIONS_2
from .closed_forms import FAMILY_IDS, SolutionFamily, validate_family
from .continuous_flows import SYSTEMS, integrate, state_from_entries
from .dda_registry import SampledField, cs_residual, lookup
from .discrete_flows import MAP_DDAS, init_map_state, orbit
from .errors import DeformError, InvalidInputError
from .integrators import MAX_STEPS, STATUS_COMPLETED, Trajectory, step_count
from .reductions import (CHAZY_VARIANTS, integrate_boussinesq, integrate_chazy,
                         integrate_elliptic)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SINGULAR = 3

# reduction -> (initial entries, params) it reads; each one left out is 0
_CHAZY_KEYS = (("G", "G1", "G2"), ("phi0", "b0"))
REDUCTION_KEYS = {**{v: _CHAZY_KEYS for v in CHAZY_VARIANTS if v != "Generic"},
                  "Boussinesq": (("E", "E1"), ("alpha", "beta", "gamma")),
                  "Elliptic": (("B", "E", "C"), ("alpha",))}
REDUCTION_KINDS = tuple(REDUCTION_KEYS)


def _is_number(v) -> bool:
    """A JSON number that is finite as a float: no bool, NaN, infinity or huge integer."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


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
        if not all(_is_number(v) for v in span) or span[1] < span[0]:
            raise InvalidInputError("field 'span' must be finite with end >= start")
        return float(span[0]), float(span[1])

    def _step(self, step=None):
        """The scenario's step, or ``step`` from --step; the span needs at most MAX_STEPS."""
        if step is None:
            step = self._require(float, "step")
        elif not _is_number(step):
            raise InvalidInputError("field 'step' must be a finite number")
        if step <= 0.0:
            raise InvalidInputError("field 'step' must be positive")
        try:
            step_count(*self.span, step)
        except InvalidInputError as exc:
            raise InvalidInputError(f"field 'step': {exc}") from None
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
        if isinstance(steps, bool) or not 0 <= steps <= MAX_STEPS:
            raise InvalidInputError(
                f"field 'steps' must be a nonnegative integer at most MAX_STEPS = {MAX_STEPS}")
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
        if not points or not all(_is_number(v) for v in points):
            raise InvalidInputError("field 'points' must be a nonempty list of numbers")
        h = self.doc.get("h", 1e-4)
        if not _is_number(h) or h <= 0:
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
            if not path.is_file():
                raise InvalidInputError(f"field 'field_path' does not name a file: {path}")
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
        initial, params = REDUCTION_KEYS[reduction]
        self.initial = self._numbers("initial", initial)
        self.params = self._numbers("params", params) if "params" in self.doc else {}
        self.span = self._span()
        self.step = self._step()
        self.stride = self._stride()


def load_scenario(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    if not p.is_file():
        raise InvalidInputError(f"scenario file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise InvalidInputError(f"scenario is not valid JSON: {exc}") from exc
    return ScenarioConfig(doc)


# ---------------------------------------------------------------------------
# Artifact writers.
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows) -> None:
    """csv writes each float as its repr, so every value round-trips."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _drift_stats(history: dict[str, np.ndarray]) -> dict | None:
    """Worst deviation of each invariant from its first value (row), absolute and
    relative to max(1, largest |first value|); None with fewer than two values."""
    out = {}
    for name, vals in history.items():
        if len(vals) < 2:
            return None
        dev = float(np.max(np.abs(vals - vals[0])))
        out[name] = {"max_abs": dev, "max_rel": dev / max(1.0, float(np.max(np.abs(vals[0]))))}
    return out or None


# Each runner writes its CSV and returns (status, diagnostic, artifacts,
# residuals, invariant drift) for the report.

def _trajectory_artifacts(traj: Trajectory, time_name: str, stride: int, out: Path):
    """trajectory.csv: time, state columns, scalar invariants, then the real and
    imaginary parts of the eigenvalues, if any; drift covers every invariant."""
    scalars = {k: v for k, v in traj.invariants.items() if k != "eigenvalues"}
    header = [time_name, *traj.columns, *scalars]
    table = [traj.ts[:, None], traj.states, *(v[:, None] for v in scalars.values())]
    if "eigenvalues" in traj.invariants:
        eig = traj.invariants["eigenvalues"]
        header += [f"{part}_lambda_{i + 1}" for part in ("Re", "Im") for i in range(eig.shape[1])]
        table += [eig.real, eig.imag]
    _write_csv(out / "trajectory.csv", header, np.hstack(table)[::stride].tolist())
    return (traj.status, traj.diagnostic, {"trajectory_csv": "trajectory.csv"}, {},
            _drift_stats(traj.invariants))


def _flow_artifacts(cfg: ScenarioConfig, out: Path):
    initial = state_from_entries(cfg.system, cfg.span[0], {**cfg.initial, **cfg.free})
    return _trajectory_artifacts(integrate(cfg.system, initial, cfg.span, cfg.step),
                                 "s", cfg.stride, out)


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
    drift = _drift_stats({k: np.array([inv[k] for inv in complete]) for k in inv_names})
    return run.status, run.diagnostic, {"orbit_csv": "orbit.csv"}, {}, drift


def _reduction_artifacts(cfg: ScenarioConfig, out: Path):
    r = cfg.reduction
    initial_keys, param_keys = REDUCTION_KEYS[r]
    initial = tuple(cfg.initial.get(k, 0.0) for k in initial_keys)
    params = {k: cfg.params.get(k, 0.0) for k in param_keys}
    integrator = {"Boussinesq": integrate_boussinesq,
                  "Elliptic": integrate_elliptic}.get(r, partial(integrate_chazy, r))
    traj = integrator(initial, span=cfg.span, step=cfg.step, **params)
    return _trajectory_artifacts(traj, "t", cfg.stride, out)


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
            if not hasattr(cfg, "step"):
                raise InvalidInputError(f"--step does not apply to kind {cfg.kind!r}")
            cfg.step = cfg._step(args.step)
        return run(cfg, Path(args.out), quiet=args.quiet)
    except DeformError as exc:
        print(f"deform-cs: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

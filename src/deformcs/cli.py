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

A reduction's initial entries and params (each one left out is 0) are those of
its row in ``reductions.REDUCTIONS``:

    ChazyV, ChazyV_shifted, ChazyVIII   initial G, G1, G2
    ChazyVII                            initial G, G1, G2; params b0
    ChazyIII                            initial G, G1, G2; params phi0, b0
    Boussinesq                          initial E, E1; params alpha, beta, gamma
    Elliptic                            initial B, E, C; params alpha

Matrices inside scenario and field documents are JSON arrays of rows
(row-major), e.g. "C1": [[B, E], [C, G]].
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .algebra_core import finite_numbers, is_finite_number
from .closed_forms import FD_STEP, SolutionFamily, check_family, validate_family
from .continuous_flows import get_system, integrate, state_from_entries
from .dda_registry import SampledField, cs_residual_scan, lookup, read_json
from .discrete_flows import (ENTRY_NAMES, check_map, check_steps, flag_labels, init_map_state,
                             orbit)
from .errors import DeformError, InvalidInputError
from .integrators import STATUS_COMPLETED, Trajectory, step_count
from .reductions import (integrate_boussinesq, integrate_chazy, integrate_elliptic,
                         reduction_row)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SINGULAR = 3
# the orbit.csv flags cell (";"-joined names) of a degeneracy_flags row, at flags @ [4, 2, 1]
_FLAG_CELLS = np.array([";".join(flag_labels((i & 4, i & 2, i & 1))) for i in range(8)])


def _judged(key: str, check, *args):
    """``check(*args)``, with the InvalidInputError it raises prefixed by the field it judged."""
    try:
        return check(*args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"field {key!r}: {exc}") from None


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
            if not is_finite_number(value):
                raise InvalidInputError(f"field {key!r} must be a finite number")
            return float(value)
        if not isinstance(value, typ):
            raise InvalidInputError(f"field {key!r} must be of type {typ.__name__}")
        return value

    def _span(self):
        span = self._require(list, "span")
        if len(span) != 2 or not all(isinstance(v, (int, float)) for v in span):
            raise InvalidInputError("field 'span' must be a [start, end] pair")
        if not all(is_finite_number(v) for v in span) or span[1] < span[0]:
            raise InvalidInputError("field 'span' must be finite with end >= start")
        return float(span[0]), float(span[1])

    def _step(self, step=None):
        """The scenario's step, or ``step`` from --step, checked by ``step_count`` on the span."""
        if step is None:
            step = self._require(float, "step")
        _judged("step", step_count, *self.span, step)
        return step

    def _stride(self):
        stride = self.doc.get("stride", 1)
        if not isinstance(stride, int) or isinstance(stride, bool) or stride < 1:
            raise InvalidInputError("field 'stride' must be a positive integer")
        return stride

    def _numbers(self, key, allowed):
        """A {name: finite number} field with names in ``allowed``, by the package's rule."""
        return finite_numbers(f"field {key!r}", self._require(dict, key), allowed)

    def _validate_flow(self):
        sy = get_system(self._require(str, "system"))
        self.system = sy.id
        self.initial = self._numbers("initial", sy.all_entries())
        self.free = self._numbers("free", sy.free) if "free" in self.doc else {}
        self.span = self._span()
        self.step = self._step()
        self.stride = self._stride()
        # surfaces missing-entry errors at validation time
        state_from_entries(sy.id, {**self.initial, **self.free})

    def _validate_map(self):
        self.dda = self._require(str, "dda")
        check_map(self.dda)
        initial = self._numbers("initial", ENTRY_NAMES)
        prev = self._numbers("prev", ENTRY_NAMES) if "prev" in self.doc else None
        self.steps = _judged("steps", check_steps, self._require(int, "steps"))
        self.stride = self._stride()
        self.state = init_map_state(self.dda, initial, prev)

    def _validate_validate_family(self):
        family = _judged("family", check_family, self._require(str, "family"))
        self.family = _judged("params", SolutionFamily, family, self._require(dict, "params"))
        points = self._require(list, "points")
        if not points or not all(is_finite_number(v) for v in points):
            raise InvalidInputError("field 'points' must be a nonempty list of numbers")
        h = self.doc.get("h", FD_STEP)
        if not is_finite_number(h) or h <= 0:
            raise InvalidInputError("field 'h' must be a positive number")
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
            self.field = _judged("field_path", SampledField.load, self._require(str, "field_path"))
        else:
            raise InvalidInputError("missing required field 'field' (or 'field_path')")
        if self.field.dda != dda:
            raise InvalidInputError(
                f"field 'dda' mismatch: scenario says {dda!r}, field says {self.field.dda!r}")

    def _validate_reduction(self):
        self.reduction = self._require(str, "reduction")
        initial, params = reduction_row(self.reduction)[:2]
        self.initial = self._numbers("initial", initial)
        self.params = self._numbers("params", params) if "params" in self.doc else {}
        self.span = self._span()
        self.step = self._step()
        self.stride = self._stride()


def load_scenario(path: str | Path) -> ScenarioConfig:
    return ScenarioConfig(read_json(path, "scenario"))


# ---------------------------------------------------------------------------
# Artifact writers.
# ---------------------------------------------------------------------------

def _float_cells(table: np.ndarray) -> np.ndarray:
    """The repr of each float64, made once per bit pattern (0.0 and -0.0 print apart)."""
    bits, where = np.unique(table.view(np.int64), return_inverse=True)
    reprs = np.array([*map(repr, bits.view(float).tolist())], dtype=object)
    return reprs[where.reshape(table.shape)]


def _write_csv(path: Path, header: list[str], *columns) -> None:
    """Write the header and the rows of the string columns, side by side, in one write.

    Floats are their repr (``_float_cells``), the shortest form that reads back bit
    for bit; lines end in \\r\\n, and no cell is quoted, since none holds a comma,
    quote or line break.  Orbit rows without invariants have empty invariant cells,
    and a flags cell is the set flags' names joined by ";".
    """
    lines = [header, *np.column_stack(columns).tolist()]
    with path.open("w", newline="") as fh:
        fh.write("\r\n".join(map(",".join, lines)) + "\r\n")


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
    _write_csv(out / "trajectory.csv", header, _float_cells(np.hstack(table)[::stride]))
    return (traj.status, traj.diagnostic, {"trajectory_csv": "trajectory.csv"}, {},
            _drift_stats(traj.invariants))


def _flow_artifacts(cfg: ScenarioConfig, out: Path):
    traj = integrate(cfg.system, {**cfg.initial, **cfg.free}, cfg.span, cfg.step)
    return _trajectory_artifacts(traj, "s", cfg.stride, out)


def _map_artifacts(cfg: ScenarioConfig, out: Path):
    """orbit.csv: n, the entries, the invariants ("" in rows without them), the flags."""
    run = orbit(cfg.dda, cfg.state, cfg.steps)
    names, rows = sorted(run.invariants), np.arange(0, len(run.entries), cfg.stride)
    table = np.zeros((len(run.entries), 6 + len(names)))
    table[:, :6] = run.entries
    table[run.invariant_rows, 6:] = np.transpose([run.invariants[name] for name in names])
    cells = _float_cells(table[rows])
    cells[np.isin(rows, run.invariant_rows, invert=True), 6:] = ""
    _write_csv(out / "orbit.csv", ["n", *ENTRY_NAMES, *names, "flags"], (rows + run.n0).astype(str),
               cells, _FLAG_CELLS[run.flags[rows] @ [4, 2, 1]])
    drift = _drift_stats({name: run.invariants[name] for name in names})
    return run.status, run.diagnostic, {"orbit_csv": "orbit.csv"}, {}, drift


def _reduction_artifacts(cfg: ScenarioConfig, out: Path):
    r = cfg.reduction
    initial_keys, param_keys = reduction_row(r)[:2]
    initial = tuple(cfg.initial.get(k, 0.0) for k in initial_keys)
    params = {k: cfg.params.get(k, 0.0) for k in param_keys}
    # the views, looked up at each call, are what perfbench traces as the reductions layer
    integrator = {"Boussinesq": integrate_boussinesq,
                  "Elliptic": integrate_elliptic}.get(r, partial(integrate_chazy, r))
    traj = integrator(initial, span=cfg.span, step=cfg.step, **params)
    return _trajectory_artifacts(traj, "t", cfg.stride, out)


def _family_artifacts(cfg: ScenarioConfig, out: Path):
    rep = validate_family(cfg.family, cfg.points, cfg.h)
    return STATUS_COMPLETED, None, {}, rep.as_dict(), None


def _scan_artifacts(cfg: ScenarioConfig, out: Path):
    rep = cs_residual_scan(cfg.dda, cfg.field)
    i = np.arange(len(rep.norms)) + lookup(cfg.dda).stencil_reach[0]
    _write_csv(out / "residuals.csv", ["i", "x", "residual"], i.astype(str),
               _float_cells(np.column_stack([cfg.field.grid[i], rep.norms])))
    return STATUS_COMPLETED, None, {"residuals_csv": "residuals.csv"}, rep.as_dict(), None


# kind -> (validator, runner)
KINDS = {
    "flow": (ScenarioConfig._validate_flow, _flow_artifacts),
    "map": (ScenarioConfig._validate_map, _map_artifacts),
    "validate_family": (ScenarioConfig._validate_validate_family, _family_artifacts),
    "residual_scan": (ScenarioConfig._validate_residual_scan, _scan_artifacts),
    "reduction": (ScenarioConfig._validate_reduction, _reduction_artifacts),
}


def run(cfg: ScenarioConfig, out_dir: Path, quiet: bool = False) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    status, diagnostic, artifacts, residuals, drift = KINDS[cfg.kind][1](cfg, out_dir)
    report = {"tool": "deform-cs", "version": __version__,
              "timestamp": datetime.now(timezone.utc).isoformat(), "config": cfg.doc,
              "status": status, "diagnostic": diagnostic, "artifacts": artifacts,
              "residuals": residuals, "invariant_drift": drift}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    if not quiet:
        print(f"[deform-cs] {cfg.kind}: {status}" +
              (f" ({diagnostic})" if diagnostic else ""))
        for label, value in residuals.items():
            print(f"[deform-cs]   {label}: {value:.3e}")
        print(f"[deform-cs] report: {out_dir / 'report.json'}")
    return EXIT_OK if status == STATUS_COMPLETED else EXIT_SINGULAR


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every later ``main``."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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

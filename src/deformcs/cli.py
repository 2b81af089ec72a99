"""Scenario-driven batch front-end.

``deform-cs run scenario.json [--out DIR] [--quiet]`` reads one JSON scenario,
dispatches to the flows / maps / validators, and writes CSV trajectories plus a
JSON report; ``deform-cs validate scenario.json`` only parses and validates.
Exit codes: 0 success, 2 invalid scenario, 3 run truncated at a singularity
(artifacts are still written).

Scenario kinds and their required [optional] fields; any other field exits 2:

    flow            system, initial, span, step            [free, stride]
    map             dda, initial, steps                    [prev, stride]
    validate_family family, params, points                 [h]
    residual_scan   dda, field | field_path
    reduction       reduction, initial, span, step         [params, stride]

Each kind is one ``ScenarioConfig`` method, listed in ``KINDS`` with the fields it
reads: it judges them and returns the runner that writes the kind's artifacts.

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
from .algebra_core import (check_names, finite_numbers, finite_span, number_sequence, one_of,
                           positive_number, whole_number)
from .closed_forms import FAMILY_PARAMS, FD_STEP, SolutionFamily, validate_family
from .continuous_flows import get_system, integrate, state_from_entries
from .dda_registry import SampledField, cs_residual_scan, lookup, read_json
from .discrete_flows import ENTRY_NAMES, check_map, flag_labels, init_map_state, orbit
from .errors import DeformError, InvalidInputError
from .integrators import MAX_STEPS, STATUS_COMPLETED, Trajectory, step_count
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
    """Validated scenario; construction raises InvalidInputError naming the field, and
    ``runner(out)``, from its kind's method, runs it and writes its CSV under ``out``."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise InvalidInputError("scenario must be a JSON object")
        self.doc = doc
        self.kind = self._require(object, "kind")
        method, fields = one_of("kind", KINDS, self.kind)
        check_names("scenario", doc, ("kind", *fields))
        self.runner = method(self)

    def _require(self, typ, key):
        """Field ``key``, which must be present and of type ``typ`` (any, for ``object``)."""
        if key not in self.doc:
            raise InvalidInputError(f"missing required field {key!r}")
        value = self.doc[key]
        if not isinstance(value, typ):
            raise InvalidInputError(f"field {key!r} must be of type {typ.__name__}")
        return value

    def _span_step_stride(self):
        """The scenario's span, its step (checked by ``step_count`` on the span) and stride."""
        span = _judged("span", finite_span, "span", self._require(object, "span"))
        step = self._require(object, "step")
        _judged("step", step_count, *span, step)
        return span, float(step), self._stride()

    def _stride(self):
        return _judged("stride", whole_number, "stride", self.doc.get("stride", 1), 1, MAX_STEPS)

    def _numbers(self, key, allowed):
        """A {name: finite number} field with names in ``allowed``, by the package's rule."""
        return finite_numbers(f"field {key!r}", self._require(dict, key), allowed)

    def _flow(self):
        sy = _judged("system", get_system, self._require(object, "system"))
        values = self._numbers("initial", sy.all_entries())
        if "free" in self.doc:
            values.update(self._numbers("free", sy.free))
        span, step, stride = self._span_step_stride()
        # surfaces missing-entry errors at validation time
        _judged("initial", state_from_entries, sy.id, values)
        return lambda out: _trajectory_artifacts(integrate(sy.id, values, span, step), "s",
                                                 stride, out)

    def _map(self):
        dda = self._require(object, "dda")
        _judged("dda", check_map, dda)
        initial = self._numbers("initial", ENTRY_NAMES)
        prev = self._numbers("prev", ENTRY_NAMES) if "prev" in self.doc else None
        steps = self._require(object, "steps")
        steps = _judged("steps", whole_number, "steps", steps, 0, MAX_STEPS)
        stride, state = self._stride(), _judged("prev", init_map_state, dda, initial, prev)
        return partial(_map_artifacts, dda, state, steps, stride)

    def _validate_family(self):
        family = self._require(object, "family")
        _judged("family", one_of, "solution family", FAMILY_PARAMS, family)
        family = _judged("params", SolutionFamily, family, self._require(dict, "params"))
        points = [float(v) for v in _judged("points", number_sequence, "points",
                                            self._require(list, "points"))]
        h = float(_judged("h", positive_number, "h", self.doc.get("h", FD_STEP)))
        return lambda out: (STATUS_COMPLETED, None, {},
                            validate_family(family, points, h).as_dict(), None)

    def _residual_scan(self):
        dda = self._require(object, "dda")
        if _judged("dda", lookup, dda).id == "L1":
            raise InvalidInputError("dda 'L1' drives no deformation; nothing to scan")
        if "field" in self.doc and "field_path" in self.doc:
            raise InvalidInputError("give field 'field' or field 'field_path', not both")
        if "field" in self.doc:
            field = _judged("field", SampledField.from_json, self._require(dict, "field"))
        elif "field_path" in self.doc:
            field = _judged("field_path", SampledField.load, self._require(str, "field_path"))
        else:
            raise InvalidInputError("missing required field 'field' (or 'field_path')")
        if field.dda != dda:
            raise InvalidInputError(
                f"field 'dda' mismatch: scenario says {dda!r}, field says {field.dda!r}")
        return partial(_scan_artifacts, dda, field)

    def _reduction(self):
        name = self._require(object, "reduction")
        initial_keys, param_keys = _judged("reduction", reduction_row, name)[:2]
        initial = self._numbers("initial", initial_keys)
        params = self._numbers("params", param_keys) if "params" in self.doc else {}
        span, step, stride = self._span_step_stride()
        return partial(_reduction_artifacts, name, tuple(initial.get(k, 0.0) for k in initial_keys),
                       {k: params.get(k, 0.0) for k in param_keys}, span, step, stride)


# kind -> (its method, the fields it reads besides "kind": the docstring's table)
KINDS = {
    "flow": (ScenarioConfig._flow, ("system", "initial", "span", "step", "free", "stride")),
    "map": (ScenarioConfig._map, ("dda", "initial", "steps", "prev", "stride")),
    "validate_family": (ScenarioConfig._validate_family, ("family", "params", "points", "h")),
    "residual_scan": (ScenarioConfig._residual_scan, ("dda", "field", "field_path")),
    "reduction": (ScenarioConfig._reduction,
                  ("reduction", "initial", "span", "step", "params", "stride")),
}


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
    """Worst deviation of each invariant from its first value, absolute and relative to
    max(1, largest |first value|), or both None where not finite; None with < 2 values."""
    out = {}
    for name, vals in history.items():
        if len(vals) < 2:
            return None
        with np.errstate(all="ignore"):   # inf - inf, and finite rows past float range
            dev = float(np.max(np.abs(vals - vals[0])))
        out[name] = ({"max_abs": dev, "max_rel": dev / max(1.0, float(np.max(np.abs(vals[0]))))}
                     if np.isfinite(dev) else {"max_abs": None, "max_rel": None})
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


def _map_artifacts(dda: str, state, steps: int, stride: int, out: Path):
    """orbit.csv: n, the entries, the invariants ("" in rows without them), the flags."""
    run = orbit(dda, state, steps)
    names, rows = sorted(run.invariants), np.arange(0, len(run.entries), stride)
    table = np.zeros((len(run.entries), 6 + len(names)))
    table[:, :6] = run.entries
    table[run.invariant_rows, 6:] = np.transpose([run.invariants[name] for name in names])
    cells = _float_cells(table[rows])
    cells[np.isin(rows, run.invariant_rows, invert=True), 6:] = ""
    _write_csv(out / "orbit.csv", ["n", *ENTRY_NAMES, *names, "flags"], (rows + run.n0).astype(str),
               cells, _FLAG_CELLS[run.flags[rows] @ [4, 2, 1]])
    drift = _drift_stats({name: run.invariants[name] for name in names})
    return run.status, run.diagnostic, {"orbit_csv": "orbit.csv"}, {}, drift


def _reduction_artifacts(name: str, initial, params, span, step: float, stride: int, out: Path):
    # the views, looked up at each call, are what perfbench traces as the reductions layer
    integrator = {"Boussinesq": integrate_boussinesq,
                  "Elliptic": integrate_elliptic}.get(name, partial(integrate_chazy, name))
    traj = integrator(initial, span=span, step=step, **params)
    return _trajectory_artifacts(traj, "t", stride, out)


def _scan_artifacts(dda: str, field: SampledField, out: Path):
    rep = cs_residual_scan(dda, field)
    i = np.arange(len(rep.norms)) + lookup(dda).stencil_reach[0]
    _write_csv(out / "residuals.csv", ["i", "x", "residual"], i.astype(str),
               _float_cells(np.column_stack([field.grid[i], rep.norms])))
    return STATUS_COMPLETED, None, {"residuals_csv": "residuals.csv"}, rep.as_dict(), None


def run(cfg: ScenarioConfig, out_dir: Path, quiet: bool = False) -> int:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a regular file on the path, or no permission
        raise InvalidInputError(
            f"--out {str(out_dir)!r} cannot be made a directory: {exc.strerror}") from None
    status, diagnostic, artifacts, residuals, drift = cfg.runner(out_dir)
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
        return run(cfg, Path(args.out), quiet=args.quiet)
    except DeformError as exc:
        print(f"deform-cs: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

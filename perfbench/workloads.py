"""Seeded inputs for the four workloads.

A workload is one round of ops that run.py replays until its time is up.
Every input of every op is drawn from the run's seed; the program only sees
the generated scenario and field files (CLI ops) or tensor grids (direct
calls to the residual API).  Sizes are fixed per scale, so latencies do not
depend on the seed, and each round holds an odd number of ops, so the median
latency falls inside one op kind rather than between two.

Inputs are valid by construction: L3_unimodular starts on det C1 = 1, the
elliptic reduction starts from ``reductions.elliptic_point``, map orbits and
gauge potentials are screened with the independent code in ``oracle.py``.
The only exit-3 runs are the intended truncations, whose singular start is
built exactly (det C1 = 0, E = G).

Screening is the benchmark's own work, and how many candidates it rejects
depends on the seed.  So its outcome is kept per generator state
(``_Round.screened``): regenerating a round in the same process, as the
timed set-up repeats do, writes the same inputs without screening again.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from deformcs import cli, closed_forms, dda_registry, discrete_flows, reductions

import oracle

WORKLOADS = ("lax_flow", "lattice_map", "scalar_reduction", "residual_grid")

SIZES = {
    "full": dict(flow_steps=400, map_steps=400, reduction_steps=1500, coarse=50,
                 reduction_stride=10, scan_points=120, family_points=100,
                 grid_small=10, quantum_large=64, coisotropic_large=48, cube=10,
                 lattice=30, gauge_points=24),
    "tiny": dict(flow_steps=8, map_steps=8, reduction_steps=8, coarse=3,
                 reduction_stride=2, scan_points=6, family_points=3,
                 grid_small=4, quantum_large=6, coisotropic_large=5, cube=3,
                 lattice=4, gauge_points=9),
}

FLOW_STEP = 1e-3
REDUCTION_STEP = 4e-4
FD_SPACING = 1e-4       # the acceptance suite's stencil width for the O(h^2) bound
POLY_SPACING = 1e-2     # PolyL3 is quadratic, so a wide stencil is exact
GRID_SPACING = 0.05
ORBIT_BOUND = 10.0      # screened orbits keep |E|, |G|, |M|, |N| below this
DEGENERACY_MARGIN = 0.05


@dataclass
class Op:
    """One closed-loop operation and what its output must look like."""

    id: str
    units: int                              # work units it completes
    argv: list[str] | None = None           # ``deform-cs`` arguments of a CLI op
    call: tuple | None = None               # (module, function, args) of a direct call
    exit: int = 0                           # exit code fixed when the input was built
    rows: int | None = None                 # CSV data rows
    drift: tuple[str, str] | None = None    # (report measure, tolerance name)
    residual_tol: str | None = None         # tolerance name for residual norms
    expect_norms: list[float] | None = None  # oracle norms of a direct call

    @property
    def out(self) -> Path:
        return Path(self.argv[3])


# (screen name, generator state before) -> (accepted input, generator state after)
_SCREENED: dict[tuple[str, str], tuple[object, dict]] = {}


def _rows(steps: int, stride: int) -> int:
    return len(range(0, steps + 1, stride))


class _Round:
    def __init__(self, workload: str, seed: int, root: Path, scale: str):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.dir = root / workload
        (self.dir / "out").mkdir(parents=True, exist_ok=True)
        self.size = SIZES[scale]
        self.ops: list[Op] = []

    def u(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def entries(self, keys: str, lo: float, hi: float) -> dict[str, float]:
        return {k: self.u(lo, hi) for k in keys}

    def screened(self, name: str, search):
        """``search()``, or its kept outcome if this generator state was screened before."""
        key = (name, json.dumps(self.rng.bit_generator.state, sort_keys=True))
        if key not in _SCREENED:
            _SCREENED[key] = (search(), self.rng.bit_generator.state)
        found, state = _SCREENED[key]
        self.rng.bit_generator.state = state
        return copy.deepcopy(found)

    def sign(self) -> float:
        return 1.0 if self.rng.random() < 0.5 else -1.0

    def write(self, name: str, doc: dict) -> Path:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def cli(self, op_id: str, doc: dict, units: int, **expect) -> None:
        name = op_id.replace("/", "_")
        path = self.write(name, doc)
        argv = ["run", str(path), "--out", str(self.dir / "out" / name), "--quiet"]
        self.ops.append(Op(op_id, units, argv=argv, **expect))

    def call(self, op_id: str, module: str, function: str, args: tuple, units: int,
             residual_tol: str | None = None) -> None:
        self.ops.append(Op(op_id, units, call=(module, function, args),
                           residual_tol=residual_tol))


# ---------------------------------------------------------------------------
# lax_flow
# ---------------------------------------------------------------------------

FLOW_SYSTEMS = ("L2a_3x3", "L2a_2x2", "L3_detnorm", "L3_unimodular", "L3_simple")


def _flow_start(r: _Round, system: str) -> tuple[dict, dict]:
    if system == "L2a_3x3":
        return r.entries("DEGLMN", -0.5, 0.5), r.entries("ABC", -0.6, 0.6)
    if system == "L2a_2x2":
        return r.entries("EGMN", -0.6, 0.6), r.entries("BC", -0.8, 0.8)
    if system == "L3_detnorm":
        while True:
            e = r.entries("BCEG", -0.7, 0.7)
            if abs(e["B"] * e["G"] - e["C"] * e["E"]) > 0.2:
                return e, r.entries("MN", -0.5, 0.5)
    if system == "L3_unimodular":
        B = r.sign() * r.u(0.6, 1.2)
        C, E = r.u(-0.6, 0.6), r.u(-0.6, 0.6)
        return {"B": B, "C": C, "E": E, "G": (1.0 + C * E) / B}, r.entries("MN", -0.5, 0.5)
    return r.entries("BCEG", -0.7, 0.7), {}


def lax_flow(r: _Round) -> None:
    n = r.size["flow_steps"]
    for system in FLOW_SYSTEMS:
        for stride in (1, r.size["coarse"]):
            initial, free = _flow_start(r, system)
            doc = {"kind": "flow", "system": system, "initial": initial,
                   "span": [0.0, n * FLOW_STEP], "step": FLOW_STEP, "stride": stride}
            if free:
                doc["free"] = free
            r.cli(f"{system}/stride{stride}", doc, n, rows=_rows(n, stride),
                  drift=("max_rel", "flow_drift"))
    # Intended truncation: det C1 = 0 at the start, so the first RHS call is singular.
    B = r.sign() * r.u(0.5, 1.0)
    C, E = r.u(-0.7, 0.7), r.u(-0.7, 0.7)
    doc = {"kind": "flow", "system": "L3_detnorm",
           "initial": {"B": B, "C": C, "E": E, "G": C * E / B},
           "free": r.entries("MN", -0.5, 0.5),
           "span": [0.0, n * FLOW_STEP], "step": FLOW_STEP}
    r.cli("L3_detnorm/singular", doc, 0, exit=3, rows=1)


# ---------------------------------------------------------------------------
# lattice_map
# ---------------------------------------------------------------------------

MAPS = (("L2b", "L2b"), ("L4_closed", "L4"), ("L4_general", "L4"), ("L5", "L5"))


def _map_start(r: _Round, name: str, steps: int) -> dict[str, float]:
    """Initial entries whose orbit stays bounded and away from every denominator."""
    return r.screened(f"map:{name}:{steps}", lambda: _search_map_start(r, name, steps))


def _search_map_start(r: _Round, name: str, steps: int) -> dict[str, float]:
    dda = "L4" if name.startswith("L4") else name
    for _ in range(10_000):
        if name == "L4_closed":
            e = {"B": 1.0, "C": 1.0}
        elif name == "L2b":
            e = r.entries("BC", -1.0, 1.0)
        else:
            e = {"B": r.u(0.5, 1.5), "C": r.u(-0.5, 0.5)}
        e.update(r.entries("EGMN", -1.0, 1.0))
        with np.errstate(all="ignore"):
            try:
                path = oracle.map_orbit(dda, e, steps)
            except np.linalg.LinAlgError:
                continue
        B, C, E, G = path[:, 0], path[:, 1], path[:, 2], path[:, 3]
        if not np.all(np.isfinite(path)) or np.max(np.abs(path[:, 2:])) > ORBIT_BOUND:
            continue
        if np.min(np.abs(B * G - C * E)) < DEGENERACY_MARGIN:
            continue
        if name == "L4_closed" and np.min(np.abs(E - G)) < DEGENERACY_MARGIN:
            continue
        return e
    raise RuntimeError(f"no bounded {name} orbit found for this seed")


def lattice_map(r: _Round) -> None:
    n = r.size["map_steps"]
    for name, dda in MAPS:
        for stride in (1, r.size["coarse"]):
            doc = {"kind": "map", "dda": dda, "initial": _map_start(r, name, n),
                   "steps": n, "stride": stride}
            r.cli(f"{name}/stride{stride}", doc, n, rows=_rows(n, stride),
                  drift=("max_rel", "map_drift"))
    # Intended truncation: E = G makes the closed-form L4 step singular at n = 0.
    E = r.u(-1.0, 1.0)
    doc = {"kind": "map", "dda": "L4",
           "initial": {"B": 1.0, "C": 1.0, "E": E, "G": E, **r.entries("MN", -1.0, 1.0)},
           "steps": n}
    r.cli("L4_closed/singular", doc, 0, exit=3, rows=1)


# ---------------------------------------------------------------------------
# scalar_reduction
# ---------------------------------------------------------------------------

def _reduction_start(r: _Round, kind: str) -> tuple[dict, dict]:
    if kind in ("ChazyV", "ChazyV_shifted", "ChazyVIII"):
        return {"G": r.u(-0.5, 0.5), "G1": r.u(-0.5, 0.5), "G2": r.u(-0.5, 0.5)}, {}
    if kind == "ChazyVII":
        return ({"G": r.u(-0.5, 0.5), "G1": r.u(-0.5, 0.5), "G2": r.u(-0.5, 0.5)},
                {"b0": r.u(-0.3, 0.3)})
    if kind == "ChazyIII":
        # the quadrature divides by G, so G starts well away from 0
        return ({"G": r.u(0.8, 1.2), "G1": r.u(-0.3, 0.3), "G2": r.u(-0.3, 0.3)},
                {"phi0": r.u(0.3, 0.7), "b0": r.u(-0.3, 0.3)})
    if kind == "Boussinesq":
        return ({"E": r.u(-0.5, 0.5), "E1": r.u(-0.3, 0.3)},
                {"alpha": r.u(-0.5, 0.5), "beta": r.u(-0.5, 0.5), "gamma": r.u(-0.5, 0.5)})
    while True:  # Elliptic: a point on the constraint manifold B^2 + C E + 1 = 0
        alpha, E = r.u(0.2, 0.6), r.u(0.8, 1.2)
        if -1.0 - alpha * E * E + 2.0 * E >= 0.05:
            B, E, C = reductions.elliptic_point(E, alpha, r.sign())
            return {"B": B, "E": E, "C": C}, {"alpha": alpha}


REDUCTIONS = ("ChazyV", "ChazyV_shifted", "ChazyVII", "ChazyVIII", "ChazyIII",
              "Boussinesq", "Elliptic")


def scalar_reduction(r: _Round) -> None:
    n, stride = r.size["reduction_steps"], r.size["reduction_stride"]
    for kind in REDUCTIONS:
        initial, params = _reduction_start(r, kind)
        doc = {"kind": "reduction", "reduction": kind, "initial": initial,
               "span": [0.0, n * REDUCTION_STEP], "step": REDUCTION_STEP, "stride": stride}
        if params:
            doc["params"] = params
        r.cli(kind, doc, n, rows=_rows(n, stride), drift=("max_abs", "reduction_drift"))


# ---------------------------------------------------------------------------
# residual_grid
# ---------------------------------------------------------------------------

def _poly_l3_params(r: _Round) -> dict[str, float]:
    alpha = r.sign() * r.u(0.5, 1.0)
    beta, gamma = r.u(-1.0, 1.0), r.u(-1.0, 1.0)
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": (beta * gamma - 1.0) / alpha}


def _upper_tri_params(r: _Round) -> dict[str, float]:
    return {"alpha": r.u(-1.0, 1.0), "beta": r.u(0.5, 1.5),
            "gamma": r.u(-1.0, 1.0), "delta": r.u(-1.0, 1.0)}


def _gauge_coeffs(r: _Round) -> dict[str, list[float]]:
    """Small perturbations of the acceptance suite's cubic gauge potentials."""
    base = {"phi0": [1.0, 0.3], "phi1": [0.0, 1.0, 0.1], "phi2": [0.2, 0.0, 1.0, 0.05]}
    return {k: [c + r.u(-0.05, 0.05) for c in v] for k, v in base.items()}


def _gauge_min_det(coeffs: dict, xs) -> float:
    """Smallest |det g(x)| over xs, g(x) with row m, column k = Phi^m(x + s_k)."""
    pts = np.asarray(xs, dtype=float)[:, None] + np.array([0.0, 1.0, -1.0])
    g = np.stack([npoly.polyval(pts, np.array(coeffs[k])) for k in ("phi0", "phi1", "phi2")],
                 axis=1)
    return float(np.min(np.abs(np.linalg.det(g))))


def _gauge(r: _Round, xs) -> dict[str, list[float]]:
    """Gauge potentials whose gauge matrix is invertible at every x in xs."""
    def search():
        while True:
            coeffs = _gauge_coeffs(r)
            if _gauge_min_det(coeffs, xs) > DEGENERACY_MARGIN:
                return coeffs
    return r.screened(f"gauge:{len(xs)}", search)


def _points(r: _Round, lo: float, hi: float, count: int) -> list[float]:
    """Evenly spaced sample points at a seeded offset.

    validate_family labels points as f"x={p:g}", so two points that agree to
    six significant digits would share one report entry; even spacing keeps
    every label distinct.
    """
    offset = r.u(0.0, 1.0)
    return [lo + (hi - lo) * (k + offset) / count for k in range(count)]


def _smooth_grid(r: _Round, npts: int, n: int) -> np.ndarray:
    """Symmetric, unital structure constants varying as random quadratics on a 2-D grid."""
    xs = np.arange(npts) * GRID_SPACING
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    basis = np.stack([np.ones_like(X), X, Y, X * Y, X * X, Y * Y], axis=-1)
    coef = 0.6 * r.rng.normal(size=(6, n, n, n))
    c = np.einsum("xyb,bjkl->xyjkl", basis, coef)
    c = 0.5 * (c + np.swapaxes(c, 2, 3))
    c[:, :, 0] = np.eye(n)
    c[:, :, :, 0] = np.eye(n)
    return c


def _random_cube(r: _Round, npts: int, n: int) -> np.ndarray:
    c = r.rng.normal(size=(npts,) * 3 + (n, n, n))
    c = 0.5 * (c + np.swapaxes(c, -3, -2))
    c[..., 0, :, :] = np.eye(n)
    c[..., :, 0, :] = np.eye(n)
    return c


def _orbit_field(r: _Round, name: str, dda: str, points: int) -> dict:
    e = _map_start(r, name, points - 1)
    run = discrete_flows.orbit(dda, discrete_flows.init_map_state(dda, e), points - 1)
    return dda_registry.SampledField(dda=dda, grid=np.arange(points, dtype=float),
                                     pairs=tuple(s.pair for s in run.states)).to_json()


def _family_field(dda: str, fam, start: float, spacing: float, points: int) -> dict:
    grid = start + spacing * np.arange(points)
    pairs = tuple(closed_forms.eval_family(fam, float(x)) for x in grid)
    return dda_registry.SampledField(dda=dda, grid=grid, pairs=pairs).to_json()


def residual_grid(r: _Round) -> None:
    p, f = r.size["scan_points"], r.size["family_points"]
    Family = closed_forms.SolutionFamily
    fields = [
        ("scan/L2a_Nilpotent2x2", _family_field(
            "L2a", Family("Nilpotent2x2", r.entries(("alpha", "beta", "gamma"), -1.0, 1.0)),
            r.u(1.5, 3.0), FD_SPACING, p), p - 2, "fd_residual"),
        ("scan/L2a_UpperTri2x2", _family_field(
            "L2a", Family("UpperTri2x2", _upper_tri_params(r)), r.u(1.5, 3.0), FD_SPACING, p),
         p - 2, "fd_residual"),
        ("scan/L3_PolyL3", _family_field(
            "L3", Family("PolyL3", _poly_l3_params(r)), r.u(-1.0, 1.0), POLY_SPACING, p),
         p - 2, "poly_residual"),
        ("scan/L2b_orbit", _orbit_field(r, "L2b", "L2b", p), p - 1, "orbit_residual"),
        ("scan/L4_orbit", _orbit_field(r, "L4_general", "L4", p), p - 1, "orbit_residual"),
        ("scan/L5_orbit", _orbit_field(r, "L5", "L5", p), p - 2, "orbit_residual"),
    ]
    for op_id, field, points, tol in fields:
        path = r.write(op_id.replace("/", "_") + "_field", field)
        doc = {"kind": "residual_scan", "dda": field["dda"], "field_path": str(path)}
        r.cli(op_id, doc, points, rows=points, residual_tol=tol)

    families = [
        ("Nilpotent3x3", r.entries(("alpha", "beta", "gamma", "delta", "mu"), -1.0, 1.0),
         (1.5, 10.0), "fd_residual"),
        ("UpperTri2x2", _upper_tri_params(r), (1.5, 10.0), "fd_residual"),
        ("PolyL3", _poly_l3_params(r), (-2.0, 2.0), "poly_residual"),
    ]
    for family, params, (lo, hi), tol in families:
        doc = {"kind": "validate_family", "family": family, "params": params,
               "points": _points(r, lo, hi, f), "h": FD_SPACING}
        r.cli(f"family/{family}", doc, f, residual_tol=tol)
    # GaugeL5 evaluates g at x - 1, x, x + 1 for every point x
    points = _points(r, -2.0, 2.0, f)
    near = [x + s for x in points for s in (-1.0, 0.0, 1.0)]
    doc = {"kind": "validate_family", "family": "GaugeL5", "params": _gauge(r, near),
           "points": points}
    r.cli("family/GaugeL5", doc, f, residual_tol="exact_residual")

    small, n = r.size["grid_small"], 3
    for op_id, npts in (("quantum/small", small), ("quantum/large", r.size["quantum_large"])):
        tg = dda_registry.TensorGrid(c=_smooth_grid(r, npts, n), spacing=GRID_SPACING)
        r.call(op_id, "dda_registry", "quantum_cs_residual", (tg, r.u(0.1, 1.0)),
               (npts - 2) ** 2)
    for op_id, npts in (("coisotropic/small", small),
                        ("coisotropic/large", r.size["coisotropic_large"])):
        tg = dda_registry.TensorGrid(c=_smooth_grid(r, npts, n), spacing=GRID_SPACING)
        r.call(op_id, "dda_registry", "coisotropic_cs_residual", (tg,), (npts - 2) ** 2)

    cube = r.size["cube"]
    r.call("discrete/unital_cube", "dda_registry", "discrete_cs_residual",
           (dda_registry.TensorGrid(c=_random_cube(r, cube, 4)),), (cube - 1) ** 3)
    side = r.size["lattice"]
    e = _map_start(r, "L5", 2 * side - 2)
    run = discrete_flows.orbit("L5", discrete_flows.init_map_state("L5", e), 2 * side - 2)
    r.call("discrete/L5_lattice", "dda_registry", "discrete_cs_residual",
           (discrete_flows.lattice_field_from_l5_orbit(run, (side, side)),), (side - 1) ** 2,
           residual_tol="orbit_residual")

    g = r.size["gauge_points"]
    xs = np.arange(g) - g // 2
    coeffs = _gauge(r, xs[1:-1])
    phi = np.array([npoly.polyval(xs.astype(float), np.array(coeffs[k]))
                    for k in ("phi0", "phi1", "phi2")])
    r.call("gauge/oriented", "discrete_flows", "discrete_oriented_assoc_residual",
           (phi, xs), g - 4)


GENERATORS = {"lax_flow": lax_flow, "lattice_map": lattice_map,
              "scalar_reduction": scalar_reduction, "residual_grid": residual_grid}


def generate(workload: str, seed: int, root: Path, scale: str = "full") -> list[Op]:
    """Write the round's inputs under ``root`` and return its ops."""
    r = _Round(workload, seed, root, scale)
    GENERATORS[workload](r)
    return r.ops


def validate(ops: list[Op]) -> None:
    """Parse and validate every generated scenario the way ``deform-cs run`` does."""
    for op in ops:
        if op.argv:
            cli.load_scenario(op.argv[1])

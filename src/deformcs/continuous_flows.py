"""Continuous central-system flows on structure constants (L2a and L3).

The L2a system is integrated in the logarithmic variable s = ln x, which
makes the Lax flow x dC2/dx = [C2, C1] autonomous; the L3 systems use the
affine variable y with x = y det C1.  Five concrete systems are exposed:

    L2a_3x3       six equations for D,E,G,L,M,N with free A,B,C
    L2a_2x2       four equations for E,G,M,N with free B,C
    L3_detnorm    det-rescaled flow for B,E,C,G with free M,N
    L3_unimodular same flow restricted to det C1 = 1
    L3_simple     the M = N = 0 case of the unimodular flow

Free entries are held constant along a trajectory; trace first integrals
and eigenvalues of the designated Lax matrix (C2 for L2a, C1 for L3) are
recorded at every step.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .algebra_core import DEGENERACY_TOL, MatrixPair, trace_integrals
from .errors import InvalidInputError, SingularFlowError
from .integrators import STATUS_COMPLETED, integrate_fixed


def _rhs_l2a_3x3(v: dict[str, float]) -> dict[str, float]:
    A, B, C = v["A"], v["B"], v["C"]
    D, E, G, L, M, N = v["D"], v["E"], v["G"], v["L"], v["M"], v["N"]
    return {
        "D": D * B + L * C - A * E - D * G,
        "L": D * E + L * G - A * M - D * N,
        "E": M * C - E * G - D,
        "M": E * E + M * G - B * M - E * N - L,
        "G": G * B + N * C - C * E - G * G + A,
        "N": G * E - C * M + D,
    }


def _rhs_l2a_2x2(v: dict[str, float]) -> dict[str, float]:
    B, C, E, G, M, N = v["B"], v["C"], v["E"], v["G"], v["M"], v["N"]
    return {
        "E": M * C - E * G,
        "M": E * E + M * G - B * M - E * N,
        "G": G * B + N * C - C * E - G * G,
        "N": G * E - C * M,
    }


def _rhs_l3_detnorm(v: dict[str, float]) -> dict[str, float]:
    B, C, E, G, M, N = v["B"], v["C"], v["E"], v["G"], v["M"], v["N"]
    if abs(B * G - C * E) < DEGENERACY_TOL:
        raise SingularFlowError(f"det C1 = {B * G - C * E:.3e} is below tolerance")
    return {
        "B": E * B * G + E * N * C - G * M * C - C * E * E,
        "E": G * B * M + G * E * N - E * C * M - M * G * G,
        "C": B * C * E + B * G * G + M * C * C - C * E * G - B * N * C - G * B * B,
        "G": C * M * G + C * E * E - C * E * N - B * G * E,
    }


def _rhs_l3_unimodular(v: dict[str, float]) -> dict[str, float]:
    B, C, E, G, M, N = v["B"], v["C"], v["E"], v["G"], v["M"], v["N"]
    w = E * N - G * M
    return {
        "B": E + C * w,
        "E": M + G * w,
        "C": G - B + C * (M * C - B * N),
        "G": -E - C * w,
    }


def _rhs_l3_simple(v: dict[str, float]) -> dict[str, float]:
    return {"B": v["E"], "E": 0.0, "C": v["G"] - v["B"], "G": -v["E"]}


@dataclass(frozen=True)
class FlowSystem:
    id: str
    n: int
    evolved: tuple[str, ...]
    free: tuple[str, ...]
    lax_matrix: str  # "C1" or "C2"
    rhs: callable

    def all_entries(self) -> tuple[str, ...]:
        return self.evolved + self.free


SYSTEMS = {
    "L2a_3x3": FlowSystem("L2a_3x3", 3, ("D", "E", "G", "L", "M", "N"),
                          ("A", "B", "C"), "C2", _rhs_l2a_3x3),
    "L2a_2x2": FlowSystem("L2a_2x2", 2, ("E", "G", "M", "N"),
                          ("B", "C"), "C2", _rhs_l2a_2x2),
    "L3_detnorm": FlowSystem("L3_detnorm", 2, ("B", "E", "C", "G"),
                             ("M", "N"), "C1", _rhs_l3_detnorm),
    "L3_unimodular": FlowSystem("L3_unimodular", 2, ("B", "E", "C", "G"),
                                ("M", "N"), "C1", _rhs_l3_unimodular),
    "L3_simple": FlowSystem("L3_simple", 2, ("B", "E", "C", "G"),
                            (), "C1", _rhs_l3_simple),
}


def get_system(system_id: str) -> FlowSystem:
    try:
        return SYSTEMS[system_id]
    except KeyError:
        raise InvalidInputError(f"unknown flow system {system_id!r}") from None


@dataclass(frozen=True)
class FlowState:
    """One point on a trajectory: independent variable, pair, and free entries."""

    s: float
    pair: MatrixPair
    free_values: dict[str, float] = field(default_factory=dict)

    def entries(self) -> dict[str, float]:
        return self.pair.entries()


def state_from_entries(system_id: str, s: float, entries: dict[str, float]) -> FlowState:
    sy = get_system(system_id)
    missing = [k for k in sy.all_entries() if k not in entries]
    if missing:
        raise InvalidInputError(f"{system_id} state is missing entries {missing}")
    full = dict(entries)
    if sy.id == "L3_simple":
        full["M"] = full["N"] = 0.0  # the system is the M = N = 0 reduction
    names = ("B", "C", "E", "G", "M", "N") if sy.n == 2 else \
            ("A", "B", "C", "D", "E", "G", "L", "M", "N")
    pair = MatrixPair.from_entries(sy.n, {k: float(full.get(k, 0.0)) for k in names})
    return FlowState(s=s, pair=pair, free_values={k: float(entries[k]) for k in sy.free})


@dataclass(frozen=True)
class Trajectory:
    system_id: str
    states: tuple[FlowState, ...]
    integral_history: tuple[dict[str, float], ...]
    eigen_history: tuple[tuple[complex, ...], ...]
    status: str = STATUS_COMPLETED
    diagnostic: str | None = None

    def __post_init__(self):
        if not (len(self.states) == len(self.integral_history) == len(self.eigen_history)):
            raise InvalidInputError("history lengths must equal the number of states")
        svals = [st.s for st in self.states]
        if any(b <= a for a, b in zip(svals, svals[1:])):
            raise InvalidInputError("trajectory states must have strictly increasing s")


def vector_field(system_id: str, state: FlowState) -> dict[str, float]:
    """d(entry)/ds for every evolved entry, at the given state."""
    sy = get_system(system_id)
    values = state.entries()
    values.update(state.free_values)
    if sy.id == "L3_simple":
        values["M"] = values["N"] = 0.0
    rhs = sy.rhs(values)
    return {k: float(rhs[k]) for k in sy.evolved}


def first_integrals(system_id: str, state: FlowState) -> dict[str, float]:
    """Trace first integrals of the system's Lax matrix, evaluated algebraically."""
    sy = get_system(system_id)
    e = state.entries()
    if sy.id == "L2a_3x3":
        return trace_integrals(state.pair.C2)
    if sy.id == "L2a_2x2":
        E, G, M, N = e["E"], e["G"], e["M"], e["N"]
        return {"I1": E + N, "I2": 0.5 * (E * E + N * N + 2.0 * M * G)}
    B, C, E, G = e["B"], e["C"], e["E"], e["G"]
    return {"I1": B + G, "I2": 0.5 * (B * B + G * G + 2.0 * C * E)}


def _sorted_eigs(vals) -> tuple[complex, ...]:
    return tuple(sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag)))


def spectral_invariants(system_id: str, state: FlowState) -> tuple[complex, ...]:
    """Eigenvalues of the Lax matrix (C2 for L2a, C1 for L3), sorted by (Re, Im)."""
    sy = get_system(system_id)
    mat = state.pair.C2 if sy.lax_matrix == "C2" else state.pair.C1
    if sy.n == 2:
        t = mat[0, 0] + mat[1, 1]
        root = cmath.sqrt((mat[0, 0] - mat[1, 1]) ** 2 + 4.0 * mat[0, 1] * mat[1, 0])
        return _sorted_eigs((0.5 * (t - root), 0.5 * (t + root)))
    return _sorted_eigs(np.linalg.eigvals(mat))


def integrate(system_id: str, initial: FlowState, span: tuple[float, float],
              step: float, free_functions: dict[str, float] | None = None) -> Trajectory:
    """Run the flow over ``span`` with fixed-step RK4, recording invariants.

    ``free_functions`` overrides the free entries carried by ``initial``
    (constants only).  Singular configurations and the 1e12 overflow guard
    truncate the trajectory and set a diagnostic instead of raising.
    """
    sy = get_system(system_id)
    if span[1] < span[0]:
        raise InvalidInputError("span must be nonempty with s1 >= s0")
    free = dict(initial.free_values)
    if free_functions:
        unknown = set(free_functions) - set(sy.free)
        if unknown:
            raise InvalidInputError(f"{system_id} has no free entries {sorted(unknown)}")
        free.update({k: float(v) for k, v in free_functions.items()})
    entries0 = initial.entries()
    entries0.update(free)
    y0 = np.array([entries0[k] for k in sy.evolved])

    def f(_t: float, y: np.ndarray) -> np.ndarray:
        values = dict(zip(sy.evolved, y))
        values.update(free)
        if sy.id == "L3_simple":
            values["M"] = values["N"] = 0.0
        rhs = sy.rhs(values)
        return np.array([rhs[k] for k in sy.evolved])

    if initial.s != span[0]:
        raise InvalidInputError("initial state must sit at the start of the span")
    ts, ys, status, diagnostic = integrate_fixed(f, span[0], y0, span[1], step)

    states, ints, eigs = [], [], []
    for t, y in zip(ts, ys):
        values = dict(zip(sy.evolved, y))
        values.update(free)
        st = state_from_entries(sy.id, float(t), values)
        states.append(st)
        ints.append(first_integrals(sy.id, st))
        eigs.append(spectral_invariants(sy.id, st))
    return Trajectory(system_id=sy.id, states=tuple(states),
                      integral_history=tuple(ints), eigen_history=tuple(eigs),
                      status=status, diagnostic=diagnostic)


def position_x(system_id: str, state: FlowState) -> float:
    """The deformation parameter x behind the flow variable (e^s resp. y det C1)."""
    sy = get_system(system_id)
    if sy.id.startswith("L2a"):
        return float(np.exp(state.s))
    return float(state.s * np.linalg.det(state.pair.C1))

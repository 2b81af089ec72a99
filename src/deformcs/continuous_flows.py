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
computed for every step, once over the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .algebra_core import (DEGENERACY_TOL, ENTRY_POSITIONS_2, ENTRY_POSITIONS_3, MatrixPair,
                           trace_integrals)
from .errors import InvalidInputError, SingularFlowError
from .integrators import Trajectory, integrate_fixed

# Each right-hand side maps the evolved entries y and the free entries p,
# both in the system's declared order, to dy/ds in evolved order.


def _rhs_l2a_3x3(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    D, E, G, L, M, N = y
    A, B, C = p
    return np.array([
        D * B + L * C - A * E - D * G,
        M * C - E * G - D,
        G * B + N * C - C * E - G * G + A,
        D * E + L * G - A * M - D * N,
        E * E + M * G - B * M - E * N - L,
        G * E - C * M + D,
    ])


def _rhs_l2a_2x2(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    E, G, M, N = y
    B, C = p
    return np.array([
        M * C - E * G,
        G * B + N * C - C * E - G * G,
        E * E + M * G - B * M - E * N,
        G * E - C * M,
    ])


def _rhs_l3_detnorm(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    B, E, C, G = y
    M, N = p
    if abs(B * G - C * E) < DEGENERACY_TOL:
        raise SingularFlowError(f"det C1 = {B * G - C * E:.3e} is below tolerance")
    return np.array([
        E * B * G + E * N * C - G * M * C - C * E * E,
        G * B * M + G * E * N - E * C * M - M * G * G,
        B * C * E + B * G * G + M * C * C - C * E * G - B * N * C - G * B * B,
        C * M * G + C * E * E - C * E * N - B * G * E,
    ])


def _rhs_l3_unimodular(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    B, E, C, G = y
    M, N = p
    w = E * N - G * M
    return np.array([
        E + C * w,
        M + G * w,
        G - B + C * (M * C - B * N),
        -E - C * w,
    ])


def _rhs_l3_simple(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    B, E, C, G = y
    return np.array([E, 0.0, G - B, -E])


@dataclass(frozen=True)
class FlowSystem:
    id: str
    n: int
    evolved: tuple[str, ...]
    free: tuple[str, ...]
    # the Lax matrix (C2 for L2a, C1 for L3) row by row: entry names or constants
    lax: tuple[str | float, ...]
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def all_entries(self) -> tuple[str, ...]:
        return self.evolved + self.free


_LAX_C2_3 = (0.0, "D", "L", 0.0, "E", "M", 1.0, "G", "N")
_LAX_C2_2 = ("E", "M", "G", "N")
_LAX_C1_2 = ("B", "E", "C", "G")

SYSTEMS = {
    "L2a_3x3": FlowSystem("L2a_3x3", 3, ("D", "E", "G", "L", "M", "N"),
                          ("A", "B", "C"), _LAX_C2_3, _rhs_l2a_3x3),
    "L2a_2x2": FlowSystem("L2a_2x2", 2, ("E", "G", "M", "N"),
                          ("B", "C"), _LAX_C2_2, _rhs_l2a_2x2),
    "L3_detnorm": FlowSystem("L3_detnorm", 2, ("B", "E", "C", "G"),
                             ("M", "N"), _LAX_C1_2, _rhs_l3_detnorm),
    "L3_unimodular": FlowSystem("L3_unimodular", 2, ("B", "E", "C", "G"),
                                ("M", "N"), _LAX_C1_2, _rhs_l3_unimodular),
    "L3_simple": FlowSystem("L3_simple", 2, ("B", "E", "C", "G"),
                            (), _LAX_C1_2, _rhs_l3_simple),
}


def get_system(system_id: str) -> FlowSystem:
    try:
        return SYSTEMS[system_id]
    except KeyError:
        raise InvalidInputError(f"unknown flow system {system_id!r}") from None


@dataclass(frozen=True)
class FlowState:
    """One point of a flow: the independent variable and the pair, free entries included."""

    s: float
    pair: MatrixPair

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
    names = ENTRY_POSITIONS_2 if sy.n == 2 else ENTRY_POSITIONS_3
    pair = MatrixPair.from_entries(sy.n, {k: float(full.get(k, 0.0)) for k in names})
    return FlowState(s=s, pair=pair)


def vector_field(system_id: str, state: FlowState) -> dict[str, float]:
    """d(entry)/ds for every evolved entry, at the given state."""
    sy = get_system(system_id)
    e = state.entries()
    rhs = sy.rhs(np.array([e[k] for k in sy.evolved]), np.array([e[k] for k in sy.free]))
    return dict(zip(sy.evolved, rhs.tolist()))


# The invariants below take a mapping from entry names to values: floats for
# one state, or equally long arrays for every state of a run.

def _lax_matrices(sy: FlowSystem, values: Mapping) -> np.ndarray:
    """The Lax matrix at each state, shape (..., n, n)."""
    shape = np.shape(values[sy.evolved[0]])
    cells = [np.full(shape, c) if isinstance(c, float) else np.asarray(values[c], dtype=float)
             for c in sy.lax]
    return np.stack(cells, axis=-1).reshape(shape + (sy.n, sy.n))


def first_integrals(system_id: str, values: Mapping) -> dict:
    """Trace first integrals of the system's Lax matrix, evaluated algebraically."""
    sy = get_system(system_id)
    if sy.n == 3:
        return trace_integrals(_lax_matrices(sy, values))
    a, b, c, d = (values[k] for k in sy.lax)
    return {"I1": a + d, "I2": 0.5 * (a * a + d * d + 2.0 * b * c)}


def spectral_invariants(system_id: str, values: Mapping) -> np.ndarray:
    """Eigenvalues of the Lax matrix (C2 for L2a, C1 for L3), sorted by (Re, Im).

    The result has shape (..., n): one sorted row of n eigenvalues per state.
    """
    sy = get_system(system_id)
    if sy.n == 3:
        lam = np.linalg.eigvals(_lax_matrices(sy, values))
    else:
        a, b, c, d = (np.asarray(values[k], dtype=float) for k in sy.lax)
        # math.pow per state: an array ** 2 rounds differently from the scalar pow
        sq = np.reshape([math.pow(v, 2) for v in np.ravel(a - d).tolist()], np.shape(a))
        disc = sq + 4.0 * b * c
        root = np.where(disc >= 0.0, 1.0 + 0j, 1j) * np.sqrt(np.abs(disc))
        t = a + d
        lam = np.stack([0.5 * (t - root), 0.5 * (t + root)], axis=-1)
    order = np.lexsort((lam.imag, lam.real), axis=-1)
    return np.take_along_axis(lam, order, axis=-1)


def integrate(system_id: str, initial: FlowState, span: tuple[float, float],
              step: float) -> Trajectory:
    """Run the flow over ``span`` with fixed-step RK4, recording invariants.

    The free entries of ``initial`` stay constant.  Singular
    configurations and the 1e12 overflow guard truncate the trajectory and
    set a diagnostic instead of raising.  The trajectory's columns are the
    deformation parameter x (e^s for L2a, s det C1 for L3), then the evolved
    and the free entries; its invariants are the first integrals and the
    sorted Lax eigenvalues ("eigenvalues", one row per state).
    """
    sy = get_system(system_id)
    if span[1] < span[0]:
        raise InvalidInputError("span must be nonempty with s1 >= s0")
    if initial.s != span[0]:
        raise InvalidInputError("initial state must sit at the start of the span")
    e = initial.entries()
    p = np.array([e[k] for k in sy.free])
    ts, ys, status, diagnostic = integrate_fixed(
        lambda _t, y: sy.rhs(y, p), span[0], [e[k] for k in sy.evolved], span[1], step)

    values = dict(zip(sy.evolved, ys.T))
    values.update((k, np.full(len(ts), v)) for k, v in zip(sy.free, p))
    x = np.exp(ts) if sy.id.startswith("L2a") else ts * np.linalg.det(_lax_matrices(sy, values))
    invariants = first_integrals(sy.id, values)
    invariants["eigenvalues"] = spectral_invariants(sy.id, values)
    states = np.column_stack([x] + [values[k] for k in sy.all_entries()])
    return Trajectory(kind=sy.id, ts=ts, states=states, columns=("x",) + sy.all_entries(),
                      invariants=invariants, status=status, diagnostic=diagnostic)

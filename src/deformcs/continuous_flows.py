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
computed for every step, once over the whole run, under np.errstate(all="ignore"):
a state past float range gives inf or NaN, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .algebra_core import (DEGENERACY_TOL, entry_stacks, finite_numbers, finite_span, mapping,
                           one_of, trace_integrals)
from .errors import InvalidInputError, SingularFlowError
from .integrators import Trajectory, integrate_fixed

Floats = tuple[float, ...]

# Each right-hand side maps the evolved and the free entries, tuples of floats in the
# declared order, to dy/ds; it uses no ** and no division, so an overflow gives inf.


def _rhs_l2a_3x3(y: Floats, p: Floats) -> Floats:
    D, E, G, L, M, N = y
    A, B, C = p
    return (
        D * B + L * C - A * E - D * G,
        M * C - E * G - D,
        G * B + N * C - C * E - G * G + A,
        D * E + L * G - A * M - D * N,
        E * E + M * G - B * M - E * N - L,
        G * E - C * M + D,
    )


def _rhs_l2a_2x2(y: Floats, p: Floats) -> Floats:
    E, G, M, N = y
    B, C = p
    return (
        M * C - E * G,
        G * B + N * C - C * E - G * G,
        E * E + M * G - B * M - E * N,
        G * E - C * M,
    )


def _rhs_l3_detnorm(y: Floats, p: Floats) -> Floats:
    B, E, C, G = y
    M, N = p
    det = B * G - C * E
    if abs(det) < DEGENERACY_TOL:
        raise SingularFlowError(f"det C1 = {det:.3e} is below tolerance")
    return (
        E * B * G + E * N * C - G * M * C - C * E * E,
        G * B * M + G * E * N - E * C * M - M * G * G,
        B * C * E + B * G * G + M * C * C - C * E * G - B * N * C - G * B * B,
        C * M * G + C * E * E - C * E * N - B * G * E,
    )


def _rhs_l3_unimodular(y: Floats, p: Floats) -> Floats:
    B, E, C, G = y
    M, N = p
    w = E * N - G * M
    return (
        E + C * w,
        M + G * w,
        G - B + C * (M * C - B * N),
        -E - C * w,
    )


def _rhs_l3_simple(y: Floats, p: Floats) -> Floats:
    B, E, C, G = y
    return (E, 0.0, G - B, -E)


@dataclass(frozen=True)
class FlowSystem:
    id: str
    n: int
    evolved: tuple[str, ...]
    free: tuple[str, ...]
    lax: int   # the Lax matrix: 1 for C2 (L2a), 0 for C1 (L3)
    rhs: Callable[[Floats, Floats], Floats]

    def all_entries(self) -> tuple[str, ...]:
        return self.evolved + self.free

    def split(self, state: Mapping[str, float]) -> tuple[Floats, Floats]:
        return tuple(state[k] for k in self.evolved), tuple(state[k] for k in self.free)


SYSTEMS = {sy.id: sy for sy in (
    FlowSystem("L2a_3x3", 3, ("D", "E", "G", "L", "M", "N"), ("A", "B", "C"), 1, _rhs_l2a_3x3),
    FlowSystem("L2a_2x2", 2, ("E", "G", "M", "N"), ("B", "C"), 1, _rhs_l2a_2x2),
    FlowSystem("L3_detnorm", 2, ("B", "E", "C", "G"), ("M", "N"), 0, _rhs_l3_detnorm),
    FlowSystem("L3_unimodular", 2, ("B", "E", "C", "G"), ("M", "N"), 0, _rhs_l3_unimodular),
    FlowSystem("L3_simple", 2, ("B", "E", "C", "G"), (), 0, _rhs_l3_simple),
)}


def get_system(system_id: str) -> FlowSystem:
    return one_of("flow system", SYSTEMS, system_id)


def state_from_entries(system_id: str, entries: Mapping[str, float]) -> dict[str, float]:
    """A flow state: the system's entries as floats, none missing, all finite; other
    keys (an ``.entries()`` dict carries them) are ignored.

    L3_simple is the M = N = 0 reduction, so its state carries M = N = 0.
    """
    sy = get_system(system_id)
    entries = mapping(f"{system_id} state", entries)
    missing = [k for k in sy.all_entries() if k not in entries]
    if missing:
        raise InvalidInputError(f"{system_id} state is missing entries {missing}")
    state = finite_numbers(f"{system_id} entry", {k: entries[k] for k in sy.all_entries()},
                           sy.all_entries())
    if sy.id == "L3_simple":
        state["M"] = state["N"] = 0.0
    return state


# The invariants below take a mapping from entry names to values: floats for
# one state, or equally long arrays for every state of a run.

def _lax_matrices(sy: FlowSystem, values: Mapping) -> np.ndarray:
    """The Lax matrix at each state, shape (..., n, n), from the system's entries only."""
    return entry_stacks(sy.n, {k: values[k] for k in sy.all_entries()})[sy.lax]


@np.errstate(all="ignore")   # inf and NaN, as float arithmetic gives them
def first_integrals(system_id: str, values: Mapping) -> dict:
    """Trace first integrals of the system's Lax matrix, evaluated algebraically."""
    sy = get_system(system_id)
    lax = _lax_matrices(sy, values)
    if sy.n == 3:
        return trace_integrals(lax)
    a, b, c, d = (lax[..., i, j] for i in (0, 1) for j in (0, 1))
    return {"I1": a + d, "I2": 0.5 * (a * a + d * d + 2.0 * b * c)}


@np.errstate(all="ignore")
def spectral_invariants(system_id: str, values: Mapping) -> np.ndarray:
    """Eigenvalues of the Lax matrix (C2 for L2a, C1 for L3), sorted by (Re, Im).

    The result has shape (..., n): one sorted row of n eigenvalues per state.
    """
    sy = get_system(system_id)
    lax = _lax_matrices(sy, values)
    if sy.n == 3:
        lam = np.linalg.eigvals(lax)
    else:
        a, b, c, d = (lax[..., i, j] for i in (0, 1) for j in (0, 1))
        disc = (a - d) * (a - d) + 4.0 * b * c   # a correctly rounded square, unlike pow()
        root = np.where(disc >= 0.0, 1.0 + 0j, 1j) * np.sqrt(np.abs(disc))
        t = a + d
        lam = np.stack([0.5 * (t - root), 0.5 * (t + root)], axis=-1)
    order = np.lexsort((lam.imag, lam.real), axis=-1)
    return np.take_along_axis(lam, order, axis=-1)


@np.errstate(all="ignore")   # x = e^s or s det C1, which may leave float range
def integrate(system_id: str, initial: Mapping[str, float], span: tuple[float, float],
              step: float) -> Trajectory:
    """Run the flow from the entries ``initial`` over ``span`` (judged by ``finite_span``)
    with fixed-step RK4.

    The free entries of ``initial`` stay constant.  Singular
    configurations and the 1e12 overflow guard truncate the trajectory and
    set a diagnostic instead of raising.  The trajectory's columns are the
    deformation parameter x (e^s for L2a, s det C1 for L3), then the evolved
    and the free entries; its invariants are the first integrals and the
    sorted Lax eigenvalues ("eigenvalues", one row per state).
    """
    sy = get_system(system_id)
    y0, p = sy.split(state_from_entries(system_id, initial))
    t0, t1 = finite_span("span", span)
    ts, ys, status, diagnostic = integrate_fixed(lambda _t, y: sy.rhs(y, p), t0, y0, t1, step)

    values = dict(zip(sy.evolved, ys.T))
    values.update((k, np.full(len(ts), v)) for k, v in zip(sy.free, p))
    x = np.exp(ts) if sy.id.startswith("L2a") else ts * np.linalg.det(_lax_matrices(sy, values))
    invariants = first_integrals(sy.id, values)
    invariants["eigenvalues"] = spectral_invariants(sy.id, values)
    states = np.column_stack([x] + [values[k] for k in sy.all_entries()])
    return Trajectory(ts=ts, states=states, columns=("x",) + sy.all_entries(),
                      invariants=invariants, status=status, diagnostic=diagnostic)

"""Discrete central-system maps (L2b, L4, L5) and the gauge associativity check.

The three discrete DDAs turn the central system into mappings of the 2x2
structure constants (B, C held fixed along an orbit):

* L2b: C1 TC2 = C2 C1, resolved explicitly when det C1 = BG - CE != 0;
* L4:  C1 TC2 = C2 TC1, the four-dimensional mapping at B = C = 1, or the
  general linear solve for other constant B, C;
* L5:  C1 TC2 = C2 T^-1 C1, a second-order recursion: the state carries the
  previous C1 and the transition matrix V = T^-1C1 . C2, which the map
  conjugates by C2.

Each map's trace invariants (of C2, of C2 C1^-1, of C1 TC2 respectively)
are evaluated exactly; L5 invariants attach to transitions via V.  The
module also evaluates the discrete oriented associativity residual of
gauge fields built from three sampled potentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra_core import DEGENERACY_TOL, MatrixPair, ResidualReport, trace_integrals
from .errors import InvalidInputError, SingularGaugeError, SingularOrbitError
from .integrators import OVERFLOW_GUARD, STATUS_COMPLETED, STATUS_TRUNCATED

MAP_DDAS = ("L2b", "L4", "L5")


@dataclass(frozen=True)
class MapState:
    """One point of a discrete orbit."""

    n: int
    pair: MatrixPair
    free: dict[str, float]
    prev_C1: np.ndarray | None = None   # L5 only: C1 one site back
    V: np.ndarray | None = None         # L5 only: T^-1C1 . C2
    flags: tuple[str, ...] = field(default=())

    def entries(self) -> dict[str, float]:
        return self.pair.entries()


def _degeneracy_flags(pair: MatrixPair) -> tuple[str, ...]:
    e = pair.entries()
    flags = []
    if abs(e["B"] * e["G"] - e["C"] * e["E"]) < DEGENERACY_TOL:
        flags.append("det_C1_degenerate")
    if abs(e["E"] - e["G"]) < DEGENERACY_TOL:
        flags.append("E_minus_G_degenerate")
    if abs(np.linalg.det(pair.C2)) < DEGENERACY_TOL:
        flags.append("det_C2_degenerate")
    return tuple(flags)


def init_map_state(dda: str, entries: dict[str, float],
                   prev_entries: dict[str, float] | None = None) -> MapState:
    """Build the step-0 state of an orbit from named 2x2 entries.

    For L5 the map is second order in the lattice variable; ``prev_entries``
    supplies C1 one site back and defaults to the initial C1.
    """
    if dda not in MAP_DDAS:
        raise InvalidInputError(f"unknown or non-discrete dda {dda!r}")
    pair = MatrixPair.from_entries_2x2(**entries)
    free = {"B": float(entries.get("B", 0.0)), "C": float(entries.get("C", 0.0))}
    prev_C1 = None
    V = None
    if dda == "L5":
        if prev_entries is None:
            prev_C1 = pair.C1.copy()
        else:
            prev_C1 = MatrixPair.from_entries_2x2(**prev_entries).C1
        V = prev_C1 @ pair.C2
    return MapState(n=0, pair=pair, free=free, prev_C1=prev_C1, V=V,
                    flags=_degeneracy_flags(pair))


def _step_l2b(state: MapState) -> dict[str, float]:
    e = state.entries()
    B, C, E, G, M, N = (e[k] for k in ("B", "C", "E", "G", "M", "N"))
    den = B * G - C * E
    if abs(den) < DEGENERACY_TOL:
        raise SingularOrbitError(f"BG - CE = {den:.3e} below tolerance",
                                 quantity="BG-CE", value=den)
    p = (G * M - E * N) / den
    q = (B * N - C * M) / den
    return {"B": B, "C": C, "E": C * p, "G": B + C * q, "M": G * p, "N": E + G * q}


def _step_l4(state: MapState) -> dict[str, float]:
    e = state.entries()
    B, C, E, G, M, N = (e[k] for k in ("B", "C", "E", "G", "M", "N"))
    if B == 1.0 and C == 1.0:
        den = E - G
        if abs(den) < DEGENERACY_TOL:
            raise SingularOrbitError(f"E - G = {den:.3e} below tolerance",
                                     quantity="E-G", value=den)
        r = (M - N) / den
        return {"B": B, "C": C,
                "E": M - E * r, "G": 1.0 + r,
                "M": N + (N - G) * r - G * r * r,
                "N": M + (1.0 - E) * r + r * r}
    den = B * G - C * E
    if abs(den) < DEGENERACY_TOL:
        raise SingularOrbitError(f"BG - CE = {den:.3e} below tolerance",
                                 quantity="BG-CE", value=den)
    C1, C2 = state.pair.C1, state.pair.C2
    te, tg = np.linalg.solve(C1, C2 @ np.array([B, C]))
    tm, tn = np.linalg.solve(C1, C2 @ np.array([te, tg]))
    return {"B": B, "C": C, "E": float(te), "G": float(tg), "M": float(tm), "N": float(tn)}


def step(dda: str, state: MapState) -> MapState:
    """Advance the orbit one lattice site."""
    if dda not in MAP_DDAS:
        raise InvalidInputError(f"unknown or non-discrete dda {dda!r}")
    if state.pair.n != 2:
        raise InvalidInputError("discrete map stepping is implemented for 2x2 states")
    if dda in ("L2b", "L4"):
        new_entries = _step_l2b(state) if dda == "L2b" else _step_l4(state)
        pair = MatrixPair.from_entries_2x2(**new_entries)
        return MapState(n=state.n + 1, pair=pair, free=state.free,
                        flags=_degeneracy_flags(pair))
    # L5: TC2 = C1^-1 C2 (T^-1 C1); the new V = C1 . TC2 equals C2 V C2^-1.
    e = state.entries()
    den = e["B"] * e["G"] - e["C"] * e["E"]
    if abs(den) < DEGENERACY_TOL:
        raise SingularOrbitError(f"det C1 = {den:.3e} below tolerance",
                                 quantity="det C1", value=den)
    if state.prev_C1 is None:
        raise InvalidInputError("L5 state lacks the previous C1 (use init_map_state)")
    C1, C2 = state.pair.C1, state.pair.C2
    TC2 = np.linalg.solve(C1, C2 @ state.prev_C1)
    B, C = state.free["B"], state.free["C"]
    pair = MatrixPair(2, np.array([[B, TC2[0, 0]], [C, TC2[1, 0]]]), TC2)
    return MapState(n=state.n + 1, pair=pair, free=state.free,
                    prev_C1=C1.copy(), V=C1 @ TC2,
                    flags=_degeneracy_flags(pair))


def map_invariants(dda: str, state: MapState) -> dict[str, float]:
    """Exact trace invariants of the map (L5 values attach to the transition)."""
    if dda == "L2b":
        C2 = state.pair.C2
        return {**trace_integrals(C2), "det_C2": float(np.linalg.det(C2))}
    if dda == "L4":
        det = float(np.linalg.det(state.pair.C1))
        if abs(det) < DEGENERACY_TOL:
            raise SingularOrbitError(f"det C1 = {det:.3e}: invariants need C1^-1",
                                     quantity="det C1", value=det)
        return trace_integrals(state.pair.C2 @ np.linalg.inv(state.pair.C1))
    if dda == "L5":
        if state.V is None:
            raise InvalidInputError("L5 state carries no transition matrix V")
        return trace_integrals(state.V)
    raise InvalidInputError(f"unknown or non-discrete dda {dda!r}")


@dataclass(frozen=True)
class Orbit:
    dda: str
    states: tuple[MapState, ...]
    invariant_history: tuple[dict[str, float], ...]
    status: str = STATUS_COMPLETED
    diagnostic: str | None = None


def orbit(dda: str, state0: MapState, steps: int) -> Orbit:
    """Iterate the map; a singular denominator or overflow truncates the orbit."""

    def safe_invariants(st: MapState) -> dict[str, float]:
        try:
            return map_invariants(dda, st)
        except SingularOrbitError:
            return {}

    states = [state0]
    invs = [safe_invariants(state0)]
    status, diagnostic = STATUS_COMPLETED, None
    current = state0
    for _ in range(steps):
        try:
            current = step(dda, current)
        except SingularOrbitError as exc:
            status = STATUS_TRUNCATED
            diagnostic = f"singular step at n={current.n}: {exc}"
            break
        if np.max(np.abs(current.pair.C2)) > OVERFLOW_GUARD:
            status = STATUS_TRUNCATED
            diagnostic = f"state exceeded overflow guard at n={current.n}"
            break
        states.append(current)
        invs.append(safe_invariants(current))
    return Orbit(dda=dda, states=tuple(states), invariant_history=tuple(invs),
                 status=status, diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# Discrete oriented associativity for gauge solutions.
# ---------------------------------------------------------------------------

GAUGE_SHIFTS = (0, 1, -1)   # T_0 = 1, T_1 = T, T_2 = T^-1


def gauge_matrix(potentials, x) -> np.ndarray:
    """g at x: row m, column k holds Phi^m(x + s_k) for the shifts s_k in GAUGE_SHIFTS.

    ``potentials`` maps an array of points to the (3, points) array of Phi^m values.
    """
    return potentials(x + np.array(GAUGE_SHIFTS))


def _sampled_potentials(phi: np.ndarray, xs: np.ndarray):
    """Potentials read off samples phi[m, i] = Phi^m(xs[i]) on integer points."""
    idx = {int(v): i for i, v in enumerate(xs)}

    def potentials(points: np.ndarray) -> np.ndarray:
        try:
            return phi[:, [idx[int(p)] for p in points]]
        except KeyError as exc:
            raise InvalidInputError(f"potential samples do not cover x = {exc.args[0]}") from None

    return potentials


def oriented_assoc_defect(phi: np.ndarray, xs: np.ndarray, x: int) -> np.ndarray:
    """Commutator tensor R[j,k] = C_j C_k - C_k C_j at x, via the gauge sums.

    Each side of the oriented associativity identity is the matrix
    S_jk = (T_j g) g^-1 (T_k g) = g (C_j C_k); the defect is normalised by
    g^-1 so that a nonzero residual is exactly the associativity defect of
    the gauge structure constants.
    """
    potentials = _sampled_potentials(phi, xs)
    g = gauge_matrix(potentials, x)
    if abs(np.linalg.det(g)) < DEGENERACY_TOL:
        raise SingularGaugeError(f"gauge matrix is singular at x = {x}")
    n = len(GAUGE_SHIFTS)
    # (T_j g)[m][t] = Phi^m(x + s_j + s_t): shift the whole gauge matrix.
    shifted = [gauge_matrix(potentials, x + s) for s in GAUGE_SHIFTS]
    ginv_tk = [np.linalg.solve(g, tg) for tg in shifted]   # g^-1 T_k g = C_k
    R = np.zeros((n, n, n, n))
    for j in range(n):
        for k in range(n):
            S_jk = np.linalg.solve(g, shifted[j] @ ginv_tk[k])
            S_kj = np.linalg.solve(g, shifted[k] @ ginv_tk[j])
            R[j, k] = S_jk - S_kj
    return R


def discrete_oriented_assoc_residual(phi, xs) -> ResidualReport:
    """Oriented-associativity residual of a gauge field, per interior point.

    ``phi`` holds the three potentials sampled on the integer interval ``xs``
    (shape (3, len(xs))); points with x-2 .. x+2 available are evaluated.
    The reported norm per point is the Frobenius norm of C1 C2 - C2 C1
    reconstructed through the gauge sums (zero iff iso-associative there).
    """
    phi = np.asarray(phi, dtype=float)
    xs = np.asarray(xs, dtype=int)
    if phi.shape != (3, xs.size):
        raise InvalidInputError("need three potentials sampled on the whole interval")
    labels, norms = [], []
    for x in xs:
        if x - 2 < xs[0] or x + 2 > xs[-1]:
            continue
        R = oriented_assoc_defect(phi, xs, int(x))
        labels.append(f"x={int(x)}")
        norms.append(float(np.linalg.norm(R[1, 2])))
    if not labels:
        raise InvalidInputError("interval too short: no point has both double shifts")
    return ResidualReport(labels=tuple(labels), norms=tuple(norms))


def lattice_field_from_l5_orbit(run: Orbit, shape: tuple[int, int]):
    """Reinterpret an L5 orbit as a 2-lattice field with T1 = T, T2 = T^-1.

    The orbit value at lattice point (x1, x2) is the state at x = x1 - x2,
    realising the constraint T1 T2 C = C.  Returns a TensorGrid whose
    discrete central-system residual vanishes on exact orbits.
    """
    from .dda_registry import TensorGrid

    n1, n2 = shape
    need = n1 + n2 - 1
    if len(run.states) < need:
        raise InvalidInputError(f"orbit too short: need {need} states for shape {shape}")
    # x = x1 - x2 ranges over [-(n2-1), n1-1]; shift so the earliest state is index 0.
    c = np.zeros((n1, n2, 2, 2, 2))
    for i1 in range(n1):
        for i2 in range(n2):
            st = run.states[i1 + (n2 - 1 - i2)]
            c[i1, i2, 0] = st.pair.C1.T
            c[i1, i2, 1] = st.pair.C2.T
    return TensorGrid(c=c, spacing=1.0)

"""Discrete central-system maps (L2b, L4, L5) and the gauge associativity check.

The three discrete DDAs turn the central system into mappings of the 2x2
structure constants (B, C held fixed along an orbit):

* L2b: C1 TC2 = C2 C1, resolved explicitly when det C1 = BG - CE != 0;
* L4:  C1 TC2 = C2 TC1, the four-dimensional mapping at B = C = 1, or the
  general linear solve for other constant B, C;
* L5:  C1 TC2 = C2 T^-1 C1, a second-order recursion: the state carries the
  previous C1, and the transition matrix V = T^-1C1 . C2 is conjugated by
  C2 at each step.

One scalar kernel advances the entries (B, C, E, G, M, N) as floats.  Off the
closed forms it takes LAPACK's 2x2 LU with exactly emulated fused multiply-adds,
giving the bits of np.linalg.solve, which it calls outside that exact range.
``orbit`` iterates it and keeps the orbit as arrays, with the degeneracy flags
and the exact trace invariants (of C2, of C2 C1^-1, of V respectively) computed
once over the whole orbit.  The module also evaluates the discrete oriented
associativity residual of gauge fields built from three sampled potentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import fsum
from sys import float_info

import numpy as np

from .algebra_core import (DEGENERACY_TOL, ENTRY_POSITIONS_2, MatrixPair, ResidualReport,
                           entry_stacks, finite_numbers, trace_integrals)
from .dda_registry import _REGISTRY, TensorGrid, _frobenius, lookup
from .errors import InvalidInputError, SingularGaugeError, SingularOrbitError
from .integrators import MAX_STEPS, OVERFLOW_GUARD, STATUS_COMPLETED, STATUS_TRUNCATED

MAP_DDAS = tuple(dda for dda, spec in _REGISTRY.items() if spec.discrete)
ENTRY_NAMES = tuple(ENTRY_POSITIONS_2)   # B, C, E, G, M, N: one orbit row
FLAG_NAMES = ("det_C1_degenerate", "E_minus_G_degenerate", "det_C2_degenerate")


def _matrices(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, 2, 2) stacks of C1 and C2, one pair per row of entries."""
    return entry_stacks(2, dict(zip(ENTRY_NAMES, entries.T)))


def degeneracy_flags(entries: np.ndarray) -> np.ndarray:
    """One row of FLAG_NAMES booleans per row of entries: |BG - CE|, |E - G|
    and |det C2| below tolerance."""
    B, C, E, G = entries[:, :4].T
    with np.errstate(all="ignore"):   # comparisons: an inf or NaN on the way sets no flag
        return np.column_stack([np.abs(B * G - C * E) < DEGENERACY_TOL,
                                np.abs(E - G) < DEGENERACY_TOL,
                                np.abs(np.linalg.det(_matrices(entries)[1])) < DEGENERACY_TOL])


def flag_labels(row) -> tuple[str, ...]:
    """The names of the flags set in one row of ``degeneracy_flags``."""
    return tuple(name for name, on in zip(FLAG_NAMES, row) if on)


@dataclass(frozen=True)
class MapState:
    """One point of a discrete orbit: the entries (B, C, E, G, M, N) at site n."""

    n: int
    values: tuple[float, ...]
    prev_C1: np.ndarray | None = None   # L5 only: C1 one site back
    flags: tuple[str, ...] = ()

    @cached_property
    def pair(self) -> MatrixPair:
        """The multiplication matrices, built and validated on first use."""
        return MatrixPair.from_entries(2, self.entries())

    def entries(self) -> dict[str, float]:
        return dict(zip(ENTRY_NAMES, self.values))


def _values(what: str, entries: dict[str, float]) -> tuple[float, ...]:
    """One orbit row from named entries (missing ones are 0), judged by ``finite_numbers``."""
    entries = finite_numbers(what, entries, ENTRY_NAMES)
    return tuple(entries.get(k, 0.0) for k in ENTRY_NAMES)


def _state(n: int, values: tuple[float, ...], prev_C1: np.ndarray | None) -> MapState:
    return MapState(n, values, prev_C1, flag_labels(degeneracy_flags(np.array([values]))[0]))


def check_map(dda: str, state: MapState | None = None) -> None:
    """Raise InvalidInputError unless dda has a discrete map (and an L5 state its previous C1)."""
    if not lookup(dda).discrete:
        raise InvalidInputError(f"dda {dda!r} is not a discrete map (use one of {MAP_DDAS})")
    if dda == "L5" and state is not None and state.prev_C1 is None:
        raise InvalidInputError("L5 state lacks the previous C1 (use init_map_state)")


def init_map_state(dda: str, entries: dict[str, float],
                   prev_entries: dict[str, float] | None = None) -> MapState:
    """Build the step-0 state of an orbit from named 2x2 entries.

    For L5 the map is second order in the lattice variable; ``prev_entries``
    supplies C1 one site back and defaults to the initial C1.  The first-order
    L2b and L4 maps take no ``prev_entries``.
    """
    check_map(dda)
    if dda != "L5" and prev_entries is not None:
        raise InvalidInputError(f"{dda} is a first-order map: prev entries apply to L5 only")
    values = _values(f"{dda} initial", entries)
    prev_C1 = None
    if dda == "L5":
        prev = values if prev_entries is None else _values(f"{dda} prev", prev_entries)
        prev_C1 = entry_stacks(2, dict(zip(ENTRY_NAMES, prev)))[0]
    return _state(0, values, prev_C1)


class _Inexact(ArithmeticError):
    """A solve step left the range where float arithmetic gives LAPACK's bits exactly."""


_SPLIT, _TINY, _HUGE = 134217729.0, 2.0 ** -900, 2.0 ** 990   # 2^27 + 1; the exact range


def _fma(a: float, b: float, c: float) -> float:
    """a*b + c rounded once, as the BLAS kernel's fused multiply-add: p + e = a*b exactly
    by Dekker's TwoProduct with Veltkamp's split, and ``fsum`` rounds p + e + c correctly.
    _Inexact unless _TINY < |a*b| < _HUGE, and on a NaN; OverflowError from ``fsum`` on
    an intermediate overflow."""
    p = a * b
    if not _TINY < abs(p) < _HUGE:
        raise _Inexact
    t, s = _SPLIT * a, _SPLIT * b
    a1, b1 = t - (t - a), s - (s - b)
    a2, b2 = a - a1, b - b1
    r = fsum((p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2, c))
    if r != r:
        raise _Inexact
    return r


def _lu_solve(lu: tuple, r1: float, r2: float, matrix: bool = False) -> tuple[float, float]:
    """C1^-1 (r1, r2) by the LU (swap, a, b, l, u): dgetrs divides a vector by the pivots
    and scales each column of a matrix right-hand side by their inverses."""
    swap, a, b, l, u = lu
    if swap:
        r1, r2 = r2, r1
    if matrix:
        x2 = _fma(-l, r1, r2) * (1.0 / u)
        return _fma(-b, x2, r1) * (1.0 / a), x2
    x2 = _fma(-l, r1, r2) / u
    return _fma(-b, x2, r1) / a, x2


def _solve_step(dda: str, values: tuple[float, ...], prev_C1):
    """The L4 or L5 step as LAPACK and the BLAS kernel compute it, in floats.  C1's LU
    swaps the rows when |C| > |B|, then l = c (1/a), u = e - l b unfused; a pivot below
    DBL_MIN (LAPACK divides there), zero or from _HUGE up raises _Inexact.  Matmul fuses
    as BLAS: C2 @ v is (fma(E, v1, M v2), fma(G, v1, N v2)), and (C2 @ P)[i, j] is
    fma(C2[i, 1], P[1, j], C2[i, 0] P[0, j])."""
    B, C, E, G, M, N = values
    swap = abs(C) > abs(B)
    a, b, c, e = (C, G, B, E) if swap else (B, E, C, G)
    if not float_info.min <= abs(a) < _HUGE:
        raise _Inexact
    l = c * (1.0 / a)
    u = e - l * b
    if not float_info.min <= abs(u) < _HUGE:
        raise _Inexact
    lu = swap, a, b, l, u
    if dda == "L4":
        TE, TG = _lu_solve(lu, _fma(E, B, M * C), _fma(G, B, N * C))
        return (B, C, TE, TG, *_lu_solve(lu, _fma(E, TE, M * TG), _fma(G, TE, N * TG))), None
    (p, q), (r, s) = prev_C1
    e, g = _lu_solve(lu, _fma(M, r, E * p), _fma(N, r, G * p), True)
    m, n = _lu_solve(lu, _fma(M, s, E * q), _fma(N, s, G * q), True)
    return (B, C, e, g, m, n), ((B, E), (C, G))


def _advance(dda: str, values: tuple[float, ...], prev_C1):
    """The step kernel: the entries one site on and, for L5, the C1 they leave behind
    (``prev_C1`` and it are nested pairs of floats).  Raises SingularOrbitError when the
    step's denominator is below tolerance or LAPACK's LU finds C1 singular."""
    B, C, E, G, M, N = values
    if dda == "L4" and B == 1.0 and C == 1.0:
        den = E - G
        if abs(den) < DEGENERACY_TOL:
            raise SingularOrbitError(f"E - G = {den:.3e} below tolerance",
                                     quantity="E-G", value=den)
        r = (M - N) / den
        return (B, C, M - E * r, 1.0 + r,
                N + (N - G) * r - G * r * r, M + (1.0 - E) * r + r * r), None
    den = B * G - C * E
    if abs(den) < DEGENERACY_TOL:
        raise SingularOrbitError(f"BG - CE = {den:.3e} below tolerance",
                                 quantity="BG-CE", value=den)
    if dda == "L2b":
        p = (G * M - E * N) / den
        q = (B * N - C * M) / den
        return (B, C, C * p, B + C * q, G * p, E + G * q), None
    try:
        return _solve_step(dda, values, prev_C1)
    except (_Inexact, OverflowError):   # outside the exact range: through np.linalg.solve
        C1, C2 = np.array([[B, E], [C, G]]), np.array([[E, M], [G, N]])
    try:
        with np.errstate(all="ignore"):   # an overflow shows as inf in the entries
            if dda == "L4":
                t = np.linalg.solve(C1, C2 @ np.array([B, C]))
                return (B, C, *t.tolist(), *np.linalg.solve(C1, C2 @ t).tolist()), None
            (e, m), (g, n) = np.linalg.solve(C1, C2 @ np.array(prev_C1)).tolist()
    except np.linalg.LinAlgError:
        raise SingularOrbitError(f"C1 is singular to working precision (BG - CE = {den:.3e})",
                                 quantity="BG-CE", value=den) from None
    return (B, C, e, g, m, n), ((B, E), (C, G))


def step(dda: str, state: MapState) -> MapState:
    """Advance the orbit one lattice site."""
    check_map(dda, state)
    prev = None if state.prev_C1 is None else state.prev_C1.tolist()
    values, prev_C1 = _advance(dda, state.values, prev)
    return _state(state.n + 1, values, None if prev_C1 is None else np.array(prev_C1))


def _invariants(dda: str, entries: np.ndarray, prev_C1: np.ndarray | None):
    """The exact trace invariants of every row that has them, and those rows.

    L4 leaves out the rows whose C1 has no inverse: |BG - CE| below tolerance,
    as the det_C1_degenerate flag and the step read it, or a C1 that LAPACK
    finds singular.  L5 values are those of V = C1[n-1] . C2[n], with
    ``prev_C1`` before row 0.
    """
    C1, C2 = _matrices(entries)
    rows = np.arange(len(entries))
    with np.errstate(all="ignore"):   # an overflow shows as inf in the values
        if dda == "L2b":
            return {**trace_integrals(C2), "det_C2": np.linalg.det(C2)}, rows
        if dda == "L4":
            B, C, E, G = entries[:, :4].T
            rows = rows[np.abs(B * G - C * E) >= DEGENERACY_TOL]
            try:
                inverse = np.linalg.inv(C1[rows])
            except np.linalg.LinAlgError:   # some C1 is singular to LAPACK: find them one by one
                rows = rows[[_inverts(C1[i]) for i in rows]]
                inverse = np.linalg.inv(C1[rows])
            return (trace_integrals(C2[rows] @ inverse) if rows.size else {}), rows
        return trace_integrals(np.concatenate([prev_C1[None], C1[:-1]]) @ C2), rows


def _inverts(C1: np.ndarray) -> bool:
    """Whether LAPACK inverts C1."""
    try:
        np.linalg.inv(C1)
    except np.linalg.LinAlgError:
        return False
    return True


def map_invariants(dda: str, state: MapState) -> dict[str, float]:
    """Exact trace invariants at one state (L5 values attach to the transition)."""
    check_map(dda, state)
    invariants, rows = _invariants(dda, np.array([state.values]), state.prev_C1)
    if not rows.size:
        B, C, E, G = state.values[:4]
        den = B * G - C * E
        raise SingularOrbitError(f"C1 has no inverse (BG - CE = {den:.3e}): invariants need C1^-1",
                                 quantity="BG-CE", value=den)
    return {name: float(v[0]) for name, v in invariants.items()}


@dataclass(frozen=True)
class Orbit:
    """A discrete orbit held as arrays; row i is lattice site n0 + i.

    ``entries`` holds (B, C, E, G, M, N) per row and ``flags`` the FLAG_NAMES
    booleans per row.  ``invariants`` maps each trace invariant to its values
    at the rows ``invariant_rows`` (every row, except that L4 leaves out rows
    whose C1 has no inverse).  For L5, ``prev_C1`` is C1 one site before
    row 0.  ``states`` views the rows as MapStates.
    """

    dda: str
    n0: int
    entries: np.ndarray
    flags: np.ndarray
    invariants: dict[str, np.ndarray]
    invariant_rows: np.ndarray
    prev_C1: np.ndarray | None = None
    status: str = STATUS_COMPLETED
    diagnostic: str | None = None

    @cached_property
    def states(self) -> tuple[MapState, ...]:
        """The rows as MapStates, built on first use; a state builds its
        MatrixPair only when its ``pair`` is read."""
        prev = [None] * len(self.entries)
        if self.dda == "L5":
            prev = [self.prev_C1, *_matrices(self.entries)[0][:-1]]
        return tuple(MapState(self.n0 + i, tuple(row), p, flag_labels(f)) for i, (row, p, f)
                     in enumerate(zip(self.entries.tolist(), prev, self.flags.tolist())))


def check_steps(steps) -> int:
    """``steps`` if it is an integer from 0 to MAX_STEPS; InvalidInputError otherwise."""
    if not isinstance(steps, int) or isinstance(steps, bool) or not 0 <= steps <= MAX_STEPS:
        raise InvalidInputError(f"steps must be an integer from 0 to {MAX_STEPS}, got {steps!r}")
    return steps


def orbit(dda: str, state0: MapState, steps: int) -> Orbit:
    """Iterate the map for at most MAX_STEPS steps; a singular denominator, a
    non-finite entry or overflow truncates the orbit."""
    check_map(dda, state0)
    check_steps(steps)
    values, guard = state0.values, OVERFLOW_GUARD
    prev_C1 = None if state0.prev_C1 is None else state0.prev_C1.tolist()
    rows = [values]
    status, diagnostic = STATUS_COMPLETED, None
    for n in range(state0.n, state0.n + steps):
        try:
            values, prev_C1 = _advance(dda, values, prev_C1)
        except SingularOrbitError as exc:
            status, diagnostic = STATUS_TRUNCATED, f"singular step at n={n}: {exc}"
            break
        _, _, E, G, M, N = values
        if not (abs(E) <= guard and abs(G) <= guard and abs(M) <= guard and abs(N) <= guard):
            status = STATUS_TRUNCATED
            diagnostic = f"state exceeded overflow guard at n={n + 1}"
            break
        rows.append(values)
    entries = np.array(rows)
    flags = degeneracy_flags(entries)
    invariants, invariant_rows = _invariants(dda, entries, state0.prev_C1)
    entries.setflags(write=False)
    flags.setflags(write=False)
    return Orbit(dda, state0.n, entries, flags, invariants, invariant_rows,
                 state0.prev_C1, status, diagnostic)


# ---------------------------------------------------------------------------
# Discrete oriented associativity for gauge solutions.
# ---------------------------------------------------------------------------

GAUGE_SHIFTS = (0, 1, -1)   # T_0 = 1, T_1 = T, T_2 = T^-1


def _first(bad, x):
    """The first point of x (one point, or an array of points) where bad holds, or None."""
    if not isinstance(x, np.ndarray):
        return x if bad else None
    hits = np.flatnonzero(bad)
    return x.flat[hits[0]] if hits.size else None


def gauge_pairs(potentials, x):
    """g, T_1 g, T_2 g and C_k = g^-1 T_k g at a point x, or stacked over an array of points.

    ``potentials`` maps an array of points to the (3, points...) array of Phi^m
    values.  Row m, column k of g holds Phi^m(x + s_k) for the shifts s_k in
    GAUGE_SHIFTS, and T_j g is g at x + s_j; stacks are indexed [point..., m, k].
    Raises SingularGaugeError at the first point where |det g| is below tolerance,
    naming that point as x gives it; the shifted potentials are read after that check.
    """
    xf = np.asarray(x, dtype=float)

    def at(s):   # g at x + s: potentials give [m, point..., k]
        return np.moveaxis(potentials((xf + s)[..., None] + np.array(GAUGE_SHIFTS)), 0, -2)

    g = at(0)
    first = _first(np.abs(np.linalg.det(g)) < DEGENERACY_TOL, x)
    if first is not None:
        raise SingularGaugeError(f"gauge matrix is singular at x = {first}")
    t1, t2 = at(GAUGE_SHIFTS[1]), at(GAUGE_SHIFTS[2])
    return g, t1, t2, np.linalg.solve(g, t1), np.linalg.solve(g, t2)


def _gauge_samples(phi, xs) -> tuple[np.ndarray, np.ndarray]:
    """phi as floats and xs as integers, once phi[m, i] = Phi^m(xs[i]) is checked to
    sample three potentials on consecutive integers."""
    phi, xs = np.asarray(phi, dtype=float), np.asarray(xs, dtype=float)
    if not np.array_equal(xs, np.round(xs.ravel()[:1]) + np.arange(xs.size)):
        raise InvalidInputError("xs must be consecutive integers, as np.arange(a, b) gives")
    if phi.shape != (3, xs.size):
        raise InvalidInputError("need three potentials sampled on the whole interval")
    return phi, xs.astype(int)


def _gauge_defects(phi: np.ndarray, xs: np.ndarray, x) -> np.ndarray:
    """C1 C2 - C2 C1 at x (a point or an array of points), with Phi^m(p) = phi[m, p - xs[0]].

    Each side of the oriented associativity identity is the matrix
    S_jk = (T_j g) g^-1 (T_k g) = g (C_j C_k); the defect S_12 - S_21 is
    normalised by g^-1 so that a nonzero residual is exactly the
    associativity defect of the gauge structure constants.
    """
    start = xs[0] if xs.size else 0

    def potentials(points: np.ndarray) -> np.ndarray:
        i = points.astype(int) - start
        outside = (i < 0) | (i >= xs.size)
        if outside.any():
            missing = i.flat[np.argmax(outside)] + start
            raise InvalidInputError(f"potential samples do not cover x = {missing}")
        return phi[:, i]

    g, t1, t2, C1, C2 = gauge_pairs(potentials, x)
    return np.linalg.solve(g, t1 @ C2) - np.linalg.solve(g, t2 @ C1)


def oriented_assoc_defect(phi, xs, x: int) -> np.ndarray:
    """The commutator C1 C2 - C2 C1 at the integer x, via the gauge sums: one point
    of the stack that ``discrete_oriented_assoc_residual`` evaluates."""
    if not float(x).is_integer():
        raise InvalidInputError(f"x must be an integer, got {x}")
    return _gauge_defects(*_gauge_samples(phi, xs), x)


def discrete_oriented_assoc_residual(phi, xs) -> ResidualReport:
    """Oriented-associativity residual of a gauge field, per interior point.

    ``phi`` holds the three potentials sampled on ``xs``, consecutive integers
    (shape (3, len(xs))); the points with x-2 .. x+2 available are evaluated as
    one stack.  The reported norm per point is the Frobenius norm of C1 C2 - C2 C1
    reconstructed through the gauge sums (zero iff iso-associative there).
    """
    phi, xs = _gauge_samples(phi, xs)
    interior = xs[2:-2]
    if not interior.size:
        raise InvalidInputError("interval too short: no point has both double shifts")
    defects = _gauge_defects(phi, xs, interior)
    return ResidualReport(labels=tuple(f"x={x}" for x in interior.tolist()),
                          norms=_frobenius(defects))


def lattice_field_from_l5_orbit(run: Orbit, shape: tuple[int, int]):
    """Reinterpret an L5 orbit as a 2-lattice field with T1 = T, T2 = T^-1.

    The orbit value at lattice point (x1, x2) is the state at x = x1 - x2,
    realising the constraint T1 T2 C = C.  Returns a TensorGrid whose
    discrete central-system residual vanishes on exact orbits.
    """
    n1, n2 = shape
    need = n1 + n2 - 1
    if len(run.entries) < need:
        raise InvalidInputError(f"orbit too short: need {need} states for shape {shape}")
    # x = x1 - x2 ranges over [-(n2-1), n1-1]; shift so the earliest state is index 0.
    site = np.arange(n1)[:, None] + np.arange(n2 - 1, -1, -1)
    c = np.stack([mats[site].swapaxes(-1, -2) for mats in _matrices(run.entries)], axis=2)
    return TensorGrid(c=c, spacing=1.0)

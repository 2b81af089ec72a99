"""Discrete central-system maps (L2b, L4, L5) and the gauge associativity check.

The three discrete DDAs turn the central system into mappings of the 2x2
structure constants (B, C held fixed along an orbit):

* L2b: C1 TC2 = C2 C1, resolved explicitly when det C1 = BG - CE != 0;
* L4:  C1 TC2 = C2 TC1, a four-dimensional mapping for each constant B, C;
* L5:  C1 TC2 = C2 T^-1 C1, a second-order recursion: the state carries the
  previous C1, and the transition matrix V = T^-1C1 . C2 is conjugated by
  C2 at each step.

One scalar kernel advances the entries (B, C, E, G, M, N) as floats: C1's second column is
C2's first, so C1^-1 C2 is a companion matrix K, and each map applies K to columns, with no
BLAS or LAPACK call.  ``orbit`` iterates it until its state (the row and L5's carried C1, as
doubles) repeats bit for bit, found by a period-1 test and Brent's method, and keeps the orbit
as arrays: flags and L2b's det C2 (read off the entries) and exact trace invariants (of C2, of
K, of V) of the rows up to the end of the first cycle, tiled over the rest.  It also gives the
discrete oriented associativity defect of gauge fields from three sampled potentials, the
commutator of their C1 and C2, at each point with two samples a side, and its residual.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra_core import (DEGENERACY_TOL, ENTRY_POSITIONS_2, MatrixPair, ResidualReport, _pow,
                           entry_stacks, finite_numbers, float_array, frobenius, is_index,
                           is_real_number, one_of, trace_integrals, whole_number)
from .dda_registry import _REGISTRY, TensorGrid
from .errors import InvalidInputError, SingularGaugeError, SingularOrbitError
from .integrators import MAX_STEPS, OVERFLOW_GUARD, STATUS_COMPLETED, STATUS_TRUNCATED

MAP_DDAS = {dda: spec for dda, spec in _REGISTRY.items() if spec.discrete}   # L2b, L4, L5
ENTRY_NAMES = tuple(ENTRY_POSITIONS_2)   # B, C, E, G, M, N: one orbit row
FLAG_NAMES = ("det_C1_degenerate", "E_minus_G_degenerate", "det_C2_degenerate")


def _matrices(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, 2, 2) stacks of C1 and C2, one pair per row of entries."""
    return entry_stacks(2, dict(zip(ENTRY_NAMES, entries.T)))


def _product_error(a, b, ab):
    """a b - ab exactly, where ab is a b rounded: Dekker's product of Veltkamp's halves."""
    ah, bh = (w * 134217729.0 - (w * 134217729.0 - w) for w in (a, b))
    return (((ah * bh - ab) + ah * (b - bh)) + (a - ah) * bh) + (a - ah) * (b - bh)


@np.errstate(all="ignore")   # an inf or NaN on the way sets no flag
def _flagged(B, C, E, G, M, N):
    """BG - CE, E - G and EN - GM (det C2, L2b's invariant: exact products and a two-sum round
    it to nearest, but in rare near-ties) of a row of floats or of entry columns, as flagged."""
    p, q = E * N, G * M
    s, z = p - q, (p - q) - p
    r = s + ((p - (s - z)) - (q + z) + (_product_error(E, N, p) - _product_error(G, M, q)))
    return B * G - C * E, E - G, np.where(np.isfinite(r), r, s)   # else the plain difference


def degeneracy_flags(entries: np.ndarray) -> np.ndarray:
    """One row of FLAG_NAMES booleans per row of entries: |``_flagged``| below tolerance."""
    return (np.abs(np.array(_flagged(*entries.T))) < DEGENERACY_TOL).T


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
    return MapState(n, values, prev_C1,
                    flag_labels([abs(x) < DEGENERACY_TOL for x in _flagged(*values)]))


def check_map(dda: str, *states: MapState) -> None:
    """Raise InvalidInputError unless dda has a discrete map and each of ``states`` is a
    MapState whose values are six ``is_real_number`` entries in a tuple, list or 1-D array
    (inf and NaN, which ``step`` may return, included) and whose previous C1, which L5
    needs, is a 2x2 array of integers or floats."""
    one_of("map dda", MAP_DDAS, dda)
    for state in states:
        if not isinstance(state, MapState):
            raise InvalidInputError(f"{dda} state must be a MapState, got {state!r}")
        values, prev_C1 = state.values, state.prev_C1
        items = values.tolist() if isinstance(values, np.ndarray) else values
        if not (isinstance(items, (tuple, list)) and len(items) == 6
                and all(map(is_real_number, items))):
            raise InvalidInputError(f"{dda} state values must be six numbers, got {values!r}")
        if dda == "L5" and prev_C1 is None:
            raise InvalidInputError("L5 state lacks the previous C1 (use init_map_state)")
        if prev_C1 is not None and not (isinstance(prev_C1, np.ndarray)
                                        and prev_C1.shape == (2, 2)
                                        and prev_C1.dtype.kind in "iuf"):
            raise InvalidInputError(
                f"{dda} state prev_C1 must be a 2x2 array of numbers, got {prev_C1!r}")


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


def _companion(dda: str, values: tuple[float, ...]) -> tuple[float, float]:
    """(p, q) = C1^-1 (M, N), so that C1^-1 C2 is the companion matrix K = [[0, p], [1, q]]:
    C1's second column (E, G) is C2's first.  One row-pivoted elimination in floats: swap the
    rows when |C| > |B|, then l = c (1/a) and u = e - l b.  SingularOrbitError when
    |BG - CE| is below tolerance (named E - G for L4 at B = C = 1, where it is exactly G - E),
    or when u == 0 (C1 singular to working precision)."""
    B, C, E, G, M, N = values
    den = B * G - C * E
    if abs(den) < DEGENERACY_TOL:
        if dda == "L4" and B == 1.0 and C == 1.0:
            raise SingularOrbitError(f"E - G = {E - G:.3e} below tolerance")
        raise SingularOrbitError(f"BG - CE = {den:.3e} below tolerance")
    a, b, c, e, r1, r2 = (C, G, B, E, N, M) if abs(C) > abs(B) else (B, E, C, G, M, N)
    u = 0.0   # a == 0 passes the tolerance test only when C1 holds an inf or NaN
    if a:
        l = c * (1.0 / a)
        u = e - l * b
    if u == 0.0:
        raise SingularOrbitError(f"C1 is singular to working precision (BG - CE = {den:.3e})")
    q = (r2 - l * r1) / u
    return (r1 - b * q) / a, q


def _advance(dda: str, values: tuple[float, ...], prev_C1):
    """The step kernel: the entries one site on, for L5 the C1 they leave behind (nested
    pairs of floats, as ``prev_C1``), and the (p, q) of the row it left.  C1 TC2 = C2 X is
    TC2 = K X, with X = C1 (L2b), TC1 (L4) or T^-1C1 (L5) and K (x, y) = (p y, x + q y).
    SingularOrbitError from ``_companion``."""
    B, C, E, G, M, N = values
    p, q = pq = _companion(dda, values)
    if dda == "L2b":
        return (B, C, p * C, B + q * C, p * G, E + q * G), None, pq
    if dda == "L4":   # TC1's second column is TC2's first
        e, g = p * C, B + q * C
        return (B, C, e, g, p * g, e + q * g), None, pq
    (b, e), (c, g) = prev_C1
    return (B, C, p * c, b + q * c, p * g, e + q * g), ((B, E), (C, G)), pq


def step(dda: str, state: MapState) -> MapState:
    """Advance the orbit one lattice site.  No overflow guard: the entries may be inf or
    NaN, unflagged, where ``orbit`` would truncate."""
    check_map(dda, state)
    prev = None if state.prev_C1 is None else state.prev_C1.tolist()
    values, prev_C1, _ = _advance(dda, state.values, prev)
    return _state(state.n + 1, values, None if prev_C1 is None else np.array(prev_C1))


def _invariants(dda: str, entries: np.ndarray, prev_C1: np.ndarray | None, pq: list):
    """The rows' flags, the exact trace invariants of every row that has them, and those rows.

    L4's are those of C2 C1^-1 = C1 K C1^-1, so of K: I1 = q, I2 = q^2/2 + p and
    I3 = q^3/3 + pq, from the (p, q) that ``_companion`` found for the first len(pq)
    rows.  L5 values are those of V = C1[n-1] . C2[n], with ``prev_C1`` before row 0.
    """
    rows = np.arange(len(pq) if dda == "L4" else len(entries))
    with np.errstate(all="ignore"):   # an overflow shows as inf in the values
        flagged = _flagged(*entries.T)
        flags = (np.abs(np.array(flagged)) < DEGENERACY_TOL).T
        if dda == "L4":
            p, q = np.fromiter(chain.from_iterable(pq), float, 2 * len(pq)).reshape(-1, 2).T
            invariants = {"I1": q, "I2": (q * q + 2.0 * p) / 2.0, "I3": _pow(q, 3) / 3.0 + p * q}
            return flags, (invariants if pq else {}), rows
        C1, C2 = _matrices(entries)
        if dda == "L2b":
            return flags, {**trace_integrals(C2), "det_C2": flagged[2]}, rows
        return flags, trace_integrals(np.concatenate([prev_C1[None], C1[:-1]]) @ C2), rows


def map_invariants(dda: str, state: MapState) -> dict[str, float]:
    """Exact trace invariants at one state, the row of ``orbit(dda, state, 0)`` (L5 values
    attach to the transition)."""
    run = orbit(dda, state, 0)
    if not run.invariant_rows.size:
        B, C, E, G = state.values[:4]
        den = B * G - C * E
        raise SingularOrbitError(f"C1 has no inverse (BG - CE = {den:.3e}): invariants need C1^-1")
    return {name: float(v[0]) for name, v in run.invariants.items()}


@dataclass(frozen=True)
class Orbit:
    """A discrete orbit held as arrays; row i is lattice site n0 + i.

    ``entries`` holds (B, C, E, G, M, N) per row and ``flags`` the FLAG_NAMES
    booleans per row.  ``invariants`` maps each trace invariant to its values
    at the rows ``invariant_rows``: every row, except that L4 leaves out a last
    row whose K ``_companion`` cannot find (|BG - CE| below tolerance, or a zero
    second pivot); every earlier row stepped through its K.  For L5, ``prev_C1``
    is C1 one site before row 0.  ``cycle`` is (first row, period) of the cycle found, or
    None, ``steps_computed`` the steps taken, and ``states`` views the rows as MapStates.
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
    cycle: tuple[int, int] | None = None
    steps_computed: int = 0

    @cached_property
    def states(self) -> tuple[MapState, ...]:
        """The rows as MapStates, built on first use; a state builds its
        MatrixPair only when its ``pair`` is read."""
        prev = [None] * len(self.entries)
        if self.dda == "L5":
            prev = [self.prev_C1, *_matrices(self.entries)[0][:-1]]
        return tuple(MapState(self.n0 + i, tuple(row), p, flag_labels(f)) for i, (row, p, f)
                     in enumerate(zip(self.entries.tolist(), prev, self.flags.tolist())))


def orbit(dda: str, state0: MapState, steps: int) -> Orbit:
    """Iterate the map for at most MAX_STEPS steps; a singular denominator, a
    non-finite entry or overflow truncates the orbit.  Each row's (p, q) is found once,
    by the step that leaves it or, for L4's last row, by one more ``_companion`` call.

    ``_advance`` is a pure function of the row and, for L5, the C1 it carries, read as doubles:
    once a row ``==`` the row before or the one Brent's method saved (at each power of two) and
    the ``repr`` of the two states, which tells -0.0 from 0.0, is the same, every later step
    repeats the cycle between them.  Flags, (p, q) and invariants are then found for the rows
    up to the end of the first cycle, and one index tiles the rest."""
    check_map(dda, state0)
    whole_number("steps", steps, 0, MAX_STEPS)
    values, guard = tuple(map(float, state0.values)), OVERFLOW_GUARD   # a tuple of doubles
    prev_C1 = None if dda != "L5" else tuple(map(tuple, state0.prev_C1.astype(float).tolist()))
    rows, pq, period, status, diagnostic = [values], [], 0, STATUS_COMPLETED, None
    saved, saved_C1, s, save_at = values, prev_C1, state0.n, state0.n + 1   # Brent's, at site s
    for n in range(state0.n + 1, state0.n + steps + 1):   # the site of the row to be found
        try:
            row, C1, k = _advance(dda, values, prev_C1)
        except SingularOrbitError as exc:
            status, diagnostic = STATUS_TRUNCATED, f"singular step at n={n - 1}: {exc}"
            break
        pq.append(k)
        _, _, E, G, M, N = row
        if not (abs(E) <= guard and abs(G) <= guard and abs(M) <= guard and abs(N) <= guard):
            status, diagnostic = STATUS_TRUNCATED, f"state exceeded overflow guard at n={n}"
            break
        rows.append(row)
        # row == values too: an L2b start fixed from row 117 takes Brent's alone 129 steps, not 118
        if row == values or row == saved:
            lam, ref = (1, (values, prev_C1)) if row == values else (n - s, (saved, saved_C1))
            if repr((row, C1)) == repr(ref):   # the same bits: repr tells -0.0 from 0.0
                period = lam
                break
        if n == save_at:   # at site state0.n + 2^k
            saved, saved_C1, s, save_at = row, C1, n, 2 * n - state0.n
        values, prev_C1 = row, C1
    computed = len(pq)
    entries = np.fromiter(chain.from_iterable(rows), float, 6 * len(rows)).reshape(-1, 6)
    if period:   # the first row whose state the row `period` on repeats, bit for bit
        bits = entries.view(np.int64) if dda != "L5" else np.hstack([entries, np.vstack(
            [state0.prev_C1.reshape(1, 4), entries[:-1, [0, 2, 1, 3]]])]).view(np.int64)
        first = int(np.argmin((bits[period:] != bits[:-period]).any(axis=1)))
        entries, pq = entries[:first + period], pq[:first + period]
    elif dda == "L4" and status == STATUS_COMPLETED:   # no step left the last row
        with suppress(SingularOrbitError):
            pq.append(_companion(dda, values))
    flags, invariants, invariant_rows = _invariants(dda, entries, state0.prev_C1, pq)
    if period:
        index = np.concatenate([np.arange(first), first + np.arange(steps + 1 - first) % period])
        entries, flags, invariant_rows = entries[index], flags[index], np.arange(steps + 1)
        invariants = {name: v[index] for name, v in invariants.items()}
    entries.setflags(write=False)
    flags.setflags(write=False)
    return Orbit(dda, state0.n, entries, flags, invariants, invariant_rows, state0.prev_C1,
                 status, diagnostic, (first, period) if period else None, computed)


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
    """C_k = g^-1 T_k g (k = 1, 2) at a point x, or stacked over an array of points.

    ``potentials`` maps an array of points to the (3, points...) array of Phi^m values.  Row
    m, column k of g holds Phi^m(x + s_k) for the shifts s_k in GAUGE_SHIFTS, T_j g is g at
    x + s_j, one solve of g against [T_1 g | T_2 g] gives both C's, indexed [point..., m, k].
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
    C = np.linalg.solve(g, np.concatenate([at(GAUGE_SHIFTS[1]), at(GAUGE_SHIFTS[2])], axis=-1))
    return C[..., :3], C[..., 3:]


def _gauge_samples(phi, xs) -> tuple[np.ndarray, np.ndarray]:
    """phi as floats and xs as integers, once phi[m, i] = Phi^m(xs[i]) is checked to
    sample three potentials on consecutive integers."""
    phi, xs = float_array("phi", phi), float_array("xs", xs)
    if not np.array_equal(xs, np.round(xs.ravel()[:1]) + np.arange(xs.size)):
        raise InvalidInputError("xs must be consecutive integers, as np.arange(a, b) gives")
    if phi.shape != (3, xs.size):
        raise InvalidInputError("need three potentials sampled on the whole interval")
    return phi, xs.astype(int)


def oriented_assoc_defect(phi, xs) -> np.ndarray:
    """C1 C2 - C2 C1 at each interior point xs[2:-2], stacked (len(xs) - 4, 3, 3), where
    ``phi`` holds the three potentials sampled on ``xs``, consecutive integers
    (shape (3, len(xs))): Phi^m(p) = phi[m, p - xs[0]].

    Each side of the oriented associativity identity is S_jk = (T_j g) g^-1 (T_k g) =
    g C_j C_k, so the defect g^-1 (S_12 - S_21) is the commutator of ``gauge_pairs``' C's.
    """
    phi, xs = _gauge_samples(phi, xs)
    interior = xs[2:-2]
    if not interior.size:
        raise InvalidInputError("interval too short: no point has both double shifts")
    C1, C2 = gauge_pairs(lambda points: phi[:, points.astype(int) - xs[0]], interior)
    return C1 @ C2 - C2 @ C1


def discrete_oriented_assoc_residual(phi, xs) -> ResidualReport:
    """Oriented-associativity residual of a gauge field, per interior point: the
    Frobenius norm of each matrix of ``oriented_assoc_defect``, labelled x=<p>
    (zero iff iso-associative there)."""
    defects = oriented_assoc_defect(phi, xs)
    first = int(np.ravel(xs)[0]) + 2   # xs holds consecutive integers, as the view checked
    return ResidualReport(labels=tuple(f"x={x}" for x in range(first, first + len(defects))),
                          norms=frobenius(defects).tolist())


def lattice_field_from_l5_orbit(run: Orbit, shape: tuple[int, int]):
    """Reinterpret an L5 orbit as a 2-lattice field with T1 = T, T2 = T^-1.

    The orbit value at lattice point (x1, x2) is the state at x = x1 - x2,
    realising the constraint T1 T2 C = C.  Returns a TensorGrid whose
    discrete central-system residual vanishes on exact orbits.
    """
    if run.dda != "L5":
        raise InvalidInputError(f"a lattice field needs an L5 orbit, got dda {run.dda!r}")
    if not (isinstance(shape, (tuple, list)) and len(shape) == 2
            and all(is_index(s) and s >= 1 for s in shape)):
        raise InvalidInputError(f"lattice shape must be two positive ints, got {shape!r}")
    n1, n2 = shape
    need = n1 + n2 - 1
    if len(run.entries) < need:
        raise InvalidInputError(f"orbit too short: need {need} states for shape {shape}")
    # x = x1 - x2 ranges over [-(n2-1), n1-1]; shift so the earliest state is index 0.
    site = np.arange(n1)[:, None] + np.arange(n2 - 1, -1, -1)
    c = np.stack([mats[site].swapaxes(-1, -2) for mats in _matrices(run.entries)], axis=2)
    return TensorGrid(c=c, spacing=1.0)

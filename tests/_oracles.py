"""Independent brute-force oracles used by the test suite.

Most of this is written as plain index loops, deliberately sharing no code with the
package implementations it checks; the discrete maps are solved exactly, in integers and
Fractions.  The last sections keep the one-point-at-a-time and grid-first forms of the
stacked code paths, RK4 as a loop over tuples, which the package must match bit for bit,
and the CLI's CSV writer as ``csv.writer`` over row lists, which it must match byte for byte.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from deformcs.algebra_core import (DEGENERACY_TOL, MatrixPair, ResidualReport,
                                   tensor_from_pair)
from deformcs.closed_forms import LOG_DOMAIN_TOL
from deformcs.dda_registry import SampledField
from deformcs.discrete_flows import FLAG_NAMES
from deformcs.errors import InvalidInputError, SingularFlowError, SingularGaugeError
from deformcs.integrators import (OVERFLOW_GUARD, STATUS_COMPLETED, STATUS_TRUNCATED,
                                  step_count)


def assoc_defect_loops(c: np.ndarray) -> float:
    """Max |sum_m C_jk^m C_ml^n - C_kl^m C_jm^n| over all index quadruples."""
    n = c.shape[0]
    worst = 0.0
    for j in range(n):
        for k in range(n):
            for l in range(n):
                for nn in range(n):
                    s = 0.0
                    for m in range(n):
                        s += c[j][k][m] * c[m][l][nn] - c[k][l][m] * c[j][m][nn]
                    worst = max(worst, abs(s))
    return worst


def omega_l2a_loops(pairs, xs, i: int) -> np.ndarray:
    """Component form of the L2a central system at grid point i.

    Returns Omega[k, l, j, n] with the scaling derivative x d/dx realised by
    a central difference; indices are the code indices of the pair layout.
    """
    h = xs[1] - xs[0]
    cten = [tensor_from_pair(p).c for p in pairs]
    n = cten[0].shape[0]
    scaling_index = 1 if pairs[0].unital else 0  # which code index is p1

    def delta(idx, j, k, nn):
        if idx != scaling_index:
            return 0.0
        return xs[i] * (cten[i + 1][j][k][nn] - cten[i - 1][j][k][nn]) / (2.0 * h)

    c = cten[i]
    omega = np.zeros((n,) * 4)
    for k in range(n):
        for l in range(n):
            for j in range(n):
                for nn in range(n):
                    quad = sum(c[j][k][m] * c[l][m][nn] - c[k][l][m] * c[j][m][nn]
                               for m in range(n))
                    omega[k, l, j, nn] = delta(l, j, k, nn) - delta(j, k, l, nn) + quad
    return omega


def omega_l3_loops(pairs, xs, i: int) -> np.ndarray:
    """Component form of the L3 central system (a_21 = 1) at grid point i."""
    h = xs[1] - xs[0]
    cten = [tensor_from_pair(p).c for p in pairs]
    n = cten[0].shape[0]
    p1, p2 = (1, 2) if pairs[0].unital else (0, 1)
    a = {(p2, p1): 1.0}

    def dc(j, k, nn):
        return (cten[i + 1][j][k][nn] - cten[i - 1][j][k][nn]) / (2.0 * h)

    c = cten[i]
    omega = np.zeros((n,) * 4)
    for j in range(n):
        for k in range(n):
            for l in range(n):
                for nn in range(n):
                    t1 = sum(a.get((l, q), 0.0)
                             * sum(c[q][m][nn] * dc(j, k, m) for m in range(n))
                             for q in range(n))
                    t2 = sum(a.get((j, q), 0.0)
                             * sum(c[q][m][nn] * dc(k, l, m) for m in range(n))
                             for q in range(n))
                    quad = sum(c[j][k][m] * c[l][m][nn] - c[k][l][m] * c[j][m][nn]
                               for m in range(n))
                    omega[j, k, l, nn] = t1 - t2 + quad
    return omega


def quantum_defect_loops(c: np.ndarray, h: float, hbar: float, pt: tuple[int, int]) -> np.ndarray:
    """Quantum central-system defect at one interior grid point of a 2-D grid."""
    n = c.shape[-1]
    off = n - 2  # leading static indices
    ii, jj = pt

    def deriv(l, j, k, nn):
        ax = l - off
        if ax < 0:
            return 0.0
        up = (ii + (ax == 0), jj + (ax == 1))
        dn = (ii - (ax == 0), jj - (ax == 1))
        return (c[up][j][k][nn] - c[dn][j][k][nn]) / (2.0 * h)

    out = np.zeros((n,) * 4)
    for k in range(n):
        for l in range(n):
            for j in range(n):
                for nn in range(n):
                    quad = sum(c[pt][j][k][m] * c[pt][m][l][nn]
                               - c[pt][k][l][m] * c[pt][j][m][nn] for m in range(n))
                    out[k, l, j, nn] = (hbar * deriv(l, j, k, nn)
                                        - hbar * deriv(j, k, l, nn) + quad)
    return out


def coisotropic_bracket_loops(c: np.ndarray, h: float, pt: tuple[int, int]) -> np.ndarray:
    """The six-term coisotropic bracket [C,C]_jklr^m at one interior point."""
    n = c.shape[-1]
    off = n - 2
    ii, jj = pt

    def d(a, j, k, nn):
        ax = a - off
        if ax < 0:
            return 0.0
        up = (ii + (ax == 0), jj + (ax == 1))
        dn = (ii - (ax == 0), jj - (ax == 1))
        return (c[up][j][k][nn] - c[dn][j][k][nn]) / (2.0 * h)

    v = c[pt]
    out = np.zeros((n,) * 5)
    for j in range(n):
        for k in range(n):
            for l in range(n):
                for r in range(n):
                    for m in range(n):
                        s = 0.0
                        for t in range(n):
                            s += (v[t][j][m] * d(k, l, r, t)
                                  + v[t][k][m] * d(j, l, r, t)
                                  - v[t][r][m] * d(l, j, k, t)
                                  - v[t][l][m] * d(r, j, k, t)
                                  + v[l][r][t] * d(t, j, k, m)
                                  - v[j][k][t] * d(t, l, r, m))
                        out[j, k, l, r, m] = s
    return out


def discrete_defect_loops(c: np.ndarray, pt: tuple[int, ...]) -> dict:
    """Matrices C_l T_lC_j - C_j T_jC_l at a lattice point, by explicit loops."""
    n = c.shape[-1]
    off = n - len(pt)

    def mat(j, shift_by=None):
        point = tuple(pt)
        if shift_by is not None:
            ax = shift_by - off
            if ax >= 0:
                point = tuple(p + (a == ax) for a, p in enumerate(pt))
        out = np.zeros((n, n))
        for k in range(n):
            for l in range(n):
                out[l, k] = c[point][j][k][l]
        return out

    res = {}
    for l in range(n):
        for j in range(l + 1, n):
            res[(j, l)] = mat(l) @ mat(j, shift_by=l) - mat(j) @ mat(l, shift_by=j)
    return res


# ---------------------------------------------------------------------------
# The L2b, L4 and L5 maps solved exactly: the one reference for their steps and invariants.
# ---------------------------------------------------------------------------

def map_exact_step(dda: str, values, prev_C1=None):
    """One L2b, L4 or L5 step solved exactly, in integers: the next (E, G, M, N) as four
    numerators over one positive denominator, or None when det C1 is exactly 0.

    Each column of TC2 solves C1 . TC2 = C2 . X by C1's adjugate over det C1, with
    X = C1 (L2b), TC1 (L4, column by column: its first column is (B, C), its second
    the first column of TC2) or ``prev_C1`` (L5, the rows [[B, E], [C, G]] one site
    back).  The ints, finite floats and Fractions in ``values`` and ``prev_C1`` are read
    as integers over the lcm of their denominators, so nothing rounds.
    """
    numbers = [*values, *([] if prev_C1 is None else [v for row in prev_C1 for v in row])]
    ratios = [v.as_integer_ratio() for v in numbers]
    scale = math.lcm(*(d for _, d in ratios))
    ints = [n * (scale // d) for n, d in ratios]
    B, C, E, G, M, N = ints[:6]
    det = B * G - C * E
    if det == 0:
        return None

    def solve(x, y):   # C1^-1 C2 (x, y), times det C1
        r, s = E * x + M * y, G * x + N * y
        return G * r - E * s, B * s - C * r

    if dda == "L4":
        e, g = solve(B, C)
        m, n = solve(e, g)
        return [e * det, g * det, m, n], det * det * scale
    sign = 1 if det > 0 else -1
    pb, pe, pc, pg = (B, E, C, G) if dda == "L2b" else ints[6:]
    e, g = solve(pb, pc)
    m, n = solve(pe, pg)
    return [sign * v for v in (e, g, m, n)], abs(det) * scale


def map_exact_invariants(dda: str, values, prev_C1=None) -> dict[str, Fraction] | None:
    """I_k = tr(X^k)/k, k = 1..3, of one orbit row as Fractions, from X's trace and determinant,
    with X = C2 (and det C2 too, for L2b), C2 C1^-1 (L4; None where det C1 is exactly 0) or
    V = T^-1C1 . C2 (L5, ``prev_C1`` as for ``map_exact_step``)."""
    B, C, E, G, M, N = map(Fraction, values)
    det1, det2 = B * G - C * E, E * N - M * G
    if dda == "L2b":
        t, d = E + N, det2
    elif dda == "L4":   # C2 C1^-1 ~ C1^-1 C2 = adj(C1) C2 / det C1
        if det1 == 0:
            return None
        t, d = (B * N - C * M) / det1, det2 / det1
    else:
        (pb, pe), (pc, pg) = ((Fraction(x), Fraction(y)) for x, y in prev_C1)
        t, d = pb * E + pe * G + pc * M + pg * N, (pb * pg - pe * pc) * det2
    invariants = {"I1": t, "I2": (t * t - 2 * d) / 2, "I3": (t * t * t - 3 * t * d) / 3}
    return {**invariants, "det_C2": det2} if dda == "L2b" else invariants


# ---------------------------------------------------------------------------
# The C1/C2 layouts written out literally.  ``algebra_core.entry_stacks`` is the
# package's one home for them; every layer that builds matrices from named
# entries must match these exactly.
# ---------------------------------------------------------------------------

def pair_3x3(A=0.0, B=0.0, C=0.0, D=0.0, E=0.0, G=0.0, L=0.0, M=0.0, N=0.0) -> MatrixPair:
    """The unital 3x3 pair (basis 1, P1, P2) from named entries."""
    C1 = [[0.0, A, D], [1.0, B, E], [0.0, C, G]]
    C2 = [[0.0, D, L], [0.0, E, M], [1.0, G, N]]
    return MatrixPair(3, C1, C2)


def pair_2x2(B=0.0, C=0.0, E=0.0, G=0.0, M=0.0, N=0.0) -> MatrixPair:
    """The 2x2 pair (basis P1, P2) from named entries."""
    return MatrixPair(2, [[B, E], [C, G]], [[E, M], [G, N]])


# Each flow's Lax matrix row by row: entry names or constants.
LAX_C2_3 = (0.0, "D", "L", 0.0, "E", "M", 1.0, "G", "N")
LAX_C2_2 = ("E", "M", "G", "N")
LAX_C1_2 = ("B", "E", "C", "G")
LAX_CELLS = {"L2a_3x3": LAX_C2_3, "L2a_2x2": LAX_C2_2, "L3_detnorm": LAX_C1_2,
             "L3_unimodular": LAX_C1_2, "L3_simple": LAX_C1_2}


def lax_matrices(system_id: str, values) -> np.ndarray:
    """The Lax matrix at each state, shape (..., n, n), cell by cell from LAX_CELLS."""
    cells = LAX_CELLS[system_id]
    n = math.isqrt(len(cells))
    shape = np.shape(next(values[c] for c in cells if isinstance(c, str)))
    stacked = [np.full(shape, c) if isinstance(c, float) else np.asarray(values[c], dtype=float)
               for c in cells]
    return np.stack(stacked, axis=-1).reshape(shape + (n, n))


def orbit_matrices(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, 2, 2) stacks C1 = [[B, E], [C, G]] and C2 = [[E, M], [G, N]] of orbit rows."""
    return entries[:, [[0, 2], [1, 3]]], entries[:, [[2, 4], [3, 5]]]


# ---------------------------------------------------------------------------
# Random-instance builders.
# ---------------------------------------------------------------------------

def random_symmetric_tensor(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random commutative (symmetrised) tensor; unital rows fixed for dim 3."""
    c = rng.uniform(-1.0, 1.0, size=(dim,) * 3)
    c = 0.5 * (c + np.swapaxes(c, 0, 1))
    if dim == 3:
        c[0] = np.eye(3)
        c[:, 0, :] = np.eye(3)
    return c


def polynomial_algebra_pair(p0: float, p1: float, p2: float) -> MatrixPair:
    """The unital algebra R[t]/(t^3 - p2 t^2 - p1 t - p0) in the basis (1, t, t^2)."""
    return pair_3x3(
        A=0.0, B=0.0, C=1.0,
        D=p0, E=p1, G=p2,
        L=p2 * p0, M=p0 + p2 * p1, N=p1 + p2 * p2,
    )


def commuting_2x2_pair(rng: np.random.Generator) -> MatrixPair:
    """An associative 2-dim pair: C2 = alpha I + beta C1 with consistent layout."""
    B, C, alpha, beta = rng.uniform(-1.0, 1.0, size=4)
    E = alpha + beta * B
    G = beta * C
    return pair_2x2(B=B, C=C, E=E, G=G, M=beta * E, N=alpha + beta * G)


def random_polynomial_field_2x2(rng: np.random.Generator, xs: np.ndarray,
                                scale: float = 0.5):
    """2x2 pairs whose entries are random quadratics in x (smooth test field)."""
    coef = {k: scale * rng.normal(size=3) for k in ("B", "C", "E", "G", "M", "N")}
    pairs = []
    for x in xs:
        e = {k: float(a[0] + a[1] * x + a[2] * x * x) for k, a in coef.items()}
        pairs.append(pair_2x2(**e))
    return tuple(pairs)


def random_smooth_tensor_grid(rng: np.random.Generator, npts: int, h: float,
                              n: int, unital: bool) -> np.ndarray:
    """Symmetric structure constants varying as random quadratics over a 2-D grid."""
    xs = np.arange(npts) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    c = np.zeros((npts, npts, n, n, n))
    for j in range(n):
        for k in range(n):
            for l in range(n):
                a = 0.6 * rng.normal(size=6)
                c[:, :, j, k, l] = (a[0] + a[1] * X + a[2] * Y + a[3] * X * Y
                                    + a[4] * X ** 2 + a[5] * Y ** 2)
    c = 0.5 * (c + np.swapaxes(c, 2, 3))
    if unital:
        c[:, :, 0, :, :] = np.eye(n)
        c[:, :, :, 0, :] = np.eye(n)
    return c


# ---------------------------------------------------------------------------
# Reference forms of the stacked code paths: one point at a time, and the
# grid contractions with the grid axes in front.  The package must agree
# with them bit for bit, errors included.
# ---------------------------------------------------------------------------

def _log_var_per_point(x):
    if x <= 0.0:
        raise InvalidInputError(f"log families need x > 0, got {x}")
    t = math.log(x)
    if abs(t) < LOG_DOMAIN_TOL:
        raise InvalidInputError(f"x = {x} is too close to the ln x = 0 pole")
    return t


def eval_family_per_point(fam, point) -> MatrixPair:
    """The family's MatrixPair at one point, from scalar formulas and one solve per shift."""
    if fam.id == "Nilpotent3x3":
        t = _log_var_per_point(point)
        a, b, g, d, mu = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta", "mu"))
        return pair_3x3(
            A=0.0, B=0.0, C=0.0,
            D=b / t, E=-b + g / t, G=1.0 / t,
            L=a * b + 2.0 * b * b + d * t - b * g / t,
            M=a * g + 3.0 * b * g + mu * t - d * t * t - g * g / t,
            N=a + b - g / t,
        )
    if fam.id == "Nilpotent2x2":
        t = _log_var_per_point(point)
        a, b, g = fam.p("alpha"), fam.p("beta"), fam.p("gamma")
        return pair_2x2(
            B=0.0, C=0.0, E=b / t, G=1.0 / t,
            M=g * t - b * b / t + a * b, N=-b / t + a,
        )
    if fam.id == "UpperTri2x2":
        a, b, g, d = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta"))
        x = float(point)
        if min(abs(x), abs(x + b)) < DEGENERACY_TOL:
            raise InvalidInputError(f"UpperTri2x2 is singular at x = {x}")
        return pair_2x2(
            B=1.0, C=0.0,
            E=g / (x + b), G=x / (x + b),
            M=d + (a * g + b * d - g * g / b) / x + g * g / (b * (x + b)),
            N=-g / (x + b) + a,
        )
    if fam.id == "PolyL3":
        return pair_2x2(**_poly_l3_per_point(fam, float(point))[0])
    coeffs = [np.asarray(fam.params[k], dtype=float) for k in ("phi0", "phi1", "phi2")]

    def gauge(x):   # row m, column k: Phi^m(x + s_k) for the shifts 0, 1, -1
        return np.array([npoly.polyval(x + np.array((0, 1, -1)), c) for c in coeffs])

    x = float(point)
    gmat = gauge(x)
    if abs(np.linalg.det(gmat)) < DEGENERACY_TOL:
        raise SingularGaugeError(f"gauge matrix is singular at x = {point}")
    return MatrixPair(3, np.linalg.solve(gmat, gauge(x + 1)), np.linalg.solve(gmat, gauge(x - 1)))


def _poly_l3_per_point(fam, y: float):
    a, b, g, d = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta"))
    q = -1.0 if fam.params.get("printed_form") else -a
    entries = {"B": a * y + b, "E": a, "G": -a * y + g,
               "C": q * y * y + (g - b) * y + d, "M": 0.0, "N": 0.0}
    derivs = {"B": a, "E": 0.0, "G": -a, "C": 2.0 * q * y + (g - b)}
    return entries, derivs


def _stencil_grid_defect(dda: str, xs) -> str | None:
    """The first rule the 3-point grid xs of one point's stencil breaks, judged on its own."""
    d0, d1 = xs[1] - xs[0], xs[2] - xs[1]
    if d0 <= 0.0 or d1 <= 0.0:
        return "grid must be strictly increasing"
    if not abs(d1 - d0) <= 1e-9 * d0:
        return "grid must be uniformly spaced"
    if dda == "L5" and abs(d0 - 1.0) > 1e-9:
        return "L5 fields live on a unit-spaced grid"
    return None


def validate_family_per_point(fam, sample_points, h: float = 1e-4) -> ResidualReport:
    """validate_family one point at a time: a MatrixPair per stencil value, its own 3-point
    grid check, and the stencil norm of ``cs_scan_norms_per_point`` checked by a one-point
    ResidualReport labelled '<dda>_cs'."""
    norms, labels = [], []
    for p in sample_points:
        labels.append(f"x={p:g}")
        if fam.id == "PolyL3":
            e, de = _poly_l3_per_point(fam, float(p))
            r = (de["B"] - e["E"], de["E"], de["C"] - (e["G"] - e["B"]), de["G"] + e["E"])
            norms.append(max(abs(v) for v in r))
            continue
        dda, step = ("L5", 1.0) if fam.id == "GaugeL5" else ("L2a", h)
        xs = (p - step, p, p + step)
        try:
            pairs = [eval_family_per_point(fam, x) for x in xs]
            defect = _stencil_grid_defect(dda, np.array(xs, dtype=float))
            if defect:
                raise InvalidInputError(defect)
        except (InvalidInputError, SingularGaugeError) as exc:
            with_h = "" if dda == "L5" else f" with h={h}"
            raise InvalidInputError(f"points: x={p}{with_h}: {exc}") from None
        norm, = cs_scan_norms_per_point(dda, np.array(xs, dtype=float),
                                        [q.C1 for q in pairs], [q.C2 for q in pairs])
        norms.append(ResidualReport(labels=(f"{dda}_cs",), norms=(norm,)).norms[0])
    return ResidualReport(labels=tuple(labels), norms=tuple(norms))


def _numbers(value) -> np.ndarray:
    """value as floats where numpy reads it as integers or floats, without a dtype: no
    string, None or bool-only array; TypeError otherwise."""
    a = np.array(value)
    if a.dtype.kind not in "iuf":
        raise TypeError(f"not numbers: {a.dtype}")
    return a.astype(float)


def sampled_field_per_value(doc: dict) -> SampledField:
    """SampledField.from_json one value at a time: each value's numeric, finiteness,
    size, shape and layout checks (through a MatrixPair) before the next value's,
    then the field's own checks through the pairs constructor."""
    if not isinstance(doc, dict):
        raise InvalidInputError("sampled field must be a JSON object")
    for key in ("dda", "grid", "values"):
        if key not in doc:
            raise InvalidInputError(f"sampled field is missing the {key!r} field")
    if not isinstance(doc["dda"], str):
        raise InvalidInputError("sampled field 'dda' must be a string")
    if not isinstance(doc["values"], list):
        raise InvalidInputError("sampled field 'values' must be a list")
    try:
        grid = _numbers(doc["grid"])
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError("sampled field 'grid' must be a list of numbers") from None
    pairs = []
    for i, v in enumerate(doc["values"]):
        try:
            C1, C2 = (_numbers(v[key]) for key in ("C1", "C2"))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise InvalidInputError(
                f"sampled field value {i} needs numeric matrices 'C1' and 'C2'") from None
        for key, mat in (("C1", C1), ("C2", C2)):
            if not np.all(np.isfinite(mat)):
                raise InvalidInputError(
                    f"sampled field values[{i}].{key} has a non-finite entry")
        try:
            pairs.append(MatrixPair(len(C1) if C1.ndim else 0, C1, C2))
        except InvalidInputError as exc:
            raise InvalidInputError(f"sampled field values[{i}]: {exc}") from None
    return SampledField(dda=doc["dda"], grid=grid, pairs=tuple(pairs))


def sampled_field_json_per_value(dda: str, grid, pairs) -> dict:
    """SampledField.to_json written from the pairs themselves, one value at a time."""
    return {"dda": dda, "grid": [float(x) for x in np.array(grid, dtype=float)],
            "values": [{"C1": p.C1.tolist(), "C2": p.C2.tolist()} for p in pairs]}


_P2_SHIFT_PER_POINT = {"L2b": 0, "L4": 1, "L5": -1}


def cs_scan_norms_per_point(dda: str, grid: np.ndarray, C1s, C2s) -> list[float]:
    """cs_residual_scan's norms from the per-value matrices C1s[i], C2s[i]: the stencil
    on stacks restacked from them, then np.linalg.norm one point at a time."""
    behind = int(dda in ("L2a", "L3", "L5"))
    lo, hi = behind, len(grid) - 1
    C1, C2 = np.array(list(C1s)), np.array(list(C2s))
    near = [slice(lo + s, hi + s) for s in (0, 1, -1)[:2 + behind]]
    C1, C2 = [C1[s] for s in near], [C2[s] for s in near]
    x, spacing = grid[lo:hi], float(grid[1] - grid[0])
    here1, here2 = C1[0], C2[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if dda in _P2_SHIFT_PER_POINT:
            R = here1 @ C2[1] - here2 @ C1[_P2_SHIFT_PER_POINT[dda]]
        elif dda == "L2a":
            dC2 = (C2[1] - C2[-1]) / (2.0 * spacing)
            R = x[:, None, None] * dC2 - (here2 @ here1 - here1 @ here2)
        else:  # L3
            dC1 = (C1[1] - C1[-1]) / (2.0 * spacing)
            R = here1 @ dC1 - (here1 @ here2 - here2 @ here1)
        return [float(np.linalg.norm(r)) for r in R]


def _central_diffs_grid_first(tg) -> list[np.ndarray]:
    dims = tg.grid_dims
    inner = (slice(1, -1),) * dims
    diffs = []
    for j in range(tg.n):
        axis = j - tg.index_offset
        if axis < 0:
            diffs.append(np.zeros(tg.c[inner].shape))
            continue
        plus, minus = list(inner), list(inner)
        plus[axis], minus[axis] = slice(2, None), slice(0, -2)
        diffs.append((tg.c[tuple(plus)] - tg.c[tuple(minus)]) / (2.0 * tg.spacing))
    return diffs


def assoc_defect_grid_first(c: np.ndarray) -> np.ndarray:
    return np.einsum("...jkm,...mln->...jkln", c, c) - np.einsum("...klm,...jmn->...jkln", c, c)


def quantum_cs_parts_grid_first(tg, hbar: float):
    dims = tg.grid_dims
    diffs = np.stack(_central_diffs_grid_first(tg), axis=dims)  # [..., l, j, k, n]
    deriv = hbar * (np.einsum("...ljkn->...kljn", diffs) - np.einsum("...jkln->...kljn", diffs))
    quad = np.einsum("...jkln->...kljn",
                     assoc_defect_grid_first(tg.c)[(slice(1, -1),) * dims])
    return deriv, quad


def coisotropic_bracket_grid_first(tg) -> np.ndarray:
    dims = tg.grid_dims
    c = tg.c[(slice(1, -1),) * dims]
    d = np.stack(_central_diffs_grid_first(tg), axis=dims)
    t1 = np.einsum("...sjm,...klrs->...jklrm", c, d)
    t2 = np.einsum("...skm,...jlrs->...jklrm", c, d)
    t3 = np.einsum("...srm,...ljks->...jklrm", c, d)
    t4 = np.einsum("...slm,...rjks->...jklrm", c, d)
    t5 = np.einsum("...lrs,...sjkm->...jklrm", c, d)
    t6 = np.einsum("...jks,...slrm->...jklrm", c, d)
    return t1 + t2 - t3 - t4 + t5 - t6


# ---------------------------------------------------------------------------
# The discrete oriented-associativity residual one point at a time, reading the
# samples through a dict: the commutator C1 C2 - C2 C1 of C_k = g^-1 T_k g, since
# S_jk = (T_j g) g^-1 (T_k g) = g C_j C_k.  The stacked gauge kernel must reproduce
# it bit for bit.
# ---------------------------------------------------------------------------

_GAUGE_SHIFTS = (0, 1, -1)   # T_0 = 1, T_1 = T, T_2 = T^-1


def _gauge_matrix(potentials, x) -> np.ndarray:
    """g at x: row m, column k holds Phi^m(x + s_k) for the shifts s_k in _GAUGE_SHIFTS."""
    x = np.asarray(x)
    g = potentials(x[..., None] + np.array(_GAUGE_SHIFTS))   # [m, point..., k]
    return g if x.ndim == 0 else np.moveaxis(g, 0, -2)


def _sampled_potentials(phi: np.ndarray, xs: np.ndarray):
    """Potentials read off samples phi[m, i] = Phi^m(xs[i]) on integer points."""
    idx = {int(v): i for i, v in enumerate(xs)}

    def potentials(points: np.ndarray) -> np.ndarray:
        try:
            return phi[:, [idx[int(p)] for p in points]]
        except KeyError as exc:
            raise InvalidInputError(f"potential samples do not cover x = {exc.args[0]}") from None

    return potentials


def oriented_assoc_defect_per_point(phi: np.ndarray, xs: np.ndarray, x: int) -> np.ndarray:
    """C1 C2 - C2 C1 at x, from this point's own g and solves."""
    potentials = _sampled_potentials(phi, xs)
    g = _gauge_matrix(potentials, x)
    if abs(np.linalg.det(g)) < DEGENERACY_TOL:
        raise SingularGaugeError(f"gauge matrix is singular at x = {x}")
    # (T_j g)[m][t] = Phi^m(x + s_j + s_t): shift the whole gauge matrix.
    t1, t2 = (_gauge_matrix(potentials, x + s) for s in _GAUGE_SHIFTS[1:])
    C1, C2 = np.linalg.solve(g, t1), np.linalg.solve(g, t2)   # C_k = g^-1 T_k g
    return C1 @ C2 - C2 @ C1


def oriented_assoc_residual_loop(phi, xs) -> ResidualReport:
    """``discrete_oriented_assoc_residual`` as a loop over the interior points."""
    phi = np.asarray(phi, dtype=float)
    xs = np.asarray(xs, dtype=int)
    if phi.shape != (3, xs.size):
        raise InvalidInputError("need three potentials sampled on the whole interval")
    labels, norms = [], []
    for x in xs:
        if x - 2 < xs[0] or x + 2 > xs[-1]:
            continue
        labels.append(f"x={int(x)}")
        norms.append(float(np.linalg.norm(oriented_assoc_defect_per_point(phi, xs, int(x)))))
    if not labels:
        raise InvalidInputError("interval too short: no point has both double shifts")
    return ResidualReport(labels=tuple(labels), norms=tuple(norms))


# ---------------------------------------------------------------------------
# RK4 as one generator expression per stage over zips of tuples, the form the
# unrolled steps of ``integrators`` must reproduce bit for bit.
# ---------------------------------------------------------------------------

def rk4_loop(f, t0, y0, t1, step):
    """``integrators.integrate_fixed`` with every stage a ``tuple`` over ``zip``s."""
    n = step_count(t0, t1, step)
    y = tuple(float(v) for v in y0)
    ys = np.empty((n + 1, len(y)))
    ys[0] = y
    h = (t1 - t0) / n if n else 0.0
    half, sixth = 0.5 * h, h / 6.0
    t, rows, diagnostic = t0, n + 1, None
    for i in range(n):
        try:
            k1 = f(t, y)
            k2 = f(t + half, tuple(a + half * b for a, b in zip(y, k1)))
            k3 = f(t + half, tuple(a + half * b for a, b in zip(y, k2)))
            k4 = f(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        except (SingularFlowError, ZeroDivisionError, FloatingPointError) as exc:
            rows, diagnostic = i + 1, f"{type(exc).__name__}: {exc}"
            break
        y = tuple(a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        t = t0 + (i + 1) * h
        if not all(abs(v) <= OVERFLOW_GUARD for v in y):   # a NaN fails the test too
            rows = i + 1
            diagnostic = f"state exceeded overflow guard {OVERFLOW_GUARD:g} at t={t:.6g}"
            break
        ys[i + 1] = y
    ts = np.concatenate(([t0], t0 + np.arange(1, rows) * h))   # keeps a t0 of -0.0
    status = STATUS_COMPLETED if diagnostic is None else STATUS_TRUNCATED
    return ts, ys[:rows], status, diagnostic


# ---------------------------------------------------------------------------
# The CLI's CSV files as ``csv.writer`` (excel dialect) wrote them, from Python
# rows, and those rows for an orbit; the CLI must write the same bytes.
# ---------------------------------------------------------------------------

def write_csv_writer(path, header, rows) -> None:
    """One header row, then the rows; csv.writer prints each float as its repr."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def orbit_rows(run, stride: int) -> list[list]:
    """orbit.csv rows of an ``Orbit``: n, entries, invariants ("" in rows
    without them), ";"-joined flag names."""
    at = dict(zip(run.invariant_rows.tolist(), range(len(run.invariant_rows))))
    names = sorted(run.invariants)
    rows = []
    for i, (entries, flags) in enumerate(zip(run.entries.tolist(), run.flags.tolist())):
        invariants = [run.invariants[k][at[i]].item() if i in at else "" for k in names]
        labels = [name for name, on in zip(FLAG_NAMES, flags) if on]
        rows.append([run.n0 + i, *entries, *invariants, ";".join(labels)])
    return rows[::stride]

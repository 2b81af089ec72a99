"""Reference computations the benchmark trusts instead of the program.

Everything here is written from the defining equations in plain numpy and
imports nothing from ``deformcs``.  The generators use ``map_orbit`` to keep
only initial data whose orbits stay bounded and non-degenerate; the gate
compares the program's grid-operator norms with the ``*_max`` functions.
The grid functions work one row of the first grid axis at a time, so their
own temporaries stay small next to the program's working set.
"""

from __future__ import annotations

import numpy as np


def map_orbit(dda: str, entries: dict, steps: int) -> np.ndarray:
    """Entries (B, C, E, G, M, N) along a discrete orbit, one row per site.

    In matrix form every map solves C1 . TC2 = C2 . X for TC2, with X = C1
    (L2b), X = TC1 (L4, solved column by column) or X = T^-1 C1 (L5); the
    new E, G are the shared column of TC2.
    """
    B, C, E, G, M, N = (float(entries[k]) for k in ("B", "C", "E", "G", "M", "N"))
    prev = np.array([[B, E], [C, G]])
    rows = [(B, C, E, G, M, N)]
    for _ in range(steps):
        C1 = np.array([[B, E], [C, G]])
        C2 = np.array([[E, M], [G, N]])
        if dda == "L2b":
            T = np.linalg.solve(C1, C2 @ C1)
        elif dda == "L4":
            col0 = np.linalg.solve(C1, C2 @ np.array([B, C]))
            T = np.column_stack([col0, np.linalg.solve(C1, C2 @ col0)])
        else:
            T = np.linalg.solve(C1, C2 @ prev)
            prev = C1
        E, G, M, N = T[0, 0], T[1, 0], T[0, 1], T[1, 1]
        rows.append((B, C, E, G, M, N))
    return np.array(rows)


def _diff(c: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central difference along a grid axis, on the interior of every grid axis."""
    dims = c.ndim - 3
    up = [slice(1, -1)] * dims
    dn = [slice(1, -1)] * dims
    up[axis], dn[axis] = slice(2, None), slice(0, -2)
    return (c[tuple(up)] - c[tuple(dn)]) / (2.0 * h)


def _derivatives(c: np.ndarray, h: float) -> np.ndarray:
    """D[..., a, j, k, n] = dC_jk^n / dx^a, zero along the unit direction if any."""
    dims, n = c.ndim - 3, c.shape[-1]
    offset = n - dims
    interior = c[(slice(1, -1),) * dims]
    out = np.zeros(interior.shape[:dims] + (n,) + interior.shape[dims:])
    for a in range(offset, n):
        out[..., a, :, :, :] = _diff(c, a - offset, h)
    return out


def _row_blocks(c: np.ndarray):
    """Yield 3-row slabs of the first grid axis, one per interior row."""
    for i in range(1, c.shape[0] - 1):
        yield c[i - 1:i + 2]


def _assoc(v: np.ndarray) -> np.ndarray:
    """A[..., j, k, l, n] = sum_m C_jk^m C_ml^n - C_kl^m C_jm^n."""
    return (np.einsum("...jkm,...mln->...jkln", v, v)
            - np.einsum("...klm,...jmn->...jkln", v, v))


def quantum_max(c: np.ndarray, h: float, hbar: float) -> float:
    """max |hbar dC_jk^n/dx^l - hbar dC_kl^n/dx^j + sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n)|."""
    worst = 0.0
    dims = c.ndim - 3
    for slab in _row_blocks(c):
        d = _derivatives(slab, h)                      # [..., l, j, k, n]
        v = slab[(slice(1, -1),) * dims]
        # indexed [..., j, k, l, n]: d moved gives dC_jk^n/dx^l, d itself dC_kl^n/dx^j
        defect = hbar * (np.moveaxis(d, dims, dims + 2) - d) + _assoc(v)
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def coisotropic_max(c: np.ndarray, h: float) -> tuple[float, float]:
    """Max of the six-term bracket [C,C]_jklr^m and of the associativity defect."""
    b_worst = a_worst = 0.0
    dims = c.ndim - 3
    for slab in _row_blocks(c):
        d = _derivatives(slab, h)                      # d[..., a, j, k, n]
        v = slab[(slice(1, -1),) * dims]
        br = (np.einsum("...sjm,...klrs->...jklrm", v, d)
              + np.einsum("...skm,...jlrs->...jklrm", v, d)
              - np.einsum("...srm,...ljks->...jklrm", v, d)
              - np.einsum("...slm,...rjks->...jklrm", v, d)
              + np.einsum("...lrs,...sjkm->...jklrm", v, d)
              - np.einsum("...jks,...slrm->...jklrm", v, d))
        b_worst = max(b_worst, float(np.max(np.abs(br))))
        a_worst = max(a_worst, float(np.max(np.abs(_assoc(v)))))
    return b_worst, a_worst


def discrete_max(c: np.ndarray) -> list[float]:
    """Per index pair (j, l), j > l, max Frobenius norm of C_l T_lC_j - C_j T_jC_l.

    C_j is the matrix with row l, column k equal to c[..., j, k, l]; T_a shifts
    by +1 along the grid axis of algebra index a (identity for the unit index).
    Pairs are ordered as the program labels them: sorted by (j, l).
    """
    dims, n = c.ndim - 3, c.shape[-1]
    offset = n - dims
    here = tuple(slice(0, -1) for _ in range(dims))
    mats = np.swapaxes(c, -1, -2)                      # mats[..., j, l, k] = (C_j)_{lk}

    def shifted(a):
        if a < offset:
            return mats[here]
        sl = [slice(0, -1)] * dims
        sl[a - offset] = slice(1, None)
        return mats[tuple(sl)]

    base = mats[here]
    out = {}
    for l in range(n):
        for j in range(l + 1, n):
            R = base[..., l, :, :] @ shifted(l)[..., j, :, :] - base[..., j, :, :] @ shifted(j)[..., l, :, :]
            out[(j, l)] = float(np.max(np.sqrt(np.sum(R * R, axis=(-1, -2)))))
    return [out[key] for key in sorted(out)]


def gauge_commutators(phi: np.ndarray, xs: np.ndarray) -> list[float]:
    """||C1 C2 - C2 C1|| of the gauge structure constants at every x with x +- 2 sampled.

    g(x) has row m, column k = Phi^m(x + s_k) with shifts s = (0, 1, -1), and
    C_k = g(x)^-1 g(x + s_k).
    """
    shifts = (0, 1, -1)
    index = {int(x): i for i, x in enumerate(xs)}

    def g(x):
        return np.column_stack([phi[:, index[x + s]] for s in shifts])

    norms = []
    for x in (int(v) for v in xs):
        if x - 2 < xs[0] or x + 2 > xs[-1]:
            continue
        g0 = g(x)
        C1 = np.linalg.solve(g0, g(x + 1))
        C2 = np.linalg.solve(g0, g(x - 1))
        norms.append(float(np.linalg.norm(C1 @ C2 - C2 @ C1)))
    return norms

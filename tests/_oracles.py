"""Independent brute-force oracles used by the test suite.

Everything here is written as plain index loops, deliberately sharing no
code with the package implementations it checks.
"""

from __future__ import annotations

import numpy as np

from deformcs.algebra_core import MatrixPair, tensor_from_pair


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
    cten = [tensor_from_pair(p, unital=p.unital).c for p in pairs]
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
    cten = [tensor_from_pair(p, unital=p.unital).c for p in pairs]
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
    return MatrixPair.from_entries_3x3(
        A=0.0, B=0.0, C=1.0,
        D=p0, E=p1, G=p2,
        L=p2 * p0, M=p0 + p2 * p1, N=p1 + p2 * p2,
    )


def commuting_2x2_pair(rng: np.random.Generator) -> MatrixPair:
    """An associative 2-dim pair: C2 = alpha I + beta C1 with consistent layout."""
    B, C, alpha, beta = rng.uniform(-1.0, 1.0, size=4)
    E = alpha + beta * B
    G = beta * C
    return MatrixPair.from_entries_2x2(B=B, C=C, E=E, G=G,
                                       M=beta * E, N=alpha + beta * G)


def random_polynomial_field_2x2(rng: np.random.Generator, xs: np.ndarray,
                                scale: float = 0.5):
    """2x2 pairs whose entries are random quadratics in x (smooth test field)."""
    coef = {k: scale * rng.normal(size=3) for k in ("B", "C", "E", "G", "M", "N")}
    pairs = []
    for x in xs:
        e = {k: float(a[0] + a[1] * x + a[2] * x * x) for k, a in coef.items()}
        pairs.append(MatrixPair.from_entries_2x2(**e))
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

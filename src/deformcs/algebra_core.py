"""Structure constants of small commutative algebras and their matrix form.

A product table P_j P_k = sum_l c[j][k][l] P_l over a commuting basis is
stored either as the full tensor c (symmetric in j, k) or as the pair of
multiplication matrices with the convention (C_j)_k^l = c[j][k][l] placed
at row l, column k.  Two layouts occur:

* 3x3 unital (basis P0 = unit, P1, P2), named entries A..N::

      C1 = | 0 A D |      C2 = | 0 D L |
           | 1 B E |           | 0 E M |
           | 0 C G |           | 1 G N |

* 2x2 without unit (basis P1, P2)::

      C1 = | B E |        C2 = | E M |
           | C G |             | G N |

In both layouts the two matrices share the P1P2 column (D, E, G resp.
E, G); constructors reject pairs where the shared entries disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvalidInputError

# Tolerance for structural invariants of float-valued inputs (fixed unital
# columns, shared-column consistency, tensor symmetry).
LAYOUT_ATOL = 1e-9

# A divisor (determinant, pole distance, denominator) below this is treated as zero.
DEGENERACY_TOL = 1e-12

_UNIT_COL = {1: np.array([0.0, 1.0, 0.0]), 2: np.array([0.0, 0.0, 1.0])}

# Named-entry positions (matrix, row, col) per layout.
ENTRY_POSITIONS_3 = {
    "A": (0, 0, 1), "B": (0, 1, 1), "C": (0, 2, 1),
    "D": (0, 0, 2), "E": (0, 1, 2), "G": (0, 2, 2),
    "L": (1, 0, 2), "M": (1, 1, 2), "N": (1, 2, 2),
}
ENTRY_POSITIONS_2 = {
    "B": (0, 0, 0), "C": (0, 1, 0),
    "E": (0, 0, 1), "G": (0, 1, 1),
    "M": (1, 0, 1), "N": (1, 1, 1),
}


def _as_matrix(m, n: int) -> np.ndarray:
    a = np.array(m, dtype=float)
    if a.shape != (n, n):
        raise InvalidInputError(f"expected a {n}x{n} matrix, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MatrixPair:
    """The pair of multiplication matrices (C1, C2) of a 2- or 3-dim algebra."""

    n: int
    C1: np.ndarray
    C2: np.ndarray

    def __post_init__(self):
        if self.n not in (2, 3):
            raise InvalidInputError(f"matrix size must be 2 or 3, got {self.n}")
        object.__setattr__(self, "C1", _as_matrix(self.C1, self.n))
        object.__setattr__(self, "C2", _as_matrix(self.C2, self.n))
        if self.n == 3:
            for mat, j in ((self.C1, 1), (self.C2, 2)):
                if not np.allclose(mat[:, 0], _UNIT_COL[j], atol=LAYOUT_ATOL, rtol=0.0):
                    raise InvalidInputError(
                        f"column 0 of C{j} must be the unital column {_UNIT_COL[j]}"
                    )
            shared1, shared2 = self.C1[:, 2], self.C2[:, 1]
        else:
            shared1, shared2 = self.C1[:, 1], self.C2[:, 0]
        if not np.allclose(shared1, shared2, atol=LAYOUT_ATOL, rtol=0.0):
            raise InvalidInputError(
                f"shared P1P2 column disagrees between C1 and C2: {shared1} vs {shared2}"
            )

    @property
    def unital(self) -> bool:
        return self.n == 3

    @classmethod
    def from_entries_3x3(cls, A=0.0, B=0.0, C=0.0, D=0.0, E=0.0, G=0.0,
                         L=0.0, M=0.0, N=0.0) -> "MatrixPair":
        C1 = [[0.0, A, D], [1.0, B, E], [0.0, C, G]]
        C2 = [[0.0, D, L], [0.0, E, M], [1.0, G, N]]
        return cls(3, C1, C2)

    @classmethod
    def from_entries_2x2(cls, B=0.0, C=0.0, E=0.0, G=0.0, M=0.0, N=0.0) -> "MatrixPair":
        return cls(2, [[B, E], [C, G]], [[E, M], [G, N]])

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[str, float]) -> "MatrixPair":
        if n == 3:
            return cls.from_entries_3x3(**entries)
        return cls.from_entries_2x2(**entries)

    def entries(self) -> dict[str, float]:
        """Named structure constants (A..N for 3x3, B..N for 2x2)."""
        positions = ENTRY_POSITIONS_3 if self.n == 3 else ENTRY_POSITIONS_2
        mats = (self.C1, self.C2)
        return {name: float(mats[m][r, c]) for name, (m, r, c) in positions.items()}


@dataclass(frozen=True)
class StructTensor:
    """Structure constants c[j][k][l], symmetric in (j, k)."""

    dim: int
    unital: bool
    c: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise InvalidInputError(f"dim must be 2 or 3, got {self.dim}")
        if self.unital != (self.dim == 3):
            raise InvalidInputError("only the unital 3-dim and non-unital 2-dim layouts are supported")
        a = np.array(self.c, dtype=float)
        if a.shape != (self.dim,) * 3:
            raise InvalidInputError(f"tensor shape must be {(self.dim,) * 3}, got {a.shape}")
        if not np.allclose(a, np.swapaxes(a, 0, 1), atol=LAYOUT_ATOL, rtol=0.0):
            raise InvalidInputError("structure constants must satisfy c[j][k][l] = c[k][j][l]")
        if self.unital:
            eye = np.eye(self.dim)
            if not np.allclose(a[:, 0, :], eye, atol=LAYOUT_ATOL, rtol=0.0):
                raise InvalidInputError("unital tensor must satisfy c[j][0][l] = delta_j^l")
        a.setflags(write=False)
        object.__setattr__(self, "c", a)


@dataclass(frozen=True)
class ResidualReport:
    """Named residual norms plus optional first-integral snapshots."""

    labels: tuple[str, ...]
    norms: tuple[float, ...]
    integrals: dict[str, float] | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "norms", tuple(float(v) for v in self.norms))
        if len(self.labels) != len(self.norms):
            raise InvalidInputError("labels and norms must have equal length")
        if any(not np.isfinite(v) or v < 0.0 for v in self.norms):
            raise InvalidInputError("residual norms must be finite and nonnegative")
        if len(set(self.labels)) != len(self.labels):
            dup = next(lab for i, lab in enumerate(self.labels) if lab in self.labels[:i])
            raise InvalidInputError(f"residual label {dup!r} occurs more than once")

    def max_norm(self) -> float:
        return max(self.norms) if self.norms else 0.0

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.labels, self.norms))


def trace_integrals(mat: np.ndarray) -> dict:
    """Trace invariants I_k = tr(M^k)/k, k = 1..3, of a Lax or transition matrix.

    One matrix gives floats; a stack of shape (..., k, k) gives arrays.
    """
    sq = mat @ mat
    t1, t2, t3 = (np.trace(m, axis1=-2, axis2=-1) for m in (mat, sq, sq @ mat))
    if mat.ndim == 2:
        t1, t2, t3 = float(t1), float(t2), float(t3)
    return {"I1": t1, "I2": t2 / 2.0, "I3": t3 / 3.0}


def assoc_residual(pair) -> float:
    """Frobenius norm of C1 C2 - C2 C1 (zero iff the product table is associative).

    Accepts a MatrixPair or a plain (C1, C2) tuple of square matrices.
    """
    if isinstance(pair, MatrixPair):
        C1, C2 = pair.C1, pair.C2
    else:
        C1, C2 = (np.asarray(m, dtype=float) for m in pair)
    if C1.ndim != 2 or C1.shape[0] != C1.shape[1] or C1.shape != C2.shape:
        raise InvalidInputError(
            f"C1 and C2 must be square matrices of equal shape, got {C1.shape} and {C2.shape}"
        )
    return float(np.linalg.norm(C1 @ C2 - C2 @ C1))


def tensor_from_pair(pair: MatrixPair, unital: bool) -> StructTensor:
    """Expand a matrix pair into the full structure-constant tensor."""
    if unital != pair.unital:
        raise InvalidInputError(
            f"unital={unital} inconsistent with a {pair.n}x{pair.n} pair"
        )
    n = pair.n
    c = np.zeros((n, n, n))
    if unital:
        c[0] = np.eye(n)
        c[1] = pair.C1.T
        c[2] = pair.C2.T
    else:
        c[0] = pair.C1.T
        c[1] = pair.C2.T
    return StructTensor(dim=n, unital=unital, c=c)


def pair_from_tensor(t: StructTensor) -> MatrixPair:
    """Read the multiplication matrices back off a structure-constant tensor."""
    if t.unital:
        return MatrixPair(3, t.c[1].T, t.c[2].T)
    return MatrixPair(2, t.c[0].T, t.c[1].T)

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

``ENTRY_POSITIONS_3``/``ENTRY_POSITIONS_2`` and ``entry_stacks`` are the one
place that turns named entries into C1 and C2, at one point or stacked;
``MatrixPair.from_entries(n, entries)`` is the one constructor from names.
``finite_numbers`` is the one rule for every {name: number} input, entries or parameters,
its ``check_names`` the one rule for their names, and ``_pow`` the one per-entry power.
``finite_number`` (hbar, a family's point), ``positive_number`` (a step, h or spacing),
``whole_number`` (a count of steps, a stride or a matrix size) and ``number_sequence``
(points or coefficients) are the one rule for each other kind of numeric input,
``finite_span`` the one for a span, and ``one_of`` the one for a name looked up in a
catalogue.  ``is_index`` is the one test of an integer (a lattice point or shape, a grid
index, a gauge point), ``is_real_number`` the test of a hand-built map state's entries,
and ``float_array`` the one conversion of an array argument (matrices, tensors, a grid,
gauge samples).  ``frobenius`` is the one Frobenius norm, of a matrix or a stack of them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
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
# The shared P1P2 column per layout: its index in C1, then in C2.
_SHARED_COLUMNS = {3: (2, 1), 2: (1, 0)}


def is_finite_number(v) -> bool:
    """An int or float that is finite as a float: no bool, NaN, infinity or huge integer."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def is_real_number(v) -> bool:
    """A float, inf and NaN included, or an ``is_finite_number`` int."""
    return isinstance(v, float) or is_finite_number(v)


def is_index(v) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def float_array(what: str, value) -> np.ndarray:
    """``value`` as a new read-only float64 array; InvalidInputError naming ``what`` unless
    numpy reads it as integers or floats: not a word, a numeric string, None, a bool, a
    complex number, a ragged list or an integer too large for a 64-bit integer array."""
    try:
        a = np.array(value)
        if a.dtype.kind not in "iuf":
            raise TypeError(a.dtype)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{what} must be a list of numbers") from None
    a = a.astype(float, copy=False)
    a.setflags(write=False)
    return a


def mapping(what: str, values) -> Mapping:
    """``values`` if it is a mapping; InvalidInputError naming ``what`` if not."""
    if not isinstance(values, Mapping):
        raise InvalidInputError(f"{what} must be a mapping of names to numbers, got {values!r}")
    return values


def check_names(what: str, values: Mapping, allowed) -> None:
    """Raise InvalidInputError naming ``what`` unless ``values`` is a ``mapping`` whose names
    are all in ``allowed``, naming those that are not."""
    unknown = sorted(set(mapping(what, values)) - set(allowed))
    if unknown:
        raise InvalidInputError(f"{what} has unknown entries {unknown}")


def finite_numbers(what: str, values: Mapping, allowed) -> dict[str, float]:
    """``values`` as floats if every name is in ``allowed`` (``check_names``) and every
    value passes ``is_finite_number``; otherwise InvalidInputError naming ``what`` and
    the entry."""
    check_names(what, values, allowed)
    return {name: float(finite_number(f"{what}[{name!r}]", v)) for name, v in values.items()}


def finite_number(what: str, v):
    """``v`` if it is an ``is_finite_number``; InvalidInputError naming ``what`` if not."""
    if not is_finite_number(v):
        raise InvalidInputError(f"{what} must be a finite number, got {v!r}")
    return v


def positive_number(what: str, v):
    """``v`` if it is a positive ``is_finite_number``; InvalidInputError naming ``what`` if not."""
    if not is_finite_number(v) or v <= 0:
        raise InvalidInputError(f"{what} must be a positive finite number, got {v!r}")
    return v


def whole_number(what: str, v, lo: int, hi: int) -> int:
    """``v`` if it is an ``is_index`` from lo to hi; InvalidInputError naming ``what`` if not."""
    if not is_index(v) or not lo <= v <= hi:
        raise InvalidInputError(f"{what} must be an integer from {lo} to {hi}, got {v!r}")
    return v


def number_sequence(what: str, values) -> list:
    """``values`` as a list, each kept as given, if it is a nonempty list, tuple or 1-D
    array of ``is_finite_number`` values; otherwise InvalidInputError naming ``what``."""
    items = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(items, (list, tuple)) or not items:
        raise InvalidInputError(f"{what} must be a nonempty sequence of numbers, got {values!r}")
    for v in items:
        if not is_finite_number(v):
            raise InvalidInputError(f"{what} must be finite numbers, got {v!r}")
    return list(items)


def finite_span(what: str, span) -> tuple[float, float]:
    """``span`` as two floats if it is a list, tuple or 1-D array of two ``is_finite_number``
    values with end >= start; otherwise InvalidInputError naming ``what``."""
    ends = span.tolist() if isinstance(span, np.ndarray) else span
    if not (isinstance(ends, (list, tuple)) and len(ends) == 2
            and all(map(is_finite_number, ends)) and ends[0] <= ends[1]):
        raise InvalidInputError(
            f"{what} must be two finite numbers (start, end) with end >= start, got {span!r}")
    return float(ends[0]), float(ends[1])


def one_of(what: str, table: Mapping, key):
    """``table[key]``; InvalidInputError naming ``what`` and the keys if ``key`` is not one."""
    try:
        return table[key]
    except (KeyError, TypeError):   # TypeError: an unhashable key
        raise InvalidInputError(
            f"unknown {what} {key!r} (expected one of {tuple(table)})") from None


def layout_close(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b agree entrywise to LAYOUT_ATOL; equal infinities agree, a NaN never does."""
    equal = a == b
    if equal.all():   # the usual case, at a third of the cost of the tolerance test
        return True
    with np.errstate(invalid="ignore"):   # inf - inf gives NaN; a == b decides that entry
        return bool(np.all(equal | (np.abs(a - b) <= LAYOUT_ATOL)))


def layout_defect(n: int, C1: np.ndarray, C2: np.ndarray) -> str | None:
    """The first layout rule that C1, C2 (two matrices, or two (..., n, n) stacks) break.

    The 3x3 layout fixes the unital columns; both layouts share the P1P2 column.
    """
    if n == 3:
        for mat, j in ((C1, 1), (C2, 2)):
            if not layout_close(mat[..., :, 0], _UNIT_COL[j]):
                return f"column 0 of C{j} must be the unital column {_UNIT_COL[j]}"
    col1, col2 = _SHARED_COLUMNS[n]
    shared1, shared2 = C1[..., :, col1], C2[..., :, col2]
    if not layout_close(shared1, shared2):
        return f"shared P1P2 column disagrees between C1 and C2: {shared1} vs {shared2}"
    return None


def entry_stacks(n: int, entries: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(..., n, n) stacks of C1 and C2 from arrays (or floats) of named entries.

    Missing entries are 0, the shared column is copied from C1, and a name
    outside the layout raises InvalidInputError.
    """
    positions = ENTRY_POSITIONS_3 if n == 3 else ENTRY_POSITIONS_2
    check_names(f"{n}x{n} layout", entries, positions)
    shape = np.broadcast(*entries.values()).shape
    C = np.zeros((2,) + shape + (n, n))
    if n == 3:
        C[0, ..., :, 0], C[1, ..., :, 0] = _UNIT_COL[1], _UNIT_COL[2]
    for name, value in entries.items():
        m, r, c = positions[name]
        C[m, ..., r, c] = value
    col1, col2 = _SHARED_COLUMNS[n]
    C[1, ..., :, col2] = C[0, ..., :, col1]
    return C[0], C[1]


@dataclass(frozen=True)
class MatrixPair:
    """The pair of multiplication matrices (C1, C2) of a 2- or 3-dim algebra."""

    n: int
    C1: np.ndarray
    C2: np.ndarray

    def __post_init__(self):
        whole_number("matrix size", self.n, 2, 3)
        for name in ("C1", "C2"):
            a = float_array(name, getattr(self, name))
            if a.shape != (self.n, self.n):
                raise InvalidInputError(f"expected a {self.n}x{self.n} matrix, got shape {a.shape}")
            object.__setattr__(self, name, a)
        defect = layout_defect(self.n, self.C1, self.C2)
        if defect:
            raise InvalidInputError(defect)

    @property
    def unital(self) -> bool:
        return self.n == 3

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[str, float]) -> "MatrixPair":
        """The pair with the named entries of ``entry_stacks``; missing ones are 0."""
        return cls(n, *entry_stacks(n, entries))

    def entries(self) -> dict[str, float]:
        """Named structure constants (A..N for 3x3, B..N for 2x2)."""
        positions = ENTRY_POSITIONS_3 if self.n == 3 else ENTRY_POSITIONS_2
        mats = (self.C1, self.C2)
        return {name: float(mats[m][r, c]) for name, (m, r, c) in positions.items()}


@dataclass(frozen=True)
class StructTensor:
    """Structure constants c[j][k][l], symmetric in (j, k)."""

    dim: int   # 3: unital, basis (P0 = unit, P1, P2); 2: no unit, basis (P1, P2)
    c: np.ndarray

    def __post_init__(self):
        whole_number("dim", self.dim, 2, 3)
        a = float_array("tensor c", self.c)
        if a.shape != (self.dim,) * 3:
            raise InvalidInputError(f"tensor shape must be {(self.dim,) * 3}, got {a.shape}")
        if not layout_close(a, np.swapaxes(a, 0, 1)):
            raise InvalidInputError("structure constants must satisfy c[j][k][l] = c[k][j][l]")
        if self.dim == 3 and not layout_close(a[:, 0, :], np.eye(3)):
            raise InvalidInputError("unital tensor must satisfy c[j][0][l] = delta_j^l")
        object.__setattr__(self, "c", a)


@dataclass(frozen=True)
class ResidualReport:
    """Named residual norms."""

    labels: tuple[str, ...]
    norms: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "norms", tuple(float(v) for v in self.norms))
        if len(self.labels) != len(self.norms):
            raise InvalidInputError("labels and norms must have equal length")
        for label, v in zip(self.labels, self.norms):
            if not math.isfinite(v) or v < 0.0:
                raise InvalidInputError(f"residual {label!r} is not a finite nonnegative norm")
        if len(set(self.labels)) != len(self.labels):
            dup = next(lab for i, lab in enumerate(self.labels) if lab in self.labels[:i])
            raise InvalidInputError(f"residual label {dup!r} occurs more than once")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.labels, self.norms))


def _pow(x, k: int):
    """x ** k, or the infinity numpy's float64 power gives where Python's raises OverflowError;
    on an array, per entry on Python floats, since ``array ** k`` may round differently."""
    if isinstance(x, np.ndarray):
        try:
            return np.array([v ** k for v in x.tolist()])
        except OverflowError:
            return np.array([_pow(v, k) for v in x.tolist()])
    try:
        return x ** k
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def trace_integrals(mat: np.ndarray) -> dict:
    """Trace invariants I_k = tr(M^k)/k, k = 1..3, of a Lax or transition matrix.

    One matrix gives floats; a stack of shape (..., k, k) gives arrays.
    """
    sq = mat @ mat
    t1, t2, t3 = (np.trace(m, axis1=-2, axis2=-1) for m in (mat, sq, sq @ mat))
    if mat.ndim == 2:
        t1, t2, t3 = float(t1), float(t2), float(t3)
    return {"I1": t1, "I2": t2 / 2.0, "I3": t3 / 3.0}


def frobenius(R: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of the (..., n, n) stack R, bit for bit, shaped (...):
    sqrt(r . r) as one batched dot, the dot np.linalg.norm takes on each flattened matrix."""
    flat = R.reshape(-1, 1, R.shape[-2] * R.shape[-1])
    return np.sqrt(flat @ flat.swapaxes(1, 2)).reshape(R.shape[:-2])


def assoc_residual(pair) -> float:
    """Frobenius norm of C1 C2 - C2 C1 (zero iff the product table is associative).

    Accepts a MatrixPair or a plain (C1, C2) tuple of square matrices.
    """
    if isinstance(pair, MatrixPair):
        C1, C2 = pair.C1, pair.C2
    else:
        C1, C2 = (float_array(f"C{k}", m) for k, m in enumerate(pair, 1))
    if C1.ndim != 2 or C1.shape[0] != C1.shape[1] or C1.shape != C2.shape:
        raise InvalidInputError(
            f"C1 and C2 must be square matrices of equal shape, got {C1.shape} and {C2.shape}"
        )
    return float(frobenius(C1 @ C2 - C2 @ C1))


def tensor_from_pair(pair: MatrixPair) -> StructTensor:
    """Expand a matrix pair into the full structure-constant tensor."""
    n = pair.n
    c = np.zeros((n, n, n))
    if pair.unital:
        c[0] = np.eye(n)
    c[-2], c[-1] = pair.C1.T, pair.C2.T   # after the unit's slice, if there is one
    return StructTensor(dim=n, c=c)


def pair_from_tensor(t: StructTensor) -> MatrixPair:
    """Read the multiplication matrices back off a structure-constant tensor."""
    return MatrixPair(t.dim, t.c[-2].T, t.c[-1].T)

"""The six deformation-driving algebras and their central-system residuals.

Each DDA is a three-dimensional real Lie algebra together with an
identification of (p1, p2, x); the commutator [p_j, .] then acts on
functions of the deformation parameter either trivially, as the scaling
derivative x d/dx, as d/dx paired with p1, or as a unit shift T / T^-1.
The induced central system on the multiplication matrices is

    L2a  [p1,x] = x                  x dC2/dx = C2 C1 - C1 C2   (Lax form)
    L3   [p2,x] = p1                 C1 dC1/dx = C1 C2 - C2 C1
    L2b  [p1,x] = p1                 C1 TC2 = C2 C1
    L4   [p1,x] = p1, [p2,x] = p2    C1 TC2 = C2 TC1
    L5   [p1,x] = p1, [p2,x] = -p2   C1 TC2 = C2 T^-1 C1

(all other brackets vanish), and L1 (the abelian algebra) drives no
deformation at all.  This module evaluates those residuals on sampled fields,
and the quantum, discrete and coisotropic residual operators on structure-constant
grids.  Each grid operator's defect view covers every point its stencil reaches (the
whole grid, the interior, or every lattice point with a +1 neighbour on each axis),
and its residual is the max-norm of that view.  The quantum and coisotropic ones
contract point-innermost; the coisotropic bracket takes three contractions, its other
three terms being index relabellings of them, and their max-norms run over blocks of
points, equal bit for bit to the max-norms of the full-array forms.

A ``SampledField`` holds its values as two read-only ``(N, n, n)`` stacks, C1
and C2.  Both constructors go through one load, which checks the stacks whole
and walks the values only to name the first bad one, so a field's values are
finite and well laid out whichever constructor built it.  ``pairs`` is a view
built on first read.  The residual stencils slice the stacks, and every
point's norm comes from one batched dot.
"""

from __future__ import annotations

import json
import stat
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .algebra_core import (MatrixPair, ResidualReport, _pow, finite_number, float_array,
                           is_index, layout_defect, one_of, positive_number)
from .errors import InvalidInputError, StencilRangeError, UnsupportedDDAError

OP_NONE = "none"
OP_SCALING_DERIVATIVE = "scaling_derivative"    # x d/dx
OP_DERIVATIVE_TIMES_P1 = "derivative_times_p1"  # d/dx . p1
OP_SHIFT = "shift"                              # T
OP_INVERSE_SHIFT = "inverse_shift"              # T^-1
_READS_BEHIND = {OP_SCALING_DERIVATIVE, OP_DERIVATIVE_TIMES_P1, OP_INVERSE_SHIFT}


@dataclass(frozen=True)
class DDASpec:
    """One identification of (p1, p2, x) inside a 3-dim Lie algebra."""

    id: str
    p1_action: str
    p2_action: str

    @property
    def discrete(self) -> bool:
        """p1 acts as the shift T, so the central system is a lattice map."""
        return self.p1_action == OP_SHIFT

    @property
    def stencil_reach(self) -> tuple[int, int]:
        """Grid neighbours (behind, ahead) that the central-system stencil reads.

        A derivative needs a central difference and T^-1 looks one site back, so
        L2a, L3 and L5 read one neighbour behind; every stencil reads one ahead.
        """
        return int(not _READS_BEHIND.isdisjoint((self.p1_action, self.p2_action))), 1


_REGISTRY = {spec.id: spec for spec in (
    DDASpec("L1", OP_NONE, OP_NONE),
    DDASpec("L2a", OP_SCALING_DERIVATIVE, OP_NONE),
    DDASpec("L2b", OP_SHIFT, OP_NONE),
    DDASpec("L3", OP_NONE, OP_DERIVATIVE_TIMES_P1),
    DDASpec("L4", OP_SHIFT, OP_SHIFT),
    DDASpec("L5", OP_SHIFT, OP_INVERSE_SHIFT),
)}


def lookup(dda_id: str) -> DDASpec:
    """Return the registry entry for one of L1, L2a, L2b, L3, L4, L5."""
    return one_of("dda", _REGISTRY, dda_id)


# Tolerance of a grid's spacing: relative to the first step for uniform spacing,
# absolute for unit spacing.
GRID_TOL = 1e-9


def grid_defect(spec: DDASpec, grid: np.ndarray) -> str | None:
    """The first rule that a grid of two or more points (or each row of a stack of
    them) breaks: strictly increasing, uniform, and unit-spaced for a discrete DDA."""
    steps = np.diff(grid, axis=-1)
    if np.any(steps <= 0.0):
        return "grid must be strictly increasing"
    h = steps[..., :1]
    if not np.all(np.abs(steps - h) <= GRID_TOL * h):   # np.allclose, at a fifth of the cost
        return "grid must be uniformly spaced"
    if spec.discrete and np.any(np.abs(h - 1.0) > GRID_TOL):
        return f"{spec.id} fields live on a unit-spaced grid"
    return None


def read_json(path: str | Path, what: str):
    """The JSON document in the regular file at ``path``, the one reader of scenario and
    field files; InvalidInputError naming the ``what`` file if it cannot be read or parsed."""
    p = Path(path)
    try:
        if "\0" in str(path):   # Path.stat raises ValueError on it, read as bad JSON below
            raise OSError(0, "embedded null byte")
        if not stat.S_ISREG(p.stat().st_mode):   # opening a FIFO or a device may block
            raise OSError(0, "not a regular file")
        return json.loads(p.read_text())
    except OSError as exc:   # missing, unreadable, an I/O error
        raise InvalidInputError(
            f"{what} file {str(path)!r} cannot be read: {exc.strerror}") from None
    except ValueError as exc:   # not UTF-8 or not JSON
        raise InvalidInputError(f"{what} file is not valid JSON: {exc}") from None


# The stacks of a field without values.
_NO_VALUES = np.zeros((0, 2, 2))
_NO_VALUES.setflags(write=False)


def _raise_first_bad_value(values: list) -> None:
    """Raise InvalidInputError for the first value of a field that is not a finite,
    well-laid-out pair of 2x2 or 3x3 matrices, checked in this order."""
    for i, v in enumerate(values):
        try:
            C1, C2 = (float_array(key, v[key]) for key in ("C1", "C2"))
        except (KeyError, TypeError, InvalidInputError):
            raise InvalidInputError(
                f"sampled field value {i} needs numeric matrices 'C1' and 'C2'") from None
        for key, mat in (("C1", C1), ("C2", C2)):
            if not np.all(np.isfinite(mat)):
                raise InvalidInputError(f"sampled field values[{i}].{key} has a non-finite entry")
        try:   # the size, shape and layout rules
            MatrixPair(len(C1) if C1.ndim else 0, C1, C2)
        except InvalidInputError as exc:
            raise InvalidInputError(f"sampled field values[{i}]: {exc}") from None


@dataclass(frozen=True, init=False)
class SampledField:
    """Matrix pairs sampled on a uniform 1-D grid of the deformation parameter, held as
    the read-only ``(N, n, n)`` stacks ``C1`` and ``C2`` of the N grid points."""

    dda: str
    grid: np.ndarray
    C1: np.ndarray
    C2: np.ndarray

    def __init__(self, dda: str, grid, pairs):
        """The field of the MatrixPairs ``pairs`` at the points of ``grid``."""
        self._load(dda, grid, [{"C1": p.C1, "C2": p.C2} for p in pairs])

    def _load(self, dda: str, grid, values: list) -> None:
        """The one load of both constructors: the types, the grid, the stacked values'
        shape, finiteness and layout (walking the values only to name the first bad one),
        then the DDA, the grid length, the size rule and the grid rules.  Sets the fields."""
        if not isinstance(dda, str):
            raise InvalidInputError("sampled field 'dda' must be a string")
        if not isinstance(values, list):
            raise InvalidInputError("sampled field 'values' must be a list")
        g = float_array("sampled field 'grid'", grid)
        try:
            C1, C2 = (float_array(key, [v[key] for v in values]) for key in ("C1", "C2"))
        except (KeyError, TypeError, InvalidInputError):
            C1 = C2 = None
        if not (C1 is not None and C1.ndim == 3 and C1.shape[1:] in ((2, 2), (3, 3))
                and C2.shape == C1.shape and np.isfinite(C1).all() and np.isfinite(C2).all()
                and not layout_defect(C1.shape[-1], C1, C2)):
            _raise_first_bad_value(values)
            # every value is sound on its own, so the stack failed on their sizes
            C1 = C2 = None if values else _NO_VALUES
        spec = lookup(dda)
        if g.ndim != 1 or g.size != len(values):
            raise InvalidInputError("grid and values must have equal length")
        if C1 is None:
            raise InvalidInputError("values must be all 2x2 or all 3x3 pairs")
        defect = grid_defect(spec, g) if g.size >= 2 else None
        if defect:
            raise InvalidInputError(defect)
        for name, value in zip(("dda", "grid", "C1", "C2"), (dda, g, C1, C2)):
            object.__setattr__(self, name, value)

    @cached_property
    def pairs(self) -> tuple[MatrixPair, ...]:
        """The values as MatrixPairs: a view of the stacks, built on first read."""
        n = self.C1.shape[-1]
        return tuple(MatrixPair(n, a, b) for a, b in zip(self.C1, self.C2))

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def to_json(self) -> dict:
        return {
            "dda": self.dda,
            "grid": self.grid.tolist(),
            "values": [{"C1": a, "C2": b} for a, b in zip(self.C1.tolist(), self.C2.tolist())],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SampledField":
        """The field of a JSON document, through the load of the pairs constructor."""
        if not isinstance(doc, dict):
            raise InvalidInputError("sampled field must be a JSON object")
        for key in ("dda", "grid", "values"):
            if key not in doc:
                raise InvalidInputError(f"sampled field is missing the {key!r} field")
        fld = cls.__new__(cls)
        fld._load(doc["dda"], doc["grid"], doc["values"])
        return fld

    @classmethod
    def load(cls, path: str | Path) -> "SampledField":
        """The field in a JSON file; InvalidInputError if it cannot be read or parsed."""
        return cls.from_json(read_json(path, "sampled field"))


# How far p2's action moves C1 in the discrete system C1 TC2 = C2 T_p2 C1.
_P2_SHIFT = {OP_NONE: 0, OP_SHIFT: 1, OP_INVERSE_SHIFT: -1}


def _cs_norms(spec: DDASpec, C1, C2, x: np.ndarray, spacing) -> list[float]:
    """Frobenius norm of the central-system defect R at P grid points x: second-order
    central differences for L2a/L3, exact shifted samples otherwise.

    C1[s] and C2[s] are the (P, n, n) stacks at the neighbours s = 0 (here), 1 (ahead)
    and -1 (behind; unused by L2b/L4); ``spacing`` is a float or (P, 1, 1) per point.
    """
    if spec.id == "L1":
        raise UnsupportedDDAError("L1 is abelian and generates no deformation")
    here1, here2 = C1[0], C2[0]
    # an overflow shows as a non-finite norm, which ResidualReport rejects by name
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.discrete:
            R = here1 @ C2[1] - here2 @ C1[_P2_SHIFT[spec.p2_action]]
        elif spec.id == "L2a":
            dC2 = (C2[1] - C2[-1]) / (2.0 * spacing)
            R = x[:, None, None] * dC2 - (here2 @ here1 - here1 @ here2)
        else:  # L3
            dC1 = (C1[1] - C1[-1]) / (2.0 * spacing)
            R = here1 @ dC1 - (here1 @ here2 - here2 @ here1)
        return _frobenius(R)


def _frobenius(R: np.ndarray) -> list[float]:
    """np.linalg.norm of each matrix of the (P, n, n) stack R, bit for bit: sqrt(r . r)
    as one batched dot, the dot np.linalg.norm takes on each flattened matrix."""
    flat = R.reshape(len(R), 1, R.shape[-2] * R.shape[-1])
    return np.sqrt(flat @ flat.swapaxes(1, 2)).ravel().tolist()


def _field_norms(spec: DDASpec, fld: SampledField, lo: int, hi: int) -> list[float]:
    """_cs_norms at the field's grid points lo <= i < hi."""
    near = [slice(lo + s, hi + s) for s in (0, 1, -1)[:2 + spec.stencil_reach[0]]]
    return _cs_norms(spec, [fld.C1[s] for s in near], [fld.C2[s] for s in near],
                     fld.grid[lo:hi], fld.spacing)


def cs_residual(dda: str, fld: SampledField, i: int) -> ResidualReport:
    """Residual norm of the DDA's central system at interior grid point i."""
    spec = lookup(dda)
    if not is_index(i):
        raise InvalidInputError(f"point must be an integer, got {i!r}")
    behind, ahead = spec.stencil_reach
    if not behind <= i < len(fld.grid) - ahead:
        raise StencilRangeError(
            f"point {i} lacks the neighbours needed by the {spec.id} stencil"
        )
    return ResidualReport(labels=(f"{spec.id}_cs",), norms=_field_norms(spec, fld, i, i + 1))


def cs_residual_scan(dda: str, fld: SampledField) -> ResidualReport:
    """Residual norms of the DDA's central system at every interior point, labelled i=<k>."""
    spec = lookup(dda)
    behind, ahead = spec.stencil_reach
    lo, hi = behind, len(fld.grid) - ahead
    if hi <= lo:
        raise StencilRangeError(f"field has no interior points for the {spec.id} stencil")
    return ResidualReport(labels=tuple(f"i={i}" for i in range(lo, hi)),
                          norms=_field_norms(spec, fld, lo, hi))


# ---------------------------------------------------------------------------
# Multi-parameter residual operators (quantum / coisotropic / discrete).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorGrid:
    """Structure constants c[..., j, k, l] sampled on an integer or uniform grid.

    The leading axes enumerate the deformation parameters x^1..x^M; the three
    trailing axes are the algebra indices of C_jk^l.  When the algebra has one
    more index than the grid has axes, index 0 is the unit direction: it owns
    no deformation parameter, so derivatives and shifts along it vanish.
    """

    c: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        a = float_array("tensor grid c", self.c)
        if a.ndim < 4:
            raise InvalidInputError("tensor grid needs at least one grid axis")
        n, m = a.shape[-1], a.ndim - 3
        if a.shape[-3:] != (n, n, n):
            raise InvalidInputError("trailing axes must be (n, n, n)")
        if n - m not in (0, 1):
            raise InvalidInputError(f"{m} grid axes cannot drive an algebra with {n} indices")
        if not np.isfinite(a).all():   # named like a sampled field's bad value
            first = np.argwhere(~np.isfinite(a))[0].tolist()
            raise InvalidInputError(f"tensor grid entry c{first} is not finite")
        positive_number("spacing", self.spacing)
        object.__setattr__(self, "c", a)

    @property
    def n(self) -> int:
        return self.c.shape[-1]

    @property
    def grid_dims(self) -> int:
        return self.c.ndim - 3

    @property
    def index_offset(self) -> int:
        """Number of leading algebra indices without a grid direction (0 or 1)."""
        return self.n - self.grid_dims


def _grid_last(a: np.ndarray, dims: int) -> np.ndarray:
    """A contiguous copy of a[grid..., idx...] indexed [idx..., grid...]; flattened to
    [idx..., z], it lets every contraction below run point-innermost."""
    return np.ascontiguousarray(np.moveaxis(a, tuple(range(dims)), tuple(range(-dims, 0))))


def _points_first(a: np.ndarray, grid_shape: tuple[int, ...]) -> np.ndarray:
    """The view of a[idx..., z] indexed [grid..., idx...]."""
    return np.moveaxis(a, -1, 0).reshape(grid_shape + a.shape[:-1])


def _interior_points(tg: TensorGrid) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """c[j, k, n, z] and d[a, j, k, n, z] = dC_jk^n/dx^a (central differences; 0 where
    index a has no grid axis) at the interior points z, and the interior grid shape."""
    dims, n = tg.grid_dims, tg.n
    c, mid = _grid_last(tg.c, dims), (slice(1, -1),) * dims
    here = np.ascontiguousarray(c[(...,) + mid])
    d = np.zeros((n,) + here.shape)
    for a in range(dims):
        ahead, behind = (c[(...,) + mid[:a] + (s,) + mid[a + 1:]]
                         for s in (slice(2, None), slice(0, -2)))
        d[tg.index_offset + a] = (ahead - behind) / (2.0 * tg.spacing)
    return here.reshape(n, n, n, -1), d.reshape(n, n, n, n, -1), here.shape[3:]


def _assoc_defect(c: np.ndarray) -> np.ndarray:
    """sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n), indexed [j, k, l, n, z], of c[j, k, m, z]."""
    out = np.einsum("jkmz,mlnz->jklnz", c, c)
    out -= np.einsum("klmz,jmnz->jklnz", c, c)
    return out


_BLOCK_DOUBLES = 1 << 15   # about the size of a point block's bracket, n**5 doubles a point


@np.errstate(over="ignore", invalid="ignore")   # a non-finite norm is rejected by name
def _max_norms(tg: TensorGrid, terms: dict) -> ResidualReport:
    """The report of max |f(c, d)| over the interior points for each ``label: f`` of ``terms``,
    taken block by block along the point axis z; a NaN propagates, no points give 0.0."""
    c, d, _ = _interior_points(tg)
    step = max(1, _BLOCK_DOUBLES // _pow(tg.n, 5))
    maxima = [[np.max(np.abs(f(c[..., i:i + step], d[..., i:i + step]))) for f in terms.values()]
              for i in range(0, c.shape[-1], step)]
    return ResidualReport(labels=tuple(terms),
                          norms=np.max(maxima, axis=0) if maxima else [0.0] * len(terms))


def assoc_defect_grid(tg: TensorGrid) -> np.ndarray:
    """Pointwise associativity defect sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n)."""
    c = _grid_last(tg.c, tg.grid_dims).reshape(tg.n, tg.n, tg.n, -1)
    return _points_first(_assoc_defect(c), tg.c.shape[:tg.grid_dims])


def _quantum_terms(c: np.ndarray, d: np.ndarray, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """hbar dC_jk^n/dx^l - hbar dC_kl^n/dx^j and sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n),
    both indexed [j, k, l, n, z], of c[j, k, m, z] and d[l, j, k, n, z] = dC_jk^n/dx^l."""
    return hbar * (d.transpose(1, 2, 0, 3, 4) - d), _assoc_defect(c)


def quantum_cs_parts(tg: TensorGrid, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Derivative and quadratic parts of the quantum central system, indexed [interior
    grid..., k, l, j, n]; their sum is the defect hbar dC_jk^n/dx^l - hbar dC_kl^n/dx^j
    + sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n). hbar must be a ``finite_number`` (0 is one)."""
    finite_number("hbar", hbar)
    c, d, inner = _interior_points(tg)
    return tuple(_points_first(np.moveaxis(a, 0, 2), inner) for a in _quantum_terms(c, d, hbar))


def quantum_cs_residual(tg: TensorGrid, hbar: float) -> ResidualReport:
    """Max-norm residual of the quantum central system over interior points."""
    finite_number("hbar", hbar)
    return _max_norms(tg, {"quantum_cs_max": lambda c, d: np.add(*_quantum_terms(c, d, hbar))})


def _bracket(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The six-term bracket [C,C]_jklr^m, indexed [j, k, l, r, m, z], in three contractions."""
    t1 = np.einsum("sjmz,klrsz->jklrmz", c, d)  # C_sj^m dC_lr^s/dx^k
    t3 = np.einsum("srmz,ljksz->jklrmz", c, d)  # C_sr^m dC_jk^s/dx^l
    t5 = np.einsum("lrsz,sjkmz->jklrmz", c, d)  # C_lr^s dC_jk^m/dx^s
    out = t1 + t1.swapaxes(0, 1)            # term 2 is term 1 with j<->k,
    out -= t3
    out -= t3.swapaxes(2, 3)                # term 4 is term 3 with l<->r
    out += t5
    out -= t5.transpose(2, 3, 0, 1, 4, 5)   # and term 6 is term 5 with (j, k)<->(l, r)
    return out


def coisotropic_bracket_defect(tg: TensorGrid) -> np.ndarray:
    """The six-term bracket [C,C]_jklr^m on the interior, indexed [..., j, k, l, r, m]."""
    c, d, inner = _interior_points(tg)
    return _points_first(_bracket(c, d), inner)


def coisotropic_cs_residual(tg: TensorGrid) -> ResidualReport:
    """Max-norm residuals of the coisotropic central system (bracket + algebraic part)."""
    return _max_norms(tg, {"coisotropic_bracket_max": _bracket,
                           "assoc_defect_max": lambda c, d: _assoc_defect(c)})


def discrete_cs_defect(tg: TensorGrid) -> dict[tuple[int, int], np.ndarray]:
    """C_l T_lC_j - C_j T_jC_l for j > l at every lattice point that has a +1 neighbour on
    each axis, each indexed [point..., row, column]; the matrix C_j has row l, column k
    holding c[j][k][l], and an index without a grid axis is not shifted."""
    hi = tuple(s - 1 for s in tg.c.shape[:tg.grid_dims])
    if min(hi) < 1:
        raise StencilRangeError("lattice too small for the forward-shift stencil")
    mats = np.swapaxes(tg.c, -1, -2)

    def window(axis: int) -> np.ndarray:
        return mats[tuple(slice(int(ax == axis), b + (ax == axis)) for ax, b in enumerate(hi))]

    here = window(-1)
    shifted = [window(j - tg.index_offset) for j in range(tg.n)]
    return {(j, l): here[..., l, :, :] @ shifted[l][..., j, :, :]
            - here[..., j, :, :] @ shifted[j][..., l, :, :]
            for l in range(tg.n) for j in range(l + 1, tg.n)}


@np.errstate(over="ignore", invalid="ignore")
def discrete_cs_residual(tg: TensorGrid) -> ResidualReport:
    """Max residual of the discrete central system per index pair (j, l): the largest
    Frobenius norm of each matrix stack of ``discrete_cs_defect``."""
    norms = {f"discrete_cs[{j},{l}]": np.max(np.linalg.norm(m, axis=(-2, -1)))
             for (j, l), m in sorted(discrete_cs_defect(tg).items())}
    return ResidualReport(labels=tuple(norms), norms=tuple(norms.values()))

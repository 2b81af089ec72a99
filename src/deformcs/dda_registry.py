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
deformation at all.  This module
evaluates those residuals on sampled fields, plus the three multi-parameter
residual operators for quantum, discrete and coisotropic deformations on
full structure-constant grids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra_core import MatrixPair, ResidualReport
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


_REGISTRY = {
    "L1": DDASpec("L1", OP_NONE, OP_NONE),
    "L2a": DDASpec("L2a", OP_SCALING_DERIVATIVE, OP_NONE),
    "L2b": DDASpec("L2b", OP_SHIFT, OP_NONE),
    "L3": DDASpec("L3", OP_NONE, OP_DERIVATIVE_TIMES_P1),
    "L4": DDASpec("L4", OP_SHIFT, OP_SHIFT),
    "L5": DDASpec("L5", OP_SHIFT, OP_INVERSE_SHIFT),
}


def lookup(dda_id: str) -> DDASpec:
    """Return the registry entry for one of L1, L2a, L2b, L3, L4, L5."""
    try:
        return _REGISTRY[dda_id]
    except KeyError:
        raise InvalidInputError(f"unknown dda {dda_id!r}") from None


def grid_defect(spec: DDASpec, grid: np.ndarray) -> str | None:
    """The first rule that a grid of two or more points (or each row of a stack of
    them) breaks: strictly increasing, uniform, and unit-spaced for a discrete DDA."""
    steps = np.diff(grid, axis=-1)
    if np.any(steps <= 0.0):
        return "grid must be strictly increasing"
    h = steps[..., :1]
    if not np.all(np.abs(steps - h) <= 1e-9 * h):   # np.allclose, at a fifth of the cost
        return "grid must be uniformly spaced"
    if spec.discrete and np.any(np.abs(h - 1.0) > 1e-9):
        return f"{spec.id} fields live on a unit-spaced grid"
    return None


@dataclass(frozen=True)
class SampledField:
    """Matrix pairs sampled on a uniform 1-D grid of the deformation parameter."""

    dda: str
    grid: np.ndarray
    pairs: tuple[MatrixPair, ...]

    def __post_init__(self):
        spec = lookup(self.dda)
        g = np.array(self.grid, dtype=float)
        if g.ndim != 1 or g.size != len(self.pairs):
            raise InvalidInputError("grid and values must have equal length")
        if len({p.n for p in self.pairs}) > 1:
            raise InvalidInputError("values must be all 2x2 or all 3x3 pairs")
        defect = grid_defect(spec, g) if g.size >= 2 else None
        if defect:
            raise InvalidInputError(defect)
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "pairs", tuple(self.pairs))

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def to_json(self) -> dict:
        return {
            "dda": self.dda,
            "grid": [float(x) for x in self.grid],
            "values": [
                {"C1": p.C1.tolist(), "C2": p.C2.tolist()} for p in self.pairs
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SampledField":
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
            grid = np.array(doc["grid"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInputError("sampled field 'grid' must be a list of numbers") from None
        pairs = []
        for i, v in enumerate(doc["values"]):
            try:
                C1, C2 = (np.array(v[key], dtype=float) for key in ("C1", "C2"))
            except (KeyError, TypeError, ValueError, OverflowError):
                raise InvalidInputError(
                    f"sampled field value {i} needs numeric matrices 'C1' and 'C2'") from None
            for key, mat in (("C1", C1), ("C2", C2)):
                if not np.all(np.isfinite(mat)):
                    raise InvalidInputError(
                        f"sampled field values[{i}].{key} has a non-finite entry")
            pairs.append(MatrixPair(len(C1) if C1.ndim else 0, C1, C2))
        return cls(dda=doc["dda"], grid=grid, pairs=tuple(pairs))

    @classmethod
    def load(cls, path: str | Path) -> "SampledField":
        try:
            doc = json.loads(Path(path).read_text())
        except ValueError as exc:  # not UTF-8 or not JSON
            raise InvalidInputError(f"sampled field file is not valid JSON: {exc}") from None
        return cls.from_json(doc)


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
        return [float(np.linalg.norm(r)) for r in R]


def _field_norms(spec: DDASpec, fld: SampledField, lo: int, hi: int) -> list[float]:
    """_cs_norms at the field's grid points lo <= i < hi."""
    behind, ahead = spec.stencil_reach
    pairs = fld.pairs[lo - behind:hi + ahead]
    C1 = np.array([p.C1 for p in pairs])
    C2 = np.array([p.C2 for p in pairs])
    near = [slice(behind + s, behind + s + hi - lo) for s in (0, 1, -1)[:2 + behind]]
    return _cs_norms(spec, [C1[s] for s in near], [C2[s] for s in near],
                     fld.grid[lo:hi], fld.spacing)


def cs_residual(dda: DDASpec | str, fld: SampledField, i: int) -> ResidualReport:
    """Residual norm of the DDA's central system at interior grid point i."""
    spec = lookup(dda) if isinstance(dda, str) else dda
    behind, ahead = spec.stencil_reach
    if not behind <= i < len(fld.pairs) - ahead:
        raise StencilRangeError(
            f"point {i} lacks the neighbours needed by the {spec.id} stencil"
        )
    return ResidualReport(labels=(f"{spec.id}_cs",), norms=_field_norms(spec, fld, i, i + 1))


def cs_residual_scan(dda: DDASpec | str, fld: SampledField) -> ResidualReport:
    """Residual norms of the DDA's central system at every interior point, labelled i=<k>."""
    spec = lookup(dda) if isinstance(dda, str) else dda
    behind, ahead = spec.stencil_reach
    lo, hi = behind, len(fld.pairs) - ahead
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
        a = np.array(self.c, dtype=float)
        if a.ndim < 4:
            raise InvalidInputError("tensor grid needs at least one grid axis")
        n = a.shape[-1]
        if a.shape[-3:] != (n, n, n):
            raise InvalidInputError("trailing axes must be (n, n, n)")
        m = a.ndim - 3
        if n - m not in (0, 1):
            raise InvalidInputError(
                f"{m} grid axes cannot drive an algebra with {n} indices"
            )
        if not 0.0 < self.spacing < np.inf:
            raise InvalidInputError(f"spacing must be positive and finite, got {self.spacing}")
        a.setflags(write=False)
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
    c = _grid_last(tg.c, dims)
    inner = tuple(s - 2 for s in tg.c.shape[:dims])
    d = np.zeros((n, n, n, n) + inner)
    for j in range(tg.index_offset, n):
        plus = [slice(1, -1)] * dims
        minus = [slice(1, -1)] * dims
        plus[j - tg.index_offset] = slice(2, None)
        minus[j - tg.index_offset] = slice(0, -2)
        d[j] = (c[(...,) + tuple(plus)] - c[(...,) + tuple(minus)]) / (2.0 * tg.spacing)
    here = np.ascontiguousarray(c[(...,) + (slice(1, -1),) * dims])
    return here.reshape(n, n, n, -1), d.reshape(n, n, n, n, -1), inner


def _assoc_defect(c: np.ndarray) -> np.ndarray:
    """sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n), indexed [j, k, l, n, z], of c[j, k, m, z]."""
    out = np.einsum("jkmz,mlnz->jklnz", c, c)
    out -= np.einsum("klmz,jmnz->jklnz", c, c)
    return out


def assoc_defect_grid(tg: TensorGrid) -> np.ndarray:
    """Pointwise associativity defect sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n)."""
    dims, n = tg.grid_dims, tg.n
    c = _grid_last(tg.c, dims).reshape(n, n, n, -1)
    return _points_first(_assoc_defect(c), tg.c.shape[:dims])


def quantum_cs_parts(tg: TensorGrid, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Derivative and quadratic parts of the quantum central system.

    Returns arrays indexed [interior grid..., k, l, j, n]; their sum is the
    defect hbar dC_jk^n/dx^l - hbar dC_kl^n/dx^j
    + sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n).
    """
    c, diffs, inner = _interior_points(tg)   # diffs [l, j, k, n, z]
    deriv = hbar * (np.einsum("ljknz->kljnz", diffs) - np.einsum("jklnz->kljnz", diffs))
    quad = np.einsum("jklnz->kljnz", _assoc_defect(c))
    return _points_first(deriv, inner), _points_first(quad, inner)


def quantum_cs_residual(tg: TensorGrid, hbar: float) -> ResidualReport:
    """Max-norm residual of the quantum central system over interior points."""
    deriv, quad = quantum_cs_parts(tg, hbar)
    value = float(np.max(np.abs(deriv + quad))) if deriv.size else 0.0
    return ResidualReport(labels=("quantum_cs_max",), norms=(value,))


def _bracket(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The six-term bracket [C,C]_jklr^m, indexed [j, k, l, r, m, z], summed in place."""
    out = np.einsum("sjmz,klrsz->jklrmz", c, d)  # C_sj^m dC_lr^s/dx^k
    term = np.empty_like(out)
    for sign, spec in ((1, "skmz,jlrsz->jklrmz"),
                       (-1, "srmz,ljksz->jklrmz"),   # C_sr^m dC_jk^s/dx^l
                       (-1, "slmz,rjksz->jklrmz"),
                       (1, "lrsz,sjkmz->jklrmz"),    # C_lr^s dC_jk^m/dx^s
                       (-1, "jksz,slrmz->jklrmz")):
        np.einsum(spec, c, d, out=term)
        if sign > 0:
            out += term
        else:
            out -= term
    return out


def coisotropic_bracket_defect(tg: TensorGrid) -> np.ndarray:
    """The six-term bracket [C,C]_jklr^m on the interior, indexed [..., j, k, l, r, m]."""
    c, d, inner = _interior_points(tg)
    return _points_first(_bracket(c, d), inner)


def coisotropic_cs_residual(tg: TensorGrid) -> ResidualReport:
    """Max-norm residuals of the coisotropic central system (bracket + algebraic part)."""
    c, d, _ = _interior_points(tg)
    bracket, assoc = _bracket(c, d), _assoc_defect(c)
    b = float(np.max(np.abs(bracket))) if bracket.size else 0.0
    a = float(np.max(np.abs(assoc))) if assoc.size else 0.0
    return ResidualReport(labels=("coisotropic_bracket_max", "assoc_defect_max"), norms=(b, a))


def _discrete_defects(tg: TensorGrid, lo: tuple[int, ...],
                      hi: tuple[int, ...]) -> dict[tuple[int, int], np.ndarray]:
    """C_l T_lC_j - C_j T_jC_l for j > l at every lattice point p with lo <= p < hi.

    Each value is indexed [point..., row, column]; the matrix C_j has row l,
    column k holding c[j][k][l], and an index without a grid axis is not shifted.
    """
    mats = np.swapaxes(tg.c, -1, -2)

    def window(axis: int) -> np.ndarray:
        return mats[tuple(slice(a + (ax == axis), b + (ax == axis))
                          for ax, (a, b) in enumerate(zip(lo, hi)))]

    here = window(-1)
    shifted = [window(j - tg.index_offset) for j in range(tg.n)]
    return {(j, l): here[..., l, :, :] @ shifted[l][..., j, :, :]
            - here[..., j, :, :] @ shifted[j][..., l, :, :]
            for l in range(tg.n) for j in range(l + 1, tg.n)}


def discrete_cs_defect(tg: TensorGrid, point: tuple[int, ...]) -> dict[tuple[int, int], np.ndarray]:
    """Residual matrices C_l T_lC_j - C_j T_jC_l at one interior lattice point."""
    dims = tg.grid_dims
    if len(point) != dims:
        raise InvalidInputError(f"lattice point must have {dims} coordinates")
    for ax, p in enumerate(point):
        if not 0 <= p < tg.c.shape[ax] - 1:
            raise StencilRangeError(f"point {point} lacks a +1 neighbour on axis {ax}")
    defects = _discrete_defects(tg, tuple(point), tuple(p + 1 for p in point))
    return {pair: mat[(0,) * dims] for pair, mat in defects.items()}


def discrete_cs_residual(tg: TensorGrid) -> ResidualReport:
    """Max residual of the discrete central system per index pair (j, l)."""
    dims = tg.grid_dims
    interior_shape = tuple(s - 1 for s in tg.c.shape[:dims])
    if any(s < 1 for s in interior_shape):
        raise StencilRangeError("lattice too small for the forward-shift stencil")
    defects = _discrete_defects(tg, (0,) * dims, interior_shape)
    pairs = sorted(defects)
    return ResidualReport(
        labels=tuple(f"discrete_cs[{j},{l}]" for j, l in pairs),
        norms=tuple(float(np.max(np.linalg.norm(defects[p], axis=(-2, -1)))) for p in pairs),
    )

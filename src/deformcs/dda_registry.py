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

from .algebra_core import DEGENERACY_TOL, MatrixPair, ResidualReport, trace_integrals
from .errors import InvalidInputError, StencilRangeError, UnsupportedDDAError

OP_NONE = "none"
OP_SCALING_DERIVATIVE = "scaling_derivative"    # x d/dx
OP_DERIVATIVE_TIMES_P1 = "derivative_times_p1"  # d/dx . p1
OP_SHIFT = "shift"                              # T
OP_INVERSE_SHIFT = "inverse_shift"              # T^-1


@dataclass(frozen=True)
class DDASpec:
    """One identification of (p1, p2, x) inside a 3-dim Lie algebra."""

    id: str
    p1_action: str
    p2_action: str

    @property
    def discrete(self) -> bool:
        return self.id in ("L2b", "L4", "L5")

    @property
    def stencil_reach(self) -> tuple[int, int]:
        """Grid neighbours (behind, ahead) that the central-system stencil reads.

        L2a/L3 need a central difference, L5 looks both ways, L2b/L4 only ahead.
        """
        return (1 if self.id in ("L2a", "L3", "L5") else 0), 1


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
        if g.size >= 2:
            steps = np.diff(g)
            if np.any(steps <= 0.0):
                raise InvalidInputError("grid must be strictly increasing")
            h = steps[0]
            if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
                raise InvalidInputError("grid must be uniformly spaced")
            if spec.discrete and abs(h - 1.0) > 1e-9:
                raise InvalidInputError(f"{self.dda} fields live on a unit-spaced grid")
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
            pairs.append(MatrixPair(len(C1) if C1.ndim else 0, C1, C2))
        return cls(dda=doc["dda"], grid=grid, pairs=tuple(pairs))

    @classmethod
    def load(cls, path: str | Path) -> "SampledField":
        try:
            doc = json.loads(Path(path).read_text())
        except ValueError as exc:  # not UTF-8 or not JSON
            raise InvalidInputError(f"sampled field file is not valid JSON: {exc}") from None
        return cls.from_json(doc)


def cs_residual(dda: DDASpec | str, fld: SampledField, i: int) -> ResidualReport:
    """Residual norm of the DDA's central system at interior grid point i.

    Continuous DDAs use second-order central differences on the grid;
    discrete DDAs evaluate the shifted samples exactly.
    """
    spec = lookup(dda) if isinstance(dda, str) else dda
    if spec.id == "L1":
        raise UnsupportedDDAError("L1 is abelian and generates no deformation")
    behind, ahead = spec.stencil_reach
    if not behind <= i < len(fld.pairs) - ahead:
        raise StencilRangeError(
            f"point {i} lacks the neighbours needed by the {spec.id} stencil"
        )

    here = fld.pairs[i]
    C1, C2 = here.C1, here.C2
    integrals: dict[str, float] = {"det_C1": float(np.linalg.det(C1))}

    if spec.id == "L2a":
        h = fld.spacing
        dC2 = (fld.pairs[i + 1].C2 - fld.pairs[i - 1].C2) / (2.0 * h)
        R = fld.grid[i] * dC2 - (C2 @ C1 - C1 @ C2)
        integrals.update(trace_integrals(C2))
    elif spec.id == "L3":
        h = fld.spacing
        dC1 = (fld.pairs[i + 1].C1 - fld.pairs[i - 1].C1) / (2.0 * h)
        R = C1 @ dC1 - (C1 @ C2 - C2 @ C1)
        integrals.update(trace_integrals(C1))
    elif spec.id == "L2b":
        R = C1 @ fld.pairs[i + 1].C2 - C2 @ C1
        integrals.update(trace_integrals(C2))
        integrals["det_C2"] = float(np.linalg.det(C2))
    elif spec.id == "L4":
        R = C1 @ fld.pairs[i + 1].C2 - C2 @ fld.pairs[i + 1].C1
        if abs(integrals["det_C1"]) > DEGENERACY_TOL:
            integrals.update(trace_integrals(C2 @ np.linalg.inv(C1)))
    else:  # L5
        R = C1 @ fld.pairs[i + 1].C2 - C2 @ fld.pairs[i - 1].C1
        integrals.update(trace_integrals(C1 @ fld.pairs[i + 1].C2))
    return ResidualReport(
        labels=(f"{spec.id}_cs",),
        norms=(float(np.linalg.norm(R)),),
        integrals=integrals,
    )


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
        if self.spacing <= 0.0:
            raise InvalidInputError("grid spacing must be positive")
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


def _interior(a: np.ndarray, dims: int) -> np.ndarray:
    """Trim one cell off every grid axis."""
    sl = tuple(slice(1, -1) for _ in range(dims)) + (Ellipsis,)
    return a[sl]


def _central_diffs(tg: TensorGrid) -> list[np.ndarray]:
    """d c / d x^j on the interior, for every algebra index j (0 where static)."""
    dims = tg.grid_dims
    shape = _interior(tg.c, dims).shape
    diffs = []
    for j in range(tg.n):
        axis = j - tg.index_offset
        if axis < 0:
            diffs.append(np.zeros(shape))
            continue
        plus = [slice(1, -1)] * dims
        minus = [slice(1, -1)] * dims
        plus[axis] = slice(2, None)
        minus[axis] = slice(0, -2)
        d = (tg.c[tuple(plus)] - tg.c[tuple(minus)]) / (2.0 * tg.spacing)
        diffs.append(d)
    return diffs


def assoc_defect_grid(tg: TensorGrid) -> np.ndarray:
    """Pointwise associativity defect sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n)."""
    c = tg.c
    return np.einsum("...jkm,...mln->...jkln", c, c) - np.einsum(
        "...klm,...jmn->...jkln", c, c
    )


def quantum_cs_parts(tg: TensorGrid, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Derivative and quadratic parts of the quantum central system.

    Returns arrays indexed [interior grid..., k, l, j, n]; their sum is the
    defect hbar dC_jk^n/dx^l - hbar dC_kl^n/dx^j
    + sum_m (C_jk^m C_ml^n - C_kl^m C_jm^n).
    """
    dims = tg.grid_dims
    diffs = np.stack(_central_diffs(tg), axis=dims)  # [..., l, j, k, n]
    deriv = hbar * (
        np.einsum("...ljkn->...kljn", diffs) - np.einsum("...jkln->...kljn", diffs)
    )
    quad = np.einsum("...jkln->...kljn", _interior(assoc_defect_grid(tg), dims))
    return deriv, quad


def quantum_cs_residual(tg: TensorGrid, hbar: float) -> ResidualReport:
    """Max-norm residual of the quantum central system over interior points."""
    deriv, quad = quantum_cs_parts(tg, hbar)
    value = float(np.max(np.abs(deriv + quad))) if deriv.size else 0.0
    return ResidualReport(labels=("quantum_cs_max",), norms=(value,))


def coisotropic_bracket_defect(tg: TensorGrid) -> np.ndarray:
    """The six-term bracket [C,C]_jklr^m on the interior, indexed [..., j, k, l, r, m]."""
    dims = tg.grid_dims
    c = _interior(tg.c, dims)
    d = np.stack(_central_diffs(tg), axis=dims)  # [..., axis, j, k, n] = dC_jk^n/dx^axis
    t1 = np.einsum("...sjm,...klrs->...jklrm", c, d)  # C_sj^m dC_lr^s/dx^k
    t2 = np.einsum("...skm,...jlrs->...jklrm", c, d)
    t3 = np.einsum("...srm,...ljks->...jklrm", c, d)  # C_sr^m dC_jk^s/dx^l
    t4 = np.einsum("...slm,...rjks->...jklrm", c, d)
    t5 = np.einsum("...lrs,...sjkm->...jklrm", c, d)  # C_lr^s dC_jk^m/dx^s
    t6 = np.einsum("...jks,...slrm->...jklrm", c, d)
    return t1 + t2 - t3 - t4 + t5 - t6


def coisotropic_cs_residual(tg: TensorGrid) -> ResidualReport:
    """Max-norm residuals of the coisotropic central system (bracket + algebraic part)."""
    bracket = coisotropic_bracket_defect(tg)
    assoc = _interior(assoc_defect_grid(tg), tg.grid_dims)
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

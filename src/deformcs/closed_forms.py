"""Explicit solution families of the central systems and their validators.

Five families are catalogued:

    Nilpotent3x3   log-family solving the six-equation 3x3 flow with A=B=C=0
    Nilpotent2x2   log-family solving the 2x2 flow with B=C=0
    UpperTri2x2    rational family solving the 2x2 flow with B=1, C=0
    PolyL3         polynomial family solving the simple L3 flow (M=N=0);
                   the quadratic coefficient of C is -alpha (the printed
                   -y^2 form is the alpha=1 member and can be requested
                   with printed_form=true, but does not solve the flow
                   for other alpha)
    GaugeL5        gauge fields C_j = g^-1 T_j g built from three
                   polynomials Phi^m, solving the L5 system exactly

``validate_family`` feeds every family back into its governing system:
finite differences for the log/rational families, analytic derivatives
for PolyL3, and exact shifts for GaugeL5.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .algebra_core import (DEGENERACY_TOL, MatrixPair, ResidualReport, entry_stacks,
                           layout_defect)
from .dda_registry import SampledField, _cs_norms, cs_residual, grid_defect, lookup
from .discrete_flows import _first, gauge_pairs
from .errors import DeformError, InvalidInputError, SingularGaugeError

LOG_DOMAIN_TOL = 1e-9       # |ln x| must exceed this for the log families
CONSTRAINT_TOL = 1e-12      # PolyL3 unimodularity at construction

_FAMILY_PARAMS = {
    "Nilpotent3x3": ("alpha", "beta", "gamma", "delta", "mu"),
    "Nilpotent2x2": ("alpha", "beta", "gamma"),
    "UpperTri2x2": ("alpha", "beta", "gamma", "delta"),
    "PolyL3": ("alpha", "beta", "gamma", "delta", "printed_form"),   # the last a bool
    "GaugeL5": ("phi0", "phi1", "phi2"),   # each a list of polynomial coefficients
}
FAMILY_IDS = tuple(_FAMILY_PARAMS)
_FAMILY_N = {"Nilpotent3x3": 3, "Nilpotent2x2": 2, "UpperTri2x2": 2, "PolyL3": 2, "GaugeL5": 3}


def is_finite_number(v) -> bool:
    """An int or float that is finite as a float: no bool, NaN, infinity or huge integer."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass(frozen=True)
class SolutionFamily:
    """One catalogued closed-form solution with its parameter values."""

    id: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in FAMILY_IDS:
            raise InvalidInputError(f"unknown solution family {self.id!r}")
        unknown = set(self.params) - set(_FAMILY_PARAMS[self.id])
        if unknown:
            raise InvalidInputError(f"{self.id} has no parameters {sorted(unknown)}")
        missing = [key for key in _FAMILY_PARAMS[self.id] if key not in self.params]
        if self.id == "GaugeL5" and missing:   # the other families read a missing one as 0
            raise InvalidInputError(f"GaugeL5 needs polynomial coefficients {missing[0]!r}")
        for name, v in self.params.items():
            if name == "printed_form":   # PolyL3 only
                kind, ok = "true or false", isinstance(v, bool)
            elif self.id == "GaugeL5":
                c = v.tolist() if isinstance(v, np.ndarray) else v
                kind = "a nonempty list of finite numbers"
                ok = isinstance(c, (list, tuple)) and c and all(map(is_finite_number, c))
            else:
                kind, ok = "a finite number", is_finite_number(v)
            if not ok:
                raise InvalidInputError(f"{self.id} parameter {name!r} must be {kind}, got {v!r}")
        if self.id == "UpperTri2x2" and self.p("beta") == 0.0:
            raise InvalidInputError("UpperTri2x2 requires beta != 0")
        if self.id == "PolyL3":
            defect = self.p("beta") * self.p("gamma") - self.p("alpha") * self.p("delta") - 1.0
            if abs(defect) > CONSTRAINT_TOL:
                raise InvalidInputError(
                    f"PolyL3 requires beta*gamma - alpha*delta = 1 (defect {defect:.3e})"
                )

    def p(self, name: str, default: float = 0.0) -> float:
        return float(self.params.get(name, default))


def _log_var(x):
    """ln x at one point, or at each point of an array (math.log per point: np.log may
    differ in the last bit); raises at the first point off the log domain."""
    if isinstance(x, np.ndarray):
        return np.array([_log_var(v) for v in x])
    if x <= 0.0:
        raise InvalidInputError(f"log families need x > 0, got {x}")
    t = math.log(x)
    if abs(t) < LOG_DOMAIN_TOL:
        raise InvalidInputError(f"x = {x} is too close to the ln x = 0 pole")
    return t


def _family_entries(fam: SolutionFamily, x) -> dict:
    """Named entries of a non-gauge family at one point x, or at each point of an array x."""
    if fam.id == "Nilpotent3x3":
        t = _log_var(x)
        a, b, g, d, mu = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta", "mu"))
        return dict(
            A=0.0, B=0.0, C=0.0,
            D=b / t, E=-b + g / t, G=1.0 / t,
            L=a * b + 2.0 * b * b + d * t - b * g / t,
            M=a * g + 3.0 * b * g + mu * t - d * t * t - g * g / t,
            N=a + b - g / t,
        )
    if fam.id == "Nilpotent2x2":
        t = _log_var(x)
        a, b, g = fam.p("alpha"), fam.p("beta"), fam.p("gamma")
        return dict(B=0.0, C=0.0, E=b / t, G=1.0 / t, M=g * t - b * b / t + a * b, N=-b / t + a)
    if fam.id == "UpperTri2x2":
        a, b, g, d = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta"))
        # min(|x|, |x + b|) < tol, NaN included, as one test per point
        bad = _first((abs(x) < DEGENERACY_TOL) | (abs(x + b) < DEGENERACY_TOL), x)
        if bad is not None:
            raise InvalidInputError(f"UpperTri2x2 is singular at x = {bad}")
        return dict(
            B=1.0, C=0.0,
            E=g / (x + b), G=x / (x + b),
            M=d + (a * g + b * d - g * g / b) / x + g * g / (b * (x + b)),
            N=-g / (x + b) + a,
        )
    return _poly_l3_entries(fam, x)[0]


def _family_stack(fam: SolutionFamily, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, n, n) stacks of C1 and C2 at the P points of an array x, or C1 and C2 at one
    point x; raises at the first bad point."""
    if fam.id == "GaugeL5":   # the potentials Phi^m are polynomials
        coeffs = [np.asarray(fam.params[k], dtype=float) for k in _FAMILY_PARAMS["GaugeL5"]]
        return gauge_pairs(lambda p: np.array([npoly.polyval(p, c) for c in coeffs]), x)[3:]
    return entry_stacks(_FAMILY_N[fam.id], _family_entries(fam, x))


def eval_family(fam: SolutionFamily, point: float) -> MatrixPair:
    """Evaluate the family's structure constants at one value of x (or y): the one-point
    ``_family_stack``."""
    # the log and gauge families' errors name the point as given, the others its float
    x = point if fam.id in ("Nilpotent3x3", "Nilpotent2x2", "GaugeL5") else float(point)
    return MatrixPair(_FAMILY_N[fam.id], *_family_stack(fam, x))


def _poly_l3_entries(fam: SolutionFamily, y):
    """PolyL3 entries and their analytic y-derivatives, at one point or an array of them."""
    a, b, g, d = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta"))
    # quadratic coefficient of C: -alpha in the corrected family, -1 as printed
    q = -1.0 if fam.params.get("printed_form") else -a
    entries = {
        "B": a * y + b, "E": a, "G": -a * y + g,
        "C": q * y * y + (g - b) * y + d,
        "M": 0.0, "N": 0.0,
    }
    derivs = {"B": a, "E": 0.0, "G": -a, "C": 2.0 * q * y + (g - b)}
    return entries, derivs


def _point_norm(fam: SolutionFamily, dda: str, p, step: float, h: float) -> float:
    """The residual at one point through a 3-point SampledField: slow, but it raises the
    error each check of a bad point gives, in the order the checks run."""
    xs = (p - step, p, p + step)
    # fails where p +- h collapsed onto p, or the gauge matrix is singular or inexactly solved
    try:
        fld = SampledField(dda=dda, grid=np.array(xs), pairs=tuple(eval_family(fam, x) for x in xs))
    except (InvalidInputError, SingularGaugeError) as exc:
        with_h = "" if dda == "L5" else f" with h={h}"
        raise InvalidInputError(f"points: x={p}{with_h}: {exc}") from None
    return cs_residual(dda, fld, 1).norms[0]


def _stacked_norms(fam: SolutionFamily, dda: str, points: np.ndarray, step: float):
    """The residuals at all points from one stacked stencil, or None if any point fails a
    check (domain, layout, stencil grid, finite norm) that _point_norm would report."""
    spec = lookup(dda)
    xs = np.stack([points, points + step, points - step])   # here, ahead, behind
    try:
        C1, C2 = (c.reshape(xs.shape + c.shape[1:]) for c in _family_stack(fam, xs.ravel()))
    except (DeformError, np.linalg.LinAlgError):
        return None
    stencils = xs[[2, 0, 1]].T   # each point's (p - step, p, p + step)
    if layout_defect(C1.shape[-1], C1, C2) or grid_defect(spec, stencils):
        return None
    norms = _cs_norms(spec, C1, C2, xs[0], (xs[0] - xs[-1])[:, None, None])
    return norms if all(math.isfinite(v) for v in norms) else None


def validate_family(fam: SolutionFamily, sample_points, h: float = 1e-4) -> ResidualReport:
    """Residual of the family's governing central system at each sample point.

    The log/rational families are checked through the L2a stencil on the
    points (p - h, p, p + h), GaugeL5 through the L5 stencil on the exact unit
    shifts (p - 1, p, p + 1), and PolyL3 with its analytic derivatives (h is
    ignored for the latter two).  The stencils of all points are evaluated as
    one stack; a point that fails a check is reported by name.
    """
    sample_points = list(sample_points)
    labels = tuple(f"x={p:g}" for p in sample_points)
    if fam.id == "PolyL3":
        norms = []
        for p in sample_points:
            e, de = _poly_l3_entries(fam, float(p))
            r = (de["B"] - e["E"], de["E"], de["C"] - (e["G"] - e["B"]), de["G"] + e["E"])
            norms.append(max(abs(v) for v in r))
        return ResidualReport(labels=labels, norms=norms)
    dda, step = ("L5", 1.0) if fam.id == "GaugeL5" else ("L2a", h)
    with np.errstate(all="ignore"):   # a bad point is redone, and reported, one at a time
        norms = _stacked_norms(fam, dda, np.array(sample_points, dtype=float), step)
    if norms is None:
        norms = [_point_norm(fam, dda, p, step, h) for p in sample_points]
    return ResidualReport(labels=labels, norms=norms)


def family_integrals(fam: SolutionFamily) -> dict[str, float]:
    """The point-independent first-integral values of the family."""
    if fam.id == "Nilpotent3x3":
        a, b, g, d, mu = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta", "mu"))
        return {
            "I1": a,
            "I2": 0.5 * a * a + 3.0 * b * b + 2.0 * a * b + mu,
            "I3": ((a + b) ** 3 - b ** 3) / 3.0 + (a + b) * (mu + b * (a + 2.0 * b)) - g * d,
        }
    if fam.id == "Nilpotent2x2":
        a, g = fam.p("alpha"), fam.p("gamma")
        return {"I1": a, "I2": g + 0.5 * a * a}
    if fam.id == "UpperTri2x2":
        a, d = fam.p("alpha"), fam.p("delta")
        return {"I1": a, "I2": d + 0.5 * a * a}
    if fam.id == "PolyL3":
        a, b, g, d = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta"))
        return {"I1": b + g, "I2": 0.5 * (b * b + g * g + 2.0 * a * d)}
    # GaugeL5: C1 T C2 = g^-1(x) g(x+1) g(x+1)^-1 g(x) = 1, so the transition
    # invariants are traces of the identity.
    return {"I1": 3.0, "I2": 1.5, "I3": 1.0}

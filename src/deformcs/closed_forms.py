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
against the L3_simple right-hand side for PolyL3, and exact shifts for GaugeL5,
through one stencil kernel for good and bad points alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra_core import (DEGENERACY_TOL, MatrixPair, ResidualReport, _pow, check_names,
                           entry_stacks, finite_numbers, layout_defect, number_sequence,
                           one_of, positive_number)
from .continuous_flows import get_system
from .dda_registry import DDASpec, _cs_norms, grid_defect, lookup
from .discrete_flows import _first, gauge_pairs
from .errors import DeformError, InvalidInputError, SingularGaugeError

LOG_DOMAIN_TOL = 1e-9       # |ln x| must exceed this for the log families
CONSTRAINT_TOL = 1e-12      # PolyL3 unimodularity at construction
FD_STEP = 1e-4              # validate_family's default finite-difference step h

FAMILY_PARAMS = {
    "Nilpotent3x3": ("alpha", "beta", "gamma", "delta", "mu"),
    "Nilpotent2x2": ("alpha", "beta", "gamma"),
    "UpperTri2x2": ("alpha", "beta", "gamma", "delta"),
    "PolyL3": ("alpha", "beta", "gamma", "delta", "printed_form"),   # the last a bool
    "GaugeL5": ("phi0", "phi1", "phi2"),   # each a list of polynomial coefficients
}
_FAMILY_N = {"Nilpotent3x3": 3, "Nilpotent2x2": 2, "UpperTri2x2": 2, "PolyL3": 2, "GaugeL5": 3}


@dataclass(frozen=True)
class SolutionFamily:
    """One catalogued closed-form solution with its parameter values."""

    id: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        names = one_of("solution family", FAMILY_PARAMS, self.id)
        check_names(f"{self.id} params", self.params, names)
        missing = [key for key in names if key not in self.params]
        if self.id == "GaugeL5" and missing:   # the other families read a missing one as 0
            raise InvalidInputError(f"GaugeL5 needs polynomial coefficients {missing[0]!r}")
        numbers = dict(self.params)   # less the params of other kinds
        if self.id == "GaugeL5":
            for name in self.params:
                number_sequence(f"GaugeL5 parameter {name!r}", numbers.pop(name))
        elif not isinstance(numbers.pop("printed_form", False), bool):   # PolyL3 only
            raise InvalidInputError("PolyL3 parameter 'printed_form' must be true or false, "
                                    f"got {self.params['printed_form']!r}")
        finite_numbers(f"{self.id} params", numbers, names)
        if self.id == "UpperTri2x2" and self.p("beta") == 0.0:
            raise InvalidInputError("UpperTri2x2 requires beta != 0")
        if self.id == "PolyL3":
            defect = self.p("beta") * self.p("gamma") - self.p("alpha") * self.p("delta") - 1.0
            if abs(defect) > CONSTRAINT_TOL:
                raise InvalidInputError(
                    f"PolyL3 requires beta*gamma - alpha*delta = 1 (defect {defect:.3e})"
                )

    def p(self, name: str) -> float:
        return float(self.params.get(name, 0.0))


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
        coeffs = [np.asarray(fam.params[k], dtype=float) for k in FAMILY_PARAMS["GaugeL5"]]
        # np.polyval reads the coefficients highest degree first
        return gauge_pairs(lambda p: np.array([np.polyval(c[::-1], p) for c in coeffs]), x)[3:]
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


def _stencil_norms(fam: SolutionFamily, spec: DDASpec, points: np.ndarray,
                   step: float) -> list[float]:
    """The residuals at an array of points from one stack of their stencils (p - step, p,
    p + step); raises at the first failing check: the evaluation, the layout naming the
    first bad value, then each stencil's grid.  On one point the values are evaluated in
    the stencil's order, so an evaluation error names the first bad value."""
    xs = np.stack([points - step, points, points + step])   # behind, here, ahead
    C1, C2 = (c.reshape(xs.shape + c.shape[1:]) for c in _family_stack(fam, xs.ravel()))
    n = C1.shape[-1]
    if layout_defect(n, C1, C2):
        raise InvalidInputError(next(filter(None, (
            layout_defect(n, a, b) for a, b in zip(C1.reshape(-1, n, n), C2.reshape(-1, n, n))))))
    defect = grid_defect(spec, xs.T)
    if defect:
        raise InvalidInputError(defect)
    near = [(C[1], C[2], C[0]) for C in (C1, C2)]   # here, ahead, behind
    return _cs_norms(spec, *near, xs[1], (xs[1] - xs[0])[:, None, None])


def _point_norm(fam: SolutionFamily, spec: DDASpec, p, step: float, h: float) -> float:
    """_stencil_norms at the one point p, its errors prefixed by the point, and its norm
    checked by a one-point ResidualReport labelled '<dda>_cs'."""
    try:
        norms = _stencil_norms(fam, spec, np.array([p], dtype=float), step)
    except (InvalidInputError, SingularGaugeError) as exc:
        with_h = "" if spec.discrete else f" with h={h}"
        raise InvalidInputError(f"points: x={p}{with_h}: {exc}") from None
    return ResidualReport(labels=(f"{spec.id}_cs",), norms=norms).norms[0]


def validate_family(fam: SolutionFamily, sample_points, h: float = FD_STEP) -> ResidualReport:
    """Residual of the family's governing central system at each sample point.

    The log/rational families are checked through the L2a stencil on the
    points (p - h, p, p + h), GaugeL5 through the L5 stencil on the exact unit
    shifts (p - 1, p, p + 1), and PolyL3 by its analytic derivatives minus the
    L3_simple right-hand side (h is ignored for the latter two), all points at
    once.  If a stencil point fails a check, each point is redone alone, so the
    first bad point is named; a non-finite norm fails by its label.
    """
    sample_points, h = number_sequence("points", sample_points), positive_number("h", h)
    labels = tuple(f"x={p:g}" for p in sample_points)
    points = np.array(sample_points, dtype=float)
    with np.errstate(all="ignore"):   # a bad stencil point is redone, and reported, alone
        if fam.id == "PolyL3":   # np.max keeps a NaN part, and ResidualReport rejects it
            (e, de), sy = _poly_l3_entries(fam, points), get_system("L3_simple")
            rhs = sy.rhs(tuple(e[k] for k in sy.evolved), ())
            parts = np.broadcast_arrays(*(de[k] - f for k, f in zip(sy.evolved, rhs)))
            return ResidualReport(labels=labels, norms=np.max(np.abs(parts), axis=0))
        spec, step = (lookup("L5"), 1.0) if fam.id == "GaugeL5" else (lookup("L2a"), h)
        try:
            norms = _stencil_norms(fam, spec, points, step)
        except (DeformError, np.linalg.LinAlgError):
            norms = None
        if norms is None or not all(map(math.isfinite, norms)):
            norms = [_point_norm(fam, spec, p, step, h) for p in sample_points]
    return ResidualReport(labels=labels, norms=norms)


def family_integrals(fam: SolutionFamily) -> dict[str, float]:
    """The point-independent first-integral values of the family."""
    if fam.id == "Nilpotent3x3":
        a, b, g, d, mu = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta", "mu"))
        return {
            "I1": a,
            "I2": 0.5 * a * a + 3.0 * b * b + 2.0 * a * b + mu,
            "I3": (_pow(a + b, 3) - _pow(b, 3)) / 3.0 + (a + b) * (mu + b * (a + 2.0 * b)) - g * d,
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

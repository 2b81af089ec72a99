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
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .algebra_core import DEGENERACY_TOL, MatrixPair, ResidualReport
from .dda_registry import SampledField, cs_residual
from .discrete_flows import GAUGE_SHIFTS, gauge_matrix
from .errors import InvalidInputError, SingularGaugeError

FAMILY_IDS = ("Nilpotent3x3", "Nilpotent2x2", "UpperTri2x2", "PolyL3", "GaugeL5")

LOG_DOMAIN_TOL = 1e-9       # |ln x| must exceed this for the log families
CONSTRAINT_TOL = 1e-12      # PolyL3 unimodularity at construction

_FAMILY_PARAMS = {
    "Nilpotent3x3": ("alpha", "beta", "gamma", "delta", "mu"),
    "Nilpotent2x2": ("alpha", "beta", "gamma"),
    "UpperTri2x2": ("alpha", "beta", "gamma", "delta"),
    "PolyL3": ("alpha", "beta", "gamma", "delta"),
}


@dataclass(frozen=True)
class SolutionFamily:
    """One catalogued closed-form solution with its parameter values."""

    id: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in FAMILY_IDS:
            raise InvalidInputError(f"unknown solution family {self.id!r}")
        if self.id == "GaugeL5":
            for key in ("phi0", "phi1", "phi2"):
                if key not in self.params:
                    raise InvalidInputError(f"GaugeL5 needs polynomial coefficients {key!r}")
            return
        known = set(_FAMILY_PARAMS[self.id]) | {"printed_form"}
        unknown = set(self.params) - known
        if unknown:
            raise InvalidInputError(f"{self.id} has no parameters {sorted(unknown)}")
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


def _log_var(x: float) -> float:
    if x <= 0.0:
        raise InvalidInputError(f"log families need x > 0, got {x}")
    t = math.log(x)
    if abs(t) < LOG_DOMAIN_TOL:
        raise InvalidInputError(f"x = {x} is too close to the ln x = 0 pole")
    return t


def _polynomial_potentials(fam: SolutionFamily):
    """The GaugeL5 potentials Phi^m as a map from points to their (3, points) values."""
    coeffs = [np.asarray(fam.params[k], dtype=float) for k in ("phi0", "phi1", "phi2")]
    return lambda points: np.array([npoly.polyval(points, c) for c in coeffs])


def eval_family(fam: SolutionFamily, point: float) -> MatrixPair:
    """Evaluate the family's structure constants at one value of x (or y)."""
    if fam.id == "Nilpotent3x3":
        t = _log_var(point)
        a, b, g, d, mu = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta", "mu"))
        return MatrixPair.from_entries_3x3(
            A=0.0, B=0.0, C=0.0,
            D=b / t, E=-b + g / t, G=1.0 / t,
            L=a * b + 2.0 * b * b + d * t - b * g / t,
            M=a * g + 3.0 * b * g + mu * t - d * t * t - g * g / t,
            N=a + b - g / t,
        )
    if fam.id == "Nilpotent2x2":
        t = _log_var(point)
        a, b, g = fam.p("alpha"), fam.p("beta"), fam.p("gamma")
        return MatrixPair.from_entries_2x2(
            B=0.0, C=0.0, E=b / t, G=1.0 / t,
            M=g * t - b * b / t + a * b, N=-b / t + a,
        )
    if fam.id == "UpperTri2x2":
        a, b, g, d = (fam.p(k) for k in ("alpha", "beta", "gamma", "delta"))
        x = float(point)
        if min(abs(x), abs(x + b)) < DEGENERACY_TOL:
            raise InvalidInputError(f"UpperTri2x2 is singular at x = {x}")
        return MatrixPair.from_entries_2x2(
            B=1.0, C=0.0,
            E=g / (x + b), G=x / (x + b),
            M=d + (a * g + b * d - g * g / b) / x + g * g / (b * (x + b)),
            N=-g / (x + b) + a,
        )
    if fam.id == "PolyL3":
        entries, _ = _poly_l3_entries(fam, float(point))
        return MatrixPair.from_entries_2x2(**entries)
    if fam.id == "GaugeL5":
        potentials, x = _polynomial_potentials(fam), float(point)
        gmat = gauge_matrix(potentials, x)
        if abs(np.linalg.det(gmat)) < DEGENERACY_TOL:
            raise SingularGaugeError(f"gauge matrix is singular at x = {point}")
        C1, C2 = (np.linalg.solve(gmat, gauge_matrix(potentials, x + s)) for s in GAUGE_SHIFTS[1:])
        return MatrixPair(3, C1, C2)
    raise InvalidInputError(f"unknown solution family {fam.id!r}")


def _poly_l3_entries(fam: SolutionFamily, y: float):
    """PolyL3 entries and their analytic y-derivatives."""
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


def validate_family(fam: SolutionFamily, sample_points, h: float = 1e-4) -> ResidualReport:
    """Residual of the family's governing central system at each sample point.

    The log/rational families are checked with a three-point central stencil
    of width h in x; PolyL3 with its analytic derivatives; GaugeL5 with exact
    unit shifts (h is ignored for the latter two).
    """
    norms = []
    labels = []
    for p in sample_points:
        labels.append(f"x={p:g}")
        if fam.id in ("Nilpotent3x3", "Nilpotent2x2", "UpperTri2x2"):
            xs = (p - h, p, p + h)
            fld = SampledField(dda="L2a", grid=np.array(xs),
                               pairs=tuple(eval_family(fam, x) for x in xs))
            norms.append(cs_residual("L2a", fld, 1).norms[0])
        elif fam.id == "PolyL3":
            e, de = _poly_l3_entries(fam, float(p))
            r = (de["B"] - e["E"], de["E"], de["C"] - (e["G"] - e["B"]), de["G"] + e["E"])
            norms.append(max(abs(v) for v in r))
        else:  # GaugeL5: C1(x) C2(x+1) - C2(x) C1(x-1) = 0 exactly
            here = eval_family(fam, p)
            plus = eval_family(fam, p + 1.0)
            minus = eval_family(fam, p - 1.0)
            norms.append(float(np.linalg.norm(here.C1 @ plus.C2 - here.C2 @ minus.C1)))
    return ResidualReport(labels=tuple(labels), norms=tuple(norms),
                          integrals=family_integrals(fam))


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

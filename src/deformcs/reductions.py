"""Scalar reductions of the continuous central systems.

Three named reductions of the 2x2 and 3x3 Lax flows are implemented:

* the Chazy family: with C = 1 and E + N = 0 the 2x2 flow collapses to

      G''' + 2 G^2 G' + 4 (G')^2 + 2 G G'' - 2 G' Phi - G Phi' = 0,
      Phi = B' + B^2 / 2,

  which specialises to Chazy V (B = 0), a shifted Chazy V (B = 1),
  Chazy VII (Phi = G'), Chazy VIII (B = 2G) and, with Phi chosen so that
  G Phi' + 2 G' Phi = 2 G^2 G' + (G')^2 + 4 G G'', Chazy III;
* the Boussinesq-type reduction of the 3x3 flow (B = 0, C = 1, G = 0)
  to the single equation E'' = 6 E^2 - 4 alpha E - beta;
* the elliptic reduction of the unimodular L3 flow (M = 0, N = 1,
  B + G = 0) with conserved constraint B^2 + C E + 1 = 0.

Each reduction carries its conserved quantity and a reconstruction map
back to full structure constants, so trajectories can be cross-checked
against the matrix central systems they came from.  Each right-hand side maps
a tuple of floats to a tuple, with no ** and no unguarded division.
"""

from __future__ import annotations

import cmath
import math
from functools import partial

import numpy as np

from .algebra_core import MatrixPair
from .errors import InvalidInputError, SingularFlowError
from .integrators import Trajectory, integrate_fixed

CHAZY_VARIANTS = ("ChazyV", "ChazyV_shifted", "Generic", "ChazyVII", "ChazyVIII", "ChazyIII")


def _pow(x, k: int):
    """x ** k, or the infinity numpy's float64 power gives where Python's raises OverflowError."""
    try:
        return x ** k
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def _check_variant(variant: str) -> None:
    if variant not in CHAZY_VARIANTS:
        raise InvalidInputError(f"unknown Chazy variant {variant!r}")


# G''' of each variant from (G, G1, G2, Phi, Phi'); only Generic reads Phi.
_CHAZY_G3 = {
    "ChazyV": lambda G, G1, G2, *_: -2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2,
    "ChazyV_shifted": lambda G, G1, G2, *_: (-2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2
                                            + G1),
    "Generic": lambda G, G1, G2, phi, dphi: (-2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2
                                             + 2.0 * G1 * phi + G * dphi),
    "ChazyVII": lambda G, G1, G2, *_: -2.0 * G * G * G1 - 2.0 * G1 * G1 - G * G2,
    "ChazyVIII": lambda G, G1, G2, *_: 6.0 * G * G * G1,
    "ChazyIII": lambda G, G1, G2, *_: 2.0 * G * G2 - 3.0 * G1 * G1,
}


def chazy_rhs(variant: str, G: float, G1: float, G2: float,
              phi: float = 0.0, dphi: float = 0.0) -> float:
    """Third derivative G''' for the requested variant (Generic needs phi, dphi)."""
    _check_variant(variant)
    return _CHAZY_G3[variant](G, G1, G2, phi, dphi)


def _second_integral(G: float, G1: float, G2: float, closing: float) -> float:
    return -0.5 * _pow(G, 4) + 0.5 * G1 * G1 - 2.0 * G * G * G1 - G * G2 + closing * G * G


def chazy_second_integral(G: float, G1: float, G2: float,
                          B_or_phi: float, variant: str) -> float:
    """The conserved second integral of the Chazy reduction.

    For ChazyV / ChazyV_shifted the last argument is the constant B and the
    closing term is B G^2 / 2; for the Phi-based variants it is Phi itself
    and the closing term is Phi G^2.
    """
    _check_variant(variant)
    if variant in ("ChazyV", "ChazyV_shifted"):
        B_or_phi = 0.5 * B_or_phi
    return _second_integral(G, G1, G2, B_or_phi)


def chazy_eigenvalues(second_integral: float) -> tuple[complex, complex]:
    """Lax eigenvalues +/- sqrt(I2 / 2) exposed by the reduction."""
    root = cmath.sqrt(second_integral / 2.0)
    return (-root, root)


def reconstruct_from_G(G: float, G1: float, G2: float,
                       B: float = 0.0, B1: float = 0.0) -> dict[str, float]:
    """Map a Chazy state back to 2x2 structure constants with C = 1, E + N = 0.

    Substituting C = 1, N = -E into the 2x2 Lax flow forces

        E = -(G' + G^2 - G B) / 2,
        M = -(G'' + 3 G G' + G^3 - G^2 B - (G B)') / 2,

    where (G B)' = G' B + G B'.
    """
    E = -0.5 * (G1 + G * G - G * B)
    M = -0.5 * (G2 + 3.0 * G * G1 + G ** 3 - G * G * B - (G1 * B + G * B1))
    return {"B": B, "C": 1.0, "E": E, "G": G, "M": M, "N": -E}


def chazy_pair(G: float, G1: float, G2: float, B: float = 0.0, B1: float = 0.0) -> MatrixPair:
    return MatrixPair.from_entries(2, reconstruct_from_G(G, G1, G2, B, B1))


def _chazy_system(variant: str):
    """State layout and right-hand side for integrating one Chazy variant.

    ChazyVII and ChazyIII carry B along via the Riccati equation
    B' = Phi - B^2/2 so the reconstruction map stays available; ChazyIII
    additionally carries Phi itself, integrated from the quadrature relation.
    The variant is looked up here, once, not on every call of the right-hand side.
    """
    g3 = _CHAZY_G3.get(variant)
    if variant in ("ChazyV", "ChazyV_shifted", "ChazyVIII"):
        cols = ("G", "G1", "G2")

        def f(_t, y):
            G, G1, G2 = y
            return (G1, G2, g3(G, G1, G2))

        return cols, f
    if variant == "ChazyVII":
        cols = ("G", "G1", "G2", "B")

        def f(_t, y):
            G, G1, G2, B = y
            return (G1, G2, g3(G, G1, G2), G1 - 0.5 * B * B)

        return cols, f
    if variant == "ChazyIII":
        cols = ("G", "G1", "G2", "phi", "B")

        def f(_t, y):
            G, G1, G2, phi, B = y
            if abs(G) < 1e-9:
                raise SingularFlowError("ChazyIII quadrature needs G bounded away from 0")
            dphi = (2.0 * G * G * G1 + G1 * G1 + 4.0 * G * G2 - 2.0 * G1 * phi) / G
            return (G1, G2, g3(G, G1, G2), dphi, phi - 0.5 * B * B)

        return cols, f
    raise InvalidInputError(f"variant {variant!r} cannot be integrated directly")


# (Phi, B, B') from one trajectory row (the columns of _chazy_system) of each variant
_CHAZY_PHI_B = {
    "ChazyV": lambda *_: (0.0, 0.0, 0.0),
    "ChazyV_shifted": lambda *_: (0.5, 1.0, 0.0),
    "ChazyVIII": lambda G, G1, G2: (2.0 * G1 + 2.0 * G * G, 2.0 * G, 2.0 * G1),
    "ChazyVII": lambda G, G1, G2, B: (G1, B, G1 - 0.5 * B * B),
    "ChazyIII": lambda G, G1, G2, phi, B: (phi, B, phi - 0.5 * B * B),
}


def chazy_state_phi_B(variant: str, row: np.ndarray) -> tuple[float, float, float]:
    """(Phi, B, B') at one trajectory row, as the variant determines Phi."""
    if variant not in _CHAZY_PHI_B:
        raise InvalidInputError(f"variant {variant!r} carries no reconstruction data")
    return _CHAZY_PHI_B[variant](*row)


def integrate_chazy(variant: str, initial: tuple[float, float, float],
                    span: tuple[float, float], step: float,
                    phi0: float = 0.0, b0: float = 0.0) -> Trajectory:
    """Integrate one Chazy variant, recording the second integral per step."""
    cols, f = _chazy_system(variant)
    y0 = tuple(initial) + {"ChazyVII": (b0,), "ChazyIII": (phi0, b0)}.get(variant, ())
    ts, ys, status, diagnostic = integrate_fixed(f, span[0], y0, span[1], step)
    # Phi = B^2 / 2 is exactly B / 2 for the constant B (0 or 1) of ChazyV and
    # ChazyV_shifted, so Phi is the closing coefficient of I2 for every variant.
    phi_B = _CHAZY_PHI_B[variant]
    i2 = [_second_integral(row[0], row[1], row[2], phi_B(*row)[0])
          for row in ys.tolist()]   # float arithmetic per row, not numpy scalars
    return Trajectory(kind=variant, ts=ts, states=ys, columns=cols,
                      invariants={"I2_chazy": np.array(i2)},
                      status=status, diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# Boussinesq-type reduction of the 3x3 flow (B = 0, C = 1, G = 0).
# ---------------------------------------------------------------------------

def _boussinesq_rhs(alpha: float, beta: float, _t, y):
    E, E1 = y
    return (E1, 6.0 * E * E - 4.0 * alpha * E - beta)


def boussinesq_rhs_and_companions(E: float, E1: float, alpha: float, beta: float,
                                  gamma: float):
    """E'' plus the companion 3x3 entries and the three first integrals.

    The companion N entry is alpha - E (the value that keeps I1 = tr C2 equal
    to alpha and closes the six-equation system).
    """
    e2 = _boussinesq_rhs(alpha, beta, 0.0, (E, E1))[1]
    entries = {
        "A": 2.0 * E - alpha, "B": 0.0, "C": 1.0,
        "D": gamma - 0.5 * E1, "E": E, "G": 0.0,
        "L": -E * E + alpha * E + 0.5 * beta,
        "M": gamma + 0.5 * E1, "N": alpha - E,
    }
    integrals = {
        "I1": alpha,
        "I2": 0.5 * (beta + alpha * alpha),
        "I3": _boussinesq_i3(E, E1, alpha, beta, gamma),
    }
    return e2, entries, integrals


def _boussinesq_i3(E: float, E1: float, alpha: float, beta: float, gamma: float) -> float:
    return (_pow(alpha, 3) / 3.0 + gamma * gamma + 0.5 * alpha * beta
            - 0.25 * E1 * E1 + _pow(E, 3) - alpha * E * E - 0.5 * beta * E)


def boussinesq_pair(E: float, E1: float, alpha: float, beta: float, gamma: float) -> MatrixPair:
    _, entries, _ = boussinesq_rhs_and_companions(E, E1, alpha, beta, gamma)
    return MatrixPair.from_entries(3, entries)


def integrate_boussinesq(initial: tuple[float, float], alpha: float, beta: float,
                         gamma: float, span: tuple[float, float], step: float) -> Trajectory:
    ts, ys, status, diagnostic = integrate_fixed(partial(_boussinesq_rhs, alpha, beta),
                                                 span[0], initial, span[1], step)
    i3 = np.array([_boussinesq_i3(E, E1, alpha, beta, gamma) for E, E1 in ys.tolist()])
    return Trajectory(kind="Boussinesq", ts=ts, states=ys, columns=("E", "E1"),
                      invariants={"I3": i3}, status=status, diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# Elliptic reduction of the unimodular L3 flow (M = 0, N = 1, B + G = 0).
# ---------------------------------------------------------------------------

def _elliptic_rhs(_t, y):   # (B', E', C') does not depend on alpha
    B, E, C = y
    return ((1.0 + C) * E, -B * E, -(2.0 + C) * B)


def elliptic_system(B: float, E: float, C: float, alpha: float):
    """Derivatives (B', E', C') and the two invariant residuals of the reduction.

    r1 is the single-equation form (E')^2 + alpha E^4 - 2 E^3 + E^2 evaluated
    with E' = -B E; r2 is B^2 + C E + 1, the det C1 = 1 constraint (the
    second integral of the flow equals -1 on this reduction).
    """
    return _elliptic_rhs(0.0, (B, E, C)), _elliptic_residuals(B, E, C, alpha)


def _elliptic_residuals(B: float, E: float, C: float, alpha: float) -> tuple[float, float]:
    e1 = -B * E
    r1 = e1 * e1 + alpha * _pow(E, 4) - 2.0 * _pow(E, 3) + E * E
    r2 = B * B + C * E + 1.0
    return r1, r2


def elliptic_point(E: float, alpha: float, branch: float = 1.0) -> tuple[float, float, float]:
    """A point (B, E, C) on the constraint manifold with the given E and alpha."""
    b2 = -1.0 - alpha * E * E + 2.0 * E
    if b2 < 0.0:
        raise InvalidInputError(f"B^2 = {b2:.3g} < 0: no real point at E={E}, alpha={alpha}")
    return (branch * float(np.sqrt(b2)), E, alpha * E - 2.0)


def integrate_elliptic(initial: tuple[float, float, float], alpha: float,
                       span: tuple[float, float], step: float) -> Trajectory:
    ts, ys, status, diagnostic = integrate_fixed(_elliptic_rhs, span[0], initial, span[1], step)
    r1, r2 = np.array([_elliptic_residuals(B, E, C, alpha) for B, E, C in ys.tolist()]).T
    return Trajectory(kind="Elliptic", ts=ts, states=ys, columns=("B", "E", "C"),
                      invariants={"r1": r1, "r2": r2}, status=status, diagnostic=diagnostic)

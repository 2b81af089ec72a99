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
against the matrix central systems they came from.
"""

from __future__ import annotations

import cmath

import numpy as np

from .algebra_core import MatrixPair
from .errors import InvalidInputError, SingularFlowError
from .integrators import Trajectory, integrate_fixed

CHAZY_VARIANTS = ("ChazyV", "ChazyV_shifted", "Generic", "ChazyVII", "ChazyVIII", "ChazyIII")


def _check_variant(variant: str) -> None:
    if variant not in CHAZY_VARIANTS:
        raise InvalidInputError(f"unknown Chazy variant {variant!r}")


def chazy_rhs(variant: str, G: float, G1: float, G2: float,
              phi: float = 0.0, dphi: float = 0.0) -> float:
    """Third derivative G''' for the requested variant (Generic needs phi, dphi)."""
    _check_variant(variant)
    if variant == "ChazyV":
        return -2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2
    if variant == "ChazyV_shifted":
        return -2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2 + G1
    if variant == "ChazyVII":
        return -2.0 * G * G * G1 - 2.0 * G1 * G1 - G * G2
    if variant == "ChazyVIII":
        return 6.0 * G * G * G1
    if variant == "ChazyIII":
        return 2.0 * G * G2 - 3.0 * G1 * G1
    return (-2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2
            + 2.0 * G1 * phi + G * dphi)


def chazy_second_integral(G: float, G1: float, G2: float,
                          B_or_phi: float, variant: str) -> float:
    """The conserved second integral of the Chazy reduction.

    For ChazyV / ChazyV_shifted the last argument is the constant B and the
    closing term is B G^2 / 2; for the Phi-based variants it is Phi itself
    and the closing term is Phi G^2.
    """
    _check_variant(variant)
    base = -0.5 * G ** 4 + 0.5 * G1 * G1 - 2.0 * G * G * G1 - G * G2
    if variant in ("ChazyV", "ChazyV_shifted"):
        return base + 0.5 * B_or_phi * G * G
    return base + B_or_phi * G * G


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
    return MatrixPair.from_entries_2x2(**reconstruct_from_G(G, G1, G2, B, B1))


def _chazy_system(variant: str):
    """State layout and right-hand side for integrating one Chazy variant.

    ChazyVII and ChazyIII carry B along via the Riccati equation
    B' = Phi - B^2/2 so the reconstruction map stays available; ChazyIII
    additionally carries Phi itself, integrated from the quadrature relation.
    """
    if variant in ("ChazyV", "ChazyV_shifted", "ChazyVIII"):
        cols = ("G", "G1", "G2")

        def f(_t, y):
            G, G1, G2 = y
            return np.array([G1, G2, chazy_rhs(variant, G, G1, G2)])

        return cols, f
    if variant == "ChazyVII":
        cols = ("G", "G1", "G2", "B")

        def f(_t, y):
            G, G1, G2, B = y
            return np.array([G1, G2, chazy_rhs(variant, G, G1, G2), G1 - 0.5 * B * B])

        return cols, f
    if variant == "ChazyIII":
        cols = ("G", "G1", "G2", "phi", "B")

        def f(_t, y):
            G, G1, G2, phi, B = y
            if abs(G) < 1e-9:
                raise SingularFlowError("ChazyIII quadrature needs G bounded away from 0")
            dphi = (2.0 * G * G * G1 + G1 * G1 + 4.0 * G * G2 - 2.0 * G1 * phi) / G
            return np.array([G1, G2, chazy_rhs(variant, G, G1, G2), dphi,
                             phi - 0.5 * B * B])

        return cols, f
    raise InvalidInputError(f"variant {variant!r} cannot be integrated directly")


def chazy_state_phi_B(variant: str, row: np.ndarray) -> tuple[float, float, float]:
    """(Phi, B, B') at one trajectory row, as the variant determines Phi."""
    G, G1 = row[0], row[1]
    if variant == "ChazyV":
        return 0.0, 0.0, 0.0
    if variant == "ChazyV_shifted":
        return 0.5, 1.0, 0.0
    if variant == "ChazyVIII":
        return 2.0 * G1 + 2.0 * G * G, 2.0 * G, 2.0 * G1
    if variant == "ChazyVII":
        B = row[3]
        return G1, B, G1 - 0.5 * B * B
    if variant == "ChazyIII":
        phi, B = row[3], row[4]
        return phi, B, phi - 0.5 * B * B
    raise InvalidInputError(f"variant {variant!r} carries no reconstruction data")


def integrate_chazy(variant: str, initial: tuple[float, float, float],
                    span: tuple[float, float], step: float,
                    phi0: float = 0.0, b0: float = 0.0) -> Trajectory:
    """Integrate one Chazy variant, recording the second integral per step."""
    cols, f = _chazy_system(variant)
    y0 = list(initial)
    if variant == "ChazyVII":
        y0.append(b0)
    elif variant == "ChazyIII":
        y0.extend([phi0, b0])
    ts, ys, status, diagnostic = integrate_fixed(f, span[0], y0, span[1], step)
    i2 = []
    for row in ys:
        phi, B, _ = chazy_state_phi_B(variant, row)
        arg = B if variant in ("ChazyV", "ChazyV_shifted") else phi
        i2.append(chazy_second_integral(row[0], row[1], row[2], arg, variant))
    return Trajectory(kind=variant, ts=ts, states=ys, columns=cols,
                      invariants={"I2_chazy": np.array(i2)},
                      status=status, diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# Boussinesq-type reduction of the 3x3 flow (B = 0, C = 1, G = 0).
# ---------------------------------------------------------------------------

def boussinesq_rhs_and_companions(E: float, E1: float, alpha: float, beta: float,
                                  gamma: float):
    """E'' plus the companion 3x3 entries and the three first integrals.

    The companion N entry is alpha - E (the value that keeps I1 = tr C2 equal
    to alpha and closes the six-equation system).
    """
    e2 = 6.0 * E * E - 4.0 * alpha * E - beta
    entries = {
        "A": 2.0 * E - alpha, "B": 0.0, "C": 1.0,
        "D": gamma - 0.5 * E1, "E": E, "G": 0.0,
        "L": -E * E + alpha * E + 0.5 * beta,
        "M": gamma + 0.5 * E1, "N": alpha - E,
    }
    integrals = {
        "I1": alpha,
        "I2": 0.5 * (beta + alpha * alpha),
        "I3": (alpha ** 3 / 3.0 + gamma * gamma + 0.5 * alpha * beta
               - 0.25 * E1 * E1 + E ** 3 - alpha * E * E - 0.5 * beta * E),
    }
    return e2, entries, integrals


def boussinesq_pair(E: float, E1: float, alpha: float, beta: float, gamma: float) -> MatrixPair:
    _, entries, _ = boussinesq_rhs_and_companions(E, E1, alpha, beta, gamma)
    return MatrixPair.from_entries_3x3(**entries)


def integrate_boussinesq(initial: tuple[float, float], alpha: float, beta: float,
                         gamma: float, span: tuple[float, float], step: float) -> Trajectory:
    def f(_t, y):
        return np.array([y[1], 6.0 * y[0] * y[0] - 4.0 * alpha * y[0] - beta])

    ts, ys, status, diagnostic = integrate_fixed(f, span[0], initial, span[1], step)
    i3 = np.array([
        boussinesq_rhs_and_companions(E, E1, alpha, beta, gamma)[2]["I3"]
        for E, E1 in ys
    ])
    return Trajectory(kind="Boussinesq", ts=ts, states=ys, columns=("E", "E1"),
                      invariants={"I3": i3}, status=status, diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# Elliptic reduction of the unimodular L3 flow (M = 0, N = 1, B + G = 0).
# ---------------------------------------------------------------------------

def elliptic_system(B: float, E: float, C: float, alpha: float):
    """Derivatives (B', E', C') and the two invariant residuals of the reduction.

    r1 is the single-equation form (E')^2 + alpha E^4 - 2 E^3 + E^2 evaluated
    with E' = -B E; r2 is B^2 + C E + 1, the det C1 = 1 constraint (the
    second integral of the flow equals -1 on this reduction).
    """
    derivs = ((1.0 + C) * E, -B * E, -(2.0 + C) * B)
    e1 = -B * E
    r1 = e1 * e1 + alpha * E ** 4 - 2.0 * E ** 3 + E * E
    r2 = B * B + C * E + 1.0
    return derivs, (r1, r2)


def elliptic_point(E: float, alpha: float, branch: float = 1.0) -> tuple[float, float, float]:
    """A point (B, E, C) on the constraint manifold with the given E and alpha."""
    b2 = -1.0 - alpha * E * E + 2.0 * E
    if b2 < 0.0:
        raise InvalidInputError(f"B^2 = {b2:.3g} < 0: no real point at E={E}, alpha={alpha}")
    return (branch * float(np.sqrt(b2)), E, alpha * E - 2.0)


def integrate_elliptic(initial: tuple[float, float, float], alpha: float,
                       span: tuple[float, float], step: float) -> Trajectory:
    def f(_t, y):
        (dB, dE, dC), _ = elliptic_system(y[0], y[1], y[2], alpha)
        return np.array([dB, dE, dC])

    ts, ys, status, diagnostic = integrate_fixed(f, span[0], initial, span[1], step)
    r1 = np.empty(len(ys))
    r2 = np.empty(len(ys))
    for i, (B, E, C) in enumerate(ys):
        _, (a, b) = elliptic_system(B, E, C, alpha)
        r1[i], r2[i] = a, b
    return Trajectory(kind="Elliptic", ts=ts, states=ys, columns=("B", "E", "C"),
                      invariants={"r1": r1, "r2": r2}, status=status, diagnostic=diagnostic)

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

Each reduction is one row of ``REDUCTIONS``: its initial entries, params, state
columns and the builder of its right-hand side and invariants.
``integrate_reduction`` is the one run that reads a row; ``integrate_chazy``,
``integrate_boussinesq`` and ``integrate_elliptic`` are one-line views of it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping, Sequence
from functools import partial

import numpy as np

from .algebra_core import MatrixPair, finite_numbers
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


def _riccati(phi: float, B: float) -> float:
    """B' = Phi - B^2/2, the Riccati equation by which ChazyVII and ChazyIII carry B."""
    return phi - 0.5 * B * B


# (Phi, B, B') from one trajectory row (the state columns) of each variant
_CHAZY_PHI_B = {
    "ChazyV": lambda *_: (0.0, 0.0, 0.0),
    "ChazyV_shifted": lambda *_: (0.5, 1.0, 0.0),
    "ChazyVIII": lambda G, G1, G2: (2.0 * G1 + 2.0 * G * G, 2.0 * G, 2.0 * G1),
    "ChazyVII": lambda G, G1, G2, B: (G1, B, _riccati(G1, B)),
    "ChazyIII": lambda G, G1, G2, phi, B: (phi, B, _riccati(phi, B)),
}


def chazy_state_phi_B(variant: str, row: np.ndarray) -> tuple[float, float, float]:
    """(Phi, B, B') at one trajectory row, as the variant determines Phi."""
    if variant not in _CHAZY_PHI_B:
        raise InvalidInputError(f"variant {variant!r} carries no reconstruction data")
    return _CHAZY_PHI_B[variant](*row)


def _chazy(variant: str):
    """The right-hand side and invariants of one Chazy variant; neither reads a param.

    ChazyVII and ChazyIII carry B so the reconstruction map stays available;
    ChazyIII also carries Phi, integrated from the quadrature relation.
    """
    g3, phi_B = _CHAZY_G3[variant], _CHAZY_PHI_B[variant]
    if variant == "ChazyVII":
        def f(_t, y):
            G, G1, G2, B = y
            return (G1, G2, g3(G, G1, G2), _riccati(G1, B))
    elif variant == "ChazyIII":
        def f(_t, y):
            G, G1, G2, phi, B = y
            if abs(G) < 1e-9:
                raise SingularFlowError("ChazyIII quadrature needs G bounded away from 0")
            dphi = (2.0 * G * G * G1 + G1 * G1 + 4.0 * G * G2 - 2.0 * G1 * phi) / G
            return (G1, G2, g3(G, G1, G2), dphi, _riccati(phi, B))
    else:   # B is 0, 1 or 2G: no column carries it
        def f(_t, y):
            G, G1, G2 = y
            return (G1, G2, g3(G, G1, G2))

    # Phi = B^2 / 2 is exactly B / 2 for the constant B (0 or 1) of ChazyV and
    # ChazyV_shifted, so Phi is the closing coefficient of I2 for every variant.
    def invariants(rows):
        return {"I2_chazy": [_second_integral(row[0], row[1], row[2], phi_B(*row)[0])
                             for row in rows]}

    return f, invariants


# ---------------------------------------------------------------------------
# Boussinesq-type reduction of the 3x3 flow (B = 0, C = 1, G = 0).
# ---------------------------------------------------------------------------

def _boussinesq(alpha: float, beta: float, gamma: float):
    """The right-hand side E'' = 6 E^2 - 4 alpha E - beta and the invariant I3."""
    def f(_t, y):
        E, E1 = y
        return (E1, 6.0 * E * E - 4.0 * alpha * E - beta)

    def invariants(rows):
        return {"I3": [_pow(alpha, 3) / 3.0 + gamma * gamma + 0.5 * alpha * beta
                       - 0.25 * E1 * E1 + _pow(E, 3) - alpha * E * E - 0.5 * beta * E
                       for E, E1 in rows]}

    return f, invariants


def boussinesq_rhs_and_companions(E: float, E1: float, alpha: float, beta: float,
                                  gamma: float):
    """E'' plus the companion 3x3 entries and the three first integrals.

    The companion N entry is alpha - E (the value that keeps I1 = tr C2 equal
    to alpha and closes the six-equation system).
    """
    f, invariants = _boussinesq(alpha, beta, gamma)
    entries = {
        "A": 2.0 * E - alpha, "B": 0.0, "C": 1.0,
        "D": gamma - 0.5 * E1, "E": E, "G": 0.0,
        "L": -E * E + alpha * E + 0.5 * beta,
        "M": gamma + 0.5 * E1, "N": alpha - E,
    }
    integrals = {
        "I1": alpha,
        "I2": 0.5 * (beta + alpha * alpha),
        "I3": invariants([(E, E1)])["I3"][0],
    }
    return f(0.0, (E, E1))[1], entries, integrals


def boussinesq_pair(E: float, E1: float, alpha: float, beta: float, gamma: float) -> MatrixPair:
    _, entries, _ = boussinesq_rhs_and_companions(E, E1, alpha, beta, gamma)
    return MatrixPair.from_entries(3, entries)


# ---------------------------------------------------------------------------
# Elliptic reduction of the unimodular L3 flow (M = 0, N = 1, B + G = 0).
# ---------------------------------------------------------------------------

def _elliptic(alpha: float):
    """The right-hand side (B', E', C'), which does not read alpha, and the residuals r1, r2."""
    def f(_t, y):
        B, E, C = y
        return ((1.0 + C) * E, -B * E, -(2.0 + C) * B)

    def invariants(rows):   # r1 with (E')^2 = (-B E)^2
        return {"r1": [(-B * E) * (-B * E) + alpha * _pow(E, 4) - 2.0 * _pow(E, 3) + E * E
                       for B, E, _ in rows],
                "r2": [B * B + C * E + 1.0 for B, E, C in rows]}

    return f, invariants


def elliptic_system(B: float, E: float, C: float, alpha: float):
    """Derivatives (B', E', C') and the two invariant residuals of the reduction.

    r1 is the single-equation form (E')^2 + alpha E^4 - 2 E^3 + E^2 evaluated
    with E' = -B E; r2 is B^2 + C E + 1, the det C1 = 1 constraint (the
    second integral of the flow equals -1 on this reduction).
    """
    f, invariants = _elliptic(alpha)
    return f(0.0, (B, E, C)), tuple(v[0] for v in invariants([(B, E, C)]).values())


def elliptic_point(E: float, alpha: float, branch: float = 1.0) -> tuple[float, float, float]:
    """A point (B, E, C) on the constraint manifold with the given E and alpha."""
    b2 = -1.0 - alpha * E * E + 2.0 * E
    if b2 < 0.0:
        raise InvalidInputError(f"B^2 = {b2:.3g} < 0: no real point at E={E}, alpha={alpha}")
    return (branch * float(np.sqrt(b2)), E, alpha * E - 2.0)


# ---------------------------------------------------------------------------
# One table row per reduction, and the one run that reads it.
# ---------------------------------------------------------------------------

_G = ("G", "G1", "G2")

# name -> (initial entries, params, state columns, build).  A state column beyond
# the initial entries starts at the param in the same place (b0 starts B, phi0 phi).
# build takes the other params and returns the right-hand side f(t, y) and
# invariants(rows), which maps each invariant's name to its value at every row.
REDUCTIONS = {
    "ChazyV": (_G, (), _G, partial(_chazy, "ChazyV")),
    "ChazyV_shifted": (_G, (), _G, partial(_chazy, "ChazyV_shifted")),
    "ChazyVII": (_G, ("b0",), _G + ("B",), partial(_chazy, "ChazyVII")),
    "ChazyVIII": (_G, (), _G, partial(_chazy, "ChazyVIII")),
    "ChazyIII": (_G, ("phi0", "b0"), _G + ("phi", "B"), partial(_chazy, "ChazyIII")),
    "Boussinesq": (("E", "E1"), ("alpha", "beta", "gamma"), ("E", "E1"), _boussinesq),
    "Elliptic": (("B", "E", "C"), ("alpha",), ("B", "E", "C"), _elliptic),
}


def reduction_row(name: str) -> tuple:
    """The row of REDUCTIONS named ``name``."""
    if name not in REDUCTIONS:
        raise InvalidInputError(f"unknown reduction {name!r} (expected one of {tuple(REDUCTIONS)})")
    return REDUCTIONS[name]


def integrate_reduction(name: str, initial: Sequence[float], params: Mapping[str, float],
                        span: tuple[float, float], step: float) -> Trajectory:
    """Integrate one reduction of REDUCTIONS, recording its invariants at every step.

    ``initial`` holds its initial entries in order, and ``params`` maps its param
    names to values; a param left out is 0.  Both are judged by ``finite_numbers``.
    """
    entries, names, columns, build = reduction_row(name)
    if len(initial) != len(entries):
        raise InvalidInputError(f"{name} takes the initial entries {entries}, got {len(initial)}")
    y0 = finite_numbers(f"{name} initial", dict(zip(entries, initial)), entries)
    params = finite_numbers(f"{name} params", params, names)
    values = tuple(params.get(k, 0.0) for k in names)
    carried = len(columns) - len(entries)
    f, invariants = build(*values[carried:])
    ts, ys, status, diagnostic = integrate_fixed(f, span[0], (*y0.values(), *values[:carried]),
                                                 span[1], step)
    histories = invariants(ys.tolist())   # float arithmetic per row, not numpy scalars
    return Trajectory(kind=name, ts=ts, states=ys, columns=columns,
                      invariants={k: np.array(v) for k, v in histories.items()},
                      status=status, diagnostic=diagnostic)


# The views below are the names perfbench traces, so callers that want a
# reduction's own layer in the trace call them rather than integrate_reduction.

def integrate_chazy(variant: str, initial, span, step, **params: float) -> Trajectory:
    return integrate_reduction(variant, initial, params, span, step)


def integrate_boussinesq(initial, alpha: float, beta: float, gamma: float,
                         span, step) -> Trajectory:
    return integrate_reduction("Boussinesq", initial,
                               {"alpha": alpha, "beta": beta, "gamma": gamma}, span, step)


def integrate_elliptic(initial, alpha: float, span, step) -> Trajectory:
    return integrate_reduction("Elliptic", initial, {"alpha": alpha}, span, step)

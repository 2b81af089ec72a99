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
against the matrix central systems they came from.  Each right-hand side is an
``integrators.Rhs``, stated once as text with no ** and no unguarded division: RK4
writes that text into its loop, and the per-point callable that ``chazy_rhs``,
``boussinesq_rhs_and_companions`` and ``elliptic_system`` call is compiled from it.
A Chazy variant's text is built from the texts of its G''' and B', so both are inline.
Invariants are evaluated on the state columns as arrays, each power by the one
per-entry power ``algebra_core._pow``; the public per-point helpers run the same code.

Each reduction is one row of ``REDUCTIONS``: its initial entries, params, state
columns and the builder of its right-hand side and invariants.
``integrate_reduction`` is the one run that reads a row; ``integrate_chazy``,
``integrate_boussinesq`` and ``integrate_elliptic`` are one-line views of it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cache, partial

import numpy as np

from .algebra_core import (_pow, finite_number, finite_numbers, finite_span, is_finite_number,
                           one_of)
from .errors import InvalidInputError
from .integrators import Rhs, Trajectory, integrate_fixed

# G''' of each variant as text over (G, G1, G2, phi, dphi), which chazy_rhs and
# each variant's right-hand side compile; only Generic reads phi = Phi and dphi = Phi'.
_CHAZY_G3 = {
    "ChazyV": "-2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2",
    "ChazyV_shifted": "-2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2 + G1",
    "Generic": "-2.0 * G * G * G1 - 4.0 * G1 * G1 - 2.0 * G * G2 + 2.0 * G1 * phi + G * dphi",
    "ChazyVII": "-2.0 * G * G * G1 - 2.0 * G1 * G1 - G * G2",
    "ChazyVIII": "6.0 * G * G * G1",
    "ChazyIII": "2.0 * G * G2 - 3.0 * G1 * G1",
}
CHAZY_VARIANTS = tuple(_CHAZY_G3)
_G = ("G", "G1", "G2")


def chazy_rhs(variant: str, G: float, G1: float, G2: float,
              phi: float = 0.0, dphi: float = 0.0) -> float:
    """Third derivative G''' for the requested variant (Generic needs phi, dphi)."""
    g3 = one_of("Chazy variant", _CHAZY_G3, variant)
    return Rhs(_G, ("phi", "dphi"), ("G1", "G2", g3)).point((G, G1, G2), (phi, dphi))[2]


def _second_integral(G: float, G1: float, G2: float, closing: float) -> float:
    return -0.5 * _pow(G, 4) + 0.5 * G1 * G1 - 2.0 * G * G * G1 - G * G2 + closing * G * G


def chazy_second_integral(G: float, G1: float, G2: float,
                          B_or_phi: float, variant: str) -> float:
    """The conserved second integral of the Chazy reduction.

    For ChazyV / ChazyV_shifted the last argument is the constant B and the
    closing term is B G^2 / 2; for the Phi-based variants it is Phi itself
    and the closing term is Phi G^2.
    """
    one_of("Chazy variant", _CHAZY_G3, variant)
    if variant in ("ChazyV", "ChazyV_shifted"):
        B_or_phi = 0.5 * B_or_phi
    return _second_integral(G, G1, G2, B_or_phi)


def reconstruct_from_G(G: float, G1: float, G2: float,
                       B: float = 0.0, B1: float = 0.0) -> dict[str, float]:
    """Map a Chazy state back to 2x2 structure constants with C = 1, E + N = 0.

    Substituting C = 1, N = -E into the 2x2 Lax flow forces

        E = -(G' + G^2 - G B) / 2,
        M = -(G'' + 3 G G' + G^3 - G^2 B - (G B)') / 2,

    where (G B)' = G' B + G B'.
    """
    E = -0.5 * (G1 + G * G - G * B)
    M = -0.5 * (G2 + 3.0 * G * G1 + _pow(G, 3) - G * G * B - (G1 * B + G * B1))
    return {"B": B, "C": 1.0, "E": E, "G": G, "M": M, "N": -E}


# B' = Phi - B^2/2, the Riccati equation by which ChazyVII and ChazyIII carry B, as text
# over B and {phi}, the variant's Phi, which their right-hand sides compile inline.
_RICCATI = "{phi} - 0.5 * B * B"
_riccati = eval(f"lambda phi, B: {_RICCATI.format(phi='phi')}")


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
    return one_of("reconstruction variant", _CHAZY_PHI_B, variant)(*row)


# |G| below which ChazyIII's quadrature, which divides by G, raises SingularFlowError.
CHAZY_III_TOL = 1e-9

# The state columns that ChazyVII and ChazyIII carry beyond G, G1, G2, with their
# expressions and guard: both carry B so the reconstruction map stays available, and
# ChazyIII also carries Phi, integrated from the quadrature relation, which divides by G.
_CHAZY_CARRIED = {
    "ChazyVII": (("B",), (_RICCATI.format(phi="G1"),), ""),
    "ChazyIII": (("phi", "B"),
                 ("(2.0 * G * G * G1 + G1 * G1 + 4.0 * G * G2 - 2.0 * G1 * phi) / G",
                  _RICCATI.format(phi="phi")),
                 f"if abs(G) < {CHAZY_III_TOL!r}:\n"
                 "    raise SingularFlowError('ChazyIII quadrature needs G bounded away from 0')"),
}


@cache
def _chazy(variant: str):
    """The right-hand side and invariants of one Chazy variant; neither reads a param."""
    carried, exprs, guards = _CHAZY_CARRIED.get(variant, ((), (), ""))
    rhs = Rhs(_G + carried, (), ("G1", "G2", _CHAZY_G3[variant]) + exprs, guards)
    phi_B = _CHAZY_PHI_B[variant]

    # Phi = B^2 / 2 is exactly B / 2 for the constant B (0 or 1) of ChazyV and
    # ChazyV_shifted, so Phi is the closing coefficient of I2 for every variant.
    def invariants(columns):
        return {"I2_chazy": _second_integral(*columns[:3], phi_B(*columns)[0])}

    return rhs, invariants


# ---------------------------------------------------------------------------
# Boussinesq-type reduction of the 3x3 flow (B = 0, C = 1, G = 0).
# ---------------------------------------------------------------------------

_BOUSSINESQ = Rhs(("E", "E1"), ("alpha", "beta"), ("E1", "6.0 * E * E - 4.0 * alpha * E - beta"))


def _boussinesq(alpha: float, beta: float, gamma: float):
    """The right-hand side E'' = 6 E^2 - 4 alpha E - beta and the invariant I3."""
    def invariants(columns):
        E, E1 = columns
        return {"I3": (_pow(alpha, 3) / 3.0 + gamma * gamma + 0.5 * alpha * beta
                       - 0.25 * E1 * E1 + _pow(E, 3) - alpha * E * E - 0.5 * beta * E)}

    return _BOUSSINESQ.bind((alpha, beta)), invariants


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
        "I3": invariants((E, E1))["I3"],
    }
    return f(0.0, (E, E1))[1], entries, integrals


# ---------------------------------------------------------------------------
# Elliptic reduction of the unimodular L3 flow (M = 0, N = 1, B + G = 0).
# ---------------------------------------------------------------------------

_ELLIPTIC = Rhs(("B", "E", "C"), (), ("(1.0 + C) * E", "-B * E", "-(2.0 + C) * B"))


def _elliptic(alpha: float):
    """The right-hand side (B', E', C'), which does not read alpha, and the residuals r1, r2."""
    def invariants(columns):   # r1 with (E')^2 = (-B E)^2
        B, E, C = columns
        return {"r1": (-B * E) * (-B * E) + alpha * _pow(E, 4) - 2.0 * _pow(E, 3) + E * E,
                "r2": B * B + C * E + 1.0}

    return _ELLIPTIC, invariants


def elliptic_system(B: float, E: float, C: float, alpha: float):
    """Derivatives (B', E', C') and the two invariant residuals of the reduction.

    r1 is the single-equation form (E')^2 + alpha E^4 - 2 E^3 + E^2 evaluated
    with E' = -B E; r2 is B^2 + C E + 1, the det C1 = 1 constraint (the
    second integral of the flow equals -1 on this reduction).
    """
    f, invariants = _elliptic(alpha)
    return f(0.0, (B, E, C)), tuple(invariants((B, E, C)).values())


def elliptic_point(E: float, alpha: float, branch: float = 1.0) -> tuple[float, float, float]:
    """A point (B, E, C) on the constraint manifold with the given E and alpha, B taking the
    sign of ``branch``.  InvalidInputError unless E and alpha are each a ``finite_number``,
    branch is 1 or -1, and B^2 = -1 - alpha E^2 + 2 E is finite and not negative."""
    finite_number("E", E)
    finite_number("alpha", alpha)
    if not is_finite_number(branch) or abs(branch) != 1:
        raise InvalidInputError(f"branch must be 1 or -1, got {branch!r}")
    b2 = -1.0 - alpha * E * E + 2.0 * E
    if b2 < 0.0:
        raise InvalidInputError(f"B^2 = {b2:.3g} < 0: no real point at E={E}, alpha={alpha}")
    if not np.isfinite(b2):   # alpha E^2 or 2 E overflowed
        raise InvalidInputError(f"B^2 = {b2} is not finite at E={E}, alpha={alpha}")
    return (branch * float(np.sqrt(b2)), E, alpha * E - 2.0)


# ---------------------------------------------------------------------------
# One table row per reduction, and the one run that reads it.
# ---------------------------------------------------------------------------

# name -> (initial entries, params, state columns, build).  A state column beyond
# the initial entries starts at the param in the same place (b0 starts B, phi0 phi).
# build takes the other params and returns the right-hand side, an Rhs with them bound, and
# invariants(columns), which maps each invariant's name to its value at every row:
# an array from the state columns as arrays, a float from floats.
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
    return one_of("reduction", REDUCTIONS, name)


def integrate_reduction(name: str, initial: Sequence[float], params: Mapping[str, float],
                        span: tuple[float, float], step: float) -> Trajectory:
    """Integrate one reduction of REDUCTIONS, recording its invariants at every step.

    ``initial`` holds its initial entries in order, and ``params`` maps its param
    names to values; a param left out is 0.  Both are judged by ``finite_numbers``,
    and ``span`` by ``finite_span``.
    """
    entries, names, columns, build = reduction_row(name)
    if not isinstance(initial, (list, tuple, np.ndarray)):
        raise InvalidInputError(f"{name} initial must be a sequence of numbers, got {initial!r}")
    if len(initial) != len(entries):
        raise InvalidInputError(f"{name} takes the initial entries {entries}, got {len(initial)}")
    y0 = finite_numbers(f"{name} initial", dict(zip(entries, initial)), entries)
    params = finite_numbers(f"{name} params", params, names)
    values = tuple(params.get(k, 0.0) for k in names)
    carried = len(columns) - len(entries)
    f, invariants = build(*values[carried:])
    t0, t1 = finite_span("span", span)
    ts, ys, status, diagnostic = integrate_fixed(f, t0, (*y0.values(), *values[:carried]), t1, step)
    with np.errstate(all="ignore"):   # inf and NaN, as float arithmetic gives them
        histories = invariants(tuple(ys.T))
    return Trajectory(ts=ts, states=ys, columns=columns, invariants=histories,
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

"""Fixed-step classical Runge-Kutta integration with a blow-up guard.

All flows in this package are short desk-scale runs whose tests rely on the
deterministic fourth-order error law of RK4, so no adaptive stepping is used.
The requested span is divided into round(span/step) equal steps, which lands
on the endpoint exactly and keeps step-halving comparisons clean.  No run
takes more than MAX_STEPS steps; a longer one is rejected before it starts.

A state is a tuple of floats, on which RK4 does the IEEE operations of its float64
array form in the same order; the (steps + 1, k) array of states is made up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, SingularFlowError

OVERFLOW_GUARD = 1e12
MAX_STEPS = 10 ** 6

STATUS_COMPLETED = "completed"
STATUS_TRUNCATED = "truncated"


@dataclass(frozen=True)
class Trajectory:
    """The result of one fixed-step run, held as arrays.

    Row i of ``states`` is the recorded state at ``ts[i]``, one column per
    name in ``columns``; every array in ``invariants`` has one entry (or row)
    per time.  ``kind`` names the flow system or reduction that was run.
    """

    kind: str
    ts: np.ndarray
    states: np.ndarray
    columns: tuple[str, ...]
    invariants: dict[str, np.ndarray]
    status: str = STATUS_COMPLETED
    diagnostic: str | None = None


def step_count(t0: float, t1: float, step: float) -> int:
    """Number of equal steps of about ``step`` from t0 to t1, at most MAX_STEPS."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = abs(t1 - t0) / step
    if not n <= MAX_STEPS:
        raise InvalidInputError(f"span / step = {n:.3g} exceeds MAX_STEPS = {MAX_STEPS}")
    return max(1, round(n)) if t1 != t0 else 0


def integrate_fixed(f: Callable[[float, tuple[float, ...]], tuple[float, ...]],
                    t0: float, y0: Sequence[float], t1: float, step: float,
                    guard: float = OVERFLOW_GUARD):
    """Integrate y' = f(t, y) from t0 to t1; f takes and returns tuples of floats.

    Returns (ts, ys, status, diagnostic).  The run is truncated (not raised)
    when a right-hand-side evaluation hits a singularity (SingularFlowError,
    ZeroDivisionError, FloatingPointError) or an entry is NaN or above the
    guard in size; ``ys`` then holds the states up to the last good point.
    Any other error in the right-hand side is a bug and propagates.
    """
    n = step_count(t0, t1, step)
    y = tuple(float(v) for v in y0)
    ys = np.empty((n + 1, len(y)))
    ys[0] = y
    h = (t1 - t0) / n if n else 0.0
    half, sixth = 0.5 * h, h / 6.0
    t, rows, diagnostic = t0, n + 1, None
    for i in range(n):
        try:
            k1 = f(t, y)
            k2 = f(t + half, tuple(a + half * b for a, b in zip(y, k1)))
            k3 = f(t + half, tuple(a + half * b for a, b in zip(y, k2)))
            k4 = f(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        except (SingularFlowError, ZeroDivisionError, FloatingPointError) as exc:
            rows, diagnostic = i + 1, f"{type(exc).__name__}: {exc}"
            break
        y = tuple(a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        t = t0 + (i + 1) * h
        if not all(abs(v) <= guard for v in y):   # a NaN fails the test too
            rows, diagnostic = i + 1, f"state exceeded overflow guard {guard:g} at t={t:.6g}"
            break
        ys[i + 1] = y
    ts = np.concatenate(([t0], t0 + np.arange(1, rows) * h))   # keeps a t0 of -0.0
    status = STATUS_COMPLETED if diagnostic is None else STATUS_TRUNCATED
    return ts, ys[:rows], status, diagnostic

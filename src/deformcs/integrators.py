"""Fixed-step classical Runge-Kutta integration with a blow-up guard.

All flows in this package are short desk-scale runs whose tests rely on the
deterministic fourth-order error law of RK4, so no adaptive stepping is used.
The requested span is divided into round(span/step) equal steps, which lands
on the endpoint exactly and keeps step-halving comparisons clean.  No run
takes more than MAX_STEPS steps; a longer one is rejected before it starts.
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


def rk4_step(f: Callable[[float, np.ndarray], np.ndarray],
             t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_count(t0: float, t1: float, step: float) -> int:
    """Number of equal steps of about ``step`` from t0 to t1, at most MAX_STEPS."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = abs(t1 - t0) / step
    if not n <= MAX_STEPS:
        raise InvalidInputError(f"span / step = {n:.3g} exceeds MAX_STEPS = {MAX_STEPS}")
    return max(1, round(n)) if t1 != t0 else 0


def integrate_fixed(f: Callable[[float, np.ndarray], np.ndarray],
                    t0: float, y0: Sequence[float], t1: float, step: float,
                    guard: float = OVERFLOW_GUARD):
    """Integrate y' = f(t, y) from t0 to t1.

    Returns (ts, ys, status, diagnostic).  The run is truncated (not raised)
    when a right-hand-side evaluation hits a singularity (SingularFlowError,
    ZeroDivisionError, FloatingPointError) or the state exceeds the guard;
    ``ys`` then holds the states up to the last good point.  Any other error
    in the right-hand side is a bug and propagates.
    """
    y = np.asarray(y0, dtype=float)
    ts = [t0]
    ys = [y.copy()]
    n = step_count(t0, t1, step)
    if n == 0:
        return np.array(ts), np.array(ys), STATUS_COMPLETED, None
    h = (t1 - t0) / n
    t = t0
    for k in range(n):
        try:
            y = rk4_step(f, t, y, h)
        except (SingularFlowError, ZeroDivisionError, FloatingPointError) as exc:
            return np.array(ts), np.array(ys), STATUS_TRUNCATED, f"{type(exc).__name__}: {exc}"
        t = t0 + (k + 1) * h
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > guard:
            return (np.array(ts), np.array(ys), STATUS_TRUNCATED,
                    f"state exceeded overflow guard {guard:g} at t={t:.6g}")
        ts.append(t)
        ys.append(y.copy())
    return np.array(ts), np.array(ys), STATUS_COMPLETED, None

"""Fixed-step classical Runge-Kutta integration with a blow-up guard.

All flows in this package are short desk-scale runs whose tests rely on the
deterministic fourth-order error law of RK4, so no adaptive stepping is used.
The requested span is divided into round(span/step) equal steps, which lands
on the endpoint exactly and keeps step-halving comparisons clean.  No run
takes more than MAX_STEPS steps; a longer one is rejected before it starts, and
so is a span that fails ``algebra_core.finite_span`` (two finite numbers, end >= start)
or a step that fails ``positive_number``.

A state is a tuple of k floats, on which RK4 does the IEEE operations of its
float64 array form in the same order.  The whole run is one loop of straight-line
code per state size k, generated from ``_RUN_TEMPLATE`` on the first run with that k
and cached: it calls f four times per step, unpacks the state and each stage into k
locals (so a right-hand side that returns a tuple of the wrong length raises
ValueError instead of being cut to size) and writes each accepted state into the
(steps + 1, k) array made before the run.  Each stage is ``y + half*k1`` (``h*k3``
for the last) per entry and the update ``y + sixth*(k1 + 2.0*k2 + 2.0*k3 + k4)``, so
a run is bit for bit what the same loop over ``zip``s of tuples gives; the guard
``-guard <= y_j <= guard`` is false for NaN and infinities, as ``abs(y_j) <= guard`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .algebra_core import finite_span, positive_number
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
    per time.
    """

    ts: np.ndarray
    states: np.ndarray
    columns: tuple[str, ...]
    invariants: dict[str, np.ndarray]
    status: str = STATUS_COMPLETED
    diagnostic: str | None = None


def step_count(t0: float, t1: float, step: float) -> int:
    """Number of equal steps of about ``step`` from t0 to t1, at most MAX_STEPS.

    Raises InvalidInputError unless (t0, t1) passes ``finite_span`` and the step passes
    ``positive_number``."""
    t0, t1 = finite_span("span", (t0, t1))
    n = (t1 - t0) / positive_number("step", step)   # inf past float range
    if not n <= MAX_STEPS:
        raise InvalidInputError(f"span / step = {n:.3g} exceeds MAX_STEPS = {MAX_STEPS}")
    return max(1, round(n)) if t1 != t0 else 0


def integrate_fixed(f: Callable[[float, tuple[float, ...]], tuple[float, ...]],
                    t0: float, y0: Sequence[float], t1: float, step: float):
    """Integrate y' = f(t, y) from t0 to t1; f takes and returns tuples of floats.

    Returns (ts, ys, status, diagnostic).  The run is truncated (not raised)
    when a right-hand-side evaluation hits a singularity (SingularFlowError,
    ZeroDivisionError, FloatingPointError) or an entry is NaN or above
    OVERFLOW_GUARD in size; ``ys`` then holds the states up to the last good point.
    Any other error in the right-hand side is a bug and propagates, and so
    does the ValueError of a result with other than len(y0) entries.
    """
    n = step_count(t0, t1, step)
    y = tuple(float(v) for v in y0)
    ys = np.empty((n + 1, len(y)))
    ys[0] = y
    h = (t1 - t0) / n if n else 0.0
    with memoryview(ys.reshape(-1)) as out:
        rows, diagnostic = _run_factory(len(y))(f, t0, y, n, h, out, OVERFLOW_GUARD)
    ts = np.concatenate(([t0], t0 + np.arange(1, rows) * h))   # keeps a t0 of -0.0
    status = STATUS_COMPLETED if diagnostic is None else STATUS_TRUNCATED
    return ts, ys[:rows], status, diagnostic


# {y} is "y0, y1, ..., " with one local per entry, and so are {a}, ..., {d}; {stage_a}
# is "y0 + half * a0, ...", {new} the RK4 update, {bounded} the guard test per entry
# and {store} the writes of row i + 1 into the flat view ``out`` of the states.
_RUN_TEMPLATE = """
def run(f, t0, y, n, h, out, guard):
    half, sixth = 0.5 * h, h / 6.0
    ({y}) = y
    t, i, o = t0, 0, len(y)
    try:
        for i in range(n):
            ({a}) = f(t, y)
            ({b}) = f(t + half, ({stage_a}))
            ({c}) = f(t + half, ({stage_b}))
            ({d}) = f(t + h, ({stage_c}))
            y = ({y}) = ({new})
            t = t0 + (i + 1) * h
            if not ({bounded}):
                return i + 1, f"state exceeded overflow guard {{guard:g}} at t={{t:.6g}}"
            {store}
    except (SingularFlowError, ZeroDivisionError, FloatingPointError) as exc:
        return i + 1, f"{{type(exc).__name__}}: {{exc}}"
    return n + 1, None
"""


@cache
def _run_factory(k: int):
    """``run(f, t0, y, n, h, out, guard)`` for states of k entries: n RK4 steps from
    (t0, y), the state after step i written to ``out[k * (i + 1):]``.  It returns the
    number of rows kept and the diagnostic of a truncation, or None."""
    def each(form):   # "form(0), form(1), ..., " with form(j) = form.format(j=j)
        return "".join(form.format(j=j) + ", " for j in range(k))

    source = _RUN_TEMPLATE.format(
        **{v: each(v + "{j}") for v in "yabcd"},
        stage_a=each("y{j} + half * a{j}"), stage_b=each("y{j} + half * b{j}"),
        stage_c=each("y{j} + h * c{j}"),
        new=each("y{j} + sixth * (a{j} + 2.0 * b{j} + 2.0 * c{j} + d{j})"),
        bounded=" and ".join(f"-guard <= y{j} <= guard" for j in range(k)) or "True",
        store="".join(f"out[o + {j}] = y{j}; " for j in range(k)) + f"o += {k}")
    namespace = {"SingularFlowError": SingularFlowError}
    exec(compile(source, f"<rk4 run, k={k}>", "exec"), namespace)
    return namespace["run"]

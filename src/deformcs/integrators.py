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
code, generated from ``_RUN_TEMPLATE`` on the first run with that state size k (for
a plain callable f) or that ``Rhs`` text, and cached.  A plain callable is called
exactly four times per step, and each stage it returns is unpacked into k locals (so
one that returns a tuple of the wrong length raises ValueError instead of being cut
to size).  An ``Rhs`` is not called: its text is written into the loop, where each
stage sets the entry names, runs the guards and assigns one local per expression,
with the params bound to locals once.  Each accepted state is written into the
(steps + 1, k) array made before the run.  Each stage is ``y + half*k1`` (``h*k3``
for the last) per entry and the update ``y + sixth*(k1 + 2.0*k2 + 2.0*k3 + k4)``, so
a run is bit for bit what the same loop over ``zip``s of tuples gives; the guard
``-guard <= y_j <= guard`` is false for NaN and infinities, as ``abs(y_j) <= guard`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
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


class Rhs:
    """A right-hand side y' = f(y) stated once, as text, with its params bound to ``values``.

    ``entries`` and ``params`` name the state entries and the params; ``guards`` holds
    statements run first, which may raise SingularFlowError, and ``exprs`` one expression
    per entry, in order.  They read those names, ``abs`` and SingularFlowError only.
    ``point`` is the function f(y, p) compiled from the text, which a call f(t, y) runs on
    ``values``; ``integrate_fixed`` writes the same text into its loop instead.  Texts are
    compiled on first use and cached by ``key``, so every binding of one text shares its code.
    """

    def __init__(self, entries: tuple[str, ...], params: tuple[str, ...],
                 exprs: tuple[str, ...], guards: str = "", values: Sequence[float] = ()):
        self.key = (entries, params, exprs, guards)
        self.entries, self.params, self.exprs, self.guards = self.key
        self.values = tuple(values)

    def bind(self, values: Sequence[float]) -> Rhs:
        return Rhs(*self.key, values)

    @cached_property
    def point(self):
        return _point(self.key)

    def __call__(self, _t, y):
        return self.point(y, self.values)


def step_count(t0: float, t1: float, step: float) -> int:
    """Number of equal steps of about ``step`` from t0 to t1, at most MAX_STEPS.

    Raises InvalidInputError unless (t0, t1) passes ``finite_span`` and the step passes
    ``positive_number``."""
    t0, t1 = finite_span("span", (t0, t1))
    n = (t1 - t0) / positive_number("step", step)   # inf past float range
    if not n <= MAX_STEPS:
        raise InvalidInputError(f"span / step = {n:.3g} exceeds MAX_STEPS = {MAX_STEPS}")
    return max(1, round(n)) if t1 != t0 else 0


def integrate_fixed(f: Rhs | Callable[[float, tuple[float, ...]], tuple[float, ...]],
                    t0: float, y0: Sequence[float], t1: float, step: float):
    """Integrate y' = f(t, y) from t0 to t1; f takes and returns tuples of floats.

    Returns (ts, ys, status, diagnostic).  The run is truncated (not raised)
    when a right-hand-side evaluation hits a singularity (SingularFlowError,
    ZeroDivisionError, FloatingPointError) or an entry is NaN or above
    OVERFLOW_GUARD in size; ``ys`` then holds the states up to the last good point.
    Any other error in the right-hand side is a bug and propagates, and so
    does the ValueError of a result with other than len(y0) entries.  An Rhs is
    run from its text, written into the loop (a y0 with other than its number of
    entries raises ValueError); any other f is called.
    """
    n = step_count(t0, t1, step)
    y = tuple(float(v) for v in y0)
    ys = np.empty((n + 1, len(y)))
    ys[0] = y
    h = (t1 - t0) / n if n else 0.0
    with memoryview(ys.reshape(-1)) as out:
        run = _run_factory(f.key if isinstance(f, Rhs) else len(y))
        rows, diagnostic = run(f, t0, y, n, h, out, OVERFLOW_GUARD)
    ts = np.concatenate(([t0], t0 + np.arange(1, rows) * h))   # keeps a t0 of -0.0
    status = STATUS_COMPLETED if diagnostic is None else STATUS_TRUNCATED
    return ts, ys[:rows], status, diagnostic


def _compile(source: str, name: str, where: str):
    namespace = {"SingularFlowError": SingularFlowError}
    exec(compile(source, where, "exec"), namespace)
    return namespace[name]


def _tuple(items) -> str:   # "a, b, ": a tuple target or display of any length
    return "".join(v + ", " for v in items)


@cache
def _point(key: tuple):
    """The per-point function f(y, p) of the Rhs text ``key``."""
    entries, params, exprs, guards = key
    guards = guards.replace("\n", "\n    ")
    return _compile(f"def f(_y, _p):\n    ({_tuple(entries)}) = _y\n"
                    f"    ({_tuple(params)}) = _p\n    {guards}\n"
                    f"    return ({_tuple(exprs)})\n", "f", f"<rhs {entries}>")


# Every local of the loop starts with "_", which no entry or param name does.  {y} is
# "_y0, _y1, ..., " with one local per entry; {a}, ..., {d} are the four stages, each
# leaving its derivative in "_a0, ...", ..., "_d0, ..." by a call of _f or by the text
# of an Rhs, whose params {bind} makes locals; {new} is the RK4 update, {tick} the time
# a called _f reads, {bounded} the guard test per entry and {store} the writes of row
# _i + 1 into the flat view ``_out`` of the states.
_RUN_TEMPLATE = """
def run(_f, _t0, _y, _n, _h, _out, _guard):
    _half, _sixth = 0.5 * _h, _h / 6.0
    ({y}) = _y
    {bind}
    _t, _i, _o = _t0, 0, len(_y)
    try:
        for _i in range(_n):
            {a}
            {b}
            {c}
            {d}
            {new}
            {tick}
            if not ({bounded}):
                _t = _t0 + (_i + 1) * _h
                return _i + 1, f"state exceeded overflow guard {{_guard:g}} at t={{_t:.6g}}"
            {store}
    except (SingularFlowError, ZeroDivisionError, FloatingPointError) as _exc:
        return _i + 1, f"{{type(_exc).__name__}}: {{_exc}}"
    return _n + 1, None
"""


@cache
def _run_factory(form: int | tuple):
    """``run(f, t0, y, n, h, out, guard)``: n RK4 steps from (t0, y), the state after
    step i written to ``out[k * (i + 1):]``, for states of k = ``form`` entries and a
    plain callable f, or for an Rhs f whose ``key`` is ``form``, running its text.  It
    returns the number of rows kept and the diagnostic of a truncation, or None."""
    rhs = Rhs(*form) if isinstance(form, tuple) else None
    k = len(rhs.entries) if rhs else form

    def each(form):   # form.format(j=j) for each entry j
        return [form.format(j=j) for j in range(k)]

    # each stage: the prefix of its derivative's locals, its state and the time _f reads
    stages = (("_a", "_y{j}", "_t"), ("_b", "_y{j} + _half * _a{j}", "_t + _half"),
              ("_c", "_y{j} + _half * _b{j}", "_t + _half"),
              ("_d", "_y{j} + _h * _c{j}", "_t + _h"))
    if rhs:   # set the entries to the stage's state, run the guards, then the expressions
        code = ["; ".join(f"{e} = {v}" for e, v in zip(rhs.entries, each(state)))
                + f"\n{rhs.guards}\n"
                + "; ".join(f"{d}{j} = {x}" for j, x in enumerate(rhs.exprs))
                for d, state, _ in stages]
    else:
        code = [f"({_tuple(each(d + '{j}'))}) = _f({t}, ({_tuple(each(state))}))"
                for d, state, t in stages]
    source = _RUN_TEMPLATE.format(
        **{v: c.replace("\n", "\n" + " " * 12) for v, c in zip("abcd", code)},
        y=_tuple(each("_y{j}")), bind=f"({_tuple(rhs.params)}) = _f.values" if rhs else "",
        tick="" if rhs else "_t = _t0 + (_i + 1) * _h",
        new="; ".join(each("_y{j} = _y{j} + _sixth * (_a{j} + 2.0 * _b{j} + 2.0 * _c{j} + _d{j})")),
        bounded=" and ".join(each("-_guard <= _y{j} <= _guard")) or "True",
        store="".join(each("_out[_o + {j}] = _y{j}; ")) + f"_o += {k}")
    return _compile(source, "run", f"<rk4 run, {rhs.entries if rhs else k}>")

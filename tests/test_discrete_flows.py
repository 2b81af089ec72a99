import math
import warnings
from contextlib import suppress
from fractions import Fraction

import numpy as np
import pytest

from deformcs import discrete_flows
from deformcs.algebra_core import DEGENERACY_TOL, assoc_residual
from deformcs.cli import _map_artifacts
from deformcs.closed_forms import SolutionFamily, eval_family
from deformcs.dda_registry import discrete_cs_residual
from deformcs.discrete_flows import (MapState, _advance, _companion, _invariants,
                                     _matrices, check_map, degeneracy_flags,
                                     discrete_oriented_assoc_residual, init_map_state,
                                     lattice_field_from_l5_orbit, map_invariants,
                                     oriented_assoc_defect, orbit, step)
from deformcs.integrators import MAX_STEPS, OVERFLOW_GUARD
from deformcs.errors import (DeformError, InvalidInputError, SingularGaugeError,
                             SingularOrbitError)

from _oracles import (map_exact_invariants, map_exact_step, orbit_matrices,
                      oriented_assoc_defect_per_point, oriented_assoc_residual_loop)

GAUGE_CUBIC = ([1.0, 0.3], [0.0, 1.0, 0.1], [0.2, 0.0, 1.0, 0.05])
ROW_ULPS = 8.0   # bound on _ulps_off_exact: one step, or one row's invariants


def _phi_samples(coeffs, xs):
    return np.array([np.polynomial.polynomial.polyval(xs.astype(float), np.array(c))
                     for c in coeffs])


# ---------------------------------------------------------------------------
# Hand-checked transitions.
# ---------------------------------------------------------------------------

def test_l4_hand_transitions():
    st = init_map_state("L4", dict(B=1, C=1, E=0, G=1, M=1, N=0))
    s1 = step("L4", st)
    e1 = s1.entries()
    assert (e1["E"], e1["G"], e1["M"], e1["N"]) == (1.0, 0.0, 0.0, 1.0)
    s2 = step("L4", s1)
    e2 = s2.entries()
    assert (e2["E"], e2["G"], e2["M"], e2["N"]) == (1.0, 0.0, 0.0, 1.0)  # fixed point


def test_l4_hand_invariants():
    st = init_map_state("L4", dict(B=1, C=1, E=0, G=1, M=1, N=0))
    s1 = step("L4", st)
    for s, U in ((st, [[-1, 1], [1, 0]]), (s1, [[0, 1], [1, -1]])):
        # U = C2 C1^-1 = C2 adj(C1) / det C1 in Fractions, for C1 = [[B, E], [C, G]]
        B, C, E, G, M, N = map(Fraction, s.values)
        det1 = B * G - C * E
        assert [[(E * G - M * C) / det1, (M * B - E * E) / det1],
                [(G * G - N * C) / det1, (N * B - G * E) / det1]] == U
        exact = map_exact_invariants("L4", s.values)
        assert (exact["I1"], exact["I2"]) == (-1, Fraction(3, 2))
        inv = map_invariants("L4", s)
        assert inv["I1"] == pytest.approx(-1.0)
        assert inv["I2"] == pytest.approx(1.5)


def test_l2b_hand_transition():
    st = init_map_state("L2b", dict(B=1, C=0, E=1, G=1, M=1, N=1))
    s1 = step("L2b", st)
    e1 = s1.entries()
    assert (e1["E"], e1["G"], e1["M"], e1["N"]) == (0.0, 1.0, 0.0, 2.0)
    before, after = map_invariants("L2b", st), map_invariants("L2b", s1)
    assert before["I1"] == after["I1"] == 2.0
    assert before["det_C2"] == after["det_C2"] == 0.0


# ---------------------------------------------------------------------------
# Orbits that stop stepping, and conserved invariants.
# ---------------------------------------------------------------------------

def _exact_row(dda, values, prev_C1=None) -> list[Fraction]:
    """The row after ``values``, solved exactly by ``map_exact_step``."""
    nums, den = map_exact_step(dda, values, prev_C1)
    return [*map(Fraction, values[:2]), *(Fraction(n, den) for n in nums)]


def _ulps_off(got, exact) -> float:
    """The worst |g - x| over the floats g and exact values x, in ulps of max(1, |x|)."""
    return max(float(abs(Fraction(g) - x)) / math.ulp(max(1.0, abs(float(x))))
               for g, x in zip(got, exact, strict=True))


def _ulps_off_exact(run) -> float:
    """The worst ``_ulps_off`` of an orbit's rows against the exact step of the row before, and
    of its kept invariants against their rows' exact ones; L5 reads C1 one row further back."""
    rows = run.entries.tolist()
    backs = [run.prev_C1, *orbit_matrices(run.entries)[0][:-1].tolist()]
    steps = [_ulps_off(b, _exact_row(run.dda, a, p)) for a, b, p in zip(rows, rows[1:], backs)]
    exact = [map_exact_invariants(run.dda, rows[i], backs[i]) for i in run.invariant_rows]
    return max(steps + [_ulps_off(v, [x[k] for x in exact]) for k, v in run.invariants.items()])


def test_l4_orbits_at_b_c_one_stay_on_the_exact_orbit_of_their_start():
    # the exact orbit of each start's floats, in rationals
    worst = 0.0
    for E, G, M, N in np.random.default_rng(7).uniform(-1.0, 1.0, (100, 4)).tolist():
        run = orbit("L4", init_map_state("L4", dict(B=1.0, C=1.0, E=E, G=G, M=M, N=N)), 30)
        assert run.status == "completed"
        exact = run.entries[0].tolist()
        for row in run.entries[1:].tolist():
            exact = _exact_row("L4", exact)
            worst = max(worst, _ulps_off(row, exact))
    assert worst <= 1000.0, worst


@pytest.mark.parametrize("dda, entries, steps, rows, calls, kept", [
    ("L4", dict(B=1.0, C=1.0, E=0.4, G=1.3, M=0.8, N=-0.2), 6, 7, 2, 7),
    ("L4", dict(B=0.7, C=-0.4, E=0.4, G=1.3, M=0.8, N=-0.2), 0, 1, 1, 1),
    ("L4", dict(B=1.0, C=1.0, E=0.0, G=2.0, M=1.0, N=1.0), 10, 2, 2, 1),
    ("L4", dict(B=1e300, C=0.5, E=1e10, G=2.0, M=0.3, N=0.1), 5, 1, 1, 1),
    ("L2b", dict(B=1.2, C=0.3, E=0.8, G=1.5, M=0.4, N=0.9), 6, 7, 6, 7),
    ("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1), 6, 7, 6, 7),
    ("L5", dict(B=2.0, C=1.0, E=3.0, G=0.5, M=1.5, N=2.25), 4, 5, 1, 5),
], ids=["L4_completed", "L4_no_step", "L4_singular", "L4_beyond_guard", "L2b", "L5", "L5_fixed"])
def test_orbit_finds_each_rows_k_at_most_once(dda, entries, steps, rows, calls, kept,
                                              monkeypatch):
    # L4 finds the K of each row once, by the step that leaves it or, for a last row no
    # step left, by one more call; its invariants are kept where K was found.  L2b and L5
    # find only the K their steps use.  The first start repeats row 1 from row 2 on, so
    # its orbit stops stepping there and copies row 1's K to the later rows.  The last
    # has C2 = 2I + C1/2, so its first step repeats the start and the C1 the start carries
    seen = []

    def counted(dda, values):
        seen.append(values)
        return _companion(dda, values)

    monkeypatch.setattr(discrete_flows, "_companion", counted)
    run = orbit(dda, init_map_state(dda, entries), steps)
    assert len(run.entries) == rows
    assert seen == [tuple(row) for row in run.entries.tolist()][:calls]
    assert run.invariant_rows.tolist() == list(range(kept))


def _stepped_orbit(dda, state0, steps):
    """``orbit`` as a plain loop over ``_advance`` that steps every row: the entries,
    flags, invariants, invariant rows, status and diagnostic."""
    values = state0.values
    prev_C1 = None if state0.prev_C1 is None else state0.prev_C1.tolist()
    rows, pq, status, diagnostic = [values], [], "completed", None
    for n in range(state0.n, state0.n + steps):
        try:
            values, prev_C1, k = _advance(dda, values, prev_C1)
        except SingularOrbitError as exc:
            status, diagnostic = "truncated", f"singular step at n={n}: {exc}"
            break
        pq.append(k)
        if not all(abs(v) <= OVERFLOW_GUARD for v in values[2:]):
            status, diagnostic = "truncated", f"state exceeded overflow guard at n={n + 1}"
            break
        rows.append(values)
    if dda == "L4" and status == "completed":
        with suppress(SingularOrbitError):
            pq.append(_companion(dda, values))
    entries = np.array(rows)
    _, invariants, kept = _invariants(dda, entries, state0.prev_C1, pq)
    return entries, degeneracy_flags(entries), invariants, kept, status, diagnostic


def _orbit_bits(entries, flags, invariants, kept, status, diagnostic):
    return (entries.shape, entries.tobytes(), flags.tobytes(),
            {name: v.tobytes() for name, v in invariants.items()}, kept.tolist(),
            status, diagnostic)


def _sweep_entry(rng):
    """One start entry: a signed zero, +-1, a small integer, a value in [-1, 1] or one
    of magnitude 1e-300 to 1e300."""
    kind = rng.integers(5)
    if kind == 0:
        return float(rng.choice([0.0, -0.0]))
    if kind == 1:
        return float(rng.choice([1.0, -1.0]))
    if kind == 2:
        return float(rng.integers(-3, 4))
    if kind == 3:
        return float(rng.uniform(-1.0, 1.0))
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))


def _first_repeat(dda, state0, entries):
    """(first row, period) of the first state of ``entries`` that a later row repeats bit for
    bit, a state being the row and, for L5, the C1 it carries; None if none repeats."""
    carried = [b""] * len(entries)
    if dda == "L5":
        C1 = np.vstack([np.reshape(state0.prev_C1, (1, 4)), entries[:-1, [0, 2, 1, 3]]])
        carried = [row.tobytes() for row in C1.astype(float)]
    seen = {}
    for i, row in enumerate(entries):
        first = seen.setdefault((row.tobytes(), carried[i]), i)
        if first != i:
            return first, i - first
    return None


def _stepped_alike(dda, state0, steps):
    """``orbit`` from ``state0``, once it is checked to equal ``_stepped_orbit`` bit for bit,
    to give as its cycle the first repeated state of that loop, and to take every step unless
    it found one."""
    run = orbit(dda, state0, steps)
    want = _stepped_orbit(dda, state0, steps)
    assert _orbit_bits(run.entries, run.flags, run.invariants, run.invariant_rows,
                       run.status, run.diagnostic) == _orbit_bits(*want), (dda, state0, steps)
    if run.cycle is not None:
        assert run.cycle == _first_repeat(dda, state0, want[0]), (dda, state0, steps)
    elif run.status == "completed":
        assert run.steps_computed == steps, (dda, state0, steps)
    return run


def test_orbit_equals_the_loop_that_steps_every_row_bit_for_bit():
    # a repeated state stops the stepping: the seeded starts below reach that shortcut,
    # with and without a zero in the repeated row, on cycles of period 1, 2 and more,
    # and every other way an orbit ends
    rng = np.random.default_rng(30)
    repeats = {False: 0, True: 0}   # orbits ending on a repeated row and its cycle, by a zero
    for i in range(1500):
        dda = ("L2b", "L4", "L5")[i % 3]
        start = {name: _sweep_entry(rng) for name in "BCEGMN"}
        if rng.random() < 0.3:
            start.update(B=1.0, C=1.0)
        prev = None
        if dda == "L5" and rng.random() < 0.5:
            prev = {name: _sweep_entry(rng) for name in "BCEG"}
        steps = int(rng.choice([0, 1, 2, 5, 50, 400]))
        run = _stepped_alike(dda, init_map_state(dda, start, prev), steps)
        rows = run.entries.tolist()
        if len(rows) >= 3 and rows[-1] == rows[-2] == rows[-3] and run.cycle is not None:
            repeats[0.0 in rows[-1]] += 1
    assert min(repeats.values()) >= 50, repeats
    periods = {2: 0, 3: 0}   # orbits ending on a cycle of period 2, and of 3 or more
    for i in range(300):
        dda = ("L2b", "L4", "L5")[i % 3]
        start = dict(zip("BCEGMN", rng.uniform(-1.5, 1.5, 6).tolist()))
        run = _stepped_alike(dda, init_map_state(dda, start), 400)
        if run.cycle is not None and run.cycle[1] > 1:
            periods[min(run.cycle[1], 3)] += 1
    assert min(periods.values()) >= 10, periods


EXACT_REPEATS = {   # start, previous C1, steps -> (cycle, steps computed)
    # rows 1 and 2 compare equal, but row 1's E is -0.0 and row 2's is 0.0, and row 3's M
    # is 0.0 where row 2's is -0.0: the state first repeats at row 4
    "L2b_signed_zero_in_the_row": ("L2b", dict(B=-0.5938925467411018, C=0.0, E=0.5,
                                               G=0.12606925196262142, M=-0.0, N=-0.0),
                                   None, 5, (3, 1), 4),
    # row 1 equals row 0, but the C1 it leaves behind is row 0's, not the start's
    # previous C1, so row 2 differs
    "L5_other_carried_c1": ("L5", dict(B=2, C=1, E=1, G=3, M=4, N=7),
                            dict(B=1, C=1, E=-1, G=4), 4, None, 4),
    # rows 2 and 3 are the same bits, but they carry E = -0.0 and 0.0 in their C1,
    # so row 4's N is 0.0 where row 3's is -0.0
    "L5_signed_zero_in_the_carried_c1": ("L5", dict(B=0.5, C=0.0, E=-0.0, G=2.0, M=-1.0, N=-0.0),
                                         dict(B=0.5, C=0.0, E=-0.0, G=-2.0), 8, (4, 1), 5),
    # rows 31 to 34 repeat from row 35 on, and row 31 holds E = 0.0
    "L5_zero_in_the_cycle": ("L5", dict(B=2.0, C=-3.0, E=-1.0, G=-0.5, M=-0.5, N=-0.25),
                             None, 400, (31, 4), 36),
    # the map_l4 golden: every row from row 1 on is (1, 1, 1.0, 0.0, 0.0, 1.0)
    "L4_zero_in_the_fixed_point": ("L4", dict(B=1, C=1, E=0, G=1, M=1, N=0), None, 50,
                                   (1, 1), 2),
}


@pytest.mark.parametrize("case", sorted(EXACT_REPEATS))
def test_a_state_repeats_exactly_when_its_bits_do(case):
    # == cannot tell -0.0 from 0.0 and a row from the C1 it carries; the bits can, and a
    # zero in a state that repeats bit for bit does not keep its cycle from being found
    dda, start, prev, steps, cycle, computed = EXACT_REPEATS[case]
    run = _stepped_alike(dda, init_map_state(dda, start, prev), steps)
    assert (run.cycle, run.steps_computed) == (cycle, computed)


def test_a_stationary_orbit_stops_calling_the_companion(monkeypatch):
    # README's L4 example repeats row 1 from row 2 on: two calls find every row's K
    calls = []

    def counted(dda, values):
        calls.append(values)
        return _companion(dda, values)

    monkeypatch.setattr(discrete_flows, "_companion", counted)
    start = dict(B=1, C=1, E=0.4, G=1.3, M=0.8, N=-0.2)
    run = orbit("L4", init_map_state("L4", start), 50)
    assert calls == [tuple(row) for row in run.entries[:2].tolist()]
    assert run.entries.shape == (51, 6)
    assert (run.entries[2:] == run.entries[1]).all()
    assert run.invariant_rows.tolist() == list(range(51))
    assert (run.invariants["I1"][1:] == run.invariants["I1"][1]).all()


CYCLES = {   # start -> (first row, period) of its cycle, found within 400 steps
    "L2b_period2": ("L2b", dict(B=0.4, C=0.6, E=0.1, G=-0.6, M=-0.3, N=1.3), (95, 2)),
    "L2b_period3": ("L2b", dict(B=0.7, C=-0.2, E=-0.9, G=1.2, M=-1.4, N=-0.6), (35, 3)),
    "L4_period2": ("L4", dict(B=-0.9, C=0.8, E=-0.7, G=1.2, M=0.0, N=-0.6), (3, 2)),
    "L4_period4": ("L4", dict(B=-0.1, C=1.3, E=-1.3, G=-1.0, M=1.4, N=1.2), (158, 4)),
    "L5_period2": ("L5", dict(B=-0.7, C=0.7, E=-0.8, G=1.0, M=0.6, N=-1.1), (98, 2)),
    "L5_period3": ("L5", dict(B=1.0, C=-1.3, E=-1.2, G=1.4, M=0.8, N=-0.5), (119, 3)),
}


@pytest.mark.parametrize("case", sorted(CYCLES))
def test_the_tile_starts_at_the_first_row_of_the_cycle(case):
    # the state before the cycle differs from the state one period on, and the tiled
    # rows, flags and invariants repeat from the first row of the cycle on
    dda, start, (first, period) = CYCLES[case]
    run = _stepped_alike(dda, init_map_state(dda, start), 400)
    assert run.cycle == (first, period)
    bits = run.entries.view(np.int64)
    assert (bits[first + period:] == bits[first:-period]).all()
    before = bits[first - 1] != bits[first - 1 + period]
    if dda == "L5":   # or in the C1 it carries, the row before's
        before = np.append(before, bits[first - 2, 2:4] != bits[first - 2 + period, 2:4])
    assert before.any()
    assert (run.flags[first + period:] == run.flags[first:-period]).all()
    for values in run.invariants.values():
        assert values[first + period:].tobytes() == values[first:-period].tobytes()


@pytest.mark.parametrize("dda, start, calls, cycle", [
    ("L4", dict(B=1, C=1, E=0.4, G=1.3, M=0.8, N=-0.2), 2, (1, 1)),
    ("L4", CYCLES["L4_period2"][1], 6, (3, 2)),
    ("L2b", CYCLES["L2b_period3"][1], 67, (35, 3)),
    ("L5", CYCLES["L5_period3"][1], 131, (119, 3)),
    ("L2b", dict(B=-0.33625521626379906, C=0.22379194729131746, E=0.015265319784833142,
                 G=-0.6874036474552168, M=0.6080634449110325, N=-0.9622722140187119),
     118, (117, 1)),
    ("L2b", dict(B=-0.3, C=1.4, E=0.3, G=0.8, M=-0.3, N=-0.9), 400, None),
    ("L4", dict(B=-0.1, C=0.1, E=1.4, G=-1.2, M=1.2, N=-0.2), 400, None),
    ("L5", dict(B=-0.2, C=0.5, E=-0.2, G=0.4, M=1.4, N=0.5), 400, None),
], ids=["period1", "period2", "L2b_period3", "L5_period3", "L2b_late_period1", "L2b_never",
        "L4_never", "L5_never"])
def test_orbit_steps_until_its_state_repeats(dda, start, calls, cycle, monkeypatch):
    # a period-1 cycle is found on its first repeat, a longer one when it comes back to the
    # state saved at the last power of two; an orbit that never repeats steps every row.
    # L2b_late_period1 is why the period-1 test stays beside Brent's method: its fixed point,
    # entered at row 117, is found after 118 steps; Brent's method alone would wait for the
    # state it saves at row 128 and take 129
    made = []

    def counted(*args):
        made.append(args[1])
        return _advance(*args)

    monkeypatch.setattr(discrete_flows, "_advance", counted)
    run = orbit(dda, init_map_state(dda, start), 400)
    assert (len(made), run.steps_computed, run.cycle) == (calls, calls, cycle)
    assert made == [tuple(row) for row in run.entries[:calls].tolist()]


@pytest.mark.parametrize("dda,entries", [
    ("L2b", dict(B=1.2, C=0.3, E=0.8, G=1.5, M=0.4, N=0.9)),
    ("L4", dict(B=1.0, C=1.0, E=0.4, G=1.3, M=0.8, N=-0.2)),
    ("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1)),
])
def test_invariants_conserved_over_fifty_steps(dda, entries):
    run = orbit(dda, init_map_state(dda, entries), 50)
    assert run.status == "completed"
    assert run.invariant_rows.tolist() == list(range(51))
    for name, values in run.invariants.items():
        ref = values[0]
        drift = np.max(np.abs(values - ref))
        assert drift <= 1e-10 * max(1.0, abs(ref)), (dda, name)


# ---------------------------------------------------------------------------
# Orbits against the exact steps and invariants of their rows.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dda,entries,prev,steps", [
    ("L2b", dict(B=1.2, C=0.3, E=0.8, G=1.5, M=0.4, N=0.9), None, 25),
    ("L4", dict(B=1.0, C=1.0, E=0.4, G=1.3, M=0.8, N=-0.2), None, 30),
    ("L4", dict(B=0.7, C=-0.4, E=0.4, G=1.3, M=0.8, N=-0.2), None, 20),
    ("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1), None, 15),
    ("L5", dict(B=1.0, C=0.5, E=0.3, G=0.8, M=0.2, N=0.6),
     dict(B=1.0, C=0.5, E=0.2, G=0.9, M=0.1, N=0.5), 12),
], ids=["L2b", "L4_b_c_one", "L4_general", "L5", "L5_prev"])
def test_orbit_matches_solve_oracle(dda, entries, prev, steps):
    run = orbit(dda, init_map_state(dda, entries, prev), steps)
    start = run.entries[0].tolist()
    assert run.status == "completed"
    assert run.entries.shape == (steps + 1, 6) and start == [entries[k] for k in "BCEGMN"]
    assert run.invariant_rows.tolist() == list(range(steps + 1))
    assert sorted(run.invariants) == sorted(map_exact_invariants(dda, start, run.prev_C1))
    assert _ulps_off_exact(run) <= ROW_ULPS
    # the lazy view agrees with the arrays
    assert [s.n for s in run.states] == list(range(steps + 1))
    assert run.states[-1].entries() == dict(zip("BCEGMN", run.entries[-1].tolist()))


def test_orbit_truncates_at_singular_step_like_oracle():
    # (E, G, M, N) = (0, 2, 1, 1) steps to E = G = 1, where det C1 = G - E = 0
    entries = dict(B=1.0, C=1.0, E=0.0, G=2.0, M=1.0, N=1.0)
    run = orbit("L4", init_map_state("L4", entries), 10)
    assert run.status == "truncated"
    assert run.diagnostic == "singular step at n=1: E - G = 0.000e+00 below tolerance"
    assert run.entries[0].tolist() == list(entries.values()) and len(run.entries) == 2
    # the row with det C1 = 0 has no step and no invariants, in the orbit and exactly
    last = run.entries[1].tolist()
    assert map_exact_step("L4", last) is None and map_exact_invariants("L4", last) is None
    assert run.invariant_rows.tolist() == [0]
    assert _ulps_off_exact(run) == 0.0
    assert run.flags.tolist() == [[False, False, False], [True, True, True]]
    assert run.states[1].flags == ("det_C1_degenerate", "E_minus_G_degenerate",
                                   "det_C2_degenerate")


def test_orbit_truncates_on_non_finite_entries():
    # (p, q) = (1e308, 0): E' = pC = 1e308, G' and N' are exact and M' = pG = 3e308 is
    # beyond the float range, so the guard stops the orbit on an inf
    e = dict(B=1.0, C=1.0, E=2.0, G=3.0, M=1e308, N=1e308)
    nxt = step("L2b", init_map_state("L2b", e))
    run = orbit("L2b", init_map_state("L2b", e), 5)
    assert nxt.values[2:] == (1e308, 1.0, math.inf, 2.0)
    assert run.status == "truncated"
    assert run.diagnostic == "state exceeded overflow guard at n=1"
    assert len(run.entries) == 1


def test_orbit_states_build_pairs_only_when_read():
    run = orbit("L5", init_map_state("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1)), 4)
    st = run.states[2]
    assert "pair" not in vars(st)
    assert st.flags == ()
    assert np.array_equal(st.prev_C1, run.states[1].pair.C1)
    assert np.array_equal(st.pair.C2, [[st.values[2], st.values[4]], [st.values[3], st.values[5]]])
    assert len(run.states[1:3]) == 2 and run.states[-1].n == 4
    with pytest.raises(IndexError):
        run.states[5]
    with pytest.raises(ValueError):
        run.entries[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Degeneracy handling.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("G, diff", [(0.5, "0.000e+00"), (0.5 + 2.0 ** -42, "-2.274e-13")])
def test_l4_degenerate_denominator_raises(G, diff):
    # BG - CE = G - E exactly at B = C = 1; the message gives E - G, as the closed form wrote it
    st = init_map_state("L4", dict(B=1, C=1, E=0.5, G=G, M=0.8, N=-0.2))
    with pytest.raises(SingularOrbitError) as err:
        step("L4", st)
    assert str(err.value) == f"E - G = {diff} below tolerance"


def test_orbit_truncates_at_degeneracy_without_crashing():
    st = init_map_state("L4", dict(B=1, C=1, E=0.5, G=0.5, M=0.8, N=-0.2))
    run = orbit("L4", st, 10)
    assert run.status == "truncated"
    assert "singular" in run.diagnostic
    assert len(run.states) == 1
    assert "E_minus_G_degenerate" in run.states[0].flags
    # det C1 = G - E = 0 as well, so no row has invariants
    assert run.invariants == {} and run.invariant_rows.size == 0
    with pytest.raises(SingularOrbitError):
        map_invariants("L4", run.states[0])


def test_l2b_degenerate_det_raises():
    st = init_map_state("L2b", dict(B=1.0, C=1.0, E=1.0, G=1.0, M=0.3, N=0.4))
    with pytest.raises(SingularOrbitError) as err:
        step("L2b", st)
    assert str(err.value) == "BG - CE = 0.000e+00 below tolerance"


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_below_tolerance_c1_is_named_bg_minus_ce_on_the_solve_branch(dda):
    # B, C != 1, so L4 names BG - CE too (at B = C = 1 it names E - G);
    # BG - CE = 2 * 0.5 - 1 * 1 = 0
    st = init_map_state(dda, dict(B=2.0, C=1.0, E=1.0, G=0.5, M=0.3, N=0.4))
    with pytest.raises(SingularOrbitError) as err:
        step(dda, st)
    assert str(err.value) == "BG - CE = 0.000e+00 below tolerance"
    diagnostic = orbit(dda, st, 3).diagnostic
    assert diagnostic == "singular step at n=0: BG - CE = 0.000e+00 below tolerance"


def test_l5_orbit_from_a_state_without_the_previous_c1_is_refused():
    with pytest.raises(InvalidInputError,
                       match=r"^L5 state lacks the previous C1 \(use init_map_state\)$"):
        orbit("L5", MapState(0, (1.0, 0.5, 0.3, 0.8, 0.2, 0.6)), 3)


@pytest.mark.parametrize("dda", ["L2b", "L4", "L5"])
def test_a_hand_built_state_of_six_numbers_steps_as_its_tuple_of_floats(dda):
    # check_map takes any six ints or floats, inf and NaN included (step returns them
    # unguarded), in a tuple, list or 1-D array
    prev = np.array([[1, 0], [2, 3]]) if dda == "L5" else None
    floats = (2.0, 1.0, 0.5, 3.0, math.inf, math.nan)
    want = step(dda, MapState(0, floats, prev))
    for values in ([2, 1, 0.5, 3, math.inf, math.nan], np.array(floats),
                   (2, np.float64(1.0), 0.5, 3, math.inf, math.nan)):
        got = step(dda, MapState(0, values, prev))
        assert np.array_equal(got.values, want.values, equal_nan=True)


HAND_BUILT = {   # six ints and, for L5, C1 one site back: orbits that repeat from row 0 or 1
    "L2b": ((-1, -1, 0, 1, 0, 1), None),
    "L4": ((1, 1, 1, 0, 0, 1), None),
    "L5": ((-1, -1, 1, 0, 0, 1), [[-1, 1], [-1, 0]]),
}


@pytest.mark.parametrize("dda", sorted(HAND_BUILT))
def test_a_hand_built_start_repeats_where_its_floats_do(dda, tmp_path):
    # a start of ints, in a tuple or a list, or a numpy array of ints or floats, is read as
    # the doubles a float start holds: its state repeats at the same row, and it writes the
    # same CSV rows
    values, prev = HAND_BUILT[dda]
    floats, prev_floats = tuple(map(float, values)), prev and np.array(prev, dtype=float)
    starts = {"floats": MapState(0, floats, prev_floats),
              "ints": MapState(0, values, prev and np.array(prev)),
              "int_list": MapState(0, list(values), prev and np.array(prev)),
              "int_array": MapState(0, np.array(values), prev and np.array(prev)),
              "float_array": MapState(0, np.array(floats), prev_floats)}
    found = {}
    for name, state in starts.items():
        run = orbit(dda, state, 50)
        _map_artifacts(dda, state, 50, 1, tmp_path)
        found[name] = run.cycle, run.steps_computed, (tmp_path / "orbit.csv").read_bytes()
    assert found["floats"][0] is not None
    assert all(got == found["floats"] for got in found.values()), found


# |BG - CE| = 2.9e-11 is above DEGENERACY_TOL, yet C1's second pivot u rounds to 0
LU_SINGULAR = dict(B=8.768610301148978, C=0.4804184990778926, E=369740.7014836463,
                   G=20257.51706989476, M=0.5, N=0.25)
LU_SINGULAR_DIAGNOSTIC = "C1 is singular to working precision (BG - CE = -2.910e-11)"


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_c1_with_a_zero_second_pivot_truncates_the_orbit(dda):
    st = init_map_state(dda, LU_SINGULAR)
    B, C, E, G = st.values[:4]
    assert _second_pivot(B, C, E, G) == 0.0
    with pytest.raises(SingularOrbitError) as err:
        step(dda, st)
    assert str(err.value) == LU_SINGULAR_DIAGNOSTIC
    assert f"(BG - CE = {B * G - C * E:.3e})" in LU_SINGULAR_DIAGNOSTIC
    run = orbit(dda, st, 5)
    assert run.status == "truncated"
    assert run.diagnostic == f"singular step at n=0: {LU_SINGULAR_DIAGNOSTIC}"
    assert len(run.entries) == 1


# |BG - CE| = 1.0002e-12 is above DEGENERACY_TOL, |det C1| by LU 9.99997e-13 below it
DET_C1_EDGE = dict(B=7.708318289072918, C=0.2314628579958361, E=4.146032151403236,
                   G=0.12449569609337394)


def test_l4_row_reads_c1_as_its_flag_does():
    B, C, E, G = DET_C1_EDGE.values()
    assert abs(B * G - C * E) >= 1e-12 > abs(np.linalg.det([[B, E], [C, G]]))
    run = orbit("L4", init_map_state("L4", DET_C1_EDGE), 0)
    assert not run.flags[0, 0]
    assert run.invariant_rows.tolist() == [0]
    # M = N = 0, so K = [[0, 0], [1, 0]]: the invariants are exactly 0
    exact = map_exact_invariants("L4", run.entries[0].tolist())
    assert run.invariants == {k: [float(v)] for k, v in exact.items()} == {
        k: [0.0] for k in ("I1", "I2", "I3")}
    assert map_invariants("L4", run.states[0]) == {k: v[0] for k, v in run.invariants.items()}


def test_l4_row_at_exactly_the_tolerance_steps_and_keeps_its_invariants():
    # |BG - CE| = 1 * 1e-12 - 0 is DEGENERACY_TOL itself: not below it
    entries = dict(B=1.0, C=0.0, E=0.0, G=1e-12, M=2.0, N=1e-13)
    run = orbit("L4", init_map_state("L4", entries), 1)
    assert run.status == "completed" and len(run.entries) == 2
    assert run.flags[0].tolist() == [False, False, False]
    assert run.invariant_rows.tolist() == [0, 1]
    assert _ulps_off_exact(run) <= ROW_ULPS


def test_l4_row_whose_c1_has_a_zero_second_pivot_has_no_invariants():
    run = orbit("L4", init_map_state("L4", LU_SINGULAR), 0)
    assert not run.flags[0, 0]
    assert run.invariants == {} and run.invariant_rows.size == 0
    with pytest.raises(SingularOrbitError) as err:
        map_invariants("L4", run.states[0])
    B, C, E, G = run.entries[0, :4]
    assert str(err.value) == (f"C1 has no inverse (BG - CE = {B * G - C * E:.3e}): "
                              "invariants need C1^-1")
    assert str(err.value) == "C1 has no inverse (BG - CE = -2.910e-11): invariants need C1^-1"


def _second_pivot(B, C, E, G) -> float:
    """u of C1's elimination with the rows swapped when |C| > |B|, l = c (1/a)."""
    a, b, c, e = (C, G, B, E) if abs(C) > abs(B) else (B, E, C, G)
    return e - c * (1.0 / a) * b


def test_l4_rows_have_invariants_exactly_when_unflagged_and_invertible():
    # near-singular rows: B, C, E uniform, G placed so that |BG - CE| < 3e-12
    rng = np.random.default_rng(0)
    rows = 20000
    B, C, E = rng.uniform(-10.0, 10.0, (3, rows))
    G = (C * E + rng.uniform(-3e-12, 3e-12, rows)) / B
    entries = np.vstack([np.column_stack([B, C, E, G, rng.uniform(-1.0, 1.0, (rows, 2))]),
                         list(LU_SINGULAR.values()), [*DET_C1_EDGE.values(), 0.5, 0.25]])
    unflagged = ~degeneracy_flags(entries)[:, 0]
    want = [i for i, row in enumerate(entries.tolist())
            if unflagged[i] and _second_pivot(*row[:4]) != 0.0]
    got, pq = [], []
    for i, row in enumerate(entries.tolist()):
        with suppress(SingularOrbitError):
            pq.append(_companion("L4", row))
            got.append(i)
    assert got == want
    assert len(want) < unflagged.sum()   # the LU_SINGULAR row
    _, invariants, rows = _invariants("L4", entries[got], None, pq)
    assert rows.tolist() == list(range(len(want)))
    for name, values in invariants.items():
        assert values.shape == (len(want),), name
    # the rule an LU determinant gives leaves out other rows than the flag
    by_lu = np.abs(np.linalg.det(_matrices(entries)[0])) >= 1e-12
    assert np.count_nonzero(by_lu != unflagged) >= 10
    for i in np.flatnonzero(by_lu != unflagged)[:5]:
        run = orbit("L4", init_map_state("L4", dict(zip("BCEGMN", entries[i]))), 0)
        assert run.invariant_rows.tolist() == ([0] if unflagged[i] else [])


def _nearest_det_c2(row) -> float:
    """EN - GM of one orbit row, exactly in Fractions, rounded once to the nearest float."""
    _, _, E, G, M, N = map(Fraction, row)
    return float(E * N - G * M)


def test_l2b_det_c2_is_read_off_the_entries_as_its_flag_is():
    # det C2 = EN - GM is conserved by L2b, so starts placed with it within a factor 2 of
    # DEGENERACY_TOL keep their rows' det C2 on both sides of the tolerance
    rng = np.random.default_rng(25)
    near = {False: 0, True: 0}
    for _ in range(40):
        B, C, E, G, M = rng.uniform(-1.0, 1.0, 5)
        N = (G * M + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * DEGENERACY_TOL) / E
        run = orbit("L2b", init_map_state("L2b", dict(B=B, C=C, E=E, G=G, M=M, N=N)), 30)
        assert run.invariant_rows.tolist() == list(range(len(run.entries)))
        want = [_nearest_det_c2(row) for row in run.entries.tolist()]
        assert run.invariants["det_C2"].tobytes() == np.array(want).tobytes()
        assert run.flags[:, 2].tolist() == [abs(d) < DEGENERACY_TOL for d in want]
        for d in want:
            if 0.5 * DEGENERACY_TOL < abs(d) < 2.0 * DEGENERACY_TOL:
                near[abs(d) < DEGENERACY_TOL] += 1
    assert min(near.values()) >= 100


def test_det_c2_is_the_float_nearest_the_exact_en_minus_gm():
    # magnitudes from 1e-100 to 1e100, with GM within 1e-9 of EN on every other row, where
    # the plain E * N - G * M is off in most rows
    rng = np.random.default_rng(26)
    entries = rng.standard_normal((4000, 6)) * 10.0 ** rng.integers(-100, 101, (4000, 1))
    entries[::2, 4] = entries[::2, 2] * entries[::2, 5] / entries[::2, 3] * (
        1.0 + 1e-9 * rng.standard_normal(2000))
    want = np.array([_nearest_det_c2(row) for row in entries.tolist()])
    assert discrete_flows._flagged(*entries.T)[2].tobytes() == want.tobytes()
    _, _, E, G, M, N = entries.T
    assert np.count_nonzero(E * N - G * M != want) > 1000


def test_det_c2_falls_back_to_the_plain_difference_where_it_is_not_finite():
    # inf and NaN entries, products that overflow, and entries whose halves overflow
    rows = [[1, 0, np.inf, 1, 1, 1], [1, 0, np.nan, 1, 1, 1], [1, 0, 1e200, 1, 1e200, 1e200],
            [1, 0, 1e300, 1, 0, 1e-10], [1, 0, 1e305, 1, 1.0, 2e-305], [1, 0, -0.0, 1, 0, 0]]
    entries = np.array(rows, dtype=float)
    _, _, E, G, M, N = entries.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy warning escapes
        got = discrete_flows._flagged(*entries.T)[2]
        flags = degeneracy_flags(entries)
    with np.errstate(all="ignore"):
        plain = E * N - G * M
    assert np.array_equal(got[:5], plain[:5], equal_nan=True) and got[5] == 0.0
    assert flags[:, 2].tolist() == [False] * 5 + [True]


# ---------------------------------------------------------------------------
# Steps against the exact step.
# ---------------------------------------------------------------------------

def _kernel_outcome(dda, values, prev):
    """'singular', or the next (E, G, M, N) if all are within OVERFLOW_GUARD, or 'beyond'."""
    try:
        nxt = _advance(dda, values, prev)[0][2:]
    except SingularOrbitError:
        return "singular"
    return nxt if all(abs(v) <= OVERFLOW_GUARD for v in nxt) else "beyond"


def _exact_outcome(dda, values, prev):
    """As ``_kernel_outcome`` for the exact step of a finite start, after the tolerance
    test on BG - CE in floats that the step makes first; values as (numerator, denominator)."""
    B, C, E, G = values[:4]
    exact = None if abs(B * G - C * E) < DEGENERACY_TOL else map_exact_step(dda, values, prev)
    if exact is None:
        return "singular"
    nums, den = exact
    if any(abs(n) > int(OVERFLOW_GUARD) * den for n in nums):
        return "beyond"
    return [(n, den) for n in nums]


def _ulps(got: float, exact: tuple[int, int]) -> float:
    """|got - x| in units in the last place of x, the exact value rounded to a float."""
    x = exact[0] / exact[1]
    return abs(got - x) / math.ulp(x)


def _against_exact(dda, rows, prev):
    """The count of steps whose outcome differs from the exact step's, and the worst-entry
    error in ulps of each step that stays within the guard on both sides."""
    differ, ulps = 0, []
    for values, p in zip(rows.tolist(), prev.tolist()):
        got, want = _kernel_outcome(dda, values, p), _exact_outcome(dda, values, p)
        if isinstance(got, str) or isinstance(want, str):
            differ += got != want
        else:
            ulps.append(max(map(_ulps, got, want)))
    return differ, np.array(ulps)


def _normal_solve_rows(rng: np.random.Generator, count: int):
    """Rows and previous C1s of standard normal entries: well-scaled steps."""
    return rng.standard_normal((count, 6)), rng.standard_normal((count, 2, 2))


def _random_solve_rows(rng: np.random.Generator, count: int):
    """Rows and previous C1s on the general branch.  C1's columns are scaled by s and
    1/s and the previous C1's by p and 1/p, with s and p up to 1e+-100, and C2's
    second column by t up to 1e+-30.  About half the rows have |C| > |B| (a pivot
    swap), and a quarter a C1 with |BG - CE| from 3e-12 to 1e-8."""
    s, p = 10.0 ** rng.uniform(-100.0, 100.0, (2, count))
    t = 10.0 ** rng.uniform(-30.0, 30.0, count)
    B, C, E, G = rng.standard_normal((4, count))
    det = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-11.5, -8.0, count)
    G = np.where(rng.random(count) < 0.25, (C * E + det) / B, G)
    rows = np.column_stack([B * s, C * s, E / s, G / s, *rng.standard_normal((2, count)) * t])
    return rows, rng.standard_normal((count, 2, 2)) * np.column_stack([p, 1.0 / p])[:, None, :]


def _extreme_solve_rows(rng: np.random.Generator, count: int):
    """Rows and previous C1s across the whole double range, in four equal parts:
    signed powers of ten up to 1e+-308; subnormal B and C beside huge E, G; rank-one
    C1s plus a perturbation from 1e-17 to 1e-8; and entries drawn from signed zeros,
    subnormals, 1e+-308, inf and NaN.  Each previous C1 is another row's C1."""
    part = count // 4

    def signed(exponents):
        return rng.choice([-1.0, 1.0], exponents.shape) * 10.0 ** exponents

    wide = signed(rng.uniform(-308.0, 308.0, (part, 6)))
    subnormal = signed(np.column_stack([rng.uniform(-323.0, -308.0, (part, 2)),
                                        rng.uniform(250.0, 308.0, (part, 2)),
                                        rng.uniform(-308.0, 308.0, (part, 2))]))
    u, v = rng.standard_normal((2, part, 2))
    noise = signed(rng.uniform(-17.0, -8.0, (part, 1, 1))) * rng.standard_normal((part, 2, 2))
    rank_one = u[:, :, None] * v[:, None, :] + noise
    near = np.column_stack([rank_one[:, 0, 0], rank_one[:, 1, 0], rank_one[:, 0, 1],
                            rank_one[:, 1, 1], rng.standard_normal((part, 2))])
    special = rng.choice([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 0.5, -3.0,
                          1e300, -1e308, np.inf, -np.inf, np.nan], (part, 6))
    rows = np.vstack([wide, subnormal, near, special])
    return rows, _matrices(rows[rng.permutation(len(rows))])[0]


def _finite_starts(rows, prev):
    finite = np.isfinite(rows).all(axis=1) & np.isfinite(prev).all(axis=(1, 2))
    return rows[finite], prev[finite]


# The LAPACK step that the companion kernel replaced (numpy 2.4.6, OpenBLAS 0.3.31 with
# its SkylakeX kernel), measured by ``_against_exact`` on these draws: the steps whose
# outcome differs from the exact step's, and the p50, p99 and max of the worst-entry ulps.
LAPACK_STEP = {
    ("normal", "L4"): (0, 2.0, 202.0, 7362.0),
    ("normal", "L5"): (0, 2.0, 248.0, 72730.0),
    ("random", "L4"): (2951, 1.302e19, 2.07e48, 1.496e51),
    ("random", "L5"): (33, 8.413e9, 1.357e35, 1.357e35),
    ("extreme", "L4"): (159, 1.0, 4.664e289, math.inf),
    ("extreme", "L5"): (62, 1.786e8, math.inf, math.inf),
}
DRAWS = {"normal": lambda: _normal_solve_rows(np.random.default_rng(7), 10_000),
         "random": lambda: _random_solve_rows(np.random.default_rng(20081), 10_000),
         "extreme": lambda: _finite_starts(*_extreme_solve_rows(np.random.default_rng(20082),
                                                                10_000))}


@pytest.mark.parametrize("draw, dda", LAPACK_STEP)
def test_step_is_as_close_to_the_exact_step_as_the_lapack_step_was(draw, dda):
    differ, ulps = _against_exact(dda, *DRAWS[draw]())
    lapack_differ, *lapack_ulps = LAPACK_STEP[draw, dda]
    assert differ <= lapack_differ
    figures = [*np.quantile(ulps, [0.5, 0.99], method="higher"), ulps.max()]
    # the max of a normal draw is one entry that cancels, such as G' = B + qC near 0,
    # and lands on either side: it is compared on the random and extreme draws
    compared = 2 if draw == "normal" else 3
    assert all(got <= was for got, was in zip(figures[:compared], lapack_ulps)), figures


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_step_on_extreme_starts_ends_in_a_state_or_singular_and_warns_nothing(dda):
    rows, prev = _extreme_solve_rows(np.random.default_rng(20082), 10_000)
    outcomes = {"within": 0, "beyond": 0, "below tolerance": 0, "singular to working": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values, p in zip(rows.tolist(), prev.tolist()):
            try:
                nxt = _advance(dda, values, p)[0][2:]
            except SingularOrbitError as exc:
                outcomes[next(kind for kind in outcomes if kind in str(exc))] += 1
            else:
                outcomes["within" if all(abs(v) <= OVERFLOW_GUARD for v in nxt) else "beyond"] += 1
    assert min(outcomes.values()) >= 50, outcomes


_SUBNORMAL_SPLIT = (9.668289053e-315, 7.946522091602706e-283, 1.5931878552741254e+272,
                    8.899718325116895, 1.6933535183333693e-228, -5.5800262669351224e-301)
_SINGULAR_AT_1 = "singular step at n=1: BG - CE = 0.000e+00 below tolerance"
_OVERFLOW_AT_1 = "state exceeded overflow guard at n=1"

# Steps at the edges of float arithmetic, with the kernel's outcome, the exact step's,
# the diagnostic of the orbit they start after at most three steps, and an L5 previous
# C1 other than the row's own.
EDGE_STEPS = {
    # C2 . prev C1 overflows: M' is beyond the float range, exactly too
    "l5_overflowing_start": ("L5", [2.0, 0.5, 1e308, -1e308, 1e308, 1.0], "beyond", "beyond",
                             _OVERFLOW_AT_1),
    # G' = B + qC = 1e300 is beyond the guard, and the kernel's finite entries say so
    "l4_huge_b": ("L4", [1e300, 0.5, 1e10, 2.0, 0.3, 0.1], "beyond", "beyond", _OVERFLOW_AT_1),
    "l5_huge_b": ("L5", [1e300, 0.5, 1e10, 2.0, 0.3, 0.1], "beyond", "beyond", _OVERFLOW_AT_1),
    # a subnormal first pivot: 1/a and p = 3e309 are beyond the float range, so K's
    # columns are NaN, though the exact step is (0, 1e-310, 0.3, 0)
    "l4_subnormal_pivot": ("L4", [1e-310, 0.0, 0.5, 1e300, 0.3, 0.2], "beyond", "within",
                           _OVERFLOW_AT_1),
    "l4_pivot_column_below_dbl_min": ("L4", [1e-310, 2e-310, 1e300, 3e300, 1.0, 1.0],
                                      "beyond", "within", _OVERFLOW_AT_1),
    # products below the normal range: the exact step's entries, bit for bit
    "l4_subnormal_products": ("L4", list(_SUBNORMAL_SPLIT), "within", "within", _SINGULAR_AT_1),
    # pivots above 2^990
    "l4_huge_second_pivot": ("L4", [-5.188024396611186e-206, 1.123493287691657e+110,
                                    -2.4290191010534154e+299, -1.9213702693371365e+101,
                                    7.90042248164392e+116, 3.229162633348116e-13],
                             "within", "within", None),
    "l5_huge_first_pivot": ("L5", [8.077347906558601e+298, -7.603428482597271e+247,
                                   -1.7801444506325298e+268, 1.256620940886207e+69,
                                   -1.789038544102112e-133, 8.00563944693081e+228],
                            "within", "within", "state exceeded overflow guard at n=2",
                            [[0.4617497123417413, -0.1872266787572185],
                             [0.828024792487643, -0.3357410468971988]]),
    "l4_zero_products": ("L4", [-0.0, 0.5, 0.5, -0.0, -0.0, -3.0], "within", "within", None),
    # u rounds to 0, so the kernel calls C1 singular; the exact step is beyond the guard
    "l4_lu_singular": ("L4", list(LU_SINGULAR.values()), "singular", "beyond",
                       f"singular step at n=0: {LU_SINGULAR_DIAGNOSTIC}"),
    "l5_lu_singular": ("L5", list(LU_SINGULAR.values()), "singular", "beyond",
                       f"singular step at n=0: {LU_SINGULAR_DIAGNOSTIC}"),
}


@pytest.mark.parametrize("name", EDGE_STEPS)
def test_edge_step_against_the_exact_step(name):
    dda, values, kernel, exact, diagnostic, *prev = EDGE_STEPS[name]
    prev = prev[0] if prev else _matrices(np.array([values]))[0][0].tolist()
    got, want = _kernel_outcome(dda, values, prev), _exact_outcome(dda, values, prev)
    kinds = [v if isinstance(v, str) else "within" for v in (got, want)]
    assert kinds == [kernel, exact]
    if kinds == ["within", "within"]:
        assert max(map(_ulps, got, want)) <= 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (b, e), (c, g) = prev
        start = init_map_state(dda, dict(zip("BCEGMN", values)),
                               dict(B=b, C=c, E=e, G=g) if dda == "L5" else None)
        run = orbit(dda, start, 3)
    assert run.diagnostic == diagnostic


def test_subnormal_products_give_the_exact_step_bit_for_bit():
    dda, values = EDGE_STEPS["l4_subnormal_products"][:2]
    got, want = _kernel_outcome(dda, values, None), _exact_outcome(dda, values, None)
    got_bits, want_bits = (np.array(v).view(np.int64).tolist()
                           for v in (got, [n / d for n, d in want]))
    assert got_bits == want_bits   # -0.0 included


@pytest.mark.parametrize("steps", [MAX_STEPS + 1, -1, True, 2.0, "3", None])
def test_orbit_bounds_steps_before_it_starts(steps):
    st = init_map_state("L2b", dict(B=1.0, C=0.5, E=0.3, G=1.2, M=0.2, N=0.4))
    with pytest.raises(InvalidInputError, match=f"steps must be an integer from 0 to {MAX_STEPS}"):
        orbit("L2b", st, steps)
    assert len(orbit("L2b", st, 0).entries) == 1


def test_step_rejects_unknown_or_3x3():
    with pytest.raises(InvalidInputError):
        init_map_state("L2a", dict(B=1, C=1, E=0, G=1, M=1, N=0))


@pytest.mark.parametrize("dda, named", [
    ("L3", "unknown map dda 'L3' (expected one of ('L2b', 'L4', 'L5'))"),
    ("L1", "unknown map dda 'L1' (expected one of ('L2b', 'L4', 'L5'))"),
    ("L9", "unknown map dda 'L9' (expected one of ('L2b', 'L4', 'L5'))")])
def test_map_ddas_are_judged_by_check_map(dda, named):
    st = init_map_state("L2b", dict(B=1.0, C=0.5, E=0.3, G=1.2, M=0.2, N=0.4))
    for call in (check_map, lambda d: init_map_state(d, {}), lambda d: orbit(d, st, 1),
                 lambda d: step(d, st)):
        with pytest.raises(InvalidInputError) as raised:
            call(dda)
        assert named in str(raised.value)


# ---------------------------------------------------------------------------
# L5 orbits as discrete deformations on the 2-lattice.
# ---------------------------------------------------------------------------

def test_l5_orbit_solves_discrete_central_system_on_lattice():
    st = init_map_state("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1))
    run = orbit("L5", st, 12)
    tg = lattice_field_from_l5_orbit(run, (5, 5))
    rep = discrete_cs_residual(tg)
    assert max(rep.norms) < 1e-12


@pytest.mark.parametrize("dda", ["L2b", "L4"])
def test_first_order_maps_take_no_previous_entries(dda):
    entries = dict(B=1.0, C=1.0, E=0.4, G=1.3, M=0.8, N=-0.2)
    with pytest.raises(InvalidInputError, match=f"{dda} is a first-order map: prev entries"):
        init_map_state(dda, entries, {"B": 7.0})


@pytest.mark.parametrize("dda", ["L2b", "L4"])
def test_lattice_field_needs_an_l5_orbit(dda):
    st = init_map_state(dda, dict(B=1.0, C=1.0, E=0.4, G=1.3, M=0.8, N=-0.2))
    with pytest.raises(InvalidInputError) as got:
        lattice_field_from_l5_orbit(orbit(dda, st, 12), (5, 5))
    assert str(got.value) == f"a lattice field needs an L5 orbit, got dda {dda!r}"


def test_lattice_needs_enough_states():
    st = init_map_state("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1))
    run = orbit("L5", st, 3)
    with pytest.raises(InvalidInputError):
        lattice_field_from_l5_orbit(run, (5, 5))


@pytest.mark.parametrize("shape", [(0, 3), (-1, 3), (3, 0), (True, 3), (2.0, 3), (3,), (2, 2, 2),
                                   "33", None])
def test_lattice_shape_must_be_two_positive_ints(shape):
    st = init_map_state("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1))
    with pytest.raises(InvalidInputError, match="lattice shape must be two positive ints"):
        lattice_field_from_l5_orbit(orbit("L5", st, 12), shape)


# ---------------------------------------------------------------------------
# Discrete oriented associativity.
# ---------------------------------------------------------------------------

def test_oriented_assoc_equals_commutator_checked_independently():
    xs = np.arange(-4, 6)
    phi = _phi_samples(GAUGE_CUBIC, xs)
    rep = discrete_oriented_assoc_residual(phi, xs)
    fam = SolutionFamily("GaugeL5", {"phi0": list(GAUGE_CUBIC[0]),
                                     "phi1": list(GAUGE_CUBIC[1]),
                                     "phi2": list(GAUGE_CUBIC[2])})
    assert len(rep.labels) > 0
    for label, norm, defect in zip(rep.labels, rep.norms, oriented_assoc_defect(phi, xs)):
        x = float(label.split("=")[1])
        pair = eval_family(fam, x)
        assert norm == pytest.approx(assoc_residual(pair), abs=1e-12)
        assert np.allclose(defect, pair.C1 @ pair.C2 - pair.C2 @ pair.C1, rtol=0.0, atol=1e-12)
        assert norm > 1e-3  # the cubic gauge field is genuinely non-iso-associative


def test_oriented_assoc_singular_gauge():
    xs = np.arange(-3, 4)
    phi0 = 1.0 + xs.astype(float)
    phi = np.array([phi0, 2.0 * phi0, 3.0 * phi0])
    with pytest.raises(SingularGaugeError):
        discrete_oriented_assoc_residual(phi, xs)


def test_oriented_assoc_interval_too_short():
    xs = np.arange(0, 3)
    phi = _phi_samples(GAUGE_CUBIC, xs)
    for call in (discrete_oriented_assoc_residual, oriented_assoc_defect):
        with pytest.raises(InvalidInputError,
                           match="^interval too short: no point has both double shifts$"):
            call(phi, xs)


@pytest.mark.parametrize("xs", [
    np.arange(8) + 0.5,                    # cast to int, these would read as 0 .. 7
    np.array([0, 1, 2, 4, 5, 6, 7]),       # a gap
    np.arange(8)[::-1],
    np.arange(8).reshape(2, 4),
    np.array(3),
], ids=["half_integers", "gap", "descending", "2d", "0d"])
def test_oriented_assoc_rejects_xs_other_than_consecutive_integers(xs):
    phi = _phi_samples(GAUGE_CUBIC, np.ravel(xs))
    for call in (lambda: discrete_oriented_assoc_residual(phi, xs),
                 lambda: oriented_assoc_defect(phi, xs)):
        with pytest.raises(InvalidInputError, match="^xs must be consecutive integers"):
            call()


def test_gauge_residual_needs_three_potentials_on_the_whole_interval():
    with pytest.raises(InvalidInputError,
                       match="^need three potentials sampled on the whole interval$"):
        discrete_oriented_assoc_residual(np.ones((2, 6)), np.arange(6))


# ---------------------------------------------------------------------------
# The stacked gauge residual equals the per-point loop bit for bit.
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """fn's result, or the type and text of the package error it raises."""
    try:
        return fn(*args)
    except DeformError as exc:
        return type(exc), str(exc)


def _random_gauge_samples(rng, size):
    xs = np.arange(size) + int(rng.integers(-20, 20))
    coeffs = [rng.uniform(-1.0, 1.0, int(rng.integers(1, 5))) for _ in range(3)]
    return _phi_samples(coeffs, xs), xs


def test_stacked_oriented_assoc_equals_the_per_point_loop():
    rng = np.random.default_rng(97)
    for draw in range(120):
        phi, xs = _random_gauge_samples(rng, 4 + draw % 9)   # 4 points: too short; 5: one
        got = _outcome(discrete_oriented_assoc_residual, phi, xs)
        want = _outcome(oriented_assoc_residual_loop, phi, xs)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert got.labels == want.labels and got.norms == want.norms
        defects = oriented_assoc_defect(phi, xs)
        assert defects.shape == (len(xs) - 4, 3, 3)
        for x, defect in zip(xs[2:-2], defects):
            assert np.array_equal(defect, oriented_assoc_defect_per_point(phi, xs, int(x)))
    assert _outcome(discrete_oriented_assoc_residual, *_random_gauge_samples(rng, 4)) == (
        InvalidInputError, "interval too short: no point has both double shifts")


def test_oriented_assoc_norms_are_np_linalg_norm_per_point_bit_for_bit():
    rng = np.random.default_rng(99)
    for draw in range(300):   # random cubic potentials on 5 to 16 points
        xs = np.arange(5 + draw % 12) + int(rng.integers(-20, 20))
        phi = _phi_samples([rng.uniform(-1.0, 1.0, 4) for _ in range(3)], xs)
        defects = oriented_assoc_defect(phi, xs)
        want = [float(np.linalg.norm(d)) for d in defects]
        got = discrete_oriented_assoc_residual(phi, xs).norms
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("singular_at", [(0,), (3,), (3, 6)])
def test_singular_gauge_error_equals_the_per_point_loop(singular_at):
    rng = np.random.default_rng(98)
    phi, xs = _random_gauge_samples(rng, 11)
    interior = xs[2:-2]
    for k in singular_at:   # row 2 of g = 2 * row 0 at interior point k
        i = k + 2
        phi[2, i - 1:i + 2] = 2.0 * phi[0, i - 1:i + 2]
    got = _outcome(discrete_oriented_assoc_residual, phi, xs)
    assert got == _outcome(oriented_assoc_residual_loop, phi, xs)
    assert got == (SingularGaugeError,
                   f"gauge matrix is singular at x = {interior[singular_at[0]]}")

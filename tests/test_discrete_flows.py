import warnings

import numpy as np
import pytest

from deformcs.algebra_core import assoc_residual, trace_integrals
from deformcs.closed_forms import SolutionFamily, eval_family
from deformcs.dda_registry import discrete_cs_residual
from deformcs import discrete_flows
from deformcs.discrete_flows import (MapState, _advance, _gauge_defects, _invariants, _matrices,
                                     check_map,
                                     degeneracy_flags, discrete_oriented_assoc_residual,
                                     init_map_state, lattice_field_from_l5_orbit, map_invariants,
                                     oriented_assoc_defect, orbit, step)
from deformcs.integrators import MAX_STEPS
from deformcs.errors import (DeformError, InvalidInputError, SingularGaugeError,
                             SingularOrbitError)

from _oracles import (map_orbit_loops, map_solve_step, map_solve_steps,
                      oriented_assoc_defect_per_point, oriented_assoc_residual_loop)

GAUGE_CUBIC = ([1.0, 0.3], [0.0, 1.0, 0.1], [0.2, 0.0, 1.0, 0.05])


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
    inv = map_invariants("L4", st)
    U = st.pair.C2 @ np.linalg.inv(st.pair.C1)
    assert np.allclose(U, [[-1, 1], [1, 0]])
    assert inv["I1"] == pytest.approx(-1.0)
    assert inv["I2"] == pytest.approx(1.5)
    s1 = step("L4", st)
    U1 = s1.pair.C2 @ np.linalg.inv(s1.pair.C1)
    assert np.allclose(U1, [[0, 1], [1, -1]])
    inv1 = map_invariants("L4", s1)
    assert inv1["I1"] == pytest.approx(-1.0)
    assert inv1["I2"] == pytest.approx(1.5)


def test_l2b_hand_transition():
    st = init_map_state("L2b", dict(B=1, C=0, E=1, G=1, M=1, N=1))
    s1 = step("L2b", st)
    e1 = s1.entries()
    assert (e1["E"], e1["G"], e1["M"], e1["N"]) == (0.0, 1.0, 0.0, 2.0)
    before, after = map_invariants("L2b", st), map_invariants("L2b", s1)
    assert before["I1"] == after["I1"] == 2.0
    assert before["det_C2"] == after["det_C2"] == 0.0


# ---------------------------------------------------------------------------
# Conjugation laws and invariants.
# ---------------------------------------------------------------------------

def test_l2b_step_is_lax_conjugation():
    rng = np.random.default_rng(41)
    st = init_map_state("L2b", dict(B=1.2, C=0.3, E=0.8, G=1.5, M=0.4, N=0.9))
    for _ in range(5):
        nxt = step("L2b", st)
        want = np.linalg.inv(st.pair.C1) @ st.pair.C2 @ st.pair.C1
        assert np.max(np.abs(nxt.pair.C2 - want)) < 1e-12
        st = nxt


def test_l4_step_is_u_conjugation():
    st = init_map_state("L4", dict(B=1, C=1, E=0.4, G=1.3, M=0.8, N=-0.2))
    for _ in range(5):
        nxt = step("L4", st)
        U = st.pair.C2 @ np.linalg.inv(st.pair.C1)
        TU = nxt.pair.C2 @ np.linalg.inv(nxt.pair.C1)
        want = np.linalg.inv(st.pair.C1) @ U @ st.pair.C1
        assert np.max(np.abs(TU - want)) < 1e-12
        st = nxt


def test_l4_general_free_constants_match_matrix_form():
    # for B, C other than 1 the step solves C1 TC2 = C2 TC1 directly
    st = init_map_state("L4", dict(B=0.7, C=-0.4, E=0.4, G=1.3, M=0.8, N=-0.2))
    nxt = step("L4", st)
    lhs = st.pair.C1 @ nxt.pair.C2
    rhs = st.pair.C2 @ nxt.pair.C1
    assert np.max(np.abs(lhs - rhs)) < 1e-12


class _UnrecognisedOne(float):
    """The float 1.0 that the exact test B == 1.0 does not recognise."""

    def __eq__(self, other):
        return False

    __hash__ = float.__hash__


@pytest.mark.parametrize("entries", [dict(E=0.3, G=0.8, M=0.2, N=0.6),
                                     dict(E=0.5, G=-0.4, M=0.1, N=0.9),
                                     dict(E=2.0, G=0.5, M=-0.3, N=0.2)])
def test_l4_closed_form_and_general_solve_agree_at_b_c_one(entries):
    # B = C = 1 picks the closed form for the whole orbit; the general solve
    # branch is valid there too and must give the same orbit
    start = init_map_state("L4", dict(B=1.0, C=1.0, **entries))
    one = _UnrecognisedOne(1.0)
    closed = orbit("L4", start, 50)
    general = orbit("L4", MapState(0, (one, one) + start.values[2:]), 50)
    assert closed.status == general.status == "completed"
    assert not np.array_equal(general.entries, closed.entries)   # two branches did run
    np.testing.assert_allclose(general.entries, closed.entries, rtol=1e-12, atol=0.0)
    assert general.invariant_rows.tolist() == closed.invariant_rows.tolist() == list(range(51))
    for name, values in closed.invariants.items():
        np.testing.assert_allclose(general.invariants[name], values, rtol=1e-12, atol=0.0)


def test_l5_step_satisfies_central_system_and_conjugation():
    st = init_map_state("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1))
    for _ in range(6):
        nxt = step("L5", st)
        # C1 TC2 = C2 T^-1C1
        lhs = st.pair.C1 @ nxt.pair.C2
        rhs = st.pair.C2 @ st.prev_C1
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        # TV = C2 V C2^-1 for the transition matrix V = T^-1C1 . C2
        V, TV = st.prev_C1 @ st.pair.C2, nxt.prev_C1 @ nxt.pair.C2
        want = st.pair.C2 @ V @ np.linalg.inv(st.pair.C2)
        assert np.max(np.abs(TV - want)) < 1e-12
        st = nxt


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


def test_l4_eigenvalues_of_u_are_step_invariant():
    st = init_map_state("L4", dict(B=1, C=1, E=0.4, G=1.3, M=0.8, N=-0.2))
    def eigs(s):
        U = s.pair.C2 @ np.linalg.inv(s.pair.C1)
        return np.sort_complex(np.linalg.eigvals(U))
    ref = eigs(st)
    for _ in range(10):
        st = step("L4", st)
        assert np.max(np.abs(eigs(st) - ref)) < 1e-12


# ---------------------------------------------------------------------------
# Orbits against the independent solve oracle.
# ---------------------------------------------------------------------------

def _close(got, want, what):
    scale = np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * scale), what


@pytest.mark.parametrize("dda,entries,prev,steps", [
    ("L2b", dict(B=1.2, C=0.3, E=0.8, G=1.5, M=0.4, N=0.9), None, 25),
    ("L4", dict(B=1.0, C=1.0, E=0.4, G=1.3, M=0.8, N=-0.2), None, 30),
    ("L4", dict(B=0.7, C=-0.4, E=0.4, G=1.3, M=0.8, N=-0.2), None, 20),
    ("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1), None, 15),
    ("L5", dict(B=1.0, C=0.5, E=0.3, G=0.8, M=0.2, N=0.6),
     dict(B=1.0, C=0.5, E=0.2, G=0.9, M=0.1, N=0.5), 12),
], ids=["L2b", "L4_closed", "L4_general", "L5", "L5_prev"])
def test_orbit_matches_solve_oracle(dda, entries, prev, steps):
    run = orbit(dda, init_map_state(dda, entries, prev), steps)
    rows, invariants = map_orbit_loops(dda, entries, steps, prev)
    assert run.status == "completed"
    assert run.entries.shape == rows.shape == (steps + 1, 6)
    _close(run.entries, rows, "entries")
    assert run.invariant_rows.tolist() == list(range(steps + 1))
    assert sorted(run.invariants) == sorted(invariants[0])
    for name, values in run.invariants.items():
        _close(values, np.array([inv[name] for inv in invariants]), name)
    # the lazy view agrees with the arrays
    assert [s.n for s in run.states] == list(range(steps + 1))
    assert run.states[-1].entries() == dict(zip("BCEGMN", run.entries[-1].tolist()))


def test_orbit_truncates_at_singular_step_like_oracle():
    # (E, G, M, N) = (0, 2, 1, 1) steps to E = G = 1, where det C1 = G - E = 0
    entries = dict(B=1.0, C=1.0, E=0.0, G=2.0, M=1.0, N=1.0)
    run = orbit("L4", init_map_state("L4", entries), 10)
    rows, invariants = map_orbit_loops("L4", entries, 10)
    assert run.status == "truncated"
    assert run.diagnostic == "singular step at n=1: E - G = 0.000e+00 below tolerance"
    _close(run.entries, rows, "entries")
    assert len(rows) == 2
    # the row with det C1 = 0 has no invariants, in the orbit and in the oracle
    assert invariants[1] is None
    assert run.invariant_rows.tolist() == [0]
    for name, values in run.invariants.items():
        _close(values, [invariants[0][name]], name)
    assert run.flags.tolist() == [[False, False, False], [True, True, True]]
    assert run.states[1].flags == ("det_C1_degenerate", "E_minus_G_degenerate",
                                   "det_C2_degenerate")


def test_orbit_truncates_on_non_finite_entries():
    # G M - E N = inf - inf makes the new E and M nan while the new G and N
    # stay small, so only the finiteness test can stop the orbit
    e = dict(B=1.0, C=1.0, E=2.0, G=3.0, M=1e308, N=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = step("L2b", init_map_state("L2b", e))
        run = orbit("L2b", init_map_state("L2b", e), 5)
    E, G, M, N = nxt.values[2:]
    assert np.isnan(E) and np.isnan(M) and (G, N) == (1.0, 2.0)
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

def test_l4_degenerate_denominator_raises():
    st = init_map_state("L4", dict(B=1, C=1, E=0.5, G=0.5, M=0.8, N=-0.2))
    with pytest.raises(SingularOrbitError) as err:
        step("L4", st)
    assert err.value.quantity == "E-G"
    assert abs(err.value.value) < 1e-12


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
    assert err.value.quantity == "BG-CE"


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_below_tolerance_c1_is_named_bg_minus_ce_on_the_solve_branch(dda):
    # B, C != 1 keeps L4 off its closed form; BG - CE = 2 * 0.5 - 1 * 1 = 0
    st = init_map_state(dda, dict(B=2.0, C=1.0, E=1.0, G=0.5, M=0.3, N=0.4))
    with pytest.raises(SingularOrbitError) as err:
        step(dda, st)
    assert str(err.value) == "BG - CE = 0.000e+00 below tolerance"
    assert (err.value.quantity, err.value.value) == ("BG-CE", 0.0)
    diagnostic = orbit(dda, st, 3).diagnostic
    assert diagnostic == "singular step at n=0: BG - CE = 0.000e+00 below tolerance"


def test_l5_orbit_from_a_state_without_the_previous_c1_is_refused():
    with pytest.raises(InvalidInputError,
                       match=r"^L5 state lacks the previous C1 \(use init_map_state\)$"):
        orbit("L5", MapState(0, (1.0, 0.5, 0.3, 0.8, 0.2, 0.6)), 3)


# |BG - CE| = 2.9e-11 is above DEGENERACY_TOL, yet LAPACK finds a zero pivot in C1
LU_SINGULAR = dict(B=8.768610301148978, C=0.4804184990778926, E=369740.7014836463,
                   G=20257.51706989476, M=0.5, N=0.25)
LU_SINGULAR_DIAGNOSTIC = "C1 is singular to working precision (BG - CE = -2.910e-11)"


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_c1_that_lapack_finds_singular_truncates_the_orbit(dda):
    st = init_map_state(dda, LU_SINGULAR)
    B, C, E, G = st.values[:4]
    with pytest.raises(SingularOrbitError) as err:
        step(dda, st)
    assert str(err.value) == LU_SINGULAR_DIAGNOSTIC
    assert (err.value.quantity, err.value.value) == ("BG-CE", B * G - C * E)
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
    C1, C2 = run.states[0].pair.C1, run.states[0].pair.C2
    assert run.invariants == {k: [v] for k, v in trace_integrals(C2 @ np.linalg.inv(C1)).items()}
    assert map_invariants("L4", run.states[0]) == {k: v[0] for k, v in run.invariants.items()}


def test_l4_row_whose_c1_lapack_cannot_invert_has_no_invariants():
    run = orbit("L4", init_map_state("L4", LU_SINGULAR), 0)
    assert not run.flags[0, 0]
    assert run.invariants == {} and run.invariant_rows.size == 0
    with pytest.raises(SingularOrbitError) as err:
        map_invariants("L4", run.states[0])
    B, C, E, G = run.entries[0, :4]
    assert (err.value.quantity, err.value.value) == ("BG-CE", B * G - C * E)
    assert str(err.value) == "C1 has no inverse (BG - CE = -2.910e-11): invariants need C1^-1"


def _lapack_inverts(C1: np.ndarray) -> bool:
    try:
        np.linalg.inv(C1)
    except np.linalg.LinAlgError:
        return False
    return True


def test_l4_rows_have_invariants_exactly_when_unflagged_and_invertible():
    # near-singular rows: B, C, E uniform, G placed so that |BG - CE| < 3e-12
    rng = np.random.default_rng(0)
    rows = 20000
    B, C, E = rng.uniform(-10.0, 10.0, (3, rows))
    G = (C * E + rng.uniform(-3e-12, 3e-12, rows)) / B
    entries = np.vstack([np.column_stack([B, C, E, G, rng.uniform(-1.0, 1.0, (rows, 2))]),
                         list(LU_SINGULAR.values()), [*DET_C1_EDGE.values(), 0.5, 0.25]])
    C1 = _matrices(entries)[0]
    unflagged = ~degeneracy_flags(entries)[:, 0]
    want = [i for i in range(len(entries)) if unflagged[i] and _lapack_inverts(C1[i])]
    invariants, got = _invariants("L4", entries, None)
    assert got.tolist() == want
    assert len(want) < unflagged.sum()   # the LU_SINGULAR row
    for name, values in invariants.items():
        assert values.shape == (len(want),), name
    # the rule an LU determinant gives leaves out other rows than the flag
    by_lu = np.abs(np.linalg.det(C1)) >= 1e-12
    assert np.count_nonzero(by_lu != unflagged) >= 10
    for i in np.flatnonzero(by_lu != unflagged)[:5]:
        run = orbit("L4", init_map_state("L4", dict(zip("BCEGMN", entries[i]))), 0)
        assert run.invariant_rows.tolist() == ([0] if unflagged[i] else [])


_SINGULAR_AT_1 = "singular step at n=1: BG - CE = 0.000e+00 below tolerance"
_SUBNORMAL_SPLIT = (9.668289053e-315, 7.946522091602706e-283, 1.5931878552741254e+272,
                    8.899718325116895, 1.6933535183333693e-228, -5.5800262669351224e-301)

# Solve-branch starts at the edges of exact scalar arithmetic: each must keep the
# status, diagnostic and entry bits (-0.0 apart from 0.0) the LAPACK step gave them.
SOLVE_EDGES = {
    # C2 . prev C1 overflows inside the first product: the guard stops the orbit
    "l5_overflowing_start": ("L5", dict(B=2.0, C=0.5, E=1e308, G=-1e308, M=1e308, N=1.0),
                             "state exceeded overflow guard at n=1",
                             [[2.0, 0.5, 1e308, -1e308, 1e308, 1.0]]),
    # a subnormal first pivot, which LAPACK divides by instead of scaling with its inverse
    "l4_subnormal_pivot": ("L4", dict(B=1e-310, C=0.0, E=0.5, G=1e300, M=0.3, N=0.2),
                           _SINGULAR_AT_1,
                           [[1e-310, 0.0, 0.5, 1e300, 0.3, 0.2],
                            [1e-310, 0.0, 0.0, 1e-310, 0.29999999999998517, 0.0]]),
    # products below the normal range; row 1 keeps M = +0.0 and E = -0.0
    "l4_subnormal_products": ("L4", dict(zip("BCEGMN", _SUBNORMAL_SPLIT)), _SINGULAR_AT_1,
                              [_SUBNORMAL_SPLIT, [9.668289053e-315, 7.946522091602706e-283,
                                                  -0.0, 9.668289053e-315, 0.0, 0.0]]),
    "l4_lu_singular": ("L4", LU_SINGULAR, f"singular step at n=0: {LU_SINGULAR_DIAGNOSTIC}",
                       [list(LU_SINGULAR.values())]),
    "l5_lu_singular": ("L5", LU_SINGULAR, f"singular step at n=0: {LU_SINGULAR_DIAGNOSTIC}",
                       [list(LU_SINGULAR.values())]),
}


@pytest.mark.parametrize("name", SOLVE_EDGES)
def test_solve_edge_keeps_its_outcome_bits_and_warns_nothing(name):
    dda, entries, diagnostic, rows = SOLVE_EDGES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = orbit(dda, init_map_state(dda, entries), 3)
    assert (run.status, run.diagnostic) == ("truncated", diagnostic)
    assert run.entries.view(np.int64).tolist() == np.array(rows).view(np.int64).tolist()


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_overflowing_solve_step_stops_at_the_guard_without_warning(dda):
    # C2 [B, C] overflows to inf and the next product meets inf - inf; C1 itself is
    # regular, so the run stops at the overflow guard and is not called singular
    st = init_map_state(dda, dict(B=1e300, C=0.5, E=1e10, G=2.0, M=0.3, N=0.1))
    run = orbit(dda, st, 3)   # RuntimeWarnings are errors in this suite
    assert (run.status, run.diagnostic) == ("truncated", "state exceeded overflow guard at n=1")
    E, G, M, N = step(dda, st).values[2:]
    assert not all(np.isfinite([E, G, M, N]))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _count_inexact(monkeypatch) -> list:
    """Log each step that the float kernel leaves to np.linalg.solve."""
    calls, real = [], discrete_flows._solve_step

    def counted(*args):
        try:
            return real(*args)
        except (discrete_flows._Inexact, OverflowError):
            calls.append(args)
            raise

    monkeypatch.setattr(discrete_flows, "_solve_step", counted)
    return calls


def _random_solve_rows(rng: np.random.Generator, count: int):
    """Rows and previous C1s on the solve branch.  C1's columns are scaled by s and
    1/s and the previous C1's by p and 1/p, with s and p up to 1e+-100, and C2's
    second column by t up to 1e+-30, which keeps most steps in the exact range and
    their results finite.  About half the rows have |C| > |B| (a pivot swap), and a
    quarter a C1 with |BG - CE| from 3e-12 to 1e-8."""
    s, p = 10.0 ** rng.uniform(-100.0, 100.0, (2, count))
    t = 10.0 ** rng.uniform(-30.0, 30.0, count)
    B, C, E, G = rng.standard_normal((4, count))
    det = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-11.5, -8.0, count)
    G = np.where(rng.random(count) < 0.25, (C * E + det) / B, G)
    rows = np.column_stack([B * s, C * s, E / s, G / s, *rng.standard_normal((2, count)) * t])
    return rows, rng.standard_normal((count, 2, 2)) * np.column_stack([p, 1.0 / p])[:, None, :]


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_kernel_step_is_bit_equal_to_the_lapack_step_on_random_steps(dda, monkeypatch):
    """10^5 random solve-branch steps give the bits of np.linalg.solve and matmul.

    The kernel emulates the BLAS kernel's fused multiply-adds exactly, so the map
    goldens no longer depend on the host's BLAS; this test is what ties the
    emulation to the host's numpy.  On a host whose OpenBLAS does not fuse, this
    test fails while the goldens still pass.
    """
    count = 100_000
    rows, prev = _random_solve_rows(np.random.default_rng(20081), count)
    fallbacks = _count_inexact(monkeypatch)
    back = prev.tolist() if dda == "L5" else [None] * count
    steps = [_advance(dda, r, q) for r, q in zip(rows.tolist(), back)]
    want = map_solve_steps(dda, rows, prev)
    assert np.array_equal(_bits([nxt for nxt, _ in steps]), _bits(want))
    if dda == "L5":   # the C1 left behind
        assert np.array_equal(_bits([left for _, left in steps]), _bits(_matrices(rows)[0]))
    # the batched oracle is the per-step one
    for i in range(0, count, 1000):
        assert _bits(map_solve_step(dda, rows[i].tolist(), prev[i].tolist())[0]).tolist() == (
            _bits(want[i]).tolist())
    B, C, E, G = rows[:, :4].T
    assert np.mean(np.abs(C) > np.abs(B)) > 0.45
    assert np.mean(np.abs(B * G - C * E) < 1e-8) > 0.2
    assert len(fallbacks) < 0.05 * count   # the float kernel took nearly every step


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


def _step_outcome(kernel, dda, values, prev):
    """The entry and C1 bits of one step, or its SingularOrbitError text."""
    try:
        nxt, left = kernel(dda, values, prev)
    except SingularOrbitError as exc:
        return str(exc)
    return _bits(nxt).tolist(), None if left is None else _bits(left).tolist()


@pytest.mark.parametrize("dda", ["L4", "L5"])
def test_kernel_step_outcome_equals_the_lapack_step_on_extreme_starts(dda, monkeypatch):
    # every step ends as the LAPACK step does, with the same bits or the same
    # error text, and with no other exception and no warning
    rows, prev = _extreme_solve_rows(np.random.default_rng(20082), 10_000)
    fallbacks = _count_inexact(monkeypatch)
    outcomes = {"exact": 0, "lapack": 0, "below tolerance": 0, "singular to working": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values, p in zip(rows.tolist(), prev.tolist()):
            before = len(fallbacks)
            got = _step_outcome(_advance, dda, values, p)
            assert got == _step_outcome(map_solve_step, dda, values, p), (values, p)
            if isinstance(got, str):
                outcomes[next(kind for kind in outcomes if kind in got)] += 1
            else:
                outcomes["lapack" if len(fallbacks) > before else "exact"] += 1
    assert min(outcomes.values()) >= 50, outcomes


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
    ("L3", "dda 'L3' is not a discrete map (use one of ('L2b', 'L4', 'L5'))"),
    ("L1", "dda 'L1' is not a discrete map"), ("L9", "unknown dda 'L9'")])
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


def test_lattice_needs_enough_states():
    st = init_map_state("L5", dict(B=1.0, C=0.2, E=0.7, G=1.3, M=0.5, N=1.1))
    run = orbit("L5", st, 3)
    with pytest.raises(InvalidInputError):
        lattice_field_from_l5_orbit(run, (5, 5))


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
    for label, norm in zip(rep.labels, rep.norms):
        x = float(label.split("=")[1])
        pair = eval_family(fam, x)
        assert norm == pytest.approx(assoc_residual(pair), abs=1e-12)
        assert np.allclose(oriented_assoc_defect(phi, xs, int(x)),
                           pair.C1 @ pair.C2 - pair.C2 @ pair.C1, rtol=0.0, atol=1e-12)
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
    with pytest.raises(InvalidInputError):
        discrete_oriented_assoc_residual(phi, xs)


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
                 lambda: oriented_assoc_defect(phi, xs, 3)):
        with pytest.raises(InvalidInputError, match="^xs must be consecutive integers"):
            call()


def test_oriented_assoc_defect_rejects_a_non_integer_point():
    xs = np.arange(-4, 6)
    with pytest.raises(InvalidInputError, match="x must be an integer, got 0.5"):
        oriented_assoc_defect(_phi_samples(GAUGE_CUBIC, xs), xs, 0.5)


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
        for x in xs[2:-2]:
            assert np.array_equal(oriented_assoc_defect(phi, xs, int(x)),
                                  oriented_assoc_defect_per_point(phi, xs, int(x)))
    assert _outcome(discrete_oriented_assoc_residual, *_random_gauge_samples(rng, 4)) == (
        InvalidInputError, "interval too short: no point has both double shifts")


def test_oriented_assoc_norms_are_np_linalg_norm_per_point_bit_for_bit():
    rng = np.random.default_rng(99)
    for draw in range(300):   # random cubic potentials on 5 to 16 points
        xs = np.arange(5 + draw % 12) + int(rng.integers(-20, 20))
        phi = _phi_samples([rng.uniform(-1.0, 1.0, 4) for _ in range(3)], xs)
        defects = _gauge_defects(phi, xs, xs[2:-2])
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


@pytest.mark.parametrize("offset", [-9, -1, 0, 1, 2, 7, 8, 9, 30])
def test_oriented_assoc_defect_off_the_interior_fails_as_the_per_point_path(offset):
    xs = np.arange(-4, 6)   # interior -2 .. 3
    phi = _phi_samples(GAUGE_CUBIC, xs)
    x = int(xs[0]) + offset
    got = _outcome(oriented_assoc_defect, phi, xs, x)
    want = _outcome(oriented_assoc_defect_per_point, phi, xs, x)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)

import numpy as np
import pytest

from deformcs.algebra_core import assoc_residual
from deformcs.closed_forms import SolutionFamily, eval_family
from deformcs.dda_registry import discrete_cs_residual
from deformcs.discrete_flows import (MapState, check_map, discrete_oriented_assoc_residual,
                                     init_map_state, lattice_field_from_l5_orbit, map_invariants,
                                     oriented_assoc_defect, orbit, step)
from deformcs.integrators import MAX_STEPS
from deformcs.errors import (DeformError, InvalidInputError, SingularGaugeError,
                             SingularOrbitError)

from _oracles import (map_orbit_loops, oriented_assoc_defect_per_point,
                      oriented_assoc_residual_loop)

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

"""Every layer that builds C1/C2 from named entries agrees exactly with the literal
layouts kept in ``_oracles``: ``MatrixPair.from_entries`` and ``entry_stacks``, the
orbit stacks, the degeneracy flags, the L5 start state (which refuses an infinite
entry by name) and each flow's Lax matrix.
Seeded entries include +-inf, so a cell read from the wrong place cannot hide."""

import math
import re

import numpy as np
import pytest

from deformcs.algebra_core import (DEGENERACY_TOL, ENTRY_POSITIONS_2, ENTRY_POSITIONS_3,
                                   MatrixPair, entry_stacks)
from deformcs.continuous_flows import SYSTEMS, _lax_matrices
from deformcs.discrete_flows import _matrices, degeneracy_flags, init_map_state, orbit
from deformcs.errors import InvalidInputError

from _oracles import lax_matrices, orbit_matrices, pair_2x2, pair_3x3

LAYOUTS = [(3, tuple(ENTRY_POSITIONS_3), pair_3x3), (2, tuple(ENTRY_POSITIONS_2), pair_2x2)]


def _seeded(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform entries with about one in eight replaced by +inf or -inf."""
    vals = rng.uniform(-2.0, 2.0, size=(rows, cols))
    special = rng.uniform(size=vals.shape) < 0.125
    vals[special] = rng.choice([np.inf, -np.inf], size=int(special.sum()))
    return vals


@pytest.mark.parametrize("n, names, literal", LAYOUTS)
def test_from_entries_and_entry_stacks_match_the_literal_layout(n, names, literal):
    rng = np.random.default_rng(n)
    vals = _seeded(rng, 300, len(names))
    pairs = []
    for row in vals:
        entries = {k: float(v) for k, v, keep in
                   zip(names, row, rng.uniform(size=len(names)) < 0.8) if keep}
        got, want = MatrixPair.from_entries(n, entries), literal(**entries)
        assert np.array_equal(got.C1, want.C1) and np.array_equal(got.C2, want.C2)
        assert got.entries() == want.entries()
        pairs.append(literal(**dict(zip(names, row.tolist()))))
    C1, C2 = entry_stacks(n, dict(zip(names, vals.T)))
    assert np.array_equal(C1, [p.C1 for p in pairs])
    assert np.array_equal(C2, [p.C2 for p in pairs])


@pytest.mark.parametrize("n, entries, unknown", [
    (2, {"A": 1.0}, "['A']"),
    (2, {"B": 1.0, "L": 2.0, "D": 0.0}, "['L', 'D']"),
    (3, {"Q": 1.0, "N": 0.5}, "['Q']"),
])
def test_unknown_entry_names_are_rejected_by_name(n, entries, unknown):
    message = re.escape(f"unknown {n}x{n} entries {unknown}")
    with pytest.raises(InvalidInputError, match=message):
        MatrixPair.from_entries(n, entries)
    with pytest.raises(InvalidInputError, match=message):
        entry_stacks(n, {k: np.zeros(4) + v for k, v in entries.items()})


def test_orbit_stacks_and_flags_match_the_literal_layout():
    rng = np.random.default_rng(7)
    entries = _seeded(rng, 400, 6)
    entries[::5, 2] = entries[::5, 3]   # E = G on some rows
    for got, want in zip(_matrices(entries), orbit_matrices(entries)):
        assert np.array_equal(got, want)
    B, C, E, G = entries[:, :4].T
    with np.errstate(invalid="ignore", over="ignore"):
        det_C2 = np.linalg.det(orbit_matrices(entries)[1])
        want = np.column_stack([np.abs(B * G - C * E) < DEGENERACY_TOL,
                                np.abs(E - G) < DEGENERACY_TOL, np.abs(det_C2) < DEGENERACY_TOL])
    assert np.array_equal(degeneracy_flags(entries), want)   # and no numpy warning escapes


def test_l5_orbit_states_match_the_literal_layout():
    start = dict(B=1.0, C=0.5, E=0.3, G=-0.7, M=0.2, N=0.9)
    run = orbit("L5", init_map_state("L5", start, dict(B=1.1, C=0.4, E=0.2, G=-0.6)), 20)
    C1, _ = orbit_matrices(run.entries)
    assert np.array_equal(run.prev_C1, pair_2x2(B=1.1, C=0.4, E=0.2, G=-0.6).C1)
    for i, state in enumerate(run.states):
        want = pair_2x2(**dict(zip("BCEGMN", run.entries[i].tolist())))
        assert np.array_equal(state.pair.C1, want.C1) and np.array_equal(state.pair.C2, want.C2)
        assert np.array_equal(state.prev_C1, run.prev_C1 if i == 0 else C1[i - 1])


def test_init_map_state_prev_c1_matches_the_literal_layout():
    rng = np.random.default_rng(11)
    rejected = 0
    for row, prev_row in zip(_seeded(rng, 60, 6), _seeded(rng, 60, 6)):
        entries = dict(zip("BCEGMN", row.tolist()))
        prev = dict(zip("BCEG", prev_row.tolist())) if prev_row[5] > 0 else None
        # an infinite entry is refused by name, initial entries first
        bad = [f"L5 {what}[{k!r}]" for what, named in (("initial", entries), ("prev", prev or {}))
               for k, v in named.items() if not math.isfinite(v)]
        if bad:
            with pytest.raises(InvalidInputError, match=re.escape(bad[0])):
                init_map_state("L5", entries, prev)
            rejected += 1
            continue
        state = init_map_state("L5", entries, prev)
        want = pair_2x2(**(entries if prev is None else prev)).C1
        assert np.array_equal(state.prev_C1, want)
    assert 0 < rejected < 60


@pytest.mark.parametrize("system_id", sorted(SYSTEMS))
def test_every_lax_matrix_matches_the_literal_layout(system_id):
    sy = SYSTEMS[system_id]
    rng = np.random.default_rng(len(system_id))
    names = sy.all_entries()
    vals = _seeded(rng, 50, len(names))
    # keys outside the system are ignored, whether or not the layout has them
    extra = {"X": np.ones(50), "A": np.ones(50), "M": np.ones(50), "N": np.ones(50)}
    values = {**extra, **dict(zip(names, vals.T))}
    assert np.array_equal(_lax_matrices(sy, values), lax_matrices(system_id, values))
    one = {**{k: 1.0 for k in extra}, **dict(zip(names, vals[0].tolist()))}
    assert np.array_equal(_lax_matrices(sy, one), lax_matrices(system_id, one))

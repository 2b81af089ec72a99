"""The CLI's CSV files must be byte for byte what ``csv.writer`` wrote from row lists.

``cli._float_cells`` formats each distinct float64 bit pattern once and
``cli._write_csv`` joins the cells itself; ``_oracles.write_csv_writer`` is the
``csv.writer`` form they replace.  The tables cover the floats where a value
dedupe would go wrong (0.0 and -0.0, NaN payloads), repr's exponent switch
points, subnormals, constant columns and repeated rows, each whole and strided.
"""

import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import orbit_rows, write_csv_writer
from deformcs import cli
from deformcs.cli import EXIT_SINGULAR, _float_cells, _write_csv, main
from deformcs.discrete_flows import ENTRY_NAMES, FLAG_NAMES, Orbit
from deformcs.integrators import Trajectory

SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
           1e16, 9999999999999998.0, 1e-05, 0.0001, 9.999999999999999e-05, 1e22, 1e-7,
           0.1, 1 / 3, -2.5, 123456789.0]
# NaNs with other payloads: every one prints "nan"
NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF0000000000001, 0x7FF0000000000001],
                        dtype=np.uint64).view(float)


def _tables() -> dict[str, np.ndarray]:
    special = np.array(SPECIAL + NAN_PAYLOADS.tolist())
    signed_zeros = np.resize([0.0, -0.0, 0.0, 0.0, -0.0], special.size)
    rng = np.random.default_rng(11)
    repeated = np.tile(rng.normal(size=5), (30, 1))
    repeated[:4] = rng.normal(size=(4, 5))
    return {
        "special": np.column_stack([special, special[::-1], signed_zeros]),
        "constant": np.column_stack([np.full(40, 0.1), np.full(40, -0.0), np.arange(40.0)]),
        "repeated_rows": repeated,
        "random": rng.normal(scale=1e3, size=(50, 6)),
    }


TABLES = _tables()


def _same_bytes(directory: Path, table: np.ndarray) -> None:
    header = [f"c{j}" for j in range(table.shape[1])]
    _write_csv(directory / "new.csv", header, _float_cells(table))
    write_csv_writer(directory / "old.csv", header, table.tolist())
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


@pytest.mark.parametrize("view", [np.s_[:], np.s_[::7], np.s_[:, ::2]],
                         ids=["whole", "rows::7", "columns::2"])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_float_table_matches_csv_writer(name, view, tmp_path):
    _same_bytes(tmp_path, TABLES[name][view])


def test_one_repr_per_bit_pattern(monkeypatch):
    table = TABLES["special"]
    calls = []
    monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or float.__repr__(v), raising=False)
    cells = _float_cells(table)
    assert len(calls) == len(np.unique(table.view(np.int64)))
    assert cells[1, 0] == "-0.0" and cells[0, 0] == "0.0"
    assert cells.shape == table.shape and cells.dtype == object


_BITS = st.one_of(st.integers(-2**63, 2**63 - 1),
                  st.sampled_from(np.array(SPECIAL).view(np.int64).tolist()))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.lists(_BITS, min_size=1, max_size=60))
def test_any_bit_patterns_match_csv_writer(columns, bits):
    bits = bits[:len(bits) // columns * columns] or bits[:1] * columns
    table = np.array(bits, dtype=np.int64).view(float).reshape(-1, columns)
    with tempfile.TemporaryDirectory() as tmp:
        _same_bytes(Path(tmp), table)
        _same_bytes(Path(tmp), table[::7])


def _hand_orbit(invariant_rows) -> Orbit:
    """An orbit whose invariants skip rows, with repeated rows, signed zeros
    and every combination of flags."""
    rng = np.random.default_rng(5)
    entries = rng.normal(size=(23, 6))
    entries[10:16] = entries[9]
    entries[::3, 1] = -0.0
    flags = (np.arange(23)[:, None] >> np.array([2, 1, 0]) & 1).astype(bool)
    rows = np.array(invariant_rows, dtype=np.int64)
    invariants = {k: rng.normal(size=rows.size) for k in ("I3", "I1", "I2")} if rows.size else {}
    return Orbit("L4", -3, entries, flags, invariants, rows)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("invariant_rows", [[0, 1, 4, 7, 8, 14, 15, 22], [], range(23)],
                         ids=["some_rows", "no_rows", "every_row"])
def test_orbit_csv_matches_csv_writer(invariant_rows, stride, monkeypatch, tmp_path):
    run = _hand_orbit(invariant_rows)
    monkeypatch.setattr(cli, "orbit", lambda *args: run)
    cli._map_artifacts(SimpleNamespace(dda="L4", state=None, steps=0, stride=stride), tmp_path)
    header = ["n", *ENTRY_NAMES, *sorted(run.invariants), "flags"]
    write_csv_writer(tmp_path / "old.csv", header, orbit_rows(run, stride))
    assert (tmp_path / "orbit.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    if stride == 1:
        flag_cells = {line.rsplit(b",", 1)[1] for line in (tmp_path / "orbit.csv").read_bytes()
                      .split(b"\r\n")[1:-1]}
        assert len(flag_cells) == 2 ** len(FLAG_NAMES)


def test_orbit_without_invariants_through_the_cli(tmp_path):
    # det C1 = BG - CE = 0 at the start: no invariants, and the first step is singular
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"kind": "map", "dda": "L4", "steps": 5, "initial": '
                        '{"B": 2.0, "C": 1.0, "E": 2.0, "G": 1.0, "M": 0.5, "N": -0.0}}')
    assert main(["run", str(scenario), "--out", str(tmp_path), "--quiet"]) == EXIT_SINGULAR
    assert (tmp_path / "orbit.csv").read_bytes() == (
        b"n,B,C,E,G,M,N,flags\r\n0,2.0,1.0,2.0,1.0,0.5,-0.0,det_C1_degenerate\r\n")


@pytest.mark.parametrize("stride", [1, 7])
def test_trajectory_csv_matches_csv_writer(stride, tmp_path):
    ts = np.linspace(-0.0, 1.0, 30)
    states = np.column_stack([np.full(30, 2.0), np.sin(ts), np.full(30, -0.0)])
    eig = np.empty((30, 3), dtype=complex)   # imaginary parts of both signs of zero
    eig.real, eig.imag = np.cos(ts)[:, None] * [1, 1, 0], np.sin(ts)[:, None] * [1, -1, -0.0]
    traj = Trajectory("test", ts, states, ("A", "B", "C"), {"I1": ts ** 2, "eigenvalues": eig})
    cli._trajectory_artifacts(traj, "s", stride, tmp_path)
    header = ["s", "A", "B", "C", "I1",
              *(f"{part}_lambda_{i}" for part in ("Re", "Im") for i in (1, 2, 3))]
    rows = [[t, *s, i1, *e.real, *e.imag] for t, s, i1, e
            in zip(ts.tolist(), states.tolist(), (ts ** 2).tolist(), eig)]
    write_csv_writer(tmp_path / "old.csv", header, [[float(v) for v in r] for r in rows[::stride]])
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

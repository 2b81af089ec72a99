"""CLI artifacts must stay byte-identical to the recorded goldens.

Each directory under ``tests/golden/`` holds one ``scenario.json`` and, in
``expected/``, the CSV files and ``report.json`` that ``deform-cs run``
wrote for it; the report's ``timestamp`` line is removed before comparing,
since it is the only field that differs between identical runs.  A case whose
report says ``truncated`` must exit 3, every other case 0.  To record
cases again after an intended output change, name each one:

    PYTHONPATH=src python tests/test_golden_cli.py --record CASE [CASE ...]

Only the named cases are written; with no case named, nothing is.

The map goldens' entries and flags, and the L4 goldens whole, must not depend on
the host's BLAS: they are run again under two other OpenBLAS kernels, one with
fused multiply-adds and one without.
"""

import csv
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deformcs
from deformcs.cli import EXIT_OK, EXIT_SINGULAR, main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "scenario.json").is_file())

_TIMESTAMP = re.compile(rb'^  "timestamp": ".*",\n', re.MULTILINE)


def artifacts(case: str, out: Path) -> dict[str, bytes]:
    """Run one case and return its output files, the report without its timestamp."""
    code = main(["run", str(GOLDEN / case / "scenario.json"), "--out", str(out), "--quiet"])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    files["report.json"] = _TIMESTAMP.sub(b"", files["report.json"], count=1)
    assert code == expected_exit(files["report.json"]), f"{case} exited {code}"
    return files


def expected_exit(report: bytes) -> int:
    return EXIT_SINGULAR if b'\n  "status": "truncated",\n' in report else EXIT_OK


@pytest.mark.parametrize("case", CASES)
def test_cli_artifacts_match_golden(case, tmp_path):
    expected_dir = GOLDEN / case / "expected"
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    got = artifacts(case, tmp_path)
    assert expected_exit(got["report.json"]) == expected_exit(expected["report.json"])
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{case}/{name} differs from the golden"


def test_golden_cases_cover_every_kind():
    kinds = {re.search(r'"kind": "(\w+)"', (GOLDEN / c / "scenario.json").read_text()).group(1)
             for c in CASES}
    assert kinds == {"flow", "map", "validate_family", "reduction", "residual_scan"}


@pytest.mark.parametrize("args", [["--record"], ["--record", "map_l4", "no_such_case"]],
                         ids=["no_case", "unknown_case"])
def test_recording_names_its_cases_or_records_nothing(args):
    before = {p: p.stat().st_mtime_ns for p in GOLDEN.glob("*/expected/*")}
    done = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(deformcs.__file__).parents[1])})
    assert done.returncode == 1
    assert done.stderr.startswith("usage: ") and "--record CASE [CASE ...]" in done.stderr
    assert done.stdout == ""
    assert {p: p.stat().st_mtime_ns for p in GOLDEN.glob("*/expected/*")} == before


MAP_CASES = [c for c in CASES if c.startswith("map_")]
_RUN_CASES = ("import sys; from deformcs.cli import main\n"
              "for scenario, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    main(['run', scenario, '--out', out, '--quiet'])")


def _columns(data: bytes, names) -> list[tuple[str, ...]]:
    return [tuple(row[k] for k in names) for row in csv.DictReader(data.decode().splitlines())]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_map_goldens_hold_under_another_blas_kernel(coretype, tmp_path):
    # OPENBLAS_CORETYPE picks the kernel numpy's OpenBLAS runs, read when it loads.
    # Haswell fuses multiply-adds like the recording host's kernel, so every byte must
    # match.  Sandybridge does not, but L4 orbits call no BLAS or LAPACK and no row's
    # flags or L2b det_C2 do, so the L4 files must match whole and every other map file in
    # n, B..N, the flags and L2b's det_C2; only the L2b and L5 trace invariants go through
    # matmul
    args = [a for case in MAP_CASES for a in (GOLDEN / case / "scenario.json", tmp_path / case)]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": str(Path(deformcs.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", _RUN_CASES, *map(str, args)], env=env, check=True,
                   capture_output=True)
    for case in MAP_CASES:
        got = (tmp_path / case / "orbit.csv").read_bytes()
        want = (GOLDEN / case / "expected" / "orbit.csv").read_bytes()
        if coretype == "Haswell" or case.startswith("map_l4"):
            assert got == want, case
        else:
            names = [*"nBCEGMN", "flags"] + (["det_C2"] if case == "map_l2b" else [])
            assert _columns(got, names) == _columns(want, names), case


if __name__ == "__main__":
    import tempfile

    names = sys.argv[2:]
    if sys.argv[1:2] != ["--record"] or not names or not set(names) <= set(CASES):
        unknown = sorted(set(names) - set(CASES))
        sys.exit(f"usage: {sys.argv[0]} --record CASE [CASE ...]"
                 + (f"\nunknown cases: {unknown}" if unknown else ""))
    for case in names:
        target = GOLDEN / case / "expected"
        target.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in artifacts(case, Path(tmp)).items():
                (target / name).write_bytes(data)
        print(f"recorded {case}")

"""CLI artifacts must stay byte-identical to the recorded goldens.

Each directory under ``tests/golden/`` holds one ``scenario.json`` and, in
``expected/``, the CSV files and ``report.json`` that ``deform-cs run``
wrote for it; the report's ``timestamp`` line is removed before comparing,
since it is the only field that differs between identical runs.  A case whose
report says ``truncated`` must exit 3, every other case 0.  To record
a case again after an intended output change, run

    PYTHONPATH=src python tests/test_golden_cli.py --record

The map goldens' entries must not depend on the host's BLAS: they are run again
under two other OpenBLAS kernels, one with fused multiply-adds and one without.
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
    # match; Sandybridge does not, so the entries B..N must, while the invariants of
    # L2b and L5 still go through matmul
    args = [a for case in MAP_CASES for a in (GOLDEN / case / "scenario.json", tmp_path / case)]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": str(Path(deformcs.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", _RUN_CASES, *map(str, args)], env=env, check=True,
                   capture_output=True)
    for case in MAP_CASES:
        got = (tmp_path / case / "orbit.csv").read_bytes()
        want = (GOLDEN / case / "expected" / "orbit.csv").read_bytes()
        if coretype == "Haswell":
            assert got == want, case
        else:
            assert _columns(got, "nBCEGMN") == _columns(want, "nBCEGMN"), case


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    for case in CASES:
        target = GOLDEN / case / "expected"
        target.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in artifacts(case, Path(tmp)).items():
                (target / name).write_bytes(data)
        print(f"recorded {case}")

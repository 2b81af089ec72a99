"""CLI artifacts must stay byte-identical to the recorded goldens.

Each directory under ``tests/golden/`` holds one ``scenario.json`` and, in
``expected/``, the CSV files and ``report.json`` that ``deform-cs run``
wrote for it; the report's ``timestamp`` line is removed before comparing,
since it is the only field that differs between identical runs.  To record
a case again after an intended output change, run

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import re
import sys
from pathlib import Path

import pytest

from deformcs.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "scenario.json").is_file())

_TIMESTAMP = re.compile(rb'^  "timestamp": ".*",\n', re.MULTILINE)


def artifacts(case: str, out: Path) -> dict[str, bytes]:
    """Run one case and return its output files, the report without its timestamp."""
    assert main(["run", str(GOLDEN / case / "scenario.json"), "--out", str(out), "--quiet"]) == EXIT_OK
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    files["report.json"] = _TIMESTAMP.sub(b"", files["report.json"], count=1)
    return files


@pytest.mark.parametrize("case", CASES)
def test_cli_artifacts_match_golden(case, tmp_path):
    expected_dir = GOLDEN / case / "expected"
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    got = artifacts(case, tmp_path)
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{case}/{name} differs from the golden"


def test_golden_cases_cover_every_kind():
    kinds = {re.search(r'"kind": "(\w+)"', (GOLDEN / c / "scenario.json").read_text()).group(1)
             for c in CASES}
    assert kinds == {"flow", "map", "validate_family", "reduction", "residual_scan"}


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    for case in CASES:
        target = GOLDEN / case / "expected"
        target.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in artifacts(case, Path(tmp)).items():
                (target / name).write_bytes(data)
        print(f"recorded {case}")

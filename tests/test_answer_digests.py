"""`scripts/answer_digests.py` prints one stable digest per benchmark op and table."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digests() -> list[str]:
    proc = subprocess.run(
        [sys.executable, "scripts/answer_digests.py", "--seed", "11", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_two_smoke_runs_print_identical_digests():
    first = _digests()
    # 3 tables of the toy (6 ops), hist (4) and relaxed (2) ladders
    assert len(first) == 3 * (6 + 4 + 2)
    assert all(re.fullmatch(r"(toy|hist|relaxed) table [0-2] [a-z-]+ [0-9a-f]{64}", line) for line in first)
    assert _digests() == first

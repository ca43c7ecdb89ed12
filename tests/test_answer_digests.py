"""`scripts/answer_digests.py` prints one stable digest per benchmark op and
table, and the committed `DIGESTS.txt` holds the current tree's lines."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "scripts/answer_digests.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _digests() -> list[str]:
    proc = _script("--seed", "11", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the header names the python, numpy, blas and cpu features
    assert [line.split()[1] for line in lines[:4]] == ["python", "numpy", "blas", "cpu"]
    return lines[4:]


def test_two_smoke_runs_print_identical_digests():
    first = _digests()
    # 3 tables of the toy (6 ops), hist (4) and relaxed (2) ladders
    assert len(first) == 3 * (6 + 4 + 2)
    assert all(re.fullmatch(r"(toy|hist|relaxed) table [0-2] [a-z-]+ [0-9a-f]{64}", line) for line in first)
    assert _digests() == first


def test_committed_digests_match_the_tree():
    proc = _script("--seed", "7", "--check", "DIGESTS.txt")
    if proc.returncode == 0 and proc.stdout.startswith("check skipped"):
        pytest.skip(proc.stdout.strip())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""


def test_a_changed_line_fails_the_check(tmp_path):
    lines = _script("--seed", "11", "--smoke").stdout.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("relaxed table 2 "))
    right = lines[i]
    lines[i] = right[:-1] + ("0" if right[-1] != "0" else "1")
    changed = tmp_path / "digests.txt"
    changed.write_text("\n".join(lines) + "\n")
    proc = _script("--seed", "11", "--smoke", "--check", str(changed))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [f"- {lines[i]}", f"+ {right}"]

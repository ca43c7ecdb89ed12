"""The `dpsynth` command line in a child process, run from this checkout's source.

pytest's `pythonpath` setting reaches only the pytest process, so a child
`python -m dpsynth` of an uninstalled checkout could not import the package.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_dpsynth(args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m dpsynth *args`, with the checkout's `src/` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "dpsynth", *args], env=env, **kwargs)

"""SHA-256 of every benchmark op's output on the first three tables of each workload.

One line per workload, table and op: the digest of the final answer vector,
or of the floor for `bme`, fit exactly as `perfbench/harness.py` fits it at
workload seed S (BLAS pinned to one thread, as the benchmark runs). Two
source trees whose lines are equal give bit-identical outputs on them. The
lines follow a header naming the Python, numpy, BLAS and CPU features they
were made with, since another BLAS or another SIMD kernel may round
differently.

    python3 scripts/answer_digests.py --seed 7 [--smoke] > DIGESTS.txt
    python3 scripts/answer_digests.py --seed 7 --check DIGESTS.txt

`--smoke` runs the benchmark's tiny smoke ladders instead, in seconds.
`--check FILE` compares the lines with FILE's: it prints each line that
differs and exits 1, or, where this environment differs from FILE's header,
says so and exits 0 without fitting anything.
"""
import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: thread pinning and the source path)

TABLES = range(3)


def environment() -> list[str]:
    """The header lines: the versions and CPU features whose rounding the digests depend on."""
    import numpy as np

    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath  # numpy 1 names it `core`
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# python {sys.version.split()[0]}",
        f"# numpy {np.__version__}",
        f"# blas {blas['name']} {blas.get('version', 'unknown')}",
        "# cpu " + " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)),
    ]


def digests(seed: int, smoke: bool):
    """Yield one digest line per workload, table and op."""
    import harness
    import numpy as np

    for name in harness.SPECS:
        spec = harness.smoke_spec(name) if smoke else harness.SPECS[name]
        for index in TABLES:
            inp = harness.setup(spec, seed, index, 1)
            fit_seed = harness._seed(seed, spec, 3, index)
            for op in spec.ops:
                _, out, _ = harness.fit(op, inp, fit_seed)
                digest = hashlib.sha256(np.ascontiguousarray(out, dtype=np.float64).tobytes()).hexdigest()
                yield f"{name} table {index} {op.name} {digest}"


def check(path: str, lines) -> int:
    """Compare `lines` with the file's digest lines; returns the exit code."""
    recorded = Path(path).read_text().splitlines()
    header = [line for line in recorded if line.startswith("#")]
    env = environment()
    if header != env:
        print(f"check skipped: {path} was made under {' | '.join(header)}, this is {' | '.join(env)}")
        return 0
    expected = [line for line in recorded if not line.startswith("#")]
    got = list(lines)
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    for e, g in bad:
        print(f"- {e}\n+ {g}")
    counted = len(expected) == len(got)
    if not counted:
        print(f"{path} has {len(expected)} digest lines, this run made {len(got)}")
    return 0 if counted and not bad else 1


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True, help="workload seed, as perfbench/run.py --seed")
    ap.add_argument("--smoke", action="store_true", help="the smoke ladders on tiny domains")
    ap.add_argument("--check", metavar="FILE", help="compare with FILE's lines instead of printing them")
    args = ap.parse_args(argv)
    run.pin_threads()
    run.import_source()
    if args.check:
        sys.exit(check(args.check, digests(args.seed, args.smoke)))
    for line in environment():
        print(line)
    for line in digests(args.seed, args.smoke):
        print(line, flush=True)


if __name__ == "__main__":
    main()

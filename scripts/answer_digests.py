"""SHA-256 of every benchmark op's output on the first three tables of each workload.

One line per workload, table and op: the digest of the final answer vector,
or of the floor for `bme`, fit exactly as `perfbench/harness.py` fits it at
workload seed S (BLAS pinned to one thread, as the benchmark runs). Two
source trees whose lines are equal give bit-identical outputs on them.

    python3 scripts/answer_digests.py --seed 7 [--smoke]

`--smoke` runs the benchmark's tiny smoke ladders instead, in seconds.
"""
import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: thread pinning and the source path)

TABLES = range(3)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True, help="workload seed, as perfbench/run.py --seed")
    ap.add_argument("--smoke", action="store_true", help="the smoke ladders on tiny domains")
    args = ap.parse_args(argv)
    run.pin_threads()
    run.import_source()
    import harness
    import numpy as np

    for name in harness.SPECS:
        spec = harness.smoke_spec(name) if args.smoke else harness.SPECS[name]
        for index in TABLES:
            inp = harness.setup(spec, args.seed, index, 1)
            fit_seed = harness._seed(args.seed, spec, 3, index)
            for op in spec.ops:
                _, out, _ = harness.fit(op, inp, fit_seed)
                digest = hashlib.sha256(np.ascontiguousarray(out, dtype=np.float64).tobytes()).hexdigest()
                print(f"{name} table {index} {op.name} {digest}", flush=True)


if __name__ == "__main__":
    main()

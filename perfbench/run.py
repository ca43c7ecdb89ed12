"""Run one workload of the dpsynth benchmark and print its metrics.

    python3 perfbench/run.py --workload hist --seed 1 --seconds 20 --trace 0

Run it from the root of a dpsynth source tree; it imports the package from
`src/`. Workloads: toy, hist, relaxed (see harness.SPECS). With `--trace 0`
the last line of standard output is one JSON object with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced run.
The full record (environment, per-op fit times, accuracy, checks, layer
table) is written to `.bench_out/<workload>-seed<seed>-trace<t>.json`, and a
traced run also writes its spans to `...-spans.jsonl` beside it. The exit
code is 1 when an output check fails and 2 when the source tree is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS/OpenMP pools are pinned to one thread: other processes may share the
# CPUs, and the benchmark's matrix products are too small to gain from more.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> dict:
    """Set the thread pools before numpy is first imported; returns the settings."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread settings were pinned")
    for var in THREAD_ENV:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_ENV}


def import_source() -> None:
    src = ROOT / "src"
    if not (src / "dpsynth" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dpsynth source tree under {src}")
    sys.path.insert(0, str(src))


def _line(detail: dict, traced: bool) -> dict:
    metrics = detail["trace"]["metrics"] if traced else detail["metrics"]
    return {
        "correct": not detail["failures"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.5g}"


def _print_summary(detail: dict, traced: bool) -> None:
    print(f"workload {detail['workload']} seed {detail['seed']}")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    print(
        f"{detail['passes']} passes over {detail['tables']} tables in {detail['run_wall_s']:.1f} s; "
        f"attempted {detail['attempted']}, failed {detail['failed']}"
    )
    acc = detail["accuracy"]
    print(f"per op: median fit time, and errors averaged over {acc['tables']} tables")
    for name, e in list(acc["ops"].items()) + [(f"[{k}]", v) for k, v in acc["reference"].items()]:
        samples = detail["fit_samples"].get(name, [])
        times = f"fit_s={_fmt(detail['fit_s'][name])} over {len(samples)}" if samples else ""
        cols = " ".join(f"{k}={_fmt(v)}" for k, v in e.items())
        print(f"  {name:<12} {times:<26} {cols}")
    for key in ("metrics", "ungated"):
        print(f"{key}: " + ", ".join(f"{k}={_fmt(v)} {u}" for k, (v, u) in detail[key].items()))
    if traced:
        t = detail["trace"]
        print(f"layers over {t['traced_passes']} traced passes, per pass (plus one set-up):")
        rows = sorted(t["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(
                f"  {name:<36} calls={row['calls']:<9g} total_s={row['total_s']:<10.4g} "
                f"self_s={row['self_s']:.4g}"
            )
        print("per op: untraced and traced fit time, time inside library layers, tracing overhead")
        for name, row in t["per_op"].items():
            print(f"  {name:<12} " + " ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    for f in detail["failures"]:
        print(f"FAILED {f}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("toy", "hist", "relaxed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        import_source()
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    thread_env = pin_threads()
    import harness

    threads = len(os.sched_getaffinity(0))  # the CLI's default --threads on this machine
    detail = harness.execute(harness.SPECS[args.workload], args.seed, args.seconds, bool(args.trace), threads)
    detail["env"] = harness.environment(ROOT, args.seed, thread_env, threads)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    if spans is not None:
        with open(out / f"{stem}-spans.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
    with open(out / f"{stem}.json", "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True)
        f.write("\n")

    _print_summary(detail, bool(args.trace))
    print(json.dumps(_line(detail, bool(args.trace))))
    return 0 if not detail["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself: every workload's ladder on a tiny domain.

    python3 perfbench/smoke.py

Runs each workload's ops at T=2 on a 4-attribute domain, untraced and
traced, and checks that the printed result has the required schema and
exactly the metric names and units in BENCHMARK.json. Then corrupts the
fits' answers twice and checks that the output checks report the failure.
Exits 0 when every check passes. Takes a few seconds.
"""
from __future__ import annotations

import json
import math
import sys

import run


def _validate(line: dict, expected: dict, where: str) -> list[str]:
    bad = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"{where}: keys {sorted(line)}")
    if line.get("correct") is not True:
        bad.append(f"{where}: not correct")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        bad.append(f"{where}: attempted {line.get('attempted')!r}")
    if line.get("failed") != 0:
        bad.append(f"{where}: failed {line.get('failed')!r}")
    metrics = line.get("metrics", {})
    if set(metrics) != set(expected):
        bad.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            bad.append(f"{where}: {name} has keys {sorted(m)}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            bad.append(f"{where}: {name} = {m['value']!r}")
        elif name in expected and m["unit"] != expected[name]:
            bad.append(f"{where}: {name} unit {m['unit']!r}, expected {expected[name]!r}")
    json.loads(json.dumps(line, allow_nan=False))  # the line must be strict JSON
    return bad


def _injected_faults(harness) -> list[str]:
    """The output checks must catch answers out of range and a non-repeatable fit."""
    real_fit = harness.fit
    faults = {
        "scaled answers": lambda out, n: out * 1.5,
        "non-repeatable fit": lambda out, n: out + 1e-15 * n,
    }
    bad = []
    for label, corrupt in faults.items():
        calls = [0]

        def faulty_fit(op, inp, fit_seed):
            dt, out, acct = real_fit(op, inp, fit_seed)
            calls[0] += 1
            return dt, out if op.name == "bme" else corrupt(out, calls[0]), acct

        harness.fit = faulty_fit
        try:
            detail = harness.execute(harness.smoke_spec("toy"), seed=0, seconds=0.01, traced=False, threads=1)
        finally:
            harness.fit = real_fit
        if detail["failed"] == 0 or run._line(detail, False)["correct"]:
            bad.append(f"{label}: not detected")
    return bad


def main() -> int:
    run.import_source()
    run.pin_threads()
    import harness

    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if sorted(w["name"] for w in bench["workloads"]) != sorted(harness.SPECS):
        print("workload names in BENCHMARK.json differ from harness.SPECS", file=sys.stderr)
        return 1
    failures = []
    for name in harness.SPECS:
        spec = harness.smoke_spec(name)
        for traced in (False, True):
            detail = harness.execute(spec, seed=0, seconds=0.01, traced=traced, threads=1)
            where = f"{name} trace={int(traced)}"
            failures += [f"{where}: {f}" for f in detail["failures"]]
            line = run._line(detail, traced)
            failures += _validate(line, per_layer if traced else end_to_end, where)
            print(f"{where}: {detail['attempted']} ops, {detail['passes']} passes")
    failures += _injected_faults(harness)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

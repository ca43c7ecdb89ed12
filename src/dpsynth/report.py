"""Error metrics and the run report / trace files.

Reports are JSON with a schema_version field. Canonical serialization sorts
keys and drops wall-clock time, so two runs of the same seed and config
produce byte-identical canonical forms.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from .domain import DataError
from .privacy import Accountant
from .queries import QuerySet

SCHEMA_VERSION = 1
VOLATILE_KEYS = ("wall_time_sec",)


def errors(true_answers: np.ndarray, synth_answers: np.ndarray) -> tuple[float, float, float]:
    """(max abs, mean abs, root mean squared) error between answer vectors."""
    t = np.asarray(true_answers, dtype=np.float64)
    s = np.asarray(synth_answers, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1 or t.size == 0:
        raise DataError("answer vectors must be equal-length and nonempty")
    d = np.abs(t - s)
    return float(d.max()), float(d.mean()), float(np.sqrt((d**2).mean()))


def per_workload_errors(queries: QuerySet, true_answers, synth_answers) -> list[dict]:
    out = []
    for w, sl in zip(queries.workloads, queries.slices()):
        mx, mn, rmse = errors(true_answers[sl], synth_answers[sl])
        out.append(
            {
                "features": [queries.domain.names[f] for f in w.features],
                "queries": w.n_queries,
                "max": mx,
                "mean": mn,
                "rmse": rmse,
            }
        )
    return out


def build_report(
    *,
    method: str,
    queries: QuerySet,
    true_answers,
    synth_answers,
    acct: Accountant,
    epsilon: float | None,
    delta: float | None,
    seed: int,
    private: bool,
    wall_time_sec: float,
    config: dict | None = None,
) -> dict:
    """The run report; the budget split (rho, eps0, T, k, alpha) and n are read off `acct`."""
    mx, mn, rmse = errors(true_answers, synth_answers)
    return {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "n": acct.n,
        "budget": {"rho": acct.rho, "epsilon": epsilon, "delta": delta, "eps0": acct.eps0},
        "T": acct.T,
        "k": acct.k,
        "alpha": acct.alpha,
        "seed": seed,
        "private": private,
        "marginal_k": queries.k,
        "workload_count": len(queries.workloads),
        "query_count": queries.total_queries,
        "errors": {"max": mx, "mean": mn, "rmse": rmse},
        "workloads": per_workload_errors(queries, true_answers, synth_answers),
        "config": config or {},
        "wall_time_sec": wall_time_sec,
    }


def canonical_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, volatile fields removed."""
    trimmed = {k: v for k, v in report.items() if k not in VOLATILE_KEYS}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"))


def write_report(report: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def write_trace(trace: list[dict], path) -> None:
    """One JSON object per line, one line per round."""
    with open(path, "w") as f:
        for rec in trace:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def write_errors_csv(queries: QuerySet, true_answers, synth_answers, path) -> None:
    """Per-query dump: workload features, targets, both answers, abs error."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["features", "targets", "true", "synthetic", "abs_error"])
        for wl, sl in zip(queries.workloads, queries.slices()):
            names = "|".join(queries.domain.names[ft] for ft in wl.features)
            for local, targets in enumerate(np.ndindex(*wl.sizes)):  # lexicographic, as indexed
                gi = sl.start + local
                w.writerow(
                    [
                        names,
                        "|".join(str(t) for t in targets),
                        repr(float(true_answers[gi])),
                        repr(float(synth_answers[gi])),
                        repr(abs(float(true_answers[gi]) - float(synth_answers[gi]))),
                    ]
                )

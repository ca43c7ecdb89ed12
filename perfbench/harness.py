"""Workloads, timed fits, output checks and metrics of the dpsynth benchmark.

Every workload fits the methods of its ladder ("ops") on `gen_toy` tables
at epsilon=1, delta=1/n^2, over all 3-way marginals with k=1 and alpha=0.67
(alpha=1 on a selection-only budget for dualquery and fem). Everything else
is a library default unless the op says otherwise. The workload seed drives
the private tables, the public tables and every fit seed; the library only
ever sees the generated inputs.

A fit is timed like one `dpsynth synth --report` call: from
`build_workloads` on a fresh QuerySet (so no lazy cache carries from one
fit to the next), through the synthesizer's construction and `run`, to the
final answer vector.

A run makes passes over the ladder until its time is up. Pass 1 repeats
pass 0 exactly, so every op's first fit is checked for bit-identical output;
every later pass draws a new table and new fit seeds. How long a GEM or RAP
fit takes depends on the table (early stops), so fit times are medians over
many tables, and accuracy is the mean over a fixed number of tables, so
that it does not depend on how many passes a run managed.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dpsynth import loop, public, queries, toy
from dpsynth.gem import GemConfig, GemSynthesizer
from dpsynth.mwem import MwemSynthesizer
from dpsynth.pep import PepSynthesizer
from dpsynth.privacy import Accountant, dp_to_zcdp
from dpsynth.rap import RapConfig, RapSynthesizer
from dpsynth.report import errors
from dpsynth.search import DualQueryConfig, DualQuerySynthesizer, FemConfig, FemSynthesizer

from tracer import Tracer

EPSILON = 1.0
MARGINAL_K = 3
ALPHA = 0.67
SELECTION_ONLY = ("dualquery", "fem")
MEASURED = ("mwem", "pep", "pep-public", "gem", "gem-public", "rap-softmax")
SUM_TOL = 1e-9  # each marginal's answers sum to 1
RANGE_TOL = 1e-12  # answers lie in [0, 1] up to rounding of a sum of masses
RHO_RTOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One fit (or the best-mixture-error floor) in a workload's ladder."""

    name: str
    T: int = 0
    gem_tmax: int = GemConfig.t_max
    rap_rows: int = RapConfig.rows
    rap_steps: int = RapConfig.max_steps
    pretrain_steps: int = 3000
    bme_iterations: int = 2000


@dataclass(frozen=True)
class Spec:
    name: str
    sizes: tuple[int, ...]
    n: int
    ops: tuple[Op, ...]
    acc_tables: int  # accuracy is averaged over this many tables
    public_n: int = 0  # 0: the workload has no public table
    setup_reps: int = 7  # set-up time is the median of this many back-to-back set-ups


SPECS = {
    # 4x8 tables: fits are small, so the loop's fixed per-round costs weigh
    # most; the only workload with the search layer and generator pretraining
    "toy": Spec(
        "toy",
        sizes=(8,) * 4,
        n=2000,
        public_n=500,
        acc_tables=6,
        setup_reps=25,
        ops=(
            Op("mwem", T=20),
            Op("pep", T=20),
            # t_max=10: with the default 100, how long a toy gem fit takes
            # swings 4x from one table to the next
            Op("gem", T=20, gem_tmax=10),
            Op("dualquery", T=20),
            Op("fem", T=20),
            Op("gem-public", T=20, gem_tmax=10, pretrain_steps=100),
        ),
    ),
    # 6x8 = 262,144 cells: dense-histogram answers and updates are nearly all
    # the work (at 7x8 one pep fit alone takes ~40 s on 2 vCPUs, more than a
    # run may take)
    "hist": Spec(
        "hist",
        sizes=(8,) * 6,
        n=20000,
        public_n=2000,
        acc_tables=6,
        setup_reps=15,
        ops=(
            Op("mwem", T=5),
            Op("pep", T=5),
            Op("pep-public", T=5),
            Op("bme", bme_iterations=2000),
        ),
    ),
    # 2.1e9 cells, far over the histogram cap: product-mixture answers do
    # almost all the work; rap-softmax is kept small so a run sees 3+ tables
    "relaxed": Spec(
        "relaxed",
        sizes=(2, 3, 4, 5, 6, 8, 10, 12, 16, 4, 6, 8),
        n=20000,
        acc_tables=3,
        ops=(
            Op("gem", T=20),
            Op("rap-softmax", T=10, rap_rows=100, rap_steps=100),
        ),
    ),
}
WORKLOAD_IDS = {name: i for i, name in enumerate(SPECS)}


def smoke_spec(name: str) -> Spec:
    """The same ladder on a tiny domain at T=2, for the benchmark's own smoke test."""
    spec = SPECS[name]
    ops = tuple(
        replace(op, T=2 if op.T else 0, rap_rows=20, rap_steps=5, pretrain_steps=5, bme_iterations=20)
        for op in spec.ops
    )
    sizes = (3,) * 4 if name != "relaxed" else (2, 3, 4, 2)
    return replace(
        spec, sizes=sizes, n=300, public_n=100 if spec.public_n else 0, ops=ops, acc_tables=2, setup_reps=2
    )


# -- inputs ----------------------------------------------------------------


@dataclass
class Inputs:
    domain: object
    data: object
    public: object | None
    private_answers: np.ndarray
    rho: float
    delta: float
    threads: int
    slices: list
    workload_sizes: list


def _seed(seed: int, spec: Spec, *path: int) -> int:
    return int(np.random.SeedSequence([seed, WORKLOAD_IDS[spec.name], *path]).generate_state(1)[0])


def setup(spec: Spec, seed: int, index: int, threads: int) -> Inputs:
    """Table `index` of the workload: private and public tables, exact answers."""
    attrs, sizes = len(spec.sizes), list(spec.sizes)
    domain, data = toy.gen_toy(attrs, sizes, spec.n, _seed(seed, spec, 0, index))
    pub = None
    if spec.public_n:
        _, pub = toy.gen_toy(attrs, sizes, spec.public_n, _seed(seed, spec, 1, index))
    qs = queries.build_workloads(domain, MARGINAL_K)
    qs.threads = threads
    private = qs.answers_records(data)
    delta = 1.0 / data.n**2
    return Inputs(
        domain,
        data,
        pub,
        private,
        dp_to_zcdp(EPSILON, delta),
        delta,
        threads,
        qs.slices(),
        [w.n_queries for w in qs.workloads],
    )


# -- one fit ---------------------------------------------------------------


def _synthesizer(op: Op, inp: Inputs, qs, rng):
    dom, n = inp.domain, inp.data.n
    if op.name in SELECTION_ONLY:
        acct = Accountant.selection_only(inp.rho, op.T, 1, n)
    else:
        acct = Accountant(inp.rho, op.T, 1, ALPHA, n)
    if op.name == "mwem":
        synth = MwemSynthesizer(dom, qs)
    elif op.name == "pep":
        synth = PepSynthesizer(dom, qs)
    elif op.name == "pep-public":
        synth = public.pep_pub_init(inp.public, dom, qs)
    elif op.name == "gem":
        synth = GemSynthesizer(dom, qs, GemConfig(t_max=op.gem_tmax), rng, total_rounds=op.T)
    elif op.name == "gem-public":
        cfg = GemConfig(t_max=op.gem_tmax)
        init, _ = public.gem_pub_pretrain(dom, inp.public, qs, cfg, rng, steps=op.pretrain_steps)
        synth = GemSynthesizer(dom, qs, cfg, rng, total_rounds=op.T, init=init)
    elif op.name == "rap-softmax":
        cfg = RapConfig(rows=op.rap_rows, max_steps=op.rap_steps)
        synth = RapSynthesizer(dom, qs, cfg, rng)
    elif op.name == "dualquery":
        synth = DualQuerySynthesizer(dom, qs, DualQueryConfig())
    elif op.name == "fem":
        synth = FemSynthesizer(dom, qs, FemConfig())
    else:
        raise ValueError(f"unknown op {op.name!r}")
    return synth, acct


def fit(op: Op, inp: Inputs, fit_seed: int):
    """Returns (seconds, answer vector or floor value, accountant or None)."""
    t0 = time.perf_counter()
    qs = queries.build_workloads(inp.domain, MARGINAL_K)
    qs.threads = inp.threads
    if op.name == "bme":
        support = np.unique(inp.public.cells())
        out = public.best_mixture_error(support, qs, inp.private_answers, iterations=op.bme_iterations)
        return time.perf_counter() - t0, out, None
    rng = np.random.default_rng(fit_seed)
    synth, acct = _synthesizer(op, inp, qs, rng)
    cfg = loop.RunConfig(T=op.T, k=1, alpha=acct.alpha, seed=fit_seed)
    dist, _ = loop.run(inp.data, qs, synth, acct, cfg, rng)
    answers = dist.answers(qs)
    return time.perf_counter() - t0, answers, acct


def check(op: Op, inp: Inputs, out, acct) -> list[str]:
    """Output checks of one fit; returns the failures."""
    if op.name == "bme":
        ok = isinstance(out, float) and math.isfinite(out) and 0.0 <= out <= 1.0
        return [] if ok else [f"best mixture error {out!r} not a finite value in [0, 1]"]
    bad = []
    a = np.asarray(out)
    if a.shape != inp.private_answers.shape:
        return [f"answer vector has shape {a.shape}"]
    if not np.all(np.isfinite(a)):
        bad.append("answers not finite")
    elif a.min() < -RANGE_TOL or a.max() > 1.0 + RANGE_TOL:
        bad.append(f"answers outside [0, 1]: [{a.min()!r}, {a.max()!r}]")
    sums = np.array([a[sl].sum() for sl in inp.slices])
    if np.any(np.abs(sums - 1.0) > SUM_TOL):
        bad.append(f"a marginal sums to {sums[np.argmax(np.abs(sums - 1.0))]!r}")
    if op.name in MEASURED and not acct.spent_rho() <= acct.rho * (1.0 + RHO_RTOL):
        bad.append(f"spent rho {acct.spent_rho()!r} over stated {acct.rho!r}")
    return bad


def _digest(out) -> str:
    if isinstance(out, float):
        return repr(out)
    return hashlib.sha256(np.ascontiguousarray(out, dtype=np.float64).tobytes()).hexdigest()


# -- reference points ------------------------------------------------------


def references(spec: Spec, inp: Inputs, seed: int, index: int) -> dict:
    """Uniform distribution and per-query Gaussian answers at the same rho."""
    true = inp.private_answers
    uniform = np.concatenate([np.full(m, 1.0 / m) for m in inp.workload_sizes])
    sigma = math.sqrt(true.size / (2.0 * inp.rho)) / inp.data.n
    g = np.random.default_rng(_seed(seed, spec, 2, index))
    gauss = np.clip(true + sigma * g.standard_normal(true.size), 0.0, 1.0)
    out = {}
    for name, ans in (("uniform", uniform), ("gaussian", gauss)):
        mx, mn, rmse = errors(true, ans)
        out[name] = {"max": mx, "mean": mn, "rmse": rmse}
    return out


# -- environment -----------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root: Path, seed: int, thread_env: dict, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": thread_env,
        "query_threads": threads,
        "git_commit": git_commit(root),
        "workload_seed": seed,
    }


# -- a whole run -----------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else None


def _mean_errors(rows: list[dict]) -> dict:
    return {k: statistics.fmean(r[k] for r in rows) for k in rows[0]} if rows else {}


def execute(spec: Spec, seed: int, seconds: float, traced: bool, threads: int) -> dict:
    """Set up, run passes over the ladder for `seconds`, check and summarize.

    Pass p works on table (and fit seeds) number max(p - 1, 0), so pass 1
    repeats pass 0. An untraced run makes at least `acc_tables + 1` passes.
    A traced run alternates an untraced and a traced pass on the same table
    and seeds, so tracing overhead is measured on identical work and tracing
    is checked not to change any answer; it makes at least two passes.
    """
    setup_s = []
    for _ in range(spec.setup_reps):
        t0 = time.perf_counter()
        inp = setup(spec, seed, 0, threads)
        setup_s.append(time.perf_counter() - t0)
    tracer = Tracer() if traced else None
    if tracer is not None:  # one more, traced, set-up for the set-up layers
        tracer.install()
        try:
            with tracer.region("bench.setup", fit="setup"):
                setup(spec, seed, 0, threads)
        finally:
            tracer.uninstall()

    ops = {op.name: {"fit_s": [], "traced_fit_s": [], "layer_self_s": []} for op in spec.ops}
    accuracy: dict[str, list[dict]] = {op.name: [] for op in spec.ops}
    refs: list[dict] = []
    digests: dict[tuple[str, int], str] = {}
    failures: list[str] = []
    failed_fits: set[str] = set()
    attempted = 0
    passes = traced_passes = 0
    min_passes = 2 if traced else spec.acc_tables + 1
    index = 0
    table_setup_s: list[float] = []
    start = time.perf_counter()
    # a traced run ends on a traced pass, so both halves cover the same tables
    while passes < min_passes or time.perf_counter() - start < seconds or (traced and passes % 2):
        on = traced and passes % 2 == 1
        new_index = passes // 2 if traced else max(passes - 1, 0)
        if new_index != index:
            index = new_index
            t0 = time.perf_counter()
            inp = setup(spec, seed, index, threads)
            table_setup_s.append(time.perf_counter() - t0)
        # errors are scored on the first untraced pass over each table
        scored = index < spec.acc_tables and (passes % 2 == 0 if traced else passes != 1)
        if scored:
            refs.append(references(spec, inp, seed, index))
        fit_seed = _seed(seed, spec, 3, index)
        if on:
            tracer.install()
        try:
            for op in spec.ops:
                fit_id = f"{op.name}#{passes}"
                attempted += 1
                try:
                    if on:
                        with tracer.region("bench.fit", fit=fit_id):
                            dt, out, acct = fit(op, inp, fit_seed)
                    else:
                        dt, out, acct = fit(op, inp, fit_seed)
                except Exception:
                    failures.append(f"{fit_id}: raised\n{traceback.format_exc()}")
                    failed_fits.add(fit_id)
                    continue
                bad = check(op, inp, out, acct)
                digest = _digest(out)
                if digests.setdefault((op.name, index), digest) != digest:
                    bad.append("fixed-seed repeat is not bit-identical")
                if bad:
                    failures.extend(f"{fit_id}: {b}" for b in bad)
                    failed_fits.add(fit_id)
                    continue
                ops[op.name]["traced_fit_s" if on else "fit_s"].append(dt)
                if scored and op.name == "bme":
                    accuracy[op.name].append({"floor": out})
                elif scored:
                    mx, mn, rmse = errors(inp.private_answers, out)
                    accuracy[op.name].append({"max": mx, "mean": mn, "rmse": rmse})
        finally:
            if on:
                tracer.uninstall()
        passes += 1
        traced_passes += on
    wall = time.perf_counter() - start

    medians = {name: _median(v["fit_s"]) for name, v in ops.items()}
    known = [m for m in medians.values() if m]
    fits = [row for name, rows in accuracy.items() if name != "bme" for row in rows]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(known), "s"),
        "mean_err": (statistics.fmean(r["mean"] for r in fits) if fits else None, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "inputs": {
            "sizes": list(spec.sizes),
            "cells": inp.domain.total_cells,
            "n": inp.data.n,
            "public_n": spec.public_n,
            "workloads": len(inp.slices),
            "queries": int(inp.private_answers.size),
            "epsilon": EPSILON,
            "delta": inp.delta,
            "rho": inp.rho,
            "ops": [op.__dict__ for op in spec.ops],
        },
        "setup_s": setup_s,
        "table_setup_s": table_setup_s,
        "passes": passes,
        "tables": index + 1,
        "run_wall_s": wall,
        "fit_s": medians,
        "fit_samples": {name: v["fit_s"] for name, v in ops.items()},
        "accuracy": {
            "tables": len(refs),
            "ops": {name: _mean_errors(rows) for name, rows in accuracy.items()},
            "reference": {k: _mean_errors([r[k] for r in refs]) for k in ("uniform", "gaussian")} if refs else {},
            "per_table": accuracy,
        },
        "attempted": attempted,
        "failed": len(failed_fits),
        "failures": failures,
        "metrics": metrics,
        "ungated": {
            **{"bme_s" if name == "bme" else f"fit_s.{name}": (m, "s") for name, m in medians.items()},
            "fit_gmean_s": (math.exp(statistics.fmean(math.log(m) for m in known)) if known else None, "s"),
            "max_err": (statistics.fmean(r["max"] for r in fits) if fits else None, "frac"),
            "rmse_err": (statistics.fmean(r["rmse"] for r in fits) if fits else None, "frac"),
            "fail_frac": (len(failed_fits) / attempted, "frac"),
        },
    }
    if traced:
        detail["trace"] = trace_summary(tracer, ops, traced_passes)
        detail["spans"] = tracer.dump()
    return detail


# -- traced-run summary ------------------------------------------------------

SYNTH_UPDATES = ("mwem.update", "pep.update", "gem.update", "rap.update")
SYNTH_ANSWERS = ("mwem.answers", "pep.answers", "gem.answers", "rap.answers", "search.answers")
COUNTED_LAYERS = (
    "toy.gen_toy",
    "queries.build_workloads",
    "queries.answers_records",
    "queries.answers_mass",
    "queries.answers_support",
    "queries.answers_probs",
    "loop.run",
    "privacy.select_and_measure_round",
    "mwem.update",
    "pep.update",
    "pep.answers",
    "gem.update",
    "rap.update",
    "search.dualquery.private_round",
    "search.fem.private_round",
    "public.gem_pub_pretrain",
    "public.pep_pub_init",
    "public.best_mixture_error",
)
TIMED_LAYERS = (
    "toy.gen_toy",
    "queries.build_workloads",
    "queries.answers_records",
    "loop.run",
    "privacy.select_and_measure_round",
)


def trace_summary(tracer: Tracer, ops: dict, traced_passes: int) -> dict:
    """Per-layer table (per traced pass, plus one set-up) and per-op accounting."""
    spans = tracer.spans
    self_t = tracer.self_times()
    per = 1.0 / max(traced_passes, 1)
    table = {
        name: {k: v * per for k, v in row.items()}
        for name, row in tracer.layer_table(lambda s: s[4] != "setup").items()
    }
    for name, row in tracer.layer_table(lambda s: s[4] == "setup").items():
        dst = table.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        for k in row:
            dst[k] += row[k]

    # per fit: traced duration, and the part spent inside library layers
    by_fit: dict[str, list[float]] = {}
    for (name, s, e, parent, fit), st in zip(spans, self_t):
        if name == "bench.fit":
            by_fit[fit] = [e - s, e - s - st]
    for fit, (dur, layers) in by_fit.items():
        op = fit.split("#")[0]
        ops[op]["layer_self_s"].append(layers)
    per_op = {}
    for name, v in ops.items():
        un, tr = _median(v["fit_s"]), _median(v["traced_fit_s"])
        per_op[name] = {
            "untraced_fit_s": un,
            "traced_fit_s": tr,
            "layer_self_s": _median(v["layer_self_s"]),
            "overhead_s": tr - un if un is not None and tr is not None else None,
        }

    c = tracer.counts
    loop_answers = sum(
        1 for s in spans if s[0] in SYNTH_ANSWERS and s[3] >= 0 and spans[s[3]][0] == "loop.run"
    )
    counts = {
        "queries.answers_mass.gb_computed": c["queries.answers_mass.gb_computed"] * per,
        "mwem.entry_steps": c["mwem.entry_steps"] * per,
        "pep.projections": c["pep.projections"] * per,
        "gem.forward_passes": c["gem.forward_passes"] * per,
        "gem.loss_evals": c["gem.loss_evals"] * per,
        "gem.optimizer_steps": c["gem.optimizer_steps"] * per,
        "rap.loss_evals": c["rap.loss_evals"] * per,
        "rap.grad_evals": c["rap.grad_evals"] * per,
        "rap.evals_per_step": c["rap.loss_evals"] / c["rap.grad_evals"] if c["rap.grad_evals"] else 0.0,
        "loop.answers_per_round": loop_answers / c["loop.rounds"] if c["loop.rounds"] else 0.0,
    }
    overheads = [v["overhead_s"] for v in per_op.values() if v["overhead_s"] is not None]
    metrics = {}
    for name in COUNTED_LAYERS:
        metrics[f"{name}.calls"] = (table.get(name, {}).get("calls", 0.0), "count")
    for name in TIMED_LAYERS:
        metrics[f"{name}.self_s"] = (table.get(name, {}).get("self_s", 0.0), "s")
    metrics["synth.update.self_s"] = (sum(table.get(n, {}).get("self_s", 0.0) for n in SYNTH_UPDATES), "s")
    metrics["synth.answers.total_s"] = (
        sum(table.get(n, {}).get("total_s", 0.0) for n in SYNTH_ANSWERS),
        "s",
    )
    units = {"queries.answers_mass.gb_computed": "GB", "rap.evals_per_step": "evals/step", "loop.answers_per_round": "calls/round"}
    for name, value in counts.items():
        metrics[name] = (value, units.get(name, "count"))
    metrics["trace.overhead_s"] = (sum(overheads), "s")
    return {"traced_passes": traced_passes, "layers": table, "counts": counts, "per_op": per_op, "metrics": metrics}

"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL: <detail> [<sec>]` straight to the
terminal (capture is suspended for that one line) and then asserts. The end-to-end trend
criteria share one set of fitted runs through module-scoped fixtures.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dpsynth.domain import Dataset, Domain
from dpsynth.gem import GemConfig, gem_gradient, gem_loss, init_params
from dpsynth.methods import fit
from dpsynth.mwem import MwemSynthesizer
from dpsynth.pep import PepSynthesizer
from dpsynth.privacy import (
    Accountant,
    MeasurementLedger,
    dp_to_zcdp,
    exp_mechanism_probs,
    exp_mechanism_select,
    gaussian_measure,
    zcdp_to_dp,
)
from dpsynth.public import best_mixture_error
from dpsynth.queries import build_workloads
from dpsynth.rap import RapConfig
from dpsynth.report import canonical_json, errors, load_report
from dpsynth.toy import gen_toy

from oracles import (
    brute_force_answer,
    central_difference,
    entropy_linear_minimizer,
    flatten_params,
    kl_divergence,
    maxent_dual_descent,
    mwem_closed_form_check,
    query_mask,
    query_of,
    unflatten_params,
)


def _line(capsys, num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {status}: {detail} [{time.perf_counter() - t0:.1f}s]")


# ------------------------------------------------------------ criterion 1 --


def test_criterion_1_query_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        while True:
            attrs = int(rng.integers(1, 5))
            sizes = tuple(int(rng.integers(2, 11)) for _ in range(attrs))
            if int(np.prod(sizes)) <= 10_000:
                break
        dom = Domain(tuple(f"a{i}" for i in range(attrs)), sizes)
        n = int(rng.integers(1, 1001))
        rec = np.column_stack([rng.integers(0, s, size=n) for s in sizes])
        data = Dataset(dom, rec)
        qs = build_workloads(dom, int(rng.integers(1, attrs + 1)))
        qi = int(rng.integers(qs.total_queries))
        q = query_of(qs, qi)
        ref = brute_force_answer(dom, data, q.features, q.targets)
        a_rec = qs.answers_records(data)[qi]
        counts = np.bincount(data.cells(), minlength=dom.total_cells)
        a_hist = (qs.answers_mass(counts) / n)[qi]
        worst = max(worst, abs(a_rec - ref), abs(a_hist - ref))
        ok = a_rec == ref and a_hist == ref
        if not ok:
            break
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _line(capsys, 1, ok, f"records/histogram vs brute force on 200 instances, worst dev {worst:g}", t0)
    assert ok, f"query oracle mismatch (worst {worst}) or too slow ({dt:.1f}s)"


# ------------------------------------------------------------ criterion 2 --


def test_criterion_2_pep_projection(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_proj = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 51))
        dom = Domain(("a",), (size,))
        qs = build_workloads(dom, 1)
        mass = rng.dirichlet(np.ones(size) * 0.7) + 1e-12
        cell = int(rng.integers(size))
        target = float(rng.uniform(0.001, 0.999))
        # one projection of one measured entry, through CellWeights.scale
        synth = PepSynthesizer(dom, qs, init_probs=mass / mass.sum(), t_max=1)
        led = MeasurementLedger()
        led.record(cell, target, 1)
        synth.update(led)
        worst_proj = max(worst_proj, abs(synth.probs[cell] - target))
    proj_ok = worst_proj <= 1e-12

    worst_tv = 0.0
    shapes = [(4, 4), (8, 8), (2, 4, 8), (64,), (4, 16), (2, 32)]
    for trial in range(50):
        shape = shapes[trial % len(shapes)]
        dom = Domain(tuple(f"a{i}" for i in range(len(shape))), shape)
        qs = build_workloads(dom, 1)
        truth = rng.dirichlet(np.ones(dom.total_cells) * 0.6)
        ans = qs.answers_mass(truth)
        m = int(rng.integers(3, 7))
        picks = rng.choice(qs.total_queries, size=min(m, qs.total_queries), replace=False)
        synth = PepSynthesizer(dom, qs, t_max=4000)
        led = MeasurementLedger()
        targets = []
        for r, qi in enumerate(picks, start=1):
            tgt = float(np.clip(ans[qi], 1e-4, 1 - 1e-4))
            led.record(int(qi), tgt, r)
            targets.append(tgt)
        synth.update(led)
        cells = np.arange(dom.total_cells)
        masks = np.stack(
            [query_mask(dom, query_of(qs, int(qi)), cells).astype(float) for qi in picks]
        )
        ref = maxent_dual_descent(masks, np.array(targets))
        worst_tv = max(worst_tv, 0.5 * np.abs(ref - synth.probs).sum())
    tv_ok = worst_tv <= 1e-3
    dt = time.perf_counter() - t0
    ok = proj_ok and tv_ok and dt < 60.0
    _line(
        capsys,
        2,
        ok,
        f"1000 projections worst |dev| {worst_proj:.2e}; 50 maxent solves worst TV {worst_tv:.2e}",
        t0,
    )
    assert ok, f"proj {worst_proj}, tv {worst_tv}, {dt:.1f}s"


# ------------------------------------------------------------ criterion 3 --


def test_criterion_3_mwem_loss_minimizer(capsys):
    t0 = time.perf_counter()
    shapes = [(4, 4), (2, 8), (16,), (2, 2, 4)]
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        shape = shapes[seed % len(shapes)]
        dom = Domain(tuple("abcd"[: len(shape)]), shape)
        qs = build_workloads(dom, 1)
        synth = MwemSynthesizer(dom, qs, cycles=1)
        led = MeasurementLedger()
        chosen = rng.choice(qs.total_queries, size=min(3, qs.total_queries), replace=False)
        cached = {}
        for rnd, qidx in enumerate(chosen, start=1):
            led.record(int(qidx), float(rng.uniform(0.1, 0.9)), rnd)
            cached[int(qidx)] = float(synth.answers()[qidx])  # just before this round's update
            synth.update(led)
        items = [(e.index, e.answer, cached[e.index]) for e in led.entries()]
        closed = mwem_closed_form_check(qs, items, sign=-1.0)
        cells = np.arange(dom.total_cells)
        g = np.zeros(dom.total_cells)
        for qidx, target, cached_answer in items:
            match = query_mask(dom, query_of(qs, qidx), cells)
            g[match] += min(max(target, 0.0), 1.0) - cached_answer
        pgd = entropy_linear_minimizer(g)
        worst = max(worst, kl_divergence(closed, pgd))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 30.0
    _line(capsys, 3, ok, f"closed form vs simplex PGD on 20 instances, worst KL {worst:.2e}", t0)
    assert ok, f"worst KL {worst}, {dt:.1f}s"


# ------------------------------------------------------------ criterion 4 --


def test_criterion_4_gem_gradient(capsys):
    t0 = time.perf_counter()
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    qidx = np.array([0, 2, 4])
    worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        params = init_params(r, 4, (8,), dom.onehot_width)
        Z = r.standard_normal((4, 4))
        targets = r.uniform(0.05, 0.95, size=3)
        kind = "l1" if seed % 2 == 0 else "l2"
        _, grads, _ = gem_gradient(params, Z, qs, qidx, targets, 0.0, kind)
        rev = flatten_params(grads)

        def f(vec):
            return gem_loss(unflatten_params(vec, params), Z, qs, qidx, targets, 0.0, kind)[0]

        fd = central_difference(f, flatten_params(params).copy(), h=1e-5)
        denom = np.maximum(np.maximum(np.abs(rev), np.abs(fd)), 1e-6)
        worst = max(worst, float((np.abs(rev - fd) / denom).max()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-4 and dt < 30.0
    _line(capsys, 4, ok, f"reverse vs central differences on 10 nets, worst rel {worst:.2e}", t0)
    assert ok, f"worst rel {worst}, {dt:.1f}s"


# ------------------------------------------------------------ criterion 5 --


def test_criterion_5_accountant(capsys):
    t0 = time.perf_counter()
    e0 = Accountant(0.5, 10, 1, 0.5, 1000).eps0
    a = abs(e0 - 0.447214) <= 1e-6
    b = abs(zcdp_to_dp(1.0, math.exp(-9.0)) - 7.0) <= 1e-9
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 8.0))
        delta = float(10.0 ** rng.uniform(-10, -2))
        worst = max(worst, abs(zcdp_to_dp(dp_to_zcdp(eps, delta), delta) - eps))
    c = worst <= 1e-9
    ok = a and b and c
    _line(
        capsys,
        5,
        ok,
        f"eps0 {e0:.6f}; eps(rho=1,delta=e^-9)={zcdp_to_dp(1.0, math.exp(-9.0)):.9f}; "
        f"100 round-trips worst {worst:.2e}",
        t0,
    )
    assert ok


# ------------------------------------------------------------ criterion 6 --


def test_criterion_6_mechanism_statistics(capsys):
    t0 = time.perf_counter()
    acct = Accountant(0.5, 10, 1, 0.5, 100)
    scores = np.array([0.0, 0.02, 0.035, 0.05])
    probs = exp_mechanism_probs(scores, acct)
    rng = np.random.default_rng(606)
    draws = 100_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[exp_mechanism_select(scores, acct, rng)] += 1
    freqs = counts / draws
    se = np.sqrt(probs * (1 - probs) / draws)
    em_dev = np.abs(freqs - probs) / se
    em_ok = bool((em_dev <= 3.0).all())

    noise = np.array([gaussian_measure(0.5, acct, rng) for _ in range(draws)]) - 0.5
    sigma_hat = float(noise.std(ddof=1))
    sigma = acct.gaussian_sigma(1.0)
    g_ok = abs(sigma_hat - sigma) / sigma <= 0.02
    dt = time.perf_counter() - t0
    ok = em_ok and g_ok and dt < 30.0
    _line(
        capsys,
        6,
        ok,
        f"EM freq max |dev| {em_dev.max():.2f} SE; sigma_hat/sigma-1 = "
        f"{sigma_hat / sigma - 1:+.4f}",
        t0,
    )
    assert ok, f"em dev {em_dev}, sigma rel {sigma_hat / sigma - 1}, {dt:.1f}s"


# ----------------------------------------------------- criteria 7 and 8 ---


@pytest.fixture(scope="module")
def toy_bench():
    domain, data = gen_toy(attrs=4, sizes=8, n=2000, seed=0)
    queries = build_workloads(domain, 3)
    true_ans = queries.answers_records(data)
    rho = dp_to_zcdp(1.0, 1.0 / data.n**2)
    return domain, data, queries, true_ans, rho


def _fit_max_err(
    toy, method, seed, *, T=20, alpha=0.67, per_workload=False, gem_cfg=None
):
    domain, data, queries, true_ans, rho = toy
    settings = {}
    if method == "gem":
        settings["cfg"] = gem_cfg or GemConfig()
    elif method == "rap-softmax":
        # fewer inner steps than the module default: at desk scale the long
        # tail of inner iterations only overfits the noisy targets
        settings["cfg"] = RapConfig(max_steps=300)
    rng = np.random.default_rng(seed)
    out, *_ = fit(
        method, data, queries, rho, rng, T=T, alpha=alpha, per_workload=per_workload, **settings
    )
    return errors(true_ans, out.answers(queries))[0]


@pytest.fixture(scope="module")
def trend_runs(toy_bench):
    res = {m: [] for m in ("mwem", "pep", "gem", "rap-softmax")}
    for method in res:
        for seed in range(5):
            res[method].append(_fit_max_err(toy_bench, method, seed))
    return res


@pytest.mark.slow
def test_criterion_7_end_to_end_trend(toy_bench, trend_runs, capsys):
    t0 = time.perf_counter()
    domain, data, queries, true_ans, rho = toy_bench
    uniform_mass = np.full(domain.total_cells, 1.0 / domain.total_cells)
    uniform_err = errors(true_ans, queries.answers_mass(uniform_mass))[0]
    Q = queries.total_queries
    sigma = math.sqrt(Q / (2.0 * rho)) / data.n
    gauss_errs = []
    for seed in range(5):
        g = np.random.default_rng(1000 + seed)
        noisy = np.clip(true_ans + sigma * g.standard_normal(Q), 0.0, 1.0)
        gauss_errs.append(errors(true_ans, noisy)[0])
    gauss_err = float(np.mean(gauss_errs))

    means = {m: float(np.mean(v)) for m, v in trend_runs.items()}
    below = all(v < uniform_err and v < gauss_err for v in means.values())
    pep_vs_mwem = means["pep"] <= means["mwem"] * 1.1
    ok = below and pep_vs_mwem
    detail = (
        f"uniform {uniform_err:.4f}, gaussian {gauss_err:.4f}; "
        + ", ".join(f"{m} {v:.4f}" for m, v in means.items())
        + f"; pep/mwem {means['pep'] / means['mwem']:.3f}"
    )
    _line(capsys, 7, ok, detail, t0)
    assert ok, detail


@pytest.mark.slow
def test_criterion_8_marginal_trick(toy_bench, trend_runs, capsys):
    t0 = time.perf_counter()
    per_query = float(np.mean(trend_runs["gem"]))
    trick_cfg = GemConfig(loss="l2", t_max=300)
    trick = float(
        np.mean(
            [
                _fit_max_err(
                    toy_bench, "gem", seed, T=32, alpha=0.5, per_workload=True,
                    gem_cfg=trick_cfg,
                )
                for seed in range(5)
            ]
        )
    )
    ok = trick <= per_query * 1.05
    _line(
        capsys,
        8,
        ok,
        f"gem per-workload {trick:.4f} vs per-query {per_query:.4f} "
        f"(ratio {trick / per_query:.3f})",
        t0,
    )
    assert ok, f"trick {trick} vs per-query {per_query}"


# ------------------------------------------------------------ criterion 9 --


@pytest.mark.slow
def test_criterion_9_public_data_floor(toy_bench, capsys):
    t0 = time.perf_counter()
    domain, data, queries, true_ans, _ = toy_bench
    one_way = build_workloads(domain, 1)
    counts = one_way.answers_records(data)[: domain.sizes[0]]
    v_star = int(np.argmax(counts))
    keep = data.records[:, 0] != v_star
    public = Dataset(domain, data.records[keep])
    support = np.unique(public.cells())
    floor = best_mixture_error(support, queries, true_ans)
    floor_ok = floor >= 0.1

    T = 200
    rng = np.random.default_rng(0)
    _, trace, _, _ = fit("pep", data, queries, 1.0, rng, T=T, public=public, no_noise=True)
    pep_min = min(row["max_err_all"] for row in trace)
    pep_ok = pep_min >= floor - 1e-3

    out, *_ = fit("gem", data, queries, 1.0, np.random.default_rng(0), T=T, no_noise=True)
    gem_err = errors(true_ans, out.answers(queries))[0]
    gem_ok = gem_err < 0.05
    dt = time.perf_counter() - t0
    ok = floor_ok and pep_ok and gem_ok and dt < 300.0
    _line(
        capsys,
        9,
        ok,
        f"floor {floor:.4f}; support-restricted min err {pep_min:.4f}; "
        f"unrestricted gem err {gem_err:.4f}",
        t0,
    )
    assert ok, f"floor {floor}, pep min {pep_min}, gem {gem_err}, {dt:.1f}s"


# ----------------------------------------------------------- criterion 10 --


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    dom = tmp_path / "domain.json"
    dat = tmp_path / "data.csv"
    base = [sys.executable, "-m", "dpsynth"]
    subprocess.run(
        base
        + ["gen-toy", "--attrs", "4", "--sizes", "8", "--n", "2000", "--seed", "0",
           "--out", str(dat), "--domain-out", str(dom)],
        check=True,
        capture_output=True,
    )
    outs = []
    for tag in ("one", "two"):
        rep = tmp_path / f"report_{tag}.json"
        csv_out = tmp_path / f"synth_{tag}.csv"
        trace = tmp_path / f"trace_{tag}.jsonl"
        proc = subprocess.run(
            base
            + ["synth", "--domain", str(dom), "--data", str(dat), "--method", "mwem",
               "--rho", "0.02", "--marginal-k", "3", "--T", "10", "--seed", "7",
               "--out", str(csv_out), "--report", str(rep), "--trace", str(trace)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(
            (
                canonical_json(load_report(rep)),
                csv_out.read_bytes(),
                trace.read_bytes(),
            )
        )
    same_report = outs[0][0] == outs[1][0]
    same_csv = outs[0][1] == outs[1][1]
    same_trace = outs[0][2] == outs[1][2]
    wall_differs_ok = json.loads(outs[0][0]).get("wall_time_sec") is None
    dt = time.perf_counter() - t0
    ok = same_report and same_csv and same_trace and wall_differs_ok and dt < 120.0
    _line(
        capsys,
        10,
        ok,
        f"report identical: {same_report}; csv identical: {same_csv}; "
        f"trace identical: {same_trace}",
        t0,
    )
    assert ok

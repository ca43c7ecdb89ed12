import numpy as np
import pytest

from dpsynth import (
    Accountant,
    BudgetError,
    ConfigError,
    DataError,
    Dataset,
    Domain,
    DualQueryConfig,
    DualQuerySynthesizer,
    FemConfig,
    FemSynthesizer,
    GemConfig,
    GemSynthesizer,
    MwemSynthesizer,
    RapSynthesizer,
    RunConfig,
    build_workloads,
    fit,
    methods,
    pep_pub_init,
    run,
)
from dpsynth.domain import normalize_mass


def _instance(seed=0, n=80):
    rng = np.random.default_rng(seed)
    dom = Domain(("a", "b"), (3, 3))
    rec = np.column_stack([rng.integers(0, 3, size=n) for _ in range(2)])
    return dom, Dataset(dom, rec), build_workloads(dom, 2)


def test_run_config_validation():
    with pytest.raises(BudgetError):
        RunConfig(T=0)
    with pytest.raises(BudgetError):
        RunConfig(k=0)
    with pytest.raises(ConfigError):
        RunConfig(output="median")


def test_run_rejects_mismatched_accountant():
    dom, data, qs = _instance()
    acct = Accountant(rho=0.5, T=5, k=1, alpha=0.5, n=data.n)
    synth = MwemSynthesizer(dom, qs)
    with pytest.raises(BudgetError):
        run(data, qs, synth, acct, RunConfig(T=6, k=1), np.random.default_rng(0))
    with pytest.raises(BudgetError):
        run(data, qs, synth, acct, RunConfig(T=5, k=2), np.random.default_rng(0))


def test_run_trace_shape():
    dom, data, qs = _instance()
    T = 4
    acct = Accountant(rho=0.5, T=T, k=1, alpha=0.5, n=data.n)
    synth = MwemSynthesizer(dom, qs)
    out, trace = run(data, qs, synth, acct, RunConfig(T=T, k=1), np.random.default_rng(0))
    assert len(trace) == T
    for t, rec in enumerate(trace, start=1):
        assert rec["round"] == t
        assert len(rec["selected"]) == 1
        assert len(rec["measured"]) == len(rec["noisy_answers"]) == 1
        assert rec["max_err_measured"] >= 0.0
        assert "max_err_all" not in rec  # private answers are not re-read


def test_run_audit_errors_records_full_error():
    dom, data, qs = _instance()
    T = 3
    acct = Accountant(rho=0.5, T=T, k=1, alpha=0.5, n=data.n)
    synth = MwemSynthesizer(dom, qs)
    cfg = RunConfig(T=T, k=1, audit_errors=True)
    out, trace = run(data, qs, synth, acct, cfg, np.random.default_rng(0))
    true = qs.answers_records(data)
    for rec in trace:
        assert 0.0 <= rec["max_err_all"] <= 1.0
    final = np.abs(out.answers(qs) - true).max()
    assert abs(trace[-1]["max_err_all"] - final) < 1e-12


def test_run_no_noise_deterministic_and_decreasing():
    dom, data, qs = _instance()
    T = 12
    acct = Accountant(rho=0.5, T=T, k=1, alpha=0.5, n=data.n)
    cfg = RunConfig(T=T, k=1, no_noise=True)
    outs = []
    for _ in range(2):
        synth = MwemSynthesizer(dom, qs)
        out, trace = run(data, qs, synth, acct, cfg, np.random.default_rng(3))
        outs.append(out.probs.copy())
        errs = [r["max_err_all"] for r in trace]
        assert errs[-1] <= errs[0]  # exact measurements only help
    assert np.array_equal(outs[0], outs[1])


def test_run_average_output():
    dom, data, qs = _instance()
    T = 5
    acct = Accountant(rho=0.5, T=T, k=1, alpha=0.5, n=data.n)
    synth = MwemSynthesizer(dom, qs)
    cfg = RunConfig(T=T, k=1, output="average")
    out, _ = run(data, qs, synth, acct, cfg, np.random.default_rng(1))
    assert abs(out.probs.sum() - 1.0) < 1e-9
    assert out.cells is None and out.probs.size == dom.total_cells  # dense average over the domain


def test_run_average_output_is_mean_of_iterates():
    dom, data, qs = _instance()
    T = 6
    iterates = []

    class Recording(MwemSynthesizer):
        def update(self, ledger):
            super().update(ledger)
            iterates.append(self.mass.copy())

    acct = Accountant(rho=0.5, T=T, k=1, alpha=0.5, n=data.n)
    cfg = RunConfig(T=T, k=1, output="average")
    out, _ = run(data, qs, Recording(dom, qs), acct, cfg, np.random.default_rng(2))
    assert len(iterates) == T
    assert np.array_equal(out.probs, normalize_mass(np.mean(iterates, axis=0)))


def test_run_average_output_on_public_support():
    dom, data, qs = _instance()
    public = Dataset(dom, data.records[:5])
    support = np.unique(public.cells())
    acct = Accountant(rho=0.5, T=4, k=1, alpha=0.5, n=data.n)
    synth = pep_pub_init(public, dom, qs)
    out, _ = run(data, qs, synth, acct, RunConfig(T=4, k=1, output="average"), np.random.default_rng(0))
    assert np.array_equal(out.cells, support)  # averaged on the method's own support
    assert abs(out.probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("method", ["gem", "dualquery"])
def test_run_average_output_refuses_other_methods(method):
    dom, data, qs = _instance()
    rng = np.random.default_rng(0)
    if method == "gem":
        synth = GemSynthesizer(dom, qs, GemConfig(hidden=(8,), t_max=2), rng, total_rounds=2)
        acct = Accountant(rho=0.5, T=2, k=1, alpha=0.5, n=data.n)
    else:
        synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=5))
        acct = Accountant.selection_only(rho=0.5, T=2, k=1, n=data.n)
    cfg = RunConfig(T=2, k=1, alpha=acct.alpha, output="average")
    with pytest.raises(ConfigError, match="averaged output"):
        run(data, qs, synth, acct, cfg, rng)


@pytest.mark.parametrize("method", ["gem", "rap-softmax"])
def test_fit_refuses_averaged_output_before_any_work(monkeypatch, method):
    # the loop settings are checked first: gem must not pretrain on the public
    # data, and no round may run, before the averaged output is refused
    dom, data, qs = _instance()
    calls = []
    monkeypatch.setattr(methods, "gem_pub_pretrain", lambda *a, **kw: calls.append("pretrain") or (None, None))
    for cls in (GemSynthesizer, RapSynthesizer):
        monkeypatch.setattr(cls, "update", lambda self, ledger: calls.append("update"))
    public = data if method == "gem" else None
    with pytest.raises(ConfigError, match="averaged output"):
        fit(method, data, qs, 0.5, np.random.default_rng(0), T=2, public=public, output="average")
    assert calls == []


@pytest.mark.parametrize("search", ["dualquery", "fem"])
def test_run_per_workload_refuses_self_selecting_methods(search):
    # they measure no answers, so whole-workload measurement cannot apply
    dom, data, qs = _instance()
    if search == "dualquery":
        synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=5))
    else:
        synth = FemSynthesizer(dom, qs, FemConfig(samples=5))
    acct = Accountant.selection_only(rho=0.5, T=2, k=1, n=data.n)
    cfg = RunConfig(T=2, k=1, alpha=acct.alpha, per_workload=True)
    with pytest.raises(ConfigError, match="per_workload"):
        run(data, qs, synth, acct, cfg, np.random.default_rng(0))


def test_run_empty_dataset_rejected():
    dom, data, qs = _instance()
    acct = Accountant(rho=0.5, T=2, k=1, alpha=0.5, n=1)
    synth = MwemSynthesizer(dom, qs)
    empty = Dataset.__new__(Dataset)
    object.__setattr__(empty, "domain", dom)
    object.__setattr__(empty, "records", np.empty((0, 2), dtype=np.int64))
    with pytest.raises(DataError):
        run(empty, qs, synth, acct, RunConfig(T=2, k=1), np.random.default_rng(0))


def test_run_rejects_a_synthesizer_built_on_another_collection():
    # the loop selects ids in its collection and the update reads them in the synthesizer's
    dom, data, qs = _instance()
    other = build_workloads(dom, 2)  # the same workloads, another collection
    acct = Accountant(rho=0.5, T=2, k=1, alpha=0.5, n=data.n)
    with pytest.raises(ConfigError, match="another query collection"):
        run(data, qs, MwemSynthesizer(dom, other), acct, RunConfig(T=2, k=1), np.random.default_rng(0))


def test_no_noise_run_fits_gem_to_exact_targets():
    # exactness is the run's setting: the ledger carries it, and GEM drops its fit threshold
    dom, data, qs = _instance()
    rng = np.random.default_rng(0)
    synth = GemSynthesizer(dom, qs, GemConfig(hidden=(8,), z_dim=4, batch=8, t_max=2), rng, total_rounds=3)
    acct = Accountant(rho=0.5, T=3, k=1, alpha=0.5, n=data.n)
    run(data, qs, synth, acct, RunConfig(T=3, k=1, no_noise=True), rng)
    assert synth.gamma == 0.0


@pytest.mark.parametrize(
    "per_workload, no_noise, scale",
    [(False, False, 1.0), (True, False, np.sqrt(2.0)), (False, True, None), (True, True, None)],
)
def test_run_ledger_carries_the_measurement_sigma(per_workload, no_noise, scale):
    # a single query is measured at sensitivity 1, a whole workload at sqrt(2),
    # and an exact run at sigma 0; the update rules read it off the ledger
    dom, data, qs = _instance()
    sigmas = []

    class Recording(MwemSynthesizer):
        def update(self, ledger):
            sigmas.append(ledger.sigma)
            super().update(ledger)

    acct = Accountant(rho=0.5, T=3, k=1, alpha=0.5, n=data.n)
    cfg = RunConfig(T=3, k=1, per_workload=per_workload, no_noise=no_noise)
    run(data, qs, Recording(dom, qs), acct, cfg, np.random.default_rng(0))
    want = 0.0 if no_noise else acct.gaussian_sigma(scale)
    assert sigmas == [want] * 3
    assert want > 0.0 or no_noise


@pytest.mark.parametrize("search", ["dualquery", "fem"])
def test_run_self_selecting_methods_need_no_measurement_sigma(search):
    # at alpha = 1 there is no Gaussian share, so gaussian_sigma raises;
    # the loop must not ask for it for a method that measures nothing
    dom, data, qs = _instance()
    if search == "dualquery":
        synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=5))
    else:
        synth = FemSynthesizer(dom, qs, FemConfig(samples=5))
    acct = Accountant.selection_only(rho=0.5, T=2, k=1, n=data.n)
    with pytest.raises(BudgetError):
        acct.gaussian_sigma()
    _, trace = run(data, qs, synth, acct, RunConfig(T=2, k=1, alpha=acct.alpha), np.random.default_rng(0))
    assert len(trace) == 2

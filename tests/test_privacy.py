import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import (
    Accountant,
    BudgetError,
    Domain,
    Dataset,
    MeasurementLedger,
    build_workloads,
    dp_to_zcdp,
    fit,
    gaussian_measure,
    gen_toy,
    select_and_measure_round,
    zcdp_to_dp,
)
from dpsynth.gem import GemConfig
from dpsynth.privacy import exp_mechanism, exp_mechanism_probs, select_k
from dpsynth.rap import RapConfig

from oracles import DrawLog


def test_zcdp_to_dp_frozen():
    # rho + 2*sqrt(rho*ln(1/delta)): rho=1, delta=e^-9 -> 1 + 2*3 = 7
    assert abs(zcdp_to_dp(1.0, math.exp(-9)) - 7.0) < 1e-12
    # rho=0.25, delta=e^-4 -> 0.25 + 2*sqrt(0.25*4) = 2.25
    assert abs(zcdp_to_dp(0.25, math.exp(-4)) - 2.25) < 1e-12


def test_dp_to_zcdp_inverts():
    rng = np.random.default_rng(0)
    for _ in range(100):
        eps = float(rng.uniform(0.05, 8.0))
        delta = float(10 ** rng.uniform(-12, -2))
        rho = dp_to_zcdp(eps, delta)
        assert abs(zcdp_to_dp(rho, delta) - eps) < 1e-9


def test_budget_validation():
    with pytest.raises(BudgetError):
        zcdp_to_dp(-1.0, 1e-6)
    with pytest.raises(BudgetError):
        zcdp_to_dp(1.0, 1.5)
    with pytest.raises(BudgetError):
        dp_to_zcdp(-0.5, 1e-6)
    with pytest.raises(BudgetError):
        Accountant(rho=0.0, T=10, k=1, alpha=0.5, n=100)
    with pytest.raises(BudgetError):
        Accountant(rho=1.0, T=0, k=1, alpha=0.5, n=100)
    with pytest.raises(BudgetError):
        Accountant(rho=1.0, T=1, k=1, alpha=1.5, n=100)


def test_eps0_frozen():
    # eps0 = sqrt(2*rho / (k*T*(alpha^2 + (1-alpha)^2)))
    a = Accountant(rho=0.5, T=10, k=1, alpha=0.5, n=100)
    assert abs(a.eps0 - 0.4472135954999579) < 1e-6
    # doubling k at fixed everything else scales eps0 by 1/sqrt(2)
    a2 = Accountant(rho=0.5, T=10, k=2, alpha=0.5, n=100)
    assert abs(a2.eps0 - 0.31622776601683794) < 1e-6


def test_budget_identity():
    # spent zCDP: k*T*((alpha*eps0)^2 + ((1-alpha)*eps0)^2)/2 == rho
    rng = np.random.default_rng(1)
    for _ in range(50):
        acct = Accountant(
            rho=float(rng.uniform(0.01, 4)),
            T=int(rng.integers(1, 50)),
            k=int(rng.integers(1, 5)),
            alpha=float(rng.uniform(0.05, 0.95)),
            n=int(rng.integers(10, 10000)),
        )
        e0 = acct.eps0
        spent = acct.k * acct.T * ((acct.alpha * e0) ** 2 + ((1 - acct.alpha) * e0) ** 2) / 2
        assert abs(spent - acct.rho) < 1e-12
        assert abs(acct.spent_rho() - acct.rho) < 1e-12


def test_from_dp_and_epsilon_roundtrip():
    acct = Accountant(dp_to_zcdp(1.0, 1e-6), T=10, k=1, alpha=0.67, n=1000)
    assert abs(acct.epsilon(1e-6) - 1.0) < 1e-9


def test_selection_only_alpha_one():
    acct = Accountant.selection_only(rho=0.5, T=10, k=2, n=100)
    assert acct.alpha == 1.0
    # all budget goes to selection: k*T*eps0^2/2 == rho
    assert abs(acct.k * acct.T * acct.eps0**2 / 2 - acct.rho) < 1e-12
    with pytest.raises(BudgetError):
        acct.gaussian_sigma()  # no measurement budget at alpha=1


def test_gaussian_sigma_frozen():
    # sigma = scale / (n * (1-alpha) * eps0)
    acct = Accountant(rho=0.5, T=10, k=1, alpha=0.5, n=1000)
    assert abs(acct.gaussian_sigma() - 1.0 / (1000 * 0.5 * acct.eps0)) < 1e-15
    assert abs(acct.gaussian_sigma() - 0.004472135954999579) < 1e-9
    assert abs(acct.gaussian_sigma(math.sqrt(2)) - 0.006324555320336759) < 1e-9


def test_em_probs_frozen():
    # alpha*eps0*n*score = ln 3 gap -> probabilities (0.25, 0.75)
    acct = Accountant(rho=0.5, T=10, k=1, alpha=0.5, n=100)
    exponent = acct.alpha * acct.eps0 * acct.n
    gap = math.log(3) / exponent
    p = exp_mechanism_probs(np.array([0.0, gap]), exponent)
    assert np.allclose(p, [0.25, 0.75], atol=1e-12)


def test_em_select_frequencies():
    acct = Accountant(rho=0.5, T=10, k=1, alpha=0.5, n=100)
    scores = np.array([0.0, 0.01, 0.03, 0.05])
    exponent = acct.alpha * acct.eps0 * acct.n
    want = exp_mechanism_probs(scores, exponent)
    rng = np.random.default_rng(123)
    draws = exp_mechanism(scores, exponent, 20000, rng)
    freq = np.bincount(draws, minlength=4) / draws.size
    se = np.sqrt(want * (1 - want) / draws.size)
    assert np.all(np.abs(freq - want) < 4 * se + 1e-12)


def test_em_select_frozen_draws():
    # draws through the selection distribution; the sequence is pinned to the seed
    acct = Accountant(rho=0.5, T=10, k=1, alpha=0.5, n=100)
    scores = np.array([0.0, 0.01, 0.03, 0.05, 0.02])
    exponent = acct.alpha * acct.eps0 * acct.n
    rng = np.random.default_rng(2024)
    assert exp_mechanism(scores, exponent, 12, rng).tolist() == [
        3, 1, 2, 3, 4, 1, 0, 1, 2, 1, 3, 3
    ]
    assert exp_mechanism(scores, exponent * 0.5, 12, rng).tolist() == [
        0, 3, 0, 2, 4, 3, 3, 2, 1, 2, 1, 4
    ]


def test_select_k_argmax_or_k_draws():
    acct = Accountant(rho=0.5, T=10, k=3, alpha=0.5, n=100)
    scores = np.array([0.02, 0.05, 0.05, 0.01])
    # exact selection: the lowest-index maximum, k times, and no draw
    rng = np.random.default_rng(8)
    assert select_k(scores, acct, rng, no_noise=True) == [1, 1, 1]
    assert rng.random() == np.random.default_rng(8).random()
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    want = exp_mechanism(scores, acct.alpha * acct.eps0 * acct.n, 3, twin).tolist()
    assert select_k(scores, acct, rng) == want


def test_gaussian_measure_stats():
    acct = Accountant(rho=0.5, T=10, k=1, alpha=0.5, n=1000)
    rng = np.random.default_rng(77)
    xs = gaussian_measure(np.full(30000, 0.3), acct, rng)
    assert abs(xs.mean() - 0.3) < 4 * acct.gaussian_sigma() / math.sqrt(xs.size)
    assert abs(xs.std() / acct.gaussian_sigma() - 1.0) < 0.02
    # answers are stored unclipped: a huge true answer stays put
    val = gaussian_measure(3.7, acct, np.random.default_rng(0))
    assert 3.6 < val < 3.8


def test_ledger_remeasure_moves_to_end():
    led = MeasurementLedger()
    led.record(4, 0.5, 1)
    led.record(9, 0.25, 1)
    led.record(4, 0.6, 2)  # re-measured: replaces and moves to the end
    assert len(led) == 2
    assert led.indices().tolist() == [9, 4]
    assert led.answers().tolist() == [0.25, 0.6]
    assert led.rounds().tolist() == [1, 2]


@pytest.mark.parametrize("sigma, exact", [(None, False), (0.0, True), (0.01, False)])
def test_ledger_is_exact_only_at_sigma_zero(sigma, exact):
    # a hand-built ledger's noise is unknown; only sigma 0 means exact answers
    led = MeasurementLedger() if sigma is None else MeasurementLedger(sigma)
    assert led.sigma == sigma
    assert led.exact is exact


def _toy_instance(seed=0, n=50):
    rng = np.random.default_rng(seed)
    dom = Domain(("a", "b"), (3, 3))
    rec = np.column_stack([rng.integers(0, 3, size=n) for _ in range(2)])
    return dom, Dataset(dom, rec), build_workloads(dom, 2)


def test_select_and_measure_no_noise_picks_argmax():
    dom, data, qs = _toy_instance()
    true = qs.answers_records(data)
    synth = np.full_like(true, 1.0 / dom.total_cells)
    acct = Accountant(rho=0.5, T=5, k=1, alpha=0.5, n=data.n)
    led = MeasurementLedger()
    sel = select_and_measure_round(
        led, qs, synth, true, acct, np.random.default_rng(0), 1, no_noise=True
    )
    want = int(np.argmax(np.abs(true - synth)))
    assert sel == [want]
    assert led.answers()[0] == true[want]


def test_select_and_measure_k_entries_per_round():
    dom, data, qs = _toy_instance()
    true = qs.answers_records(data)
    synth = np.full_like(true, 1.0 / dom.total_cells)
    acct = Accountant(rho=0.5, T=5, k=3, alpha=0.5, n=data.n)
    led = MeasurementLedger()
    sel = select_and_measure_round(led, qs, synth, true, acct, np.random.default_rng(5), 1)
    assert len(sel) == 3
    assert len(led) == len(set(sel))  # duplicate draws collapse in the ledger


def test_select_and_measure_per_workload():
    dom, data, qs = _toy_instance()
    true = qs.answers_records(data)
    synth = np.full_like(true, 1.0 / dom.total_cells)
    acct = Accountant(rho=0.5, T=5, k=1, alpha=0.5, n=data.n)
    led = MeasurementLedger()
    sel = select_and_measure_round(
        led, qs, synth, true, acct, np.random.default_rng(2), 1, per_workload=True
    )
    # one workload chosen, every query in it measured
    assert len(sel) == 1
    w = qs.workloads[sel[0]]
    assert len(led) == w.n_queries
    assert sorted(led.indices().tolist()) == list(range(w.offset, w.offset + w.n_queries))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 4.0), st.floats(-12, -2))
def test_dp_zcdp_roundtrip_property(eps, log_delta):
    delta = 10.0**log_delta
    assert abs(zcdp_to_dp(dp_to_zcdp(eps, delta), delta) - eps) < 1e-9


LOOP_METHODS = ("mwem", "pep", "gem", "rap-softmax")
# (method, k, per_workload): every method per query at k = 1 and 3, the loop
# methods with whole workloads measured too, and dualquery
STATED_RHO_CASES = [
    *[(m, k, pw) for m in LOOP_METHODS for k in (1, 3) for pw in (False, True)],
    ("fem", 1, False),
    ("fem", 3, False),
    ("dualquery", 1, False),
]


def _recomposed_fit(monkeypatch, method, k, **loop):
    """(rho recomposed from the draws of a small fit, the stated rho)."""
    dom, data = gen_toy(attrs=3, sizes=3, n=120, seed=0)
    qs = build_workloads(dom, 2)
    cfg = {"gem": GemConfig(hidden=(8,), batch=20, t_max=5), "rap-softmax": RapConfig(rows=20, max_steps=5)}
    settings = {"cfg": cfg[method]} if method in cfg else {}
    log = DrawLog().install(monkeypatch)
    _, _, acct, _ = fit(method, data, qs, 0.05, np.random.default_rng(0), T=3, k=k, **loop, **settings)
    return log.recomposed_rho(data.n, qs, loop.get("per_workload", False)), acct.rho


@pytest.mark.parametrize("method,k,per_workload", STATED_RHO_CASES)
def test_recomposed_rho_equals_the_stated_rho(monkeypatch, method, k, per_workload):
    spent, rho = _recomposed_fit(monkeypatch, method, k, per_workload=per_workload)
    assert abs(spent - rho) <= 1e-12 * rho, (spent, rho)


def test_one_call_draws_as_one_call_per_draw():
    # a round's single call consumes the generator as a call per draw would
    acct = Accountant(rho=0.5, T=10, k=1, alpha=0.5, n=1000)
    scores = np.random.default_rng(4).random(9)
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    assert exp_mechanism(scores, 300.0, 50, rng).tolist() == [
        int(exp_mechanism(scores, 300.0, 1, twin)[0]) for _ in range(50)
    ]
    answers = np.linspace(0.0, 1.0, 50)
    noisy = gaussian_measure(answers, acct, rng, sensitivity_scale=math.sqrt(2.0))
    assert noisy.tolist() == [gaussian_measure(a, acct, twin, sensitivity_scale=math.sqrt(2.0)) for a in answers]

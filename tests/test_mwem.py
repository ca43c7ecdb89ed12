import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import (
    Accountant,
    CapacityError,
    Domain,
    MwemConfig,
    MwemSynthesizer,
    QuerySet,
    RunConfig,
    build_workloads,
    gen_toy,
    mwem,
    run,
)
from dpsynth.domain import normalize_mass
from dpsynth.privacy import MeasurementLedger

from oracles import entropy_linear_minimizer, kl_divergence, mwem_closed_form_check, query_mask, query_of


def _two_cell():
    dom = Domain(("a",), (2,))
    return dom, build_workloads(dom, 1)


def test_constructor_validation():
    dom, qs = _two_cell()
    with pytest.raises(ValueError):
        MwemSynthesizer(dom, qs, cfg=MwemConfig(eta=0.0))
    with pytest.raises(ValueError):
        MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=0))
    big = Domain(("a", "b"), (100, 100))
    with pytest.raises(CapacityError):
        MwemSynthesizer(big, build_workloads(big, 1), cell_cap=5000)


def test_single_step_frozen_value():
    # uniform 2-cell, measure indicator(cell 1) at 0.8: one eta=2 step gives
    # e^{0.15} / (e^{0.15} + e^{-0.15}) on the matching cell
    dom, qs = _two_cell()
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=1))
    led = MeasurementLedger()
    led.record(1, 0.8, 1)
    synth.update(led)
    expected = 1.0 / (1.0 + np.exp(-0.3))
    assert abs(synth.mass[1] - expected) < 1e-12
    assert abs(synth.mass[1] - 0.5744) < 5e-5
    assert abs(0.8 - synth.mass[1]) < 0.3  # strictly closer to the target


def test_matching_answer_is_identity():
    dom, qs = _two_cell()
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=3))
    led = MeasurementLedger()
    led.record(1, 0.5, 1)
    synth.update(led)
    assert np.allclose(synth.mass, [0.5, 0.5], atol=1e-15)


def test_target_one_monotone_to_one():
    dom, qs = _two_cell()
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=1))
    led = MeasurementLedger()
    led.record(1, 1.0, 1)
    prev = synth.mass[1]
    for _ in range(200):
        synth.update(led)
        assert synth.mass[1] > prev
        prev = synth.mass[1]
    assert prev > 0.99


def test_out_of_range_answer_clipped_for_multiplier():
    dom, qs = _two_cell()
    a = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=1))
    b = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=1))
    la, lb = MeasurementLedger(), MeasurementLedger()
    la.record(1, 1.7, 1)  # noisy measurement outside [0, 1]
    lb.record(1, 1.0, 1)
    a.update(la)
    b.update(lb)
    assert np.allclose(a.mass, b.mass, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(2, 8),
    cell=st.integers(0, 7),
    target=st.floats(0.02, 0.98),
    seed=st.integers(0, 10_000),
)
def test_single_step_strictly_reduces_error(size, cell, target, seed):
    cell = cell % size
    dom = Domain(("a",), (size,))
    qs = build_workloads(dom, 1)
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=1))
    rng = np.random.default_rng(seed)
    m = rng.dirichlet(np.ones(size))
    synth.weights.reset(m)
    before = abs(target - m[cell])
    led = MeasurementLedger()
    led.record(cell, target, 1)
    synth.update(led)
    after = abs(target - synth.mass[cell])
    if before < 1e-12:
        assert after < 1e-9
    else:
        assert after < before


def test_closed_form_empty_is_uniform():
    dom, qs = _two_cell()
    h = mwem_closed_form_check(qs, [])
    assert np.allclose(h, [0.5, 0.5])


def test_closed_form_single_item_matches_one_step():
    # sign=+1 with the uniform cached answer reproduces one eta=2 update
    dom = Domain(("a", "b"), (2, 3))
    qs = build_workloads(dom, 1)
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=1))
    led = MeasurementLedger()
    led.record(3, 0.7, 1)  # second workload, cell 1 of attribute b
    cached = float(synth.answers()[3])
    synth.update(led)
    h = mwem_closed_form_check(qs, [(3, 0.7, cached)], sign=+1.0)
    assert np.allclose(h, synth.mass, atol=1e-12)


def test_closed_form_two_items_is_product_of_factors():
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    items = [(0, 0.9, 0.5), (2, 0.3, 0.5)]
    h = mwem_closed_form_check(qs, items, sign=-1.0)
    cells = np.arange(4)
    expo = np.zeros(4)
    for qidx, target, cached in items:
        match = query_mask(dom, query_of(qs, qidx), cells)
        expo[match] += -(target - cached)
    direct = np.exp(expo)
    direct /= direct.sum()
    assert np.allclose(h, direct, atol=1e-12)


def _random_items(seed):
    """Ledger replay on a tiny domain, caching each entry's answer just before
    the update of the round that measured it."""
    rng = np.random.default_rng(seed)
    shape = [(4, 4), (2, 8), (16,), (2, 2, 4)][seed % 4]
    dom = Domain(tuple("abcd"[: len(shape)]), shape)
    qs = build_workloads(dom, 1)
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=1))
    led = MeasurementLedger()
    chosen = rng.choice(qs.total_queries, size=min(3, qs.total_queries), replace=False)
    cached = {}
    for rnd, qidx in enumerate(chosen, start=1):
        led.record(int(qidx), float(rng.uniform(0.1, 0.9)), rnd)
        cached[int(qidx)] = float(synth.answers()[qidx])
        synth.update(led)
    items = [(e.index, e.answer, cached[e.index]) for e in led.entries()]
    return dom, qs, items


def test_loss_minimizer_matches_projected_gradient():
    # the exponential closed form against an independent simplex-PGD solve of
    # the entropy-regularized linear loss with the same frozen coefficients
    for seed in range(6):
        dom, qs, items = _random_items(seed)
        closed = mwem_closed_form_check(qs, items, sign=-1.0)
        cells = np.arange(dom.total_cells)
        g = np.zeros(dom.total_cells)
        for qidx, target, cached in items:
            match = query_mask(dom, query_of(qs, qidx), cells)
            g[match] += min(max(target, 0.0), 1.0) - cached
        pgd = entropy_linear_minimizer(g)
        assert kl_divergence(closed, pgd) < 1e-4


def test_update_replays_all_past_entries():
    # an old entry keeps getting enforced even when later rounds measure others
    dom = Domain(("a",), (4,))
    qs = build_workloads(dom, 1)
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=10))
    led = MeasurementLedger()
    led.record(0, 0.7, 1)
    synth.update(led)
    led.record(2, 0.2, 2)
    synth.update(led)
    ans = synth.answers()
    assert abs(ans[0] - 0.7) < 0.05
    assert abs(ans[2] - 0.2) < 0.05


def _dense_update(mass, masks, answers, eta, cycles):
    """The entry steps on the whole vector: two exps per cell, then normalize."""
    for _ in range(cycles):
        for m, a in zip(masks, answers):
            step = (min(max(a, 0.0), 1.0) - mass[m].sum()) / eta
            mass = normalize_mass(np.where(m, mass * np.exp(step), mass * np.exp(-step)))
    return mass


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 99_999),
    rounds=st.integers(1, 5),
    cycles=st.integers(1, 10),
    eta=st.floats(0.5, 10.0),
)
def test_cell_local_update_matches_dense_replay(seed, rounds, cycles, eta):
    rng = np.random.default_rng(seed)
    shape = [(2, 3), (3, 3), (2, 2, 4), (4, 4)][seed % 4]
    dom = Domain(tuple("abc"[: len(shape)]), shape)
    qs = build_workloads(dom, int(rng.integers(1, len(shape) + 1)))
    cells = np.arange(dom.total_cells)
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(eta=eta, cycles=cycles))
    synth.weights.reset(rng.dirichlet(np.ones(cells.size)))
    dense = synth.mass
    led = MeasurementLedger()
    picks = rng.choice(qs.total_queries, size=min(rounds, qs.total_queries), replace=False)
    for rnd, qi in enumerate(picks, start=1):
        led.record(int(qi), float(rng.uniform(-0.1, 1.1)), rnd)
        synth.update(led)
        masks = [query_mask(dom, query_of(qs, e.index), cells) for e in led.entries()]
        dense = _dense_update(dense, masks, led.answers(), eta, cycles)
        assert np.abs(synth.mass - dense).max() <= 1e-12


def test_extreme_step_takes_the_dense_path():
    # eta=1.42e-3 (near the smallest eta whose steps cannot overflow) puts the
    # in/out factor ratio at exp(704) > 1/MASS_FLOOR; the step must still
    # match the whole-vector update (all mass on the matching cell)
    dom, qs = _two_cell()
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(eta=1.42e-3, cycles=2))
    led = MeasurementLedger()
    led.record(1, 1.0, 1)
    with np.errstate(over="ignore"):
        synth.update(led)
    masks = [query_mask(dom, query_of(qs, 1), np.arange(2))]
    with np.errstate(over="ignore"):
        dense = _dense_update(np.full(2, 0.5), masks, [1.0], 1.42e-3, 2)
    assert np.array_equal(synth.mass, dense)
    assert np.array_equal(synth.mass, [0.0, 1.0])


def test_step_onto_a_flushed_cell_keeps_the_surviving_mass():
    # the first entry flushes cell 0 to exactly 0; the second then asks for
    # mass only there, with a factor ratio of exp(1408) on cell 0. The dense
    # step must keep cell 1's weight rather than scale it below MASS_FLOOR
    # (which left nothing to normalize), and must not overflow in the ratio.
    dom, qs = _two_cell()
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(eta=1.42e-3, cycles=3))
    led = MeasurementLedger()
    led.record(1, 1.0, 1)
    led.record(0, 1.0, 2)
    with np.errstate(over="raise"):
        synth.update(led)
    assert np.array_equal(synth.mass, [0.0, 1.0])


def test_step_off_nearly_all_the_mass_keeps_the_rest():
    # the first round puts all but 3.7e-44 of the mass on cell 1; the second
    # asks for none there, a ratio of e^-200. Tracking z as z - before + after
    # cancelled to exactly 0, and renormalizing w / 0 raised DataError.
    dom, qs = _two_cell()
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(eta=0.01, cycles=1))
    led = MeasurementLedger()
    led.record(1, 1.0, 1)
    synth.update(led)
    led.record(1, 0.0, 2)
    synth.update(led)
    assert synth.mass[0] == 1.0
    assert 0.0 < synth.mass[1] < 1e-43


def test_update_normalizes_only_when_due(monkeypatch):
    # the weights are kept across rounds: an update whose steps keep z in
    # [1/2, 2] and every cell over MASS_FLOOR never normalizes the histogram
    dom = Domain(("a", "b", "c", "d"), (8, 8, 8, 8))  # 2^12 cells
    qs = build_workloads(dom, 1)
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=10))
    calls = []
    real = mwem.normalize_mass
    monkeypatch.setattr(mwem, "normalize_mass", lambda m: calls.append(1) or real(m))
    led = MeasurementLedger()
    led.record(3, 0.15, 1)  # answer 1/8 now
    synth.update(led)
    led.record(9, 0.1, 2)
    synth.update(led)
    assert calls == []
    assert abs(synth.answers()[3] - 0.15) < 0.01
    led.record(20, 1.0, 3)  # pushes 1/8 of the mass toward 1: z passes 2
    synth.update(led)
    assert len(calls) >= 1


def test_a_fit_with_no_renormalization_makes_one_dense_pass(monkeypatch):
    # the answers of every later round follow the cells that the updates
    # scaled; a dense pass over the histogram is made only for the first
    # round, as no update here renormalizes (the weights object stays)
    dom, data = gen_toy(4, 8, 2000, seed=3)
    qs = build_workloads(dom, 3)
    calls = []
    real = QuerySet.answers_mass
    monkeypatch.setattr(QuerySet, "answers_mass", lambda self, mass: calls.append(1) or real(self, mass))
    synth = MwemSynthesizer(dom, qs)
    weights = synth.weights
    T = 8
    acct = Accountant(rho=0.1, T=T, k=1, alpha=0.67, n=data.n)
    run(data, qs, synth, acct, RunConfig(T=T), np.random.default_rng(0))
    assert synth.weights is weights
    assert len(calls) == 1
    assert np.abs(synth.answers() - real(qs, synth.weights.w) / synth.weights.z).max() <= 1e-12


def test_a_renormalizing_update_keeps_the_state_and_makes_one_dense_pass(monkeypatch):
    # a renormalization rescales the weights in place: the state object
    # stays, its tracked answers are dropped, and the next read is exactly
    # one dense pass over the histogram
    dom = Domain(("a", "b"), (4, 4))
    qs = build_workloads(dom, 1)
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(eta=0.05, cycles=2))
    weights = synth.weights
    synth.answers()
    renorms, calls = [], []
    real_norm, real_answers = mwem.normalize_mass, QuerySet.answers_mass
    monkeypatch.setattr(mwem, "normalize_mass", lambda m: renorms.append(1) or real_norm(m))
    monkeypatch.setattr(QuerySet, "answers_mass", lambda self, mass: calls.append(1) or real_answers(self, mass))
    led = MeasurementLedger()
    led.record(1, 1.0, 1)  # a step of 0.75/0.05 on 1/4 of the mass: z passes 2
    synth.update(led)
    assert renorms and synth.weights is weights
    ans = synth.answers()
    assert len(calls) == 1
    assert np.abs(ans - real_answers(qs, weights.w) / weights.z).max() <= 1e-12


def test_finalize_is_the_normalized_mass():
    dom = Domain(("a", "b"), (4, 4))
    qs = build_workloads(dom, 1)
    synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(cycles=3))
    led = MeasurementLedger()
    for rnd, (qi, a) in enumerate([(0, 0.6), (5, 0.1), (2, 0.3)], start=1):
        led.record(qi, a, rnd)
        synth.update(led)
        out = synth.finalize().probs
        assert out.tobytes() == synth.mass.tobytes()
        assert out.tobytes() == normalize_mass(synth.weights.w / synth.weights.z).tobytes()

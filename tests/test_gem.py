import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import dpsynth.gem as gem_module
from dpsynth import ConfigError, DataError, Domain, GemConfig, GemSynthesizer, build_workloads
from dpsynth.gem import (
    Adam,
    block_softmax,
    block_softmax_grad,
    ema_update,
    forward,
    gem_gradient,
    gem_loss,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from dpsynth.privacy import MeasurementLedger
from dpsynth.queries import product_answers_grad

from oracles import (
    GemListReference,
    block_softmax_grad_loop,
    block_softmax_loop,
    central_difference,
    ema_update_list,
    flatten_params,
    float32_params,
    forward_list,
    gem_pub_pretrain_list,
    unflatten_params,
)


def _zero_params(z_dim, hidden, width):
    params = init_params(np.random.default_rng(0), z_dim, hidden, width)
    return [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]


def _logit_params(domain, logits):
    """No-hidden network with constant output: zero weights, bias = logits."""
    W = np.zeros((2, domain.onehot_width))
    return [(W, np.asarray(logits, dtype=np.float64))]


def test_config_validation():
    with pytest.raises(ConfigError):
        GemConfig(loss="huber")
    with pytest.raises(ConfigError):
        GemConfig(batch=0)
    with pytest.raises(ConfigError):
        GemConfig(ema_beta=1.0)
    for hidden in ((0,), (4, 0), (-3,)):
        with pytest.raises(ConfigError):
            GemConfig(hidden=hidden)
    for lr in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            GemConfig(lr=lr)


def test_forward_zero_params_uniform():
    dom = Domain(("a", "b"), (3, 4))
    params = _zero_params(5, (8,), dom.onehot_width)
    P, _ = forward(params, np.random.default_rng(1).standard_normal((6, 5)), dom)
    assert np.allclose(P[:, :3], 1.0 / 3.0, atol=1e-15)
    assert np.allclose(P[:, 3:], 0.25, atol=1e-15)


def test_forward_frozen_softmax():
    # single block of size 2, logits (ln 3, 0) -> (0.75, 0.25)
    dom = Domain(("a",), (2,))
    params = _logit_params(dom, [math.log(3.0), 0.0])
    P, _ = forward(params, np.zeros((1, 2)), dom)
    assert np.allclose(P[0], [0.75, 0.25], atol=1e-12)
    direct = block_softmax(np.array([[math.log(3.0), 0.0]]), dom)
    assert np.allclose(direct[0], [0.75, 0.25], atol=1e-12)


def test_forward_block_sums():
    rng = np.random.default_rng(2)
    dom = Domain(("a", "b", "c"), (2, 5, 3))
    for _ in range(10):
        params = init_params(rng, 7, (16, 8), dom.onehot_width)
        P, _ = forward(params, rng.standard_normal((9, 7)) * 3, dom)
        for a, (off, sz) in enumerate(zip([0, 2, 7], dom.sizes)):
            sums = P[:, off : off + sz].sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-9


UNEQUAL_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 4, 6, 8)


@pytest.mark.parametrize("rows", [1, 100])
def test_block_kernels_match_per_block_loop(rows):
    dom = Domain(tuple(f"a{i}" for i in range(len(UNEQUAL_SIZES))), UNEQUAL_SIZES)
    rng = np.random.default_rng(rows)
    logits = rng.standard_normal((rows, dom.onehot_width)) * 3
    P = block_softmax(logits, dom)
    assert np.abs(P - block_softmax_loop(logits, dom)).max() <= 1e-15
    sums = np.add.reduceat(P, dom.block_starts, axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-15
    dP = rng.uniform(-1.0, 1.0, P.shape)  # the 1e-15 bound is absolute: keep |dP| <= 1
    gl = block_softmax_grad(P, dP, dom)
    assert np.abs(gl - block_softmax_grad_loop(P, dP, dom)).max() <= 1e-15


def test_block_softmax_shifts_each_block_by_its_own_max():
    # two blocks ~800 apart: a row-wide shift would leave exp(-800) = 0 in
    # every entry of the low block, and 0/0 there
    dom = Domain(("a", "b"), (3, 2))
    logits = np.array([[400.0, 399.0, 401.0, -400.0, -400.0 + math.log(3.0)]])
    P = block_softmax(logits, dom)
    assert np.isfinite(P).all()
    assert np.abs(P - block_softmax_loop(logits, dom)).max() <= 1e-15
    assert np.allclose(P[0, 3:], [0.25, 0.75], atol=1e-15)


def test_block_softmax_shifts_logits_past_the_bound():
    # blocks ~1600 apart at |logit| 800, past SHIFT_BOUND: an unshifted
    # exp(801) overflows, so a finite answer shows that each block was shifted
    dom = Domain(("a", "b"), (3, 2))
    logits = np.array([[800.0, 799.0, 801.0, -800.0, -800.0 + math.log(3.0)]])
    assert np.abs(logits).max() >= gem_module.SHIFT_BOUND
    P = block_softmax(logits, dom)
    assert np.isfinite(P).all()
    assert np.abs(P - block_softmax_loop(logits, dom)).max() <= 1e-15
    assert np.allclose(P[0, 3:], [0.25, 0.75], atol=1e-15)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("offset", [0.0, 700.0])  # below and past SHIFT_BOUND
def test_block_softmax_paths_match_per_block_loop(order, offset):
    dom = Domain(tuple(f"a{i}" for i in range(len(UNEQUAL_SIZES))), UNEQUAL_SIZES)
    rng = np.random.default_rng(3)
    # a constant offset leaves every block's softmax as it is, but moves the logits past the bound
    logits = np.asarray(rng.standard_normal((100, dom.onehot_width)) * 3 + offset, order=order)
    assert (np.abs(logits).max() < gem_module.SHIFT_BOUND) == (offset == 0.0)
    P = block_softmax(logits, dom)
    assert P.flags[f"{order}_CONTIGUOUS"]
    assert np.abs(P - block_softmax_loop(logits, dom)).max() <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_softmax_of_a_non_finite_logit_takes_the_shifted_path(bad):
    # the output is the per-block-max formula's, nan blocks and all
    dom = Domain(tuple(f"a{i}" for i in range(len(UNEQUAL_SIZES))), UNEQUAL_SIZES)
    logits = np.random.default_rng(4).standard_normal((5, dom.onehot_width))
    logits[2, dom.offset(3) + 1] = bad
    starts, ids = dom.block_starts, dom.block_ids
    with np.errstate(invalid="ignore"):
        want = logits - np.maximum.reduceat(logits, starts, axis=1)[:, ids]
        want = np.exp(want)
        want /= np.add.reduceat(want, starts, axis=1)[:, ids]
        P = block_softmax(logits, dom)
    assert np.array_equal(P, want, equal_nan=True)
    # only the bad entry's block of its row is touched, and -inf there is a 0
    assert np.isfinite(np.delete(P[2], np.s_[dom.offset(3) : dom.offset(4)])).all()
    assert np.isfinite(P[[0, 1, 3, 4]]).all()
    assert (P[2, dom.offset(3) + 1] == 0.0) == (bad == -np.inf)


def _fixed_answer_setup():
    # two attributes of size 2 with constant output (0.4, 0.6 | 0.2, 0.8)
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    logits = np.log([0.4, 0.6, 0.2, 0.8])
    params = _logit_params(dom, logits)
    Z = np.zeros((3, 2))
    return dom, qs, params, Z


def test_loss_frozen_values():
    dom, qs, params, Z = _fixed_answer_setup()
    qidx = np.array([0, 2])  # P(a=0) = 0.4, P(b=0) = 0.2
    # perfect fit
    loss, c = gem_loss(params, Z, qs, qidx, np.array([0.4, 0.2]))
    assert abs(loss) < 1e-12
    # one active entry, answer 0.4, target 0.7
    loss, c = gem_loss(params, Z, qs, np.array([0]), np.array([0.7]))
    assert abs(loss - 0.3) < 1e-12
    # errors 0.1 and 0.3 average to 0.2
    loss, c = gem_loss(params, Z, qs, qidx, np.array([0.5, 0.5]))
    assert abs(loss - 0.2) < 1e-12
    assert np.allclose(c, [0.1, 0.3], atol=1e-12)
    # l2 variant: mean of squares
    loss, _ = gem_loss(params, Z, qs, qidx, np.array([0.5, 0.5]), kind="l2")
    assert abs(loss - (0.01 + 0.09) / 2) < 1e-12


def test_loss_empty_active_set_raises():
    dom, qs, params, Z = _fixed_answer_setup()
    with pytest.raises(DataError):
        gem_loss(params, Z, qs, np.array([0]), np.array([0.41]), gamma=0.5)


def test_gradient_matches_finite_differences():
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    rng = np.random.default_rng(42)
    qidx = np.array([0, 2, 4])
    for seed in range(10):
        r = np.random.default_rng(seed)
        params = init_params(r, 4, (8,), dom.onehot_width)
        Z = r.standard_normal((4, 4))
        targets = r.uniform(0.05, 0.95, size=3)
        kind = "l1" if seed % 2 == 0 else "l2"
        _, grads, _ = gem_gradient(params, Z, qs, qidx, targets, 0.0, kind)
        rev = flatten_params(grads)

        def f(vec):
            p = unflatten_params(vec, params)
            return gem_loss(p, Z, qs, qidx, targets, 0.0, kind)[0]

        fd = central_difference(f, flatten_params(params).copy(), h=1e-5)
        denom = np.maximum(np.maximum(np.abs(rev), np.abs(fd)), 1e-6)
        rel = np.abs(rev - fd) / denom
        assert rel.max() < 1e-4


def test_full_collection_gradient_matches_subset():
    dom = Domain(("a", "b", "c"), (3, 2, 4))
    qs = build_workloads(dom, 2)
    all_ids = np.arange(qs.total_queries)
    for seed, kind in ((0, "l1"), (1, "l2")):
        r = np.random.default_rng(seed)
        params = init_params(r, 4, (8,), dom.onehot_width)
        Z = r.standard_normal((5, 4))
        targets = r.uniform(0.0, 0.5, size=qs.total_queries)
        loss, grads, c = gem_gradient(params, Z, qs, None, targets, 0.0, kind)
        loss_s, grads_s, c_s = gem_gradient(params, Z, qs, all_ids, targets, 0.0, kind)
        assert abs(loss - loss_s) < 1e-12
        assert np.abs(c - c_s).max() < 1e-12
        assert np.abs(flatten_params(grads) - flatten_params(grads_s)).max() < 1e-12


@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_gradient_over_active_set_matches_fit_of_active_ids(kind):
    # only the active residuals count: the same loss and gradient as a fit
    # of just the active ids at gamma 0
    dom = Domain(("a", "b", "c"), (3, 2, 4))
    qs = build_workloads(dom, 2)
    r = np.random.default_rng(5)
    params = init_params(r, 4, (8,), dom.onehot_width)
    Z = r.standard_normal((6, 4))
    qidx = r.choice(qs.total_queries, size=15, replace=False)
    targets = r.uniform(0.0, 0.5, size=qidx.size)
    _, c = gem_loss(params, Z, qs, qidx, targets)
    gamma = float(np.median(np.abs(c)))
    active = np.abs(c) >= gamma
    assert 0 < active.sum() < active.size
    loss, grads, _ = gem_gradient(params, Z, qs, qidx, targets, gamma, kind)
    loss_a, grads_a, _ = gem_gradient(params, Z, qs, qidx[active], targets[active], 0.0, kind)
    assert abs(loss - loss_a) < 1e-12
    assert np.abs(flatten_params(grads) - flatten_params(grads_a)).max() < 1e-12


def test_gradient_zero_on_flat_region():
    # at residuals exactly zero the l1 subgradient is defined as 0
    dom, qs, params, Z = _fixed_answer_setup()
    qidx = np.array([0, 2])
    from dpsynth.queries import product_answers

    exact = product_answers(forward(params, Z, dom)[0], qs, qidx)
    _, grads, c = gem_gradient(params, Z, qs, qidx, exact)
    assert np.abs(c).max() == 0.0
    assert np.abs(flatten_params(grads)).max() == 0.0


def test_product_query_grad_is_leave_one_out():
    # d/dp_i of p_i * p_j is p_j (single batch row, |S| = 2)
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 2)
    P = np.array([[0.3, 0.7, 0.2, 0.8]])
    # query 0 reads columns (0, 2)
    dP = product_answers_grad(P, qs, np.array([1.0]), np.array([0]))
    assert abs(dP[0, 0] - 0.2) < 1e-12
    assert abs(dP[0, 2] - 0.3) < 1e-12
    assert abs(dP[0, 1]) < 1e-15 and abs(dP[0, 3]) < 1e-15


def test_update_gamma_above_errors_takes_no_step():
    dom = Domain(("a",), (4,))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, t_max=50)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(0), total_rounds=4)
    synth.gamma = 10.0  # EMA keeps it far above any residual
    before = flatten_params(synth.params).copy()
    led = MeasurementLedger()
    led.record(0, 0.9, 1)
    synth.update(led)
    assert np.array_equal(before, flatten_params(synth.params))


def test_update_tmax_zero_is_noop():
    dom = Domain(("a",), (4,))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, t_max=0)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(0), total_rounds=4)
    before = flatten_params(synth.params).copy()
    led = MeasurementLedger()
    led.record(0, 0.9, 1)
    synth.update(led)
    assert np.array_equal(before, flatten_params(synth.params))


def test_answers_reused_until_a_step_moves_the_params(monkeypatch):
    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 2)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, lr=1e-2, t_max=5)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(0), total_rounds=4)
    passes = []

    def counted(*args):
        passes.append(1)
        return forward(*args)

    monkeypatch.setattr(gem_module, "forward", counted)
    first = synth.answers()
    first[:] = -1.0  # the caller's copy; the stored answers stay intact
    synth.gamma = 10.0  # far above any residual: the update takes no step
    led = MeasurementLedger()
    led.record(0, 0.9, 1)
    synth.update(led)
    passes.clear()
    again = synth.answers()
    assert passes == []
    assert np.array_equal(again, qs.answers_probs(forward(synth.params, synth.z_batch, dom)[0]))
    synth.gamma = None
    synth.update(led)  # takes Adam steps: a new parameter version
    assert 0 < synth.opt.t
    passes.clear()
    moved = synth.answers()
    # a round that stopped on gamma left its stop test's pass at these parameters
    assert passes == ([] if synth.opt.t < cfg.t_max else [1])
    assert np.array_equal(moved, qs.answers_probs(forward(synth.params, synth.z_batch, dom)[0]))
    assert not np.array_equal(moved, again)


def test_update_reduces_loss_on_seeded_instance():
    dom = Domain(("a",), (3,))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, lr=1e-2, t_max=50)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(7), total_rounds=2)
    led = MeasurementLedger(sigma=0.0)
    led.record(0, 0.8, 1)
    qidx = led.indices()
    before, _ = gem_loss(synth.params, synth.z_batch, qs, qidx, led.answers())
    synth.update(led)
    after, _ = gem_loss(synth.params, synth.z_batch, qs, qidx, led.answers())
    assert after < before


def test_exact_targets_pins_gamma_to_zero():
    dom = Domain(("a",), (3,))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, t_max=1)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(0), total_rounds=2)
    synth.gamma = 10.0
    led = MeasurementLedger(sigma=0.0)
    led.record(0, 0.9, 1)
    synth.update(led)
    assert synth.gamma == 0.0


def test_ema_update_rules():
    z, o = np.zeros(6), np.ones(6)
    half = z.copy()
    ema_update(half, o, 0.5)  # in place
    assert np.allclose(half, 0.5)
    fixed = o.copy()
    ema_update(fixed, o, 0.3)
    assert np.allclose(fixed, 1.0)
    copied = z.copy()
    ema_update(copied, o, 0.0)
    assert np.allclose(copied, 1.0)
    with pytest.raises(DataError):
        ema_update(z.copy(), np.ones(7), 0.5)


def test_ema_update_matches_the_layerwise_expression():
    # in place on the flat vector, bit for bit the layerwise fresh-array form
    rng = np.random.default_rng(8)
    ema, cur = init_params(rng, 3, (5,), 6), init_params(rng, 3, (5,), 6)
    flat = flatten_params(ema)
    ema_update(flat, flatten_params(cur), 0.9)
    assert np.array_equal(flat, flatten_params(ema_update_list(ema, cur, 0.9)))


def test_ema_starts_after_half_the_rounds():
    dom = Domain(("a",), (3,))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, t_max=3)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(1), total_rounds=4)
    led = MeasurementLedger(sigma=0.0)
    led.record(0, 0.8, 1)
    synth.update(led)
    assert synth.ema is None  # round 1 of 4: not yet
    led.record(1, 0.1, 2)
    synth.update(led)
    assert synth.ema is None  # round 2 == T//2: still off
    led.record(2, 0.1, 3)
    synth.update(led)
    assert synth.ema is not None


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    dom = Domain(("a", "b"), (3, 2))
    params = init_params(np.random.default_rng(9), 5, (8, 4), dom.onehot_width)
    path = tmp_path / "model.json"
    save_checkpoint(params, dom, path)
    obj = json.loads(path.read_text())
    assert obj["z_dim"] == 5 and obj["hidden"] == [8, 4]  # written, read off the weights
    loaded, dom2 = load_checkpoint(path)
    assert dom2 == dom and len(loaded) == 3
    for (W, b), (W2, b2) in zip(params, loaded):
        assert np.array_equal(W, W2) and np.array_equal(b, b2)
    # saving the loaded params reproduces the same file
    path2 = tmp_path / "model2.json"
    save_checkpoint(loaded, dom2, path2)
    assert path.read_text() == path2.read_text()


def test_warm_start_reads_the_architecture_off_its_weights():
    # the config's z_dim and hidden shape fresh weights only
    dom = Domain(("a", "b"), (3, 2))
    qs = build_workloads(dom, 1)
    init = init_params(np.random.default_rng(2), 3, (6,), dom.onehot_width)
    cfg = GemConfig(batch=8, t_max=2, resample_z=True)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(0), total_rounds=2, init=init)
    assert synth.z_batch.shape == (8, 3)
    led = MeasurementLedger()
    led.record(0, 0.9, 1)
    synth.update(led)  # resampled noise has the weights' width too
    assert synth.finalize().P.shape == (8, dom.onehot_width)


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_output_answers_normalized_and_sampling_valid():
    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=16)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(3), total_rounds=2)
    out = synth.finalize()
    ans = out.answers(qs)
    for w in qs.workloads:
        s = ans[w.offset : w.offset + w.n_queries].sum()
        assert abs(s - 1.0) < 1e-6
    ds = out.sample_dataset(200, np.random.default_rng(0))
    assert ds.records.shape == (200, 2)
    assert ds.records[:, 0].max() < 3 and ds.records[:, 1].max() < 4
    with pytest.raises(ConfigError):
        out.sample_dataset(0, np.random.default_rng(0))


def test_update_trajectory_deterministic():
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    flats = []
    for _ in range(2):
        cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, t_max=20)
        synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(11), total_rounds=3)
        led = MeasurementLedger(sigma=0.0)
        led.record(0, 0.7, 1)
        synth.update(led)
        led.record(4, 0.3, 2)
        synth.update(led)
        flats.append(flatten_params(synth.params))
    assert np.array_equal(flats[0], flats[1])


def test_adam_moves_against_gradient():
    x = np.zeros(4)
    opt = Adam(x, lr=0.1)
    opt.step(x, np.array([1.0, -1.0, 0.5, -0.5]))  # in place
    assert x[0] < 0 < x[1] and x[2] < 0 < x[3]


def test_update_runs_one_forward_pass_per_step(monkeypatch):
    # the stop test and the gradient share a pass; with fixed noise the
    # round's sampled error before fitting is the first step's pass, and
    # with fresh noise every step draws its own (one pass more)
    import dpsynth.gem as gem

    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    led = MeasurementLedger(sigma=0.0)
    led.record(0, 0.9, 1)
    led.record(4, 0.05, 1)
    calls = []
    real = gem.forward
    monkeypatch.setattr(gem, "forward", lambda *a: calls.append(1) or real(*a))
    steps = []
    real_step = gem.Adam.step
    monkeypatch.setattr(gem.Adam, "step", lambda self, *a: steps.append(1) or real_step(self, *a))
    for resample_z in (False, True):
        cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, t_max=7, resample_z=resample_z)
        synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(5), total_rounds=2)
        draws = []
        rng = synth.rng
        synth.rng = SimpleNamespace(standard_normal=lambda *a: draws.append(1) or rng.standard_normal(*a))
        calls.clear()
        steps.clear()
        synth.update(led)
        assert len(steps) == cfg.t_max
        assert len(calls) == cfg.t_max + resample_z
        assert len(draws) == (cfg.t_max if resample_z else 0)


def test_adam_in_place_moments_match_the_textbook_expressions():
    # the moments are updated in place; every step must equal, bit for bit,
    # the expressions written out with fresh arrays
    from dpsynth.gem import ADAM_B1, ADAM_B2, ADAM_EPS

    rng = np.random.default_rng(9)
    x = flatten_params(init_params(rng, 3, (5,), 6))
    opt = Adam(x, lr=0.01)
    m, v = np.zeros_like(x), np.zeros_like(x)
    for t in range(1, 8):
        # gradients across several orders of magnitude, as a fit sees them
        g = rng.standard_normal(x.shape) * 10.0 ** rng.integers(-6, 2, size=x.shape)
        got = opt.direction(g)
        m = ADAM_B1 * m + (1 - ADAM_B1) * g
        v = ADAM_B2 * v + (1 - ADAM_B2) * g**2
        want = 0.01 * (m / (1.0 - ADAM_B1**t)) / (np.sqrt(v / (1.0 - ADAM_B2**t)) + ADAM_EPS)
        assert np.array_equal(got, want)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


def test_adam_direction_then_subtract_equals_step():
    rng = np.random.default_rng(4)
    x = flatten_params(init_params(rng, 3, (5,), 6))
    a, b = Adam(x, lr=0.01), Adam(x, lr=0.01)
    x_step, x_dir = x.copy(), x.copy()
    for _ in range(5):
        g = rng.standard_normal(x.shape)
        a.step(x_step, g)
        x_dir = x_dir - b.direction(g)
        assert np.array_equal(x_step, x_dir)
    assert a.t == b.t == 5


# -- in-place training against the list-based reference ---------------------


def _noisy_rounds(qs, rounds, seed):
    """Per round, two measured queries with targets far from any fit, so steps run."""
    rng = np.random.default_rng(seed)
    return [[(int(q), float(rng.uniform(0.0, 0.6))) for q in rng.choice(qs.total_queries, 2, replace=False)]
            for _ in range(rounds)]


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("loss", ["l1", "l2"])
@pytest.mark.parametrize("resample_z", [False, True], ids=["fixed", "resampled"])
def test_update_matches_the_list_reference_bit_for_bit(resample_z, loss, warm):
    # five rounds of four: the EMA runs in rounds 3-5
    dom = Domain(("a", "b", "c"), (3, 2, 4))
    qs = build_workloads(dom, 2)
    cfg = GemConfig(hidden=(8, 6), z_dim=4, batch=8, lr=1e-2, t_max=6, loss=loss, resample_z=resample_z)
    init = init_params(np.random.default_rng(3), 5, (7,), dom.onehot_width) if warm else None
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(21), total_rounds=4, init=init)
    ref = GemListReference(dom, qs, cfg, np.random.default_rng(21), total_rounds=4, init=init)
    led = MeasurementLedger()
    for t, measured in enumerate(_noisy_rounds(qs, 5, seed=2), start=1):
        for q, a in measured:
            led.record(q, a, t)
        synth.update(led)
        ref.update(led)
        assert synth.opt.t == ref.opt.t
        assert np.array_equal(flatten_params(synth.params), flatten_params(ref.params))
        assert np.array_equal(synth.answers(), ref.answers())
        assert (synth.ema is None) == (ref.ema is None)
        if synth.ema is not None:
            assert np.array_equal(synth.ema, flatten_params(ref.ema))
    assert ref.opt.t > 6 and ref.ema is not None  # steps in several rounds, and the EMA ran
    out = synth.finalize()
    P, _ = forward_list(ref.final_params(), ref.z_batch, dom)
    assert np.array_equal(out.P, P)
    assert np.array_equal(flatten_params(out.params), flatten_params(ref.final_params()))


@pytest.mark.parametrize("loss", ["l1", "l2"])
def test_pretraining_matches_the_list_reference_bit_for_bit(loss):
    from dpsynth import Dataset, gem_pub_pretrain

    dom = Domain(("a", "b", "c", "d"), (3, 2, 4, 2))
    qs = build_workloads(dom, 3)
    public = Dataset(dom, np.random.default_rng(4).integers(0, dom.sizes, size=(60, 4)))
    cfg = GemConfig(hidden=(8, 6), z_dim=4, batch=8, loss=loss)
    params, info = gem_pub_pretrain(dom, public, qs, cfg, np.random.default_rng(6), steps=20, lr=1e-2)
    want, max_err = gem_pub_pretrain_list(dom, public, qs, cfg, np.random.default_rng(6), 20, 1e-2)
    assert np.array_equal(flatten_params(params), flatten_params(want))
    assert info["max_err"] == max_err


def _counting(monkeypatch):
    calls = []
    real = gem_module.forward
    monkeypatch.setattr(gem_module, "forward", lambda *a: calls.append(1) or real(*a))
    return calls


def test_update_reuses_the_pass_that_answers_made(monkeypatch):
    # one forward pass per parameter version: an update right after answers()
    # makes no opening pass, and answers() after a round that took steps makes one
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    led = MeasurementLedger(sigma=0.0)  # gamma 0: every step runs
    led.record(0, 0.9, 1)
    calls = _counting(monkeypatch)
    for resample_z in (False, True):
        cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, t_max=5, resample_z=resample_z)
        synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(5), total_rounds=2)
        draws = []
        rng = synth.rng
        synth.rng = SimpleNamespace(standard_normal=lambda *a: draws.append(1) or rng.standard_normal(*a))
        synth.answers()
        calls.clear()
        synth.update(led)
        assert synth.opt.t == cfg.t_max
        # fixed noise: steps 2..t_max each read a new version; fresh noise: every step draws
        assert len(calls) == (cfg.t_max if resample_z else cfg.t_max - 1)
        assert len(draws) == (cfg.t_max if resample_z else 0)
        calls.clear()
        synth.answers()
        synth.answers()
        assert len(calls) == 1  # the last step's version, once


def test_round_stopped_by_gamma_makes_no_pass(monkeypatch):
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, lr=1e-2, t_max=4)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(5), total_rounds=4)
    led = MeasurementLedger()
    led.record(0, 0.9, 1)
    synth.update(led)  # steps, then the loop's answers
    synth.answers()
    calls = _counting(monkeypatch)
    synth.gamma = 10.0  # the next round stops before its first step
    led.record(4, 0.2, 2)
    before = synth.opt.t
    synth.update(led)
    assert synth.opt.t == before and calls == []
    synth.answers()
    assert calls == []


def test_round_stopped_by_gamma_after_steps_leaves_its_pass_to_answers(monkeypatch):
    # the stop test's pass is at the final parameters, and answers() reads it
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, lr=1e-2, t_max=50)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(5), total_rounds=4)
    led = MeasurementLedger()
    led.record(0, 0.9, 1)
    synth.update(led)
    assert 0 < synth.opt.t < cfg.t_max  # stopped on gamma after some steps
    calls = _counting(monkeypatch)
    synth.answers()
    assert calls == []


@pytest.mark.parametrize("rounds", [4, 1], ids=["no-ema", "ema"])
def test_finalized_output_owns_its_parameters(rounds):
    # later updates move the synthesizer's buffers in place, not the output's
    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 2)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, lr=1e-2, t_max=5)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(2), total_rounds=rounds)
    led = MeasurementLedger(sigma=0.0)
    led.record(0, 0.9, 1)
    synth.update(led)
    assert (synth.ema is None) == (rounds == 4)  # the EMA starts after half the rounds
    out = synth.finalize()
    params, answers = flatten_params(out.params), out.answers(qs)
    for x in (synth.theta, synth.ema):
        if x is not None:
            assert not any(np.shares_memory(x, a) for layer in out.params for a in layer)
    led.record(5, 0.1, 2)
    synth.update(led)
    synth.update(led)
    assert not np.array_equal(flatten_params(synth.params), params)
    assert np.array_equal(flatten_params(out.params), params)
    assert np.array_equal(out.answers(qs), answers)


# -- single-precision generator, double-precision answers --------------------


def test_generator_trains_in_float32_and_answers_in_float64():
    dom = Domain(("a", "b", "c"), (3, 2, 4))
    qs = build_workloads(dom, 2)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, lr=1e-2, t_max=5)
    # one round in all: the EMA runs from round 1
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(2), total_rounds=1)
    led = MeasurementLedger()
    led.record(0, 0.9, 1)
    led.record(7, 0.05, 1)
    synth.update(led)
    assert synth.opt.t > 0 and synth.ema is not None
    for x in (synth.theta, synth._grad, synth.opt.m, synth.opt.v, synth.ema, synth.z_batch):
        assert x.dtype == np.float32
    assert all(a.dtype == np.float32 for layer in synth.params for a in layer)
    out = synth.finalize()
    assert all(a.dtype == np.float32 for layer in out.params for a in layer)
    assert out.P.dtype == np.float64 and synth._pass()[2].dtype == np.float64
    for ans in (synth.answers(), out.answers(qs)):
        assert ans.dtype == np.float64
        for w in qs.workloads:
            assert abs(ans[w.offset : w.offset + w.n_queries].sum() - 1.0) < 1e-12


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_building_a_synthesizer_draws_float64_and_casts(warm):
    # the noise and the fresh weights are the float64 draws, rounded: the
    # random stream after them is the one a float64 generator leaves
    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 1)
    cfg = GemConfig(hidden=(8, 6), z_dim=4, batch=8)
    init = init_params(np.random.default_rng(1), 3, (5,), dom.onehot_width) if warm else None
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    synth = GemSynthesizer(dom, qs, cfg, rng, total_rounds=2, init=init)
    Z = ref.standard_normal((cfg.batch, 3 if warm else cfg.z_dim))
    weights = init if warm else init_params(ref, cfg.z_dim, cfg.hidden, dom.onehot_width)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(synth.z_batch, Z.astype(np.float32))
    assert np.array_equal(synth.theta, flatten_params(weights).astype(np.float32))


@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_float32_gradient_agrees_with_float64_at_the_same_weights(kind):
    dom = Domain(("a", "b", "c"), (3, 2, 4))
    qs = build_workloads(dom, 2)
    for seed in range(5):
        r = np.random.default_rng(seed)
        p32 = float32_params(init_params(r, 4, (16, 8), dom.onehot_width))
        p64 = [(W.astype(np.float64), b.astype(np.float64)) for W, b in p32]
        Z = r.standard_normal((10, 4)).astype(np.float32).astype(np.float64)
        targets = r.uniform(0.0, 0.5, size=qs.total_queries)
        loss32, g32, c32 = gem_gradient(p32, Z, qs, None, targets, 0.0, kind)
        loss64, g64, c64 = gem_gradient(p64, Z, qs, None, targets, 0.0, kind)
        assert all(a.dtype == np.float32 for layer in g32 for a in layer)
        assert all(a.dtype == np.float64 for layer in g64 for a in layer)
        assert c32.dtype == c64.dtype == np.float64
        assert np.array_equal(np.sign(c32), np.sign(c64))  # one active set and one sign pattern
        f32, f64 = flatten_params(g32).astype(np.float64), flatten_params(g64)
        assert np.abs(f32 - f64).max() <= 1e-4 * np.abs(f64).max()
        assert abs(loss32 - loss64) <= 1e-4 * loss64


def test_float64_parameters_keep_the_float64_network():
    # gem_loss and gem_gradient on float64 weights stay float64 end to end,
    # so finite differences still check the maths in double precision
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    qidx = np.array([0, 2, 4])
    worst = 0.0
    for seed in range(10):  # acceptance criterion 4's nets
        r = np.random.default_rng(seed)
        params = init_params(r, 4, (8,), dom.onehot_width)
        Z = r.standard_normal((4, 4))
        targets = r.uniform(0.05, 0.95, size=3)
        kind = "l1" if seed % 2 == 0 else "l2"
        P, (acts, pres, _) = forward(params, Z, dom)
        assert all(a.dtype == np.float64 for a in (P, *acts, *pres))
        _, grads, _ = gem_gradient(params, Z, qs, qidx, targets, 0.0, kind)
        rev = flatten_params(grads)
        assert rev.dtype == np.float64

        def f(vec):
            return gem_loss(unflatten_params(vec, params), Z, qs, qidx, targets, 0.0, kind)[0]

        fd = central_difference(f, flatten_params(params).copy(), h=1e-5)
        denom = np.maximum(np.maximum(np.abs(rev), np.abs(fd)), 1e-6)
        worst = max(worst, float((np.abs(rev - fd) / denom).max()))
    assert f"{worst:.2e}" == "1.37e-07"


def test_float32_generator_survives_a_checkpoint_and_warm_start(tmp_path):
    dom = Domain(("a", "b", "c"), (3, 2, 4))
    qs = build_workloads(dom, 2)
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=8, lr=1e-2, t_max=5)
    synth = GemSynthesizer(dom, qs, cfg, np.random.default_rng(8), total_rounds=2)
    led = MeasurementLedger()
    for t, measured in enumerate(_noisy_rounds(qs, 2, seed=3), start=1):
        for q, a in measured:
            led.record(q, a, t)
        synth.update(led)
    out = synth.finalize()
    path = tmp_path / "gen.json"
    out.save_checkpoint(path)
    loaded, dom2 = load_checkpoint(path)
    want = flatten_params(out.params)
    assert want.dtype == np.float32
    assert np.array_equal(flatten_params(loaded), want)  # decimal doubles hold float32 values exactly
    warm = GemSynthesizer(dom2, qs, cfg, np.random.default_rng(0), total_rounds=2, init=loaded)
    assert warm.theta.dtype == np.float32 and np.array_equal(warm.theta, want)
    path2 = tmp_path / "gen2.json"
    warm.finalize().save_checkpoint(path2)
    assert path2.read_text() == path.read_text()


def test_float64_checkpoint_is_rounded_to_float32_once(tmp_path):
    # a checkpoint written from float64 weights keeps loading as it was
    # written, and the warm start rounds it to float32
    dom = Domain(("a", "b"), (3, 2))
    qs = build_workloads(dom, 1)
    params = init_params(np.random.default_rng(9), 5, (8, 4), dom.onehot_width)
    path = tmp_path / "old.json"
    save_checkpoint(params, dom, path)
    assert json.loads(path.read_text())["version"] == 1
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(flatten_params(loaded), flatten_params(params))
    synth = GemSynthesizer(dom, qs, GemConfig(batch=8), np.random.default_rng(0), total_rounds=2, init=loaded)
    rounded = flatten_params(params).astype(np.float32)
    assert not np.array_equal(rounded.astype(np.float64), flatten_params(params))  # the rounding is real
    assert np.array_equal(synth.theta, rounded)

import numpy as np
import pytest

from dpsynth import ConfigError, Domain, PepConfig, PepSynthesizer, RapConfig, RapSynthesizer, build_workloads, gen_toy
from dpsynth.privacy import MeasurementLedger
from dpsynth.queries import product_answers


def _probs(dom, M, original=False):
    """The rows' distributions that a synthesizer holding logits M outputs."""
    cfg = RapConfig(rows=M.shape[0], original=original)
    synth = RapSynthesizer(dom, build_workloads(dom, 1), cfg, np.random.default_rng(0))
    synth.M = M
    return synth.finalize().P


def test_config_validation():
    with pytest.raises(ConfigError):
        RapConfig(rows=0)
    with pytest.raises(ConfigError):
        RapConfig(lr=0.0)
    with pytest.raises(ConfigError):
        RapConfig(max_steps=-1)


def test_answers_zero_logits_uniform():
    dom = Domain(("a", "b"), (2, 4))
    qs = build_workloads(dom, 2)
    P = _probs(dom, np.zeros((5, dom.onehot_width)))
    ans = qs.answers_probs(P)
    assert np.allclose(ans, 1.0 / 8.0, atol=1e-12)
    qs1 = build_workloads(dom, 1)
    a1 = qs1.answers_probs(P)
    assert np.allclose(a1[:2], 0.5, atol=1e-12)
    assert np.allclose(a1[2:], 0.25, atol=1e-12)


def test_answers_one_hot_limit():
    # one row with saturated logits behaves like a single record
    dom = Domain(("a", "b"), (2, 3))
    qs = build_workloads(dom, 1)
    M = np.full((1, dom.onehot_width), -60.0)
    M[0, 1] = 60.0  # a = 1
    M[0, 2] = 60.0  # b = 0
    ans = qs.answers_probs(_probs(dom, M))
    expect = np.zeros(5)
    expect[1] = 1.0  # P(a=1)
    expect[2] = 1.0  # P(b=0)
    assert np.allclose(ans, expect, atol=1e-15)


def test_answers_two_rows_hand_products():
    # clip variant takes probabilities literally, so answers are hand means
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 2)
    M = np.array(
        [
            [0.3, 0.7, 0.2, 0.8],
            [0.6, 0.4, 0.5, 0.5],
        ]
    )
    ans = qs.answers_probs(_probs(dom, M, original=True))
    # query (a=0, b=0): (0.3*0.2 + 0.6*0.5) / 2
    assert abs(ans[0] - 0.18) < 1e-12
    # query (a=1, b=1): (0.7*0.8 + 0.4*0.5) / 2
    assert abs(ans[3] - 0.38) < 1e-12


def test_update_already_matched_no_movement():
    dom = Domain(("a",), (3,))
    qs = build_workloads(dom, 1)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=4, max_steps=100), np.random.default_rng(0))
    exact = synth.answers()
    for sigma in (None, 0.0):  # noise unknown, and exact measurements
        led = MeasurementLedger(sigma)
        led.record(0, float(exact[0]), 1)
        led.record(2, float(exact[2]), 2)
        before = synth.M.copy()
        synth.update(led)
        assert np.array_equal(before, synth.M)


def test_update_binary_single_query():
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=1), np.random.default_rng(0))
    led = MeasurementLedger()
    led.record(1, 0.8, 1)
    synth.update(led)
    P = synth.finalize().P
    assert abs(P[0, 1] - 0.8) < 1e-3
    assert abs(P[0, 0] - 0.2) < 1e-3


def test_update_loss_non_increasing_across_calls():
    # each call accepts only non-increasing-loss steps, so the loss sequence
    # sampled between calls must never rise
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    rng = np.random.default_rng(8)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=6, max_steps=1), rng)
    led = MeasurementLedger()
    led.record(0, 0.55, 1)
    led.record(4, 0.1, 2)
    led.record(5, 0.35, 3)
    qidx = led.indices()
    targets = led.answers()

    def loss():
        return float(((product_answers(synth.finalize().P, qs, qidx) - targets) ** 2).sum())

    prev = loss()
    for _ in range(60):
        synth.update(led)
        cur = loss()
        assert cur <= prev + 1e-15
        prev = cur


def test_capacity_matches_pep_fit_on_tiny_domain():
    # with at least as many rows as cells, the relaxed fit reaches any
    # histogram's squared error (slack for the finite-step optimizer)
    rng = np.random.default_rng(21)
    dom = Domain(("a", "b"), (2, 4))
    qs = build_workloads(dom, 1)
    for trial in range(3):
        truth = rng.dirichlet(np.ones(8) * 0.5)
        ans = qs.answers_mass(truth)
        led = MeasurementLedger()
        for r, qi in enumerate([0, 2, 3, 5], start=1):
            led.record(qi, float(np.clip(ans[qi], 1e-4, 1 - 1e-4)), r)
        pep = PepSynthesizer(dom, qs, cfg=PepConfig(t_max=500))
        pep.update(led)
        rap = RapSynthesizer(dom, qs, RapConfig(rows=16, max_steps=3000), rng)
        rap.update(led)
        idx = led.indices()
        targets = led.answers()
        pep_l2 = float(((pep.answers()[idx] - targets) ** 2).sum())
        rap_l2 = float(((rap.answers()[idx] - targets) ** 2).sum())
        assert rap_l2 <= pep_l2 + 1e-3


def test_rows_stay_valid_distributions():
    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 1)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=7, max_steps=200), np.random.default_rng(2))
    led = MeasurementLedger()
    led.record(1, 0.9, 1)
    led.record(5, 0.05, 2)
    synth.update(led)
    P = synth.finalize().P
    assert P.min() >= 0.0
    for off, sz in zip([0, 3], dom.sizes):
        assert np.abs(P[:, off : off + sz].sum(axis=1) - 1.0).max() < 1e-9


def test_original_variant_clips_without_renormalizing():
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=1, original=True), np.random.default_rng(0))
    synth.M[:] = 0.5
    assert np.allclose(synth.finalize().P, 0.5)
    led = MeasurementLedger()
    led.record(1, 0.8, 1)
    synth.update(led)
    P = synth.finalize().P
    assert abs(P[0, 1] - 0.8) < 1e-3
    assert P[0, 0] == 0.5  # untouched column: no normalization in this variant


def test_output_sampling_and_npz(tmp_path):
    dom = Domain(("a", "b"), (2, 3))
    qs = build_workloads(dom, 1)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=3), np.random.default_rng(4))
    out = synth.finalize()
    ds = out.sample_dataset(100, np.random.default_rng(1))
    assert ds.records.shape == (100, 2)
    assert ds.records[:, 0].max() < 2 and ds.records[:, 1].max() < 3
    with pytest.raises(ConfigError):
        out.sample_dataset(-1, np.random.default_rng(1))
    path = tmp_path / "relaxed.npz"
    out.save_npz(path)
    loaded = np.load(path, allow_pickle=False)
    assert np.array_equal(loaded["P"], out.P)
    assert Domain.from_json(str(loaded["domain"])) == dom


def test_out_of_range_targets_clipped():
    # a negative noisy target must act exactly like a zero target; otherwise
    # the quadratic pull never releases at the boundary and rows collapse
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    fits = []
    for tgt in (-0.4, 0.0):
        synth = RapSynthesizer(dom, qs, RapConfig(rows=3, max_steps=50), np.random.default_rng(0))
        led = MeasurementLedger()
        led.record(1, tgt, 1)
        synth.update(led)
        fits.append(synth.M.copy())
    assert np.array_equal(fits[0], fits[1])


def test_gradient_reuses_cached_forward_pass(monkeypatch):
    # each step's gradient reads the P and residual of the accepted trial;
    # only loss evaluations compute product answers
    import dpsynth.rap as rap

    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=5, max_steps=40), np.random.default_rng(6))
    led = MeasurementLedger()
    led.record(0, 0.6, 1)
    led.record(4, 0.2, 2)
    evals = []
    real_answers = rap.product_answers
    monkeypatch.setattr(rap, "product_answers", lambda *a: evals.append(1) or real_answers(*a))
    in_grad = []
    real_grad = RapSynthesizer._grad

    def grad(self, *a):
        before = len(evals)
        out = real_grad(self, *a)
        in_grad.append(len(evals) - before)
        return out

    monkeypatch.setattr(RapSynthesizer, "_grad", grad)
    synth.update(led)
    assert len(in_grad) > 1 and not any(in_grad)


def test_line_search_takes_at_most_two_loss_evaluations_per_step(monkeypatch):
    # the warm-started search mostly accepts its first or second trial; one
    # that starts every step at scale 1 pays about six loss evaluations here
    import dpsynth.rap as rap

    dom, data = gen_toy(4, [3, 4, 2, 5], 500, seed=0)
    qs = build_workloads(dom, 2)
    truth = qs.answers_records(data)
    rng = np.random.default_rng(1)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=20, max_steps=100), rng)
    calls = {"loss": 0, "grad": 0}
    real_answers, real_grad = rap.product_answers, rap.product_answers_grad

    def answers(*a):
        calls["loss"] += 1
        return real_answers(*a)

    def grad(*a):
        calls["grad"] += 1
        return real_grad(*a)

    monkeypatch.setattr(rap, "product_answers", answers)
    monkeypatch.setattr(rap, "product_answers_grad", grad)
    led = MeasurementLedger()
    for rnd, qi in enumerate(rng.choice(qs.total_queries, 8, replace=False), start=1):
        led.record(int(qi), float(truth[qi] + rng.normal(0.0, 0.02)), rnd)
        synth.update(led)
    assert calls["grad"] > 100
    assert calls["loss"] <= 2 * calls["grad"]


@pytest.mark.parametrize("original", [False, True])
def test_gradient_matches_finite_differences(original):
    from oracles import central_difference

    dom = Domain(("a", "b"), (2, 3))
    qs = build_workloads(dom, 2)
    rng = np.random.default_rng(3)
    synth = RapSynthesizer(dom, qs, RapConfig(rows=3, original=original), rng)
    qidx = np.array([0, 2, 5])
    targets = np.array([0.3, 0.1, 0.25])
    M = synth.M.copy()
    _, P, diff = synth._loss(M, qs, qidx, targets)
    g = synth._grad(M, qs, qidx, P, diff)
    fd = central_difference(
        lambda v: synth._loss(v.reshape(M.shape), qs, qidx, targets)[0], M.ravel().copy(), h=1e-6
    ).reshape(M.shape)
    assert np.abs(g - fd).max() < 1e-7


@pytest.mark.parametrize("original", [False, True])
def test_update_fits_only_the_blocks_its_queries_read(original, monkeypatch):
    # measured queries read attributes 0, 2 and 3 only: a round leaves the
    # logits of blocks 1 and 4 as they were, bit for bit, never raises the
    # loss, and ends where a fit over every column ends
    dom, data = gen_toy(5, [3, 2, 4, 2, 3], 400, seed=2)
    qs = build_workloads(dom, 2)
    truth = qs.answers_records(data)
    read = [qi for qi in range(qs.total_queries) if set(qs.workloads[qs.workload_of(qi)].features) <= {0, 2, 3}]
    rng = np.random.default_rng(4)
    picks = rng.choice(read, size=6, replace=False)
    cfg = RapConfig(rows=8, max_steps=50, original=original)
    synth = RapSynthesizer(dom, qs, cfg, np.random.default_rng(5))
    full = RapSynthesizer(dom, qs, cfg, np.random.default_rng(5))
    unread = np.r_[dom.offset(1) : dom.offset(2), dom.offset(4) : dom.onehot_width]
    start = synth.M.copy()
    led = MeasurementLedger()

    def loss():
        ans = product_answers(synth.finalize().P, qs, led.indices())
        return float(((ans - np.clip(led.answers(), 0.0, 1.0)) ** 2).sum())

    for rnd, qi in enumerate(picks, start=1):
        led.record(int(qi), float(truth[qi] + rng.normal(0.0, 0.05)), rnd)
        before, prev = synth.M.copy(), loss()
        synth.update(led)
        assert np.array_equal(synth.M[:, unread], before[:, unread])
        assert loss() <= prev
        with monkeypatch.context() as m:
            m.setattr(RapSynthesizer, "_read_blocks", lambda self, q: (np.arange(dom.onehot_width), qs, q))
            full.update(led)
        assert np.array_equal(synth.M, full.M)
    assert not np.array_equal(synth.M, start)


def _fit_residual(synth, led):
    """The max |answer - clipped target| over the ledger's queries, as the fit computes it."""
    cols, queries, qidx = synth._read_blocks(led.indices())
    qidx = queries.gather(qidx, synth.cfg.rows)
    M = np.asfortranarray(synth.M[:, cols])
    return float(np.abs(synth._loss(M, queries, qidx, np.clip(led.answers(), 0.0, 1.0))[2]).max())


@pytest.mark.parametrize("original", [False, True])
def test_update_takes_no_step_when_residuals_start_within_sigma(original, monkeypatch):
    # residuals inside the measurement noise are not fitted: no Adam step,
    # not even a first one, while a ledger without sigma moves the rows
    from dpsynth.gem import Adam

    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 2)
    cfg = RapConfig(rows=5, max_steps=100, original=original)
    ans = RapSynthesizer(dom, qs, cfg, np.random.default_rng(1)).answers()
    steps = []
    real_direction = Adam.direction
    monkeypatch.setattr(Adam, "direction", lambda self, g: steps.append(1) or real_direction(self, g))
    fits = {}
    for sigma in (0.01, None):
        synth = RapSynthesizer(dom, qs, cfg, np.random.default_rng(1))
        led = MeasurementLedger(sigma)
        for rnd, (qi, off) in enumerate([(0, 0.0099), (5, -0.0099), (11, 0.004)], start=1):
            led.record(qi, float(ans[qi] + off), rnd)
        before = synth.M.copy()
        steps.clear()
        synth.update(led)
        fits[sigma] = (len(steps), np.array_equal(synth.M, before))
    assert fits[0.01] == (0, True)
    assert fits[None][0] > 0 and not fits[None][1]


@pytest.mark.parametrize("original", [False, True])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("max_steps", [3, 300])
def test_update_stops_at_the_first_fit_within_sigma(original, seed, max_steps, monkeypatch):
    # every gradient is taken at residuals above sigma, and a round ends
    # within sigma, unless another stop came first: then it ends where the
    # fit without the noise stop ends (at 3 steps the cap often comes first)
    from oracles import rap_update_no_noise_stop

    dom, data = gen_toy(4, [3, 4, 2, 5], 500, seed=seed)
    qs = build_workloads(dom, 2)
    truth = qs.answers_records(data)
    rng = np.random.default_rng(seed)
    sigma = 0.02
    cfg = RapConfig(rows=20, max_steps=max_steps, original=original)
    synth = RapSynthesizer(dom, qs, cfg, np.random.default_rng(seed + 10))
    ref = RapSynthesizer(dom, qs, cfg, np.random.default_rng(0))
    opened = []  # the fit's max residual at every gradient it takes
    real_grad = RapSynthesizer._grad

    def grad(self, M, queries, qidx, P, diff):
        if self is synth:
            opened.append(float(np.abs(diff).max()))
        return real_grad(self, M, queries, qidx, P, diff)

    monkeypatch.setattr(RapSynthesizer, "_grad", grad)
    led = MeasurementLedger(sigma)
    within = 0
    for rnd, qi in enumerate(rng.choice(qs.total_queries, 8, replace=False), start=1):
        led.record(int(qi), float(truth[qi] + rng.normal(0.0, sigma)), rnd)
        ref.M = synth.M.copy()
        opened.clear()
        synth.update(led)
        rap_update_no_noise_stop(ref, led)
        assert all(r > sigma for r in opened)
        if _fit_residual(synth, led) <= sigma:
            within += 1
        else:
            assert np.array_equal(synth.M, ref.M)
    assert within >= 4 if max_steps == 300 else within < 8


@pytest.mark.parametrize("original", [False, True])
@pytest.mark.parametrize("sigma", [None, 0.0])
def test_update_without_noise_is_the_fit_without_the_noise_stop(original, sigma):
    # an unknown sigma, or exact measurements, leave nothing to stop at:
    # rounds end bit for bit where the fit without the noise stop ends
    from oracles import rap_update_no_noise_stop

    dom, data = gen_toy(4, [3, 4, 2, 5], 500, seed=4)
    qs = build_workloads(dom, 2)
    truth = qs.answers_records(data)
    rng = np.random.default_rng(5)
    cfg = RapConfig(rows=12, max_steps=60, original=original)
    synth = RapSynthesizer(dom, qs, cfg, np.random.default_rng(6))
    ref = RapSynthesizer(dom, qs, cfg, np.random.default_rng(6))
    led = MeasurementLedger(sigma)
    for rnd, qi in enumerate(rng.choice(qs.total_queries, 6, replace=False), start=1):
        led.record(int(qi), float(truth[qi] + rng.normal(0.0, 0.02)), rnd)
        synth.update(led)
        rap_update_no_noise_stop(ref, led)
        assert np.array_equal(synth.M, ref.M)

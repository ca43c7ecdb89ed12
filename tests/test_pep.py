import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from dpsynth import DataError, Domain, PepConfig, PepSynthesizer, build_workloads, pep
from dpsynth.domain import CellWeights, normalize_mass
from dpsynth.pep import TARGET_CLIP
from dpsynth.privacy import MeasurementLedger

from oracles import maxent_dual_descent, pep_dual_loss, pep_project_once, query_mask, query_of


def _mask(dom, qs, qidx):
    return query_mask(dom, query_of(qs, qidx), np.arange(dom.total_cells))


def test_project_once_two_cells():
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    out = pep_project_once(np.array([0.5, 0.5]), _mask(dom, qs, 1), 0.8)
    assert np.allclose(out, [0.2, 0.8], atol=1e-15)


def test_project_once_shared_mass():
    # 4 cells, 2 matching, target 0.25: matching split it equally, the rest
    # scale up to 0.375 each
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    out = pep_project_once(np.full(4, 0.25), _mask(dom, qs, 0), 0.25)  # a == 0 matches cells {0, 1}
    assert np.allclose(out, [0.125, 0.125, 0.375, 0.375], atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(2, 10),
    cell=st.integers(0, 9),
    target=st.floats(1e-3, 1.0 - 1e-3),
    seed=st.integers(0, 99_999),
)
@example(size=2, cell=0, target=0.5, seed=498)  # q(D) = 1 - 1e-5: 1 - q(D) cancelled to 2.5e-12 off
def test_projection_exactness(size, cell, target, seed):
    cell = cell % size
    dom = Domain(("a",), (size,))
    qs = build_workloads(dom, 1)
    rng = np.random.default_rng(seed)
    mass = rng.dirichlet(np.ones(size) * 0.7) + 1e-9
    out = pep_project_once(mass / mass.sum(), _mask(dom, qs, cell), target)
    assert abs(out[cell] - target) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 99_999))
@example(seed=76130)  # q(D) = 1 - 1.1e-7: 1 - q(D) cancelled to 1.85e-10 off
def test_update_projection_exactness_near_one(seed):
    # the library's projection, from a start whose answer may lie near 1
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    rng = np.random.default_rng(seed)
    mass = rng.dirichlet(np.ones(2) * 0.7) + 1e-9
    synth = PepSynthesizer(dom, qs, init_probs=mass / mass.sum(), cfg=PepConfig(t_max=1))
    led = MeasurementLedger()
    led.record(0, 0.5, 1)
    synth.update(led)
    assert abs(synth.probs[0] - 0.5) <= 1e-12


def test_dual_loss_values():
    dom = Domain(("a", "b"), (2, 3))
    qs = build_workloads(dom, 1)
    val = pep_dual_loss(np.zeros(2), qs, np.array([0, 3]), np.array([0.5, 0.3]))
    assert abs(val - math.log(6.0)) < 1e-12
    with pytest.raises(DataError):
        pep_dual_loss(np.zeros(2), qs, np.array([0]), np.array([0.5]))
    # gamma adds an l1 penalty
    base = pep_dual_loss(np.array([1.0]), qs, np.array([0]), np.array([0.5]))
    pen = pep_dual_loss(np.array([1.0]), qs, np.array([0]), np.array([0.5]), gamma=0.2)
    assert abs(pen - base - 0.2) < 1e-12


def test_dual_loss_stationary_at_zero_when_target_matches_uniform():
    dom = Domain(("a",), (4,))
    qs = build_workloads(dom, 1)
    idx, tgt = np.array([2]), np.array([0.25])
    f0 = pep_dual_loss(np.array([0.0]), qs, idx, tgt)
    for eps in (1e-3, -1e-3, 0.1, -0.1):
        assert pep_dual_loss(np.array([eps]), qs, idx, tgt) >= f0 - 1e-12


def test_dual_minimum_reproduces_projection():
    # 2-cell, one constraint at 0.8: the dual minimizer's primal distribution
    # equals the closed-form projection
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    idx, tgt = np.array([1]), np.array([0.8])
    res = minimize_scalar(
        lambda l: pep_dual_loss(np.array([l]), qs, idx, tgt), bounds=(-20, 20), method="bounded"
    )
    lam = res.x
    w = np.array([1.0, math.exp(lam)])  # exp(lam * q(x)) over the two cells
    w /= w.sum()
    proj = pep_project_once(np.array([0.5, 0.5]), _mask(dom, qs, 1), 0.8)
    assert np.allclose(w, proj, atol=1e-6)
    assert abs(lam - math.log(4.0)) < 1e-5


def test_update_single_constraint_one_projection():
    dom = Domain(("a",), (3,))
    qs = build_workloads(dom, 1)
    synth = PepSynthesizer(dom, qs)
    led = MeasurementLedger()
    led.record(0, 0.6, 1)
    synth.update(led)
    assert abs(synth.answers()[0] - 0.6) <= 1e-12


def test_update_disjoint_marginals_converge():
    # constraints on the two 1-way marginals of a 2x2 domain are mutually
    # consistent; alternating projections settle both
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    synth = PepSynthesizer(dom, qs, cfg=PepConfig(t_max=50))
    led = MeasurementLedger()
    led.record(0, 0.7, 1)  # P(a=0) = 0.7
    led.record(2, 0.4, 2)  # P(b=0) = 0.4
    synth.update(led)
    ans = synth.answers()
    assert abs(ans[0] - 0.7) < 1e-8
    assert abs(ans[2] - 0.4) < 1e-8


def test_update_inconsistent_pair_terminates_at_cap():
    # P(a=0)=0.2 and P(a=1)=0.3 cannot both hold; the iteration cap is the
    # termination guarantee and the state stays a valid distribution
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    synth = PepSynthesizer(dom, qs, cfg=PepConfig(t_max=25))
    led = MeasurementLedger()
    led.record(0, 0.2, 1)
    led.record(1, 0.3, 2)
    synth.update(led)
    assert abs(synth.probs.sum() - 1.0) < 1e-9
    res = np.abs(np.array([0.2, 0.3]) - synth.answers())
    assert 0.0 < res.max() <= 0.5 + 1e-9  # oscillates, never resolves


def test_update_inconsistent_pair_long_run_keeps_normalizer():
    # 200 projections on the inconsistent pair: the tracked normalizer keeps
    # shrinking, so only renormalizing keeps the state inside the bound
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    synth = PepSynthesizer(dom, qs, cfg=PepConfig(t_max=200))
    led = MeasurementLedger()
    led.record(0, 0.2, 1)
    led.record(1, 0.3, 2)
    synth.update(led)
    assert abs(synth.probs.sum() - 1.0) < 1e-9
    res = np.abs(np.array([0.2, 0.3]) - synth.answers())
    assert 0.0 < res.max() <= 0.5 + 1e-9


def _dense_update(probs, masks, targets, t_max, gamma, picks):
    """The projection loop on the whole vector: full sums, then `pep_project_once`.

    `picks` are the entries the cell-local update projected, in order. The
    last bit of a sum decides between residuals within 1e-12 of the
    largest (e.g. two single-cell queries clipped to the same target),
    between a residual within 1e-12 of gamma and stopping, and whether an
    answer within 1e-12 of 0 or 1 is degenerate. So the replay follows the
    picks wherever such a tie allows them, and asserts them everywhere else.
    """
    picks = list(picks)
    dead = np.zeros(len(masks), dtype=bool)
    for _ in range(t_max):
        current = np.array([probs[m].sum() for m in masks])
        res = np.abs(targets - current)
        res[dead] = -np.inf
        tied = np.flatnonzero(res >= res.max() - 1e-12)
        if picks and picks[0] in tied:
            j = picks.pop(0)
            skipped = False
        elif res.max() <= gamma + 1e-12:
            break
        else:
            j, skipped = int(tied[0]), True
        if skipped or not (0.0 < current[j] < 1.0):
            # j matches no support cell or all of them, to the last bits, so
            # no reweighting moves it (projecting it only rescales every cell)
            assert min(current[j], 1.0 - current[j]) <= 1e-12
            dead[j] = True
            continue
        probs = pep_project_once(probs, masks[j], float(targets[j]))
    assert not picks
    return probs


def _scale_logger(log):
    """`CellWeights.scale` that records (cells, inside, outside) of every projection."""
    real = CellWeights.scale

    def scale(self, cells, inside, outside):
        log.append((cells, inside, outside))
        return real(self, cells, inside, outside)

    return scale


# relative rounding of one projection's answer q: a sum of at most 16 cells
# divided by a normalizer that folded in at most 39 earlier steps
_ROUNDING = 64 * np.finfo(float).eps


def _amplification(inside, outside, target):
    """max(1/q, 1/(1-q)) of a projection, from its factors a/q and (1-a)/(1-q)."""
    return max(inside / target, outside / (1.0 - target))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 99_999), public=st.booleans(), rounds=st.integers(1, 5))
@example(seed=3000, public=False, rounds=4)
@example(seed=581, public=False, rounds=5)
@example(seed=10670, public=True, rounds=5)
def test_cell_local_update_matches_dense_replay(seed, public, rounds):
    """The update equals a dense replay of its picks, within the rounding its projections amplify.

    A projection computes 1 - q(D) (or divides by q(D)) from an answer that
    carries a relative rounding error up to _ROUNDING, so its factors, and
    the state, move by up to _ROUNDING * max(1/q, 1/(1-q)). Those terms add
    up over every projection so far; 1e-12 stays the bound until they pass it.
    """
    rng = np.random.default_rng(seed)
    shape = [(2, 3), (3, 3), (2, 2, 4), (4, 4)][seed % 4]
    dom = Domain(tuple("abc"[: len(shape)]), shape)
    qs = build_workloads(dom, int(rng.integers(1, len(shape) + 1)))
    support = None
    cells = np.arange(dom.total_cells)
    if public:
        support = np.sort(rng.choice(cells, size=int(rng.integers(2, cells.size + 1)), replace=False))
        cells = support
    synth = PepSynthesizer(
        dom, qs, support_cells=support, init_probs=rng.dirichlet(np.ones(cells.size)),
        cfg=PepConfig(t_max=int(rng.integers(1, 40))),
    )
    dense = synth.probs.copy()
    led = MeasurementLedger()
    masks = []
    amplified = 0.0
    picks = rng.choice(qs.total_queries, size=min(rounds, qs.total_queries), replace=False)
    for rnd, qi in enumerate(picks, start=1):
        led.record(int(qi), float(rng.uniform(-0.1, 1.1)), rnd)
        masks.append(query_mask(dom, query_of(qs, int(qi)), cells))
        scaled = []
        with mock.patch.object(CellWeights, "scale", _scale_logger(scaled)):
            synth.update(led)
        lists = [synth.weights.cells(int(q)) for q in led.indices()]
        projected = [next(i for i, c in enumerate(lists) if c is s) for s, _, _ in scaled]
        targets = np.clip(led.answers(), TARGET_CLIP, 1.0 - TARGET_CLIP)
        amplified += sum(_amplification(i, o, targets[j]) for (_, i, o), j in zip(scaled, projected))
        dense = _dense_update(dense, masks, targets, synth.cfg.t_max, synth.cfg.gamma, projected)
        assert np.abs(synth.probs - dense).max() <= max(1e-12, _ROUNDING * amplified)


def test_gamma_tolerance_skips_small_residuals():
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    synth = PepSynthesizer(dom, qs, cfg=PepConfig(gamma=0.5))
    led = MeasurementLedger()
    led.record(0, 0.7, 1)  # residual 0.2 < gamma
    synth.update(led)
    assert np.allclose(synth.probs, [0.5, 0.5])


def test_degenerate_support_entry_is_skipped():
    # support misses every cell of the measured query: no finite reweighting
    # can move it, so the entry is retired without touching the state
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    synth = PepSynthesizer(dom, qs, support_cells=np.array([2, 3]))  # a == 1 only
    led = MeasurementLedger()
    led.record(0, 0.6, 1)  # P(a=0), identically 0 on this support
    synth.update(led)
    assert np.allclose(synth.probs, [0.5, 0.5])


def test_support_restricted_projection():
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    synth = PepSynthesizer(dom, qs, support_cells=np.array([0, 3]))
    led = MeasurementLedger()
    led.record(0, 0.7, 1)  # P(a=0); only cell 0 matches within the support
    synth.update(led)
    assert np.allclose(synth.probs, [0.7, 0.3], atol=1e-12)
    out = synth.finalize()
    assert np.array_equal(out.cells, [0, 3])


def test_selected_constraint_residual_zeroed():
    # one projection drives the worst residual to (clipped-target) zero
    rng = np.random.default_rng(7)
    for _ in range(20):
        dom = Domain(("a", "b"), (4, 4))
        qs = build_workloads(dom, 1)
        truth = rng.dirichlet(np.ones(16) * 0.4)
        ans = qs.answers_mass(truth)
        picks = rng.choice(8, size=4, replace=False)
        synth = PepSynthesizer(dom, qs, cfg=PepConfig(t_max=1))
        led = MeasurementLedger()
        for r, qi in enumerate(picks, start=1):
            led.record(int(qi), float(np.clip(ans[qi], 1e-4, 1 - 1e-4)), r)
        res0 = np.abs(led.answers() - synth.answers()[led.indices()])
        j = int(np.argmax(res0))
        synth.update(led)
        res1 = np.abs(led.answers() - synth.answers()[led.indices()])
        assert res1[j] <= 1e-12


def test_consistent_sweeps_residual_trend():
    # max residual trends down across sweeps (transient overshoot from
    # overlapping constraints stays tiny) and converges
    rng = np.random.default_rng(5)
    for _ in range(10):
        dom = Domain(("a", "b"), (4, 4))
        qs = build_workloads(dom, 1)
        truth = rng.dirichlet(np.ones(16) * 0.4)
        ans = qs.answers_mass(truth)
        picks = rng.choice(8, size=4, replace=False)
        synth = PepSynthesizer(dom, qs, cfg=PepConfig(t_max=len(picks)))
        led = MeasurementLedger()
        for r, qi in enumerate(picks, start=1):
            led.record(int(qi), float(np.clip(ans[qi], 1e-4, 1 - 1e-4)), r)
        prev = np.inf
        for _ in range(40):
            synth.update(led)
            cur = np.abs(led.answers() - synth.answers()[led.indices()]).max()
            assert cur <= prev + 1e-3
            prev = min(prev, cur)
        assert prev < 1e-6


def test_converged_matches_dual_descent_maxent():
    # against an independently coded dual-descent max-entropy solve
    rng = np.random.default_rng(11)
    for trial in range(5):
        dom = Domain(("a", "b"), (4, 4))
        qs = build_workloads(dom, 1)
        truth = rng.dirichlet(np.ones(16) * 0.6)
        ans = qs.answers_mass(truth)
        picks = rng.choice(qs.total_queries, size=5, replace=False)
        synth = PepSynthesizer(dom, qs, cfg=PepConfig(t_max=4000))
        led = MeasurementLedger()
        targets = []
        for r, qi in enumerate(picks, start=1):
            t = float(np.clip(ans[qi], 1e-4, 1 - 1e-4))
            led.record(int(qi), t, r)
            targets.append(t)
        synth.update(led)
        cells = np.arange(16)
        masks = np.stack(
            [query_mask(dom, query_of(qs, int(qi)), cells).astype(float) for qi in picks]
        )
        ref = maxent_dual_descent(masks, np.array(targets))
        tv = 0.5 * np.abs(ref - synth.probs).sum()
        assert tv <= 1e-3


def test_projection_is_i_projection():
    # KL(D' || D) is minimal among all distributions meeting the constraint,
    # checked by grid search on a 3-cell domain
    dom = Domain(("a",), (3,))
    qs = build_workloads(dom, 1)
    rng = np.random.default_rng(3)
    D = rng.dirichlet(np.ones(3))
    target = 0.55
    Dp = pep_project_once(D, _mask(dom, qs, 0), target)

    def kl(p, q):
        return float(np.sum(p * np.log(p / q)))

    best = kl(Dp, D)
    for x in np.linspace(1e-6, 1 - target - 1e-6, 2001):
        cand = np.array([target, x, 1.0 - target - x])
        assert kl(cand, D) >= best - 1e-10


@pytest.mark.parametrize("public", [False, True])
def test_update_normalizes_only_when_due(monkeypatch, public):
    # the weights are kept across rounds: projections that keep z in
    # [1/2, 2] and every cell over MASS_FLOOR never normalize the distribution
    dom = Domain(("a", "b", "c", "d"), (8, 8, 8, 8))  # 2^12 cells
    qs = build_workloads(dom, 1)
    support = np.arange(0, dom.total_cells, 3) if public else None
    synth = PepSynthesizer(dom, qs, support_cells=support, cfg=PepConfig(t_max=4))
    calls = []
    real = pep.normalize_mass
    monkeypatch.setattr(pep, "normalize_mass", lambda m: calls.append(1) or real(m))
    led = MeasurementLedger()
    led.record(3, 0.15, 1)
    synth.update(led)
    led.record(9, 0.1, 2)
    synth.update(led)
    assert calls == []
    ans = synth.answers()
    assert abs(ans[3] - 0.15) < 1e-6 and abs(ans[9] - 0.1) < 1e-6  # the update did move it
    led.record(20, 0.9, 3)  # 1/8 of the mass to 0.9: z passes 2
    synth.update(led)
    assert len(calls) >= 1


def test_finalize_is_the_normalized_probs():
    rng = np.random.default_rng(4)
    dom = Domain(("a", "b"), (4, 4))
    qs = build_workloads(dom, 1)
    synth = PepSynthesizer(dom, qs, init_probs=rng.dirichlet(np.ones(16)), cfg=PepConfig(t_max=5))
    led = MeasurementLedger()
    for rnd, (qi, a) in enumerate([(0, 0.6), (5, 0.1), (2, 0.3)], start=1):
        led.record(qi, a, rnd)
        synth.update(led)
        out = synth.finalize().probs
        assert out.tobytes() == synth.probs.tobytes()
        assert out.tobytes() == normalize_mass(synth.weights.w / synth.weights.z).tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dpsynth import (
    ConfigError,
    DataError,
    Dataset,
    Domain,
    DomainError,
    GemConfig,
    GemSynthesizer,
    PepConfig,
    PepSynthesizer,
    build_workloads,
)
from dpsynth.privacy import MeasurementLedger
from dpsynth.public import (
    best_mixture_error,
    gem_pub_pretrain,
    pep_pub_init,
    public_answers,
    restrict_to_public,
)
from dpsynth.queries import QuerySet
from dpsynth.toy import gen_toy

from oracles import best_mixture_error_dense, query_mask, query_of


def _empty_dataset(dom):
    ds = Dataset.__new__(Dataset)
    object.__setattr__(ds, "domain", dom)
    object.__setattr__(ds, "records", np.empty((0, dom.num_attrs), dtype=np.int64))
    return ds


def test_pep_pub_support_and_init():
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    pub = Dataset(dom, np.array([[0, 0], [0, 0], [1, 2], [2, 1]]))
    synth = pep_pub_init(pub, dom, qs)
    assert np.array_equal(synth.cells, dom.encode(np.array([[0, 0], [1, 2], [2, 1]])))
    assert np.allclose(sorted(synth.probs), [0.25, 0.25, 0.5])
    assert abs(synth.probs.sum() - 1.0) < 1e-12


def test_pep_pub_public_equals_private_zero_error():
    rng = np.random.default_rng(0)
    dom = Domain(("a", "b"), (4, 4))
    qs = build_workloads(dom, 2)
    rec = np.column_stack([rng.integers(0, 4, 60), rng.integers(0, 4, 60)])
    data = Dataset(dom, rec)
    synth = pep_pub_init(data, dom, qs)
    assert np.abs(synth.answers() - qs.answers_records(data)).max() < 1e-12


def test_pep_pub_validation():
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    other = Domain(("a", "c"), (3, 3))
    pub = Dataset(other, np.array([[0, 0]]))
    with pytest.raises(DomainError):
        pep_pub_init(pub, dom, qs)
    with pytest.raises(DataError):
        pep_pub_init(_empty_dataset(dom), dom, qs)


def test_pep_pub_missing_support_floor():
    # the public support contains no a=1 record, so the a=1 answer is stuck
    # at 0 no matter how many projections run
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    pub = Dataset(dom, np.array([[0], [0], [0]]))
    synth = pep_pub_init(pub, dom, qs, cfg=PepConfig(t_max=50))
    target = 0.6
    led = MeasurementLedger()
    led.record(1, target, 1)
    synth.update(led)
    err = abs(target - synth.answers()[1])
    floor = best_mixture_error(synth.cells, qs, np.array([0.4, 0.6]))
    assert abs(floor - 0.6) < 1e-9
    assert err >= floor - 1e-3


def test_restrict_to_public_filters_by_name_and_size():
    dom = Domain(("a", "b", "c", "d"), (2, 3, 2, 2))
    qs = build_workloads(dom, 2)  # 6 workloads
    pub_dom = Domain(("a", "c"), (2, 2))
    sub = restrict_to_public(qs, pub_dom)
    assert [w.features for w in sub.workloads] == [(0, 2)]
    assert sub.total_queries == 4
    # same name, wrong size: dropped, leaving nothing
    with pytest.raises(DataError):
        restrict_to_public(qs, Domain(("a", "c"), (2, 5)))


def test_restrict_to_public_no_survivor_raises():
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    with pytest.raises(DataError):
        restrict_to_public(qs, Domain(("x", "y"), (2, 2)))


def test_restrict_offsets_are_contiguous():
    dom = Domain(("a", "b", "c"), (2, 3, 4))
    qs = build_workloads(dom, 1)
    sub = restrict_to_public(qs, Domain(("a", "c"), (2, 4)))
    assert [w.features for w in sub.workloads] == [(0,), (2,)]
    assert [w.offset for w in sub.workloads] == [0, 2]
    assert sub.total_queries == 6


def test_public_answers_maps_columns_by_name():
    dom = Domain(("a", "b"), (2, 3))
    qs = build_workloads(dom, 1)
    # public stores the same attributes in reversed column order
    pub_dom = Domain(("b", "a"), (3, 2))
    pub = Dataset(pub_dom, np.array([[2, 0], [1, 1], [2, 0], [0, 1]]))
    sub = restrict_to_public(qs, pub_dom)
    ans = public_answers(sub, pub)
    # P(a=0) = 0.5, P(a=1) = 0.5, P(b=0) = 0.25, P(b=1) = 0.25, P(b=2) = 0.5
    assert np.allclose(ans, [0.5, 0.5, 0.25, 0.25, 0.5], atol=1e-12)


def test_gem_pub_pretrain_fits_public():
    rng = np.random.default_rng(1)
    dom = Domain(("a", "b", "c", "d"), (3, 3, 3, 3))
    qs = build_workloads(dom, 2)
    base = rng.integers(0, 3, size=(300, 4))
    base[:, 1] = base[:, 0]  # strong correlation to move away from uniform
    pub = Dataset(dom, base)
    cfg = GemConfig(hidden=(32, 32), z_dim=8, batch=50)
    params, info = gem_pub_pretrain(dom, pub, qs, cfg, rng, steps=2500, lr=3e-3)
    assert info["max_err"] < 0.05
    assert info["queries"] == qs.total_queries
    # warm-started generator dominates a cold start before any measurement
    priv_ans = qs.answers_records(pub)
    warm = GemSynthesizer(dom, qs, cfg, np.random.default_rng(2), total_rounds=5, init=params)
    cold = GemSynthesizer(dom, qs, cfg, np.random.default_rng(2), total_rounds=5)
    warm_err = np.abs(warm.answers() - priv_ans).max()
    cold_err = np.abs(cold.answers() - priv_ans).max()
    assert warm_err < cold_err


def test_gem_pub_pretrain_restricts_queries():
    rng = np.random.default_rng(3)
    dom = Domain(("a", "b", "c"), (2, 2, 2))
    qs = build_workloads(dom, 1)
    pub_dom = Domain(("a", "b"), (2, 2))
    pub = Dataset(pub_dom, rng.integers(0, 2, size=(40, 2)))
    cfg = GemConfig(hidden=(8,), z_dim=4, batch=10)
    params, info = gem_pub_pretrain(dom, pub, qs, cfg, rng, steps=50)
    assert info["queries"] == 4  # only the a and b workloads survive
    with pytest.raises(DataError):
        gem_pub_pretrain(dom, _empty_dataset(pub_dom), qs, cfg, rng)
    with pytest.raises(ConfigError):
        gem_pub_pretrain(dom, pub, qs, cfg, rng, steps=0)
    with pytest.raises(ConfigError):
        gem_pub_pretrain(dom, pub, qs, cfg, rng, lr=0.0)
    with pytest.raises(DataError):
        gem_pub_pretrain(dom, Dataset(Domain(("z",), (2,)), np.array([[0]])), qs, cfg, rng)


def _unreached(cells, qs):
    """Mask of the queries that no support cell meets."""
    return qs.answers_mass(np.bincount(cells, minlength=qs.domain.total_cells)) == 0


@pytest.fixture
def support_answer_calls(monkeypatch):
    """Counts `QuerySet.answers_support` calls."""
    calls = []
    inner = QuerySet.answers_support

    def counted(self, *args, **kwargs):
        calls.append(1)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(QuerySet, "answers_support", counted)
    return calls


def test_best_mixture_error_full_support_reaches_zero(support_answer_calls):
    rng = np.random.default_rng(4)
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    truth = rng.dirichlet(np.ones(9))
    targets = qs.answers_mass(truth)
    err = best_mixture_error(np.arange(9), qs, targets)
    assert err < 5e-3
    # every query meets a cell, so the game never stops early: the initial
    # answers, then two calls at each of the 40 checkpoints
    assert len(support_answer_calls) == 81


def test_best_mixture_error_point_support():
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    # support = {a=0}: answers fixed at (1, 0); targets (0.7, 0.3)
    err = best_mixture_error(np.array([0]), qs, np.array([0.7, 0.3]))
    assert abs(err - 0.3) < 1e-12


def test_best_mixture_error_validation():
    dom = Domain(("a",), (2,))
    qs = build_workloads(dom, 1)
    with pytest.raises(DataError):
        best_mixture_error(np.array([], dtype=np.int64), qs, np.array([0.5, 0.5]))
    with pytest.raises(DataError):
        best_mixture_error(np.array([0]), qs, np.array([0.5]))
    with pytest.raises(ConfigError):
        best_mixture_error(np.array([0]), qs, np.array([0.5, 0.5]), iterations=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError):
            best_mixture_error(np.array([0]), qs, np.array([0.5, bad]))


def test_best_mixture_error_two_point_grid_oracle():
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    cells = np.array([0, 3])  # records (0,0) and (1,1)
    targets = np.array([0.65, 0.35, 0.55, 0.45])
    got = best_mixture_error(cells, qs, targets)
    # grid over mu = (p, 1-p): answers (p, 1-p, p, 1-p)
    best = np.inf
    for p in np.linspace(0.0, 1.0, 1001):
        ans = np.array([p, 1 - p, p, 1 - p])
        best = min(best, np.abs(targets - ans).max())
    assert abs(got - best) <= 1e-2


def _lp_mixture_error(cells, qs, targets):
    dom = qs.domain
    S = cells.size
    Q = qs.total_queries
    A = np.zeros((Q, S))
    for j, c in enumerate(cells):
        for qi in range(Q):
            if query_mask(dom, query_of(qs, qi), np.array([c]))[0]:
                A[qi, j] = 1.0
    # variables: mu (S), t; minimize t subject to |A mu - targets| <= t
    c_obj = np.zeros(S + 1)
    c_obj[-1] = 1.0
    A_ub = np.block([[A, -np.ones((Q, 1))], [-A, -np.ones((Q, 1))]])
    b_ub = np.concatenate([targets, -targets])
    A_eq = np.zeros((1, S + 1))
    A_eq[0, :S] = 1.0
    res = linprog(
        c_obj,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * S + [(0, None)],
        method="highs",
    )
    assert res.success
    return float(res.fun)


def test_best_mixture_error_matches_lp():
    rng = np.random.default_rng(6)
    dom = Domain(("a", "b"), (4, 4))
    qs = build_workloads(dom, 1)
    for _ in range(5):
        truth = rng.dirichlet(np.ones(16) * 0.5)
        targets = qs.answers_mass(truth)
        cells = np.sort(rng.choice(16, size=6, replace=False))
        got = best_mixture_error(cells, qs, targets)
        lp = _lp_mixture_error(cells, qs, targets)
        assert got >= lp - 1e-9  # the dynamics can never beat the true minimax
        assert abs(got - lp) <= 1e-2


def _public_floor_case(attrs, seed, public_n):
    """(support, queries, targets): a gen_toy table's 3-way answers and a second table's support."""
    domain, data = gen_toy(attrs=attrs, sizes=8, n=2000, seed=seed)
    _, public = gen_toy(attrs=attrs, sizes=8, n=public_n, seed=seed + 1)
    qs = build_workloads(domain, 3)
    return np.unique(public.cells()), qs, qs.answers_records(data)


def _criterion_9_case():
    """The support of acceptance criterion 9: the toy table without its commonest first value."""
    domain, data = gen_toy(attrs=4, sizes=8, n=2000, seed=0)
    qs = build_workloads(domain, 3)
    v_star = int(np.argmax(np.bincount(data.records[:, 0], minlength=8)))
    public = Dataset(domain, data.records[data.records[:, 0] != v_star])
    return np.unique(public.cells()), qs, qs.answers_records(data)


@pytest.mark.parametrize("targets_from", ["data", "support"])
@pytest.mark.parametrize("case", ["grid", "toy", "hist", "criterion_9"])
def test_best_mixture_error_matches_dense_oracle(case, targets_from):
    if case == "grid":
        qs = build_workloads(Domain(("a", "b"), (2, 2)), 1)
        cells, targets = np.array([0, 3]), np.array([0.65, 0.35, 0.55, 0.45])
    elif case == "toy":
        cells, qs, targets = _public_floor_case(4, 3, 500)
    elif case == "hist":
        cells, qs, targets = _public_floor_case(6, 5, 2000)
    else:
        cells, qs, targets = _criterion_9_case()
    if targets_from == "support":
        # reachable targets: the floor is the game's convergence, not the
        # target of a query that no support cell meets
        targets = qs.answers_support(cells, np.random.default_rng(0).dirichlet(np.ones(cells.size)))
    got = best_mixture_error(cells, qs, targets)
    assert abs(got - best_mixture_error_dense(cells, qs, targets)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["point", "full", "sparse"]),
    iterations=st.integers(1, 120),
)
def test_best_mixture_error_matches_dense_oracle_small(seed, kind, iterations):
    # sparse and point supports leave queries with no support cell
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    dom = Domain(tuple(f"a{i}" for i in range(d)), tuple(int(s) for s in rng.integers(2, 5, size=d)))
    qs = build_workloads(dom, int(rng.integers(1, d + 1)))
    if kind == "point":
        cells = rng.integers(dom.total_cells, size=1)
    elif kind == "full":
        cells = np.arange(dom.total_cells)
    else:
        cells = np.sort(rng.choice(dom.total_cells, size=int(rng.integers(1, dom.total_cells)), replace=False))
    targets = qs.answers_mass(rng.dirichlet(np.full(dom.total_cells, 0.5)))
    got = best_mixture_error(cells, qs, targets, iterations)
    assert abs(got - best_mixture_error_dense(cells, qs, targets, iterations)) <= 1e-12


def test_best_mixture_error_stops_when_worst_query_meets_no_cell(support_answer_calls):
    dom = Domain(("a", "b"), (2, 3))
    qs = build_workloads(dom, 1)
    cells = np.array([0, 1])  # (0, 0) and (0, 1): a=1 and b=2 meet no cell
    targets = np.array([0.5, 0.5, 0.1, 0.1, 0.8])
    # uniform answers (1, 0, .5, .5, 0): the first worst query is b=2
    got = best_mixture_error(cells, qs, targets)
    assert got == np.abs(targets[_unreached(cells, qs)]).max() == 0.8
    assert len(support_answer_calls) == 1  # the initial answers only


def test_best_mixture_error_stop_returns_the_unreached_target_exactly():
    # every iterate answers b=3 with 0, so the floor is exactly its |target|;
    # the iterate's residual |target * z| / z reads 0.35313447777952456 here
    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 1)
    cells = np.array([0, 1, 2, 8])  # a=1 and b=3 meet no cell
    targets = qs.answers_mass(np.random.default_rng(25).dirichlet(np.full(12, 0.5)))
    got = best_mixture_error(cells, qs, targets)
    assert got == np.abs(targets[_unreached(cells, qs)]).max() == 0.3531344777795246


def test_best_mixture_error_stops_mid_run(support_answer_calls):
    rng = np.random.default_rng(1)
    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 1)
    cells = np.sort(rng.choice(12, size=int(rng.integers(2, 6)), replace=False))
    targets = qs.answers_mass(rng.dirichlet(np.full(12, 0.5)))
    got = best_mixture_error(cells, qs, targets)
    assert 1 < len(support_answer_calls) < 81
    assert got >= np.abs(targets[_unreached(cells, qs)]).max() - 1e-15
    assert abs(got - best_mixture_error_dense(cells, qs, targets)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), iterations=st.integers(1, 400))
def test_best_mixture_error_sparse_support_is_bounded_by_unreached_queries(seed, iterations):
    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in rng.integers(2, 5, size=int(rng.integers(1, 4)))]
    while math.prod(sizes) > 12:
        sizes.pop()
    dom = Domain(tuple(f"a{i}" for i in range(len(sizes))), tuple(sizes))
    qs = build_workloads(dom, int(rng.integers(1, len(sizes) + 1)))
    cells = np.sort(rng.choice(dom.total_cells, size=int(rng.integers(1, dom.total_cells)), replace=False))
    targets = qs.answers_mass(rng.dirichlet(np.full(dom.total_cells, 0.5)))
    got = best_mixture_error(cells, qs, targets, iterations)
    unreached = _unreached(cells, qs)
    if unreached.any():
        assert got >= np.abs(targets[unreached]).max() - 1e-15
    assert abs(got - best_mixture_error_dense(cells, qs, targets, iterations)) <= 1e-12


@pytest.mark.parametrize("cells", [[0, 6], [-1, 0]])
def test_support_cells_outside_the_domain_are_rejected(cells):
    # a 2x3 domain has cells 0..5: decoding by stride and size alone would
    # wrap 6 to (0, 0) and -1 to (1, 2)
    qs = build_workloads(Domain(("a", "b"), (2, 3)), 1)
    with pytest.raises(DataError):
        best_mixture_error(np.array(cells), qs, np.array([0.5, 0.5, 0.2, 0.3, 0.5]))
    with pytest.raises(DataError):
        PepSynthesizer(qs.domain, qs, support_cells=np.array(cells))

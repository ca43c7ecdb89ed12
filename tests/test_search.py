import numpy as np
import pytest

from dpsynth import (
    Accountant,
    CapacityError,
    ConfigError,
    DataError,
    Dataset,
    Domain,
    DualQueryConfig,
    DualQuerySynthesizer,
    FemConfig,
    FemSynthesizer,
    QuerySet,
    RunConfig,
    build_workloads,
    gen_toy,
    run,
)
from dpsynth import search
from dpsynth.privacy import dp_to_zcdp, select_k

from oracles import cell_sums_loop, fem_records_loop, query_mask, query_of


def _setup(sizes=(4,), k=1):
    dom = Domain(tuple("abcd"[: len(sizes)]), sizes)
    return dom, build_workloads(dom, k)


def test_config_validation():
    with pytest.raises(ConfigError):
        DualQueryConfig(samples=0)
    with pytest.raises(ConfigError):
        FemConfig(sigma=0.0)
    with pytest.raises(ConfigError):
        FemConfig(samples=0)


def test_capacity_cap():
    dom = Domain(("a", "b"), (200, 200))
    qs = build_workloads(dom, 1)
    with pytest.raises(CapacityError):
        DualQuerySynthesizer(dom, qs, DualQueryConfig(), cell_cap=10_000)
    with pytest.raises(CapacityError):
        FemSynthesizer(dom, qs, FemConfig(), cell_cap=10_000)


def test_dualquery_zero_lower_bound():
    # every drawn query misses the a=3 cells, so one of them attains 0
    dom, qs = _setup((4,))
    synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=8))
    synth.logw = np.array([0.0, 0.0, 0.0, -np.inf])  # never draw a=3
    priv = np.array([0.25, 0.25, 0.25, 0.25])
    acct = Accountant(rho=0.1, T=1, k=1, alpha=1.0, n=100)
    synth.private_round(synth.answers(), priv, acct, np.random.default_rng(0), False)
    assert np.nonzero(synth.counts)[0].tolist() == [3]


def test_dualquery_tie_breaks_to_lowest_index():
    dom, qs = _setup((4,))
    synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=1))
    synth.logw = np.array([-np.inf, -np.inf, 0.0, -np.inf])  # always draw a=2
    priv = np.full(4, 0.25)
    acct = Accountant(rho=0.1, T=1, k=1, alpha=1.0, n=100)
    drawn, noisy = synth.private_round(synth.answers(), priv, acct, np.random.default_rng(3), False)
    assert drawn == [2]
    assert noisy is None
    assert np.nonzero(synth.counts)[0].tolist() == [0]  # cells 0,1,3 all score 0; lowest wins


def test_dualquery_argmin_matches_brute_force():
    dom, qs = _setup((2, 2), k=2)
    rng = np.random.default_rng(17)
    acct = Accountant(rho=0.1, T=5, k=1, alpha=1.0, n=100)
    synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=3))
    priv = np.array([0.5, 0.1, 0.1, 0.3])
    cells = np.arange(dom.total_cells, dtype=np.int64)
    for rnd in range(1, 6):
        before = synth.counts.copy()
        drawn, _ = synth.private_round(synth.answers(), priv, acct, rng, False)
        # independent scan: count matches of each drawn query, cell by cell
        scores = np.zeros(dom.total_cells)
        for qidx in drawn:
            q = query_of(qs, qidx)
            for x in cells:
                if query_mask(dom, q, np.array([x]))[0]:
                    scores[x] += 1
        assert np.nonzero(synth.counts - before)[0].tolist() == [int(np.argmin(scores))]


def test_dualquery_weights_stay_distribution_and_favor_errors():
    dom, qs = _setup((4,))
    synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=2))
    priv = np.array([0.7, 0.1, 0.1, 0.1])  # query 0 has the worst error
    # T >= 2: at T=1 no round reads a payoff, and the rate is 0
    acct = Accountant(rho=0.1, T=2, k=1, alpha=1.0, n=100)
    rng = np.random.default_rng(5)
    for _ in range(2):  # the second round applies the payoff of the first round's record
        synth.private_round(synth.answers(), priv, acct, rng, False)
    assert np.isfinite(synth.logw).all()
    assert synth.logw[0] > synth.logw[1:].max()
    # a rate far past exp's range (about 1.4e9 at n=1e9) still draws valid queries
    acct = Accountant(rho=1.0, T=2, k=1, alpha=1.0, n=10**9)
    for _ in range(2):
        drawn, _ = synth.private_round(synth.answers(), priv, acct, rng, False)
    assert np.isfinite(synth.logw).all() and all(0 <= q < qs.total_queries for q in drawn)


def test_dualquery_rate_recomposes_to_the_stated_rho():
    # after two rounds the gap of two queries' log-weights is the rate times
    # the gap of their payoffs; T rounds of `samples` draws, each an exponential
    # mechanism with log-weight sensitivity rate*(t-1)/n, spend
    # samples * rate^2 * sum (t-1)^2 / (2 n^2): the stated rho
    dom, qs = _setup((4,))
    samples, T, n, rho = 7, 5, 300, 0.05
    acct = Accountant.selection_only(rho, T, 1, n)
    synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=samples))
    priv = np.array([0.7, 0.1, 0.1, 0.1])
    rng = np.random.default_rng(3)
    synth.private_round(synth.answers(), priv, acct, rng, False)
    current = synth.answers()
    synth.private_round(current, priv, acct, rng, False)
    payoff = np.abs(priv - current)
    rate = (synth.logw[0] - synth.logw[1]) / (payoff[0] - payoff[1])
    spent = samples * rate**2 * sum((t - 1) ** 2 for t in range(1, T + 1)) / (2 * n**2)
    assert abs(spent - rho) <= 1e-12


def test_fem_noise_free_limit_unperturbed_argmin():
    # sigma -> 0 with a unique unperturbed argmin: the perturbation cannot
    # overturn the base objective's gap of 1
    dom, qs = _setup((2,))
    synth = FemSynthesizer(dom, qs, FemConfig(sigma=1e-12, samples=4))
    priv = np.array([0.1, 0.9])
    acct = Accountant(rho=0.1, T=1, k=1, alpha=1.0, n=100)
    picked, _ = synth.private_round(synth.answers(), priv, acct, np.random.default_rng(2), True)
    assert picked == [0]  # tied errors, lowest index under exact selection
    assert synth.counts.tolist() == [0, 4]  # four records on the one cell missing query a=0


def test_fem_pure_noise_argmin():
    # overwhelming noise scale: the base indicator is negligible and the
    # chosen cell is the pure noise argmin, matching an independent scan
    dom, qs = _setup((2, 4))
    synth = FemSynthesizer(dom, qs, FemConfig(sigma=1e6, samples=3))
    priv = build_workloads(dom, 1).answers_mass(np.full(8, 0.125))
    acct = Accountant(rho=0.1, T=1, k=1, alpha=1.0, n=100)
    seed = 31
    synth.private_round(synth.answers(), priv, acct, np.random.default_rng(seed), True)
    twin = np.random.default_rng(seed)
    want = np.zeros(dom.total_cells)
    for _ in range(3):
        noise = twin.exponential(1e6, size=dom.onehot_width)
        best, best_val = None, np.inf
        for x in range(dom.total_cells):
            vals = dom.decode(np.array([x]))[0]
            v = noise[0 + vals[0]] + noise[2 + vals[1]]
            if v < best_val:
                best, best_val = x, v
        want[best] += 1
    assert np.array_equal(synth.counts, want)


def test_fem_seeded_run_matches_independent_scan():
    dom, qs = _setup((2, 4))
    synth = FemSynthesizer(dom, qs, FemConfig(sigma=0.5, samples=5))
    rng = np.random.default_rng(9)
    twin = np.random.default_rng(9)
    priv = np.array([0.8, 0.2, 0.4, 0.3, 0.2, 0.1])
    acct = Accountant(rho=0.1, T=2, k=1, alpha=1.0, n=100)
    selected = []
    for rnd in (1, 2):
        before = synth.counts.copy()
        picked, _ = synth.private_round(synth.answers(), priv, acct, rng, True)
        selected += picked
        base = np.zeros(dom.total_cells)
        for qidx in selected:
            q = query_of(qs, qidx)
            for x in range(dom.total_cells):
                if query_mask(dom, q, np.array([x]))[0]:
                    base[x] += 1
        for _ in range(5):
            noise = twin.exponential(0.5, size=dom.onehot_width)
            obj = base.copy()
            for x in range(dom.total_cells):
                vals = dom.decode(np.array([x]))[0]
                obj[x] += noise[0 + vals[0]] + noise[2 + vals[1]]
            before[int(np.argmin(obj))] += 1
        assert np.array_equal(synth.counts, before)


def test_finalize_empirical_distribution():
    dom, qs = _setup((4,))
    synth = DualQuerySynthesizer(dom, qs, DualQueryConfig())
    with pytest.raises(DataError):
        synth.finalize()
    synth.counts[[1, 3]] = [3, 1]
    out = synth.finalize()
    assert np.array_equal(out.cells, [1, 3])
    assert np.allclose(out.probs, [0.75, 0.25])


def test_search_methods_through_the_loop():
    rng = np.random.default_rng(0)
    dom = Domain(("a", "b"), (3, 3))
    qs = build_workloads(dom, 1)
    rec = np.column_stack([rng.integers(0, 3, 40), rng.integers(0, 3, 40)])
    data = Dataset(dom, rec)
    for synth in (
        DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=10)),
        FemSynthesizer(dom, qs, FemConfig(samples=10)),
    ):
        acct = Accountant(rho=0.2, T=3, k=1, alpha=1.0, n=data.n)
        out, trace = run(data, qs, synth, acct, RunConfig(T=3, k=1), np.random.default_rng(1))
        assert len(trace) == 3
        assert all(r["max_err_measured"] is None for r in trace)
        assert abs(out.probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("search", ["dualquery", "fem"])
def test_one_answers_pass_per_round(monkeypatch, search):
    # the loop's current answers serve the round; nothing evaluates them twice
    from dpsynth.queries import QuerySet

    dom, qs = _setup((2, 4))
    data = Dataset(dom, np.array([[0, 1], [1, 3], [0, 0], [1, 1]] * 10))
    if search == "dualquery":
        synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=5))
    else:
        synth = FemSynthesizer(dom, qs, FemConfig(samples=5))
    T = 5
    calls = []
    real = QuerySet.answers_mass
    monkeypatch.setattr(QuerySet, "answers_mass", lambda self, mass: calls.append(1) or real(self, mass))
    acct = Accountant.selection_only(rho=0.2, T=T, k=1, n=data.n)
    run(data, qs, synth, acct, RunConfig(T=T, k=1), np.random.default_rng(1))
    assert len(calls) == T


def test_dualquery_no_noise_draws_the_argmax():
    # no_noise disables the query draws too: the fit no longer depends on its seed
    dom, data = gen_toy(seed=100)
    qs = build_workloads(dom, 3)
    T = 20
    acct = Accountant.selection_only(rho=dp_to_zcdp(1.0, 1.0 / data.n**2), T=T, k=1, n=data.n)
    answers, traces = [], []
    for seed in (0, 1):
        synth = DualQuerySynthesizer(dom, qs, DualQueryConfig())
        out, trace = run(data, qs, synth, acct, RunConfig(T=T, k=1, no_noise=True), np.random.default_rng(seed))
        answers.append(out.answers(qs))
        traces.append([r["selected"] for r in trace])
    assert np.array_equal(answers[0], answers[1])
    assert traces[0] == traces[1]
    # every draw of a round is the one query of largest log-weight
    assert all(len(set(sel)) == 1 for sel in traces[0])


def _replay_setup(sizes, workloads, seed):
    """Domain, queries (all k-way workloads, or the given subsets) and the
    exact answers of a random 200-record table."""
    dom = Domain(tuple(f"a{i}" for i in range(len(sizes))), sizes)
    if isinstance(workloads, int):
        qs = build_workloads(dom, workloads)
    else:
        qs = QuerySet.from_subsets(dom, workloads)
    rng = np.random.default_rng(1000 + seed)
    data = Dataset(dom, np.column_stack([rng.integers(0, s, 200) for s in sizes]))
    return dom, qs, qs.answers_records(data)


# (sizes, k or workload subsets in their own attribute order, queries selected per round)
REPLAY_CASES = [
    ((8, 8, 8, 8), 3, 1),
    ((3, 4, 2, 5), [(2, 0, 1), (3, 1, 0), (0, 1, 2)], 2),
]
MODES = {"plain": {}, "no_noise": {"no_noise": True}}

# mode -> seed -> the queries DualQuery draws in each of three rounds, pinned
# so that no change in how the draws are made moves them
DUALQUERY_DRAWS = {
    "plain": {0: [[3, 1, 0, 0, 4, 5], [2, 2, 2, 3, 2, 0], [3, 0, 3, 0, 3, 1]],
              1: [[3, 5, 0, 5, 1, 2], [4, 4, 4, 3, 4, 4], [4, 4, 4, 4, 4, 4]]},
    "no_noise": {0: [[0] * 6, [2] * 6, [2] * 6], 1: [[0] * 6, [2] * 6, [2] * 6]},
}


@pytest.mark.parametrize("mode", sorted(DUALQUERY_DRAWS))
def test_dualquery_draws_are_pinned(mode):
    dom = Domain(("a", "b"), (2, 4))
    qs = build_workloads(dom, 1)
    data = Dataset(dom, np.array([[0, 1], [1, 3], [0, 0], [1, 1], [0, 1]] * 8))
    priv = qs.answers_records(data)
    acct = Accountant.selection_only(rho=0.5, T=3, k=1, n=data.n)
    opts = {"no_noise": False, **MODES[mode]}
    for seed, want in DUALQUERY_DRAWS[mode].items():
        synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=6))
        rng = np.random.default_rng(seed)
        got = [synth.private_round(synth.answers(), priv, acct, rng, **opts)[0] for _ in range(3)]
        assert got == want


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("sizes,workloads,k", REPLAY_CASES)
def test_dualquery_counts_match_per_draw_reference(sizes, workloads, k, mode):
    # each round's record is the lowest argmin of the per-draw objective
    # scan over the round's own draws, so the counts are bit-equal to it
    opts = {"no_noise": False, **MODES[mode]}
    T = 4
    for seed in range(3):
        dom, qs, priv = _replay_setup(sizes, workloads, seed)
        acct = Accountant.selection_only(rho=0.05, T=T, k=k, n=200)
        synth = DualQuerySynthesizer(dom, qs, DualQueryConfig(samples=60))
        rng = np.random.default_rng(seed)
        want = np.zeros(dom.total_cells)
        for _ in range(T):
            drawn, _ = synth.private_round(synth.answers(), priv, acct, rng, **opts)
            want[int(np.argmin(cell_sums_loop(qs, drawn)))] += 1.0
            assert np.array_equal(synth.counts, want)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize(
    "sizes,workloads,k,sigma,samples",
    [
        ((8, 8, 8, 8), 3, 1, 0.1, 100),  # blocks of several records, the last one short
        ((3, 4, 2, 5), [(2, 0, 1), (3, 1, 0), (0, 1, 2)], 2, 1e-12, 9),
        ((8, 8, 8, 8, 8, 4), 2, 1, 0.1, 3),  # over the block budget: one record per block
    ],
)
def test_fem_counts_match_per_record_reference(sizes, workloads, k, sigma, samples, mode):
    # a twin generator replays the selection, then draws one noise vector per
    # record: the round's single draw must be that same stream
    opts = {"no_noise": False, **MODES[mode]}
    T = 3
    for seed in range(3):
        dom, qs, priv = _replay_setup(sizes, workloads, seed)
        acct = Accountant.selection_only(rho=0.05, T=T, k=k, n=200)
        synth = FemSynthesizer(dom, qs, FemConfig(sigma=sigma, samples=samples))
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        picks, want = [], np.zeros(dom.total_cells)
        for _ in range(T):
            current = synth.answers()
            picked, _ = synth.private_round(current, priv, acct, rng, opts["no_noise"])
            assert picked == select_k(np.abs(priv - current), acct, twin, no_noise=opts["no_noise"])
            picks += picked
            want += fem_records_loop(dom, cell_sums_loop(qs, picks), twin, sigma, samples)
            assert np.array_equal(synth.counts, want)
    assert (dom.total_cells > search._SCORE_BLOCK) == (len(sizes) == 6)

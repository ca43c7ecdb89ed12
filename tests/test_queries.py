import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import ConfigError, DataError, Dataset, Domain, build_workloads
from dpsynth.queries import QuerySet, SupportMap, Workload, prefix_outers, product_answers, product_answers_grad

from oracles import (
    MarginalQuery,
    answer_batch,
    answer_histogram,
    answer_records,
    cell_sums_loop,
    loo_loop,
    product_answers_parts,
    product_query,
    query_mask,
    query_of,
)


def brute_force_answer(dom, records, q):
    """Independent oracle: count matching records one by one."""
    hits = 0
    for row in records:
        if all(row[f] == t for f, t in zip(q.features, q.targets)):
            hits += 1
    return hits / len(records)


def test_marginal_query_validation():
    with pytest.raises(DataError):
        MarginalQuery((1, 0), (0, 0))  # features must be strictly increasing
    with pytest.raises(DataError):
        MarginalQuery((0, 0), (0, 0))
    with pytest.raises(DataError):
        MarginalQuery((0,), (0, 1))  # arity mismatch


def test_onehot_indices_and_matches():
    dom = Domain(("a", "b", "c"), (2, 3, 2))
    qs = build_workloads(dom, 2)
    qi = qs.workloads[1].offset + 2  # features (0, 2), targets (1, 0)
    q = query_of(qs, qi)
    assert q == MarginalQuery((0, 2), (1, 0))
    assert qs.idx[qi].tolist() == [1, 5]  # its one-hot positions
    cells = dom.encode(np.array([[1, 0, 0], [1, 2, 1], [0, 0, 0]]))
    assert query_mask(dom, q, cells).tolist() == [True, False, False]
    assert np.isin(cells, qs.cells_of(qi)).tolist() == [True, False, False]


def test_workload_query_order_lexicographic():
    dom = Domain(("a", "b", "c"), (2, 3, 2))
    qs = build_workloads(dom, 2)
    w = qs.workloads[0]
    assert w.features == (0, 1)
    # local index runs over targets lexicographically, last feature fastest
    assert query_of(qs, 0).targets == (0, 0)
    assert query_of(qs, 1).targets == (0, 1)
    assert query_of(qs, 3).targets == (1, 0)
    assert qs.idx[3].tolist() == [1, 2]  # one-hot positions of a=1, b=0
    assert w.n_queries == 6


def test_build_workloads_all_subsets():
    dom = Domain(("a", "b", "c", "d"), (2, 2, 2, 2))
    qs = build_workloads(dom, 2)
    assert [w.features for w in qs.workloads] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert qs.total_queries == 6 * 4


def test_build_workloads_sampled():
    dom = Domain(tuple(f"a{i}" for i in range(6)), (2,) * 6)
    a = build_workloads(dom, 2, count=5, rng=np.random.default_rng(11))
    b = build_workloads(dom, 2, count=5, rng=np.random.default_rng(11))
    assert [w.features for w in a.workloads] == [w.features for w in b.workloads]
    assert len(a.workloads) == 5
    assert len({w.features for w in a.workloads}) == 5  # without replacement
    assert a.workloads == sorted(a.workloads, key=lambda w: w.features)
    with pytest.raises(ConfigError):
        build_workloads(dom, 2, count=100, rng=np.random.default_rng(0))
    for k, count, rng in ((0, None, None), (2, 0, np.random.default_rng(0)), (2, 3, None)):
        with pytest.raises(ConfigError):
            build_workloads(dom, k, count, rng)


def test_answers_match_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = rng.integers(2, 5)
        sizes = tuple(int(s) for s in rng.integers(2, 5, size=d))
        dom = Domain(tuple(f"a{i}" for i in range(d)), sizes)
        n = int(rng.integers(1, 60))
        rec = np.column_stack([rng.integers(0, s, size=n) for s in sizes])
        data = Dataset(dom, rec)
        k = int(rng.integers(1, d + 1))
        qs = build_workloads(dom, k)
        ans = qs.answers_records(data)
        counts = np.bincount(data.cells(), minlength=dom.total_cells)
        hist_ans = qs.answers_mass(counts) / n
        for qi in rng.choice(qs.total_queries, size=min(10, qs.total_queries), replace=False):
            q = query_of(qs, int(qi))
            want = brute_force_answer(dom, rec, q)
            assert ans[qi] == want  # integer counting: exact
            assert hist_ans[qi] == want
            assert answer_records(q, data) == want
            assert answer_histogram(q, dom, counts) / n == want


def test_workload_answers_sum_to_one():
    rng = np.random.default_rng(0)
    dom = Domain(("a", "b", "c"), (3, 2, 4))
    rec = np.column_stack([rng.integers(0, s, size=40) for s in dom.sizes])
    qs = build_workloads(dom, 2)
    ans = qs.answers_records(Dataset(dom, rec))
    for w, sl in zip(qs.workloads, qs.slices()):
        assert abs(ans[sl].sum() - 1.0) < 1e-12


def test_answers_histogram_mass_path():
    # a dense mass vector: its 1-way marginals
    dom = Domain(("a", "b"), (2, 2))
    qs = build_workloads(dom, 1)
    ans = qs.answers_mass(np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(ans, [0.3, 0.7, 0.4, 0.6])


def test_product_query_frozen_example():
    # p = (0.3,0.7 | 0.2,0.8), S = {0,1}, targets (1,0) -> 0.7*0.2 = 0.14
    dom = Domain(("a", "b"), (2, 2))
    p = np.array([0.3, 0.7, 0.2, 0.8])
    q = MarginalQuery((0, 1), (1, 0))
    assert abs(product_query(q, p, dom) - 0.14) < 1e-12


def test_product_query_rejects_unnormalized():
    dom = Domain(("a",), (2,))
    with pytest.raises(DataError):
        product_query(MarginalQuery((0,), (0,)), np.array([0.5, 0.6]), dom)


def test_answer_batch_is_mean_of_products():
    dom = Domain(("a", "b"), (2, 2))
    P = np.array([[0.3, 0.7, 0.2, 0.8], [1.0, 0.0, 0.5, 0.5]])
    q = MarginalQuery((0, 1), (1, 0))
    want = (0.7 * 0.2 + 0.0 * 0.5) / 2
    assert abs(answer_batch(q, P, dom) - want) < 1e-12


def _normalized_rows(rng, dom, B):
    P = np.empty((B, dom.onehot_width))
    for a in range(dom.num_attrs):
        off, sz = dom.offset(a), dom.sizes[a]
        block = rng.random((B, sz))
        P[:, off : off + sz] = block / block.sum(axis=1, keepdims=True)
    return P


def test_product_answers_matches_single():
    rng = np.random.default_rng(5)
    dom = Domain(("a", "b", "c"), (3, 2, 4))
    qs = build_workloads(dom, 2)
    P = _normalized_rows(rng, dom, 7)
    ans = product_answers(P, qs)
    for qi in range(qs.total_queries):
        assert abs(ans[qi] - answer_batch(query_of(qs, qi), P, dom)) < 1e-12
    # a subset of query ids answers just those, in the given order
    picks = np.array([5, 0, 11, 5])
    assert np.array_equal(product_answers(P, qs, picks), ans[picks])


RELAXED_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 4, 6, 8)


@pytest.mark.parametrize(
    "sizes,k,B,clipped",
    [
        (RELAXED_SIZES, 1, 5, False),
        (RELAXED_SIZES, 2, 5, False),
        (RELAXED_SIZES, 3, 3, False),
        ((3, 2, 5, 4, 2), 4, 6, False),
        ((3, 2, 5, 4, 2), 3, 1, False),
        ((3, 2, 5, 4, 2), 2, 4, True),
    ],
)
def test_full_product_answers_match_gather(sizes, k, B, clipped):
    rng = np.random.default_rng(sum(sizes) + 10 * k + B)
    dom = Domain(tuple(f"a{i}" for i in range(len(sizes))), sizes)
    qs = build_workloads(dom, k)
    if clipped:  # rows of the clipping variant: blocks in [0, 1], not normalized
        P = np.clip(rng.normal(0.5, 0.5, size=(B, dom.onehot_width)), 0.0, 1.0)
    else:
        P = _normalized_rows(rng, dom, B)
    gather = P[:, qs.idx].prod(axis=2).mean(axis=0)
    assert np.abs(product_answers(P, qs) - gather).max() < 1e-12


def test_full_product_answers_chunk_rows(monkeypatch):
    # B * prod(sizes[:-1]) = 6 * 20 is far over a 7-element budget, so every
    # prefix is contracted in several row chunks, answers and gradient alike,
    # at every marginal order
    import dpsynth.queries as queries

    rng = np.random.default_rng(2)
    dom = Domain(("a", "b", "c", "d"), (4, 5, 3, 2))
    P = _normalized_rows(rng, dom, 6)
    cases = []
    for k in (1, 2, 3, 4):
        qs = build_workloads(dom, k)
        coeff = rng.standard_normal(qs.total_queries)
        cases.append((qs, coeff, product_answers(P, qs), product_answers_grad(P, qs, coeff)))
    monkeypatch.setattr(queries, "_CHUNK_TARGET", 7)
    assert len(queries._row_chunks(6, 20)) == 6
    for qs, coeff, *want in cases:
        assert np.abs(product_answers(P, qs) - want[0]).max() < 1e-12
        assert np.abs(product_answers(P, qs) - P[:, qs.idx].prod(axis=2).mean(axis=0)).max() < 1e-12
        assert np.abs(product_answers_grad(P, qs, coeff) - want[1]).max() < 1e-12
        # the gather chunks its queries under the same budget
        ids = np.arange(qs.total_queries)
        assert np.abs(product_answers(P, qs, ids) - want[0]).max() < 1e-12
        assert np.abs(product_answers_grad(P, qs, coeff, ids) - want[1]).max() < 1e-12


def test_prefix_plan_groups_workloads_that_are_not_adjacent():
    dom = Domain(tuple("abcde"), (2, 3, 4, 2, 3))
    qs = QuerySet.from_subsets(dom, [(2, 3, 4), (0, 1, 2), (1, 3, 4), (0, 1, 4)])
    groups, perm = qs._prefix_plan
    assert [(g.prefix, g.workloads) for g in groups] == [((2, 3), (0,)), ((0, 1), (1, 3)), ((1, 3), (2,))]
    # (0, 1)'s last blocks are c then e, side by side
    assert np.array_equal(groups[1].lasts, np.r_[5:9, 11:14])
    assert np.array_equal(np.sort(perm), np.arange(qs.total_queries))


# subsets given out of lexicographic order, with shared prefixes apart and
# one workload's attributes unsorted; k=1 (empty prefix); k=4; workloads
# over every attribute, in unsorted orders
PLAN_CASES = [
    ((2, 3, 4, 2, 3), [(2, 3, 4), (0, 1, 2), (1, 3, 4), (0, 1, 4), (1, 0, 3)]),
    ((3, 2, 4, 2), [(3,), (0,), (2,)]),
    ((2, 3, 2, 4, 3), [(1, 2, 3, 4), (0, 1, 2, 3), (0, 2, 3, 4), (0, 1, 2, 4)]),
    ((2, 3, 4), [(2, 0, 1), (1, 2, 0)]),
]


@pytest.mark.parametrize("sizes,subsets", PLAN_CASES)
def test_answers_records_by_prefix_match_per_record_count(sizes, subsets):
    rng = np.random.default_rng(len(subsets))
    dom = Domain(tuple(f"a{i}" for i in range(len(sizes))), sizes)
    qs = QuerySet.from_subsets(dom, subsets)
    # records as a strided view of a wider array, so no column is contiguous
    wide = np.column_stack([rng.integers(0, s, size=2 * 41) for s in (5, *sizes)])
    data = Dataset(dom, wide[::2, 1:])
    assert not data.records.flags.c_contiguous and not data.records.flags.f_contiguous
    counts = np.zeros(qs.total_queries, dtype=np.int64)
    for row in data.records:
        for w in qs.workloads:
            counts[w.offset + np.ravel_multi_index(tuple(row[list(w.features)]), w.sizes)] += 1
    assert np.array_equal(qs.answers_records(data), counts / data.n)
    # the histogram and support evaluators follow each workload's own order too
    hist = np.bincount(data.cells(), minlength=dom.total_cells)
    assert np.array_equal(qs.answers_mass(hist) / data.n, counts / data.n)
    cells = np.flatnonzero(hist)
    assert np.array_equal(qs.answers_support(cells, hist[cells].astype(float)) / data.n, counts / data.n)


@pytest.mark.parametrize("sizes,subsets", PLAN_CASES)
def test_full_product_answers_by_prefix_match_gather(sizes, subsets, monkeypatch):
    import dpsynth.queries as queries

    rng = np.random.default_rng(7)
    dom = Domain(tuple(f"a{i}" for i in range(len(sizes))), sizes)
    qs = QuerySet.from_subsets(dom, subsets)
    P = _normalized_rows(rng, dom, 6)
    gather = P[:, qs.idx].prod(axis=2).mean(axis=0)
    coeff = rng.standard_normal(qs.total_queries)
    gather_grad = product_answers_grad(P, qs, coeff, np.arange(qs.total_queries))
    assert np.abs(product_answers(P, qs) - gather).max() < 1e-12
    assert np.abs(product_answers_grad(P, qs, coeff) - gather_grad).max() < 1e-12
    monkeypatch.setattr(queries, "_CHUNK_TARGET", 7)
    assert np.abs(product_answers(P, qs) - gather).max() < 1e-12
    assert np.abs(product_answers_grad(P, qs, coeff) - gather_grad).max() < 1e-12


@pytest.mark.parametrize(
    "sizes,k,B", [((2, 3, 2), 3, 4), ((3, 2, 4, 2), 2, 1), ((4, 3), 1, 3), ((2, 3, 2, 4, 3), 4, 5)]
)
def test_full_product_gradient_matches_subset(sizes, k, B, monkeypatch):
    import dpsynth.queries as queries

    rng = np.random.default_rng(9)
    dom = Domain(tuple(f"a{i}" for i in range(len(sizes))), sizes)
    qs = build_workloads(dom, k)
    P = rng.random((B, dom.onehot_width)) * 0.9 + 0.05
    coeff = rng.standard_normal(qs.total_queries)
    full = product_answers_grad(P, qs, coeff)
    subset = product_answers_grad(P, qs, coeff, np.arange(qs.total_queries))
    assert np.abs(full - subset).max() < 1e-12
    # one row per chunk
    monkeypatch.setattr(queries, "_CHUNK_TARGET", 1)
    assert np.abs(product_answers_grad(P, qs, coeff) - subset).max() < 1e-12


RELAXED_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 4, 6, 8)


@pytest.mark.parametrize("case", ["all-3-way", "sampled", "unsorted", "1-way"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("forced_chunks", [False, True])
def test_whole_collection_answers_equal_the_parts_formula(case, order, forced_chunks, monkeypatch):
    # each group's contraction written in place equals the per-group parts,
    # summed, concatenated and permuted, bit for bit
    import dpsynth.queries as queries

    rng = np.random.default_rng(11)
    dom = Domain(tuple(f"a{i}" for i in range(len(RELAXED_SIZES))), RELAXED_SIZES)
    qs = {
        "all-3-way": lambda: build_workloads(dom, 3),
        "sampled": lambda: build_workloads(dom, 3, 40, rng),
        # prefix (5, 1) before (3, 0), and its last blocks 7, 2, 9 out of order
        "unsorted": lambda: QuerySet.from_subsets(dom, [(5, 1, 7), (3, 0, 2), (5, 1, 2), (0, 3, 11), (5, 1, 9)]),
        "1-way": lambda: build_workloads(dom, 1),
    }[case]()
    runs = [isinstance(g.lasts, slice) for g in qs._prefix_plan[0]]
    assert all(runs) == (case in ("all-3-way", "1-way"))
    B = 6 if forced_chunks else 100
    P = np.asarray(_normalized_rows(rng, dom, B), order=order)
    if forced_chunks:  # at most two rows per chunk, at every prefix
        monkeypatch.setattr(queries, "_CHUNK_TARGET", 2)
        assert len(queries._row_chunks(B, 1)) == 3
    want = product_answers_parts(P, qs)
    assert np.array_equal(product_answers(P, qs), want)
    # the prefix outer products passed in, as GEM^Pub's pretraining passes them
    assert np.array_equal(product_answers(P, qs, outers=prefix_outers(P, qs)), want)
    assert np.array_equal(qs.answers_probs(P), want)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_leave_one_out_products_equal_the_per_slot_loop(k):
    import dpsynth.queries as queries

    rng = np.random.default_rng(k)
    vals = rng.uniform(size=(7, k, 5))
    vals[0, 0] = 0.0  # a zero value keeps its slot's product nonzero
    weights = rng.standard_normal(7)
    assert np.array_equal(queries._loo(vals, weights), loo_loop(vals, weights))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("forced_chunks", [False, True])
def test_prepared_gather_matches_oracle(k, order, forced_chunks, monkeypatch):
    # every query of the collection, which share one-hot columns (across
    # workloads, and within one), plus repeated and unordered ids
    import dpsynth.queries as queries

    rng = np.random.default_rng(30 + k)
    dom = Domain(("a", "b", "c", "d"), (3, 2, 4, 2))
    qs = build_workloads(dom, k)
    B = 5
    P = np.asarray(_normalized_rows(rng, dom, B), order=order)
    ids = np.r_[np.arange(qs.total_queries), rng.choice(qs.total_queries, size=7)]
    coeff = rng.standard_normal(ids.size)
    if forced_chunks:  # three ids per chunk
        monkeypatch.setattr(queries, "_CHUNK_TARGET", 3 * k * dom.onehot_width)
    gather = qs.gather(ids, B)
    assert len(gather.chunks) == (-(-ids.size // 3) if forced_chunks else 1)

    ans = product_answers(P, qs, gather)
    want = [answer_batch(query_of(qs, int(q)), P, dom) for q in ids]
    assert np.abs(ans - want).max() < 1e-12
    dP = product_answers_grad(P, qs, coeff, gather)
    assert dP.flags.c_contiguous == (order == "C") and dP.flags.f_contiguous == (order == "F")
    # the same ids passed raw are prepared on the spot, with the same result
    assert np.array_equal(product_answers(P, qs, ids), ans)
    assert np.array_equal(product_answers_grad(P, qs, coeff, ids), dP)

    h = 1e-6
    for j in rng.choice(P.size, size=12, replace=False):
        r, c = divmod(int(j), P.shape[1])
        up, dn = P.copy(order="K"), P.copy(order="K")
        up[r, c] += h
        dn[r, c] -= h
        fd = (coeff @ product_answers(up, qs, gather) - coeff @ product_answers(dn, qs, gather)) / (2 * h)
        assert abs(fd - dP[r, c]) < 1e-6


def test_prepared_gather_of_no_ids():
    dom = Domain(("a", "b"), (3, 2))
    qs = build_workloads(dom, 2)
    P = _normalized_rows(np.random.default_rng(0), dom, 4)
    gather = qs.gather(np.array([], dtype=np.int64), 4)
    assert product_answers(P, qs, gather).shape == (0,)
    assert np.array_equal(product_answers_grad(P, qs, np.array([]), gather), np.zeros_like(P))


def test_product_answers_grad_finite_differences():
    rng = np.random.default_rng(9)
    dom = Domain(("a", "b", "c"), (2, 3, 2))
    qs = build_workloads(dom, 3)
    B = 4
    P = rng.random((B, dom.onehot_width)) * 0.9 + 0.05
    coeff = rng.standard_normal(qs.total_queries)
    # the whole collection (dense contraction) and all ids (gather)
    for qidx in (None, np.arange(qs.total_queries)):
        g = product_answers_grad(P, qs, coeff, qidx)

        def scalar(Pflat):
            ans = product_answers(Pflat.reshape(P.shape), qs, qidx)
            return float(coeff @ ans)

        h = 1e-6
        flat = P.ravel().copy()
        for j in rng.choice(flat.size, size=12, replace=False):
            up = flat.copy(); up[j] += h
            dn = flat.copy(); dn[j] -= h
            fd = (scalar(up) - scalar(dn)) / (2 * h)
            assert abs(fd - g.ravel()[j]) < 1e-5


def test_query_set_takes_k_from_its_workloads():
    dom = Domain(("a", "b", "c"), (2, 3, 4))
    qs = QuerySet.from_subsets(dom, [(0, 2), (1, 2)])
    assert qs.k == 2 and qs.idx.shape == (2 * 4 + 3 * 4, 2)
    # mixed orders would leave the idx columns past a 1-way query unset
    with pytest.raises(DataError, match="mix marginal orders"):
        QuerySet.from_subsets(dom, [(0,), (1, 2)])


@pytest.mark.parametrize("subset", [(0, -1), (0, 0), (0, 5)])
def test_from_subsets_rejects_repeated_or_out_of_range_attributes(subset):
    dom = Domain(("a", "b", "c"), (2, 3, 4))
    with pytest.raises(DataError, match="distinct attributes"):
        QuerySet.from_subsets(dom, [(0, 1), subset])


def test_workload_of_first_last_and_out_of_range():
    dom = Domain(("a", "b", "c", "d"), (2, 3, 4, 2))
    for k in (1, 2, 3):
        qs = build_workloads(dom, k)
        for wi, w in enumerate(qs.workloads):
            assert qs.workload_of(w.offset) == wi
            assert qs.workload_of(w.offset + w.n_queries - 1) == wi
        for bad in (-1, qs.total_queries, qs.total_queries + 5):
            with pytest.raises(IndexError):
                qs.workload_of(bad)
            with pytest.raises(IndexError):
                qs.workload_of(np.array([0, bad]))
        # an array of ids gives an array of workloads, in its order
        lasts = np.array([w.offset + w.n_queries - 1 for w in qs.workloads])
        assert np.array_equal(qs.workload_of(lasts[::-1]), np.arange(len(qs.workloads))[::-1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_answers_records_vs_histogram_property(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(2, 4, size=3))
    dom = Domain(("a", "b", "c"), sizes)
    rec = np.column_stack([rng.integers(0, s, size=23) for s in sizes])
    data = Dataset(dom, rec)
    qs = build_workloads(dom, 2)
    counts = np.bincount(data.cells(), minlength=dom.total_cells)
    assert np.array_equal(qs.answers_records(data), qs.answers_mass(counts) / data.n)


def test_answers_mass_matches_histogram():
    rng = np.random.default_rng(3)
    dom = Domain(("a", "b"), (3, 4))
    qs = build_workloads(dom, 2)
    m = rng.random(dom.total_cells)
    m /= m.sum()
    want = [answer_histogram(query_of(qs, qi), dom, m) for qi in range(qs.total_queries)]
    assert np.allclose(qs.answers_mass(m), want, atol=1e-15)


def test_answers_support_matches_dense():
    rng = np.random.default_rng(4)
    dom = Domain(("a", "b", "c"), (2, 3, 2))
    qs = build_workloads(dom, 2)
    cells = np.array([0, 3, 7, 11])
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    dense = np.zeros(dom.total_cells)
    dense[cells] = probs
    assert np.allclose(qs.answers_support(cells, probs), qs.answers_mass(dense), atol=1e-15)
    # a precomputed support map gives the same answers
    qmap = qs._cell_locals(cells)
    with_map = qs.answers_support(cells, probs, qmap)
    assert np.array_equal(with_map, qs.answers_support(cells, probs))


def _bincount_answers(qs, mass, cells=None):
    """Answers through per-cell query maps, one bincount per workload (all cells by default)."""
    if cells is None:
        cells = np.arange(qs.domain.total_cells)
    values = qs.domain.decode(cells)
    out = np.empty(qs.total_queries)
    for w, sl in zip(qs.workloads, qs.slices()):
        loc = np.ravel_multi_index(values[:, list(w.features)].T, w.sizes)
        out[sl] = np.bincount(loc, weights=mass, minlength=w.n_queries)
    return out


def _random_queries(rng):
    d = int(rng.integers(1, 5))
    sizes = tuple(int(s) for s in rng.integers(2, 5, size=d))
    dom = Domain(tuple(f"a{i}" for i in range(d)), sizes)
    return dom, build_workloads(dom, int(rng.integers(1, d + 1)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_cells_of_matches_scan(seed):
    rng = np.random.default_rng(seed)
    dom, qs = _random_queries(rng)
    cells = np.arange(dom.total_cells)
    # a sparse, unordered support (down to one cell, so some queries meet
    # none of it): positions into it, through its support map
    support = rng.permutation(dom.total_cells)[: int(rng.integers(1, dom.total_cells))]
    qmap = qs._cell_locals(support)
    for qi in range(qs.total_queries):
        want = np.flatnonzero(query_mask(dom, query_of(qs, qi), cells))
        assert np.array_equal(qs.cells_of(qi), want)
        want = np.flatnonzero(query_mask(dom, query_of(qs, qi), support))
        assert np.array_equal(qs.cells_of(qi, qmap), want)
    assert sum(qs.cells_of(qi, qmap).size for qi in range(qs.total_queries)) == len(qs.workloads) * support.size


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_cell_ids_name_the_query_each_cell_meets(seed):
    # workloads in any attribute order, any cells of the full domain in any order
    rng = np.random.default_rng(seed)
    dom, _ = _random_queries(rng)
    d = dom.num_attrs
    k = int(rng.integers(1, d + 1))
    subsets = [tuple(int(f) for f in rng.permutation(d)[:k]) for _ in range(int(rng.integers(1, 4)))]
    qs = QuerySet.from_subsets(dom, subsets)
    cells = rng.permutation(dom.total_cells)[: int(rng.integers(0, dom.total_cells + 1))]
    values = dom.decode(cells)
    want = [w.offset + np.ravel_multi_index(values[:, list(w.features)].T, w.sizes) for w in qs.workloads]
    assert np.array_equal(qs.cell_ids(cells), np.array(want).reshape(len(qs.workloads), cells.size))
    assert np.array_equal(qs.cell_ids(cells), SupportMap(qs, cells).ids)


@pytest.mark.parametrize(
    "sizes,workloads",
    [
        ((2, 3, 4), [(2, 0, 1)]),
        ((2, 3, 4, 2, 3), [(2, 3, 4), (0, 1, 2), (1, 3, 4), (1, 0, 3)]),
        ((3, 2, 4, 2, 3), (2, 4)),  # 4 of the 10 two-way workloads, sampled
        ((3, 2, 4), (1, None)),
    ],
)
def test_transpose_mass_matches_scan(sizes, workloads):
    rng = np.random.default_rng(len(sizes))
    dom = Domain(tuple(f"a{i}" for i in range(len(sizes))), sizes)
    if isinstance(workloads, tuple):
        qs = build_workloads(dom, workloads[0], count=workloads[1], rng=rng)
    else:
        qs = QuerySet.from_subsets(dom, workloads)
    ids = np.arange(qs.total_queries)
    sparse = np.where(rng.random(ids.size) < 0.2, rng.integers(1, 4, ids.size), 0)
    for weights in (rng.standard_normal(ids.size), sparse, np.zeros(ids.size)):
        got = qs.transpose_mass(weights)
        assert np.abs(got - cell_sums_loop(qs, ids, weights)).max() < 1e-12
        # the adjoint of the dense evaluator
        mass = rng.dirichlet(np.ones(dom.total_cells))
        assert abs(qs.answers_mass(mass) @ weights - mass @ got) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_answers_mass_matches_bincount(seed):
    rng = np.random.default_rng(seed)
    dom, qs = _random_queries(rng)
    mass = rng.dirichlet(np.ones(dom.total_cells) * 0.5)
    assert np.abs(qs.answers_mass(mass) - _bincount_answers(qs, mass)).max() <= 1e-15


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_answers_support_matches_per_workload_bincount(seed):
    # the one bincount over the support map adds each query's cells in the
    # order of one bincount per workload, so the answers are bit-identical
    rng = np.random.default_rng(seed)
    dom, qs = _random_queries(rng)
    cells = rng.permutation(dom.total_cells)[: int(rng.integers(1, dom.total_cells))]  # never the full domain
    probs = rng.dirichlet(np.ones(cells.size))
    assert np.array_equal(qs.answers_support(cells, probs), _bincount_answers(qs, probs, cells))


def test_answers_support_full_domain_uses_dense_path():
    rng = np.random.default_rng(6)
    dom = Domain(("a", "b", "c"), (2, 3, 4))
    qs = build_workloads(dom, 2)
    probs = rng.dirichlet(np.ones(dom.total_cells))
    cells = np.arange(dom.total_cells)
    assert np.array_equal(qs.answers_support(cells, probs), qs.answers_mass(probs))
    # the same support in another order takes the per-support path
    perm = rng.permutation(dom.total_cells)
    assert np.allclose(qs.answers_support(cells[perm], probs[perm]), qs.answers_mass(probs), atol=1e-15)

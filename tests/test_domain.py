import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth import (
    CapacityError,
    DataError,
    Dataset,
    Domain,
    DomainError,
    MwemConfig,
    MwemSynthesizer,
    PepSynthesizer,
    SupportDistribution,
    build_workloads,
)
from dpsynth.domain import MASS_FLOOR, CellWeights, load_npz, normalize_mass
from dpsynth.privacy import MeasurementLedger

from oracles import normalize_mass_reference


def test_domain_validation():
    with pytest.raises(DomainError):
        Domain((), ())
    with pytest.raises(DomainError):
        Domain(("a", "a"), (2, 2))
    with pytest.raises(DomainError):
        Domain(("a",), (1,))  # size-1 attributes carry no information


def test_domain_counts():
    dom = Domain(("a", "b", "c"), (2, 3, 4))
    assert dom.num_attrs == 3
    assert dom.total_cells == 24
    assert dom.onehot_width == 9
    assert dom.offset(0) == 0 and dom.offset(1) == 2 and dom.offset(2) == 5


def test_block_layout_arrays():
    dom = Domain(("a", "b", "c"), (2, 3, 4))
    assert dom.block_starts.tolist() == [dom.offset(a) for a in range(dom.num_attrs)]
    assert dom.block_ids.tolist() == [a for a, sz in enumerate(dom.sizes) for _ in range(sz)]
    for arr in (dom.block_starts, dom.block_ids):
        with pytest.raises(ValueError):
            arr[0] = 1
    # equality, hashing and JSON read names and sizes only
    twin = Domain.from_json(dom.to_json())
    assert twin == dom and hash(twin) == hash(dom) and twin.to_json() == dom.to_json()


def test_encode_row_major_last_fastest():
    # cell index = a*(3*4) + b*4 + c
    dom = Domain(("a", "b", "c"), (2, 3, 4))
    rec = np.array([[1, 2, 3], [0, 0, 0], [0, 1, 0]])
    assert dom.encode(rec).tolist() == [23, 0, 4]
    back = dom.decode(np.array([23, 0, 4]))
    assert np.array_equal(back, rec)


domains = st.builds(
    lambda sizes: Domain(tuple(f"a{i}" for i in range(len(sizes))), tuple(sizes)),
    st.lists(st.integers(2, 6), min_size=1, max_size=4),
)


@settings(max_examples=50, deadline=None)
@given(domains, st.integers(0, 2**31 - 1))
def test_encode_decode_roundtrip(dom, seed):
    rng = np.random.default_rng(seed)
    rec = np.column_stack([rng.integers(0, s, size=17) for s in dom.sizes])
    cells = dom.encode(rec)
    assert cells.min() >= 0 and cells.max() < dom.total_cells
    assert np.array_equal(dom.decode(cells), rec)


def test_encode_rejects_out_of_range():
    dom = Domain(("a",), (3,))
    with pytest.raises(DataError):
        dom.encode(np.array([[3]]))
    with pytest.raises(DataError):
        dom.encode(np.array([[-1]]))


def test_flat_indices_past_int64_raise_capacity_error():
    dom = Domain(tuple(f"a{i}" for i in range(25)), (10,) * 25)  # 10^25 cells
    rec = np.zeros((3, 25), dtype=np.int64)
    with pytest.raises(CapacityError):
        dom.encode(rec)
    with pytest.raises(CapacityError):
        dom.decode(np.zeros(3, dtype=np.int64))
    with pytest.raises(CapacityError):
        SupportDistribution.from_dataset(Dataset(dom, rec))
    # 2^63 cells is the last size whose indices all fit in int64
    edge = Domain(tuple(f"a{i}" for i in range(63)), (2,) * 63)
    top = np.ones((1, 63), dtype=np.int64)
    assert edge.encode(top)[0] == 2**63 - 1
    assert np.array_equal(edge.decode(edge.encode(top)), top)


def test_domain_json_roundtrip(tmp_path):
    dom = Domain(("x", "y"), (5, 7))
    assert Domain.from_json(dom.to_json()) == dom
    p = tmp_path / "dom.json"
    dom.save(p)
    assert Domain.load(p) == dom
    # the on-disk form is plain JSON, one {name, size} entry per attribute
    obj = json.loads(p.read_text())
    assert obj["attributes"] == [{"name": "x", "size": 5}, {"name": "y", "size": 7}]


def test_dataset_validation():
    dom = Domain(("a", "b"), (2, 2))
    with pytest.raises(DataError):
        Dataset(dom, np.zeros((3, 1), dtype=np.int64))  # wrong width
    with pytest.raises(DataError):
        Dataset(dom, np.array([[0, 2]]))  # out of range


def test_from_records_frozen_example():
    # [(0,0),(0,0),(1,1),(0,1)] on a 2x2 domain -> (0.5, 0.25, 0, 0.25)
    dom = Domain(("a", "b"), (2, 2))
    data = Dataset(dom, np.array([[0, 0], [0, 0], [1, 1], [0, 1]]))
    sd = SupportDistribution.from_dataset(data)
    assert sd.cells.tolist() == [0, 1, 3]
    assert sd.probs.tolist() == [0.5, 0.25, 0.25]


def test_csv_roundtrip(tmp_path):
    dom = Domain(("a", "b"), (3, 2))
    data = Dataset(dom, np.array([[0, 1], [2, 0], [1, 1]]))
    p = tmp_path / "d.csv"
    data.to_csv(p)
    back = Dataset.from_csv(p, dom)
    assert np.array_equal(back.records, data.records)


def test_csv_reorders_by_header(tmp_path):
    dom = Domain(("a", "b"), (3, 2))
    p = tmp_path / "d.csv"
    p.write_text("b,a\n1,0\n0,2\n")
    data = Dataset.from_csv(p, dom)
    assert np.array_equal(data.records, [[0, 1], [2, 0]])


def test_csv_errors(tmp_path):
    dom = Domain(("a", "b"), (3, 2))
    p = tmp_path / "d.csv"
    p.write_text("a,c\n0,0\n")
    with pytest.raises(DataError):
        Dataset.from_csv(p, dom)
    p.write_text("a,b\n0,x\n")
    with pytest.raises(DataError) as ei:
        Dataset.from_csv(p, dom)
    assert ":2:" in str(ei.value)  # failing line number is part of the message
    p.write_text("a,b\n0,5\n")
    with pytest.raises(DataError):
        Dataset.from_csv(p, dom)


def test_normalize_mass():
    m = normalize_mass(np.array([1.0, 3.0]))
    assert np.allclose(m, [0.25, 0.75])
    with pytest.raises(DataError):
        normalize_mass(np.zeros(4))
    # tiny positive values are flushed rather than kept as denormals
    m = normalize_mass(np.array([1.0, 1e-310]))
    assert m[1] == 0.0


# entries of every magnitude, with exact zeros and values under MASS_FLOOR
_masses = st.lists(
    st.one_of(
        st.just(0.0),
        st.just(-0.0),
        st.floats(0.0, MASS_FLOOR, exclude_max=True),
        st.floats(MASS_FLOOR, 1e300),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(values=_masses)
def test_normalize_mass_matches_the_reference_bit_for_bit(values):
    mass = np.array(values)
    try:
        want = normalize_mass_reference(mass)
    except DataError:
        with pytest.raises(DataError):
            normalize_mass(mass)
        return
    got = normalize_mass(mass)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(mass, values)  # the input is left as it was


@pytest.mark.parametrize(
    "bad", [[], [np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [-1e-300, 1.0], [0.0, 0.0], [1e-301]]
)
def test_normalize_mass_refuses(bad):
    for check in (normalize_mass, normalize_mass_reference):
        with pytest.raises(DataError):
            check(np.array(bad, dtype=np.float64))


def _weights(probs):
    """CellWeights over a one-attribute domain with one cell per entry of `probs`."""
    probs = np.asarray(probs, dtype=np.float64)
    return CellWeights(probs, build_workloads(Domain(("a",), (probs.size,)), 1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 99_999), steps=st.integers(1, 60))
def test_cell_weights_low_bounds_the_smallest_weight(seed, steps):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 20))
    start = rng.dirichlet(np.full(size, 0.5))
    start[rng.random(size) < 0.2] = 0.0
    if not start.any():
        start[0] = 1.0
    w = _weights(start)
    for _ in range(steps):
        cells = np.flatnonzero(rng.random(size) < 0.4)
        inside, outside = np.exp(rng.normal(0.0, 20.0, size=2))
        if w.scale(cells, inside, outside):
            w.reset(normalize_mass(w.probs()))
        assert w._low <= w.w[w.w > 0].min()


def test_cell_weights_ask_for_renormalization():
    w = _weights([0.25, 0.25, 0.5])
    cells = np.array([0, 1])
    assert abs(w.answer(cells) - 0.5) < 1e-15
    # p = (0.25, 0.25, 0.5) -> (0.125, 0.125, 0.75): z stays inside [1/2, 2]
    assert not w.scale(cells, 0.5, 1.5)
    assert np.allclose(w.probs(), [0.125, 0.125, 0.75], atol=1e-15)
    assert np.allclose(w.answers(np.array([0, 1, 2]), np.array([0, 0, 1]), 2), [0.25, 0.75], atol=1e-15)
    # a cell pushed toward zero: once it could be under MASS_FLOOR the
    # caller must renormalize, which flushes it
    w = _weights([0.5, 0.5])
    assert not w.scale(np.array([0]), 1e-150, 1.0)
    assert w.scale(np.array([0]), 1e-152, 1.0)
    assert np.array_equal(normalize_mass(w.probs()), [0.0, 1.0])
    # the normalizer leaving [1/2, 2] also asks for it
    w = _weights([0.5, 0.5])
    assert w.scale(np.array([1]), 4.0, 1.0)
    assert np.allclose(normalize_mass(w.probs()), [0.2, 0.8], atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 4), min_size=1, max_size=4),
    k=st.integers(1, 3),
    kind=st.sampled_from(["mwem", "pep", "pep-support"]),
    seed=st.integers(0, 99_999),
    rounds=st.integers(1, 8),
)
def test_tracked_answers_equal_a_dense_pass_after_every_round(sizes, k, kind, seed, rounds):
    # MWEM and PEP answer each round from the cells their update scaled; after
    # every round the answers must equal a fresh dense pass over the weights,
    # also across renormalizations (forced by extreme targets and, for MWEM, a
    # small step divisor), weights the caller resets, and two updates with no
    # read between them
    rng = np.random.default_rng(seed)
    dom = Domain(tuple("abcd"[: len(sizes)]), tuple(sizes))
    qs = build_workloads(dom, min(k, len(sizes)))
    if kind == "mwem":
        synth = MwemSynthesizer(dom, qs, cfg=MwemConfig(eta=float(rng.choice([0.05, 2.0, 2.0])), cycles=2))
    elif kind == "pep":
        synth = PepSynthesizer(dom, qs)
    else:
        size = int(rng.integers(1, dom.total_cells + 1))
        support = np.sort(rng.choice(dom.total_cells, size=size, replace=False))
        synth = PepSynthesizer(dom, qs, support_cells=support, init_probs=rng.dirichlet(np.ones(size)))
    if kind == "pep":  # the full domain lists no cells: the weights are indexed by flat cell
        assert synth.cells is None and synth.probs.size == dom.total_cells
    cells = synth.cells if kind == "pep-support" else np.arange(dom.total_cells)

    def dense():
        return qs.answers_support(cells, synth.weights.w) / synth.weights.z

    assert np.abs(synth.answers() - dense()).max() <= 1e-12
    led = MeasurementLedger()
    for t in range(1, rounds + 1):
        q = int(rng.integers(qs.total_queries))
        if rng.random() < 0.15:  # extreme: steps that renormalize
            target = float(rng.choice([0.0, 1.0]))
        else:  # near the current answer: steps that touch only q's cells
            target = min(float(dense()[q] * rng.uniform(0.5, 1.5)), 1.0)
        led.record(q, target, t)
        swap = rng.random()
        if swap < 0.1:  # the caller's weights, before the update
            synth.weights.reset(rng.dirichlet(np.ones(cells.size)))
        synth.update(led)
        if swap > 0.9:  # and after it
            synth.weights.reset(rng.dirichlet(np.ones(cells.size)))
        if rng.random() < 0.2:
            synth.update(led)
        assert np.abs(synth.answers() - dense()).max() <= 1e-12


def test_histogram_validation():
    dom = Domain(("a",), (2,))
    with pytest.raises(DataError):
        SupportDistribution(dom, np.array([0, 1]), np.array([0.5, 0.4, 0.1]))
    with pytest.raises(DataError):
        SupportDistribution(dom, np.array([], dtype=np.int64), np.array([]))


def test_sample_records_concentrates():
    dom = Domain(("a",), (4,))
    sd = SupportDistribution(dom, np.arange(4), np.array([0.0, 1.0, 0.0, 0.0]))
    data = sd.sample_dataset(64, np.random.default_rng(0))
    assert np.all(data.records == 1)


def test_sample_records_frequencies():
    dom = Domain(("a",), (2,))
    sd = SupportDistribution(dom, np.arange(2), np.array([0.2, 0.8]))
    data = sd.sample_dataset(20000, np.random.default_rng(7))
    frac = data.records.mean()
    assert abs(frac - 0.8) < 0.02


def test_support_distribution_roundtrip(tmp_path):
    dom = Domain(("a", "b"), (3, 3))
    sd = SupportDistribution(dom, np.array([0, 4, 8]), np.array([0.5, 0.25, 0.25]))
    p = tmp_path / "dist.npz"
    sd.save_npz(p)
    back = load_npz(p)
    assert back.domain == dom
    assert np.array_equal(back.cells, sd.cells)
    assert np.allclose(back.probs, sd.probs)


def _fitted_mwem(dom, qs):
    synth = MwemSynthesizer(dom, qs)
    led = MeasurementLedger()
    for t, q in enumerate((1, 7, 20), start=1):
        led.record(q, 0.3, t)
    synth.update(led)
    return synth.finalize()


def test_full_domain_artifact_holds_probs_alone(tmp_path):
    # a full-domain distribution lists no cells, and neither does its archive;
    # one that lists every cell (the older layout) loads to the same answers
    # and the same fixed-seed samples
    dom = Domain(("a", "b", "c"), (3, 4, 2))
    qs = build_workloads(dom, 2)
    out = _fitted_mwem(dom, qs)
    assert out.cells is None and out.probs.size == dom.total_cells
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    out.save_npz(new)
    with np.load(new) as z:
        assert sorted(z.files) == ["domain", "probs"]
    np.savez(old, cells=np.arange(dom.total_cells), probs=out.probs, domain=dom.to_json())
    a, b = load_npz(new), load_npz(old)
    assert a.cells is None and np.array_equal(b.cells, np.arange(dom.total_cells))
    assert np.array_equal(a.probs, out.probs) and np.array_equal(b.probs, out.probs)
    assert np.array_equal(a.answers(qs), out.answers(qs))
    assert np.array_equal(b.answers(qs), out.answers(qs))
    draws = [d.sample_dataset(500, np.random.default_rng(4)).records for d in (a, b)]
    assert np.array_equal(draws[0], draws[1])


@pytest.mark.parametrize("size", [23, 25])
def test_probs_only_archive_needs_one_probability_per_cell(tmp_path, size):
    dom = Domain(("a", "b", "c"), (3, 4, 2))
    p = tmp_path / "dist.npz"
    np.savez(p, probs=np.full(size, 1.0 / size), domain=dom.to_json())
    with pytest.raises(DataError):
        load_npz(p)


def test_explicit_full_range_answers_as_the_dense_path():
    # every cell listed in order (a search output that reached every cell, a
    # public table covering the domain, an older artifact) takes the dense
    # `answers_mass` path bit for bit, in a distribution and in PEP
    rng = np.random.default_rng(3)
    # 360 cells: big enough that a per-support bincount rounds otherwise
    dom = Domain(("a", "b", "c", "d"), (4, 5, 6, 3))
    qs = build_workloads(dom, 2)
    full = np.arange(dom.total_cells)
    p = rng.dirichlet(np.ones(dom.total_cells))
    assert np.array_equal(SupportDistribution(dom, full, p).answers(qs), qs.answers_mass(p))
    led = MeasurementLedger()
    for t, q in enumerate(rng.choice(qs.total_queries, size=4, replace=False), start=1):
        led.record(int(q), float(rng.uniform(0.1, 0.9)), t)
    listed = PepSynthesizer(dom, qs, support_cells=full, init_probs=p)
    bare = PepSynthesizer(dom, qs, init_probs=p)
    for synth in (listed, bare):
        synth.update(led)
    assert np.array_equal(listed.answers(), bare.answers())
    out, bare_out = listed.finalize(), bare.finalize()
    assert np.array_equal(out.cells, full) and bare_out.cells is None
    assert np.array_equal(out.probs, bare_out.probs)
    assert np.array_equal(out.answers(qs), qs.answers_mass(out.probs))


def test_support_from_dataset_merges_duplicates():
    dom = Domain(("a",), (3,))
    data = Dataset(dom, np.array([[0], [0], [2]]))
    sd = SupportDistribution.from_dataset(data)
    assert sd.cells.tolist() == [0, 2]
    assert np.allclose(sd.probs, [2 / 3, 1 / 3])


def test_support_sample_dataset_deterministic():
    dom = Domain(("a", "b"), (2, 2))
    sd = SupportDistribution(dom, np.array([1, 2]), np.array([0.5, 0.5]))
    a = sd.sample_dataset(50, np.random.default_rng(3)).records
    b = sd.sample_dataset(50, np.random.default_rng(3)).records
    assert np.array_equal(a, b)
    assert set(dom.encode(a).tolist()) <= {1, 2}

"""Bundled correlated-categorical benchmark generator."""
import numpy as np
import pytest

from dpsynth.domain import ConfigError
from dpsynth.queries import build_workloads
from dpsynth.toy import gen_toy


def test_shapes_and_ranges():
    dom, data = gen_toy(attrs=4, sizes=8, n=2000, seed=0)
    assert dom.names == ("a0", "a1", "a2", "a3")
    assert dom.sizes == (8, 8, 8, 8)
    assert data.records.shape == (2000, 4)
    assert data.records.min() >= 0
    assert (data.records.max(axis=0) < np.array(dom.sizes)).all()


def test_per_attribute_sizes():
    dom, data = gen_toy(attrs=3, sizes=[2, 5, 3], n=100, seed=1)
    assert dom.sizes == (2, 5, 3)
    assert (data.records.max(axis=0) < np.array([2, 5, 3])).all()


def test_deterministic_per_seed():
    _, a = gen_toy(attrs=3, sizes=4, n=500, seed=7)
    _, b = gen_toy(attrs=3, sizes=4, n=500, seed=7)
    assert np.array_equal(a.records, b.records)


def test_distinct_across_seeds():
    _, a = gen_toy(attrs=3, sizes=4, n=500, seed=0)
    _, b = gen_toy(attrs=3, sizes=4, n=500, seed=1)
    assert not np.array_equal(a.records, b.records)


def test_marginals_far_from_uniform():
    # the mixture components are sharply peaked, so 1-way marginals of the
    # sample should sit well away from the uniform distribution
    dom, data = gen_toy(attrs=4, sizes=8, n=2000, seed=0)
    qs = build_workloads(dom, 1)
    ans = qs.answers_records(data)
    assert np.abs(ans - 1.0 / 8.0).max() > 0.1


def test_validation():
    with pytest.raises(ConfigError):
        gen_toy(attrs=0)
    with pytest.raises(ConfigError):
        gen_toy(n=0)
    with pytest.raises(ConfigError):
        gen_toy(components=0)
    with pytest.raises(ConfigError):
        gen_toy(attrs=3, sizes=[2, 2])
    with pytest.raises(ConfigError):
        gen_toy(sizes=1)
    with pytest.raises(ConfigError):
        gen_toy(attrs=2, sizes=[3, 1])

"""Bundled sampler for small correlated categorical benchmarks.

Records are drawn from a random mixture of a few low-entropy product
components: mixture weights ~ Dirichlet(2), and each component gives every
attribute its own sharply peaked distribution ~ Dirichlet(0.15). The peaks
make low-order marginals far from uniform, which is exactly what the
synthesizers are supposed to capture.
"""
from __future__ import annotations

import numpy as np

from .domain import ConfigError, Dataset, Domain


def gen_toy(
    attrs: int = 4,
    sizes: int | list[int] = 8,
    n: int = 2000,
    seed: int = 0,
    components: int = 3,
) -> tuple[Domain, Dataset]:
    if attrs < 1 or n < 1 or components < 1:
        raise ConfigError("attrs, n, components must be >= 1")
    size_list = [sizes] * attrs if isinstance(sizes, int) else list(sizes)
    if len(size_list) != attrs or min(size_list) < 2:
        raise ConfigError("need one size >= 2 per attribute")
    domain = Domain(tuple(f"a{i}" for i in range(attrs)), tuple(size_list))
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(components, 2.0))
    # component c, attribute a -> distribution over that attribute's values
    dists = [
        [rng.dirichlet(np.full(sz, 0.15)) for sz in size_list] for _ in range(components)
    ]
    comp = rng.choice(components, size=n, p=weights)
    rec = np.empty((n, attrs), dtype=np.int64)
    for a, sz in enumerate(size_list):
        cdfs = np.cumsum([dists[c][a] for c in range(components)], axis=1)
        u = rng.random(n)
        rec[:, a] = np.minimum((cdfs[comp] < u[:, None]).sum(axis=1), sz - 1)
    return domain, Dataset(domain, rec)

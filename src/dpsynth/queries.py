"""k-way marginal workloads as flat query collections.

A workload is one feature subset S (|S| = k); its queries are the indicator
counts for every value combination of S, in lexicographic order. A QuerySet
concatenates workloads into one global query index space and evaluates the
whole collection against datasets, dense mass vectors, cell-support
distributions, and batches of relaxed one-hot probability rows.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import DataError, Dataset, Domain

# block size (query-index direction) for batched product-query evaluation
_CHUNK_TARGET = 4_000_000


@dataclass(frozen=True)
class MarginalQuery:
    """Single counting query: fraction of records with records[S] == targets."""

    features: tuple[int, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        if len(self.features) != len(self.targets) or not self.features:
            raise DataError("need one target per feature")
        if list(self.features) != sorted(set(self.features)):
            raise DataError("features must be strictly increasing")


@dataclass(frozen=True)
class Workload:
    """All value combinations of one feature subset, lexicographic order."""

    features: tuple[int, ...]
    sizes: tuple[int, ...]
    offset: int  # global index of this workload's first query

    @property
    def n_queries(self) -> int:
        return math.prod(self.sizes)

    def local_strides(self) -> tuple[int, ...]:
        st = [1] * len(self.sizes)
        for i in range(len(self.sizes) - 2, -1, -1):
            st[i] = st[i + 1] * self.sizes[i + 1]
        return tuple(st)

    def query(self, local: int) -> MarginalQuery:
        targets = []
        for sz, st in zip(self.sizes, self.local_strides()):
            targets.append((local // st) % sz)
        return MarginalQuery(self.features, tuple(targets))

    def locals_of_cells(self, domain: Domain, cells: np.ndarray) -> np.ndarray:
        """Which of this workload's queries each cell satisfies (exactly one)."""
        loc = np.zeros(np.asarray(cells).shape[0], dtype=np.int64)
        for f, st in zip(self.features, self.local_strides()):
            loc += domain.attr_values(cells, f) * st
        return loc

    def locals_of_records(self, records: np.ndarray) -> np.ndarray:
        loc = np.zeros(records.shape[0], dtype=np.int64)
        for f, st in zip(self.features, self.local_strides()):
            loc += records[:, f] * st
        return loc


class QuerySet:
    """Concatenation of marginal workloads with a global query index."""

    def __init__(self, domain: Domain, workloads: list[Workload], k: int):
        if not workloads:
            raise DataError("empty query collection")
        self.domain = domain
        self.k = k
        self.workloads = workloads
        self.total_queries = sum(w.n_queries for w in workloads)
        # one-hot index matrix, row per query (every query has exactly k ones)
        idx = np.empty((self.total_queries, k), dtype=np.int64)
        for w in workloads:
            combos = np.indices(w.sizes).reshape(len(w.sizes), -1).T  # lexicographic
            for j, f in enumerate(w.features):
                idx[w.offset : w.offset + w.n_queries, j] = domain.offset(f) + combos[:, j]
        self.idx = idx
        # per workload: the cells that are 0 on its attributes (see cells_of)
        self._zero_cells: dict[int, np.ndarray] = {}

    @classmethod
    def from_subsets(cls, domain: Domain, subsets, k: int) -> "QuerySet":
        """One workload per feature subset, indexed in the given order."""
        workloads = []
        off = 0
        for feats in subsets:
            sizes = tuple(domain.sizes[f] for f in feats)
            workloads.append(Workload(tuple(feats), sizes, off))
            off += math.prod(sizes)
        return cls(domain, workloads, k)

    # -- indexing helpers -------------------------------------------------

    def slices(self) -> list[slice]:
        return [slice(w.offset, w.offset + w.n_queries) for w in self.workloads]

    def workload_of(self, qidx: int) -> int:
        for wi, w in enumerate(self.workloads):
            if w.offset <= qidx < w.offset + w.n_queries:
                return wi
        raise IndexError(qidx)

    def query(self, qidx: int) -> MarginalQuery:
        w = self.workloads[self.workload_of(qidx)]
        return w.query(qidx - w.offset)

    # -- evaluation -------------------------------------------------------

    def answers_records(self, data: Dataset) -> np.ndarray:
        """Exact answers on a dataset (integer counting, then one division)."""
        if data.n == 0:
            raise DataError("empty dataset")
        out = np.empty(self.total_queries)
        for w in self.workloads:
            counts = np.bincount(w.locals_of_records(data.records), minlength=w.n_queries)
            out[w.offset : w.offset + w.n_queries] = counts / data.n
        return out

    def _is_full(self, cells: np.ndarray) -> bool:
        total = self.domain.total_cells
        return cells.shape[0] == total and np.array_equal(cells, np.arange(total))

    def _cell_locals(self, cells: np.ndarray) -> list[np.ndarray] | None:
        """Per-workload query map of a support: which query of each workload each cell meets.

        None for the full domain (cells 0..total_cells-1 in order), whose
        answers are dense marginals and whose cells are reached by stride.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if self._is_full(cells):
            return None
        return [w.locals_of_cells(self.domain, cells) for w in self.workloads]

    def cells_of(self, qidx: int, locals: list[np.ndarray] | None = None) -> np.ndarray:
        """Ascending positions, in a support, of the cells query `qidx` matches.

        `locals` is the support's `_cell_locals` map; without one the support
        is the full domain, where positions are flat cell indices: the query's
        targets times their strides, plus every cell that is 0 on the
        workload's attributes (built from the strides once per workload, with
        no scan over the domain).
        """
        wi = self.workload_of(qidx)
        w = self.workloads[wi]
        if locals is not None:
            return np.flatnonzero(locals[wi] == qidx - w.offset)
        dom = self.domain
        if wi not in self._zero_cells:
            axes = [
                np.arange(1 if a in w.features else size, dtype=np.int64) * dom.stride(a)
                for a, size in enumerate(dom.sizes)
            ]
            self._zero_cells[wi] = sum(np.ix_(*axes)).ravel()
        targets = np.unravel_index(qidx - w.offset, w.sizes)
        fixed = sum(int(t) * dom.stride(f) for f, t in zip(w.features, targets))
        return self._zero_cells[wi] + fixed

    def _marginal(self, margs: dict, keep: tuple[int, ...]) -> np.ndarray:
        """Marginal on the attributes `keep`, cached in `margs` (keyed by kept attributes).

        It is summed out of the marginal that also keeps the largest
        attribute missing from `keep`.
        """
        if keep not in margs:
            drop = max(a for a in range(self.domain.num_attrs) if a not in keep)
            parent = tuple(sorted(keep + (drop,)))
            margs[keep] = self._marginal(margs, parent).sum(axis=parent.index(drop))
        return margs[keep]

    def answers_mass(self, mass: np.ndarray) -> np.ndarray:
        """Answers of a dense mass vector over all cells.

        Each workload's answers are its marginal: the mass viewed as a
        d-dimensional array, summed over the attributes outside the workload.
        Marginals are summed out of one another, so the work that workloads
        share is done once.
        """
        cube = np.asarray(mass, dtype=np.float64).reshape(self.domain.sizes)
        margs = {tuple(range(self.domain.num_attrs)): cube}
        out = np.empty(self.total_queries)
        for w in self.workloads:
            out[w.offset : w.offset + w.n_queries] = self._marginal(margs, w.features).ravel()
        return out

    def answers_support(
        self, cells: np.ndarray, probs: np.ndarray, locals: list[np.ndarray] | None = None
    ) -> np.ndarray:
        """Answers of a distribution given as (cells, probabilities).

        `locals` is the support's `_cell_locals` map, for callers that
        evaluate one support many times. Without it, the full domain takes
        the dense `answers_mass` path and any other support builds its map.
        """
        if locals is None:
            cells = np.asarray(cells, dtype=np.int64)
            if self._is_full(cells):
                return self.answers_mass(probs)
            locals = self._cell_locals(cells)
        out = np.empty(self.total_queries)
        for w, loc in zip(self.workloads, locals):
            out[w.offset : w.offset + w.n_queries] = np.bincount(
                loc, weights=probs, minlength=w.n_queries
            )
        return out

    def answers_probs(self, P: np.ndarray) -> np.ndarray:
        """Mean product-query answers over a batch of probability rows.

        P has shape (B, onehot_width); every attribute block of every row is
        assumed normalized. Answer of query q = mean_b prod_{i in q} P[b, i].
        """
        P = np.asarray(P, dtype=np.float64)
        return product_answers(P, self.idx)


def build_workloads(
    domain: Domain, k: int, count: int | None = None, rng: np.random.Generator | None = None
) -> QuerySet:
    """All (or a uniform sample of) k-way marginal workloads.

    count=None takes every feature subset in lexicographic order; otherwise
    `count` distinct subsets are drawn uniformly without replacement (the
    chosen subsets are then ordered lexicographically for stable indexing).
    """
    d = domain.num_attrs
    if not (1 <= k <= d):
        raise DataError(f"marginal order k={k} out of range for {d} attributes")
    total = math.comb(d, k)
    if count is None or count >= total:
        if count is not None and count > total:
            raise DataError(f"asked for {count} workloads, only {total} exist")
        subsets = list(itertools.combinations(range(d), k))
    else:
        if count < 1:
            raise DataError("count must be >= 1")
        if rng is None:
            raise DataError("sampling workloads needs an rng")
        picks = rng.choice(total, size=count, replace=False)
        all_subsets = list(itertools.combinations(range(d), k))
        subsets = sorted(all_subsets[int(i)] for i in picks)
    return QuerySet.from_subsets(domain, subsets, k)


# -- product-query relaxation (differentiable path) -----------------------


def product_answers(P: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Batch-mean product answers for many queries at once.

    idx is (m, k): one-hot positions per query. Evaluation is chunked over
    queries to bound the intermediate (B, chunk, k) tensor.
    """
    B = P.shape[0]
    m, k = idx.shape
    out = np.empty(m)
    chunk = max(1, _CHUNK_TARGET // max(1, B * k))
    for s in range(0, m, chunk):
        e = min(m, s + chunk)
        vals = P[:, idx[s:e]]  # (B, e-s, k)
        out[s:e] = vals.prod(axis=2).mean(axis=0)
    return out


def product_answers_grad(P: np.ndarray, idx: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Gradient of sum_j coeff[j] * batch-mean product answer j w.r.t. P.

    Leave-one-out products are formed explicitly (no division) so zero
    entries stay differentiable.
    """
    B = P.shape[0]
    m, k = idx.shape
    dP = np.zeros_like(P)
    chunk = max(1, _CHUNK_TARGET // max(1, B * k))
    rows = np.arange(B)[:, None]
    for s in range(0, m, chunk):
        e = min(m, s + chunk)
        vals = P[:, idx[s:e]]  # (B, c, k)
        w = coeff[s:e][None, :] / B
        for t in range(k):
            others = [u for u in range(k) if u != t]
            loo = vals[:, :, others].prod(axis=2) if others else np.ones_like(vals[:, :, 0])
            np.add.at(dP, (rows, idx[s:e, t][None, :]), loo * w)
    return dP

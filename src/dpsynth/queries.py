"""k-way marginal workloads as flat query collections.

A workload is one feature subset S (|S| = k); its queries are the indicator
counts for every value combination of S, in lexicographic order. A QuerySet
concatenates workloads into one global query index space and evaluates the
whole collection against datasets, dense mass vectors, cell-support
distributions, and batches of relaxed one-hot probability rows.

The workloads that share their first k-1 attributes (a prefix) form one group
of the collection's prefix plan, built once. One encoder maps records to their
position in each workload, computing each prefix's code once. Counting records
is one `bincount` per workload. An explicit support (any cell set but the full
domain) is encoded once into a query map, the global query each of its cells
meets in each workload: its answers are one `bincount`, and a query lists its
cells by scanning one row of the map. On the full domain those ids are the
cells' values times each workload's place values (`cell_ids`), with no map.
Product queries over relaxed rows (gem, rap-softmax) take one of two paths. The whole collection is
one contraction per shared prefix: the row-wise outer product of the prefix's
attribute blocks times all of its workloads' last blocks side by side (a view
of P when their columns are one run), in row chunks of bounded size. Each
group's result is written in place into its span of one buffer, which one
permutation takes to query order; the gradient walks the same plan. A subset
of query ids gathers just their one-hot columns, read as rows of P
transposed, through a `Gather` that a caller which evaluates the same ids
many times (one gem or rap-softmax update) prepares once: per chunk of ids,
their columns and a slot-to-column one-hot matrix that scatters the
gradient back with one matmul. The
transpose of the dense evaluator maps weights on queries to the weight each
cell of the domain meets, for the search baselines.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import ConfigError, DataError, Dataset, Domain

# element budget of the intermediate tensor of product-query evaluation
_CHUNK_TARGET = 4_000_000


@dataclass(frozen=True)
class Workload:
    """All value combinations of one feature subset, lexicographic order."""

    features: tuple[int, ...]
    sizes: tuple[int, ...]
    offset: int  # global index of this workload's first query

    @cached_property
    def n_queries(self) -> int:
        return math.prod(self.sizes)


class SupportMap:
    """The query map of an explicit support (see the module docstring): `ids[i, s]` is
    the global id of the query of workload i that the cell at support position s meets."""

    def __init__(self, queries: "QuerySet", cells: np.ndarray):
        cols = np.ascontiguousarray(queries.domain.decode(cells).T)
        self.ids = np.empty((len(queries.workloads), cols.shape[1]), dtype=np.int64)
        for wi, loc in queries._record_locals(cols):
            self.ids[wi] = queries.workloads[wi].offset + loc


@dataclass(frozen=True)
class PrefixGroup:
    """The workloads of a collection that share their first k-1 attributes."""

    prefix: tuple[int, ...]  # the shared attributes, in workload order (empty at k=1)
    workloads: tuple[int, ...]  # indices into the collection, ascending
    blocks: tuple[slice, ...]  # one-hot columns of each prefix attribute's block
    # one-hot columns of the workloads' last blocks, side by side: a slice when
    # they are one run (every group of a lexicographic all-k collection)
    lasts: slice | np.ndarray
    width: int  # the number of those columns
    rows: int  # prefix value combinations (1 at k=1)
    span: slice  # the group's (rows, width) results, flattened in C order, in the plan's layout


class Gather:
    """Query ids prepared for product evaluation over batches of `rows` relaxed
    rows, for callers that evaluate one set of ids many times.

    The ids are cut into chunks whose (chunk, k, rows) gathered values and
    (onehot_width, chunk * k) slot-to-column matrix stay within _CHUNK_TARGET
    elements. Per chunk it holds the ids' positions in the given order, their
    one-hot columns (chunk, k), and that one-hot matrix, which scatters
    per-slot gradients back onto the columns with one matmul.
    """

    def __init__(self, queries: "QuerySet", qidx: np.ndarray, rows: int):
        idx = queries.idx[np.asarray(qidx, dtype=np.int64)]
        W, k = queries.domain.onehot_width, queries.k
        step = max(1, _CHUNK_TARGET // (k * max(rows, W)))
        self.size = idx.shape[0]
        self.chunks = []
        for s in range(0, self.size, step):
            cols = idx[s : s + step]
            onehot = np.zeros((W, cols.size))
            onehot[cols.ravel(), np.arange(cols.size)] = 1.0
            self.chunks.append((slice(s, s + step), cols, onehot))


class QuerySet:
    """Concatenation of marginal workloads of one order k with a global query index."""

    def __init__(self, domain: Domain, workloads: list[Workload]):
        if not workloads:
            raise DataError("empty query collection")
        orders = {len(w.features) for w in workloads}
        if len(orders) != 1:
            raise DataError(f"workloads mix marginal orders {sorted(orders)}")
        (self.k,) = orders
        self.domain = domain
        self.workloads = workloads
        self.total_queries = sum(w.n_queries for w in workloads)
        # one-hot index matrix, row per query (every query has exactly k ones)
        idx = np.empty((self.total_queries, self.k), dtype=np.int64)
        for w in workloads:
            combos = np.indices(w.sizes).reshape(len(w.sizes), -1).T  # lexicographic
            for j, f in enumerate(w.features):
                idx[w.offset : w.offset + w.n_queries, j] = domain.offset(f) + combos[:, j]
        self.idx = idx
        self._starts = np.array([w.offset for w in workloads])
        # per workload: the cells that are 0 on its attributes (see _domain_cells)
        self._zero_cells: dict[int, np.ndarray] = {}

    @classmethod
    def from_subsets(cls, domain: Domain, subsets) -> "QuerySet":
        """One workload per feature subset, indexed in the given order."""
        workloads = []
        off = 0
        d = domain.num_attrs
        for feats in subsets:
            if len(set(feats)) != len(feats) or not all(0 <= f < d for f in feats):
                raise DataError(f"workload {tuple(feats)} is not distinct attributes in [0, {d})")
            sizes = tuple(domain.sizes[f] for f in feats)
            workloads.append(Workload(tuple(feats), sizes, off))
            off += math.prod(sizes)
        return cls(domain, workloads)

    # -- indexing helpers -------------------------------------------------

    def slices(self) -> list[slice]:
        return [slice(w.offset, w.offset + w.n_queries) for w in self.workloads]

    def workload_of(self, qidx):
        """The workload of query `qidx`, or an array of them for an array of query ids."""
        if not isinstance(qidx, np.ndarray):  # no array reductions: `cells_of` calls this per query
            if not 0 <= qidx < self.total_queries:
                raise IndexError(qidx)
            return int(np.searchsorted(self._starts, qidx, side="right")) - 1
        if qidx.size and not (0 <= qidx.min() and qidx.max() < self.total_queries):
            raise IndexError(qidx)
        return np.searchsorted(self._starts, qidx, side="right") - 1

    @cached_property
    def _prefix_plan(self) -> tuple[list[PrefixGroup], np.ndarray]:
        """(groups, perm): the workloads grouped by prefix, in order of first
        appearance, and the permutation that takes the groups' results, each
        a (prefix value, last-block column) array flattened in C order into
        its span of the plan's layout, to query order."""
        members: dict[tuple[int, ...], list[int]] = {}
        for wi, w in enumerate(self.workloads):
            members.setdefault(w.features[:-1], []).append(wi)
        dom = self.domain
        groups, start = [], 0
        perm = np.empty(self.total_queries, dtype=np.int64)
        for prefix, wis in members.items():
            ws = [self.workloads[wi] for wi in wis]
            firsts = [dom.offset(w.features[-1]) for w in ws]  # each last block's first column
            lasts = np.concatenate([f + np.arange(w.sizes[-1]) for f, w in zip(firsts, ws)])
            rows, width = math.prod(ws[0].sizes[:-1]), lasts.size
            # query (prefix value v, value j of workload w's last block) sits at
            # start + v * width + (w's first column in the group) + j of the layout
            col = start
            for w in ws:
                at = col + np.arange(rows)[:, None] * width + np.arange(w.sizes[-1])
                perm[w.offset : w.offset + w.n_queries] = at.ravel()
                col += w.sizes[-1]
            run = all(b - a == w.sizes[-1] for a, b, w in zip(firsts, firsts[1:], ws))
            blocks = tuple(slice(dom.offset(f), dom.offset(f) + dom.sizes[f]) for f in prefix)
            span = slice(start, start + rows * width)
            cols = slice(firsts[0], firsts[0] + width) if run else lasts
            groups.append(PrefixGroup(prefix, tuple(wis), blocks, cols, width, rows, span))
            start = span.stop
        return groups, perm

    def gather(self, qidx: np.ndarray, rows: int) -> Gather:
        """The query ids `qidx` prepared for product evaluation over batches of `rows` rows."""
        return Gather(self, qidx, rows)

    # -- evaluation -------------------------------------------------------

    def _record_locals(self, cols: np.ndarray):
        """Yield (workload index, each record's position in that workload) from
        `cols`, one contiguous row of values per attribute and one column per record."""
        sizes = self.domain.sizes
        for g in self._prefix_plan[0]:
            code = 0
            for f in g.prefix:
                code = code * sizes[f] + cols[f]
            for wi in g.workloads:
                w = self.workloads[wi]
                yield wi, code * w.sizes[-1] + cols[w.features[-1]]

    def answers_records(self, data: Dataset) -> np.ndarray:
        """Exact answers on a dataset (integer counting, then one division):
        one `bincount` per workload of the encoded records."""
        if data.n == 0:
            raise DataError("empty dataset")
        out = np.empty(self.total_queries)
        for wi, loc in self._record_locals(np.ascontiguousarray(data.records.T)):
            w = self.workloads[wi]
            out[w.offset : w.offset + w.n_queries] = np.bincount(loc, minlength=w.n_queries) / data.n
        return out

    def _is_full(self, cells: np.ndarray) -> bool:
        """Whether the cells are 0..total_cells-1 in order, as a search output, a
        covering public table or an older artifact lists them (without building the range)."""
        total = self.domain.total_cells
        if cells.shape[0] != total or cells[0] != 0 or cells[-1] != total - 1:
            return False
        return bool((cells[1:] > cells[:-1]).all())

    def _cell_locals(self, cells: np.ndarray | None) -> SupportMap | None:
        """The query map of a support, for callers that evaluate it many times.

        None for the full domain (cells None, or every cell listed in order),
        whose answers are dense marginals and whose cells are reached by stride.
        """
        if cells is None:
            return None
        cells = np.asarray(cells, dtype=np.int64)
        return None if self._is_full(cells) else SupportMap(self, cells)

    def cells_of(self, qidx: int, qmap: SupportMap | None = None) -> np.ndarray:
        """Ascending positions, in a support, of the cells query `qidx` matches.

        `qmap` is the support's query map, whose row of the query's workload
        is scanned for them (callers keep the lists they ask for); without
        one the support is the full domain, where positions are flat cell
        indices (see `_domain_cells`).
        """
        wi = self.workload_of(qidx)
        if qmap is not None:
            return np.flatnonzero(qmap.ids[wi] == qidx)
        return self._domain_cells(wi, qidx)

    @cached_property
    def _target_strides(self) -> np.ndarray:
        """Per one-hot column (attribute a, value t): t times a's stride."""
        dom = self.domain
        return np.concatenate([np.arange(s, dtype=np.int64) * dom.stride(a) for a, s in enumerate(dom.sizes)])

    def _domain_cells(self, wi: int, qidx) -> np.ndarray:
        """Flat indices of the cells that the queries `qidx`, all of workload
        `wi`, match: one ascending row per query (or one row for one id).

        A query's cells are the cells that are 0 on the workload's attributes
        (built from the strides once per workload, with no scan over the
        domain) plus its targets times their strides.
        """
        if wi not in self._zero_cells:
            w, dom = self.workloads[wi], self.domain
            axes = [
                np.arange(1 if a in w.features else size, dtype=np.int64) * dom.stride(a)
                for a, size in enumerate(dom.sizes)
            ]
            self._zero_cells[wi] = sum(np.ix_(*axes)).ravel()
        fixed = self._target_strides[self.idx[qidx]].sum(axis=-1)
        return fixed[..., None] + self._zero_cells[wi]

    def cell_ids(self, cells: np.ndarray) -> np.ndarray:
        """(workloads, cells): the id of the query that each cell of the full
        domain meets in each workload, as a `SupportMap` of the cells holds.

        A cell's position in a workload's query order is its values weighted
        by their place values there (`_places`), so all the ids are one
        product, with no map to build.
        """
        return self._starts[:, None] + self._places @ np.array(np.unravel_index(cells, self.domain.sizes))

    @cached_property
    def _places(self) -> np.ndarray:
        """(workloads, attributes): each attribute's place value in each
        workload's query order, 0 where the workload does not read it."""
        out = np.zeros((len(self.workloads), self.domain.num_attrs), dtype=np.int64)
        for wi, w in enumerate(self.workloads):
            out[wi, list(w.features)] = np.cumprod((1,) + w.sizes[:0:-1])[::-1]
        return out

    def transpose_mass(self, weights: np.ndarray) -> np.ndarray:
        """The transpose of `answers_mass`: per cell of the full domain, the
        summed weights of the queries it matches, so that
        <answers_mass(m), weights> = <m, transpose_mass(weights)>.

        One fancy-index add per workload that holds a nonzero weight, over
        the cells of its weighted queries (disjoint within a workload), so
        the work follows those queries' cells rather than the domain.
        """
        out = np.zeros(self.domain.total_cells)
        q = np.flatnonzero(weights)
        wis = self.workload_of(q)
        for wi in np.unique(wis):
            ids = q[wis == wi]
            out[self._domain_cells(int(wi), ids)] += weights[ids, None]
        return out

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
        share is done once. A marginal's axes are in ascending attribute
        order; each workload reads them in its own order.
        """
        cube = np.asarray(mass, dtype=np.float64).reshape(self.domain.sizes)
        margs = {tuple(range(self.domain.num_attrs)): cube}
        out = np.empty(self.total_queries)
        for w in self.workloads:
            keep = tuple(sorted(w.features))
            marg = self._marginal(margs, keep).transpose([keep.index(f) for f in w.features])
            out[w.offset : w.offset + w.n_queries] = marg.ravel()
        return out

    def answers_support(
        self, cells: np.ndarray | None, probs: np.ndarray, qmap: SupportMap | None = None
    ) -> np.ndarray:
        """Answers of a distribution given as (cells, probabilities).

        `qmap` is the support's query map, for callers that evaluate one
        support many times. Without it, the full domain (see `_cell_locals`)
        takes the dense `answers_mass` path and any other support builds its
        map. Each query sums its cells in position order.
        """
        if qmap is None:
            qmap = self._cell_locals(cells)
            if qmap is None:
                return self.answers_mass(probs)
        weights = np.tile(probs, qmap.ids.shape[0])
        return np.bincount(qmap.ids.ravel(), weights=weights, minlength=self.total_queries)

    def answers_probs(self, P: np.ndarray) -> np.ndarray:
        """Mean product-query answers over a batch of probability rows.

        P has shape (B, onehot_width); every attribute block of every row is
        assumed normalized. Answer of query q = mean_b prod_{i in q} P[b, i].
        """
        return product_answers(np.asarray(P, dtype=np.float64), self)


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
        raise ConfigError(f"marginal order k={k} out of range for {d} attributes")
    total = math.comb(d, k)
    if count is None or count >= total:
        if count is not None and count > total:
            raise ConfigError(f"asked for {count} workloads, only {total} exist")
        subsets = list(itertools.combinations(range(d), k))
    else:
        if count < 1:
            raise ConfigError("count must be >= 1")
        if rng is None:
            raise ConfigError("sampling workloads needs an rng")
        picks = rng.choice(total, size=count, replace=False)
        all_subsets = list(itertools.combinations(range(d), k))
        subsets = sorted(all_subsets[int(i)] for i in picks)
    return QuerySet.from_subsets(domain, subsets)


# -- product-query relaxation (differentiable path) -----------------------


def _row_chunks(B: int, width: int) -> list[slice]:
    """Row ranges whose (rows, width) intermediates stay within _CHUNK_TARGET elements."""
    step = max(1, _CHUNK_TARGET // width)
    return [slice(r, min(B, r + step)) for r in range(0, B, step)]


def _outer(blocks: list[np.ndarray], rows: slice) -> np.ndarray:
    """Row-wise outer product of the blocks over `rows`, flattened in C order."""
    out = blocks[0][rows] if blocks else np.ones((rows.stop - rows.start, 1))
    for A in blocks[1:]:
        out = (out[:, :, None] * A[rows, None, :]).reshape(out.shape[0], -1)
    return out


def _loo(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(chunk * k, B) per-slot rows from a chunk's (chunk, k, B) gathered values:
    each query's weight times the product of its other k-1 values.

    Leave-one-out products are formed explicitly (no division) so zero
    entries stay differentiable.
    """
    k = vals.shape[1]
    loo = np.empty_like(vals)
    loo[:, 0] = weights[:, None]
    for t in range(k):
        # slot t holds w * v_0 ... v_{t-1}: carry it on to slot t+1, then finish it
        row = loo[:, t]
        if t + 1 < k:
            np.multiply(row, vals[:, t], out=loo[:, t + 1])
        for u in range(t + 1, k):
            row *= vals[:, u]
    return loo.reshape(-1, vals.shape[2])


def prefix_outers(P: np.ndarray, queries: QuerySet) -> list[list[tuple[slice, np.ndarray]]]:
    """Per prefix group of the collection's plan, per row chunk of P: the
    rows and the row-wise outer product of the prefix's blocks over them.

    `product_answers` and `product_answers_grad` on the whole collection
    both contract these; a caller that needs both at one P builds them once.
    """
    out = []
    for g in queries._prefix_plan[0]:
        first = [P[:, cols] for cols in g.blocks]
        out.append([(r, _outer(first, r)) for r in _row_chunks(P.shape[0], g.rows)])
    return out


def product_answers(
    P: np.ndarray, queries: QuerySet, qidx: np.ndarray | Gather | None = None, outers=None
) -> np.ndarray:
    """Batch-mean product answers: answer of q = mean_b prod_{i in q} P[b, i].

    qidx=None answers the whole collection, one contraction per shared prefix:
    the outer product of the prefix's blocks (`prefix_outers`, or `outers`
    if given) times the last blocks of all its workloads at once, written
    into the group's span of one buffer and permuted to query order. An array
    of query ids, or a `Gather` of them prepared once for many calls,
    answers just those: per chunk, the (chunk, k, B) rows of P.T at their
    one-hot columns, multiplied over k and averaged over B.
    """
    B = P.shape[0]
    if qidx is not None:
        gather = qidx if isinstance(qidx, Gather) else queries.gather(qidx, B)
        out = np.empty(gather.size)
        for s, cols, _ in gather.chunks:
            out[s] = P.T[cols].prod(axis=1).sum(axis=1) / B  # the mean, without np.mean's overhead
        return out
    groups, perm = queries._prefix_plan
    grouped = np.empty(queries.total_queries)  # the groups' results, in the plan's layout
    for g, chunks in zip(groups, prefix_outers(P, queries) if outers is None else outers):
        lasts = P[:, g.lasts]
        acc = grouped[g.span].reshape(g.rows, g.width)
        for i, (r, outer) in enumerate(chunks):  # the first row chunk writes in place, the rest add on
            dest = None if i else acc
            if g.prefix:
                part = np.matmul(outer.T, lasts[r], out=dest)
            else:  # 1-way: the blocks' column sums, each summed pairwise down one contiguous column
                part = np.sum(np.asfortranarray(lasts[r]), 0, keepdims=True, out=dest)
            if i:
                acc += part
    out = grouped[perm]
    out /= B
    return out


def product_answers_grad(
    P: np.ndarray, queries: QuerySet, coeff: np.ndarray, qidx: np.ndarray | Gather | None = None, outers=None
) -> np.ndarray:
    """Gradient w.r.t. P of sum_j coeff[j] * product_answers(P, queries, qidx)[j].

    An array of query ids, or a `Gather` of them, takes the gather path: per
    chunk, the coefficient-weighted leave-one-out products of each query
    slot (see `_loo`) are scattered onto the columns by one matmul with the
    chunk's slot-to-column matrix. The result has P's memory order, so a
    column-major P gets a column-major gradient. qidx=None walks the prefix plan as
    `product_answers` does: per shared prefix, the coefficients laid out as a
    (prefix value, last column) matrix C give the last blocks' gradient as
    the prefix's outer product times C, and the outer product's as the last
    blocks times C transposed, which is contracted into each prefix block
    with the other prefix blocks.
    """
    B = P.shape[0]
    if qidx is not None:
        gather = qidx if isinstance(qidx, Gather) else queries.gather(qidx, B)
        dP = np.empty_like(P)  # P's memory order
        dP.T[...] = sum(onehot @ _loo(P.T[cols], coeff[s] / B) for s, cols, onehot in gather.chunks)
        return dP
    dom = queries.domain
    groups, perm = queries._prefix_plan
    grouped = np.empty_like(coeff)
    grouped[perm] = coeff / B  # the coefficients in the groups' (prefix value, last column) layout
    dP = np.zeros_like(P)
    for g, chunks in zip(groups, prefix_outers(P, queries) if outers is None else outers):
        first = [P[:, cols] for cols in g.blocks]
        sizes = [dom.sizes[f] for f in g.prefix]
        C = grouped[g.span].reshape(g.rows, g.width)
        lasts = P[:, g.lasts]
        for r, outer in chunks:
            # the last blocks: the outer product of the prefix's blocks times C
            d_lasts = outer @ C
            col = 0
            for wi in g.workloads:  # one slice per workload: two workloads may share a last block
                f, sz = queries.workloads[wi].features[-1], queries.workloads[wi].sizes[-1]
                dP[r, dom.offset(f) : dom.offset(f) + sz] += d_lasts[:, col : col + sz]
                col += sz
            if not first:
                continue
            # d/d(outer product), axis 0 the row and axis j+1 prefix block j,
            # contracted into each prefix block with the other blocks
            d_outer = (lasts[r] @ C.T).reshape(-1, *sizes)
            axes = range(1, len(sizes) + 1)
            for t, cols in enumerate(g.blocks):
                others = [x for j, blk in enumerate(first) if j != t for x in (blk[r], [0, j + 1])]
                dP[r, cols] += np.einsum(d_outer, [0, *axes], *others, [0, t + 1])
    return dP

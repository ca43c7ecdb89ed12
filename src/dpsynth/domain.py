"""Discrete data domains, datasets, and distributions over domain cells.

A domain is an ordered list of categorical attributes with finite sizes.
Records are integer value tuples; the full contingency table flattens to a
vector indexed by row-major cell index over the given attribute order.
"""
from __future__ import annotations

import csv
import json
import zipfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # queries imports this module
    from .queries import QuerySet, SupportMap

# Mass below this is treated as exactly zero before renormalization, so
# distributions never carry denormal dust around.
MASS_FLOOR = 1e-300

# Full-domain synthesizers refuse domains with more cells than this
# (overridable per run).
DEFAULT_CELL_CAP = 1 << 22

# Flat cell indices are int64, so they cover at most this many cells.
MAX_FLAT_CELLS = 1 << 63

# The largest x whose exp(x) is a finite float64.
LOG_MAX_FLOAT = float(np.log(np.finfo(np.float64).max))


class DomainError(ValueError):
    """Malformed domain description."""


class DataError(ValueError):
    """Malformed dataset or value out of range."""


class CapacityError(ValueError):
    """Domain too large for a dense-histogram method."""


class ConfigError(ValueError):
    """A setting out of range, or in conflict with another setting."""


@dataclass(frozen=True)
class Domain:
    """Ordered categorical schema: attribute names and sizes."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.sizes) or not self.names:
            raise DomainError("need one size per attribute name, at least one attribute")
        if len(set(self.names)) != len(self.names):
            raise DomainError("duplicate attribute names")
        if any(int(s) < 2 for s in self.sizes):
            raise DomainError("every attribute needs size >= 2")
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        # row-major strides: last attribute varies fastest
        strides = [1] * len(self.sizes)
        for i in range(len(self.sizes) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        object.__setattr__(self, "_strides", tuple(strides))
        offs = np.concatenate([[0], np.cumsum(self.sizes)])
        object.__setattr__(self, "_offsets", tuple(int(o) for o in offs))
        # the one-hot block layout as read-only arrays, for one-call block
        # reductions: `block_starts` feeds ufunc.reduceat, and `block_ids`
        # (each column's attribute) gathers a per-block result back to columns
        starts = offs[:-1].astype(np.intp)
        ids = np.repeat(np.arange(len(self.sizes), dtype=np.intp), self.sizes)
        for arr in (starts, ids):
            arr.flags.writeable = False
        object.__setattr__(self, "block_starts", starts)
        object.__setattr__(self, "block_ids", ids)

    @property
    def num_attrs(self) -> int:
        return len(self.sizes)

    @property
    def total_cells(self) -> int:
        out = 1
        for s in self.sizes:
            out *= s
        return out

    @property
    def onehot_width(self) -> int:
        """Total width of the concatenated per-attribute one-hot blocks."""
        return self._offsets[-1]

    def offset(self, attr: int) -> int:
        """Start of attribute `attr`'s block in the one-hot layout."""
        return self._offsets[attr]

    def stride(self, attr: int) -> int:
        return self._strides[attr]

    def check_cap(self, cap: int) -> None:
        """Refuse a dense-histogram method on a domain with more than `cap` cells."""
        if self.total_cells > cap:
            raise CapacityError(f"domain has {self.total_cells} cells, over the cap {cap}")

    def _check_flat(self) -> None:
        if self.total_cells > MAX_FLAT_CELLS:
            raise CapacityError(
                f"domain has {self.total_cells} cells, more than int64 cell indices cover"
            )

    def encode(self, records: np.ndarray) -> np.ndarray:
        """Map records (n x d int array) to flat cell indices."""
        self._check_flat()
        records = np.asarray(records, dtype=np.int64)
        if records.ndim == 1:
            records = records[None, :]
        if records.shape[1] != self.num_attrs:
            raise DataError("record width does not match domain")
        cells = np.zeros(records.shape[0], dtype=np.int64)
        for i, (sz, st) in enumerate(zip(self.sizes, self._strides)):
            col = records[:, i]
            if col.min(initial=0) < 0 or col.max(initial=0) >= sz:
                raise DataError(f"value out of range for attribute {self.names[i]!r}")
            cells += col * st
        return cells

    def decode(self, cells: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode`; returns an n x d int array. Like encode,
        it refuses what lies outside the domain: a cell outside [0, total_cells)."""
        self._check_flat()
        cells = np.asarray(cells, dtype=np.int64)
        if cells.min(initial=0) < 0 or cells.max(initial=0) >= self.total_cells:
            raise DataError(f"cells must lie in [0, {self.total_cells})")
        out = np.empty((cells.shape[0], self.num_attrs), dtype=np.int64)
        for i, (sz, st) in enumerate(zip(self.sizes, self._strides)):
            out[:, i] = (cells // st) % sz
        return out

    def to_json(self) -> str:
        return json.dumps(
            {"attributes": [{"name": n, "size": s} for n, s in zip(self.names, self.sizes)]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Domain":
        try:
            attrs = json.loads(text)["attributes"]
            names = tuple(a["name"] for a in attrs)
            sizes = tuple(int(a["size"]) for a in attrs)
        except (KeyError, TypeError, ValueError) as e:  # ValueError: not JSON, or a size not an integer
            raise DomainError(f"bad domain description: {e}") from e
        return cls(names=names, sizes=sizes)

    @classmethod
    def load(cls, path) -> "Domain":
        with open(path) as f:
            return cls.from_json(f.read())

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")


@dataclass
class Dataset:
    """Integer-coded records over a domain."""

    domain: Domain
    records: np.ndarray  # n x d int64

    def __post_init__(self):
        rec = np.asarray(self.records, dtype=np.int64)
        if rec.ndim != 2 or rec.shape[1] != self.domain.num_attrs:
            raise DataError("records must be an n x d integer array")
        for i, sz in enumerate(self.domain.sizes):
            if rec.shape[0] and (rec[:, i].min() < 0 or rec[:, i].max() >= sz):
                raise DataError(f"value out of range for attribute {self.domain.names[i]!r}")
        self.records = rec

    @property
    def n(self) -> int:
        return self.records.shape[0]

    def cells(self) -> np.ndarray:
        return self.domain.encode(self.records)

    @classmethod
    def from_csv(cls, path, domain: Domain) -> "Dataset":
        with open(path, newline="") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if set(header) != set(domain.names):
                raise DataError(f"{path}: header {header} does not match domain attributes")
            order = [header.index(n) for n in domain.names]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                try:
                    rows.append([int(row[j]) for j in order])
                except (ValueError, IndexError):
                    raise DataError(f"{path}:{lineno}: non-integer or short row") from None
        rec = np.asarray(rows, dtype=np.int64).reshape(len(rows), domain.num_attrs)
        return cls(domain, rec)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(self.domain.names)
            w.writerows(self.records.tolist())


def normalize_mass(mass: np.ndarray) -> np.ndarray:
    """Flush sub-floor values to zero and rescale to total mass 1, in a new array."""
    return _rescale(np.array(mass, dtype=np.float64))


def _rescale(mass: np.ndarray) -> np.ndarray:
    """`normalize_mass` in place: flush and rescale `mass`, a float64 array, and return it."""
    if mass.size == 0:
        raise DataError("empty mass vector")
    low, high = mass.min(), mass.max()
    if not (low >= 0 and high < np.inf):  # false for a NaN too
        raise DataError("mass must be finite and nonnegative")
    if low < MASS_FLOOR:
        mass[mass < MASS_FLOOR] = 0.0
    total = mass.sum()
    if total <= 0:
        raise DataError("mass sums to zero")
    mass /= total
    return mass


class CellWeights:
    """MWEM's and PEP's state: p = w / z over a fixed support, and its answers.

    The state lives from construction to output. The multiplicative rules
    (MWEM entry steps, PEP projections) scale the cells one query matches
    by one factor and every other cell by another; `scale` touches only the
    matching cells, by the ratio of the two, and the normalizer z absorbs
    the rest, so a step costs the size of the query. It reports when w is
    due for a full `normalize_mass`: when z leaves [1/2, 2] or is not
    finite, so its rounding error cannot grow, or when a cell could have
    dropped below MASS_FLOOR and must be flushed. The caller then
    renormalizes in place, `reset(normalize_mass(divide()))`. The state
    keeps the array it is given (every caller passes a fresh one).

    `cells` lists a measured query's support positions once (from `qmap`,
    the support's query map, or by stride on the full domain) and tracks
    them. The answers are A / z, A the unnormalized answers of w. `read`
    makes a dense pass for A at the first read, after a `reset`, after two
    updates with no read, and where the tracked cells times the workloads
    are not fewer than the support's cells. Otherwise it adds how far each
    tracked cell's weight moved since `save` (once per update, before its
    first scale) to the answer of every query the cell meets: one bincount.
    These answers differ from a dense pass's by rounding, a few 1e-15; an
    output is normalized from w and answered by one dense pass, so it does
    not depend on them.
    """

    def __init__(self, probs: np.ndarray, queries: QuerySet, qmap: SupportMap | None = None):
        self.queries = queries
        self._qmap = qmap
        self._lists: dict[int, np.ndarray] = {}  # support positions per measured query
        self._tracked = np.empty(0, dtype=np.int64)  # distinct positions of measured queries
        # the query each tracked cell meets, one row per workload
        self._ids = np.empty((len(queries.workloads), 0), dtype=np.int64)
        # the same positions ascending, then one past any position
        self._sorted = np.array([np.iinfo(np.int64).max])
        self.reset(probs)

    def reset(self, probs: np.ndarray) -> None:
        """Make `probs` the weights (z is their sum); the next read makes a dense pass."""
        self.w = np.asarray(probs, dtype=np.float64)
        self.z = float(self.w.sum())
        # a lower bound on the smallest nonzero weight
        self._low = float(np.min(self.w, where=self.w > 0, initial=np.inf))
        self._sums = None  # A, unknown until a dense pass
        self._old = None  # the tracked cells' weights when an update saved them

    def cells(self, qidx: int) -> np.ndarray:
        """Ascending support positions of the cells query `qidx` matches,
        listed once and tracked from then on."""
        if qidx not in self._lists:
            cells = self._lists[qidx] = self.queries.cells_of(qidx, self._qmap)
            fresh = cells[self._sorted[np.searchsorted(self._sorted, cells)] != cells]
            ids = self.queries.cell_ids(fresh) if self._qmap is None else self._qmap.ids[:, fresh]
            self._tracked = np.concatenate([self._tracked, fresh])
            self._ids = np.concatenate([self._ids, ids], axis=1)
            self._sorted = np.sort(np.concatenate([self._sorted, fresh]))
        return self._lists[qidx]

    def save(self) -> None:
        """Keep the tracked cells' weights, before an update scales any of them."""
        # _ids.size is the tracked cells times the workloads
        if self._sums is not None and self._old is None and self._ids.size < self.w.size:
            self._old = self.w[self._tracked]
        else:
            self._sums = None  # the next read makes the dense pass

    def read(self, dense) -> np.ndarray:
        """The answers of p; `dense(w)` gives the unnormalized answers of weights w."""
        if self._sums is None:
            self._sums = dense(self.w)
        elif self._old is not None:
            moved = np.tile(self.w[self._tracked] - self._old, self._ids.shape[0])
            self._sums += np.bincount(self._ids.ravel(), weights=moved, minlength=self._sums.size)
        self._old = None
        return self._sums / self.z

    def answer(self, cells: np.ndarray) -> float:
        """Probability of the given cells."""
        return float(self.w[cells].sum()) / self.z

    def answer_outside(self, cells: np.ndarray) -> float:
        """Probability of every other cell, summed over them (one pass over w).

        1 - answer(cells) loses its leading digits when the answer is near 1.
        """
        rest = np.ones(self.w.shape[0], dtype=bool)
        rest[cells] = False
        return float(self.w[rest].sum()) / self.z

    def answers(self, cells: np.ndarray, groups: np.ndarray, count: int) -> np.ndarray:
        """Probability of each of `count` cell groups; cells[i] is in group groups[i]."""
        return np.bincount(groups, weights=self.w[cells], minlength=count) / self.z

    def scale(self, cells: np.ndarray, inside: float, outside: float) -> bool:
        """p *= inside on `cells` and p *= outside elsewhere, up to normalization.

        Returns True when the caller must renormalize the weights.
        """
        with np.errstate(over="ignore"):  # an infinite ratio takes the dense step
            ratio = inside / outside
        if not MASS_FLOOR <= ratio <= 1.0 / MASS_FLOOR:
            # a factor this extreme flushes whole regions: take the dense step.
            # Both factors are divided by the larger one that lands on a
            # nonzero weight, so the surviving region keeps its weights
            # instead of being scaled below MASS_FLOOR with the rest; a
            # region of zero weights stays zero.
            mask = np.zeros(self.w.shape[0], dtype=bool)
            mask[cells] = True
            live_in, live_out = bool(self.w[mask].any()), bool(self.w[~mask].any())
            top = max(inside if live_in else 0.0, outside if live_out else 0.0)
            inside = inside / top if live_in else 0.0
            outside = outside / top if live_out else 0.0
            self.w = np.where(mask, self.w * inside, self.w * outside)
            self.z = float(self.w.sum())
            return True
        sub = self.w[cells]
        before = sub.sum()
        sub *= ratio
        self.w[cells] = sub
        self.z += float(sub.sum() - before)
        if ratio < 1.0:  # every nonzero weight scaled was >= _low
            self._low *= ratio
        if not 0.5 <= self.z <= 2.0:
            # z - before + after cancels when the scaled cells held nearly
            # all the mass, so a z that shrank this far is summed afresh
            self.z = float(self.w.sum())
            return True
        return self._low < MASS_FLOOR * self.z

    def probs(self) -> np.ndarray:
        """p = w / z, not yet flushed or renormalized."""
        return self.w / self.z

    def normalized(self) -> np.ndarray:
        """p flushed and rescaled, `normalize_mass(probs())` in one new array."""
        return _rescale(self.probs())

    def divide(self) -> np.ndarray:
        """Divide w by z in place (z becomes 1) and return w, which is then p.

        For a renormalization, `reset(normalize_mass(divide()))`: it equals
        `normalize_mass(probs())`, and its copy is the one new array.
        """
        self.w /= self.z
        self._low /= self.z
        self.z = 1.0
        return self.w


@dataclass
class SupportDistribution:
    """Probability vector over domain cells.

    The one distribution over cells: the histogram and search synthesizers
    return it for the full domain (cells None, probs indexed by flat cell)
    and for explicit supports, such as the records of an auxiliary dataset.
    """

    domain: Domain
    cells: np.ndarray | None  # int64, distinct; None for the full domain
    probs: np.ndarray  # float64, sums to 1

    def __post_init__(self):
        self.cells = None if self.cells is None else np.asarray(self.cells, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        shape = (self.domain.total_cells,) if self.cells is None else self.cells.shape
        if self.probs.ndim != 1 or self.probs.shape != shape:
            raise DataError("probs must hold one value per listed cell, or per domain cell if none are listed")
        if self.probs.size == 0:
            raise DataError("empty support")

    def answers(self, queries) -> np.ndarray:
        return queries.answers_support(self.cells, self.probs)

    def sample_dataset(self, count: int, rng: np.random.Generator) -> Dataset:
        if count <= 0:
            raise ConfigError("count must be positive")
        cum = np.cumsum(self.probs)
        pos = np.searchsorted(cum / cum[-1], rng.random(count), side="right")
        pos = np.minimum(pos, cum.shape[0] - 1)
        return Dataset(self.domain, self.domain.decode(pos if self.cells is None else self.cells[pos]))

    @classmethod
    def from_dataset(cls, data: Dataset) -> "SupportDistribution":
        """Empirical distribution restricted to the distinct records present."""
        if data.n == 0:
            raise DataError("empty dataset")
        cells, counts = np.unique(data.cells(), return_counts=True)
        return cls(data.domain, cells, counts / data.n)

    def save_npz(self, path) -> None:
        cells = {} if self.cells is None else {"cells": self.cells}
        np.savez(path, **cells, probs=self.probs, domain=self.domain.to_json())


class ProductMixture:
    """Uniform mixture of per-row product distributions (gem and rap-softmax output).

    Row b of P holds one distribution per attribute, concatenated in the
    one-hot layout; a record is drawn by picking a row, then each attribute
    from its block. Blocks need not be normalized (rap's clipping variant):
    each is rescaled before sampling, and an all-zero block is uniform.
    """

    def __init__(self, domain: Domain, P: np.ndarray):
        if P.ndim != 2 or P.shape[0] < 1 or P.shape[1] != domain.onehot_width:
            raise DataError(f"P of shape {P.shape} is not rows of the one-hot width {domain.onehot_width}")
        self.domain = domain
        self.P = P

    def answers(self, queries) -> np.ndarray:
        return queries.answers_probs(self.P)

    def sample_dataset(self, count: int, rng: np.random.Generator) -> Dataset:
        if count <= 0:
            raise ConfigError("count must be positive")
        rows = rng.integers(0, self.P.shape[0], size=count)
        rec = np.empty((count, self.domain.num_attrs), dtype=np.int64)
        for a in range(self.domain.num_attrs):
            off, sz = self.domain.offset(a), self.domain.sizes[a]
            block = self.P[:, off : off + sz]
            sums = block.sum(axis=1, keepdims=True)
            safe = np.where(sums > 0, block / np.where(sums > 0, sums, 1.0), 1.0 / sz)
            cdf = np.cumsum(safe, axis=1)
            u = rng.random(count)
            rec[:, a] = np.minimum((cdf[rows] < u[:, None]).sum(axis=1), sz - 1)
        return Dataset(self.domain, rec)

    def save_npz(self, path) -> None:
        np.savez(path, P=self.P, domain=self.domain.to_json())


def load_npz(path) -> SupportDistribution | ProductMixture:
    """The distribution that a `save_npz` wrote, read from one opening of the archive.

    A full-domain distribution is `probs` alone (older archives list every
    cell too, and still load). Raises DataError for a file that is not such
    an archive, or whose arrays are not a distribution: finite nonnegative
    probabilities summing to 1 (within 1e-9), on distinct cells of the
    domain when cells are listed, or mixture rows of values in [0, 1].
    """
    try:
        with np.load(path, allow_pickle=False) as z:
            arrays = dict(z)
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile) as e:
        # TypeError: a bare .npy array; ValueError: pickled or object data
        raise DataError(f"{path}: not a distribution archive: {e}") from None
    if "domain" not in arrays:
        raise DataError(f"{path}: the archive names no domain")
    domain = Domain.from_json(str(arrays["domain"]))
    if "probs" in arrays:
        cells, probs = arrays.get("cells"), arrays["probs"]
        if (cells is not None and cells.dtype.kind not in "iu") or probs.dtype.kind not in "iuf":
            raise DataError(f"{path}: cells must be integers and probs numbers")
        dist = SupportDistribution(domain, cells, probs)
        cells, probs = dist.cells, dist.probs
        if cells is not None and (
            cells.min() < 0 or int(cells.max()) >= domain.total_cells or np.unique(cells).size < cells.size
        ):
            raise DataError(f"{path}: cells must be distinct cells of the domain, in [0, {domain.total_cells})")
        if not np.all(np.isfinite(probs)) or probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-9:
            raise DataError(f"{path}: probs must be finite, nonnegative and sum to 1")
        return dist
    if "P" in arrays:
        P = arrays["P"]
        if P.dtype.kind not in "iuf" or not np.all(np.isfinite(P) & (P >= 0) & (P <= 1)):
            raise DataError(f"{path}: P must hold numbers in [0, 1]")
        return ProductMixture(domain, P)
    raise DataError(f"{path}: unrecognized artifact layout")

"""Multiplicative-weights synthesizer over the dense cell histogram.

The update replays every ledger entry `cycles` times. One entry step pushes
the histogram's answer toward the measured value:

    D(x) <- D(x) * exp(+(a~ - q(D))/eta)   on matching cells
    D(x) <- D(x) * exp(-(a~ - q(D))/eta)   elsewhere

followed by renormalization, with a~ clipped into [0, 1] for the multiplier
only (ledger values stay as measured). eta is the step divisor; eta=2 is the
classical step. A step touches only the matching cells (see CellWeights), so
its cost is the size of the query, not of the domain.
"""
from __future__ import annotations

import numpy as np

from .domain import (
    DEFAULT_CELL_CAP,
    CellWeights,
    DataError,
    Domain,
    Histogram,
    SupportDistribution,
    normalize_mass,
)
from .loop import Synthesizer
from .privacy import MeasurementLedger
from .queries import QuerySet


class MwemSynthesizer(Synthesizer):
    def __init__(
        self,
        domain: Domain,
        queries: QuerySet,
        eta: float = 2.0,
        cycles: int = 10,
        cell_cap: int = DEFAULT_CELL_CAP,
    ):
        domain.check_cap(cell_cap)
        if eta <= 0:
            raise DataError("eta must be positive")
        if cycles < 1:
            raise DataError("cycles must be >= 1")
        self.domain = domain
        self.queries = queries
        self.eta = float(eta)
        self.cycles = int(cycles)
        self.mass = np.full(domain.total_cells, 1.0 / domain.total_cells)
        # answer of the histogram at the time each entry was (re)measured
        self.cached_at_measurement: dict[int, float] = {}
        self._cell_lists: dict[int, np.ndarray] = {}  # matching cells per measured query

    def answers(self, queries: QuerySet) -> np.ndarray:
        return queries.answers_mass(self.mass)

    def _cells(self, qidx: int) -> np.ndarray:
        if qidx not in self._cell_lists:
            self._cell_lists[qidx] = self.queries.cells_of(qidx)
        return self._cell_lists[qidx]

    def update(self, ledger: MeasurementLedger) -> None:
        entries = ledger.entries()
        if not entries:
            return
        latest = max(e.round for e in entries)
        for e in entries:
            if e.round == latest or e.index not in self.cached_at_measurement:
                self.cached_at_measurement[e.index] = float(self.mass[self._cells(e.index)].sum())
        weights = CellWeights(self.mass)
        for _ in range(self.cycles):
            for e in entries:
                cells = self._cells(e.index)
                delta = min(max(e.answer, 0.0), 1.0) - weights.answer(cells)
                step = delta / self.eta
                if weights.scale(cells, np.exp(step), np.exp(-step)):
                    weights = CellWeights(normalize_mass(weights.probs()))
        self.mass = normalize_mass(weights.probs())

    def snapshot(self) -> Histogram:
        return Histogram(self.domain, self.mass.copy())

    def finalize(self) -> SupportDistribution:
        return SupportDistribution(
            self.domain,
            np.arange(self.domain.total_cells, dtype=np.int64),
            self.mass.copy(),
        )


def mwem_closed_form_check(
    queries: QuerySet,
    items: list[tuple[int, float, float]],
    sign: float = -1.0,
) -> Histogram:
    """Exponential-family histogram built directly from measurement items.

    items are (global query index, measured target, answer cached at
    measurement time); the result is

        D(x) proportional to exp(sign * sum_i 1[x matches q_i] * (a~_i - cached_i))

    over a uniform base. sign=-1 is the stationary point of the entropy-
    regularized linear loss in those coefficients; sign=+1 with a single item
    reproduces one eta=2 update step exactly.
    """
    domain = queries.domain
    expo = np.zeros(domain.total_cells)
    cells = np.arange(domain.total_cells, dtype=np.int64)
    for qidx, target, cached in items:
        q = queries.query(int(qidx))
        coef = min(max(float(target), 0.0), 1.0) - float(cached)
        expo[q.matches(domain, cells)] += sign * coef
    expo -= expo.max()
    return Histogram(domain, normalize_mass(np.exp(expo)))

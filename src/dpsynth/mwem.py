"""Multiplicative-weights synthesizer over the dense cell histogram.

The update replays every ledger entry `cycles` times. One entry step pushes
the histogram's answer toward the measured value:

    D(x) <- D(x) * exp(+(a~ - q(D))/eta)   on matching cells
    D(x) <- D(x) * exp(-(a~ - q(D))/eta)   elsewhere

followed by renormalization, with a~ clipped into [0, 1] for the multiplier
only (ledger values stay as measured). eta is the step divisor. After
renormalization only the ratio exp(2(a~ - q(D))/eta) between matching and
other cells matters. The classical step of Hardt, Ligett & McSherry (2012),
D(x) * exp(q(x) (a~ - q(D))/2) with answers in fractions of n, has ratio
exp((a~ - q(D))/2), which is eta=4 here; the default eta=2 steps twice as far.
The state is one CellWeights, kept across rounds: a step touches only the
matching cells, so its cost is the size of the query, not of the domain,
and the per-round answers follow the cells that the update scaled (a dense
pass over the histogram only when CellWeights needs one). w is renormalized
in place only when a step makes it due, and normalized once more for output
(`mass`, `finalize`), whose answers are one dense pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    DEFAULT_CELL_CAP,
    LOG_MAX_FLOAT,
    CellWeights,
    ConfigError,
    Domain,
    SupportDistribution,
    normalize_mass,
)
from .loop import Synthesizer
from .privacy import MeasurementLedger
from .queries import QuerySet


@dataclass
class MwemConfig:
    eta: float = 2.0  # step divisor
    cycles: int = 10  # replays of the ledger per update

    def __post_init__(self):
        # a step is exp(+-(a~ - q)/eta) with |a~ - q| <= 1, so exp(1/eta) must be finite
        if not (0 < self.eta < np.inf and 1.0 / self.eta <= LOG_MAX_FLOAT):
            raise ConfigError(f"eta must be finite and >= 1/{LOG_MAX_FLOAT:.6g}")
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")


class MwemSynthesizer(Synthesizer):
    averageable = True

    def __init__(
        self,
        domain: Domain,
        queries: QuerySet,
        cfg: MwemConfig | None = None,
        cell_cap: int = DEFAULT_CELL_CAP,
    ):
        domain.check_cap(cell_cap)
        self.domain = domain
        self.queries = queries
        self.cfg = MwemConfig() if cfg is None else cfg
        self.weights = CellWeights(np.full(domain.total_cells, 1.0 / domain.total_cells), queries)

    @property
    def mass(self) -> np.ndarray:
        """The normalized histogram, computed from the weights."""
        return self.weights.normalized()

    def answers(self) -> np.ndarray:
        return self.weights.read(self.queries.answers_mass)

    def update(self, ledger: MeasurementLedger) -> None:
        entries = ledger.entries()
        if not entries:
            return
        lists = [self.weights.cells(e.index) for e in entries]
        self.weights.save()
        for _ in range(self.cfg.cycles):
            for e, cells in zip(entries, lists):
                delta = min(max(e.answer, 0.0), 1.0) - self.weights.answer(cells)
                step = delta / self.cfg.eta
                if self.weights.scale(cells, np.exp(step), np.exp(-step)):
                    self.weights.reset(normalize_mass(self.weights.divide()))

    def finalize(self) -> SupportDistribution:
        return SupportDistribution(self.domain, None, self.mass)

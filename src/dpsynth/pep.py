"""Iterative-projection synthesizer (maximum-entropy style reweighting).

Each projection step picks the measured query with the worst residual and
reweights the distribution so that query's answer becomes exactly the
(clipped) measured value:

    D'(x) proportional to D(x) * exp(-lambda * q(x)),
    -lambda = ln( a~ (1 - q(D)) / ((1 - a~) q(D)) )

which multiplies matching cells by a~/q(D) and the rest by (1-a~)/(1-q(D)).
The state is one CellWeights, kept across rounds, so each round's solve
starts warm from the previous distribution; on a public support it is
PEP^Pub. A projection touches only the matching cells, and the per-round
answers follow the cells that the update may scale (a dense pass over the
support, `_answers_all`, only when CellWeights needs one). w is
renormalized in place only when a projection makes it due, and normalized
once more for output (`probs`, `finalize`), whose answers are one dense pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    DEFAULT_CELL_CAP,
    CellWeights,
    ConfigError,
    DataError,
    Domain,
    SupportDistribution,
    normalize_mass,
)
from .loop import Synthesizer
from .privacy import MeasurementLedger
from .queries import QuerySet

TARGET_CLIP = 1e-4


@dataclass
class PepConfig:
    gamma: float = 0.0  # an update stops once every residual is at most gamma
    t_max: int = 25  # projections per update

    def __post_init__(self):
        if not 0 <= self.gamma < np.inf or self.t_max < 1:
            raise ConfigError("gamma must be finite and >= 0, and t_max >= 1")


class PepSynthesizer(Synthesizer):
    averageable = True

    def __init__(
        self,
        domain: Domain,
        queries: QuerySet,
        support_cells: np.ndarray | None = None,
        init_probs: np.ndarray | None = None,
        cfg: PepConfig | None = None,
        cell_cap: int = DEFAULT_CELL_CAP,
    ):
        self.domain = domain
        self.queries = queries
        if support_cells is None:
            domain.check_cap(cell_cap)
        # the support's cells, or None for the full domain, whose weights are indexed by flat cell
        self.cells = None if support_cells is None else np.asarray(support_cells, dtype=np.int64)
        size = domain.total_cells if self.cells is None else self.cells.shape[0]
        if init_probs is None:
            init_probs = np.full(size, 1.0 / size)
        self.cfg = PepConfig() if cfg is None else cfg
        # a public support keeps its query map (None on the full domain)
        self._qmap = queries._cell_locals(self.cells)
        self.weights = CellWeights(normalize_mass(init_probs), queries, self._qmap)
        if self.weights.w.shape != (size,):
            raise DataError("support and init probabilities must align")

    @property
    def probs(self) -> np.ndarray:
        """The normalized distribution over the support, computed from the weights."""
        return self.weights.normalized()

    def _answers_all(self, w: np.ndarray) -> np.ndarray:
        """The unnormalized answers of weights w over the support: the dense pass."""
        return self.queries.answers_support(self.cells, w, self._qmap)

    def answers(self) -> np.ndarray:
        return self.weights.read(self._answers_all)

    def update(self, ledger: MeasurementLedger) -> None:
        if len(ledger) == 0:
            return
        idx = ledger.indices()
        targets = np.clip(ledger.answers(), TARGET_CLIP, 1.0 - TARGET_CLIP)
        lists = [self.weights.cells(int(q)) for q in idx]
        flat = np.concatenate(lists)
        groups = np.repeat(np.arange(len(lists)), [c.size for c in lists])
        self.weights.save()
        dead = np.zeros(idx.shape[0], dtype=bool)  # entries no reweighting can move
        for _ in range(self.cfg.t_max):
            current = self.weights.answers(flat, groups, len(lists))
            res = np.abs(targets - current)
            res[dead] = -np.inf
            j = int(np.argmax(res))
            if res[j] <= self.cfg.gamma:
                break
            a_cur, a_target = float(current[j]), float(targets[j])
            # 1 - q(D) cancels as q(D) nears 1, so there the other cells are summed
            rest = 1.0 - a_cur if a_cur <= 0.5 else self.weights.answer_outside(lists[j])
            if not (0.0 < a_cur < 1.0 and rest > 0.0):
                dead[j] = True
                continue
            inside, outside = a_target / a_cur, (1.0 - a_target) / rest
            if self.weights.scale(lists[j], inside, outside):
                self.weights.reset(normalize_mass(self.weights.divide()))

    def finalize(self) -> SupportDistribution:
        return SupportDistribution(self.domain, self.cells, self.probs)

"""Record-search baselines: build the synthetic dataset one best-response
record at a time by exhaustive scan over domain cells.

Both methods spend their whole budget on query selection (no Gaussian
measurements), so they plug into the loop as self-selecting synthesizers and
the accountant runs with alpha = 1; their query draws are made in
`privacy.py`, and FEM's perturbation reads no data. Output is the empirical
distribution of every record accumulated across rounds, one count per cell.

A round does no Python work per query drawn or per record scored. Per-cell
query counts are `QuerySet.transpose_mass` of the histogram of the round's
queries (one indexed add per workload drawn from). FEM draws the noise of
all its records in one call, in the same stream order as one call per
record, and scores them in blocks of at most `_SCORE_BLOCK` (record, cell)
scores, each an argmin over one broadcast sum. Counts are integers held in
floats and every argmin keeps the lowest cell index on ties, so both
methods return what a per-query, per-record scan returns, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    DEFAULT_CELL_CAP,
    ConfigError,
    DataError,
    Domain,
    SupportDistribution,
)
from .loop import Synthesizer
from .privacy import Accountant, MeasurementLedger, dualquery_select, select_k
from .queries import QuerySet

# element budget of FEM's (records, cells) score block
_SCORE_BLOCK = 1 << 16


@dataclass
class DualQueryConfig:
    samples: int = 100  # queries drawn per round

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")


@dataclass
class FemConfig:
    sigma: float = 0.1  # scale of the exponential perturbation
    samples: int = 100  # records generated per round

    def __post_init__(self):
        if not 0 < self.sigma < np.inf or self.samples < 1:
            raise ConfigError("sigma must be > 0 and finite, and samples >= 1")


class _SearchBase(Synthesizer):
    self_selecting = True

    def __init__(self, domain: Domain, queries: QuerySet, cell_cap: int = DEFAULT_CELL_CAP):
        domain.check_cap(cell_cap)
        self.domain = domain
        self.queries = queries
        self.counts = np.zeros(domain.total_cells)  # records accumulated per cell

    def answers(self) -> np.ndarray:
        total = self.counts.sum()
        if not total:
            return self.queries.answers_mass(np.full(self.counts.size, 1.0 / self.counts.size))
        return self.queries.answers_mass(self.counts / total)

    def update(self, ledger: MeasurementLedger) -> None:
        pass  # no measured answers to fit against

    def finalize(self) -> SupportDistribution:
        cells = np.nonzero(self.counts)[0]
        if not cells.size:
            raise DataError("no records accumulated")
        return SupportDistribution(self.domain, cells, self.counts[cells] / self.counts.sum())


class DualQuerySynthesizer(_SearchBase):
    """Query player runs multiplicative weights; data player best-responds.

    Per round: once any record is held, add to every query's log-weight
    eta * its error against the running synthetic average; then draw
    `samples` queries from the query distribution and add the one record
    minimizing their total indicator count (exhaustive scan, lowest cell
    index on ties). The update and the draws are one call of
    :func:`~dpsynth.privacy.dualquery_select`: exponential mechanisms at the
    rate eta that spends the accountant's budget, or under no_noise the query
    of largest log-weight every time.
    """

    def __init__(self, domain, queries, cfg: DualQueryConfig, cell_cap: int = DEFAULT_CELL_CAP):
        super().__init__(domain, queries, cell_cap)
        self.cfg = cfg
        self.logw = np.zeros(queries.total_queries)  # query log-weights: eta times summed payoffs

    def private_round(self, current, private_answers, acct, rng, no_noise):
        payoff = np.abs(private_answers - current) if self.counts.any() else None  # of the records so far
        drawn = dualquery_select(self.logw, payoff, acct, self.cfg.samples, rng, no_noise=no_noise)
        objective = self.queries.transpose_mass(np.bincount(drawn, minlength=self.queries.total_queries))
        self.counts[int(np.argmin(objective))] += 1.0
        return [int(q) for q in drawn], None


class FemSynthesizer(_SearchBase):
    """Exponential-mechanism selection plus perturbed best responses.

    Per round: select k queries by the exponential mechanism over current
    errors (all budget on selection), then generate `samples` records, each
    minimizing (count of selected queries hit) + <one-hot(x), noise> with
    noise drawn coordinatewise from Exp(sigma).
    """

    def __init__(self, domain, queries, cfg: FemConfig, cell_cap: int = DEFAULT_CELL_CAP):
        # an Exp(sigma) draw is below 746 sigma (-ln of the smallest double is 744.4)
        if not np.isfinite(cfg.sigma * 746 * domain.num_attrs):
            raise ConfigError(f"fem sigma {cfg.sigma!r} can overflow a record's summed perturbation")
        super().__init__(domain, queries, cell_cap)
        self.cfg = cfg
        self.base = np.zeros(domain.total_cells)  # sum of selected-query indicators

    def private_round(self, current, private_answers, acct: Accountant, rng, no_noise):
        scores = np.abs(private_answers - current)
        picked = select_k(scores, acct, rng, no_noise=no_noise)
        self.base += self.queries.transpose_mass(np.bincount(picked, minlength=self.queries.total_queries))
        dom = self.domain
        noise = rng.exponential(self.cfg.sigma, size=(self.cfg.samples, dom.onehot_width))
        d, rows = dom.num_attrs, max(1, _SCORE_BLOCK // dom.total_cells)
        buf = np.empty((min(rows, self.cfg.samples), *dom.sizes))  # reused by every block
        best = []
        for r in range(0, self.cfg.samples, rows):
            # per record, <one-hot(x), noise> of every cell x: the attribute
            # blocks summed over a row-major grid; then the base is added
            block = noise[r : r + rows]
            grid = [
                block[:, dom.offset(a) : dom.offset(a) + size].reshape(-1, *(1,) * a, size, *(1,) * (d - 1 - a))
                for a, size in enumerate(dom.sizes)
            ]
            out = buf[: len(block)]
            np.add(sum(grid[:-1]), grid[-1], out=out)
            flat = out.reshape(len(out), -1)
            best.append(np.add(flat, self.base, out=flat).argmin(axis=1))
        self.counts += np.bincount(np.concatenate(best), minlength=dom.total_cells)
        return picked, None

"""Record-search baselines: build the synthetic dataset one best-response
record at a time by exhaustive scan over domain cells.

Both methods spend their whole budget on query selection (no Gaussian
measurements), so they plug into the loop as self-selecting synthesizers and
the accountant runs with alpha = 1. Output is the empirical distribution of
every record accumulated across rounds, kept as one count per cell.
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
from .privacy import Accountant, MeasurementLedger, dualquery_eta, select_k
from .queries import QuerySet


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
    index on ties). Each draw is an exponential mechanism, and eta is the
    rate at which the draws spend the accountant's budget
    (:func:`~dpsynth.privacy.dualquery_eta`), halved under em_halved. Under
    no_noise every draw is the query of largest log-weight instead.
    """

    def __init__(self, domain, queries, cfg: DualQueryConfig, cell_cap: int = DEFAULT_CELL_CAP):
        super().__init__(domain, queries, cell_cap)
        self.cfg = cfg
        self.logw = np.zeros(queries.total_queries)  # query log-weights: eta times summed payoffs

    def private_round(self, current, private_answers, acct, rng, no_noise, em_halved=False):
        if self.counts.any():  # the payoff of the records so far
            eta = dualquery_eta(acct, self.cfg.samples) * (0.5 if em_halved else 1.0)
            self.logw += eta * np.abs(private_answers - current)
        if no_noise:  # every draw is the exact argmax, lowest index on ties (as in select_k)
            drawn = np.full(self.cfg.samples, int(np.argmax(self.logw)))
        else:
            cum = np.cumsum(np.exp(self.logw - self.logw.max()))  # no overflow, whatever eta is
            u = rng.random(self.cfg.samples)
            drawn = np.minimum(np.searchsorted(cum / cum[-1], u, side="right"), cum.size - 1)
        objective = np.zeros(self.domain.total_cells)
        for q in drawn:
            objective[self.queries.cells_of(int(q))] += 1.0
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
        super().__init__(domain, queries, cell_cap)
        self.cfg = cfg
        self.base = np.zeros(domain.total_cells)  # sum of selected-query indicators

    def private_round(self, current, private_answers, acct: Accountant, rng, no_noise, em_halved=False):
        scores = np.abs(private_answers - current)
        picked = select_k(scores, acct, rng, no_noise=no_noise, halved=em_halved)
        for q in picked:
            self.base[self.queries.cells_of(q)] += 1.0
        dom = self.domain
        for _ in range(self.cfg.samples):
            noise = rng.exponential(self.cfg.sigma, size=dom.onehot_width)
            # <one-hot(x), noise> of every cell x: the attribute blocks summed over a row-major grid
            blocks = [noise[dom.offset(a) : dom.offset(a) + size] for a, size in enumerate(dom.sizes)]
            perturb = sum(np.ix_(*blocks)).ravel()
            self.counts[int(np.argmin(self.base + perturb))] += 1.0
        return picked, None

"""The adaptive measure-and-update driver shared by every synthesizer.

Each round: score all candidate queries by current absolute error, privately
select k of them, measure the selected answers with Gaussian noise, append to
the ledger, and let the synthesizer re-fit against the ledger. The private
dataset is touched only through the initial answer vector, the selection
scores, and the measurements.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .domain import ConfigError, DataError, Dataset, Domain, SupportDistribution, normalize_mass
from .privacy import Accountant, BudgetError, MeasurementLedger, select_and_measure_round
from .queries import QuerySet


@dataclass
class RunConfig:
    """Loop-level knobs (method-specific knobs live on the synthesizers)."""

    T: int = 10
    k: int = 1
    # run never reads alpha and seed; they stay only until the benchmark
    # harness, which still sets them, builds its fits with `methods.fit`
    alpha: float = 0.67
    seed: int = 0
    per_workload: bool = False  # measure whole marginals instead of single queries
    no_noise: bool = False  # debugging hook: exact selection + exact measurement
    audit_errors: bool = False  # record full-workload max error per round
    output: str = "last"  # "last" or "average" (histogram methods only)
    em_score_halved: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise BudgetError("T must be >= 1")
        if self.k < 1:
            raise BudgetError("k must be >= 1")
        if self.output not in ("last", "average"):
            raise ConfigError("output must be 'last' or 'average'")


class Synthesizer(abc.ABC):
    """One synthesizer = a state plus an update rule against the ledger."""

    domain: Domain
    queries: QuerySet  # the one collection it is fitted to; run must be given it
    # methods that run their own private round (no Gaussian measurements)
    self_selecting: bool = False

    @abc.abstractmethod
    def answers(self) -> np.ndarray:
        """Current answers of the synthetic distribution to every query of `queries`."""

    @abc.abstractmethod
    def update(self, ledger: MeasurementLedger) -> None:
        """Re-fit the state against all measurements so far."""

    @abc.abstractmethod
    def finalize(self):
        """Output distribution handle (answers / sample_dataset / save)."""

    def private_round(self, current, private_answers, acct, rng, no_noise, em_halved=False):
        """One self-selected round from the current answers; returns (selected, None)."""
        raise NotImplementedError


def run(
    data: Dataset,
    queries: QuerySet,
    synth: Synthesizer,
    acct: Accountant,
    cfg: RunConfig,
    rng: np.random.Generator,
):
    """Run T rounds of `synth`, which must be built on `queries`; return (output, trace).

    The trace is one dict per round: selected query indices, their measured
    answers, and the post-update max error over the measured set. Full
    workload error is recorded only when auditing is allowed to read the
    private answers again (no_noise or audit_errors). With output="average"
    the output is the mean of every round's distribution over the method's
    own support, summed in round order.
    """
    if synth.queries is not queries:
        raise ConfigError("the synthesizer was built on another query collection")
    if data.n < 1:
        raise DataError("empty private dataset")
    if acct.T != cfg.T or acct.k != cfg.k:
        raise BudgetError("accountant and run config disagree on T or k")
    if cfg.per_workload and synth.self_selecting:
        raise ConfigError("per_workload measurement does not apply to a self-selecting synthesizer")
    want_avg = cfg.output == "average"
    audit = cfg.no_noise or cfg.audit_errors
    private = queries.answers_records(data)
    ledger = MeasurementLedger(exact=cfg.no_noise)
    trace: list[dict] = []
    total = None  # running sum of each round's output probabilities
    post = None  # answers after the last update, while the state has not moved since
    for t in range(1, cfg.T + 1):
        current = synth.answers() if post is None else post
        if synth.self_selecting:
            selected, noisy = synth.private_round(
                current, private, acct, rng, cfg.no_noise, cfg.em_score_halved
            )
            post = synth.answers() if audit else None
            rec: dict = {
                "round": t,
                "selected": [int(s) for s in selected],
                "noisy_answers": noisy,
                "max_err_measured": None,
            }
        else:
            selected = select_and_measure_round(
                ledger,
                queries,
                current,
                private,
                acct,
                rng,
                t,
                per_workload=cfg.per_workload,
                no_noise=cfg.no_noise,
                em_halved=cfg.em_score_halved,
            )
            synth.update(ledger)
            post = synth.answers()
            new = [e for e in ledger.entries() if e.round == t]
            idx = ledger.indices()
            rec = {
                "round": t,
                "selected": [int(s) for s in selected],
                "measured": [e.index for e in new],
                "noisy_answers": [e.answer for e in new],
                "max_err_measured": float(np.abs(ledger.answers() - post[idx]).max()),
            }
        if audit:
            rec["max_err_all"] = float(np.abs(private - post).max())
        trace.append(rec)
        if want_avg:
            out = synth.finalize()
            if synth.self_selecting or not isinstance(out, SupportDistribution):
                raise ConfigError("averaged output is only available for histogram methods")
            total = out.probs if total is None else total + out.probs
    if want_avg:
        return SupportDistribution(out.domain, out.cells, normalize_mass(total / cfg.T)), trace
    return synth.finalize(), trace

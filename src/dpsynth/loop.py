"""The adaptive measure-and-update driver shared by every synthesizer.

Each round: score all candidate queries by current absolute error, privately
select k of them, measure the selected answers with Gaussian noise, append to
the ledger, and let the synthesizer re-fit against the ledger. The private
dataset is touched only through the initial answer vector, the selection
scores, and the measurements.
"""
from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .domain import ConfigError, DataError, Dataset, Domain, SupportDistribution, normalize_mass
from .privacy import Accountant, BudgetError, MeasurementLedger, select_and_measure_round
from .queries import QuerySet

# the loop's defaults, which the CLI's flags and `methods.fit` read too:
# rounds, queries selected per round, and the selection share of each round's budget
DEFAULT_T, DEFAULT_K, DEFAULT_ALPHA = 10, 1, 0.67


@dataclass
class RunConfig:
    """Loop-level knobs (each method's own knobs live in its config, `methods.CONFIGS`)."""

    T: int = DEFAULT_T
    k: int = DEFAULT_K
    # run never reads alpha and seed; they stay only until the benchmark
    # harness, which still sets them, builds its fits with `methods.fit`
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    per_workload: bool = False  # measure whole marginals instead of single queries
    no_noise: bool = False  # debugging hook: exact selection + exact measurement
    audit_errors: bool = False  # record full-workload max error per round
    output: str = "last"  # "last" or "average" (histogram methods only)

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
    # methods whose output run can average over rounds: state `weights` spans the output's cells
    averageable: bool = False

    @abc.abstractmethod
    def answers(self) -> np.ndarray:
        """Current answers of the synthetic distribution to every query of `queries`."""

    @abc.abstractmethod
    def update(self, ledger: MeasurementLedger) -> None:
        """Re-fit the state against all measurements so far."""

    @abc.abstractmethod
    def finalize(self):
        """Output distribution handle (answers / sample_dataset / save)."""

    def private_round(self, current, private_answers, acct, rng, no_noise):
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
    if want_avg and not synth.averageable:
        raise ConfigError("averaged output is only available for histogram methods")
    audit = cfg.no_noise or cfg.audit_errors
    private = queries.answers_records(data)
    if synth.self_selecting:  # no Gaussian measurement (alpha = 1)
        sigma = None
    elif cfg.no_noise:
        sigma = 0.0
    else:
        sigma = acct.gaussian_sigma(math.sqrt(2.0) if cfg.per_workload else 1.0)
    ledger = MeasurementLedger(sigma)
    trace: list[dict] = []
    total = 0.0  # running sum of each round's output probabilities
    post = None  # answers after the last update, while the state has not moved since
    for t in range(1, cfg.T + 1):
        current = synth.answers() if post is None else post
        if synth.self_selecting:
            selected, noisy = synth.private_round(current, private, acct, rng, cfg.no_noise)
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
            total += synth.weights.normalized()  # in place from the second round
    out = synth.finalize()
    if want_avg:
        return SupportDistribution(out.domain, out.cells, normalize_mass(total / cfg.T)), trace
    return out, trace

"""Budget accounting and every private draw of every method.

The engine spends a total zero-concentrated budget rho across T rounds of
k selections (exponential mechanism) plus k measurements (Gaussian), with a
fraction alpha of each round's per-query budget on selection. The base
per-query parameter is

    eps0 = sqrt(2 * rho / (k * T * (alpha^2 + (1 - alpha)^2)))

so that T rounds of k exponential draws and k Gaussian draws at noise
1/(n*(1-alpha)*eps0) compose to exactly rho. Each selection draws at the one
exponent alpha*eps0 per unit of sensitivity (:meth:`Accountant.em_exponent`)
and costs (alpha*eps0)^2 / 2; DualQuery's draws spend rho at the rate
:func:`dualquery_eta` derives.

The draws are one call per round each: the loop's and FEM's selections
(:func:`select_k`) and DualQuery's query draws (:func:`dualquery_select`)
call :func:`exp_mechanism`, and the loop's measurements are one
:func:`gaussian_measure` (:func:`select_and_measure_round`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import ConfigError
from .queries import QuerySet


class BudgetError(ConfigError):
    """Inconsistent or degenerate privacy parameters."""


def zcdp_to_dp(rho: float, delta: float) -> float:
    """Best (eps, delta) guarantee implied by rho-zCDP: rho + 2*sqrt(rho*ln(1/delta))."""
    if rho < 0:
        raise BudgetError("rho must be nonnegative")
    if not (0 < delta < 1):
        raise BudgetError("delta must lie in (0, 1)")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))

def dp_to_zcdp(eps: float, delta: float) -> float:
    """Inverse of :func:`zcdp_to_dp`: the rho whose (eps, delta) curve passes through eps."""
    if eps < 0:
        raise BudgetError("eps must be nonnegative")
    if not (0 < delta < 1):
        raise BudgetError("delta must lie in (0, 1)")
    a = math.log(1.0 / delta)
    t = math.sqrt(a + eps) - math.sqrt(a)
    return t * t


@dataclass(frozen=True)
class Accountant:
    """Per-run budget split. alpha is the selection share of each round."""

    rho: float
    T: int
    k: int
    alpha: float
    n: int

    def __post_init__(self):
        if self.rho <= 0 or not math.isfinite(self.rho):
            raise BudgetError("rho must be positive and finite")
        if self.T < 1 or self.k < 1:
            raise BudgetError("T and k must be >= 1")
        if self.n < 1:
            raise BudgetError("n must be >= 1")
        # alpha == 1.0 is reserved for selection-only methods (no Gaussian
        # step); the standard loop needs both shares strictly positive.
        if not (0.0 < self.alpha <= 1.0):
            raise BudgetError("alpha must lie in (0, 1]")

    @classmethod
    def selection_only(cls, rho: float, T: int, k: int, n: int) -> "Accountant":
        """Budget for methods that only ever sample queries (no measurement)."""
        return cls(rho, T, k, 1.0, n)

    @property
    def eps0(self) -> float:
        denom = self.k * self.T * (self.alpha**2 + (1.0 - self.alpha) ** 2)
        return math.sqrt(2.0 * self.rho / denom)

    def gaussian_sigma(self, sensitivity_scale: float = 1.0) -> float:
        """Std dev of measurement noise on an answer in [0, 1].

        sensitivity_scale is 1 for a single counting query and sqrt(2) when a
        whole workload is measured at once (one record moves two cells of the
        marginal, an L2 change of sqrt(2)/n).
        """
        if self.alpha >= 1.0:
            raise BudgetError("selection-only budget has no measurement share")
        return sensitivity_scale / (self.n * (1.0 - self.alpha) * self.eps0)

    def em_exponent(self) -> float:
        """Selection exponent per unit of score, alpha*eps0*n: scores are
        errors of normalized counts, which one record moves by 1/n, so a draw
        costs (alpha*eps0)^2 / 2, the share :meth:`spent_rho` composes."""
        return self.alpha * self.eps0 * self.n

    def spent_rho(self) -> float:
        """Recompose the budget actually consumed by T rounds (sanity check)."""
        e = self.eps0
        per_round = self.k * 0.5 * (self.alpha * e) ** 2
        if self.alpha < 1.0:
            per_round += self.k * 0.5 * ((1.0 - self.alpha) * e) ** 2
        return per_round * self.T

    def epsilon(self, delta: float) -> float:
        return zcdp_to_dp(self.rho, delta)


def dualquery_eta(acct: Accountant, samples: int) -> float:
    """The query-weight rate eta at which DualQuery spends exactly acct.rho.

    In round t a query's log-weight is eta times its summed payoffs (absolute
    errors of normalized counts) over the t-1 rounds before, so one record
    moves it by at most eta*(t-1)/n. Each of the round's `samples` draws is
    then an exponential mechanism that costs (eta*(t-1)/n)^2 / 2, as a draw of
    :func:`exp_mechanism` does, and T rounds compose to
    rho = samples * eta^2 * sum_{t=1..T} (t-1)^2 / (2 n^2). At T=1 eta is 0.
    """
    squares = (acct.T - 1) * acct.T * (2 * acct.T - 1) // 6  # sum of (t-1)^2
    return acct.n * math.sqrt(2.0 * acct.rho / (samples * squares)) if squares else 0.0


def exp_mechanism_probs(scores: np.ndarray, exponent: float) -> np.ndarray:
    """Distribution of :func:`exp_mechanism`: the max-shifted softmax of exponent * scores."""
    logits = exponent * np.asarray(scores, dtype=np.float64)
    p = np.exp(logits - logits.max())
    return p / p.sum()


def exp_mechanism(scores: np.ndarray, exponent: float, count: int, rng, *, no_noise=False) -> np.ndarray:
    """`count` exponential-mechanism draws, each index i with probability
    proportional to exp(exponent * scores[i]), by inverse CDF on one
    `rng.random(count)`. One draw costs (exponent * sensitivity of the
    scores)^2 / 2 in zCDP. Under no_noise every draw is the lowest-index
    argmax of `scores` and nothing is drawn.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise BudgetError("need a nonempty score vector")
    if no_noise:
        return np.full(count, int(np.argmax(scores)))
    cum = np.cumsum(exp_mechanism_probs(scores, exponent))
    return np.minimum(np.searchsorted(cum, rng.random(count), side="right"), scores.size - 1)


def select_k(scores: np.ndarray, acct: Accountant, rng, *, no_noise=False) -> list[int]:
    """acct.k selections over `scores`, absolute errors of normalized counts:
    draws at the accountant's exponent, or the exact argmax k times under no_noise."""
    return exp_mechanism(scores, acct.em_exponent(), acct.k, rng, no_noise=no_noise).tolist()


def dualquery_select(logw, payoff, acct: Accountant, samples: int, rng, *, no_noise=False):
    """DualQuery's draws of one round: add :func:`dualquery_eta` times `payoff`
    (None before the first record) to the log-weights `logw` in place, then
    draw `samples` queries with probabilities proportional to exp(logw)."""
    if payoff is not None:
        logw += dualquery_eta(acct, samples) * payoff
    return exp_mechanism(logw, 1.0, samples, rng, no_noise=no_noise)


def gaussian_measure(true_answer, acct: Accountant, rng, *, sensitivity_scale: float = 1.0):
    """Measure an answer, or an array of answers with independent draws in
    order, with Gaussian noise at the accountant's sigma.

    The noisy values are stored as-is (no clipping); consumers clip when their
    update rule requires a value in [0, 1].
    """
    true = np.asarray(true_answer, dtype=np.float64)
    return true + acct.gaussian_sigma(sensitivity_scale) * rng.standard_normal(true.shape)


class LedgerEntry(NamedTuple):
    index: int  # global query index
    answer: float  # measured (noisy) answer, unclipped
    round: int  # 1-based round of the most recent measurement


class MeasurementLedger:
    """Ordered record of measured queries.

    At most one live entry per query: re-measuring replaces the old value and
    moves the entry to the end, so rounds are nondecreasing in entry order.
    `sigma` is the Gaussian standard deviation of every measurement: 0.0 when
    the answers were measured without noise, None when it is unknown (a
    ledger built by hand). `exact` says sigma is 0.0.
    """

    def __init__(self, sigma: float | None = None):
        self.sigma = sigma
        self._entries: dict[int, tuple[float, int]] = {}

    @property
    def exact(self) -> bool:
        return self.sigma == 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, qidx: int, answer: float, rnd: int) -> None:
        self._entries.pop(qidx, None)
        self._entries[qidx] = (float(answer), int(rnd))

    def entries(self) -> list[LedgerEntry]:
        return [LedgerEntry(i, a, r) for i, (a, r) in self._entries.items()]

    def indices(self) -> np.ndarray:
        return np.fromiter(self._entries.keys(), dtype=np.int64, count=len(self._entries))

    def answers(self) -> np.ndarray:
        return np.array([a for a, _ in self._entries.values()], dtype=np.float64)

    def rounds(self) -> np.ndarray:
        return np.array([r for _, r in self._entries.values()], dtype=np.int64)


def select_and_measure_round(
    ledger: MeasurementLedger,
    queries: QuerySet,
    current_answers: np.ndarray,
    private_answers: np.ndarray,
    acct: Accountant,
    rng: np.random.Generator,
    rnd: int,
    *,
    per_workload: bool = False,
    no_noise: bool = False,
) -> list[int]:
    """One Sample-then-Measure round; mutates the ledger, returns selections.

    Per-query mode: k exponential draws over per-query errors, then the k
    drawn queries are measured (sensitivity scale 1). Per-workload mode: k
    draws over per-workload max errors, then every query of each drawn
    workload is measured at sensitivity scale sqrt(2). The measurement is one
    Gaussian call over the round's measured ids, in draw order.

    All selection draws happen before any measurement draw, so a fixed seed
    fixes the whole round. With no_noise=True selection degenerates to the
    exact argmax (lowest index wins ties) and measurements are exact.
    """
    scores = np.abs(private_answers - current_answers)
    slices = queries.slices()
    if per_workload:
        scores = np.maximum.reduceat(scores, [sl.start for sl in slices])
    selected = select_k(scores, acct, rng, no_noise=no_noise)
    if per_workload:
        ids = np.concatenate([np.arange(slices[s].start, slices[s].stop) for s in selected])
    else:
        ids = np.array(selected)
    answers = private_answers[ids]
    if not no_noise:
        answers = gaussian_measure(answers, acct, rng, sensitivity_scale=math.sqrt(2.0) if per_workload else 1.0)
    for q, a in zip(ids.tolist(), answers.tolist()):
        ledger.record(q, a, rnd)
    return selected

"""Relaxed-tabular synthesizer: n' trainable rows in one-hot space.

Each row holds one logit per one-hot column; a per-attribute softmax maps the
row to concatenated distributions, and query answers are batch means of
product queries. The fit minimizes the squared-error sum over all measured
answers (clipped into [0,1]) by Adam steps scaled by a backtracking line
search. A step is accepted only when it does not raise the loss, so the loss
never increases across accepted steps. The search is warm-started: it tries
first the scale the previous step accepted, doubled (up to 1) when that step
was accepted on its first trial, and halves it at most MAX_HALVINGS (8) times,
after which the step is dropped. A round, and a momentum restart after a
failed search, start at scale 1/2. A round's fit stops at the first of these
rules, tested in this order:

1. `max_steps` steps have been tried (a momentum restart counts as one);
2. every measured residual is within the ledger's noise `sigma` (the
   discrepancy principle: such a residual cannot be told apart from the
   noise), tested before every gradient, the first one included; a ledger
   with no sigma skips it, and at sigma 0 only an exact fit stops here;
3. the gradient is exactly zero;
4. a line search on a fresh momentum fails all its trials;
5. PLATEAU_WINDOW accepted steps cut the loss by less than PLATEAU_TOL of
   its value before them.

A round fits only the columns of the attribute blocks that its measured
queries read: the others get a zero gradient, so they would not move anyway.
The fit is bit-identical to one over every column while no logit reaches
`gem.SHIFT_BOUND`; past it, such a logit in an unread block sends only the
full-width block softmax down its shifted path, a few ulps away. It prepares
its measured query ids once (`QuerySet.gather`) and holds those columns of
the logits column-major, so the block softmax's per-block reductions, the
gather of each query's columns (rows of the transpose) and the gradient read
contiguous memory; the gradient comes back column-major too. A clipping
variant (rows clipped to [0,1] instead of softmax-normalized) is kept as a
reference point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ConfigError, Domain, ProductMixture
from .loop import Synthesizer
from .privacy import MeasurementLedger
from .queries import QuerySet, product_answers, product_answers_grad
from .gem import Adam, block_softmax, block_softmax_grad


@dataclass
class RapConfig:
    rows: int = 1000
    lr: float = 0.1
    max_steps: int = 1000  # per update call
    original: bool = False  # clip rows to [0,1] instead of softmax blocks

    def __post_init__(self):
        if self.rows < 1 or not 0 < self.lr < np.inf or self.max_steps < 0:
            raise ConfigError("rows >= 1, finite lr > 0, max_steps >= 0 required")


# an update stops once PLATEAU_WINDOW accepted steps cut the loss by less than
# PLATEAU_TOL of its value before them
PLATEAU_WINDOW = 10
PLATEAU_TOL = 1e-6
# a line search that finds no descent within this many halvings of its first
# trial fails: the step is dropped and the momentum restarted (or, on a fresh
# momentum, the update stops). Deeper searches mostly fail anyway, at one loss
# evaluation per trial; 8 keeps the criterion-7 error of a 30-trial search.
MAX_HALVINGS = 8
# the first trial scale of a round and of a restarted momentum
START_SCALE = 0.5


class RapSynthesizer(Synthesizer):
    """Trainable logits M, one row per synthetic pseudo-record (rows x onehot_width)."""

    def __init__(self, domain: Domain, queries: QuerySet, cfg: RapConfig, rng: np.random.Generator):
        self.domain = domain
        self.queries = queries
        self.cfg = cfg
        # rows must start distinct: identical rows get identical gradients
        # (answers are row means) and the table degenerates to one product
        # distribution no matter how many rows it has
        if cfg.original:
            self.M = rng.random((cfg.rows, domain.onehot_width))
        else:
            self.M = rng.standard_normal((cfg.rows, domain.onehot_width))

    def _probs(self, M: np.ndarray, domain: Domain) -> np.ndarray:
        """The distributions of rows M, whose columns are `domain`'s blocks:
        block softmax, or clipped to [0,1] (original)."""
        if self.cfg.original:
            return np.clip(M, 0.0, 1.0)
        return block_softmax(M, domain)

    def answers(self) -> np.ndarray:
        return self.queries.answers_probs(self._probs(self.M, self.domain))

    def _loss(self, M: np.ndarray, queries: QuerySet, qidx: np.ndarray, targets: np.ndarray):
        """(squared-error loss, P, residual answers - targets) at rows M, whose
        columns are the blocks of the domain that `queries` (which qidx
        indexes: ids, or their `Gather`) is over."""
        P = self._probs(M, queries.domain)
        diff = product_answers(P, queries, qidx) - targets
        return float((diff**2).sum()), P, diff

    def _grad(self, M: np.ndarray, queries: QuerySet, qidx: np.ndarray, P: np.ndarray, diff: np.ndarray):
        """d loss / d M from the P and residual that `_loss` returned for M."""
        dP = product_answers_grad(P, queries, 2.0 * diff, qidx)
        if self.cfg.original:
            return dP * ((M > 0.0) & (M < 1.0))
        return block_softmax_grad(P, dP, queries.domain)

    def _read_blocks(self, qidx: np.ndarray) -> tuple[np.ndarray, QuerySet, np.ndarray]:
        """(columns, queries, ids): the one-hot columns of the attributes that
        the queries `qidx` read, their workloads as a collection over just
        those attributes, and the queries' ids in it."""
        qs, dom = self.queries, self.domain
        read, which = np.unique(qs.workload_of(qidx), return_inverse=True)
        attrs = sorted({f for wi in read for f in qs.workloads[wi].features})
        pos = {f: i for i, f in enumerate(attrs)}
        sub = QuerySet.from_subsets(
            Domain(tuple(dom.names[f] for f in attrs), tuple(dom.sizes[f] for f in attrs)),
            [tuple(pos[f] for f in qs.workloads[wi].features) for wi in read],
        )
        # a query keeps its position within its workload
        shift = np.array([sw.offset - qs.workloads[wi].offset for wi, sw in zip(read, sub.workloads)])
        return np.flatnonzero(np.isin(dom.block_ids, attrs)), sub, qidx + shift[which]

    def update(self, ledger: MeasurementLedger) -> None:
        if len(ledger) == 0:
            return
        cols, queries, qidx = self._read_blocks(ledger.indices())
        qidx = queries.gather(qidx, self.cfg.rows)
        # answers live in [0,1]; an out-of-range noisy target keeps a
        # constant-size pull at the boundary and collapses rows to one-hots
        targets = np.clip(ledger.answers(), 0.0, 1.0)
        M = np.asfortranarray(self.M[:, cols])
        loss, P, diff = self._loss(M, queries, qidx, targets)
        history = [loss]
        # per-coordinate moment scaling; raw softmax gradients are ~1e-4 so a
        # bare lr*g step at lr=0.1 goes nowhere. Moments reset each round.
        opt = Adam(M, self.cfg.lr)
        start = START_SCALE
        g = None  # the gradient at M, kept across a momentum restart
        for _ in range(self.cfg.max_steps):
            if g is None:
                # residuals within the noise: fitting further fits the noise
                if ledger.sigma is not None and np.abs(diff).max() <= ledger.sigma:
                    break
                g = self._grad(M, queries, qidx, P, diff)
                if not g.any():  # exact stationary point
                    break
            delta = opt.direction(g)
            scale = start
            for _ in range(MAX_HALVINGS + 1):
                M_try = M - scale * delta
                new_loss, new_P, new_diff = self._loss(M_try, queries, qidx, targets)
                if new_loss <= loss:
                    break
                scale *= 0.5
            else:
                if opt.t == 1:
                    break  # even the plain scaled gradient fails: done
                # stale momentum points uphill near the optimum; restart
                # from the same M, whose gradient g is still current
                opt = Adam(M, self.cfg.lr)
                start = START_SCALE
                continue
            # warm start: the next search begins at this scale, or at twice
            # it when the first trial was accepted
            start = min(2.0 * scale, 1.0) if scale == start else scale
            M, loss, P, diff, g = M_try, new_loss, new_P, new_diff, None
            history.append(loss)
            if len(history) > PLATEAU_WINDOW:
                ref = history[-PLATEAU_WINDOW - 1]
                if ref - loss < PLATEAU_TOL * max(ref, 1e-12):
                    break
        self.M[:, cols] = M

    def finalize(self) -> ProductMixture:
        return ProductMixture(self.domain, self._probs(self.M, self.domain))

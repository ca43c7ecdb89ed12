"""Relaxed-tabular synthesizer: n' trainable rows in one-hot space.

Each row holds one logit per one-hot column; a per-attribute softmax maps the
row to concatenated distributions, and query answers are batch means of
product queries. The fit minimizes the squared-error sum over all measured
answers (clipped into [0,1]) by moment-scaled gradient steps with per-step
halving on overshoot, so the loss never increases across accepted steps. A
clipping variant (rows clipped to [0,1] instead of softmax-normalized) is
kept as a reference point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DataError, Domain, ProductMixture
from .loop import Synthesizer
from .privacy import MeasurementLedger
from .queries import QuerySet, product_answers, product_answers_grad
from .gem import block_softmax, block_softmax_grad


@dataclass
class RapConfig:
    rows: int = 1000
    lr: float = 0.1
    max_steps: int = 1000  # per update call
    plateau_window: int = 10
    plateau_tol: float = 1e-6
    original: bool = False  # clip rows to [0,1] instead of softmax blocks

    def __post_init__(self):
        if self.rows < 1 or self.lr <= 0 or self.max_steps < 0:
            raise DataError("rows >= 1, lr > 0, max_steps >= 0 required")


@dataclass
class RelaxedDataset:
    """Trainable logits, one row per synthetic pseudo-record."""

    domain: Domain
    M: np.ndarray  # rows x onehot_width
    original: bool = False

    def probs(self) -> np.ndarray:
        if self.original:
            return np.clip(self.M, 0.0, 1.0)
        return block_softmax(self.M, self.domain)


def rap_answers(rd: RelaxedDataset, queries: QuerySet) -> np.ndarray:
    return queries.answers_probs(rd.probs())


class RapSynthesizer(Synthesizer):
    def __init__(self, domain: Domain, queries: QuerySet, cfg: RapConfig, rng: np.random.Generator):
        self.domain = domain
        self.queries = queries
        self.cfg = cfg
        # rows must start distinct: identical rows get identical gradients
        # (answers are row means) and the table degenerates to one product
        # distribution no matter how many rows it has
        if cfg.original:
            M = rng.random((cfg.rows, domain.onehot_width))
        else:
            M = rng.standard_normal((cfg.rows, domain.onehot_width))
        self.rd = RelaxedDataset(domain, M, cfg.original)

    def answers(self, queries: QuerySet) -> np.ndarray:
        return rap_answers(self.rd, queries)

    def _loss_grad(self, M: np.ndarray, idx: np.ndarray, targets: np.ndarray, want_grad: bool):
        rd = RelaxedDataset(self.domain, M, self.cfg.original)
        P = rd.probs()
        ans = product_answers(P, idx)
        diff = ans - targets
        loss = float((diff**2).sum())
        if not want_grad:
            return loss, None
        dP = product_answers_grad(P, idx, 2.0 * diff)
        if self.cfg.original:
            gM = dP * ((M > 0.0) & (M < 1.0))
        else:
            gM = block_softmax_grad(P, dP, self.domain)
        return loss, gM

    def update(self, ledger: MeasurementLedger) -> None:
        if len(ledger) == 0:
            return
        idx = self.queries.idx[ledger.indices()]
        # answers live in [0,1]; an out-of-range noisy target keeps a
        # constant-size pull at the boundary and collapses rows to one-hots
        targets = np.clip(ledger.answers(), 0.0, 1.0)
        M = self.rd.M
        loss, _ = self._loss_grad(M, idx, targets, want_grad=False)
        history = [loss]
        # per-coordinate moment scaling; raw softmax gradients are ~1e-4 so a
        # bare lr*g step at lr=0.1 goes nowhere. Moments reset each round.
        m = np.zeros_like(M)
        v = np.zeros_like(M)
        b1, b2, aeps = 0.9, 0.999, 1e-8
        tm = 0  # steps since last momentum restart (bias correction)
        for _ in range(self.cfg.max_steps):
            _, g = self._loss_grad(M, idx, targets, want_grad=True)
            if np.abs(g).max() == 0.0:  # exact stationary point
                break
            tm += 1
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            delta = self.cfg.lr * (m / (1 - b1**tm)) / (np.sqrt(v / (1 - b2**tm)) + aeps)
            scale = 1.0
            accepted = False
            for _ in range(30):
                M_try = M - scale * delta
                new_loss, _ = self._loss_grad(M_try, idx, targets, want_grad=False)
                if new_loss <= loss:
                    accepted = True
                    break
                scale *= 0.5
            if not accepted:
                if tm == 1:
                    break  # even the plain scaled gradient fails: done
                # stale momentum points uphill near the optimum; restart
                m[:] = 0.0
                v[:] = 0.0
                tm = 0
                continue
            M, loss = M_try, new_loss
            history.append(loss)
            w = self.cfg.plateau_window
            if len(history) > w:
                ref = history[-w - 1]
                if ref - loss < self.cfg.plateau_tol * max(ref, 1e-12):
                    break
        self.rd = RelaxedDataset(self.domain, M, self.cfg.original)

    def finalize(self) -> ProductMixture:
        return ProductMixture(self.domain, self.rd.probs())

"""Generator-network synthesizer over relaxed one-hot outputs.

The generator is a small fully connected network: Gaussian noise in, one
logit per one-hot column out, each attribute block squashed by its own
softmax. A fixed batch of noise vectors is drawn once per run, so the
synthetic distribution is the uniform mixture of B product distributions.
The block softmax shifts each block by its max only when some |logit|
reaches SHIFT_BOUND (or is not finite), where exp could overflow; below it
the exponent is taken directly, which saves the per-block max.

Training at each round minimizes the mean absolute (or squared) residual
against measured answers whose current residual exceeds a moving threshold
gamma; gamma tracks an exponential moving average (beta 0.5) of the
per-round sampled max error. After half the rounds an exponential moving
average of the weights (beta 0.9) starts accumulating and is used as the
final model.

Gradients are computed by a purpose-built reverse pass (matrix calculus by
hand, no autograd dependency); adam-style moment estimates drive the steps.
G trains in place on one flat float32 parameter vector: the (W, b) layers
are views into it, and the gradient buffer, Adam's moments and the EMA share
its layout and dtype and are allocated once. The network runs at single
precision, as a PyTorch generator does by default; its logits are upcast,
so P, the answers, the residuals and the stop test stay float64. A fit runs
one forward pass per parameter version: the pass that answers the queries
also opens the next round's fit, and a round that stops on gamma leaves its
last pass for the answers.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .domain import ConfigError, DataError, Domain, ProductMixture
from .loop import Synthesizer
from .privacy import MeasurementLedger
from .queries import QuerySet, prefix_outers, product_answers, product_answers_grad

LOSSES = ("l1", "l2")  # the choices of GemConfig.loss


@dataclass
class GemConfig:
    hidden: tuple[int, ...] = (64, 128)
    z_dim: int = 16
    batch: int = 100
    lr: float = 1e-4
    t_max: int = 100
    loss: str = "l1"  # one of LOSSES
    resample_z: bool = False  # draw fresh noise every training step
    ema_beta: float = 0.9

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ConfigError("loss must be 'l1' or 'l2'")
        if self.z_dim < 1 or self.batch < 1 or self.t_max < 0 or any(h < 1 for h in self.hidden):
            raise ConfigError("z_dim, batch and hidden widths must be >= 1, t_max >= 0")
        if not 0 < self.lr < np.inf:
            raise ConfigError("lr must be > 0 and finite")
        if not (0.0 < self.ema_beta < 1.0):
            raise ConfigError("ema_beta must lie in (0, 1)")


# moving-average weight of the fit threshold gamma (see the module docstring)
GAMMA_BETA = 0.5
# Adam's moment decays and denominator guard
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


# parameters are a list of (W, b) per layer; hidden layers use a rectifier,
# the last layer feeds the per-attribute softmax blocks
Params = list[tuple[np.ndarray, np.ndarray]]
# the dtype G trains in; init_params and the noise draw float64 and are cast,
# so the random stream does not depend on it
PARAM_DTYPE = np.float32


def init_params(rng: np.random.Generator, z_dim: int, hidden: tuple[int, ...], out_width: int) -> Params:
    dims = [z_dim, *hidden, out_width]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in)
        b = np.zeros(fan_out)
        layers.append((W, b))
    return layers


# below this bound on |logit| the block softmax needs no shift: e^600 is about
# 3.8e260, so a block of up to e^109 columns sums below the float max, and
# e^-600 is still a normal double
SHIFT_BOUND = 600.0


def block_softmax(logits: np.ndarray, domain: Domain) -> np.ndarray:
    """Softmax of each attribute block of each row: one reduceat call per
    reduction over all blocks, and no loop over the attributes.

    The exponent is taken directly while every |logit| is below SHIFT_BOUND.
    Past it, or on a non-finite logit, each block is shifted by its own max
    first: a row-wide max could sit hundreds above another block and
    underflow that block to 0/0. The two paths differ by a few ulps.
    """
    starts, ids = domain.block_starts, domain.block_ids
    if np.abs(logits).max() < SHIFT_BOUND:  # False on nan
        P = np.exp(logits)
    else:
        P = logits - np.maximum.reduceat(logits, starts, axis=1)[:, ids]
        np.exp(P, out=P)
    P /= np.add.reduceat(P, starts, axis=1)[:, ids]
    return P


def flat_params(params: Params) -> tuple[np.ndarray, Params]:
    """(theta, views): the parameters copied into one flat float32 vector
    (PARAM_DTYPE, rounded once), W then b layer by layer, and the (W, b) list
    as views into it."""
    theta = np.concatenate([x.ravel() for layer in params for x in layer], dtype=PARAM_DTYPE)
    return theta, layer_views(theta, params)


def layer_views(flat: np.ndarray, like: Params) -> Params:
    """The (W, b) list shaped like `like`, as views into a flat vector laid out as `flat_params` lays it."""
    out, pos = [], 0
    for W, b in like:
        out.append((flat[pos : pos + W.size].reshape(W.shape), flat[pos + W.size : pos + W.size + b.size]))
        pos += W.size + b.size
    return out


@np.errstate(over="ignore", invalid="ignore")
def forward(params: Params, Z: np.ndarray, domain: Domain):
    """Returns (P, cache); P rows are concatenated attribute distributions.

    The layers run in the dtype of the parameters, and the logits are upcast:
    P is float64 either way. Diverged weights overflow without a warning: a
    fit's `_fit_terms` reports the non-finite answers.
    """
    acts = [np.asarray(Z, dtype=params[0][0].dtype)]
    pres = []
    A = acts[0]
    for W, b in params[:-1]:
        pre = A @ W + b
        pres.append(pre)
        A = np.maximum(pre, 0.0)
        acts.append(A)
    W, b = params[-1]
    logits = A @ W + b
    P = block_softmax(logits.astype(np.float64, copy=False), domain)
    return P, (acts, pres, P)


def block_softmax_grad(P: np.ndarray, dP: np.ndarray, domain: Domain) -> np.ndarray:
    """dLoss/dlogits from dLoss/dP through `block_softmax`.

    Within each attribute block: dlogit = p * (g - <g, p>).
    """
    gl = dP * P
    inner = np.add.reduceat(gl, domain.block_starts, axis=1)
    np.subtract(dP, inner[:, domain.block_ids], out=gl)
    gl *= P
    return gl


def backward(params: Params, cache, dP: np.ndarray, domain: Domain, grads: Params) -> Params:
    """Gradient of a scalar loss w.r.t. every parameter, given dLoss/dP,
    written into `grads` (laid out as `params`, views of one flat buffer).

    dLoss/dlogits is taken in float64 from P and cast to the parameters'
    dtype for the layers' matmuls."""
    acts, pres, P = cache
    dA = block_softmax_grad(P, dP, domain).astype(params[-1][0].dtype, copy=False)
    for li in range(len(params) - 1, -1, -1):
        gW, gb = grads[li]
        np.matmul(acts[li].T, dA, out=gW)
        np.sum(dA, axis=0, out=gb)
        if li > 0:
            dA = (dA @ params[li][0].T) * (pres[li - 1] > 0.0)
    return grads


def _fit_terms(c: np.ndarray, gamma: float, kind: str):
    """(loss, active set, d loss / d answers) of residuals c = targets - answers.

    The active set is {j : |c_j| >= gamma}, the derivative 0 outside it;
    raises if it is empty, or if a residual is not finite (the weights diverged).
    """
    if not np.isfinite(c).all():
        raise ConfigError("the generator diverged (non-finite answers); lower its learning rate")
    active = np.abs(c) >= gamma
    if not active.any():
        raise DataError("no residual at or above gamma; nothing to fit")
    n_act = int(active.sum())
    if kind == "l1":
        loss = float(np.abs(c[active]).mean())
        coeff = np.where(active, -np.sign(c) / n_act, 0.0)  # d mean|ans - t| / d ans
    elif kind == "l2":
        loss = float((c[active] ** 2).mean())
        coeff = np.where(active, -2.0 * c / n_act, 0.0)
    else:
        raise ConfigError("loss must be 'l1' or 'l2'")
    return loss, active, coeff


def _gradient(params: Params, cache, queries: QuerySet, qidx, c, gamma, kind, grads: Params, outers=None):
    """The loss, with its parameter gradients written into `grads`, from the
    cache (which ends with P) and residuals of one forward pass; `outers` are
    that pass's prefix outer products when qidx is None."""
    loss, active, coeff = _fit_terms(c, gamma, kind)
    if qidx is not None:  # gather only the active queries: often a few of thousands
        qidx, coeff = qidx[active], coeff[active]
    dP = product_answers_grad(cache[2], queries, coeff, qidx, outers)
    backward(params, cache, dP, queries.domain, grads)
    return loss


def gem_loss(
    params: Params,
    Z: np.ndarray,
    queries: QuerySet,
    qidx: np.ndarray | None,
    targets: np.ndarray,
    gamma: float = 0.0,
    kind: str = "l1",
):
    """Residual loss over the active set {j : |c_j| >= gamma}.

    Fits `queries` at the ids qidx (None: all). Returns (loss, residuals
    c = targets - answers). Raises if gamma leaves no active entry.
    """
    P, _ = forward(params, Z, queries.domain)
    c = np.asarray(targets, dtype=np.float64) - product_answers(P, queries, qidx)
    return _fit_terms(c, gamma, kind)[0], c


def gem_gradient(
    params: Params,
    Z: np.ndarray,
    queries: QuerySet,
    qidx: np.ndarray | None,
    targets: np.ndarray,
    gamma: float = 0.0,
    kind: str = "l1",
    grads: Params | None = None,
):
    """Loss, parameter gradients, and residuals in one reverse pass.

    The gradients, in the parameters' dtype, go into `grads` (views of one
    flat buffer, laid out as `params`) when given. On the whole collection
    (qidx None) the answers and the gradient contract the same prefix outer
    products.
    """
    if grads is None:
        grads = layer_views(np.empty(sum(W.size + b.size for W, b in params), params[0][0].dtype), params)
    P, cache = forward(params, Z, queries.domain)
    outers = prefix_outers(P, queries) if qidx is None else None
    c = np.asarray(targets, dtype=np.float64) - product_answers(P, queries, qidx, outers)
    loss = _gradient(params, cache, queries, qidx, c, gamma, kind, grads, outers)
    return loss, grads, c


class Adam:
    """Bias-corrected first/second moment steps on one array: the generator's
    flat parameter vector, or RAP's table of logits.

    The moments and the scratch buffers are allocated once; `step` moves
    the parameters in place.
    """

    def __init__(self, x: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(x)
        self.v = np.zeros_like(x)
        self._den = np.empty_like(x)
        self._step = np.empty_like(x)

    def direction(self, g: np.ndarray) -> np.ndarray:
        """Advance the moments by `g` in place and return the step to subtract,
        in a scratch buffer that the next call overwrites.

        A step is lr * (m / c1) / (sqrt(v / c2) + eps), computed in place in
        that order of operations, so it is bit-identical to the expression.
        """
        self.t += 1
        c1 = 1.0 - ADAM_B1**self.t
        c2 = 1.0 - ADAM_B2**self.t
        m, v, den, step = self.m, self.v, self._den, self._step
        m *= ADAM_B1
        m += np.multiply(g, 1 - ADAM_B1, out=den)
        np.square(g, out=den)
        den *= 1 - ADAM_B2
        v *= ADAM_B2
        v += den
        np.sqrt(np.divide(v, c2, out=den), out=den)
        den += ADAM_EPS
        np.divide(m, c1, out=step)
        step *= self.lr
        return np.divide(step, den, out=step)

    def step(self, x: np.ndarray, g: np.ndarray) -> None:
        """Advance the moments by `g` and move `x` by the step, in place."""
        x -= self.direction(g)


def ema_update(ema: np.ndarray, current: np.ndarray, beta: float) -> None:
    """ema = beta * ema + (1 - beta) * current, in place, on flat parameter vectors."""
    if ema.shape != current.shape:
        raise DataError("parameter vectors differ in shape")
    ema *= beta
    ema += (1 - beta) * current


class GemOutput(ProductMixture):
    """The generator's mixture, with the parameters that produced it."""

    def __init__(self, domain: Domain, P: np.ndarray, params: Params):
        super().__init__(domain, P)
        self.params = params

    def save_checkpoint(self, path) -> None:
        save_checkpoint(self.params, self.domain, path)


class GemSynthesizer(Synthesizer):
    """GEM's private rounds on the flat vector `theta`; `params` are its (W, b) views."""

    def __init__(
        self,
        domain: Domain,
        queries: QuerySet,
        cfg: GemConfig,
        rng: np.random.Generator,
        total_rounds: int,
        init: Params | None = None,
    ):
        self.domain = domain
        self.queries = queries
        self.cfg = cfg
        self.rng = rng
        self.total_rounds = int(total_rounds)
        # a warm start's weights fix the architecture; cfg's shape is for fresh weights
        z_dim = cfg.z_dim if init is None else init[0][0].shape[0]
        self.z_batch = rng.standard_normal((cfg.batch, z_dim)).astype(PARAM_DTYPE)
        if init is None:
            init = init_params(rng, z_dim, cfg.hidden, domain.onehot_width)
        self.theta, self.params = flat_params(init)
        self._grad = np.empty_like(self.theta)
        self._grads = layer_views(self._grad, self.params)
        self.opt = Adam(self.theta, cfg.lr)
        self.ema: np.ndarray | None = None  # laid out as theta
        self.gamma: float | None = None
        self.round = 0
        self._fixed: tuple[int, tuple] | None = None  # (opt.t, cache) of the fixed batch's pass
        self._answered: tuple[int, np.ndarray] | None = None  # (opt.t, answers)

    def _pass(self, fresh_noise: bool = False):
        """The forward cache at the current parameters: on fresh noise, or on
        the fixed batch, whose pass runs once per parameter version."""
        if fresh_noise:
            return forward(self.params, self.rng.standard_normal(self.z_batch.shape), self.domain)[1]
        if self._fixed is None or self._fixed[0] != self.opt.t:
            self._fixed = self.opt.t, forward(self.params, self.z_batch, self.domain)[1]
        return self._fixed[1]

    def answers(self) -> np.ndarray:
        if self._answered is None or self._answered[0] != self.opt.t:
            self._answered = self.opt.t, self.queries.answers_probs(self._pass()[2])
        return self._answered[1].copy()

    @np.errstate(over="ignore", invalid="ignore")
    def update(self, ledger: MeasurementLedger) -> None:
        """One round's fit. A learning rate past float32's range (or steps that
        diverge) overflows the step without a warning: the next pass's
        `_fit_terms`, or `finalize` after the last step, reports the
        non-finite answers."""
        if len(ledger) == 0:
            return
        self.round += 1
        qidx = ledger.indices()
        # every step answers all of the ledger's queries: prepared once
        gather = self.queries.gather(qidx, self.z_batch.shape[0])
        targets = np.asarray(ledger.answers(), dtype=np.float64)
        # sampled max error of this round's fresh measurements, before fitting
        rounds = ledger.rounds()
        fresh = rounds == rounds.max()
        cache = self._pass()
        c = targets - product_answers(cache[2], self.queries, gather)
        sampled_max = float(np.abs(c[fresh]).max())
        # the early-stop threshold guards against overfitting noisy targets;
        # with exact measurements it would stall the fit, so drop it
        if ledger.exact:
            self.gamma = 0.0
        elif self.gamma is None:
            self.gamma = sampled_max
        else:
            self.gamma = GAMMA_BETA * self.gamma + (1 - GAMMA_BETA) * sampled_max
        ema_on = self.round > self.total_rounds // 2
        for step in range(self.cfg.t_max):
            # the stop test and the gradient read one pass; with fixed noise, step 1's is the one above
            if step or self.cfg.resample_z:
                cache = self._pass(self.cfg.resample_z)
                c = targets - product_answers(cache[2], self.queries, gather)
            if np.abs(c).max() < self.gamma:
                break
            _gradient(self.params, cache, self.queries, qidx, c, self.gamma, self.cfg.loss, self._grads)
            self.opt.step(self.theta, self._grad)
            if ema_on:
                if self.ema is None:
                    self.ema = self.theta.copy()
                else:
                    ema_update(self.ema, self.theta, self.cfg.ema_beta)

    def finalize(self) -> GemOutput:
        """The output, on its own copy of the parameters (the EMA's once it started).

        Raises ConfigError if the fit's last step diverged, which no pass of
        `update` followed to report."""
        if self.ema is None:
            theta, P = self.theta.copy(), self._pass()[2]
        else:
            theta = self.ema.copy()
            P, _ = forward(layer_views(theta, self.params), self.z_batch, self.domain)
        if not np.isfinite(P).all():
            raise ConfigError("the generator diverged (non-finite answers); lower its learning rate")
        return GemOutput(self.domain, P, layer_views(theta, self.params))


# -- checkpoint I/O --------------------------------------------------------

CHECKPOINT_FORMAT = "generator-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: Params, domain: Domain, path) -> None:
    """JSON container of layer shapes and parameters.

    Floats are serialized with shortest round-trip repr of their double
    value, so a save/load cycle reproduces float64 arrays bit for bit, and
    float32 arrays once the warm start rounds them back. The noise width
    `z_dim` and the `hidden` widths are written for readers of the file;
    loading reads them off the weights.
    """
    obj = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "z_dim": params[0][0].shape[0],
        "hidden": [W.shape[1] for W, _ in params[:-1]],
        "domain": json.loads(domain.to_json()),
        "layers": [
            {"shape": list(W.shape), "w": W.ravel().tolist(), "b": b.tolist()}
            for W, b in params
        ],
    }
    with open(path, "w") as f:
        json.dump(obj, f)


def load_checkpoint(path) -> tuple[Params, Domain]:
    """(params, domain) of a checkpoint, the weights as float64 arrays of the
    written values (`flat_params` rounds them to float32); raises DataError
    unless its layers chain from the noise to the domain's one-hot width."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except ValueError as e:  # not JSON, or not text
            raise DataError(f"{path}: not a JSON file: {e}") from None
    header = (obj.get("format"), obj.get("version")) if isinstance(obj, dict) else None
    if header != (CHECKPOINT_FORMAT, CHECKPOINT_VERSION):
        raise DataError(f"{path}: not a version-{CHECKPOINT_VERSION} {CHECKPOINT_FORMAT} file")
    domain = Domain.from_json(json.dumps(obj.get("domain")))
    try:
        params = [
            (np.array(ly["w"], dtype=np.float64).reshape(ly["shape"]), np.array(ly["b"], dtype=np.float64))
            for ly in obj["layers"]
        ]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed layers: {e!r}") from None
    width = None  # each layer's fan-in is the previous layer's width
    for W, b in params:
        if W.ndim != 2 or b.shape != W.shape[1:] or width not in (None, W.shape[0]):
            width = None
            break
        width = W.shape[1]
    if width != domain.onehot_width:
        raise DataError(f"{path}: layers do not chain from the noise to the domain's one-hot width")
    return params, domain

"""Warm starts from auxiliary (public) data, and the induced error floor.

Three tools: restrict the projection synthesizer's support to records that
exist in a public dataset; pretrain the generator on exact public answers;
and compute how well any reweighting of a fixed support could possibly match
a target answer vector (the floor that support restriction imposes).
"""
from __future__ import annotations

import math

import numpy as np

from .domain import ConfigError, DataError, Dataset, Domain, DomainError, SupportDistribution
from .gem import Adam, GemConfig, Params, flat_params, gem_gradient, init_params, layer_views
from .pep import PepConfig, PepSynthesizer
from .queries import QuerySet, SupportMap

PRETRAIN_STEPS, PRETRAIN_LR = 3000, 1e-3  # gem_pub_pretrain's default Adam steps and rate
MIXTURE_ITERATIONS = 2000  # best_mixture_error's default cap on the game's iterations


def pep_pub_init(
    public: Dataset,
    domain: Domain,
    queries: QuerySet,
    cfg: PepConfig | None = None,
) -> PepSynthesizer:
    """Projection synthesizer restricted to the public record support.

    The state starts at the public empirical distribution and every later
    projection only reweights those cells; records absent from the public
    data can never gain mass.
    """
    if public.domain.names != domain.names or public.domain.sizes != domain.sizes:
        raise DomainError("public data must share the private schema")
    if public.n == 0:
        raise DataError("empty public dataset")
    emp = SupportDistribution.from_dataset(public)
    return PepSynthesizer(domain, queries, support_cells=emp.cells, init_probs=emp.probs, cfg=cfg)


def restrict_to_public(queries: QuerySet, public_domain: Domain) -> QuerySet:
    """Sub-collection of workloads whose attributes all exist in the public data.

    Attributes are matched by name and must have equal sizes. Raises when no
    workload survives.
    """
    dom = queries.domain
    keep: list[tuple[int, ...]] = []
    for w in queries.workloads:
        names = [dom.names[f] for f in w.features]
        ok = all(
            nm in public_domain.names
            and public_domain.sizes[public_domain.names.index(nm)] == dom.sizes[f]
            for nm, f in zip(names, w.features)
        )
        if ok:
            keep.append(w.features)
    if not keep:
        raise DataError("no workload fits inside the public schema")
    return QuerySet.from_subsets(dom, keep)


def public_answers(restricted: QuerySet, public: Dataset) -> np.ndarray:
    """Exact answers of the public records to a restricted query collection.

    The public columns are placed at their private attribute positions; the
    other columns stay 0 and no restricted query reads them.
    """
    dom = restricted.domain
    col_of = {nm: j for j, nm in enumerate(public.domain.names)}
    records = np.zeros((public.n, dom.num_attrs), dtype=np.int64)
    for f in {f for w in restricted.workloads for f in w.features}:
        records[:, f] = public.records[:, col_of[dom.names[f]]]
    return restricted.answers_records(Dataset(dom, records))


@np.errstate(over="ignore", invalid="ignore")
def gem_pub_pretrain(
    domain: Domain,
    public: Dataset,
    queries: QuerySet,
    cfg: GemConfig,
    rng: np.random.Generator,
    steps: int = PRETRAIN_STEPS,
    lr: float = PRETRAIN_LR,
) -> tuple[Params, dict]:
    """Fit a fresh generator to exact public answers (no privacy involved).

    Only workloads that fit inside the public schema contribute. Returns the
    trained parameters plus a small info dict (steps, max error at the last step).
    As in `GemSynthesizer.update`, steps that diverge overflow without a
    warning and raise ConfigError.
    """
    if public.n == 0:
        raise DataError("empty public dataset")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if not 0 < lr < np.inf:
        raise ConfigError("lr must be > 0 and finite")
    restricted = restrict_to_public(queries, public.domain)
    targets = public_answers(restricted, public)
    theta, params = flat_params(init_params(rng, cfg.z_dim, cfg.hidden, domain.onehot_width))
    Z = rng.standard_normal((cfg.batch, cfg.z_dim)).astype(theta.dtype)
    grad = np.empty_like(theta)
    grads = layer_views(grad, params)
    opt = Adam(theta, lr)
    for _ in range(steps):  # in place: theta, the gradient and Adam's moments are allocated once
        _, _, c = gem_gradient(params, Z, restricted, None, targets, 0.0, cfg.loss, grads)
        opt.step(theta, grad)
    if not np.isfinite(theta).all():  # the last step diverged: no pass after it to report it
        raise ConfigError("the generator diverged (non-finite weights); lower its learning rate")
    return params, {"steps": steps, "max_err": float(np.abs(c).max()), "queries": restricted.total_queries}


def best_mixture_error(
    support_cells: np.ndarray,
    queries: QuerySet,
    target_answers: np.ndarray,
    iterations: int = MIXTURE_ITERATIONS,
) -> float:
    """min over support reweightings of the max query residual.

    Solved as a zero-sum game by multiplicative weights on the mixture
    against best-response signed queries, rate 0.5/sqrt(iterations); returns
    the smallest max-residual seen across iterates and the running average.

    The step is cell-local: the mixture is w / z, with unnormalized weights w,
    their sum z and their answers A, so the worst query is the argmax of
    |targets * z - A|, and scaling its cells changes only z and, per scaled
    cell, the answer of the query it meets in each workload. Every 50
    iterations and at the last, w is rescaled to sum 1, z and A are recomputed
    in full so rounding cannot drift, and the running average is evaluated.

    The game stops early, and `iterations` is only a cap, once an iterate's
    worst query meets no support cell. Every mixture on the support answers
    that query 0, so its |target| bounds every later iterate and running
    average from below; the current iterate attains it, and its step would
    scale no cell. The result is then exactly |target|: an iterate's
    residual on that query, |target * z| / z, can round below it.
    """
    cells = np.asarray(support_cells, dtype=np.int64)
    if cells.size == 0:
        raise DataError("empty support")
    targets = np.asarray(target_answers, dtype=np.float64)
    if targets.shape[0] != queries.total_queries:
        raise DataError("target vector does not match the query collection")
    if not np.isfinite(targets).all():
        raise DataError("target answers must be finite")
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    qmap = SupportMap(queries, cells)  # the full domain too: steps scatter through it
    lr = 0.5 / math.sqrt(iterations)
    w, z = np.full(cells.size, 1.0 / cells.size), 1.0
    answers = queries.answers_support(cells, w, qmap)
    avg = np.zeros_like(w)
    gap = np.empty_like(targets)
    steps: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # picked query -> positions, their query ids
    best = float("inf")
    for it in range(1, iterations + 1):
        np.subtract(np.multiply(targets, z, out=gap), answers, out=gap)  # residual times z
        worst = int(np.abs(gap).argmax())
        best = min(best, abs(float(gap[worst])) / z)
        if worst not in steps:
            sel = queries.cells_of(worst, qmap)
            steps[worst] = sel, qmap.ids[:, sel].T.ravel()
        sel, ids = steps[worst]
        if sel.size == 0:
            return abs(float(targets[worst]))
        # mixture player response: downweight cells that worsen the residual
        delta = w[sel] * math.expm1(lr if gap[worst] >= 0 else -lr)
        w[sel] += delta
        z += float(delta.sum())
        # one value per flat id: np.add.at broadcasting 1-D values over a
        # 2-D index reads out of bounds in numpy 2.4
        np.add.at(answers, ids, delta.repeat(qmap.ids.shape[0]))
        avg += w / z
        if it % 50 == 0 or it == iterations:
            w /= w.sum()
            z = 1.0
            answers = queries.answers_support(cells, w, qmap)
            best = min(best, float(np.abs(targets - queries.answers_support(cells, avg / it, qmap)).max()))
    return best

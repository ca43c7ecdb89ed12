"""Independent reference implementations used as test oracles.

Everything here is written from the mathematical definitions with none of the
package's vectorized machinery: plain loops, sort-based simplex projection,
line-searched first-order descent. Slow on purpose. Distributions over cells
are plain mass vectors indexed by flat cell index, and a query's cells are a
boolean mask over them.
"""
import math
from dataclasses import dataclass

import numpy as np

from dpsynth.domain import MASS_FLOOR, DataError, normalize_mass


def normalize_mass_reference(mass):
    """Flush sub-floor values to zero and rescale to total mass 1, checking every entry.

    The library's `normalize_mass` must equal this bit for bit.
    """
    mass = np.asarray(mass, dtype=np.float64).copy()
    if mass.size == 0:
        raise DataError("empty mass vector")
    if not np.all(np.isfinite(mass)) or mass.min() < 0:
        raise DataError("mass must be finite and nonnegative")
    mass[mass < MASS_FLOOR] = 0.0
    total = mass.sum()
    if total <= 0:
        raise DataError("mass sums to zero")
    return mass / total


@dataclass(frozen=True)
class MarginalQuery:
    """Single counting query: fraction of records with records[S] == targets."""

    features: tuple[int, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        if len(self.features) != len(self.targets) or not self.features:
            raise DataError("need one target per feature")
        if list(self.features) != sorted(set(self.features)):
            raise DataError("features must be strictly increasing")


def brute_force_answer(domain, dataset, features, targets):
    """Fraction of records matching the marginal, by row-by-row counting."""
    hits = 0
    for row in dataset.records:
        if all(row[f] == v for f, v in zip(features, targets)):
            hits += 1
    return hits / len(dataset.records)


def query_of(qs, qidx):
    """The marginal query at global index qidx of a query collection."""
    w = qs.workloads[qs.workload_of(qidx)]
    return MarginalQuery(w.features, tuple(int(t) for t in np.unravel_index(qidx - w.offset, w.sizes)))


def query_mask(domain, q, cells):
    """Boolean mask over an array of cell indices: the cells q counts."""
    values = domain.decode(np.asarray(cells, dtype=np.int64))
    mask = np.ones(values.shape[0], dtype=bool)
    for f, t in zip(q.features, q.targets):
        mask &= values[:, f] == t
    return mask


def answer_records(q, data):
    """Answer of one query on records: matching count / n."""
    if data.n == 0:
        raise DataError("empty dataset")
    mask = np.ones(data.n, dtype=bool)
    for f, t in zip(q.features, q.targets):
        mask &= data.records[:, f] == t
    return float(int(mask.sum()) / data.n)


def answer_histogram(q, domain, mass):
    """Answer of one query on a mass vector over all cells.

    The matching mass is accumulated left to right in cell order; integer
    counts sum exactly, so counts / n reproduces record counting.
    """
    m = mass[query_mask(domain, q, np.arange(domain.total_cells))]
    return float(np.cumsum(m)[-1]) if m.size else 0.0


def product_query(q, p, domain):
    """Multilinear relaxation of a query on one probability row.

    f(p) = prod of p at the query's one-hot positions. Every attribute block
    of p must sum to 1 (within 1e-6).
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.shape[0] != domain.onehot_width:
        raise DataError("row width does not match one-hot layout")
    for a in range(domain.num_attrs):
        block = p[domain.offset(a) : domain.offset(a) + domain.sizes[a]]
        if abs(block.sum() - 1.0) > 1e-6 or block.min() < -1e-9:
            raise DataError(f"attribute block {domain.names[a]!r} is not a distribution")
    return math.prod(p[domain.offset(f) + t] for f, t in zip(q.features, q.targets))


def answer_batch(q, P, domain):
    """Mean of `product_query` over the rows of P."""
    return sum(product_query(q, row, domain) for row in P) / len(P)


def block_softmax_loop(logits, domain):
    """Softmax of each attribute block of each row, one block at a time."""
    P = np.empty_like(logits)
    for a in range(domain.num_attrs):
        off, sz = domain.offset(a), domain.sizes[a]
        block = logits[:, off : off + sz]
        block = block - block.max(axis=1, keepdims=True)
        e = np.exp(block)
        P[:, off : off + sz] = e / e.sum(axis=1, keepdims=True)
    return P


def block_softmax_grad_loop(P, dP, domain):
    """p * (g - <g, p>) within each attribute block, one block at a time."""
    gl = np.empty_like(P)
    for a in range(domain.num_attrs):
        off, sz = domain.offset(a), domain.sizes[a]
        s = P[:, off : off + sz]
        g = dP[:, off : off + sz]
        gl[:, off : off + sz] = s * (g - (g * s).sum(axis=1, keepdims=True))
    return gl


def cell_sums_loop(queries, qids, weights=None):
    """Per cell, the summed weights of the queries `qids` it matches (each
    weight 1 by default, repeats counted): one comparison of every cell's
    values with the query's targets per id, in any workload's attribute
    order. With unit weights this is DualQuery's per-round objective over its
    draws, and FEM's base over the rounds' selections."""
    dom = queries.domain
    values = dom.decode(np.arange(dom.total_cells))
    sums = np.zeros(dom.total_cells)
    for qidx, weight in zip(qids, np.ones(len(qids)) if weights is None else weights):
        w = queries.workloads[queries.workload_of(int(qidx))]
        targets = np.unravel_index(int(qidx) - w.offset, w.sizes)
        sums[(values[:, list(w.features)] == targets).all(axis=1)] += weight
    return sums


def fem_records_loop(domain, base, rng, sigma, samples):
    """Per cell, how many of `samples` perturbed best responses land on it,
    one record at a time: each record draws its own Exp(sigma) noise vector
    over the one-hot layout and takes the lowest cell minimizing base(x) +
    <one-hot(x), noise>, the noise summed attribute by attribute over the
    row-major grid of cells."""
    counts = np.zeros(domain.total_cells)
    for _ in range(samples):
        noise = rng.exponential(sigma, size=domain.onehot_width)
        blocks = [noise[domain.offset(a) : domain.offset(a) + size] for a, size in enumerate(domain.sizes)]
        counts[int(np.argmin(base + sum(np.ix_(*blocks)).ravel()))] += 1.0
    return counts


def mwem_closed_form_check(queries, items, sign=-1.0):
    """Exponential-family mass vector built directly from measurement items.

    items are (global query index, measured target, answer cached at
    measurement time); the result is

        D(x) proportional to exp(sign * sum_i 1[x matches q_i] * (a~_i - cached_i))

    over a uniform base. sign=-1 is the stationary point of the entropy-
    regularized linear loss in those coefficients; sign=+1 with a single item
    reproduces one eta=2 update step exactly.
    """
    domain = queries.domain
    cells = np.arange(domain.total_cells)
    expo = np.zeros(domain.total_cells)
    for qidx, target, cached in items:
        coef = min(max(float(target), 0.0), 1.0) - float(cached)
        expo[query_mask(domain, query_of(queries, int(qidx)), cells)] += sign * coef
    expo -= expo.max()
    return normalize_mass(np.exp(expo))


def pep_project_once(probs, mask, a_target):
    """Reweight probs so the mass on `mask` equals a_target exactly.

    Matching cells are multiplied by a_target / q(D), the rest by
    (1 - a_target) / (1 - q(D)), on the whole vector. 1 - q(D) is summed from
    the other cells' own mass: subtracting a q(D) near 1 from 1 cancels its
    leading digits and leaves the factor only a few correct ones.
    """
    a_cur = float(probs[mask].sum())
    if not (0.0 < a_cur < 1.0) or not (0.0 < a_target < 1.0):
        raise DataError("projection needs both answers strictly inside (0, 1)")
    rest = float(probs[~mask].sum())
    out = np.where(mask, probs * (a_target / a_cur), probs * ((1.0 - a_target) / rest))
    return normalize_mass(out)


def best_mixture_error_dense(cells, qs, targets, iterations=2000):
    """The multiplicative-weights floor of `public.best_mixture_error`, dense.

    Every iteration recomputes every answer of the normalized mixture (one
    bincount per workload over the support's per-workload query map), scales
    the worst query's cells by e^{+-lr} and renormalizes the whole mixture.
    """
    values = qs.domain.decode(np.asarray(cells, dtype=np.int64))
    locals_ = [np.ravel_multi_index(values[:, list(w.features)].T, w.sizes) for w in qs.workloads]

    def answers(mu):
        return np.concatenate(
            [np.bincount(loc, weights=mu, minlength=w.n_queries) for w, loc in zip(qs.workloads, locals_)]
        )

    lr = 0.5 / math.sqrt(iterations)
    mu = np.full(len(values), 1.0 / len(values))
    avg = np.zeros_like(mu)
    best = math.inf
    for it in range(1, iterations + 1):
        r = targets - answers(mu)
        worst = int(np.argmax(np.abs(r)))
        best = min(best, float(np.abs(r).max()))
        wi = qs.workload_of(worst)
        mu[locals_[wi] == worst - qs.workloads[wi].offset] *= math.exp(lr if r[worst] >= 0 else -lr)
        mu /= mu.sum()
        avg += mu
        if it % 50 == 0 or it == iterations:
            best = min(best, float(np.abs(targets - answers(avg / it)).max()))
    return best


def pep_dual_loss(lambdas, queries, indices, targets, gamma=0.0):
    """Dual objective of the projection problem.

    L(lambda) = log sum_x exp( sum_i lambda_i (q_i(x) - a_i) ) + gamma * ||lambda||_1

    evaluated over the full domain with a max-shift for stability. At
    lambda = 0 this is log(total_cells).
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if lambdas.shape != np.shape(indices) or lambdas.shape != targets.shape:
        raise DataError("lambdas, indices, targets must align")
    dom = queries.domain
    cells = np.arange(dom.total_cells)
    expo = np.zeros(dom.total_cells)
    for lam, qidx in zip(lambdas, indices):
        expo[query_mask(dom, query_of(queries, int(qidx)), cells)] += lam
    expo -= lambdas @ targets
    shift = expo.max()
    return float(shift + math.log(np.exp(expo - shift).sum()) + gamma * np.abs(lambdas).sum())


def flatten_params(params):
    """Generator parameters [(W, b), ...] as one vector."""
    return np.concatenate([np.concatenate([W.ravel(), b.ravel()]) for W, b in params])


def unflatten_params(vec, like):
    """Inverse of `flatten_params`, shaped like the parameter list `like`."""
    out = []
    pos = 0
    for W, b in like:
        w = vec[pos : pos + W.size].reshape(W.shape)
        pos += W.size
        out.append((w.copy(), vec[pos : pos + b.size].copy()))
        pos += b.size
    return out


def simplex_project(v):
    """Euclidean projection onto the probability simplex (sort + threshold)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def entropy_linear_minimizer(g, iters=2000):
    """min_D <g, D> + sum_x D(x) log D(x) over the simplex.

    Projected gradient with backtracking; the minimizer is interior
    (proportional to exp(-g)) so the entropy gradient stays finite.
    """
    g = np.asarray(g, dtype=np.float64)
    n = g.size
    D = np.full(n, 1.0 / n)

    def f(p):
        mask = p > 0
        return float(p @ g + np.sum(p[mask] * np.log(p[mask])))

    fD = f(D)
    for _ in range(iters):
        grad = g + np.where(D > 0, np.log(np.maximum(D, 1e-300)), -700.0) + 1.0
        step, P, fP = 1.0, D, fD
        for _ in range(60):
            cand = simplex_project(D - step * grad)
            fc = f(cand)
            if fc < fD:
                P, fP = cand, fc
                break
            step *= 0.5
        if np.abs(P - D).max() < 1e-15:
            break
        D, fD = P, fP
    return D


def maxent_dual_descent(masks, targets, iters=4000):
    """Max-entropy distribution subject to q_i(D) = a_i, via the dual.

    masks: (m, total_cells) 0/1 arrays; targets: length-m vector of answers
    assumed consistent (realized by some distribution). Minimizes
    log sum_x exp(sum_i lam_i m_i(x)) - lam . a by gradient descent with
    backtracking, returns the primal distribution of the final lambda.
    """
    masks = np.asarray(masks, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    m = masks.shape[0]
    lam = np.zeros(m)

    def primal(l):
        s = masks.T @ l
        s -= s.max()
        e = np.exp(s)
        return e / e.sum()

    def dual(l):
        s = masks.T @ l
        mx = s.max()
        return float(mx + np.log(np.exp(s - mx).sum()) - l @ targets)

    fD = dual(lam)
    for _ in range(iters):
        grad = masks @ primal(lam) - targets
        if np.abs(grad).max() < 1e-12:
            break
        step, nxt, fn = 1.0, lam, fD
        for _ in range(60):
            cand = lam - step * grad
            fc = dual(cand)
            if fc < fD:
                nxt, fn = cand, fc
                break
            step *= 0.5
        if np.abs(nxt - lam).max() < 1e-16:
            break
        lam, fD = nxt, fn
    return primal(lam)


def kl_divergence(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(np.maximum(q[mask], 1e-300)))))


def central_difference(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function, one coord at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fun(x)
        flat[i] = orig - h
        fm = fun(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


class DrawLog:
    """Every private draw of a fit, observed at the calls `dpsynth.privacy` makes.

    `install(monkeypatch)` wraps the exponential mechanism, the Gaussian
    measurement and DualQuery's round of draws. Each exponential-mechanism
    call logs its count, its exponent and its draws; each Gaussian call logs
    the number of answers and the sigma it draws at. A DualQuery round adds
    to its draw's entry the rate eta, read off the log-weights it changed:
    the increment over the payoff, at the query of largest payoff.
    """

    def __init__(self):
        self.calls = []

    def install(self, monkeypatch):
        from dpsynth import privacy, search

        em, gauss, dq = privacy.exp_mechanism, privacy.gaussian_measure, search.dualquery_select

        def em_spy(scores, exponent, count, rng, **kw):
            drawn = em(scores, exponent, count, rng, **kw)
            self.calls.append({"kind": "em", "count": count, "exponent": exponent, "drawn": drawn.tolist()})
            return drawn

        def gauss_spy(true_answer, acct, rng, *, sensitivity_scale=1.0):
            sigma = acct.gaussian_sigma(sensitivity_scale)
            self.calls.append({"kind": "gauss", "size": np.size(true_answer), "sigma": sigma})
            return gauss(true_answer, acct, rng, sensitivity_scale=sensitivity_scale)

        def dq_spy(logw, payoff, acct, samples, rng, **kw):
            before = logw.copy()
            drawn = dq(logw, payoff, acct, samples, rng, **kw)
            j = 0 if payoff is None else int(np.argmax(payoff))
            self.calls[-1]["eta"] = 0.0 if payoff is None else (logw[j] - before[j]) / payoff[j]
            return drawn

        monkeypatch.setattr(privacy, "exp_mechanism", em_spy)
        monkeypatch.setattr(privacy, "gaussian_measure", gauss_spy)
        monkeypatch.setattr(search, "dualquery_select", dq_spy)
        return self

    def recomposed_rho(self, n, queries=None, per_workload=False):
        """zCDP of the logged draws, composed by addition.

        An exponential mechanism at exponent c over scores of sensitivity s
        costs (c*s)^2/2 per draw; a Gaussian at sigma over answers of L2
        sensitivity s costs s^2/(2 sigma^2). Scores are absolute errors of
        normalized counts, 1/n per query or per workload maximum; DualQuery's
        log-weights in round t are the sum of the rates so far times payoffs
        of sensitivity 1/n each. Measured answers move by 1/n per query, and
        sqrt(2)/n per measured marginal (one record moves two of its cells):
        per workload, the round's Gaussian call measures the queries of every
        workload the round's draw picked.
        """
        rho, rate_sum, drawn = 0.0, 0.0, []
        for call in self.calls:
            if call["kind"] == "em":
                if "eta" in call:  # a DualQuery round: over its log-weights
                    rate_sum += call["eta"]
                    sens = rate_sum / n
                else:
                    sens = 1.0 / n
                rho += call["count"] * (call["exponent"] * sens) ** 2 / 2
                drawn = call["drawn"]
            elif call["kind"] == "gauss":
                if per_workload:
                    assert call["size"] == sum(queries.workloads[w].n_queries for w in drawn)
                    rho += len(drawn) * 2.0 / n**2 / (2 * call["sigma"] ** 2)
                else:
                    assert call["size"] == len(drawn)
                    rho += call["size"] / n**2 / (2 * call["sigma"] ** 2)
        return rho


# -- GEM on (W, b) lists ----------------------------------------------------
# The generator's training as written layer by layer: fresh arrays for every
# Adam step, EMA and gradient, and a forward pass for every residual pass and
# every answers call. The layers, Adam's moments and the EMA run in float32,
# as the library's do: the weights and the noise are drawn in float64 and cast
# once, the logits are upcast, and P, the answers and the residuals stay
# float64. The library's in-place flat-vector training must match it bit for
# bit.


def float32_params(params):
    """A (W, b) list rounded to float32 layer by layer."""
    return [(W.astype(np.float32), b.astype(np.float32)) for W, b in params]


def forward_list(params, Z, domain):
    """(P, cache) of the generator on the noise rows Z, in the parameters'
    dtype up to the logits and in float64 from there."""
    from dpsynth.gem import block_softmax

    acts, pres = [np.asarray(Z, dtype=params[0][0].dtype)], []
    A = acts[0]
    for W, b in params[:-1]:
        pre = A @ W + b
        pres.append(pre)
        A = np.maximum(pre, 0.0)
        acts.append(A)
    W, b = params[-1]
    P = block_softmax((A @ W + b).astype(np.float64), domain)
    return P, (acts, pres, P)


def backward_list(params, cache, dP, domain):
    """Per-layer (dW, db) of a loss from its derivative dP, as fresh arrays in
    the parameters' dtype."""
    from dpsynth.gem import block_softmax_grad

    acts, pres, P = cache
    grads = [None] * len(params)
    dA = block_softmax_grad(P, dP, domain).astype(params[-1][0].dtype)
    for li in range(len(params) - 1, -1, -1):
        grads[li] = (acts[li].T @ dA, dA.sum(axis=0))
        if li > 0:
            dA = (dA @ params[li][0].T) * (pres[li - 1] > 0.0)
    return grads


def fit_coefficients(c, gamma, kind):
    """d loss / d answers of residuals c over the active set |c| >= gamma."""
    active = np.abs(c) >= gamma
    n_act = int(active.sum())
    if kind == "l1":
        return np.where(active, -np.sign(c) / n_act, 0.0)
    return np.where(active, -2.0 * c / n_act, 0.0)


class AdamList:
    """Adam over a list of layers, each step's moments and step as fresh arrays."""

    def __init__(self, params, lr):
        from dpsynth.gem import ADAM_B1, ADAM_B2, ADAM_EPS

        self.b1, self.b2, self.eps = ADAM_B1, ADAM_B2, ADAM_EPS
        self.lr, self.t = lr, 0
        self.m = [[np.zeros_like(x) for x in layer] for layer in params]
        self.v = [[np.zeros_like(x) for x in layer] for layer in params]

    def step(self, params, grads):
        self.t += 1
        c1, c2 = 1.0 - self.b1**self.t, 1.0 - self.b2**self.t
        out = []
        for j, (layer, g) in enumerate(zip(params, grads)):
            new = []
            for i, (x, gi) in enumerate(zip(layer, g)):
                self.m[j][i] = self.b1 * self.m[j][i] + (1 - self.b1) * gi
                self.v[j][i] = self.b2 * self.v[j][i] + (1 - self.b2) * gi**2
                new.append(x - self.lr * (self.m[j][i] / c1) / (np.sqrt(self.v[j][i] / c2) + self.eps))
            out.append(tuple(new))
        return out


def ema_update_list(ema, current, beta):
    """beta * ema + (1 - beta) * current, layer by layer."""
    return [(beta * eW + (1 - beta) * W, beta * eb + (1 - beta) * b) for (eW, eb), (W, b) in zip(ema, current)]


class GemListReference:
    """GEM's private rounds on (W, b) lists: `GemSynthesizer` without its flat
    vector, its in-place steps or its kept forward passes."""

    def __init__(self, domain, queries, cfg, rng, total_rounds, init=None):
        from dpsynth.gem import init_params

        self.domain, self.queries, self.cfg = domain, queries, cfg
        self.total_rounds = total_rounds
        z_dim = cfg.z_dim if init is None else init[0][0].shape[0]
        self.z_batch = rng.standard_normal((cfg.batch, z_dim))
        if init is None:
            init = init_params(rng, z_dim, cfg.hidden, domain.onehot_width)
        self.params = float32_params(init)
        self.opt = AdamList(self.params, cfg.lr)
        self.ema, self.gamma, self.round = None, None, 0

    def _residuals(self, qidx, targets):
        from dpsynth.queries import product_answers

        P, cache = forward_list(self.params, self.z_batch, self.domain)
        return cache, targets - product_answers(P, self.queries, qidx)

    def answers(self):
        return self.queries.answers_probs(forward_list(self.params, self.z_batch, self.domain)[0])

    def update(self, ledger):
        from dpsynth.gem import EMA_BETA, GAMMA_BETA
        from dpsynth.queries import product_answers_grad

        self.round += 1
        qidx, targets, rounds = ledger.indices(), ledger.answers(), ledger.rounds()
        cache, c = self._residuals(qidx, targets)
        sampled_max = float(np.abs(c[rounds == rounds.max()]).max())
        if ledger.exact:
            self.gamma = 0.0
        elif self.gamma is None:
            self.gamma = sampled_max
        else:
            self.gamma = GAMMA_BETA * self.gamma + (1 - GAMMA_BETA) * sampled_max
        for step in range(self.cfg.t_max):
            if step:
                cache, c = self._residuals(qidx, targets)
            if np.abs(c).max() < self.gamma:
                break
            coeff = fit_coefficients(c, self.gamma, self.cfg.loss)
            active = np.abs(c) >= self.gamma
            dP = product_answers_grad(cache[2], self.queries, coeff[active], qidx[active])
            self.params = self.opt.step(self.params, backward_list(self.params, cache, dP, self.domain))
            if self.round > self.total_rounds // 2:
                if self.ema is None:
                    self.ema = [(W.copy(), b.copy()) for W, b in self.params]
                else:
                    self.ema = ema_update_list(self.ema, self.params, EMA_BETA)

    def final_params(self):
        return self.ema if self.ema is not None else self.params


def gem_pub_pretrain_list(domain, public, queries, cfg, rng, steps, lr):
    """`gem_pub_pretrain` on lists: (params, max residual at the last step)."""
    from dpsynth.gem import init_params
    from dpsynth.public import public_answers, restrict_to_public
    from dpsynth.queries import product_answers, product_answers_grad

    restricted = restrict_to_public(queries, public.domain)
    targets = public_answers(restricted, public)
    params = float32_params(init_params(rng, cfg.z_dim, cfg.hidden, domain.onehot_width))
    Z = rng.standard_normal((cfg.batch, cfg.z_dim))
    opt = AdamList(params, lr)
    for _ in range(steps):
        P, cache = forward_list(params, Z, domain)
        c = targets - product_answers(P, restricted)
        dP = product_answers_grad(P, restricted, fit_coefficients(c, 0.0, cfg.loss))
        params = opt.step(params, backward_list(params, cache, dP, domain))
    return params, float(np.abs(c).max())


# -- product answers as the prefix contraction was first written -----------
# Per prefix group, one contraction per row chunk, summed, flattened into a
# list of parts, then one concatenation and one permutation found by argsort.
# The library writes each group in place into one buffer and must match this
# bit for bit.


def product_answers_parts(P, queries):
    """Batch-mean answers of the whole collection, group by group as parts."""
    from dpsynth.queries import _row_chunks  # reads the chunk budget at call time

    dom = queries.domain
    members = {}
    for wi, w in enumerate(queries.workloads):
        members.setdefault(w.features[:-1], []).append(wi)
    parts, order = [], []
    for prefix, wis in members.items():
        ws = [queries.workloads[wi] for wi in wis]
        lasts = P[:, np.concatenate([dom.offset(w.features[-1]) + np.arange(w.sizes[-1]) for w in ws])]
        first = [P[:, dom.offset(f) : dom.offset(f) + dom.sizes[f]] for f in prefix]
        acc = 0
        for r in _row_chunks(P.shape[0], math.prod(dom.sizes[f] for f in prefix)):
            if not prefix:
                acc = acc + lasts[r].sum(axis=0)
                continue
            outer = first[0][r]
            for A in first[1:]:
                outer = (outer[:, :, None] * A[r, None, :]).reshape(outer.shape[0], -1)
            acc = acc + outer.T @ lasts[r]
        parts.append(acc.ravel())
        rows = np.arange(math.prod(ws[0].sizes[:-1]))[:, None]
        order.append(np.hstack([w.offset + rows * w.sizes[-1] + np.arange(w.sizes[-1]) for w in ws]).ravel())
    return np.concatenate(parts)[np.argsort(np.concatenate(order))] / P.shape[0]


def loo_loop(vals, weights):
    """(chunk * k, B) per-slot rows of (chunk, k, B) values: each query's
    weight times its other k-1 values, multiplied slot by slot in order."""
    k = vals.shape[1]
    out = np.empty_like(vals)
    for t in range(k):
        row = np.repeat(weights[:, None], vals.shape[2], axis=1)
        for u in range(k):
            if u != t:
                row = row * vals[:, u]
        out[:, t] = row
    return out.reshape(-1, vals.shape[2])


# -- RAP's fit without the noise stop ---------------------------------------
# The relaxed-table update as it ran before it stopped at the measurement
# noise: max_steps, an exactly zero gradient, a failed search on a fresh
# momentum and the plateau are its only stops. With no sigma, or sigma 0, the
# library's update must match it bit for bit.


def rap_update_no_noise_stop(synth, ledger):
    """`RapSynthesizer.update(ledger)` with the residual-within-sigma stop left out."""
    from dpsynth.gem import Adam
    from dpsynth.rap import MAX_HALVINGS, PLATEAU_TOL, PLATEAU_WINDOW, START_SCALE

    if len(ledger) == 0:
        return
    cols, queries, qidx = synth._read_blocks(ledger.indices())
    qidx = queries.gather(qidx, synth.cfg.rows)
    targets = np.clip(ledger.answers(), 0.0, 1.0)
    M = np.asfortranarray(synth.M[:, cols])
    loss, P, diff = synth._loss(M, queries, qidx, targets)
    history = [loss]
    opt = Adam(M, synth.cfg.lr)
    start = START_SCALE
    g = None
    for _ in range(synth.cfg.max_steps):
        if g is None:
            g = synth._grad(M, queries, qidx, P, diff)
            if not g.any():
                break
        delta = opt.direction(g)
        scale = start
        for _ in range(MAX_HALVINGS + 1):
            M_try = M - scale * delta
            new_loss, new_P, new_diff = synth._loss(M_try, queries, qidx, targets)
            if new_loss <= loss:
                break
            scale *= 0.5
        else:
            if opt.t == 1:
                break
            opt = Adam(M, synth.cfg.lr)
            start = START_SCALE
            continue
        start = min(2.0 * scale, 1.0) if scale == start else scale
        M, loss, P, diff, g = M_try, new_loss, new_P, new_diff, None
        history.append(loss)
        if len(history) > PLATEAU_WINDOW:
            ref = history[-PLATEAU_WINDOW - 1]
            if ref - loss < PLATEAU_TOL * max(ref, 1e-12):
                break
    synth.M[:, cols] = M

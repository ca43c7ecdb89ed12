"""One call from a method name to a private fit.

Every method is an update rule in the same select → measure → update loop;
`fit` picks its accountant, builds its synthesizer (with a public-data warm
start where asked) and runs the loop. The public-data variants are the same
rules started from public data: pep on the public support (PEP^Pub), gem
from a generator pretrained on public answers (GEM^Pub).
"""
from __future__ import annotations

import numpy as np

from .domain import DEFAULT_CELL_CAP, ConfigError, Dataset
from .gem import GemConfig, GemSynthesizer, Params
from .loop import DEFAULT_ALPHA, DEFAULT_K, RunConfig, run
from .mwem import MwemConfig, MwemSynthesizer
from .pep import PepConfig, PepSynthesizer
from .privacy import Accountant, BudgetError
from .public import PRETRAIN_LR, PRETRAIN_STEPS, gem_pub_pretrain, pep_pub_init
from .queries import QuerySet
from .rap import RapConfig, RapSynthesizer
from .search import DualQueryConfig, DualQuerySynthesizer, FemConfig, FemSynthesizer

METHODS = {
    "mwem": MwemSynthesizer,
    "pep": PepSynthesizer,
    "gem": GemSynthesizer,
    "rap-softmax": RapSynthesizer,
    "dualquery": DualQuerySynthesizer,
    "fem": FemSynthesizer,
}
HISTOGRAM_METHODS = tuple(m for m, cls in METHODS.items() if cls.averageable)
SEARCH_METHODS = tuple(m for m, cls in METHODS.items() if cls.self_selecting)
# each method's settings; the CLI's per-method flags set their fields
CONFIGS = {
    "mwem": MwemConfig,
    "pep": PepConfig,
    "gem": GemConfig,
    "rap-softmax": RapConfig,
    "dualquery": DualQueryConfig,
    "fem": FemConfig,
}


def fit(
    method: str,
    data: Dataset,
    queries: QuerySet,
    rho: float,
    rng: np.random.Generator,
    *,
    T: int,
    k: int = DEFAULT_K,
    alpha: float = DEFAULT_ALPHA,
    public: Dataset | None = None,
    init: Params | None = None,
    pretrain_steps: int = PRETRAIN_STEPS,
    pretrain_lr: float = PRETRAIN_LR,
    per_workload: bool = False,
    no_noise: bool = False,
    audit_errors: bool = False,
    output: str = "last",
    cfg=None,
    cell_cap: int = DEFAULT_CELL_CAP,
):
    """Fit `method` to `data` on `queries` at zCDP budget `rho`, T rounds of k selections.

    Returns (output, trace, accountant, pretrain info or None). `cfg` is the
    method's settings, an instance of `CONFIGS[method]` (its defaults when
    None); `cell_cap` bounds the histogram of mwem, pep (without public
    data), dualquery and fem. `public` starts pep on the public support or
    gem from a generator pretrained on public answers (`pretrain_steps`,
    `pretrain_lr`); `init` starts gem from given generator weights. The
    accountant and the loop settings are checked before any other work: the
    self-selecting methods spend every round's budget on selection, and a
    method that measures answers needs alpha < 1. `rng` drives pretraining,
    the synthesizer's initial state and the loop, in that order.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if public is not None and method not in ("pep", "gem"):
        raise ConfigError("public data applies only to methods pep and gem")
    if init is not None and (method != "gem" or public is not None):
        raise ConfigError("a generator init applies only to method gem, without public data")
    if output == "average" and not METHODS[method].averageable:
        raise ConfigError("averaged output is only available for histogram methods")
    if METHODS[method].self_selecting:
        acct = Accountant.selection_only(rho, T, k, data.n)
    else:
        acct = Accountant(rho, T, k, alpha, data.n)
        if acct.alpha == 1.0:
            raise BudgetError(f"{method} measures answers: alpha = 1 leaves no measurement share")
    run_cfg = RunConfig(
        T=T,
        k=k,
        per_workload=per_workload,
        no_noise=no_noise,
        audit_errors=audit_errors,
        output=output,
    )
    cfg = CONFIGS[method]() if cfg is None else cfg
    if not isinstance(cfg, CONFIGS[method]):
        raise ConfigError(f"{method} takes a {CONFIGS[method].__name__}, got {type(cfg).__name__}")
    domain = queries.domain
    info = None
    if method == "gem":
        if public is not None:
            init, info = gem_pub_pretrain(domain, public, queries, cfg, rng, steps=pretrain_steps, lr=pretrain_lr)
        synth = GemSynthesizer(domain, queries, cfg, rng, total_rounds=T, init=init)
    elif method == "rap-softmax":
        synth = RapSynthesizer(domain, queries, cfg, rng)
    elif public is not None:
        synth = pep_pub_init(public, domain, queries, cfg)
    else:
        synth = METHODS[method](domain, queries, cfg=cfg, cell_cap=cell_cap)
    out, trace = run(data, queries, synth, acct, run_cfg, rng)
    return out, trace, acct, info

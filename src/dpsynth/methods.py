"""One call from a method name to a private fit.

Every method is an update rule in the same select → measure → update loop;
`fit` picks its accountant, builds its synthesizer (with a public-data warm
start where asked) and runs the loop. The public-data variants are the same
rules started from public data: pep on the public support (PEP^Pub), gem
from a generator pretrained on public answers (GEM^Pub).
"""
from __future__ import annotations

import numpy as np

from .domain import ConfigError, Dataset
from .gem import GemConfig, GemSynthesizer, Params
from .loop import RunConfig, run
from .mwem import MwemSynthesizer
from .pep import PepSynthesizer
from .privacy import Accountant, BudgetError
from .public import gem_pub_pretrain, pep_pub_init
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
HISTOGRAM_METHODS = ("mwem", "pep")  # their output can be averaged over rounds
SEARCH_METHODS = tuple(m for m, cls in METHODS.items() if cls.self_selecting)
# the default `cfg` of the methods whose constructor takes one
_CONFIGS = {"gem": GemConfig, "rap-softmax": RapConfig, "dualquery": DualQueryConfig, "fem": FemConfig}


def fit(
    method: str,
    data: Dataset,
    queries: QuerySet,
    rho: float,
    rng: np.random.Generator,
    *,
    T: int,
    k: int = 1,
    alpha: float = 0.67,
    public: Dataset | None = None,
    init: Params | None = None,
    pretrain_steps: int = 3000,
    pretrain_lr: float = 1e-3,
    per_workload: bool = False,
    no_noise: bool = False,
    audit_errors: bool = False,
    output: str = "last",
    em_score_halved: bool = False,
    **settings,
):
    """Fit `method` to `data` on `queries` at zCDP budget `rho`, T rounds of k selections.

    Returns (output, trace, accountant, pretrain info or None). `settings`
    are the method's own constructor keywords: eta, cycles and cell_cap for
    mwem; gamma, t_max and cell_cap for pep; cfg for gem and rap-softmax;
    cfg and cell_cap for dualquery and fem. `public` starts pep on the public
    support or gem from a generator pretrained on public answers
    (`pretrain_steps`, `pretrain_lr`); `init` starts gem from given
    generator weights. The accountant and the loop settings are checked
    before any other work: the self-selecting methods spend every round's
    budget on selection, and a method that measures answers needs alpha < 1.
    `rng` drives pretraining, the synthesizer's initial state and the loop,
    in that order.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if public is not None and method not in ("pep", "gem"):
        raise ConfigError("public data applies only to methods pep and gem")
    if init is not None and (method != "gem" or public is not None):
        raise ConfigError("a generator init applies only to method gem, without public data")
    if METHODS[method].self_selecting:
        acct = Accountant.selection_only(rho, T, k, data.n)
    else:
        acct = Accountant(rho, T, k, alpha, data.n)
        if acct.alpha == 1.0:
            raise BudgetError(f"{method} measures answers: alpha = 1 leaves no measurement share")
    cfg = RunConfig(
        T=T,
        k=k,
        per_workload=per_workload,
        no_noise=no_noise,
        audit_errors=audit_errors,
        output=output,
        em_score_halved=em_score_halved,
    )
    domain = queries.domain
    if method in _CONFIGS:
        settings.setdefault("cfg", _CONFIGS[method]())
    info = None
    if method == "gem":
        if public is not None:
            init, info = gem_pub_pretrain(
                domain, public, queries, settings["cfg"], rng, steps=pretrain_steps, lr=pretrain_lr
            )
        synth = GemSynthesizer(domain, queries, rng=rng, total_rounds=T, init=init, **settings)
    elif method == "rap-softmax":
        synth = RapSynthesizer(domain, queries, rng=rng, **settings)
    elif public is not None:
        synth = pep_pub_init(public, domain, queries, **settings)
    else:
        synth = METHODS[method](domain, queries, **settings)
    out, trace = run(data, queries, synth, acct, cfg, rng)
    return out, trace, acct, info

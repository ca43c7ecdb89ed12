"""Differentially private synthetic data via adaptive query measurement."""

from .domain import (
    DEFAULT_CELL_CAP,
    CapacityError,
    ConfigError,
    DataError,
    Dataset,
    Domain,
    DomainError,
    SupportDistribution,
)
from .gem import GemConfig, GemSynthesizer, ema_update, gem_gradient, gem_loss
from .loop import RunConfig, Synthesizer, run
from .methods import fit
from .mwem import MwemSynthesizer
from .pep import PepSynthesizer
from .privacy import (
    Accountant,
    BudgetError,
    MeasurementLedger,
    dp_to_zcdp,
    exp_mechanism_select,
    gaussian_measure,
    select_and_measure_round,
    zcdp_to_dp,
)
from .public import best_mixture_error, gem_pub_pretrain, pep_pub_init
from .queries import QuerySet, Workload, build_workloads
from .rap import RapConfig, RapSynthesizer
from .report import build_report, canonical_json, errors, write_report
from .search import DualQueryConfig, DualQuerySynthesizer, FemConfig, FemSynthesizer
from .toy import gen_toy

__version__ = "0.1.0"

"""Command-line front end.

Subcommands: synth, evaluate, accountant, pretrain, best-mixture-error,
gen-toy. Exit codes: 0 success, 2 a bad setting or flag conflict
(ConfigError), 3 domain over the histogram cell cap or past 2^63 cells
(CapacityError), 4 a bad file or bad data (DataError, DomainError, OSError).
"""
from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from .domain import (
    DEFAULT_CELL_CAP,
    CapacityError,
    ConfigError,
    DataError,
    Dataset,
    Domain,
    DomainError,
    ProductMixture,
    SupportDistribution,
    load_npz,
)
from .gem import LOSSES, GemOutput, forward, load_checkpoint, save_checkpoint
from .loop import DEFAULT_ALPHA, DEFAULT_K, DEFAULT_T
from .methods import CONFIGS, HISTOGRAM_METHODS, METHODS, SEARCH_METHODS, fit
from .privacy import Accountant, dp_to_zcdp, zcdp_to_dp
from .public import MIXTURE_ITERATIONS, PRETRAIN_LR, PRETRAIN_STEPS, best_mixture_error, gem_pub_pretrain
from .queries import QuerySet, build_workloads
from .report import build_report, errors, write_errors_csv, write_report, write_trace
from .toy import gen_toy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_FILE = 4

# per-method flag -> (method, field of its config in CONFIGS), whose default is the flag's
METHOD_FLAGS = {
    "--mwem-eta": ("mwem", "eta"),
    "--mwem-cycles": ("mwem", "cycles"),
    "--pep-gamma": ("pep", "gamma"),
    "--pep-tmax": ("pep", "t_max"),
    "--gem-hidden": ("gem", "hidden"),
    "--gem-zdim": ("gem", "z_dim"),
    "--gem-batch": ("gem", "batch"),
    "--gem-loss": ("gem", "loss"),
    "--gem-lr": ("gem", "lr"),
    "--gem-tmax": ("gem", "t_max"),
    "--gem-resample-z": ("gem", "resample_z"),
    "--gem-ema-beta": ("gem", "ema_beta"),
    "--rap-rows": ("rap-softmax", "rows"),
    "--rap-lr": ("rap-softmax", "lr"),
    "--rap-steps": ("rap-softmax", "max_steps"),
    "--rap-original": ("rap-softmax", "original"),
    "--dq-samples": ("dualquery", "samples"),
    "--fem-sigma": ("fem", "sigma"),
    "--fem-samples": ("fem", "samples"),
}


def _budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, default=None, help="zCDP budget")
    p.add_argument("--epsilon", type=float, default=None, help="DP epsilon (needs --delta)")
    p.add_argument("--delta", type=float, default=None, help="DP delta")


def _resolve_budget(args) -> tuple[float, float | None, float | None]:
    """Returns (rho, epsilon, delta). Exactly one of --rho / --epsilon."""
    if args.rho is not None and args.epsilon is not None:
        raise ConfigError("give either --rho or --epsilon/--delta, not both")
    if args.rho is not None:
        eps = None
        if args.delta is not None:
            eps = zcdp_to_dp(args.rho, args.delta)
        return args.rho, eps, args.delta
    if args.epsilon is not None:
        if args.delta is None:
            raise ConfigError("--epsilon needs --delta")
        return dp_to_zcdp(args.epsilon, args.delta), args.epsilon, args.delta
    raise ConfigError("a privacy budget is required: --rho or --epsilon/--delta")


def _workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--marginal-k", type=int, default=3, help="marginal order")
    p.add_argument("--workloads", default="all", help="number of feature subsets to use, or 'all'")
    p.add_argument("--workload-seed", type=int, default=None, help="seed for workload sampling")


def _build_queries(args, domain: Domain) -> QuerySet:
    count = None if str(args.workloads) == "all" else _int_arg("--workloads", args.workloads)
    wl_seed = args.workload_seed if args.workload_seed is not None else getattr(args, "seed", 0)
    return build_workloads(domain, args.marginal_k, count, np.random.default_rng(wl_seed))


def _int_arg(flag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{flag} must be an integer, got {text!r}") from None


def _load_public(path, domain: Domain, whole: bool = False) -> Dataset:
    """Public CSV over a subset of the private attributes (matched by name),
    or over all of them when `whole`."""
    with open(path, newline="") as f:
        try:
            header = [h.strip() for h in next(csv.reader(f))]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
    unknown = [h for h in header if h not in domain.names]
    if unknown:
        raise DataError(f"{path}: attributes {unknown} not in the private domain")
    missing = [n for n in domain.names if n not in header]
    if whole and missing:
        raise DataError(f"{path}: private attributes {missing} missing from the public data")
    names = tuple(n for n in domain.names if n in header)
    sizes = tuple(domain.sizes[domain.names.index(n)] for n in names)
    return Dataset.from_csv(path, Domain(names, sizes))


def _method_flags(p: argparse.ArgumentParser, flags=METHOD_FLAGS) -> None:
    """Adds `flags`, rows of METHOD_FLAGS, each with its field's default and that default's type."""
    for flag in flags:
        method, field = METHOD_FLAGS[flag]
        default = getattr(CONFIGS[method], field)
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true")
        elif isinstance(default, tuple):  # gem's hidden widths, as a comma list
            p.add_argument(flag, default=",".join(map(str, default)))
        else:
            p.add_argument(flag, type=type(default), default=default, choices=LOSSES if field == "loss" else None)


def _method_config(args, method: str):
    """`method`'s config, with the fields of those of its flags that `args` holds."""
    settings = {}
    for flag, (owner, field) in METHOD_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if owner == method and value is not None:
            if field == "hidden":
                value = tuple(_int_arg(flag, x) for x in value.split(",") if x.strip())
            settings[field] = value
    return CONFIGS[method](**settings)


# ---------------------------------------------------------------- synth ---


def cmd_synth(args) -> int:
    # pure argument validation comes before any file is touched
    rho, epsilon, delta = _resolve_budget(args)
    if args.public and args.method not in ("pep", "gem"):
        raise ConfigError("--public applies only to methods pep and gem")
    if args.gem_init and args.method != "gem":
        raise ConfigError("--gem-init applies only to method gem")
    if args.public and args.gem_init:
        raise ConfigError("give --public or --gem-init, not both")
    if args.output_average and args.method not in HISTOGRAM_METHODS:
        raise ConfigError("--output-average is only available for mwem and pep")
    if args.marginal_trick and args.method in SEARCH_METHODS:
        raise ConfigError(f"--marginal-trick does not apply to {args.method}, which measures no answers")
    if args.samples is not None and args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    if args.pretrain_steps < 1:
        raise ConfigError(f"--pretrain-steps must be >= 1, got {args.pretrain_steps}")
    if not 0 < args.pretrain_lr < np.inf:
        raise ConfigError(f"--pretrain-lr must be > 0 and finite, got {args.pretrain_lr}")

    domain = Domain.load(args.domain)
    data = Dataset.from_csv(args.data, domain)
    if data.n == 0:
        raise DataError(f"{args.data}: no records")
    queries = _build_queries(args, domain)
    rng = np.random.default_rng(args.seed)
    # pep reweights the public records, so they need every private attribute
    public = _load_public(args.public, domain, whole=args.method == "pep") if args.public else None
    # the checkpoint's weights fix the architecture; flags keep the training
    # knobs (batch, lr, t_max, loss, ...)
    init = _load_checkpoint(args.gem_init, domain) if args.gem_init else None
    if args.no_noise:
        print("warning: --no-noise disables privacy; output is NOT private", file=sys.stderr)
    elif args.audit_errors:
        print(
            "warning: --audit-errors writes errors against the private answers; "
            "the trace is NOT private",
            file=sys.stderr,
        )

    t0 = time.perf_counter()
    out, trace, acct, info = fit(
        args.method,
        data,
        queries,
        rho,
        rng,
        T=args.T,
        k=args.k,
        alpha=args.alpha,
        public=public,
        init=init,
        pretrain_steps=args.pretrain_steps,
        pretrain_lr=args.pretrain_lr,
        per_workload=args.marginal_trick,
        no_noise=args.no_noise,
        audit_errors=args.audit_errors,
        output="average" if args.output_average else "last",
        cfg=_method_config(args, args.method),
        cell_cap=args.cell_cap,
    )
    wall = time.perf_counter() - t0
    if info is not None:
        print(
            f"pretrained on public data: {info['queries']} queries, "
            f"{info['steps']} steps, max_err={info['max_err']:.4g}",
            file=sys.stderr,
        )

    true_ans = queries.answers_records(data)
    synth_ans = out.answers(queries)

    if args.out:
        count = args.samples if args.samples is not None else data.n
        out.sample_dataset(count, rng).to_csv(args.out)
    if args.save_dist:
        _save_artifact(out, args.save_dist)
    if args.trace:
        write_trace(trace, args.trace)
    if args.dump_errors:
        write_errors_csv(queries, true_ans, synth_ans, args.dump_errors)

    report = build_report(
        method=args.method,
        queries=queries,
        true_answers=true_ans,
        synth_answers=synth_ans,
        acct=acct,
        epsilon=epsilon,
        delta=delta,
        seed=args.seed,
        # audits put a function of the private answers into the trace
        private=not (args.no_noise or args.audit_errors),
        wall_time_sec=wall,
        config=_config_echo(args),
    )
    if args.report:
        write_report(report, args.report)
    e = report["errors"]
    print(
        f"{args.method}: rho={rho:.6g} max={e['max']:.6g} mean={e['mean']:.6g} rmse={e['rmse']:.6g}"
    )
    return EXIT_OK


def _save_artifact(out: SupportDistribution | ProductMixture, path) -> None:
    if isinstance(out, GemOutput):
        out.save_checkpoint(path)
    else:
        out.save_npz(path)  # support distribution or relaxed rows


def _config_echo(args) -> dict:
    skip = {"func", "domain", "data", "out", "report", "trace", "dump_errors", "save_dist"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and not callable(v)}


# ------------------------------------------------------------- evaluate ---


def cmd_evaluate(args) -> int:
    if (args.synthetic is None) == (args.dist is None):
        raise ConfigError("give exactly one of --synthetic or --dist")
    if args.gem_batch < 1:
        raise ConfigError(f"--gem-batch must be >= 1, got {args.gem_batch}")
    domain = Domain.load(args.domain)
    data = Dataset.from_csv(args.data, domain)
    queries = _build_queries(args, domain)
    true_ans = queries.answers_records(data)
    if args.synthetic:
        synth_ans = queries.answers_records(Dataset.from_csv(args.synthetic, domain))
    else:
        synth_ans = _load_artifact(args.dist, domain, args).answers(queries)
    mx, mn, rmse = errors(true_ans, synth_ans)
    print(f"max={mx:.6g} mean={mn:.6g} rmse={rmse:.6g}")
    if args.dump_errors:
        write_errors_csv(queries, true_ans, synth_ans, args.dump_errors)
    if args.report:
        write_report(
            {
                "schema_version": 1,
                "errors": {"max": mx, "mean": mn, "rmse": rmse},
                "marginal_k": queries.k,
                "workload_count": len(queries.workloads),
                "query_count": queries.total_queries,
            },
            args.report,
        )
    return EXIT_OK


def _load_artifact(path, domain: Domain, args):
    """Support-distribution .npz, relaxed-rows .npz, or a generator checkpoint."""
    if str(path).endswith(".npz"):
        dist = load_npz(path)
        if dist.domain.names != domain.names or dist.domain.sizes != domain.sizes:
            raise DataError(f"{path}: artifact domain does not match --domain")
        return dist
    params = _load_checkpoint(path, domain)
    Z = np.random.default_rng(args.seed).standard_normal((args.gem_batch, params[0][0].shape[0]))
    return ProductMixture(domain, forward(params, Z, domain)[0])


def _load_checkpoint(path, domain: Domain):
    """The parameters of a generator checkpoint over `domain`."""
    params, ck_domain = load_checkpoint(path)
    if ck_domain.names != domain.names or ck_domain.sizes != domain.sizes:
        raise DataError(f"{path}: checkpoint domain does not match --domain")
    return params


# ------------------------------------------------------------ accountant --


def cmd_accountant(args) -> int:
    rho, epsilon, delta = _resolve_budget(args)
    acct = Accountant(rho, args.T, args.k, args.alpha, args.n)
    print(f"rho={acct.rho!r}")
    print(f"eps0={acct.eps0!r}")
    if acct.alpha < 1.0:
        print(f"sigma_single={float(acct.gaussian_sigma(1.0))!r}")
        print(f"sigma_workload={float(acct.gaussian_sigma(np.sqrt(2.0)))!r}")
    if delta is not None:
        print(f"epsilon({delta!r})={float(acct.epsilon(delta))!r}")
    return EXIT_OK


# -------------------------------------------------------------- pretrain --


def cmd_pretrain(args) -> int:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    domain = Domain.load(args.domain)
    public = _load_public(args.public, domain)
    queries = _build_queries(args, domain)
    cfg = _method_config(args, "gem")  # the shape flags; the rest keep their defaults
    rng = np.random.default_rng(args.seed)
    params, info = gem_pub_pretrain(domain, public, queries, cfg, rng, steps=args.steps, lr=args.lr)
    save_checkpoint(params, domain, args.out)
    print(
        f"pretrained: {info['queries']} public queries, {info['steps']} steps, "
        f"max_err={info['max_err']:.6g} -> {args.out}"
    )
    return EXIT_OK


# ---------------------------------------------------- best-mixture-error --


def cmd_best_mixture_error(args) -> int:
    if args.iterations < 1:
        raise ConfigError(f"--iterations must be >= 1, got {args.iterations}")
    domain = Domain.load(args.domain)
    data = Dataset.from_csv(args.data, domain)
    public = _load_public(args.public, domain, whole=True)
    queries = _build_queries(args, domain)
    targets = queries.answers_records(data)
    support = np.unique(public.cells())
    val = best_mixture_error(support, queries, targets, iterations=args.iterations)
    print(f"best_mixture_error={val!r}")
    return EXIT_OK


# ---------------------------------------------------------------- gen-toy --


def cmd_gen_toy(args) -> int:
    sizes: int | list[int]
    if "," in str(args.sizes):
        sizes = [_int_arg("--sizes", s) for s in str(args.sizes).split(",") if s.strip()]
    else:
        sizes = _int_arg("--sizes", args.sizes)
    domain, data = gen_toy(
        attrs=args.attrs, sizes=sizes, n=args.n, seed=args.seed, components=args.components
    )
    data.to_csv(args.out)
    if args.domain_out:
        domain.save(args.domain_out)
    print(f"wrote {data.n} records over {domain.total_cells} cells to {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------ main --


class _Parser(argparse.ArgumentParser):
    """argparse's own rejections print one `error:` line and exit 2, as every other error does."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="dpsynth", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="fit a private synthetic distribution")
    p.add_argument("--domain", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    _budget_args(p)
    _workload_args(p)
    p.add_argument("--T", type=int, default=DEFAULT_T, help="rounds")
    p.add_argument("--k", type=int, default=DEFAULT_K, help="queries selected per round")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="selection budget share")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--marginal-trick", action="store_true", help="measure whole workloads")
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--audit-errors", action="store_true")
    p.add_argument("--output-average", action="store_true")
    p.add_argument("--cell-cap", type=int, default=DEFAULT_CELL_CAP)
    p.add_argument("--samples", type=int, default=None, help="synthetic records to sample")
    p.add_argument("--out", default=None, help="synthetic CSV path")
    p.add_argument("--save-dist", default=None, help="distribution artifact path")
    p.add_argument("--report", default=None)
    p.add_argument("--trace", default=None)
    p.add_argument("--dump-errors", default=None)
    p.add_argument("--public", default=None, help="public CSV (methods pep, gem)")
    p.add_argument("--gem-init", default=None, help="generator checkpoint to start from")
    p.add_argument("--pretrain-steps", type=int, default=PRETRAIN_STEPS)
    p.add_argument("--pretrain-lr", type=float, default=PRETRAIN_LR)
    _method_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="score synthetic data against a dataset")
    p.add_argument("--domain", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--synthetic", default=None, help="synthetic CSV")
    p.add_argument("--dist", default=None, help="distribution artifact")
    _workload_args(p)
    p.add_argument("--seed", type=int, default=0)
    _method_flags(p, ("--gem-batch",))
    p.add_argument("--report", default=None)
    p.add_argument("--dump-errors", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("accountant", help="print budget quantities")
    _budget_args(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_accountant)

    p = sub.add_parser("pretrain", help="fit a generator to public data")
    p.add_argument("--domain", required=True)
    p.add_argument("--public", required=True)
    p.add_argument("--out", required=True)
    _workload_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=PRETRAIN_STEPS)
    p.add_argument("--lr", type=float, default=PRETRAIN_LR)
    _method_flags(p, ("--gem-hidden", "--gem-zdim", "--gem-batch", "--gem-loss"))  # the generator's shape
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser(
        "best-mixture-error", help="error floor of reweighting a public support"
    )
    p.add_argument("--domain", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--public", required=True)
    _workload_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=MIXTURE_ITERATIONS)
    p.set_defaults(func=cmd_best_mixture_error)

    p = sub.add_parser("gen-toy", help="sample a small correlated benchmark")
    p.add_argument("--attrs", type=int, default=4)
    p.add_argument("--sizes", default="8", help="single size or comma list")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--domain-out", default=None)
    p.set_defaults(func=cmd_gen_toy)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for flag in ("seed", "workload_seed"):  # numpy seeds must be non-negative
            if (getattr(args, flag, None) or 0) < 0:
                raise ConfigError(f"--{flag.replace('_', '-')} must be >= 0, got {getattr(args, flag)}")
        return args.func(args)
    except ConfigError as e:  # BudgetError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DataError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer that wraps dpsynth's public functions from outside the library.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, fit id) or bumps a
counter, and `uninstall()` puts the originals back. Module-level functions
are replaced in every dpsynth module that holds a reference to them, so a
call through `from .queries import product_answers` is traced as well.
Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict


def _layers():
    """(span name, owner, attribute) for every traced layer boundary."""
    from dpsynth import gem, loop, mwem, pep, privacy, public, queries, rap, search, toy

    Q = queries.QuerySet
    return [
        ("toy.gen_toy", toy, "gen_toy"),
        ("queries.build_workloads", queries, "build_workloads"),
        ("queries.answers_records", Q, "answers_records"),
        ("queries.answers_mass", Q, "answers_mass"),
        ("queries.answers_support", Q, "answers_support"),
        ("queries.answers_probs", Q, "answers_probs"),
        ("queries.cell_locals", Q, "_cell_locals"),
        ("loop.run", loop, "run"),
        ("privacy.select_and_measure_round", privacy, "select_and_measure_round"),
        ("mwem.init", mwem.MwemSynthesizer, "__init__"),
        ("mwem.answers", mwem.MwemSynthesizer, "answers"),
        ("mwem.update", mwem.MwemSynthesizer, "update"),
        ("mwem.finalize", mwem.MwemSynthesizer, "finalize"),
        ("pep.init", pep.PepSynthesizer, "__init__"),
        ("pep.answers", pep.PepSynthesizer, "answers"),
        ("pep.answers_all", pep.PepSynthesizer, "_answers_all"),
        ("pep.update", pep.PepSynthesizer, "update"),
        ("pep.finalize", pep.PepSynthesizer, "finalize"),
        ("gem.init", gem.GemSynthesizer, "__init__"),
        ("gem.answers", gem.GemSynthesizer, "answers"),
        ("gem.update", gem.GemSynthesizer, "update"),
        ("gem.finalize", gem.GemSynthesizer, "finalize"),
        ("rap.init", rap.RapSynthesizer, "__init__"),
        ("rap.answers", rap.RapSynthesizer, "answers"),
        ("rap.update", rap.RapSynthesizer, "update"),
        ("rap.finalize", rap.RapSynthesizer, "finalize"),
        ("search.answers", search._SearchBase, "answers"),
        ("search.finalize", search._SearchBase, "finalize"),
        ("search.dualquery.init", search.DualQuerySynthesizer, "__init__"),
        ("search.dualquery.private_round", search.DualQuerySynthesizer, "private_round"),
        ("search.fem.init", search.FemSynthesizer, "__init__"),
        ("search.fem.private_round", search.FemSynthesizer, "private_round"),
        ("public.gem_pub_pretrain", public, "gem_pub_pretrain"),
        ("public.pep_pub_init", public, "pep_pub_init"),
        ("public.best_mixture_error", public, "best_mixture_error"),
    ]


def _counters():
    """(counter name, owner, attribute, only inside this span or None).

    These are called too often, or too deep inside one layer, for a span
    each; the wrapper only counts the call. Only the named module's own
    reference is replaced, so e.g. `rap.loss_evals` counts exactly the
    product answers that `dpsynth.rap` evaluates.
    """
    from dpsynth import gem, mwem, pep, rap

    return [
        ("mwem.entry_steps", mwem, "normalize_mass", "mwem.update"),
        ("pep.projections", pep, "normalize_mass", "pep.update"),
        ("gem.forward_passes", gem, "forward", None),
        ("gem.loss_evals", gem, "gem_loss", None),
        ("gem.optimizer_steps", gem.Adam, "step", None),
        ("rap.loss_evals", rap, "product_answers", None),
        ("rap.grad_evals", rap, "product_answers_grad", None),
    ]


def _answers_mass_gb(args) -> float:
    """Bytes one answers_mass call reads: per workload, an int64 cell map and the mass."""
    qs, mass = args[0], args[1]
    return len(qs.workloads) * mass.size * 16 / 1e9


class Tracer:
    """In-memory spans and counters for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, fit]
        self.counts: dict[str, float] = defaultdict(float)
        self.fit = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.fit])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    @contextlib.contextmanager
    def region(self, name: str, fit: str):
        """A span opened by the benchmark itself around one fit (or set-up)."""
        prev, self.fit = self.fit, fit
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.fit = prev

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if name == "queries.answers_mass":
                    self.counts["queries.answers_mass.gb_computed"] += _answers_mass_gb(args)
                elif name == "loop.run":
                    self.counts["loop.rounds"] += args[4].T

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn, within):
        def counted(*args, **kwargs):
            if within is None or self._inside(within):
                self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "dpsynth" or k.startswith("dpsynth.")]
        for name, owner, attr in _layers():
            orig = owner.__dict__[attr]
            wrapped = self._span_wrapper(name, orig)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:  # every module-level alias of the function
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        for name, owner, attr, within in _counters():
            self._set(owner, attr, self._count_wrapper(name, owner.__dict__[attr], within))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- summaries ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_table(self, keep=lambda span: True) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s} over the spans `keep` accepts."""
        table: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            if not keep(span):
                continue
            row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_s
        return table

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "fit": f}
            for n, s, e, p, f in self.spans
        ]

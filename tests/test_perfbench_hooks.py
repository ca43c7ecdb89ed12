"""The benchmark's tracer finds every library hook it wraps."""
import sys
from pathlib import Path

import numpy as np

from dpsynth import Dataset, Domain, MwemConfig, build_workloads, fit, queries, rap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    # install() looks every hook up by name (a KeyError names a missing one);
    # rap's two product-query calls are the loss and gradient counters
    originals = (queries.QuerySet.answers_support, rap.product_answers, rap.product_answers_grad)
    tracer = Tracer()
    try:
        tracer.install()
        assert queries.QuerySet.answers_support is not originals[0]
        assert rap.product_answers is not originals[1]
        assert rap.product_answers_grad is not originals[2]
    finally:
        tracer.uninstall()
    assert (queries.QuerySet.answers_support, rap.product_answers, rap.product_answers_grad) == originals


def test_tracer_counts_renormalizations_and_dense_passes():
    # the per-layer counters read calls by name: MWEM's entry steps and PEP's
    # projections are the `normalize_mass` calls inside their updates, and
    # PEP's dense pass is `_answers_all`. Every record sits in one cell, so
    # its marginal's measured answer is near 1 and both fits renormalize.
    dom = Domain(("a", "b"), (4, 4))
    data = Dataset(dom, np.zeros((200, 2), dtype=np.int64))
    qs = build_workloads(dom, 1)
    tracer = Tracer()
    try:
        tracer.install()
        fit("mwem", data, qs, 1.0, np.random.default_rng(0), T=2, cfg=MwemConfig(eta=0.05))
        fit("pep", data, qs, 1.0, np.random.default_rng(0), T=2)
    finally:
        tracer.uninstall()
    assert tracer.counts["mwem.entry_steps"] >= 1
    assert tracer.counts["pep.projections"] >= 1
    assert any(span[0] == "pep.answers_all" for span in tracer.spans)

"""The benchmark's tracer finds every library hook it wraps."""
import sys
from pathlib import Path

from dpsynth import queries, rap

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

"""`dpsynth.fit` builds the same fits as the benchmark harness, bit for bit."""
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from dpsynth import fit
from dpsynth.gem import GemConfig
from dpsynth.queries import build_workloads
from dpsynth.rap import RapConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402

SEED = 11
CASES = [
    (name, op)
    for name in harness.SPECS
    for op in harness.smoke_spec(name).ops
    if op.name != "bme"
]


def _library_fit(op, inp, fit_seed):
    """The op's fit through `fit`, on a fresh query collection."""
    settings = {}
    public = inp.public if op.name.endswith("-public") else None
    method = op.name.removesuffix("-public")
    if method == "gem":
        settings["cfg"] = GemConfig(t_max=op.gem_tmax)
    elif method == "rap-softmax":
        settings["cfg"] = RapConfig(rows=op.rap_rows, max_steps=op.rap_steps)
    qs = build_workloads(inp.domain, harness.MARGINAL_K)
    qs.threads = inp.threads
    out, *_ = fit(
        method,
        inp.data,
        qs,
        inp.rho,
        np.random.default_rng(fit_seed),
        T=op.T,
        alpha=harness.ALPHA,
        public=public,
        pretrain_steps=op.pretrain_steps,
        **settings,
    )
    return out.answers(qs)


def _sha(answers) -> str:
    return hashlib.sha256(np.ascontiguousarray(answers, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("workload,op", CASES, ids=[f"{w}-{op.name}" for w, op in CASES])
def test_fit_matches_harness(workload, op):
    spec = harness.smoke_spec(workload)
    _, bench, _ = harness.fit(op, harness.setup(spec, SEED, 0, 1), SEED)
    ours = _library_fit(op, harness.setup(spec, SEED, 0, 1), SEED)
    assert _sha(ours) == _sha(bench)

"""Spread over fit seeds of rap-softmax's max error on the criterion-7 toy.

The toy is gen_toy(4, 8, 2000, seed=0) with all 3-way marginals, fit at
epsilon=1, delta=1/n^2, T=20, k=1 and RapConfig(max_steps=300), as in
acceptance criterion 7. RAP's line search turns last-bit rounding changes
into different accepted steps, so one seed's error says little; this prints
the mean, SD and SE of the max error over fit seeds 0-19.

    PYTHONPATH=src python3 scripts/rap_seed_spread.py
"""
import math
import time

import numpy as np

from dpsynth.methods import fit
from dpsynth.privacy import dp_to_zcdp
from dpsynth.queries import build_workloads
from dpsynth.rap import RapConfig
from dpsynth.report import errors
from dpsynth.toy import gen_toy

SEEDS = range(20)
T = 20


def max_err(seed: int) -> float:
    """Max error of one criterion-7 RAP fit at fit seed `seed`."""
    domain, data = gen_toy(4, 8, 2000, seed=0)
    queries = build_workloads(domain, 3)
    rho = dp_to_zcdp(1.0, 1.0 / data.n**2)
    rng = np.random.default_rng(seed)
    out, *_ = fit("rap-softmax", data, queries, rho, rng, T=T, cfg=RapConfig(max_steps=300))
    return errors(queries.answers_records(data), out.answers(queries))[0]


def main():
    t0 = time.perf_counter()
    errs = []
    for seed in SEEDS:
        errs.append(max_err(seed))
        print(f"seed {seed:2d}  max error {errs[-1]:.4f}", flush=True)
    sd = float(np.std(errs, ddof=1))
    print(
        f"mean {np.mean(errs):.4f}  SD {sd:.4f}  SE {sd / math.sqrt(len(errs)):.4f}  "
        f"({len(errs)} seeds, {time.perf_counter() - t0:.0f} s)"
    )


if __name__ == "__main__":
    main()

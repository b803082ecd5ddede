"""Per-call timings of glsae's inner layers at a workload's size.

Usage::

    python3 perfbench/layers.py WORKLOAD SEED

Prints one JSON object: the median microseconds of one ``gibbs.sweep`` on a
warmed chain for each of the six variants at the workload's J, and of one
call to ``sample_inverse_gamma`` (62 x J), ``sample_gig`` at order 1/2 and at
order -1.5 (62 elements), ``simgen.generate``, ``RngStream`` construction and
``metrics.score``. Calls are timed in blocks and the median block mean is
reported, so one stall does not move the figure.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from workloads import PANEL_ROW, WORKLOADS, case1_specs, fit_panel

from glsae.distributions import GigParams, InverseGammaParams, sample_gig, sample_inverse_gamma
from glsae.gibbs import sweep
from glsae.metrics import score
from glsae.model import VARIANT_TAGS, init_state, variant
from glsae.rng import RngStream
from glsae.simgen import generate

BUDGET_S = 0.25   # time spent timing one function after warm-up
WARMUP = 20


def per_call_us(fn, budget_s: float = BUDGET_S, min_blocks: int = 5) -> float:
    """Median over blocks of the mean microseconds per call of ``fn()``."""
    for _ in range(3):
        fn()
    start = time.perf_counter()
    fn()
    one = max(time.perf_counter() - start, 1e-7)
    block = max(1, int(budget_s / one / 20))   # about 20 blocks in the budget
    means = []
    deadline = time.perf_counter() + budget_s
    while len(means) < min_blocks or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(block):
            fn()
        means.append((time.perf_counter() - start) / block * 1e6)
    return statistics.median(means)


def main(argv: list[str]) -> int:
    workload = WORKLOADS[argv[0]]
    seed = int(argv[1])
    data = fit_panel(seed, workload.n_sources)
    panel = data.panel
    I, J = panel.n_areas, panel.n_sources
    result = {}

    for tag in VARIANT_TAGS:
        model = variant(tag)
        fit = panel if model.has_theta_level else panel.select_source(0)
        rng = RngStream(seed, 1)
        state = init_state(fit, model, 0.0, rng)
        for _ in range(WARMUP):
            sweep(state, fit, model, rng)
        result[f"gibbs.sweep_us.{tag}"] = per_call_us(lambda: sweep(state, fit, model, rng))

    rng = RngStream(seed, 2)
    gen = rng.generator
    ig = InverseGammaParams(shape=1.0, rate=gen.uniform(0.5, 2.0, size=(I, J)))
    half = GigParams(order=0.5, chi=gen.uniform(0.01, 1.0, size=I), psi=2.0)
    general = GigParams(order=-1.5, chi=gen.uniform(0.01, 1.0, size=I), psi=2.0)
    result["distributions.ig_us"] = per_call_us(lambda: sample_inverse_gamma(ig, rng))
    result["distributions.gig_half_us"] = per_call_us(lambda: sample_gig(half, rng))
    result["distributions.gig_general_us"] = per_call_us(lambda: sample_gig(general, rng))

    spec = case1_specs(J)[(workload.rows or (PANEL_ROW,))[0] - 1]
    stream = RngStream(seed, 3)
    result["simgen.generate_us"] = per_call_us(lambda: generate(spec, 0, stream))
    result["rng.stream_init_us"] = per_call_us(lambda: RngStream(seed, 4))
    estimate = data.truth_mu + gen.normal(0.0, 0.01, size=I)
    result["metrics.score_us"] = per_call_us(lambda: score(estimate, data.truth_mu))

    print(json.dumps({k: float(v) for k, v in result.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The heavy criteria use two worker processes; on a 2-core host the
full suite, this module included, ran 367 tests in 248 s. Criteria 1, 4,
5 and 6 carry the ``slow`` marker, so ``pytest -m "not slow"`` skips them
for a quick local loop.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import special, stats

from glsae.diagnostics import rhat_report
from glsae.distributions import GigParams, InverseGammaParams, sample_gig, sample_inverse_gamma
from glsae.gibbs import run_chains
from glsae.metrics import FitScore, best_model_counts, discrepancy_ratio, score
from glsae.model import SamplerSettings, variant
from glsae.rng import RngStream, derive_stream_id
from glsae.runner import SimConfig, run_simulation
from glsae.simgen import generate, spec_table
from glsae.summary import decompose
from oracle import make_instance, metropolis_posterior, tiny_battery
from reference import conditional_mean_direct, sample_halfcauchy_sq, sample_normal

WORKERS = 2
VARIANTS = ("m11a", "m11b", "m1a", "m1b", "m12", "one_source")


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


# -- criterion 1 -------------------------------------------------------------


def _oracle_job(args):
    tag, idx = args
    inst = make_instance(tiny_battery()[idx], tag)
    settings = SamplerSettings(
        seed=1000 + idx, n_iter=20000, n_burnin=2000, n_chains=4,
        monitor=frozenset({"mu"}),
    )
    mu = run_chains(
        inst.panel, inst.variant, settings,
        stream_base=derive_stream_id(90, VARIANTS.index(tag), idx),
        overdispersion=0.05,
    )["mu"]
    chain_means = mu.mean(axis=1)
    g_mean = chain_means.mean(axis=0)
    g_mcse = chain_means.std(axis=0, ddof=1) / math.sqrt(settings.n_chains)
    res = metropolis_posterior(
        inst, n_iter=30000, rng=RngStream(2000 + idx, VARIANTS.index(tag)),
        n_walkers=48, n_tune=8000,
    )
    tol = 3.0 * np.sqrt(g_mcse**2 + res.mu_mcse**2)
    gap = np.abs(g_mean - res.mu_mean)
    return tag, idx, float(np.max(gap / tol)), bool(np.all(gap < tol))


@pytest.mark.slow
def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    jobs = [(tag, idx) for tag in VARIANTS for idx in range(3)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_oracle_job, jobs))
    elapsed = time.time() - t0
    worst = {}
    all_ok = True
    for tag, idx, ratio, ok in results:
        all_ok &= ok
        worst[tag] = max(worst.get(tag, 0.0), ratio)
    detail = " ".join(f"{tag}:{worst[tag]:.2f}" for tag in VARIANTS)
    _report(
        "1 oracle-equivalence",
        all_ok and elapsed < 300.0,
        f"(max |gap|/3se per variant: {detail}; {elapsed:.0f}s)",
    )


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_decomposition_identity():
    spec = spec_table(1)[0]
    data = generate(spec, 0, RngStream(31, 0))
    model = variant("m11a")
    settings = SamplerSettings(
        seed=32, n_iter=3000, n_burnin=1000, n_chains=1,
        monitor=frozenset({"variances"}),
    )
    draws = run_chains(data.panel, model, settings)
    lam_ij = draws["lambda_ij"][0]
    lam_i = draws["lambda_i"][0]
    t1 = draws["tau1_sq"][0]
    t2 = draws["tau2_sq"][0]
    dec = decompose(data.panel, model, lam_ij, lam_i, t1, t2)
    worst = 0.0
    for k in range(lam_ij.shape[0]):
        direct = conditional_mean_direct(data.panel, model, lam_ij[k], lam_i[k], float(t1[k]), float(t2[k]))
        worst = max(worst, float(np.max(np.abs(dec.cond_mean[k] - direct))))
    _report(
        "2 shrinkage-identity",
        worst < 1e-10,
        f"(max |phi-decomposition - direct conjugacy| = {worst:.2e} over {lam_ij.shape[0]} draws x 62 areas)",
    )


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_convergence_protocol():
    t0 = time.time()
    spec = spec_table(1)[0]
    data = generate(spec, 0, RngStream(41, 0))
    settings = SamplerSettings(
        seed=42, n_iter=7000, n_burnin=2000, n_chains=5, monitor=frozenset({"mu"}),
    )
    mu = run_chains(data.panel, variant("m11a"), settings, overdispersion=0.1)["mu"]
    report = rhat_report(mu, "mu", threshold=1.05)
    elapsed = time.time() - t0
    _report(
        "3 split-rhat-protocol",
        report.passed and elapsed < 600.0,
        f"(worst split-R-hat {np.max(report.values):.4f} over 62 areas; {elapsed:.0f}s)",
    )


# -- criteria 4-6 ------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_case1_direction(tmp_path):
    t0 = time.time()
    res = run_simulation(
        SimConfig(
            case=1, seed=20260809, out_dir=str(tmp_path / "c1"),
            models=("m1a", "m12"), rows=(1, 4),
            n_replicates=30, n_iter=6000, n_burnin=1000,
        ),
        workers=WORKERS,
    )
    ratios = res["ratios"]["m1a"]
    r1 = ratios.ratio("arb", 1)
    r4 = ratios.ratio("arb", 4)
    elapsed = time.time() - t0
    _report(
        "4 case1-direction",
        r1 < 1.0 and r4 < 0.60 and elapsed < 1800.0,
        f"(ARB(m1a)/ARB(m12): row1 {r1:.3f} < 1.0, row4 {r4:.3f} < 0.60; {elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_5_horseshoe_vs_lasso(tmp_path):
    rows = (1, 2, 3, 4, 9, 10)
    res = run_simulation(
        SimConfig(
            case=1, seed=20260810, out_dir=str(tmp_path / "c1hl"),
            models=("m1a", "m1b"), baseline="m1a", rows=rows,
            n_replicates=30, n_iter=6000, n_burnin=1000,
        ),
        workers=WORKERS,
    )
    agg = res["aggregated"]
    wins = sum(1 for r in rows if agg["m1a"][r].arb <= agg["m1b"][r].arb)
    _report(
        "5 horseshoe-vs-lasso",
        wins >= 4,
        f"(median ARB: m1a <= m1b in {wins}/6 rows)",
    )


@pytest.mark.slow
def test_criterion_6_one_vs_two_sources(tmp_path):
    rows5 = (3, 9, 12, 18)
    res5 = run_simulation(
        SimConfig(
            case=5, seed=20260811, out_dir=str(tmp_path / "c5"),
            models=("m1a", "mbr"), baseline="m1a", rows=rows5,
            n_replicates=30, n_iter=6000, n_burnin=1000,
        ),
        workers=WORKERS,
    )
    r5 = {r: res5["ratios"]["mbr"].ratio("arb", r) for r in rows5}
    above = sum(1 for v in r5.values() if v > 1.0)

    res6 = run_simulation(
        SimConfig(
            case=6, seed=20260812, out_dir=str(tmp_path / "c6"),
            models=("m1a", "mbr"), baseline="m1a", rows=(5, 6),
            n_replicates=30, n_iter=6000, n_burnin=1000,
        ),
        workers=WORKERS,
    )
    r6 = {r: res6["ratios"]["mbr"].ratio("arb", r) for r in (5, 6)}
    ok = above >= 3 and all(v < 1.0 for v in r6.values())
    _report(
        "6 one-vs-two-sources",
        ok,
        f"(case5 ARB(mbr)/ARB(m1a) > 1 in {above}/4 rows {dict((k, round(v, 3)) for k, v in r5.items())}; "
        f"case6 rows 5,6 {dict((k, round(v, 3)) for k, v in r6.items())} < 1)",
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_sampler_units():
    n = 1_000_000
    ig = sample_inverse_gamma(InverseGammaParams(3.0, 2.0 * np.ones(n)), RngStream(71))
    ok_ig = abs(ig.mean() - 1.0) < 0.01

    gig = sample_gig(GigParams(-0.5, 1.0, np.ones(n)), RngStream(72))
    bessel = math.sqrt(1.0) * special.kv(0.5, 1.0) / special.kv(-0.5, 1.0)
    ok_gig = abs(gig.mean() - bessel) < 0.01 * bessel

    v, _ = sample_halfcauchy_sq(RngStream(73), size=n)
    ok_hc = abs(np.median(np.sqrt(v)) - 1.0) < 0.01

    ks_n = 100_000
    p_norm = stats.kstest(sample_normal(np.zeros(ks_n), 1.0, RngStream(74)), stats.norm.cdf).pvalue
    p_ig = stats.kstest(
        sample_inverse_gamma(InverseGammaParams(2.5, 1.5 * np.ones(ks_n)), RngStream(75)),
        stats.invgamma(2.5, scale=1.5).cdf,
    ).pvalue
    p_gig = stats.kstest(
        sample_gig(GigParams(-0.5, 1.2, 0.7 * np.ones(ks_n)), RngStream(76)),
        stats.geninvgauss(-0.5, math.sqrt(1.2 * 0.7), scale=math.sqrt(1.2 / 0.7)).cdf,
    ).pvalue
    v2, _ = sample_halfcauchy_sq(RngStream(77), size=ks_n)
    p_hc = stats.kstest(np.sqrt(v2), stats.halfcauchy.cdf).pvalue
    ok_ks = min(p_norm, p_ig, p_gig, p_hc) > 0.001

    _report(
        "7 sampler-units",
        ok_ig and ok_gig and ok_hc and ok_ks,
        f"(IG mean {ig.mean():.4f}, GIG mean {gig.mean():.4f} vs {bessel:.4f}, "
        f"half-Cauchy median {np.median(np.sqrt(v)):.4f}, min KS p {min(p_norm, p_ig, p_gig, p_hc):.4f})",
    )


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_metric_exactness():
    s = score([0.30], [0.25])
    exact = (
        abs(s.arb - 0.2) < 1e-15
        and abs(s.asrb - 0.04) < 1e-15
        and abs(s.aad - 0.05) < 1e-15
        and abs(s.asd - 0.0025) < 1e-15
    )

    table = {1: FitScore(0.2, 0.04, 0.05, 0.0025), 2: FitScore(0.31, 0.11, 0.02, 0.004)}
    same = discrepancy_ratio(table, table)
    identity = all(same.ratio(m, r) == 1.0 for m in ("arb", "asrb", "aad", "asd") for r in (1, 2))

    dominant = {r: 0.5 for r in range(1, 7)}
    weak = {r: 0.9 for r in range(1, 7)}
    counts = best_model_counts({"winner": dominant, "loser": weak})
    fixture = counts.counts == {"winner": 6, "loser": 0} and counts.ties == ()

    _report(
        "8 metric-exactness",
        exact and identity and fixture,
        "(hand example exact; ratio(x,x)=1; dominance fixture exact)",
    )


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    import hashlib

    def digest_tree(root):
        out = {}
        for p in sorted(root.rglob("*")):
            if p.is_file() and "cache" not in p.parts:
                out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
        return out

    def run(out, workers):
        run_simulation(
            SimConfig(
                case=1, seed=91, out_dir=str(out), models=("m1a", "m12"),
                rows=(1,), n_replicates=2, n_iter=300, n_burnin=100,
            ),
            workers=workers,
        )
        return digest_tree(out)

    d1 = run(tmp_path / "w1", 1)
    d2 = run(tmp_path / "w1b", 1)
    d3 = run(tmp_path / "w2", 2)
    _report(
        "9 determinism",
        d1 == d2 == d3,
        f"({len(d1)} output files byte-identical across reruns and worker counts)",
    )

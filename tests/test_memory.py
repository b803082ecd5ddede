"""Memory bounds of a fit: one model's draws plus one working buffer.

``run_chains`` allocates one (chain, kept, ...) array per monitored
quantity and each chain records straight into its rows. ``run_fit`` then
forms phi from the variance draws with ``phi_draws``, in one reused
buffer, and releases each model's draws before the next model samples.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import glsae.runner as runner
from glsae.gibbs import run_chains
from glsae.io import save_panel
from glsae.model import SamplerSettings, SourcePanel, VARIANT_TAGS, variant
from glsae.runner import FitConfig, run_fit
from glsae.summary import phi_draws

# run_fit's monitored set
_FIT_MONITOR = frozenset({"mu", "eta", "variances"})


def _panel(n_areas: int = 62) -> SourcePanel:
    gen = np.random.default_rng(8)
    return SourcePanel(
        areas=tuple(f"a{i:02d}" for i in range(n_areas)),
        sources=("brfss", "sahie"),
        y=0.25 + 0.03 * gen.standard_normal((n_areas, 2)),
        v=np.column_stack([np.full(n_areas, 0.02**2), np.full(n_areas, 0.008**2)]),
    )


@pytest.mark.parametrize("tag", VARIANT_TAGS)
def test_run_chains_peak_is_bounded_by_its_store(tag):
    """A fit's sampling and its phi, called as ``run_fit`` calls them, peak near the draws they keep."""
    model = variant(tag)
    panel = _panel()
    if not model.has_theta_level:
        panel = panel.select_source(0)
    settings = SamplerSettings(seed=9, n_iter=150, n_burnin=50, n_chains=5, monitor=_FIT_MONITOR)
    tracemalloc.start()
    try:
        draws = run_chains(panel, model, settings)
        draws["phi"] = phi_draws(
            panel, model, draws.get("lambda_ij"), draws["lambda_i"], draws.get("tau1_sq"), draws["tau2_sq"]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(arr.nbytes for arr in draws.values())
    assert peak <= 2.5 * nbytes, f"traced peak {peak / nbytes:.2f} x the draws' {nbytes} bytes"


def test_one_chain_records_into_its_store_without_a_copy():
    """A replicate fit (one chain, mu only) holds its store and no per-chain buffer."""
    panel = _panel()
    settings = SamplerSettings(seed=9, n_iter=900, n_burnin=200, monitor=frozenset({"mu"}))
    tracemalloc.start()
    try:
        mu = run_chains(panel, variant("m1a"), settings)["mu"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = mu.nbytes
    assert peak <= 1.25 * nbytes, f"traced peak {peak / nbytes:.2f} x the draws' {nbytes} bytes"


def test_run_fit_releases_each_model_before_the_next(tmp_path, monkeypatch):
    """No draw, phi or kappa array of an earlier model is alive when a model samples."""
    panel_path = tmp_path / "panel.csv"
    save_panel(_panel(8), panel_path)
    earlier: list[weakref.ref] = []
    alive_at_start: list[int] = []
    real_phi, real_kappa = runner.phi_draws, runner.kappa_weights

    def tracked_run_chains(*args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in earlier))
        draws = run_chains(*args, **kwargs)
        earlier.extend(weakref.ref(arr) for arr in draws.values())
        return draws

    def tracked(real):
        def call(*args):
            arr = real(*args)
            earlier.append(weakref.ref(arr))
            return arr
        return call

    monkeypatch.setattr(runner, "run_chains", tracked_run_chains)
    monkeypatch.setattr(runner, "phi_draws", tracked(real_phi))
    monkeypatch.setattr(runner, "kappa_weights", tracked(real_kappa))
    run_fit(FitConfig(
        panel_path=str(panel_path), models=("m1a", "m12"), seed=3, out_dir=str(tmp_path / "fit"),
        n_chains=2, n_iter=40, n_burnin=10,
    ))
    assert alive_at_start == [0, 0]

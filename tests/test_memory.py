"""Memory bounds of a fit: one model's draw store plus one working buffer.

``run_chains`` allocates one (chain, kept, ...) array per recorded
quantity, each chain records straight into its rows, phi is formed in one
reused buffer, and ``run_fit`` releases each model's draws before the next
model samples.
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

# run_fit's monitored set
_FIT_MONITOR = frozenset({"mu", "eta", "variances", "phi"})


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
    model = variant(tag)
    panel = _panel()
    if not model.has_theta_level:
        panel = panel.select_source(0)
    settings = SamplerSettings(seed=9, n_iter=150, n_burnin=50, n_chains=5, monitor=_FIT_MONITOR)
    tracemalloc.start()
    try:
        store = run_chains(panel, model, settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(arr.nbytes for arr in store.draws.values())
    assert peak <= 2.5 * nbytes, f"traced peak {peak / nbytes:.2f} x the store's {nbytes} bytes"


def test_one_chain_records_into_its_store_without_a_copy():
    """A replicate fit (one chain, mu only) holds its store and no per-chain buffer."""
    panel = _panel()
    settings = SamplerSettings(seed=9, n_iter=900, n_burnin=200, monitor=frozenset({"mu"}))
    tracemalloc.start()
    try:
        store = run_chains(panel, variant("m1a"), settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = store.draws["mu"].nbytes
    assert peak <= 1.25 * nbytes, f"traced peak {peak / nbytes:.2f} x the store's {nbytes} bytes"


def test_run_fit_releases_each_model_before_the_next(tmp_path, monkeypatch):
    """No store or kappa array of an earlier model is alive when a model samples."""
    panel_path = tmp_path / "panel.csv"
    save_panel(_panel(8), panel_path)
    earlier: list[weakref.ref] = []
    alive_at_start: list[int] = []
    real_kappa = runner.kappa_weights

    def tracked_run_chains(*args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in earlier))
        store = run_chains(*args, **kwargs)
        earlier.append(weakref.ref(store))
        earlier.extend(weakref.ref(arr) for arr in store.draws.values())
        return store

    def tracked_kappa(*args):
        kap = real_kappa(*args)
        earlier.append(weakref.ref(kap))
        return kap

    monkeypatch.setattr(runner, "run_chains", tracked_run_chains)
    monkeypatch.setattr(runner, "kappa_weights", tracked_kappa)
    run_fit(FitConfig(
        panel_path=str(panel_path), models=("m1a", "m12"), seed=3, out_dir=str(tmp_path / "fit"),
        n_chains=2, n_iter=40, n_burnin=10,
    ))
    assert alive_at_start == [0, 0]

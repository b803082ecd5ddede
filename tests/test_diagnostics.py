import numpy as np
import pytest

from glsae.diagnostics import rhat_report, split_rhat
from glsae.gibbs import run_chains
from glsae.model import SamplerSettings, variant


def test_null_rhat_near_one():
    gen = np.random.default_rng(0)
    chains = gen.standard_normal((2, 2000))  # 4 half-chains of length 1000
    assert 0.99 <= split_rhat(chains) <= 1.01


def test_constant_chains_conventions():
    assert split_rhat(np.full((3, 100), 0.25)) == 1.0
    two = np.vstack([np.zeros(100), np.ones(100)])
    assert split_rhat(two) == np.inf


def test_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        split_rhat(np.zeros((1, 100)))
    with pytest.raises(ValueError):
        split_rhat(np.zeros((2, 3)))


def test_odd_length_truncates():
    gen = np.random.default_rng(1)
    chains = gen.standard_normal((2, 1001))
    assert np.isfinite(split_rhat(chains))


def test_invariances():
    gen = np.random.default_rng(2)
    chains = gen.standard_normal((4, 500)) + 0.3
    base = split_rhat(chains)
    assert split_rhat(chains[::-1]) == pytest.approx(base, rel=1e-12)  # chain order
    assert split_rhat(chains + 7.5) == pytest.approx(base, rel=1e-10)  # shift
    assert split_rhat(chains * -3.0) == pytest.approx(base, rel=1e-10)  # scale


def test_monotone_in_mean_offset():
    gen = np.random.default_rng(3)
    base = gen.standard_normal((4, 500))
    values = []
    for offset in (0.0, 0.1, 1.0, 10.0):
        shifted = base + offset * np.arange(4)[:, None]
        values.append(split_rhat(shifted))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_rhat_report_from_store(small_panel):
    settings = SamplerSettings(seed=3, n_iter=3000, n_burnin=1000, n_chains=3, monitor=frozenset({"mu"}))
    store = run_chains(small_panel, variant("m12"), settings)
    report = rhat_report(store.draws["mu"], "mu")
    assert len(report.names) == small_panel.n_areas
    assert report.passed  # short well-behaved run still mixes on mu
    rows = list(report.rows())
    assert rows[0][0] == "mu[0]" and isinstance(rows[0][2], bool)

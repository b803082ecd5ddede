import math

import numpy as np
import pytest
from scipy import stats

from conftest import random_positive_state
from glsae.gibbs import sweep
from glsae.distributions import sample_inverse_gamma
from glsae.model import SourcePanel, init_state, variant
from glsae.rng import RngStream
from oracle import (
    CoordLayout,
    TinyInstance,
    log_joint,
    make_instance,
    metropolis_posterior,
    tiny_battery,
)
from reference import xi_conditional


def test_battery_shapes():
    panels = tiny_battery()
    assert [p.n_areas for p in panels] == [2, 3, 4]
    assert all(p.n_sources == 2 for p in panels)


def test_tiny_instance_rejects_large_panels():
    big = SourcePanel(
        [f"a{i}" for i in range(6)], ["s"],
        0.25 * np.ones((6, 1)), 0.01 * np.ones((6, 1)),
    )
    with pytest.raises(ValueError):
        TinyInstance(panel=big, variant=variant("m12"))


def test_log_joint_doubling_v_shifts_likelihood_term(small_panel):
    model = variant("m11a")
    gen = np.random.default_rng(3)
    state = random_positive_state(small_panel, model, gen)
    base = log_joint(state, small_panel, model)

    v2 = np.array(small_panel.v)
    v2[0, 0] *= 2.0
    panel2 = SourcePanel(small_panel.areas, small_panel.sources, small_panel.y, v2)
    resid = state.theta[0, 0] - small_panel.y[0, 0]
    v = small_panel.v[0, 0]
    expected_delta = -0.5 * math.log(2.0) - resid**2 * (1.0 / (2 * 2 * v) - 1.0 / (2 * v))
    assert log_joint(state, panel2, model) - base == pytest.approx(expected_delta, rel=1e-12)


def test_log_joint_m12_is_pinned_m11a_minus_priors(small_panel):
    gen = np.random.default_rng(4)
    m12 = variant("m12")
    state = random_positive_state(small_panel, m12, gen)
    lp_m12 = log_joint(state, small_panel, m12)
    lp_m11a = log_joint(state, small_panel, variant("m11a"))
    I, J = small_panel.n_areas, small_panel.n_sources
    # at lambda = 1 the horseshoe kernel is -log(2), normalized by 1/pi
    prior_terms = (I * J + I) * (-math.log(2.0) - math.log(math.pi))
    assert lp_m12 == pytest.approx(lp_m11a - prior_terms, rel=1e-12)


def test_log_joint_out_of_support(small_panel):
    model = variant("m11a")
    gen = np.random.default_rng(5)
    state = random_positive_state(small_panel, model, gen)
    state.tau1_sq = -0.5
    assert log_joint(state, small_panel, model) == -math.inf


def test_log_joint_golden_value():
    """Regression lock: value recomputed longhand from the model layers."""
    panel = tiny_battery()[0]
    model = variant("m11a")
    state = init_state(panel, model, 0.0, RngStream(0))
    state.theta = np.array([[0.23, 0.25], [0.30, 0.26]])
    state.mu = np.array([0.24, 0.28])
    state.eta = 0.26
    state.lambda_ij = np.array([[1.1, 0.7], [0.9, 1.3]])
    state.lambda_i = np.array([0.8, 1.2])
    state.tau1_sq = 0.004
    state.tau2_sq = 0.002

    got = log_joint(state, panel, model)

    # independent longhand computation via scipy distributions
    a = state.lambda_ij * state.lambda_i[:, None] * state.tau1_sq
    b = state.lambda_i * state.tau2_sq
    ref = stats.norm.logpdf(panel.y, state.theta, np.sqrt(panel.v)).sum()
    ref += stats.norm.logpdf(state.theta, state.mu[:, None], np.sqrt(a)).sum()
    ref += stats.norm.logpdf(state.mu, state.eta, np.sqrt(b)).sum()

    def hs(u):
        return -0.5 * np.log(u) - np.log1p(u) - math.log(math.pi)

    ref += hs(state.lambda_ij).sum() + hs(state.lambda_i).sum()
    ref += hs(np.array([state.tau1_sq])).sum() + hs(np.array([state.tau2_sq])).sum()

    assert got == pytest.approx(float(ref), rel=1e-13)
    assert got == pytest.approx(11.754679396183965, rel=1e-12)


def test_layout_roundtrip():
    panel = tiny_battery()[1]
    for tag in ("m11a", "m1b", "m12", "one_source"):
        model = variant(tag)
        p = panel if model.has_theta_level else panel.select_source(0)
        layout = CoordLayout.build(model, p.n_areas, p.n_sources)
        z = np.linspace(-1.0, 1.0, layout.dim)
        state = layout.to_state(z)
        assert state.mu.shape == (p.n_areas,)
        assert len(layout.names) == layout.dim
        # the walker's state has the same layout as a chain's
        start = init_state(p, model, 0.0, RngStream(0))
        for name, val in vars(start).items():
            got = getattr(state, name)
            assert (got is None) == (val is None) and np.shape(got) == np.shape(val), name


def test_metropolis_self_consistency_and_label_symmetry():
    panel = tiny_battery()[0]
    inst = make_instance(panel, "m12")
    r1 = metropolis_posterior(inst, n_iter=8000, rng=RngStream(21, 0), n_walkers=24, n_tune=2500)
    r2 = metropolis_posterior(inst, n_iter=8000, rng=RngStream(22, 0), n_walkers=24, n_tune=2500)
    tol = 3.0 * np.sqrt(r1.mu_mcse**2 + r2.mu_mcse**2)
    assert np.all(np.abs(r1.mu_mean - r2.mu_mean) < tol)

    # swapping area labels swaps the posterior summaries
    swapped = SourcePanel(
        (panel.areas[1], panel.areas[0]), panel.sources,
        panel.y[::-1].copy(), panel.v[::-1].copy(),
    )
    r3 = metropolis_posterior(make_instance(swapped, "m12"), n_iter=8000, rng=RngStream(21, 0), n_walkers=24, n_tune=2500)
    tol = 3.0 * np.sqrt(r1.mu_mcse**2 + r3.mu_mcse[::-1] ** 2)
    assert np.all(np.abs(r1.mu_mean - r3.mu_mean[::-1]) < tol)


def test_metropolis_reports_acceptance_window():
    inst = make_instance(tiny_battery()[0], "m11a")
    res = metropolis_posterior(inst, n_iter=4000, rng=RngStream(23, 0), n_walkers=16, n_tune=1500)
    assert 0.1 <= res.acceptance <= 0.5


def test_metropolis_flat_posterior_pools_to_grand_mean():
    # huge v: data dominated by the prior level, mu_i concentrate near eta's pool
    panel = SourcePanel(["a", "b"], ["s"], [[0.2], [0.3]], [[25.0], [25.0]])
    inst = TinyInstance(panel=panel, variant=variant("m12"))
    res = metropolis_posterior(inst, n_iter=10000, rng=RngStream(24, 0), n_walkers=24, n_tune=3000)
    spread = abs(res.mu_mean[0] - res.mu_mean[1])
    assert spread < 0.05  # strong pooling toward the common level


def test_successive_conditional_sweep_preserves_posterior():
    """One Gibbs sweep from exact posterior draws must not shift the moments."""
    panel = tiny_battery()[0]
    for tag in ("m11a", "m1b"):
        model = variant(tag)
        inst = make_instance(panel, tag)
        res = metropolis_posterior(inst, n_iter=24000, rng=RngStream(25, 0), n_walkers=32, n_tune=6000)

        layout = res.layout
        W, K, D = res.draws.shape
        sl = layout.slices()
        rng = RngStream(26, 0)

        # per walker: sweep every 8th kept state once, average mu
        per_walker_before = np.empty((W, panel.n_areas))
        per_walker_after = np.empty((W, panel.n_areas))
        for w in range(W):
            mus_b, mus_a = [], []
            for k in range(0, K, 8):
                state = layout.to_state(res.draws[w, k])
                if model.local_prior == "horseshoe":
                    # exact augmentation: xi | lambda is the known conditional
                    if model.has_local_ij:
                        state.xi_ij = sample_inverse_gamma(xi_conditional(state.lambda_ij), rng)
                    state.xi_i = sample_inverse_gamma(xi_conditional(state.lambda_i), rng)
                if model.has_theta_level:
                    state.xi_tau1 = sample_inverse_gamma(xi_conditional(state.tau1_sq), rng)
                state.xi_tau2 = sample_inverse_gamma(xi_conditional(state.tau2_sq), rng)
                mus_b.append(state.mu.copy())
                sweep(state, inst.panel, model, rng)
                mus_a.append(state.mu.copy())
            per_walker_before[w] = np.mean(mus_b, axis=0)
            per_walker_after[w] = np.mean(mus_a, axis=0)

        diff = per_walker_after.mean(axis=0) - per_walker_before.mean(axis=0)
        se = np.sqrt(
            per_walker_before.var(axis=0, ddof=1) / W + per_walker_after.var(axis=0, ddof=1) / W
        )
        assert np.all(np.abs(diff) < 4.0 * se), f"{tag}: sweep moved mu means by {diff} (se {se})"

import copy

import numpy as np
import pytest

from conftest import random_positive_state
from glsae.distributions import logpdf, GigParams, InverseGammaParams
from glsae.gibbs import (
    SamplerDivergence,
    _residuals,
    eta_collapsed_conditional,
    lambda_i_conditional,
    lambda_ij_conditional,
    mu_collapsed_conditional,
    run_chains,
    sweep,
    tau1_conditional,
    tau2_conditional,
    theta_conditional,
    update_gaussian_block,
    update_global_variances,
    xi_conditional,
)
from glsae.model import SamplerSettings, SourcePanel, init_state, variant
from glsae.oracle import log_joint
from glsae.rng import RngStream
from glsae.summary import source_variance


# the kernel checks run on the 3 x 2 fixture, then with these sources
# appended up to J = 3 and J = 4
_EXTRA_Y = np.array([[0.23, 0.28], [0.26, 0.21], [0.29, 0.24]])
_EXTRA_V = np.array([[0.0060, 0.0015], [0.0025, 0.0070], [0.0035, 0.0045]])
WIDTHS = (2, 3, 4)
TAGS = ("m11a", "m11b", "m1a", "m1b", "m12", "one_source")


def _widen(panel, J):
    """``panel`` (the 3 x 2 fixture) itself at J = 2, else with sources appended up to J."""
    extra = J - panel.n_sources
    if extra == 0:
        return panel
    sources = panel.sources + tuple(f"src{j}" for j in range(panel.n_sources + 1, J + 1))
    return SourcePanel(panel.areas, sources, np.hstack([panel.y, _EXTRA_Y[:, :extra]]),
                       np.hstack([panel.v, _EXTRA_V[:, :extra]]))


def _at_widths(cases, ids):
    """Each case at every J in WIDTHS; J = 2 keeps the case's own id, others add ``-J<J>``.

    ``one_source`` fits one column whatever J, so it runs at J = 2 only.
    """
    return [
        pytest.param(case, J, id=case_id if J == 2 else f"{case_id}-J{J}")
        for J in WIDTHS for case, case_id in zip(cases, ids)
        if J == 2 or case != "one_source"
    ]


def _state_with(panel, model, **overrides):
    state = init_state(panel, model, 0.0, RngStream(0))
    for key, val in overrides.items():
        setattr(state, key, val)
    return state


# ---------------------------------------------------------------------------
# worked examples for each conditional


def test_theta_conditional_worked_example():
    # y=0.3, v=0.01, mu=0.25, a=0.04 -> mean (30+6.25)/(100+25)=0.29, var 0.008
    panel = SourcePanel(["a", "b"], ["s"], [[0.3], [0.3]], [[0.01], [0.01]])
    model = variant("m12")
    state = _state_with(panel, model, mu=np.array([0.25, 0.25]), tau1_sq=0.04)
    mean, var = theta_conditional(state, panel, model)
    assert mean[0, 0] == pytest.approx(0.29)
    assert var[0, 0] == pytest.approx(0.008)


def test_theta_conditional_limits():
    panel = SourcePanel(["a", "b"], ["s"], [[0.3], [0.3]], [[1e-14], [0.02]])
    model = variant("m12")
    state = _state_with(panel, model, mu=np.array([0.1, 0.1]), tau1_sq=0.02)
    mean, var = theta_conditional(state, panel, model)
    assert mean[0, 0] == pytest.approx(0.3, abs=1e-9)  # v -> 0 pins theta at y
    # a == v: equal precision average, var v/2
    assert mean[1, 0] == pytest.approx((0.3 + 0.1) / 2)
    assert var[1, 0] == pytest.approx(0.01)


def test_mu_conditional_worked_example():
    # J=2, y_i=(0.2,0.3), v=a=0.01 -> s2=0.02, h2=0.01, ybar=0.25; A=0.03, eta=0.45
    # -> precision 100 + 100/3, mean (25 + 15)/(400/3) = 0.3, var 0.0075
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.3], [0.2, 0.3]], [[0.01, 0.01], [0.01, 0.01]])
    model = variant("m12")
    state = _state_with(panel, model, eta=0.45, tau1_sq=0.01, tau2_sq=0.03)
    mean, var = mu_collapsed_conditional(state, panel, model)
    assert mean == pytest.approx([0.3, 0.3])
    assert var == pytest.approx([0.0075, 0.0075])


def test_mu_conditional_no_pooling_limit():
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.3], [0.2, 0.3]], [[0.01, 0.01], [0.01, 0.01]])
    model = variant("m12")
    state = _state_with(panel, model, eta=0.9, tau1_sq=0.01, tau2_sq=1e12)
    mean, _ = mu_collapsed_conditional(state, panel, model)
    assert mean[0] == pytest.approx(0.25, abs=1e-8)  # A -> inf: mean -> ybar


def test_mu_conditional_one_source():
    panel = SourcePanel(["a", "b"], ["s"], [[0.2], [0.3]], [[0.01], [0.01]])
    model = variant("one_source")
    state = _state_with(panel, model, eta=0.25, tau2_sq=0.01)
    mean, var = mu_collapsed_conditional(state, panel, model)
    # one source: h2 = v = 0.01 and ybar = y; A = 0.01: equal weights
    assert mean[0] == pytest.approx((0.2 + 0.25) / 2)
    assert var[0] == pytest.approx(1.0 / 200.0)


def test_eta_conditional_worked_examples():
    panel = SourcePanel(["a", "b"], ["s"], [[0.2], [0.3]], [[0.01], [0.01]])
    model = variant("one_source")
    # h2 = v = 0.01, A = 0.01 -> weights 1/(A+h2) = (50, 50): mean 0.25, var 0.01
    state = _state_with(panel, model, tau2_sq=0.01)
    mean, var = eta_collapsed_conditional(state, panel, model)
    assert mean == pytest.approx(0.25) and var == pytest.approx(0.01)
    # A = (0.01, 0.03) -> weights (50, 25): mean (10 + 7.5)/75, var 1/75
    state.lambda_i = np.array([1.0, 3.0])
    mean, var = eta_collapsed_conditional(state, panel, model)
    assert mean == pytest.approx(17.5 / 75.0) and var == pytest.approx(1.0 / 75.0)
    # two sources, th integrated: s2 = v + tau1 = 0.02, h2 = 0.01, ybar = (0.25, 0.3);
    # A = 0.01 -> equal weights 50: mean 0.275, var 0.01; the mu values play no part
    panel2 = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.3], [0.1, 0.5]], [[0.01, 0.01], [0.01, 0.01]])
    model2 = variant("m12")
    state2 = _state_with(panel2, model2, mu=np.array([5.0, -5.0]), tau1_sq=0.01, tau2_sq=0.01)
    mean, var = eta_collapsed_conditional(state2, panel2, model2)
    assert mean == pytest.approx(0.275) and var == pytest.approx(0.01)


def test_lambda_i_horseshoe_worked_example():
    # J=2 product form, residuals 0.1, lam_ij=1, tau1=0.01, mu=eta, tau2=1, xi=1
    # -> shape (J+4)/2-1 = 2, rate 0.5+0.5+0+1 = 2
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.2], [0.2, 0.2]], [[0.01, 0.01], [0.01, 0.01]])
    model = variant("m11a")
    state = _state_with(
        panel, model,
        theta=np.full((2, 2), 0.35), mu=np.array([0.25, 0.25]), eta=0.25,
        tau1_sq=0.01, tau2_sq=1.0,
    )
    cond = lambda_i_conditional(state, panel, model)
    assert cond.shape == pytest.approx(2.0)
    assert cond.rate[0] == pytest.approx(2.0)


def test_lambda_ij_horseshoe_zero_residual():
    panel = SourcePanel(["a", "b"], ["s"], [[0.2], [0.2]], [[0.01], [0.01]])
    model = variant("m11a")
    state = _state_with(panel, model, theta=np.full((2, 1), 0.25), mu=np.array([0.25, 0.25]))
    state.xi_ij = np.full((2, 1), 2.0)
    cond = lambda_ij_conditional(state, panel, model)
    assert cond.shape == 1.0
    assert np.allclose(cond.rate, 0.5)  # 1/xi only


def test_m1a_lambda_i_conditional_drops_theta_term():
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.2], [0.2, 0.2]], [[0.01, 0.01], [0.01, 0.01]])
    model = variant("m1a")
    state = _state_with(
        panel, model,
        theta=np.full((2, 2), 0.9), mu=np.array([0.35, 0.35]), eta=0.25, tau2_sq=0.02,
    )
    cond = lambda_i_conditional(state, panel, model)
    assert cond.shape == pytest.approx(1.0)
    assert cond.rate[0] == pytest.approx(0.1**2 / (2 * 0.02) + 1.0)


def test_lambda_lasso_worked_examples():
    # residual 0.2, lam_i=1, tau1=0.04 -> lam_ij ~ GIG(1/2, 1.0, 2)
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.2], [0.2, 0.2]], [[0.01, 0.01], [0.01, 0.01]])
    model = variant("m11b")
    state = _state_with(
        panel, model,
        theta=np.full((2, 2), 0.45), mu=np.array([0.25, 0.25]), eta=0.25, tau1_sq=0.04,
    )
    cond = lambda_ij_conditional(state, panel, model)
    assert cond.order == 0.5 and cond.psi == 2.0
    assert np.allclose(cond.chi, 1.0)
    cond_i = lambda_i_conditional(state, panel, model)
    assert cond_i.order == pytest.approx(-0.5)  # (1-J)/2 at J=2


def test_lambda_lasso_zero_residual_clamps_chi():
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.2], [0.2, 0.2]], [[0.01, 0.01], [0.01, 0.01]])
    model = variant("m11b")
    state = _state_with(
        panel, model,
        theta=np.full((2, 2), 0.25), mu=np.array([0.25, 0.25]), eta=0.25,
    )
    cond = lambda_i_conditional(state, panel, model)
    assert np.all(cond.chi == 1e-30)
    GigParams(cond.order, cond.chi, cond.psi).validate()  # valid regime after clamp


def test_m1b_lambda_i_is_positive_half_order():
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.2], [0.2, 0.2]], [[0.01, 0.01], [0.01, 0.01]])
    model = variant("m1b")
    state = _state_with(panel, model, mu=np.array([0.35, 0.25]), eta=0.25, tau2_sq=0.01)
    cond = lambda_i_conditional(state, panel, model)
    assert cond.order == pytest.approx(0.5)
    assert cond.chi[0] == pytest.approx(0.1**2 / 0.01)


def test_tau_conditionals_worked_examples():
    # I=62, J=2 -> tau1 shape 127/2 - 1 = 62.5
    rng = np.random.default_rng(0)
    y = 0.25 + 0.01 * rng.standard_normal((62, 2))
    panel = SourcePanel([f"c{i}" for i in range(62)], ["s1", "s2"], y, np.full((62, 2), 1e-3))
    model = variant("m11a")
    state = init_state(panel, model, 0.0, RngStream(1))
    cond = tau1_conditional(state, panel, model)
    assert cond.shape == pytest.approx(62.5)

    # I=2, J=2, residuals 0.1, lambda products 1, xi=1 -> rate 4*0.01/2 + 1 = 1.02
    panel2 = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.2], [0.2, 0.2]], [[0.01, 0.01], [0.01, 0.01]])
    state2 = _state_with(
        panel2, model,
        theta=np.full((2, 2), 0.35), mu=np.array([0.25, 0.25]),
    )
    cond2 = tau1_conditional(state2, panel2, model)
    assert cond2.rate == pytest.approx(1.02)

    # zero residuals at the area level: tau2 ~ IG((I+3)/2 - 1, 1)
    state2.mu = np.array([0.25, 0.25])
    state2.eta = 0.25
    cond3 = tau2_conditional(state2, panel2, model)
    assert cond3.shape == pytest.approx((2 + 3) / 2 - 1)
    assert cond3.rate == pytest.approx(1.0)


def test_one_source_tau2_shape():
    panel = SourcePanel(["a", "b", "c"], ["s"], [[0.2], [0.3], [0.25]], [[0.01], [0.01], [0.01]])
    model = variant("one_source")
    state = init_state(panel, model, 0.0, RngStream(1))
    cond = tau2_conditional(state, panel, model)
    assert cond.shape == pytest.approx((3 + 3) / 2 - 1)


@pytest.mark.parametrize("pair, J", _at_widths([("m11a", "m11b"), ("m1a", "m1b")], ["pair0", "pair1"]))
def test_horseshoe_and_lasso_share_quadratic_forms(small_panel, pair, J):
    """On one state, the IG rate is the GIG chi/2 + 1/xi and the shape is n/2 + 1/2 = 3/2 - order."""
    hs, la = (variant(t) for t in pair)
    panel = _widen(small_panel, J)
    state = random_positive_state(panel, hs, np.random.default_rng(42))
    n_i = J + 1 if hs.theta_variance_form == "product" else 1
    for cond_fn, n, xi in ((lambda_ij_conditional, 1, state.xi_ij), (lambda_i_conditional, n_i, state.xi_i)):
        ig = cond_fn(state, panel, hs)
        gig = cond_fn(state, panel, la)
        assert gig.order == 1.0 - n / 2.0 and gig.psi == 2.0
        assert ig.shape == n / 2.0 + 0.5 == 1.5 - gig.order
        assert np.array_equal(ig.rate, gig.chi / 2.0 + 1.0 / xi)


# ---------------------------------------------------------------------------
# kernel vs joint agreement: each conditional matches the log joint as a
# function of its coordinate, up to an additive constant


GRID = np.array([0.5, 0.8, 1.0, 1.25, 2.0, 4.0])


def _assert_slice_matches(make_state, set_coord, kernel_logpdf, panel, model, base_value, include_aux):
    diffs = []
    for g in GRID:
        x = base_value * g
        state = make_state()
        set_coord(state, x)
        joint = log_joint(state, panel, model, include_aux=include_aux)
        diffs.append(joint - kernel_logpdf(x))
    diffs = np.array(diffs)
    spread = np.max(np.abs(diffs - diffs.mean()))
    scale = max(1.0, np.max(np.abs(diffs)))
    assert spread / scale < 1e-8, f"kernel mismatch: diffs {diffs}"


@pytest.mark.parametrize("tag, J", _at_widths(TAGS, TAGS))
def test_conditionals_match_log_joint(small_panel, tag, J):
    model = variant(tag)
    panel = _widen(small_panel, J) if model.has_theta_level else small_panel.select_source(0)
    gen = np.random.default_rng(777)
    for trial in range(20):
        base = random_positive_state(panel, model, gen)
        fresh = lambda: copy.deepcopy(base)  # noqa: E731

        if model.has_theta_level:
            mean, var = theta_conditional(base, panel, model)
            _assert_slice_matches(
                fresh, lambda s, x: s.theta.__setitem__((0, 0), x),
                lambda x: logpdf("normal", (mean[0, 0], var[0, 0]), x),
                panel, model, base.theta[0, 0] + 0.3, include_aux=False,
            )

        else:
            # without a th level the collapsed mu conditional is the full one;
            # the collapsed eta and mu draws are checked against the joint
            # Gaussian in test_collapsed_conditionals_match_joint_gaussian
            mean, var = mu_collapsed_conditional(base, panel, model)
            _assert_slice_matches(
                fresh, lambda s, x: s.mu.__setitem__(1, x),
                lambda x: logpdf("normal", (mean[1], var[1]), x),
                panel, model, base.mu[1] + 0.2, include_aux=False,
            )

        if model.local_prior == "horseshoe":
            if model.has_local_ij:
                cond = lambda_ij_conditional(base, panel, model)
                _assert_slice_matches(
                    fresh, lambda s, x: s.lambda_ij.__setitem__((0, 1), x),
                    lambda x: logpdf("inverse_gamma", InverseGammaParams(cond.shape, cond.rate[0, 1]), x),
                    panel, model, base.lambda_ij[0, 1], include_aux=True,
                )
                xc = xi_conditional(base.lambda_ij)
                _assert_slice_matches(
                    fresh, lambda s, x: s.xi_ij.__setitem__((1, 0), x),
                    lambda x: logpdf("inverse_gamma", InverseGammaParams(1.0, xc.rate[1, 0]), x),
                    panel, model, base.xi_ij[1, 0], include_aux=True,
                )
            cond = lambda_i_conditional(base, panel, model)
            _assert_slice_matches(
                fresh, lambda s, x: s.lambda_i.__setitem__(0, x),
                lambda x: logpdf("inverse_gamma", InverseGammaParams(cond.shape, cond.rate[0]), x),
                panel, model, base.lambda_i[0], include_aux=True,
            )
        elif model.local_prior == "lasso":
            cond = lambda_ij_conditional(base, panel, model)
            _assert_slice_matches(
                fresh, lambda s, x: s.lambda_ij.__setitem__((0, 1), x),
                lambda x: logpdf("gig", GigParams(cond.order, cond.chi[0, 1], cond.psi), x),
                panel, model, base.lambda_ij[0, 1], include_aux=False,
            )
            cond = lambda_i_conditional(base, panel, model)
            _assert_slice_matches(
                fresh, lambda s, x: s.lambda_i.__setitem__(2, x),
                lambda x: logpdf("gig", GigParams(cond.order, cond.chi[2], cond.psi), x),
                panel, model, base.lambda_i[2], include_aux=False,
            )

        if model.has_theta_level:
            cond = tau1_conditional(base, panel, model)
            _assert_slice_matches(
                fresh, lambda s, x: setattr(s, "tau1_sq", x),
                lambda x: logpdf("inverse_gamma", InverseGammaParams(cond.shape, cond.rate), x),
                panel, model, base.tau1_sq, include_aux=True,
            )
        cond = tau2_conditional(base, panel, model)
        _assert_slice_matches(
            fresh, lambda s, x: setattr(s, "tau2_sq", x),
            lambda x: logpdf("inverse_gamma", InverseGammaParams(cond.shape, cond.rate), x),
            panel, model, base.tau2_sq, include_aux=True,
        )


# ---------------------------------------------------------------------------
# chain driver behavior


def test_run_chain_bookkeeping(small_panel):
    settings = SamplerSettings(seed=5, n_iter=10, n_burnin=5, n_chains=1, monitor=frozenset({"mu"}))
    draws = run_chains(small_panel, variant("m11a"), settings, stream_base=0)
    assert draws.keys() == {"mu"}
    assert draws["mu"].shape == (1, 5, 3)


def test_run_chain_deterministic(small_panel):
    settings = SamplerSettings(seed=5, n_iter=50, n_burnin=10, monitor=frozenset({"mu", "variances"}))
    a = run_chains(small_panel, variant("m11b"), settings, stream_base=3)
    b = run_chains(small_panel, variant("m11b"), settings, stream_base=3)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].shape[:2] == (1, 40)
        assert np.array_equal(a[key], b[key])


def test_thinned_store_is_every_thin_th_sweep(small_panel):
    """thin = 3 keeps sweeps n_burnin, n_burnin + 3, ...; the last kept sweep is not the last sweep."""
    model = variant("m11b")
    thinned = SamplerSettings(seed=9, n_iter=80, n_burnin=20, n_chains=2, thin=3,
                              monitor=frozenset({"mu", "theta", "eta", "variances"}))
    full = SamplerSettings(seed=9, n_iter=80, n_burnin=20, n_chains=2, thin=1, monitor=thinned.monitor)
    assert thinned.n_kept == 20
    a = run_chains(small_panel, model, thinned, stream_base=1)
    b = run_chains(small_panel, model, full, stream_base=1)
    assert a.keys() == b.keys() == {"mu", "theta", "eta", "lambda_ij", "lambda_i", "tau1_sq", "tau2_sq"}
    for key in a:
        assert a[key].shape[:2] == (2, 20)
        assert np.array_equal(a[key], b[key][:, ::3]), key


def test_run_chains_rejects_zero_chains(small_panel):
    with pytest.raises(ValueError):
        SamplerSettings(seed=5, n_iter=10, n_burnin=2, n_chains=0)


def test_positivity_across_run(small_panel):
    settings = SamplerSettings(seed=6, n_iter=300, n_burnin=0, monitor=frozenset({"variances"}))
    for tag in ("m11a", "m11b", "m1a", "m1b", "m12"):
        draws = run_chains(small_panel, variant(tag), settings)
        for name in ("lambda_ij", "lambda_i", "tau1_sq", "tau2_sq"):
            if name in draws:
                assert np.all(draws[name] > 0), f"{tag}/{name}"


def test_m12_equals_pinned_m11a(small_panel):
    """m11a with locals pinned to 1 and local updates disabled reproduces m12 draws."""
    m12 = variant("m12")
    m11a = variant("m11a")
    settings = SamplerSettings(seed=7, n_iter=40, n_burnin=0, monitor=frozenset({"mu"}))

    draws_m12 = run_chains(small_panel, m12, settings, stream_base=2)

    rng = RngStream(settings.seed, 2)
    state = init_state(small_panel, m12, 0.0, rng)  # same init draw pattern
    mus = []
    for _ in range(settings.n_iter):
        update_gaussian_block(state, small_panel, m11a, rng.generator)
        # local updates disabled; lambda stays at 1
        r, d = _residuals(state, m11a)
        update_global_variances(state, m11a, r, d, rng.generator)
        mus.append(state.mu.copy())
    assert np.array_equal(draws_m12["mu"][0], np.array(mus))


@pytest.mark.parametrize("tag, J", _at_widths(TAGS, TAGS))
def test_collapsed_conditionals_match_joint_gaussian(small_panel, tag, J):
    """The blocked eta/mu draws match the (th, mu, eta) joint computed by linear algebra."""
    model = variant(tag)
    panel = _widen(small_panel, J) if model.has_theta_level else small_panel.select_source(0)
    gen = np.random.default_rng(909)
    I, J = panel.n_areas, panel.n_sources
    for _ in range(10):
        state = random_positive_state(panel, model, gen)
        # independent route: assemble the joint precision over (th?, mu, eta)
        b = state.lambda_i * state.tau2_sq
        if model.has_theta_level:
            a = source_variance(model, state.lambda_ij, state.lambda_i, state.tau1_sq, shape=(I, J))
            n = I * J + I + 1
            Q = np.zeros((n, n))
            rhs = np.zeros(n)
            mu0, eta0 = I * J, I * J + I
            for i in range(I):
                for j in range(J):
                    t = i * J + j
                    Q[t, t] += 1.0 / panel.v[i, j] + 1.0 / a[i, j]
                    Q[t, mu0 + i] -= 1.0 / a[i, j]
                    Q[mu0 + i, t] -= 1.0 / a[i, j]
                    Q[mu0 + i, mu0 + i] += 1.0 / a[i, j]
                    rhs[t] += panel.y[i, j] / panel.v[i, j]
                Q[mu0 + i, mu0 + i] += 1.0 / b[i]
                Q[mu0 + i, eta0] -= 1.0 / b[i]
                Q[eta0, mu0 + i] -= 1.0 / b[i]
                Q[eta0, eta0] += 1.0 / b[i]
        else:
            n = I + 1
            Q = np.zeros((n, n))
            rhs = np.zeros(n)
            mu0, eta0 = 0, I
            for i in range(I):
                Q[i, i] += 1.0 / panel.v[i, 0] + 1.0 / b[i]
                Q[i, I] -= 1.0 / b[i]
                Q[I, i] -= 1.0 / b[i]
                Q[I, I] += 1.0 / b[i]
                rhs[i] += panel.y[i, 0] / panel.v[i, 0]
        cov = np.linalg.inv(Q)
        mean = cov @ rhs

        e_mean, e_var = eta_collapsed_conditional(state, panel, model)
        assert e_mean == pytest.approx(mean[eta0], rel=1e-9)
        assert e_var == pytest.approx(cov[eta0, eta0], rel=1e-9)

        # mu | eta: condition the Gaussian on the eta coordinate
        state.eta = float(mean[eta0] + 0.07)
        m_mean, m_var = mu_collapsed_conditional(state, panel, model)
        mu_idx = np.arange(mu0, mu0 + I)
        cond_mean = mean[mu_idx] + cov[mu_idx, eta0] / cov[eta0, eta0] * (state.eta - mean[eta0])
        cond_var = np.diag(cov)[mu_idx] - cov[mu_idx, eta0] ** 2 / cov[eta0, eta0]
        assert np.allclose(m_mean, cond_mean, rtol=1e-9)
        assert np.allclose(m_var, cond_var, rtol=1e-9)


@pytest.mark.parametrize("tag, spoil, message", [
    ("m11a", lambda s: s.mu.__setitem__(1, np.nan), r"non-finite mu at coordinate \(1,\) on iteration 3$"),
    ("m11a", lambda s: setattr(s, "tau2_sq", np.inf), r"non-finite tau2_sq on iteration 3$"),
    ("one_source", lambda s: s.lambda_i.__setitem__(2, np.inf), r"non-finite lambda_i at coordinate \(2,\) on iteration 3$"),
], ids=["mu", "tau2_sq", "one_source"])
def test_divergence_abort_reports_location(small_panel, tag, spoil, message):
    from glsae.gibbs import _check_finite

    model = variant(tag)
    panel = small_panel if model.has_theta_level else small_panel.select_source(0)
    state = init_state(panel, model, 0.0, RngStream(8, 0))
    _check_finite(state, 3)
    spoil(state)
    with pytest.raises(SamplerDivergence, match=message):
        _check_finite(state, 3)


@pytest.mark.parametrize("tag", ["m11a", "m11b", "m1a", "m1b", "m12", "one_source"])
def test_probe_sees_every_sampled_field(small_panel, tag):
    """A non-finite value in any field of _QUANTITIES that the variant holds is a divergence naming that field."""
    from glsae.gibbs import _QUANTITIES, _check_finite

    model = variant(tag)
    panel = small_panel if model.has_theta_level else small_panel.select_source(0)
    for name in _QUANTITIES:
        state = init_state(panel, model, 0.0, RngStream(8, 0))
        val = getattr(state, name)
        if val is None:
            continue
        if isinstance(val, float):
            setattr(state, name, np.nan)
        else:
            val.flat[-1] = np.nan
        with pytest.raises(SamplerDivergence, match=rf"^non-finite {name}( at coordinate .*)? on iteration 5$"):
            _check_finite(state, 5)


def test_finite_state_whose_sum_overflows_is_not_a_divergence(small_panel):
    """Finite values whose sum overflows pass the probe, with no overflow warning (warnings are errors here)."""
    from glsae.gibbs import _check_finite

    state = init_state(small_panel, variant("m1a"), 0.0, RngStream(8, 0))
    state.lambda_ij[0] = [1e308, 1e308]
    _check_finite(state, 7)


def test_one_fill_draws_what_consecutive_calls_draw():
    """The sweep's fills rest on these stream facts: one fill of n values equals consecutive calls totalling n."""
    I, J = 5, 3
    a, b = np.random.default_rng(21), np.random.default_rng(21)
    z = np.empty(1 + I + I * J)
    a.standard_normal(out=z)
    parts = [np.atleast_1d(b.standard_normal()), b.standard_normal(I), b.standard_normal((I, J)).ravel()]
    assert np.array_equal(z, np.concatenate(parts))
    g = np.empty(2 * I * J + 2 * I)
    a.standard_gamma(1.0, out=g)
    parts = [b.standard_gamma(1.0, (I, J)).ravel(), b.standard_gamma(1.0, (I, J)).ravel(),
             b.standard_gamma(1.0, I), b.standard_gamma(1.0, I)]
    assert np.array_equal(g, np.concatenate(parts))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("order", [0.5, -0.5])
def test_one_gig_pass_draws_what_two_calls_draw(order):
    """m1b's one GIG(1/2) pass over lam_ij's cells, then lam_i's, equals a _gig_raw call over each in turn."""
    from glsae.distributions import _gig_half_runs, _gig_raw

    chi = np.random.default_rng(3).uniform(0.01, 5.0, 9)
    a, b = np.random.default_rng(22), np.random.default_rng(22)
    nu, u = np.empty(9), np.empty(9)
    one_pass = _gig_half_runs(order, chi, 2.0, a, nu, u, ((nu[:6], u[:6]), (nu[6:], u[6:])))
    two_calls = np.concatenate([_gig_raw(order, chi[:6], 2.0, b), _gig_raw(order, chi[6:], 2.0, b)])
    assert np.array_equal(one_pass, two_calls)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("tag", ["m11a", "m1b", "one_source"])
def test_chain_draws_do_not_depend_on_the_chain_before(small_panel, tag):
    """Chain 1 of a 2-chain run equals a 1-chain run on its stream: the sweep carries nothing between chains."""
    model = variant(tag)
    panel = small_panel if model.has_theta_level else small_panel.select_source(0)
    monitor = frozenset({"mu", "theta", "eta", "variances"})
    both = run_chains(panel, model, SamplerSettings(seed=13, n_iter=60, n_burnin=10, n_chains=2, monitor=monitor),
                      stream_base=4)
    alone = run_chains(panel, model, SamplerSettings(seed=13, n_iter=60, n_burnin=10, n_chains=1, monitor=monitor),
                       overdispersion=0.1, stream_base=5)
    assert both.keys() == alone.keys()
    for key in both:
        assert np.array_equal(both[key][1], alone[key][0]), key


@pytest.mark.parametrize("tag", ["m11a", "m11b", "m1a", "m1b", "m12", "one_source"])
def test_sweep_runs_every_variant(small_panel, tag):
    model = variant(tag)
    panel = small_panel if model.has_theta_level else small_panel.select_source(1)
    rng = RngStream(11, 0)
    state = init_state(panel, model, 0.0, rng)
    for _ in range(50):
        sweep(state, panel, model, rng)
    assert np.all(state.lambda_i > 0) and state.tau2_sq > 0

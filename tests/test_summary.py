import numpy as np
import pytest

from glsae.gibbs import run_chains
from glsae.model import SamplerSettings, SourcePanel, variant
from glsae.rng import RngStream
from glsae.summary import (
    DRAW_BLOCK,
    conditional_mean_direct,
    conditional_mean_joint_solve,
    decompose,
    kappa_weights,
    phi_distribution,
    phi_draws,
    summarize,
)


def _random_variances(panel, model, gen):
    I, J = panel.n_areas, panel.n_sources
    lam_ij = np.exp(gen.normal(0.0, 1.0, size=(I, J)))
    lam_i = np.exp(gen.normal(0.0, 1.0, size=I))
    if model.theta_variance_form == "unit":
        lam_ij = np.ones((I, J))
        lam_i = np.ones(I)
    t1 = float(np.exp(gen.normal(-2.0, 1.0)))
    t2 = float(np.exp(gen.normal(-2.0, 1.0)))
    return lam_ij, lam_i, t1, t2


@pytest.mark.parametrize("tag", ["m11a", "m1a", "m12"])
def test_identity_against_direct_conjugacy(tag, small_panel):
    """phi*ybar + (1-phi)*ybar_w equals the collapsed-model posterior mean."""
    model = variant(tag)
    gen = np.random.default_rng(11)
    for _ in range(25):
        lam_ij, lam_i, t1, t2 = _random_variances(small_panel, model, gen)
        dec = decompose(small_panel, model, lam_ij, lam_i, t1, t2)
        direct = conditional_mean_direct(small_panel, model, lam_ij, lam_i, t1, t2)
        assert np.max(np.abs(dec.cond_mean - direct)) < 1e-10


@pytest.mark.parametrize("tag", ["m11a", "m1a", "m12"])
def test_identity_against_full_joint_solve(tag, small_panel):
    """Third route: the assembled (th, mu, eta) normal equations agree too."""
    model = variant(tag)
    gen = np.random.default_rng(19)
    for _ in range(10):
        lam_ij, lam_i, t1, t2 = _random_variances(small_panel, model, gen)
        dec = decompose(small_panel, model, lam_ij, lam_i, t1, t2)
        solved = conditional_mean_joint_solve(small_panel, model, lam_ij, lam_i, t1, t2)
        assert np.max(np.abs(dec.cond_mean - solved)) < 1e-9  # moderate draws only


def test_identity_one_source(small_panel):
    model = variant("one_source")
    panel = small_panel.select_source(0)
    gen = np.random.default_rng(12)
    for _ in range(25):
        lam_i = np.exp(gen.normal(0.0, 1.0, size=panel.n_areas))
        t2 = float(np.exp(gen.normal(-2.0, 1.0)))
        dec = decompose(panel, model, None, lam_i, 1.0, t2)
        direct = conditional_mean_direct(panel, model, None, lam_i, 1.0, t2)
        assert np.max(np.abs(dec.cond_mean - direct)) < 1e-10
        assert np.allclose(dec.s2[..., 0], panel.v[:, 0])  # degenerate two-level form


def test_phi_limits(small_panel):
    model = variant("m11a")
    lam_ij = np.ones((3, 2))
    lam_i = np.ones(3)
    # huge across-area variance: phi -> 1, mean -> ybar
    dec = decompose(small_panel, model, lam_ij, lam_i, 0.01, 1e12)
    assert np.all(dec.phi > 0.999999)
    assert np.allclose(dec.cond_mean, dec.ybar, atol=1e-6)


def test_ybar_equal_weights(small_panel):
    model = variant("m12")
    v_eq = np.full((3, 2), 0.004)
    panel = SourcePanel(small_panel.areas, small_panel.sources, small_panel.y, v_eq)
    dec = decompose(panel, model, None, np.ones(3), 0.002, 0.001)
    assert np.allclose(dec.ybar, panel.y.mean(axis=1))


def test_ybar_is_convex_combination(small_panel):
    model = variant("m11a")
    gen = np.random.default_rng(13)
    lam_ij, lam_i, t1, t2 = _random_variances(small_panel, model, gen)
    dec = decompose(small_panel, model, lam_ij, lam_i, t1, t2)
    lo = small_panel.y.min(axis=1)
    hi = small_panel.y.max(axis=1)
    assert np.all(dec.ybar >= lo - 1e-12) and np.all(dec.ybar <= hi + 1e-12)
    # pooled mean is a convex combination of the ybar
    assert dec.ybar.min() - 1e-12 <= dec.ybar_w <= dec.ybar.max() + 1e-12


def test_phi_in_unit_interval(small_panel):
    model = variant("m1b")
    gen = np.random.default_rng(14)
    for _ in range(10):
        lam_ij, lam_i, t1, t2 = _random_variances(small_panel, model, gen)
        dec = decompose(small_panel, model, lam_ij, lam_i, t1, t2)
        assert np.all((dec.phi > 0) & (dec.phi < 1))


def test_kappa_worked_values(small_panel):
    # lam*tau1 == v -> 0.5; v=0.01, lam*tau1=0.04 -> 0.2
    panel = SourcePanel(["a", "b"], ["s1", "s2"], [[0.2, 0.3], [0.2, 0.3]], [[0.01, 0.01], [0.01, 0.01]])
    k = kappa_weights(panel, np.ones((2, 2)), 0.01)
    assert np.allclose(k, 0.5)
    k = kappa_weights(panel, np.ones((2, 2)), 0.04)
    assert k[0, 0] == pytest.approx(0.2)
    k = kappa_weights(panel, np.ones((2, 2)), 1e-12)
    assert np.all(k > 0.9999)  # tau1 -> 0: full shrink toward the area mean


def _sampled_phi(panel, model, settings):
    """phi formed from a run's variance draws, as ``glsae fit`` forms it."""
    d = run_chains(panel, model, settings)
    return phi_draws(panel, model, d.get("lambda_ij"), d["lambda_i"], d.get("tau1_sq"), d["tau2_sq"])


def test_summarize_constant_and_normal_draws():
    s = summarize(np.full((1, 30, 3), 0.25), 0.95)
    assert np.allclose(s.mean, 0.25) and np.allclose(s.lower, 0.25) and np.allclose(s.upper, 0.25)

    gen = np.random.default_rng(15)
    draws = gen.standard_normal((1, 1_000_000, 1))
    s95 = summarize(draws, 0.95)
    assert s95.lower[0] == pytest.approx(-1.96, abs=0.01)
    assert s95.upper[0] == pytest.approx(1.96, abs=0.01)
    s80 = summarize(draws, 0.80)
    assert (s80.upper[0] - s80.lower[0]) <= (s95.upper[0] - s95.lower[0])


def test_summarize_rejects_bad_level():
    with pytest.raises(ValueError):
        summarize(np.zeros((1, 15, 3)), 1.5)


def test_phi_is_derived_not_monitored():
    """phi is no sampled quantity; phi_distribution pools the chains of the phi array it is given."""
    with pytest.raises(ValueError, match="phi"):
        SamplerSettings(seed=5, monitor=frozenset({"mu", "phi"}))
    phi = np.random.default_rng(17).random((3, 20, 4))
    expected = np.quantile(phi.reshape(60, 4), [0.0, 0.25, 0.5, 0.75, 1.0], axis=0).T
    assert phi_distribution(phi).tobytes() == expected.tobytes()


def test_phi_identical_areas_are_exchangeable():
    panel = SourcePanel(
        ["a", "b"], ["s1", "s2"],
        [[0.25, 0.27], [0.25, 0.27]], [[0.003, 0.002], [0.003, 0.002]],
    )
    settings = SamplerSettings(seed=6, n_iter=4000, n_burnin=1000, monitor=frozenset({"variances"}))
    fives = phi_distribution(_sampled_phi(panel, variant("m12"), settings))
    assert fives.shape == (2, 5)
    # identical rows: medians agree up to Monte Carlo error
    assert abs(fives[0, 2] - fives[1, 2]) < 0.05


def test_fixed_variances_give_degenerate_phi(small_panel):
    model = variant("m11a")
    lam_ij = np.ones((3, 2))
    lam_i = np.ones(3)
    dec1 = decompose(small_panel, model, lam_ij, lam_i, 0.01, 0.02)
    dec2 = decompose(small_panel, model, lam_ij, lam_i, 0.01, 0.02)
    assert np.array_equal(dec1.phi, dec2.phi)  # pure function of the variances


def test_rao_blackwell_consistency(small_panel):
    """Draw-average of conditional means tracks the mu posterior mean."""
    settings = SamplerSettings(
        seed=7, n_iter=6000, n_burnin=1000, n_chains=4,
        monitor=frozenset({"mu", "variances"}),
    )
    model = variant("m11a")
    draws = run_chains(small_panel, model, settings, overdispersion=0.05)
    dec = decompose(
        small_panel, model,
        draws["lambda_ij"], draws["lambda_i"],
        draws["tau1_sq"], draws["tau2_sq"],
    )
    rb = dec.cond_mean.reshape(-1, small_panel.n_areas)
    direct = draws["mu"].reshape(-1, small_panel.n_areas)
    # MCSE from between-chain spread of each estimator
    C = settings.n_chains
    rb_chain = dec.cond_mean.mean(axis=1)
    mu_chain = draws["mu"].mean(axis=1)
    se = np.sqrt(rb_chain.var(axis=0, ddof=1) / C + mu_chain.var(axis=0, ddof=1) / C)
    gap = np.abs(rb.mean(axis=0) - direct.mean(axis=0))
    assert np.all(gap < 4.0 * se + 1e-12)


def test_theta_kappa_decomposition_reproducible_from_draws(small_panel):
    """Posterior mean of th matches the draw-average of (1-k)y + k*mu."""
    settings = SamplerSettings(
        seed=8, n_iter=4000, n_burnin=1000,
        monitor=frozenset({"mu", "theta", "variances"}),
    )
    model = variant("m1a")
    draws = run_chains(small_panel, model, settings)
    kap = kappa_weights(small_panel, draws["lambda_ij"], draws["tau1_sq"])
    mixed = (1.0 - kap) * small_panel.y + kap * draws["mu"][..., None]
    theta = draws["theta"].reshape((-1,) + small_panel.v.shape)
    direct = theta.mean(axis=0)
    rb = mixed.reshape((-1,) + mixed.shape[2:]).mean(axis=0)
    se = theta.std(axis=0) / np.sqrt(theta.shape[0] / 50)
    assert np.all(np.abs(direct - rb) < 4.0 * se + 1e-12)


def test_phi_spread_larger_for_horseshoe_than_lasso():
    """Across-area variation of the shrinkage factor: horseshoe > lasso locals."""
    from glsae.rng import RngStream
    from glsae.simgen import generate, spec_table

    spec = spec_table(1)[3]  # heavy outliers at both levels
    data = generate(spec, 0, RngStream(55, 0))
    settings = SamplerSettings(seed=56, n_iter=4000, n_burnin=1000, monitor=frozenset({"variances"}))
    med = {}
    for tag in ("m1a", "m1b"):
        med[tag] = phi_distribution(_sampled_phi(data.panel, variant(tag), settings))[:, 2]  # per-area phi medians
    iqr = {t: np.subtract(*np.percentile(med[t], [75, 25])) for t in med}
    assert iqr["m1a"] > iqr["m1b"]


def test_decompose_batch_matches_single(small_panel):
    model = variant("m11a")
    gen = np.random.default_rng(16)
    lam_ij = np.exp(gen.normal(size=(5, 7, 3, 2)))
    lam_i = np.exp(gen.normal(size=(5, 7, 3)))
    t1 = np.exp(gen.normal(size=(5, 7)))
    t2 = np.exp(gen.normal(size=(5, 7)))
    batch = decompose(small_panel, model, lam_ij, lam_i, t1, t2)
    one = decompose(small_panel, model, lam_ij[2, 3], lam_i[2, 3], float(t1[2, 3]), float(t2[2, 3]))
    assert np.allclose(batch.cond_mean[2, 3], one.cond_mean, atol=1e-14)
    assert np.allclose(batch.phi[2, 3], one.phi, atol=1e-14)


@pytest.mark.parametrize("tag", ["m11a", "m11b", "m1a", "m1b", "m12", "one_source"])
def test_phi_draws_bit_identical_to_decompose(tag, small_panel):
    """The blocked phi path gives decompose's phi to the bit, on (chain, kept) batches.

    (3, 350) holds more draws than one block and is no multiple of it, so
    it crosses block edges and ends on a short block.
    """
    model = variant(tag)
    panel = small_panel if model.has_theta_level else small_panel.select_source(0)
    I, J = panel.n_areas, panel.n_sources
    gen = np.random.default_rng(23)
    assert 3 * 350 > DRAW_BLOCK and (3 * 350) % DRAW_BLOCK
    for lead in ((5, 40), (3, 350)):
        lam_ij = np.exp(gen.normal(0.0, 3.0, size=lead + (I, J))) if model.has_local_ij else None
        lam_i = np.ones(lead + (I,)) if model.local_prior == "unit" else np.exp(gen.normal(0.0, 3.0, size=lead + (I,)))
        # one-source carries no tau1 draws; the store used to pass ones to decompose
        t1 = np.exp(gen.normal(-2.0, 3.0, size=lead)) if model.has_theta_level else np.ones(lead)
        t2 = np.exp(gen.normal(-2.0, 3.0, size=lead))
        phi = phi_draws(panel, model, lam_ij, lam_i, t1, t2)
        assert phi.shape == lead + (I,)
        assert phi.tobytes() == decompose(panel, model, lam_ij, lam_i, t1, t2).phi.tobytes()

    # the sampled draws, with one-source's absent tau1 passed as None as glsae fit passes it
    settings = SamplerSettings(seed=4, n_iter=60, n_burnin=10, n_chains=2, monitor=frozenset({"variances"}))
    d = run_chains(panel, model, settings)
    ones = np.ones(d["lambda_i"].shape[:2])
    dec = decompose(panel, model, d.get("lambda_ij"), d["lambda_i"], d.get("tau1_sq", ones), d["tau2_sq"])
    assert _sampled_phi(panel, model, settings).tobytes() == dec.phi.tobytes()


def test_kappa_weights_bit_identical_to_formula(small_panel):
    gen = np.random.default_rng(24)
    lam_ij = np.exp(gen.normal(0.0, 3.0, size=(5, 40, 3, 2)))
    t1 = np.exp(gen.normal(-2.0, 3.0, size=(5, 40)))
    v = small_panel.v
    kap = kappa_weights(small_panel, lam_ij, t1)
    assert kap.tobytes() == (v / (v + lam_ij * t1[..., None, None])).tobytes()

import hashlib
import math

import numpy as np
import pytest
from scipy import special, stats

from glsae.distributions import GigParams, InverseGammaParams, _gig_raw, sample_gig, sample_inverse_gamma
from glsae.rng import RngStream, derive_stream_id
from reference import logpdf, sample_halfcauchy_sq, sample_normal

N_BIG = 1_000_000
KS_N = 200_000
KS_ALPHA = 0.001


def test_normal_degenerate_variance_returns_mean():
    assert sample_normal(5.0, 0.0, RngStream(1)) == 5.0


def test_normal_mean_within_clt_bound():
    draws = sample_normal(np.zeros(N_BIG), 1.0, RngStream(2))
    assert abs(draws.mean()) < 0.005  # 3 / sqrt(1e6) with margin


def test_normal_rejects_negative_variance():
    with pytest.raises(ValueError):
        sample_normal(0.0, -1.0, RngStream(3))


def test_inverse_gamma_mean():
    draws = sample_inverse_gamma(InverseGammaParams(3.0, 2.0 * np.ones(N_BIG)), RngStream(4))
    assert abs(draws.mean() - 1.0) < 0.01  # analytic mean rate/(shape-1)


def test_inverse_gamma_median_matches_gamma_inversion():
    draws = sample_inverse_gamma(InverseGammaParams(1.0, np.ones(N_BIG)), RngStream(5))
    expected = 1.0 / stats.gamma.ppf(0.5, 1.0)  # = 1/ln 2
    assert abs(np.median(draws) - expected) < 0.01
    assert abs(expected - 1.4427) < 1e-4


@pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_inverse_gamma_rejects_bad_params(shape, rate):
    with pytest.raises(ValueError):
        sample_inverse_gamma(InverseGammaParams(shape, rate), RngStream(6))


def test_gig_bessel_ratio_mean():
    # E[X] = sqrt(chi/psi) K_{order+1}(w)/K_order(w), w = sqrt(chi psi);
    # at order -1/2, chi = psi = 1 the ratio is exactly 1
    draws = sample_gig(GigParams(-0.5, 1.0, np.ones(N_BIG)), RngStream(8))
    w = 1.0
    expected = math.sqrt(1.0) * special.kv(0.5, w) / special.kv(-0.5, w)
    assert abs(expected - 1.0) < 1e-12
    assert abs(draws.mean() - expected) < 0.01


def test_gig_pos_half_bessel_ratio_mean():
    draws = sample_gig(GigParams(0.5, 1.0, 2.0 * np.ones(N_BIG)), RngStream(9))
    w = math.sqrt(2.0)
    expected = math.sqrt(0.5) * special.kv(1.5, w) / special.kv(0.5, w)
    assert abs(draws.mean() - expected) < 0.01 * expected


def test_gig_regime_validation():
    # one scalar order with chi > 0 and psi > 0 is the only regime sampled
    assert sample_gig(GigParams(0.5, 1.0, 2.0), RngStream(10)) > 0
    for order, chi, psi in [(0.5, 0.0, 1.0), (-0.5, 0.0, 1.0), (0.5, 1.0, 0.0), (-0.5, 1.0, 0.0),
                            (0.5, 0.0, 0.0), (0.5, np.array([1.0, 0.0]), 2.0), (0.5, 1.0, np.inf)]:
        with pytest.raises(ValueError, match="chi and psi must be finite and > 0"):
            sample_gig(GigParams(order, chi, psi), RngStream(10))
    for order in (np.array([0.5, -0.5]), math.nan):
        with pytest.raises(ValueError, match="order must be one finite scalar"):
            sample_gig(GigParams(order, 1.0, 2.0), RngStream(10))


@pytest.mark.parametrize("order", [-2.5, -2.0, -1.5, -1.0, -0.5, 0.5, 3.0])
# the last two: the Gibbs sampler's chi clamp, and a sharp peak
@pytest.mark.parametrize("chi,psi", [(0.5, 2.0), (3.0, 0.5), (1e-30, 2.0), (1e6, 2.0)])
def test_gig_regime_coverage_positive_finite(order, chi, psi):
    draws = sample_gig(GigParams(order, chi, psi * np.ones(2000)), RngStream(11))
    assert np.all(draws > 0) and np.all(np.isfinite(draws))


# SHA-256 of the inverse-gamma draws outside the Gibbs sweep: the
# half-Cauchy pair at size None and 1000, each with the generator state
# after the draw.
HALF_CAUCHY_DIGEST = "1178d73f4cde38ae0d8fcbaff3bb47a8237a12759b62fe693afe6814de187163"


def test_inverse_gamma_paths_are_bit_identical():
    h = hashlib.sha256()
    for size in (None, 1000):
        rng = RngStream(13)
        v, x = sample_halfcauchy_sq(rng, size=size)
        h.update(np.asarray(v, dtype=float).tobytes())
        h.update(np.asarray(x, dtype=float).tobytes())
        h.update(repr(rng.generator.bit_generator.state).encode())
    assert h.hexdigest() == HALF_CAUCHY_DIGEST


def test_halfcauchy_sq_median_and_cdf():
    v, x = sample_halfcauchy_sq(RngStream(13), size=N_BIG)
    root = np.sqrt(v)
    assert abs(np.median(root) - 1.0) < 0.01  # tan(pi/4)
    cdf_at_2 = (root <= 2.0).mean()
    expected = (2.0 / math.pi) * math.atan(2.0)
    assert abs(cdf_at_2 - expected) < 0.005
    assert np.all(v > 0) and np.all(x > 0)


def test_ks_normal():
    draws = sample_normal(np.zeros(KS_N), 1.0, RngStream(14))
    assert stats.kstest(draws, stats.norm.cdf).pvalue > KS_ALPHA


def test_ks_inverse_gamma():
    draws = sample_inverse_gamma(InverseGammaParams(2.5, 1.5 * np.ones(KS_N)), RngStream(15))
    assert stats.kstest(draws, stats.invgamma(2.5, scale=1.5).cdf).pvalue > KS_ALPHA


@pytest.mark.parametrize("order,chi,psi", [
    (-0.5, 1.2, 0.7), (0.5, 0.8, 2.0), (1.7, 0.9, 1.1),
    # m11b's lambda_i orders at J = 3, 4 and 5
    (-1.0, 3.0, 2.0), (-1.5, 5.0, 2.0), (-2.0, 40.0, 2.0),
    # the half-integer mixture at small and large omega (0.014 and 10), and
    # at order -5/2 and omega 1, where its three components all weigh
    (-1.5, 1e-4, 2.0), (-1.5, 50.0, 2.0), (1.5, 1e-4, 2.0), (1.5, 50.0, 2.0), (-2.5, 0.5, 2.0),
    # the Hoermann-Leydold regimes: small omega with order < 1, and no mode shift
    (0.3, 0.01, 0.5), (0.3, 0.7, 0.7),
])
def test_ks_gig(order, chi, psi):
    # smaller n: geninvgauss.cdf integrates numerically and dominates runtime
    draws = sample_gig(GigParams(order, chi, psi * np.ones(50_000)), RngStream(16))
    omega = math.sqrt(chi * psi)
    scale = math.sqrt(chi / psi)
    assert stats.kstest(draws, stats.geninvgauss(order, omega, scale=scale).cdf).pvalue > KS_ALPHA


class _NanUniforms:
    def random(self, size):
        return np.full(size, np.nan)


def test_gig_rejection_loop_is_bounded():
    # NaN uniforms reject every candidate; the sampler must raise, not spin
    with pytest.raises(RuntimeError, match=r"order -2\.0 .*omega in \[2, 2\]"):
        _gig_raw(-2.0, np.full(3, 2.0), 2.0, _NanUniforms())


def test_ks_halfcauchy():
    v, _ = sample_halfcauchy_sq(RngStream(17), size=KS_N)
    assert stats.kstest(np.sqrt(v), stats.halfcauchy.cdf).pvalue > KS_ALPHA


def test_fixed_stream_is_bit_identical():
    a = RngStream(99, 5)
    b = RngStream(99, 5)
    da = sample_normal(np.zeros(10_000), 1.0, a)
    db = sample_normal(np.zeros(10_000), 1.0, b)
    assert np.array_equal(da, db)
    ga = sample_gig(GigParams(-1.5, np.linspace(0.1, 5.0, 1000), 2.0), RngStream(99, 5))
    gb = sample_gig(GigParams(-1.5, np.linspace(0.1, 5.0, 1000), 2.0), RngStream(99, 5))
    assert np.array_equal(ga, gb)
    # distinct stream ids diverge
    c = RngStream(99, 6)
    dc = sample_normal(np.zeros(10_000), 1.0, c)
    assert not np.array_equal(da, dc)


def test_derive_stream_id_is_stable():
    assert derive_stream_id(1, 2, 3) == derive_stream_id(1, 2, 3)
    assert derive_stream_id(1, 2, 3) != derive_stream_id(1, 2, 4)
    assert 0 <= derive_stream_id(7, 0, 0, 0) < 2**63


def test_logpdf_values():
    assert logpdf("lasso", None, 0.0) == 0.0
    assert abs(logpdf("horseshoe", None, 1.0) - (-math.log(2.0))) < 1e-15
    assert abs(logpdf("normal", (0.0, 1.0), 0.0) - (-0.5 * math.log(2 * math.pi))) < 1e-15
    assert abs(logpdf("normal", (0.0, 1.0), 0.0) - (-0.9189)) < 1e-4


def test_logpdf_out_of_support():
    assert logpdf("horseshoe", None, -1.0) == -math.inf
    assert logpdf("lasso", None, -0.5) == -math.inf
    assert logpdf("inverse_gamma", InverseGammaParams(1.0, 1.0), -2.0) == -math.inf
    assert logpdf("gig", GigParams(0.5, 1.0, 1.0), 0.0) == -math.inf


def test_logpdf_inverse_gamma_matches_scipy():
    xs = np.array([0.1, 0.5, 1.0, 3.0])
    ours = logpdf("inverse_gamma", InverseGammaParams(2.0, 1.5), xs)
    ref = stats.invgamma(2.0, scale=1.5).logpdf(xs)
    assert np.allclose(ours, ref, atol=1e-12)


def test_logpdf_horseshoe_matches_halfcauchy_transform():
    # density of u = k^2 for k half-Cauchy: f(u) = halfcauchy.pdf(sqrt(u)) / (2 sqrt(u))
    xs = np.array([0.2, 1.0, 4.0, 9.0])
    ours = logpdf("horseshoe", None, xs)  # unnormalized: missing -log(pi)
    ref = stats.halfcauchy.logpdf(np.sqrt(xs)) - np.log(2.0 * np.sqrt(xs))
    assert np.allclose(ours - math.log(math.pi), ref, atol=1e-12)

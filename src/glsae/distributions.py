"""Random variates and log densities for every distribution the samplers need.

Parameterizations
-----------------
* Inverse gamma ``IG(shape, rate)`` has density proportional to
  ``x**(-1-shape) * exp(-rate/x)``.
* Generalized inverse Gaussian ``GIG(order, chi, psi)`` has density
  proportional to ``x**(order-1) * exp(-(chi/x + psi*x)/2)``; valid for
  (chi > 0, psi > 0, any order), (chi = 0, psi > 0, order > 0) and
  (chi > 0, psi = 0, order < 0).
* The heavy-tailed variance law used for shrinkage ("horseshoe") is the
  distribution of the square of a standard half-Cauchy variate. It admits
  the scale-mixture representation: if ``u | x ~ IG(1/2, 1/x)`` and
  ``x ~ IG(1/2, 1)`` then ``sqrt(u)`` is standard half-Cauchy.
* The "lasso" variance law is Exp(1) on the variance itself.

Normalization conventions for :func:`logpdf` (fixed; the verification
code only ever uses ratios where a kernel is unnormalized):

========== =============================================================
normal       exact log density
inverse_gamma exact log density
half_cauchy  exact log density
lasso        ``-x`` (coincides with the exact Exp(1) log density)
gig          kernel ``(order-1)*log x - (chi/x + psi*x)/2``
horseshoe    kernel ``-0.5*log x - log1p(x)`` (exact minus ``log pi``)
========== =============================================================

Samplers floor their output at 1e-300 purely to avoid returning an exact
zero from underflow; there is no statistical flooring.

All samplers are pure functions of (params, stream state); see
:class:`glsae.rng.RngStream` for the concurrency contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _sps

from .rng import RngStream

_FLOOR = 1e-300


@dataclass(frozen=True)
class InverseGammaParams:
    shape: float | np.ndarray
    rate: float | np.ndarray

    def validate(self) -> None:
        shape = np.asarray(self.shape, dtype=float)
        rate = np.asarray(self.rate, dtype=float)
        if np.any(~np.isfinite(shape)) or np.any(shape <= 0):
            raise ValueError("inverse gamma shape must be finite and > 0")
        if np.any(~np.isfinite(rate)) or np.any(rate <= 0):
            raise ValueError("inverse gamma rate must be finite and > 0")


@dataclass(frozen=True)
class GigParams:
    order: float | np.ndarray
    chi: float | np.ndarray
    psi: float | np.ndarray

    def validate(self) -> None:
        order, chi, psi = np.broadcast_arrays(
            np.asarray(self.order, dtype=float),
            np.asarray(self.chi, dtype=float),
            np.asarray(self.psi, dtype=float),
        )
        if np.any(~np.isfinite(order)) or np.any(~np.isfinite(chi)) or np.any(~np.isfinite(psi)):
            raise ValueError("GIG parameters must be finite")
        if np.any(chi < 0) or np.any(psi < 0):
            raise ValueError("GIG chi and psi must be nonnegative")
        bad = ((chi == 0) & (psi == 0)) | ((chi == 0) & (order <= 0)) | ((psi == 0) & (order >= 0))
        if np.any(bad):
            raise ValueError("invalid GIG regime: need chi>0 for order<=0 and psi>0 for order>=0")


def sample_normal(mean, variance, rng: RngStream):
    """Draw N(mean, variance); variance may be zero (returns the mean)."""
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0) or np.any(~np.isfinite(variance)):
        raise ValueError("variance must be finite and >= 0")
    shape = np.broadcast_shapes(mean.shape, variance.shape)
    draw = mean + np.sqrt(variance) * rng.generator.standard_normal(shape)
    return float(draw) if draw.ndim == 0 else draw


def _invgamma_raw(shape, rate, gen):
    """IG(shape, rate) draw without validation (hot path for the Gibbs loop).

    Callers guarantee positive finite parameters; the chain driver's
    per-sweep non-finite guard backstops anything pathological.
    """
    size = getattr(rate, "shape", None) or getattr(shape, "shape", None) or None
    g = gen.gamma(shape, 1.0, size=size)
    return np.maximum(rate / g, _FLOOR)


def sample_inverse_gamma(p: InverseGammaParams, rng: RngStream):
    """Draw from IG(shape, rate), elementwise over broadcast parameters."""
    p.validate()
    shape, rate = np.broadcast_arrays(
        np.asarray(p.shape, dtype=float), np.asarray(p.rate, dtype=float)
    )
    out = _invgamma_raw(shape, rate, rng.generator)
    return float(out) if np.ndim(out) == 0 else out


def _wald_stable(mean, scale, gen):
    """Inverse-Gaussian draws by root selection, stable at extreme means.

    The textbook arrangement mean*(1 + w - sqrt(w^2 + 2w)) cancels
    catastrophically when w = mean*nu/(2*scale) is large (it returns an
    exact 0, whose reciprocal blows up the order-1/2 GIG path); the
    rationalized form mean/(1 + w + sqrt(w^2 + 2w)) is identical algebra
    without the subtraction.
    """
    shape = np.broadcast_shapes(np.shape(mean), np.shape(scale))
    size = shape if shape else None
    nu = gen.standard_normal(size)
    nu = nu * nu
    w = mean * nu / (2.0 * scale)
    small = mean / (1.0 + w + np.sqrt(w * (w + 2.0)))
    u = gen.random(size)
    # accept the small root with prob mean/(mean+small), else the conjugate root
    return np.where(u * (mean + small) <= mean, small, mean * mean / small)


def _gig_pos_half(chi, psi, gen):
    # GIG(+1/2, chi, psi) is the reciprocal of GIG(-1/2, psi, chi),
    # i.e. 1 / InverseGaussian(mean=sqrt(psi/chi), scale=psi).
    return 1.0 / np.maximum(_wald_stable(np.sqrt(psi / chi), psi, gen), _FLOOR)


def _gig_neg_half(chi, psi, gen):
    # GIG(-1/2, chi, psi) is InverseGaussian(mean=sqrt(chi/psi), scale=chi).
    return _wald_stable(np.sqrt(chi / psi), chi, gen)


def _gig_raw(order, chi, psi, gen):
    """GIG draw at one scalar ``order``, without validation.

    +-1/2 have exact inverse-Gaussian paths; other orders use scipy's
    Hoermann-Leydold rejection sampler, rescaled from its two-parameter
    form. Callers guarantee chi > 0 and psi > 0.
    """
    if order == 0.5:
        return np.maximum(_gig_pos_half(chi, psi, gen), _FLOOR)
    if order == -0.5:
        return np.maximum(_gig_neg_half(chi, psi, gen), _FLOOR)
    omega = np.sqrt(chi * psi)
    scale = np.sqrt(chi / psi)
    return np.maximum(scale * _sps.geninvgauss.rvs(order, omega, random_state=gen), _FLOOR)


def sample_gig(p: GigParams, rng: RngStream):
    """Draw from GIG(order, chi, psi), elementwise over broadcast parameters.

    The limits are exact: chi = 0 reduces to Gamma(order, psi/2) and
    psi = 0 to IG(-order, chi/2). Elements with chi > 0 and psi > 0 are
    drawn by :func:`_gig_raw`, one group per distinct order.
    """
    p.validate()
    gen = rng.generator
    order, chi, psi = np.broadcast_arrays(
        np.asarray(p.order, dtype=float),
        np.asarray(p.chi, dtype=float),
        np.asarray(p.psi, dtype=float),
    )
    scalar = order.ndim == 0
    order = np.atleast_1d(order).astype(float)
    chi = np.atleast_1d(chi).astype(float)
    psi = np.atleast_1d(psi).astype(float)
    out = np.empty(order.shape, dtype=float)

    m_gamma = chi == 0.0
    m_invg = psi == 0.0
    m_both = ~m_gamma & ~m_invg

    if np.any(m_gamma):
        out[m_gamma] = gen.gamma(order[m_gamma], 2.0 / psi[m_gamma])
    if np.any(m_invg):
        out[m_invg] = 0.5 * chi[m_invg] / gen.gamma(-order[m_invg], 1.0)
    for o in np.unique(order[m_both]):
        m = m_both & (order == o)
        out[m] = _gig_raw(o, chi[m], psi[m], gen)

    out = np.maximum(out, _FLOOR)
    return float(out[0]) if scalar else out


def sample_halfcauchy_sq(rng: RngStream, size=None):
    """Draw the squared-half-Cauchy variance together with its mixing variable.

    Returns ``(v, x)`` where ``x ~ IG(1/2, 1)`` and ``v | x ~ IG(1/2, 1/x)``,
    so that sqrt(v) is marginally standard half-Cauchy.
    """
    gen = rng.generator
    x = np.maximum(1.0 / gen.gamma(0.5, 1.0, size=size), _FLOOR)
    v = np.maximum((1.0 / x) / gen.gamma(0.5, 1.0, size=size), _FLOOR)
    if size is None:
        return float(v), float(x)
    return v, x


def logpdf(dist: str, params, x) -> float | np.ndarray:
    """Log density of ``dist`` at ``x`` under the documented conventions.

    ``params`` is ``(mean, variance)`` for "normal", an
    :class:`InverseGammaParams` for "inverse_gamma", a :class:`GigParams`
    for "gig" and unused (pass None) for "horseshoe", "lasso" and
    "half_cauchy". Points outside the support return ``-inf``.
    """
    x = np.asarray(x, dtype=float)
    if dist == "normal":
        mean, variance = params
        if variance <= 0:
            raise ValueError("normal logpdf needs variance > 0")
        out = -0.5 * (math.log(2.0 * math.pi * variance)) - (x - mean) ** 2 / (2.0 * variance)
    elif dist == "inverse_gamma":
        params.validate()
        shape, rate = params.shape, params.rate
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                x > 0,
                shape * np.log(rate)
                - math.lgamma(shape)
                - (shape + 1.0) * np.log(np.where(x > 0, x, 1.0))
                - rate / np.where(x > 0, x, 1.0),
                -np.inf,
            )
    elif dist == "gig":
        params.validate()
        order, chi, psi = params.order, params.chi, params.psi
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = np.where(x > 0, x, 1.0)
            out = np.where(
                x > 0,
                (order - 1.0) * np.log(xs) - 0.5 * (chi / xs + psi * xs),
                -np.inf,
            )
    elif dist == "horseshoe":
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = np.where(x > 0, x, 1.0)
            out = np.where(x > 0, -0.5 * np.log(xs) - np.log1p(xs), -np.inf)
    elif dist == "lasso":
        out = np.where(x >= 0, -x, -np.inf)
    elif dist == "half_cauchy":
        out = np.where(x >= 0, math.log(2.0 / math.pi) - np.log1p(x**2), -np.inf)
    else:
        raise ValueError(f"unknown distribution id: {dist!r}")
    return float(out) if np.ndim(out) == 0 else out

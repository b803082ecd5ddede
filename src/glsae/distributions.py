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

from .rng import RngStream

_FLOOR = 1e-300
_FLOOR_0D = np.array(_FLOOR)
_GIG_MAX_ROUNDS = 100


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

    A Python-float ``rate`` gives a Python-float draw. ``standard_gamma``
    gives the bits of ``gamma(shape, 1.0)``, and the floor is a 0-d array
    because numpy converts a Python-float operand on every call. Callers
    guarantee positive finite parameters; the chain driver's per-sweep
    non-finite guard backstops anything pathological.
    """
    if type(rate) is float:
        g = gen.standard_gamma(shape)
        # a zero gamma draw gives inf, as numpy's division would
        return max(rate / g, _FLOOR) if g else math.inf
    size = getattr(rate, "shape", None) or getattr(shape, "shape", None) or None
    return np.maximum(rate / gen.standard_gamma(shape, size), _FLOOR_0D)


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
    without the subtraction. Both callers pass a ``scale`` that broadcasts
    to ``mean``, so the draws take the shape of ``mean``.
    """
    size = np.shape(mean) or None
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


def _devroye_log_kernel(z, alpha, lam):
    """Unnormalized log density of Z (see :func:`_gig_log_draws`), 0 at its mode z = 0."""
    return -alpha * (np.cosh(z) - 1.0) - lam * (np.expm1(z) - z)


def _devroye_log_slope(z, alpha, lam):
    """Derivative of :func:`_devroye_log_kernel` in z."""
    return -alpha * np.sinh(z) - lam * np.expm1(z)


def _gig_log_draws(order, omega, root, gen):
    """Draws of Z = log(Y) - m for Y ~ GIG(|order|, omega, omega), m the mode of log Y.

    Z has the log-concave density exp(-alpha (cosh z - 1) - lam (e^z - 1 - z))
    with lam = |order| and alpha = sqrt(omega^2 + lam^2) - lam, which
    Devroye (2014) samples by rejection from a hat that is flat on
    [-s', t'] and follows the tangents of the log density at t and -s
    beyond. t and s come per element from the log density at +-1; over
    orders 0 to 1000 and omega 1e-300 to 1e8 a draw took at most 1.35
    candidates on average. Each round draws three uniforms for each
    element still pending; after ``_GIG_MAX_ROUNDS`` rounds it raises
    RuntimeError.
    """
    lam = np.full(omega.shape, abs(order))
    alpha = omega * (omega / (root + lam))  # root - lam, without cancellation
    at_one = -_devroye_log_kernel(1.0, alpha, lam)
    at_minus_one = -_devroye_log_kernel(-1.0, alpha, lam)
    t = np.where(
        at_one > 2.0,
        np.sqrt(2.0 / (alpha + lam)),
        np.where(at_one < 0.5, np.log(4.0 / (alpha + 2.0 * lam)), 1.0),
    )
    s = np.where(
        at_minus_one > 2.0,
        np.sqrt(4.0 / (alpha * math.cosh(1.0) + lam)),
        np.where(at_minus_one < 0.5, np.minimum(1.0 / lam, np.arccosh(1.0 + 1.0 / alpha)), 1.0),
    )
    eta = -_devroye_log_kernel(t, alpha, lam)
    zeta = -_devroye_log_slope(t, alpha, lam)
    theta = -_devroye_log_kernel(-s, alpha, lam)
    xi = _devroye_log_slope(-s, alpha, lam)
    p, r = 1.0 / xi, 1.0 / zeta
    t_flat, s_flat = t - r * eta, s - p * theta
    q = t_flat + s_flat  # area under the flat part; p and r are the tail areas
    envelope = np.stack([alpha, lam, t, s, eta, zeta, theta, xi, p, q, r, p + q + r, t_flat, s_flat])

    z = np.empty(omega.shape)
    pending = np.arange(omega.size)
    for _ in range(_GIG_MAX_ROUNDS):
        alpha, lam, t, s, eta, zeta, theta, xi, p, q, r, area, t_flat, s_flat = envelope[:, pending]
        u, v, w = gen.random((3, pending.size))
        pick = u * area
        flat = pick < q
        right = ~flat & (pick < q + r)
        x = np.where(flat, q * v - s_flat, np.where(right, t_flat - r * np.log(v), p * np.log(v) - s_flat))
        log_hat = np.where(flat, 0.0, np.where(right, -eta - zeta * (x - t), xi * (x + s) - theta))
        accept = np.log(w) + log_hat <= _devroye_log_kernel(x, alpha, lam)
        z[pending[accept]] = x[accept]
        pending = pending[~accept]
        if pending.size == 0:
            return z
    raise RuntimeError(
        f"GIG sampler at order {order} left {pending.size} draws unaccepted after "
        f"{_GIG_MAX_ROUNDS} rejection rounds; omega in [{omega[pending].min():.6g}, {omega[pending].max():.6g}]"
    )


def _gig_raw(order, chi, psi, gen):
    """GIG draw at one scalar ``order``, without validation.

    Orders +-1/2 take the exact inverse-Gaussian paths. Every other order
    draws all elements at once, in numpy, with Devroye's (2014, *Stat.
    Comput.* 24:239-246) rejection sampler on the log scale
    (:func:`_gig_log_draws`). Its one hat serves every regime that
    Hoermann & Leydold (2014, *Stat. Comput.* 24:547-557) treat apart
    (ratio of uniforms with a mode shift for order >= 1 or omega > 1,
    without one for moderate omega, and a special hat for small omega at
    order < 1), with omega = sqrt(chi * psi) from 0 (the gamma limit) to
    large (a narrow peak). Negative orders use X = 1 / GIG(-order, psi,
    chi). Callers guarantee chi > 0 and psi > 0.
    """
    if order == 0.5:
        return np.maximum(_gig_pos_half(chi, psi, gen), _FLOOR)
    if order == -0.5:
        return np.maximum(_gig_neg_half(chi, psi, gen), _FLOOR)
    chi, psi = np.broadcast_arrays(np.asarray(chi, dtype=float), np.asarray(psi, dtype=float))
    omega = (np.sqrt(chi) * np.sqrt(psi)).reshape(-1)  # chi * psi may underflow
    root = np.hypot(omega, abs(order))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = _gig_log_draws(order, omega, root, gen).reshape(chi.shape)
        root = root.reshape(chi.shape)
        # exp(m) for GIG(|order|, chi, psi) is (|order| + root) / psi; the
        # reflected law GIG(-order, psi, chi) of 1 / X has chi in place of psi
        if order < 0:
            out = chi / (root - order) * np.exp(-z)
        else:
            out = (root + order) / psi * np.exp(z)
    return np.maximum(out, _FLOOR)


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
        out[m_invg] = _invgamma_raw(-order[m_invg], 0.5 * chi[m_invg], gen)
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
    x = _invgamma_raw(0.5, 1.0 if size is None else np.ones(size), gen)
    return _invgamma_raw(0.5, 1.0 / x, gen), x


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

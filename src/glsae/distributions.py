"""Random variates and log densities for every distribution the samplers need.

Parameterizations
-----------------
* Inverse gamma ``IG(shape, rate)`` has density proportional to
  ``x**(-1-shape) * exp(-rate/x)``.
* Generalized inverse Gaussian ``GIG(order, chi, psi)`` has density
  proportional to ``x**(order-1) * exp(-(chi/x + psi*x)/2)``, for one
  scalar order and chi > 0, psi > 0 (the lasso conditionals have psi = 2
  and chi clamped above 0).
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

Each draw has one path. Inverse-gamma arrays come from their gamma
variates by :func:`_invgamma_of`, and a scalar (a Gibbs global
variance) by :func:`_invgamma_raw`. GIG draws at order +-1/2 go through
:func:`_gig_half_runs`, the one place that orders their normals and
uniforms, and every other order through Devroye's rejection sampler.

All samplers are pure functions of (params, stream state); see
:class:`glsae.rng.RngStream` for the concurrency contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

_FLOOR = 1e-300
# 0-d arrays, because numpy converts a Python-float operand on every call
_FLOOR_0D, _ONE_0D, _TWO_0D = np.array(_FLOOR), np.array(1.0), np.array(2.0)
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
        order = np.asarray(self.order, dtype=float)
        chi = np.asarray(self.chi, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if order.ndim or not np.isfinite(order):
            raise ValueError("GIG order must be one finite scalar")
        if np.any(~np.isfinite(chi)) or np.any(chi <= 0) or np.any(~np.isfinite(psi)) or np.any(psi <= 0):
            raise ValueError("GIG chi and psi must be finite and > 0")


def sample_normal(mean, variance, rng: RngStream):
    """Draw N(mean, variance); variance may be zero (returns the mean)."""
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0) or np.any(~np.isfinite(variance)):
        raise ValueError("variance must be finite and >= 0")
    shape = np.broadcast_shapes(mean.shape, variance.shape)
    draw = mean + np.sqrt(variance) * rng.generator.standard_normal(shape)
    return float(draw) if draw.ndim == 0 else draw


def _invgamma_raw(shape: float, rate: float, gen) -> float:
    """One IG(shape, rate) draw at Python-float parameters, as a Python float, without validation.

    The Gibbs loop's global variances take this path; every array of
    draws goes through :func:`_invgamma_of`. Callers guarantee positive
    finite parameters; the chain driver's per-sweep non-finite guard
    backstops anything pathological.
    """
    g = gen.standard_gamma(shape)
    # a zero gamma draw gives inf, as numpy's division would
    return max(rate / g, _FLOOR) if g else math.inf


def _invgamma_of(rate, gamma, out=None):
    """IG(shape, rate) draws from their standard gamma(shape) variates ``gamma``.

    ``standard_gamma`` gives the bits of ``gamma(shape, 1.0)``. The
    quotient rate / gamma goes into ``out`` when given (it may be
    ``gamma``); the floored draws are a fresh array.
    """
    return np.maximum(np.divide(rate, gamma, out=out), _FLOOR_0D)


def sample_inverse_gamma(p: InverseGammaParams, rng: RngStream):
    """Draw from IG(shape, rate), elementwise over broadcast parameters, by :func:`_invgamma_of`."""
    p.validate()
    shape, rate = np.broadcast_arrays(
        np.asarray(p.shape, dtype=float), np.asarray(p.rate, dtype=float)
    )
    out = _invgamma_of(rate, rng.generator.standard_gamma(shape))
    return float(out) if np.ndim(out) == 0 else out


def _wald_stable(mean, scale, nu, u):
    """Inverse-Gaussian draws by root selection, stable at extreme means.

    ``nu`` and ``u`` hold one standard normal and one uniform per draw.
    The textbook arrangement mean*(1 + w - sqrt(w^2 + 2w)) cancels
    catastrophically when w = mean*nu^2/(2*scale) is large (it returns an
    exact 0, whose reciprocal blows up the order-1/2 GIG path); the
    rationalized form mean/(1 + w + sqrt(w^2 + 2w)) is identical algebra
    without the subtraction. Both callers pass a ``scale`` that broadcasts
    to ``mean``, so the draws take the shape of ``mean``.
    """
    nu = nu * nu
    w = mean * nu / (_TWO_0D * scale)
    small = mean / (_ONE_0D + w + np.sqrt(w * (w + _TWO_0D)))
    # accept the small root with prob mean/(mean+small), else the conjugate root
    return np.where(u * (mean + small) <= mean, small, mean * mean / small)


def _gig_half(order, chi, psi, nu, u):
    """GIG(+-1/2, chi, psi) draws from the standard normals ``nu`` and uniforms ``u``, one of each per draw.

    GIG(-1/2, chi, psi) is InverseGaussian(mean=sqrt(chi/psi), scale=chi),
    and GIG(+1/2, chi, psi) is its reciprocal with chi and psi swapped.
    """
    if order > 0:
        out = np.reciprocal(np.maximum(_wald_stable(np.sqrt(psi / chi), psi, nu, u), _FLOOR_0D))
    else:
        out = _wald_stable(np.sqrt(chi / psi), chi, nu, u)
    return np.maximum(out, _FLOOR_0D)


def _gig_half_runs(order, chi, psi, gen, nu, u, runs):
    """GIG(+-1/2, chi, psi) draws over ``chi`` in one pass; the one place that orders the Wald variates.

    ``nu`` and ``u`` are buffers the shape of ``chi`` and ``psi``
    broadcast, and ``runs`` holds (normals, uniforms) views into them,
    one pair per run of cells in order. Each run draws its normals, then
    its uniforms; :func:`_gig_raw` passes one run over all its cells.
    """
    for run_nu, run_u in runs:
        gen.standard_normal(out=run_nu)
        gen.random(out=run_u)
    return _gig_half(order, chi, psi, nu, u)


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
    if abs(order) == 0.5:
        shape = np.broadcast(chi, psi).shape
        nu, u = np.empty(shape), np.empty(shape)
        return _gig_half_runs(order, chi, psi, gen, nu, u, ((nu, u),))
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
    """Draw from GIG(order, chi, psi), elementwise over broadcast chi and psi, by :func:`_gig_raw`."""
    p.validate()
    out = _gig_raw(float(p.order), np.asarray(p.chi, dtype=float), np.asarray(p.psi, dtype=float), rng.generator)
    return float(out) if np.ndim(out) == 0 else out


def sample_halfcauchy_sq(rng: RngStream, size=None):
    """Draw the squared-half-Cauchy variance together with its mixing variable.

    Returns ``(v, x)`` where ``x ~ IG(1/2, 1)`` and ``v | x ~ IG(1/2, 1/x)``,
    so that sqrt(v) is marginally standard half-Cauchy.
    """
    gen = rng.generator
    x = _invgamma_of(1.0, gen.standard_gamma(0.5, size))
    return _invgamma_of(1.0 / x, gen.standard_gamma(0.5, size)), x


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

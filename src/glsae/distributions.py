"""Random variates for every distribution the samplers need.

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

The log densities and the normal and squared-half-Cauchy samplers that
only the tests use are in ``tests/reference.py``.

Samplers floor their output at 1e-300 purely to avoid returning an exact
zero from underflow; there is no statistical flooring.

Each draw has one path. Inverse-gamma arrays come from their gamma
variates by :func:`_invgamma_of`, and a scalar (a Gibbs global
variance) by :func:`_invgamma_raw`. A GIG draw takes one of three paths,
chosen by its order alone (:func:`_gig_raw`):

* order +-1/2: an inverse Gaussian, through :func:`_gig_half_runs`, the
  one place that orders its normals and uniforms;
* order +-(n + 1/2), n >= 1: exactly, as an inverse Gaussian plus a
  finite gamma mixture (:func:`_gig_half_integer`), drawing the normals
  of every cell, then their Wald uniforms, then their component
  uniforms, then their gamma variates;
* every other order: Devroye's rejection sampler.

:func:`_wald_stable` is the one inverse-Gaussian kernel of the first two.

All samplers are pure functions of (params, stream state); see
:class:`glsae.rng.RngStream` for the concurrency contract.
"""

from __future__ import annotations

import functools
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
    without the subtraction. Both ``nu`` and ``u`` take the shape of
    ``mean``, and ``scale`` broadcasts to it. The draws are worked in
    ``nu`` and returned in it, and ``u`` is overwritten, so a caller's
    final op must allocate what it keeps.
    """
    w = np.multiply(nu, nu, out=nu)
    np.multiply(mean, w, out=w)
    np.divide(w, _TWO_0D * scale, out=w)
    small = np.add(w, _TWO_0D, out=np.empty_like(w))  # an array, also at shape ()
    np.sqrt(np.multiply(w, small, out=small), out=small)
    np.add(np.add(w, _ONE_0D, out=w), small, out=w)
    small = np.divide(mean, w, out=small)
    # accept the small root with prob mean/(mean+small), else the conjugate root
    keep = np.less_equal(np.multiply(u, np.add(mean, small, out=w), out=u), mean)
    big = np.divide(np.multiply(mean, mean, out=w), small, out=w)
    np.copyto(big, small, where=keep)
    return big


def _gig_half(order, chi, psi, nu, u):
    """GIG(+-1/2, chi, psi) draws from the standard normals ``nu`` and uniforms ``u``, one of each per draw.

    GIG(-1/2, chi, psi) is InverseGaussian(mean=sqrt(chi/psi), scale=chi),
    and GIG(+1/2, chi, psi) is its reciprocal with chi and psi swapped.
    ``nu`` and ``u`` are overwritten; the floored draws are a fresh array.
    """
    if order > 0:
        out = _wald_stable(np.sqrt(np.divide(psi, chi)), psi, nu, u)
        np.reciprocal(np.maximum(out, _FLOOR_0D, out=out), out=out)
    else:
        out = _wald_stable(np.sqrt(np.divide(chi, psi)), chi, nu, u)
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


@functools.cache
def _bessel_mixture(n):
    """The components k = 0..n of GIG(n + 1/2)'s gamma mixture: (a_k, n - k, k) as columns, and the shapes.

    K_{n+1/2}(z) = sqrt(pi/2z) e^-z sum_k a_k z^-k with the integers
    a_k = (n+k)! / (2^k k! (n-k)!) (DLMF 10.49.12). Component k has weight
    a_k omega^(n-k), taken as a_k rho^(n-k) sigma^k with rho = omega/(1+omega)
    and sigma = 1/(1+omega) so that no power overflows, and gamma shape
    (n+1+k)/2, returned as a flat array.
    """
    a = [math.factorial(n + j) // (2**j * math.factorial(j) * math.factorial(n - j)) for j in range(n + 1)]
    k = np.arange(n + 1.0)  # float powers, as np.power converts integer ones on every call
    return np.array(a, dtype=float)[:, None], (n - k)[:, None], k[:, None], (n + 1 + k) / 2.0


def _gig_half_integer(order, chi, psi, gen):
    """GIG(order, chi, psi) draws at |order| = n + 1/2, n >= 1, exactly and without rejection.

    Since K_{n+1/2} is a finite sum (:func:`_bessel_mixture`), the Laplace
    transform of GIG(n+1/2, chi, psi) factors into that of GIG(-1/2, chi,
    psi), an inverse Gaussian, and that of a finite mixture of gamma laws:
    Y = IG + (2/psi) G with G ~ Gamma((n+1+k)/2), component k drawn with
    weight a_k omega^(n-k), omega = sqrt(chi psi). A negative order
    draws 1 / GIG(-order, psi, chi). The stream gives the Wald normals of
    every cell, then their Wald uniforms, then their component uniforms,
    then their gamma variates.
    """
    if order < 0:
        chi, psi = psi, chi
    a, rho_power, sigma_power, shapes = _bessel_mixture(int(abs(order)))
    shape = np.broadcast(chi, psi).shape
    nu = gen.standard_normal(shape)
    u = gen.random((2, *shape))
    # u[0, ...] is a view _wald_stable can write, also at shape ()
    y = _wald_stable(np.sqrt(np.divide(chi, psi)), chi, nu, u[0, ...])
    # the mixture works over the cells in one flat axis, after its component axis
    omega = np.reshape(np.sqrt(chi) * np.sqrt(psi), -1)  # chi * psi may underflow
    sigma = np.reciprocal(omega + _ONE_0D)
    weight = np.multiply(np.power(np.multiply(omega, sigma), rho_power), np.power(sigma, sigma_power))
    up_to = np.cumsum(np.multiply(weight, a, out=weight), axis=0)
    # k counts the components whose cumulative weight the uniform passes
    k = np.add.reduce(np.multiply(np.reshape(u[1], -1), up_to[-1]) >= up_to[:-1], axis=0)
    g = gen.standard_gamma(shapes[k].reshape(shape))
    np.add(y, np.multiply(g, _TWO_0D) / psi, out=y)
    if order < 0:
        np.reciprocal(np.maximum(y, _FLOOR_0D, out=y), out=y)
    return np.maximum(y, _FLOOR_0D)


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
    """GIG draw at one scalar ``order``, without validation, by the one path its order picks.

    Orders +-1/2 take the exact inverse-Gaussian paths, and the other
    half-integer orders the exact mixture of :func:`_gig_half_integer`
    (m11b's lambda_i at an even number of sources J >= 4, order
    (1 - J)/2). Every other order draws all elements at once, in numpy,
    with Devroye's (2014, *Stat. Comput.* 24:239-246) rejection sampler
    on the log scale (:func:`_gig_log_draws`). Its one hat serves every
    regime that Hoermann & Leydold (2014, *Stat. Comput.* 24:547-557)
    treat apart (ratio of uniforms with a mode shift for order >= 1 or
    omega > 1, without one for moderate omega, and a special hat for
    small omega at order < 1), with omega = sqrt(chi * psi) from 0 (the
    gamma limit) to large (a narrow peak). Negative orders use
    X = 1 / GIG(-order, psi, chi). Callers guarantee chi > 0 and psi > 0.
    """
    if abs(order) == 0.5:
        shape = np.broadcast(chi, psi).shape
        nu, u = np.empty(shape), np.empty(shape)
        return _gig_half_runs(order, chi, psi, gen, nu, u, ((nu, u),))
    if abs(order) % 1.0 == 0.5:
        return _gig_half_integer(order, chi, psi, gen)
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


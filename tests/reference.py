"""Reference forms that the tests compare the package against; no command runs them.

* The ``*_conditional`` functions return the parameters of each Gibbs
  conditional for one chain state. They call the private kernels that
  :func:`glsae.gibbs.sweep` calls (``_collapsed``, the moment and form
  functions, ``_ig_law``, ``_gig_law``, ``_xi_rate``), without the
  sweep's workspace buffers, so a check of a conditional against the
  joint density checks the sweep's own arithmetic.
* :func:`conditional_mean_direct` and :func:`conditional_mean_joint_solve`
  are two forms of E(mu | y, Omega) that share no step with
  :func:`glsae.summary.decompose`.
* :func:`sample_normal`, :func:`sample_halfcauchy_sq` and :func:`logpdf`
  are the normal and squared-half-Cauchy samplers and the log densities of
  the calibration checks.
* :func:`read_table` reads back a table that :func:`glsae.io.write_table`
  wrote.

Normalization conventions for :func:`logpdf` (fixed; the tests only ever
use ratios where a kernel is unnormalized):

============= =============================================================
normal        exact log density
inverse_gamma exact log density
half_cauchy   exact log density
lasso         ``-x`` (coincides with the exact Exp(1) log density)
gig           kernel ``(order-1)*log x - (chi/x + psi*x)/2``
horseshoe     kernel ``-0.5*log x - log1p(x)`` (exact minus ``log pi``)
============= =============================================================
"""

from __future__ import annotations

import math

import numpy as np

from glsae.distributions import GigParams, InverseGammaParams, _invgamma_of
from glsae.gibbs import (
    _collapsed,
    _eta_moments,
    _gig_law,
    _ig_law,
    _lambda_i_form,
    _lambda_ij_form,
    _mu_moments,
    _residuals,
    _tau1_form,
    _tau2_form,
    _theta_moments,
    _xi_rate,
)
from glsae.io import _numbered_records
from glsae.model import ChainState, ModelVariant, SourcePanel
from glsae.rng import RngStream
from glsae.summary import source_variance

# ---------------------------------------------------------------------------
# Gibbs conditionals


def eta_collapsed_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant):
    """Mean and variance of eta given only the variances (th and mu integrated out).

    Marginally ybar_i ~ N(eta, A_i + h2_i); the flat prior makes the draw a
    precision-weighted mean of the pooled area estimates.
    """
    _, _, h2, ybar, A = _collapsed(state, panel, model)
    return _eta_moments(h2, ybar, A)


def mu_collapsed_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant):
    """Mean and variance of mu given eta, y and the variances (th integrated out), each (I,)."""
    _, _, h2, ybar, A = _collapsed(state, panel, model)
    return _mu_moments(h2, ybar, A, state.eta)


def theta_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant):
    """Mean and variance of the th conditional, each (I, J)."""
    if not model.has_theta_level:
        raise ValueError("one_source has no th level")
    return _theta_moments(_collapsed(state, panel, model)[0], state.mu, panel)


def _law(prior: str, n, q, xi):
    """Conditional law of a variance scaling n normal terms with quadratic form q."""
    if prior == "lasso":
        order, chi = _gig_law(n, q)
        return GigParams(order=order, chi=chi, psi=2.0)
    shape, rate = _ig_law(n, q, xi)
    return InverseGammaParams(shape=shape, rate=rate)


def lambda_ij_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant):
    """IG (horseshoe) or GIG (lasso) parameters of lam_ij, each (I, J)."""
    r, _ = _residuals(state, model)
    return _law(model.local_prior, *_lambda_ij_form(state, model, r), state.xi_ij)


def lambda_i_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant):
    """IG (horseshoe) or GIG (lasso) parameters of lam_i, each (I,)."""
    r, d = _residuals(state, model)
    return _law(model.local_prior, *_lambda_i_form(state, panel, model, r, d), state.xi_i)


def tau1_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant) -> InverseGammaParams:
    r, _ = _residuals(state, model)
    return _law("horseshoe", *_tau1_form(state, model, r), state.xi_tau1)


def tau2_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant) -> InverseGammaParams:
    _, d = _residuals(state, model)
    return _law("horseshoe", *_tau2_form(state, d), state.xi_tau2)


def xi_conditional(lam) -> InverseGammaParams:
    """Mixing-variable conditional after a horseshoe variance draw."""
    return InverseGammaParams(shape=1.0, rate=_xi_rate(np.asarray(lam, dtype=float)))


# ---------------------------------------------------------------------------
# E(mu | y, Omega), apart from the shrinkage decomposition


def conditional_mean_direct(
    panel: SourcePanel,
    model: ModelVariant,
    lambda_ij,
    lambda_i,
    tau1_sq,
    tau2_sq,
) -> np.ndarray:
    """E(mu | y, Omega) by direct Gaussian conjugacy on the collapsed model.

    Works entirely in precision form: per-cell weights 1/(v + a), area
    precisions, then the flat-prior update of the common level. It never
    forms the shrinkage factors or pooled variances of
    :func:`glsae.summary.decompose`, so it is the independent side of the
    identity check, and it stays numerically exact at the extreme variance
    draws heavy-tailed priors produce.
    """
    v = panel.v
    y = panel.y
    lambda_i = np.asarray(lambda_i, dtype=float)
    d = 1.0 / (lambda_i * float(tau2_sq))
    if model.has_theta_level:
        a = source_variance(model, np.asarray(lambda_ij, dtype=float), lambda_i, float(tau1_sq), shape=v.shape)
        cell_w = 1.0 / (v + a)
    else:
        cell_w = 1.0 / v
    w = cell_w.sum(axis=1)            # precision of ybar_i given mu_i
    t = (y * cell_w).sum(axis=1)      # precision-weighted data total
    u = d * w / (w + d)               # precision of ybar_i given eta
    eta_hat = (u * (t / w)).sum() / u.sum()
    return (t + d * eta_hat) / (w + d)


def conditional_mean_joint_solve(
    panel: SourcePanel,
    model: ModelVariant,
    lambda_ij,
    lambda_i,
    tau1_sq,
    tau2_sq,
) -> np.ndarray:
    """E(mu | y, Omega) by assembling and solving the full (th, mu, eta) joint.

    The most structure-agnostic cross-check; accurate at moderate variance
    draws but ill-conditioned at heavy-tailed extremes, where
    :func:`conditional_mean_direct` is the reference.
    """
    v = panel.v
    y = panel.y
    I, J = v.shape
    lambda_i = np.asarray(lambda_i, dtype=float)
    b_i = lambda_i * float(tau2_sq)
    if model.has_theta_level:
        a = source_variance(model, np.asarray(lambda_ij, dtype=float), lambda_i, float(tau1_sq), shape=(I, J))
        a = np.broadcast_to(a, (I, J))
        n = I * J + I + 1
        Q = np.zeros((n, n))
        rhs = np.zeros(n)
        def th(i, j):
            return i * J + j
        mu0 = I * J
        eta0 = I * J + I
        for i in range(I):
            for j in range(J):
                Q[th(i, j), th(i, j)] += 1.0 / v[i, j] + 1.0 / a[i, j]
                Q[th(i, j), mu0 + i] -= 1.0 / a[i, j]
                Q[mu0 + i, th(i, j)] -= 1.0 / a[i, j]
                Q[mu0 + i, mu0 + i] += 1.0 / a[i, j]
                rhs[th(i, j)] += y[i, j] / v[i, j]
            Q[mu0 + i, mu0 + i] += 1.0 / b_i[i]
            Q[mu0 + i, eta0] -= 1.0 / b_i[i]
            Q[eta0, mu0 + i] -= 1.0 / b_i[i]
            Q[eta0, eta0] += 1.0 / b_i[i]
        sol = np.linalg.solve(Q, rhs)
        return sol[mu0:eta0]
    # one-source: joint over (mu, eta) only
    n = I + 1
    Q = np.zeros((n, n))
    rhs = np.zeros(n)
    for i in range(I):
        Q[i, i] += 1.0 / v[i, 0] + 1.0 / b_i[i]
        Q[i, I] -= 1.0 / b_i[i]
        Q[I, i] -= 1.0 / b_i[i]
        Q[I, I] += 1.0 / b_i[i]
        rhs[i] += y[i, 0] / v[i, 0]
    sol = np.linalg.solve(Q, rhs)
    return sol[:I]


# ---------------------------------------------------------------------------
# samplers and log densities


def sample_normal(mean, variance, rng: RngStream):
    """Draw N(mean, variance); variance may be zero (returns the mean)."""
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0) or np.any(~np.isfinite(variance)):
        raise ValueError("variance must be finite and >= 0")
    shape = np.broadcast_shapes(mean.shape, variance.shape)
    draw = mean + np.sqrt(variance) * rng.generator.standard_normal(shape)
    return float(draw) if draw.ndim == 0 else draw


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


# ---------------------------------------------------------------------------
# tables


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by :func:`glsae.io.write_table`, skipping comment lines."""
    records = [r for _, r in _numbered_records(path)]
    return records[0], records[1:]

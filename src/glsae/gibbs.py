"""Gibbs samplers for all six model variants.

Each sweep draws the Gaussian coordinates as one exact block given the
variances, then the local variances, then the global variances (the
one-source variant has no th level). Each conditional's parameters come
from one private kernel below (a moment function, or a variance's form and
law), and the sweep draws from them. The parameter functions of
``tests/reference.py`` (``*_conditional``) call the same kernels, so the
tests compare the sweep's own arithmetic against the joint density.

Gaussian block (two-source variants; a_ij is the variant's source-level
variance, A_i = lam_i * tau2_sq, and s2, h2, ybar come from
:func:`glsae.summary.collapse`, computed once per sweep):

    eta  | variances      ~ N( sum_i w_i ybar_i / sum_i w_i, 1 / sum_i w_i ),
                             w_i = 1 / (A_i + h2_i)          (th, mu integrated)
    mu_i | eta, variances ~ N( (ybar_i/h2_i + eta/A_i) / p_i, 1 / p_i ),
                             p_i = 1/h2_i + 1/A_i            (th integrated)
    th_ij | mu, else      ~ N( (y/v + mu/a) / (1/v + 1/a), 1 / (1/v + 1/a) )

For one-source, s2 = v. The block is drawn by the chain rule because
single-site updates of these coordinates random-walk badly when the data
are weakly informative (the grand mean drags all areas; small th-level
variances freeze the (th, mu) pair), which shows in the split-R-hat
protocol.

Variances (one law for all of them). With r_ij = (th_ij - mu_i)^2 and
d_i = (mu_i - eta)^2, each variance scales n normal terms whose
quadratic form, with the variance factored out, is q:

    variance   n                     q
    lam_ij     1                     r_ij / g_ij,  g_ij = a_ij / lam_ij
    lam_i      J+1 (product form)    sum_j r_ij / (lam_ij tau1_sq) + d_i / tau2_sq
               1   (otherwise)       d_i / tau2_sq
    tau1_sq    IJ                    sum_ij r_ij / u_ij,  u_ij = a_ij / tau1_sq
    tau2_sq    I                     sum_i d_i / lam_i

A horseshoe variance (the local ones of m11a, m1a and one-source, and
every global one) is drawn through the inverse-gamma scale mixture,

    var | else ~ IG(n/2 + 1/2, q/2 + 1/xi),  then  xi | var ~ IG(1, 1 + 1/var),

and a lasso variance (the local ones of m11b, m1b) from

    var | else ~ GIG(1 - n/2, max(q, 1e-30), 2).

The clamp keeps the GIG valid when q is exactly zero, a probability-zero
event in exact arithmetic. The tau rates sum over all areas/sources and
the tau2 rate uses the mu-level residual; both follow from completing the
square in the joint and are confirmed against the tests' brute-force
oracle (``tests/oracle.py``).

Draw order of one sweep (a variant skips the quantities it lacks):

    eta, mu, th                          the Gaussian block, from one standard_normal
                                         fill of 1 + I + IJ
    r and d, formed once                 no variance draw moves th, mu or eta
    lam_ij, xi_ij, lam_i, xi_i           local variances. A horseshoe variant draws its
                                         run of unit-shape gammas in one standard_gamma
                                         fill: lam_ij, xi_ij, lam_i and xi_i (m1a, 2IJ + 2I),
                                         lam_ij and xi_ij (m11a, 2IJ; its lam_i, of shape
                                         (J + 2)/2, and xi_i follow) or lam_i and xi_i
                                         (one-source, 2I). A lasso variance is one GIG
                                         draw; m1b's lam_ij and lam_i, both GIG(1/2), take
                                         their normals and uniforms in that order and
                                         form in one pass.
    tau1_sq, xi_tau1, tau2_sq, xi_tau2   global variances, one scalar draw each, as
                                         Python floats

A fill of n values consumes the stream exactly as consecutive draws of
the same law totalling n, so the order above is the order of the
variates, and every output file is pinned to it (``tests/test_golden.py``).
Each sweep works in a :class:`_Workspace` of preallocated temporaries.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import summary as _summary
from .distributions import (
    _ONE_0D, _TWO_0D, _gig_half_runs, _gig_raw, _invgamma_of, _invgamma_raw,
)
from .model import ChainState, ModelVariant, SamplerSettings, SourcePanel, init_state, unit_state, variant
from .rng import RngStream

_CHI_CLAMP = 1e-30
_CHI_CLAMP_0D = np.array(_CHI_CLAMP)  # 0-d, as numpy converts a Python-float operand on every call


class SamplerDivergence(RuntimeError):
    """A chain produced a non-finite value; carries iteration and coordinate."""


# ---------------------------------------------------------------------------
# sweep workspace


class _Workspace:
    """The temporaries of one sweep at one (variant, I, J).

    Every buffer is written before it is read within a sweep, so nothing
    carries from one sweep, or one chain, to the next, and the final op of
    each draw allocates the state field it sets: no state field is ever one
    of these buffers. The Gaussian block's standard normals (``z``) and a
    horseshoe variant's run of unit-shape gamma variates (``unit_gammas``)
    are each drawn by one fill, laid out in stream order.
    """

    def __init__(self, model: ModelVariant, I: int, J: int):
        theta = model.has_theta_level
        n = I * J if theta else 0
        self.z = np.empty(1 + I + n)  # eta, then mu, then th
        self.z_mu = self.z[1 : 1 + I]
        self.z_th = self.z[1 + I :].reshape(I, J) if theta else None
        # summary.collapse's (a, s2, w, h2, ybar, A)
        self.collapsed = (np.empty((I, J)), np.empty((I, J)), np.empty((I, J)), np.empty(I), np.empty(I), np.empty(I))
        self.mean_i, self.var_i, self.t_i, self.s_i = (np.empty(I) for _ in range(4))
        self.mean_ij, self.var_ij, self.t_ij = (np.empty((I, J)) for _ in range(3))
        self.r = np.empty((I, J)) if theta else None
        self.d = np.empty(I)
        # the local forms' q: lam_ij's cells, then lam_i's
        self.q = np.empty(I * J + I)
        self.q_ij, self.q_i = self.q[: I * J].reshape(I, J), self.q[I * J :]
        if model.local_prior == "lasso" and model.theta_variance_form == "source":
            # m1b's GIG(1/2) normals and uniforms in the same layout, as
            # _gig_half_runs takes them: lam_ij's run, then lam_i's
            self.nu, self.u = np.empty(I * J + I), np.empty(I * J + I)
            self.wald_runs = ((self.nu[: I * J], self.u[: I * J]), (self.nu[I * J :], self.u[I * J :]))
        # The horseshoe's unit-shape gammas, in stream order: those of lam_ij
        # and xi_ij, then those of lam_i and xi_i unless the product form's
        # lam_i (gamma shape (J + 2) / 2) breaks the run.
        horseshoe = model.local_prior == "horseshoe"
        n_ij = n if horseshoe and model.has_local_ij else 0
        apart = model.theta_variance_form == "product"
        self.unit_gammas = np.empty(2 * n_ij + (0 if apart or not horseshoe else 2 * I))
        g = self.unit_gammas
        self.g_ij, self.gx_ij = g[:n_ij].reshape(I, -1), g[n_ij : 2 * n_ij].reshape(I, -1)
        self.g_i, self.gx_i = (np.empty(I), np.empty(I)) if apart else (g[2 * n_ij : 2 * n_ij + I], g[2 * n_ij + I :])


@functools.cache
def _workspace(tag: str, I: int, J: int) -> _Workspace:
    """The one workspace per (variant, I, J) and process.

    Chains and sweeps run one at a time in a process, and each sweep
    rewrites what it reads.
    """
    return _Workspace(variant(tag), I, J)


# ---------------------------------------------------------------------------
# conditional parameters
#
# The sweep's reductions call np.add.reduce, which is what ndarray.sum runs
# without its Python-level wrapper, and np.reciprocal(x) is 1.0 / x to the
# bit without converting the Python 1.0, so both keep the draws' bits. Each
# function below writes its array results into the buffers it is given (the
# sweep's workspace); without them, as from the ``*_conditional`` functions
# of tests/reference.py, numpy allocates fresh ones. A ufunc gives the same
# bits either way.


def _collapsed(state: ChainState, panel: SourcePanel, model: ModelVariant, out=None) -> tuple:
    return _summary.collapse(
        panel, model, state.lambda_ij, state.lambda_i, state.tau1_sq, state.tau2_sq, out=out
    )


def _eta_moments(h2, ybar, A, w=None) -> tuple[float, float]:
    w = np.add(A, h2, out=w)
    np.reciprocal(w, out=w)
    wsum = np.add.reduce(w, None)  # numpy scalars: a zero sum gives inf, not ZeroDivisionError
    return float(np.add.reduce(np.multiply(w, ybar, out=w), None) / wsum), float(1.0 / wsum)


def _mu_moments(h2, ybar, A, eta: float, mean=None, var=None, t=None):
    prec = np.reciprocal(h2, out=var)
    t = np.reciprocal(A, out=t)
    np.add(prec, t, out=prec)
    mean = np.divide(ybar, h2, out=mean)
    np.add(mean, np.divide(eta, A, out=t), out=mean)
    np.divide(mean, prec, out=mean)
    return mean, np.reciprocal(prec, out=prec)


def _theta_moments(a, mu: np.ndarray, panel: SourcePanel, mean=None, var=None):
    prec = np.reciprocal(a, out=var)
    np.add(panel.inv_v, prec, out=prec)
    mean = np.divide(mu[:, None], a, out=mean)
    np.add(panel.y_over_v, mean, out=mean)
    np.divide(mean, prec, out=mean)
    return mean, np.reciprocal(prec, out=prec)


def _residuals(state: ChainState, model: ModelVariant, r=None, d=None):
    """Squared th-level residuals r (None without a th level) and mu-level residuals d."""
    if model.has_theta_level:
        r = np.subtract(state.theta, state.mu[:, None], out=r)
        np.square(r, out=r)
    else:
        r = None
    d = np.subtract(state.mu, state.eta, out=d)
    return r, np.square(d, out=d)


# Each form returns (n, q): the number of normal terms the variance scales
# and their quadratic form with the variance itself factored out. A local
# form's q goes into ``out`` when given (``t`` and ``u`` are scratch); the
# global forms return q as a float.


def _lambda_ij_form(state: ChainState, model: ModelVariant, r, out=None, t=None):
    if model.theta_variance_form == "product":
        scale = np.multiply(state.lambda_i, state.tau1_sq, out=t)
        return 1, np.divide(r, scale[:, None], out=out)
    return 1, np.divide(r, state.tau1_sq, out=out)


def _lambda_i_form(state: ChainState, panel: SourcePanel, model: ModelVariant, r, d, out=None, t=None, u=None):
    q = np.divide(d, state.tau2_sq, out=out)
    if model.theta_variance_form == "product":
        t = np.multiply(state.lambda_ij, state.tau1_sq, out=t)
        np.divide(r, t, out=t)
        return panel.n_sources + 1, np.add(np.add.reduce(t, 1, out=u), q, out=q)
    # lam_i enters only the mu level (source form and one-source)
    return 1, q


def _tau1_form(state: ChainState, model: ModelVariant, r):
    form = model.theta_variance_form
    if form == "product":
        r = r / (state.lambda_ij * state.lambda_i[:, None])
    elif form == "source":
        r = r / state.lambda_ij
    # the unit form's u is 1
    return r.size, float(np.add.reduce(r, None))


def _tau2_form(state: ChainState, d):
    return d.size, float(np.add.reduce(d / state.lambda_i, None))


def _ig_law(n, q, xi, out=None, t=None):
    """Shape and rate of a horseshoe variance's IG conditional; the rate forms in ``out`` when given."""
    if out is None:
        return n / 2.0 + 0.5, q / 2.0 + 1.0 / xi
    rate = np.divide(q, _TWO_0D, out=out)
    return n / 2.0 + 0.5, np.add(rate, np.reciprocal(xi, out=t), out=out)


def _gig_law(n, q, out=None):
    """Order and chi of a lasso variance's GIG conditional; psi is 2."""
    return 1.0 - n / 2.0, np.maximum(q, _CHI_CLAMP_0D, out=out)


def _xi_rate(lam, out=None):
    """Rate of the mixing variable's IG(1, rate) conditional."""
    if out is None:
        return 1.0 + 1.0 / lam
    return np.add(np.reciprocal(lam, out=out), _ONE_0D, out=out)


def _global_draw(n, q: float, xi: float, gen) -> tuple[float, float]:
    """A global variance from its horseshoe law, then its renewed xi, as Python floats."""
    shape, rate = _ig_law(n, q, xi)
    draw = _invgamma_raw(shape, rate, gen)
    return draw, _invgamma_raw(1.0, _xi_rate(draw), gen)


def _horseshoe_pair(rate, g, g_xi, t):
    """A local horseshoe variance and its renewed xi from their gamma variates g and g_xi.

    ``rate`` is the variance's IG rate; g, g_xi and the scratch t are
    overwritten, and only the two draws are fresh arrays.
    """
    draw = _invgamma_of(rate, g, out=g)
    return draw, _invgamma_of(_xi_rate(draw, out=t), g_xi, out=g_xi)


# ---------------------------------------------------------------------------
# in-place updates; each takes the chain's numpy Generator


def _normal_draw(mean, var, z):
    """mean + sqrt(var) * z, worked in ``var``; the sum is the one fresh array."""
    np.sqrt(var, out=var)
    return np.add(mean, np.multiply(var, z, out=var))


def update_gaussian_block(state: ChainState, panel: SourcePanel, model: ModelVariant, gen) -> None:
    """Draw eta, then mu given eta, then th given mu, from one set of collapsed pieces.

    None of the three draws changes a variance, so the pieces computed
    once at the top serve all of them, and one fill draws their standard
    normals in the order eta, mu, th.
    """
    ws = _workspace(model.tag, *panel.y.shape)
    a, _, h2, ybar, A = _collapsed(state, panel, model, ws.collapsed)
    z = gen.standard_normal(out=ws.z)
    mean, var = _eta_moments(h2, ybar, A, ws.t_i)
    state.eta = eta = mean + math.sqrt(var) * z.item(0)
    mean, var = _mu_moments(h2, ybar, A, eta, ws.mean_i, ws.var_i, ws.t_i)
    state.mu = mu = _normal_draw(mean, var, ws.z_mu)
    if a is not None:
        state.theta = _normal_draw(*_theta_moments(a, mu, panel, ws.mean_ij, ws.var_ij), ws.z_th)


def update_local_variances(state: ChainState, panel: SourcePanel, model: ModelVariant, r, d, gen) -> None:
    """Draw lam_ij, then lam_i, under the variant's local law (m12 keeps them at 1).

    ``r`` and ``d`` are the sweep's residuals (:func:`_residuals`). A
    horseshoe variant first draws its run of unit-shape gamma variates in
    one fill (see :class:`_Workspace`); m1b forms lam_ij and lam_i in one
    GIG(1/2) pass.
    """
    prior = model.local_prior
    if prior == "unit":
        return
    ws = _workspace(model.tag, *panel.y.shape)
    if prior == "lasso":
        n, q = _lambda_ij_form(state, model, r, ws.q_ij, ws.t_i)
        if model.theta_variance_form == "source":
            # m1b: lam_i's law (n = 1, q = d / tau2_sq) reads no lam_ij, so one
            # GIG(1/2) pass over the IJ + I cells of ws.q draws both
            _lambda_i_form(state, panel, model, r, d, ws.q_i)
            order, chi = _gig_law(n, ws.q, out=ws.q)
            draws = _gig_half_runs(order, chi, 2.0, gen, ws.nu, ws.u, ws.wald_runs)
            state.lambda_ij, state.lambda_i = draws[: q.size].reshape(q.shape), draws[q.size :]
            return
        order, chi = _gig_law(n, q, out=q)
        state.lambda_ij = _gig_raw(order, chi, 2.0, gen)
        n, q = _lambda_i_form(state, panel, model, r, d, ws.q_i, ws.t_ij, ws.s_i)
        order, chi = _gig_law(n, q, out=q)
        state.lambda_i = _gig_raw(order, chi, 2.0, gen)
        return
    gen.standard_gamma(1.0, out=ws.unit_gammas)
    if model.has_local_ij:
        n, q = _lambda_ij_form(state, model, r, ws.q_ij, ws.t_i)
        _, rate = _ig_law(n, q, state.xi_ij, out=q, t=ws.t_ij)
        state.lambda_ij, state.xi_ij = _horseshoe_pair(rate, ws.g_ij, ws.gx_ij, ws.t_ij)
    n, q = _lambda_i_form(state, panel, model, r, d, ws.q_i, ws.t_ij, ws.s_i)
    shape, rate = _ig_law(n, q, state.xi_i, out=q, t=ws.t_i)
    if model.theta_variance_form == "product":
        gen.standard_gamma(shape, out=ws.g_i)
        gen.standard_gamma(1.0, out=ws.gx_i)
    state.lambda_i, state.xi_i = _horseshoe_pair(rate, ws.g_i, ws.gx_i, ws.t_i)


def update_global_variances(state: ChainState, model: ModelVariant, r, d, gen) -> None:
    """Draw tau1_sq (with a th level), then tau2_sq, each under the horseshoe law.

    ``r`` and ``d`` are the sweep's residuals; the draws are Python floats.
    """
    if r is not None:
        state.tau1_sq, state.xi_tau1 = _global_draw(*_tau1_form(state, model, r), state.xi_tau1, gen)
    state.tau2_sq, state.xi_tau2 = _global_draw(*_tau2_form(state, d), state.xi_tau2, gen)


def sweep(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    """One full Gibbs scan: the Gaussian block, then local, then global variances.

    The residuals r and d are formed once, after the Gaussian block: no
    variance draw changes th, mu or eta.
    """
    gen = rng.generator
    update_gaussian_block(state, panel, model, gen)
    ws = _workspace(model.tag, *panel.y.shape)
    r, d = _residuals(state, model, ws.r, ws.d)
    update_local_variances(state, panel, model, r, d, gen)
    update_global_variances(state, model, r, d, gen)


# ---------------------------------------------------------------------------
# chain driver


# The sampled quantities of a chain, in recording order; a variant's
# absent fields are None in its state.
_QUANTITIES = ("mu", "theta", "eta", "lambda_ij", "lambda_i", "tau1_sq", "tau2_sq")
_VARIANCES = ("lambda_ij", "lambda_i", "tau1_sq", "tau2_sq")


def _check_finite(state: ChainState, iteration: int) -> None:
    # Runs once per sweep: one isfinite over the state's arrays, counted by
    # np.count_nonzero (which skips the reduction machinery), and one test
    # per float. Unlike a sum, neither can overflow on finite values. The
    # probe names its fields because a walk over _QUANTITIES costs a few per
    # cent of a sweep; test_probe_sees_every_sampled_field holds it to
    # _QUANTITIES for every variant, and the closing raise backs it.
    theta = state.theta
    if theta is None:  # one-source: no th level, no lam_ij
        cells = np.concatenate((state.mu, state.lambda_i))
    else:
        cells = np.concatenate((state.mu, theta.ravel(), state.lambda_ij.ravel(), state.lambda_i))
    finite = np.isfinite(cells)
    if (np.count_nonzero(finite) == finite.size and math.isfinite(state.eta)
            and math.isfinite(state.tau1_sq) and math.isfinite(state.tau2_sq)):
        return
    values = state.__dict__
    for name in _QUANTITIES:
        val = values[name]
        if val is None:
            continue
        bad = np.argwhere(~np.isfinite(np.atleast_1d(val)))
        if bad.size:
            where = f" at coordinate {tuple(bad[0].tolist())}" if np.ndim(val) else ""
            raise SamplerDivergence(f"non-finite {name}{where} on iteration {iteration}")
    raise SamplerDivergence(f"non-finite state on iteration {iteration}")


def _recorded_quantities(model: ModelVariant, monitor: frozenset[str]) -> list[str]:
    wanted = set(monitor)
    if "variances" in monitor:
        wanted.update(_VARIANCES)
    if not model.has_theta_level:
        wanted -= {"theta", "tau1_sq"}
    if not model.has_local_ij:
        wanted.discard("lambda_ij")  # m12 keeps lam_ij at 1
    return [n for n in _QUANTITIES if n in wanted]


def run_chains(
    panel: SourcePanel,
    model: ModelVariant,
    settings: SamplerSettings,
    *,
    overdispersion: float | None = None,
    stream_base: int = 0,
) -> dict[str, np.ndarray]:
    """Run ``settings.n_chains`` chains, chain c on stream ``stream_base + c``; returns their draws.

    This is the one chain driver, and it only samples. Each chain starts
    from :func:`glsae.model.init_state` and is deterministic given
    (settings.seed, its stream id); ``overdispersion`` defaults to 0.1 for
    multi-chain runs (dispersed starts) and 0 for single chains. The result
    holds one (n_chains, n_kept, ...) array per sampled quantity in
    ``settings.monitor`` ("variances" is every variance the variant
    samples), shaped by :func:`glsae.model.unit_state`, and nothing else.
    Sweep ``n_burnin + k * thin`` is recorded as kept index k, straight
    into the chain's rows.
    """
    if overdispersion is None:
        overdispersion = 0.1 if settings.n_chains > 1 else 0.0
    layout = unit_state(model, panel.n_areas, panel.n_sources)
    kept = (settings.n_chains, settings.n_kept)
    draws = {n: np.empty(kept + np.shape(getattr(layout, n))) for n in _recorded_quantities(model, settings.monitor)}
    for c in range(settings.n_chains):
        rng = RngStream(settings.seed, stream_base + c)
        state = init_state(panel, model, overdispersion, rng)
        for it in range(settings.n_iter):
            sweep(state, panel, model, rng)
            _check_finite(state, it)
            offset = it - settings.n_burnin
            if offset >= 0 and offset % settings.thin == 0:
                k = offset // settings.thin
                for n, arr in draws.items():
                    arr[c, k] = getattr(state, n)
    return draws

"""Gibbs samplers for all six model variants.

Each sweep draws the Gaussian coordinates as one exact block given the
variances, then the local variances, then the global variances (the
one-source variant has no th level). Every conditional is written below
as a parameter function (``*_conditional``), used by the verification
suite to compare the sampled kernel against the joint density; the
sweep draws from the same moments.

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
square in the joint and are confirmed against the brute-force oracle.

Draw order of one sweep (a variant skips the quantities it lacks):

    eta, mu, th                                   the Gaussian block
    r and d, formed once                          no variance draw moves th, mu or eta
    lam_ij, xi_ij, lam_i, xi_i                    local variances
    tau1_sq, xi_tau1, tau2_sq, xi_tau2            global variances, as Python floats

Each line consumes the chain's stream in that order, and every output
file is pinned to it (``tests/test_golden.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import summary as _summary
from .distributions import GigParams, InverseGammaParams, _gig_raw, _invgamma_raw
from .model import ChainState, ModelVariant, SamplerSettings, SourcePanel, init_state, unit_state
from .rng import RngStream

_CHI_CLAMP = 1e-30
_CHI_CLAMP_0D = np.array(_CHI_CLAMP)  # numpy converts a Python-float operand on every call
CHECKPOINT_FORMAT = "glsae-chain-checkpoint"
CHECKPOINT_VERSION = 2


class SamplerDivergence(RuntimeError):
    """A chain produced a non-finite value; carries iteration and coordinate."""


# ---------------------------------------------------------------------------
# conditional parameters
#
# The sweep's reductions call np.add.reduce, which is what ndarray.sum runs
# without its Python-level wrapper, and np.reciprocal(x) is 1.0 / x to the
# bit without converting the Python 1.0, so both keep the draws' bits.


def _collapsed(state: ChainState, panel: SourcePanel, model: ModelVariant) -> tuple:
    return _summary.collapse(panel, model, state.lambda_ij, state.lambda_i, state.tau1_sq, state.tau2_sq)


def _eta_moments(h2, ybar, A) -> tuple[float, float]:
    w = np.reciprocal(A + h2)
    wsum = np.add.reduce(w, None)  # numpy scalars: a zero sum gives inf, not ZeroDivisionError
    return float(np.add.reduce(w * ybar, None) / wsum), float(1.0 / wsum)


def _mu_moments(h2, ybar, A, eta: float):
    prec = np.reciprocal(h2) + np.reciprocal(A)
    mean = (ybar / h2 + eta / A) / prec
    return mean, np.reciprocal(prec)


def _theta_moments(a, mu: np.ndarray, panel: SourcePanel):
    prec = panel.inv_v + np.reciprocal(a)
    mean = (panel.y_over_v + mu[:, None] / a) / prec
    return mean, np.reciprocal(prec)


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


def _residuals(state: ChainState, model: ModelVariant):
    """Squared th-level residuals r (None without a th level) and mu-level residuals d."""
    r = (state.theta - state.mu[:, None]) ** 2 if model.has_theta_level else None
    return r, (state.mu - state.eta) ** 2


# Each form returns (n, q): the number of normal terms the variance scales
# and their quadratic form with the variance itself factored out. The
# global forms return q as a float.


def _lambda_ij_form(state: ChainState, model: ModelVariant, r):
    if model.theta_variance_form == "product":
        return 1, r / (state.lambda_i[:, None] * state.tau1_sq)
    return 1, r / state.tau1_sq


def _lambda_i_form(state: ChainState, panel: SourcePanel, model: ModelVariant, r, d):
    q = d / state.tau2_sq
    if model.theta_variance_form == "product":
        return panel.n_sources + 1, np.add.reduce(r / (state.lambda_ij * state.tau1_sq), 1) + q
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


def _ig_law(n, q, xi):
    """Shape and rate of a horseshoe variance's IG conditional."""
    return n / 2.0 + 0.5, q / 2.0 + 1.0 / xi


def _gig_law(n, q):
    """Order and chi of a lasso variance's GIG conditional; psi is 2."""
    return 1.0 - n / 2.0, np.maximum(q, _CHI_CLAMP_0D)


def _xi_rate(lam):
    """Rate of the mixing variable's IG(1, rate) conditional."""
    return 1.0 + 1.0 / lam


def _law(prior: str, n, q, xi):
    """Conditional law of a variance scaling n normal terms with quadratic form q."""
    if prior == "lasso":
        order, chi = _gig_law(n, q)
        return GigParams(order=order, chi=chi, psi=2.0)
    shape, rate = _ig_law(n, q, xi)
    return InverseGammaParams(shape=shape, rate=rate)


def _draw(prior: str, n, q, xi, gen):
    """Draw a variance from its law; returns (draw, renewed xi or None for lasso)."""
    if prior == "lasso":
        order, chi = _gig_law(n, q)
        return _gig_raw(order, chi, 2.0, gen), None
    shape, rate = _ig_law(n, q, xi)
    draw = _invgamma_raw(shape, rate, gen)
    return draw, _invgamma_raw(1.0, _xi_rate(draw), gen)


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
# in-place updates; each takes the chain's numpy Generator


def update_gaussian_block(state: ChainState, panel: SourcePanel, model: ModelVariant, gen) -> None:
    """Draw eta, then mu given eta, then th given mu, from one set of collapsed pieces.

    None of the three draws changes a variance, so the pieces computed
    once at the top serve all of them.
    """
    a, _, h2, ybar, A = _collapsed(state, panel, model)
    mean, var = _eta_moments(h2, ybar, A)
    state.eta = eta = mean + math.sqrt(var) * gen.standard_normal()
    mean, var = _mu_moments(h2, ybar, A, eta)
    state.mu = mu = mean + np.sqrt(var) * gen.standard_normal(mean.shape)
    if a is not None:
        mean, var = _theta_moments(a, mu, panel)
        state.theta = mean + np.sqrt(var) * gen.standard_normal(mean.shape)


def update_local_variances(state: ChainState, panel: SourcePanel, model: ModelVariant, r, d, gen) -> None:
    """Draw lam_ij, then lam_i, under the variant's local law (m12 keeps them at 1).

    ``r`` and ``d`` are the sweep's residuals (:func:`_residuals`).
    """
    prior = model.local_prior
    if prior == "unit":
        return
    if model.has_local_ij:
        state.lambda_ij, state.xi_ij = _draw(prior, *_lambda_ij_form(state, model, r), state.xi_ij, gen)
    state.lambda_i, state.xi_i = _draw(prior, *_lambda_i_form(state, panel, model, r, d), state.xi_i, gen)


def update_global_variances(state: ChainState, model: ModelVariant, r, d, gen) -> None:
    """Draw tau1_sq (with a th level), then tau2_sq, each under the horseshoe law.

    ``r`` and ``d`` are the sweep's residuals; the draws are Python floats.
    """
    if r is not None:
        state.tau1_sq, state.xi_tau1 = _draw("horseshoe", *_tau1_form(state, model, r), state.xi_tau1, gen)
    state.tau2_sq, state.xi_tau2 = _draw("horseshoe", *_tau2_form(state, d), state.xi_tau2, gen)


def sweep(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    """One full Gibbs scan: the Gaussian block, then local, then global variances.

    The residuals r and d are formed once, after the Gaussian block: no
    variance draw changes th, mu or eta.
    """
    gen = rng.generator
    update_gaussian_block(state, panel, model, gen)
    r, d = _residuals(state, model)
    update_local_variances(state, panel, model, r, d, gen)
    update_global_variances(state, model, r, d, gen)


# ---------------------------------------------------------------------------
# chain driver


@dataclass
class DrawStore:
    """Post-burn-in draws of the monitored quantities across chains.

    Arrays are indexed (chain, kept-iteration, ...); ``pooled`` flattens
    the chain axis.
    """

    variant: ModelVariant
    settings: SamplerSettings
    n_areas: int
    n_sources: int
    draws: dict[str, np.ndarray]

    def pooled(self, name: str) -> np.ndarray:
        arr = self.draws[name]
        return arr.reshape((-1,) + arr.shape[2:])


# The sampled quantities of a chain, in recording order; a variant's
# absent fields are None in its state.
_QUANTITIES = ("mu", "theta", "eta", "lambda_ij", "lambda_i", "tau1_sq", "tau2_sq")
_VARIANCES = ("lambda_ij", "lambda_i", "tau1_sq", "tau2_sq")


def _check_finite(state: ChainState, iteration: int) -> None:
    # Runs once per sweep, so the probe reads the instance dict and calls
    # np.add.reduce, which skips ndarray.sum's Python-level wrapper.
    values = state.__dict__
    probe = 0.0
    for name in _QUANTITIES:
        val = values[name]
        if isinstance(val, float):
            probe += val
        elif val is not None:
            probe += float(np.add.reduce(val, None))
    if math.isfinite(probe):
        return
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
    if monitor & {"variances", "phi"}:
        wanted.update(_VARIANCES)
    if not model.has_theta_level:
        wanted -= {"theta", "tau1_sq"}
    if not model.has_local_ij:
        wanted.discard("lambda_ij")  # m12 keeps lam_ij at 1
    return [n for n in _QUANTITIES if n in wanted]


def save_checkpoint(path, model: ModelVariant, state: ChainState, iteration: int, rng: RngStream) -> None:
    """Versioned structured-text checkpoint: variant, state, iteration counter, RNG state."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "variant": model.tag,
        "iteration": int(iteration),
        "state": state.to_payload(),
        "rng": {"seed": rng.seed, "stream_id": rng.stream_id, "state": rng.state()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> tuple[ModelVariant, ChainState, int, RngStream]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT or payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"not a version-{CHECKPOINT_VERSION} chain checkpoint: {path}")
    state = ChainState.from_payload(payload["state"])
    rng = RngStream(payload["rng"]["seed"], payload["rng"]["stream_id"])
    rng.set_state(payload["rng"]["state"])
    return ModelVariant(payload["variant"]), state, int(payload["iteration"]), rng


def empty_draws(panel: SourcePanel, model: ModelVariant, settings: SamplerSettings, lead=()) -> dict[str, np.ndarray]:
    """The one store allocator: an empty (*lead, n_kept, ...) array per recorded quantity, shaped by unit_state."""
    layout = unit_state(model, panel.n_areas, panel.n_sources)
    kept = (*lead, settings.n_kept)
    return {n: np.empty(kept + np.shape(getattr(layout, n))) for n in _recorded_quantities(model, settings.monitor)}


def run_chain(
    panel: SourcePanel,
    model: ModelVariant,
    settings: SamplerSettings,
    stream_id: int,
    draws: dict[str, np.ndarray],
    *,
    overdispersion: float = 0.0,
    stop_after: int | None = None,
    checkpoint_path=None,
    resume_path=None,
) -> tuple[int, int]:
    """Run one chain into ``draws`` (:func:`empty_draws` rows); returns the kept-index range filled.

    Deterministic given (settings.seed, stream_id). ``stop_after`` ends the
    run early after that many iterations (writing ``checkpoint_path`` if
    given); ``resume_path`` continues a checkpointed chain, and the two
    pieces fill exactly the draws of the uninterrupted run. A checkpoint of
    another variant, seed or stream, or one past ``settings.n_iter``, is
    refused with ``ValueError``.
    """
    if resume_path is not None:
        saved, state, start_iter, rng = load_checkpoint(resume_path)
        found, wanted = (saved.tag, rng.seed, rng.stream_id), (model.tag, settings.seed, stream_id)
        if found != wanted:
            raise ValueError(f"checkpoint {resume_path} is (variant, seed, stream) {found}, not {wanted}")
        if start_iter > settings.n_iter:
            raise ValueError(f"checkpoint {resume_path} is at iteration {start_iter}, past n_iter={settings.n_iter}")
    else:
        rng = RngStream(settings.seed, stream_id)
        state = init_state(panel, model, overdispersion, rng)
        start_iter = 0
    stop = settings.n_iter if stop_after is None else min(stop_after, settings.n_iter)

    for it in range(start_iter, stop):
        sweep(state, panel, model, rng)
        _check_finite(state, it)
        offset = it - settings.n_burnin
        if offset >= 0 and offset % settings.thin == 0:
            k = offset // settings.thin
            for n, arr in draws.items():
                arr[k] = getattr(state, n)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, state, stop, rng)
    # sweep n_burnin + k * thin is kept as index k; a piece that keeps nothing reports (0, 0)
    first, end = (-(-max(s - settings.n_burnin, 0) // settings.thin) for s in (start_iter, stop))
    return (first, end) if first < end else (0, 0)


def run_chains(
    panel: SourcePanel,
    model: ModelVariant,
    settings: SamplerSettings,
    *,
    overdispersion: float | None = None,
    stream_base: int = 0,
) -> DrawStore:
    """Run ``settings.n_chains`` chains on distinct streams and assemble a DrawStore.

    ``overdispersion`` defaults to 0.1 for multi-chain runs (dispersed
    starts) and 0 for single chains. The store comes from
    :func:`empty_draws` with a chain axis, and each chain writes its draws
    straight into its own rows; phi is then formed by
    :func:`glsae.summary.phi_draws`, so the peak is the store plus one
    (chain, kept, I, J) work buffer.
    """
    if overdispersion is None:
        overdispersion = 0.1 if settings.n_chains > 1 else 0.0
    draws = empty_draws(panel, model, settings, lead=(settings.n_chains,))
    for c in range(settings.n_chains):
        run_chain(panel, model, settings, stream_base + c, {n: a[c] for n, a in draws.items()},
                  overdispersion=overdispersion)

    if "phi" in settings.monitor:
        draws["phi"] = _summary.phi_draws(
            panel, model, draws.get("lambda_ij"), draws["lambda_i"], draws.get("tau1_sq"), draws["tau2_sq"]
        )
    if "variances" not in settings.monitor:
        for n in _VARIANCES:
            draws.pop(n, None)

    return DrawStore(
        variant=model,
        settings=settings,
        n_areas=panel.n_areas,
        n_sources=panel.n_sources,
        draws=draws,
    )

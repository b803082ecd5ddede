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
event in exact arithmetic. The draw order is lam_ij, xi_ij, lam_i, xi_i,
tau1_sq, xi_tau1, tau2_sq, xi_tau2. The tau rates sum over all
areas/sources and the tau2 rate uses the mu-level residual; both follow
from completing the square in the joint and are confirmed against the
brute-force oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import summary as _summary
from .distributions import GigParams, InverseGammaParams, _gig_raw, _invgamma_raw
from .model import ChainState, ModelVariant, SamplerSettings, SourcePanel, init_state
from .rng import RngStream

_CHI_CLAMP = 1e-30
CHECKPOINT_FORMAT = "glsae-chain-checkpoint"
CHECKPOINT_VERSION = 2


class SamplerDivergence(RuntimeError):
    """A chain produced a non-finite value; carries iteration and coordinate."""


# ---------------------------------------------------------------------------
# conditional parameters


def _collapsed(state: ChainState, panel: SourcePanel, model: ModelVariant) -> _summary.Collapsed:
    return _summary.collapse(panel, model, state.lambda_ij, state.lambda_i, state.tau1_sq, state.tau2_sq)


def _eta_moments(c: _summary.Collapsed) -> tuple[float, float]:
    w = 1.0 / (c.A + c.h2)
    wsum = w.sum()
    return float((w * c.ybar).sum() / wsum), float(1.0 / wsum)


def _mu_moments(c: _summary.Collapsed, eta: float):
    prec = 1.0 / c.h2 + 1.0 / c.A
    mean = (c.ybar / c.h2 + eta / c.A) / prec
    return mean, 1.0 / prec


def _theta_moments(c: _summary.Collapsed, mu: np.ndarray, panel: SourcePanel):
    prec = 1.0 / panel.v + 1.0 / c.a
    mean = (panel.y / panel.v + mu[:, None] / c.a) / prec
    return mean, 1.0 / prec


def eta_collapsed_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant):
    """Mean and variance of eta given only the variances (th and mu integrated out).

    Marginally ybar_i ~ N(eta, A_i + h2_i); the flat prior makes the draw a
    precision-weighted mean of the pooled area estimates.
    """
    return _eta_moments(_collapsed(state, panel, model))


def mu_collapsed_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant):
    """Mean and variance of mu given eta, y and the variances (th integrated out), each (I,)."""
    return _mu_moments(_collapsed(state, panel, model), state.eta)


def theta_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant):
    """Mean and variance of the th conditional, each (I, J)."""
    if not model.has_theta_level:
        raise ValueError("one_source has no th level")
    return _theta_moments(_collapsed(state, panel, model), state.mu, panel)


def _residuals(state: ChainState, model: ModelVariant):
    """Squared th-level residuals r (None without a th level) and mu-level residuals d."""
    r = (state.theta - state.mu[:, None]) ** 2 if model.has_theta_level else None
    return r, (state.mu - state.eta) ** 2


# Each form returns (n, q): the number of normal terms the variance scales
# and their quadratic form with the variance itself factored out.


def _lambda_ij_form(state: ChainState, model: ModelVariant, r):
    if model.theta_variance_form == "product":
        g = state.lambda_i[:, None] * state.tau1_sq
    else:
        g = state.tau1_sq
    return 1, r / g


def _lambda_i_form(state: ChainState, panel: SourcePanel, model: ModelVariant, r, d):
    q = d / state.tau2_sq
    if model.theta_variance_form == "product":
        return panel.n_sources + 1, (r / (state.lambda_ij * state.tau1_sq)).sum(axis=1) + q
    # lam_i enters only the mu level (source form and one-source)
    return 1, q


def _tau1_form(state: ChainState, model: ModelVariant, r):
    form = model.theta_variance_form
    if form == "product":
        u = state.lambda_ij * state.lambda_i[:, None]
    elif form == "source":
        u = state.lambda_ij
    else:
        u = 1.0
    return r.size, (r / u).sum()


def _tau2_form(state: ChainState, d):
    return d.size, (d / state.lambda_i).sum()


def _law(prior: str, n, q, xi):
    """Conditional law of a variance scaling n normal terms with quadratic form q."""
    if prior == "lasso":
        return GigParams(order=1.0 - n / 2.0, chi=np.maximum(q, _CHI_CLAMP), psi=2.0)
    return InverseGammaParams(shape=n / 2.0 + 0.5, rate=q / 2.0 + 1.0 / xi)


def _draw(prior: str, n, q, xi, gen):
    """Draw a variance from its law; returns (draw, renewed xi or None for lasso)."""
    law = _law(prior, n, q, xi)
    if prior == "lasso":
        return _gig_raw(law.order, law.chi, law.psi, gen), None
    draw = _invgamma_raw(law.shape, law.rate, gen)
    mix = xi_conditional(draw)
    return draw, _invgamma_raw(mix.shape, mix.rate, gen)


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
    return InverseGammaParams(shape=1.0, rate=1.0 + 1.0 / np.asarray(lam, dtype=float))


# ---------------------------------------------------------------------------
# in-place updates


def update_gaussian_block(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    """Draw eta, then mu given eta, then th given mu, from one set of collapsed pieces.

    None of the three draws changes a variance, so the pieces computed
    once at the top serve all of them.
    """
    gen = rng.generator
    c = _collapsed(state, panel, model)
    mean, var = _eta_moments(c)
    state.eta = mean + math.sqrt(var) * float(gen.standard_normal())
    mean, var = _mu_moments(c, state.eta)
    state.mu = mean + np.sqrt(var) * gen.standard_normal(mean.shape)
    if model.has_theta_level:
        mean, var = _theta_moments(c, state.mu, panel)
        state.theta = mean + np.sqrt(var) * gen.standard_normal(mean.shape)


def update_local_variances(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    """Draw lam_ij, then lam_i, under the variant's local law (m12 keeps them at 1)."""
    prior = model.local_prior
    if prior == "unit":
        return
    gen = rng.generator
    r, d = _residuals(state, model)
    if model.has_local_ij:
        state.lambda_ij, state.xi_ij = _draw(prior, *_lambda_ij_form(state, model, r), state.xi_ij, gen)
    state.lambda_i, state.xi_i = _draw(prior, *_lambda_i_form(state, panel, model, r, d), state.xi_i, gen)


def update_global_variances(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    """Draw tau1_sq (with a th level), then tau2_sq, each under the horseshoe law."""
    gen = rng.generator
    r, d = _residuals(state, model)
    if r is not None:
        tau, xi = _draw("horseshoe", *_tau1_form(state, model, r), state.xi_tau1, gen)
        state.tau1_sq, state.xi_tau1 = float(tau), float(xi)
    tau, xi = _draw("horseshoe", *_tau2_form(state, d), state.xi_tau2, gen)
    state.tau2_sq, state.xi_tau2 = float(tau), float(xi)


def sweep(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    """One full Gibbs scan: the Gaussian block, then local, then global variances."""
    update_gaussian_block(state, panel, model, rng)
    update_local_variances(state, panel, model, rng)
    update_global_variances(state, panel, model, rng)


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


def run_chain(
    panel: SourcePanel,
    model: ModelVariant,
    settings: SamplerSettings,
    stream_id: int,
    *,
    overdispersion: float = 0.0,
    stop_after: int | None = None,
    checkpoint_path=None,
    resume_path=None,
) -> tuple[dict[str, np.ndarray], tuple[int, int]]:
    """Run one chain; returns recorded draws and the kept-index range filled.

    Deterministic given (settings.seed, stream_id). ``stop_after`` ends the
    run early after that many iterations (writing ``checkpoint_path`` if
    given); ``resume_path`` continues a checkpointed chain, and the two
    pieces concatenate to exactly the uninterrupted run. A checkpoint of
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

    names = _recorded_quantities(model, settings.monitor)
    recorded = {n: np.zeros((settings.n_kept,) + np.shape(getattr(state, n))) for n in names}

    k_first = None
    k_last = -1
    for it in range(start_iter, stop):
        sweep(state, panel, model, rng)
        _check_finite(state, it)
        offset = it - settings.n_burnin
        if offset >= 0 and offset % settings.thin == 0:
            k = offset // settings.thin
            if k_first is None:
                k_first = k
            k_last = k
            for n in names:
                val = getattr(state, n)
                recorded[n][k] = val
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, state, stop, rng)
    if k_first is None:
        k_first = 0
        k_last = -1
    return recorded, (k_first, k_last + 1)


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
    starts) and 0 for single chains.
    """
    if settings.n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    if overdispersion is None:
        overdispersion = 0.1 if settings.n_chains > 1 else 0.0
    per_chain = [
        run_chain(panel, model, settings, stream_base + c, overdispersion=overdispersion)[0]
        for c in range(settings.n_chains)
    ]

    names = _recorded_quantities(model, settings.monitor)
    draws = {n: np.stack([pc[n] for pc in per_chain], axis=0) for n in names}

    if "phi" in settings.monitor:
        lam_ij = draws.get("lambda_ij")
        dec = _summary.decompose(
            panel,
            model,
            lam_ij,
            draws["lambda_i"],
            draws["tau1_sq"] if "tau1_sq" in draws else np.ones(draws["lambda_i"].shape[:2]),
            draws["tau2_sq"],
        )
        draws["phi"] = dec.phi
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

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

Horseshoe local variances (via the inverse-gamma scale mixture):

    lam_ij | else ~ IG(1, r_ij/(2 g_ij) + 1/xi_ij)
        with r_ij = (th_ij - mu_i)^2 and g_ij the co-factor of lam_ij in
        a_ij (g = lam_i * tau1_sq for the product form, tau1_sq for the
        source form)
    lam_i  | else ~ IG((J+4)/2 - 1, sum_j r_ij/(2 lam_ij tau1_sq)
                                    + (mu_i-eta)^2/(2 tau2_sq) + 1/xi_i)
        for the product form; when lam_i enters only the mu level (source
        form, one-source) the th-level sum drops and the shape becomes 1.
    xi | lam ~ IG(1, 1 + 1/lam) after each horseshoe draw.

Lasso local variances:

    lam_ij | else ~ GIG(1/2, r_ij / (g_ij), 2)
    lam_i  | else ~ GIG((1-J)/2, sum_j r_ij/(lam_ij tau1_sq)
                                 + (mu_i-eta)^2/tau2_sq, 2)   (product form)
    lam_i  | else ~ GIG(1/2, (mu_i-eta)^2/tau2_sq, 2)         (source form)

A GIG chi of exactly zero with nonpositive order is a probability-zero
event in exact arithmetic; it is clamped to 1e-30 to keep the draw valid.

Global variances (horseshoe in every variant):

    tau1_sq | else ~ IG((IJ+3)/2 - 1, sum_ij r_ij/(2 u_ij) + 1/xi_t1)
        with u_ij = a_ij / tau1_sq (the local part of the variance)
    tau2_sq | else ~ IG((I+3)/2 - 1, sum_i (mu_i-eta)^2/(2 lam_i) + 1/xi_t2)
    xi | tau ~ IG(1, 1 + 1/tau) after each draw.

The tau rates sum over all areas/sources and the tau2 rate uses the
mu-level residual; both follow from completing the square in the joint
and are confirmed against the brute-force oracle.
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
CHECKPOINT_VERSION = 1


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


def _theta_residual_sq(state: ChainState) -> np.ndarray:
    return (state.theta - state.mu[:, None]) ** 2


def lambda_ij_horseshoe_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant) -> InverseGammaParams:
    r = _theta_residual_sq(state)
    if model.theta_variance_form == "product":
        g = state.lambda_i[:, None] * state.tau1_sq
    else:
        g = state.tau1_sq
    return InverseGammaParams(shape=1.0, rate=r / (2.0 * g) + 1.0 / state.xi_ij)


def lambda_i_horseshoe_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant) -> InverseGammaParams:
    mu_term = (state.mu - state.eta) ** 2 / (2.0 * state.tau2_sq)
    if model.theta_variance_form == "product":
        r = _theta_residual_sq(state)
        th_term = (r / (2.0 * state.lambda_ij * state.tau1_sq)).sum(axis=1)
        shape = (panel.n_sources + 4.0) / 2.0 - 1.0
        return InverseGammaParams(shape=shape, rate=th_term + mu_term + 1.0 / state.xi_i)
    # lam_i enters only the mu level (source form and one-source)
    return InverseGammaParams(shape=1.0, rate=mu_term + 1.0 / state.xi_i)


def lambda_ij_lasso_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant) -> GigParams:
    r = _theta_residual_sq(state)
    if model.theta_variance_form == "product":
        g = state.lambda_i[:, None] * state.tau1_sq
    else:
        g = state.tau1_sq
    chi = np.maximum(r / g, _CHI_CLAMP)
    return GigParams(order=0.5, chi=chi, psi=2.0)


def lambda_i_lasso_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant) -> GigParams:
    mu_term = (state.mu - state.eta) ** 2 / state.tau2_sq
    if model.theta_variance_form == "product":
        r = _theta_residual_sq(state)
        chi = (r / (state.lambda_ij * state.tau1_sq)).sum(axis=1) + mu_term
        order = (1.0 - panel.n_sources) / 2.0
    else:
        chi = mu_term
        order = 0.5
    return GigParams(order=order, chi=np.maximum(chi, _CHI_CLAMP), psi=2.0)


def tau1_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant) -> InverseGammaParams:
    I, J = panel.v.shape
    r = _theta_residual_sq(state)
    form = model.theta_variance_form
    if form == "product":
        u = state.lambda_ij * state.lambda_i[:, None]
    elif form == "source":
        u = state.lambda_ij
    else:
        u = 1.0
    rate = (r / (2.0 * u)).sum() + 1.0 / state.xi_tau1
    return InverseGammaParams(shape=(I * J + 3.0) / 2.0 - 1.0, rate=rate)


def tau2_conditional(state: ChainState, panel: SourcePanel, model: ModelVariant) -> InverseGammaParams:
    I = panel.n_areas
    rate = ((state.mu - state.eta) ** 2 / (2.0 * state.lambda_i)).sum() + 1.0 / state.xi_tau2
    return InverseGammaParams(shape=(I + 3.0) / 2.0 - 1.0, rate=rate)


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


def update_local_variances_horseshoe(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    if model.local_prior != "horseshoe":
        raise ValueError(f"{model.tag} does not use horseshoe local variances")
    gen = rng.generator
    if model.has_local_ij:
        cond = lambda_ij_horseshoe_conditional(state, panel, model)
        state.lambda_ij = _invgamma_raw(cond.shape, cond.rate, gen)
        state.xi_ij = _invgamma_raw(1.0, 1.0 + 1.0 / state.lambda_ij, gen)
    cond = lambda_i_horseshoe_conditional(state, panel, model)
    state.lambda_i = _invgamma_raw(cond.shape, cond.rate, gen)
    state.xi_i = _invgamma_raw(1.0, 1.0 + 1.0 / state.lambda_i, gen)


def update_local_variances_lasso(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    if model.local_prior != "lasso":
        raise ValueError(f"{model.tag} does not use lasso local variances")
    gen = rng.generator
    cond = lambda_ij_lasso_conditional(state, panel, model)
    state.lambda_ij = _gig_raw(cond.order, cond.chi, cond.psi, gen)
    cond = lambda_i_lasso_conditional(state, panel, model)
    state.lambda_i = _gig_raw(cond.order, cond.chi, cond.psi, gen)


def update_local_variances(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    prior = model.local_prior
    if prior == "horseshoe":
        update_local_variances_horseshoe(state, panel, model, rng)
    elif prior == "lasso":
        update_local_variances_lasso(state, panel, model, rng)
    # unit form: lam fixed at 1, nothing to draw


def update_global_variances(state: ChainState, panel: SourcePanel, model: ModelVariant, rng: RngStream) -> None:
    gen = rng.generator
    if model.has_theta_level:
        cond = tau1_conditional(state, panel, model)
        state.tau1_sq = float(_invgamma_raw(cond.shape, cond.rate, gen))
        state.xi_tau1 = float(_invgamma_raw(1.0, 1.0 + 1.0 / state.tau1_sq, gen))
    cond = tau2_conditional(state, panel, model)
    state.tau2_sq = float(_invgamma_raw(cond.shape, cond.rate, gen))
    state.xi_tau2 = float(_invgamma_raw(1.0, 1.0 + 1.0 / state.tau2_sq, gen))


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

    @property
    def n_chains(self) -> int:
        return next(iter(self.draws.values())).shape[0]

    @property
    def n_kept(self) -> int:
        return next(iter(self.draws.values())).shape[1]


def _check_finite(state: ChainState, model: ModelVariant, iteration: int) -> None:
    probe = float(state.mu.sum()) + state.eta + state.tau2_sq + float(state.lambda_i.sum())
    if model.has_theta_level:
        probe += float(state.theta.sum()) + state.tau1_sq
        if state.lambda_ij is not None:
            probe += float(state.lambda_ij.sum())
    if math.isfinite(probe):
        return
    for name in ("theta", "mu", "lambda_ij", "lambda_i"):
        arr = getattr(state, name)
        if arr is None:
            continue
        bad = np.argwhere(~np.isfinite(np.asarray(arr)))
        if bad.size:
            raise SamplerDivergence(f"non-finite {name} at coordinate {tuple(bad[0])} on iteration {iteration}")
    for name in ("eta", "tau1_sq", "tau2_sq"):
        val = getattr(state, name)
        if val is not None and not math.isfinite(val):
            raise SamplerDivergence(f"non-finite {name} on iteration {iteration}")
    raise SamplerDivergence(f"non-finite state on iteration {iteration}")


def _recorded_quantities(model: ModelVariant, monitor: frozenset[str]) -> list[str]:
    names: list[str] = []
    if "mu" in monitor:
        names.append("mu")
    if "theta" in monitor and model.has_theta_level:
        names.append("theta")
    if "eta" in monitor:
        names.append("eta")
    if "variances" in monitor or "phi" in monitor:
        if model.has_local_ij:
            names.append("lambda_ij")
        names.append("lambda_i")
        if model.has_theta_level:
            names.append("tau1_sq")
        names.append("tau2_sq")
    return names


def save_checkpoint(path, state: ChainState, iteration: int, rng: RngStream) -> None:
    """Versioned structured-text checkpoint: state, iteration counter, RNG state."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "iteration": int(iteration),
        "state": state.to_payload(),
        "rng": {"seed": rng.seed, "stream_id": rng.stream_id, "state": rng.state()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> tuple[ChainState, int, RngStream]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT or payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"not a version-{CHECKPOINT_VERSION} chain checkpoint: {path}")
    state = ChainState.from_payload(payload["state"])
    rng = RngStream(payload["rng"]["seed"], payload["rng"]["stream_id"])
    rng.set_state(payload["rng"]["state"])
    return state, int(payload["iteration"]), rng


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
    pieces concatenate to exactly the uninterrupted run.
    """
    if resume_path is not None:
        state, start_iter, rng = load_checkpoint(resume_path)
    else:
        rng = RngStream(settings.seed, stream_id)
        state = init_state(panel, model, overdispersion, rng)
        start_iter = 0
    stop = settings.n_iter if stop_after is None else min(stop_after, settings.n_iter)

    names = _recorded_quantities(model, settings.monitor)
    I, J = panel.n_areas, panel.n_sources
    shapes = {
        "mu": (I,), "theta": (I, J), "eta": (), "lambda_ij": (I, J),
        "lambda_i": (I,), "tau1_sq": (), "tau2_sq": (),
    }
    recorded = {n: np.zeros((settings.n_kept,) + shapes[n]) for n in names}

    k_first = None
    k_last = -1
    for it in range(start_iter, stop):
        sweep(state, panel, model, rng)
        _check_finite(state, model, it)
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
        save_checkpoint(checkpoint_path, state, stop, rng)
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
        for n in ("lambda_ij", "lambda_i", "tau1_sq", "tau2_sq"):
            draws.pop(n, None)

    return DrawStore(
        variant=model,
        settings=settings,
        n_areas=panel.n_areas,
        n_sources=panel.n_sources,
        draws=draws,
    )

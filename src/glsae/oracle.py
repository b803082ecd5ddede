"""Brute-force posterior oracle for tiny instances.

Two independent pieces back every Gibbs conditional:

* :func:`log_joint` evaluates the exact joint log density (likelihood plus
  prior kernels) of a chain state under a variant. The heavy-tailed
  variance priors enter through their marginal density
  ``f(u) = u**-0.5 / (pi * (1 + u))`` (the inverse-gamma mixing variables
  integrated out analytically), so the oracle shares no derivation step
  with the Gibbs conditionals. ``include_aux=True`` switches to the
  augmented representation (mixture terms with the state's xi values),
  which is what the variance conditionals are kernels of.

* :func:`metropolis_posterior` samples the posterior of a tiny instance by
  adaptive-scale random-walk Metropolis, vectorized across independent
  walkers, with variances moved to the log scale (Jacobian included).
  Proposal adaptation runs only during the tuning phase, so the kept draws
  come from a fixed kernel. Monte Carlo standard errors come from the
  spread of per-walker means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChainState, ModelVariant, SourcePanel, unit_state, variant as _variant
from .rng import RngStream

_LOG_2PI = math.log(2.0 * math.pi)


class OracleTuningError(RuntimeError):
    """Random-walk acceptance rate left [0.1, 0.5] despite tuning."""


@dataclass(frozen=True)
class TinyInstance:
    """A panel small enough for the Metropolis oracle (I <= 4, J <= 2)."""

    panel: SourcePanel
    variant: ModelVariant

    def __post_init__(self):
        if self.panel.n_areas > 4 or self.panel.n_sources > 2:
            raise ValueError("oracle instances are limited to I <= 4, J <= 2")


def tiny_battery() -> list[SourcePanel]:
    """The fixed three-panel battery used by the verification suite."""
    p1 = SourcePanel(
        areas=("a1", "a2"),
        sources=("s1", "s2"),
        y=[[0.22, 0.26], [0.31, 0.24]],
        v=[[0.0040, 0.0020], [0.0030, 0.0060]],
    )
    p2 = SourcePanel(
        areas=("a1", "a2", "a3"),
        sources=("s1", "s2"),
        y=[[0.18, 0.21], [0.27, 0.34], [0.24, 0.22]],
        v=[[0.0050, 0.0010], [0.0020, 0.0040], [0.0080, 0.0030]],
    )
    p3 = SourcePanel(
        areas=("a1", "a2", "a3", "a4"),
        sources=("s1", "s2"),
        y=[[0.21, 0.25], [0.29, 0.27], [0.35, 0.30], [0.17, 0.20]],
        v=[[0.0040, 0.0015], [0.0060, 0.0025], [0.0020, 0.0050], [0.0090, 0.0035]],
    )
    return [p1, p2, p3]


# ---------------------------------------------------------------------------
# joint density


def _norm_logpdf_sum(x, mean, var, axes) -> np.ndarray:
    return (-0.5 * (_LOG_2PI + np.log(var)) - (x - mean) ** 2 / (2.0 * var)).sum(axis=axes)


def _horseshoe_log_marginal(u, axes) -> np.ndarray:
    # density of the square of a standard half-Cauchy: u^-1/2 / (pi (1+u))
    return (-0.5 * np.log(u) - np.log1p(u) - math.log(math.pi)).sum(axis=axes)


def _lasso_log(u, axes) -> np.ndarray:
    return (-u).sum(axis=axes)


def _ig_logpdf(x, shape, rate):
    return shape * np.log(rate) - math.lgamma(shape) - (shape + 1.0) * np.log(x) - rate / x


def _log_joint_arrays(
    panel: SourcePanel,
    model: ModelVariant,
    theta,
    mu,
    eta,
    lambda_ij,
    lambda_i,
    tau1_sq,
    tau2_sq,
) -> np.ndarray:
    """Joint log density, vectorized over any leading axes of the inputs.

    Scalar blocks (eta, tau) have shape (...,); matrix blocks (..., I, J).
    Heavy-tailed variance priors enter in marginal form.
    """
    y, v = panel.y, panel.v
    lp = 0.0
    mat_axes = (-2, -1)
    vec_axes = (-1,)
    if model.has_theta_level:
        a = _source_var_arrays(model, lambda_ij, lambda_i, tau1_sq, v.shape)
        lp = lp + _norm_logpdf_sum(y, theta, v, mat_axes)
        lp = lp + _norm_logpdf_sum(theta, mu[..., :, None], a, mat_axes)
    else:
        lp = lp + _norm_logpdf_sum(y[:, 0], mu, v[:, 0], vec_axes)
    b = lambda_i * tau2_sq[..., None]
    lp = lp + _norm_logpdf_sum(mu, eta[..., None], b, vec_axes)
    # flat prior on eta contributes nothing
    if model.local_prior == "horseshoe":
        if model.has_local_ij:
            lp = lp + _horseshoe_log_marginal(lambda_ij, mat_axes)
        lp = lp + _horseshoe_log_marginal(lambda_i, vec_axes)
    elif model.local_prior == "lasso":
        lp = lp + _lasso_log(lambda_ij, mat_axes)
        lp = lp + _lasso_log(lambda_i, vec_axes)
    if model.has_theta_level:
        lp = lp + _horseshoe_log_marginal(tau1_sq[..., None], vec_axes)
    lp = lp + _horseshoe_log_marginal(tau2_sq[..., None], vec_axes)
    return lp


def _source_var_arrays(model, lambda_ij, lambda_i, tau1_sq, shape):
    form = model.theta_variance_form
    t1 = tau1_sq[..., None, None]
    if form == "product":
        return lambda_ij * lambda_i[..., :, None] * t1
    if form == "source":
        return lambda_ij * t1
    return np.broadcast_to(t1, t1.shape[:-2] + tuple(shape))


def log_joint(state: ChainState, panel: SourcePanel, model: ModelVariant, include_aux: bool = False) -> float:
    """Exact joint log density of a state (unnormalized; -inf off support).

    With ``include_aux`` the horseshoe-distributed variances use the
    augmented scale-mixture terms evaluated at the state's xi values
    instead of the marginal density; the Gibbs variance updates are full
    conditionals of exactly that augmented joint.
    """
    arrays = [state.mu, state.lambda_i, state.tau1_sq, state.tau2_sq]
    if model.has_theta_level:
        arrays += [state.theta, state.lambda_ij]
    for arr in arrays:
        if arr is None or not np.all(np.isfinite(np.asarray(arr, dtype=float))):
            return -math.inf
    if (
        np.any(np.asarray(state.lambda_i) <= 0)
        or state.tau2_sq <= 0
        or (model.has_theta_level and (state.tau1_sq <= 0 or np.any(np.asarray(state.lambda_ij) <= 0)))
    ):
        return -math.inf

    lp = float(
        _log_joint_arrays(
            panel,
            model,
            None if state.theta is None else np.asarray(state.theta, dtype=float),
            np.asarray(state.mu, dtype=float),
            np.asarray(state.eta, dtype=float),
            None if state.lambda_ij is None else np.asarray(state.lambda_ij, dtype=float),
            np.asarray(state.lambda_i, dtype=float),
            np.asarray(state.tau1_sq, dtype=float),
            np.asarray(state.tau2_sq, dtype=float),
        )
    )
    if not include_aux:
        return lp

    # swap each marginal horseshoe term for its mixture representation
    def mix(lam, xi):
        lam = np.asarray(lam, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if np.any(xi <= 0):
            return -math.inf
        return float(np.sum(_ig_logpdf(lam, 0.5, 1.0 / xi) + _ig_logpdf(xi, 0.5, 1.0)))

    if model.local_prior == "horseshoe":
        if model.has_local_ij:
            lp -= float(_horseshoe_log_marginal(np.asarray(state.lambda_ij), (-2, -1)))
            lp += mix(state.lambda_ij, state.xi_ij)
        lp -= float(_horseshoe_log_marginal(np.asarray(state.lambda_i), (-1,)))
        lp += mix(state.lambda_i, state.xi_i)
    if model.has_theta_level:
        lp -= float(_horseshoe_log_marginal(np.asarray([state.tau1_sq]), (-1,)))
        lp += mix(state.tau1_sq, state.xi_tau1)
    lp -= float(_horseshoe_log_marginal(np.asarray([state.tau2_sq]), (-1,)))
    lp += mix(state.tau2_sq, state.xi_tau2)
    return lp


# ---------------------------------------------------------------------------
# coordinate layout for the walker state


@dataclass(frozen=True)
class CoordLayout:
    """Flat walker coordinates: means in natural space, variances in log space."""

    model: ModelVariant
    n_areas: int
    n_sources: int
    blocks: tuple[tuple[str, int], ...]
    names: tuple[str, ...]

    @classmethod
    def build(cls, model: ModelVariant, I: int, J: int) -> "CoordLayout":
        blocks: list[tuple[str, int]] = []
        if model.has_theta_level:
            blocks.append(("theta", I * J))
        blocks.append(("mu", I))
        blocks.append(("eta", 1))
        if model.has_local_ij:
            blocks.append(("log_lambda_ij", I * J))
        if model.local_prior != "unit":
            blocks.append(("log_lambda_i", I))
        if model.has_theta_level:
            blocks.append(("log_tau1_sq", 1))
        blocks.append(("log_tau2_sq", 1))
        names: list[str] = []
        for name, size in blocks:
            if size == 1:
                names.append(name)
            elif name in ("theta", "log_lambda_ij"):
                names.extend(f"{name}[{i},{j}]" for i in range(I) for j in range(J))
            else:
                names.extend(f"{name}[{i}]" for i in range(size))
        return cls(model=model, n_areas=I, n_sources=J, blocks=tuple(blocks), names=tuple(names))

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    def slices(self) -> dict[str, slice]:
        out = {}
        k = 0
        for name, size in self.blocks:
            out[name] = slice(k, k + size)
            k += size
        return out

    def split(self, z: np.ndarray) -> dict[str, np.ndarray]:
        """Natural-space blocks from walker coordinates (..., dim)."""
        I, J = self.n_areas, self.n_sources
        sl = self.slices()
        out: dict[str, np.ndarray] = {}
        for name, _ in self.blocks:
            block = z[..., sl[name]]
            if name.startswith("log_"):
                block = np.exp(block)
                name = name[4:]
            if name in ("theta", "lambda_ij"):
                block = block.reshape(block.shape[:-1] + (I, J))
            elif name in ("eta", "tau1_sq", "tau2_sq"):
                block = block[..., 0]
            out[name] = block
        return out

    def log_jacobian(self, z: np.ndarray) -> np.ndarray:
        """Sum of log-variance coordinates (du = u dz change of variables)."""
        sl = self.slices()
        total = np.zeros(z.shape[:-1])
        for name, _ in self.blocks:
            if name.startswith("log_"):
                total = total + z[..., sl[name]].sum(axis=-1)
        return total

    def to_state(self, z: np.ndarray) -> ChainState:
        """Materialize a single coordinate vector as a ChainState (xi set to 1)."""
        state = unit_state(self.model, self.n_areas, self.n_sources)
        for name, block in self.split(z).items():
            setattr(state, name, block.copy() if block.ndim else float(block))
        return state


def _log_post_z(z: np.ndarray, panel: SourcePanel, layout: CoordLayout) -> np.ndarray:
    parts = layout.split(z)
    model = layout.model
    I, J = layout.n_areas, layout.n_sources
    lp = _log_joint_arrays(
        panel,
        model,
        parts.get("theta"),
        parts["mu"],
        parts["eta"],
        parts.get("lambda_ij"),
        parts.get("lambda_i", np.ones(z.shape[:-1] + (I,))),
        parts.get("tau1_sq", np.ones(z.shape[:-1])),
        parts["tau2_sq"],
    )
    return lp + layout.log_jacobian(z)


# ---------------------------------------------------------------------------
# random-walk Metropolis


@dataclass
class OracleResult:
    layout: CoordLayout
    mean: np.ndarray          # (dim,)
    sd: np.ndarray            # (dim,)
    mcse: np.ndarray          # (dim,)
    acceptance: float
    draws: np.ndarray         # (walkers, kept, dim), thinned, post burn-in

    def block(self, name: str) -> slice:
        return self.layout.slices()[name]

    @property
    def mu_mean(self) -> np.ndarray:
        return self.mean[self.block("mu")]

    @property
    def mu_mcse(self) -> np.ndarray:
        return self.mcse[self.block("mu")]


def _initial_walkers(panel, layout, n_walkers, gen):
    I, J = layout.n_areas, layout.n_sources
    w = 1.0 / panel.v
    mu0 = (panel.y * w).sum(axis=1) / w.sum(axis=1)
    center = []
    for name, size in layout.blocks:
        if name == "theta":
            center.append(panel.y.reshape(-1))
        elif name == "mu":
            center.append(mu0)
        elif name == "eta":
            center.append(np.array([mu0.mean()]))
        else:
            center.append(np.zeros(size))
    z0 = np.concatenate(center)
    Z = np.tile(z0, (n_walkers, 1))
    sl = layout.slices()
    for name, _ in layout.blocks:
        spread = 0.5 if name.startswith("log_") else 0.02
        Z[:, sl[name]] += gen.normal(0.0, spread, size=Z[:, sl[name]].shape)
    return Z


def metropolis_posterior(
    instance: TinyInstance,
    n_iter: int,
    rng: RngStream,
    *,
    n_walkers: int = 48,
    n_tune: int | None = None,
    thin: int = 25,
    target_accept: float = 0.25,
) -> OracleResult:
    """Posterior means/sds/MCSEs for a tiny instance by random-walk Metropolis.

    ``n_iter`` counts post-tuning iterations per walker; the tuning phase
    (default ``n_iter // 3``) adapts a global proposal scale toward
    ``target_accept`` and a diagonal preconditioner from the walker spread,
    then freezes both. Raises :class:`OracleTuningError` if the frozen
    kernel's acceptance rate leaves [0.1, 0.5].
    """
    panel, model = instance.panel, instance.variant
    layout = CoordLayout.build(model, panel.n_areas, panel.n_sources)
    gen = rng.generator
    if n_tune is None:
        n_tune = max(500, n_iter // 3)

    Z = _initial_walkers(panel, layout, n_walkers, gen)
    lp = _log_post_z(Z, panel, layout)
    D = layout.dim
    step = np.full(D, 0.1)
    log_scale = math.log(2.38 / math.sqrt(D))

    def attempt(Z, lp, scale_vec):
        prop = Z + scale_vec * gen.standard_normal(Z.shape)
        lp_prop = _log_post_z(prop, panel, layout)
        accept = np.log(gen.random(Z.shape[0])) < (lp_prop - lp)
        Z = np.where(accept[:, None], prop, Z)
        lp = np.where(accept, lp_prop, lp)
        return Z, lp, accept.mean()

    # tuning phase: Robbins-Monro on the global scale, walker-spread preconditioner
    for t in range(n_tune):
        Z, lp, acc = attempt(Z, lp, math.exp(log_scale) * step)
        log_scale += (acc - target_accept) / max(20.0, (t + 1) ** 0.6)
        if t > 0 and t % 200 == 0:
            spread = Z.std(axis=0, ddof=1)
            step = np.clip(spread, 1e-4, 20.0)

    n_kept = n_iter // thin
    draws = np.empty((n_walkers, n_kept, D))
    acc_total = 0.0
    kept = 0
    scale_vec = math.exp(log_scale) * step
    for t in range(n_iter):
        Z, lp, acc = attempt(Z, lp, scale_vec)
        acc_total += acc
        if (t + 1) % thin == 0 and kept < n_kept:
            draws[:, kept, :] = Z
            kept += 1
    acceptance = acc_total / n_iter
    if not 0.1 <= acceptance <= 0.5:
        raise OracleTuningError(f"acceptance {acceptance:.3f} outside [0.1, 0.5] after tuning")

    draws = draws[:, :kept, :]
    natural = _to_natural(draws, layout)
    walker_means = natural.mean(axis=1)
    mean = natural.reshape(-1, D).mean(axis=0)
    sd = natural.reshape(-1, D).std(axis=0, ddof=1)
    mcse = walker_means.std(axis=0, ddof=1) / math.sqrt(n_walkers)
    return OracleResult(layout=layout, mean=mean, sd=sd, mcse=mcse, acceptance=acceptance, draws=draws)


def _to_natural(draws: np.ndarray, layout: CoordLayout) -> np.ndarray:
    """Map log-variance coordinates back to natural space, keeping the flat layout."""
    natural = draws.copy()
    sl = layout.slices()
    for name, _ in layout.blocks:
        if name.startswith("log_"):
            natural[..., sl[name]] = np.exp(natural[..., sl[name]])
    return natural


def make_instance(panel: SourcePanel, tag: str) -> TinyInstance:
    """Battery panel + variant tag, reducing to the first source for one_source."""
    model = _variant(tag)
    if not model.has_theta_level and panel.n_sources > 1:
        panel = panel.select_source(0)
    return TinyInstance(panel=panel, variant=model)

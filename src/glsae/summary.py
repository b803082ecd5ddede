"""Posterior summaries: shrinkage decomposition, credible intervals, weights.

Conditioned on the variances Omega = (local variances, global variances,
sampling variances), the conditional posterior mean of each area mean
decomposes as

    E(mu_i | y, Omega) = phi_i * ybar_i + (1 - phi_i) * ybar_w

with, per draw,

    A_i     = lam_i * tau2_sq                 across-area variability
    s2_ij   = v_ij + a_ij                     collapsed source variance
    h2_i    = 1 / sum_j (1 / s2_ij)           within-area variability
    phi_i   = A_i / (A_i + h2_i)              overall shrinkage factor
    ybar_i  = sum_j (y_ij/s2_ij) / sum_j (1/s2_ij)
    ybar_w  = sum_i (ybar_i/(A_i+h2_i)) / sum_i (1/(A_i+h2_i))

(`s2`/`h2` are deliberate renames: the symbols usually written for them
collide with the mixing variables and the grand mean used elsewhere.)
For the one-source variant the decomposition degenerates to the classic
two-level form with s2_i = v_i.

Quantile convention: equal-tailed intervals use linear interpolation of
order statistics (numpy default). Fixed so that interval widths are
comparable across models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelVariant, SourcePanel


@dataclass(frozen=True)
class ShrinkageDecomposition:
    """Per-draw shrinkage quantities; arrays broadcast over leading draw axes."""

    A: np.ndarray        # (..., I)
    s2: np.ndarray       # (..., I, J)
    h2: np.ndarray       # (..., I)
    phi: np.ndarray      # (..., I)
    ybar: np.ndarray     # (..., I)
    ybar_w: np.ndarray   # (...)
    cond_mean: np.ndarray  # (..., I)


def source_variance(
    model: ModelVariant,
    lambda_ij,
    lambda_i,
    tau1_sq,
    shape: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The source-level variance a_ij implied by the variant structure.

    A float ``tau1_sq`` is one draw, with the lambdas given as arrays (the
    sampler's case); otherwise every argument may carry leading draw axes.
    ``out``, when given, receives a in place. ``shape`` supplies (I, J)
    for the unit form, whose variance carries no local factors.
    """
    form = model.theta_variance_form
    if form not in ("product", "source", "unit"):
        raise ValueError(f"variant {model.tag} has no source-level variance")
    if form == "unit" and shape is None:
        raise ValueError("unit form needs an explicit (I, J) shape")
    if isinstance(tau1_sq, float):
        if form == "unit":
            a = np.empty(shape) if out is None else out
            a.fill(tau1_sq)
            return a
        tau1 = tau1_sq
    else:
        tau1 = np.asarray(tau1_sq, dtype=float)[..., None, None]
        if form == "unit":
            return np.add(np.broadcast_to(tau1, tau1.shape[:-2] + tuple(shape)), 0.0, out=out)
        lambda_ij = np.asarray(lambda_ij)
        lambda_i = np.asarray(lambda_i)
    if form == "product":
        lambda_ij = np.multiply(lambda_ij, lambda_i[..., None], out=out)
    return np.multiply(lambda_ij, tau1, out=out)


def _weights_and_h2(s2, out: np.ndarray | None = None, h2_out: np.ndarray | None = None):
    """Cell weights w = 1/s2 (into ``out`` when given) and h2 = 1 / sum_j w (into ``h2_out``).

    np.reciprocal is 1.0 / s2 to the bit, as in glsae.gibbs; this is the
    one place h2 is formed, for the sampler and for the phi draws alike.
    """
    w = np.reciprocal(s2, out=out)
    h2 = np.add.reduce(w, -1, out=h2_out)
    return w, np.reciprocal(h2, out=h2)


def collapse(
    panel: SourcePanel,
    model: ModelVariant,
    lambda_ij,
    lambda_i,
    tau1_sq,
    tau2_sq,
    out: tuple | None = None,
) -> tuple:
    """(a, s2, h2, ybar, A) for one draw or a batch of draws.

    Integrating th (where present) gives y_ij | mu_i ~ N(mu_i, s2_ij), so
    ybar_i | mu_i ~ N(mu_i, h2_i). a is None without a th level, where
    s2 = v and h2, ybar are the panel constants ``h2_v``, ``ybar_v``. One
    draw (the sampler's case) is array lambdas with float taus; a batch
    gives ``lambda_i`` (..., I) and the taus (...) as arrays (see
    :func:`decompose`). ybar is formed as the weighted total times h2, the
    arithmetic the sampler's draws are pinned to. ``out``, for one draw, is
    a tuple of buffers (a, s2, w, h2, ybar, A) that receive the pieces in
    place, w being scratch for the weights 1/s2; without a th level only
    A's is used.
    """
    a_out, s2_out, w_out, h2_out, ybar_out, A_out = out or (None,) * 6
    if not isinstance(tau2_sq, float):
        tau2_sq = np.asarray(tau2_sq, dtype=float)[..., None]
    A = np.multiply(lambda_i, tau2_sq, out=A_out)
    v = panel.v
    if not model.has_theta_level:
        if A.ndim == 1:
            return None, v, panel.h2_v, panel.ybar_v, A
        # a batch sees the panel constants as read-only views
        s2 = np.broadcast_to(v, A.shape[:-1] + v.shape)
        return None, s2, np.broadcast_to(panel.h2_v, A.shape), np.broadcast_to(panel.ybar_v, A.shape), A
    a = source_variance(model, lambda_ij, lambda_i, tau1_sq, shape=v.shape, out=a_out)
    s2 = np.add(v, a, out=s2_out)
    w, h2 = _weights_and_h2(s2, out=w_out, h2_out=h2_out)
    ybar = np.add.reduce(np.multiply(panel.y, w, out=w), -1, out=ybar_out)
    return a, s2, h2, np.multiply(ybar, h2, out=ybar), A


def decompose(
    panel: SourcePanel,
    model: ModelVariant,
    lambda_ij,
    lambda_i,
    tau1_sq,
    tau2_sq,
) -> ShrinkageDecomposition:
    """Shrinkage decomposition for one draw or a batch of draws.

    ``lambda_i`` has shape (..., I), ``lambda_ij`` (..., I, J) (ignored for
    the unit and one-source forms), ``tau1_sq``/``tau2_sq`` shape (...).
    """
    if lambda_ij is not None:
        lambda_ij = np.asarray(lambda_ij, dtype=float)
    lambda_i = np.asarray(lambda_i, dtype=float)
    _, s2, h2, ybar, A = collapse(panel, model, lambda_ij, lambda_i, tau1_sq, tau2_sq)
    phi = A / (A + h2)
    pool_w = 1.0 / (A + h2)
    ybar_w = (ybar * pool_w).sum(axis=-1) / pool_w.sum(axis=-1)
    cond_mean = phi * ybar + (1.0 - phi) * ybar_w[..., None]
    return ShrinkageDecomposition(A=A, s2=s2, h2=h2, phi=phi, ybar=ybar, ybar_w=ybar_w, cond_mean=cond_mean)


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
    forms the shrinkage factors or pooled variances of :func:`decompose`,
    so it is the independent side of the identity check, and it stays
    numerically exact at the extreme variance draws heavy-tailed priors
    produce.
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


# Draws per block when phi and the kappa mean are formed from a run's
# draws: their work buffers hold (DRAW_BLOCK, I, J) values, whatever the
# number of draws.
DRAW_BLOCK = 256


def phi_draws(
    panel: SourcePanel,
    model: ModelVariant,
    lambda_ij,
    lambda_i,
    tau1_sq,
    tau2_sq,
) -> np.ndarray:
    """phi = A / (A + h2) for a batch of draws, bit-identical to ``decompose(...).phi``.

    Takes the arguments of :func:`decompose` (``tau1_sq`` is ignored
    without a th level), each carrying every leading draw axis, but forms
    only phi. The draws are worked in blocks
    of at most :data:`DRAW_BLOCK` along their flattened leading axes. Each
    block's (block, I, J) work runs in one buffer, overwritten in place
    from a to v + a to 1/s2 before the sum over sources; its h2 and
    A + h2 share one (block, I) buffer, and A becomes phi in place.
    """
    lambda_i = np.asarray(lambda_i, dtype=float)
    A = lambda_i * np.asarray(tau2_sq, dtype=float)[..., None]
    v = panel.v
    I, J = v.shape
    phi = A.reshape(-1, I)
    n = len(phi)
    den = np.empty((min(n, DRAW_BLOCK), I))
    if model.has_theta_level:
        # one row per draw
        lambda_i = lambda_i.reshape(-1, I)
        if lambda_ij is not None:
            lambda_ij = np.asarray(lambda_ij, dtype=float).reshape(-1, I, J)
        tau1_sq = np.asarray(tau1_sq, dtype=float).reshape(-1)
        s2 = np.empty(den.shape + (J,))
    for start in range(0, n, DRAW_BLOCK):
        block = slice(start, start + DRAW_BLOCK)
        a = phi[block]
        d = den[: len(a)]
        if model.has_theta_level:
            b = s2[: len(a)]
            lij = None if lambda_ij is None else lambda_ij[block]
            source_variance(model, lij, lambda_i[block], tau1_sq[block], shape=v.shape, out=b)
            np.add(v, b, out=b)
            _weights_and_h2(b, out=b, h2_out=d)
            np.add(a, d, out=d)
        else:
            np.add(a, panel.h2_v, out=d)
        np.divide(a, d, out=a)
    return A


def kappa_weights(panel: SourcePanel, lambda_ij, tau1_sq) -> np.ndarray:
    """Source-level shrinkage weights v / (v + lam_ij * tau1_sq).

    Defined for the source-form variants (m1a/m1b), where the weight
    controls how far each source estimate is pulled toward its area mean.
    Broadcasts over leading draw axes of ``lambda_ij``/``tau1_sq``; the
    batch is formed in one buffer, overwritten in place.
    """
    t = np.asarray(tau1_sq, dtype=float)[..., None, None]
    buf = np.multiply(lambda_ij, t)
    np.add(panel.v, buf, out=buf)
    return np.divide(panel.v, buf, out=buf)


@dataclass(frozen=True)
class QuantitySummary:
    mean: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _pooled(draws: np.ndarray) -> np.ndarray:
    """(chain, kept, ...) draws with the chain axis flattened into the kept axis."""
    return draws.reshape((-1,) + draws.shape[2:])


def summarize(draws: np.ndarray, level: float = 0.95) -> QuantitySummary:
    """Pooled posterior mean, sd and equal-tailed interval of one quantity's (chain, kept, ...) draws."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    draws = _pooled(draws)
    if draws.size == 0:
        raise ValueError("no draws to summarize")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(draws, [alpha, 1.0 - alpha], axis=0, method="linear")
    return QuantitySummary(
        mean=draws.mean(axis=0),
        sd=draws.std(axis=0, ddof=1),
        lower=lo,
        upper=hi,
    )


def phi_distribution(phi: np.ndarray) -> np.ndarray:
    """Five-number summary (min, q1, median, q3, max) per area of (chain, kept, I) phi draws, (I, 5)."""
    qs = np.quantile(_pooled(phi), [0.0, 0.25, 0.5, 0.75, 1.0], axis=0, method="linear")
    return qs.T

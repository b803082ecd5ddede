"""Domain types: observed panels, the six model variants, and chain state.

The hierarchy for a two-source variant is

    y[i,j] | th[i,j]          ~ N(th[i,j], v[i,j])        (v fixed, known)
    th[i,j] | mu[i], ...      ~ N(mu[i], a[i,j])
    mu[i] | eta, ...          ~ N(eta, lam_i[i] * tau2_sq)
    eta                       ~ flat

where the source-level variance a[i,j] depends on the variant:

    m11a/m11b   a = lam_ij * lam_i * tau1_sq     ("product" form)
    m1a/m1b     a = lam_ij * tau1_sq             ("source" form)
    m12         a = tau1_sq, lam_ij = lam_i = 1  ("unit" form)

m11a/m1a put the squared-half-Cauchy (horseshoe) law on the local
variances; m11b/m1b use the exponential (lasso) law. All variants keep
the horseshoe law on the global variances tau1_sq and tau2_sq. The
one-source variant drops the th level entirely:

    y[i] | mu[i] ~ N(mu[i], v[i]),  mu[i] | eta ~ N(eta, lam_i * tau2_sq)

with horseshoe laws on lam_i and tau2_sq (tau2_sq playing the single
global variance).

SourcePanel and ModelVariant are immutable and shareable across workers;
a ChainState is owned by exactly one chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import RngStream

VARIANT_TAGS = ("m11a", "m11b", "m1a", "m1b", "m12", "one_source")

_LOCAL_PRIOR = {
    "m11a": "horseshoe",
    "m11b": "lasso",
    "m1a": "horseshoe",
    "m1b": "lasso",
    "m12": "unit",
    "one_source": "horseshoe",
}
_THETA_FORM = {
    "m11a": "product",
    "m11b": "product",
    "m1a": "source",
    "m1b": "source",
    "m12": "unit",
    "one_source": "none",
}


@dataclass(frozen=True)
class ModelVariant:
    """One of the six model variants, with its derived structure.

    The structure is read a dozen times per sweep, so each property is
    computed once per instance and then read from the instance dict.
    """

    tag: str

    def __post_init__(self):
        if self.tag not in VARIANT_TAGS:
            raise ValueError(f"unknown variant tag {self.tag!r}; expected one of {VARIANT_TAGS}")

    @cached_property
    def local_prior(self) -> str:
        """Law on the local variances: horseshoe | lasso | unit."""
        return _LOCAL_PRIOR[self.tag]

    @cached_property
    def theta_variance_form(self) -> str:
        """Source-level variance structure: product | source | unit | none."""
        return _THETA_FORM[self.tag]

    @cached_property
    def has_theta_level(self) -> bool:
        return self.tag != "one_source"

    @cached_property
    def has_local_ij(self) -> bool:
        """Whether lam_ij exists as a sampled quantity."""
        return self.theta_variance_form in ("product", "source")


def variant(tag: str) -> ModelVariant:
    """Variant factory accepting CLI spellings (``one-source`` == ``one_source``)."""
    return ModelVariant(tag.strip().lower().replace("-", "_"))


@dataclass(frozen=True)
class SourcePanel:
    """Observed per-area, per-source point estimates and sampling variances.

    ``y`` and ``v`` are (I, J) arrays on the proportion scale; ``v`` holds
    fixed, known sampling variances. No missing cells. The constructor
    refuses a panel that breaks an invariant with one ``ValueError`` that
    lists every problem and names the offending cells.

    The sampler's panel constants are computed once, read-only, from y
    and v: ``inv_v`` = 1/v and ``y_over_v`` = y/v (the data terms of the
    th conditional), and ``h2_v``/``ybar_v``, the collapsed h2 and ybar
    at s2 = v (the one-source variant's, which has no th level), formed
    with the arithmetic of :func:`glsae.summary.collapse`.
    """

    areas: tuple[str, ...]
    sources: tuple[str, ...]
    y: np.ndarray
    v: np.ndarray
    inv_v: np.ndarray = field(init=False, repr=False, compare=False)
    y_over_v: np.ndarray = field(init=False, repr=False, compare=False)
    h2_v: np.ndarray = field(init=False, repr=False, compare=False)
    ybar_v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        v = np.array(self.v, dtype=float)
        areas = tuple(str(a) for a in self.areas)
        sources = tuple(str(s) for s in self.sources)
        problems = _panel_problems(areas, sources, y, v)
        if problems:
            raise ValueError("; ".join(problems))
        inv_v = 1.0 / v
        h2_v = 1.0 / inv_v.sum(axis=-1)
        derived = {"inv_v": inv_v, "y_over_v": y / v, "h2_v": h2_v, "ybar_v": (y * inv_v).sum(axis=-1) * h2_v}
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "sources", sources)
        for name, arr in {"y": y, "v": v, **derived}.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_areas(self) -> int:
        return len(self.areas)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def select_source(self, j: int) -> "SourcePanel":
        """Single-source view (columns j), used by the one-source variant."""
        return SourcePanel(self.areas, (self.sources[j],), self.y[:, [j]], self.v[:, [j]])


def _panel_problems(areas: tuple, sources: tuple, y: np.ndarray, v: np.ndarray) -> list[str]:
    """Every panel invariant that (areas, sources, y, v) break; empty when the panel is valid."""
    if y.ndim != 2 or y.shape != v.shape:
        return [f"y {y.shape} and v {v.shape} must be equal 2-d shapes"]
    I, J = y.shape
    problems = []
    if I != len(areas) or J != len(sources):
        problems.append("area/source labels do not match matrix dimensions")
    if I < 2:
        problems.append(f"need at least 2 areas, got {I}")
    if J < 1:
        problems.append("need at least 1 source")
    if len(set(areas)) != len(areas):
        problems.append("duplicate area ids")
    if len(set(sources)) != len(sources):
        problems.append("duplicate source ids")
    problems += [f"estimate at {(int(i), int(j))} is not finite" for i, j in np.argwhere(~np.isfinite(y))]
    problems += [f"sampling variance at {(int(i), int(j))} must be > 0"
                 for i, j in np.argwhere(~(np.isfinite(v) & (v > 0)))]
    # 1/v overflows to inf for the smaller subnormals, so every subnormal v is refused
    problems += [f"sampling variance at {(int(i), int(j))} is below the smallest normal float"
                 for i, j in np.argwhere((v > 0) & (v < np.finfo(float).tiny))]
    return problems


@dataclass
class ChainState:
    """Full latent state of one Gibbs chain.

    Variance fields are strictly positive. For m12 the local variances are
    fixed at 1 and never updated; for one_source the th level is absent
    (``theta`` and ``lambda_ij`` are None) and ``tau2_sq`` plays the single
    global variance. ``xi_*`` are the inverse-gamma mixing variables, present
    only for horseshoe-distributed variances. :func:`unit_state` decides
    which fields a variant carries.
    """

    mu: np.ndarray
    eta: float
    lambda_i: np.ndarray
    tau1_sq: float
    tau2_sq: float
    theta: np.ndarray | None = None
    lambda_ij: np.ndarray | None = None
    xi_ij: np.ndarray | None = None
    xi_i: np.ndarray | None = None
    xi_tau1: float | None = None
    xi_tau2: float = 1.0


def unit_state(model: ModelVariant, n_areas: int, n_sources: int) -> ChainState:
    """The variant's state layout: means at 0, every variance and mixing variable at 1.

    This is the one place that decides which fields a variant carries:
    th and lam_ij exist with a th level (lam_ij stays at 1 for m12), and
    the xi of a variance exists when that variance is horseshoe-distributed.
    """
    I, J = n_areas, n_sources
    theta_level = model.has_theta_level
    if not theta_level and J != 1:
        raise ValueError("one_source needs a single-source panel; use SourcePanel.select_source")
    horseshoe = model.local_prior == "horseshoe"
    return ChainState(
        mu=np.zeros(I),
        eta=0.0,
        lambda_i=np.ones(I),
        tau1_sq=1.0,
        tau2_sq=1.0,
        theta=np.zeros((I, J)) if theta_level else None,
        lambda_ij=np.ones((I, J)) if theta_level else None,
        xi_ij=np.ones((I, J)) if (horseshoe and model.has_local_ij) else None,
        xi_i=np.ones(I) if horseshoe else None,
        xi_tau1=1.0 if theta_level else None,
        xi_tau2=1.0,
    )


# The sampled quantities a chain can record; "variances" is every variance
# the variant samples. Derived quantities such as phi are formed from these.
MONITORABLE = frozenset({"mu", "theta", "variances", "eta"})


@dataclass(frozen=True)
class SamplerSettings:
    """Gibbs run configuration.

    Defaults follow the point-estimation protocol (one chain of 18000
    sweeps, 3000 burn-in). ``monitor`` names the sampled quantities to
    record, a subset of ``MONITORABLE``.
    """

    seed: int
    n_iter: int = 18000
    n_burnin: int = 3000
    n_chains: int = 1
    thin: int = 1
    monitor: frozenset[str] = frozenset({"mu", "eta", "variances"})

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        for option, value in (("--iters", self.n_iter), ("--chains", self.n_chains), ("--thin", self.thin)):
            if value < 1:
                raise ValueError(f"{option} must be >= 1, got {value}")
        if not 0 <= self.n_burnin < self.n_iter:
            raise ValueError(f"--burnin must be >= 0 and below --iters ({self.n_iter}), got {self.n_burnin}")
        unknown = set(self.monitor) - MONITORABLE
        if unknown:
            raise ValueError(f"unknown monitored quantities: {sorted(unknown)}")
        object.__setattr__(self, "monitor", frozenset(self.monitor))

    @property
    def n_kept(self) -> int:
        return (self.n_iter - self.n_burnin + self.thin - 1) // self.thin


def init_state(
    panel: SourcePanel,
    model: ModelVariant,
    overdispersion: float,
    rng: RngStream,
) -> ChainState:
    """Data-anchored starting state, laid out by :func:`unit_state`.

    th starts at the observations, mu at the precision-weighted source
    mean per area, eta at the mean of mu; all variances start at 1. A
    positive ``overdispersion`` adds N(0, overdispersion^2) jitter to mu
    and eta so that multiple chains start dispersed (split-R-hat protocol).
    """
    if overdispersion < 0:
        raise ValueError("overdispersion must be >= 0")
    y, v = panel.y, panel.v
    state = unit_state(model, *y.shape)
    w = 1.0 / v
    state.mu = (y * w).sum(axis=1) / w.sum(axis=1)
    state.eta = float(state.mu.mean())
    if overdispersion > 0:
        gen = rng.generator
        state.mu = state.mu + gen.normal(0.0, overdispersion, size=state.mu.shape)
        state.eta = state.eta + float(gen.normal(0.0, overdispersion))
    if model.has_theta_level:
        state.theta = y.copy()
    return state

"""Synthetic-panel generation for the six evaluation cases.

Cases 1-4 draw, per replicate,

    mu_i  = 0.25 + N(0, g2_mu),   th_ij = mu_i + N(0, g2_th),
    y_ij  = th_ij + N(0, v_ij)

where each variance g2 follows either the outlier law (delta * t11^2 with
delta ~ Bernoulli(p)) or the mixture law (delta * t21^2 + (1-delta) *
t22^2, t22 = 0.05 by default). Case 1 is outlier/outlier, case 2 mixture
(mu) with outlier (th), case 3 mixture/mixture, case 4 outlier (mu) with
mixture (th). Scales in the spec grids are standard deviations and are
squared here.

The Bernoulli indicators are drawn independently per unit by default (per
area at the mu level, per (area, source) at the th level); set
``delta_scope="panel"`` for a single indicator per level per replicate.

Cases 5 and 6 use source-specific th laws:

    mu_i ~ N(0.25, tau^2), th_i1 ~ N(mu_i, tau_1^2),
    th_i2 ~ N(mu_i, delta_i * tau_2^2), delta_i ~ Bernoulli(p) per area,

with case 6 the p = 1 special case.

Sampling variances are fixed across replicates (the observed-variance
convention); the J = 4 preliminary mode instead bootstraps them per
replicate from a pooled set of observed values. When no observed
variances are supplied, a documented synthetic pool stands in:
log-uniform over [1e-5, 1e-2], seed 20100.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import SourcePanel
from .rng import RngStream

SYNTHETIC_POOL_SEED = 20100
MIXTURE_SMALL_SCALE = 0.05


@dataclass(frozen=True)
class LevelSpec:
    """Variance law for one level: outlier or mixture."""

    kind: str  # outlier | mixture
    p: float = 0.0
    tau11: float = 0.0
    tau21: float = 0.0
    tau22: float = MIXTURE_SMALL_SCALE

    def __post_init__(self):
        if self.kind not in ("outlier", "mixture"):
            raise ValueError(f"unknown level kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if min(self.tau11, self.tau21, self.tau22) < 0:
            raise ValueError("scales must be nonnegative")

    def draw_variance(self, size, gen) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit variances and the Bernoulli flags that produced them."""
        delta = (gen.random(size) < self.p).astype(np.int64)
        if self.kind == "outlier":
            return delta * self.tau11**2, delta
        return delta * self.tau21**2 + (1 - delta) * self.tau22**2, delta


@dataclass(frozen=True)
class Case5Params:
    tau: float
    tau1: float
    p: float
    tau2: float


@dataclass(frozen=True)
class SimSpec:
    """One row of an evaluation grid."""

    case_id: int
    row: int
    theta_level: LevelSpec | None
    mu_level: LevelSpec | None
    eta: float = 0.25
    n_areas: int = 62
    n_sources: int = 2
    case5: Case5Params | None = None
    delta_scope: str = "unit"
    v: np.ndarray | None = None
    v_pool: np.ndarray | None = None
    params: dict = field(default_factory=dict)  # raw grid values, for table output

    def __post_init__(self):
        if self.case_id not in range(1, 7):
            raise ValueError("case_id must be 1..6")
        if self.delta_scope not in ("unit", "panel"):
            raise ValueError("delta_scope must be 'unit' or 'panel'")
        if self.case_id in (5, 6):
            if self.case5 is None:
                raise ValueError("cases 5 and 6 need case5 parameters")
            if self.n_sources != 2:
                raise ValueError("cases 5 and 6 are two-source designs")
        elif self.theta_level is None or self.mu_level is None:
            raise ValueError("cases 1-4 need theta_level and mu_level")
        if (self.v is None) == (self.v_pool is None):
            raise ValueError("exactly one of v (fixed matrix) or v_pool (bootstrap) must be set")
        if self.v is not None and self.v.shape != (self.n_areas, self.n_sources):
            raise ValueError("fixed v matrix has the wrong shape")


@dataclass(frozen=True)
class SimPanel:
    panel: SourcePanel
    truth_mu: np.ndarray
    truth_theta: np.ndarray
    aberration_flags: dict[str, np.ndarray]


def synthetic_v_pool(n_areas: int = 62, n_sources: int = 2, seed: int = SYNTHETIC_POOL_SEED) -> np.ndarray:
    """Stand-in sampling variances: log-uniform over [1e-5, 1e-2], fixed seed.

    Each area's draws are assigned to sources in descending order, so
    source 1 carries the largest sampling variance. That mirrors the
    observed two-source regime (the direct telephone-survey source has
    much larger standard errors than the model-based one), which the
    one-vs-two-source comparisons depend on.
    """
    gen = RngStream(seed, 0).generator
    lo, hi = np.log(1e-5), np.log(1e-2)
    v = np.exp(gen.uniform(lo, hi, size=(n_areas, n_sources)))
    return np.sort(v, axis=1)[:, ::-1].copy()


def bootstrap_v(v_pool: np.ndarray, n_areas: int, n_sources: int, rng: RngStream) -> np.ndarray:
    """I x J i.i.d. resample (with replacement) from the pooled variances."""
    pool = np.asarray(v_pool, dtype=float).reshape(-1)
    if pool.size == 0:
        raise ValueError("empty variance pool")
    idx = rng.generator.integers(0, pool.size, size=(n_areas, n_sources))
    return pool[idx]


def generate(spec: SimSpec, replicate_id: int, rng: RngStream) -> SimPanel:
    """One synthetic replicate; deterministic given the stream."""
    gen = rng.generator
    I, J = spec.n_areas, spec.n_sources
    v = spec.v if spec.v is not None else bootstrap_v(spec.v_pool, I, J, rng)

    if spec.case_id in (5, 6):
        c5 = spec.case5
        p = 1.0 if spec.case_id == 6 else c5.p
        mu = spec.eta + gen.normal(0.0, c5.tau, size=I)
        delta = (gen.random(I) < p).astype(np.int64)
        theta = np.empty((I, 2))
        theta[:, 0] = mu + c5.tau1 * gen.standard_normal(I)
        theta[:, 1] = mu + np.sqrt(delta * c5.tau2**2) * gen.standard_normal(I)
        flags = {"source2": delta}
    else:
        mu_size = I if spec.delta_scope == "unit" else 1
        th_size = (I, J) if spec.delta_scope == "unit" else (1, 1)
        g2_mu, d_mu = spec.mu_level.draw_variance(mu_size, gen)
        g2_th, d_th = spec.theta_level.draw_variance(th_size, gen)
        g2_mu = np.broadcast_to(g2_mu, (I,))
        g2_th = np.broadcast_to(g2_th, (I, J))
        mu = spec.eta + np.sqrt(g2_mu) * gen.standard_normal(I)
        theta = mu[:, None] + np.sqrt(g2_th) * gen.standard_normal((I, J))
        flags = {"mu": np.broadcast_to(d_mu, (I,)).copy(), "theta": np.broadcast_to(d_th, (I, J)).copy()}

    y = theta + np.sqrt(v) * gen.standard_normal((I, J))
    areas = tuple(f"area{i+1:02d}" for i in range(I))
    sources = tuple(f"src{j+1}" for j in range(J))
    return SimPanel(
        panel=SourcePanel(areas, sources, y, v),
        truth_mu=mu,
        truth_theta=theta,
        aberration_flags=flags,
    )


# ---------------------------------------------------------------------------
# evaluation grids


def _case1_grid():
    probs = [(0.1, 0.1), (0.2, 0.2), (0.4, 0.4), (0.1, 0.2), (0.2, 0.1)]
    scales = [(0.025, 0.025), (0.05, 0.05), (0.1, 0.1), (0.2, 0.2), (0.05, 0.1), (0.1, 0.05)]
    for p_mu, p_th in probs:
        for t_mu, t_th in scales:
            yield {"p2_mu": p_mu, "p2_theta": p_th, "tau11_mu": t_mu, "tau11_theta": t_th}


def _case2_grid():
    scales = [(0.1, 0.05), (0.1, 0.1), (0.1, 0.2), (0.2, 0.05), (0.2, 0.1), (0.2, 0.2)]
    for p_mu in (0.1, 0.2):
        for p_th in (0.1, 0.2, 0.4):
            for t_mu, t_th in scales:
                yield {"p1_mu": p_mu, "p2_theta": p_th, "tau21_mu": t_mu, "tau11_theta": t_th}


def _case3_grid():
    probs = [(0.1, 0.1), (0.2, 0.2), (0.1, 0.2), (0.2, 0.1)]
    scales = [(0.1, 0.1), (0.2, 0.2), (0.4, 0.4), (0.2, 0.4), (0.4, 0.2)]
    for p_mu, p_th in probs:
        for t_mu, t_th in scales:
            yield {"p1_mu": p_mu, "p1_theta": p_th, "tau21_mu": t_mu, "tau21_theta": t_th}


def _case4_grid():
    for p_mu in (0.1, 0.2):
        for t_mu in (0.05, 0.1, 0.2):
            for p_th in (0.1, 0.2):
                for t_th in (0.1, 0.2, 0.4):
                    yield {"p2_mu": p_mu, "tau11_mu": t_mu, "p1_theta": p_th, "tau21_theta": t_th}


def _case5_grid():
    for tau1 in (0.005, 0.01):
        for p in (0.1, 0.2, 0.4):
            for tau2 in (0.05, 0.1, 0.2):
                yield {"tau": 0.05, "tau1": tau1, "p": p, "tau2": tau2}


def _case6_grid():
    for tau1 in (0.005, 0.01):
        for tau2 in (0.01, 0.02, 0.05, 0.1, 0.2, 0.4):
            yield {"tau": 0.05, "tau1": tau1, "tau2": tau2}


_GRIDS = {1: _case1_grid, 2: _case2_grid, 3: _case3_grid, 4: _case4_grid, 5: _case5_grid, 6: _case6_grid}


def _spec_from_params(case_id: int, row: int, params: dict, **kw) -> SimSpec:
    if case_id == 1:
        theta = LevelSpec("outlier", p=params["p2_theta"], tau11=params["tau11_theta"])
        mu = LevelSpec("outlier", p=params["p2_mu"], tau11=params["tau11_mu"])
        return SimSpec(case_id, row, theta, mu, params=params, **kw)
    if case_id == 2:
        theta = LevelSpec("outlier", p=params["p2_theta"], tau11=params["tau11_theta"])
        mu = LevelSpec("mixture", p=params["p1_mu"], tau21=params["tau21_mu"])
        return SimSpec(case_id, row, theta, mu, params=params, **kw)
    if case_id == 3:
        theta = LevelSpec("mixture", p=params["p1_theta"], tau21=params["tau21_theta"])
        mu = LevelSpec("mixture", p=params["p1_mu"], tau21=params["tau21_mu"])
        return SimSpec(case_id, row, theta, mu, params=params, **kw)
    if case_id == 4:
        theta = LevelSpec("mixture", p=params["p1_theta"], tau21=params["tau21_theta"])
        mu = LevelSpec("outlier", p=params["p2_mu"], tau11=params["tau11_mu"])
        return SimSpec(case_id, row, theta, mu, params=params, **kw)
    c5 = Case5Params(
        tau=params["tau"], tau1=params["tau1"],
        p=params.get("p", 1.0), tau2=params["tau2"],
    )
    return SimSpec(case_id, row, None, None, case5=c5, params=params, **kw)


def spec_table(
    case_id: int,
    *,
    n_areas: int = 62,
    n_sources: int = 2,
    v: np.ndarray | None = None,
    v_pool: np.ndarray | None = None,
    delta_scope: str = "unit",
) -> list[SimSpec]:
    """The full specification grid for a case (30/36/20/36/18/12 rows)."""
    if case_id not in _GRIDS:
        raise ValueError(f"unknown case {case_id}")
    if v is None and v_pool is None:
        v = synthetic_v_pool(n_areas, n_sources)
    return [
        _spec_from_params(
            case_id, row, params,
            n_areas=n_areas, n_sources=n_sources,
            v=v, v_pool=v_pool, delta_scope=delta_scope,
        )
        for row, params in enumerate(_GRIDS[case_id](), start=1)
    ]


def load_spec_table(path, case_id: int, **kw) -> list[SimSpec]:
    """Grid override from a delimited file whose columns match the case's parameters."""
    specs = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row_no, record in enumerate(reader, start=1):
            params = {k: float(v) for k, v in record.items() if k != "row" and v not in (None, "")}
            specs.append(_spec_from_params(case_id, int(record.get("row", row_no)), params, **kw))
    if not specs:
        raise ValueError(f"no specification rows in {path}")
    return specs

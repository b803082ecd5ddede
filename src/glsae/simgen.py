"""Synthetic-panel generation for the six evaluation cases.

Cases 1-4 draw, per replicate,

    mu_i  = 0.25 + N(0, g2_mu),   th_ij = mu_i + N(0, g2_th),
    y_ij  = th_ij + N(0, v_ij)

where each variance g2 follows either the outlier law (delta * t11^2 with
delta ~ Bernoulli(p)) or the mixture law (delta * t21^2 + (1-delta) *
t22^2, t22 = 0.05). Case 1 is outlier/outlier, case 2 mixture
(mu) with outlier (th), case 3 mixture/mixture, case 4 outlier (mu) with
mixture (th); ``_LAWS`` holds that table. An outlier level reads its
p and t11 from the grid columns ``p2_<level>`` and ``tau11_<level>``, a
mixture level its p and t21 from ``p1_<level>`` and ``tau21_<level>``.
Scales in the spec grids are standard deviations and are squared here.

The Bernoulli indicators are drawn independently per unit: per area at
the mu level, per (area, source) at the th level.

Cases 5 and 6 use source-specific th laws:

    mu_i ~ N(0.25, tau^2), th_i1 ~ N(mu_i, tau_1^2),
    th_i2 ~ N(mu_i, delta_i * tau_2^2), delta_i ~ Bernoulli(p) per area,

with case 6 the p = 1 special case (its grid has no ``p`` column).

A ``SimSpec`` is one grid row: its ``params`` dict is the only copy of
the row's values, read by ``generate`` and printed in the tables. It
refuses a row that lacks a column of its case's grid or holds a
non-finite value, a probability (``p*``) outside [0, 1] or a negative
scale (``tau*``); ``load_spec_table`` names the file and line of such a
row, and also refuses a file column the case does not read.

Sampling variances are fixed across replicates (the observed-variance
convention); the J = 4 preliminary mode instead bootstraps them per
replicate from a pooled set of observed values. When no observed
variances are supplied, a documented synthetic pool stands in:
log-uniform over [1e-5, 1e-2], seed 20100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import _numbered_records
from .model import SourcePanel
from .rng import RngStream

SYNTHETIC_POOL_SEED = 20100
MIXTURE_SMALL_SCALE = 0.05
OVERALL_MEAN = 0.25  # eta of every generated panel


# case -> (mu law, theta law) for cases 1-4; law -> (probability, scale) column prefixes
_LAWS = {1: ("outlier", "outlier"), 2: ("mixture", "outlier"), 3: ("mixture", "mixture"), 4: ("outlier", "mixture")}
_LAW_COLUMNS = {"outlier": ("p2", "tau11"), "mixture": ("p1", "tau21")}


@dataclass(frozen=True)
class SimSpec:
    """One row of an evaluation grid; ``params`` holds its grid values."""

    case_id: int
    row: int
    params: dict
    n_areas: int = 62
    n_sources: int = 2
    v: np.ndarray | None = None
    v_pool: np.ndarray | None = None

    def __post_init__(self):
        if self.case_id not in _GRIDS:
            raise ValueError("case_id must be 1..6")
        if self.case_id in (5, 6) and self.n_sources != 2:
            raise ValueError("cases 5 and 6 are two-source designs")
        if (self.v is None) == (self.v_pool is None):
            raise ValueError("exactly one of v (fixed matrix) or v_pool (bootstrap) must be set")
        if self.v is not None and self.v.shape != (self.n_areas, self.n_sources):
            raise ValueError("fixed v matrix has the wrong shape")
        for name in _COLUMNS[self.case_id]:
            if name not in self.params:
                raise ValueError(f"no {name!r} value")
            value = self.params[name]
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if name.startswith("p") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
            if name.startswith("tau") and value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")


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


def _level_variance(law: str, params: dict, level: str, size, gen) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit variances of one level under its law, and the Bernoulli flags that produced them."""
    prob, scale = _LAW_COLUMNS[law]
    delta = (gen.random(size) < params[f"{prob}_{level}"]).astype(np.int64)
    g2 = delta * params[f"{scale}_{level}"] ** 2
    if law == "mixture":
        g2 = g2 + (1 - delta) * MIXTURE_SMALL_SCALE**2
    return g2, delta


def generate(spec: SimSpec, replicate_id: int, rng: RngStream) -> SimPanel:
    """One synthetic replicate; deterministic given the stream."""
    gen = rng.generator
    I, J = spec.n_areas, spec.n_sources
    v = spec.v if spec.v is not None else bootstrap_v(spec.v_pool, I, J, rng)

    par = spec.params
    if spec.case_id in (5, 6):
        p = 1.0 if spec.case_id == 6 else par["p"]
        mu = OVERALL_MEAN + gen.normal(0.0, par["tau"], size=I)
        delta = (gen.random(I) < p).astype(np.int64)
        theta = np.empty((I, 2))
        theta[:, 0] = mu + par["tau1"] * gen.standard_normal(I)
        theta[:, 1] = mu + np.sqrt(delta * par["tau2"] ** 2) * gen.standard_normal(I)
        flags = {"source2": delta}
    else:
        mu_law, theta_law = _LAWS[spec.case_id]
        g2_mu, d_mu = _level_variance(mu_law, par, "mu", I, gen)
        g2_th, d_th = _level_variance(theta_law, par, "theta", (I, J), gen)
        mu = OVERALL_MEAN + np.sqrt(g2_mu) * gen.standard_normal(I)
        theta = mu[:, None] + np.sqrt(g2_th) * gen.standard_normal((I, J))
        flags = {"mu": d_mu, "theta": d_th}

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
_COLUMNS = {case: tuple(next(grid())) for case, grid in _GRIDS.items()}  # each case's grid columns


def spec_table(
    case_id: int,
    *,
    n_areas: int = 62,
    n_sources: int = 2,
    v: np.ndarray | None = None,
    v_pool: np.ndarray | None = None,
) -> list[SimSpec]:
    """The full specification grid for a case (30/36/20/36/18/12 rows)."""
    if case_id not in _GRIDS:
        raise ValueError(f"unknown case {case_id}")
    if v is None and v_pool is None:
        v = synthetic_v_pool(n_areas, n_sources)
    return [
        SimSpec(case_id, row, params, n_areas=n_areas, n_sources=n_sources, v=v, v_pool=v_pool)
        for row, params in enumerate(_GRIDS[case_id](), start=1)
    ]


def load_spec_table(path, case_id: int, **kw) -> list[SimSpec]:
    """Grid override from a delimited file whose columns match the case's parameters.

    Every parameter column of the case's grid must be present, besides an
    optional ``row``, and no other column, and every row is checked as
    ``SimSpec`` checks the built-in grids. A missing or foreign column, a
    missing value, a non-numeric or non-finite cell, a value out of its
    range and a non-integer ``row`` are refused with the file and the
    1-based line.
    """
    if case_id not in _GRIDS:
        raise ValueError(f"unknown case {case_id}")
    (header_line, header), *records = _numbered_records(path)
    columns = _COLUMNS[case_id]
    for name in columns:
        if name not in header:
            raise ValueError(f"{path}:{header_line}: no {name!r} column for case {case_id}")
    for name in header:
        if name != "row" and name not in columns:
            raise ValueError(
                f"{path}:{header_line}: case {case_id} reads no {name!r} column; its grid columns are {', '.join(columns)}"
            )
    specs = []
    for row_no, (lineno, fields) in enumerate(records, start=1):
        row, params = row_no, {}
        for name, cell in zip(header, fields):
            if cell == "":
                continue
            if name == "row":
                try:
                    row = int(cell)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-integer row {cell!r}") from None
                continue
            try:
                params[name] = float(cell)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric {name} {cell!r}") from None
        try:
            specs.append(SimSpec(case_id, row, params, **kw))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not specs:
        raise ValueError(f"no specification rows in {path}")
    return specs

"""Output checks and mixing measures for the benchmark's commands.

The checks are structural so that a change which legitimately alters the
draws still passes: every file in ``manifest.json`` exists and matches its
SHA-256, every number in every table and draw array is finite, and every
table has the row count the configuration implies. An operation (one model's
fit, or one simulation item) fails when any file it produced fails a check,
or when a table shared by all operations does.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class CheckResult:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # manifest output name -> SHA-256


def _sha256(path: Path) -> str:
    # computed here rather than with glsae.io.sha256_file, so the check does not trust the code it checks
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _table_problem(path: Path, n_rows: int) -> str | None:
    """Why a CSV table written by glsae fails the checks, or None."""
    if not path.is_file():
        return f"{path.name}: missing"
    with open(path, newline="", encoding="utf-8") as fh:
        records = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    body = records[1:]
    if len(body) != n_rows:
        return f"{path.name}: {len(body)} rows, expected {n_rows}"
    for record in body:
        for cell in record:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return f"{path.name}: non-finite value {cell!r}"
    return None


def _manifest(out: Path, result: CheckResult) -> bool:
    """Verify every manifest entry against the file's SHA-256; records the outputs."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        result.problems.append(f"manifest.json unreadable: {exc}")
        return False
    result.outputs = dict(manifest.get("outputs", {}))
    ok = bool(result.outputs)
    for name, digest in sorted(result.outputs.items()):
        path = out / name
        if not path.is_file():
            result.problems.append(f"{name}: listed in manifest but missing")
            ok = False
        elif _sha256(path) != digest:
            result.problems.append(f"{name}: SHA-256 differs from manifest")
            ok = False
    return ok


def check_fit(out: Path, tags, n_areas: int, n_sources: int, n_chains: int, n_kept: int) -> CheckResult:
    """Checks for ``glsae fit`` output; one operation per model."""
    from glsae.model import variant

    result = CheckResult(attempted=len(tags))
    shared_ok = _manifest(out, result)
    problem = _table_problem(out / "plot_long.csv", n_areas * len(tags) * 4)
    if problem:
        result.problems.append(problem)
        shared_ok = False
    for tag in tags:
        problems = []
        tables = {f"summary_{tag}.csv": n_areas, f"phi_{tag}.csv": n_areas}
        if variant(tag).theta_variance_form == "source":
            tables[f"kappa_{tag}.csv"] = n_areas * n_sources
        if n_chains > 1:
            tables[f"rhat_{tag}.csv"] = n_areas
        for name, n_rows in tables.items():
            problems.append(_table_problem(out / name, n_rows))
            if name not in result.outputs:
                problems.append(f"{name}: not in manifest")
        draws = sorted((out / "draws" / tag).glob("*.npy"))
        if not draws:
            problems.append(f"draws/{tag}: no draw files")
        for path in draws:
            arr = np.load(path)
            if arr.shape[:2] != (n_chains, n_kept):
                problems.append(f"draws/{tag}/{path.name}: shape {arr.shape}")
            elif not np.all(np.isfinite(arr)):
                problems.append(f"draws/{tag}/{path.name}: non-finite draws")
        problems = [p for p in problems if p]
        result.problems.extend(problems)
        if problems or not shared_ok:
            result.failed += 1
    return result


def check_simulate(out: Path, models, n_rows: int, n_replicates: int) -> CheckResult:
    """Checks for ``glsae simulate`` output; one operation per (row, replicate) item.

    Each item's scores are read from the per-item cache files, found by
    pattern so that a change to the cache layout does not break the check.
    """
    from glsae.metrics import MEASURES

    result = CheckResult(attempted=n_rows * n_replicates)
    shared_ok = _manifest(out, result)
    others = len(models) - 1
    tables = {
        "case1_medians.csv": n_rows * len(models),
        "case1_ratio_by_spec.csv": n_rows,
        "case1_ratio_summary.csv": len(MEASURES) * others,
    }
    if others >= 2:
        tables["case1_best_counts.csv"] = len(MEASURES) * others
    for name, n in tables.items():
        problem = _table_problem(out / name, n)
        if problem is None and name not in result.outputs:
            problem = f"{name}: not in manifest"
        if problem:
            result.problems.append(problem)
            shared_ok = False
    good = 0
    for path in sorted((out / "cache").rglob("*.json")):
        try:
            scores = json.loads(path.read_text(encoding="utf-8"))["scores"]
            values = [float(scores[m][k]) for m in models for k in MEASURES]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"cache/{path.name}: unreadable scores ({exc!r})")
            continue
        if all(math.isfinite(v) for v in values):
            good += 1
        else:
            result.problems.append(f"cache/{path.name}: non-finite score")
    if good > result.attempted:
        result.problems.append(f"{good} item results for {result.attempted} items")
        good = 0
    result.failed = result.attempted if not shared_ok else result.attempted - good
    return result


# ---------------------------------------------------------------------------
# mixing: rank-normalized bulk ESS (Vehtari et al. 2021, Bayesian Analysis 16(2))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of ``x`` at lags 0..n-1, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :n] / n


def _ess(chains: np.ndarray) -> float:
    """ESS of (m, n) draws with Geyer's initial monotone sequence estimator."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # sum autocorrelation pairs while positive, forcing them non-increasing
    tau = -1.0
    prev = math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
    tau = max(tau, 1.0 / math.log10(m * n))
    return float(m * n / tau)


def bulk_ess(chains) -> float:
    """Bulk ESS of one scalar from (n_chains, n_draws) draws: split, rank-normalize, ESS."""
    from scipy.special import ndtri

    arr = np.asarray(chains, dtype=float)
    half = arr.shape[1] // 2
    split = np.concatenate([arr[:, :half], arr[:, half:2 * half]], axis=0)
    flat = split.reshape(-1)
    order = flat.argsort(kind="stable")
    ranks = np.empty(flat.size)
    ranks[order] = np.arange(1, flat.size + 1)
    # average the ranks of tied draws
    uniq, inverse = np.unique(flat, return_inverse=True)
    if uniq.size < flat.size:
        sums = np.bincount(inverse, weights=ranks)
        counts = np.bincount(inverse)
        ranks = (sums / counts)[inverse]
    z = ndtri((ranks - 0.375) / (flat.size + 0.25)).reshape(split.shape)
    return _ess(z)


def mu_bulk_ess(out: Path, tags) -> list[float]:
    """Bulk ESS of every area's mu, pooled over chains, for each fitted model."""
    values = []
    for tag in tags:
        mu = np.load(out / "draws" / tag / "mu.npy")
        values.extend(bulk_ess(mu[:, :, i]) for i in range(mu.shape[2]))
    return values


def max_rhat(out: Path) -> float:
    """Largest split-R-hat in the fit's ``rhat_<tag>.csv`` tables."""
    worst = 0.0
    for path in sorted(out.glob("rhat_*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        worst = max([worst, *(float(r[1]) for r in rows)])
    return worst

"""Deviation measures, replicate aggregation, and model-comparison ratios.

Per replicate, with estimates m-hat and truths m over I areas:

    ARB  = mean_i |m-hat_i - m_i| / m_i      (relative, signed denominator)
    ASRB = mean_i (m-hat_i - m_i)^2 / m_i^2
    AAD  = mean_i |m-hat_i - m_i|
    ASD  = mean_i (m-hat_i - m_i)^2

The relative measures divide by the truth exactly as written (not its
absolute value); a truth of exactly zero makes them undefined and raises.
Negative truths are legal but rare under the generators, so each score
carries the count of nonpositive truths it saw.

Replicate aggregation takes the componentwise median with linear
interpolation between order statistics. A model's discrepancy ratio on a
grid row is its aggregated median divided by the baseline model's; values
below 1 favor the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MEASURES = ("arb", "asrb", "aad", "asd")


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class FitScore:
    arb: float
    asrb: float
    aad: float
    asd: float
    n_nonpositive_truth: int = 0


def score(estimates, truths) -> FitScore:
    """The four deviation measures for one replicate."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape or est.ndim != 1 or est.size == 0:
        raise MetricError("estimates and truths must be equal-length nonempty vectors")
    if np.any(tru == 0.0):
        raise MetricError("relative measures are undefined at a truth of exactly zero")
    diff = est - tru
    return FitScore(
        arb=float(np.mean(np.abs(diff) / tru)),
        asrb=float(np.mean(diff**2 / tru**2)),
        aad=float(np.mean(np.abs(diff))),
        asd=float(np.mean(diff**2)),
        n_nonpositive_truth=int(np.sum(tru <= 0.0)),
    )


def aggregate(scores) -> FitScore:
    """Componentwise median over replicates (linear interpolation)."""
    scores = list(scores)
    if not scores:
        raise MetricError("no replicate scores to aggregate")
    return FitScore(
        arb=float(np.median([s.arb for s in scores])),
        asrb=float(np.median([s.asrb for s in scores])),
        aad=float(np.median([s.aad for s in scores])),
        asd=float(np.median([s.asd for s in scores])),
        n_nonpositive_truth=int(sum(s.n_nonpositive_truth for s in scores)),
    )


@dataclass(frozen=True)
class SixNumber:
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float

    @classmethod
    def of(cls, values) -> "SixNumber":
        arr = np.asarray(list(values), dtype=float)
        q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
        return cls(float(arr.min()), float(q1), float(med), float(arr.mean()), float(q3), float(arr.max()))


@dataclass(frozen=True)
class RatioSummary:
    """Discrepancy ratios of one model against a baseline over a grid."""

    ratios: dict[str, dict[int, float]]   # measure -> spec row -> ratio
    stats: dict[str, SixNumber]           # measure -> six-number summary

    def ratio(self, measure: str, row: int) -> float:
        return self.ratios[measure][row]


def discrepancy_ratio(
    model_scores: dict[int, FitScore],
    base_scores: dict[int, FitScore],
) -> RatioSummary:
    """Per-row ratios of aggregated medians, plus their distribution stats.

    Both mappings go spec row -> aggregated FitScore and must cover the
    same rows. A zero baseline median is an error.
    """
    if set(model_scores) != set(base_scores):
        raise MetricError("model and baseline cover different specification rows")
    if not model_scores:
        raise MetricError("empty score tables")
    ratios: dict[str, dict[int, float]] = {m: {} for m in MEASURES}
    for row in sorted(model_scores):
        for m in MEASURES:
            denom = getattr(base_scores[row], m)
            if denom == 0.0:
                raise MetricError(f"baseline {m} is zero on row {row}")
            ratios[m][row] = getattr(model_scores[row], m) / denom
    stats = {m: SixNumber.of(ratios[m].values()) for m in MEASURES}
    return RatioSummary(ratios=ratios, stats=stats)


@dataclass(frozen=True)
class BestModelCounts:
    counts: dict[str, int]
    ties: tuple[tuple[int, tuple[str, ...]], ...]  # (row, tied models)


def best_model_counts(ratio_tables: dict[str, dict[int, float]]) -> BestModelCounts:
    """Per model: number of rows where it attains the minimum ratio.

    Exact ties are counted for every tied model and reported.
    """
    if len(ratio_tables) < 2:
        raise MetricError("need at least two models to count winners")
    rows = None
    for table in ratio_tables.values():
        rows = set(table) if rows is None else rows
        if set(table) != rows:
            raise MetricError("models cover different specification rows")
    counts = {name: 0 for name in ratio_tables}
    ties = []
    for row in sorted(rows):
        values = {name: ratio_tables[name][row] for name in ratio_tables}
        best = min(values.values())
        winners = tuple(sorted(name for name, val in values.items() if val == best))
        for name in winners:
            counts[name] += 1
        if len(winners) > 1:
            ties.append((row, winners))
    return BestModelCounts(counts=counts, ties=tuple(ties))

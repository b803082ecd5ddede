"""Summarise benchmark result records, or compare two sets of them.

Usage::

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Result records are the JSON files ``perfbench/run.py`` writes under
``.bench_work/results/``. With one directory, prints for each workload and
metric the median, the quartiles and the spread (quartile distance as a
share of the median), marking spreads of a third of the metric's bound or
more. With two, pairs the runs by (workload, seed, trace) and prints each
side's median, the change as a share of the parent's median, the share of
pairs the change won, and a verdict by the rules in README.md: ``gain``
when the change wins at least 9 of 10 pairs and the medians differ by more
than the parent's quartile distance, ``regression`` when the change's median
is worse than the parent's by more than the bound, ``unresolved`` when the
parent's own spread exceeds the bound, else ``same``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """(workload, trace) -> metric -> {seed: value}."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        table = runs.setdefault((record["workload"], record["trace"]), {})
        for name, entry in record["metrics"].items():
            table.setdefault(name, {})[record["seed"]] = entry["value"]
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def main(argv: list[str]) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = load(Path(argv[0]))
    change = load(Path(argv[1])) if len(argv) > 1 else None
    for (workload, trace), table in sorted(parent.items()):
        print(f"== {workload} (trace {trace})")
        for name, by_seed in table.items():
            meta = metrics.get(name, {})
            bound = meta.get("bound")
            values = list(by_seed.values())
            q1, med, q3 = quartiles(values)
            if change is None:
                s = spread(values)
                flag = "  UNSTEADY" if bound is not None and s >= bound / 3 else ""
                print(f"{name:34s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {s:.3f} n={len(values)}{flag}")
                continue
            other = change.get((workload, trace), {}).get(name, {})
            seeds = sorted(set(by_seed) & set(other))
            if not seeds:
                continue
            sign = 1.0 if meta.get("better") == "higher" else -1.0
            new_med = statistics.median(other[s] for s in seeds)
            wins = sum(sign * (other[s] - by_seed[s]) > 0 for s in seeds) / len(seeds)
            rel = (new_med - med) / abs(med) if med else float("inf")
            verdict = "same"
            if bound is not None and spread(values) > bound:
                verdict = "unresolved"
            if bound is not None and -sign * rel > bound:
                verdict = "regression"
            elif wins >= 0.9 and abs(new_med - med) > q3 - q1:
                verdict = "gain" if sign * rel > 0 else verdict
            print(f"{name:34s} parent {med:.6g} change {new_med:.6g} ({rel:+.3%}) "
                  f"wins {wins:.0%} of {len(seeds)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

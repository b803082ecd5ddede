"""Record the wall time of the tier-1 test suite once (informational, ungated).

Usage, from the repository root::

    python3 perfbench/tier1.py

Runs ``python -m pytest -q --continue-on-collection-errors`` with
``PYTHONPATH=src`` (about 11 minutes on 2 cores), prints
``tier1_wall_s <seconds> s`` and the pytest summary line, and writes the
figure with the environment record to ``.bench_work/results/tier1-*.json``.
It is kept out of the workload runs because one run takes minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    record = bench.environment(root)
    record["GLSAE_WORKERS"] = os.environ.get("GLSAE_WORKERS", "unset")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
                           "no:cacheprovider"], cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    record["loadavg_after"] = list(os.getloadavg())
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    payload = {"tier1_wall_s": wall, "pytest_exit": done.returncode, "pytest_summary": summary,
               "environment": record}
    (results / f"tier1-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(summary)
    print(f"tier1_wall_s {wall!r} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

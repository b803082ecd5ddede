"""Self-test of the benchmark harness at toy size (about two minutes on 2 cores).

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that (a) one seed gives byte-identical inputs and byte-identical
command outputs on two runs, and ``simulate-case1`` gives byte-identical
outputs at GLSAE_WORKERS=1 and 2; (b) both kinds of run emit every metric
named in BENCHMARK.json with its unit, and pass their output checks; (c) in
a traced command each process's span self times sum to no more than the
traced wall time and the sweep counter matches the configuration; and (d)
the benchmark exits non-zero without a result outside a glsae checkout.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path.cwd()
SEED = 5


def tree_bytes(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def determinism(scratch: Path) -> None:
    for workload in wl.WORKLOADS.values():
        size = workload.sizes["toy"]
        runs = []
        for k, workers in enumerate((workload.workers, workload.workers, 1)):
            if k == 2 and workload.name != "simulate-case1":
                break
            # same paths every time: the manifest records the panel path
            base = scratch / workload.name
            shutil.rmtree(base, ignore_errors=True)
            inputs = wl.make_inputs(workload, SEED, base / "inputs")
            env = bench.Run(ROOT, workload, SEED, 0, size="toy").env
            env["GLSAE_WORKERS"] = str(workers)
            done = subprocess.run(wl.command(workload, size, inputs, base / "out"), env=env,
                                  capture_output=True, text=True, timeout=170)
            expect(done.returncode == 0, f"{workload.name}: command {k} exits 0 {done.stderr[-300:]}")
            runs.append((tree_bytes(base / "inputs"), tree_bytes(base / "out")))
        expect(runs[0][0] == runs[1][0], f"{workload.name}: one seed gives byte-identical inputs")
        expect(runs[0][1] == runs[1][1], f"{workload.name}: two runs give byte-identical outputs")
        if len(runs) == 3:
            expect(runs[0][1] == runs[2][1], f"{workload.name}: GLSAE_WORKERS=1 and 2 give byte-identical outputs")


def metrics_and_checks() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        named = bench.metric_units(key)
        for workload in wl.WORKLOADS.values():
            run = bench.Run(ROOT, workload, SEED, 0, size="toy")
            metrics, env = run.execute(bool(trace))
            expect(set(metrics) >= set(named), f"{workload.name} trace {trace}: every metric emitted")
            expect(all(math.isfinite(float(metrics[n])) for n in named),
                   f"{workload.name} trace {trace}: every metric finite")
            expect(run.failed == 0 and run.attempted > 0 and not run.problems,
                   f"{workload.name} trace {trace}: {run.attempted} operations pass their checks {run.problems[:3]}")
            if trace:
                expect(metrics["gibbs.sweeps"] == workload.sweeps(workload.sizes["toy"]),
                       f"{workload.name}: traced sweep count equals the configured total")
            recorded = {"nproc", "cpu_model", "python", "numpy", "scipy", "git_commit",
                        "GLSAE_WORKERS", "seed", "loadavg_before", "loadavg_after"}
            expect(recorded <= set(env), f"{workload.name} trace {trace}: environment records {sorted(recorded)}")


def self_times(scratch: Path) -> None:
    for workload in wl.WORKLOADS.values():
        size = workload.sizes["toy"]
        inputs = wl.make_inputs(workload, SEED, scratch / f"trace-{workload.name}" / "inputs")
        out = scratch / f"trace-{workload.name}" / "out"
        argv = [sys.executable, str(HERE / "tracing.py"), str(out) + ".trace",
                *wl.command(workload, size, inputs, out)[3:]]
        env = bench.Run(ROOT, workload, SEED, 0, size="toy").env
        rep = bench.run_command(argv, env, scratch / f"trace-{workload.name}.log")
        expect(rep["code"] == 0, f"{workload.name}: traced command exits 0")
        trace = tracing.analyse(Path(str(out) + ".trace"))
        worst = max(trace["process_self_s"].values())
        expect(worst <= rep["wall_s"], f"{workload.name}: self times per process {worst:.3f} s <= traced wall {rep['wall_s']:.3f} s")
        expect(trace["counts"].get("gibbs.sweeps") == workload.sweeps(size),
               f"{workload.name}: sweep counter {trace['counts'].get('gibbs.sweeps')} == {workload.sweeps(size)}")


def refuses_outside_checkout(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit-5chain", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "without the program the benchmark exits non-zero and prints no result")


def main() -> int:
    scratch = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        refuses_outside_checkout(scratch)
        determinism(scratch)
        self_times(scratch)
        metrics_and_checks()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

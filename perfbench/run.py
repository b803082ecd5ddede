"""glsae benchmark: end-to-end throughput of real commands, and a traced run for layers.

Usage (from the root of a glsae checkout)::

    python3 perfbench/run.py --workload fit-5chain --seed 1 --seconds 42 --trace 0

With ``--trace 0`` the run times set-up in its own processes, then repeats the
workload's command until ``--seconds`` are used, checks every output and
reports the end-to-end metrics, with command times at the reference host
speed (see "host speed" below). With ``--trace 1`` it times the
inner layers (``perfbench/layers.py``) and alternates untraced commands with
commands run under ``perfbench/tracing.py``, and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the environment, is written under
``.bench_work/results/``. The exit code is 0 only when every output check
passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

MIN_REPS = 3          # commands per end-to-end run, at least, whatever --seconds says
INPUT_SETS = 8        # fit-5chain cycles its commands over this many seeded input sets
FIT_AT_ONCE = 2       # fit-5chain commands run side by side, one per core of a 2-core host
COMPANION_FITS = 3    # companion fits (one per input set) that measure mixing on simulate workloads
MIN_TRACED_PAIRS = 2  # untraced + traced command pairs per traced run, at least
SETUP_RUNS = 3        # timed set-up processes per run (after one untimed warm-up)
IMPORT_RUNS = 3       # timed imports of glsae.distributions per traced run
RSS_INTERVAL_S = 0.05
COMMAND_TIMEOUT_S = 100   # one command takes about 6 s; a run must end within 180 s
REF_LOOPS = 15            # reference loops timed on each side of a batch of commands
REF_NOMINAL_S = 0.010     # one reference loop at the reference host speed (see at_reference_speed)
REF_EXPONENT = 0.5        # command times follow the loop's time to this power (see at_reference_speed)

BENCHMARK = HERE.parent / "BENCHMARK.json"


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json names them."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# environment and statistics


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    """The machine and software a result was measured on."""
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "loadavg_before": list(os.getloadavg()),
    }


def describe(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, the count and the samples."""
    values = sorted(samples)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "samples": list(samples)}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = values[min(n - 1, int(round(pct / 100.0 * (n - 1))))]
            break
    return out


# ---------------------------------------------------------------------------
# host speed
#
# The benchmark runs on shared virtual machines whose CPU speed swings by up to
# a factor of two over seconds to minutes (neighbours' load; it shows in wall
# and CPU time alike, not as steal time). Raw times of identical commands then
# spread by 10-17% between runs, and their medians move by up to 30% between
# sets of runs an hour apart, which hides most changes to the program. So
# every batch of commands is bracketed by a fixed reference loop: small-array
# numpy arithmetic driven from Python, the same mix as a Gibbs sweep. Over a
# run, the loop's mean time follows the host's slow swings, and times are
# reported at the reference speed (``at_reference_speed``): their mean is
# scaled by (REF_NOMINAL_S / the loop's mean time) ** REF_EXPONENT.
#
# The exponent is below 1 because commands slow less than the loop: start-up,
# file I/O and waits do not slow with the CPU, and a reading times one core
# while a command uses two. Measured on a 2-vCPU Intel Xeon (family 6, model
# 207) KVM guest over four sets of ten seeds per workload, the run-to-run
# log-log slope of command time on loop time was 0.6-0.9, and the quartile
# spread of wall_s over seeds was 0.06-0.17 raw, 0.07-0.22 with exponent 1 and
# 0.05-0.13 with 0.5, while set medians stayed within 13% of each other as
# the host slowed by 26% (raw: 30%). REF_NOMINAL_S is close to the loop's
# time there at full speed (9.2-9.5 ms), so on a quiet host scaled and raw
# times agree. The raw times and the readings are kept in each run's record.

_REF_ARRAY = np.random.default_rng(20240601).standard_normal((62, 2))


def _reference_loop() -> float:
    a = _REF_ARRAY
    total = 0.0
    for _ in range(2000):
        b = a * 1.0001 + 0.5
        total += float(np.sum(np.sqrt(np.abs(b))))
    return total


def reference_s() -> float:
    """Median seconds of the reference loop, timed REF_LOOPS times now."""
    times = []
    for _ in range(REF_LOOPS):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def bracketed(fn):
    """Call ``fn()`` between two host-speed readings.

    Returns its result and the reference loop's mean time just before and
    just after the call.
    """
    before = reference_s()
    result = fn()
    after = reference_s()
    return result, 0.5 * (before + after)


def at_reference_speed(durations, ref_times) -> float:
    """Mean of ``durations`` at the reference speed, given the readings around them."""
    return statistics.fmean(durations) * (REF_NOMINAL_S / statistics.fmean(ref_times)) ** REF_EXPONENT


# ---------------------------------------------------------------------------
# running commands


def _tree_rss_kb(pid: int) -> int:
    """Resident memory (VmRSS) of a process and its descendants, summed (kB).

    /proc/<pid>/status is cheap to read (about 30 us), so sampling does not
    take CPU from the command; pages a forked worker shares with its parent
    count in both, as they do in any RSS sum.
    """
    total = 0
    pending = [pid]
    while pending:
        p = pending.pop()
        try:
            text = Path(f"/proc/{p}/status").read_text()
            total += next(int(line.split()[1]) for line in text.splitlines() if line.startswith("VmRSS:"))
            pending.extend(int(c) for c in Path(f"/proc/{p}/task/{p}/children").read_text().split())
        except (OSError, StopIteration, ValueError):
            continue
    return total


def run_command(argv, env, log_path: Path) -> dict:
    """Run one command; returns its wall time, peak memory and exit code."""
    peak = [0]
    stop = threading.Event()

    def sample(pid):
        while not stop.is_set():
            peak[0] = max(peak[0], _tree_rss_kb(pid))
            stop.wait(RSS_INTERVAL_S)

    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        # a process group of its own, so a command that hangs is killed with its pool workers
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        sampler = threading.Thread(target=sample, args=(proc.pid,), daemon=True)
        sampler.start()
        try:
            code = proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            code = proc.wait()
        wall = time.perf_counter() - start
        stop.set()
        sampler.join()
    return {"wall_s": wall, "peak_mb": peak[0] / 1024.0, "code": code}


def _timed_process(code: str, env) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def _import_seconds(env) -> float:
    code = ("import time; t = time.perf_counter(); import glsae.distributions; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                          capture_output=True, text=True)
    return float(done.stdout.strip())


class Run:
    """One benchmark run of one workload: inputs, repetitions, checks, metrics."""

    def __init__(self, root: Path, workload: wl.Workload, seed: int, seconds: float, size: str = "full"):
        self.root = root
        self.workload = workload
        self.size = workload.sizes[size]
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".bench_work" / f"{workload.name}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
        self.env["GLSAE_WORKERS"] = str(workload.workers)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_outputs: dict = {}   # input set -> manifest outputs of its first command
        self.reps = 0

    # -- one command ---------------------------------------------------------

    def _tally(self, result, code: int, label: str, log: Path) -> None:
        """Count a command's checked operations into the run's totals."""
        if code != 0:
            result.failed = result.attempted
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:] if log.exists() else ""
            result.problems.insert(0, f"command exited with code {code}: {tail}")
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems.extend(f"{label}: {p}" for p in result.problems)

    def repetition(self, traced: bool = False, input_set: int = 0) -> dict:
        """Run the workload's command once on an input set and check its outputs."""
        return self.repetitions([input_set], traced)[0]

    def repetitions(self, input_sets, traced: bool = False) -> list[dict]:
        """Run the workload's command on each input set, all at once, then check every output.

        Returns each command's measurements; ``ref_s`` is the host-speed
        reading of ``bracketed`` around the commands.
        """
        jobs = []
        for input_set in input_sets:
            k = self.reps
            self.reps += 1
            out = self.work / f"{'traced' if traced else 'out'}{k}"
            argv = wl.command(self.workload, self.size, self.inputs[input_set], out)
            if traced:
                argv = [sys.executable, str(HERE / "tracing.py"), str(out) + ".trace", *argv[3:]]
            jobs.append((k, input_set, out, argv, self.work / f"{out.name}.log"))
        def launch():
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(run_command, argv, self.env, log) for _, _, _, argv, log in jobs]
                return [future.result() for future in futures]

        reps, ref = bracketed(launch)
        for rep, (k, input_set, out, _, log) in zip(reps, jobs):
            rep["ref_s"] = ref
            self._check(rep, k, input_set, out, log)
        return reps

    def _check(self, rep: dict, k: int, input_set: int, out: Path, log: Path) -> None:
        """Check one command's outputs and count its operations."""
        import checks

        w, size = self.workload, self.size
        if w.kind == "fit":
            result = checks.check_fit(out, w.models, wl.N_AREAS, w.n_sources, wl.FIT_CHAINS, size.kept)
        else:
            result = checks.check_simulate(out, w.models, len(w.rows), size.replicates)
        if not result.problems:
            first = self.reference_outputs.setdefault(input_set, result.outputs)
            if result.outputs != first:
                result.problems.append("outputs differ from the first command with the same inputs")
                result.failed = result.attempted
        self._tally(result, rep["code"], f"command {k}", log)
        rep["out"] = out
        rep["bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0

    def repeat(self, start: float, make_rep, min_reps: int) -> None:
        """Call ``make_rep`` until the run's time is used, at least ``min_reps`` times."""
        durations = []
        while True:
            t = time.perf_counter()
            make_rep()
            durations.append(time.perf_counter() - t)
            if len(durations) >= min_reps and time.perf_counter() + statistics.median(durations) > start + self.seconds:
                return

    def companion_fits(self, fits: int = COMPANION_FITS) -> tuple[float, float]:
        """Run a simulate workload's companion fits (see ``workloads.ess_fit_command``).

        One fit on each of the first ``fits`` input sets; their models count as
        operations. Returns the median bulk ESS of mu per kept draw, pooled
        over areas, models and fits, and the largest split-R-hat; (0, 0) when
        a check failed.
        """
        import checks

        w, size = self.workload, self.size
        ess, rhat, ok = [], 0.0, True
        for k in range(fits):
            out = self.work / f"ess_fit{k}"
            log = self.work / f"ess_fit{k}.log"
            rep = run_command(wl.ess_fit_command(w, size, self.inputs[k], out), self.env, log)
            result = checks.check_fit(out, w.variant_tags(), wl.N_AREAS, w.n_sources, wl.ESS_CHAINS,
                                      size.kept)
            self._tally(result, rep["code"], f"companion fit {k}", log)
            if result.failed:
                ok = False
            else:
                ess.extend(checks.mu_bulk_ess(out, w.variant_tags()))
                rhat = max(rhat, checks.max_rhat(out))
            shutil.rmtree(out, ignore_errors=True)
        if not ok:
            return 0.0, 0.0
        return statistics.median(ess) / (wl.ESS_CHAINS * size.kept), rhat

    # -- the two kinds of run --------------------------------------------------

    def end_to_end(self) -> dict:
        import checks

        w, size = self.workload, self.size
        start = time.perf_counter()
        code = wl.setup_code(w, self.inputs[0])
        _timed_process(code, self.env)   # warm-up: byte-compiled files and the page cache
        setups = [_timed_process(code, self.env) for _ in range(SETUP_RUNS)]
        if w.kind == "simulate":
            per_draw, _ = self.companion_fits()

        reps, ess = [], []
        fit = w.kind == "fit"

        def make_reps():
            # fit commands run FIT_AT_ONCE at a time and cycle over the input sets;
            # each set's first command gives its ESS
            sets = [(len(reps) + i) % INPUT_SETS for i in range(FIT_AT_ONCE)] if fit else [0]
            for rep in self.repetitions(sets):
                if fit and len(reps) < INPUT_SETS and rep["code"] == 0:
                    ess.extend(checks.mu_bulk_ess(rep["out"], w.models))
                shutil.rmtree(rep["out"], ignore_errors=True)
                reps.append(rep)

        self.repeat(start, make_reps, INPUT_SETS // FIT_AT_ONCE if fit else MIN_REPS)
        walls = [r["wall_s"] for r in reps]
        refs = [r["ref_s"] for r in reps]
        wall = at_reference_speed(walls, refs)
        if fit:
            ess_per_s = statistics.median(ess) / wall if ess else 0.0
        else:
            # ESS per kept draw of the same sampler, times the kept replicate-draws per second
            ess_per_s = per_draw * w.items(size) * size.kept / wall
        self.details = {
            "raw_setup_s": describe(setups),
            "raw_wall_s": describe(walls),
            "ref_s": describe(refs),
            "peak_rss_mb": describe([r["peak_mb"] for r in reps]),
            "sweeps_per_command": w.sweeps(size),
        }
        return {
            # set-up ran in the same run, so the same readings give its speed
            "setup_s": at_reference_speed(setups, refs),
            "wall_s": wall,
            "sweeps_per_s": w.sweeps(size) / wall,
            "ess_per_s": ess_per_s,
            "peak_rss_mb": statistics.median(r["peak_mb"] for r in reps),
        }

    def per_layer(self) -> dict:
        import checks
        import tracing

        w = self.workload
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "layers.py"), w.name, str(self.seed)],
                              env=self.env, check=True, timeout=150, capture_output=True, text=True)
        metrics = json.loads(done.stdout.strip().splitlines()[-1])
        metrics["distributions.import_s"] = statistics.median(
            _import_seconds(self.env) for _ in range(IMPORT_RUNS))

        plain, traced, layers, items = [], [], [], []

        def make_pair():
            rep = self.repetition()
            shutil.rmtree(rep["out"], ignore_errors=True)
            plain.append(rep["wall_s"])
            rep = self.repetition(traced=True)
            traced.append(rep["wall_s"])
            trace = tracing.analyse(Path(str(rep["out"]) + ".trace"))
            items.extend(trace["item_s"])
            layers.append(self._layer_metrics(trace, rep))
            if w.kind == "fit" and rep["code"] == 0:
                layers[-1]["diagnostics.max_rhat"] = checks.max_rhat(rep["out"])
            shutil.rmtree(rep["out"], ignore_errors=True)

        self.repeat(start, make_pair, MIN_TRACED_PAIRS)
        for name in layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        if w.kind != "fit":
            metrics["diagnostics.max_rhat"] = self.companion_fits(fits=1)[1]
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics["failed_frac"] = self.failed / max(self.attempted, 1)
        self.details = {"wall_s": describe(plain), "traced_wall_s": describe(traced)}
        if items:
            self.details["runner.item_s"] = describe(items)
        return metrics

    def _layer_metrics(self, trace: dict, rep: dict) -> dict:
        """Per-layer metrics of one traced command, with the tracer's own checks."""
        w, size = self.workload, self.size
        own = trace["self_s"]
        expected = w.sweeps(size)
        swept = trace["counts"].get("gibbs.sweeps", 0)
        problems = []
        if swept != expected:
            problems.append(f"traced run counted {swept} sweeps, configured {expected}")
        for pid, total in trace["process_self_s"].items():
            if total > rep["wall_s"]:
                problems.append(f"process {pid}: self times sum to {total:.3f} s > traced wall {rep['wall_s']:.3f} s")
        if problems:
            self.problems.extend(problems)
            self.failed += w.items(size)   # the traced command's operations fail the check
        misses = trace["count"].get("runner.item", 0)
        simulate = w.kind == "simulate"
        return {
            "gibbs.run_chains_s": own.get("gibbs.run_chains", 0.0),
            "gibbs.sweeps": swept,
            "runner.items": w.items(size) if simulate else 0,
            "runner.cache_hits": w.items(size) - misses if simulate else 0,
            "runner.cache_misses": misses,
            "runner.pool_busy_frac": sum(trace["item_s"]) / (rep["wall_s"] * w.workers) if simulate else 0.0,
            "summary.decompose_s": own.get("summary.decompose", 0.0),
            "summary.summarize_s": own.get("summary.summarize", 0.0),
            "summary.phi_s": own.get("summary.phi", 0.0),
            "diagnostics.rhat_s": own.get("diagnostics.rhat", 0.0),
            "io.load_panel_s": own.get("io.load_panel", 0.0),
            "io.write_s": own.get("io.write", 0.0),
            "io.bytes_written": rep["bytes"],
            "diagnostics.max_rhat": 0.0,
        }

    def execute(self, trace: bool) -> tuple[dict, dict]:
        sys.path.insert(0, str(self.root / "src"))
        env_record = environment(self.root)
        env_record.update(GLSAE_WORKERS=self.workload.workers, workload=self.workload.name, seed=self.seed,
                          command_seed=wl.command_seed(self.workload.name, self.seed))
        if env_record["loadavg_before"][0] > env_record["nproc"]:
            print(f"warning: load average {env_record['loadavg_before'][0]:.2f} exceeds nproc "
                  f"{env_record['nproc']}; timings will be noisy", file=sys.stderr)
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            sets = INPUT_SETS if self.workload.kind == "fit" else COMPANION_FITS
            self.inputs = [wl.make_inputs(self.workload, self.seed, self.work / f"inputs{k}", k)
                           for k in range(sets)]
            metrics = self.per_layer() if trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        env_record["loadavg_after"] = list(os.getloadavg())
        env_record["commands"] = self.reps
        return metrics, env_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "glsae" / "cli.py").is_file():
        print(f"error: {root} is not a glsae checkout (no src/glsae/cli.py); run from the repository root",
              file=sys.stderr)
        return 2

    run = Run(root, wl.WORKLOADS[args.workload], args.seed, args.seconds)
    metrics, env_record = run.execute(bool(args.trace))
    units = metric_units("per_layer" if args.trace else "end_to_end")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_record, "details": run.details, "problems": run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# environment {json.dumps(env_record, sort_keys=True)}")
    for name, detail in run.details.items():
        print(f"# {name} {json.dumps(detail, sort_keys=True)}")
    for name, entry in record["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    if not args.trace:
        print(f"failed_frac {run.failed / max(run.attempted, 1)!r} frac ({run.failed} of {run.attempted} operations)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

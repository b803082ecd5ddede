"""Traced run of a glsae command: spans around each module's public functions.

Usage::

    python3 perfbench/tracing.py TRACE_DIR glsae-arguments...

The launcher wraps the functions that ``glsae.runner`` calls into the other
modules (and ``glsae.gibbs.sweep``, which is counted rather than timed), runs
``glsae.cli.main`` with the remaining arguments, and writes the spans of each
process to ``TRACE_DIR/spans-<pid>.json``. Simulation pool workers are forked
from the launcher, so they inherit the wrappers; each writes its spans after
every work item. No file of the program is modified.

A span is ``[name, start, end, parent, item]``: times from
``time.perf_counter`` (one monotonic clock for all processes on Linux), the
index of the enclosing span in the same process, and the (row, replicate) of
the simulation item it belongs to. :func:`analyse` turns the span files into
per-layer self times, counts and checks.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute, span name); the span name's first part is the layer
TIMED = (
    ("glsae.runner", "load_panel", "io.load_panel"),
    ("glsae.runner", "run_fit", "runner.run_fit"),
    ("glsae.runner", "run_simulation", "runner.run_simulation"),
    ("glsae.runner", "_sim_item", "runner.item"),
    ("glsae.runner", "generate", "simgen.generate"),
    ("glsae.runner", "run_chains", "gibbs.run_chains"),
    ("glsae.summary", "decompose", "summary.decompose"),
    ("glsae.runner", "summarize", "summary.summarize"),
    ("glsae.runner", "phi_distribution", "summary.phi"),
    ("glsae.runner", "kappa_weights", "summary.kappa"),
    ("glsae.runner", "rhat_report", "diagnostics.rhat"),
    ("glsae.runner", "score", "metrics.score"),
    ("glsae.runner", "write_table", "io.write"),
    ("glsae.runner", "_save_draws", "io.write"),
    ("glsae.runner", "sha256_file", "io.write"),
    ("glsae.runner", "write_manifest", "io.write"),
)
COUNTED = (("glsae.gibbs", "sweep", "gibbs.sweeps"),)


class Tracer:
    """Spans and counters of one process; a forked child starts empty."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.item = None

    def _own(self) -> None:
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans, self.stack, self.counts, self.item = [], [], {}, None

    def timed(self, name: str, fn):
        # functools.wraps keeps the import path, so pool.map can still pickle a wrapped function
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._own()
            if name == "runner.item":
                self.item = (args[0][0].row, args[0][1])
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.item])
            self.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
                if name == "runner.item":
                    self.item = None
                    self.dump()
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._own()
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, **extra) -> None:
        payload = {"pid": self.pid, "spans": self.spans, "counts": self.counts, **extra}
        tmp = self.trace_dir / f"spans-{self.pid}.json.tmp"
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(self.trace_dir / f"spans-{self.pid}.json")


def main(argv: list[str]) -> int:
    import importlib

    trace_dir = Path(argv[0])
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(trace_dir)
    start = time.perf_counter()
    tracer.spans.append(["cli.import", start, None, None, None])
    import glsae.cli

    tracer.spans[0][2] = time.perf_counter()
    for module, attr, name in TIMED:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.timed(name, getattr(mod, attr)))
    for module, attr, name in COUNTED:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.counted(name, getattr(mod, attr)))
    try:
        code = tracer.timed("cli.main", glsae.cli.main)(argv[1:])
    finally:
        tracer.dump(main=True, start=start, end=time.perf_counter())
    return code


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark harness)


def analyse(trace_dir: Path) -> dict:
    """Per-layer self times, span counts and sweep counts from a traced run.

    Returns ``self_s`` (span name -> summed self time), ``total_s`` (span
    name -> summed duration), ``count`` (span name -> spans), ``counts``
    (counters summed over processes), ``process_self_s`` (pid -> summed
    self time of that process's spans), ``item_s`` (durations of the
    simulation items) and ``main_s`` (lifetime of the launcher process).
    """
    out = {"self_s": {}, "total_s": {}, "count": {}, "counts": {}, "process_self_s": {},
           "item_s": [], "main_s": 0.0}
    for path in sorted(trace_dir.glob("spans-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans = payload["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, item in spans:
            if end is not None and parent is not None:
                child_time[parent] += end - start
        own = 0.0
        for k, (name, start, end, parent, item) in enumerate(spans):
            if end is None:
                continue
            dur = end - start
            own += dur - child_time[k]
            out["self_s"][name] = out["self_s"].get(name, 0.0) + dur - child_time[k]
            out["total_s"][name] = out["total_s"].get(name, 0.0) + dur
            out["count"][name] = out["count"].get(name, 0) + 1
            if name == "runner.item":
                out["item_s"].append(dur)
        out["process_self_s"][payload["pid"]] = own
        for name, n in payload["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + n
        if payload.get("main"):
            out["main_s"] = payload["end"] - payload["start"]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

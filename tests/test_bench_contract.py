"""What the benchmark counts: sweeps and per-item cache files.

The traced benchmark run counts calls to ``glsae.gibbs.sweep`` and expects
one per chain-sweep (fit) or replicate-sweep (simulate); its output check
reads one cache JSON per (row, replicate) item, holding
``scores[model][measure]`` for every fitted model. A sampler that batches
chains or replicates has to change that counter and check first. The
tracer wraps functions by name, and the harness imports glsae names in its
modules and in the probe code it runs, so each such name must keep resolving.
"""

import ast
import importlib
import json
import math
from pathlib import Path

import pytest

import glsae.gibbs as gibbs
from glsae.cli import main
from glsae.gibbs import run_chains
from glsae.metrics import MEASURES
from glsae.model import SamplerSettings, variant
from glsae.runner import _sim_item, parse_target
from glsae.simgen import spec_table


@pytest.fixture
def sweep_calls(monkeypatch):
    """A one-element list counting calls to the module-level ``gibbs.sweep``."""
    calls = [0]
    real = gibbs.sweep

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(gibbs, "sweep", counting)
    return calls


def test_run_chains_sweeps_once_per_chain_sweep(small_panel, sweep_calls):
    settings = SamplerSettings(seed=3, n_iter=25, n_burnin=5, n_chains=3, monitor=frozenset({"mu"}))
    run_chains(small_panel, variant("m11b"), settings)
    assert sweep_calls[0] == settings.n_chains * settings.n_iter


def test_sim_item_sweeps_once_per_replicate_sweep(sweep_calls):
    spec = spec_table(1)[0]
    targets = tuple(parse_target(m) for m in ("m1a", "m12", "mbr"))
    n_iter = 30
    settings = SamplerSettings(seed=5, n_iter=n_iter, n_burnin=10, monitor=frozenset({"mu"}))
    _, _, scores = _sim_item((spec, 0, targets, settings))
    assert sweep_calls[0] == len(targets) * n_iter
    assert set(scores) == {t.name for t in targets}


def test_simulate_leaves_one_scored_cache_file_per_item(tmp_path, monkeypatch, sweep_calls):
    monkeypatch.setenv("GLSAE_WORKERS", "1")
    models, rows, reps, n_iter = ("m1a", "m12", "mbr"), 2, 2, 30
    out = tmp_path / "sim"
    assert main([
        "simulate", "--case", "1", "--rows", f"1-{rows}", "--replicates", str(reps),
        "--models", ",".join(models), "--iters", str(n_iter), "--burnin", "10",
        "--seed", "4", "--out", str(out),
    ]) == 0
    assert sweep_calls[0] == rows * reps * len(models) * n_iter
    files = sorted((out / "cache").rglob("*.json"))
    assert len(files) == rows * reps
    for path in files:
        scores = json.loads(path.read_text(encoding="utf-8"))["scores"]
        values = [float(scores[m][k]) for m in models for k in MEASURES]
        assert all(math.isfinite(v) for v in values), path.name


def test_tracer_hooks_resolve(monkeypatch):
    """Every (module, attribute) the traced benchmark run wraps still exists."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    hooks = [(module, attr) for module, attr, _ in tracing.TIMED + tracing.COUNTED]
    missing = [hook for hook in hooks if not hasattr(importlib.import_module(hook[0]), hook[1])]
    assert hooks and not missing


def _glsae_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) of each glsae import in a module and in the code lines of its strings.

    ``name`` is None for a plain ``import glsae.x``. String lines count because
    the harness runs probe code such as ``from glsae.io import load_panel``.
    """
    tree = ast.parse(source)
    trees = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for line in node.value.splitlines():
                try:
                    trees.append(ast.parse(line.strip()))
                except SyntaxError:
                    pass
    found = []
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "glsae":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "glsae"]
    return found


def test_benchmark_imports_resolve():
    """Every glsae name the benchmark harness imports still exists."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    imports = {imp for path in sorted(perfbench.glob("*.py")) for imp in _glsae_imports(path.read_text("utf-8"))}
    assert {("glsae.io", "load_panel"), ("glsae.io", "save_panel"), ("glsae.simgen", "generate")} <= imports
    missing = [
        (module, name) for module, name in sorted(imports, key=str)
        if not hasattr(importlib.import_module(module), name or "__name__")
    ]
    assert not missing

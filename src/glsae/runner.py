"""Run orchestration: panel fits and the replicated evaluation harness.

Both commands write a ``manifest.json`` capturing every input that can
affect the result (package version, seeds, sampler settings, grid
selection); every emitted table carries the manifest hash, and re-running
with the same configuration reproduces each file byte-exactly regardless
of worker count. The evaluation driver caches one JSON file per
(row, replicate) work item under ``cache/<key>/``, written as each item
finishes, and builds its tables from those files alone, so an interrupted
run resumes from the finished items and still produces identical tables.
The key hashes the manifest payload together with a digest of the package
source and the numpy version, so a run with another configuration or
other code never reads them. Cache directories of other keys are named on
stderr and left in place. Both commands check
their inputs before the output directory is created: the models (each
listed once), the simulation baseline, grid and row selection (every
selected row must be in the grid), the panel, the sampler settings, the
fit's interval level, the kept draws per chain that a multi-chain fit's
split-R-hat needs, and the replicate count. A fit samples one model at a
time and releases its draws before the next model samples.

Worker count comes from the GLSAE_WORKERS environment variable (default
1; anything but an integer >= 1 is an error). Work items run in that many
processes, the command's own among them and never more than there are
items; each process claims the next item from a shared counter and caches
it as soon as it finishes. A worker only writes cache files; its pipe to
the command's process carries nothing but its first exception. Every item
derives its streams from its own coordinates and the tables are built in
spec order from the cache, so scheduling cannot leak into the results.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import DEFAULT_THRESHOLD, MIN_DRAWS, rhat_report
from .gibbs import run_chains
from .io import load_panel, manifest_hash, sha256_file, write_manifest, write_table
from .metrics import FitScore, MEASURES, aggregate, best_model_counts, discrepancy_ratio, score
from .model import ModelVariant, SamplerSettings, SourcePanel, variant
from .rng import RngStream, derive_stream_id
from .simgen import generate, load_spec_table, spec_table, synthetic_v_pool
from .summary import DRAW_BLOCK, kappa_weights, phi_distribution, phi_draws, summarize

_STREAM_FIT = 0
_STREAM_GEN = 1
_STREAM_MODEL0 = 16


def worker_count() -> int:
    raw = os.environ.get("GLSAE_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"GLSAE_WORKERS must be an integer >= 1, got {raw!r}")
    return n


# ---------------------------------------------------------------------------
# fit


@dataclass(frozen=True)
class FitConfig:
    panel_path: str
    models: tuple[str, ...]
    seed: int
    out_dir: str
    n_chains: int = 1
    n_iter: int = 18000
    n_burnin: int = 3000
    thin: int = 1
    source: str | None = None
    level: float = 0.95
    save_draws: bool = True

    def to_payload(self) -> dict:
        return {
            "command": "fit",
            "version": __version__,
            "panel": str(self.panel_path),
            "panel_sha256": sha256_file(self.panel_path),
            "models": list(self.models),
            "seed": self.seed,
            "n_chains": self.n_chains,
            "n_iter": self.n_iter,
            "n_burnin": self.n_burnin,
            "thin": self.thin,
            "source": self.source,
            "level": self.level,
            "overdispersion": None,  # run_chains picks it from n_chains; the key keeps manifest hashes stable
        }


def _source_index(panel: SourcePanel, source: str) -> int:
    """The panel column that ``--source`` names, by source id or 0-based index."""
    if source in panel.sources:
        return panel.sources.index(source)
    try:
        index = int(source)
    except ValueError:
        index = None
    if index not in range(panel.n_sources):
        raise ValueError(f"--source: unknown source {source!r}; panel has {panel.sources}")
    return index


def _fit_panel_for(model, panel: SourcePanel, source: int | None) -> SourcePanel:
    """The panel ``model`` fits: one-source fits of a multi-source panel take column ``source``."""
    if model.has_theta_level or panel.n_sources == 1:
        return panel
    if source is None:
        raise ValueError("one_source on a multi-source panel needs --source")
    return panel.select_source(source)


def _save_draws(draws: dict[str, np.ndarray], settings: SamplerSettings, model: ModelVariant,
                panel: SourcePanel, out: Path) -> list[Path]:
    """Write each array of ``draws`` and a ``meta.json`` describing the run under ``draws/<tag>/``."""
    droot = out / "draws" / model.tag
    droot.mkdir(parents=True, exist_ok=True)
    written = []
    for name, arr in sorted(draws.items()):
        p = droot / f"{name}.npy"
        np.save(p, arr)
        written.append(p)
    meta = {
        "variant": model.tag,
        "n_chains": settings.n_chains,
        "n_iter": settings.n_iter,
        "n_burnin": settings.n_burnin,
        "thin": settings.thin,
        "seed": settings.seed,
        "quantities": sorted(draws),
        "n_areas": panel.n_areas,
        "n_sources": panel.n_sources,
    }
    mp = droot / "meta.json"
    mp.write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    written.append(mp)
    return written


def _kappa_mean(panel: SourcePanel, lambda_ij: np.ndarray, tau1_sq: np.ndarray) -> np.ndarray:
    """Posterior mean of the (I, J) kappa weights over (chain, kept) draws, formed in blocks.

    Each block's rows are added to the running sum one after another in
    draw order, as ``.mean(axis=0)`` over all draws adds them, so the mean
    is the same to the bit with no (chain, kept, I, J) temporary (the sum
    starts at zero, and 0.0 + kappa is kappa, as kappa > 0).
    """
    lambda_ij = lambda_ij.reshape((-1,) + panel.v.shape)
    tau1_sq = tau1_sq.reshape(-1)
    total = np.zeros(panel.v.shape)
    for start in range(0, len(tau1_sq), DRAW_BLOCK):
        block = slice(start, start + DRAW_BLOCK)
        kap = kappa_weights(panel, lambda_ij[block], tau1_sq[block])
        total = np.add.reduce(np.concatenate((total[None], kap)), axis=0)
    return total / len(tau1_sq)


def _fit_model(config: FitConfig, settings: SamplerSettings, m_idx: int, model, fit_panel: SourcePanel,
               out: Path, stamp: str, long_rows: list) -> list[Path]:
    """Sample one variant, form its phi draws, write its tables (and draws), append its plot rows.

    The model's draws and every array derived from them are local here, so
    they are released before the next model samples.
    """
    draws = run_chains(fit_panel, model, settings, stream_base=derive_stream_id(_STREAM_FIT, m_idx))
    draws["phi"] = phi_draws(
        fit_panel, model, draws.get("lambda_ij"), draws["lambda_i"], draws.get("tau1_sq"), draws["tau2_sq"]
    )
    written: list[Path] = []

    summ = summarize(draws["mu"], level=config.level)
    rows = [
        (area, summ.mean[i], summ.sd[i], summ.lower[i], summ.upper[i])
        for i, area in enumerate(fit_panel.areas)
    ]
    p = out / f"summary_{model.tag}.csv"
    write_table(p, ("area", "post_mean", "post_sd", "lower", "upper"), rows, stamp)
    written.append(p)
    for i, area in enumerate(fit_panel.areas):
        long_rows.append((area, model.tag, "post_mean", summ.mean[i]))
        long_rows.append((area, model.tag, "post_sd", summ.sd[i]))
        long_rows.append((area, model.tag, "lower", summ.lower[i]))
        long_rows.append((area, model.tag, "upper", summ.upper[i]))

    fives = phi_distribution(draws["phi"])
    p = out / f"phi_{model.tag}.csv"
    write_table(
        p,
        ("area", "min", "q1", "median", "q3", "max"),
        [(area, *fives[i]) for i, area in enumerate(fit_panel.areas)],
        stamp,
    )
    written.append(p)

    if model.theta_variance_form == "source":
        kap_mean = _kappa_mean(fit_panel, draws["lambda_ij"], draws["tau1_sq"])
        rows = [
            (area, src, kap_mean[i, j])
            for i, area in enumerate(fit_panel.areas)
            for j, src in enumerate(fit_panel.sources)
        ]
        p = out / f"kappa_{model.tag}.csv"
        write_table(p, ("area", "source", "kappa_mean"), rows, stamp)
        written.append(p)

    if config.n_chains > 1:
        report = rhat_report(draws["mu"], "mu", DEFAULT_THRESHOLD)
        rows = [
            (fit_panel.areas[k], value, "pass" if ok else "fail")
            for k, (name, value, ok) in enumerate(report.rows())
        ]
        p = out / f"rhat_{model.tag}.csv"
        write_table(p, ("area", "split_rhat", "status"), rows, stamp)
        written.append(p)

    if config.save_draws:
        written.extend(_save_draws(draws, settings, model, fit_panel, out))
    return written


def run_fit(config: FitConfig) -> dict:
    """Fit the requested variants on one panel; returns the manifest payload.

    The panel, the sampler settings (at least 2 kept draws per chain for
    the posterior sd, and enough for split-R-hat when several chains
    run), the interval level and every model (listed once, with its panel
    columns) are checked before the output directory is created. One
    model is sampled at a time, and its draws are released before the
    next one samples.
    """
    if not config.models:
        raise ValueError("no model to fit")
    if not 0.0 < config.level < 1.0:
        raise ValueError(f"--level must be in (0, 1), got {config.level}")
    panel = load_panel(config.panel_path)
    payload = config.to_payload()
    stamp = manifest_hash(payload)
    settings = SamplerSettings(
        seed=config.seed,
        n_iter=config.n_iter,
        n_burnin=config.n_burnin,
        n_chains=config.n_chains,
        thin=config.thin,
        monitor=frozenset({"mu", "eta", "variances"}),
    )
    if settings.n_kept < 2:
        raise ValueError(f"a posterior sd needs at least 2 kept draws per chain, got {settings.n_kept}")
    if settings.n_chains > 1 and settings.n_kept < MIN_DRAWS:
        raise ValueError(f"split-R-hat needs at least {MIN_DRAWS} kept draws per chain, got {settings.n_kept}")
    # a given --source must name a column, whatever the models
    source = None if config.source is None else _source_index(panel, config.source)
    fits = {}
    for tag in config.models:
        model = variant(tag)
        if model in fits:
            raise ValueError(f"--model: model {model.tag!r} is listed twice")
        fits[model] = _fit_panel_for(model, panel, source)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    long_rows: list[tuple] = []
    for m_idx, (model, fit_panel) in enumerate(fits.items()):
        written.extend(_fit_model(config, settings, m_idx, model, fit_panel, out, stamp, long_rows))

    p = out / "plot_long.csv"
    write_table(p, ("area", "model", "quantity", "value"), long_rows, stamp)
    written.append(p)

    outputs = {str(w.relative_to(out)): sha256_file(w) for w in written}
    write_manifest(out / "manifest.json", payload, outputs)
    return payload


# ---------------------------------------------------------------------------
# simulation harness


@dataclass(frozen=True)
class SimTarget:
    """A model to fit inside the harness; one-source targets pin a column."""

    name: str           # table label: m1a, m12, mbr, msa, ...
    tag: str            # variant tag
    source_index: int | None = None


def parse_target(name: str) -> SimTarget:
    lowered = name.strip().lower()
    if lowered == "mbr":
        return SimTarget(name="mbr", tag="one_source", source_index=0)
    if lowered == "msa":
        return SimTarget(name="msa", tag="one_source", source_index=1)
    return SimTarget(name=lowered, tag=lowered)


# Simulation scales: `desk` finishes in minutes, `paper` is full scale;
# SimConfig's defaults are the desk preset.
PRESETS = {
    "desk": {"n_replicates": 30, "n_iter": 6000, "n_burnin": 1000},
    "paper": {"n_replicates": 100, "n_iter": 18000, "n_burnin": 3000},
}


@dataclass(frozen=True)
class SimConfig:
    case: int
    seed: int
    out_dir: str
    models: tuple[str, ...] = ("m1a", "m12")
    baseline: str | None = None  # default: m12 for cases 1-4, m1a for 5-6
    rows: tuple[int, ...] | None = None
    n_replicates: int = PRESETS["desk"]["n_replicates"]
    n_iter: int = PRESETS["desk"]["n_iter"]
    n_burnin: int = PRESETS["desk"]["n_burnin"]
    n_sources: int = 2
    bootstrap_v: bool = False  # redraw sampling variances per replicate from the pool
    v_panel: str | None = None
    spec_file: str | None = None

    def resolved_baseline(self) -> str:
        if self.baseline is not None:
            return self.baseline.lower()
        return "m12" if self.case in (1, 2, 3, 4) else "m1a"

    def to_payload(self) -> dict:
        return {
            "command": "simulate",
            "version": __version__,
            "case": self.case,
            "seed": self.seed,
            "models": list(self.models),
            "baseline": self.resolved_baseline(),
            "rows": list(self.rows) if self.rows is not None else "all",
            "n_replicates": self.n_replicates,
            "n_iter": self.n_iter,
            "n_burnin": self.n_burnin,
            "thin": 1,  # replicate fits keep every sweep; the key keeps manifest hashes stable
            "n_sources": self.n_sources,
            "bootstrap_v": self.bootstrap_v,
            "v_panel": self.v_panel and str(self.v_panel),
            "v_panel_sha256": sha256_file(self.v_panel) if self.v_panel else None,
            "spec_file": self.spec_file and str(self.spec_file),
            "spec_file_sha256": sha256_file(self.spec_file) if self.spec_file else None,
            "delta_scope": "unit",  # indicators are drawn per unit; the key keeps manifest hashes stable
        }


def _sim_item(args) -> tuple[int, int, dict[str, dict]]:
    """Generate, fit and score one (row, replicate); ``args`` is (spec, rep, targets, settings)."""
    spec, rep, targets, settings = args
    gen_rng = RngStream(settings.seed, derive_stream_id(spec.case_id, spec.row, rep, _STREAM_GEN))
    data = generate(spec, rep, gen_rng)
    out: dict[str, dict] = {}
    for t_idx, target in enumerate(targets):
        model = variant(target.tag)
        fit_panel = data.panel
        if target.source_index is not None:
            fit_panel = fit_panel.select_source(target.source_index)
        mu = run_chains(
            fit_panel, model, settings,
            stream_base=derive_stream_id(spec.case_id, spec.row, rep, _STREAM_MODEL0 + t_idx),
        )["mu"]
        estimate = mu.reshape(-1, mu.shape[-1]).mean(axis=0)
        out[target.name] = asdict(score(estimate, data.truth_mu))
    return spec.row, rep, out


def _cache_path(cache_dir: Path, case: int, row: int, rep: int) -> Path:
    return cache_dir / f"case{case}_row{row:03d}_rep{rep:04d}.json"


def _write_cached(path: Path, scores: dict[str, dict]) -> None:
    """Write one item's scores under a temporary name, then rename it into place."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"scores": scores}, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _load_cached(path: Path, targets) -> dict[str, dict] | None:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if set(payload.get("scores", {})) >= {t.name for t in targets}:
        return payload["scores"]
    return None


def _claim_items(counter, items: list, cache_dir: Path, case: int) -> None:
    """Claim the next unclaimed item from ``counter``, run it and cache it, until none is left.

    On any exception, claiming stops for every process and the exception is re-raised.
    """
    try:
        while True:
            with counter.get_lock():
                k = counter.value
                counter.value = k + 1
            if k >= len(items):
                return
            row, rep, scores = _sim_item(items[k])
            _write_cached(_cache_path(cache_dir, case, row, rep), scores)
    except BaseException:
        counter.value = len(items)
        raise


def _item_worker(counter, items, conn, cache_dir: Path, case: int) -> None:
    """A forked worker: claim, run and cache items; its first exception is the one message on ``conn``."""
    try:
        _claim_items(counter, items, cache_dir, case)
    except BaseException as exc:  # the parent raises it; this process only reports it
        with suppress(Exception):  # the parent is gone, or the exception does not pickle
            conn.send(exc)
    finally:
        conn.close()


def _run_items(items: list, workers: int, cache_dir: Path, case: int) -> None:
    """Run and cache ``items`` in ``min(workers, len(items))`` processes, this one among them.

    This process and the workers it forks each claim the next unclaimed
    item from one shared counter, run it and cache it themselves; the scores
    reach the tables only through the cache. On any exception (this
    process's, a worker's or an interrupt) claiming stops, every worker is
    joined and the first error is raised, this process's before a worker's.
    """
    ctx = multiprocessing.get_context("fork")  # workers share this process's pages and see its patches
    counter = ctx.Value("i", 0)  # a fork-context lock is unlinked at once, so no resource tracker starts
    conns, procs = [], []
    try:
        for _ in range(min(workers, len(items)) - 1):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_item_worker, args=(counter, items, writer, cache_dir, case))
            proc.start()
            writer.close()
            procs.append(proc)
            conns.append(reader)
        _claim_items(counter, items, cache_dir, case)
    finally:
        counter.value = len(items)
        errors = []
        for conn in conns:  # a worker's exception, or EOFError once it has ended without one
            with suppress(EOFError):
                errors.append(conn.recv())
            conn.close()
        for proc in procs:
            proc.join()
    if errors:
        raise errors[0]


def _code_digest() -> str:
    """SHA-256 over the bytes of every ``glsae/*.py`` file, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def run_simulation(config: SimConfig, workers: int | None = None) -> dict:
    """Generate, fit and score a case grid; writes the ratio tables.

    Returns a results dict with per-row aggregated scores and ratio
    summaries (also used by the verification suite).
    """
    if workers is None:
        workers = worker_count()
    if config.n_replicates < 1:
        raise ValueError(f"--replicates must be >= 1, got {config.n_replicates}")
    if config.n_sources < 1:
        raise ValueError(f"--sources must be >= 1, got {config.n_sources}")
    # every replicate fit: a single chain monitoring mu
    settings = SamplerSettings(seed=config.seed, n_iter=config.n_iter, n_burnin=config.n_burnin,
                               monitor=frozenset({"mu"}))
    out = Path(config.out_dir)
    payload = config.to_payload()
    stamp = manifest_hash(payload)

    targets = tuple(parse_target(m) for m in config.models)
    base_name = config.resolved_baseline()
    names = [t.name for t in targets]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"--models: model {name!r} is listed twice")
    if base_name not in names:
        raise ValueError(f"baseline {base_name!r} is not among the fitted models {names}")
    for target in targets:
        model = variant(target.tag)  # raises on an unknown model name
        if not model.has_theta_level and target.source_index is None and config.n_sources > 1:
            raise ValueError(
                f"--models: {target.name!r} fits a single source, but the panels have {config.n_sources}; "
                "name its column as mbr (column 0) or msa (column 1)"
            )
        if target.source_index is not None and target.source_index >= config.n_sources:
            raise ValueError(
                f"model {target.name!r} fits source column {target.source_index}, "
                f"but the panels have {config.n_sources} source(s)"
            )

    if config.v_panel:
        observed = load_panel(config.v_panel).v
    else:
        observed = synthetic_v_pool()
    if config.bootstrap_v:
        # the wider-J study resamples the observed pool per replicate
        v_kw = {"v": None, "v_pool": observed.reshape(-1)}
    else:
        if observed.shape[1] != config.n_sources:
            raise ValueError("fixed-variance mode needs a pool matching --sources; use bootstrap for other J")
        v_kw = {"v": observed, "v_pool": None, "n_areas": observed.shape[0]}
    common = {"n_sources": config.n_sources, **v_kw}
    if config.spec_file:
        specs = load_spec_table(config.spec_file, config.case, **common)
    else:
        specs = spec_table(config.case, **common)
    if config.rows is not None:
        missing = sorted(set(config.rows) - {s.row for s in specs})
        specs = [s for s in specs if s.row in config.rows]
        if missing:
            raise ValueError(f"rows {missing} are not in the case {config.case} grid")
        if not specs:
            raise ValueError("no rows selected")

    # the cache key also covers the code and numpy, so scores from another
    # sampler are never reused; the tables keep the manifest stamp
    cache_key = {**payload, "code_sha256": _code_digest(), "numpy": np.__version__}
    cache_dir = out / "cache" / manifest_hash(cache_key)
    cache_dir.mkdir(parents=True, exist_ok=True)
    stale = sorted(p.name for p in cache_dir.parent.iterdir() if p.is_dir() and p != cache_dir)
    if stale:
        print(
            f"glsae: note: {out / 'cache'} keeps {len(stale)} stale configuration(s), not removed: "
            + ", ".join(stale),
            file=sys.stderr,
        )

    paths = {(spec.row, rep): _cache_path(cache_dir, config.case, spec.row, rep)
             for spec in specs for rep in range(config.n_replicates)}
    items = [(spec, rep, targets, settings) for spec in specs for rep in range(config.n_replicates)
             if _load_cached(paths[spec.row, rep], targets) is None]
    _run_items(items, workers, cache_dir, config.case)
    # fresh and resumed items alike are read back from the cache
    cached = {key: _load_cached(path, targets) for key, path in paths.items()}
    missing = sum(scores is None for scores in cached.values())
    if missing:
        raise RuntimeError(f"{missing} simulation item(s) ended in a worker without a result")

    # aggregate medians per (row, model)
    agg: dict[str, dict[int, FitScore]] = {name: {} for name in names}
    for spec in specs:
        for name in names:
            reps = [
                FitScore(**cached[(spec.row, rep)][name])
                for rep in range(config.n_replicates)
            ]
            agg[name][spec.row] = aggregate(reps)

    ratios = {
        name: discrepancy_ratio(agg[name], agg[base_name])
        for name in names
        if name != base_name
    }

    written: list[Path] = []
    param_cols = list(specs[0].params)

    rows_med = []
    for spec in specs:
        for name in names:
            s = agg[name][spec.row]
            rows_med.append((spec.row, *[spec.params[c] for c in param_cols], name, s.arb, s.asrb, s.aad, s.asd))
    p = out / f"case{config.case}_medians.csv"
    write_table(p, ("row", *param_cols, "model", "arb", "asrb", "aad", "asd"), rows_med, stamp)
    written.append(p)

    ratio_cols = []
    for name in names:
        if name != base_name:
            ratio_cols += [f"{name}_arb_ratio", f"{name}_asrb_ratio"]
    rows_ratio = []
    for spec in specs:
        row = [spec.row, *[spec.params[c] for c in param_cols]]
        for name in names:
            if name == base_name:
                continue
            row.append(ratios[name].ratio("arb", spec.row))
            row.append(ratios[name].ratio("asrb", spec.row))
        rows_ratio.append(tuple(row))
    p = out / f"case{config.case}_ratio_by_spec.csv"
    write_table(p, ("row", *param_cols, *ratio_cols), rows_ratio, stamp)
    written.append(p)

    rows_summary = []
    for measure in MEASURES:
        for name in names:
            if name == base_name:
                continue
            six = ratios[name].stats[measure]
            rows_summary.append(
                (measure, f"{name}/{base_name}", six.minimum, six.q1, six.median, six.mean, six.q3, six.maximum)
            )
    p = out / f"case{config.case}_ratio_summary.csv"
    write_table(p, ("measure", "ratio", "min", "q1", "median", "mean", "q3", "max"), rows_summary, stamp)
    written.append(p)

    if sum(1 for n in names if n != base_name) >= 2:
        rows_counts = []
        for measure in MEASURES:
            table = {name: ratios[name].ratios[measure] for name in names if name != base_name}
            counts = best_model_counts(table)
            for name in sorted(table):
                rows_counts.append((measure, name, counts.counts[name], len(counts.ties)))
        p = out / f"case{config.case}_best_counts.csv"
        write_table(p, ("measure", "model", "wins", "tied_rows"), rows_counts, stamp)
        written.append(p)

    outputs = {str(w.relative_to(out)): sha256_file(w) for w in written}
    write_manifest(out / "manifest.json", payload, outputs)
    return {"specs": specs, "aggregated": agg, "ratios": ratios, "stamp": stamp}

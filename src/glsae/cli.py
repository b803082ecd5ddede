"""Command-line surface: fit, simulate, diagnose, evaluate."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import DEFAULT_THRESHOLD, rhat_report
from .io import load_value_csv, write_table
from .metrics import score
from .gibbs import SamplerDivergence
from .runner import PRESETS, FitConfig, SimConfig, run_fit, run_simulation


def _parse_rows(text: str) -> tuple[int, ...]:
    rows: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            raise ValueError(f"--rows: {part!r} is not a row number or a range such as 1-6") from None
        if first > last:
            raise ValueError(f"--rows: {part!r} runs backwards; write it as {last}-{first}")
        rows.extend(range(first, last + 1))
    return tuple(sorted(set(rows)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glsae", description=__doc__)
    parser.add_argument("--version", action="version", version=f"glsae {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit model variants to a panel file")
    fit.add_argument("--panel", required=True)
    fit.add_argument("--model", required=True, help="comma list: m11a,m11b,m1a,m1b,m12,one-source")
    fit.add_argument("--chains", type=int, default=1)
    fit.add_argument("--iters", type=int, default=18000)
    fit.add_argument("--burnin", type=int, default=3000)
    fit.add_argument("--thin", type=int, default=1)
    fit.add_argument("--seed", type=int, required=True)
    fit.add_argument("--out", required=True)
    fit.add_argument("--source", default=None, help="source name/index for one-source fits")
    fit.add_argument("--level", type=float, default=0.95)
    fit.add_argument("--no-draws", action="store_true", help="skip writing raw draws")

    sim = sub.add_parser("simulate", help="run a replicated evaluation grid")
    sim.add_argument("--case", type=int, required=True, choices=range(1, 7))
    sim.add_argument("--specs", default="all", help="'all' or a CSV grid file")
    sim.add_argument("--rows", default=None, help="row selection, e.g. 1,4 or 1-6")
    sim.add_argument("--replicates", type=int, default=None)
    sim.add_argument("--models", default="m1a,m12", help="comma list; mbr/msa are one-source fits")
    sim.add_argument("--baseline", default=None)
    sim.add_argument("--preset", default="desk", choices=("desk", "paper"))
    sim.add_argument("--iters", type=int, default=None)
    sim.add_argument("--burnin", type=int, default=None)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--v-panel", default=None, help="panel file supplying observed sampling variances")
    sim.add_argument("--sources", type=int, default=2, help="sources per area (cases 1-4)")
    sim.add_argument("--bootstrap-v", action="store_true",
                     help="resample sampling variances per replicate from the pool (wider-J mode)")

    diag = sub.add_parser("diagnose", help="split-R-hat report from saved draws")
    diag.add_argument("--draws", required=True, help="draws directory written by fit")
    diag.add_argument("--quantity", default="mu")
    diag.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    diag.add_argument("--out", default=None)

    ev = sub.add_parser("evaluate", help="deviation measures for estimates against truths")
    ev.add_argument("--estimates", required=True)
    ev.add_argument("--truths", required=True)

    return parser


def _cmd_fit(args) -> int:
    config = FitConfig(
        panel_path=args.panel,
        models=tuple(m.strip() for m in args.model.split(",") if m.strip()),
        seed=args.seed,
        out_dir=args.out,
        n_chains=args.chains,
        n_iter=args.iters,
        n_burnin=args.burnin,
        thin=args.thin,
        source=args.source,
        level=args.level,
        save_draws=not args.no_draws,
    )
    run_fit(config)
    print(f"fit complete: {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    preset = PRESETS[args.preset]
    config = SimConfig(
        case=args.case,
        seed=args.seed,
        out_dir=args.out,
        models=tuple(m.strip() for m in args.models.split(",") if m.strip()),
        baseline=args.baseline,
        rows=_parse_rows(args.rows) if args.rows else None,
        n_replicates=args.replicates if args.replicates is not None else preset["n_replicates"],
        n_iter=args.iters if args.iters is not None else preset["n_iter"],
        n_burnin=args.burnin if args.burnin is not None else preset["n_burnin"],
        n_sources=args.sources,
        bootstrap_v=args.bootstrap_v,
        v_panel=args.v_panel,
        spec_file=None if args.specs == "all" else args.specs,
    )
    run_simulation(config)
    print(f"simulation complete: {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    if not (math.isfinite(args.threshold) and args.threshold > 1.0):
        raise ValueError(f"--threshold must be a finite number above 1, got {args.threshold!r}")
    droot = Path(args.draws)
    meta = json.loads((droot / "meta.json").read_text(encoding="utf-8"))
    saved = meta["quantities"]
    if args.quantity not in saved:
        raise ValueError(f"--quantity: {args.quantity!r} is not saved in {droot}; saved: {', '.join(saved)}")
    arr = np.load(droot / f"{args.quantity}.npy")
    if arr.shape[0] < 2:
        raise ValueError("diagnose needs at least 2 chains")
    report = rhat_report(arr, args.quantity, args.threshold)
    rows = [(name, val, "pass" if ok else "fail") for name, val, ok in report.rows()]
    if args.out:
        write_table(args.out, ("parameter", "split_rhat", "status"), rows, None)
    else:
        print("parameter,split_rhat,status")
        for name, val, status in rows:
            print(f"{name},{val!r},{status}")
    worst = max(r[1] for r in rows)
    print(f"# variant={meta['variant']} chains={meta['n_chains']} worst={worst:.4f} threshold={args.threshold}")
    return 0 if worst < args.threshold else 1


def _cmd_evaluate(args) -> int:
    areas_e, est = load_value_csv(args.estimates)
    areas_t, tru = load_value_csv(args.truths)
    if areas_e != areas_t:
        order = {a: k for k, a in enumerate(areas_t)}
        if set(areas_e) != set(areas_t):
            raise ValueError("estimate and truth files cover different areas")
        idx = [order[a] for a in areas_e]
        tru = tru[idx]
    s = score(est, tru)
    print("arb,asrb,aad,asd,n_nonpositive_truth")
    print(f"{s.arb!r},{s.asrb!r},{s.aad!r},{s.asd!r},{s.n_nonpositive_truth}")
    return 0


def main(argv=None) -> int:
    """Run one command; an input mistake or a diverged chain prints one line and returns 2."""
    args = build_parser().parse_args(argv)
    handlers = {
        "fit": _cmd_fit,
        "simulate": _cmd_simulate,
        "diagnose": _cmd_diagnose,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, SamplerDivergence) as exc:
        print(f"glsae: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

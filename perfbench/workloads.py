"""The benchmark's workloads: seeded inputs and the glsae command each runs.

Every workload goes through the real command line (``python -m glsae.cli``).
Its inputs come only from the benchmark seed: each input set's panel CSV is
drawn with ``glsae.simgen`` and written with ``glsae.io.save_panel``, and its
command ``--seed`` is a hash of (workload, seed, set number). The same seed
therefore gives byte-identical inputs and, because glsae is deterministic,
byte-identical outputs.

Sizes are chosen so that one command takes 3-7 s on a 2-core machine, so
that a run repeats it several times. The ``toy`` size exists for the
harness self-test.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

FIT_MODELS = ("m11a", "m11b", "m1a", "m1b", "m12", "one_source")
PANEL_ROW = 4        # case-1 grid row the fit panel is drawn from (p = 0.1, scales 0.2)
N_AREAS = 62         # areas in every generated panel (glsae.simgen default)
FIT_CHAINS = 5
ESS_CHAINS = 2       # chains of the companion fit that measures mixing on simulate workloads


@dataclass(frozen=True)
class Size:
    iters: int
    burnin: int
    replicates: int = 1

    @property
    def kept(self) -> int:
        """Post-burn-in draws of one chain."""
        return self.iters - self.burnin


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                  # fit | simulate
    workers: int               # GLSAE_WORKERS for the command
    models: tuple[str, ...]    # CLI model names, as the command receives them
    n_sources: int
    sizes: dict                # "full" for the benchmark, "toy" for its self-test
    rows: tuple[int, ...] = ()
    extra: tuple[str, ...] = ()

    def variant_tags(self) -> tuple[str, ...]:
        """Variant tags the workload fits (``mbr``/``msa`` are one-source fits)."""
        return tuple("one_source" if m in ("mbr", "msa") else m for m in self.models)

    def items(self, size: Size) -> int:
        """Operations one command attempts: models for fit, (row, replicate) items for simulate."""
        if self.kind == "fit":
            return len(self.models)
        return len(self.rows) * size.replicates

    def sweeps(self, size: Size) -> int:
        """Chain-sweeps (fit) or replicate-sweeps (simulate) one command performs."""
        if self.kind == "fit":
            return len(self.models) * FIT_CHAINS * size.iters
        return self.items(size) * len(self.models) * size.iters


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-5chain",
            why="glsae fit of all six variants with 5 chains and saved draws on a 62x2 panel: "
                "chain batching, summary, diagnostics and draw I/O show here",
            kind="fit",
            workers=1,
            models=FIT_MODELS,
            n_sources=2,
            sizes={"full": Size(iters=600, burnin=150), "toy": Size(iters=40, burnin=10)},
        ),
        Workload(
            name="simulate-case1",
            why="many short single-chain replicate fits through the process pool: replicate "
                "batching and per-item overhead show here; summary and draw I/O barely run",
            kind="simulate",
            workers=2,
            models=("m1a", "m1b", "m12", "mbr"),
            n_sources=2,
            rows=(1, 4),
            sizes={"full": Size(iters=900, burnin=200, replicates=8),
                   "toy": Size(iters=30, burnin=10, replicates=2)},
        ),
        Workload(
            name="simulate-wideJ",
            why="J=4 replicate fits where m11b's lambda_i draw needs a GIG of order -1.5: "
                "the general-order GIG dominates; batching should barely move it",
            kind="simulate",
            workers=2,
            models=("m1a", "m11b"),
            n_sources=4,
            rows=(4,),
            extra=("--sources", "4", "--bootstrap-v", "--baseline", "m1a"),
            sizes={"full": Size(iters=90, burnin=20, replicates=6),
                   "toy": Size(iters=12, burnin=4, replicates=2)},
        ),
    )
}


def command_seed(workload: str, seed: int) -> int:
    """The ``--seed`` a workload's command receives, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def case1_specs(n_sources: int):
    """The case-1 grid as ``glsae simulate`` builds it at this J.

    At J = 2 the sampling variances are the fixed synthetic pool; at other J
    they are resampled from it per replicate (``--bootstrap-v``).
    """
    from glsae.simgen import spec_table, synthetic_v_pool

    if n_sources == 2:
        return spec_table(1, v=synthetic_v_pool())
    return spec_table(1, n_sources=n_sources, v_pool=synthetic_v_pool().reshape(-1))


def _stream_name(name: str, k: int) -> str:
    """Hash key of input set ``k``; set 0 keeps the plain name."""
    return name if k == 0 else f"{name}#{k}"


def fit_panel(seed: int, n_sources: int = 2, k: int = 0):
    """Case-1 replicate panel number ``k`` at this J, drawn from the benchmark ``seed``."""
    from glsae.rng import RngStream
    from glsae.simgen import generate

    spec = case1_specs(n_sources)[PANEL_ROW - 1]
    return generate(spec, 0, RngStream(command_seed(_stream_name("panel", k), seed), n_sources))


def make_inputs(workload: Workload, seed: int, in_dir: Path, k: int = 0) -> dict:
    """Write input set ``k`` of the workload; returns its panel path and command seed.

    Every workload gets panels: ``fit-5chain`` fits them, and the simulate
    workloads fit them in the companion fits that measure mixing. Input sets
    differ in both the panel and the command seed, so mixing measured over
    several sets averages over data and chains alike.
    """
    from glsae.io import save_panel

    in_dir.mkdir(parents=True, exist_ok=True)
    panel_path = in_dir / "panel.csv"
    save_panel(fit_panel(seed, workload.n_sources, k).panel, panel_path)
    return {"panel": panel_path, "seed": command_seed(_stream_name(workload.name, k), seed)}


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "glsae.cli", *args]


def _fit_args(models, panel, chains, size: Size, seed: int, out: Path) -> list[str]:
    args = ["fit", "--panel", str(panel), "--model", ",".join(models),
            "--chains", str(chains), "--iters", str(size.iters), "--burnin", str(size.burnin),
            "--seed", str(seed), "--out", str(out)]
    if "one_source" in models:
        args += ["--source", "src1"]
    return args


def command(workload: Workload, size: Size, inputs: dict, out: Path) -> list[str]:
    """argv of the workload's glsae command (module form, run with PYTHONPATH=src)."""
    if workload.kind == "fit":
        return _cli(*_fit_args(workload.models, inputs["panel"], FIT_CHAINS, size, inputs["seed"], out))
    return _cli("simulate", "--case", "1", "--rows", ",".join(map(str, workload.rows)),
                "--models", ",".join(workload.models), "--replicates", str(size.replicates),
                "--iters", str(size.iters), "--burnin", str(size.burnin),
                "--seed", str(inputs["seed"]), "--out", str(out), *workload.extra)


def ess_fit_command(workload: Workload, size: Size, inputs: dict, out: Path) -> list[str]:
    """Companion fit of a simulate workload's variants on one of its panels.

    ``glsae simulate`` keeps no draws, so the mixing of its chains is read
    from this fit: same variants, same J, same sweep counts, ESS_CHAINS chains.
    """
    return _cli(*_fit_args(workload.variant_tags(), inputs["panel"], ESS_CHAINS, size, inputs["seed"], out))


def setup_code(workload: Workload, inputs: dict) -> str:
    """Python source of the set-up probe: import the CLI, then load or generate the inputs."""
    if workload.kind == "fit":
        return ("import glsae.cli\n"
                "from glsae.io import load_panel\n"
                f"load_panel({str(inputs['panel'])!r})\n")
    return ("import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import glsae.cli\n"
            "from workloads import case1_specs\n"
            f"case1_specs({workload.n_sources})\n")

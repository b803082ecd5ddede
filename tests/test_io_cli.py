import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from glsae.cli import main
from glsae.io import PanelFormatError, fmt, load_panel, save_panel, read_table
from glsae.runner import PRESETS, SimConfig, _sim_item, worker_count
from glsae.summary import DRAW_BLOCK, kappa_weights


def _write_panel(path, rows, header="area,source,estimate,se"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture
def panel_file(tmp_path):
    path = tmp_path / "panel.csv"
    rows = []
    gen = np.random.default_rng(1)
    for i in range(8):
        for src in ("brfss", "sahie"):
            est = 0.25 + 0.03 * gen.standard_normal()
            se = 0.02 if src == "brfss" else 0.008
            rows.append(f"c{i:02d},{src},{est!r},{se}")
    _write_panel(path, rows)
    return path


def test_load_panel_shapes_and_values(panel_file):
    panel = load_panel(panel_file)
    assert panel.n_areas == 8 and panel.n_sources == 2
    assert panel.sources == ("brfss", "sahie")
    assert np.allclose(panel.v[:, 0], 0.02**2)  # se squared on ingestion


def test_load_panel_rejects_zero_se(tmp_path):
    path = tmp_path / "bad.csv"
    _write_panel(path, ["a,s1,0.2,0.01", "a,s2,0.2,0.0", "b,s1,0.2,0.01", "b,s2,0.2,0.01"])
    with pytest.raises(PanelFormatError, match="bad.csv:3"):
        load_panel(path)


def test_load_panel_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    _write_panel(path, ["a,s1,0.2,0.01", "a,s1,0.21,0.01", "b,s1,0.2,0.01"])
    with pytest.raises(PanelFormatError, match="duplicate"):
        load_panel(path)


def test_load_panel_rejects_ragged(tmp_path):
    path = tmp_path / "ragged.csv"
    _write_panel(path, ["a,s1,0.2,0.01", "a,s2,0.2,0.01", "b,s1,0.2,0.01"])
    with pytest.raises(PanelFormatError, match="non-rectangular"):
        load_panel(path)


def test_load_panel_rejects_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    _write_panel(path, ["a,s1,0.2,0.01"], header="id,source,estimate,se")
    with pytest.raises(PanelFormatError, match="header"):
        load_panel(path)


def test_load_panel_reports_malformed_line(tmp_path):
    path = tmp_path / "mal.csv"
    _write_panel(path, ["a,s1,0.2,0.01", "b,s1,zzz,0.01"])
    with pytest.raises(PanelFormatError, match="mal.csv:3"):
        load_panel(path)


@pytest.mark.parametrize("rows, message", [
    (["a,s1,0.2,0.01", "b,s1,0.2,1e-170"], "sampling variance at (1, 0) must be > 0"),  # se**2 is 0
    (["a,s1,0.2,1e200", "b,s1,0.2,0.01"], "sampling variance at (0, 0) must be > 0"),  # se**2 is inf
    (["a,s1,0.2,0.01", "b,s1,0.2,1e-160"], "sampling variance at (1, 0) is below the smallest normal float"),
    (["a,s1,0.2,0.01", "a,s2,0.3,0.01"], "need at least 2 areas, got 1"),
], ids=["se_squares_to_0", "se_squares_to_inf", "se_squares_to_subnormal", "one_area"])
def test_load_panel_refuses_an_invalid_panel_with_its_path(tmp_path, rows, message):
    path = tmp_path / "inv.csv"
    _write_panel(path, rows)
    with pytest.raises(PanelFormatError) as err:
        load_panel(path)
    assert str(err.value) == f"{path}: invalid panel: {message}"


def test_load_panel_skips_comment_and_whitespace_lines(tmp_path, panel_file):
    lines = panel_file.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "commented.csv"
    path.write_text("\n".join(["# a leading comment", lines[0], lines[1], "   ", "\t", *lines[2:]]) + "\n",
                    encoding="utf-8")
    panel, plain = load_panel(path), load_panel(panel_file)
    assert panel.areas == plain.areas and panel.sources == plain.sources
    assert np.array_equal(panel.y, plain.y) and np.array_equal(panel.v, plain.v)


def test_load_panel_names_the_header_line_after_comments(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("# note\nid,source,estimate,se\na,s1,0.2,0.01\n", encoding="utf-8")
    with pytest.raises(PanelFormatError, match="hdr.csv:2: header"):
        load_panel(path)


def test_save_load_roundtrip(tmp_path, panel_file):
    panel = load_panel(panel_file)
    out = tmp_path / "resaved.csv"
    save_panel(panel, out)
    back = load_panel(out)
    assert back.areas == panel.areas and back.sources == panel.sources
    assert np.array_equal(back.y, panel.y)
    assert np.allclose(back.v, panel.v, rtol=1e-15)


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_fit_command_outputs_and_determinism(tmp_path, panel_file):
    out1, out2 = tmp_path / "fit1", tmp_path / "fit2"
    args = [
        "fit", "--panel", str(panel_file), "--model", "m1a,m1b",
        "--chains", "2", "--iters", "300", "--burnin", "100",
        "--seed", "42", "--out",
    ]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    d1, d2 = _tree_digest(out1), _tree_digest(out2)
    assert d1 == d2  # byte-identical rerun

    names = set(d1)
    for tag in ("m1a", "m1b"):
        assert f"summary_{tag}.csv" in names
        assert f"phi_{tag}.csv" in names
        assert f"kappa_{tag}.csv" in names
        assert f"rhat_{tag}.csv" in names
        assert f"draws/{tag}/mu.npy" in names
    assert "manifest.json" in names and "plot_long.csv" in names

    header, rows = read_table(out1 / "summary_m1a.csv")
    assert header == ["area", "post_mean", "post_sd", "lower", "upper"]
    assert len(rows) == 8
    h2, rows2 = read_table(out1 / "summary_m1b.csv")
    assert [r[0] for r in rows] == [r[0] for r in rows2]  # identical area ordering

    manifest = json.loads((out1 / "manifest.json").read_text())
    stamp = manifest["manifest_hash"]
    first = (out1 / "summary_m1a.csv").read_text().splitlines()[0]
    assert first == f"# manifest: {stamp}"
    for rel, digest in manifest["outputs"].items():
        assert hashlib.sha256((out1 / rel).read_bytes()).hexdigest() == digest


def test_fit_without_draws_writes_the_same_tables(tmp_path, panel_file):
    """phi, kappa and every table do not depend on whether the draws are saved."""
    args = [
        "fit", "--panel", str(panel_file), "--model", "m11b,m1a,m12,one-source", "--source", "brfss",
        "--chains", "2", "--iters", "60", "--burnin", "20", "--seed", "8", "--out",
    ]
    assert main(args + [str(tmp_path / "saved")]) == 0
    assert main(args + [str(tmp_path / "bare"), "--no-draws"]) == 0
    saved, bare = _tree_digest(tmp_path / "saved"), _tree_digest(tmp_path / "bare")
    tables = {n for n in saved if not n.startswith("draws") and n != "manifest.json"}
    assert set(bare) == tables | {"manifest.json"}
    for prefix in ("summary_", "phi_", "rhat_"):
        assert sum(n.startswith(prefix) for n in tables) == 4, prefix
    assert {n for n in tables if n.startswith("kappa_")} == {"kappa_m1a.csv"}
    assert "plot_long.csv" in tables
    assert {n: bare[n] for n in tables} == {n: saved[n] for n in tables}


def test_fit_kappa_table_is_the_mean_over_all_draws(tmp_path, panel_file):
    """The kappa table, summed block by block, is the plain mean of every draw's kappa to the bit."""
    out = tmp_path / "fit"
    assert main([
        "fit", "--panel", str(panel_file), "--model", "m1a,m1b",
        "--chains", "3", "--iters", "400", "--burnin", "50", "--seed", "12", "--out", str(out),
    ]) == 0
    assert 3 * 350 > DRAW_BLOCK and (3 * 350) % DRAW_BLOCK
    panel = load_panel(panel_file)
    for tag in ("m1a", "m1b"):
        lam_ij = np.load(out / "draws" / tag / "lambda_ij.npy")
        assert lam_ij.shape == (3, 350, 8, 2)
        kap = kappa_weights(panel, lam_ij, np.load(out / "draws" / tag / "tau1_sq.npy"))
        want = kap.reshape(-1, 8, 2).mean(axis=0)
        _, rows = read_table(out / f"kappa_{tag}.csv")
        assert [r[2] for r in rows] == [fmt(x) for x in want.reshape(-1)]


def test_fit_one_source_needs_source_flag(tmp_path, panel_file, capsys):
    assert main([
        "fit", "--panel", str(panel_file), "--model", "one-source",
        "--iters", "50", "--burnin", "10", "--seed", "1", "--out", str(tmp_path / "x"),
    ]) == 2
    assert "--source" in _one_error_line(capsys)
    out = tmp_path / "mbr"
    code = main([
        "fit", "--panel", str(panel_file), "--model", "one-source", "--source", "brfss",
        "--iters", "200", "--burnin", "50", "--seed", "1", "--out", str(out), "--no-draws",
    ])
    assert code == 0
    header, rows = read_table(out / "summary_one_source.csv")
    assert len(rows) == 8


_FIT_REFUSALS = [
    ("missing.csv", "m12", [], "No such file or directory: 'missing.csv'"),
    (None, "m12,zzz", [], "unknown variant tag 'zzz'"),
    (None, "m12,one-source", [], "needs --source"),
    (None, "m12", ["--level", "1.5"], "level must be in (0, 1)"),
    (None, "m1a,m12,m1a", [], "model 'm1a' is listed twice"),
    (None, "one-source,one_source", ["--source", "brfss"], "model 'one_source' is listed twice"),
    (None, "m12", ["--chains", "2", "--iters", "5", "--burnin", "2"],
     "split-R-hat needs at least 4 kept draws per chain, got 3"),
    (None, "m12", ["--iters", "30", "--burnin", "10", "--thin", "50"],
     "a posterior sd needs at least 2 kept draws per chain, got 1"),
    (None, "", [], "no model to fit"),
    (None, ",", [], "no model to fit"),
    (None, "one-source", ["--source", "-1"], "unknown source '-1'; panel has ('brfss', 'sahie')"),
    (None, "m12", ["--source", "zzz"], "--source: unknown source 'zzz'; panel has ('brfss', 'sahie')"),
    (None, "m12", ["--seed", "-5"], "--seed must be >= 0, got -5"),
    (None, "m12", ["--chains", "0"], "--chains must be >= 1, got 0"),
    (None, "m12", ["--thin", "0"], "--thin must be >= 1, got 0"),
    (None, "m12", ["--burnin", "-1"], "--burnin must be >= 0 and below --iters (50), got -1"),
    (None, "m12", ["--level", "0"], "--level must be in (0, 1), got 0.0"),
]


@pytest.mark.parametrize(
    "panel, models, extra, message", _FIT_REFUSALS, ids=[f"{p}-{m}-{msg}" for p, m, _, msg in _FIT_REFUSALS]
)
def test_fit_rejects_bad_input_before_writing(
    tmp_path, panel_file, capsys, monkeypatch, panel, models, extra, message
):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "o"
    assert main([
        "fit", "--panel", panel or str(panel_file), "--model", models,
        "--iters", "50", "--burnin", "10", "--seed", "1", "--out", str(out), *extra,
    ]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_invalid_panel_is_refused_before_writing(tmp_path, capsys, command):
    panel = tmp_path / "tiny.csv"
    _write_panel(panel, ["a,s1,0.2,0.01", "b,s1,0.2,1e-170"])
    out = tmp_path / "o"
    if command == "fit":
        argv = ["fit", "--panel", str(panel), "--model", "m12"]
    else:
        argv = ["simulate", "--case", "1", "--rows", "1", "--replicates", "1", "--v-panel", str(panel)]
    assert main([*argv, "--iters", "50", "--burnin", "10", "--seed", "1", "--out", str(out)]) == 2
    assert f"{panel}: invalid panel: sampling variance at (1, 0) must be > 0" in _one_error_line(capsys)
    assert not out.exists()


def test_fit_refuses_an_unknown_source_on_a_single_source_panel(tmp_path, capsys):
    panel = tmp_path / "one.csv"
    _write_panel(panel, [f"c{i},brfss,0.2{i},0.01" for i in range(4)])
    out = tmp_path / "o"
    assert main([
        "fit", "--panel", str(panel), "--model", "one-source", "--source", "zzz",
        "--iters", "50", "--burnin", "10", "--seed", "1", "--out", str(out),
    ]) == 2
    assert "--source: unknown source 'zzz'; panel has ('brfss',)" in _one_error_line(capsys)
    assert not out.exists()


def test_sampler_divergence_is_reported_in_one_line(tmp_path, panel_file, capsys, monkeypatch):
    import glsae.runner as runner
    from glsae.gibbs import SamplerDivergence

    def diverges(*args, **kwargs):
        raise SamplerDivergence("non-finite theta at coordinate (0, 0) on iteration 0")

    monkeypatch.setattr(runner, "run_chains", diverges)
    assert main([
        "fit", "--panel", str(panel_file), "--model", "m12",
        "--iters", "50", "--burnin", "10", "--seed", "1", "--out", str(tmp_path / "o"),
    ]) == 2
    assert _one_error_line(capsys) == "glsae: error: non-finite theta at coordinate (0, 0) on iteration 0"


def test_diagnose_reports_missing_draws_in_one_line(tmp_path, capsys):
    assert main(["diagnose", "--draws", str(tmp_path / "missing")]) == 2
    assert "No such file or directory" in _one_error_line(capsys)


def test_diagnose_refuses_one_chain_in_one_line(tmp_path, panel_file, capsys):
    out = tmp_path / "fit"
    assert main([
        "fit", "--panel", str(panel_file), "--model", "m12", "--chains", "1",
        "--iters", "30", "--burnin", "10", "--seed", "7", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--draws", str(out / "draws" / "m12")]) == 2
    assert "diagnose needs at least 2 chains" in _one_error_line(capsys)


def test_diagnose_command(tmp_path, panel_file, capsys):
    out = tmp_path / "fit"
    main([
        "fit", "--panel", str(panel_file), "--model", "m12",
        "--chains", "3", "--iters", "2500", "--burnin", "500",
        "--seed", "7", "--out", str(out),
    ])
    code = main(["diagnose", "--draws", str(out / "draws" / "m12"), "--quantity", "mu"])
    captured = capsys.readouterr().out
    assert "parameter,split_rhat,status" in captured
    assert code == 0
    # diagnose recomputes the fit's own report from the saved draws
    report = tmp_path / "rhat.csv"
    main(["diagnose", "--draws", str(out / "draws" / "m12"), "--quantity", "mu", "--out", str(report)])
    _, diag_rows = read_table(report)
    _, fit_rows = read_table(out / "rhat_m12.csv")
    assert [r[0] for r in diag_rows] == [f"mu[{k}]" for k in range(8)]
    assert [r[1:] for r in diag_rows] == [r[1:] for r in fit_rows]


def test_evaluate_command(tmp_path, capsys):
    est = tmp_path / "est.csv"
    tru = tmp_path / "tru.csv"
    est.write_text("area,value\nc1,0.30\n", encoding="utf-8")
    tru.write_text("area,value\nc1,0.25\n", encoding="utf-8")
    assert main(["evaluate", "--estimates", str(est), "--truths", str(tru)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "arb,asrb,aad,asd,n_nonpositive_truth"
    vals = [float(x) for x in lines[1].split(",")]
    assert vals == pytest.approx([0.2, 0.04, 0.05, 0.0025, 0.0])


def test_evaluate_refuses_different_areas_in_one_line(tmp_path, capsys):
    est = tmp_path / "est.csv"
    tru = tmp_path / "tru.csv"
    est.write_text("area,value\nc1,0.30\nc2,0.20\n", encoding="utf-8")
    tru.write_text("area,value\nc1,0.25\nc3,0.20\n", encoding="utf-8")
    assert main(["evaluate", "--estimates", str(est), "--truths", str(tru)]) == 2
    assert "estimate and truth files cover different areas" in _one_error_line(capsys)


@pytest.mark.parametrize("repeated", ["est.csv", "tru.csv"])
def test_evaluate_refuses_a_repeated_area_in_one_line(tmp_path, capsys, repeated):
    est = tmp_path / "est.csv"
    tru = tmp_path / "tru.csv"
    est.write_text("area,value\nc1,0.30\nc2,0.20\n", encoding="utf-8")
    tru.write_text("area,value\nc1,0.25\nc2,0.20\n", encoding="utf-8")
    (tmp_path / repeated).write_text("area,value\nc1,0.30\nc2,0.20\nc2,0.40\n", encoding="utf-8")
    assert main(["evaluate", "--estimates", str(est), "--truths", str(tru)]) == 2
    assert f"{tmp_path / repeated}: area 'c2' is listed twice" in _one_error_line(capsys)


_VALUE_REFUSALS = [
    ("c2,nan", "value must be finite, got 'nan'"),
    ("c2,-inf", "value must be finite, got '-inf'"),
    ("c2", "no 'value' field"),
    ("c2,abc", "non-numeric value 'abc'"),
]


@pytest.mark.parametrize("bad_file", ["est.csv", "tru.csv"])
@pytest.mark.parametrize("row, message", _VALUE_REFUSALS, ids=[r for r, _ in _VALUE_REFUSALS])
def test_evaluate_refuses_a_bad_value_with_its_line(tmp_path, capsys, bad_file, row, message):
    est = tmp_path / "est.csv"
    tru = tmp_path / "tru.csv"
    est.write_text("area,value\nc1,0.30\nc2,0.20\n", encoding="utf-8")
    tru.write_text("area,value\nc1,0.25\nc2,0.20\n", encoding="utf-8")
    (tmp_path / bad_file).write_text(f"# manifest: x\narea,value\nc1,0.30\n{row}\n", encoding="utf-8")
    assert main(["evaluate", "--estimates", str(est), "--truths", str(tru)]) == 2
    assert f"{tmp_path / bad_file}:4: {message}" in _one_error_line(capsys)


def test_simulate_command_deterministic_across_workers(tmp_path, monkeypatch):
    args = [
        "simulate", "--case", "1", "--rows", "1", "--replicates", "2",
        "--models", "m1a,m12", "--iters", "200", "--burnin", "50",
        "--seed", "9", "--out",
    ]
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    monkeypatch.setenv("GLSAE_WORKERS", "1")
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    monkeypatch.setenv("GLSAE_WORKERS", "2")
    assert main(args + [str(out3)]) == 0

    for name in ("case1_medians.csv", "case1_ratio_by_spec.csv", "case1_ratio_summary.csv", "manifest.json"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes(), name
        assert b1 == (out3 / name).read_bytes(), name


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_resume_from_cache(tmp_path, monkeypatch, workers):
    monkeypatch.setenv("GLSAE_WORKERS", workers)
    args = [
        "simulate", "--case", "6", "--rows", "1,2", "--replicates", "2",
        "--models", "m1a,mbr", "--baseline", "m1a",
        "--iters", "150", "--burnin", "50", "--seed", "4", "--out",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + [str(out1)]) == 0
    # partially seed the second run's cache from the first, then resume
    cache_files = sorted((out1 / "cache").rglob("*.json"))
    assert len(cache_files) == 4
    for f in cache_files[: len(cache_files) // 2]:
        dest = out2 / f.relative_to(out1)
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(f.read_bytes())
    assert main(args + [str(out2)]) == 0
    assert (out1 / "case6_ratio_by_spec.csv").read_bytes() == (out2 / "case6_ratio_by_spec.csv").read_bytes()


def _run_outputs(out: Path) -> dict[str, bytes]:
    """Bytes of the manifest and of every output it lists."""
    manifest = json.loads((out / "manifest.json").read_text())
    return {name: (out / name).read_bytes() for name in ["manifest.json", *manifest["outputs"]]}


def _toy_simulate(seed: int) -> list[str]:
    return [
        "simulate", "--case", "1", "--rows", "1", "--replicates", "4",
        "--models", "m1a,m12", "--iters", "120", "--burnin", "40",
        "--seed", str(seed), "--out",
    ]


def test_simulate_cache_is_keyed_by_configuration(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GLSAE_WORKERS", "1")
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert main(_toy_simulate(1) + [str(shared)]) == 0
    assert capsys.readouterr().err == ""
    (seed1,) = [p.name for p in (shared / "cache").iterdir()]
    assert main(_toy_simulate(2) + [str(shared)]) == 0
    # the seed-1 directory is reported on one stderr line and kept
    assert capsys.readouterr().err.splitlines() == [
        f"glsae: note: {shared / 'cache'} keeps 1 stale configuration(s), not removed: {seed1}"
    ]
    assert main(_toy_simulate(2) + [str(fresh)]) == 0
    assert _run_outputs(shared) == _run_outputs(fresh)
    assert len(list((shared / "cache").iterdir())) == 2  # one directory per configuration


def test_simulate_cache_is_keyed_by_code(tmp_path, monkeypatch, capsys):
    from glsae import runner

    monkeypatch.setenv("GLSAE_WORKERS", "1")
    out = tmp_path / "s"
    assert main(_toy_simulate(1) + [str(out)]) == 0
    (old,) = [p.name for p in (out / "cache").iterdir()]
    first = _run_outputs(out)
    capsys.readouterr()

    real_item = runner._sim_item
    calls = []

    def counted(item):
        calls.append(item)
        return real_item(item)

    monkeypatch.setattr(runner, "_sim_item", counted)
    monkeypatch.setattr(runner, "_code_digest", lambda: "0" * 64)
    assert main(_toy_simulate(1) + [str(out)]) == 0
    assert len(calls) == 4  # other code: every item runs again
    assert capsys.readouterr().err.splitlines() == [
        f"glsae: note: {out / 'cache'} keeps 1 stale configuration(s), not removed: {old}"
    ]
    assert _run_outputs(out) == first  # the tables keep the manifest stamp


def test_simulate_interrupted_run_keeps_finished_items(tmp_path, monkeypatch):
    from glsae import runner

    monkeypatch.setenv("GLSAE_WORKERS", "1")
    real_item = runner._sim_item
    calls = []

    def dies_after_two(item):
        if len(calls) == 2:
            raise KeyboardInterrupt
        calls.append(item)
        return real_item(item)

    out, fresh = tmp_path / "killed", tmp_path / "fresh"
    monkeypatch.setattr(runner, "_sim_item", dies_after_two)
    with pytest.raises(KeyboardInterrupt):
        main(_toy_simulate(3) + [str(out)])
    assert len(list((out / "cache").rglob("*.json"))) == 2
    assert not list((out / "cache").rglob("*.tmp"))

    def counted(item):
        calls.append(item)
        return real_item(item)

    calls.clear()
    monkeypatch.setattr(runner, "_sim_item", counted)
    assert main(_toy_simulate(3) + [str(out)]) == 0
    assert len(calls) == 2  # only the unfinished items run again
    monkeypatch.setattr(runner, "_sim_item", real_item)
    assert main(_toy_simulate(3) + [str(fresh)]) == 0
    assert _run_outputs(out) == _run_outputs(fresh)


# The pool forks its workers, so they see the patched _sim_item and this path.
_CACHE_ROOT: Path | None = None


def _first_waits_for_second(item):
    """Work item whose replicate 0 finishes only after replicate 1 is cached."""
    if item[1] == 0:
        deadline = time.monotonic() + 30.0
        while not list(_CACHE_ROOT.rglob("*_rep0001.json")):
            if time.monotonic() > deadline:
                raise TimeoutError("replicate 1 was not cached while replicate 0 ran")
            time.sleep(0.05)
    return _sim_item(item)


def test_simulate_pool_caches_items_as_they_finish(tmp_path, monkeypatch):
    from glsae import runner

    out, serial = tmp_path / "pool", tmp_path / "serial"
    monkeypatch.setattr(sys.modules[__name__], "_CACHE_ROOT", out / "cache")
    monkeypatch.setattr(runner, "_sim_item", _first_waits_for_second)
    monkeypatch.setenv("GLSAE_WORKERS", "2")
    args = _toy_simulate(5)
    args[args.index("--replicates") + 1] = "2"
    assert main(args + [str(out)]) == 0
    monkeypatch.setattr(runner, "_sim_item", _sim_item)
    monkeypatch.setenv("GLSAE_WORKERS", "1")
    assert main(args + [str(serial)]) == 0
    assert _run_outputs(out) == _run_outputs(serial)


# Set by the tests below; forked workers inherit them with the patched _sim_item.
_LOG: Path | None = None
_PROCESSES = 0
_COMMAND_PID = 0
_FAIL_IN = ""


def _children(pid: int) -> set[str]:
    return set(Path(f"/proc/{pid}/task/{pid}/children").read_text().split())


def _wait_for(done, what: str) -> None:
    deadline = time.monotonic() + 30.0
    while not done():
        if time.monotonic() > deadline:
            raise TimeoutError(f"{what} did not happen within 30 s")
        time.sleep(0.02)


def _item_logging_its_process(item):
    """Work item that logs its process and that process's children, then waits until ``_PROCESSES`` have logged."""
    pid = os.getpid()
    with open(_LOG, "a", encoding="utf-8") as log:
        log.write(f"{pid} {','.join(sorted(_children(pid)))}\n")
    _wait_for(lambda: len({line.split()[0] for line in _LOG.read_text().splitlines()}) >= _PROCESSES,
              f"items running in {_PROCESSES} processes")
    return _sim_item(item)


@pytest.mark.parametrize("workers, replicates, processes", [(2, 4, 2), (3, 6, 3), (3, 2, 2)])
def test_simulate_runs_items_in_w_processes_its_own_among_them(tmp_path, monkeypatch, workers, replicates,
                                                               processes):
    from glsae import runner

    log = tmp_path / "pids.log"
    monkeypatch.setattr(sys.modules[__name__], "_LOG", log)
    monkeypatch.setattr(sys.modules[__name__], "_PROCESSES", processes)
    monkeypatch.setattr(runner, "_sim_item", _item_logging_its_process)
    monkeypatch.setenv("GLSAE_WORKERS", str(workers))
    own = str(os.getpid())
    before = _children(os.getpid())
    args = _toy_simulate(6)
    args[args.index("--replicates") + 1] = str(replicates)
    assert main(args + [str(tmp_path / "o")]) == 0
    logged = [line.partition(" ") for line in log.read_text().splitlines()]
    assert len(logged) == replicates
    pids = {pid for pid, _, _ in logged}
    assert len(pids) == processes and own in pids
    # the command forked exactly the other processes that ran items: W - 1, fewer when items are fewer
    forked = {kid for pid, _, kids in logged if pid == own for kid in kids.split(",") if kid} - before
    assert forked == pids - {own}
    assert not _children(os.getpid()) - before


def _item_failing_in_one_process(item):
    """Work item that raises in the process ``_FAIL_IN`` names once another process has cached an item.

    Every item that finishes logs its replicate to ``_LOG``.
    """
    if (os.getpid() == _COMMAND_PID) == (_FAIL_IN == "parent"):
        _wait_for(lambda: list(_CACHE_ROOT.rglob("*.json")), "an item cached by another process")
        raise ValueError(f"item failed in the {_FAIL_IN}")
    result = _sim_item(item)
    with open(_LOG, "a", encoding="utf-8") as log:
        log.write(f"{item[1]}\n")
    return result


@pytest.mark.parametrize("fail_in", ["worker", "parent"])
def test_simulate_error_in_an_item_stops_every_process_and_keeps_finished_items(tmp_path, monkeypatch, capsys,
                                                                                fail_in):
    from glsae import runner

    out, log = tmp_path / "o", tmp_path / "finished.log"
    for name, value in (("_LOG", log), ("_COMMAND_PID", os.getpid()), ("_FAIL_IN", fail_in),
                        ("_CACHE_ROOT", out / "cache")):
        monkeypatch.setattr(sys.modules[__name__], name, value)
    monkeypatch.setattr(runner, "_sim_item", _item_failing_in_one_process)
    monkeypatch.setenv("GLSAE_WORKERS", "2")
    before = _children(os.getpid())
    assert main(_toy_simulate(7) + [str(out)]) == 2
    assert _one_error_line(capsys) == f"glsae: error: item failed in the {fail_in}"
    assert not _children(os.getpid()) - before
    finished = sorted(int(rep) for rep in log.read_text().split())
    assert finished
    (key_dir,) = (out / "cache").iterdir()
    assert sorted(p.name for p in key_dir.iterdir()) == [f"case1_row001_rep{rep:04d}.json" for rep in finished]

    calls = []

    def counted(item):
        calls.append(item)
        return _sim_item(item)

    monkeypatch.setattr(runner, "_sim_item", counted)
    monkeypatch.setenv("GLSAE_WORKERS", "1")  # every call in this process, where ``calls`` lives
    assert main(_toy_simulate(7) + [str(out)]) == 0
    assert len(calls) == 4 - len(finished)  # the finished items are read from the cache
    monkeypatch.setattr(runner, "_sim_item", _sim_item)
    assert main(_toy_simulate(7) + [str(tmp_path / "fresh")]) == 0
    assert _run_outputs(out) == _run_outputs(tmp_path / "fresh")


def _item_exiting_in_a_worker(item):
    if os.getpid() != _COMMAND_PID:
        os._exit(3)
    return _sim_item(item)


def test_simulate_reports_a_worker_that_ends_without_a_result(tmp_path, monkeypatch):
    from glsae import runner

    monkeypatch.setattr(sys.modules[__name__], "_COMMAND_PID", os.getpid())
    monkeypatch.setattr(runner, "_sim_item", _item_exiting_in_a_worker)
    monkeypatch.setenv("GLSAE_WORKERS", "2")
    before = _children(os.getpid())
    with pytest.raises(RuntimeError, match="ended in a worker without a result"):
        main(_toy_simulate(8) + [str(tmp_path / "o")])
    assert not _children(os.getpid()) - before


@pytest.mark.parametrize("raw, expected", [(None, 1), ("2", 2), ("abc", None), ("0", None)])
def test_worker_count_reads_glsae_workers(monkeypatch, raw, expected):
    if raw is None:
        monkeypatch.delenv("GLSAE_WORKERS", raising=False)
    else:
        monkeypatch.setenv("GLSAE_WORKERS", raw)
    if expected is None:
        with pytest.raises(ValueError, match="GLSAE_WORKERS"):
            worker_count()
    else:
        assert worker_count() == expected


def test_simulate_wider_j_bootstrap_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GLSAE_WORKERS", "1")
    out = tmp_path / "j4"
    code = main([
        "simulate", "--case", "1", "--rows", "1", "--replicates", "2",
        "--models", "m1a,m12", "--sources", "4", "--bootstrap-v",
        "--iters", "150", "--burnin", "50", "--seed", "12", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_table(out / "case1_ratio_by_spec.csv")
    assert len(rows) == 1
    # fixed-variance mode cannot serve J=4 panels
    capsys.readouterr()
    assert main([
        "simulate", "--case", "1", "--rows", "1", "--replicates", "1",
        "--models", "m1a,m12", "--sources", "4",
        "--iters", "100", "--burnin", "20", "--seed", "12",
        "--out", str(tmp_path / "j4bad"),
    ]) == 2
    assert "bootstrap" in _one_error_line(capsys)
    assert not (tmp_path / "j4bad").exists()


def test_simulate_fixed_v_panel_sets_the_area_count(tmp_path, monkeypatch, panel_file):
    """A --v-panel of 8 areas makes 8-area replicates; it no longer has to have 62."""
    import glsae.runner as runner

    monkeypatch.setenv("GLSAE_WORKERS", "1")
    n_areas = []
    real = runner.generate

    def recording(spec, rep, rng):
        data = real(spec, rep, rng)
        n_areas.append(data.panel.n_areas)
        return data

    monkeypatch.setattr(runner, "generate", recording)
    out = tmp_path / "v8"
    assert main([
        "simulate", "--case", "1", "--rows", "1", "--replicates", "2", "--models", "m1a,m12",
        "--iters", "60", "--burnin", "20", "--seed", "4", "--v-panel", str(panel_file), "--out", str(out),
    ]) == 0
    assert n_areas == [8, 8]
    assert len(read_table(out / "case1_ratio_by_spec.csv")[1]) == 1


def test_sim_config_defaults_are_the_desk_preset():
    config = SimConfig(case=1, seed=1, out_dir="o")
    desk = PRESETS["desk"]
    assert {name: getattr(config, name) for name in desk} == desk == {
        "n_replicates": 30, "n_iter": 6000, "n_burnin": 1000,
    }


def _one_error_line(capsys) -> str:
    """The CLI's stderr, asserted to be a single `glsae: error:` line."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("glsae: error: "), lines
    return lines[0]


def test_simulate_rejects_unknown_baseline(tmp_path, capsys):
    out = tmp_path / "x"
    assert main([
        "simulate", "--case", "1", "--rows", "1", "--replicates", "1",
        "--models", "m1a,m12", "--baseline", "m11a",
        "--iters", "100", "--burnin", "20", "--seed", "3",
        "--out", str(out),
    ]) == 2
    assert "baseline 'm11a'" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("models, message", [
    ("m1a,m12,m1a", "--models: model 'm1a' is listed twice"),
    ("m1a,m12,zzz", "unknown variant tag 'zzz'"),
])
def test_simulate_rejects_bad_model_list_before_writing(tmp_path, capsys, models, message):
    out = tmp_path / "x"
    assert main(_toy_simulate(3) + [str(out), "--models", models, "--baseline", "m1a"]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("0,1,99", "rows [0, 99] are not in the case 1 grid"),
    (",", "no rows selected"),
    ("1-x", "--rows: '1-x' is not a row number or a range such as 1-6"),
    ("6-4", "--rows: '6-4' runs backwards; write it as 4-6"),
    ("1,6-4", "--rows: '6-4' runs backwards; write it as 4-6"),
])
def test_simulate_rejects_rows_outside_the_grid_before_writing(tmp_path, capsys, rows, message):
    out = tmp_path / "x"
    assert main(_toy_simulate(3) + [str(out), "--rows", rows]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--replicates", "0"], "replicates must be >= 1, got 0"),
    (["--iters", "10", "--burnin", "20"], "--burnin must be >= 0 and below --iters (10), got 20"),
    (["--sources", "1", "--bootstrap-v", "--models", "m1a,msa", "--baseline", "m1a"],
     "model 'msa' fits source column 1, but the panels have 1 source(s)"),
    (["--sources", "0", "--bootstrap-v"], "sources must be >= 1, got 0"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--models", "m12,one-source"],
     "--models: 'one-source' fits a single source, but the panels have 2; name its column as mbr (column 0) or msa"),
    (["--iters", "0"], "--iters must be >= 1, got 0"),
    (["--models", "m1a,m1a"], "--models: model 'm1a' is listed twice"),
    (["--replicates", "-2"], "--replicates must be >= 1, got -2"),
    (["--sources", "-1", "--bootstrap-v"], "--sources must be >= 1, got -1"),
])
def test_simulate_rejects_bad_settings_before_writing(tmp_path, monkeypatch, capsys, extra, message):
    monkeypatch.setenv("GLSAE_WORKERS", "2")
    out = tmp_path / "x"
    assert main(_toy_simulate(3) + [str(out), *extra]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("grid, at_line", [
    ("row,p2_mu,tau11_mu,tau11_theta\n1,0.3,0.07,0.07\n", ":1: no 'p2_theta' column for case 1"),
    ("row,p2_mu,p2_theta,tau11_mu,tau11_theta\n1,0.3,0.3,0.07,0.07\n2,0.1,abc,0.07,0.14\n",
     ":3: non-numeric p2_theta 'abc'"),
    ("row,p2_mu,p2_theta,tau11_mu,tau11_theta\n1,0.3,,0.07,0.07\n", ":2: no 'p2_theta' value"),
    ("row,p2_mu,p2_theta,tau11_mu,tau11_theta\nx,0.3,0.3,0.07,0.07\n", ":2: non-integer row 'x'"),
], ids=["missing-column", "non-numeric", "empty-cell", "non-integer-row"])
def test_simulate_rejects_bad_spec_file_by_line(tmp_path, capsys, grid, at_line):
    spec = tmp_path / "grid.csv"
    spec.write_text(grid, encoding="utf-8")
    out = tmp_path / "x"
    assert main(_toy_simulate(3) + [str(out), "--specs", str(spec)]) == 2
    assert f"{spec}{at_line}" in _one_error_line(capsys)
    assert not out.exists()


def test_simulate_reports_bad_worker_count_in_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GLSAE_WORKERS", "abc")
    out = tmp_path / "x"
    assert main(_toy_simulate(3) + [str(out)]) == 2
    assert "GLSAE_WORKERS must be an integer >= 1, got 'abc'" in _one_error_line(capsys)
    assert not out.exists()


def test_cli_import_does_not_load_scipy():
    import glsae

    src = str(Path(glsae.__file__).resolve().parents[1])
    code = "import sys, glsae.cli; sys.exit('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0

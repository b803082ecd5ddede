"""Golden outputs: a fixed small fit and simulation reproduce recorded SHA-256s.

The recorded digests pin the byte-identity contract across refactors. A
change that alters outputs on purpose updates ``GOLDEN`` and says so in
CHANGES.md. Both commands run from a temporary working directory with
relative paths, because the fit manifest records the panel path.
Digests were recorded with numpy 2.4.6.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from glsae.cli import main

GOLDEN = {
    "fit/draws/m11a/eta.npy": "adcca05a1e86bfcf3862cceee7056a42d39156e575fe7324918825e12561bca4",
    "fit/draws/m11a/lambda_i.npy": "95cfa38bdded6a657c8d6d3188d73d17fc480b98ba20599484a4f19b85516809",
    "fit/draws/m11a/lambda_ij.npy": "fea604af99c325f6a00c1418ecafc5cc83599095ced55f3e639652746ef89b13",
    "fit/draws/m11a/meta.json": "0a140cad26f64395599257be0921c7161194f290e453c0a1e9469702c6782e55",
    "fit/draws/m11a/mu.npy": "41fa8453a02e108bf8f981caa169a5605102978d5a80005bbef128e24891d8f7",
    "fit/draws/m11a/phi.npy": "3b5564306a3eeb391982da6acbf0d33b4baad31a2d2da32807edab09d80f7060",
    "fit/draws/m11a/tau1_sq.npy": "3e38aece41465e0b02055352610b792cf7990e79b8517070ebf41f1b1e51d4a4",
    "fit/draws/m11a/tau2_sq.npy": "cd3adc34fae9f360b5dd9a93e825e1b73503c60baa919c3b325df4e5878a622c",
    "fit/draws/m11b/eta.npy": "1a7447f142420e2dc3906b49c491ab0308a772455c3aaef0f18e62e9bfea3fae",
    "fit/draws/m11b/lambda_i.npy": "99927ef8ea68d0eeebe9bcbbb68e6534bfb94e0cb261bac3b22938655f478f04",
    "fit/draws/m11b/lambda_ij.npy": "5c533fe59695bb5605bf1a5e2c02731a2ee0d79b91fa40c7eda794a63fd8d46e",
    "fit/draws/m11b/meta.json": "25bf6bca7cdd2c185f61cfdf6e4b00fde9ba516242538f48cf1f1da63e6c81fe",
    "fit/draws/m11b/mu.npy": "d8c3fb1d4641cce55d0a5177cbadc59665b13fc21927ead3da9eaf4ac921c814",
    "fit/draws/m11b/phi.npy": "3cc57069ec1f2ea0121a63657cf254e33ab80085ba9f8bb2e2faf2e867924252",
    "fit/draws/m11b/tau1_sq.npy": "a9fd554792387bf3c582552559c39bd6671b81c00ec2af7c473dbdbbb616014f",
    "fit/draws/m11b/tau2_sq.npy": "9d52e233ef6f0ec9c6188da935936ecff792eb493e0f66f1c45cec13637317d4",
    "fit/draws/m12/eta.npy": "723f840e0cd8f6d25178f18b432cdaad617f8e4381c79e560e2c02916b4ddb85",
    "fit/draws/m12/lambda_i.npy": "ed3df1e06a071b0be6757f39e782da34d73b630dec17f9ee9fda3386de8084f6",
    "fit/draws/m12/meta.json": "26884df1f2eeb2548ed69174731895841d7c6e0d018ff911e67369992d032009",
    "fit/draws/m12/mu.npy": "7e7c640792b04e926c7d132f90620a2bd37662349c3e20627dabb725025b33c7",
    "fit/draws/m12/phi.npy": "e3fa65d73aa8a7722e496b947021e1729237d13e454f8576985e55adc0d007cf",
    "fit/draws/m12/tau1_sq.npy": "7814a2ee6ded1c5bf692bdf1c234823e7410335cc3e07e13c265dad8a172db05",
    "fit/draws/m12/tau2_sq.npy": "79d73589428b8a98f6b5d37226dfaac8ceaf2d2b6380fff2c8fa440aeed5c947",
    "fit/draws/m1a/eta.npy": "95edf8fa74f8522ad688f29364a29642d9854fa67e3bc1d6006d879f7b418c64",
    "fit/draws/m1a/lambda_i.npy": "8303d5af6811180d8077bac792985c9e7bf99cef723347ba7e5ba96f4d8c5ad3",
    "fit/draws/m1a/lambda_ij.npy": "9373185cd61cb33fedd713257b2a29e29a95b349f8eb53360d7140cc900fe4ec",
    "fit/draws/m1a/meta.json": "cb5212a549003316c7826f085f4953482462b84f6b7eb251ec9639fe44dbd861",
    "fit/draws/m1a/mu.npy": "01911da6c04891de17543a731042ee50e2941ff7146a046ebba4661c1a13758d",
    "fit/draws/m1a/phi.npy": "e69c0b27805ce85a72ed31189b239747c606802a4578768adeb46b8f311d5efc",
    "fit/draws/m1a/tau1_sq.npy": "79d1cf7649a9ff2178c845775862a9f626919425ec006e8b66454d9a02ac752a",
    "fit/draws/m1a/tau2_sq.npy": "2d7f3078028c3758a4558260c25830dfc87a812b747fe7976dbeb343620326e6",
    "fit/draws/m1b/eta.npy": "3d317713171e7a0129a6dcabb7d549112a770c702499843ecdaf72a2f0833c6e",
    "fit/draws/m1b/lambda_i.npy": "c610dd552b2332eff281aee4dd5c1cda2bf57b0c24c010c717523633b07055fb",
    "fit/draws/m1b/lambda_ij.npy": "18ff514fe75666d1f12fb4e11e38bec2e27d0155bc5219516ee323d52212bc87",
    "fit/draws/m1b/meta.json": "9c191c52f693d52ca1867abe4a32914f7619be472892f70cd14945b2ba1b2d24",
    "fit/draws/m1b/mu.npy": "bd2c40a9433b723ef7068083101da46f268385447141e646387f1d7044a40632",
    "fit/draws/m1b/phi.npy": "405f3ed8ef8b65e593d0050abf5ad978b816a224a8ebbc586f2102c08fa8ad4e",
    "fit/draws/m1b/tau1_sq.npy": "ca11d8bd7e22efc5dba8c600851f289da5af1db0c3f34acc428a67b0c23a752a",
    "fit/draws/m1b/tau2_sq.npy": "9937a7a1eac66034a87e80a13b3f27a62e42d455a868ba596593211eb69dac02",
    "fit/draws/one_source/eta.npy": "92a9146087b1505470f0fc31a589b79610199b20dded211980a3f02157d962c8",
    "fit/draws/one_source/lambda_i.npy": "07f1452d0548025ab4ddae9c9cf4c97d48ac92802eceb28db7a8b94ca1753936",
    "fit/draws/one_source/meta.json": "2e89e7513ce05a7b9dda9e4679f3258ed450526e655dcd11d3bfa6577ea32fc3",
    "fit/draws/one_source/mu.npy": "1b8cc66703b4e0e881846d0ea236b3c3eccb3ed76b04daac03cd51bc7c0e7bd0",
    "fit/draws/one_source/phi.npy": "864b22aa71bc227c3ccb1d02087e5ce9816fb7d44159c4854810934c4c7303ca",
    "fit/draws/one_source/tau2_sq.npy": "f83318405bd138e4df8a0e2cb7fa8bc4ec16074ddd551a4ad70d984b23d0ae60",
    "fit/kappa_m1a.csv": "7a0f5844e6c2694d6f0f09204fd0fed71d76fd73036af4abfe603bd89d11549c",
    "fit/kappa_m1b.csv": "ca2fcd1a5769a2c322040cbfc1bc347b6832af605d3d13e2e9931d128f82025e",
    "fit/manifest.json": "7654f3f096bfb8513b59c90024748307335efa0543be226e312da9242a926388",
    "fit/phi_m11a.csv": "1017e12b01f3a51e7030b0ba289e57f3edb1f527b1d1d6e0f03e5558911871e2",
    "fit/phi_m11b.csv": "784d42595cdfe2730a20a3670257c7a7b41b58d58e83fc2d001d38e4dfca98cb",
    "fit/phi_m12.csv": "bf88c93ce57b7b6041f7ee697278102274af4aeb1f4a8444fefc16ede184be50",
    "fit/phi_m1a.csv": "675dfe19042a84c792663d549e27b37225e2d8a6de729b9366169cbf853c18a0",
    "fit/phi_m1b.csv": "8c317075cd7cdb93fecb54180c0a0ac384508c0c4a1978dbf7e13fdbbab075f3",
    "fit/phi_one_source.csv": "50f2712faa9cb7ac0c7a740f2b9d427bb699de2b08b6b8f61a8a534881af1120",
    "fit/plot_long.csv": "e76d8b9dffb778d3e96196ac1974916734fddd32e6dd7f5a0ea20927175b66af",
    "fit/rhat_m11a.csv": "c02f1ee1cb1d504cb89eef6c606149e9dfa1b7768c62d7294e11feec70f79a3b",
    "fit/rhat_m11b.csv": "1af959ebcfb04cbbf3c491d82e8e01fa3431b6cea3a083ad6f9380e1f9775004",
    "fit/rhat_m12.csv": "04d3b8a971598763ea8f9b641a5731497a470d752ddbf37fe51a8aebc3af6d4c",
    "fit/rhat_m1a.csv": "17ee4ed967ac2e8e90035004c0f4761cc023541f3ccce8b1778dc3fc65fd1166",
    "fit/rhat_m1b.csv": "e0461969863e25249b124325a23f21d0dc49e6565e8d33f3880a53164d091e42",
    "fit/rhat_one_source.csv": "282ffe4b8cf0294783ca2f2864dfc62db68e99a973e600c6b33dabb61d90b43b",
    "fit/summary_m11a.csv": "06e7505fa6b70553f9865ebb0b1ec317a071fde1b4d8dedb9ae74153efb66d87",
    "fit/summary_m11b.csv": "584e5e4e739c380123117acdd09351dd2f788dc8db4f906a53ba57ed88b568d0",
    "fit/summary_m12.csv": "6bb28bcdd07d0a4b0db9001df9324efc2b0bc66e25f52b955c56f2c1b3ba4d89",
    "fit/summary_m1a.csv": "9f9ad71f10a7d6b9c2194e632b887aba348f23c315b02296bb248b777bcbeee8",
    "fit/summary_m1b.csv": "421f6f6bef2d1093d19730c30bf934942235089961ed67aa06b498e325b36ab2",
    "fit/summary_one_source.csv": "35e70b506ab126fe48252e8f0074b6c6f45470b24f6b58e02a2e6116b4bfcf96",
    "sim/cache/case1_row001_rep0000.json": "04b2ef5821baeb05b0242e179138a688ea01bf59f734debbcfbb7ed65eb7f7ec",
    "sim/cache/case1_row001_rep0001.json": "cdfadbfaaaa618084a9941bf2aafffa9e34404728d665293771cf09f9d21f03a",
    "sim/case1_medians.csv": "46efc63cfad752f9b105361c2d1332bf5a42169d397a27c8374e78a0b3bad487",
    "sim/case1_ratio_by_spec.csv": "3e1833f536eabea4db14fe813f6742772e62b57b9ef8d3ae1579ed9d5e33860a",
    "sim/case1_ratio_summary.csv": "502303c67ea7ea47ca40f083b52ba597da2f60a6feadc42002cd23b8ff2078db",
    "sim/manifest.json": "d786deb9a2c7419b0dbbd38dd665ba666ee167e055795aab25650f58df25d2f3",
}


def _write_panel(path: Path) -> None:
    gen = np.random.default_rng(31)
    rows = ["area,source,estimate,se"]
    for i in range(6):
        for src, se in (("brfss", 0.02), ("sahie", 0.008)):
            rows.append(f"c{i:02d},{src},{0.25 + 0.03 * gen.standard_normal()!r},{se}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _digests(out: Path) -> dict[str, str]:
    """SHA-256 of the manifest, every output it lists, and each cache file by name."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    names = ["manifest.json", *manifest["outputs"]]
    digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}
    for p in (out / "cache").rglob("*.json") if (out / "cache").is_dir() else ():
        digests[f"cache/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def _run_golden(tmp_path, monkeypatch) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GLSAE_WORKERS", "1")
    _write_panel(Path("panel.csv"))
    assert main([
        "fit", "--panel", "panel.csv", "--model", "m11a,m11b,m1a,m1b,m12,one-source",
        "--source", "brfss", "--chains", "2", "--iters", "120", "--burnin", "40",
        "--seed", "5", "--out", "fit",
    ]) == 0
    assert main([
        "simulate", "--case", "1", "--rows", "1", "--replicates", "2",
        "--models", "m1a,m12", "--iters", "150", "--burnin", "50",
        "--seed", "6", "--out", "sim",
    ]) == 0
    out = {f"fit/{k}": v for k, v in _digests(Path("fit")).items()}
    out.update({f"sim/{k}": v for k, v in _digests(Path("sim")).items()})
    return out


def test_outputs_match_recorded_digests(tmp_path, monkeypatch):
    assert _run_golden(tmp_path, monkeypatch) == GOLDEN


# One chain checkpoint per variant, taken after three sweeps from a
# dispersed start, so the digests pin the initial state, the jitter order
# and the checkpoint encoding.
CHECKPOINT_GOLDEN = {
    "m11a": "80d922f52041bd22dff7ec86ce34af64ff65c7608bb193a15d6d2ef1574566a1",
    "m11b": "6a806da64e0888d01ffdfb46a9bb2ce51e0a308998c77d7256c6f2d3af66713c",
    "m1a": "eb04e81cae6289a27a5573df11c7d824a11df0b697e731c2a9c336e34c0cd3c0",
    "m1b": "44b4ee4c5f147dabda802ff19cc2d50cdd7c01a6d74e9076e9e333a04d8c700b",
    "m12": "8eb171d606d950fcd9c779d659924a290d945a79a425dec6b58029f67cd54e50",
    "one_source": "e357eba3c122a596f31f6cc8a7701478e1727ea73b2ad5e8e083282752bdefaa",
}


def _checkpoint_bytes(tag: str, panel, path: Path, n_sweeps: int = 3) -> bytes:
    from glsae.gibbs import save_checkpoint, sweep
    from glsae.model import init_state, variant
    from glsae.rng import RngStream

    model = variant(tag)
    if not model.has_theta_level:
        panel = panel.select_source(0)
    rng = RngStream(41, 3)
    state = init_state(panel, model, 0.1, rng)
    for _ in range(n_sweeps):
        sweep(state, panel, model, rng)
    save_checkpoint(path, model, state, n_sweeps, rng)
    return path.read_bytes()


def test_checkpoints_match_recorded_digests(tmp_path, small_panel):
    from glsae.gibbs import load_checkpoint, save_checkpoint

    digests = {}
    for tag in ("m11a", "m11b", "m1a", "m1b", "m12", "one_source"):
        path = tmp_path / f"{tag}.json"
        first = _checkpoint_bytes(tag, small_panel, path)
        digests[tag] = hashlib.sha256(first).hexdigest()
        # loading and saving again reproduces the file
        model, state, iteration, rng = load_checkpoint(path)
        save_checkpoint(path, model, state, iteration, rng)
        assert path.read_bytes() == first, tag
    assert digests == CHECKPOINT_GOLDEN


# The same checkpoint after 20 sweeps on a J = 4 panel, where m11b's lam_i
# draw takes the order -1.5 (Devroye) GIG path and m1b's draws the +1/2 path;
# GOLDEN covers only J = 2.
WIDE_CHECKPOINT_GOLDEN = {
    "m11a": "38cb10132c87f711d71d074a282120fde22447eda12912b591cf16b70ba3975e",
    "m11b": "7a6beb4ed06b593fb53401db519d3d99a9ebcb23480bff46d06b19afa8aa2442",
    "m1a": "b0d56ff2b4a5b4d89ae944d117749741069509ccb9947c3f3a07419460002e7c",
    "m1b": "fe76fe18254014c8c94c770e39ee26d7e3e70770035c540d734c62017302a2d2",
    "m12": "816f5cc0f1126306c3a1c140e7d5a1c92dc4ccb9d86c6a30e1f84c2aa4cdb488",
    "one_source": "ddeb7d73ab01f9667ba91efcb8f0b33bb1e546370d089e89ea6470f6a54f6d3b",
}


def _wide_panel():
    from glsae.model import SourcePanel

    gen = np.random.default_rng(47)
    n_areas, n_sources = 7, 4
    return SourcePanel(
        areas=tuple(f"w{i}" for i in range(n_areas)),
        sources=tuple(f"s{j}" for j in range(n_sources)),
        y=0.25 + 0.04 * gen.standard_normal((n_areas, n_sources)),
        v=(0.01 + 0.06 * gen.random((n_areas, n_sources))) ** 2,
    )


def test_wide_checkpoints_match_recorded_digests(tmp_path):
    panel = _wide_panel()
    digests = {
        tag: hashlib.sha256(_checkpoint_bytes(tag, panel, tmp_path / f"{tag}.json", n_sweeps=20)).hexdigest()
        for tag in ("m11a", "m11b", "m1a", "m1b", "m12", "one_source")
    }
    assert digests == WIDE_CHECKPOINT_GOLDEN

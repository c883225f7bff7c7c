"""Behaviour lock: every table the desk run writes, byte for byte, and every
table of a small iterative-like run and of a small KNN-like run.

The digests were recorded from `misslab run` on configs/desk.cfg, and on
`ITERATIVE_LIKE` and `KNN_LIKE` below, with BLAS pinned to one thread
(silhouette_samples.csv changes in its last digits with the BLAS thread
count). Regenerate them only in a change that alters these tables on
purpose, and name the rows that moved. The worker count must not move them:
cells run in any worker and are merged in one order. A run has one worker
per usable core, so the tests pin the run's cores.

Desk pins the mean and KNN imputers and stacks of two or more classifiers.
The iterative-like run pins MICE, missforest and the DAE under MAR, and its
one repetition trains its baseline classifier alone; on two cores its
missforest forests borrow the core that the other worker leaves idle.
The KNN-like run pins the KNN imputer on three slabs of tied distances.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "accuracy.csv": "111c49fc181565247b674dbebc867048f32ac844b8f4c342224a73cf43f26ba7",
    "loss.csv": "cf23074d6a139db9e1afa57ee6bcc1b7e3d9c83540b384bc5416afe4f710799c",
    "direct.csv": "4fcdc6d64e7eef444dddec94b90c6ed79b0bcebec51688f64484b36e167d67a1",
    "clustering.csv": "7ccc967922aa66ddb2ec56b3242ab8fdcac0b6fd13a57b70230797d243b95e7d",
    "metrics.csv": "c1f4bece6e4bbb055ab6d957f38f409ce5afec8f1500cd6b79a52fec97859d47",
    "silhouette_samples.csv":
        "7db023dcbefe8e8b0d31a29902f9c784114d9e89dd1fbf9cf4cbf86817b0221d",
    # Written before the workers fork: the source, the pool and the generators.
    "clean.csv": "bb879a4e5d8bfc06b6f916ddfd314399ab113d95a0464d26679db6ed679dc246",
    "synthetic.csv": "a21a86e0d46a7734cccd8ebd509c9fa786e346ab215a17281e50ab6fb459577c",
    "reserved.csv": "bceed6bb74d89af86a4e9975e7226ee189b84a6f3336c5b9ce65175f03e30ba8",
    "gmm_search.csv": "4fd3c68765009cac5bc8c7a7dc8f78c12bc93e87d82b80f8431b78c3a4a059ae",
    "generator_components.csv":
        "d3574c3486af5381f325c48dd0f913c8b139d892c0a283baa3dbb22c65b1b64a",
    "target_history.csv":
        "379fa6462f1b2ea4ac7ae67eb50574a8c482453cf901d61cd6c0ed9db6864215",
}


ITERATIVE_LIKE = "\n".join([
    "builtin.rows = 200", "builtin.features = 4", "builtin.components = 2",
    "gmm.k_range = 2", "gmm.kinds = spherical", "gmm.restarts = 1", "gmm.max_iter = 60",
    "synth.n = 300", "synth.reserve = 40", "repetitions = 1", "copies = 2",
    "imputers = mice, missforest, dae", "missing.scheme = mar",
    "missing.mar_drivers = 0, 1", "missing.degrees = 0.3", "clustering.degree = 0.3",
    "missforest.trees = 6", "missforest.max_depth = 4", "dae.epochs = 6",
    "dae.patience = 2", "classifier.hidden = 6", "classifier.epochs = 12",
    "classifier.patience = 3", "classifier.batch = 32", "classifier.lr = 0.05",
    "generator.epochs = 6", "generator.patience = 6", "clusters = 2", "seed = 5",
    "output = iterative-output"])

ITERATIVE_DIGESTS = {
    "accuracy.csv": "6a9248398a9348d0f0fd3b8fbd463dc8589839be264185ea725d4982d5c1afd3",
    "loss.csv": "0be2f8891d68138d824b5ba0c64a76f8c34148577ac0acd80247393d04bad7e6",
    "direct.csv": "985fe7e471b786fbf24d47673d9974ea70cbc3132decefc5e17510bd5af21b47",
    "clustering.csv": "7e9ace8a28b4b9abca6b53683a36f3decef7f0e41ce980706a9f665e837a05c2",
    "metrics.csv": "4cda0715c786bc4ca964a54a3b18824a17a0a34f3deb1f0d665d284556d9e8f0",
    "silhouette_samples.csv":
        "f9ab0b9e34ee9f8a012283086bbc53cad968928015218cebad3e869274deb9f3",
    "clean.csv": "25686131062c8327916fb89f2ace1ad4e943d9514fa2c3478daf569b482201f9",
    "synthetic.csv": "31f43969db028e72285303884b72739ee2ab1ef78fe390eb42deec65324d27e5",
    "reserved.csv": "b44498668ddf4291605d75f8721bbc5a3c443516f98f50d2fd58c9e67ac9a603",
    "gmm_search.csv": "d38be11d1b27b9e6155527c718a6dd6f0de2732d81aabba23668bb3687c8eb22",
    "generator_components.csv":
        "bd280ee4d089b61612114245eadd8751affaec5372486ebd876b5f19afaa7698",
    "target_history.csv":
        "417e0886e4a37b8a3d9c4f3423a9c8593c9dc3438b8b814ea4bb24496b059bc1",
}


# KNN only at MCAR 0.4 on a 1,500-row pool: about 1,430 rows need a fill, so
# three 512-row slabs. A 30-row source clips about 7% of the pool's values to
# its bounds, so about 9% of fills tie at their k-th donor. Recorded from the
# four-product partial distance, before the one fused product replaced it.
KNN_LIKE = "\n".join([
    "builtin.rows = 30", "builtin.features = 6", "builtin.components = 2",
    "gmm.k_range = 2", "gmm.kinds = spherical", "gmm.restarts = 1", "gmm.max_iter = 60",
    "synth.n = 1500", "synth.reserve = 100", "repetitions = 1", "copies = 1",
    "imputers = knn", "knn.k = 5", "missing.scheme = mcar", "missing.degrees = 0.4",
    "clustering.degree = 0.4", "classifier.hidden = 6", "classifier.epochs = 8",
    "classifier.patience = 3", "classifier.batch = 64", "classifier.lr = 0.05",
    "generator.epochs = 6", "generator.patience = 6", "clusters = 2", "seed = 3",
    "output = knn-like-output"])

KNN_DIGESTS = {
    "accuracy.csv": "3a014a713131e47d3688b09619bdc21a3d62d01d83a8fe0906b0e49bb85937af",
    "loss.csv": "a7d86dfb4dfb7d11235c42ff0d4d4afe291aa11eb05d2868211fbf93f64a08df",
    "direct.csv": "2ef037d8a19c2f44bedf07f9740f632645a7c735313ddd362af4c519ab24706f",
    "clustering.csv":
        "e07a99d85a8764a8b25826f70c9b92bf5ec4dfa5f397c6c1c7231da86a2758d6",
    "metrics.csv": "f4419f4815f4b0c511982c610c85af8cf14e13ea44d577c10336a05f8a1cc24b",
    "silhouette_samples.csv":
        "ed7eaf3f376bb62ac87923168a1e12a190c3582da923161db8739b73526b3a94",
    "clean.csv": "3c150c0767212f5028653722577a9e98639066ac02279168c7b34cc818fc6604",
    "synthetic.csv": "bbaa9e08404dcdaeabfe64e5b61cc9cd79cd5acd3406913a00a16b371a6a5203",
    "reserved.csv": "412ac2c427209a64eead38905a830e59d7eb9eaba881e147d103e81d2258ae22",
    "gmm_search.csv":
        "d7724430d85dc8a74ca492620b5928b63c61cd3a3833d3d82000784ba6fe271e",
    "generator_components.csv":
        "1bf13652dcc1b0d087a38e91cd3d23be450408cf4ef10feed6055c16afe91522",
    "target_history.csv":
        "2202b6efdf033c40ab8f00a8511d64efb7d531c90f1478033db34b7dd83e7429",}


CORES = sorted(os.sched_getaffinity(0))


def run_digests(tmp_path, config: Path, output: str, names, cores: int) -> dict:
    """Digests of the tables `names` that `config` writes to `output` (a
    directory relative to tmp_path) when run on `cores` cores, so with that
    many workers."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "misslab.cli", "run", "--config", str(config)],
                   cwd=tmp_path, env=env, check=True, capture_output=True,
                   preexec_fn=lambda: os.sched_setaffinity(0, CORES[:cores]))
    out = tmp_path / output
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["workers"] == cores
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def desk_digests(tmp_path, cores: int) -> dict:
    # desk.cfg writes to the relative directory desk-output, here under tmp_path.
    return run_digests(tmp_path, ROOT / "configs" / "desk.cfg", "desk-output",
                       DIGESTS, cores)


def iterative_digests(tmp_path, cores: int) -> dict:
    config = tmp_path / "iterative.cfg"
    config.write_text(ITERATIVE_LIKE, encoding="utf-8")
    return run_digests(tmp_path, config, "iterative-output", ITERATIVE_DIGESTS, cores)


def knn_digests(tmp_path, cores: int) -> dict:
    config = tmp_path / "knn.cfg"
    config.write_text(KNN_LIKE, encoding="utf-8")
    return run_digests(tmp_path, config, "knn-like-output", KNN_DIGESTS, cores)


def test_desk_tables_match_recorded_digests(tmp_path):
    assert desk_digests(tmp_path, cores=1) == DIGESTS


@pytest.mark.skipif(len(CORES) < 2, reason="needs two usable cores")
def test_desk_tables_match_recorded_digests_with_two_workers(tmp_path):
    assert desk_digests(tmp_path, cores=2) == DIGESTS


def test_iterative_tables_match_recorded_digests(tmp_path):
    assert iterative_digests(tmp_path, cores=1) == ITERATIVE_DIGESTS


@pytest.mark.skipif(len(CORES) < 2, reason="needs two usable cores")
def test_iterative_tables_match_recorded_digests_with_two_workers(tmp_path):
    assert iterative_digests(tmp_path, cores=2) == ITERATIVE_DIGESTS


def test_knn_tables_match_recorded_digests(tmp_path):
    assert knn_digests(tmp_path, cores=1) == KNN_DIGESTS


@pytest.mark.skipif(len(CORES) < 2, reason="needs two usable cores")
def test_knn_tables_match_recorded_digests_with_two_workers(tmp_path):
    assert knn_digests(tmp_path, cores=2) == KNN_DIGESTS

"""Behaviour lock: every table the desk run writes, byte for byte.

The digests were recorded from `misslab run` on configs/desk.cfg with BLAS
pinned to one thread (silhouette_samples.csv changes in its last digits
with the BLAS thread count). Regenerate them only in a change that alters
these tables on purpose, and name the rows that moved. The worker count
must not move them: cells run in any worker and are merged in one order.
A run has one worker per usable core, so the tests pin the run's cores.
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


CORES = sorted(os.sched_getaffinity(0))


def desk_digests(tmp_path, cores: int) -> dict:
    """Digests of the tables of configs/desk.cfg run on `cores` cores, so
    with that many workers."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # desk.cfg writes to the relative directory desk-output, here under tmp_path.
    subprocess.run([sys.executable, "-m", "misslab.cli", "run", "--config",
                    str(ROOT / "configs" / "desk.cfg")],
                   cwd=tmp_path, env=env, check=True, capture_output=True,
                   preexec_fn=lambda: os.sched_setaffinity(0, CORES[:cores]))
    out = tmp_path / "desk-output"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["workers"] == cores
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in DIGESTS}


def test_desk_tables_match_recorded_digests(tmp_path):
    assert desk_digests(tmp_path, cores=1) == DIGESTS


@pytest.mark.skipif(len(CORES) < 2, reason="needs two usable cores")
def test_desk_tables_match_recorded_digests_with_two_workers(tmp_path):
    assert desk_digests(tmp_path, cores=2) == DIGESTS

"""Shared nearest-row search, checked against a plain stable argsort and
against the dense all-pairs SMOTE/ENN code it replaced, and the memory one
pass over all rows holds."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from misslab._rng import rng_for
from misslab.data import from_matrix
from misslab.imputers import impute_knn
from misslab.metrics import silhouette_samples
from misslab.neighbors import CHUNK, kneighbors, nearest, squared_distances
from misslab.resampling import (ResampleSpec, _classes, enn_undersample,
                                smote_oversample)

INF = np.inf


def argsort_oracle(dist, k):
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def dense_kneighbors(x, k):
    d2 = squared_distances(x, x)
    np.fill_diagonal(d2, INF)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def dense_smote(d, spec):
    minority, majority = _classes(d)
    needed = int(round(spec.target_ratio * majority.size)) - minority.size
    if needed <= 0:
        return d
    x_min = d.features[minority]
    k_eff = min(spec.smote_k, minority.size - 1)
    neighbor_idx = dense_kneighbors(x_min, k_eff)
    rng = rng_for(spec.seed, "smote")
    bases = rng.integers(0, minority.size, size=needed)
    picks = rng.integers(0, k_eff, size=needed)
    u = rng.random(needed)
    neighbors = neighbor_idx[bases, picks]
    synthetic = x_min[bases] + u[:, None] * (x_min[neighbors] - x_min[bases])
    features = np.vstack([d.features, synthetic])
    target = np.concatenate([d.target, np.full(needed, d.target[minority[0]])])
    return from_matrix(features, target)


def dense_enn(d, spec):
    neighbor_idx = dense_kneighbors(d.features, spec.enn_k)
    disagree = (d.target[neighbor_idx] != d.target[:, None]).sum(axis=1)
    return d.take_rows(np.flatnonzero(disagree <= spec.enn_k / 2.0))


def duplicated_rows(seed, n=90, d=3):
    """Integer-valued rows, each repeated, so many distances tie exactly."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(n // 3, d)).astype(np.float64)
    x = np.vstack([base, base, base[::-1]])
    return x[rng.permutation(x.shape[0])]


# ---------------------------------------------------------------------------
# nearest
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_nearest_matches_stable_argsort_on_heavy_ties(seed):
    rng = np.random.default_rng(seed)
    dist = rng.integers(0, 4, size=(40, 25)).astype(np.float64)
    for k in range(0, 28):
        assert np.array_equal(nearest(dist, k), argsort_oracle(dist, k)), k


def test_nearest_ties_straddling_the_kth_place():
    # Sorted, rows read 1 2 2 2 3: for k = 2 and 3, the k-th value also
    # sits outside the picks, and only the lower indices may be kept.
    dist = np.array([[2.0, 3.0, 2.0, 1.0, 2.0],
                     [2.0, 2.0, 2.0, 2.0, 2.0],
                     [5.0, 1.0, 1.0, 0.0, 1.0]])
    for k in range(1, 6):
        assert np.array_equal(nearest(dist, k), argsort_oracle(dist, k)), k
    assert nearest(dist, 2).tolist() == [[3, 0], [0, 1], [3, 1]]


def test_nearest_rows_all_or_partly_infinite():
    dist = np.array([[INF, INF, INF, INF, INF, INF],
                     [INF, 3.0, INF, 1.0, INF, 3.0],
                     [0.0, INF, 0.0, INF, 0.0, INF],
                     [4.0, 2.0, 9.0, 1.0, 2.0, 7.0]])
    for k in range(1, 8):
        assert np.array_equal(nearest(dist, k), argsort_oracle(dist, k)), k


def test_nearest_k_one_width_and_beyond():
    dist = np.random.default_rng(9).integers(0, 3, size=(30, 6)).astype(np.float64)
    assert nearest(dist, 1).shape == (30, 1)
    assert np.array_equal(nearest(dist, 1), argsort_oracle(dist, 1))
    assert np.array_equal(nearest(dist, 6), argsort_oracle(dist, 6))
    assert np.array_equal(nearest(dist, 9), argsort_oracle(dist, 6))


# ---------------------------------------------------------------------------
# kneighbors, SMOTE and ENN against the dense code
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_kneighbors_matches_dense_argsort_with_duplicates(monkeypatch, chunk):
    monkeypatch.setattr("misslab.neighbors.CHUNK", chunk)
    x = duplicated_rows(3)
    for k in (1, 2, 3, 5, x.shape[0] - 1):
        got = kneighbors(x, k)
        assert np.array_equal(got, dense_kneighbors(x, k)), k
        assert not (got == np.arange(x.shape[0])[:, None]).any()


def test_kneighbors_more_neighbours_than_rows():
    x = np.array([[0.0], [1.0], [3.0]])
    assert kneighbors(x, 5).tolist() == [[1, 2, 0], [0, 2, 1], [1, 0, 2]]


@pytest.mark.parametrize("seed", range(3))
def test_smote_and_enn_match_the_dense_code(monkeypatch, seed):
    monkeypatch.setattr("misslab.neighbors.CHUNK", 7)
    x = duplicated_rows(seed)
    y = np.zeros(x.shape[0])
    y[np.random.default_rng(seed).permutation(x.shape[0])[:25]] = 1.0
    d = from_matrix(x, y)
    for spec in (ResampleSpec(smote_k=3, enn_k=3, seed=seed),
                 ResampleSpec(smote_k=5, enn_k=1, target_ratio=0.6, seed=seed)):
        up = smote_oversample(d, spec)
        want = dense_smote(d, spec)
        assert np.array_equal(up.features, want.features)
        assert np.array_equal(up.target, want.target)
        down = enn_undersample(up, spec)
        want = dense_enn(up, spec)
        assert np.array_equal(down.features, want.features)
        assert np.array_equal(down.target, want.target)


# ---------------------------------------------------------------------------
# Memory of one pass over all rows, in slabs of CHUNK x rows doubles
# ---------------------------------------------------------------------------

ROWS = 3000


def peak_slabs(call, *args):
    """Peak memory that call(*args) allocates, numpy's arrays included, in
    slabs of CHUNK x ROWS doubles."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / (CHUNK * ROWS * 8)
    finally:
        tracemalloc.stop()


def table(seed):
    return np.random.default_rng(seed).normal(size=(ROWS, 10))


def test_knn_pass_holds_a_slab_and_a_half():
    # One slab buffer for the partial distances, the two (n, 3d) factors and
    # row blocks of temporaries. On the 0/1 table nearly every missing cell ties
    # its k-th pick and takes the exact path over every donor of its column.
    # At degree 0.6 a slab holds up to about 200 missing patterns, each with
    # its own row of counts; a table of them all would be more than a slab.
    binary = np.random.default_rng(0).integers(0, 2, size=(ROWS, 10)).astype(np.float64)
    for degree in (0.3, 0.6):
        for x in (table(0), binary):
            holed = np.where(np.random.default_rng(1).random(x.shape) < degree, np.nan, x)
            assert peak_slabs(impute_knn, holed, 5) < 1.5, degree


def test_silhouette_pass_holds_a_slab_and_a_quarter():
    labels = np.random.default_rng(2).integers(0, 3, size=(3, ROWS))
    assert peak_slabs(silhouette_samples, table(2), labels) < 1.25


def test_kneighbors_pass_holds_a_slab_and_a_quarter():
    assert peak_slabs(kneighbors, table(3), 5) < 1.25


def test_kneighbors_on_duplicated_rows_holds_a_slab_and_a_quarter():
    # Every row has two exact copies at distance 0 (small integers keep the
    # expansion exact), so every row ties its nearest distance and `nearest`
    # takes its tie path; the answer is the lower-index other copy.
    rng = np.random.default_rng(4)
    copy_of = rng.permutation(np.arange(ROWS) % (ROWS // 3))
    base = rng.integers(0, 4, size=(ROWS // 3, 10)).astype(np.float64)
    x = base[copy_of]
    assert peak_slabs(kneighbors, x, 1) < 1.25
    got = kneighbors(x, 1)[:, 0]
    for i in range(0, ROWS, 97):
        others = np.flatnonzero((x == x[i]).all(axis=1))
        assert got[i] == others[others != i].min(), i


def test_only_neighbors_runs_the_slab_loop():
    # The loop over CHUNK-row slabs, range(0, ..., CHUNK), lives in `slabs`.
    package = Path(__file__).resolve().parent.parent / "src" / "misslab"
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "range" and len(node.args) == 3
                    and ast.unparse(node.args[2]).endswith("CHUNK")):
                found[path.name] = found.get(path.name, 0) + 1
    assert found == {"neighbors.py": 1}

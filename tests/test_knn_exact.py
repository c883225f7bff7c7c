"""KNN imputation and the nearest-row search, bit for bit against oracles
written from the formula: a partial distance from one fused product of
inner width 3d in fresh temporaries, rows in slabs in missing-pattern order,
one dist[takers, donors] gather and one `nearest` per column, and a full
stable argsort for every tied row.

"Ties to the lower index" means ties of the computed distance. The fused
product rounds differently from the four-product expression it replaced
(a + b - 2g, each of inner width d), so on rounded, tie-heavy tables a fill
can differ from that expression's, where two donors tie in one and not in
the other. The four-product oracle is kept; on integer-valued tables both
expansions are exact, and the imputer still agrees with it bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from misslab.imputers import _column_means, impute_knn
from misslab.neighbors import (nearest, pairwise_squared, partial_distances, slabs,
                               smallest, squared_distances)

ROOT = Path(__file__).resolve().parent.parent
NAN = np.nan


# ---------------------------------------------------------------------------
# The oracles
# ---------------------------------------------------------------------------

def scaled_distances(x, rows, raw):
    """sqrt(d / n_shared * raw) from the squared sums `raw` of `rows`: infinite
    where a pair shares no coordinate, and from each row to itself."""
    d = x.shape[1]
    observed = (~np.isnan(x)).astype(np.float64)
    shared = observed[rows] @ observed.T
    raw = np.maximum(raw, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(shared > 0, raw * (d / np.maximum(shared, 1.0)), np.inf)
    dist = np.sqrt(scaled)
    dist[np.arange(rows.size), rows] = np.inf
    return dist


def oracle_partial_distances(x, rows):
    """sum_shared (x_i - x_j)^2 = [x0_i^2, o_i, x0_i] . [o_j, x0_j^2, -2 x0_j]."""
    observed = (~np.isnan(x)).astype(np.float64)
    x0 = np.where(np.isnan(x), 0.0, x)
    left = np.concatenate([x0 * x0, observed, x0], axis=1)
    right = np.concatenate([observed, x0 * x0, -2.0 * x0], axis=1)
    return scaled_distances(x, rows, left[rows] @ right.T)


def four_product_partial_distances(x, rows):
    """The expression before the fused product: a + b - 2g from three products
    of inner width d; the shared counts are the fourth."""
    observed = (~np.isnan(x)).astype(np.float64)
    x0 = np.where(np.isnan(x), 0.0, x)
    sq = x0 * x0
    a = sq[rows] @ observed.T
    b = observed[rows] @ sq.T
    g = x0[rows] @ x0.T
    return scaled_distances(x, rows, a + b - 2.0 * g)


def oracle_nearest(dist, k):
    if not 0 < k < dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
    picks = np.sort(np.argpartition(dist, k - 1, axis=1)[:, :k], axis=1)
    values = np.take_along_axis(dist, picks, axis=1)
    out = np.take_along_axis(picks, np.argsort(values, axis=1, kind="stable"), axis=1)
    kth = values.max(axis=1)
    tied = np.isnan(kth) | (np.count_nonzero(dist <= kth[:, None], axis=1) > k)
    if tied.any():
        out[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
    return out


def knn_fills(x, k, need_rows, distances, chunk):
    """Each missing cell's mean over its k nearest donors, the rows that need a
    fill taken in `need_rows` order, `chunk` at a time."""
    means = _column_means(x)
    out = x.copy()
    missing = np.isnan(x)
    donors = [np.flatnonzero(~missing[:, j]) for j in range(x.shape[1])]
    for start in range(0, need_rows.size, chunk):
        rows = need_rows[start:start + chunk]
        dist = distances(x, rows)
        for j, cand in enumerate(donors):
            takers = np.flatnonzero(missing[rows, j])
            if takers.size == 0:
                continue
            cd = dist[np.ix_(takers, cand)]
            order = oracle_nearest(cd, k)
            finite = np.isfinite(np.take_along_axis(cd, order, axis=1)).sum(axis=1)
            values = x[cand[order], j]
            filled = np.full(takers.size, means[j])
            for m in np.unique(finite[finite > 0]):
                hit = finite == m
                filled[hit] = np.mean(values[hit, :m], axis=1)
            out[rows[takers], j] = filled
    return out


def oracle_impute_knn(x, k, chunk=512):
    """Fused distances; rows in order of their missing pattern as a tuple of
    flags, ties by row index."""
    missing = np.isnan(x)
    need = [i for i in range(x.shape[0]) if missing[i].any()]
    need_rows = np.array(sorted(need, key=lambda i: tuple(missing[i])), dtype=np.intp)
    return knn_fills(x, k, need_rows, oracle_partial_distances, chunk)


def four_product_impute_knn(x, k, chunk=512):
    """The imputer before the fused product: four-product distances, rows by index."""
    need_rows = np.flatnonzero(np.isnan(x).any(axis=1))
    return knn_fills(x, k, need_rows, four_product_partial_distances, chunk)


# ---------------------------------------------------------------------------
# Random tables
# ---------------------------------------------------------------------------

def random_case(seed):
    """A holed table and a k: n <= 260 (every 40th case over 512 rows),
    d <= 8, degree up to 0.9, continuous, clipped, rounded or integer values,
    some fully missing rows and some columns cut to one observed cell."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(513, 1100)) if seed % 40 == 0 else int(rng.integers(2, 261))
    d = int(rng.integers(1, 9))
    x = rng.normal(size=(n, d))
    style = seed % 4
    if style == 1:
        centers = rng.random((3, d))
        x = np.clip(centers[rng.integers(0, 3, n)] + 0.3 * x, 0.0, 1.0)
    elif style == 2:
        x = np.round(x, 1)
    elif style == 3:
        x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    holed = np.where(rng.random((n, d)) < rng.uniform(0.0, 0.9), NAN, x)
    if rng.random() < 0.4:
        holed[rng.choice(n, size=max(1, n // 10), replace=False)] = NAN
    if rng.random() < 0.3:
        j = int(rng.integers(d))
        holed[:, j] = NAN
        holed[rng.integers(n), j] = x[0, j]
    for j in np.flatnonzero(np.isnan(holed).all(axis=0)):
        holed[rng.integers(n), j] = x[0, j]
    return holed, int(rng.integers(1, 15))


@pytest.mark.parametrize("block", range(10))
def test_knn_matches_the_oracle_bit_for_bit(block):
    for seed in range(40 * block, 40 * block + 40):
        holed, k = random_case(seed)
        got = impute_knn(holed, k=k).copies[0]
        assert got.tobytes() == oracle_impute_knn(holed, k).tobytes(), seed


@pytest.mark.parametrize("block", range(5))
def test_knn_with_short_candidate_lists_matches_the_oracle(monkeypatch, block):
    # Lists of k to 3k entries leave many picks at or past the list's last
    # distance, so the exact fallback and the fence between them both run;
    # row blocks of one to a few rows split the fallback's gathers.
    monkeypatch.setattr("misslab.neighbors.BLOCK", 100 * block + 1)
    spans = np.random.default_rng(block).integers(0, 1000, size=40)
    for seed, span in zip(range(1000 + 40 * block, 1040 + 40 * block), spans):
        holed, k = random_case(seed)
        monkeypatch.setattr("misslab.imputers._candidate_count",
                            lambda k, observed, s=span: k + s % (2 * k + 1))
        got = impute_knn(holed, k=k).copies[0]
        assert got.tobytes() == oracle_impute_knn(holed, k).tobytes(), seed


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_knn_slabs_match_the_oracle_with_the_same_slab(monkeypatch, chunk):
    monkeypatch.setattr("misslab.neighbors.CHUNK", chunk)
    for seed in range(2000, 2030):
        holed, k = random_case(seed)
        got = impute_knn(holed, k=k).copies[0]
        assert got.tobytes() == oracle_impute_knn(holed, k, chunk).tobytes(), seed


def test_partial_distance_slabs_match_the_oracle():
    for seed in range(20):
        holed, _ = random_case(seed)
        rows = np.flatnonzero(np.isnan(holed).any(axis=1))
        got = partial_distances(holed)(rows)
        assert got.tobytes() == oracle_partial_distances(holed, rows).tobytes(), seed


def test_knn_on_integer_tables_matches_the_four_product_oracle():
    # Small integers keep both expansions exact, so the distances, their ties
    # and the fills agree whatever the product and the row order. The 0/1
    # table has three slabs, each holding other rows than by row index.
    for seed in range(3, 400, 4):
        holed, k = random_case(seed)
        got = impute_knn(holed, k=k).copies[0]
        assert got.tobytes() == four_product_impute_knn(holed, k).tobytes(), seed
    rng = np.random.default_rng(9)
    binary = rng.integers(0, 2, size=(1300, 6)).astype(np.float64)
    holed = np.where(rng.random(binary.shape) < 0.4, NAN, binary)
    for k in (1, 5, 12):
        got = impute_knn(holed, k=k).copies[0]
        assert got.tobytes() == four_product_impute_knn(holed, k).tobytes(), k


# ---------------------------------------------------------------------------
# Runs of one missing pattern
# ---------------------------------------------------------------------------

def one_long_pattern():
    """150 x 5 rows; rows 20 to 119 all miss column 1 alone."""
    rng = np.random.default_rng(31)
    x = np.round(rng.normal(size=(150, 5)), 1)
    holed = np.where(rng.random(x.shape) < 0.3, NAN, x)
    holed[20:120] = x[20:120]
    holed[20:120, 1] = NAN
    return holed


def own_patterns():
    """200 x 8 rows, each with its own missing pattern."""
    rng = np.random.default_rng(32)
    x = np.clip(rng.normal(size=(200, 8)), -1.0, 1.0)
    codes = rng.permutation(np.arange(1, 255))[:200]
    missing = (codes[:, None] >> np.arange(8)) & 1 == 1
    return np.where(missing, NAN, x)


def with_empty_rows():
    """120 x 4 rows at degree 0.5, rows 0, 7 and 119 missing every cell."""
    rng = np.random.default_rng(33)
    x = rng.integers(0, 4, size=(120, 4)) + 0.5 * rng.random((120, 4))
    holed = np.where(rng.random(x.shape) < 0.5, NAN, x)
    holed[[0, 7, 119]] = NAN
    return holed


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_pattern_runs_match_the_oracle(monkeypatch, chunk):
    monkeypatch.setattr("misslab.neighbors.CHUNK", chunk)
    long_run, own, empty = one_long_pattern(), own_patterns(), with_empty_rows()
    missing = np.isnan(long_run)
    order = sorted(np.flatnonzero(missing.any(axis=1)), key=lambda i: tuple(missing[i]))
    at = [place for place, i in enumerate(order) if (missing[i] == missing[20]).all()]
    assert len(at) >= 100 and at[0] // chunk < at[-1] // chunk      # crosses a slab
    patterns = np.unique(np.isnan(own), axis=0)
    assert len(patterns) == len(own)
    for holed in (long_run, own, empty):
        for k in (1, 3, 7):
            got = impute_knn(holed, k=k).copies[0]
            assert got.tobytes() == oracle_impute_knn(holed, k, chunk).tobytes(), k
    # A row missing every cell shares no coordinate: its fills are the means.
    got = impute_knn(empty, k=3).copies[0]
    assert np.array_equal(got[[0, 7, 119]], np.tile(_column_means(empty), (3, 1)))


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_partial_distances_of_rows_in_any_order_match_the_oracle(chunk):
    # Shuffled rows break every pattern run into runs of about one row.
    rng = np.random.default_rng(chunk)
    for holed in (one_long_pattern(), own_patterns(), with_empty_rows()):
        rows = rng.permutation(np.flatnonzero(np.isnan(holed).any(axis=1)))
        slab = partial_distances(holed)
        for start in range(0, rows.size, chunk):
            part = rows[start:start + chunk]
            want = oracle_partial_distances(holed, part)
            assert slab(part).tobytes() == want.tobytes(), start


# ---------------------------------------------------------------------------
# nearest and squared_distances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_nearest_ties_straddling_the_kth_place_match_stable_argsort(seed):
    # Few distinct values and many infinities: nearly every row ties its
    # k-th distance both inside and outside the k picks.
    rng = np.random.default_rng(seed)
    dist = rng.integers(0, 5, size=(60, 40)).astype(np.float64)
    dist[rng.random(dist.shape) < 0.2] = np.inf
    dist[0] = np.inf
    dist[1] = 2.0
    for k in range(0, 43):
        want = np.argsort(dist, axis=1, kind="stable")[:, :k]
        assert np.array_equal(nearest(dist, k), want), k
        assert np.array_equal(oracle_nearest(dist, k), want), k


def test_nearest_rows_holding_nan_match_stable_argsort():
    dist = np.array([[1.0, NAN, 0.0, 1.0, 2.0],
                     [NAN, NAN, NAN, NAN, NAN],
                     [3.0, 3.0, NAN, 3.0, 0.0]])
    for k in range(1, 6):
        want = np.argsort(dist, axis=1, kind="stable")[:, :k]
        assert np.array_equal(nearest(dist, k), want), k


def test_squared_distances_match_the_old_expression_bit_for_bit():
    rng = np.random.default_rng(5)
    for trial in range(30):
        x = rng.normal(size=(int(rng.integers(1, 90)), int(rng.integers(1, 9))))
        if trial % 3 == 0:
            x = np.round(x)                      # coincident rows clamp at 0
        centers = x if trial % 2 else rng.normal(size=(7, x.shape[1]))
        old = np.maximum(np.sum(x * x, axis=1)[:, None]
                         + np.sum(centers * centers, axis=1)[None, :]
                         - 2.0 * (x @ centers.T), 0.0)
        assert squared_distances(x, centers).tobytes() == old.tobytes(), trial
        sq = np.sum(x * x, axis=1)
        assert squared_distances(x[3:], x, sq[3:], sq).tobytes() \
            == squared_distances(x[3:], x).tobytes(), trial


def oracle_squared_distances(x, centers):
    """squared_distances as it was: fresh product, one slab-size norm sum."""
    x_sq = np.sum(x * x, axis=1)
    c_sq = np.sum(centers * centers, axis=1)
    d2 = x @ centers.T
    d2 *= -2.0
    d2 += x_sq[:, None] + c_sq[None, :]
    return np.maximum(d2, 0.0, out=d2)


def oracle_smallest(dist, k):
    """smallest as it was: one argpartition over the whole slab."""
    if k >= dist.shape[1]:
        order = np.argsort(dist, axis=1, kind="stable")
        return order, np.take_along_axis(dist, order, axis=1)
    picks = np.sort(np.argpartition(dist, k - 1, axis=1)[:, :k], axis=1)
    values = np.take_along_axis(dist, picks, axis=1)
    order = np.argsort(values, axis=1, kind="stable")
    return (np.take_along_axis(picks, order, axis=1),
            np.take_along_axis(values, order, axis=1))


@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_squared_distance_slabs_in_one_buffer_match_the_old_expression(monkeypatch, chunk):
    # Row blocks of 3 rows split the norm sum unevenly; 600 rows leave a
    # short last slab of 88 at CHUNK = 512; the first slab is the whole
    # table when it has at most CHUNK rows, so that product stays x @ x.T.
    monkeypatch.setattr("misslab.neighbors.CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for n in (1, 5, 23, 600):
        x = rng.normal(size=(n, 4))
        x[n // 2:] = np.round(x[n // 2:])            # coincident rows clamp at 0
        monkeypatch.setattr("misslab.neighbors.BLOCK", 3 * n + 1)
        first = None
        for rows, slab in slabs(range(n), pairwise_squared(x)):
            first = slab if first is None else first
            want = oracle_squared_distances(x[rows.start:rows.stop], x)
            assert slab.tobytes() == want.tobytes(), (n, rows)
            assert np.shares_memory(slab, first)
        centers = rng.normal(size=(7, 4))
        buf = np.empty((n + 2, 7))
        got = squared_distances(x, centers, out=buf[:n])
        assert np.shares_memory(got, buf)
        assert got.tobytes() == oracle_squared_distances(x, centers).tobytes(), n


@pytest.mark.parametrize("step", [1, 3, 7, 64])
def test_smallest_in_row_blocks_matches_the_whole_slab(monkeypatch, step):
    # Integer distances and infinities tie nearly every row at its k-th
    # place; 59 to 61 rows are no multiple of most steps.
    monkeypatch.setattr("misslab.neighbors.BLOCK", 40 * step)
    rng = np.random.default_rng(step)
    for m in (59, 60, 61):
        dist = rng.integers(0, 5, size=(m, 40)).astype(np.float64)
        dist[rng.random(dist.shape) < 0.2] = np.inf
        dist[0] = np.inf
        for k in range(1, 42):
            for got, want in zip(smallest(dist, k), oracle_smallest(dist, k)):
                assert got.tobytes() == want.tobytes(), (m, k)


# ---------------------------------------------------------------------------
# Behaviour lock on the BLAS path the pipeline takes
# ---------------------------------------------------------------------------

LOCK_SCRIPT = """
import hashlib
import numpy as np
from misslab.imputers import impute_knn
rng = np.random.default_rng(20261018)
centers = 0.2 + 0.6 * rng.random((3, 10))
x = centers[rng.integers(0, 3, size=1300)] + 0.23 * rng.normal(size=(1300, 10))
x = np.clip(x, 0.0, 1.0)
holed = np.where(rng.random(x.shape) < 0.4, np.nan, x)
print(hashlib.sha256(impute_knn(holed, k=5).copies[0].tobytes()).hexdigest())
"""

# Recorded with BLAS at one thread from the KNN imputer before candidate lists
# and in-place slabs: 1,300 x 10 three-blob rows clipped to [0, 1] (about 10%
# of values at a bound), MCAR 0.4, k = 5, so three 512-row slabs.
LOCK_DIGEST = "5a70b46e0be8466e4c30366474a1b369d8d5315d26f37bc9f88f17d07dd63933"


def test_knn_on_three_clipped_slabs_matches_recorded_digest():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", LOCK_SCRIPT], env=env,
                          check=True, capture_output=True, text=True)
    assert done.stdout.strip() == LOCK_DIGEST

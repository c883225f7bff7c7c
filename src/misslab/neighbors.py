"""Nearest-row search shared by KNN imputation, SMOTE/ENN, k-means and the
silhouette: one squared-Euclidean expansion, one partial distance, one
k-smallest selection and one slab loop.

Callers that compare every row with every other row take their distances
from `slabs`, CHUNK query rows at a time, so memory grows with CHUNK x rows,
never rows^2. A slab function overwrites its one slab-size buffer on every
call (it also makes temporaries of at most BLOCK entries or one row), so a
caller such as `imputers._donors` must finish with a slab before asking for
the next. `partial_distances` also takes more than CHUNK rows at once, in
any order. `pairwise_squared` slabs keep the bits of the plain expression
and its order of operations; `partial_distances` slabs are one fused
product, and the KNN imputer hands them its rows in missing-pattern order.
Slabs stay at CHUNK rows, since BLAS products can round differently at
another row count.

`smallest` gives the KNN imputer its candidate lists: each row's K smallest
entries, ordered by (value, index). Every entry below the list's last value
is in the list, in exact order; an entry equal to that last value may be
left out in favour of a higher index. So the imputer trusts only picks
strictly below the last value and sends the rest to `nearest`, which is
exact.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

CHUNK = 512
BLOCK = 1 << 16     # entries in one row block of a slab-wide temporary


def slabs(rows: Sequence, distances: Callable) -> Iterator[tuple]:
    """Consecutive runs of at most CHUNK of `rows`, each with its distance
    slab `distances(run)`; the slab is overwritten by the next one."""
    for start in range(0, len(rows), CHUNK):
        run = rows[start:start + CHUNK]
        yield run, distances(run)


def blocks(shape: tuple[int, int]) -> Iterator[slice]:
    """Row slices of an array of `shape`: BLOCK entries each, or one row."""
    step = max(1, BLOCK // max(shape[1], 1))
    return (slice(start, start + step) for start in range(0, shape[0], step))


def squared_distances(x: np.ndarray, centers: np.ndarray,
                      x_sq: np.ndarray | None = None,
                      c_sq: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances, rows of x against rows of centers:
    (|x|^2 + |c|^2) - 2 x.c, clamped at 0, into `out` if given. `x_sq` and
    `c_sq` are the rows' squared norms, computed once for many slabs."""
    if x_sq is None:
        x_sq = np.sum(x * x, axis=1)
    if c_sq is None:
        c_sq = np.sum(centers * centers, axis=1)
    d2 = np.matmul(x, centers.T, out=out)
    d2 *= -2.0
    for part in blocks(d2.shape):
        d2[part] += x_sq[part, None] + c_sq[None, :]
    # The expansion can go slightly negative for coincident points.
    return np.maximum(d2, 0.0, out=d2)


def pairwise_squared(x: np.ndarray) -> Callable[[range], np.ndarray]:
    """Squared Euclidean distance slabs: the returned function maps a range
    of at most CHUNK rows of x to their distances to every row of x."""
    sq = np.sum(x * x, axis=1)
    buf = np.empty((min(CHUNK, len(x)), len(x)))

    def slab(rows: range) -> np.ndarray:
        part = slice(rows.start, rows.stop)
        return squared_distances(x[part], x, sq[part], sq, buf[:len(rows)])
    return slab


def partial_distances(x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Distance slabs over mutually observed coordinates: the returned function
    maps query rows to their distances to every row of x,

        dist(i, j) = sqrt( d / n_shared * sum_shared (x_i - x_j)^2 ),

    infinite when the rows share no observed coordinate, and to itself. With
    x0 the table with 0 in missing cells and o its observed mask, the sum is
    one product of inner width 3d, [x0_i^2, o_i, x0_i] . [o_j, x0_j^2, -2 x0_j],
    whose factors are built once, here, for every slab. n_shared = o_i . o_j
    depends only on row i's missing pattern, so each run of query rows with
    one pattern takes its row of counts once; it is exact in any order.
    """
    n, d = x.shape
    observed = (~np.isnan(x)).astype(np.float64)
    x0 = np.where(np.isnan(x), 0.0, x)
    left = np.hstack([x0 * x0, observed, x0])
    right = np.hstack([observed, x0 * x0, -2.0 * x0])
    held = []                                  # one (rows, n) buffer, grown on demand

    def slab(rows: np.ndarray) -> np.ndarray:
        if not held or held[0].shape[0] < rows.size:
            held[:] = [np.empty((rows.size, n))]
        dist = np.matmul(left[rows], right.T, out=held[0][:rows.size])
        np.maximum(dist, 0.0, out=dist)
        seen = observed[rows]
        edges = list(np.flatnonzero(np.any(seen[1:] != seen[:-1], axis=1)) + 1)
        for start, stop in zip([0] + edges, edges + [rows.size]):
            shared = observed @ seen[start]
            none = shared == 0.0
            np.divide(d, np.maximum(shared, 1.0), out=shared)
            dist[start:stop] *= shared
            dist[start:stop, none] = np.inf
        np.sqrt(dist, out=dist)
        dist[np.arange(rows.size), rows] = np.inf
        return dist

    return slab


def smallest(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of k smallest entries of each row, ordered by
    (value, index). An entry left out may equal the last value kept."""
    if k >= dist.shape[1]:
        order = np.argsort(dist, axis=1, kind="stable")
        return order, np.take_along_axis(dist, order, axis=1)
    picks = np.empty((dist.shape[0], k), dtype=np.intp)
    for part in blocks(dist.shape):
        picks[part] = np.argpartition(dist[part], k - 1, axis=1)[:, :k]
    picks.sort(axis=1)
    values = np.take_along_axis(dist, picks, axis=1)
    order = np.argsort(values, axis=1, kind="stable")
    return (np.take_along_axis(picks, order, axis=1),
            np.take_along_axis(values, order, axis=1))


def nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row, nearest first,
    ties to the lower index: exactly np.argsort(dist, axis=1, kind="stable")[:, :k].

    Takes `smallest`; a row where an entry outside the picks ties the k-th
    distance is re-sorted over its entries up to that distance only.
    """
    if not 0 < k < dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
    out, values = smallest(dist, k)
    kth = values[:, -1]
    nan = np.isnan(kth)
    if nan.any():
        out[nan] = np.argsort(dist[nan], axis=1, kind="stable")[:, :k]
    within = dist <= kth[:, None]
    counts = np.count_nonzero(within, axis=1)
    tied = counts > k
    if tied.any():
        # Only tied rows keep their entries. Row-major nonzero lists each
        # row's entries by index; a stable sort by (row, value) then orders
        # them by (value, index) within the row.
        within &= tied[:, None]
        row, col = np.nonzero(within)
        order = np.lexsort((dist[row, col], row))
        starts = np.cumsum(counts[tied]) - counts[tied]
        out[tied] = col[order][starts[:, None] + np.arange(k)]
    return out


def kneighbors(x: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows by Euclidean distance, nearest first,
    ties to the lower index; with at most k rows, all rows, itself last."""
    n = x.shape[0]
    out = np.empty((n, min(k, n)), dtype=np.intp)
    for rows, d2 in slabs(range(n), pairwise_squared(x)):
        d2[np.arange(len(rows)), rows] = np.inf
        out[rows] = nearest(d2, k)
    return out

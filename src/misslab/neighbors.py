"""Nearest-row search shared by KNN imputation, SMOTE/ENN, k-means and the
silhouette: one squared-Euclidean expansion and one k-smallest selection.

Callers that compare every row with every other row work in slabs of at
most CHUNK query rows, so memory grows with CHUNK x rows, never rows^2.
"""

from __future__ import annotations

import numpy as np

CHUNK = 512


def squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, rows of x against rows of centers."""
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * (x @ centers.T)
    )
    # The expansion can go slightly negative for coincident points.
    return np.maximum(d2, 0.0)


def partial_distances(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distances from `rows` to every row over mutually observed coordinates.

    dist(i, j) = sqrt( d / n_shared * sum_shared (x_i - x_j)^2 ), infinite
    when the rows share no observed coordinate, and to itself.
    """
    d = x.shape[1]
    observed = (~np.isnan(x)).astype(np.float64)
    x0 = np.where(np.isnan(x), 0.0, x)
    sq = x0 * x0
    a = sq[rows] @ observed.T
    b = observed[rows] @ sq.T
    g = x0[rows] @ x0.T
    shared = observed[rows] @ observed.T
    raw = np.maximum(a + b - 2.0 * g, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(shared > 0, raw * (d / np.maximum(shared, 1.0)), np.inf)
    dist = np.sqrt(scaled)
    dist[np.arange(rows.size), rows] = np.inf
    return dist


def nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row, nearest first,
    ties to the lower index: exactly np.argsort(dist, axis=1, kind="stable")[:, :k].

    Selects with argpartition and sorts only the k picks; a row where an
    entry outside the picks ties the k-th distance is sorted in full.
    """
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


def kneighbors(x: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows by Euclidean distance, nearest first,
    ties to the lower index; with at most k rows, all rows, itself last."""
    n = x.shape[0]
    out = np.empty((n, min(k, n)), dtype=np.intp)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        d2 = squared_distances(x[start:stop], x)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = nearest(d2, k)
    return out

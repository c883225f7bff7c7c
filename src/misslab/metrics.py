"""Evaluation metrics: classification, masked regression error, clustering."""

from __future__ import annotations

import numpy as np

from .data import validate_matrix
from .neighbors import CHUNK, squared_distances

LOG_LOSS_EPS = 1e-15
MAPE_GUARD = 1e-8


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    """Binary cross entropy with probabilities clamped to [eps, 1-eps]."""
    y = np.asarray(y, dtype=np.float64)
    p = np.clip(np.asarray(p, dtype=np.float64), LOG_LOSS_EPS, 1.0 - LOG_LOSS_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def classification_metrics(y: np.ndarray, p: np.ndarray) -> dict:
    """Accuracy (a row is predicted 1 where p >= 0.5) and log loss."""
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"labels shape {y.shape} != probabilities shape {p.shape}")
    if y.size == 0:
        raise ValueError("empty input")
    if (p < 0).any() or (p > 1).any():
        raise ValueError("probabilities must lie in [0, 1]")
    return {"accuracy": int(np.count_nonzero((p >= 0.5) == y)) / y.size,
            "log_loss": log_loss(y, p)}


def regression_metrics_masked(truth: np.ndarray, imputed: np.ndarray,
                              mask: np.ndarray) -> dict:
    """RMSE / MAPE / R2 over masked cells only.

    MAPE denominators are guarded at 1e-8 (scaled data contains zeros);
    n_guarded counts the cells where the guard fired. R2 is 1.0 when the
    residuals vanish, and -inf when the masked truth is constant but the
    imputation is not exact (SS_tot = 0 with SS_res > 0).
    """
    truth = validate_matrix(truth)
    imputed = validate_matrix(imputed)
    mask = np.asarray(mask).astype(bool)
    if not (truth.shape == imputed.shape == mask.shape):
        raise ValueError("truth/imputed/mask shapes differ")
    if not mask.any():
        raise ValueError("mask has no masked cells to score")
    y = truth[mask]
    yhat = imputed[mask]
    if np.isnan(y).any() or np.isnan(yhat).any():
        raise ValueError("masked cells must be observed in both truth and imputed")
    err = y - yhat
    rmse = float(np.sqrt(np.mean(err * err)))
    denom = np.maximum(np.abs(y), MAPE_GUARD)
    n_guarded = int(np.sum(np.abs(y) < MAPE_GUARD))
    mape = float(100.0 * np.mean(np.abs(err) / denom))
    ss_res = float(np.sum(err * err))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_res == 0.0:
        r2 = 1.0
    elif ss_tot == 0.0:
        r2 = -np.inf
    else:
        r2 = 1.0 - ss_res / ss_tot
    return {"rmse": rmse, "mape": mape, "r2": r2,
            "n_cells": int(y.size), "n_guarded": n_guarded}


def silhouette_samples(data: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample (b - a) / max(a, b) with Euclidean distances.

    a = mean distance to the sample's own cluster (excluding itself),
    b = smallest mean distance to any other cluster. Samples in singleton
    clusters score 0 by convention. Distances are accumulated in row
    chunks so big inputs never materialize the full n*n matrix. An (m, n)
    `labels` stacks m labelings that share each chunk: (m, n) scores, bit for
    bit those of m calls.
    """
    x = validate_matrix(data)
    labels = np.asarray(labels)
    n = x.shape[0]
    stack = labels if labels.ndim == 2 else labels[None]
    if stack.ndim != 2 or stack.shape[1] != n:
        raise ValueError("labels length does not match row count")
    clusterings = []                   # (dense labels, cluster sizes, one-hot)
    for row in stack:
        uniq, dense = np.unique(row, return_inverse=True)
        if uniq.size < 2:
            raise ValueError("silhouette needs at least 2 clusters")
        onehot = np.zeros((n, uniq.size))
        onehot[np.arange(n), dense] = 1.0
        clusterings.append((dense, onehot.sum(axis=0), onehot))

    sq = np.sum(x * x, axis=1)
    scores = np.empty((len(clusterings), n))
    for start in range(0, n, CHUNK):
        rows = slice(start, min(start + CHUNK, n))
        dist = squared_distances(x[rows], x, sq[rows], sq)  # (chunk, n)
        np.sqrt(dist, out=dist)
        for out, (dense, counts, onehot) in zip(scores, clusterings):
            cluster_sums = dist @ onehot               # (chunk, k)
            own = dense[rows]
            own_count = counts[own]
            # Own-cluster mean excludes the sample itself (distance 0).
            with np.errstate(invalid="ignore", divide="ignore"):
                a = cluster_sums[np.arange(len(own)), own] / np.maximum(own_count - 1, 1)
                means = cluster_sums / counts[None, :]
            means[np.arange(len(own)), own] = np.inf
            b = means.min(axis=1)
            out[rows] = (b - a) / np.maximum(np.maximum(a, b), np.finfo(np.float64).tiny)
            out[rows][own_count < 2] = 0.0
    return scores if labels.ndim == 2 else scores[0]


def silhouette_score(data: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(silhouette_samples(data, labels)))


def rand_index(predicted: np.ndarray, true_labels: np.ndarray) -> float:
    """Pair-counting agreement between two labelings, in [0, 1].

    Over all sample pairs: (pairs together in both + pairs apart in both)
    divided by all pairs. Invariant to renaming labels on either side.
    """
    predicted = np.asarray(predicted)
    true_labels = np.asarray(true_labels)
    if predicted.shape != true_labels.shape or predicted.ndim != 1:
        raise ValueError("label vectors must be equal-length 1-D")
    n = predicted.size
    if n < 2:
        raise ValueError("rand index needs at least 2 samples")
    _, pi = np.unique(predicted, return_inverse=True)
    _, ti = np.unique(true_labels, return_inverse=True)
    contingency = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(contingency, (pi, ti), 1)

    def pairs(v: np.ndarray) -> float:
        v = v.astype(np.float64)
        return float(np.sum(v * (v - 1.0) / 2.0))

    same_both = pairs(contingency.ravel())
    same_pred = pairs(contingency.sum(axis=1))
    same_true = pairs(contingency.sum(axis=0))
    total = n * (n - 1) / 2.0
    # agreements = same-in-both + apart-in-both
    return float((total + 2.0 * same_both - same_pred - same_true) / total)


def clustering_metrics(data: np.ndarray, predicted: np.ndarray,
                       true_labels: np.ndarray) -> dict:
    return {
        "silhouette": silhouette_score(data, predicted),
        "rand": rand_index(predicted, true_labels),
    }

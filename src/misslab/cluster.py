"""K-means clustering: k-means++ seeding, Lloyd iterations, nearest-centroid assignment."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import rng_for
from .data import observed_matrix, validate_matrix
from .neighbors import squared_distances

MAX_LLOYD_ITERATIONS = 300


@dataclass
class KMeansModel:
    centroids: np.ndarray
    inertia: float
    # Inertia after each Lloyd update; non-increasing by construction.
    inertia_trace: list[float] = field(default_factory=list)


def kmeans_plus_plus(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k seed centers: first uniform, the rest proportional to squared distance."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = squared_distances(x, centers[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All points coincide with a chosen center; any pick is equivalent.
            centers[j] = x[rng.integers(n)]
            continue
        centers[j] = x[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, squared_distances(x, centers[j:j + 1]).ravel())
    return centers


def fit_kmeans(data: np.ndarray, k: int, seed: int) -> KMeansModel:
    """Lloyd's algorithm from a k-means++ start.

    Runs until the assignment reaches a fixpoint or 300 iterations; the
    recorded inertia never increases between iterations.
    """
    x = observed_matrix(data, "k-means")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available rows")

    rng = rng_for(seed, "kmeans", k)
    centers = kmeans_plus_plus(x, k, rng)
    labels = np.full(n, -1)
    trace: list[float] = []
    d2 = squared_distances(x, centers)
    for _ in range(MAX_LLOYD_ITERATIONS):
        new_labels = np.argmin(d2, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        nearest_d2 = np.min(d2, axis=1)
        for j in range(k):
            member = labels == j
            if member.any():
                centers[j] = x[member].mean(axis=0)
            else:
                # Relocate an empty centroid onto the worst-served point;
                # that point's contribution drops to zero, so inertia cannot rise.
                worst = int(np.argmax(nearest_d2))
                centers[j] = x[worst]
                labels[worst] = j
                nearest_d2[worst] = 0.0
        # The next assignment reuses these distances.
        d2 = squared_distances(x, centers)
        trace.append(float(np.sum(d2[np.arange(n), labels])))

    # The first pass always assigns, so the trace ends with the final inertia.
    return KMeansModel(centroids=centers, inertia=trace[-1], inertia_trace=trace)


def assign_kmeans(model: KMeansModel, data: np.ndarray) -> np.ndarray:
    """Label each row with its nearest centroid; ties go to the lowest index."""
    x = validate_matrix(data)
    if x.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if x.shape[1] != model.centroids.shape[1]:
        raise ValueError(
            f"data has {x.shape[1]} columns, centroids have {model.centroids.shape[1]}")
    return np.argmin(squared_distances(x, model.centroids), axis=1)

"""Class rebalancing: SMOTE oversampling followed by edited-NN cleaning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .data import Dataset, from_matrix, observed_matrix
from .neighbors import kneighbors


@dataclass(frozen=True)
class ResampleSpec:
    smote_k: int = 5
    enn_k: int = 3
    target_ratio: float = 1.0    # minority/majority after oversampling
    seed: int = 0

    def __post_init__(self):
        if self.smote_k < 1 or self.enn_k < 1:
            raise ValueError("neighbor counts must be at least 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must lie in (0, 1]")


def _classes(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    if d.target is None:
        raise ValueError("resampling needs binary targets")
    observed_matrix(d.features, "resampling")
    ones = np.flatnonzero(d.target == 1.0)
    zeros = np.flatnonzero(d.target == 0.0)
    if ones.size <= zeros.size:
        return ones, zeros
    return zeros, ones


def smote_oversample(d: Dataset, spec: ResampleSpec) -> Dataset:
    """Append synthetic minority rows x + u*(neighbor - x) until the
    minority/majority ratio reaches target_ratio; originals are retained.

    Each synthetic row interpolates a random minority base toward one of its
    smote_k nearest minority neighbors with u uniform in [0, 1], so synthetic
    points stay inside the minority class's convex hull.
    """
    minority, majority = _classes(d)
    needed = int(round(spec.target_ratio * majority.size)) - minority.size
    if needed <= 0:
        return d
    if minority.size < 2:
        raise ValueError("SMOTE needs at least 2 minority samples")

    x_min = d.features[minority]
    k_eff = min(spec.smote_k, minority.size - 1)
    # k_eff nearest minority neighbors per minority point, ties by index.
    neighbor_idx = kneighbors(x_min, k_eff)

    rng = rng_for(spec.seed, "smote")
    bases = rng.integers(0, minority.size, size=needed)
    picks = rng.integers(0, k_eff, size=needed)
    u = rng.random(needed)
    neighbors = neighbor_idx[bases, picks]
    synthetic = x_min[bases] + u[:, None] * (x_min[neighbors] - x_min[bases])

    minority_label = d.target[minority[0]]
    features = np.vstack([d.features, synthetic])
    target = np.concatenate([d.target, np.full(needed, minority_label)])
    return from_matrix(features, target, d.schema)


def enn_undersample(d: Dataset, spec: ResampleSpec) -> Dataset:
    """Drop every sample whose enn_k nearest neighbors (excluding itself)
    majority-vote the other class; one pass, applied to both classes."""
    if d.target is None:
        raise ValueError("resampling needs binary targets")
    observed_matrix(d.features, "resampling")
    n = d.rows
    if n < spec.enn_k + 1:
        raise ValueError(f"need more than enn_k={spec.enn_k} samples, have {n}")
    neighbor_idx = kneighbors(d.features, spec.enn_k)
    disagree = (d.target[neighbor_idx] != d.target[:, None]).sum(axis=1)
    # Strict majority of neighbors disagreeing removes the sample.
    keep = disagree <= spec.enn_k / 2.0
    return d.take_rows(np.flatnonzero(keep))


def smote_enn(d: Dataset, spec: ResampleSpec) -> Dataset:
    """SMOTE first, then ENN cleaning over the combined set."""
    return enn_undersample(smote_oversample(d, spec), spec)

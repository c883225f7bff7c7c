"""Random forests over CART trees grown with variance-reduction splits;
a forest predicts the mean of its trees' leaf means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .data import validate_matrix


@dataclass
class ForestSpec:
    n_trees: int = 100
    max_depth: int | None = None        # None = grow until pure; 0 = stump
    min_samples_leaf: int = 1
    feature_subsample: float | None = None   # None = d/3
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")


class _Tree:
    """Flat-array CART tree; feature -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self, feature: int, threshold: float, value: float) -> int:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def freeze(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)

    def predict(self, x: np.ndarray) -> np.ndarray:
        node = np.zeros(x.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            cur = node[active]
            rows = np.flatnonzero(active)
            go_left = x[rows, self.feature[cur]] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[node] >= 0
        return self.value[node]


def _best_split(x: np.ndarray, y: np.ndarray, idx: np.ndarray,
                feats: np.ndarray, min_leaf: int):
    """Best (feature, threshold, left-index-mask) by SSE reduction, or None."""
    best = None
    n = idx.size
    for f in feats:
        xs = x[idx, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys = y[idx][order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        # Split with p samples on the left, p in [min_leaf, n - min_leaf],
        # allowed only between distinct consecutive values.
        p = np.arange(min_leaf, n - min_leaf + 1)
        if p.size == 0:
            continue
        valid = xs_sorted[p - 1] < xs_sorted[p]
        if not valid.any():
            continue
        p = p[valid]
        sum_l = csum[p - 1]
        sq_l = csq[p - 1]
        sum_r = csum[-1] - sum_l
        sq_r = csq[-1] - sq_l
        nl = p.astype(np.float64)
        nr = n - nl
        sse = (sq_l - sum_l * sum_l / nl) + (sq_r - sum_r * sum_r / nr)
        at = int(np.argmin(sse))
        if best is None or sse[at] < best[0]:
            pos = int(p[at])
            threshold = 0.5 * (xs_sorted[pos - 1] + xs_sorted[pos])
            best = (float(sse[at]), int(f), threshold)
    if best is None:
        return None
    _, f, threshold = best
    return f, threshold, x[idx, f] <= threshold


def _grow(tree: _Tree, x: np.ndarray, y: np.ndarray, root_idx: np.ndarray,
          max_depth: int | None, min_leaf: int, m_feats: int,
          rng: np.random.Generator) -> None:
    # Explicit stack in depth-first preorder so rng draws match a recursive
    # left-first traversal without recursion-depth limits.
    stack = [(root_idx, 0, -1, "left")]
    while stack:
        idx, depth, parent, side = stack.pop()
        node = tree.add(-1, 0.0, float(y[idx].mean()))
        if parent >= 0:
            if side == "left":
                tree.left[parent] = node
            else:
                tree.right[parent] = node
        if max_depth is not None and depth >= max_depth:
            continue
        if idx.size < 2 * min_leaf or np.all(y[idx] == y[idx[0]]):
            continue
        feats = rng.choice(x.shape[1], size=m_feats, replace=False)
        split = _best_split(x, y, idx, feats, min_leaf)
        if split is None:
            continue
        f, threshold, go_left = split
        tree.feature[node] = f
        tree.threshold[node] = threshold
        stack.append((idx[~go_left], depth + 1, node, "right"))
        stack.append((idx[go_left], depth + 1, node, "left"))


@dataclass
class ForestModel:
    spec: ForestSpec
    trees: list


def train_forest(data: np.ndarray, targets: np.ndarray, spec: ForestSpec) -> ForestModel:
    """Bootstrap-sampled CART trees with per-node feature subsampling."""
    x = validate_matrix(data)
    if np.isnan(x).any():
        raise ValueError("forest training requires fully observed data")
    y = np.asarray(targets, dtype=np.float64)
    n, d = x.shape
    if n == 0:
        raise ValueError("training data is empty")
    if y.shape != (n,):
        raise ValueError(f"targets have shape {y.shape}, expected ({n},)")

    if spec.feature_subsample is not None:
        m_feats = int(round(spec.feature_subsample * d))
    else:
        m_feats = int(round(d / 3.0))
    m_feats = min(d, max(1, m_feats))

    trees = []
    for t in range(spec.n_trees):
        rng = rng_for(spec.seed, "tree", t)
        boot = rng.integers(0, n, size=n)
        if spec.max_depth == 0:
            # No structure is learned, so resampling would only add noise:
            # a depth-0 stump is the training mean itself.
            boot = np.arange(n)
        tree = _Tree()
        _grow(tree, x, y, boot, spec.max_depth, spec.min_samples_leaf,
              m_feats, rng)
        tree.freeze()
        trees.append(tree)
    return ForestModel(spec=spec, trees=trees)


def predict_forest(model: ForestModel, data: np.ndarray) -> np.ndarray:
    """Mean of the tree outputs."""
    x = validate_matrix(data)
    if np.isnan(x).any():
        raise ValueError("forest prediction requires fully observed data")
    if x.shape[0] == 0:
        return np.empty(0)
    per_tree = np.stack([tree.predict(x) for tree in model.trees])
    return per_tree.mean(axis=0)

"""Random forests over CART trees grown with variance-reduction splits;
a forest predicts the mean of its trees' leaf means.

Each tree draws its bootstrap sample and, at every node it tries to split,
its feature subset from its own seeded stream, in depth-first preorder. The
trees of one forest are independent, so `train_forest` grows them in
lockstep: each step takes every tree's next node to split and scores all
their candidate splits together. Per-feature sorted lists of each sample,
made by one stable sort and partitioned in place as nodes split (SLIQ,
Mehta, Agrawal and Rissanen, 1996), replace a sort per node and feature.
The trees are the ones a one-node-at-a-time grower builds, bit for bit.

Since tree t depends only on its own stream, any process can grow any
subset of a forest's trees. A forest grown with `helpers.Helpers` maps its
tree indices over the cores a `helpers.lending` block lends: each process
grows every P-th tree, and the trees come back in index order, so the
forest is the same whichever process grew a tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .data import observed_matrix
from .helpers import Helpers


@dataclass
class ForestSpec:
    n_trees: int = 100
    max_depth: int | None = None        # None = grow until pure; 0 = stump
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be at least 0, or None")
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

    def add(self, value: float) -> int:
        """Append a leaf holding `value`; returns its node index."""
        self.feature.append(-1)
        self.threshold.append(0.0)
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


def _sorted_lists(x: np.ndarray, boots: np.ndarray) -> np.ndarray:
    """(trees, d + 1, n) row ids: row f < d holds each bootstrap sample
    sorted by feature f with ties in draw order, row d the sample itself.

    The sort runs on each value's dense rank within its column, which orders
    and ties exactly as the values do but fits a small integer type, for
    which numpy's stable sort is a radix sort."""
    n_trees, n = boots.shape
    d = x.shape[1]
    xt = x.T
    order = np.argsort(xt, axis=1, kind="stable")
    ascending = np.take_along_axis(xt, order, axis=1)
    rank = np.zeros(xt.shape, dtype=np.min_scalar_type(n - 1))
    np.cumsum(ascending[:, 1:] > ascending[:, :-1], axis=1, out=rank[:, 1:])
    np.put_along_axis(rank, order, rank.copy(), axis=1)
    within = np.argsort(rank[:, boots], axis=-1, kind="stable")   # (d, trees, n)
    lists = np.empty((n_trees, d + 1, n), dtype=np.intp)
    lists[:, :d] = np.take_along_axis(boots[None], within, axis=-1).transpose(1, 0, 2)
    lists[:, d] = boots
    return lists


def _best_splits(flat: np.ndarray, xt: np.ndarray, y: np.ndarray,
                 start: np.ndarray, feat: np.ndarray, size: np.ndarray,
                 min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-SSE split of each candidate row.

    Row r is the sample `flat[start[r]:start[r] + size[r]]` sorted by feature
    `feat[r]` (`xt` is the data transposed). A split puts p samples on the
    left, p in [min_leaf, size - min_leaf], and is allowed only between
    distinct consecutive values. Returns each row's minimum SSE (inf when it
    has no allowed split; the first minimum wins ties) and the threshold
    there: the midpoint of the two values, or the lower one where the
    midpoint rounds onto the upper.

    Rows are scored in padded blocks of similar size, each of at most
    _BLOCK_CELLS cells: sizes in [2^(b-1), 2^b) share class b, and sizes
    below 128 share one.
    """
    best = np.empty(size.size)
    threshold = np.empty(size.size)
    size_class = np.maximum(np.frexp(size)[1], 7)
    for b in np.unique(size_class):
        in_class = np.flatnonzero(size_class == b)
        per_block = max(1, _BLOCK_CELLS >> int(b))
        for first in range(0, in_class.size, per_block):
            r = in_class[first:first + per_block]
            best[r], threshold[r] = _score_block(
                flat, xt, y, start[r], feat[r], size[r], min_leaf)
    return best, threshold


# Small enough that a block's temporaries stay in cache and are reused from
# the heap instead of being mapped afresh for every block.
_BLOCK_CELLS = 1 << 14
# fmax with these lets an allowed split's SSE through and blocks the rest.
_BLOCKED = np.array([np.inf, -np.inf])


def _score_block(flat, xt, y, start, feat, size, min_leaf):
    """`_best_splits` for one block, padded to its longest row."""
    rows = np.arange(size.size)
    cols = np.arange(int(size.max()))
    ids = flat.take(start[:, None] + cols, mode="clip")   # padding is unread
    xs = xt.ravel().take(ids + (feat * xt.shape[1])[:, None])
    ys = y.take(ids)
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(np.square(ys, out=ys), axis=1, out=ys)
    # Column c scores p = c + 1 samples on the left, with the formula
    # (sq_l - sum_l * sum_l / nl) + (sq_r - sum_r * sum_r / nr).
    sum_l = csum[:, :-1]
    sq_l = csq[:, :-1]
    p = cols[1:]
    nl = p.astype(np.float64)
    nr = size.astype(np.float64)[:, None] - nl
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = sum_l * sum_l
        sse /= nl
        np.subtract(sq_l, sse, out=sse)
        right = csum[rows, size - 1][:, None] - sum_l
        right *= right
        right /= nr
        np.subtract(csq[rows, size - 1][:, None] - sq_l, right, out=right)
        sse += right
    allowed = xs[:, :-1] < xs[:, 1:]
    allowed &= (p >= min_leaf) & (p <= size[:, None] - min_leaf)
    np.fmax(sse, _BLOCKED.take(allowed.view(np.uint8)), out=sse)
    at = sse.argmin(axis=1)
    lo, hi = xs[rows, at], xs[rows, at + 1]
    mid = 0.5 * (lo + hi)
    # A midpoint that rounds onto the upper value would send that value's
    # samples left too; split at the lower value then, as scikit-learn does.
    return sse[rows, at], np.where(mid < hi, mid, lo)


def _grow_forest(x: np.ndarray, y: np.ndarray, boots: np.ndarray,
                 max_depth: int | None, min_leaf: int, m_feats: int,
                 rngs: list) -> list[_Tree]:
    """One tree per bootstrap row of `boots`, all grown in lockstep.

    Each tree grows in depth-first preorder, left child first. A node is a
    leaf at max_depth, below 2 * min_leaf samples or with constant targets;
    otherwise it draws m_feats features from its tree's rng and splits at the
    minimum-SSE threshold (`_best_splits`), or stays a leaf if no feature
    allows a split. The first drawn feature wins ties. Each step pops every
    tree's next node that needs a split search and scores them all together,
    so each rng makes the same draws in the same order as a tree grown alone.

    Tree t's sample lives in `lists[t]` (`_sorted_lists`). A node owns the
    columns [s, e) of every row. A split partitions them in place and
    stably, so each row stays sorted for the children; when neither child
    can split, only row d (which gives the leaf means) is partitioned.
    """
    n_trees, n = boots.shape
    d = x.shape[1]
    xt = np.ascontiguousarray(x.T)
    lists = _sorted_lists(x, boots)
    flat = lists.reshape(-1)

    trees = [_Tree() for _ in range(n_trees)]
    draw_rows = list(lists[:, d])
    # With no features no node can split: every tree is its root.
    depth_cap = 0 if d == 0 else np.inf if max_depth is None else max_depth
    # (start, stop, depth, parent, is_left) in preorder, left on top.
    stacks = [[(0, n, 0, -1, True)] for _ in range(n_trees)]
    while True:
        batch, feats = [], []
        for t, (tree, stack) in enumerate(zip(trees, stacks)):
            while stack:
                s, e, depth, parent, is_left = stack.pop()
                yi = y.take(draw_rows[t][s:e])
                node = tree.add(float(yi.sum() / yi.size))
                if parent >= 0:
                    (tree.left if is_left else tree.right)[parent] = node
                if (depth >= depth_cap or e - s < 2 * min_leaf
                        or (yi == yi[0]).all()):
                    continue
                batch.append((t, node, s, e, depth))
                feats.append(rngs[t].choice(d, size=m_feats, replace=False))
                break
        if not batch:
            return trees

        feats = np.array(feats)
        start = np.array([t * (d + 1) * n + s for t, _, s, _, _ in batch])
        size = np.array([e - s for _, _, s, e, _ in batch])
        sse, thr = _best_splits(
            flat, xt, y, (start[:, None] + feats * n).ravel(), feats.ravel(),
            np.repeat(size, m_feats), min_leaf)
        pick = sse.reshape(-1, m_feats).argmin(axis=1)
        chosen = pick + np.arange(len(batch)) * m_feats
        for (t, node, s, e, depth), f, best, threshold in zip(
                batch, feats.ravel()[chosen].tolist(), sse[chosen].tolist(),
                thr[chosen].tolist()):
            if best == np.inf:
                continue
            trees[t].feature[node] = f
            trees[t].threshold[node] = threshold
            go = xt[f].take(draw_rows[t][s:e]) <= threshold
            nl = int(np.count_nonzero(go))
            if depth + 1 < depth_cap and max(nl, e - s - nl) >= 2 * min_leaf:
                block = lists[t, :, s:e]
                go = xt[f].take(block) <= threshold
            else:
                block = lists[t, d:, s:e]
                go = go[None]
            left, right = block[go], block[~go]
            block[:, :nl] = left.reshape(len(block), nl)
            block[:, nl:] = right.reshape(len(block), e - s - nl)
            stacks[t].append((s + nl, e, depth + 1, node, False))
            stacks[t].append((s, s + nl, depth + 1, node, True))


@dataclass
class ForestModel:
    trees: list


def _grow_trees(x: np.ndarray, y: np.ndarray, spec: ForestSpec,
                indices: list[int]) -> list[_Tree]:
    """The trees of the forest `spec` on (x, y) with these indices, frozen."""
    n, d = x.shape
    m_feats = min(d, max(1, int(round(d / 3.0))))
    rngs = [rng_for(spec.seed, "tree", t) for t in indices]
    boots = np.array([rng.integers(0, n, size=n) for rng in rngs])
    if spec.max_depth == 0:
        # No structure is learned, so resampling would only add noise:
        # a depth-0 stump is the training mean itself.
        boots[:] = np.arange(n)
    trees = _grow_forest(x, y, boots, spec.max_depth, spec.min_samples_leaf,
                         m_feats, rngs)
    for tree in trees:
        tree.freeze()
    return trees


def train_forest(data: np.ndarray, targets: np.ndarray, spec: ForestSpec,
                 helpers: Helpers | None = None) -> ForestModel:
    """Bootstrap-sampled CART trees with per-node feature subsampling; with
    `helpers`, shares of the trees grow on the cores they borrow."""
    x = observed_matrix(data, "forest training")
    y = np.asarray(targets, dtype=np.float64)
    n, d = x.shape
    if n == 0:
        raise ValueError("training data is empty")
    if y.shape != (n,):
        raise ValueError(f"targets have shape {y.shape}, expected ({n},)")
    indices = range(spec.n_trees)
    if helpers is None:
        return ForestModel(trees=_grow_trees(x, y, spec, indices))
    return ForestModel(trees=helpers.map(_grow_trees, (x, y, spec), indices))


def predict_forest(model: ForestModel, data: np.ndarray) -> np.ndarray:
    """Mean of the tree outputs."""
    x = observed_matrix(data, "forest prediction")
    if x.shape[0] == 0:
        return np.empty(0)
    per_tree = np.stack([tree.predict(x) for tree in model.trees])
    return per_tree.mean(axis=0)

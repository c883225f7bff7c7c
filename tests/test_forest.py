"""Random forests over hand-grown CART trees."""

import contextlib
import os
import signal
import threading

import numpy as np
import pytest

from misslab._rng import rng_for
from misslab import forest
from misslab.forest import ForestSpec, predict_forest, train_forest
from misslab.helpers import Helpers, lending


def test_spec_validation():
    with pytest.raises(ValueError, match="n_trees"):
        ForestSpec(n_trees=0)
    with pytest.raises(ValueError, match="min_samples_leaf"):
        ForestSpec(min_samples_leaf=0)
    with pytest.raises(ValueError, match="max_depth"):
        ForestSpec(max_depth=-1)
    ForestSpec(max_depth=0)


def test_constant_targets_predict_that_constant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 3))
    y = np.full(60, 4.25)
    model = train_forest(x, y, ForestSpec(n_trees=10, seed=0))
    assert (predict_forest(model, x) == 4.25).all()


def test_linear_function_training_r2_above_09():
    rng = np.random.default_rng(1)
    x = rng.random((1000, 3))
    y = x[:, 0]
    spec = ForestSpec(n_trees=100, max_depth=12, min_samples_leaf=5, seed=1)
    model = train_forest(x, y, spec)
    pred = predict_forest(model, x)
    ss_res = np.sum((y - pred) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.9


def test_single_stump_predicts_global_mean_everywhere():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    model = train_forest(x, y, ForestSpec(n_trees=1, max_depth=0, seed=2))
    pred = predict_forest(model, rng.normal(size=(10, 2)))
    assert np.allclose(pred, y.mean(), rtol=0, atol=1e-12)


def test_min_leaf_equal_to_n_forces_constant_prediction():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = train_forest(x, y, ForestSpec(n_trees=5, min_samples_leaf=30, seed=3))
    pred = predict_forest(model, x)
    assert np.unique(pred).size == 1


def test_fixed_seed_identical_predictions():
    rng = np.random.default_rng(4)
    x = rng.random((200, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 0.0])
    spec = ForestSpec(n_trees=20, max_depth=8, seed=7)
    a = predict_forest(train_forest(x, y, spec), x)
    b = predict_forest(train_forest(x, y, spec), x)
    assert np.array_equal(a, b)
    other = ForestSpec(n_trees=20, max_depth=8, seed=8)
    c = predict_forest(train_forest(x, y, other), x)
    assert not np.array_equal(a, c)


def test_empty_data_and_mismatched_targets_error():
    with pytest.raises(ValueError, match="empty"):
        train_forest(np.empty((0, 2)), np.empty(0), ForestSpec())
    with pytest.raises(ValueError, match="shape"):
        train_forest(np.zeros((5, 2)), np.zeros(4), ForestSpec())
    with pytest.raises(ValueError, match="fully observed"):
        train_forest(np.array([[1.0, np.nan]]), np.zeros(1), ForestSpec())


def test_predict_empty_input_gives_empty_output():
    rng = np.random.default_rng(6)
    x = rng.random((20, 2))
    model = train_forest(x, x[:, 0], ForestSpec(n_trees=2, seed=0))
    assert predict_forest(model, np.empty((0, 2))).shape == (0,)


def test_forest_beats_stump_on_structured_data():
    rng = np.random.default_rng(7)
    x = rng.random((400, 3))
    y = 3.0 * x[:, 0] + x[:, 1]
    deep = train_forest(x, y, ForestSpec(n_trees=10, max_depth=10, seed=1))
    stump = train_forest(x, y, ForestSpec(n_trees=10, max_depth=0, seed=1))
    err_deep = np.mean((predict_forest(deep, x) - y) ** 2)
    err_stump = np.mean((predict_forest(stump, x) - y) ** 2)
    assert err_deep < err_stump


# ---------------------------------------------------------------------------
# Equivalence with the one-node-at-a-time grower
# ---------------------------------------------------------------------------

def _oracle_best_split(x, y, idx, feats, min_leaf):
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
            lo, hi = xs_sorted[pos - 1], xs_sorted[pos]
            threshold = 0.5 * (lo + hi)
            if not threshold < hi:      # rounded onto the upper value
                threshold = lo
            best = (float(sse[at]), int(f), threshold)
    if best is None:
        return None
    _, f, threshold = best
    return f, threshold, x[idx, f] <= threshold


def _oracle_tree(x, y, root_idx, max_depth, min_leaf, m_feats, rng):
    """One tree grown alone, node by node in depth-first preorder."""
    tree = {k: [] for k in ("feature", "threshold", "left", "right", "value")}
    stack = [(root_idx, 0, -1, "left")]
    while stack:
        idx, depth, parent, side = stack.pop()
        for key, v in (("feature", -1), ("threshold", 0.0), ("left", -1),
                       ("right", -1), ("value", float(y[idx].mean()))):
            tree[key].append(v)
        node = len(tree["value"]) - 1
        if parent >= 0:
            tree[side][parent] = node
        if max_depth is not None and depth >= max_depth:
            continue
        if idx.size < 2 * min_leaf or np.all(y[idx] == y[idx[0]]):
            continue
        feats = rng.choice(x.shape[1], size=m_feats, replace=False)
        split = _oracle_best_split(x, y, idx, feats, min_leaf)
        if split is None:
            continue
        f, threshold, go_left = split
        tree["feature"][node] = f
        tree["threshold"][node] = threshold
        stack.append((idx[~go_left], depth + 1, node, "right"))
        stack.append((idx[go_left], depth + 1, node, "left"))
    return tree


def _oracle_forest(x, y, spec):
    n, d = x.shape
    m_feats = min(d, max(1, int(round(d / 3.0))))
    trees = []
    for t in range(spec.n_trees):
        rng = rng_for(spec.seed, "tree", t)
        boot = rng.integers(0, n, size=n)
        if spec.max_depth == 0:
            boot = np.arange(n)
        trees.append(_oracle_tree(x, y, boot, spec.max_depth,
                                  spec.min_samples_leaf, m_feats, rng))
    return trees


def _random_case(case: int):
    """A training set and spec drawn to hit ties and the split edge cases."""
    rng = np.random.default_rng(case)
    n = int(rng.choice([1, 2, 3, 7, 15]) if case % 5 == 0 else rng.integers(1, 401))
    d = int(rng.integers(0, 7))
    max_depth = [None, 0, 1, 8][case % 4 if case % 3 else (case // 3) % 4]
    x = rng.normal(size=(n, d))
    kinds = rng.integers(0, 6, size=d)
    for j, kind in enumerate(kinds):
        if kind == 1:                                   # heavy ties
            x[:, j] = np.round(x[:, j], 1)
        elif kind == 2:                                 # constant column
            x[:, j] = 1.5
        elif kind == 3:                                 # signed zeros
            x[:, j] = rng.choice([-0.0, 0.0, 1.0], size=n)
        elif kind == 4:                                 # adjacent floats
            x[:, j] = 1.0 + np.finfo(float).eps * rng.integers(0, 4, size=n)
        elif kind == 5 and j > 0:                       # same column twice
            x[:, j] = x[:, j - 1]
    target = case % 4
    if target == 0:
        y = rng.normal(size=n)
    elif target == 1:
        y = rng.integers(0, 3, size=n).astype(float)
    elif target == 2:
        y = np.full(n, -2.5)
    else:
        y = x.sum(axis=1) * 2 + np.round(rng.normal(size=n), 1)
    spec = ForestSpec(
        n_trees=int(rng.integers(1, 7)),
        max_depth=max_depth,
        min_samples_leaf=int(rng.integers(1, 9)),
        seed=case)
    if case % 11 == 0:                  # fewer than 2 * min_leaf samples
        spec.min_samples_leaf = n // 2 + 1
    return x, y, spec


def _assert_equal_trees(model, expected, case):
    assert len(model.trees) == len(expected)
    for t, (tree, want) in enumerate(zip(model.trees, expected)):
        for key in ("feature", "left", "right"):
            assert np.array_equal(getattr(tree, key), want[key]), (case, t, key)
        for key in ("threshold", "value"):
            got = getattr(tree, key)
            exp = np.asarray(want[key], dtype=np.float64)
            assert np.array_equal(got.view(np.uint64),
                                  exp.view(np.uint64)), (case, t, key)


def test_lockstep_trees_equal_one_tree_at_a_time_bit_for_bit():
    for case in range(320):
        x, y, spec = _random_case(case)
        with _deadline(20):
            model = train_forest(x, y, spec)
        _assert_equal_trees(model, _oracle_forest(x, y, spec), case)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _borrowing_cases():
    """One tree, an odd count, stumps, a table with no feature, and random cases."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 4))
    y = x[:, 0] + np.round(rng.normal(size=60), 1)
    cases = [(x, y, ForestSpec(n_trees=1, max_depth=4, seed=1)),
             (x, y, ForestSpec(n_trees=7, max_depth=None, min_samples_leaf=2, seed=2)),
             (x, y, ForestSpec(n_trees=4, max_depth=0, seed=3)),
             (np.empty((60, 0)), y, ForestSpec(n_trees=5, seed=4))]
    return cases + [_random_case(case) for case in range(1, 40, 3)]


@pytest.mark.parametrize("free", [0, 1, 2, 9])
def test_trees_grown_on_borrowed_cores_equal_one_tree_at_a_time(free):
    # Each forest hands every P-th tree to a helper per free token (at most
    # one per tree but the first), and the trees keep their bits. The
    # helpers, forked once, serve every forest of the block.
    cases = _borrowing_cases()
    forked = min(free, max(spec.n_trees for _, _, spec in cases) - 1)
    with lending(threading.Semaphore(free)) as loan, Helpers() as helpers:
        for case, (x, y, spec) in enumerate(cases):
            with _deadline(20):
                model = train_forest(x, y, spec, helpers)
            _assert_equal_trees(model, _oracle_forest(x, y, spec), case)
        assert len(helpers.live) == forked
    _no_child_left()
    assert loan.tokens._value == free          # every token came back
    assert (loan.maps > 0) == (free > 0)
    assert len(loan.peak_rss_mb) == forked
    assert (loan.cpu_s > 0) == (free > 0)


def test_a_helper_that_exits_early_or_is_killed_leaves_the_same_trees(monkeypatch):
    x, y, spec = _borrowing_cases()[1]
    expected = _oracle_forest(x, y, spec)
    with lending(threading.Semaphore(2)) as loan, Helpers() as helpers:
        _assert_equal_trees(train_forest(x, y, spec, helpers), expected, "helped")
        os.kill(helpers.live[0][0], signal.SIGKILL)
        _assert_equal_trees(train_forest(x, y, spec, helpers), expected, "killed")
    monkeypatch.setattr(forest, "_grow_trees", _exit_in_helpers)
    with lending(loan.tokens) as exited, Helpers() as helpers:
        _assert_equal_trees(train_forest(x, y, spec, helpers), expected, "exited")
        assert helpers.live == []                 # both exited and were reaped
    _no_child_left()
    assert (loan.maps, exited.maps) == (2, 0)   # the live helper grew its share
    assert loan.tokens._value == 2


_PARENT, _GROW_TREES = os.getpid(), forest._grow_trees


def _exit_in_helpers(*args):
    """`forest._grow_trees`, but a helper exits before growing its share;
    module-level, so that it pickles."""
    if os.getpid() != _PARENT:
        os._exit(0)
    return _GROW_TREES(*args)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging when a tree with no depth cap never stops."""
    def hung(signum, frame):
        raise TimeoutError("tree growth did not terminate")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _adjacent_floats(rng, shape) -> np.ndarray:
    """1 plus 0 to 3 ulps: the midpoint of 1 + eps and 1 + 2 eps rounds onto
    1 + 2 eps."""
    return 1.0 + np.finfo(float).eps * rng.integers(0, 4, size=shape)


def test_adjacent_float_splits_leave_no_nan_leaf():
    eps = np.finfo(float).eps
    assert 0.5 * ((1 + eps) + (1 + 2 * eps)) == 1 + 2 * eps
    for case in range(60):
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 80))
        x = _adjacent_floats(rng, (n, int(rng.integers(1, 4))))
        y = rng.normal(size=n)
        for max_depth in (None, 1, 8):
            spec = ForestSpec(n_trees=4, max_depth=max_depth,
                              min_samples_leaf=int(rng.integers(1, 4)), seed=case)
            with _deadline(20):
                model = train_forest(x, y, spec)
            for tree in model.trees:
                assert not np.isnan(tree.value).any(), (case, max_depth)
            assert np.isfinite(predict_forest(model, _adjacent_floats(rng, x.shape))).all()


def test_two_adjacent_values_with_no_depth_cap_terminate():
    # With the midpoint as threshold this table split into itself and an
    # empty child, forever.
    eps = np.finfo(float).eps
    x = np.array([[1 + eps], [1 + 2 * eps]] * 6)
    y = np.tile([0.0, 1.0], 6)
    with _deadline(20):
        model = train_forest(x, y, ForestSpec(n_trees=3, max_depth=None, seed=0))
    for tree in model.trees:
        split = tree.feature >= 0
        assert (tree.threshold[split] == 1 + eps).all()
        assert tree.feature.size <= 3
    assert np.array_equal(predict_forest(model, x), y)

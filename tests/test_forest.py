"""Random forests over hand-grown CART trees."""

import numpy as np
import pytest

from misslab.forest import ForestSpec, predict_forest, train_forest


def test_spec_validation():
    with pytest.raises(ValueError, match="n_trees"):
        ForestSpec(n_trees=0)
    with pytest.raises(ValueError, match="min_samples_leaf"):
        ForestSpec(min_samples_leaf=0)


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

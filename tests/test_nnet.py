"""Feed-forward nets: backprop, dropout, early stopping, checkpointing."""

import numpy as np
import pytest
from gradcheck import gradient_check

from misslab.data import from_matrix
from misslab.nnet import (
    FeedForward,
    MlpSpec,
    TrainConfig,
    predict_mlp,
    train_mlp,
)


def blob_dataset(seed, n=500, flip=False):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([
        rng.normal((-2.0, -2.0), 0.6, size=(half, 2)),
        rng.normal((2.0, 2.0), 0.6, size=(n - half, 2)),
    ])
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    if flip:
        y = 1.0 - y
    return from_matrix(x, target=y)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        MlpSpec(hidden_layers=[20, 0])
    with pytest.raises(ValueError, match="dropout"):
        MlpSpec(dropout_rate=1.0)


def test_train_config_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(max_epochs=10, patience=11)


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed, networks", [(4, 1), ([4, 5, 6], 3)])
def test_a_stack_of_one_has_the_layout_of_a_stack_of_three(seed, networks):
    sizes = [5, 7, 3, 1]
    net = FeedForward(sizes, seed=seed)
    for (fan_in, fan_out), w, b, gw, gb in zip(
            zip(sizes[:-1], sizes[1:]), net.weights, net.biases, net._grad_w, net._grad_b):
        assert w.shape == gw.shape == (networks, fan_in, fan_out)
        assert b.shape == gb.shape == (networks, 1, fan_out)
    x = np.random.default_rng(0).normal(size=(9, 5))
    assert net.logits(x).shape == (networks, 9, 1)
    assert net.logits(np.broadcast_to(x, (networks, 9, 5))).shape == (networks, 9, 1)


# ---------------------------------------------------------------------------
# Gradient correctness
# ---------------------------------------------------------------------------

def test_gradient_check_sigmoid_head():
    rng = np.random.default_rng(0)
    net = FeedForward([10, 8, 4, 1], output="sigmoid-binary", seed=1)
    x = rng.normal(size=(10, 10))
    y = rng.integers(0, 2, size=10).astype(np.float64)
    assert gradient_check(net, x, y, eps=1e-5) < 1e-4


def test_gradient_check_masked_linear_head():
    rng = np.random.default_rng(1)
    net = FeedForward([6, 12, 6], output="linear", seed=2)
    x = rng.normal(size=(10, 6))
    y = rng.normal(size=(10, 6))
    mask = (rng.random((10, 6)) < 0.5).astype(np.float64)
    mask[0, 0] = 1.0
    assert gradient_check(net, x, y, loss_mask=mask, eps=1e-5) < 1e-4


def test_linear_head_without_a_loss_mask_is_an_error():
    rng = np.random.default_rng(3)
    net = FeedForward([6, 5, 3], output="linear", seed=5)
    x, y = rng.normal(size=(4, 6)), rng.normal(size=(4, 3))
    for step in (net.loss, net.grads):
        with pytest.raises(ValueError, match="linear head needs a loss mask"):
            step(x, y)


def test_mask_selecting_no_cell_gives_zero_gradient_but_no_loss():
    rng = np.random.default_rng(2)
    net = FeedForward([6, 5, 3], output="linear", seed=4)
    x, y = rng.normal(size=(2, 6)), rng.normal(size=(2, 3))
    net.grad[:] = 1.0
    assert (net.grads(x, y, loss_mask=np.zeros((2, 3))) == 0.0).all()
    with pytest.raises(ValueError, match="no cells"):
        net.loss(x, y, loss_mask=np.zeros((2, 3)))


def test_dropout_expectation_matches_inference():
    # Inverted scaling: the mean over masks of the dropped-out logits must
    # equal the inference logits, since the head is affine in the dropped layer.
    net = FeedForward([3, 6, 1], output="sigmoid-binary", dropout_rate=0.2, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 3))
    reference = net.logits(x).ravel()
    draws = 10_000
    mask_rng = np.random.default_rng(5)
    samples = np.empty((draws, 8))
    for i in range(draws):
        samples[i] = net._forward(x, net.dropout_mask([mask_rng], 8)[0])[-1].ravel()
    se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    gap = np.abs(samples.mean(axis=0) - reference)
    assert (gap <= 3.0 * se + 1e-12).all()


# ---------------------------------------------------------------------------
# Training behavior
# ---------------------------------------------------------------------------

def test_separable_blobs_reach_095_training_accuracy():
    train = blob_dataset(10, n=1000)
    valid = blob_dataset(11, n=200)
    model = train_mlp(train, valid, MlpSpec(),
                      TrainConfig(max_epochs=200, patience=200, seed=0))
    assert len(model.training_history) <= 200
    _, labels = predict_mlp(model, train.features)
    assert (labels == train.target).mean() >= 0.95


def test_early_stopping_stops_patience_epochs_after_best():
    # Validation labels are flipped, so validation loss rises as the net
    # learns and the first epoch stays the best.
    train = blob_dataset(12, n=200)
    valid = blob_dataset(12, n=200, flip=True)
    cfg = TrainConfig(max_epochs=50, batch_size=16, learning_rate=0.5,
                      patience=5, seed=1)
    model = train_mlp(train, valid, MlpSpec(dropout_rate=0.0), cfg)
    n_epochs = len(model.training_history)
    assert n_epochs < cfg.max_epochs
    assert n_epochs == model.best_epoch + cfg.patience
    valid_losses = [row[1] for row in model.training_history]
    assert model.best_valid_loss == min(valid_losses)


def test_checkpoint_restores_best_validation_weights():
    train = blob_dataset(13, n=200)
    valid = blob_dataset(13, n=200, flip=True)
    cfg = TrainConfig(max_epochs=30, batch_size=16, learning_rate=0.5,
                      patience=4, seed=2)
    model = train_mlp(train, valid, MlpSpec(dropout_rate=0.0), cfg)
    # Returned weights reproduce the best recorded validation loss exactly.
    assert model.net.loss(valid.features, valid.target) == model.best_valid_loss


def test_training_deterministic_per_seed():
    train = blob_dataset(14, n=120)
    valid = blob_dataset(15, n=60)
    cfg = TrainConfig(max_epochs=5, patience=5, seed=3)
    a = train_mlp(train, valid, MlpSpec(), cfg)
    b = train_mlp(train, valid, MlpSpec(), cfg)
    assert a.training_history == b.training_history
    c = train_mlp(train, valid, MlpSpec(), TrainConfig(max_epochs=5, patience=5, seed=4))
    assert a.training_history != c.training_history


def test_train_rejects_empty_missing_and_mismatched_inputs():
    good = blob_dataset(16, n=40)
    empty = from_matrix(np.empty((0, 2)), target=np.empty(0))
    with pytest.raises(ValueError, match="empty"):
        train_mlp(empty, good)
    no_target = from_matrix(good.features)
    with pytest.raises(ValueError, match="target"):
        train_mlp(no_target, good)
    wider = from_matrix(np.zeros((4, 3)), target=np.zeros(4))
    with pytest.raises(ValueError, match="column"):
        train_mlp(good, wider)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def zeroed_model(dims=3):
    train = from_matrix(np.zeros((2, dims)), target=np.array([0.0, 1.0]))
    model = train_mlp(train, train, MlpSpec(hidden_layers=[4], dropout_rate=0.0),
                      TrainConfig(max_epochs=1, patience=1, seed=0))
    for w in model.net.weights:
        w[:] = 0.0
    for b in model.net.biases:
        b[:] = 0.0
    return model


def test_all_zero_weights_give_probability_half_and_label_one():
    model = zeroed_model()
    probs, labels = predict_mlp(model, np.random.default_rng(17).normal(size=(5, 3)))
    assert (probs == 0.5).all()
    # Threshold ties go up.
    assert (labels == 1).all()


def test_labels_are_probabilities_thresholded():
    train = blob_dataset(18, n=200)
    model = train_mlp(train, train, MlpSpec(), TrainConfig(max_epochs=3, patience=3, seed=5))
    probs, labels = predict_mlp(model, train.features)
    assert ((probs >= 0.0) & (probs <= 1.0)).all()
    assert np.array_equal(labels, (probs >= 0.5).astype(np.int64))


def test_predict_rejects_bad_input():
    model = zeroed_model()
    with pytest.raises(ValueError, match="columns"):
        predict_mlp(model, np.zeros((2, 9)))
    with pytest.raises(ValueError, match="fully observed"):
        predict_mlp(model, np.array([[1.0, np.nan, 0.0]]))

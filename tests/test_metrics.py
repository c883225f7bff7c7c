"""Classification, masked-regression, and clustering metrics."""

import math

import numpy as np
import pytest

from misslab.metrics import (
    classification_metrics,
    clustering_metrics,
    log_loss,
    rand_index,
    regression_metrics_masked,
    silhouette_samples,
    silhouette_score,
)

NAN = np.nan


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_perfect_prediction_accuracy_one_loss_near_zero():
    out = classification_metrics(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert out["accuracy"] == 1.0
    # Clamping at 1e-15 leaves a vanishing but positive loss.
    assert 0.0 <= out["log_loss"] < 1e-12


def test_log_loss_substitution():
    value = log_loss(np.array([1.0, 0.0]), np.array([0.8, 0.4]))
    assert value == -(math.log(0.8) + math.log(0.6)) / 2.0
    assert abs(value - 0.3669845875) < 1e-9


def test_accuracy_counts_one_of_each_outcome():
    # One true positive, false negative, false positive and true negative;
    # 0.5 itself predicts 1.
    out = classification_metrics(np.array([1.0, 1.0, 0.0, 0.0, 1.0]),
                                 np.array([0.6, 0.4, 0.6, 0.4, 0.5]))
    assert out["accuracy"] == 3 / 5
    assert type(out["accuracy"]) is float      # the report tables print repr()


def test_accuracy_plus_error_rate_is_one():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=200).astype(np.float64)
    p = rng.random(200)
    out = classification_metrics(y, p)
    wrong = sum((pi >= 0.5) != (yi == 1.0) for pi, yi in zip(p, y))
    assert out["accuracy"] + wrong / 200 == 1.0


def test_log_loss_nonnegative_and_minimized_at_label_mean():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, size=80).astype(np.float64)
    grid = np.linspace(0.01, 0.99, 99)
    losses = [log_loss(y, np.full(80, p)) for p in grid]
    assert min(losses) >= 0.0
    best = grid[int(np.argmin(losses))]
    closest_to_mean = grid[int(np.argmin(np.abs(grid - y.mean())))]
    assert best == closest_to_mean


def test_classification_input_validation():
    with pytest.raises(ValueError, match="shape"):
        classification_metrics(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="empty"):
        classification_metrics(np.empty(0), np.empty(0))
    with pytest.raises(ValueError, match="probabilities"):
        classification_metrics(np.zeros(2), np.array([0.5, 1.4]))


# ---------------------------------------------------------------------------
# Masked regression
# ---------------------------------------------------------------------------

def masked_instance(seed, shape=(20, 4), rate=0.3):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=shape)
    mask = rng.random(shape) < rate
    mask.flat[0] = True
    imputed = truth + rng.normal(scale=0.1, size=shape)
    return truth, imputed, mask.astype(np.uint8)


def test_identity_imputation_scores_perfectly():
    truth, _, mask = masked_instance(2)
    out = regression_metrics_masked(truth, truth.copy(), mask)
    assert (out["rmse"], out["mape"], out["r2"]) == (0.0, 0.0, 1.0)
    assert out["n_cells"] == int(mask.sum())


def test_rmse_substitution_two_cells():
    truth = np.array([[10.0, 20.0]])
    imputed = np.array([[11.0, 22.0]])   # errors 1 and 2
    mask = np.array([[1, 1]])
    out = regression_metrics_masked(truth, imputed, mask)
    assert out["rmse"] == math.sqrt(5.0 / 2.0)
    assert abs(out["rmse"] - 1.5811388301) < 1e-9


def test_constant_masked_truth_gives_minus_inf_r2():
    truth = np.array([[3.0, 3.0, 1.0]])
    imputed = np.array([[3.0, 2.5, 1.0]])
    mask = np.array([[1, 1, 0]])
    out = regression_metrics_masked(truth, imputed, mask)
    assert out["r2"] == -np.inf


def test_metrics_ignore_unmasked_cells():
    truth, imputed, mask = masked_instance(3)
    out_a = regression_metrics_masked(truth, imputed, mask)
    noisy = imputed.copy()
    noisy[mask == 0] += 100.0
    out_b = regression_metrics_masked(truth, noisy, mask)
    assert out_a == out_b


def test_mape_guard_counts_near_zero_truth():
    truth = np.array([[0.0, 5.0]])
    imputed = np.array([[0.5, 5.5]])
    mask = np.array([[1, 1]])
    out = regression_metrics_masked(truth, imputed, mask)
    assert out["n_guarded"] == 1
    assert np.isfinite(out["mape"])


def test_masked_regression_validation():
    with pytest.raises(ValueError, match="shapes"):
        regression_metrics_masked(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="no masked cells"):
        regression_metrics_masked(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Silhouette
# ---------------------------------------------------------------------------

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
FOUR_LABELS = np.array([0, 0, 1, 1])


def test_silhouette_four_point_hand_oracle():
    scores = silhouette_samples(FOUR_POINTS, FOUR_LABELS)
    b0 = (math.sqrt(200.0) + math.sqrt(221.0)) / 2.0
    s0 = (b0 - 1.0) / b0
    assert abs(s0 - 0.9310540) < 1e-6
    assert abs(scores[0] - s0) < 1e-12
    b1 = (math.sqrt(181.0) + math.sqrt(200.0)) / 2.0
    s1 = (b1 - 1.0) / b1
    assert abs(scores[1] - s1) < 1e-12
    # The far cluster mirrors the near one.
    expected_mean = (2.0 * s0 + 2.0 * s1) / 4.0
    assert abs(expected_mean - 0.9292895427) < 1e-9
    assert abs(silhouette_score(FOUR_POINTS, FOUR_LABELS) - expected_mean) < 1e-12


def test_silhouette_values_in_unit_interval():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(150, 3))
    labels = rng.integers(0, 4, size=150)
    scores = silhouette_samples(x, labels)
    assert (scores >= -1.0).all() and (scores <= 1.0).all()


def test_silhouette_singleton_cluster_scores_zero():
    x = np.array([[0.0], [1.0], [50.0]])
    labels = np.array([0, 0, 7])
    scores = silhouette_samples(x, labels)
    assert scores[2] == 0.0


def test_silhouette_chunking_matches_direct_computation():
    rng = np.random.default_rng(5)
    n = 1200   # crosses two chunk boundaries
    x = rng.normal(size=(n, 2))
    labels = rng.integers(0, 3, size=n)
    fast = silhouette_samples(x, labels)

    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    slow = np.empty(n)
    for i in range(n):
        own = labels == labels[i]
        a = dist[i, own].sum() / max(own.sum() - 1, 1)
        b = min(dist[i, labels == c].mean() for c in np.unique(labels) if c != labels[i])
        slow[i] = 0.0 if own.sum() < 2 else (b - a) / max(a, b)
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_silhouette_stacked_labelings_match_single_calls_bit_for_bit():
    rng = np.random.default_rng(6)
    n = 1100   # crosses two chunk boundaries
    x = rng.normal(size=(n, 3))
    stack = np.stack([rng.integers(0, k, size=n) for k in (2, 3, 4)])
    scores = silhouette_samples(x, stack)
    assert scores.shape == (3, n)
    for row, labels in zip(scores, stack):
        assert np.array_equal(row, silhouette_samples(x, labels))


def test_silhouette_validation():
    with pytest.raises(ValueError, match="2 clusters"):
        silhouette_samples(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="2 clusters"):
        silhouette_samples(np.zeros((3, 2)), np.array([[0, 1, 1], [0, 0, 0]]))
    with pytest.raises(ValueError, match="length"):
        silhouette_samples(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="length"):
        silhouette_samples(np.zeros((3, 2)), np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Rand index
# ---------------------------------------------------------------------------

def test_rand_identical_labelings_score_one():
    labels = np.array([0, 0, 1, 1, 2])
    assert rand_index(labels, labels) == 1.0


def test_rand_complement_relabeling_scores_one():
    true = np.array([0, 0, 1, 1])
    flipped = np.array([1, 1, 0, 0])
    assert rand_index(flipped, true) == 1.0


def test_rand_invariant_under_label_permutation():
    rng = np.random.default_rng(6)
    pred = rng.integers(0, 4, size=60)
    true = rng.integers(0, 3, size=60)
    renamed = np.array([10, 7, 99, 42])[pred]
    assert rand_index(pred, true) == rand_index(renamed, true)


def test_rand_matches_exhaustive_pair_count():
    rng = np.random.default_rng(7)
    pred = rng.integers(0, 3, size=40)
    true = rng.integers(0, 3, size=40)
    agree = 0
    total = 0
    for i in range(40):
        for j in range(i + 1, 40):
            total += 1
            same_pred = pred[i] == pred[j]
            same_true = true[i] == true[j]
            agree += same_pred == same_true
    assert rand_index(pred, true) == agree / total
    assert 0.0 <= rand_index(pred, true) <= 1.0


def test_rand_validation():
    with pytest.raises(ValueError, match="equal-length"):
        rand_index(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="at least 2"):
        rand_index(np.zeros(1), np.zeros(1))


def test_clustering_metrics_bundle():
    out = clustering_metrics(FOUR_POINTS, FOUR_LABELS, FOUR_LABELS)
    assert out["rand"] == 1.0
    assert abs(out["silhouette"] - 0.9292895427) < 1e-9

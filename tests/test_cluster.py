"""K-means: seeding, Lloyd fixpoint, inertia monotonicity, assignment rules."""

import numpy as np
import pytest

from misslab import cluster
from misslab.cluster import KMeansModel, assign_kmeans, fit_kmeans


def two_blobs(rng, n_each=50, centers=((0.0, 0.0), (100.0, 100.0))):
    a = rng.normal(centers[0], 1.0, size=(n_each, 2))
    b = rng.normal(centers[1], 1.0, size=(n_each, 2))
    return np.vstack([a, b])


def test_k1_centroid_is_column_mean_exactly():
    x = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
    model = fit_kmeans(x, k=1, seed=0)
    assert np.array_equal(model.centroids, x.mean(axis=0, keepdims=True))


def test_two_separated_blobs_recovered():
    rng = np.random.default_rng(42)
    x = two_blobs(rng)
    model = fit_kmeans(x, k=2, seed=0)
    # Compare each centroid to the mean of the points it actually absorbed.
    labels = assign_kmeans(model, x)
    for j in range(2):
        member_mean = x[labels == j].mean(axis=0)
        assert np.allclose(model.centroids[j], member_mean)
    # And both true centers are represented within 1.0 per coordinate.
    order = np.argsort(model.centroids[:, 0])
    assert np.all(np.abs(model.centroids[order[0]] - 0.0) < 1.0)
    assert np.all(np.abs(model.centroids[order[1]] - 100.0) < 1.0)


def test_k_equals_rows_gives_zero_inertia():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    model = fit_kmeans(x, k=4, seed=1)
    assert model.inertia == 0.0


def test_k_exceeds_rows_errors():
    with pytest.raises(ValueError, match="exceeds"):
        fit_kmeans(np.zeros((3, 2)), k=4, seed=0)
    with pytest.raises(ValueError, match="at least 1"):
        fit_kmeans(np.zeros((3, 2)), k=0, seed=0)


def test_kmeans_rejects_missing_cells():
    with pytest.raises(ValueError, match="fully observed"):
        fit_kmeans(np.array([[1.0, np.nan]]), k=1, seed=0)


def test_inertia_trace_non_increasing():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(400, 3))
    model = fit_kmeans(x, k=5, seed=9)
    trace = np.asarray(model.inertia_trace)
    assert (np.diff(trace) <= 1e-8).all()
    assert model.inertia == trace[-1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_lloyd_iteration_computes_its_distances_once(monkeypatch, seed):
    # One k-row distance matrix per assignment: the inertia after an update
    # and the final inertia read the next assignment's matrix. The k-means++
    # seeding asks for one-row matrices and is not counted.
    real, calls = cluster.squared_distances, []

    def counting(x, y):
        calls.append(y.shape[0])
        return real(x, y)

    monkeypatch.setattr(cluster, "squared_distances", counting)
    x = two_blobs(np.random.default_rng(seed), centers=((0.0, 0.0), (3.0, 3.0)))
    model = fit_kmeans(x, k=3, seed=seed)
    assert calls.count(3) == len(model.inertia_trace) + 1


def test_fit_deterministic_per_seed():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 4))
    a = fit_kmeans(x, k=3, seed=11)
    b = fit_kmeans(x, k=3, seed=11)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_assign_point_on_centroid_gets_that_label():
    model = KMeansModel(centroids=np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 9.0]]),
                        inertia=0.0)
    labels = assign_kmeans(model, np.array([[9.0, 9.0]]))
    assert labels.tolist() == [2]


def test_assign_equidistant_tie_goes_to_lower_index():
    model = KMeansModel(centroids=np.array([[0.0], [2.0]]), inertia=0.0)
    labels = assign_kmeans(model, np.array([[1.0]]))
    assert labels.tolist() == [0]


def test_assign_empty_data_gives_empty_labels():
    model = KMeansModel(centroids=np.zeros((1, 2)), inertia=0.0)
    labels = assign_kmeans(model, np.empty((0, 2)))
    assert labels.shape == (0,)


def test_assign_dimension_mismatch_errors():
    model = KMeansModel(centroids=np.zeros((1, 2)), inertia=0.0)
    with pytest.raises(ValueError, match="columns"):
        assign_kmeans(model, np.zeros((3, 5)))


def test_duplicate_points_with_k_above_distinct_count():
    # More centroids than distinct points exercises the empty-cluster rescue.
    x = np.array([[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 6)
    model = fit_kmeans(x, k=3, seed=2)
    assert np.isfinite(model.centroids).all()
    assert model.inertia >= 0.0

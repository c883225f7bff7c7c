"""Imputers: mean, KNN, chained regression, iterative forest, autoencoder."""

import json
import math
import os
import signal
import threading
from functools import partial

import numpy as np
import pytest

from misslab import imputers
from misslab.forest import ForestSpec
from misslab.helpers import lending
from misslab.imputers import (
    DaeSpec,
    ImputationResult,
    ImputerSpec,
    impute_dae,
    impute_knn,
    impute_mean,
    impute_mice,
    impute_missforest,
    pool_copies,
    run_imputer,
    save_imputation,
)

NAN = np.nan


def holed_unit_matrix(seed, shape=(60, 5), rate=0.2):
    """Random [0,1] matrix with a fraction of cells hidden."""
    rng = np.random.default_rng(seed)
    x = rng.random(shape)
    holed = x.copy()
    hide = rng.random(shape) < rate
    # Keep at least one observed cell per column.
    hide[0] = False
    holed[hide] = NAN
    return x, holed, hide


def assert_observed_preserved(holed, result):
    obs = ~np.isnan(holed)
    for copy in result.copies:
        assert not np.isnan(copy).any()
        assert np.array_equal(copy[obs], holed[obs])


# ---------------------------------------------------------------------------
# Mean
# ---------------------------------------------------------------------------

def test_mean_fills_with_column_mean():
    out = impute_mean(np.array([[1.0], [NAN], [3.0]]))
    assert out.copies[0].tolist() == [[1.0], [2.0], [3.0]]


def test_mean_identity_on_fully_observed():
    x = np.random.default_rng(0).random((10, 3))
    out = impute_mean(x)
    assert np.array_equal(out.copies[0], x)


def test_mean_all_missing_column_names_the_column():
    x = np.array([[1.0, NAN], [2.0, NAN]])
    with pytest.raises(ValueError, match="height"):
        impute_mean(x, names=["age", "height"])
    with pytest.raises(ValueError, match="column 1"):
        impute_mean(x)


# ---------------------------------------------------------------------------
# KNN
# ---------------------------------------------------------------------------

def test_knn_copies_identical_neighbor():
    x = np.array([
        [1.0, 2.0, NAN],
        [1.0, 2.0, 7.0],
        [50.0, 60.0, 3.0],
    ])
    out = impute_knn(x, k=1)
    assert out.copies[0][0, 2] == 7.0


def brute_force_knn(x, k):
    """Per-cell nearest-row search with the partial-distance metric."""
    n, d = x.shape
    obs = ~np.isnan(x)
    means = np.nanmean(x, axis=0)
    out = x.copy()
    for i in range(n):
        for j in range(d):
            if obs[i, j]:
                continue
            cand, dists = [], []
            for r in range(n):
                if r == i or not obs[r, j]:
                    continue
                shared = obs[i] & obs[r]
                if not shared.any():
                    continue
                diff = x[i, shared] - x[r, shared]
                cand.append(r)
                dists.append(math.sqrt(d / shared.sum() * float(np.sum(diff * diff))))
            if not cand:
                out[i, j] = means[j]
                continue
            order = np.argsort(np.asarray(dists), kind="stable")[:k]
            out[i, j] = float(np.mean(x[np.asarray(cand)[order], j]))
    return out


def test_knn_matches_brute_force_oracle_exactly():
    rng = np.random.default_rng(1)
    for trial in range(10):
        x = rng.random((10, 4))
        flat = rng.choice(40, size=5, replace=False)
        holed = x.copy()
        holed.ravel()[flat] = NAN
        got = impute_knn(holed, k=3).copies[0]
        want = brute_force_knn(holed, k=3)
        assert np.array_equal(got, want), f"trial {trial}"


@pytest.mark.parametrize("k", [1, 3, 8])
def test_knn_across_chunk_boundaries_matches_brute_force(monkeypatch, k):
    # Three rows per distance slab, so every matrix spans several slabs;
    # integer values tie many distances, and heavy masking leaves rows
    # with no comparable neighbour.
    monkeypatch.setattr("misslab.imputers.CHUNK", 3)
    rng = np.random.default_rng(k)
    for trial in range(20):
        x = rng.integers(0, 3, size=(17, 4)).astype(np.float64)
        holed = x.copy()
        holed[rng.random(x.shape) < 0.45] = NAN
        holed[0] = x[0]                # keep every column observed somewhere
        got = impute_knn(holed, k=k).copies[0]
        assert np.array_equal(got, brute_force_knn(holed, k=k)), f"trial {trial}"


def test_knn_identity_on_fully_observed():
    x = np.random.default_rng(2).random((8, 3))
    assert np.array_equal(impute_knn(x, k=2).copies[0], x)


def test_knn_rejects_k_zero():
    with pytest.raises(ValueError, match="at least 1"):
        impute_knn(np.array([[1.0, NAN]]), k=0)


def test_knn_falls_back_to_column_mean_without_comparable_rows():
    x = np.array([
        [1.0, NAN, 0.5],
        [NAN, 2.0, NAN],
        [4.0, NAN, 0.25],
    ])
    out = impute_knn(x, k=3).copies[0]
    # Row 1 shares no observed coordinate with any row observing columns 0/2.
    assert out[1, 0] == 2.5
    assert out[1, 2] == 0.375
    assert out[0, 1] == 2.0 and out[2, 1] == 2.0


# ---------------------------------------------------------------------------
# Chained-regression multiple imputation
# ---------------------------------------------------------------------------

def linear_pair(seed, n=100, rate=0.2):
    rng = np.random.default_rng(seed)
    x1 = rng.random(n)
    x = np.column_stack([x1, 2.0 * x1])
    holed = x.copy()
    hide = rng.random(n) < rate
    hide[:2] = [False, True]   # at least one hidden and one observed
    holed[hide, 1] = NAN
    return x, holed


def test_mice_returns_requested_copy_count():
    _, holed = linear_pair(3)
    out = impute_mice(holed, copies=5, sweeps=2, noise=True, seed=0)
    assert len(out.copies) == 5
    assert len(out.diagnostics) == 5


def test_mice_recovers_exact_linear_relation():
    x, holed = linear_pair(4)
    out = impute_mice(holed, copies=1, sweeps=5, noise=False, seed=0)
    hidden = np.isnan(holed)
    assert np.max(np.abs(out.copies[0][hidden] - x[hidden])) < 1e-6


def test_mice_noise_off_copies_identical():
    _, holed = linear_pair(5)
    out = impute_mice(holed, copies=3, sweeps=3, noise=False, seed=1)
    assert np.array_equal(out.copies[0], out.copies[1])
    assert np.array_equal(out.copies[0], out.copies[2])


def test_mice_noise_on_copies_differ_but_seed_reproduces():
    _, holed = linear_pair(6)
    a = impute_mice(holed, copies=2, sweeps=3, noise=True, seed=2)
    b = impute_mice(holed, copies=2, sweeps=3, noise=True, seed=2)
    assert np.array_equal(a.copies[0], b.copies[0])
    assert np.array_equal(a.copies[1], b.copies[1])


def test_mice_trace_stabilizes_on_linear_data():
    rng = np.random.default_rng(7)
    n = 150
    x1 = rng.random(n)
    x2 = 2.0 * x1 + rng.normal(0.0, 0.05, n)
    x3 = x1 - x2 + rng.normal(0.0, 0.05, n)
    x = np.column_stack([x1, x2, x3])
    holed = x.copy()
    holed[rng.random((n, 3)) < 0.2] = NAN
    holed[0] = x[0]
    out = impute_mice(holed, copies=1, sweeps=6, noise=False, seed=3)
    trace = out.diagnostics[0]["convergence_trace"]
    for earlier, later in zip(trace[1:], trace[2:]):
        assert later <= earlier + 1e-12


def test_mice_rejects_zero_copies():
    with pytest.raises(ValueError, match="copies"):
        impute_mice(np.array([[1.0, NAN], [2.0, 1.0]]), copies=0)


def test_mice_survives_constant_column():
    # A constant regressor makes the design singular; lstsq must not blow up.
    x = np.array([[1.0, 5.0, 0.1], [2.0, 5.0, NAN], [3.0, 5.0, 0.3],
                  [4.0, 5.0, 0.4], [2.5, 5.0, NAN]])
    out = impute_mice(x, copies=1, sweeps=3, noise=False, seed=0)
    assert not np.isnan(out.copies[0]).any()


# ---------------------------------------------------------------------------
# Mean and MICE on random shapes, against plain oracles
# ---------------------------------------------------------------------------

def random_holed(rng):
    """A holed matrix of random shape (n <= 200, d <= 8) and degree (<= 0.9)
    with clipped, tied dyadic values; about one row in ten has every cell
    missing, and every column keeps an observed cell."""
    n, d = int(rng.integers(3, 201)), int(rng.integers(1, 9))
    x = np.clip(rng.integers(-16, 80, size=(n, d)) / 64.0, 0.0, 1.0)
    hide = rng.random((n, d)) < rng.uniform(0.0, 0.9)
    hide[rng.random(n) < 0.1] = True
    for j in np.flatnonzero(hide.all(axis=0)):
        hide[rng.integers(n), j] = False
    holed = x.copy()
    holed[hide] = NAN
    return holed


def oracle_mean_fill(holed):
    """Plain-Python column means; exact on dyadic values in any order."""
    out = holed.copy()
    for j in range(holed.shape[1]):
        observed = [v for v in holed[:, j].tolist() if v == v]
        out[np.isnan(holed[:, j]), j] = sum(observed) / len(observed)
    return out


def oracle_mice(holed, sweeps):
    """Noise-free chained regressions: from the mean fill, regress each
    incomplete column (fewest missing first) on an intercept and every other
    column over its observed rows, and predict its missing rows."""
    missing = np.isnan(holed)
    current = oracle_mean_fill(holed)
    d = holed.shape[1]
    order = sorted((int(missing[:, j].sum()), j) for j in range(d) if missing[:, j].any())
    for _ in range(sweeps):
        for _, j in order:
            others = [o for o in range(d) if o != j]
            design = np.column_stack([np.ones(len(holed)), current[:, others]])
            obs = ~missing[:, j]
            beta = np.linalg.lstsq(design[obs], holed[obs, j], rcond=None)[0]
            current[~obs, j] = design[~obs] @ beta
    return current


def test_mean_matches_plain_column_means_on_random_shapes():
    rng = np.random.default_rng(21)
    empty_rows = 0
    for case in range(200):
        holed = random_holed(rng)
        empty_rows += int(np.isnan(holed).all(axis=1).sum())
        result = impute_mean(holed)
        assert np.array_equal(result.copies[0], oracle_mean_fill(holed)), case
        assert_observed_preserved(holed, result)
    assert empty_rows > 0


def test_mice_without_noise_matches_a_plain_lstsq_loop_on_random_shapes():
    rng = np.random.default_rng(22)
    for case in range(120):
        holed = random_holed(rng)
        sweeps = int(rng.integers(0, 4))
        result = impute_mice(holed, copies=2, sweeps=sweeps, noise=False, seed=case)
        want = oracle_mice(holed, sweeps)
        for copy in result.copies:
            assert np.max(np.abs(copy - want), initial=0.0) <= 1e-12, case
        assert_observed_preserved(holed, result)
        noisy = impute_mice(holed, copies=2, sweeps=sweeps, noise=True, seed=case)
        assert_observed_preserved(holed, noisy)


@pytest.mark.parametrize("impute", [impute_mean, partial(impute_mice, copies=1, sweeps=2)],
                         ids=["mean", "mice"])
def test_a_column_emptied_by_masking_is_named(impute):
    rng = np.random.default_rng(23)
    for _ in range(20):
        holed = random_holed(rng)
        j = int(rng.integers(holed.shape[1]))
        holed[:, j] = NAN
        with pytest.raises(ValueError, match=f"column {j} has no observed cells"):
            impute(holed)
        names = [f"c{i}" for i in range(holed.shape[1])]
        with pytest.raises(ValueError, match=f"c{j} has no observed cells"):
            impute(holed, names=names)


# ---------------------------------------------------------------------------
# Iterative forest
# ---------------------------------------------------------------------------

def test_missforest_zero_sweeps_equals_mean():
    _, holed, _ = holed_unit_matrix(8)
    forest_out = impute_missforest(holed, max_sweeps=0, seed=0)
    mean_out = impute_mean(holed)
    assert np.array_equal(forest_out.copies[0], mean_out.copies[0])


def test_missforest_beats_mean_on_additive_signal():
    rng = np.random.default_rng(9)
    n = 200
    x12 = rng.random((n, 2))
    y = x12[:, 0] + x12[:, 1]
    x = np.column_stack([x12, y])
    holed = x.copy()
    hide = rng.random(n) < 0.2
    hide[:2] = [False, True]
    holed[hide, 2] = NAN
    out = impute_missforest(holed, max_sweeps=3, seed=1)
    mean_out = impute_mean(holed)
    rmse_forest = np.sqrt(np.mean((out.copies[0][hide, 2] - y[hide]) ** 2))
    rmse_mean = np.sqrt(np.mean((mean_out.copies[0][hide, 2] - y[hide]) ** 2))
    assert rmse_forest < rmse_mean


def test_missforest_identity_on_fully_observed():
    x = np.random.default_rng(10).random((30, 3))
    out = impute_missforest(x, max_sweeps=3, seed=0)
    assert np.array_equal(out.copies[0], x)
    assert out.diagnostics[0]["sweeps_run"] == 0


def test_missforest_deterministic_per_seed():
    _, holed, _ = holed_unit_matrix(11, shape=(50, 3))
    spec = ForestSpec(n_trees=5, max_depth=4, min_samples_leaf=5)
    a = impute_missforest(holed, max_sweeps=2, forest=spec, seed=4)
    b = impute_missforest(holed, max_sweeps=2, forest=spec, seed=4)
    assert np.array_equal(a.copies[0], b.copies[0])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_missforest_fill_on_borrowed_cores_is_the_same_and_leaves_no_child(monkeypatch):
    # Every forest borrows both free cores. After the first forest the
    # helpers are killed: the next forest grows their trees here and forks
    # fresh ones. The fill keeps its bits either way, and no helper outlives
    # the call.
    _, holed, _ = holed_unit_matrix(13, shape=(80, 4))
    spec = ForestSpec(n_trees=5, max_depth=4, min_samples_leaf=2)
    alone = impute_missforest(holed, max_sweeps=2, forest=spec, seed=6)
    with lending(threading.Semaphore(2)) as loan:
        helped = impute_missforest(holed, max_sweeps=2, forest=spec, seed=6)
    _no_child_left()
    assert loan.maps == 2 * 4 and len(loan.peak_rss_mb) == 2
    train_forest, trained = imputers.train_forest, []

    def killing_helpers(data, targets, spec, helpers):
        model = train_forest(data, targets, spec, helpers)
        if not trained:
            for pid, _ in helpers.live:
                os.kill(pid, signal.SIGKILL)
        trained.append(model)
        return model

    monkeypatch.setattr(imputers, "train_forest", killing_helpers)
    with lending(threading.Semaphore(2)) as loan:
        killed = impute_missforest(holed, max_sweeps=2, forest=spec, seed=6)
    _no_child_left()
    assert len(loan.peak_rss_mb) == 4                # two killed, two fresh
    for result in (helped, killed):
        assert result.copies[0].tobytes() == alone.copies[0].tobytes()
        assert result.diagnostics == alone.diagnostics


def test_missforest_that_raises_leaves_no_helper(monkeypatch):
    def failing_predict(model, data):
        raise ValueError("injected prediction fault")

    _, holed, _ = holed_unit_matrix(14, shape=(80, 4))
    monkeypatch.setattr(imputers, "predict_forest", failing_predict)
    with lending(threading.Semaphore(1)) as loan:
        with pytest.raises(ValueError, match="injected prediction fault"):
            impute_missforest(holed, forest=ForestSpec(n_trees=4, max_depth=3), seed=2)
    _no_child_left()
    assert loan.maps == 1 and len(loan.peak_rss_mb) == 1


def test_missforest_forks_nothing_unless_a_caller_lends_cores(monkeypatch):
    def no_fork():
        raise AssertionError("a helper was forked")

    _, holed, _ = holed_unit_matrix(15, shape=(40, 3))
    monkeypatch.setattr(os, "fork", no_fork)
    spec = ImputerSpec("missforest", max_sweeps=1, forest=ForestSpec(n_trees=4))
    run_imputer(holed, spec)
    with lending(None), lending(threading.Semaphore(0)):
        run_imputer(holed, spec)


def test_missforest_sweep_accounting():
    _, holed, _ = holed_unit_matrix(12, shape=(40, 3))
    out = impute_missforest(holed, max_sweeps=3,
                            forest=ForestSpec(n_trees=5, max_depth=4), seed=5)
    diag = out.diagnostics[0]
    assert diag["sweeps_run"] <= 3
    assert len(diag["convergence_trace"]) >= diag["sweeps_run"]


# ---------------------------------------------------------------------------
# Autoencoder
# ---------------------------------------------------------------------------

def correlated_unit_pair(seed, n=300, rate=0.2):
    rng = np.random.default_rng(seed)
    cov = np.array([[1.0, 0.95], [0.95, 1.0]])
    raw = rng.multivariate_normal([0.0, 0.0], cov, size=n)
    x = (raw - raw.min(axis=0)) / (raw.max(axis=0) - raw.min(axis=0))
    holed = x.copy()
    hide = rng.random((n, 2)) < rate
    hide[0] = False
    hide[np.all(hide, axis=1), 1] = False   # keep one coordinate per row
    holed[hide] = NAN
    return x, holed, hide


def test_dae_preserves_observed_cells_exactly():
    _, holed, _ = correlated_unit_pair(13)
    out = impute_dae(holed, DaeSpec(epochs=5, patience=5), seed=0)
    assert_observed_preserved(holed, out)


def test_dae_beats_mean_on_correlated_gaussian():
    x, holed, hide = correlated_unit_pair(14)
    out = impute_dae(holed, DaeSpec(epochs=200, patience=20), seed=1)
    mean_out = impute_mean(holed)
    rmse_dae = np.sqrt(np.mean((out.copies[0][hide] - x[hide]) ** 2))
    rmse_mean = np.sqrt(np.mean((mean_out.copies[0][hide] - x[hide]) ** 2))
    assert rmse_dae < rmse_mean


def test_dae_checkpoint_keeps_best_heldout_loss():
    _, holed, _ = correlated_unit_pair(15)
    out = impute_dae(holed, DaeSpec(epochs=60, patience=60), seed=2)
    diag = out.diagnostics[0]
    trace = diag["convergence_trace"]
    assert trace[diag["best_epoch"] - 1] == min(trace)
    assert min(trace) <= trace[0]


def test_dae_rejects_unscaled_input():
    x = np.array([[5.0, NAN], [6.0, 2.0]])
    with pytest.raises(ValueError, match="scaled"):
        impute_dae(x, DaeSpec(epochs=2))


def test_dae_fast_path_identity_when_fully_observed():
    x = np.random.default_rng(16).random((20, 3))
    out = impute_dae(x, DaeSpec(epochs=2), seed=0)
    assert np.array_equal(out.copies[0], x)


def test_dae_row_batch_with_no_training_cell_takes_a_zero_step():
    # With one-row batches, the all-missing row's batch has no cell to learn
    # from; it leaves the weights as they are instead of failing the fill.
    _, holed, _ = holed_unit_matrix(18, shape=(40, 3), rate=0.2)
    holed[7] = NAN
    out = impute_dae(holed, DaeSpec(epochs=3, patience=3, batch_size=1), seed=0)
    assert not np.isnan(out.copies[0]).any()
    assert_observed_preserved(holed, out)
    assert out.diagnostics[0]["sweeps_run"] == 3


def test_dae_spec_validation():
    with pytest.raises(ValueError, match="corruption"):
        DaeSpec(corruption_rate=0.0)
    with pytest.raises(ValueError, match="epochs"):
        DaeSpec(epochs=0)


# ---------------------------------------------------------------------------
# Pooling, dispatch, persistence, and the shared preservation contract
# ---------------------------------------------------------------------------

def test_pool_single_copy_is_that_copy():
    x = np.ones((2, 2))
    r = ImputationResult("mean", [x])
    assert pool_copies(r) is x


def test_pool_two_copies_takes_midpoint():
    a = np.array([[1.0, 2.0]])
    b = np.array([[1.0, 4.0]])
    pooled = pool_copies(ImputationResult("mice", [a, b]))
    assert pooled.tolist() == [[1.0, 3.0]]


def test_pool_matches_independent_mean():
    _, holed = linear_pair(17)
    r = impute_mice(holed, copies=5, sweeps=3, noise=True, seed=6)
    pooled = pool_copies(r)
    want = sum(r.copies) / 5.0
    assert np.allclose(pooled, want, rtol=0, atol=1e-15)


def test_result_requires_complete_copies():
    with pytest.raises(ValueError, match="at least one"):
        ImputationResult("mean", [])
    with pytest.raises(ValueError, match="fully observed"):
        ImputationResult("mean", [np.array([[NAN]])])


def test_every_imputer_preserves_observed_cells():
    _, holed, _ = holed_unit_matrix(18, shape=(40, 4))
    specs = [
        ImputerSpec("mean"),
        ImputerSpec("knn", knn_k=3),
        ImputerSpec("mice", copies=2, sweeps=2, seed=1),
        ImputerSpec("missforest", max_sweeps=1,
                    forest=ForestSpec(n_trees=5, max_depth=4), seed=1),
        ImputerSpec("dae", dae=DaeSpec(epochs=3, patience=3), seed=1),
    ]
    for spec in specs:
        result = run_imputer(holed, spec)
        assert result.method == spec.kind
        assert_observed_preserved(holed, result)


def test_imputer_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown imputer"):
        ImputerSpec("hotdeck")


def test_save_imputation_file_naming(tmp_path):
    _, holed = linear_pair(19)
    r = impute_mice(holed, copies=2, sweeps=2, noise=True, seed=7)
    paths = save_imputation(str(tmp_path / "run"), r)
    assert paths[0].endswith(".imputed.mice.0.csv")
    assert paths[1].endswith(".imputed.mice.1.csv")
    assert paths[2].endswith(".imputed.mice.diagnostics.json")
    with open(paths[2], encoding="utf-8") as fh:
        diag = json.load(fh)
    assert diag["method"] == "mice" and diag["copies"] == 2

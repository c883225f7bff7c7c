"""Gaussian mixtures: EM fitting, information criteria, model search, sampling."""

import csv
import math
import os
import signal
import sys
import threading

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from misslab import gmm
from misslab.helpers import lending
from misslab.gmm import (
    COVARIANCE_KINDS,
    GmmConfig,
    GmmModel,
    fit_em,
    information_criteria,
    load_model,
    logsumexp,
    param_count,
    responsibilities,
    sample,
    save_model,
    select_generator,
    write_search_table,
)


def spherical_model(weights, means, variances):
    return GmmModel(
        k=len(weights),
        dims=np.asarray(means).shape[1],
        weights=np.asarray(weights, dtype=np.float64),
        means=np.asarray(means, dtype=np.float64),
        covariances=np.asarray(variances, dtype=np.float64),
        kind="spherical",
    )


# ---------------------------------------------------------------------------
# Parameter counting and information criteria
# ---------------------------------------------------------------------------

def test_param_count_closed_forms():
    k, d = 3, 4
    base = (k - 1) + k * d
    assert param_count(k, d, "full") == base + k * d * (d + 1) // 2
    assert param_count(k, d, "tied") == base + d * (d + 1) // 2
    assert param_count(k, d, "diagonal") == base + k * d
    assert param_count(k, d, "spherical") == base + k


def test_aic_substitution_exact():
    aic, _ = information_criteria(log_likelihood=-200.0, n_rows=100, n_params=5)
    assert aic == 4.1


def test_bic_substitution_exact():
    _, bic = information_criteria(log_likelihood=-200.0, n_rows=100, n_params=5)
    assert bic == 400.0 + 5.0 * math.log(100.0)
    assert abs(bic - 423.0259) < 5e-5


def test_fewer_params_strictly_smaller_bic_at_equal_ll():
    _, b_small = information_criteria(log_likelihood=-500.0, n_rows=1000, n_params=8)
    _, b_big = information_criteria(log_likelihood=-500.0, n_rows=1000, n_params=9)
    assert b_small < b_big


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------

def test_k1_spherical_recovers_isotropic_mean():
    rng = np.random.default_rng(123)
    x = rng.normal((1.0, 2.0), 1.0, size=(5000, 2))
    model, report = fit_em(x, k=1, kind="spherical")
    # k=1 has a closed form: the fitted mean is the sample mean.
    assert np.allclose(model.means[0], x.mean(axis=0), atol=1e-6)
    assert np.all(np.abs(model.means[0] - (1.0, 2.0)) < 0.05)
    assert report.converged


def test_k2_separated_clusters_recover_half_weights():
    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 1.0, size=(500, 2))
    b = rng.normal(20.0, 1.0, size=(500, 2))
    x = np.vstack([a, b])
    model, _ = fit_em(x, k=2, kind="full")
    assert np.all(np.abs(np.sort(model.weights) - 0.5) < 0.02)


def test_k_exceeds_rows_errors():
    with pytest.raises(ValueError, match="exceeds"):
        fit_em(np.zeros((5, 2)), k=10, kind="spherical")


def test_fit_rejects_missing_and_unknown_kind():
    with pytest.raises(ValueError, match="fully observed"):
        fit_em(np.array([[1.0, np.nan]]), k=1, kind="spherical")
    with pytest.raises(ValueError, match="covariance kind"):
        fit_em(np.zeros((5, 2)), k=1, kind="banded")


def test_em_log_likelihood_trace_non_decreasing():
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(0, 1, (150, 3)), rng.normal(4, 1, (150, 3))])
    for kind in COVARIANCE_KINDS:
        _, report = fit_em(x, k=2, kind=kind)
        trace = np.asarray(report.ll_trace)
        assert trace.size >= 1
        assert (np.diff(trace) >= -1e-8).all(), kind


def test_responsibilities_rows_sum_to_one():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(300, 2))
    model, _ = fit_em(x, k=3, kind="diagonal")
    resp, _ = responsibilities(model, x)
    assert np.max(np.abs(resp.sum(axis=1) - 1.0)) < 1e-9


def test_fixed_seed_gives_identical_fit_report():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 2))
    cfg = GmmConfig(seed=5)
    _, a = fit_em(x, k=2, kind="diagonal", cfg=cfg)
    _, b = fit_em(x, k=2, kind="diagonal", cfg=cfg)
    assert a == b


def test_weights_sum_to_one_and_covariances_positive():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(400, 3))
    for kind in COVARIANCE_KINDS:
        model, _ = fit_em(x, k=2, kind=kind)
        assert abs(model.weights.sum() - 1.0) < 1e-9
        if kind == "full":
            for c in model.covariances:
                assert (np.linalg.eigvalsh(c) > 0).all()
        elif kind == "tied":
            assert (np.linalg.eigvalsh(model.covariances) > 0).all()
        else:
            assert (model.covariances > 0).all()


# ---------------------------------------------------------------------------
# Model search
# ---------------------------------------------------------------------------

def three_component_data(seed):
    rng = np.random.default_rng(seed)
    means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    parts = [rng.normal(m, 0.7, size=(200, 2)) for m in means]
    return np.vstack(parts)


def test_select_generator_singleton_grid():
    x = three_component_data(0)
    model, report, table = select_generator(x, k_range=[1], kinds=["spherical"],
                                            criterion="bic")
    assert model.k == 1 and model.kind == "spherical"
    assert len(table) == 1
    assert table[0].bic == report.bic


def test_search_table_has_grid_rows():
    x = three_component_data(1)
    cfg = GmmConfig(restarts=1, max_iter=50)
    _, _, table = select_generator(x, k_range=[1, 2, 3], kinds=["spherical", "diagonal"],
                                   criterion="aic", cfg=cfg)
    assert len(table) == 6
    pairs = {(row.k, row.kind) for row in table}
    assert pairs == {(k, kind) for k in (1, 2, 3) for kind in ("spherical", "diagonal")}


def test_select_generator_finds_three_components():
    x = three_component_data(2)
    cfg = GmmConfig(restarts=2, max_iter=100, seed=0)
    model, _, _ = select_generator(x, k_range=[1, 2, 3, 4, 5], kinds=["spherical"],
                                   criterion="bic", cfg=cfg)
    assert model.k == 3


def test_select_generator_deterministic():
    x = three_component_data(3)
    cfg = GmmConfig(restarts=2, seed=4)
    a = select_generator(x, k_range=[1, 2], kinds=["spherical"], criterion="bic", cfg=cfg)
    b = select_generator(x, k_range=[1, 2], kinds=["spherical"], criterion="bic", cfg=cfg)
    assert a[1] == b[1]
    assert np.array_equal(a[0].means, b[0].means)


def test_search_table_csv_columns(tmp_path):
    x = three_component_data(4)
    _, _, table = select_generator(x, k_range=[1], kinds=["spherical"], criterion="bic")
    path = tmp_path / "search.csv"
    write_search_table(path, table)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,kind,log_likelihood,aic,bic,converged,iterations,error"
    for line in lines[1:]:
        k, _, *numbers, error = line.split(",")
        assert all(math.isfinite(float(v)) for v in [k] + numbers), line
        assert error == "", line


def _borrowed_search(x, free, tmp_path):
    """select_generator over every kind, with a cell (k = rows + 1) whose
    every restart fails, lending `free` tokens; also its table's bytes."""
    cfg = GmmConfig(restarts=2, max_iter=30, seed=3)
    with lending(threading.Semaphore(free)) as loan:
        model, report, table = select_generator(x, [1, 2, 3, x.shape[0] + 1],
                                                COVARIANCE_KINDS, "bic", cfg)
    path = tmp_path / f"search{free}.csv"
    write_search_table(path, table)
    return (model, report, path.read_bytes()), loan


def _assert_same_search(got, want):
    (model, report, table), (model0, report0, table0) = got, want
    assert (model.k, model.kind) == (model0.k, model0.kind)
    for name in ("weights", "means", "covariances"):
        assert getattr(model, name).tobytes() == getattr(model0, name).tobytes(), name
    assert report == report0
    assert table == table0


@pytest.mark.parametrize("free", [1, 2])
def test_search_on_borrowed_cores_is_the_search_alone(tmp_path, free):
    # Every P-th fit runs in one of `free` helpers; the model, its report
    # and the table's bytes are those of the search in one process.
    x = three_component_data(6)
    alone, unlent = _borrowed_search(x, 0, tmp_path)
    assert (unlent.maps, unlent.peak_rss_mb) == (0, [])
    assert b"exceeds the 600 available rows" in alone[2]
    got, loan = _borrowed_search(x, free, tmp_path)
    _assert_same_search(got, alone)
    assert loan.maps == 1 and loan.cpu_s > 0 and len(loan.peak_rss_mb) == free
    assert loan.tokens._value == free           # every token came back
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_PARENT, _FIT_EM = os.getpid(), gmm.fit_em
_FAULT = None             # how a helper fails mid-search: "kill" or "exit"


def _failing_fit_em(data, k, kind, cfg):
    """`gmm.fit_em`, but a helper fails at its first k = 2 fit; module-level,
    so that it pickles."""
    if os.getpid() != _PARENT and k == 2:
        if _FAULT == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(0)
    return _FIT_EM(data, k, kind, cfg)


@pytest.mark.parametrize("fault", ["kill", "exit"])
def test_a_helper_that_fails_mid_search_leaves_the_same_table(tmp_path, monkeypatch, fault):
    x = three_component_data(7)
    alone, _ = _borrowed_search(x, 0, tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "_FAULT", fault)
    monkeypatch.setattr(gmm, "fit_em", _failing_fit_em)
    got, loan = _borrowed_search(x, 2, tmp_path)
    _assert_same_search(got, alone)
    assert loan.maps == 0 and len(loan.peak_rss_mb) == 2   # both reaped, fits redone here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_search_table_gives_the_reason_for_a_failed_cell(tmp_path):
    x = np.random.default_rng(5).normal(size=(6, 2))
    _, _, table = select_generator(x, k_range=[1, 7], kinds=["spherical"], criterion="bic")
    path = tmp_path / "search.csv"
    write_search_table(path, table)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["k"] for row in rows] == ["1", "7"]
    assert rows[0]["error"] == ""
    assert rows[1]["error"] == "k=7 exceeds the 6 available rows"
    assert rows[1]["log_likelihood"] == "nan"


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_zero_rows_is_empty():
    model = spherical_model([1.0], [[0.0, 0.0]], [1.0])
    x, labels = sample(model, 0, seed=0)
    assert x.shape == (0, 2) and labels.shape == (0,)


def test_sample_single_component_mean_within_tolerance():
    model = spherical_model([1.0], [[3.0, -1.0]], [2.0])
    x, labels = sample(model, 50_000, seed=1)
    assert np.all(np.abs(x.mean(axis=0) - (3.0, -1.0)) < 0.05)
    assert (labels == 0).all()


def test_sample_label_frequencies_match_weights():
    model = spherical_model([0.7, 0.3], [[0.0, 0.0], [10.0, 10.0]], [1.0, 1.0])
    _, labels = sample(model, 100_000, seed=2)
    freq = np.bincount(labels, minlength=2) / labels.size
    assert np.all(np.abs(freq - (0.7, 0.3)) < 0.01)


def test_sample_deterministic_per_seed():
    model = spherical_model([0.5, 0.5], [[0.0], [5.0]], [1.0, 1.0])
    a = sample(model, 100, seed=3)
    b = sample(model, 100, seed=3)
    c = sample(model, 100, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_round_trip_fit_recovers_known_model():
    truth = spherical_model([0.6, 0.4], [[0.0, 0.0], [6.0, 6.0]], [1.0, 1.0])
    x, _ = sample(truth, 20_000, seed=5)
    model, _ = fit_em(x, k=2, kind="spherical")
    order = np.argsort(model.means[:, 0])
    assert np.all(np.abs(model.weights[order] - (0.6, 0.4)) < 0.02)
    assert np.all(np.abs(model.means[order] - truth.means) < 0.05)


def test_model_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(200, 2))
    for kind in COVARIANCE_KINDS:
        model, _ = fit_em(x, k=2, kind=kind)
        path = tmp_path / f"model-{kind}.npz"
        save_model(path, model)
        back = load_model(path)
        assert back.kind == model.kind and back.k == model.k
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.covariances, model.covariances)


def test_logsumexp_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(5)
    for case in range(400):
        n, k = int(rng.integers(1, 300)), int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-3.0, 4.0)
        a = rng.normal(size=(n, k)) * scale
        if case % 3 == 0:                               # ties at the row max
            a = np.round(a / scale * 2.0)
        if case % 4 == 1:                               # some -inf entries
            a[rng.random((n, k)) < 0.3] = -np.inf
        if case % 5 == 2:                               # all -inf rows
            a[rng.random(n) < 0.2] = -np.inf
        want = scipy_logsumexp(a, axis=1)
        got = logsumexp(a)
        assert got.shape == want.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case

"""Acceptance gate: ten property checks over the whole toolkit.

Each test covers one numbered criterion, enforces its runtime budget, and
reports one pass/fail line in the terminal summary. Heavy experiments pin
their seeds, so every run sees identical numbers.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from gradcheck import gradient_check
from scipy.stats import chi2_contingency

from misslab._rng import child_seed
from misslab.cluster import assign_kmeans, fit_kmeans
from misslab.data import fit_minmax, from_matrix, scaler_transform, split_indices
from misslab.forest import ForestSpec
from misslab.gmm import GmmConfig, information_criteria, select_generator
from misslab.imputers import (METHODS, DaeSpec, ImputerSpec, impute_dae,
                              impute_knn, impute_mean, impute_mice,
                              impute_missforest, pool_copies, run_imputer)
from misslab.metrics import (classification_metrics, log_loss, rand_index,
                             regression_metrics_masked, silhouette_samples,
                             silhouette_score)
from misslab.missingness import (MissingnessSpec, combine_recovered,
                                 induce_missingness)
from misslab.nnet import FeedForward, MlpSpec, TrainConfig, predict_mlp, train_mlps
from misslab.pipeline import builtin_source, emit_report, parse_config, run_pipeline

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"


@contextmanager
def criterion(log, num, budget_s, label):
    start = time.perf_counter()
    outcome = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
        outcome = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        log.append(f"criterion {num:02d} {outcome}  {label} ({elapsed:.1f}s)")


def holed_instance(rng, shape, rate):
    """Random [0,1] matrix with holes; every column keeps an observed cell."""
    x = rng.random(shape)
    while True:
        hide = rng.random(shape) < rate
        if hide.any() and (~hide).any(axis=0).all():
            break
    holed = x.copy()
    holed[hide] = np.nan
    return x, holed, hide


def test_criterion_01_formula_exactness(acceptance_log):
    with criterion(acceptance_log, 1, 1.0, "information criteria, log loss, silhouette"):
        aic, bic = information_criteria(-200.0, 100, 5)
        assert aic == 4.1
        assert bic == 400.0 + 5.0 * math.log(100.0)

        # Hand value -(ln 0.8 + ln 0.6)/2 = 0.36698...; the five-digit
        # rounding 0.36700 published for this pair is off by 1.5e-5.
        ll = log_loss(np.array([1.0, 0.0]), np.array([0.8, 0.4]))
        assert ll == -(math.log(0.8) + math.log(0.6)) / 2.0
        assert abs(ll - 0.3669845875) < 1e-9

        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        labels = np.array([0, 0, 1, 1])
        b_outer = (math.sqrt(200.0) + math.sqrt(221.0)) / 2.0
        b_inner = (math.sqrt(181.0) + math.sqrt(200.0)) / 2.0
        s_outer = (b_outer - 1.0) / b_outer
        s_inner = (b_inner - 1.0) / b_inner
        hand_mean = (s_outer + s_inner) / 2.0
        samples = silhouette_samples(pts, labels)
        assert np.allclose(samples, [s_outer, s_inner, s_inner, s_outer],
                           rtol=0.0, atol=1e-12)
        score = silhouette_score(pts, labels)
        assert abs(score - hand_mean) < 1e-12
        # 0.931 to three digits is the corner-point value; the four-point
        # mean sits at 0.92929.
        assert abs(s_outer - 0.931) < 1e-3
        assert abs(score - 0.9292895427) < 1e-9


def test_criterion_02_recovery_combination(acceptance_log):
    with criterion(acceptance_log, 2, 5.0, "combine_recovered on 1,000 random triples"):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 8))
            full = rng.normal(size=(n, d))
            mask = (rng.random((n, d)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
            holed = full.copy()
            holed[mask == 1] = np.nan
            model_output = rng.normal(size=(n, d))
            combined = combine_recovered(holed, model_output)
            assert np.array_equal(combined[mask == 0], holed[mask == 0])
            assert np.array_equal(combined[mask == 1], model_output[mask == 1])
            assert not np.isnan(combined).any()


def test_criterion_03_mcar_fidelity(acceptance_log):
    with criterion(acceptance_log, 3, 60.0, "MCAR realized fraction and independence"):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(20000, 56))
        for degree in (0.1, 0.2, 0.3, 0.4):
            for s in range(10):
                induced = induce_missingness(
                    base, MissingnessSpec(scheme="MCAR", degree=degree),
                    child_seed(77, "fidelity", repr(degree), s))
                assert abs(induced.realized_fraction - degree) <= 0.005

        pvals = []
        for s in range(50):
            induced = induce_missingness(
                base, MissingnessSpec(scheme="MCAR", degree=0.2),
                child_seed(77, "independence", s))
            m = induced.mask
            for mask_col, cov_col in ((1, 0), (5, 4), (30, 29)):
                hi = base[:, cov_col] > np.median(base[:, cov_col])
                table = np.array([
                    [np.sum(~hi & (m[:, mask_col] == 0)), np.sum(~hi & (m[:, mask_col] == 1))],
                    [np.sum(hi & (m[:, mask_col] == 0)), np.sum(hi & (m[:, mask_col] == 1))],
                ])
                pvals.append(chi2_contingency(table).pvalue)
        assert min(pvals) > 0.01 / len(pvals)


def test_criterion_04_generator_recovery(acceptance_log):
    with criterion(acceptance_log, 4, 60.0, "mixture search recovers k=3 and the means"):
        true_means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        picks = 0
        for s in range(10):
            rng = np.random.default_rng(1000 + s)
            counts = rng.multinomial(5000, [0.3, 0.4, 0.3])
            x = np.vstack([rng.normal(mu, 1.0, size=(c, 2))
                           for mu, c in zip(true_means, counts)])
            rng.shuffle(x)
            model, _, _ = select_generator(
                x, [1, 2, 3, 4, 5], ["spherical"], "bic",
                GmmConfig(max_iter=200, restarts=2, seed=child_seed(4, "select", s)))
            if model.k == 3:
                picks += 1
                for mu in model.means:
                    nearest = float(np.min(np.linalg.norm(true_means - mu, axis=1)))
                    assert nearest < 0.1
        assert picks >= 8


def test_criterion_05_imputer_oracles(acceptance_log):
    def brute_force_knn(x, k):
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

    with criterion(acceptance_log, 5, 30.0, "KNN/mean/MICE against independent oracles"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            _, holed, _ = holed_instance(rng, (10, 4), 0.15)
            ours = impute_knn(holed, k=3).copies[0]
            assert np.array_equal(ours, brute_force_knn(holed, 3))

        # Dyadic values make every summation order produce identical bits,
        # so the column-mean comparison is exact rather than approximate.
        for _ in range(100):
            x = rng.integers(0, 64, size=(12, 5)).astype(np.float64) / 64.0
            while True:
                hide = rng.random((12, 5)) < 0.2
                if hide.any() and (~hide).any(axis=0).all():
                    break
            holed = x.copy()
            holed[hide] = np.nan
            out = impute_mean(holed).copies[0]
            for j in range(5):
                observed = [holed[i, j] for i in range(12) if not np.isnan(holed[i, j])]
                col_mean = sum(observed) / len(observed)
                assert all(out[i, j] == col_mean for i in range(12) if hide[i, j])

        rng2 = np.random.default_rng(55)
        x1 = rng2.uniform(0.0, 1.0, size=60)
        linear = np.column_stack([x1, 2.0 * x1])
        holed = linear.copy()
        holed[rng2.choice(60, size=12, replace=False), 1] = np.nan
        recovered = impute_mice(holed, copies=1, sweeps=10, noise=False, seed=1)
        assert float(np.abs(recovered.copies[0] - linear).max()) < 1e-6


def test_criterion_06_observed_preservation(acceptance_log):
    with criterion(acceptance_log, 6, 30.0, "every imputer preserves observed cells bit-for-bit"):
        names = [f"c{j}" for j in range(4)]
        for method in METHODS:
            for t in range(50):
                rng = np.random.default_rng(6000 + t)
                _, holed, hide = holed_instance(rng, (12, 4), 0.2)
                spec = ImputerSpec(
                    kind=method, knn_k=3, copies=2, sweeps=3, noise=True,
                    max_sweeps=1,
                    forest=ForestSpec(n_trees=5, max_depth=4,
                                      min_samples_leaf=2),
                    dae=DaeSpec(epochs=25, patience=25, batch_size=8,
                                learning_rate=0.05),
                    seed=child_seed(6, method, t))
                result = run_imputer(holed, spec, names)
                for copy in result.copies:
                    assert not np.isnan(copy).any()
                    assert np.array_equal(copy[~hide], holed[~hide])


def test_criterion_07_gradient_correctness(acceptance_log):
    with criterion(acceptance_log, 7, 10.0, "backprop matches central finite differences"):
        rng = np.random.default_rng(7)
        classifier_net = FeedForward([10, 8, 4, 1], output="sigmoid-binary", seed=71)
        x = rng.normal(size=(10, 10))
        y = rng.integers(0, 2, size=10).astype(np.float64)
        assert gradient_check(classifier_net, x, y, eps=1e-5) < 1e-4

        # Masked reconstruction loss, the denoising path.
        recon_net = FeedForward([6, 12, 6], output="linear", seed=72)
        x2 = rng.normal(size=(10, 6))
        target = rng.normal(size=(10, 6))
        mask = (rng.random((10, 6)) < 0.5).astype(np.float64)
        mask[0, 0] = 1.0
        assert gradient_check(recon_net, x2, target, loss_mask=mask, eps=1e-5) < 1e-4


def test_criterion_08_trend_reproduction(acceptance_log):
    with criterion(acceptance_log, 8, 600.0, "error trends and baseline dominance"):
        data, _ = builtin_source(2000, 10, 3, 0)
        scaler = fit_minmax(data.features, [f"f{j}" for j in range(10)])
        x = scaler_transform(scaler, data.features, "forward")
        y = data.target
        degrees = (0.1, 0.2, 0.3, 0.4)
        n_seeds = 10

        per_seed = {m: np.zeros((n_seeds, len(degrees))) for m in ("mean", "knn")}
        rmse20 = {m: [] for m in ("mice", "missforest", "dae")}
        accuracy = {m: [] for m in ("none", "mean", "knn", "mice", "missforest", "dae")}

        def classify(filled, s, tr, va):
            # One stack per seed: each network keeps the bits it gets alone.
            models = train_mlps(
                [(from_matrix(features[tr], y[tr]), from_matrix(features[va], y[va]),
                  child_seed(8, "clf", tag, s)) for tag, features in filled.items()],
                MlpSpec(hidden_layers=[20, 20], dropout_rate=0.2),
                TrainConfig(max_epochs=100, patience=100, batch_size=64,
                            learning_rate=0.05))
            for (tag, features), model in zip(filled.items(), models):
                probs, _ = predict_mlp(model, features[va])
                accuracy[tag].append(classification_metrics(y[va], probs)["accuracy"])

        for s in range(n_seeds):
            filled20 = {}
            for di, degree in enumerate(degrees):
                induced = induce_missingness(
                    x, MissingnessSpec(scheme="MCAR", degree=degree),
                    child_seed(8, "mask", repr(degree), s))
                mean_fill = impute_mean(induced.holed).copies[0]
                knn_fill = impute_knn(induced.holed, k=5).copies[0]
                per_seed["mean"][s, di] = regression_metrics_masked(
                    x, mean_fill, induced.mask)["rmse"]
                per_seed["knn"][s, di] = regression_metrics_masked(
                    x, knn_fill, induced.mask)["rmse"]
                if degree == 0.2:
                    filled20["mean"], filled20["knn"] = mean_fill, knn_fill
                    filled20["mice"] = pool_copies(impute_mice(
                        induced.holed, copies=2, sweeps=5, noise=True,
                        seed=child_seed(8, "impute", "mice", s)))
                    filled20["missforest"] = pool_copies(impute_missforest(
                        induced.holed, max_sweeps=2,
                        forest=ForestSpec(n_trees=10, max_depth=7,
                                          min_samples_leaf=5),
                        seed=child_seed(8, "impute", "missforest", s)))
                    filled20["dae"] = pool_copies(impute_dae(
                        induced.holed,
                        DaeSpec(encoder_widths=[32, 16], epochs=200, patience=30),
                        seed=child_seed(8, "impute", "dae", s)))
                    for m in ("mice", "missforest", "dae"):
                        rmse20[m].append(regression_metrics_masked(
                            x, filled20[m], induced.mask)["rmse"])
            tr, va = split_indices(2000, [0.8, 0.2], child_seed(8, "split", s))
            classify({"none": x, **filled20}, s, tr, va)

        # KNN error rises cleanly with the missingness degree.
        knn_curve = per_seed["knn"].mean(axis=0)
        assert all(b >= a for a, b in zip(knn_curve, knn_curve[1:]))

        # Mean imputation has no usable degree signal at this scale: its
        # expected error is flat to ~0.01% while the estimate wobbles ~0.2%,
        # so strict ordering of the curve is a coin flip. Assert the true
        # shape instead: flat overall, and never decreasing beyond noise.
        mean_curve = per_seed["mean"].mean(axis=0)
        assert float(np.ptp(mean_curve)) < 0.01 * float(mean_curve.mean())
        seed_diffs = np.diff(per_seed["mean"], axis=1)
        mean_diff = seed_diffs.mean(axis=0)
        se_diff = seed_diffs.std(axis=0, ddof=1) / math.sqrt(n_seeds)
        assert (mean_diff >= -5.0 * se_diff).all()

        mean_rmse_20 = float(per_seed["mean"][:, 1].mean())
        assert float(np.mean(rmse20["dae"])) < mean_rmse_20
        assert float(np.mean(rmse20["missforest"])) < mean_rmse_20
        assert float(np.mean(rmse20["mice"])) < mean_rmse_20

        baseline = float(np.mean(accuracy["none"]))
        for method, values in accuracy.items():
            assert baseline >= float(np.mean(values))


def test_criterion_09_pipeline_determinism(acceptance_log, tmp_path):
    with criterion(acceptance_log, 9, 300.0, "desk run is byte-identical and complete"):
        reports, out_dirs = [], []
        for tag in ("first", "second"):
            cfg = parse_config(DESK_CONFIG)
            out = tmp_path / tag
            cfg.output_dir = str(out)
            report = run_pipeline(cfg)
            emit_report(report, out)
            reports.append((cfg, report))
            out_dirs.append(out)

        cfg, report = reports[0]
        assert report.failures == []
        expected = {("none", 0.0, rep) for rep in range(cfg.repetitions)}
        expected |= {(m, d, rep) for m in cfg.imputers for d in cfg.degrees
                     for rep in range(cfg.repetitions)}
        seen = {(c["method"], c["degree"], c["repetition"]) for c in report.cells}
        assert seen == expected and len(report.cells) == len(expected)

        for name in ("accuracy.csv", "loss.csv", "clustering.csv", "direct.csv"):
            first = (out_dirs[0] / name).read_bytes()
            second = (out_dirs[1] / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"


def test_criterion_10_clustering_sanity(acceptance_log):
    with criterion(acceptance_log, 10, 60.0, "perfect Rand on clean blobs, silhouette after holes"):
        rng = np.random.default_rng(10)
        centers = np.array([[0.15] * 6, [0.85] * 6])
        x = np.vstack([rng.normal(c, 0.05, size=(300, 6))
                       for c in centers]).clip(0.0, 1.0)
        truth = np.repeat([0, 1], 300)
        perm = rng.permutation(600)
        x, truth = x[perm], truth[perm]

        model = fit_kmeans(x, 2, child_seed(10, "clean"))
        assert rand_index(assign_kmeans(model, x), truth) == 1.0

        induced = induce_missingness(x, MissingnessSpec(scheme="MCAR", degree=0.3),
                                     child_seed(10, "mask"))
        fills = {
            "mean": pool_copies(impute_mean(induced.holed)),
            "knn": pool_copies(impute_knn(induced.holed, k=5)),
            "mice": pool_copies(impute_mice(induced.holed, copies=2, sweeps=5,
                                            noise=True, seed=child_seed(10, "mice"))),
            "missforest": pool_copies(impute_missforest(
                induced.holed, max_sweeps=1,
                forest=ForestSpec(n_trees=8, max_depth=6, min_samples_leaf=5),
                seed=child_seed(10, "missforest"))),
            "dae": pool_copies(impute_dae(induced.holed,
                                          DaeSpec(epochs=80, patience=20),
                                          seed=child_seed(10, "dae"))),
        }
        for method, filled in fills.items():
            km = fit_kmeans(filled, 2, child_seed(10, "fit", method))
            labels = assign_kmeans(km, filled)
            assert silhouette_score(filled, labels) > 0.5, method

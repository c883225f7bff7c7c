"""End-to-end runner tests at desk scale, plus config parsing."""

import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from misslab._rng import child_seed
from misslab.pipeline import (_CONFIG_KEYS, BASELINE_METHOD, EVAL_COLUMNS,
                              ConfigError, ExperimentConfig, LabeledPool,
                              RunReport, builtin_source, cell_units,
                              check_no_leakage, clustering_degree, emit_report,
                              fit_generator, label_pool, load_report_json, parse_config,
                              prepare_source, run_pipeline, save_report_json,
                              write_plot_tables)

DOCS_CONFIG = Path(__file__).resolve().parent.parent / "docs" / "config.md"
PAPER_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper.cfg"

ACCURACY_HEADER = ("method,missing_pct," + ",".join(EVAL_COLUMNS) + ","
                   + ",".join(f"{c}_std" for c in EVAL_COLUMNS))


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_empty_config_gives_defaults(tmp_path):
    path = write_cfg(tmp_path, "# nothing but comments\n\n   \n")
    assert parse_config(path) == ExperimentConfig()


def test_config_overrides(tmp_path):
    path = write_cfg(tmp_path, "\n".join([
        "builtin.rows = 500",
        "gmm.k_range = 2, 3",
        "gmm.kinds = spherical",
        "missing.degrees = 0.05, 0.15",
        "imputers = mean, dae",
        "classifier.hidden = 16, 8",
        "mice.noise = false",
        "copies = 3",
        "synth.n = 50        # inline comment",
        "synth.reserve = 25",
        "seed = 42",
        "output = out-here",
    ]))
    cfg = parse_config(path)
    assert cfg.builtin_rows == 500
    assert cfg.gmm_k_range == [2, 3]
    assert cfg.gmm_kinds == ["spherical"]
    assert cfg.degrees == [0.05, 0.15]
    assert cfg.imputers == ["mean", "dae"]
    assert cfg.classifier_hidden == [16, 8]
    assert cfg.mice_noise is False
    assert cfg.copies == 3
    assert cfg.synth_n == 50
    assert cfg.reserve_n == 25
    assert cfg.master_seed == 42
    assert cfg.output_dir == "out-here"


def test_config_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text("seed = 42\n", encoding="utf-8-sig")
    assert parse_config(path).master_seed == 42


def test_config_file_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"seed = 1\noutput = r\xe9sultats\n")
    with pytest.raises(ConfigError, match=r"latin\.cfg: not UTF-8 text"):
        parse_config(path)


def test_unknown_key_reports_line_number(tmp_path):
    path = write_cfg(tmp_path, "seed = 1\n# filler\nbogus.key = 3\n")
    with pytest.raises(ConfigError, match=r":3: unknown key 'bogus\.key'"):
        parse_config(path)


def test_line_without_equals_rejected(tmp_path):
    path = write_cfg(tmp_path, "just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config(path)


def test_bad_value_names_key_and_line(tmp_path):
    path = write_cfg(tmp_path, "repetitions = abc\n")
    with pytest.raises(ConfigError, match=r":1: bad value for repetitions"):
        parse_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        parse_config(tmp_path / "absent.cfg")


def test_bool_values_parse_loosely(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "mice.noise = off\n"))
    assert cfg.mice_noise is False
    cfg = parse_config(write_cfg(tmp_path, "mice.noise = YES\n", name="b.cfg"))
    assert cfg.mice_noise is True
    with pytest.raises(ConfigError, match="bad value for mice.noise"):
        parse_config(write_cfg(tmp_path, "mice.noise = maybe\n", name="c.cfg"))


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    {"input_kind": "parquet"},
    {"input_kind": "csv", "input_path": ""},
    {"input_kind": "csv", "input_path": "x.csv", "input_target": ""},
    {"degrees": []},
    {"degrees": [0.0]},
    {"degrees": [1.0]},
    {"degrees": [0.2, 1.5]},
    {"degrees": [0.1, 0.3, 0.1]},
    {"imputers": ["knn", "mean", "KNN"]},
    {"clusters": [2, 3, 2]},
    {"mar_drivers": [1, 1]},
    {"scheme": "mar", "mar_drivers": [0, 0]},
    {"repetitions": 0},
    {"imputers": []},
    {"gmm_kinds": []},
    {"scheme": "mar", "mar_drivers": []},
    {"synth_n": 5},
    {"reserve_n": 9},
    {"imputers": ["mean", "mcie"]},
    {"gmm_kinds": ["spherical", "diagonl"]},
    {"gmm_criterion": "aicc"},
    {"scheme": "mcr"},
    {"knn_k": 0},
    {"copies": 0},
    {"clusters": [1, 2]},
    {"synth_n": 150, "clusters": [2, 151]},
    {"classifier_epochs": 10, "classifier_patience": 11},
    {"generator_epochs": 10, "generator_patience": 11},
    {"dae_epochs": 10, "dae_patience": 11},
    {"scheme": "mar", "mar_drivers": [9], "builtin_features": 4},
    {"scheme": "mar", "mar_drivers": [-1], "builtin_features": 4},
    {"scheme": "mar", "mar_drivers": [0, 1, 2, 3], "builtin_features": 4},
    {"missforest_max_sweeps": -1},
    {"missforest_trees": 0},
    {"missforest_max_depth": -1},
    {"missforest_min_leaf": 0},
    {"smote_k": 0},
    {"enn_k": 0},
    {"resample_ratio": -1.0},
    {"resample_ratio": 0.0},
    {"resample_ratio": 1.5},
    {"classifier_lr": 0.0},
    {"classifier_batch": 0},
    {"classifier_dropout": 1.0},
    {"classifier_dropout": -0.1},
    {"classifier_hidden": [20, 0]},
    {"dae_corruption": 0.0},
    {"dae_corruption": 1.0},
    {"dae_lr": 0.0},
    {"dae_lr": float("nan")},
    {"dae_batch": 0},
    {"gmm_kinds": ["Spherical"]},
    {"classifier_lr": float("nan")},
    {"gmm_k_range": []},
    {"classifier_patience": -3},
    {"generator_patience": -1},
    {"dae_patience": -2},
])
def test_validate_rejects(overrides):
    cfg = ExperimentConfig(**overrides)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validate_accepts_mar_with_drivers():
    ExperimentConfig(scheme="mar", mar_drivers=[0, 1]).validate()


def test_validate_checks_mar_drivers_against_a_known_width():
    cfg = ExperimentConfig(input_kind="csv", input_path="x.csv", input_target="y",
                           scheme="mar", mar_drivers=[4])
    cfg.validate()                     # a csv's width is unknown up front
    cfg.validate(columns=5)
    with pytest.raises(ConfigError, match="missing.mar_drivers"):
        cfg.validate(columns=4)
    builtin = ExperimentConfig(scheme="mar", mar_drivers=[4])  # builtin.features = 10
    builtin.validate()
    with pytest.raises(ConfigError, match="for 4 columns"):
        builtin.validate(columns=4)        # a given width counts over builtin.features


def test_validate_accepts_imputer_names_in_any_case():
    ExperimentConfig(imputers=["Mean", "KNN"]).validate()


def test_validate_accepts_a_single_builtin_feature():
    ExperimentConfig(builtin_features=1).validate()


def test_docs_list_exactly_the_config_keys():
    text = DOCS_CONFIG.read_text(encoding="utf-8")
    keys_section = text.split("\n## Keys\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([^`]+)` \|", keys_section, re.M))
    assert documented == set(_CONFIG_KEYS)
    # Each row's `allowed` cell shows the bounds its field declares.
    allowed = dict(re.findall(r"^\| `([^`]+)` \| [^|]* \| ([^|]*?) ?\|",
                              keys_section, re.M))
    for f in dataclasses.fields(ExperimentConfig):
        meta = f.metadata
        expected = (f"`{meta['within']}`" if meta["within"] else
                    ", ".join(f"`{n}`" for n in meta["names"])
                    + (", any case" if meta["anycase"] else ""))
        assert allowed[meta["key"]] == expected, meta["key"]


def test_paper_config_is_the_documented_defaults():
    cfg = parse_config(PAPER_CONFIG)           # parses and validates
    lines = (line.split("#", 1)[0] for line in
             PAPER_CONFIG.read_text(encoding="utf-8").splitlines())
    keys = [line.split("=", 1)[0].strip() for line in lines if line.strip()]
    assert {"seed", "output"} <= set(keys)
    default = ExperimentConfig()
    for key in keys:
        attr = _CONFIG_KEYS[key][0]
        if key not in ("seed", "output"):
            assert getattr(cfg, attr) == getattr(default, attr), key
    # Only keys whose default is empty are left out.
    for key in set(_CONFIG_KEYS) - set(keys):
        assert not getattr(default, _CONFIG_KEYS[key][0]), key


# ---------------------------------------------------------------------------
# Built-in source
# ---------------------------------------------------------------------------

def test_builtin_source_shapes_and_labels():
    data, model = builtin_source(rows=800, features=6, components=3, seed=5)
    assert data.features.shape == (800, 6)
    assert data.target.shape == (800,)
    assert set(np.unique(data.target)) <= {0.0, 1.0}
    assert model.k == 3 and model.kind == "spherical"
    # Labels threshold a linear score at its 60th percentile.
    assert 0.35 <= data.target.mean() <= 0.45


def test_builtin_source_deterministic():
    a, _ = builtin_source(rows=200, features=4, components=2, seed=9)
    b, _ = builtin_source(rows=200, features=4, components=2, seed=9)
    c, _ = builtin_source(rows=200, features=4, components=2, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.target, b.target)
    assert not np.array_equal(a.features, c.features)


def test_prepare_source_scales_to_unit_interval():
    src = prepare_source(ExperimentConfig(builtin_rows=300, builtin_features=4))
    assert src.x_orig.shape == (300, 4)
    assert src.x_orig.min() >= 0.0 and src.x_orig.max() <= 1.0
    assert len(src.names) == 4
    assert len(src.schema_w) == 4
    assert all(np.isfinite([c.lower, c.upper]).all() for c in src.schema_w)


# ---------------------------------------------------------------------------
# Desk-scale run
# ---------------------------------------------------------------------------

def desk_config(out_dir) -> ExperimentConfig:
    return ExperimentConfig(
        builtin_rows=240, builtin_features=5, builtin_components=2,
        gmm_k_range=[2], gmm_kinds=["spherical"], gmm_max_iter=60,
        gmm_restarts=1,
        synth_n=240, reserve_n=60,
        degrees=[0.1, 0.3],
        imputers=["mean", "knn"],
        copies=2,
        classifier_hidden=[8], classifier_epochs=8, classifier_patience=8,
        classifier_batch=32, classifier_lr=0.05,
        generator_epochs=8, generator_patience=8,
        clusters=[2], clustering_degree=0.3,
        repetitions=2,
        master_seed=11,
        output_dir=str(out_dir),
    )


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    cfg = desk_config(out)
    return cfg, run_pipeline(cfg)


def test_run_has_no_failures(desk_run):
    _, report = desk_run
    assert report.failures == []


def test_run_cell_grid_complete(desk_run):
    cfg, report = desk_run
    expected = {(BASELINE_METHOD, 0.0, rep) for rep in range(cfg.repetitions)}
    expected |= {(m, d, rep) for m in cfg.imputers for d in cfg.degrees
                 for rep in range(cfg.repetitions)}
    seen = [(c["method"], c["degree"], c["repetition"]) for c in report.cells]
    assert len(seen) == len(expected) == 10
    assert set(seen) == expected


def test_run_cells_carry_finite_metrics(desk_run):
    _, report = desk_run
    for cell in report.cells:
        for col in EVAL_COLUMNS:
            acc = cell[f"accuracy_{col}"]
            loss = cell[f"loss_{col}"]
            assert 0.0 <= acc <= 1.0
            assert np.isfinite(loss) and loss >= 0.0


def test_run_direct_cells_per_copy(desk_run):
    cfg, report = desk_run
    # mean and knn each return a single copy.
    assert len(report.direct_cells) == len(cfg.imputers) * len(cfg.degrees) * cfg.repetitions
    for cell in report.direct_cells:
        assert cell["rmse"] >= 0.0 and np.isfinite(cell["rmse"])
        assert np.isfinite(cell["mape"])


def test_run_clustering_grid(desk_run):
    cfg, report = desk_run
    assert len(report.clustering_rows) == len(cfg.imputers) * len(cfg.clusters)
    for row in report.clustering_rows:
        assert 0.0 <= row["rand"] <= 1.0
        assert -1.0 <= row["silhouette"] <= 1.0


def test_run_manifest_contents(desk_run):
    cfg, report = desk_run
    man = report.manifest
    assert man["master_seed"] == cfg.master_seed
    assert man["selected_k"] == 2
    assert man["selected_kind"] == "spherical"
    assert man["n_cells"] == len(report.cells)
    assert man["n_failures"] == 0
    assert man["clustering_degree"] == 0.3
    assert man["config"]["missing.degrees"] == repr(cfg.degrees)
    assert set(man["config"]) == set(_CONFIG_KEYS)
    assert set(man["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
    for path in man["artifacts"].values():
        assert os.path.exists(path)


def test_run_persists_datasets(desk_run):
    cfg, report = desk_run
    for name in ("clean.csv", "synthetic.csv", "reserved.csv"):
        assert name in report.manifest["artifacts"]
    assert os.path.exists(os.path.join(cfg.output_dir, "gmm_search.csv"))
    synth = read_lines(os.path.join(cfg.output_dir, "synthetic.csv"))
    assert len(synth) == 1 + cfg.synth_n
    assert synth[0].endswith(",label")
    reserved = read_lines(os.path.join(cfg.output_dir, "reserved.csv"))
    assert len(reserved) == 1 + cfg.reserve_n


def test_run_plot_payloads(desk_run):
    cfg, report = desk_run
    counts = report.plot["component_counts"]
    assert sum(n for _, n in counts) == cfg.synth_n
    history = report.plot["target_history"]
    assert history and history[0][0] == 1
    assert all(len(row) == 5 for row in history)
    assert report.plot["silhouette_samples"]


def test_emit_report_files_and_headers(desk_run, tmp_path):
    cfg, report = desk_run
    written = emit_report(report, tmp_path)
    names = {os.path.basename(p) for p in written}
    assert names == {"accuracy.csv", "loss.csv", "clustering.csv", "direct.csv",
                     "metrics.csv", "generator_components.csv",
                     "target_history.csv", "silhouette_samples.csv",
                     "manifest.json"}
    acc = read_lines(tmp_path / "accuracy.csv")
    assert acc[0] == ACCURACY_HEADER
    # One row per (method, degree) group: baseline + 2 methods x 2 degrees.
    assert len(acc) == 1 + 1 + len(cfg.imputers) * len(cfg.degrees)
    baseline = acc[1].split(",")
    assert baseline[0] == BASELINE_METHOD
    assert baseline[1] == "0.0"
    loss = read_lines(tmp_path / "loss.csv")
    assert loss[0] == ACCURACY_HEADER.replace("accuracy", "loss")
    clustering = read_lines(tmp_path / "clustering.csv")
    assert clustering[0] == "method,clusters,rand,silhouette"
    assert len(clustering) == 1 + len(report.clustering_rows)
    direct = read_lines(tmp_path / "direct.csv")
    assert direct[0] == "method,missing_pct,rmse,r2,mape"
    assert len(direct) == 1 + len(cfg.imputers) * len(cfg.degrees)


def test_emit_report_missing_pct_is_degree_times_100(desk_run, tmp_path):
    _, report = desk_run
    emit_report(report, tmp_path)
    pcts = {row.split(",")[1] for row in read_lines(tmp_path / "accuracy.csv")[1:]}
    assert pcts == {"0.0", "10.0", "30.0"}


def test_history_csv_columns(tmp_path):
    pool = LabeledPool(x_synth=np.zeros((3, 2)), y_synth=np.zeros(3),
                       x_reserve=np.zeros((1, 2)), y_reserve=np.zeros(1),
                       components=np.array([1, 0, 1]),
                       history=[(0.7, 0.8, 0.5, 0.4), (0.6, 0.7, 0.6, 0.5)])
    write_plot_tables(tmp_path, pool.plot_rows())
    assert read_lines(tmp_path / "target_history.csv") == [
        "epoch,train_loss,valid_loss,train_acc,valid_acc",
        "1,0.7,0.8,0.5,0.4",
        "2,0.6,0.7,0.6,0.5",
    ]
    assert read_lines(tmp_path / "generator_components.csv") == [
        "component,count", "0,1", "1,2"]


def test_emit_report_refuses_empty():
    empty = RunReport(manifest={}, cells=[], direct_cells=[],
                      clustering_rows=[], failures=[], plot={})
    with pytest.raises(ValueError, match="no cells"):
        emit_report(empty, "unused")


def test_run_deterministic_tables(desk_run, tmp_path):
    cfg, report = desk_run
    cfg2 = desk_config(tmp_path / "again")
    report2 = run_pipeline(cfg2)
    assert report2.cells == report.cells
    assert report2.direct_cells == report.direct_cells
    assert report2.clustering_rows == report.clustering_rows
    dir_a, dir_b = tmp_path / "emit-a", tmp_path / "emit-b"
    emit_report(report, dir_a)
    emit_report(report2, dir_b)
    for name in ("accuracy.csv", "loss.csv", "clustering.csv", "direct.csv",
                 "metrics.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_report_json_round_trip(desk_run, tmp_path):
    _, report = desk_run
    path = save_report_json(report, tmp_path)
    loaded = load_report_json(path)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_report(report, dir_a)
    emit_report(loaded, dir_b)
    for name in os.listdir(dir_a):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_report_json_is_the_reports_fields_as_json(desk_run, tmp_path):
    # Written from the fields themselves, not from a deep copy; same bytes.
    _, report = desk_run
    path = save_report_json(report, tmp_path)
    expected = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
    assert Path(path).read_text(encoding="utf-8") == expected


def test_failed_cells_recorded_not_fatal(tmp_path, monkeypatch):
    def broken_imputer(*args, **kwargs):
        raise ValueError("injected imputer fault")

    monkeypatch.setattr("misslab.pipeline.run_imputer", broken_imputer)
    cfg = desk_config(tmp_path / "broken")
    cfg.imputers = ["knn"]
    cfg.degrees = [0.2]
    cfg.repetitions = 1
    report = run_pipeline(cfg)         # every imputer cell fails
    assert [c["method"] for c in report.cells] == [BASELINE_METHOD]
    stages = {f["stage"] for f in report.failures}
    assert stages == {"impute+classify", "cluster"}
    impute_failures = [f for f in report.failures if f["stage"] == "impute+classify"]
    assert impute_failures[0]["method"] == "knn"
    assert "ValueError" in impute_failures[0]["error"]
    # Enough to reproduce it: the failing stream's seed and the traceback tail.
    assert impute_failures[0]["seed"] == child_seed(cfg.master_seed, "impute", "knn",
                                                    repr(0.2), 0)
    tail = impute_failures[0]["traceback"]
    assert tail[-1] == "ValueError: injected imputer fault"
    assert any("broken_imputer" in line for line in tail)
    cluster_failures = [f for f in report.failures if f["stage"] == "cluster"]
    assert [(f["method"], f["degree"], f["repetition"], f["error"], f["seed"])
            for f in cluster_failures] == [
        ("knn", 0.2, 0, "no imputed matrix available",
         child_seed(cfg.master_seed, "cluster", "knn", k)) for k in cfg.clusters]
    assert report.manifest["n_failures"] == len(report.failures)
    # Map 1 imputed the cell and failed it, so no stack of map 2 trained it;
    # its cluster unit still ran, to record each k.
    units = [(u["unit"], [c["method"] for c in u["cells"]]) for u in report.timings["units"]]
    assert units == [("classify", [BASELINE_METHOD]), ("impute", ["knn"]),
                     ("cluster", ["knn"])]
    # Emission still works off the surviving baseline cells.
    emit_report(report, tmp_path / "broken-report")


def test_failures_match_under_one_and_two_workers(tmp_path, monkeypatch):
    def broken_imputer(*args, **kwargs):
        raise ValueError("injected imputer fault")

    monkeypatch.setattr("misslab.pipeline.run_imputer", broken_imputer)
    failures = {}
    for workers in (1, 2):
        monkeypatch.setattr("misslab.pipeline._usable_cores", lambda: workers)
        cfg = desk_config(tmp_path / f"w{workers}")
        cfg.degrees = [0.2]
        report = run_pipeline(cfg)
        assert report.manifest["workers"] == workers
        pids = {t["pid"] for t in report.timings["units"]}
        assert (pids == {os.getpid()}) == (workers == 1)
        failures[workers] = report.failures
    assert len(failures[1]) == 6               # 2 imputers x 2 reps, 2 clusterings
    assert failures[1] == failures[2]


def test_a_failed_k_is_recorded_alone_and_the_other_k_still_score(tmp_path, monkeypatch):
    # k = 2 fails in k-means and k = 3 gets a one-cluster labeling, so the
    # shared silhouette pass fails; k = 4 is then scored alone, as before.
    from misslab import pipeline
    fit_kmeans, assign_kmeans = pipeline.fit_kmeans, pipeline.assign_kmeans

    def kmeans_failing_at_two(data, k, seed):
        if k == 2:
            raise ValueError("injected k-means fault")
        return fit_kmeans(data, k, seed)

    def one_cluster_at_three(model, data):
        labels = assign_kmeans(model, data)
        return labels * 0 if len(model.centroids) == 3 else labels

    cfg = desk_config(tmp_path / "k")
    cfg.imputers, cfg.repetitions, cfg.clusters = ["mean"], 1, [2, 3, 4]
    clean = run_pipeline(cfg)
    monkeypatch.setattr("misslab.pipeline.fit_kmeans", kmeans_failing_at_two)
    monkeypatch.setattr("misslab.pipeline.assign_kmeans", one_cluster_at_three)
    report = run_pipeline(cfg)
    assert [(f["stage"], f["error"], f["seed"]) for f in report.failures] == [
        ("cluster", "ValueError: injected k-means fault",
         child_seed(cfg.master_seed, "cluster", "mean", 2)),
        ("cluster", "ValueError: silhouette needs at least 2 clusters",
         child_seed(cfg.master_seed, "cluster", "mean", 3))]
    assert report.clustering_rows == clean.clustering_rows[2:]
    assert report.plot["silhouette_samples"] == [
        row for row in clean.plot["silhouette_samples"] if row[1] == 4]


def test_timings_list_every_unit_once(desk_run):
    # Map 1: the baseline stack, then one unit per imputer cell. Map 2: one
    # stack per repetition (two repetitions fill two workers), then one
    # cluster unit per clustered fill. Each cell is imputed, classified and
    # (at rep 0 and the clustering degree) clustered exactly once.
    cfg, report = desk_run
    timings = report.timings
    units = timings["units"]
    cells = cell_units(cfg)
    imputed = [c for c in cells if c[0] != BASELINE_METHOD]
    clustered = [(m, clustering_degree(cfg), 0) for m in cfg.imputers]
    assert [u["unit"] for u in units] == (["classify"] + ["impute"] * len(imputed)
                                          + ["classify"] * cfg.repetitions
                                          + ["cluster"] * len(clustered))
    served = [[(c["method"], c["degree"], c["repetition"]) for c in u["cells"]]
              for u in units]
    assert served[0] == [c for c in cells if c[0] == BASELINE_METHOD]
    assert sum(served[1:1 + len(imputed)], []) == imputed
    stacks = served[1 + len(imputed):1 + len(imputed) + cfg.repetitions]
    assert stacks == [[c for c in imputed if c[2] == rep] for rep in range(cfg.repetitions)]
    assert sum(served[-len(clustered):], []) == clustered
    stages = {"impute": {"induce", "impute"}, "classify": {"classify"},
              "cluster": {"kmeans", "silhouette"}}
    for unit, cells_served in zip(units, served):
        assert set(unit["seconds"]) == stages[unit["unit"]]
        assert 0.0 < unit["peak_rss_mb"] <= timings["summed_peak_rss_mb"]
        assert unit["lost_worker"] is None
        # desk grows no forest, so its impute units borrow no core.
        assert ({k: unit[k] for k in unit if k.startswith("helper_")}
                == ({"helper_forests": 0, "helper_cpu_s": 0.0, "helper_peak_rss_mb": []}
                    if unit["unit"] == "impute" else {}))
        if unit["unit"] == "classify":      # one training record per cell
            assert [(r["method"], r["degree"], r["repetition"])
                    for r in unit["classifiers"]] == cells_served
    assert 0.0 < timings["wall_s"]


def test_unit_plan_does_not_depend_on_the_core_count(tmp_path, monkeypatch):
    # One repetition on one, two and four cores: the same units in the same
    # order, with its four filled cells trained as one stack. Stacking moves
    # no bit.
    reports, plans = {}, {}
    for cores in (1, 2, 4):
        monkeypatch.setattr("misslab.pipeline._usable_cores", lambda: cores)
        cfg = desk_config(tmp_path / f"c{cores}")
        cfg.repetitions = 1
        reports[cores] = run_pipeline(cfg)
        plans[cores] = [(u["unit"], [(c["method"], c["degree"]) for c in u["cells"]])
                        for u in reports[cores].timings["units"]]
        stacks = [cells for unit, cells in plans[cores][1:] if unit == "classify"]
        assert stacks == [[(m, d) for d in cfg.degrees for m in cfg.imputers]]
    assert plans[1] == plans[2] == plans[4]
    for name in ("cells", "direct_cells", "clustering_rows", "failures", "plot"):
        assert getattr(reports[1], name) == getattr(reports[2], name) \
            == getattr(reports[4], name)


def test_setup_stages_record_their_seconds_and_the_search_helpers(tmp_path, monkeypatch):
    # Each set-up step records its wall seconds. With 2 free tokens the
    # search's 3 fits run on 3 processes, and its record carries the
    # helpers' CPU seconds and peaks, which the summed peak counts; on one
    # core the search borrows nothing.
    for cores in (3, 1):
        monkeypatch.setattr("misslab.pipeline._usable_cores", lambda: cores)
        cfg = desk_config(tmp_path / f"c{cores}")
        cfg.gmm_k_range, cfg.repetitions = [1, 2, 3], 1
        timings = run_pipeline(cfg).timings
        stages = timings["stages"]
        assert list(stages) == ["prepare", "search", "pool", "smote_enn", "write"]
        assert all(stage["seconds"] > 0.0 for stage in stages.values())
        search = stages["search"]
        assert len(search["helper_peak_rss_mb"]) == cores - 1
        if cores == 1:
            assert search["helper_cpu_s"] == 0.0
        else:
            assert search["helper_cpu_s"] > 0.0
        assert timings["summed_peak_rss_mb"] >= sum(search["helper_peak_rss_mb"]) + max(
            unit["peak_rss_mb"] for unit in timings["units"])


def test_a_fill_that_is_not_fully_observed_fails_alone(tmp_path, monkeypatch):
    # The knn fills keep a NaN in an observed cell: they pass the direct
    # scores, then fail the classifier's "fully observed" check. Each such
    # cell is recorded alone, with its key, stage and seed, and the mean
    # cells of its stack still score as in a clean run.
    from misslab import pipeline
    run_imputer = pipeline.run_imputer

    def nan_in_knn_fills(holed, spec, names):
        result = run_imputer(holed, spec, names)
        if spec.kind == "knn":
            row, col = np.argwhere(~np.isnan(holed))[0]
            for copy in result.copies:
                copy[row, col] = np.nan
        return result

    clean = run_pipeline(desk_config(tmp_path / "clean"))
    monkeypatch.setattr("misslab.pipeline.run_imputer", nan_in_knn_fills)
    cfg = desk_config(tmp_path / "nan")
    report = run_pipeline(cfg)
    expected = []
    for method, degree, rep in cell_units(cfg):
        if method == "knn":
            expected.append((method, degree, rep, "impute+classify",
                             "ValueError: training requires fully observed data",
                             child_seed(cfg.master_seed, "impute", "knn", repr(degree), rep)))
        if method == "knn" and (degree, rep) == (clustering_degree(cfg), 0):
            expected += [(method, degree, rep, "cluster",
                          "ValueError: k-means requires fully observed data",
                          child_seed(cfg.master_seed, "cluster", "knn", k))
                         for k in cfg.clusters]
    assert [(f["method"], f["degree"], f["repetition"], f["stage"], f["error"], f["seed"])
            for f in report.failures] == expected
    assert report.cells == [row for row in clean.cells if row["method"] != "knn"]
    assert report.direct_cells == clean.direct_cells
    stacks = [[c["method"] for c in u["cells"]] for u in report.timings["units"][1:]
              if u["unit"] == "classify"]
    assert stacks == [["mean", "knn", "mean", "knn"]] * cfg.repetitions


def test_imputer_cells_carry_their_diagnostics(tmp_path):
    cfg = desk_config(tmp_path / "diag")
    cfg.imputers = ["missforest", "dae"]
    cfg.degrees = [0.2]
    cfg.repetitions = 1
    cfg.missforest_trees, cfg.missforest_max_depth = 3, 3
    cfg.dae_epochs, cfg.dae_patience = 6, 3
    report = run_pipeline(cfg)
    assert report.failures == []
    units = report.timings["units"]
    records = {u["cells"][0]["method"]: u for u in units if u["unit"] == "impute"}
    assert all("diagnostics" not in u for u in units if u["unit"] != "impute")
    (forest,) = records["missforest"]["diagnostics"]
    assert 1 <= forest["sweeps_run"] <= cfg.missforest_max_sweeps
    assert len(forest["convergence_trace"]) >= forest["sweeps_run"]
    (dae,) = records["dae"]["diagnostics"]
    assert len(dae["convergence_trace"]) == dae["sweeps_run"] <= cfg.dae_epochs
    assert 1 <= dae["best_epoch"] <= dae["sweeps_run"]
    assert dae["convergence_trace"][dae["best_epoch"] - 1] == min(dae["convergence_trace"])
    classifiers = [r for u in units if u["unit"] == "classify" for r in u["classifiers"]]
    assert [r["method"] for r in classifiers] == [BASELINE_METHOD, "missforest", "dae"]
    assert all("classifiers" not in u for u in units if u["unit"] != "classify")
    for clf in classifiers:
        assert 1 <= clf["best_epoch"] <= clf["epochs_run"] <= cfg.classifier_epochs
        assert np.isfinite(clf["best_valid_loss"])
    save_report_json(report, tmp_path)
    loaded = load_report_json(tmp_path / "report.json").timings["units"]
    for name in ("diagnostics", "classifiers"):
        assert [u.get(name) for u in loaded] == [t.get(name) for t in units]


def test_pool_row_copied_from_the_reserve_fails_before_any_cell(tmp_path, monkeypatch):
    def leaky_label_pool(*args):
        pool = label_pool(*args)
        pool.x_synth[7] = pool.x_reserve[3]
        return pool

    def no_cells(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("misslab.pipeline.label_pool", leaky_label_pool)
    monkeypatch.setattr("misslab.pipeline.run_cells", no_cells)
    with pytest.raises(ValueError, match="leakage: .* testing set"):
        run_pipeline(desk_config(tmp_path / "leaky"))


def test_pool_row_equal_to_a_source_row_is_leakage():
    rng = np.random.default_rng(0)
    pool = LabeledPool(x_synth=rng.random((30, 4)), y_synth=np.zeros(30),
                       x_reserve=rng.random((10, 4)), y_reserve=np.zeros(10),
                       components=np.zeros(30, dtype=int), history=[])
    src = prepare_source(ExperimentConfig(builtin_rows=20, builtin_features=4))
    src.x_orig = rng.random((20, 4))
    check_no_leakage(pool, src)
    src.x_orig[5] = pool.x_synth[29]
    with pytest.raises(ValueError, match="original set"):
        check_no_leakage(pool, src)
    # Byte for byte: a signed zero makes a different row.
    pool.x_synth[29, 0] = 0.0
    src.x_orig[5, 0] = -0.0
    check_no_leakage(pool, src)


def test_discrete_and_clipped_rows_may_repeat_by_chance(tmp_path):
    # Binary and integer columns repeat whole rows across tables by chance,
    # as do continuous cells clipped to a bound; neither is leakage.
    rng = np.random.default_rng(1)
    n = 300
    table = np.column_stack([rng.integers(0, 2, size=(n, 3)), rng.integers(20, 25, n),
                             rng.integers(0, 2, n)])
    np.savetxt(tmp_path / "data.csv", table, fmt="%d", delimiter=",",
               header="a,b,c,age,y", comments="")
    (tmp_path / "schema.csv").write_text(
        "name,kind,lower,upper,missing_codes\n"
        + "".join(f"{c},binary,0,1,\n" for c in "abc") + "age,integer,20,24,\n"
        + "y,binary,0,1,\n",
        encoding="utf-8")
    cfg = desk_config(tmp_path / "out")
    cfg.input_kind, cfg.input_target = "csv", "y"
    cfg.input_path, cfg.schema_path = str(tmp_path / "data.csv"), str(tmp_path / "schema.csv")
    cfg.gmm_kinds, cfg.imputers, cfg.repetitions = ["diagonal"], ["mean"], 1
    src = prepare_source(cfg)
    pool = label_pool(cfg, src, fit_generator(cfg, src)[0])
    shared = {r.tobytes() for r in pool.x_synth} & {r.tobytes() for r in src.x_orig}
    assert shared                       # whole rows do repeat
    check_no_leakage(pool, src)
    # One continuous column clipped at its bounds: its extreme rows repeat.
    cfg = desk_config(tmp_path / "out1")
    cfg.builtin_features = 1
    src = prepare_source(cfg)
    pool = label_pool(cfg, src, fit_generator(cfg, src)[0])
    assert {r.tobytes() for r in pool.x_synth} & {r.tobytes() for r in src.x_orig}
    check_no_leakage(pool, src)


def test_unwritable_output_fails_before_compute(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    cfg = desk_config(blocker / "nested")
    with pytest.raises(ConfigError, match="not writable"):
        run_pipeline(cfg)

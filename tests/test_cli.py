"""Subcommand round trips and exit codes, driven through main()."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from misslab.cli import main
from misslab.data import load_csv, save_csv
from misslab.imputers import run_imputer
from misslab.pipeline import ExperimentConfig, _imputer_spec
from misslab._rng import child_seed, rng_for


def small_csv(tmp_path, rows=40, cols=3, seed=1):
    path = tmp_path / "data.csv"
    matrix = rng_for(seed, "cli-data").uniform(0.0, 10.0, size=(rows, cols))
    save_csv(path, matrix, [f"c{j}" for j in range(cols)])
    return path, matrix


def write_cfg(tmp_path, out_dir, extra="", name="run.cfg"):
    text = "\n".join([
        "builtin.rows = 200",
        "builtin.features = 4",
        "builtin.components = 2",
        "gmm.k_range = 2",
        "gmm.kinds = spherical",
        "gmm.restarts = 1",
        "gmm.max_iter = 60",
        "synth.n = 150",
        "synth.reserve = 40",
        "missing.degrees = 0.2",
        "imputers = mean",
        "repetitions = 1",
        "copies = 1",
        "classifier.hidden = 6",
        "classifier.epochs = 6",
        "classifier.patience = 6",
        "classifier.batch = 32",
        "classifier.lr = 0.05",
        "generator.epochs = 6",
        "generator.patience = 6",
        "clusters = 2",
        "seed = 5",
        f"output = {out_dir}",
        extra,
    ])
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# induce / impute / evaluate round trip
# ---------------------------------------------------------------------------

def test_induce_impute_evaluate_round_trip(tmp_path, capsys):
    data_path, matrix = small_csv(tmp_path)
    stem = str(tmp_path / "holes")
    assert main(["induce", "--input", str(data_path), "--out", stem,
                 "--scheme", "mcar", "--degree", "0.3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "masked" in out and f"{stem}.holed.csv" in out
    holed = load_csv(f"{stem}.holed.csv").features
    mask = load_csv(f"{stem}.mask.csv").features
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert np.array_equal(np.isnan(holed), mask == 1.0)
    assert np.array_equal(holed[mask == 0.0], matrix[mask == 0.0])

    istem = str(tmp_path / "filled")
    assert main(["impute", "--method", "mean", "--input", f"{stem}.holed.csv",
                 "--out", istem, "--seed", "3"]) == 0
    imputed_path = f"{istem}.imputed.mean.0.csv"
    assert os.path.exists(imputed_path)
    assert os.path.exists(f"{istem}.imputed.mean.diagnostics.json")
    imputed = load_csv(imputed_path).features
    assert not np.isnan(imputed).any()
    assert np.array_equal(imputed[mask == 0.0], matrix[mask == 0.0])

    capsys.readouterr()                # drop the impute status line
    metrics_path = tmp_path / "metrics.json"
    assert main(["evaluate", "--truth", str(data_path), "--imputed",
                 imputed_path, "--mask", f"{stem}.mask.csv",
                 "--out", str(metrics_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert printed == saved
    assert set(saved) >= {"rmse", "r2", "mape"}
    assert saved["rmse"] >= 0.0


def test_induce_mar_skips_driver_column(tmp_path):
    data_path, _ = small_csv(tmp_path, rows=80)
    stem = str(tmp_path / "mar")
    assert main(["induce", "--input", str(data_path), "--out", stem,
                 "--scheme", "mar", "--degree", "0.2", "--seed", "2",
                 "--drivers", "0"]) == 0
    mask = load_csv(f"{stem}.mask.csv").features
    assert mask[:, 0].sum() == 0.0
    assert mask[:, 1:].sum() > 0.0


def test_impute_multiple_copies_naming(tmp_path):
    data_path, _ = small_csv(tmp_path)
    stem = str(tmp_path / "h")
    main(["induce", "--input", str(data_path), "--out", stem,
          "--degree", "0.2", "--seed", "1"])
    istem = str(tmp_path / "m")
    assert main(["impute", "--method", "mice", "--input", f"{stem}.holed.csv",
                 "--out", istem, "--copies", "2", "--sweeps", "3",
                 "--seed", "4"]) == 0
    assert os.path.exists(f"{istem}.imputed.mice.0.csv")
    assert os.path.exists(f"{istem}.imputed.mice.1.csv")
    assert not os.path.exists(f"{istem}.imputed.mice.2.csv")


@pytest.mark.parametrize("flags, message", [
    (["--method", "mice", "--sweeps", "-1"], "mice.sweeps must lie in [0, inf), got -1"),
    (["--method", "mice", "--ridge", "-1"], "mice.ridge must lie in [0, inf), got -1.0"),
    (["--method", "mice", "--ridge", "nan"], "mice.ridge must lie in [0, inf), got nan"),
    (["--method", "mice", "--ridge", "inf"], "mice.ridge must lie in [0, inf), got inf"),
    (["--method", "missforest", "--max-sweeps", "-2"],
     "missforest.max_sweeps must lie in [0, inf), got -2"),
    # A flag its method does not read is still checked against its key.
    (["--method", "mean", "--copies", "0"], "copies must lie in [1, inf), got 0"),
    (["--method", "knn", "--sweeps", "-3", "--copies", "-5"],
     "copies must lie in [1, inf), got -5"),
], ids=["mice-sweeps", "mice-ridge", "mice-ridge-nan", "mice-ridge-inf",
        "missforest-max-sweeps", "mean-copies", "knn-sweeps-copies"])
def test_impute_out_of_range_flag_exits_one_before_writing(tmp_path, capsys, flags,
                                                           message):
    data_path, _ = small_csv(tmp_path)
    stem = str(tmp_path / "h")
    main(["induce", "--input", str(data_path), "--out", stem, "--degree", "0.2"])
    capsys.readouterr()
    assert main(["impute", "--input", f"{stem}.holed.csv",
                 "--out", str(tmp_path / "m"), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("m.*"))


def test_impute_dae_trains_under_the_config_defaults(tmp_path):
    data_path = tmp_path / "scaled.csv"         # the autoencoder reads [0, 1] data
    save_csv(data_path, rng_for(2, "cli-dae").uniform(size=(60, 3)), ["c0", "c1", "c2"])
    stem = str(tmp_path / "h")
    main(["induce", "--input", str(data_path), "--out", stem, "--degree", "0.2"])
    assert main(["impute", "--method", "dae", "--input", f"{stem}.holed.csv",
                 "--out", str(tmp_path / "m"), "--seed", "3"]) == 0
    holed = load_csv(f"{stem}.holed.csv").features
    expected = run_imputer(holed, _imputer_spec(ExperimentConfig(), "dae", 3))
    written = load_csv(tmp_path / "m.imputed.dae.0.csv").features
    assert np.array_equal(written, expected.copies[0])


@pytest.mark.parametrize("cell, shown", [("0.5", "0.5"), ("2", "2.0"), ("", "empty")],
                         ids=["half", "two", "empty"])
def test_evaluate_bad_mask_cell_exits_one_naming_the_place(tmp_path, capsys, cell,
                                                            shown):
    table = tmp_path / "t.csv"
    table.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    mask = tmp_path / "t.mask.csv"
    mask.write_text(f"a,b\n0,1\n1,{cell}\n", encoding="utf-8")
    assert main(["evaluate", "--truth", str(table), "--imputed", str(table),
                 "--mask", str(mask)]) == 1
    assert capsys.readouterr().err == (f"error: {mask}: mask cell at row 2, column "
                                       f"'b' is {shown}, expected 0 or 1\n")


@pytest.mark.parametrize("which", ["imputed", "mask"])
def test_evaluate_header_unlike_the_truth_exits_one_naming_the_file(tmp_path, capsys,
                                                                     which):
    files = {"truth": "a,b\n1,2\n3,4\n", "imputed": "a,b\n1,2\n3,4\n",
             "mask": "a,b\n0,1\n1,0\n"}
    files[which] = files[which].replace("a,b", "x,y")
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    assert main(["evaluate", *(arg for name in files
                               for arg in (f"--{name}", str(tmp_path / f"{name}.csv")))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / which}.csv: header mismatch")


def test_evaluate_missing_input_is_validation_error(tmp_path, capsys):
    code = main(["evaluate", "--truth", str(tmp_path / "nope.csv"),
                 "--imputed", str(tmp_path / "nope.csv"),
                 "--mask", str(tmp_path / "nope.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text, where", [
    ("c0,c1,c2\n1,2,3\n4,5\n", "row 2 has 2 fields, expected 3"),
    ("c0,c1,c2\n1,2,3\n4,x,6\n", "row 2, column 'c1'"),
    ("", "file is empty"),
], ids=["ragged-row", "text-cell", "empty-file"])
def test_induce_bad_csv_exits_one_naming_the_place(tmp_path, capsys, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["induce", "--input", str(path), "--out", str(tmp_path / "h"),
                 "--degree", "0.2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and where in err


# ---------------------------------------------------------------------------
# genfit / synth
# ---------------------------------------------------------------------------

def test_genfit_then_synth(tmp_path, capsys):
    out = tmp_path / "stage"
    cfg = write_cfg(tmp_path, out)
    assert main(["genfit", "--config", str(cfg)]) == 0
    assert "selected k=2" in capsys.readouterr().out
    for name in ("gmm_search.csv", "generator.npz", "scaler.npz",
                 "clean_scaled.csv", "meta.json"):
        assert (out / name).exists(), name
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    assert meta["selected_k"] == 2
    assert meta["selected_kind"] == "spherical"
    assert len(meta["names"]) == 4

    assert main(["synth", "--config", str(cfg)]) == 0
    synth = (out / "synthetic.csv").read_text(encoding="utf-8").splitlines()
    assert len(synth) == 1 + 150
    assert synth[0] == "c0,c1,c2,c3,label".replace("c0,c1,c2,c3",
                                                   ",".join(meta["names"]))
    reserved = (out / "reserved.csv").read_text(encoding="utf-8").splitlines()
    assert len(reserved) == 1 + 40
    history = (out / "target_history.csv").read_text(encoding="utf-8").splitlines()
    assert history[0] == "epoch,train_loss,valid_loss,train_acc,valid_acc"
    counts = (out / "generator_components.csv").read_text(encoding="utf-8").splitlines()
    assert counts[0] == "component,count"
    assert sum(int(r.split(",")[1]) for r in counts[1:]) == 150


def test_synth_artifacts_match_run(tmp_path):
    staged, full = tmp_path / "staged", tmp_path / "full"
    staged_cfg = str(write_cfg(tmp_path, staged, name="staged.cfg"))
    assert main(["genfit", "--config", staged_cfg]) == 0
    assert main(["synth", "--config", staged_cfg]) == 0
    assert main(["run", "--config", str(write_cfg(tmp_path, full))]) == 0
    for name in ("synthetic.csv", "reserved.csv", "target_history.csv",
                 "generator_components.csv", "gmm_search.csv"):
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name


def test_synth_without_genfit_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tmp_path / "empty-stage")
    assert main(["synth", "--config", str(cfg)]) == 1
    assert "run genfit first" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run / report
# ---------------------------------------------------------------------------

def test_run_and_report_reemission(tmp_path, capsys):
    out = tmp_path / "full"
    cfg = write_cfg(tmp_path, out)
    assert main(["run", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    assert "0 failures" in stdout
    for name in ("accuracy.csv", "loss.csv", "clustering.csv", "direct.csv",
                 "manifest.json", "report.json"):
        assert (out / name).exists(), name

    other = tmp_path / "reemitted"
    assert main(["report", str(out), "--out", str(other)]) == 0
    assert (other / "accuracy.csv").read_bytes() == (out / "accuracy.csv").read_bytes()
    assert (other / "clustering.csv").read_bytes() == (out / "clustering.csv").read_bytes()


def test_report_requires_report_json(tmp_path, capsys):
    os.makedirs(tmp_path / "bare")
    assert main(["report", str(tmp_path / "bare")]) == 1
    assert "no report.json" in capsys.readouterr().err


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tmp_path / "o", extra="bogus.key = 1")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown key" in err


def test_unknown_imputer_exits_one_before_any_work(tmp_path, capsys):
    out = tmp_path / "never"
    cfg = write_cfg(tmp_path, out, extra="imputers = mean, mcie")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'mcie'" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", ["knn.k = 0", "copies = 0", "clusters = 1",
                                   "clusters = 2, 500",
                                   "missforest.max_sweeps = -1",
                                   "missforest.trees = 0",
                                   "missforest.max_depth = -1",
                                   "missforest.min_leaf = 0",
                                   "resample.smote_k = 0",
                                   "resample.enn_k = 0",
                                   "resample.ratio = -1",
                                   "resample.ratio = 1.5",
                                   "builtin.rows = 1",
                                   "builtin.components = 0",
                                   "builtin.features = 0",
                                   "gmm.k_range = 0",
                                   "gmm.max_iter = 0",
                                   "gmm.restarts = 0",
                                   "mice.sweeps = -1",
                                   "mice.ridge = -1",
                                   "clustering.degree = 5",
                                   "classifier.epochs = 0\nclassifier.patience = 0",
                                   "generator.epochs = 0\ngenerator.patience = 0",
                                   "dae.epochs = 0\ndae.patience = 0",
                                   "gmm.kinds =", "gmm.k_range =",
                                   "classifier.patience = -3",
                                   "generator.patience = -1",
                                   "dae.patience = -2"])
def test_out_of_range_number_exits_one_before_any_work(tmp_path, capsys, extra):
    out = tmp_path / "never"
    cfg = write_cfg(tmp_path, out, extra=extra)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and extra.split(" =")[0] in err
    assert not out.exists()


@pytest.mark.parametrize("extra, key", [
    ("classifier.patience = 7", "classifier.patience"),
    ("generator.patience = 7", "generator.patience"),
    ("dae.epochs = 6\ndae.patience = 7", "dae.patience"),
    ("missing.scheme = mar\nmissing.mar_drivers = 9", "missing.mar_drivers"),
    ("classifier.lr = 0", "classifier.lr"),
    ("classifier.batch = 0", "classifier.batch"),
    ("classifier.dropout = 1.0", "classifier.dropout"),
    ("classifier.hidden = 20, 0", "classifier.hidden"),
    ("dae.corruption = 0", "dae.corruption"),
    ("dae.lr = 0", "dae.lr"),
    ("dae.batch = 0", "dae.batch"),
], ids=["classifier-patience", "generator-patience", "dae-patience", "mar-driver",
        "classifier-lr", "classifier-batch", "classifier-dropout", "classifier-hidden",
        "dae-corruption", "dae-lr", "dae-batch"])
def test_late_failing_value_exits_one_before_any_work(tmp_path, capsys, extra, key):
    out = tmp_path / "never"
    cfg = write_cfg(tmp_path, out, extra=extra)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def csv_source(tmp_path, schema_text=None):
    """A 3-feature CSV source with a 0/1 `label` column, plus config lines
    reading it (and the schema file, when given)."""
    rng = rng_for(3, "cli-csv")
    x = rng.uniform(0.0, 10.0, size=(120, 3))
    label = (x[:, 0] > 5.0).astype(float)
    data = tmp_path / "source.csv"
    save_csv(data, np.column_stack([x, label]), ["a", "b", "c", "label"])
    lines = ["input.kind = csv", f"input.path = {data}", "input.target = label"]
    if schema_text is not None:
        schema = tmp_path / "schema.csv"
        schema.write_text(schema_text, encoding="utf-8")
        lines.append(f"input.schema = {schema}")
    return "\n".join(lines)


def test_csv_mar_driver_outside_the_table_exits_one_before_any_output(tmp_path, capsys):
    out = tmp_path / "csv-run"
    extra = csv_source(tmp_path) + "\nmissing.scheme = mar\nmissing.mar_drivers = 3"
    assert main(["run", "--config", str(write_cfg(tmp_path, out, extra=extra))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: missing.mar_drivers") and "3 columns" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("schema_text, where", [
    ("column,kind\na,continuous\n", "schema header has no 'name' column"),
    ("name,kind,lower,upper\na,continuous,abc,1\n", "row 1, column 'lower': 'abc'"),
], ids=["no-name-column", "bad-bound"])
def test_bad_schema_file_exits_one_naming_the_place(tmp_path, capsys, schema_text, where):
    extra = csv_source(tmp_path, schema_text)
    cfg = write_cfg(tmp_path, tmp_path / "o", extra=extra)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'schema.csv'}: ") and where in err


def test_run_on_csv_with_schema(tmp_path):
    schema = ("name,kind,lower,upper,missing_codes\n"
              "a,continuous,0,10,\nb,continuous,,,\nc,continuous,0,10,99\n"
              "label,binary,0,1,\n")
    out = tmp_path / "csv-run"
    cfg = write_cfg(tmp_path, out, extra=csv_source(tmp_path, schema))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (out / "accuracy.csv").exists()


def test_leaked_pool_row_exits_one_before_any_cell(tmp_path, capsys, monkeypatch):
    from misslab import pipeline
    label_pool = pipeline.label_pool

    def leaky_label_pool(*args):
        pool = label_pool(*args)
        pool.x_synth[0] = pool.x_reserve[0]
        return pool

    def no_cells(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("misslab.pipeline.label_pool", leaky_label_pool)
    monkeypatch.setattr("misslab.pipeline.run_cells", no_cells)
    out = tmp_path / "leaky"
    assert main(["run", "--config", str(write_cfg(tmp_path, out))]) == 1
    err = capsys.readouterr().err
    assert err == "error: leakage: a pool row is also a row of the testing set\n"
    assert not (out / "accuracy.csv").exists()


def test_cell_failures_exit_two(tmp_path, capsys, monkeypatch):
    # Every clustering cell fails, the classification grid still completes,
    # and the run reports partial results.
    def broken_kmeans(*args, **kwargs):
        raise ValueError("injected k-means fault")

    monkeypatch.setattr("misslab.pipeline.fit_kmeans", broken_kmeans)
    out = tmp_path / "partial"
    cfg = write_cfg(tmp_path, out)
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "FAILED" in captured.err and "[cluster]" in captured.err
    assert (out / "accuracy.csv").exists()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["failures"]
    assert all(f["stage"] == "cluster" for f in report["failures"])
    assert report["cells"]
    first = report["failures"][0]
    assert first["seed"] == child_seed(5, "cluster", "mean", 2)
    assert first["traceback"][-1] == "ValueError: injected k-means fault"


def test_lost_worker_units_rerun_inline(tmp_path, monkeypatch):
    # The worker running cell (mean, 0.2, rep 1) dies. That cell and every
    # unit after it run again in the main process, so the run loses no row
    # and its tables match those of a one-process run.
    from misslab import pipeline
    parent, classify = os.getpid(), pipeline.classify

    def dying_classify(cfg, features, method, degree, rep, eval_sets):
        if (method, rep) == ("mean", 1) and os.getpid() != parent:
            os._exit(3)
        return classify(cfg, features, method, degree, rep, eval_sets)

    monkeypatch.setattr("misslab.pipeline.classify", dying_classify)
    tables = {}
    for workers in (2, 1):
        monkeypatch.setattr("misslab.pipeline._usable_cores", lambda: workers)
        out = tmp_path / f"w{workers}"
        cfg = write_cfg(tmp_path, out, extra="repetitions = 2", name=f"w{workers}.cfg")
        assert main(["run", "--config", str(cfg)]) == 0
        tables[workers] = {name: (out / name).read_bytes() for name in
                           ("accuracy.csv", "direct.csv", "clustering.csv",
                            "silhouette_samples.csv")}
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["manifest"]["workers"] == workers
        assert report["failures"] == []
    units = json.loads((tmp_path / "w2" / "report.json").read_text(
        encoding="utf-8"))["timings"]["units"]
    lost = next(u for u in units if (u["method"], u.get("repetition")) == ("mean", 1))
    assert lost["lost_worker"].startswith("BrokenProcessPool")
    assert lost["pid"] == parent
    assert tables[2] == tables[1]


def test_cli_import_leaves_scipy_linalg_out():
    # Only the full and tied mixture kinds need scipy.linalg; they import it.
    # logsumexp, expit and bisect are written in misslab itself.
    heavy = ("scipy.special", "scipy.optimize", "scipy.linalg")
    code = f"import sys, misslab.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert res.stdout.strip() == "[]"

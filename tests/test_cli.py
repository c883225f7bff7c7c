"""Subcommand round trips and exit codes, driven through main()."""

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("flags, message", [
    (["--degree", "0"], "missing.degrees must lie in (0, 1), got 0.0"),
    (["--degree", "1"], "missing.degrees must lie in (0, 1), got 1.0"),
    (["--degree", "nan"], "missing.degrees must lie in (0, 1), got nan"),
    (["--degree", "0.2", "--scheme", "mar", "--drivers", "0,0"],
     "missing.mar_drivers must not repeat a value, got 0 twice"),
    # Checked against the table's 3 columns, not builtin.features.
    (["--degree", "0.2", "--scheme", "mar", "--drivers", "3"],
     "missing.mar_drivers: driver column out of range for 3 columns: [3]"),
    (["--degree", "0.2", "--scheme", "mar"],
     "missing.scheme=mar requires missing.mar_drivers"),
    (["--degree", "0.2", "--scheme", "mar", "--drivers", "x"],
     "invalid literal for int() with base 10: 'x'"),
    (["--degree", "0.2", "--scheme", "mcr"],
     "missing.scheme must be one of MCAR, MAR, MNAR, got 'mcr'"),
], ids=["degree-0", "degree-1", "degree-nan", "repeated-driver", "driver-outside",
        "mar-no-drivers", "text-driver", "unknown-scheme"])
def test_induce_bad_flag_exits_one_before_writing(tmp_path, capsys, flags, message):
    data_path, _ = small_csv(tmp_path)
    assert main(["induce", "--input", str(data_path), "--out", str(tmp_path / "h"),
                 *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("h.*"))


@pytest.mark.parametrize("scheme", ["MCAR", "Mar", "mnar"])
def test_induce_takes_the_scheme_in_any_case(tmp_path, scheme):
    data_path, _ = small_csv(tmp_path)
    assert main(["induce", "--input", str(data_path), "--out", str(tmp_path / "h"),
                 "--scheme", scheme, "--degree", "0.3", "--drivers", "0"]) == 0
    lower = str(tmp_path / "lower")
    main(["induce", "--input", str(data_path), "--out", lower,
          "--scheme", scheme.lower(), "--degree", "0.3", "--drivers", "0"])
    for suffix in (".holed.csv", ".mask.csv"):
        assert (tmp_path / f"h{suffix}").read_bytes() == Path(lower + suffix).read_bytes()


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
    ("c0,c1,c2\n", "no data rows after the header"),
], ids=["ragged-row", "text-cell", "empty-file", "header-only"])
def test_induce_bad_csv_exits_one_naming_the_place(tmp_path, capsys, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["induce", "--input", str(path), "--out", str(tmp_path / "h"),
                 "--degree", "0.2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and where in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]    # wrote nothing


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


def test_genfit_on_two_cores_writes_the_files_of_one(tmp_path, monkeypatch):
    # The 12 fits of the search run on both cores; the search table and the
    # generator keep every byte, and no helper outlives the command.
    from misslab import pipeline
    loans, lending = [], pipeline.lending

    def recorded_lending(tokens):
        with lending(tokens) as loan:
            loans.append(loan)
            yield loan

    monkeypatch.setattr(pipeline, "lending", contextlib.contextmanager(recorded_lending))
    grid = "gmm.k_range = 1, 2, 3\ngmm.kinds = spherical, diagonal\ngmm.restarts = 2"
    files = {}
    for cores in (2, 1):
        monkeypatch.setattr(pipeline, "_usable_cores", lambda: cores)
        out = tmp_path / f"c{cores}"
        assert main(["genfit", "--config", str(write_cfg(tmp_path, out, extra=grid))]) == 0
        with np.load(out / "generator.npz") as generator:
            files[cores] = {name: generator[name].tobytes() for name in generator.files}
        files[cores]["gmm_search.csv"] = (out / "gmm_search.csv").read_bytes()
    assert files[2] == files[1]
    assert files[1]["gmm_search.csv"].count(b"\n") == 1 + 6
    assert (loans[0].maps, len(loans[0].peak_rss_mb)) == (1, 1)
    assert (loans[1].maps, loans[1].peak_rss_mb) == (0, [])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_imputer_names_in_any_case_write_the_same_tables(tmp_path):
    tables = {}
    for names in ("KNN, Mean", "knn, mean"):
        out = tmp_path / names.replace(", ", "-")
        cfg = write_cfg(tmp_path, out, extra=f"imputers = {names}", name=f"{out.name}.cfg")
        assert main(["run", "--config", str(cfg)]) == 0
        tables[names] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert len(tables["knn, mean"]) == 12
    assert tables["KNN, Mean"] == tables["knn, mean"]


def unwritable(path: Path) -> Path:
    """A directory where the file `path` goes, so writing it fails."""
    path.mkdir(parents=True)
    return path


def run_blocked(tmp_path, blocked):
    return ["run", "--config", str(write_cfg(tmp_path, tmp_path / "o")),
            unwritable(tmp_path / "o" / blocked)]


def genfit_blocked(tmp_path):
    return ["genfit", "--config", str(write_cfg(tmp_path, tmp_path / "o")),
            unwritable(tmp_path / "o" / "meta.json")]


def induce_blocked(tmp_path):
    data_path, _ = small_csv(tmp_path)
    return ["induce", "--input", str(data_path), "--out", str(tmp_path / "h"),
            "--degree", "0.2", unwritable(tmp_path / "h.mask.csv")]


def impute_blocked(tmp_path):
    data_path, _ = small_csv(tmp_path)
    main(["induce", "--input", str(data_path), "--out", str(tmp_path / "h"),
          "--degree", "0.2"])
    return ["impute", "--method", "mean", "--input", str(tmp_path / "h.holed.csv"),
            "--out", str(tmp_path / "m"),
            unwritable(tmp_path / "m.imputed.mean.diagnostics.json")]


def evaluate_blocked(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    mask = tmp_path / "t.mask.csv"
    mask.write_text("a,b\n0,1\n1,0\n", encoding="utf-8")
    out = unwritable(tmp_path / "metrics.json")
    return ["evaluate", "--truth", str(table), "--imputed", str(table), "--mask",
            str(mask), "--out", str(out), out]


@pytest.mark.parametrize("command", [
    lambda tmp_path: run_blocked(tmp_path, "synthetic.csv"),
    lambda tmp_path: run_blocked(tmp_path, "accuracy.csv"),     # after every cell ran
    genfit_blocked, induce_blocked, impute_blocked, evaluate_blocked,
], ids=["run-synthetic", "run-accuracy", "genfit-meta", "induce-mask",
        "impute-diagnostics", "evaluate-out"])
def test_a_file_that_cannot_be_written_exits_one_naming_it(tmp_path, capsys, command):
    *argv, blocked = command(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A genfit stage and a run's output directory, to be copied and damaged."""
    base = tmp_path_factory.mktemp("written")
    for command, out in (("genfit", base / "stage"), ("run", base / "run")):
        assert main([command, "--config", str(write_cfg(base, out))]) == 0
    return base


def edit_json(change):
    def damage(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        change(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
    return damage


def edit_npz(change):
    def damage(path):
        with np.load(path) as data:
            arrays = dict(data)
        change(arrays)
        np.savez(path, **arrays)
    return damage


# case: (command, damaged file, damage)
DAMAGED = {
    "report-empty-object": ("report", "report.json", edit_json(lambda r: r.clear())),
    "report-not-an-object": ("report", "report.json",
                             lambda p: p.write_text("[1, 2]", encoding="utf-8")),
    "report-lacks-a-field": ("report", "report.json", edit_json(lambda r: r.pop("plot"))),
    "report-unknown-field": ("report", "report.json", edit_json(lambda r: r.update(x=1))),
    "report-cell-without-degree": ("report", "report.json",
                                   edit_json(lambda r: r["cells"][0].pop("degree"))),
    "synth-meta-not-an-object": ("synth", "meta.json",
                                 lambda p: p.write_text("[1, 2]", encoding="utf-8")),
    "synth-meta-without-schema": ("synth", "meta.json", edit_json(lambda m: m.pop("schema"))),
    "synth-scaler-truncated": ("synth", "scaler.npz",
                               lambda p: p.write_bytes(p.read_bytes()[:100])),
    "synth-generator-not-an-npz": ("synth", "generator.npz",
                                   lambda p: p.write_bytes(b"not an npz file\n")),
    "synth-generator-weights-doubled": ("synth", "generator.npz",
                                        edit_npz(lambda a: a.update(weights=2 * a["weights"]))),
    "synth-scaler-two-mins": ("synth", "scaler.npz",
                              edit_npz(lambda a: a.update(mins=a["mins"][:2]))),
}


@pytest.mark.parametrize("case", list(DAMAGED))
def test_a_damaged_run_file_exits_one_naming_it(tmp_path, written, capsys, case):
    command, name, damage = DAMAGED[case]
    out = tmp_path / "out"
    shutil.copytree(written / ("run" if command == "report" else "stage"), out)
    damage(out / name)
    argv = ["report", str(out)] if command == "report" else [
        "synth", "--config", str(write_cfg(tmp_path, out))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / name}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_report_requires_report_json(tmp_path, capsys):
    os.makedirs(tmp_path / "bare")
    assert main(["report", str(tmp_path / "bare")]) == 1
    assert "no report.json" in capsys.readouterr().err


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tmp_path / "o", extra="bogus.key = 1")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown key" in err


@pytest.mark.parametrize("argv, message", [
    (["induce", "--input", "t.csv", "--out", "h", "--degree", "abc"],
     "argument --degree: invalid float value: 'abc'"),
    (["impute", "--method", "mean", "--input", "t.csv", "--out", "h", "--k", "x"],
     "argument --k: invalid int value: 'x'"),
    (["run"], "the following arguments are required: --config"),
], ids=["induce-degree", "impute-k", "run-without-config"])
def test_usage_error_exits_one(tmp_path, capsys, monkeypatch, argv, message):
    # Exit 2 means a finished run with recorded cell failures, never a bad
    # command line.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["induce", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: misslab induce")


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
    ("missing.degrees = 0.2, 0.4, 0.2", "missing.degrees must not repeat a value, got 0.2"),
    ("imputers = mean, Mean", "imputers must not repeat a value, got mean"),
    ("clusters = 2, 2", "clusters must not repeat a value, got 2"),
    ("missing.scheme = mar\nmissing.mar_drivers = 1, 1",
     "missing.mar_drivers must not repeat a value, got 1"),
], ids=["classifier-patience", "generator-patience", "dae-patience", "mar-driver",
        "classifier-lr", "classifier-batch", "classifier-dropout", "classifier-hidden",
        "dae-corruption", "dae-lr", "dae-batch", "repeated-degree", "repeated-imputer",
        "repeated-k", "repeated-driver"])
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
    # In map 2 the worker training the stack of repetition 1 dies. Only that
    # stack runs again in the main process, and the unit after it keeps a
    # live worker, so the run loses no row and its tables match those of a
    # one-process run.
    from misslab import pipeline
    parent, classify = os.getpid(), pipeline.classify

    def dying_classify(cfg, cells, features, eval_sets):
        if ("mean", 0.2, 1) in cells and os.getpid() != parent:
            os._exit(3)
        return classify(cfg, cells, features, eval_sets)

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
    at = next(i for i, u in enumerate(units) if u["unit"] == "classify" and
              {"method": "mean", "degree": 0.2, "repetition": 1} in u["cells"])
    assert units[at]["lost_worker"].endswith("exited with status 3")
    assert [u["unit"] for u in units[at:]] == ["classify", "cluster"]
    assert [u["pid"] == parent for u in units[at:]] == [True, False]
    assert parent not in {u["pid"] for u in units[:3]}       # map 1 ran in workers
    assert tables[2] == tables[1]


ITERATIVE_LIKE = "\n".join([
    "imputers = mice, missforest, dae", "copies = 2", "missing.scheme = mar",
    "missing.mar_drivers = 0, 1", "missing.degrees = 0.3", "clustering.degree = 0.3",
    "missforest.trees = 6", "missforest.max_depth = 4", "dae.epochs = 4",
    "dae.patience = 2"])


def test_run_with_borrowed_cores_writes_the_tables_of_a_one_core_run(tmp_path, monkeypatch):
    # Five cores for four units: one core is always free, so every forest
    # of the missforest cell borrows it. The tables keep every byte, the
    # cell's record counts its helper, and no helper outlives the run.
    tables, reports = {}, {}
    for cores in (5, 1):
        monkeypatch.setattr("misslab.pipeline._usable_cores", lambda: cores)
        out = tmp_path / f"c{cores}"
        cfg = write_cfg(tmp_path, out, extra=ITERATIVE_LIKE, name=f"c{cores}.cfg")
        assert main(["run", "--config", str(cfg)]) == 0
        tables[cores] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        reports[cores] = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(tables[1]) == 12 and tables[5] == tables[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    timings = reports[5]["timings"]
    records = {u["cells"][0]["method"]: u for u in timings["units"] if u["unit"] == "impute"}
    forest = records["missforest"]
    sweeps = len(forest["diagnostics"][0]["convergence_trace"])
    assert forest["helper_forests"] == 2 * sweeps     # two holed columns per sweep
    # One helper per core it found free: at least the spare one, at most all
    # but its own.
    assert forest["helper_cpu_s"] > 0.0 and 1 <= len(forest["helper_peak_rss_mb"]) <= 4
    assert [records[m]["helper_forests"] for m in ("mice", "dae")] == [0, 0]
    workers = {}
    for unit in timings["units"]:
        workers[unit["pid"]] = max(workers.get(unit["pid"], 0.0), unit["peak_rss_mb"])
    assert timings["summed_peak_rss_mb"] > sum(workers.values()) + sum(
        forest["helper_peak_rss_mb"])
    one_core = {u["cells"][0]["method"]: u for u in reports[1]["timings"]["units"]
                if u["unit"] == "impute"}
    assert one_core["missforest"]["helper_forests"] == 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_worker_killed_while_its_helper_grows_leaves_no_process(tmp_path, monkeypatch):
    # The worker of the missforest cell is killed, with no cleanup, while
    # its helper grows a share of trees that would take a minute. The helper
    # dies with it at once, the run sees the loss, the cell runs again in
    # the main process, and the tables are those of a one-core run.
    import time

    from misslab import forest
    parent = os.getpid()
    pids = tmp_path / "helpers"
    monkeypatch.setattr(sys.modules[__name__], "_DYING", (parent, forest._grow_trees, pids))
    monkeypatch.setattr(forest, "_grow_trees", _dying_grow)
    tables = {}
    for cores in (5, 1):
        monkeypatch.setattr("misslab.pipeline._usable_cores", lambda: cores)
        out = tmp_path / f"c{cores}"
        cfg = write_cfg(tmp_path, out, extra=ITERATIVE_LIKE, name=f"c{cores}.cfg")
        started = time.monotonic()
        assert main(["run", "--config", str(cfg)]) == 0
        assert time.monotonic() - started < 30      # no wait on the helper's minute
        tables[cores] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        if cores == 5:
            helper = int(pids.read_text())
            assert not _alive(helper)
            units = json.loads((out / "report.json").read_text(encoding="utf-8"))
            forest_unit = next(u for u in units["timings"]["units"] if u["unit"] == "impute"
                               and u["cells"][0]["method"] == "missforest")
            assert forest_unit["lost_worker"].endswith("killed by SIGKILL")
            assert forest_unit["pid"] == parent
    assert len(tables[1]) == 12 and tables[5] == tables[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_worker_killed_holding_both_tokens_gives_them_back(tmp_path, monkeypatch):
    # On two cores a missforest cell and the baseline classifiers fill map 1.
    # Once the classifiers are done, the cell's forest borrows the idle
    # worker's core, and its worker is killed holding both tokens. They come
    # back when it is reaped, so map 2's workers get a core each: the run
    # ends in time, in workers, with the tables of a one-core run.
    import signal
    import time

    from misslab import forest
    parent = os.getpid()
    monkeypatch.setattr(sys.modules[__name__], "_DYING",
                        (parent, forest._grow_trees, tmp_path / "helpers"))
    monkeypatch.setattr(forest, "_grow_trees", _dying_grow)

    def hung(signum, frame):
        raise TimeoutError("the run still waits")

    tables, previous = {}, signal.signal(signal.SIGALRM, hung)
    try:
        for cores in (2, 1):
            monkeypatch.setattr("misslab.pipeline._usable_cores", lambda: cores)
            out = tmp_path / f"c{cores}"
            cfg = write_cfg(tmp_path, out, name=f"c{cores}.cfg",
                            extra=ITERATIVE_LIKE.replace("mice, missforest, dae", "missforest"))
            started = time.monotonic()
            signal.alarm(60)
            assert main(["run", "--config", str(cfg)]) == 0
            assert time.monotonic() - started < 30
            tables[cores] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    units = json.loads((tmp_path / "c2" / "report.json").read_text(
        encoding="utf-8"))["timings"]["units"]
    assert units[1]["lost_worker"].endswith("killed by SIGKILL") and units[1]["pid"] == parent
    assert [u["unit"] for u in units[2:]] == ["classify", "cluster"]
    assert parent not in {u["pid"] for u in units[2:]}
    assert len(tables[1]) == 12 and tables[2] == tables[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2, reason="reads /proc, 2 workers")
def test_a_killed_run_leaves_no_worker(tmp_path):
    # A run killed with no cleanup during its cells, whose classifiers train
    # for seconds, takes both workers with it. One mixture fit forks no
    # search helper, so the run's first two children are its workers.
    import signal
    import time

    cfg = write_cfg(tmp_path, tmp_path / "out", extra="classifier.epochs = 20000\n"
                    "classifier.patience = 20000")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH")) if p))
    run = subprocess.Popen([sys.executable, "-m", "misslab.cli", "run", "--config", str(cfg)],
                           env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and run.poll() is None and time.monotonic() < deadline:
            with open(f"/proc/{run.pid}/task/{run.pid}/children", encoding="ascii") as kids:
                workers = [int(pid) for pid in kids.read().split()]
            time.sleep(0.01)
        assert len(workers) == 2
        run.send_signal(signal.SIGKILL)
        run.wait(10)
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        run.kill()
        run.wait(10)
        for pid in filter(_alive, workers):       # a worker the run left behind
            os.kill(pid, signal.SIGKILL)


_DYING = None      # (the test's pid, the real grower, the helper pid file)


def _dying_grow(x, y, spec, indices):
    """`forest._grow_trees` for the test above; module-level, so that it
    pickles. A helper records its pid and sleeps; a worker that lent waits
    for that record, then kills itself."""
    import signal
    import time

    parent, grow, pids = _DYING
    if indices[0] > 0:                                      # in a helper
        pids.write_text(f"{os.getpid()}\n")
        time.sleep(60)
    elif os.getpid() != parent and len(indices) < spec.n_trees:     # a worker that lent
        deadline = time.monotonic() + 10
        while not pids.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    return grow(x, y, spec, indices)


def test_impute_borrows_spare_cores_and_writes_the_same_files(tmp_path, monkeypatch):
    from misslab import cli
    data_path, _ = small_csv(tmp_path, rows=80, cols=4)
    stem = str(tmp_path / "h")
    assert main(["induce", "--input", str(data_path), "--out", stem,
                 "--degree", "0.3", "--seed", "1"]) == 0
    loans, lending = [], cli.lending

    def recorded_lending(tokens):
        with lending(tokens) as loan:
            loans.append(loan)
            yield loan

    monkeypatch.setattr(cli, "lending", contextlib.contextmanager(recorded_lending))
    files = {}
    for cores in (3, 1):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        out = tmp_path / f"c{cores}"
        out.mkdir()
        assert main(["impute", "--method", "missforest", "--input", f"{stem}.holed.csv",
                     "--out", str(out / "t"), "--seed", "4"]) == 0
        files[cores] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(files[1]) == 2 and files[3] == files[1]
    assert loans[0].maps > 0 and len(loans[0].peak_rss_mb) == 2
    assert (loans[1].maps, loans[1].peak_rss_mb) == (0, [])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_import_leaves_scipy_linalg_out():
    # Only the full and tied mixture kinds need scipy.linalg; they import it.
    # logsumexp, expit and bisect are written in misslab itself. scipy (the
    # manifest's version) and tempfile are imported only by `run`, and no
    # module imports concurrent.futures; a module that the interpreter loaded
    # at start-up does not count.
    heavy = ("scipy", "scipy.special", "scipy.optimize", "scipy.linalg", "tempfile",
             "concurrent.futures")
    code = ("import sys; before = set(sys.modules); import misslab.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules and m not in before])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert res.stdout.strip() == "[]"

"""Config-driven experiment runner.

A run executes: ingest and clean, min-max scale, mixture fit and synthetic
sampling, target-generator labeling, missingness induction per degree,
every imputer per degree and repetition, classifier/clustering/direct
evaluation, and CSV report emission. Every stage draws from seed streams
derived from one master seed, so a run is a pure function of its config. The
classification and clustering cells run in forked worker processes, one per
usable core, and are merged in one fixed order, so the worker count moves no
result.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import multiprocessing
import os
import resource
import time
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from ._rng import child_seed, rng_for
from .cluster import assign_kmeans, fit_kmeans
from .data import (ColumnSchema, Dataset, drop_incomplete_rows, extract_target,
                   fit_minmax, from_matrix, load_csv, load_schema_file, save_csv,
                   scaler_transform, split_indices, conform_to_schema)
from .forest import ForestSpec
from .gmm import (COVARIANCE_KINDS, GmmConfig, GmmModel, sample, select_generator,
                  write_search_table)
from .imputers import METHODS, DaeSpec, ImputerSpec, pool_copies, run_imputer
from .metrics import (classification_metrics, regression_metrics_masked,
                      silhouette_samples, rand_index)
from .metrics import silhouette_score  # noqa: F401 - perfbench/tracer.py wraps it
from .missingness import SCHEMES, MissingnessSpec, check_drivers, induce_missingness
from .nnet import MlpModel, MlpSpec, TrainConfig, predict_mlp, train_mlp
from .resampling import ResampleSpec, smote_enn

EVAL_COLUMNS = ("training", "validation", "synthetic", "testing", "original",
                "edited_nn")
BASELINE_METHOD = "none"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 1."""


def _key(name: str, default, alias: str = ""):
    """An ExperimentConfig field read from the dotted config key `name`
    (and from `alias`, when given)."""
    metadata = {"key": name, "alias": alias}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ExperimentConfig:
    input_kind: str = _key("input.kind", "builtin")      # builtin | csv
    input_path: str = _key("input.path", "")
    input_target: str = _key("input.target", "")
    schema_path: str = _key("input.schema", "")
    builtin_rows: int = _key("builtin.rows", 2500)
    builtin_features: int = _key("builtin.features", 10)
    builtin_components: int = _key("builtin.components", 3)
    gmm_k_range: list[int] = _key("gmm.k_range", [1, 2, 3, 4, 5])
    gmm_kinds: list[str] = _key("gmm.kinds", ["spherical", "diagonal"])
    gmm_criterion: str = _key("gmm.criterion", "bic")
    gmm_max_iter: int = _key("gmm.max_iter", 200)
    gmm_restarts: int = _key("gmm.restarts", 3)
    synth_n: int = _key("synth.n", 20000)
    reserve_n: int = _key("synth.reserve", 5000)
    scheme: str = _key("missing.scheme", "MCAR")
    degrees: list[float] = _key("missing.degrees", [0.1, 0.2, 0.3, 0.4])
    protect_target: bool = _key("missing.protect_target", True)
    mar_drivers: list[int] = _key("missing.mar_drivers", [])
    imputers: list[str] = _key("imputers", ["mean", "knn", "mice", "missforest", "dae"])
    knn_k: int = _key("knn.k", 5)
    copies: int = _key("copies", 5, alias="mice.copies")
    mice_sweeps: int = _key("mice.sweeps", 10)
    mice_noise: bool = _key("mice.noise", True)
    mice_ridge: float = _key("mice.ridge", 0.0)
    missforest_max_sweeps: int = _key("missforest.max_sweeps", 3)
    missforest_trees: int = _key("missforest.trees", 20)
    missforest_max_depth: int = _key("missforest.max_depth", 8)
    missforest_min_leaf: int = _key("missforest.min_leaf", 5)
    dae_epochs: int = _key("dae.epochs", 100)
    dae_patience: int = _key("dae.patience", 20)
    dae_corruption: float = _key("dae.corruption", 0.2)
    dae_batch: int = _key("dae.batch", 64)
    dae_lr: float = _key("dae.lr", 0.01)
    classifier_hidden: list[int] = _key("classifier.hidden", [20, 20])
    classifier_dropout: float = _key("classifier.dropout", 0.2)
    classifier_epochs: int = _key("classifier.epochs", 100)
    classifier_patience: int = _key("classifier.patience", 10)
    classifier_batch: int = _key("classifier.batch", 64)
    classifier_lr: float = _key("classifier.lr", 0.01)
    generator_epochs: int = _key("generator.epochs", 50)
    generator_patience: int = _key("generator.patience", 10)
    clusters: list[int] = _key("clusters", [2, 3, 4])
    clustering_degree: float = _key("clustering.degree", 0.3)
    repetitions: int = _key("repetitions", 10)
    smote_k: int = _key("resample.smote_k", 5)
    enn_k: int = _key("resample.enn_k", 3)
    resample_ratio: float = _key("resample.ratio", 1.0)
    master_seed: int = _key("seed", 0)
    output_dir: str = _key("output", "run-output")

    def validate(self, columns: int | None = None) -> None:
        """Raise ConfigError naming the first bad key. `columns` is the source
        table's width, which a csv input knows only once read; the MAR
        drivers are checked against it (builtin: builtin.features)."""
        if self.input_kind not in ("builtin", "csv"):
            raise ConfigError(f"input.kind must be builtin or csv, got {self.input_kind!r}")
        if self.input_kind == "csv" and not self.input_path:
            raise ConfigError("input.kind=csv requires input.path")
        if self.input_kind == "csv" and not self.input_target:
            raise ConfigError("input.kind=csv requires input.target")
        if not self.degrees or any(not 0.0 < d < 1.0 for d in self.degrees):
            raise ConfigError("missing.degrees must be a non-empty list inside (0, 1)")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if not self.imputers:
            raise ConfigError("imputers must name at least one method")
        _check_names("imputers", [m.lower() for m in self.imputers], METHODS)
        _check_names("gmm.kinds", self.gmm_kinds, COVARIANCE_KINDS)
        _check_names("gmm.criterion", [self.gmm_criterion], ("aic", "bic"))
        _check_names("missing.scheme", [self.scheme.upper()], SCHEMES)
        if not self.protect_target:
            raise ConfigError(
                "missing.protect_target=false is not runnable end to end: "
                "masked labels cannot train the classifier; induce label "
                "missingness directly through the missingness functions instead")
        if self.scheme.upper() == "MAR" and not self.mar_drivers:
            raise ConfigError("missing.scheme=mar requires missing.mar_drivers")
        if self.synth_n < 10 or self.reserve_n < 10:
            raise ConfigError("synth.n and synth.reserve must each be at least 10")
        if self.knn_k < 1:
            raise ConfigError("knn.k must be at least 1")
        if self.copies < 1:
            raise ConfigError("copies must be at least 1")
        if self.missforest_max_sweeps < 0:
            raise ConfigError("missforest.max_sweeps must be at least 0")
        if self.missforest_trees < 1:
            raise ConfigError("missforest.trees must be at least 1")
        if self.missforest_max_depth < 0:
            raise ConfigError("missforest.max_depth must be at least 0")
        if self.missforest_min_leaf < 1:
            raise ConfigError("missforest.min_leaf must be at least 1")
        if self.smote_k < 1:
            raise ConfigError("resample.smote_k must be at least 1")
        if self.enn_k < 1:
            raise ConfigError("resample.enn_k must be at least 1")
        if not 0.0 < self.resample_ratio <= 1.0:
            raise ConfigError("resample.ratio must lie in (0, 1]")
        if any(not 2 <= k <= self.synth_n for k in self.clusters):
            raise ConfigError(f"clusters must each lie in [2, synth.n={self.synth_n}]")
        if self.classifier_patience > self.classifier_epochs:
            raise ConfigError("classifier.patience must not exceed classifier.epochs")
        if self.generator_patience > self.generator_epochs:
            raise ConfigError("generator.patience must not exceed generator.epochs")
        if self.input_kind == "builtin":
            columns = self.builtin_features
        if columns is not None and self.scheme.upper() == "MAR":
            try:
                check_drivers(self.mar_drivers, columns)
            except ValueError as exc:
                raise ConfigError(f"missing.mar_drivers: {exc}") from None


def _check_names(key: str, names: list[str], known: tuple) -> None:
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ConfigError(f"{key}: unknown name(s) {unknown}; expected one of {known}")


def _parse_list(value: str, cast) -> list:
    return [cast(tok.strip()) for tok in value.split(",") if tok.strip()]


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


_SCALAR_PARSERS = {str: str, int: int, float: float, bool: _parse_bool}


def _parser(annotation):
    """Value parser for a field's type: a scalar, or a list of scalars."""
    if typing.get_origin(annotation) is list:
        item = _SCALAR_PARSERS[typing.get_args(annotation)[0]]
        return lambda value: _parse_list(value, item)
    return _SCALAR_PARSERS[annotation]


def _config_keys() -> dict:
    types = typing.get_type_hints(ExperimentConfig)
    keys = {}
    for f in dataclasses.fields(ExperimentConfig):
        entry = (f.name, _parser(types[f.name]))
        keys[f.metadata["key"]] = entry
        if f.metadata["alias"]:
            keys[f.metadata["alias"]] = entry
    return keys


# Dotted config key -> (ExperimentConfig attribute, parser), from the fields.
_CONFIG_KEYS = _config_keys()


def parse_config(path) -> ExperimentConfig:
    """Flat `key = value` file with dotted keys; see docs/config.md."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, cast = _CONFIG_KEYS[key]
        try:
            setattr(cfg, attr, cast(value))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Built-in data source (desk-scale stand-in for licensed survey files)
# ---------------------------------------------------------------------------

def builtin_source(rows: int, features: int, components: int,
                   seed: int) -> tuple[Dataset, GmmModel]:
    """Known spherical mixture plus a fixed labeling rule.

    Component means are spread widely relative to unit variances, so the
    mixture is recoverable; labels follow a linear score thresholded at its
    60th percentile (mild class imbalance for the rebalancing variant).
    """
    rng = rng_for(seed, "builtin-params")
    means = rng.uniform(0.0, 10.0, size=(components, features))
    weights = rng.dirichlet(np.full(components, 8.0))
    label_w = rng.normal(size=features)
    model = GmmModel(k=components, dims=features, weights=weights, means=means,
                     covariances=np.ones(components), kind="spherical")
    x, _ = sample(model, rows, child_seed(seed, "builtin-sample"))
    z = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-12)
    score = z @ label_w
    y = (score > np.quantile(score, 0.6)).astype(np.float64)
    return from_matrix(x, y), model


# ---------------------------------------------------------------------------
# Run report
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    manifest: dict
    cells: list[dict]              # one per (method, degree, repetition)
    direct_cells: list[dict]       # one per (method, degree, repetition, copy)
    clustering_rows: list[dict]
    failures: list[dict]
    plot: dict
    timings: dict = field(default_factory=dict)    # wall_s, peak RSS, one record per unit


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_rows(path, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc


# Plot payload key -> (file name, header) of the table it is written to.
PLOT_TABLES = {
    "component_counts": ("generator_components.csv", ["component", "count"]),
    "target_history": ("target_history.csv",
                       ["epoch", "train_loss", "valid_loss", "train_acc", "valid_acc"]),
    "silhouette_samples": ("silhouette_samples.csv",
                           ["method", "clusters", "cluster", "value"]),
}


def write_plot_tables(out_dir, plot: dict) -> list[str]:
    """Write each plot payload in `plot` as its table; returns the paths."""
    written = []
    for key, rows in plot.items():
        name, header = PLOT_TABLES[key]
        path = os.path.join(out_dir, name)
        _write_rows(path, header, rows)
        written.append(path)
    return written


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _group(rows: list[dict], *keys: str) -> dict[tuple, list[dict]]:
    """Rows bucketed by their values at `keys`, buckets in first-seen order."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    return groups


DIRECT_METRICS = ("rmse", "r2", "mape")


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write the report tables; returns the written paths."""
    if not report.cells:
        raise ValueError("report has no cells; refusing to emit empty tables")
    os.makedirs(out_dir, exist_ok=True)
    tables = {}

    by_degree = _group(report.cells, "method", "degree")
    for table in ("accuracy", "loss"):
        rows = []
        for (method, degree), cells in by_degree.items():
            stats = [_mean_std([c[f"{table}_{col}"] for c in cells]) for col in EVAL_COLUMNS]
            rows.append([method, degree * 100.0] + [m for m, _ in stats]
                        + [s for _, s in stats])
        tables[table] = (["method", "missing_pct"] + list(EVAL_COLUMNS)
                         + [f"{c}_std" for c in EVAL_COLUMNS], rows)

    tables["clustering"] = (["method", "clusters", "rand", "silhouette"],
                            [[r["method"], r["clusters"], r["rand"], r["silhouette"]]
                             for r in report.clustering_rows])

    tables["direct"] = (["method", "missing_pct", *DIRECT_METRICS], [
        [method, degree * 100.0] + [float(np.mean([c[m] for c in cells]))
                                    for m in DIRECT_METRICS]
        for (method, degree), cells in _group(report.direct_cells, "method", "degree").items()])

    # Long-format per-repetition metric rows.
    scheme = report.manifest.get("config", {}).get("missing.scheme", "MCAR")
    long_rows = [[cell["method"], scheme, cell["degree"], cell["repetition"],
                  f"{table}_{col}", cell[f"{table}_{col}"]]
                 for cell in report.cells for table in ("accuracy", "loss")
                 for col in EVAL_COLUMNS]
    for (method, degree, rep), cells in _group(report.direct_cells, "method", "degree",
                                               "repetition").items():
        long_rows += [[method, scheme, degree, rep, m, float(np.mean([c[m] for c in cells]))]
                      for m in DIRECT_METRICS]
    tables["metrics"] = (["method", "scheme", "degree", "repetition", "metric", "value"],
                         long_rows)

    written = []
    for name, (header, rows) in tables.items():
        written.append(os.path.join(out_dir, f"{name}.csv"))
        _write_rows(written[-1], header, rows)
    written += write_plot_tables(
        out_dir, {key: report.plot.get(key, []) for key in PLOT_TABLES})

    written.append(os.path.join(out_dir, "manifest.json"))
    _write_json(written[-1], report.manifest)
    return written


def save_report_json(report: RunReport, out_dir) -> str:
    path = os.path.join(out_dir, "report.json")
    _write_json(path, dataclasses.asdict(report))
    return path


def load_report_json(path) -> RunReport:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return RunReport(**payload)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _working_schema(schema: list[ColumnSchema], mins: np.ndarray,
                    maxs: np.ndarray) -> list[ColumnSchema]:
    """Substitute observed bounds where the declared ones are infinite, so
    conformed samples always scale back into [0, 1]."""
    out = []
    for j, col in enumerate(schema):
        lower = col.lower if np.isfinite(col.lower) else float(mins[j])
        upper = col.upper if np.isfinite(col.upper) else float(maxs[j])
        out.append(ColumnSchema(col.name, col.kind, lower, upper, col.missing_codes))
    return out


def _imputer_spec(cfg: ExperimentConfig, method: str, seed: int) -> ImputerSpec:
    return ImputerSpec(
        kind=method, knn_k=cfg.knn_k, copies=cfg.copies, sweeps=cfg.mice_sweeps,
        noise=cfg.mice_noise, ridge=cfg.mice_ridge, max_sweeps=cfg.missforest_max_sweeps,
        forest=ForestSpec(n_trees=cfg.missforest_trees, max_depth=cfg.missforest_max_depth,
                          min_samples_leaf=cfg.missforest_min_leaf),
        dae=DaeSpec(corruption_rate=cfg.dae_corruption, epochs=cfg.dae_epochs,
                    batch_size=cfg.dae_batch, learning_rate=cfg.dae_lr,
                    patience=cfg.dae_patience),
        seed=seed)


def _train_mlp(cfg: ExperimentConfig, x: np.ndarray, y: np.ndarray,
               train_idx: np.ndarray, valid_idx: np.ndarray, epochs: int,
               patience: int, seed: int) -> MlpModel:
    """The configured classifier network, trained on rows `train_idx` of
    (x, y) and early-stopped on rows `valid_idx`."""
    return train_mlp(
        from_matrix(x[train_idx], y[train_idx]),
        from_matrix(x[valid_idx], y[valid_idx]),
        MlpSpec(hidden_layers=list(cfg.classifier_hidden),
                dropout_rate=cfg.classifier_dropout),
        TrainConfig(max_epochs=epochs, patience=patience,
                    batch_size=cfg.classifier_batch,
                    learning_rate=cfg.classifier_lr, seed=seed))


@dataclass
class PreparedSource:
    """Clean scaled original data plus everything sampling needs."""

    clean: Dataset
    scaler: object
    x_orig: np.ndarray
    y_orig: np.ndarray
    names: list[str]
    schema_w: list[ColumnSchema]


def prepare_source(cfg: ExperimentConfig) -> PreparedSource:
    """Steps 1-2: ingest (or generate) the original data, clean, and scale."""
    if cfg.input_kind == "builtin":
        original, _ = builtin_source(cfg.builtin_rows, cfg.builtin_features,
                                     cfg.builtin_components, cfg.master_seed)
    else:
        schema = load_schema_file(cfg.schema_path) if cfg.schema_path else None
        loaded = load_csv(cfg.input_path, schema)
        original = extract_target(loaded, cfg.input_target)
    clean = drop_incomplete_rows(original)
    scaler = fit_minmax(clean.features, clean.column_names())
    x_orig = scaler_transform(scaler, clean.features, "forward")
    names = clean.column_names()
    base_schema = clean.schema or [ColumnSchema(n) for n in names]
    schema_w = _working_schema(base_schema, scaler.mins, scaler.maxs)
    return PreparedSource(clean=clean, scaler=scaler, x_orig=x_orig,
                          y_orig=clean.target, names=names, schema_w=schema_w)


def fit_generator(cfg: ExperimentConfig, src: PreparedSource):
    """Step 3 search: returns (model, fit report, search table)."""
    gmm_cfg = GmmConfig(max_iter=cfg.gmm_max_iter, restarts=cfg.gmm_restarts,
                        seed=child_seed(cfg.master_seed, "gmm"))
    return select_generator(src.x_orig, cfg.gmm_k_range, cfg.gmm_kinds,
                            cfg.gmm_criterion, gmm_cfg)


def draw_samples(generator: GmmModel, src: PreparedSource, n: int, label: str,
                 master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample in scaled space, conform in original units, return to scale."""
    raw, comp = sample(generator, n, child_seed(master_seed, "sample", label))
    back = scaler_transform(src.scaler, raw, "inverse")
    back = conform_to_schema(back, src.schema_w)
    return scaler_transform(src.scaler, back, "forward"), comp


@dataclass
class LabeledPool:
    """The synthetic working pool and the reserve, labeled by the target
    generator."""

    x_synth: np.ndarray
    y_synth: np.ndarray
    x_reserve: np.ndarray
    y_reserve: np.ndarray
    components: np.ndarray         # mixture component of each pool row
    history: list[tuple]           # target generator, one row per epoch

    def plot_rows(self) -> dict:
        """The pool's plot payloads, keyed as in PLOT_TABLES."""
        ids, counts = np.unique(self.components, return_counts=True)
        return {
            "component_counts": [[int(c), int(n)] for c, n in zip(ids, counts)],
            "target_history": [[i + 1] + [float(v) for v in row]
                               for i, row in enumerate(self.history)],
        }


def label_pool(cfg: ExperimentConfig, src: PreparedSource,
               generator: GmmModel) -> LabeledPool:
    """Steps 3-4: sample the pool and the reserve, then label both with an
    MLP (the target generator) trained on the clean source."""
    master = cfg.master_seed
    x_synth, components = draw_samples(generator, src, cfg.synth_n, "synth", master)
    x_reserve, _ = draw_samples(generator, src, cfg.reserve_n, "reserve", master)
    train_idx, valid_idx = split_indices(src.x_orig.shape[0], [0.8, 0.2],
                                         child_seed(master, "gensplit"))
    target_gen = _train_mlp(cfg, src.x_orig, src.y_orig, train_idx, valid_idx,
                            cfg.generator_epochs, cfg.generator_patience,
                            child_seed(master, "target-gen"))
    _, y_synth = predict_mlp(target_gen, x_synth)
    _, y_reserve = predict_mlp(target_gen, x_reserve)
    return LabeledPool(x_synth=x_synth, y_synth=y_synth.astype(np.float64),
                       x_reserve=x_reserve, y_reserve=y_reserve.astype(np.float64),
                       components=components, history=target_gen.training_history)


def save_pool(out_dir, pool: LabeledPool, names: list[str]) -> dict[str, str]:
    """Write the labeled pool and reserve as synthetic.csv and reserved.csv;
    returns {file name: path}."""
    paths = {}
    for fname, x, y in (("synthetic.csv", pool.x_synth, pool.y_synth),
                        ("reserved.csv", pool.x_reserve, pool.y_reserve)):
        paths[fname] = os.path.join(out_dir, fname)
        save_csv(paths[fname], np.column_stack([x, y]), names + ["label"])
    return paths


def classify(cfg: ExperimentConfig, features: np.ndarray, method: str,
             degree: float, rep: int, eval_sets: dict) -> dict:
    """Train the cell's classifier on `features` (the pool, filled or not,
    labeled as eval_sets["synthetic"]) and score it on its own training and
    validation rows and on the fixed `eval_sets`; returns accuracy_<set> and
    loss_<set> for every EVAL_COLUMNS set."""
    tag = (method, repr(degree), rep)
    train_idx, valid_idx = split_indices(
        cfg.synth_n, [0.8, 0.2], child_seed(cfg.master_seed, "clfsplit", *tag))
    # Leakage guard by row id: the pool holds ids 0..synth.n-1, the reserve
    # the ids after them, and the source table ids from 10**9.
    for col, first_id in (("testing", cfg.synth_n), ("original", 10 ** 9)):
        if np.intersect1d(train_idx, first_id + np.arange(len(eval_sets[col][1]))).size:
            raise RuntimeError(f"leakage: classifier training rows found in {col} set")
    y = eval_sets["synthetic"][1]
    model = _train_mlp(cfg, features, y, train_idx, valid_idx, cfg.classifier_epochs,
                       cfg.classifier_patience, child_seed(cfg.master_seed, "clf", *tag))
    scored = {"training": (features[train_idx], y[train_idx]),
              "validation": (features[valid_idx], y[valid_idx]), **eval_sets}
    out = {}
    for col, (x, labels) in scored.items():
        probs, _ = predict_mlp(model, x)
        m = classification_metrics(labels, probs)
        out[f"accuracy_{col}"] = m["accuracy"]
        out[f"loss_{col}"] = m["log_loss"]
    return out


def _cell_key(method: str, degree: float, rep: int) -> dict:
    return {"method": method, "degree": degree, "repetition": rep}


def _cell_seed(cfg: ExperimentConfig, method: str, degree: float, rep: int) -> int:
    """The seed a cell's row carries: its classifier's for the baseline, its
    imputer's otherwise."""
    stream = "clf" if method == BASELINE_METHOD else "impute"
    return child_seed(cfg.master_seed, stream, method, repr(degree), rep)


def _failure(method: str, degree: float, rep: int, stage: str, error,
             seed: int) -> dict:
    """Record of a failed cell: its key, the failing stage, the error (an
    exception or a message), the seed of the failing stream and the last ten
    lines of the traceback."""
    lines = []
    if isinstance(error, BaseException):
        lines = "".join(traceback.format_exception(error)).splitlines()[-10:]
        error = f"{type(error).__name__}: {error}"
    return {**_cell_key(method, degree, rep), "stage": stage, "error": error,
            "seed": seed, "traceback": lines}


def clustering_degree(cfg: ExperimentConfig) -> float:
    """The swept degree nearest clustering.degree."""
    return min(cfg.degrees, key=lambda d: abs(d - cfg.clustering_degree))


@dataclass
class CellInputs:
    """What every work unit reads. Forked workers inherit it unpickled."""

    cfg: ExperimentConfig
    pool: LabeledPool
    names: list[str]
    eval_sets: dict


@dataclass
class UnitResult:
    """What one work unit adds to the report, and where its time went."""

    key: dict
    pid: int = field(default_factory=os.getpid)
    seconds: dict = field(default_factory=dict)         # wall seconds per stage
    peak_rss_mb: float = 0.0                            # its process's peak so far
    lost_worker: str | None = None   # the error of a lost worker's future, rerun inline
    rows: list[dict] = field(default_factory=list)      # cell or clustering rows
    direct: list[dict] = field(default_factory=list)
    plot: list[list] = field(default_factory=list)      # silhouette sample rows
    failures: list[dict] = field(default_factory=list)
    fill: np.ndarray | None = None                      # pooled fill, for clustering

    def timing(self) -> dict:
        return {**self.key, "pid": self.pid, "seconds": self.seconds,
                "peak_rss_mb": self.peak_rss_mb, "lost_worker": self.lost_worker}


@contextlib.contextmanager
def _timed(seconds: dict, stage: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[stage] = time.perf_counter() - start


def run_cell(inputs: CellInputs, method: str, degree: float, rep: int) -> UnitResult:
    """One classification cell: the no-missingness baseline, or one imputer's
    fill of the (degree, rep) mask, scored directly and classified. Each cell
    induces its mask from the (degree, rep) seed, so the imputers of one
    (degree, rep) fill the same holes."""
    cfg, x_synth = inputs.cfg, inputs.pool.x_synth
    key = _cell_key(method, degree, rep)
    out = UnitResult(key)
    stage, seed, features = "classify", _cell_seed(cfg, method, degree, rep), x_synth
    try:
        if method != BASELINE_METHOD:
            stage, seed = "induce", child_seed(cfg.master_seed, "induce", repr(degree), rep)
            spec = MissingnessSpec(scheme=cfg.scheme, degree=degree,
                                   mar_drivers=tuple(cfg.mar_drivers))
            with _timed(out.seconds, "induce"):
                induced = induce_missingness(x_synth, spec, seed)
            stage, seed = "impute+classify", _cell_seed(cfg, method, degree, rep)
            with _timed(out.seconds, "impute"):
                result = run_imputer(induced.holed, _imputer_spec(cfg, method, seed),
                                     inputs.names)
                features = pool_copies(result)
            for c, copy in enumerate(result.copies):
                out.direct.append({**key, "copy": c,
                                   **regression_metrics_masked(x_synth, copy, induced.mask)})
            if rep == 0 and degree == clustering_degree(cfg):
                out.fill = features
        with _timed(out.seconds, "classify"):
            out.rows.append({**key, "seed": seed, **classify(cfg, features, method, degree,
                                                            rep, inputs.eval_sets)})
    except Exception as exc:  # cell failures never stop the run
        out.failures.append(_failure(method, degree, rep, stage, exc, seed))
    return out


def run_clusters(inputs: CellInputs, method: str, k: int,
                 data: np.ndarray | None) -> UnitResult:
    """One clustering: k-means with `k` clusters on an imputer's fill (None
    when its cell failed), scored by Rand index against the pool's mixture
    components and by silhouette."""
    cfg = inputs.cfg
    seed = child_seed(cfg.master_seed, "cluster", method, k)
    out = UnitResult({"method": method, "clusters": k})
    if data is None:
        out.failures.append(_failure(method, clustering_degree(cfg), 0, "cluster",
                                     "no imputed matrix available", seed))
        return out
    try:
        with _timed(out.seconds, "kmeans"):
            labels = assign_kmeans(fit_kmeans(data, k, seed), data)
        with _timed(out.seconds, "silhouette"):
            per_sample = silhouette_samples(data, labels)
        out.rows.append({"method": method, "clusters": k,
                         "rand": rand_index(labels, inputs.pool.components),
                         "silhouette": float(np.mean(per_sample))})
        for cluster_id in range(k):
            out.plot += [[method, k, cluster_id, float(v)]
                         for v in per_sample[labels == cluster_id]]
    except Exception as exc:
        out.failures.append(_failure(method, clustering_degree(cfg), 0, "cluster", exc, seed))
    return out


def _peak_rss_mb() -> float:
    """This process's peak resident set size (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_unit(inputs: CellInputs, unit_fn, unit: tuple) -> UnitResult:
    out = unit_fn(inputs, *unit)
    out.peak_rss_mb = _peak_rss_mb()
    return out


_WORKER_INPUTS: CellInputs | None = None   # set in forked workers only


def _enter_worker(inputs: CellInputs) -> None:
    global _WORKER_INPUTS
    _WORKER_INPUTS = inputs


def _in_worker(unit_fn, unit: tuple) -> UnitResult:
    return _run_unit(_WORKER_INPUTS, unit_fn, unit)


def _map_units(executor, inputs: CellInputs, unit_fn, units: list[tuple]) -> list:
    """unit_fn(inputs, *unit) for every unit, in order: in the executor's
    workers, or inline without one. A unit whose future raises (a worker
    died, so the pool is broken) runs again inline, as does every unit after
    it, so a lost worker costs time but no result."""
    futures = [None] * len(units)
    if executor is not None:
        with contextlib.suppress(BrokenProcessPool):   # broken in an earlier phase
            futures = [executor.submit(_in_worker, unit_fn, unit) for unit in units]
    return [_outcome(future, inputs, unit_fn, unit) for future, unit in zip(futures, units)]


def _outcome(future, inputs: CellInputs, unit_fn, unit: tuple) -> UnitResult:
    if future is None:
        return _run_unit(inputs, unit_fn, unit)
    try:
        return future.result()
    except Exception as exc:                 # its worker was lost
        out = _run_unit(inputs, unit_fn, unit)
        out.lost_worker = f"{type(exc).__name__}: {exc}"
        return out


def cell_units(cfg: ExperimentConfig) -> list[tuple]:
    """Every classification cell's (method, degree, rep), in report order:
    per repetition the baseline, then per degree every imputer."""
    return [unit for rep in range(cfg.repetitions) for unit in [(BASELINE_METHOD, 0.0, rep)]
            + [(method, degree, rep) for degree in cfg.degrees for method in cfg.imputers]]


def run_cells(inputs: CellInputs, executor, report: RunReport) -> dict[str, np.ndarray]:
    """Step 5: every cell of cell_units. Cells, direct rows, failures and
    unit timings go into `report`; returns each imputer's pooled fill at the
    clustering degree of repetition 0."""
    fills = {}
    units = cell_units(inputs.cfg)
    for unit, out in zip(units, _map_units(executor, inputs, run_cell, units)):
        report.cells += out.rows
        report.direct_cells += out.direct
        report.failures += out.failures
        report.timings["units"].append(out.timing())
        if out.fill is not None:
            fills[unit[0]] = out.fill
    return fills


def run_clustering(inputs: CellInputs, executor, fills: dict[str, np.ndarray],
                   report: RunReport) -> None:
    """Step 6: run_clusters for each imputer and every k."""
    units = [(method, k, fills.get(method)) for method in inputs.cfg.imputers
             for k in inputs.cfg.clusters]
    for out in _map_units(executor, inputs, run_clusters, units):
        report.clustering_rows += out.rows
        report.plot["silhouette_samples"] += out.plot
        report.failures += out.failures
        report.timings["units"].append(out.timing())


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_pool(workers: int, inputs: CellInputs):
    """`workers` forked processes that inherit `inputs` and the parent's BLAS
    setting (silhouette bits depend on its thread count), or for one worker
    no executor, so that units run inline."""
    if workers == 1:
        return contextlib.nullcontext()
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_enter_worker, initargs=(inputs,))


def _check_writable(out_dir) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output dir {out_dir!r} is not writable: {exc}") from exc


def run_pipeline(cfg: ExperimentConfig) -> RunReport:
    """Steps 1-6 of one experiment (see the module docstring); tables are
    written from the returned report by emit_report."""
    cfg.validate()
    started = time.time()
    out_dir = cfg.output_dir
    _check_writable(out_dir)

    src = prepare_source(cfg)
    cfg.validate(columns=len(src.names))
    generator, gen_report, search_table = fit_generator(cfg, src)
    write_search_table(os.path.join(out_dir, "gmm_search.csv"), search_table)
    pool = label_pool(cfg, src, generator)

    # Rebalanced variant of the clean original subset.
    edited = smote_enn(from_matrix(src.x_orig, src.y_orig),
                       ResampleSpec(smote_k=cfg.smote_k, enn_k=cfg.enn_k,
                                    target_ratio=cfg.resample_ratio,
                                    seed=child_seed(cfg.master_seed, "resample")))
    eval_sets = {"synthetic": (pool.x_synth, pool.y_synth),
                 "testing": (pool.x_reserve, pool.y_reserve),
                 "original": (src.x_orig, src.y_orig),
                 "edited_nn": (edited.features, edited.target)}

    artifacts = {"clean.csv": os.path.join(out_dir, "clean.csv")}
    save_csv(artifacts["clean.csv"], src.clean.features, src.names)
    artifacts.update(save_pool(out_dir, pool, src.names))

    report = RunReport(manifest={}, cells=[], direct_cells=[], clustering_rows=[],
                       failures=[], plot={**pool.plot_rows(), "silhouette_samples": []},
                       timings={"units": []})
    inputs = CellInputs(cfg, pool, src.names, eval_sets)
    units = len(cell_units(cfg)) + len(cfg.imputers) * len(cfg.clusters)
    forkable = "fork" in multiprocessing.get_all_start_methods()
    workers = min(_usable_cores(), units) if forkable else 1
    cells_started = time.perf_counter()
    with _worker_pool(workers, inputs) as executor:
        fills = run_cells(inputs, executor, report)
        run_clustering(inputs, executor, fills, report)
    report.timings["wall_s"] = time.perf_counter() - cells_started
    # Each process's peak, summed: a bound on the run's resident memory (the
    # peaks need not coincide, and pages shared since the fork count in each).
    peaks = {}
    for unit in report.timings["units"]:
        peaks[unit["pid"]] = max(peaks.get(unit["pid"], 0.0), unit["peak_rss_mb"])
    peaks[os.getpid()] = _peak_rss_mb()
    report.timings["summed_peak_rss_mb"] = sum(peaks.values())

    report.manifest = {
        "version": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
        "master_seed": cfg.master_seed, "criterion": cfg.gmm_criterion,
        "selected_k": generator.k, "selected_kind": generator.kind,
        "generator_log_likelihood": gen_report.log_likelihood,
        "config": {key: repr(getattr(cfg, attr)) for key, (attr, _) in
                   _CONFIG_KEYS.items()},
        "clustering_degree": clustering_degree(cfg),
        "artifacts": artifacts,
        "n_cells": len(report.cells), "n_failures": len(report.failures),
        "workers": workers, "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "started_unix": started, "finished_unix": time.time(),
    }
    return report

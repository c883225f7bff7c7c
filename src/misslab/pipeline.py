"""Config-driven experiment runner.

A run executes: ingest and clean, min-max scale, mixture fit and synthetic
sampling, target-generator labeling, missingness induction per degree,
every imputer per degree and repetition, classifier/clustering/direct
evaluation, and CSV report emission. Every stage draws from seed streams
derived from one master seed, so a run is a pure function of its config.

The cells run as one graph of work units (`helpers.each`) on worker
processes, one per usable core, forked when the cells start and reaped when
they end, also on an exception. SMOTE/ENN, the set-up writes and every
imputer cell (induce, impute, direct scores) are queued at once; each
result adds the units it completes, ahead of the queue: the edited set the
baseline stack, a repetition's last fill its stack, a clustered fill its
clustering. After the leakage check the main process only dispatches,
merges and reports, and it drops each fill once its readers return. The
units depend only on the config and on which fills failed. Results are
merged in one fixed order, and a stacked network keeps the bits it would
get alone, so neither the worker count nor the stacking moves a result.

The workers share one semaphore with a token per usable core. A worker
holds one token while it runs a unit, waiting for it if a forest has
borrowed it; the block of the cells gives back the tokens of a lost
worker. Each unit is a `helpers.lending` block whose forests borrow
the free tokens and grow shares of their trees, with the same trees, in its
helper processes, reaped when the unit ends. Units run in the main process,
in a one-core run or when their own worker was lost, borrow nothing and
wait on no token. Before the cells, the mixture search, a block of its
own, lends every usable core but the main process's own to its EM fits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import threading
import time
import traceback
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._rng import child_seed, rng_for
from .cluster import assign_kmeans, fit_kmeans
from .data import (ColumnSchema, Dataset, drop_incomplete_rows, extract_target,
                   fit_minmax, from_matrix, load_csv, load_schema_file, save_csv,
                   scaler_transform, split_indices, conform_to_schema, write_csv,
                   write_json)
from .helpers import each, holding, lending
from .forest import ForestSpec
from .gmm import (COVARIANCE_KINDS, GmmConfig, GmmModel, sample, select_generator,
                  write_search_table)
from .imputers import METHODS, DaeSpec, ImputerSpec, pool_copies, run_imputer
from .metrics import (classification_metrics, regression_metrics_masked,
                      silhouette_samples, rand_index)
from .metrics import silhouette_score  # noqa: F401 - perfbench/tracer.py wraps it
from .missingness import SCHEMES, MissingnessSpec, check_drivers, induce_missingness
from .nnet import MlpSpec, TrainConfig, predict_mlp, train_mlp, train_mlps
from .resampling import ResampleSpec, smote_enn

EVAL_COLUMNS = ("training", "validation", "synthetic", "testing", "original",
                "edited_nn")
BASELINE_METHOD = "none"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 1."""


def _key(name: str, default, within: str = "", names: tuple = (), anycase: bool = False):
    """An ExperimentConfig field read from the dotted config key `name`. Each
    value, or each item of a list, must lie in the interval `within` (such
    as "[1, inf)") or be one of `names`, compared in any case when
    `anycase`; docs/config.md shows the same."""
    metadata = {"key": name, "within": within, "names": names, "anycase": anycase}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


def _lies_in(x, interval: str) -> bool:
    """`x` inside an interval written "[lo, hi)" and the like; NaN never is."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= x if interval[0] == "[" else lo < x
    below = x <= hi if interval[-1] == "]" else x < hi
    return above and below


@dataclass
class ExperimentConfig:
    input_kind: str = _key("input.kind", "builtin", names=("builtin", "csv"))
    input_path: str = _key("input.path", "")
    input_target: str = _key("input.target", "")
    schema_path: str = _key("input.schema", "")
    builtin_rows: int = _key("builtin.rows", 2500, within="[10, inf)")
    builtin_features: int = _key("builtin.features", 10, within="[1, inf)")
    builtin_components: int = _key("builtin.components", 3, within="[1, inf)")
    gmm_k_range: list[int] = _key("gmm.k_range", [1, 2, 3, 4, 5], within="[1, inf)")
    gmm_kinds: list[str] = _key("gmm.kinds", ["spherical", "diagonal"],
                                names=COVARIANCE_KINDS)
    gmm_criterion: str = _key("gmm.criterion", "bic", names=("aic", "bic"))
    gmm_max_iter: int = _key("gmm.max_iter", 200, within="[1, inf)")
    gmm_restarts: int = _key("gmm.restarts", 3, within="[1, inf)")
    synth_n: int = _key("synth.n", 20000, within="[10, inf)")
    reserve_n: int = _key("synth.reserve", 5000, within="[10, inf)")
    scheme: str = _key("missing.scheme", "MCAR", names=SCHEMES, anycase=True)
    degrees: list[float] = _key("missing.degrees", [0.1, 0.2, 0.3, 0.4], within="(0, 1)")
    mar_drivers: list[int] = _key("missing.mar_drivers", [])
    imputers: list[str] = _key("imputers", ["mean", "knn", "mice", "missforest", "dae"],
                               names=METHODS, anycase=True)
    knn_k: int = _key("knn.k", 5, within="[1, inf)")
    copies: int = _key("copies", 5, within="[1, inf)")
    mice_sweeps: int = _key("mice.sweeps", 10, within="[0, inf)")
    mice_noise: bool = _key("mice.noise", True)
    mice_ridge: float = _key("mice.ridge", 0.0, within="[0, inf)")
    missforest_max_sweeps: int = _key("missforest.max_sweeps", 3, within="[0, inf)")
    missforest_trees: int = _key("missforest.trees", 20, within="[1, inf)")
    missforest_max_depth: int = _key("missforest.max_depth", 8, within="[0, inf)")
    missforest_min_leaf: int = _key("missforest.min_leaf", 5, within="[1, inf)")
    dae_epochs: int = _key("dae.epochs", 100, within="[1, inf)")
    dae_patience: int = _key("dae.patience", 20, within="[0, inf)")
    dae_corruption: float = _key("dae.corruption", 0.2, within="(0, 1)")
    dae_batch: int = _key("dae.batch", 64, within="[1, inf)")
    dae_lr: float = _key("dae.lr", 0.01, within="(0, inf)")
    classifier_hidden: list[int] = _key("classifier.hidden", [20, 20], within="[1, inf)")
    classifier_dropout: float = _key("classifier.dropout", 0.2, within="[0, 1)")
    classifier_epochs: int = _key("classifier.epochs", 100, within="[1, inf)")
    classifier_patience: int = _key("classifier.patience", 10, within="[0, inf)")
    classifier_batch: int = _key("classifier.batch", 64, within="[1, inf)")
    classifier_lr: float = _key("classifier.lr", 0.01, within="(0, inf)")
    generator_epochs: int = _key("generator.epochs", 50, within="[1, inf)")
    generator_patience: int = _key("generator.patience", 10, within="[0, inf)")
    clusters: list[int] = _key("clusters", [2, 3, 4], within="[2, inf)")
    clustering_degree: float = _key("clustering.degree", 0.3, within="(0, 1)")
    repetitions: int = _key("repetitions", 10, within="[1, inf)")
    smote_k: int = _key("resample.smote_k", 5, within="[1, inf)")
    enn_k: int = _key("resample.enn_k", 3, within="[1, inf)")
    resample_ratio: float = _key("resample.ratio", 1.0, within="(0, 1]")
    master_seed: int = _key("seed", 0)
    output_dir: str = _key("output", "run-output")

    def validate(self, columns: int | None = None) -> None:
        """Raise ConfigError naming the first bad key: each key's own bounds,
        then the rules that span keys. `columns` is the source table's
        width, which a csv input knows only once read; the MAR drivers are
        checked against it (by default builtin.features, for a builtin input)."""
        for f in dataclasses.fields(self):
            key, within, names = (f.metadata[m] for m in ("key", "within", "names"))
            fold = str.lower if f.metadata["anycase"] else str
            value = getattr(self, f.name)
            for item in value if isinstance(value, list) else [value]:
                if within and not _lies_in(item, within):
                    raise ConfigError(f"{key} must lie in {within}, got {item!r}")
                if names and fold(item) not in map(fold, names):
                    raise ConfigError(f"{key} must be one of {', '.join(names)}, "
                                      f"got {item!r}")
        if self.input_kind == "csv" and not (self.input_path and self.input_target):
            raise ConfigError("input.kind=csv requires input.path and input.target")
        for key in ("missing.degrees", "imputers", "gmm.kinds", "gmm.k_range"):
            if not getattr(self, _CONFIG_KEYS[key][0]):
                raise ConfigError(f"{key} must not be empty")
        for key in ("missing.degrees", "imputers", "clusters", "missing.mar_drivers"):
            values = [str(v).lower() for v in getattr(self, _CONFIG_KEYS[key][0])]
            for i, v in enumerate(values):      # a repeat would rerun cells and rows
                if v in values[:i]:
                    raise ConfigError(f"{key} must not repeat a value, got {v} twice")
        if any(k > self.synth_n for k in self.clusters):
            raise ConfigError(f"clusters must each be at most synth.n={self.synth_n}")
        for net in ("classifier", "generator", "dae"):
            if getattr(self, f"{net}_patience") > getattr(self, f"{net}_epochs"):
                raise ConfigError(f"{net}.patience must not exceed {net}.epochs")
        if self.scheme.upper() == "MAR" and not self.mar_drivers:
            raise ConfigError("missing.scheme=mar requires missing.mar_drivers")
        if columns is None and self.input_kind == "builtin":
            columns = self.builtin_features
        if columns is not None and self.scheme.upper() == "MAR":
            try:
                check_drivers(self.mar_drivers, columns)
            except ValueError as exc:
                raise ConfigError(f"missing.mar_drivers: {exc}") from None


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
    return {f.metadata["key"]: (f.name, _parser(types[f.name]))
            for f in dataclasses.fields(ExperimentConfig)}


# Dotted config key -> (ExperimentConfig attribute, parser), from the fields.
_CONFIG_KEYS = _config_keys()


def parse_config(path) -> ExperimentConfig:
    """Flat `key = value` file with dotted keys; see docs/config.md."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
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
        written.append(os.path.join(out_dir, name))
        write_csv(written[-1], header, rows)
    return written


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
        write_csv(written[-1], header, rows)
    written += write_plot_tables(
        out_dir, {key: report.plot.get(key, []) for key in PLOT_TABLES})

    written.append(os.path.join(out_dir, "manifest.json"))
    write_json(written[-1], report.manifest)
    return written


def save_report_json(report: RunReport, out_dir) -> str:
    path = os.path.join(out_dir, "report.json")
    write_json(path, {f.name: getattr(report, f.name) for f in dataclasses.fields(report)})
    return path


def load_report_json(path) -> RunReport:
    """The report a run saved at `path`; a file that is not JSON of a
    report's fields raises a ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return RunReport(**json.load(fh))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a run report ({exc})") from None


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


def _classifier_spec(cfg: ExperimentConfig, epochs: int, patience: int,
                     seed: int = 0) -> tuple[MlpSpec, TrainConfig]:
    """The configured classifier network and its training settings."""
    return (MlpSpec(hidden_layers=list(cfg.classifier_hidden),
                    dropout_rate=cfg.classifier_dropout),
            TrainConfig(max_epochs=epochs, patience=patience,
                        batch_size=cfg.classifier_batch,
                        learning_rate=cfg.classifier_lr, seed=seed))


def _split(x: np.ndarray, y: np.ndarray, train_idx: np.ndarray,
           valid_idx: np.ndarray) -> tuple[Dataset, Dataset]:
    return from_matrix(x[train_idx], y[train_idx]), from_matrix(x[valid_idx], y[valid_idx])


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
    """Step 3 search, its fits run on every usable core: returns (model, fit
    report, search table, the `Loan` that holds its helpers' cost)."""
    gmm_cfg = GmmConfig(max_iter=cfg.gmm_max_iter, restarts=cfg.gmm_restarts,
                        seed=child_seed(cfg.master_seed, "gmm"))
    with lending(threading.Semaphore(_usable_cores() - 1)) as loan:
        return (*select_generator(src.x_orig, cfg.gmm_k_range, cfg.gmm_kinds,
                                  cfg.gmm_criterion, gmm_cfg), loan)


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
    target_gen = train_mlp(*_split(src.x_orig, src.y_orig, train_idx, valid_idx),
                           *_classifier_spec(cfg, cfg.generator_epochs,
                                             cfg.generator_patience,
                                             child_seed(master, "target-gen")))
    _, y_synth = predict_mlp(target_gen, x_synth)
    _, y_reserve = predict_mlp(target_gen, x_reserve)
    return LabeledPool(x_synth=x_synth, y_synth=y_synth.astype(np.float64),
                       x_reserve=x_reserve, y_reserve=y_reserve.astype(np.float64),
                       components=components, history=target_gen.training_history)


def save_pool(out_dir, pool: LabeledPool, names: list[str]) -> None:
    """Write the labeled pool and reserve as synthetic.csv and reserved.csv."""
    for fname, x, y in (("synthetic.csv", pool.x_synth, pool.y_synth),
                        ("reserved.csv", pool.x_reserve, pool.y_reserve)):
        save_csv(os.path.join(out_dir, fname), np.column_stack([x, y]), names + ["label"])


def check_no_leakage(pool: LabeledPool, src: PreparedSource) -> None:
    """Raise ValueError if a pool row, compared byte for byte, is also a
    row of the reserve or of the clean source table: classifiers train on
    pool rows and are scored on those two sets. Only pool rows with a
    continuous cell strictly inside its column's range in the pool count;
    rounded, thresholded or clipped cells match other tables by chance."""
    x = pool.x_synth
    continuous = np.array([col.kind == "continuous" for col in src.schema_w])
    free = (x > x.min(axis=0)) & (x < x.max(axis=0)) & continuous
    pool_rows = {row.tobytes() for row in x[free.any(axis=1)]}
    for name, rows in (("testing", pool.x_reserve), ("original", src.x_orig)):
        if any(row.tobytes() in pool_rows for row in rows):
            raise ValueError(f"leakage: a pool row is also a row of the {name} set")


def classify(cfg: ExperimentConfig, cells: list[tuple], features: list[np.ndarray],
             eval_sets: dict) -> list:
    """Train the classifiers of `cells`, each on its own features (the pool,
    filled or not, labeled as eval_sets["synthetic"]), as one stack, then
    score each alone on its own training and validation rows and on the
    fixed `eval_sets`. Per cell: (accuracy_<set> and loss_<set> for every
    EVAL_COLUMNS set, the trained model), or the exception that failed it.
    A stack that fails trains again one network at a time, so a failing
    cell fails alone."""
    y = eval_sets["synthetic"][1]
    splits = [split_indices(cfg.synth_n, [0.8, 0.2],
                            child_seed(cfg.master_seed, "clfsplit", m, repr(d), r))
              for m, d, r in cells]
    # Cells read only the epoch count and the best epoch's validation loss.
    try:
        models = train_mlps(
            [(*_split(x, y, *split), child_seed(cfg.master_seed, "clf", m, repr(d), r))
             for x, split, (m, d, r) in zip(features, splits, cells)],
            *_classifier_spec(cfg, cfg.classifier_epochs, cfg.classifier_patience),
            full_history=False)
    except Exception as exc:
        if len(cells) == 1:
            return [exc]
        return [result for i in range(len(cells))
                for result in classify(cfg, cells[i:i + 1], features[i:i + 1], eval_sets)]
    results = []
    for model, x, (train_idx, valid_idx) in zip(models, features, splits):
        scored = {"training": (x[train_idx], y[train_idx]),
                  "validation": (x[valid_idx], y[valid_idx]), **eval_sets}
        try:
            out = {}
            for col, (data, labels) in scored.items():
                probs, _ = predict_mlp(model, data)
                m = classification_metrics(labels, probs)
                out[f"accuracy_{col}"] = m["accuracy"]
                out[f"loss_{col}"] = m["log_loss"]
            results.append((out, model))
        except Exception as exc:
            results.append(exc)
    return results


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
    """What the work units read. Forked workers inherit it unpickled."""

    cfg: ExperimentConfig
    src: PreparedSource
    pool: LabeledPool
    search_table: list             # the mixture search's, for gmm_search.csv
    eval_sets: dict                # every set but edited_nn, which a unit makes
    started: float                 # the cells' start, on time.perf_counter's clock


@dataclass
class UnitResult:
    """What one work unit adds to the report, and where its time went."""

    key: dict                                           # its kind and its cells
    pid: int = field(default_factory=os.getpid)
    seconds: dict = field(default_factory=dict)         # wall seconds per stage
    peak_rss_mb: float = 0.0                            # its process's peak so far
    lost_worker: str | None = None   # how its worker was lost or what it raised there
    start_s: float = 0.0             # its start and end, seconds after the cells start
    end_s: float = 0.0
    rows: list[dict] = field(default_factory=list)      # its cells' rows
    direct: list[dict] = field(default_factory=list)
    clustering: list[dict] = field(default_factory=list)
    plot: list[list] = field(default_factory=list)      # silhouette sample rows
    failures: list[dict] = field(default_factory=list)
    fill: np.ndarray | None = None                      # an imputer cell's pooled fill
    edited: tuple | None = None                         # SMOTE/ENN's (features, target)
    diagnostics: list[dict] | None = None               # its imputer's, one per copy
    classifiers: list[dict] | None = None               # per trained cell, its record
    helpers: dict | None = None      # an impute unit's: what its borrowed cores cost

    def timing(self) -> dict:
        record = {**self.key, "pid": self.pid, "seconds": self.seconds,
                  "peak_rss_mb": self.peak_rss_mb, "lost_worker": self.lost_worker,
                  "start_s": self.start_s, "end_s": self.end_s}
        if self.diagnostics is not None:
            record["diagnostics"] = self.diagnostics
        if self.classifiers is not None:
            record["classifiers"] = self.classifiers
        if self.helpers is not None:
            record.update(self.helpers)
        return record


@contextlib.contextmanager
def _timed(seconds: dict, stage: str):
    """Add the block's wall seconds to seconds[stage]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start


def impute_cell(inputs: CellInputs, method: str, degree: float, rep: int) -> UnitResult:
    """One imputer cell's fill of the (degree, rep) mask, scored directly;
    the pooled fill goes back in `fill`, to be classified and, at rep 0 and
    the clustering degree, clustered. Each cell induces its mask from the
    (degree, rep) seed, so the imputers of one (degree, rep) fill the same
    holes."""
    cfg, x_synth = inputs.cfg, inputs.pool.x_synth
    key = _cell_key(method, degree, rep)
    out = UnitResult({"unit": "impute", "cells": [key]})
    stage, seed = "induce", child_seed(cfg.master_seed, "induce", repr(degree), rep)
    try:
        spec = MissingnessSpec(scheme=cfg.scheme, degree=degree,
                               mar_drivers=tuple(cfg.mar_drivers))
        with _timed(out.seconds, "induce"):
            induced = induce_missingness(x_synth, spec, seed)
        stage, seed = "impute+classify", _cell_seed(cfg, method, degree, rep)
        with _timed(out.seconds, "impute"):
            result = run_imputer(induced.holed, _imputer_spec(cfg, method, seed),
                                 inputs.src.names)
            fill = pool_copies(result)
        out.diagnostics = result.diagnostics
        mask = induced.mask
        for c, copy in enumerate(result.copies):
            out.direct.append({**key, "copy": c,
                               **regression_metrics_masked(x_synth, copy, mask)})
        out.fill = fill
    except Exception as exc:  # cell failures never stop the run
        out.failures.append(_failure(method, degree, rep, stage, exc, seed))
    return out


def classify_cells(inputs: CellInputs, cells: list[tuple], fills: list[np.ndarray] | None,
                   edited: tuple) -> UnitResult:
    """The classifiers of `cells`, trained as one stack and scored (see
    `classify`, with SMOTE/ENN's `edited` set as edited_nn): baseline cells
    on the pool (`fills` None), imputer cells on their fills. A failed cell
    is recorded alone."""
    cfg = inputs.cfg
    out = UnitResult({"unit": "classify", "cells": [_cell_key(*cell) for cell in cells]},
                     classifiers=[])
    features = fills or [inputs.pool.x_synth] * len(cells)
    with _timed(out.seconds, "classify"):
        results = classify(cfg, cells, features, {**inputs.eval_sets, "edited_nn": edited})
    for cell, result in zip(cells, results):
        seed = _cell_seed(cfg, *cell)
        if isinstance(result, Exception):
            stage = "classify" if cell[0] == BASELINE_METHOD else "impute+classify"
            out.failures.append(_failure(*cell, stage, result, seed))
            continue
        scores, model = result
        out.rows.append({**_cell_key(*cell), "seed": seed, **scores})
        out.classifiers.append({**_cell_key(*cell),
                                "epochs_run": len(model.training_history),
                                "best_epoch": model.best_epoch,
                                "best_valid_loss": model.best_valid_loss})
    return out


def cluster_fill(inputs: CellInputs, method: str, data: np.ndarray | None) -> UnitResult:
    """k-means with every k of `clusters` on the fill of `method`'s cell at
    rep 0 and the clustering degree (None when that cell failed), scored by
    Rand index against the pool's mixture components and by one silhouette
    pass for all k. A k whose k-means or silhouette fails is recorded alone."""
    cfg = inputs.cfg
    degree = clustering_degree(cfg)
    out = UnitResult({"unit": "cluster", "cells": [_cell_key(method, degree, 0)]})
    seeds = {k: child_seed(cfg.master_seed, "cluster", method, k) for k in cfg.clusters}
    labels, scores, errors = {}, {}, {}
    if data is None:
        errors = dict.fromkeys(cfg.clusters, "no imputed matrix available")
    else:
        with _timed(out.seconds, "kmeans"):
            for k in cfg.clusters:
                try:
                    labels[k] = assign_kmeans(fit_kmeans(data, k, seeds[k]), data)
                except Exception as exc:
                    errors[k] = exc
        with _timed(out.seconds, "silhouette"):
            try:
                stacked = silhouette_samples(data, np.stack(list(labels.values())))
                scores = dict(zip(labels, stacked))
            except Exception:   # score each k alone, so a failure stays its own
                for k in labels:
                    try:
                        scores[k] = silhouette_samples(data, labels[k])
                    except Exception as exc:
                        errors[k] = exc
    for k in cfg.clusters:
        if k in errors:
            out.failures.append(_failure(method, degree, 0, "cluster", errors[k], seeds[k]))
            continue
        out.clustering.append({"method": method, "clusters": k,
                               "rand": rand_index(labels[k], inputs.pool.components),
                               "silhouette": float(np.mean(scores[k]))})
        for cluster_id in range(k):
            out.plot += [[method, k, cluster_id, float(v)]
                         for v in scores[k][labels[k] == cluster_id]]
    return out


def resample_source(inputs: CellInputs) -> UnitResult:
    """SMOTE/ENN on the clean source: the edited_nn set of every classifier,
    sent back in `edited`. An error here is the run's: it raises."""
    cfg = inputs.cfg
    out = UnitResult({"unit": "smote_enn", "cells": []})
    with _timed(out.seconds, "smote_enn"):
        edited = smote_enn(from_matrix(*inputs.eval_sets["original"]),
                           ResampleSpec(smote_k=cfg.smote_k, enn_k=cfg.enn_k,
                                        target_ratio=cfg.resample_ratio,
                                        seed=child_seed(cfg.master_seed, "resample")))
    out.edited = edited.features, edited.target
    return out


def write_setup(inputs: CellInputs) -> UnitResult:
    """The set-up tables: gmm_search.csv, clean.csv, synthetic.csv and
    reserved.csv. An error here is the run's: it raises."""
    out_dir, names = inputs.cfg.output_dir, inputs.src.names
    out = UnitResult({"unit": "write", "cells": []})
    with _timed(out.seconds, "write"):
        write_search_table(os.path.join(out_dir, "gmm_search.csv"), inputs.search_table)
        save_csv(os.path.join(out_dir, "clean.csv"), inputs.src.clean.features, names)
        save_pool(out_dir, inputs.pool, names)
    return out


def _peak_rss_mb() -> float:
    """This process's peak resident set size (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_unit(inputs: CellInputs, unit: tuple, tokens=None) -> UnitResult:
    """One work unit: ("smote_enn",), ("write",), ("impute", method, degree,
    rep), ("classify", cells, fills, edited) or ("cluster", method, fill). Its
    forests may borrow `tokens`, the cores that no unit holds; inline, none."""
    kind, *args = unit
    run = {"smote_enn": resample_source, "write": write_setup, "impute": impute_cell,
           "classify": classify_cells, "cluster": cluster_fill}[kind]
    start = time.perf_counter()
    with lending(tokens) as loan:
        out = run(inputs, *args)
    out.start_s, out.end_s = start - inputs.started, time.perf_counter() - inputs.started
    out.peak_rss_mb = _peak_rss_mb()
    if kind == "impute":
        out.helpers = {"helper_forests": loan.maps, "helper_cpu_s": loan.cpu_s,
                       "helper_peak_rss_mb": loan.peak_rss_mb}
    return out


_CELLS = None   # (CellInputs, the run's token semaphore), set before workers fork


def _in_worker(unit: tuple) -> UnitResult:
    inputs, tokens = _CELLS
    with holding(tokens):            # this unit's own core, waited for if lent
        return run_unit(inputs, unit, tokens)


def cell_units(cfg: ExperimentConfig) -> list[tuple]:
    """Every classification cell's (method, degree, rep), in report order:
    per repetition the baseline, then per degree every imputer, named in
    lower case as its seeds and rows are."""
    return [unit for rep in range(cfg.repetitions) for unit in [(BASELINE_METHOD, 0.0, rep)]
            + [(m.lower(), degree, rep) for degree in cfg.degrees for m in cfg.imputers]]


def run_cells(inputs: CellInputs, workers: int, report: RunReport) -> None:
    """Steps 5 and 6 as one graph of work units on `workers` workers (see
    the module docstring): a unit is added once its inputs are in, and a
    fill is dropped once its readers are. Only a lost worker's unit reruns
    inline. Rows, samples and failures go into `report` in cell_units
    order, unit records in `planned` order."""
    cfg = inputs.cfg
    cells = cell_units(cfg)
    imputed = [cell for cell in cells if cell[0] != BASELINE_METHOD]
    clustered = [cell for cell in imputed if cell[1:] == (clustering_degree(cfg), 0)]
    waiting = {rep: {cell for cell in imputed if cell[2] == rep}
               for rep in range(cfg.repetitions)}          # fills not yet in
    fills, edited = {}, None

    def stack(rep):             # once its fills and the edited set are in; they go with it
        if edited is None or waiting[rep]:
            return []
        kept = [cell for cell in imputed if cell[2] == rep and fills[cell] is not None]
        return [("classify", kept, [fills.pop(cell) for cell in kept], edited)] if kept else []

    def then(unit, out):        # the units whose inputs `out` completes
        nonlocal edited
        if unit[0] == "smote_enn":
            edited = out.edited
            return [("classify", [cell for cell in cells if cell[0] == BASELINE_METHOD],
                     None, edited), *[more for rep in waiting for more in stack(rep)]]
        if unit[0] != "impute":
            return []
        cell = tuple(unit[1:])
        fills[cell], out.fill = out.fill, None
        waiting[cell[2]].discard(cell)
        more = [("cluster", cell[0], fills[cell])] if cell in clustered else []
        return more + stack(cell[2])

    def alone(unit, lost):      # a unit without a worker, or whose worker was lost
        out = run_unit(inputs, unit)
        out.lost_worker = lost
        return out

    position = {cell: i for i, cell in enumerate(cells)}

    def place(record):          # its cell's place in cell_units
        return position[record["method"], record["degree"], record["repetition"]]

    def planned(out):           # baseline stack, imputer cells, stacks, clustered fills, set-up
        at = [place(cell) for cell in out.key["cells"]]
        return ("baseline", "impute", "classify", "cluster", "smote_enn", "write").index(
            "baseline" if at[:1] == [0] else out.key["unit"]), at

    units = sorted(each(_in_worker, [("smote_enn",), *[("impute", *cell) for cell in imputed],
                                     ("write",)], workers, alone, then), key=planned)
    report.cells += sorted((row for out in units for row in out.rows), key=place)
    report.direct_cells += sorted((row for out in units for row in out.direct), key=place)
    report.failures += sorted((f for out in units for f in out.failures), key=place)
    for out in units:
        report.clustering_rows += out.clustering
        report.plot["silhouette_samples"] += out.plot
        report.timings["units"].append(out.timing())


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_writable(out_dir) -> None:
    import tempfile
    try:
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryFile(dir=out_dir):    # gone once closed
            pass
    except OSError as exc:
        raise ConfigError(f"output dir {out_dir!r} is not writable: {exc}") from exc


def run_pipeline(cfg: ExperimentConfig) -> RunReport:
    """Steps 1-6 of one experiment (see the module docstring); tables are
    written from the returned report by emit_report."""
    cfg.validate()
    started = time.time()
    out_dir = cfg.output_dir
    _check_writable(out_dir)

    # Wall seconds of each set-up step; the search's record has its helpers' cost.
    stages = {name: {} for name in ("prepare", "search", "pool")}
    with _timed(stages["prepare"], "seconds"):
        src = prepare_source(cfg)
        cfg.validate(columns=len(src.names))
    with _timed(stages["search"], "seconds"):
        generator, gen_report, search_table, loan = fit_generator(cfg, src)
    stages["search"].update(helper_cpu_s=loan.cpu_s, helper_peak_rss_mb=loan.peak_rss_mb)
    with _timed(stages["pool"], "seconds"):
        pool = label_pool(cfg, src, generator)
        check_no_leakage(pool, src)

    report = RunReport(manifest={}, cells=[], direct_cells=[], clustering_rows=[],
                       failures=[], plot={**pool.plot_rows(), "silhouette_samples": []},
                       timings={"stages": stages, "units": []})
    eval_sets = {"synthetic": (pool.x_synth, pool.y_synth),
                 "testing": (pool.x_reserve, pool.y_reserve),
                 "original": (src.x_orig, src.y_orig)}
    inputs = CellInputs(cfg, src, pool, search_table, eval_sets, time.perf_counter())
    cores = _usable_cores()
    workers = min(cores, len(cell_units(cfg)))
    # Forked workers inherit `inputs` and the BLAS thread count (silhouette bits depend on it).
    global _CELLS
    import multiprocessing
    _CELLS = inputs, multiprocessing.get_context("fork").Semaphore(cores)
    with lending(_CELLS[1]):        # it gives back what a lost worker held
        run_cells(inputs, workers, report)
    _CELLS = None
    report.timings["wall_s"] = time.perf_counter() - inputs.started
    # Each process's peak, summed: a bound on the run's resident memory (the
    # peaks need not coincide, and pages shared since the fork count in each).
    peaks = {}
    for unit in report.timings["units"]:
        peaks[unit["pid"]] = max(peaks.get(unit["pid"], 0.0), unit["peak_rss_mb"])
    peaks[os.getpid()] = report.timings["main_peak_rss_mb"] = _peak_rss_mb()
    report.timings["summed_peak_rss_mb"] = sum(peaks.values()) + sum(
        sum(record.get("helper_peak_rss_mb", []))
        for record in [stages["search"], *report.timings["units"]])

    import scipy                    # read for its version only
    report.manifest = {
        "version": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
        "master_seed": cfg.master_seed, "criterion": cfg.gmm_criterion,
        "selected_k": generator.k, "selected_kind": generator.kind,
        "generator_log_likelihood": gen_report.log_likelihood,
        "config": {key: repr(getattr(cfg, attr)) for key, (attr, _) in
                   _CONFIG_KEYS.items()},
        "clustering_degree": clustering_degree(cfg),
        "artifacts": {name: os.path.join(out_dir, name)
                      for name in ("clean.csv", "synthetic.csv", "reserved.csv")},
        "n_cells": len(report.cells), "n_failures": len(report.failures),
        "workers": workers, "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "started_unix": started, "finished_unix": time.time(),
    }
    return report

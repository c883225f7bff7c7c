"""Command-line interface.

Subcommands: genfit (clean/scale/mixture search), synth (sample + labels),
induce (mask a matrix), impute (fill one holed CSV), evaluate (masked-error
metrics), run (full experiment from a config), report (re-emit tables).
Exit codes: 0 success, 1 usage, validation or configuration error or an
output file that cannot be written, 2 completed run with recorded cell
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

import numpy as np

from .data import (ColumnSchema, from_matrix, load_csv, load_mask_csv, load_scaler,
                   save_csv, save_scaler, write_json)
from .helpers import lending
from .gmm import load_model, save_model, write_search_table
from .imputers import METHODS, run_imputer, save_imputation
from .metrics import regression_metrics_masked
from .missingness import MissingnessSpec, induce_missingness, save_induced
from .pipeline import (_CONFIG_KEYS, ConfigError, ExperimentConfig, PreparedSource,
                       _imputer_spec, _usable_cores, emit_report, fit_generator,
                       label_pool, load_report_json, parse_config, prepare_source,
                       run_pipeline, save_pool, save_report_json, write_plot_tables)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CELL_FAILURES = 2

IMPUTE_KEYS = ("knn.k", "copies", "mice.sweeps", "missforest.max_sweeps", "mice.ridge")


def cmd_genfit(args) -> int:
    cfg = parse_config(args.config)
    os.makedirs(cfg.output_dir, exist_ok=True)
    src = prepare_source(cfg)
    generator, report, table, _ = fit_generator(cfg, src)
    write_search_table(os.path.join(cfg.output_dir, "gmm_search.csv"), table)
    save_model(os.path.join(cfg.output_dir, "generator.npz"), generator)
    save_scaler(os.path.join(cfg.output_dir, "scaler.npz"), src.scaler)
    save_csv(os.path.join(cfg.output_dir, "clean_scaled.csv"),
             np.column_stack([src.x_orig, src.y_orig]),
             src.names + ["label"])
    write_json(os.path.join(cfg.output_dir, "meta.json"), {
        "names": src.names,
        "schema": [{"name": c.name, "kind": c.kind, "lower": c.lower,
                    "upper": c.upper} for c in src.schema_w],
        "selected_k": generator.k,
        "selected_kind": generator.kind,
        "criterion": cfg.gmm_criterion,
        "log_likelihood": report.log_likelihood,
        "aic": report.aic,
        "bic": report.bic,
    })
    print(f"selected k={generator.k} kind={generator.kind} "
          f"by {cfg.gmm_criterion} over {len(table)} grid cells "
          f"-> {cfg.output_dir}/")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = parse_config(args.config)
    out = cfg.output_dir
    needed = ["generator.npz", "scaler.npz", "clean_scaled.csv", "meta.json"]
    missing = [f for f in needed if not os.path.exists(os.path.join(out, f))]
    if missing:
        raise ConfigError(f"missing {missing} in {out}; run genfit first")
    generator = load_model(os.path.join(out, "generator.npz"))
    scaler = load_scaler(os.path.join(out, "scaler.npz"))
    with open(os.path.join(out, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    clean = load_csv(os.path.join(out, "clean_scaled.csv")).features
    x_orig, y_orig = clean[:, :-1], clean[:, -1]
    schema_w = [ColumnSchema(c["name"], c["kind"], c["lower"], c["upper"])
                for c in meta["schema"]]
    src = PreparedSource(clean=from_matrix(x_orig, y_orig), scaler=scaler,
                         x_orig=x_orig, y_orig=y_orig, names=meta["names"],
                         schema_w=schema_w)
    pool = label_pool(cfg, src, generator)
    save_pool(out, pool, src.names)
    write_plot_tables(out, pool.plot_rows())
    print(f"sampled {cfg.synth_n} + {cfg.reserve_n} reserved rows -> {out}/")
    return EXIT_OK


def cmd_induce(args) -> int:
    data = load_csv(args.input)
    cfg = ExperimentConfig(scheme=args.scheme, degrees=[args.degree],
                           mar_drivers=_CONFIG_KEYS["missing.mar_drivers"][1](args.drivers))
    cfg.validate(columns=data.cols)
    spec = MissingnessSpec(scheme=cfg.scheme, degree=args.degree,
                           mar_drivers=cfg.mar_drivers)
    induced = induce_missingness(data.features, spec, args.seed)
    holed_path, mask_path = save_induced(args.out, induced, data.column_names())
    print(f"masked {int(induced.mask.sum())} of {induced.mask.size} cells "
          f"(fraction {induced.realized_fraction:.4f}) -> {holed_path}, {mask_path}")
    return EXIT_OK


def cmd_impute(args) -> int:
    cfg = ExperimentConfig(mice_noise=not args.no_noise)
    for key in IMPUTE_KEYS:
        setattr(cfg, _CONFIG_KEYS[key][0], getattr(args, key.split(".")[-1]))
    cfg.validate()
    data = load_csv(args.input)
    names = data.column_names()
    # The forests of missforest may borrow every usable core but this one's.
    with lending(threading.Semaphore(_usable_cores() - 1)):
        result = run_imputer(data.features, _imputer_spec(cfg, args.method, args.seed),
                             names)
    paths = save_imputation(args.out, result, names)
    print(f"{args.method}: {len(result.copies)} copies -> " + ", ".join(paths))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    truth = load_csv(args.truth)
    imputed = load_csv(args.imputed, truth.schema).features
    mask = load_mask_csv(args.mask, truth.schema)
    metrics = regression_metrics_masked(truth.features, imputed, mask)
    if args.out:
        write_json(args.out, metrics)
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    report = run_pipeline(cfg)
    emit_report(report, cfg.output_dir)
    save_report_json(report, cfg.output_dir)
    print(f"{len(report.cells)} classification cells, "
          f"{len(report.direct_cells)} direct-metric cells, "
          f"{len(report.failures)} failures -> {cfg.output_dir}/")
    if report.failures:
        for f in report.failures[:10]:
            print(f"  FAILED {f['method']} degree={f['degree']} "
                  f"rep={f['repetition']} [{f['stage']}]: {f['error']}",
                  file=sys.stderr)
        return EXIT_CELL_FAILURES
    return EXIT_OK


def cmd_report(args) -> int:
    path = os.path.join(args.run_dir, "report.json")
    if not os.path.exists(path):
        raise ConfigError(f"no report.json under {args.run_dir}")
    report = load_report_json(path)
    out = args.out or args.run_dir
    written = emit_report(report, out)
    print("\n".join(written))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: exit 1 with one `error:` line,
    not argparse's exit 2, which misslab keeps for recorded cell failures."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="misslab",
        description="Synthetic-data missingness experiments: generate, "
                    "induce, impute, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genfit", help="clean + scale + mixture model search")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_genfit)

    p = sub.add_parser("synth", help="sample synthetic data and label it")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("induce", help="mask a fully observed CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output stem")
    p.add_argument("--scheme", default=ExperimentConfig().scheme,
                   help="sets missing.scheme")
    p.add_argument("--degree", type=float, required=True, help="sets missing.degrees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drivers", default="",
                   help="sets missing.mar_drivers: column indices, comma-separated")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("impute", help="fill missing cells of a holed CSV")
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output stem")
    p.add_argument("--seed", type=int, default=0)
    for key in IMPUTE_KEYS:
        attr, parse = _CONFIG_KEYS[key]
        p.add_argument("--" + key.split(".")[-1].replace("_", "-"), type=parse,
                       default=getattr(ExperimentConfig(), attr), help=f"sets {key}")
    p.add_argument("--no-noise", action="store_true", help="sets mice.noise = false")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("evaluate", help="masked-cell recovery metrics")
    p.add_argument("--truth", required=True)
    p.add_argument("--imputed", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full experiment from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="re-emit report tables from a run dir")
    p.add_argument("run_dir")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Correctness check of one finished `misslab run`.

Every run, for any seed, must report every expected (method, degree,
repetition) cell, and every table value must be finite and inside its
range. Runs at the default workload seed must also agree with reference
values recorded from a known-good commit (`reference/<workload>.json`)
within REL_TOL. `silhouette_samples.csv` is compared through per-cluster
count, mean, min and max, because its bytes depend on the BLAS thread
count; `manifest.json` and `report.json` carry wall-clock stamps and are
never compared.
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import Workload

REL_TOL = 1e-6
ABS_TOL = 1e-9

TABLES = ("accuracy", "loss", "direct", "clustering", "metrics",
          "silhouette_samples")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_tables(out_dir: str) -> dict[str, list[list]]:
    """Each table as header-less rows; numeric fields become floats."""
    tables = {}
    for name in TABLES:
        with open(os.path.join(out_dir, f"{name}.csv"), encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        tables[name] = [[_cell(v) for v in row] for row in rows]
    return tables


def summarize(tables: dict[str, list[list]]) -> dict[str, list[list]]:
    """The tables as compared with the reference: silhouette samples become
    [method, clusters, cluster, count, mean, min, max] per cluster."""
    groups: dict[tuple, list[float]] = {}
    for method, k, cluster, value in tables["silhouette_samples"]:
        groups.setdefault((method, k, cluster), []).append(value)
    out = {name: rows for name, rows in tables.items()
           if name != "silhouette_samples"}
    out["silhouette_samples"] = [
        [m, k, c, float(len(v)), math.fsum(v) / len(v), min(v), max(v)]
        for (m, k, c), v in groups.items()]
    return out


def _bad(value, lo=-math.inf, hi=math.inf) -> bool:
    return (not isinstance(value, float) or not math.isfinite(value)
            or not lo <= value <= hi)


def structural_problems(tables: dict[str, list[list]], wl: Workload) -> list[str]:
    """Missing cells and out-of-range values, for any seed."""
    problems = []
    metric_rows: dict[tuple, dict[str, float]] = {}
    for method, _scheme, degree, rep, metric, value in tables["metrics"]:
        metric_rows.setdefault((method, degree, rep), {})[metric] = value
    eval_cols = ("training", "validation", "synthetic", "testing", "original",
                 "edited_nn")
    for method, degree, rep in wl.classification_cells():
        got = metric_rows.get((method, degree, float(rep)))
        if got is None:
            problems.append(f"metrics.csv: no cell ({method}, {degree}, {rep})")
            continue
        names = [f"{t}_{c}" for t in ("accuracy", "loss") for c in eval_cols]
        if method != "none":
            names += ["rmse", "r2", "mape"]
        for name in names:
            if name not in got:
                problems.append(f"metrics.csv: ({method}, {degree}, {rep}) lacks {name}")
    ranges = {"accuracy": (0.0, 1.0), "loss": (0.0, math.inf),
              "rmse": (0.0, math.inf), "r2": (-math.inf, 1.0),
              "mape": (0.0, math.inf)}
    for method, _scheme, degree, rep, metric, value in tables["metrics"]:
        lo, hi = ranges[metric.split("_")[0]]
        if _bad(value, lo, hi):
            problems.append(f"metrics.csv: {metric}={value!r} for "
                            f"({method}, {degree}, {rep})")

    groups = {(m, d * 100.0) for m, d, _ in wl.classification_cells()}
    for name, (lo, hi) in (("accuracy", (0.0, 1.0)), ("loss", (0.0, math.inf))):
        if {(r[0], r[1]) for r in tables[name]} != groups:
            problems.append(f"{name}.csv: rows differ from the expected cells")
        for row in tables[name]:
            for v in row[2:8]:
                if _bad(v, lo, hi):
                    problems.append(f"{name}.csv: {v!r} in row {row[:2]}")
            for v in row[8:]:
                if _bad(v, 0.0):
                    problems.append(f"{name}.csv: std {v!r} in row {row[:2]}")

    direct = {(m, d * 100.0) for m, d, _ in wl.classification_cells() if m != "none"}
    if {(r[0], r[1]) for r in tables["direct"]} != direct:
        problems.append("direct.csv: rows differ from the expected cells")
    for row in tables["direct"]:
        for v, (lo, hi) in zip(row[2:], (ranges["rmse"], ranges["r2"], ranges["mape"])):
            if _bad(v, lo, hi):
                problems.append(f"direct.csv: {v!r} in row {row[:2]}")

    clusters = {(m, float(k)) for m in wl.imputers for k in wl.clusters}
    if {(r[0], r[1]) for r in tables["clustering"]} != clusters:
        problems.append("clustering.csv: rows differ from the expected cells")
    for row in tables["clustering"]:
        if _bad(row[2], 0.0, 1.0) or _bad(row[3], -1.0, 1.0):
            problems.append(f"clustering.csv: bad values in row {row}")

    counts: dict[tuple, int] = {}
    for method, k, _cluster, value in tables["silhouette_samples"]:
        counts[(method, k)] = counts.get((method, k), 0) + 1
        if _bad(value, -1.0, 1.0):
            problems.append(f"silhouette_samples.csv: {value!r} for ({method}, {k})")
    if counts != {key: wl.synth_n for key in clusters}:
        problems.append("silhouette_samples.csv: not one score per pool row "
                        "for every (method, clusters)")
    return problems


def reference_problems(summary: dict[str, list[list]],
                       reference: dict[str, list[list]]) -> list[str]:
    """Differences from the reference beyond REL_TOL (plus ABS_TOL)."""
    problems = []
    for name, ref_rows in reference.items():
        rows = summary.get(name, [])
        if len(rows) != len(ref_rows):
            problems.append(f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
            continue
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            if len(row) != len(ref):
                problems.append(f"{name} row {i}: {len(row)} fields, reference has {len(ref)}")
                continue
            for got, want in zip(row, ref):
                if isinstance(want, str) or isinstance(got, str):
                    ok = got == want
                else:
                    ok = abs(got - want) <= ABS_TOL + REL_TOL * abs(want)
                if not ok:
                    problems.append(f"{name} row {i}: {got!r} differs from "
                                    f"reference {want!r}")
                    break
    return problems


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(out_dir: str, wl: Workload, compare_reference: bool) -> list[str]:
    """All problems with a run's tables; empty when the run is correct."""
    try:
        tables = read_tables(out_dir)
    except (OSError, ValueError) as exc:
        return [f"cannot read tables: {exc}"]
    try:
        problems = structural_problems(tables, wl)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed table: {type(exc).__name__}: {exc}"]
    if compare_reference and not problems:
        problems = reference_problems(summarize(tables), load_reference(wl.name))
    return problems

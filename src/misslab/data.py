"""Tabular data model: matrices with missing cells, masks, schemas, scaling.

A data matrix is a 2-D float64 ndarray where missing cells are np.nan and
every stored value is finite. A mask matrix is the companion uint8 ndarray
with 1 exactly where the data cell is missing and 0 where it is observed.
The NaN pattern is the only record of which cells are missing: masks are
derived with `mask_of` and never stored beside their matrix.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from ._rng import rng_for

KINDS = ("continuous", "integer", "binary")


@dataclass(frozen=True)
class ColumnSchema:
    """Declared type and range of one column.

    missing_codes are sentinel values (e.g. 99, 999) that mean "missing"
    in the source file and are mapped to missing cells on ingest.
    """

    name: str
    kind: str = "continuous"
    lower: float = -np.inf
    upper: float = np.inf
    missing_codes: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if not self.lower <= self.upper:
            raise ValueError(f"column {self.name!r}: lower > upper")
        if self.kind == "binary" and (self.lower, self.upper) != (0.0, 1.0):
            raise ValueError(f"binary column {self.name!r} must have bounds [0, 1]")
        object.__setattr__(self, "missing_codes", frozenset(self.missing_codes))


def validate_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a 2-D float64 matrix; values must be finite or nan."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"data matrix must be 2-D, got shape {m.shape}")
    if np.isinf(m).any():
        raise ValueError("data matrix contains non-finite values other than nan")
    return m


def mask_of(m: np.ndarray) -> np.ndarray:
    """Mask matrix for m: 1 where missing, 0 where observed."""
    return np.isnan(np.asarray(m, dtype=np.float64)).astype(np.uint8)


def observed_matrix(m: np.ndarray, step: str) -> np.ndarray:
    """validate_matrix(m) for a step that cannot take missing cells."""
    m = validate_matrix(m)
    if np.isnan(m).any():
        raise ValueError(f"{step} requires fully observed data")
    return m


@dataclass
class Dataset:
    """Feature matrix with missing cells, optional binary target, and column
    schemas."""

    features: np.ndarray
    target: np.ndarray | None = None
    schema: list[ColumnSchema] = field(default_factory=list)

    def __post_init__(self):
        self.features = validate_matrix(self.features)
        if self.target is not None:
            self.target = np.asarray(self.target, dtype=np.float64)
            if self.target.shape != (self.features.shape[0],):
                raise ValueError("target length does not match row count")
            if not np.isin(self.target, (0.0, 1.0)).all():
                raise ValueError("target must contain only 0/1 labels")
        if self.schema and len(self.schema) != self.features.shape[1]:
            raise ValueError("schema length does not match column count")

    @property
    def mask(self) -> np.ndarray:
        """mask_of(features): 1 where a cell is missing."""
        return mask_of(self.features)

    @property
    def rows(self) -> int:
        return self.features.shape[0]

    @property
    def cols(self) -> int:
        return self.features.shape[1]

    def column_names(self) -> list[str]:
        if self.schema:
            return [c.name for c in self.schema]
        return [f"x{j}" for j in range(self.cols)]

    def take_rows(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[idx],
            target=None if self.target is None else self.target[idx],
            schema=self.schema,
        )


def from_matrix(features: np.ndarray, target: np.ndarray | None = None,
                schema: list[ColumnSchema] | None = None) -> Dataset:
    """Dataset wrapper around a matrix."""
    return Dataset(features, target, schema or [])


def extract_target(d: Dataset, name: str) -> Dataset:
    """Split a fully observed binary column out of the features as the target."""
    names = d.column_names()
    if name not in names:
        raise ValueError(f"target column {name!r} not in dataset columns {names}")
    j = names.index(name)
    col = d.features[:, j]
    if np.isnan(col).any():
        raise ValueError(f"target column {name!r} has missing cells")
    if not np.isin(col, (0.0, 1.0)).all():
        raise ValueError(f"target column {name!r} is not binary")
    keep = [i for i in range(d.cols) if i != j]
    schema = [d.schema[i] for i in keep] if d.schema else []
    return Dataset(d.features[:, keep], col.copy(), schema)


# ---------------------------------------------------------------------------
# CSV ingestion and persistence: every text file misslab writes goes through
# write_csv or write_json
# ---------------------------------------------------------------------------

def load_csv(path, schema: list[ColumnSchema] | None = None) -> Dataset:
    """Load a UTF-8 comma-separated file, BOM or not, against a declared schema.

    The header row must match the schema names in order; without a schema,
    every header name becomes a plain continuous column. Empty fields and
    declared missing codes become missing cells; everything else must parse
    as a finite number.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise FileNotFoundError(f"input file not found: {path}") from None
    with fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty, expected a header row") from None
        if schema is None:
            schema = [ColumnSchema(h.strip()) for h in header]
        names = [c.name for c in schema]
        if [h.strip() for h in header] != names:
            raise ValueError(
                f"{path}: header mismatch: expected {names}, found {header}")
        rows = []
        for i, rec in enumerate(reader):
            if len(rec) != len(schema):
                raise ValueError(
                    f"{path}: row {i + 1} has {len(rec)} fields, expected {len(schema)}")
            row = []
            for cell, col in zip(rec, schema):
                cell = cell.strip()
                if cell == "":
                    row.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: unparseable cell at row {i + 1}, "
                        f"column {col.name!r}: {cell!r}") from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite cell at row {i + 1}, column {col.name!r}")
                row.append(np.nan if value in col.missing_codes else value)
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    features = np.array(rows, dtype=np.float64).reshape(len(rows), len(schema))
    return Dataset(features, None, list(schema))


def load_schema_file(path) -> list[ColumnSchema]:
    """Schema CSV: name,kind,lower,upper,missing_codes ('|'-separated).

    A bad file raises ValueError naming the file, the row (counting data
    rows from 1) and the column.
    """
    schema = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(_utf8_lines(fh, path))
        if "name" not in (reader.fieldnames or []):
            raise ValueError(f"{path}: schema header has no 'name' column, "
                             f"found {reader.fieldnames}")
        for i, row in enumerate(reader, start=1):
            lower = _schema_number(path, i, "lower", row.get("lower") or "-inf")
            upper = _schema_number(path, i, "upper", row.get("upper") or "inf")
            codes = [_schema_number(path, i, "missing_codes", c)
                     for c in (row.get("missing_codes") or "").split("|") if c]
            try:
                schema.append(ColumnSchema(row["name"] or "", row.get("kind") or "continuous",
                                           lower, upper, frozenset(codes)))
            except ValueError as exc:      # names the column already
                raise ValueError(f"{path}: row {i}: {exc}") from None
    return schema


def _utf8_lines(fh, path):
    """The lines of `fh`; bytes that are not UTF-8 raise a ValueError naming `path`."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _schema_number(path, row: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}: unparseable number at row {row}, "
                         f"column {column!r}: {text!r}") from None


def write_csv(path, header: list, rows) -> None:
    """Write a header and rows as comma-separated text (RFC 4180); a float,
    numpy's float64 included, is written as repr writes a Python float."""
    with _writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write `payload` as JSON indented by 2, with sorted keys."""
    with _writing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


@contextlib.contextmanager
def _writing(path):
    """A text file opened for writing; a failure raises OSError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_csv(path, matrix: np.ndarray, names: list[str] | None = None) -> None:
    """Write a data matrix as CSV; missing cells become empty fields."""
    matrix = validate_matrix(matrix)
    # Python floats: v != v only for NaN.
    write_csv(path, names or [f"x{j}" for j in range(matrix.shape[1])],
              (["" if v != v else v for v in row] for row in matrix.tolist()))


def save_mask_csv(path, mask: np.ndarray, names: list[str] | None = None) -> None:
    """Write a mask matrix as a 0/1 CSV of the same shape as its data."""
    mask = np.asarray(mask, dtype=np.uint8)
    write_csv(path, names or [f"x{j}" for j in range(mask.shape[1])], mask.tolist())


def load_mask_csv(path, schema: list[ColumnSchema] | None = None) -> np.ndarray:
    """Read a mask CSV as written by save_mask_csv; load_csv checks its header
    against `schema`. A cell other than 0 or 1, an empty one included, raises
    ValueError naming the file, the row (data rows from 1) and the column."""
    d = load_csv(path, schema)
    bad = np.argwhere(~np.isin(d.features, (0.0, 1.0)))
    if bad.size:
        i, j = bad[0]
        cell = d.features[i, j]
        shown = "empty" if np.isnan(cell) else repr(float(cell))
        raise ValueError(f"{path}: mask cell at row {i + 1}, column "
                         f"{d.column_names()[j]!r} is {shown}, expected 0 or 1")
    return d.features.astype(np.uint8)


# ---------------------------------------------------------------------------
# Cleaning, scaling, schema conformance, splitting
# ---------------------------------------------------------------------------

def drop_incomplete_rows(d: Dataset) -> Dataset:
    """Keep only rows with zero missing cells (complete-case filter)."""
    complete = ~d.mask.astype(bool).any(axis=1)
    if not complete.any():
        raise ValueError("every row has at least one missing cell; nothing left")
    return d.take_rows(np.flatnonzero(complete))


@dataclass(frozen=True)
class ScalerParams:
    """Per-column min/max over observed cells, for min-max scaling."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", np.asarray(self.mins, dtype=np.float64))
        object.__setattr__(self, "maxs", np.asarray(self.maxs, dtype=np.float64))
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("scaler mins/maxs must be equal-length vectors")
        if (self.maxs < self.mins).any():
            raise ValueError("scaler has max < min")


def save_scaler(path, p: ScalerParams) -> None:
    np.savez(path, mins=p.mins, maxs=p.maxs)


def load_scaler(path) -> ScalerParams:
    return load_npz(path, ("mins", "maxs"), ScalerParams)


def load_npz(path, keys, build):
    """build(**arrays) of the arrays `keys` of the .npz file at `path`. A
    file that is not an .npz holding them, or whose arrays `build` rejects
    with a ValueError, raises a ValueError naming it."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in keys}
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        raise ValueError(f"{path}: not an .npz file of {', '.join(keys)}") from None
    try:
        return build(**arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def fit_minmax(m: np.ndarray, names: list[str] | None = None) -> ScalerParams:
    """Per-column min/max over observed cells only."""
    m = validate_matrix(m)
    observed = ~np.isnan(m)
    empty = ~observed.any(axis=0)
    if empty.any():
        j = int(np.flatnonzero(empty)[0])
        label = names[j] if names else f"column {j}"
        raise ValueError(f"cannot fit scaler: {label} has no observed cells")
    with np.errstate(invalid="ignore"):
        return ScalerParams(np.nanmin(m, axis=0), np.nanmax(m, axis=0))


def scaler_transform(p: ScalerParams, m: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Min-max scale a matrix column-wise; missing cells stay missing.

    Forward maps x to (x - min) / (max - min); constant columns map to 0.0.
    Inverse maps back; constant columns map to their constant.
    """
    m = validate_matrix(m)
    if m.shape[1] != p.mins.shape[0]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns, scaler has {p.mins.shape[0]}")
    span = p.maxs - p.mins
    constant = span == 0.0
    safe_span = np.where(constant, 1.0, span)
    if direction == "forward":
        out = (m - p.mins) / safe_span
        out[:, constant] = np.where(np.isnan(m[:, constant]), np.nan, 0.0)
    elif direction == "inverse":
        out = m * safe_span + p.mins
        out[:, constant] = np.where(np.isnan(m[:, constant]), np.nan, p.mins[constant])
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return out


def conform_to_schema(m: np.ndarray, schema: list[ColumnSchema]) -> np.ndarray:
    """Force cells into each column's declared type and range.

    Continuous cells are clipped, integer cells rounded half-away-from-zero
    then clipped, binary cells thresholded at 0.5. Missing cells untouched.
    """
    m = validate_matrix(m)
    if m.shape[1] != len(schema):
        raise ValueError(f"matrix has {m.shape[1]} columns, schema has {len(schema)}")
    out = m.copy()
    for j, col in enumerate(schema):
        x = out[:, j]
        obs = ~np.isnan(x)
        v = x[obs]
        if col.kind == "binary":
            v = (v >= 0.5).astype(np.float64)
        else:
            if col.kind == "integer":
                v = np.copysign(np.floor(np.abs(v) + 0.5), v)
            v = np.clip(v, col.lower, col.upper)
        x[obs] = v
    return out


def split_indices(n: int, fractions: list[float], seed: int) -> list[np.ndarray]:
    """Row-disjoint partition of range(n) by seeded shuffle.

    Split sizes are the rounded fractions; the rounding remainder goes to
    the first split.
    """
    fractions = [float(f) for f in fractions]
    if not fractions or any(f <= 0 for f in fractions):
        raise ValueError("fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    sizes = [int(round(f * n)) for f in fractions]
    sizes[0] += n - sum(sizes)
    if sizes[0] < 0:
        raise ValueError("rounded fractions overshoot the row count")
    perm = rng_for(seed, "split").permutation(n)
    out, start = [], 0
    for size in sizes:
        out.append(np.sort(perm[start:start + size]))
        start += size
    return out


def split_dataset(d: Dataset, fractions: list[float], seed: int) -> list[Dataset]:
    """Partition a dataset into row-disjoint splits (see split_indices)."""
    return [d.take_rows(idx) for idx in split_indices(d.rows, fractions, seed)]

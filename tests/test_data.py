"""Tabular data model: masks, schemas, CSV ingestion, scaling, splitting."""

import ast
import csv
from pathlib import Path

import numpy as np
import pytest

from misslab.data import (
    ColumnSchema,
    conform_to_schema,
    drop_incomplete_rows,
    extract_target,
    fit_minmax,
    from_matrix,
    load_csv,
    load_mask_csv,
    load_scaler,
    load_schema_file,
    mask_of,
    save_csv,
    save_mask_csv,
    save_scaler,
    scaler_transform,
    split_dataset,
    split_indices,
    validate_matrix,
    write_csv,
)
from misslab.cluster import fit_kmeans
from misslab.forest import ForestSpec, predict_forest, train_forest
from misslab.gmm import fit_em
from misslab.nnet import FeedForward, MlpModel, predict_mlp, train_mlp
from misslab.resampling import ResampleSpec, enn_undersample, smote_oversample

NAN = np.nan


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Schemas and matrix validation
# ---------------------------------------------------------------------------

def test_schema_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        ColumnSchema("a", kind="ordinal")


def test_schema_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="lower > upper"):
        ColumnSchema("a", lower=2.0, upper=1.0)


def test_binary_schema_requires_unit_bounds():
    with pytest.raises(ValueError, match="must have bounds"):
        ColumnSchema("a", kind="binary", lower=0.0, upper=2.0)
    col = ColumnSchema("flag", kind="binary", lower=0.0, upper=1.0)
    assert (col.lower, col.upper) == (0.0, 1.0)


def test_validate_matrix_rejects_inf_and_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        validate_matrix(np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        validate_matrix(np.array([[1.0, np.inf]]))


def test_mask_of_marks_missing_cells_only():
    m = np.array([[1.0, NAN], [NAN, 4.0]])
    assert mask_of(m).tolist() == [[0, 1], [1, 0]]


Y8 = np.arange(8) % 2.0
FOREST = train_forest(np.zeros((8, 2)), Y8, ForestSpec(n_trees=1))
MLP = MlpModel(FeedForward([2, 1], output="sigmoid-binary"))

# Every step that needs fully observed data, with the name its error gives.
STEPS = {
    "fit_em": ("EM", lambda m: fit_em(m, 1, "spherical")),
    "train_forest": ("forest training", lambda m: train_forest(m, Y8, ForestSpec())),
    "predict_forest": ("forest prediction", lambda m: predict_forest(FOREST, m)),
    "fit_kmeans": ("k-means", lambda m: fit_kmeans(m, 1, seed=0)),
    "train_mlp": ("training", lambda m: train_mlp(from_matrix(m, Y8),
                                                  from_matrix(m, Y8))),
    "predict_mlp": ("prediction", lambda m: predict_mlp(MLP, m)),
    "smote_oversample": ("resampling", lambda m: smote_oversample(
        from_matrix(m, Y8), ResampleSpec())),
    "enn_undersample": ("resampling", lambda m: enn_undersample(
        from_matrix(m, Y8), ResampleSpec())),
}


@pytest.mark.parametrize("step, call", STEPS.values(), ids=STEPS)
def test_every_step_rejects_one_missing_cell_by_name(step, call):
    m = np.arange(16.0).reshape(8, 2)
    m[5, 1] = NAN
    with pytest.raises(ValueError, match=f"^{step} requires fully observed data$"):
        call(m)


def test_dataset_mask_is_derived_from_features():
    d = from_matrix(np.array([[1.0, NAN]]))
    assert d.mask.tolist() == [[0, 1]]
    assert d.take_rows(np.array([0, 0])).mask.tolist() == [[0, 1], [0, 1]]


def test_dataset_target_must_be_binary():
    feats = np.ones((3, 2))
    with pytest.raises(ValueError, match="0/1"):
        from_matrix(feats, target=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="length"):
        from_matrix(feats, target=np.array([0.0, 1.0]))


def test_extract_target_splits_fully_observed_binary_column():
    feats = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
    schema = [ColumnSchema("x"), ColumnSchema("y", "binary", 0.0, 1.0)]
    d = extract_target(from_matrix(feats, schema=schema), "y")
    assert d.target.tolist() == [0.0, 1.0, 1.0]
    assert d.features.shape == (3, 1)
    assert d.column_names() == ["x"]


def test_extract_target_rejects_missing_or_nonbinary_column():
    feats = np.array([[1.0, NAN], [2.0, 1.0]])
    with pytest.raises(ValueError, match="missing cells"):
        extract_target(from_matrix(feats, schema=[ColumnSchema("x"), ColumnSchema("y")]), "y")
    feats = np.array([[1.0, 3.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="not binary"):
        extract_target(from_matrix(feats, schema=[ColumnSchema("x"), ColumnSchema("y")]), "y")
    with pytest.raises(ValueError, match="not in dataset"):
        extract_target(from_matrix(feats), "z")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_load_csv_blank_cell_becomes_missing(tmp_path):
    p = write(tmp_path / "t.csv", "a,b\n1,2\n3,\n5,6\n")
    d = load_csv(p, [ColumnSchema("a"), ColumnSchema("b")])
    assert d.features.shape == (3, 2)
    assert int(d.mask.sum()) == 1
    assert d.mask[1, 1] == 1


def test_load_csv_missing_code_becomes_missing(tmp_path):
    p = write(tmp_path / "t.csv", "a\n99\n1\n")
    d = load_csv(p, [ColumnSchema("a", missing_codes=frozenset({99}))])
    assert d.mask.tolist() == [[1], [0]]
    assert d.features[1, 0] == 1.0


def test_load_csv_nonexistent_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv", [ColumnSchema("a")])


def test_load_csv_header_mismatch(tmp_path):
    p = write(tmp_path / "t.csv", "wrong\n1\n")
    with pytest.raises(ValueError, match="header mismatch"):
        load_csv(p, [ColumnSchema("a")])


def test_load_csv_without_schema_takes_continuous_columns_from_header(tmp_path):
    p = write(tmp_path / "t.csv", "a, b\n1,\n3,4\n")
    d = load_csv(p)
    assert d.column_names() == ["a", "b"]
    assert all(c.kind == "continuous" for c in d.schema)
    assert d.mask.tolist() == [[0, 1], [0, 0]]


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n", encoding="utf-8-sig")
    assert load_csv(p).column_names() == ["a", "b"]
    assert load_csv(p, [ColumnSchema("a"), ColumnSchema("b")]).features.tolist() == [[1, 2]]


def test_load_csv_not_utf8_names_the_file(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"a,b\n1,2\n3,\xff\n")
    with pytest.raises(ValueError, match=r"latin\.csv: not UTF-8 text"):
        load_csv(p)


def test_load_csv_unparseable_cell_reports_row_and_column(tmp_path):
    p = write(tmp_path / "t.csv", "a,b\n1,2\n1,zap\n")
    with pytest.raises(ValueError, match="row 2.*'b'"):
        load_csv(p, [ColumnSchema("a"), ColumnSchema("b")])


def test_save_csv_round_trips_values_and_missing(tmp_path):
    m = np.array([[1.5, NAN], [0.1 + 0.2, 4.0]])
    p = tmp_path / "m.csv"
    save_csv(p, m, names=["a", "b"])
    back = load_csv(p, [ColumnSchema("a"), ColumnSchema("b")])
    assert np.array_equal(mask_of(m), back.mask)
    obs = ~np.isnan(m)
    # repr() formatting makes the round trip exact, not just close.
    assert (m[obs] == back.features[obs]).all()


def old_csv_writers(path, matrix, mask_path, mask, names):
    """The writers before they read Python lists: one np.isnan and one
    float() per numpy scalar."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in matrix:
            writer.writerow(["" if np.isnan(v) else repr(float(v)) for v in row])
    with open(mask_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in mask:
            writer.writerow([str(int(v)) for v in row])


def test_csv_writers_match_the_old_writers_byte_for_byte(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-20, 20, size=(40, 6))
    m[0] = [-0.0, 0.0, 1e-300, 5e-324, -5e-324, 1.7976931348623157e308]
    m[1] = [3.0, -12.0, 1e16, 2.0 ** 53, 0.1 + 0.2, 1.0 / 3.0]
    m[rng.random(m.shape) < 0.25] = NAN
    m[2] = NAN
    names = [f"c{j}" for j in range(6)]
    old, old_mask = tmp_path / "old.csv", tmp_path / "old.mask.csv"
    old_csv_writers(old, m, old_mask, mask_of(m), names)
    save_csv(tmp_path / "new.csv", m, names)
    save_mask_csv(tmp_path / "new.mask.csv", mask_of(m), names)
    assert (tmp_path / "new.csv").read_bytes() == old.read_bytes()
    assert (tmp_path / "new.mask.csv").read_bytes() == old_mask.read_bytes()


def test_write_csv_writes_a_float64_as_its_python_float(tmp_path):
    values = [0.5, 0.1 + 0.2, 1e-300, -0.0, 2.0 ** 53, float("nan")]
    write_csv(tmp_path / "py.csv", ["v"], [[v] for v in values])
    write_csv(tmp_path / "np.csv", ["v"], [[np.float64(v)] for v in values])
    text = (tmp_path / "np.csv").read_text(encoding="utf-8")
    assert text == (tmp_path / "py.csv").read_text(encoding="utf-8")
    assert text.split()[1:] == ["0.5", "0.30000000000000004", "1e-300", "-0.0",
                                "9007199254740992.0", "nan"]


def file_writes(tree: ast.AST) -> list[str]:
    """The calls in `tree` that write a file: csv.writer, json.dump and open
    with a writing mode."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        writes = isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+")
        if func in ("csv.writer", "json.dump") or (func == "open" and writes):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_only_the_data_module_writes_files():
    package = Path(__file__).resolve().parent.parent / "src" / "misslab"
    assert file_writes(ast.parse((package / "data.py").read_text(encoding="utf-8")))
    for path in sorted(package.glob("*.py")):
        if path.name != "data.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert file_writes(tree) == [], path.name


def test_mask_csv_round_trip(tmp_path):
    mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    p = tmp_path / "m.mask.csv"
    save_mask_csv(p, mask)
    back = load_mask_csv(p)
    assert back.dtype == np.uint8 and np.array_equal(back, mask)


def test_load_schema_file_reads_every_column(tmp_path):
    p = write(tmp_path / "schema.csv",
              "name,kind,lower,upper,missing_codes\n"
              "age,integer,0,120,999|-1\n"
              "flag,binary,0,1,\n"
              "w,,,,\n")
    assert load_schema_file(p) == [
        ColumnSchema("age", "integer", 0.0, 120.0, frozenset({999.0, -1.0})),
        ColumnSchema("flag", "binary", 0.0, 1.0),
        ColumnSchema("w"),
    ]


def test_load_schema_file_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "schema.csv"
    p.write_text("name,kind\nage,integer\n", encoding="utf-8-sig")
    assert load_schema_file(p) == [ColumnSchema("age", "integer")]


def test_load_schema_file_not_utf8_names_the_file(tmp_path):
    p = tmp_path / "schema.csv"
    p.write_bytes(b"name,kind\nage\xff,integer\n")
    with pytest.raises(ValueError, match=r"schema\.csv: not UTF-8 text"):
        load_schema_file(p)


def test_load_schema_file_without_name_column_names_the_file(tmp_path):
    p = write(tmp_path / "schema.csv", "column,kind\nage,integer\n")
    with pytest.raises(ValueError, match=r"schema\.csv: schema header has no 'name'"):
        load_schema_file(p)


@pytest.mark.parametrize("row, where", [
    ("age,continuous,abc,1,", "row 2, column 'lower': 'abc'"),
    ("age,continuous,0,x1,", "row 2, column 'upper': 'x1'"),
    ("age,continuous,0,1,9|n", "row 2, column 'missing_codes': 'n'"),
    ("age,ordinal,0,1,", "row 2: column 'age': unknown kind"),
])
def test_load_schema_file_bad_value_names_file_row_and_column(tmp_path, row, where):
    p = write(tmp_path / "schema.csv",
              "name,kind,lower,upper,missing_codes\nok,continuous,0,1,\n" + row + "\n")
    with pytest.raises(ValueError) as err:
        load_schema_file(p)
    assert str(err.value).startswith(f"{p}: ") and where in str(err.value)


# ---------------------------------------------------------------------------
# Cleaning and scaling
# ---------------------------------------------------------------------------

def test_drop_incomplete_rows_keeps_complete_rows_in_order():
    d = from_matrix(np.array([[1.0, NAN], [2.0, 3.0]]))
    out = drop_incomplete_rows(d)
    assert out.features.tolist() == [[2.0, 3.0]]
    assert out.mask.sum() == 0


def test_drop_incomplete_rows_identity_on_fully_observed():
    d = from_matrix(np.arange(6.0).reshape(3, 2))
    out = drop_incomplete_rows(d)
    assert np.array_equal(out.features, d.features)


def test_drop_incomplete_rows_is_idempotent():
    d = from_matrix(np.array([[1.0, NAN], [2.0, 3.0], [NAN, 5.0]]))
    once = drop_incomplete_rows(d)
    twice = drop_incomplete_rows(once)
    assert np.array_equal(once.features, twice.features)


def test_drop_incomplete_rows_errors_when_nothing_left():
    d = from_matrix(np.array([[NAN, 1.0], [2.0, NAN]]))
    with pytest.raises(ValueError, match="nothing left"):
        drop_incomplete_rows(d)


def test_fit_minmax_definition_constant_and_missing_cases():
    p = fit_minmax(np.array([[0.0], [5.0], [10.0]]))
    assert (p.mins[0], p.maxs[0]) == (0.0, 10.0)
    p = fit_minmax(np.array([[7.0], [7.0], [7.0]]))
    assert (p.mins[0], p.maxs[0]) == (7.0, 7.0)
    p = fit_minmax(np.array([[1.0], [NAN], [3.0]]))
    assert (p.mins[0], p.maxs[0]) == (1.0, 3.0)


def test_fit_minmax_all_missing_column_names_the_column():
    m = np.array([[1.0, NAN], [2.0, NAN]])
    with pytest.raises(ValueError, match="height"):
        fit_minmax(m, names=["age", "height"])


def test_scaler_forward_midpoint():
    p = fit_minmax(np.array([[0.0], [10.0]]))
    out = scaler_transform(p, np.array([[5.0]]), "forward")
    assert out[0, 0] == 0.5


def test_scaler_round_trip_within_1e9():
    m = np.array([[1.0], [2.0], [3.0]])
    p = fit_minmax(m)
    back = scaler_transform(p, scaler_transform(p, m, "forward"), "inverse")
    assert np.max(np.abs(back - m) / np.abs(m)) < 1e-9


def test_scaler_constant_column_maps_to_zero_then_back_to_constant():
    m = np.array([[7.0], [7.0]])
    p = fit_minmax(m)
    fwd = scaler_transform(p, m, "forward")
    assert (fwd == 0.0).all()
    inv = scaler_transform(p, fwd, "inverse")
    assert (inv == 7.0).all()


def test_scaler_preserves_missing_cells():
    p = fit_minmax(np.array([[0.0], [10.0]]))
    out = scaler_transform(p, np.array([[NAN], [5.0]]), "forward")
    assert np.isnan(out[0, 0]) and out[1, 0] == 0.5


def test_scaler_shape_mismatch_and_bad_direction():
    p = fit_minmax(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="columns"):
        scaler_transform(p, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="direction"):
        scaler_transform(p, np.zeros((2, 2)), "sideways")


def test_scaler_persistence_round_trip(tmp_path):
    p = fit_minmax(np.array([[0.0, -1.0], [10.0, 4.0]]))
    path = tmp_path / "scaler.npz"
    save_scaler(path, p)
    q = load_scaler(path)
    assert np.array_equal(p.mins, q.mins) and np.array_equal(p.maxs, q.maxs)


# ---------------------------------------------------------------------------
# Schema conformance
# ---------------------------------------------------------------------------

def test_conform_binary_threshold():
    out = conform_to_schema(np.array([[0.72], [0.49]]), [ColumnSchema("b", "binary", 0.0, 1.0)])
    assert out.tolist() == [[1.0], [0.0]]


def test_conform_integer_round_then_clip():
    schema = [ColumnSchema("i", kind="integer", lower=0.0, upper=40.0)]
    out = conform_to_schema(np.array([[41.3], [2.5], [-0.4]]), schema)
    assert out.tolist() == [[40.0], [3.0], [0.0]]


def test_conform_integer_rounds_half_away_from_zero():
    schema = [ColumnSchema("i", kind="integer", lower=-10.0, upper=10.0)]
    out = conform_to_schema(np.array([[-2.5], [2.5], [-1.2]]), schema)
    assert out.tolist() == [[-3.0], [3.0], [-1.0]]


def test_conform_continuous_clip():
    schema = [ColumnSchema("c", lower=0.0, upper=1.0)]
    out = conform_to_schema(np.array([[-0.2], [0.4], [1.7]]), schema)
    assert out.tolist() == [[0.0], [0.4], [1.0]]


def test_conform_leaves_missing_untouched_and_is_idempotent():
    schema = [ColumnSchema("c", lower=0.0, upper=1.0), ColumnSchema("b", "binary", 0.0, 1.0)]
    m = np.array([[NAN, 0.7], [2.0, NAN]])
    once = conform_to_schema(m, schema)
    assert np.isnan(once[0, 0]) and np.isnan(once[1, 1])
    twice = conform_to_schema(once, schema)
    obs = ~np.isnan(once)
    assert (once[obs] == twice[obs]).all()


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def test_split_sizes_25000_into_80_20():
    parts = split_indices(25000, [0.8, 0.2], seed=0)
    assert [len(p) for p in parts] == [20000, 5000]


def test_split_single_fraction_is_identity():
    (part,) = split_indices(10, [1.0], seed=3)
    assert part.tolist() == list(range(10))


def test_split_same_seed_identical_different_seed_differs():
    a = split_indices(1000, [0.5, 0.5], seed=7)
    b = split_indices(1000, [0.5, 0.5], seed=7)
    c = split_indices(1000, [0.5, 0.5], seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_partitions_all_rows():
    parts = split_indices(103, [0.6, 0.25, 0.15], seed=1)
    merged = np.concatenate(parts)
    assert len(merged) == 103
    assert np.array_equal(np.sort(merged), np.arange(103))


def test_split_remainder_goes_to_first_split():
    # round(0.5 * 3) = 2 twice would overshoot; the first split absorbs it.
    parts = split_indices(3, [0.5, 0.5], seed=0)
    assert [len(p) for p in parts] == [1, 2]


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError, match="sum to 1"):
        split_indices(10, [0.5, 0.4], seed=0)
    with pytest.raises(ValueError, match="positive"):
        split_indices(10, [1.5, -0.5], seed=0)


def test_split_dataset_carries_targets_and_schema():
    feats = np.arange(20.0).reshape(10, 2)
    target = (feats[:, 0] > 8).astype(float)
    d = from_matrix(feats, target=target, schema=[ColumnSchema("a"), ColumnSchema("b")])
    parts = split_dataset(d, [0.7, 0.3], seed=5)
    assert [p.rows for p in parts] == [7, 3]
    for p in parts:
        assert p.schema == d.schema
        # Rows keep their own labels after the shuffle.
        assert np.array_equal(p.target, (p.features[:, 0] > 8).astype(float))

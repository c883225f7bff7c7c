"""Tests of the benchmark itself: correctness check, failure counting,
per-child resource usage and the tracer.

    python3 -m pytest perfbench/tests -q
"""

import copy
import csv
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import DESK, WORKLOADS, Workload  # noqa: E402

EVAL = ("training", "validation", "synthetic", "testing", "original", "edited_nn")

TINY = Workload("tiny", "test", {"imputers": "mean, knn", "missing.degrees": "0.3",
                                 "repetitions": "1", "clusters": "2",
                                 "synth.n": "4"})


def tiny_tables() -> dict:
    """Tables a correct run of TINY could have written."""
    metrics, acc, loss = [], [], []
    for method, degree, rep in TINY.classification_cells():
        for col in EVAL:
            metrics.append([method, "MCAR", degree, float(rep), f"accuracy_{col}", 0.9])
            metrics.append([method, "MCAR", degree, float(rep), f"loss_{col}", 0.2])
        if method != "none":
            metrics += [[method, "MCAR", degree, float(rep), m, v]
                        for m, v in (("rmse", 0.1), ("r2", 0.8), ("mape", 0.3))]
        acc.append([method, degree * 100.0] + [0.9] * 6 + [0.0] * 6)
        loss.append([method, degree * 100.0] + [0.2] * 6 + [0.0] * 6)
    return {
        "accuracy": acc, "loss": loss, "metrics": metrics,
        "direct": [[m, 30.0, 0.1, 0.8, 0.3] for m in TINY.imputers],
        "clustering": [[m, 2.0, 0.7, 0.5] for m in TINY.imputers],
        "silhouette_samples": [[m, 2.0, float(c), 0.5]
                               for m in TINY.imputers for c in (0, 0, 1, 1)],
    }


def write_tables(out_dir, tables) -> None:
    for name, rows in tables.items():
        with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["header"])
            writer.writerows([[repr(v) if isinstance(v, float) else v for v in row]
                              for row in rows])


# ---------------------------------------------------------------------------
# Correctness check
# ---------------------------------------------------------------------------

def test_correct_tables_pass(tmp_path):
    write_tables(tmp_path, tiny_tables())
    assert check.check_outputs(str(tmp_path), TINY, compare_reference=False) == []


@pytest.mark.parametrize("table,row,col,value", [
    ("accuracy", 1, 2, 1.5),          # accuracy above 1
    ("metrics", 0, 5, float("nan")),  # non-finite value
    ("clustering", 0, 3, -1.2),       # silhouette below -1
    ("direct", 0, 3, 1.1),            # r2 above 1
])
def test_out_of_range_value_fails(tmp_path, table, row, col, value):
    tables = tiny_tables()
    tables[table][row][col] = value
    write_tables(tmp_path, tables)
    problems = check.check_outputs(str(tmp_path), TINY, compare_reference=False)
    assert any(table in p for p in problems)


def test_missing_cell_fails():
    tables = tiny_tables()
    tables["metrics"] = [r for r in tables["metrics"] if r[0] != "knn"]
    problems = check.structural_problems(tables, TINY)
    assert any("no cell (knn, 0.3, 0)" in p for p in problems)


def test_missing_table_fails(tmp_path):
    tables = tiny_tables()
    del tables["direct"]
    write_tables(tmp_path, tables)
    assert check.check_outputs(str(tmp_path), TINY, compare_reference=False)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_rejects_one_value_past_tolerance(workload):
    reference = check.load_reference(workload)
    assert check.reference_problems(copy.deepcopy(reference), reference) == []

    inside = copy.deepcopy(reference)
    inside["accuracy"][1][3] *= 1 + check.REL_TOL / 2
    assert check.reference_problems(inside, reference) == []

    for table in ("accuracy", "direct", "silhouette_samples"):
        past = copy.deepcopy(reference)
        past[table][-1][-1] = past[table][-1][-1] * (1 + 3 * check.REL_TOL) + 1e-8
        problems = check.reference_problems(past, reference)
        assert len(problems) == 1 and problems[0].startswith(table)


def test_reference_rejects_missing_row():
    reference = check.load_reference("desk")
    short = copy.deepcopy(reference)
    short["clustering"].pop()
    assert check.reference_problems(short, reference)


def test_desk_workload_is_configs_desk_cfg():
    keys = {}
    with open(os.path.join(ROOT, "configs", "desk.cfg"), encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                k, v = (p.strip() for p in line.split("=", 1))
                keys[k] = v
    assert {k: v for k, v in keys.items() if k not in ("seed", "output")} == DESK


# ---------------------------------------------------------------------------
# Child processes: failures and resource usage
# ---------------------------------------------------------------------------

@pytest.fixture
def crashing_misslab(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    monkeypatch.setattr(run, "misslab", lambda *a: [sys.executable, "-c",
                                                    "import sys; sys.exit(3)"])


def test_crashed_run_counts_every_cell_failed(crashing_misslab):
    wl = WORKLOADS["desk"]
    with run.Bench(wl, seed=11) as bench:
        metrics = run.measure_end_to_end(bench, seconds=0.0)
        outcome = bench.outcome
    assert wl.cells_attempted() == 14
    assert len(outcome.runs) == run.MIN_RUNS
    assert len(outcome.setups) == run.MIN_SETUPS
    assert outcome.cells == outcome.failed_cells == run.MIN_RUNS * 14
    assert outcome.failed_setups == run.MIN_SETUPS
    assert outcome.attempted == outcome.failed == run.MIN_RUNS * 14 + run.MIN_SETUPS
    assert metrics["ok_cells"] == 0.0
    assert any("exit code 3" in p for p in outcome.problems)
    assert any(p.startswith("setup:") for p in outcome.problems)


def test_failed_invocation_exits_nonzero(crashing_misslab, capsys):
    code = run.main(["--workload", "desk", "--seed", "11", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def _allocating_child(mb: int) -> list[str]:
    return [sys.executable, "-c",
            f"b = b'x' * ({mb} * 2**20); import time; time.sleep(0.05)"]


def test_rss_is_read_per_child(tmp_path):
    log = str(tmp_path / "log")
    env = run.child_env()
    small_before = run.run_child(_allocating_child(1), env, log)
    big = run.run_child(_allocating_child(200), env, log)
    small_after = run.run_child(_allocating_child(1), env, log)
    assert big.rss_mb > 200
    assert small_after.rss_mb < 100
    assert abs(small_after.rss_mb - small_before.rss_mb) < 20
    assert big.exit_code == small_after.exit_code == 0


def test_child_exit_code_is_reported(tmp_path):
    sample = run.run_child([sys.executable, "-c", "import sys; sys.exit(5)"],
                           run.child_env(), str(tmp_path / "log"))
    assert sample.exit_code == 5


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def _bindings():
    import importlib
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in tracer.WRAPPED}


def test_tracer_leaves_misslab_unpatched():
    import misslab.pipeline as pipeline
    from misslab.missingness import MissingnessSpec

    before = _bindings()
    with tracer.install(tracer.Tracer()) as t:
        assert all(_bindings()[key] is not fn for key, fn in before.items())
        x = np.random.default_rng(0).random((50, 4))
        induced = pipeline.induce_missingness(x, MissingnessSpec(scheme="MCAR", degree=0.3), 1)
    assert _bindings() == before
    assert [s.layer for s in t.spans] == ["missingness.induce"]
    assert t.spans[0].counts["cells_masked"] == int(induced.mask.sum())
    assert t.unmeasured == [] and t.errors == []


def test_tracer_restores_after_exception():
    import misslab.pipeline as pipeline

    before = _bindings()
    with pytest.raises(ValueError):
        with tracer.install(tracer.Tracer()):
            pipeline.induce_missingness(np.full((3, 2), np.nan), None, 0)
    assert _bindings() == before


def test_missing_binding_is_reported_unmeasured():
    t = tracer.Tracer()
    t.wrap("misslab.neighbors", "kneighbors", "neighbors")
    t.wrap("misslab.pipeline", "no_such_stage", "pipeline.stage")
    assert t.unmeasured == ["misslab.neighbors.kneighbors",
                            "misslab.pipeline.no_such_stage"]
    t.close()


def test_failing_hook_does_not_fail_the_call():
    import misslab.data as data

    original = data.validate_matrix
    with tracer.Tracer() as t:
        t.wrap("misslab.data", "validate_matrix",
               lambda args, kwargs: args[5], lambda a, k, r: 1 / 0)
        out = data.validate_matrix(np.ones((2, 2)))
    assert data.validate_matrix is original
    assert out.shape == (2, 2)
    assert t.spans[0].layer == "unknown" and len(t.errors) == 2


def test_busy_and_self_times():
    spans = [
        {"layer": "pipeline", "start": 0.0, "end": 10.0, "parent": -1, "counts": {}},
        {"layer": "imputers.missforest", "start": 1.0, "end": 6.0, "parent": 0, "counts": {}},
        {"layer": "forest.train", "start": 1.5, "end": 4.0, "parent": 1, "counts": {}},
        {"layer": "forest.train", "start": 4.0, "end": 5.0, "parent": 1, "counts": {}},
        {"layer": "metrics.silhouette_score", "start": 7.0, "end": 8.0, "parent": 0, "counts": {}},
        {"layer": "metrics.silhouette_samples", "start": 7.1, "end": 7.9, "parent": 4, "counts": {}},
    ]
    assert tracer.busy_s(spans, "forest.train") == pytest.approx(3.5)
    assert tracer.busy_s(spans, "metrics.silhouette") == pytest.approx(1.0)
    own = tracer.self_times(spans)
    assert own["pipeline"] == pytest.approx(4.0)
    assert own["imputers.missforest"] == pytest.approx(1.5)
    assert own["metrics.silhouette_score"] == pytest.approx(0.2)


def test_layer_metrics_cover_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    measured = set(tracer.layer_metrics({"import_s": 0.5, "spans": []}))
    assert declared - measured == {"trace.overhead_s"}
    assert measured <= declared

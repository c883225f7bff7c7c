"""Span tracer for one `misslab run`, and the traced child process.

Spans wrap each layer's public functions at the binding its caller uses
(`pipeline.run_imputer`, `imputers.train_forest`, the module global
`gmm.fit_em`, ...). A binding that no longer exists is reported as
unmeasured instead of failing the run, and every wrapped binding is put back
when the tracer closes.

Run as a script, it imports misslab from `src`, times that import, runs
`misslab run --config CONFIG` under the tracer and writes the spans as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py --config RUN.cfg --spans OUT.json
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


def _rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Wraps module attributes with span recorders; `close()` unwraps them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self.errors: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module_name: str, attr: str, layer, count=None) -> None:
        """Record a span around every call of `module_name.attr`.

        `layer` is a span name, or a function of the call's (args, kwargs)
        returning one. `count(args, kwargs, result)` returns counters stored
        on the span.
        """
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.unmeasured.append(f"{module_name}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = self._hook(layer, "unknown", args, kwargs) \
                if callable(layer) else layer
            span = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
            if count is not None:
                span.counts.update(self._hook(count, {}, args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def _hook(self, hook, fallback, *args):
        # A hook that no longer fits the wrapped signature must not fail
        # the run it observes; the error is reported with the spans.
        try:
            return hook(*args)
        except Exception as exc:  # noqa: BLE001 - boundary, recorded here
            self.errors.append(f"{getattr(hook, '__name__', hook)}: "
                               f"{type(exc).__name__}: {exc}")
            return fallback

    def _begin(self, layer: str) -> Span:
        span = Span(layer, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def close(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# What misslab's layers are, and which bindings their callers use
# ---------------------------------------------------------------------------

def _imputer_layer(args, kwargs):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return f"imputers.{spec.kind}"


def _imputer_counts(args, kwargs, result):
    import numpy as np
    holed = kwargs.get("holed", args[0])
    return {"cells_filled": int(np.isnan(holed).sum()),
            "rss_hwm_mb": _rss_hwm_mb(),
            "sweeps": sum(len(d.get("convergence_trace", []))
                          for d in result.diagnostics)}


def _forest_nodes(args, kwargs, result):
    return {"nodes": sum(len(t.feature) for t in result.trees)}


def _mlp_counts(args, kwargs, result):
    train = kwargs.get("train", args[0])
    epochs = len(result.training_history)
    return {"epochs": epochs, "row_epochs": epochs * train.rows}


def _report_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


WRAPPED = [
    # (module, binding, layer, counters)
    ("misslab.cli", "run_pipeline", "pipeline", None),
    ("misslab.cli", "emit_report", "pipeline.emit", _report_bytes),
    ("misslab.pipeline", "fit_generator", "gmm.search", None),
    ("misslab.gmm", "fit_em", "gmm.fit",
     lambda a, k, r: {"iterations": r[1].iterations}),
    ("misslab.pipeline", "draw_samples", "gmm.sample", None),
    ("misslab.pipeline", "train_mlp", "nnet.train", _mlp_counts),
    ("misslab.pipeline", "predict_mlp", "nnet.predict", None),
    ("misslab.pipeline", "smote_enn", "resampling.smote_enn", None),
    ("misslab.pipeline", "induce_missingness", "missingness.induce",
     lambda a, k, r: {"cells_masked": int(r.mask.sum())}),
    ("misslab.pipeline", "run_imputer", _imputer_layer, _imputer_counts),
    ("misslab.imputers", "train_forest", "forest.train", _forest_nodes),
    ("misslab.imputers", "predict_forest", "forest.predict", None),
    ("misslab.pipeline", "fit_kmeans", "cluster.kmeans",
     lambda a, k, r: {"iterations": len(r.inertia_trace)}),
    ("misslab.pipeline", "silhouette_score", "metrics.silhouette_score", None),
    ("misslab.pipeline", "silhouette_samples", "metrics.silhouette_samples", None),
    # silhouette_score computes the samples again through this global.
    ("misslab.metrics", "silhouette_samples", "metrics.silhouette_samples", None),
    ("misslab.pipeline", "save_csv", "data.save_csv", None),
]


def install(tracer: Tracer) -> Tracer:
    for module_name, attr, layer, count in WRAPPED:
        tracer.wrap(module_name, attr, layer, count)
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics from a span list
# ---------------------------------------------------------------------------

def busy_s(spans: list[dict], prefix: str) -> float:
    """Time inside spans whose layer starts with `prefix`, counting a span
    nested in another such span only once."""
    def matches(i):
        return spans[i]["layer"].startswith(prefix)

    total = 0.0
    for i, s in enumerate(spans):
        if not matches(i):
            continue
        p = s["parent"]
        while p >= 0 and not matches(p):
            p = spans[p]["parent"]
        if p < 0:
            total += s["end"] - s["start"]
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span time not covered by child spans."""
    durations = [s["end"] - s["start"] for s in spans]
    own = list(durations)
    for s, d in zip(spans, durations):
        if s["parent"] >= 0:
            own[s["parent"]] -= d
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s["layer"]] = out.get(s["layer"], 0.0) + t
    return out


def _total(spans, layer, key):
    return sum(s["counts"].get(key, 0) for s in spans if s["layer"] == layer)


def _count(spans, layer):
    return sum(1 for s in spans if s["layer"] == layer)


IMPUTERS = ("mean", "knn", "mice", "missforest", "dae")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metric values from one traced run (layers absent from the
    run read 0)."""
    spans = trace["spans"]
    m: dict[str, float] = {}
    for method in IMPUTERS:
        layer = f"imputers.{method}"
        m[f"{layer}.busy_s"] = busy_s(spans, layer)
        m[f"{layer}.cells_filled"] = _total(spans, layer, "cells_filled")
    knn_hwm = [s["counts"].get("rss_hwm_mb", 0.0) for s in spans
               if s["layer"] == "imputers.knn"]
    m["imputers.knn.rss_peak_mb"] = max(knn_hwm, default=0.0)
    m["imputers.missforest.sweeps"] = _total(spans, "imputers.missforest", "sweeps")
    m["imputers.mice.sweeps"] = _total(spans, "imputers.mice", "sweeps")
    m["imputers.dae.epochs"] = _total(spans, "imputers.dae", "sweeps")

    m["forest.train_s"] = busy_s(spans, "forest.train")
    m["forest.nodes"] = _total(spans, "forest.train", "nodes")
    m["forest.us_per_node"] = (1e6 * m["forest.train_s"] / m["forest.nodes"]
                               if m["forest.nodes"] else 0.0)
    m["forest.predict_s"] = busy_s(spans, "forest.predict")

    m["nnet.train_s"] = busy_s(spans, "nnet.train")
    m["nnet.epochs"] = _total(spans, "nnet.train", "epochs")
    row_epochs = _total(spans, "nnet.train", "row_epochs")
    m["nnet.us_per_row_epoch"] = (1e6 * m["nnet.train_s"] / row_epochs
                                  if row_epochs else 0.0)
    m["nnet.predict_s"] = busy_s(spans, "nnet.predict")

    m["gmm.search_s"] = busy_s(spans, "gmm.search")
    m["gmm.fits"] = _count(spans, "gmm.fit")
    m["gmm.em_iterations"] = _total(spans, "gmm.fit", "iterations")
    m["gmm.sample_s"] = busy_s(spans, "gmm.sample")
    m["cli.import_s"] = trace["import_s"]

    clusterings = _count(spans, "cluster.kmeans")
    m["metrics.silhouette_s"] = busy_s(spans, "metrics.silhouette")
    m["metrics.silhouette_calls_per_clustering"] = (
        _count(spans, "metrics.silhouette_samples") / clusterings
        if clusterings else 0.0)
    m["cluster.kmeans_s"] = busy_s(spans, "cluster.kmeans")
    m["cluster.lloyd_iterations"] = _total(spans, "cluster.kmeans", "iterations")

    m["resampling.smote_enn_s"] = busy_s(spans, "resampling.smote_enn")
    m["missingness.induce_s"] = busy_s(spans, "missingness.induce")
    m["missingness.cells_masked"] = _total(spans, "missingness.induce", "cells_masked")
    m["data.save_csv_s"] = busy_s(spans, "data.save_csv")
    m["pipeline.emit_s"] = busy_s(spans, "pipeline.emit")
    m["pipeline.report_bytes"] = _total(spans, "pipeline.emit", "bytes")
    m["pipeline.self_s"] = self_times(spans).get("pipeline", 0.0)
    return m


# ---------------------------------------------------------------------------
# Traced child process
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    importlib.import_module("misslab.pipeline")
    import_s = time.perf_counter() - t0
    cli = importlib.import_module("misslab.cli")

    t = install(Tracer())
    code = 1
    try:
        code = cli.main(["run", "--config", args.config])
    except Exception:  # noqa: BLE001 - the spans so far are still written
        traceback.print_exc()
    finally:
        t.close()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit_code": code,
                       "unmeasured": t.unmeasured, "errors": t.errors,
                       "spans": [asdict(s) for s in t.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

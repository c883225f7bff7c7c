"""misslab benchmark: times `misslab run` end to end, or layer by layer.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --all --repeat 3      # every workload, summary table
    python3 perfbench/run.py --record-reference     # re-record reference tables

Every misslab command runs as a fresh child process of the real CLI
(`python3 -m misslab.cli` with `src` on the path). Peak RSS and CPU time are
read per child with os.wait4. With `--trace 0` a run alternates the
generator preparation (`genfit` then `synth`, a set-up) with `misslab run`.
It makes at least MIN_RUNS runs and MIN_SETUPS set-ups, adds runs and then
set-ups while they fit in `--seconds` of wall time, and reports medians.
With `--trace 1` it makes one untraced and one traced run (see tracer.py)
and reports the per-layer metrics. Every run's tables go through check.py.
The last line of stdout is the result as one JSON object; the exit code is
1 when any run or set-up failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import check
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

MIN_RUNS = 2
MAX_RUNS = 20
MIN_SETUPS = 4
MAX_SETUPS = 20
CHILD_TIMEOUT_S = 150.0

# Identical on both sides of every comparison; recorded with the results.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


@dataclass
class Sample:
    """One child process: wall and CPU seconds, peak RSS, exit code."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def run_child(argv: list[str], env: dict, log_path: str,
              timeout_s: float = CHILD_TIMEOUT_S) -> Sample:
    """Run one process to completion and read its own resource usage.

    os.wait4 returns the usage of exactly that child; RUSAGE_CHILDREN would
    be a running maximum over every child reaped so far.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode)


def child_env() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def misslab(*args: str) -> list[str]:
    return [sys.executable, "-m", "misslab.cli", *args]


def machine() -> dict:
    """Cores, memory, interpreter, numeric libraries and BLAS settings."""
    out = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE")
                                 * os.sysconf("SC_PHYS_PAGES") / 2**20),
           "python": platform.python_version(), "platform": platform.platform(),
           "child_env": CHILD_ENV}
    probe = ("import json, numpy, scipy\n"
             "def blas(m):\n"
             "    b = m.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "    return f\"{b.get('name')} {b.get('version')}\"\n"
             "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
             " 'numpy_blas': blas(numpy), 'scipy_blas': blas(scipy)}))\n")
    try:
        res = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                             capture_output=True, text=True, timeout=60)
        out.update(json.loads(res.stdout))
    except (subprocess.SubprocessError, ValueError) as exc:
        out["libraries"] = f"unavailable: {exc}"
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one benchmark invocation saw."""

    runs: list[Sample] = field(default_factory=list)
    cells_per_s: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    cells: int = 0
    failed_cells: int = 0
    failed_setups: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Operations attempted: every run's cells, plus one per set-up."""
        return self.cells + len(self.setups)

    @property
    def failed(self) -> int:
        return self.failed_cells + self.failed_setups


class Bench:
    """Runs misslab commands for one workload and seed in a scratch
    directory, checking each run and collecting its samples."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.env = child_env()
        self.dir = os.path.join(WORK_ROOT, f"{wl.name}-s{seed}-{os.getpid()}")
        self.log = os.path.join(self.dir, "children.log")
        self.outcome = Outcome()
        self._n = 0

    def __enter__(self):
        os.makedirs(self.dir, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def config(self, tag: str) -> tuple[str, str]:
        """A fresh output directory and a config file that writes there."""
        self._n += 1
        out = os.path.join(self.dir, f"{tag}{self._n}")
        path = out + ".cfg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.wl.config_text(self.seed, out))
        return path, out

    def setup(self) -> None:
        """Time `genfit` then `synth`, each a fresh process."""
        cfg, out = self.config("setup")
        genfit = run_child(misslab("genfit", "--config", cfg), self.env, self.log)
        synth = run_child(misslab("synth", "--config", cfg), self.env, self.log)
        self.outcome.setups.append(genfit.wall_s + synth.wall_s)
        rows = _data_rows(os.path.join(out, "synthetic.csv"))
        if genfit.exit_code or synth.exit_code or rows != self.wl.synth_n:
            self.outcome.failed_setups += 1
            self.outcome.problems.append(
                f"setup: genfit exit {genfit.exit_code}, synth exit "
                f"{synth.exit_code}, {rows} synthetic rows")
        shutil.rmtree(out, ignore_errors=True)

    def run(self, traced: bool = False) -> tuple[Sample, dict | None]:
        """One `misslab run`, checked; returns its sample (and spans)."""
        cfg, out = self.config("traced" if traced else "run")
        spans_path = out + ".spans.json"
        argv = ([sys.executable, os.path.join(HERE, "tracer.py"), "--config",
                 cfg, "--spans", spans_path] if traced
                else misslab("run", "--config", cfg))
        sample = run_child(argv, self.env, self.log)
        attempted = self.wl.cells_attempted()
        manifest = _manifest(out)
        problems = [] if sample.exit_code == 0 else [f"exit code {sample.exit_code}"]
        if not problems:
            problems = check.check_outputs(
                out, self.wl, compare_reference=self.seed == DEFAULT_SEED)
        if problems:
            failed = attempted
        else:
            failed = min(attempted, int(manifest.get("n_failures", attempted)))
        o = self.outcome
        o.runs.append(sample)
        o.problems += [f"{os.path.basename(out)}: {p}" for p in problems[:5]]
        o.cells += attempted
        o.failed_cells += failed
        o.cells_per_s.append(manifest.get("n_cells", 0) / sample.wall_s)
        spans = None
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
        shutil.rmtree(out, ignore_errors=True)
        return sample, spans


def _data_rows(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1
    except OSError:
        return -1


def _manifest(out: str) -> dict:
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    # Set-ups go between runs, so the runs sample the machine further apart
    # in time than back-to-back runs would. `seconds` bounds the wall time of
    # whatever is added beyond the minimum counts.
    o = bench.outcome
    deadline = time.perf_counter() + seconds

    def fits(walls) -> bool:
        return time.perf_counter() + statistics.median(walls) <= deadline

    bench.setup()
    while True:
        bench.run()
        n = len(o.runs)
        if n >= MAX_RUNS or (n >= MIN_RUNS and not fits([s.wall_s for s in o.runs])):
            break
        bench.setup()
    while len(o.setups) < MIN_SETUPS or (len(o.setups) < MAX_SETUPS and fits(o.setups)):
        bench.setup()
    return {
        "run_s": statistics.median(s.wall_s for s in o.runs),
        "cells_per_s": statistics.median(o.cells_per_s),
        "peak_rss_mb": statistics.median(s.rss_mb for s in o.runs),
        "cpu_s": statistics.median(s.cpu_s for s in o.runs),
        "setup_s": statistics.median(o.setups),
        "ok_cells": (o.cells - o.failed_cells) / o.cells,
    }


def measure_layers(bench: Bench) -> tuple[dict[str, float], list[str]]:
    """One untraced and one traced run; per-layer metrics and a report."""
    plain, _ = bench.run()
    traced, spans = bench.run(traced=True)
    if spans is None:
        bench.outcome.problems.append("traced run wrote no spans")
        spans = {"import_s": 0.0, "spans": [], "unmeasured": [], "errors": []}
    metrics = tracer.layer_metrics(spans)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    lines = [f"traced run_s {traced.wall_s:.3f} s, untraced {plain.wall_s:.3f} s, "
             f"overhead {metrics['trace.overhead_s']:+.3f} s"]
    ranked = sorted(tracer.self_times(spans["spans"]).items(), key=lambda kv: -kv[1])
    if ranked:
        lines.append(f"leading layer (self time): {ranked[0][0]}")
    for layer, t in ranked[:10]:
        lines.append(f"  {layer:<28} self {t:8.3f} s  {100 * t / traced.wall_s:5.1f}%")
    if spans["unmeasured"]:
        lines.append("unmeasured (binding not found): " + ", ".join(spans["unmeasured"]))
    if spans["errors"]:
        lines.append("tracer hook errors: " + "; ".join(spans["errors"][:5]))
    return metrics, lines


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _preflight() -> str | None:
    if not os.path.isfile(os.path.join(ROOT, "src", "misslab", "cli.py")):
        return f"no misslab sources under {os.path.join(ROOT, 'src')}"
    return None


def declared_metrics(kind: str) -> list[dict]:
    """The `end_to_end` or `per_layer` entries of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def single(args) -> int:
    wl = WORKLOADS[args.workload]
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    with Bench(wl, args.seed) as bench:
        if args.trace:
            metrics, lines = measure_layers(bench)
        else:
            metrics, lines = measure_end_to_end(bench, args.seconds), []
        o = bench.outcome
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value measured for {missing}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed}: {len(o.runs)} runs, "
          f"{len(o.setups)} set-ups")
    for p in o.problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not o.problems,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 1 if o.problems else 0


def _percentile_note(values: list[float]) -> str:
    # The highest percentile with at least ten samples beyond it.
    n = len(values)
    if n < 20:
        return "-"
    q = 100 * (1 - 10 / n)
    cut = statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]
    return f"p{int(q)}={cut:.4g}"


def run_all(args) -> int:
    """Every workload, `--repeat` invocations each (seeds seed, seed+1, ...)."""
    declared = declared_metrics("end_to_end")
    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    results = {"machine": info, "seconds": args.seconds, "workloads": {}}
    ok = True
    for wl in WORKLOADS.values():
        per_metric: dict[str, list[float]] = {}
        samples = {"run_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": [],
                   "cells_per_s": []}
        cells = failed_cells = setups = failed_setups = 0
        for r in range(args.repeat):
            with Bench(wl, args.seed + r) as bench:
                metrics = measure_end_to_end(bench, args.seconds)
                o = bench.outcome
            ok &= not o.problems
            for p in o.problems:
                print(f"CHECK FAILED {wl.name}: {p}", file=sys.stderr)
            cells += o.cells
            failed_cells += o.failed_cells
            setups += len(o.setups)
            failed_setups += o.failed_setups
            for k, v in metrics.items():
                per_metric.setdefault(k, []).append(v)
            samples["run_s"] += [s.wall_s for s in o.runs]
            samples["cpu_s"] += [s.cpu_s for s in o.runs]
            samples["peak_rss_mb"] += [s.rss_mb for s in o.runs]
            samples["setup_s"] += o.setups
            samples["cells_per_s"] += o.cells_per_s
        results["workloads"][wl.name] = {"per_invocation": per_metric,
                                         "samples": samples,
                                         "cells": cells, "failed_cells": failed_cells,
                                         "setups": setups, "failed_setups": failed_setups}
        print(f"\n{wl.name} (seeds {args.seed}..{args.seed + args.repeat - 1}, "
              f"failed_cells {failed_cells}/{cells}, "
              f"failed set-ups {failed_setups}/{setups})")
        print(f"  {'metric':<14}{'unit':<9}{'median':>12}  {'tail':<14}{'n':>4}")
        for m in declared:
            name = m["name"]
            vals = samples.get(name) or per_metric[name]
            print(f"  {name:<14}{m['unit']:<9}{statistics.median(vals):>12.4g}  "
                  f"{_percentile_note(vals):<14}{len(vals):>4}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = os.path.join(WORK_ROOT, f"results-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"\nresults -> {path}")
    return 0 if ok else 1


def _rows_json(tables: dict[str, list[list]]) -> str:
    """JSON with one table row per line, so a diff names the changed row."""
    parts = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(r) for r in rows)
             + "\n]" for name, rows in tables.items()]
    return "{\n" + ",\n".join(parts) + "\n}\n"


def record_reference(args) -> int:
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for wl in WORKLOADS.values():
        with Bench(wl, DEFAULT_SEED) as bench:
            cfg, out = bench.config("reference")
            sample = run_child(misslab("run", "--config", cfg), bench.env, bench.log)
            if sample.exit_code:
                print(f"{wl.name}: run exited {sample.exit_code}", file=sys.stderr)
                return 1
            tables = check.read_tables(out)
            problems = check.structural_problems(tables, wl)
            if problems:
                print(f"{wl.name}: " + "; ".join(problems), file=sys.stderr)
                return 1
            with open(check.reference_path(wl.name), "w", encoding="utf-8") as fh:
                fh.write(_rows_json(check.summarize(tables)))
        print(f"{wl.name}: reference recorded ({sample.wall_s:.1f} s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a summary table")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: invocations per workload")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    problem = _preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required unless --all or --record-reference")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())

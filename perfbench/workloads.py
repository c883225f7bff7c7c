"""The three benchmark workloads, written as flat misslab config files.

Each workload is a fixed set of config keys plus the workload seed, which
becomes the run's master seed. Every input a run sees (the built-in source
table, the synthetic pool, the masks and the splits) derives from that seed.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7

# configs/desk.cfg without `seed` and `output`; perfbench/tests keeps the two
# in step, so the benchmark's desk is the README quick start.
DESK = {
    "builtin.rows": "2000",
    "builtin.features": "10",
    "builtin.components": "3",
    "gmm.k_range": "2, 3, 4",
    "gmm.kinds": "spherical",
    "gmm.restarts": "2",
    "synth.n": "2000",
    "synth.reserve": "500",
    "missing.scheme": "mcar",
    "missing.degrees": "0.1, 0.3",
    "imputers": "mean, knn",
    "knn.k": "5",
    "copies": "2",
    "repetitions": "2",
    "classifier.hidden": "20, 20",
    "classifier.dropout": "0.2",
    "classifier.epochs": "100",
    "classifier.patience": "20",
    "classifier.batch": "64",
    "classifier.lr": "0.05",
    "generator.epochs": "30",
    "generator.patience": "10",
    "clusters": "2, 3",
    "clustering.degree": "0.3",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: dict

    def config_text(self, seed: int, output_dir: str) -> str:
        lines = [f"{k} = {v}" for k, v in self.keys.items()]
        lines += [f"seed = {seed}", f"output = {output_dir}"]
        return "\n".join(lines) + "\n"

    def value(self, key: str, default: str) -> str:
        return self.keys.get(key, default)

    def _list(self, key: str, default: str, cast) -> list:
        return [cast(t) for t in self.value(key, default).split(",") if t.strip()]

    @property
    def imputers(self) -> list[str]:
        return self._list("imputers", "mean, knn, mice, missforest, dae", str.strip)

    @property
    def degrees(self) -> list[float]:
        return self._list("missing.degrees", "0.1, 0.2, 0.3, 0.4", float)

    @property
    def repetitions(self) -> int:
        return int(self.value("repetitions", "10"))

    @property
    def clusters(self) -> list[int]:
        return self._list("clusters", "2, 3, 4", int)

    @property
    def synth_n(self) -> int:
        return int(self.value("synth.n", "20000"))

    def classification_cells(self) -> list[tuple[str, float, int]]:
        """Every (method, degree, repetition) cell a run must report,
        including the no-missingness baseline row of each repetition."""
        cells = []
        for rep in range(self.repetitions):
            cells.append(("none", 0.0, rep))
            cells += [(m, d, rep) for d in self.degrees for m in self.imputers]
        return cells

    def cells_attempted(self) -> int:
        """Classification cells plus clustering cells (imputer x k)."""
        return (len(self.classification_cells())
                + len(self.imputers) * len(self.clusters))


# Generator and classifier settings shared with desk; only the sweep and the
# pool size change.
_DESK_MODEL_KEYS = {k: v for k, v in DESK.items()
                    if k.split(".")[0] in ("builtin", "gmm", "classifier",
                                           "generator", "clusters", "clustering")
                    or k == "knn.k"}

WORKLOADS = {
    "desk": Workload(
        "desk",
        "README quick start: mean+knn, 2 degrees, 2 reps, 10 small cells; "
        "per-cell overhead and classifier epochs dominate",
        DESK),
    "knn-pool": Workload(
        "knn-pool",
        "6,000-row pool, knn only, one degree and rep: the KNN imputer sets "
        "wall time and the rows^2 memory peak; cell parallelism is bypassed",
        {**_DESK_MODEL_KEYS,
         "synth.n": "6000", "synth.reserve": "1500",
         "missing.scheme": "mcar", "missing.degrees": "0.3",
         "imputers": "knn", "copies": "1", "repetitions": "1"}),
    "iterative": Workload(
        "iterative",
        "mice+missforest+dae under MAR with the default mixture grid: the "
        "forest grower dominates and KNN is absent",
        {**{k: v for k, v in _DESK_MODEL_KEYS.items()
            if not k.startswith("gmm.")},
         "synth.n": "2000", "synth.reserve": "500",
         "missing.scheme": "mar", "missing.mar_drivers": "0, 1",
         "missing.degrees": "0.3",
         "imputers": "mice, missforest, dae", "copies": "2",
         "repetitions": "1"}),
}

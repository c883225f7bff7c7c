"""Five imputers: column mean, KNN, iterative regression (multiple copies),
iterative random forest, and a denoising autoencoder.

Every imputer fills only the missing cells: output copies equal the input
bit-for-bit at observed cells and contain no missing cells.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ._rng import child_seed, rng_for
from .data import save_csv, validate_matrix, write_json
from .forest import ForestSpec, predict_forest, train_forest
from .missingness import combine_recovered
from .neighbors import blocks, nearest, partial_distances, slabs, smallest
from .nnet import FeedForward, fit

METHODS = ("mean", "knn", "mice", "missforest", "dae")


@dataclass
class ImputationResult:
    method: str
    copies: list[np.ndarray]
    diagnostics: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not self.copies:
            raise ValueError("an imputation result needs at least one copy")
        for c in self.copies:
            if np.isnan(c).any():
                raise ValueError("imputed copies must be fully observed")


def pool_copies(r: ImputationResult) -> np.ndarray:
    """Cell-wise mean across copies; observed cells agree across copies."""
    if len(r.copies) == 1:
        return r.copies[0]
    return np.mean(np.stack(r.copies), axis=0)


def _column_means(x: np.ndarray, names: list[str] | None = None) -> np.ndarray:
    observed = ~np.isnan(x)
    empty = ~observed.any(axis=0)
    if empty.any():
        j = int(np.flatnonzero(empty)[0])
        label = names[j] if names else f"column {j}"
        raise ValueError(f"cannot impute: {label} has no observed cells")
    with np.errstate(invalid="ignore"):
        return np.nanmean(x, axis=0)


def _mean_filled(x: np.ndarray, names: list[str] | None = None) -> np.ndarray:
    means = _column_means(x, names)
    out = x.copy()
    rows, cols = np.nonzero(np.isnan(x))
    out[rows, cols] = means[cols]
    return out


def impute_mean(holed: np.ndarray, names: list[str] | None = None) -> ImputationResult:
    """Fill each missing cell with its column's observed mean."""
    x = validate_matrix(holed)
    return ImputationResult("mean", [_mean_filled(x, names)],
                            [{"sweeps_run": 0, "convergence_trace": []}])


# ---------------------------------------------------------------------------
# KNN with partial distances
# ---------------------------------------------------------------------------

def impute_knn(holed: np.ndarray, k: int = 5,
               names: list[str] | None = None) -> ImputationResult:
    """Fill each missing cell with the mean of that column over the k nearest
    rows (partial distance) that observe it; ties of the computed distance
    keep the lower row index. That distance is one fused product, so on
    rounded, tie-heavy data a fill may differ from the old four-product one.

    Falls back to the column mean when no comparable candidate row exists;
    uses every available candidate when fewer than k qualify.

    Rows needing a fill go in slabs of CHUNK, by missing pattern and then row
    index, so a run of one pattern shares one scale row. Each row of a slab
    gets one candidate list, its K nearest rows over all rows (`smallest`),
    with K from k and the observed fraction. A column's k nearest donors are
    the first k candidates that observe it, exact when the k-th lies strictly
    below the list's last distance. A row that finds fewer, or whose k-th
    pick ties or passes that distance, takes the exact per-column `nearest`.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    x = validate_matrix(holed)
    means = _column_means(x, names)
    out = x.copy()
    missing = np.isnan(x)
    observes = np.ascontiguousarray(~missing.T)
    need_rows = np.flatnonzero(missing.any(axis=1))
    need_rows = need_rows[np.lexsort(missing[need_rows].T[::-1])]
    donors = [np.flatnonzero(row) for row in observes]
    span = _candidate_count(k, float(observes.mean()))
    for rows, dist in slabs(need_rows, partial_distances(x)):
        near = smallest(dist, span)
        for j, cand in enumerate(donors):
            takers = np.flatnonzero(missing[rows, j])
            if takers.size == 0:
                continue
            picks, pick_dist = _donors(dist, near, takers, cand, observes[j], k)
            # Infinite distances sort last, so finite neighbours come first.
            # Averaging rows in groups of equal count m keeps the summation
            # order of a one-cell np.mean; rows with m = 0 keep the column mean.
            finite = np.isfinite(pick_dist).sum(axis=1)
            values = x[picks, j]
            filled = np.full(takers.size, means[j])
            for m in np.unique(finite[finite > 0]):
                hit = finite == m
                filled[hit] = np.mean(values[hit, :m], axis=1)
            out[rows[takers], j] = filled
    return ImputationResult("knn", [out],
                            [{"sweeps_run": 0, "convergence_trace": []}])


def _candidate_count(k: int, observed: float) -> int:
    """Length of each row's candidate list: enough that k donors observing a
    column are almost always among them, at an observed fraction `observed`."""
    return k + int(np.ceil((2 * k + 8) / max(observed, 1e-3)))


def _donors(dist: np.ndarray, near: tuple[np.ndarray, np.ndarray],
            takers: np.ndarray, cand: np.ndarray, observes: np.ndarray,
            k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and distances of each taker's min(k, |cand|) nearest donors
    (the rows in `cand`, which `observes` marks), nearest first, ties to the
    lower index: read off the candidate list `near` where that is exact."""
    width = min(k, cand.size)
    near_rows, near_dist = near[0][takers], near[1][takers]
    hits = observes[near_rows]
    at = np.argsort(~hits, axis=1, kind="stable")[:, :width]
    picks = np.take_along_axis(near_rows, at, axis=1)
    pick_dist = np.take_along_axis(near_dist, at, axis=1)
    # Every row nearer than the list's last entry is in the list; a pick equal
    # to it may have passed over a lower-index row of the same distance.
    # Other takers run `nearest` over every donor, a row block at a time.
    slow = np.flatnonzero((np.count_nonzero(hits, axis=1) < width)
                          | ~(pick_dist[:, -1] < near_dist[:, -1]))
    for part in blocks((slow.size, cand.size)):
        rows = slow[part]
        cd = dist[np.ix_(takers[rows], cand)]
        order = nearest(cd, k)
        picks[rows] = cand[order]
        pick_dist[rows] = np.take_along_axis(cd, order, axis=1)
    return picks, pick_dist


# ---------------------------------------------------------------------------
# Iterative regression imputation (multiple copies)
# ---------------------------------------------------------------------------

def _visit_order(missing: np.ndarray) -> np.ndarray:
    """Columns with missing cells, by increasing missing count (ties by index)."""
    counts = missing.sum(axis=0)
    cols = np.flatnonzero(counts > 0)
    return cols[np.argsort(counts[cols], kind="stable")]


def _ridge_lstsq(design: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Least-squares coefficients; optional ridge damping (intercept exempt)."""
    if ridge > 0.0:
        p = design.shape[1]
        penalty = np.eye(p) * ridge
        penalty[0, 0] = 0.0
        return np.linalg.solve(design.T @ design + penalty, design.T @ y)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta


def impute_mice(holed: np.ndarray, copies: int = 5, sweeps: int = 10,
                noise: bool = True, seed: int = 0, ridge: float = 0.0,
                names: list[str] | None = None) -> ImputationResult:
    """Chained-equation sweeps producing `copies` completed matrices.

    Each copy: start from column means, then for `sweeps` rounds regress each
    incomplete column (least squares) on all other columns over the rows that
    observe it, and replace its missing cells with predictions — plus Gaussian
    residual-scaled noise when `noise` is set, which is what differentiates
    the copies. Noise off makes every copy identical.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    if sweeps < 0:
        raise ValueError(f"sweeps must be at least 0, got {sweeps}")
    if not 0.0 <= ridge < np.inf:         # NaN fails too
        raise ValueError(f"ridge must lie in [0, inf), got {ridge}")
    x = validate_matrix(holed)
    missing = np.isnan(x)
    order = _visit_order(missing)
    out_copies = []
    diagnostics = []
    for c in range(copies):
        rng = rng_for(seed, "mice", c)
        current = _mean_filled(x, names)
        trace = []
        for _ in range(sweeps):
            before = current[missing].copy() if missing.any() else np.empty(0)
            for j in order:
                obs_rows = ~missing[:, j]
                others = np.delete(np.arange(x.shape[1]), j)
                design = np.column_stack([np.ones(x.shape[0]), current[:, others]])
                beta = _ridge_lstsq(design[obs_rows], x[obs_rows, j], ridge)
                pred = design[~obs_rows] @ beta
                if noise:
                    resid = x[obs_rows, j] - design[obs_rows] @ beta
                    dof = max(obs_rows.sum() - design.shape[1], 1)
                    sigma = float(np.sqrt(np.sum(resid * resid) / dof))
                    pred = pred + rng.normal(0.0, sigma, size=pred.size)
                current[~obs_rows, j] = pred
            trace.append(float(np.mean(np.abs(current[missing] - before)))
                         if missing.any() else 0.0)
        out_copies.append(current)
        diagnostics.append({"sweeps_run": sweeps, "convergence_trace": trace})
    return ImputationResult("mice", out_copies, diagnostics)


# ---------------------------------------------------------------------------
# Iterative forest imputation
# ---------------------------------------------------------------------------

def impute_missforest(holed: np.ndarray, max_sweeps: int = 3,
                      forest: ForestSpec | None = None, seed: int = 0,
                      names: list[str] | None = None) -> ImputationResult:
    """Per-column forest refits from a column-mean start.

    Sweeps stop early when the mean absolute change of imputed cells rises
    over the previous sweep; the state before the worsening sweep is
    returned. max_sweeps = 0 leaves the column-mean initialization.

    Inside a `helpers.lending` block the forests borrow the free cores it
    grants, with the same fill; the block's helpers serve every forest of
    this call and are reaped when the block ends, not when this returns.
    """
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be at least 0, got {max_sweeps}")
    forest = forest or ForestSpec(n_trees=20, max_depth=8, min_samples_leaf=5)
    x = validate_matrix(holed)
    missing = np.isnan(x)
    current = _mean_filled(x, names)
    order = _visit_order(missing)
    trace: list[float] = []
    kept_sweeps = 0
    if order.size > 0:
        prev_change = np.inf
        for sweep in range(1, max_sweeps + 1):
            before_state = current.copy()
            for j in order:
                obs_rows = ~missing[:, j]
                others = np.delete(np.arange(x.shape[1]), j)
                spec = dataclasses.replace(
                    forest, seed=child_seed(seed, "missforest", sweep, int(j)))
                model = train_forest(current[obs_rows][:, others], x[obs_rows, j], spec)
                current[np.ix_(~obs_rows, [j])] = predict_forest(
                    model, current[~obs_rows][:, others])[:, None]
            change = float(np.mean(np.abs(current[missing] - before_state[missing])))
            trace.append(change)
            if change > prev_change:
                current = before_state
                break
            kept_sweeps = sweep
            prev_change = change
    return ImputationResult("missforest", [current],
                            [{"sweeps_run": kept_sweeps, "convergence_trace": trace}])


# ---------------------------------------------------------------------------
# Denoising autoencoder
# ---------------------------------------------------------------------------

@dataclass
class DaeSpec:
    encoder_widths: list[int] | None = None   # None = [2d, d]
    corruption_rate: float = 0.2
    epochs: int = 300
    batch_size: int = 64
    learning_rate: float = 0.01
    patience: int = 20

    def __post_init__(self):
        if not 0.0 < self.corruption_rate < 1.0:
            raise ValueError("corruption_rate must lie in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


def impute_dae(holed: np.ndarray, spec: DaeSpec | None = None,
               seed: int = 0, names: list[str] | None = None) -> ImputationResult:
    """Reconstruction network over mean-initialized data plus mask channels.

    Input rows are [filled data, mask]; training corrupts the data half by
    zeroing random cells and scores reconstruction only on observed cells,
    with 10% of them held out to drive early stopping and checkpointing.
    The best network's output is merged with the input so observed cells
    pass through exactly. Requires data scaled to [0, 1].
    """
    spec = spec or DaeSpec()
    x = validate_matrix(holed)
    if x.size == 0:
        raise ValueError("empty input")
    obs_vals = x[~np.isnan(x)]
    if obs_vals.size and (obs_vals.min() < -1e-6 or obs_vals.max() > 1.0 + 1e-6):
        raise ValueError("autoencoder input must be scaled to [0, 1]")
    n, d = x.shape
    mask = np.isnan(x)
    filled = _mean_filled(x, names)
    observed = ~mask

    if not mask.any():
        return ImputationResult("dae", [filled],
                                [{"sweeps_run": 0, "convergence_trace": []}])

    hold_rng = rng_for(seed, "dae", "holdout")
    holdout = (hold_rng.random((n, d)) < 0.1) & observed
    if not holdout.any():
        first = np.argwhere(observed)[0]
        holdout[first[0], first[1]] = True
    train_cells = observed & ~holdout
    if not train_cells.any():
        raise ValueError("no observed cells left to train on")

    widths = list(spec.encoder_widths) if spec.encoder_widths else [2 * d, d]
    hidden = widths + widths[-2::-1]
    net = FeedForward([2 * d] + hidden + [d], output="linear",
                      dropout_rate=0.0, seed=child_seed(seed, "dae", "net"))
    inputs = np.column_stack([filled, mask.astype(np.float64)])
    corrupt_rng = rng_for(seed, "dae", "corrupt")
    train_w = train_cells.astype(np.float64)
    hold_w = holdout.astype(np.float64)

    def epoch(live, orders):      # a stack of one network: orders holds one row
        batch_in, batch_out, batch_w = (np.take(a, orders[0], axis=0)
                                        for a in (inputs, filled, train_w))
        batch_in[:, :d][corrupt_rng.random((n, d)) < spec.corruption_rate] = 0.0
        return lambda batch: net.grads(batch_in[batch], batch_out[batch],
                                       loss_mask=batch_w[batch])

    def score(live):
        valid_loss = net.loss(inputs, filled, loss_mask=hold_w).tolist()
        return valid_loss, valid_loss

    (record,) = fit(net, n, spec.epochs, spec.batch_size, spec.learning_rate,
                    spec.patience, [rng_for(seed, "dae", "shuffle")], epoch, score)
    reconstruction = record.net.logits(inputs)[0]
    recovered = combine_recovered(x, reconstruction)
    trace = record.training_history
    return ImputationResult("dae", [recovered],
                            [{"sweeps_run": len(trace), "best_epoch": record.best_epoch,
                              "convergence_trace": trace}])


# ---------------------------------------------------------------------------
# Dispatch and persistence
# ---------------------------------------------------------------------------

@dataclass
class ImputerSpec:
    kind: str
    knn_k: int = 5
    copies: int = 5
    sweeps: int = 10
    noise: bool = True
    max_sweeps: int = 3
    ridge: float = 0.0
    forest: ForestSpec | None = None
    dae: DaeSpec | None = None
    seed: int = 0

    def __post_init__(self):
        kind = str(self.kind).lower()
        if kind not in METHODS:
            raise ValueError(f"unknown imputer {self.kind!r}; expected one of {METHODS}")
        object.__setattr__(self, "kind", kind)


def run_imputer(holed: np.ndarray, spec: ImputerSpec,
                names: list[str] | None = None) -> ImputationResult:
    if spec.kind == "mean":
        return impute_mean(holed, names)
    if spec.kind == "knn":
        return impute_knn(holed, k=spec.knn_k, names=names)
    if spec.kind == "mice":
        return impute_mice(holed, copies=spec.copies, sweeps=spec.sweeps,
                           noise=spec.noise, seed=spec.seed, ridge=spec.ridge,
                           names=names)
    if spec.kind == "missforest":
        return impute_missforest(holed, max_sweeps=spec.max_sweeps,
                                 forest=spec.forest, seed=spec.seed, names=names)
    return impute_dae(holed, spec=spec.dae, seed=spec.seed, names=names)


def save_imputation(stem: str, r: ImputationResult,
                    names: list[str] | None = None) -> list[str]:
    """Copies to `<stem>.imputed.<method>.<copy>.csv` plus a diagnostics JSON."""
    paths = []
    for c, copy in enumerate(r.copies):
        path = f"{stem}.imputed.{r.method}.{c}.csv"
        save_csv(path, copy, names)
        paths.append(path)
    diag_path = f"{stem}.imputed.{r.method}.diagnostics.json"
    write_json(diag_path, {"method": r.method, "copies": len(r.copies),
                           "diagnostics": r.diagnostics})
    paths.append(diag_path)
    return paths

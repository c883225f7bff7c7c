"""Gaussian mixture models: EM fitting, AIC/BIC selection, synthetic sampling.

Covariance shapes: "full" (one matrix per component), "tied" (one shared
matrix), "diagonal" (per-component variance vectors), "spherical"
(per-component scalar variances).

Model selection fits EM to every (k, kind, restart) of a grid. Each fit has
its own seed, so `select_generator` can map the fits over borrowed cores
(`helpers.map`) and keep the search table and the chosen model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import child_seed, rng_for
from .cluster import kmeans_plus_plus
from .data import load_npz, observed_matrix, write_csv
from . import helpers

COVARIANCE_KINDS = ("full", "tied", "diagonal", "spherical")

# Variances below this after regularization mean a collapsed component.
VARIANCE_FLOOR = 1e-12
# Added to every variance (ridge on the covariance diagonal).
REG = 1e-6
# EM stops once the relative log-likelihood gain falls below this.
TOL = 1e-5


@dataclass
class GmmModel:
    k: int
    dims: int
    weights: np.ndarray                  # (k,)
    means: np.ndarray                    # (k, dims)
    covariances: np.ndarray              # shape depends on kind, see below
    kind: str

    # covariances shapes: full (k, d, d); tied (d, d); diagonal (k, d);
    # spherical (k,)

    def __post_init__(self):
        if self.kind not in COVARIANCE_KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-9 or (self.weights < 0).any():
            raise ValueError("weights must be non-negative and sum to 1")


@dataclass
class FitReport:
    log_likelihood: float
    aic: float
    bic: float
    iterations: int
    converged: bool
    # Log likelihood observed at each E-step, for monotonicity checks.
    ll_trace: list = field(default_factory=list)


@dataclass
class GmmConfig:
    max_iter: int = 200
    seed: int = 0
    restarts: int = 3


def param_count(k: int, dims: int, kind: str) -> int:
    """Free parameters: (k-1) weights + k*d means + covariance terms."""
    cov = {
        "full": k * dims * (dims + 1) // 2,
        "tied": dims * (dims + 1) // 2,
        "diagonal": k * dims,
        "spherical": k,
    }[kind]
    return (k - 1) + k * dims + cov


def information_criteria(log_likelihood: float, n_rows: int, n_params: int) -> tuple[float, float]:
    """(aic, bic) from a total log likelihood.

    aic = (-2/N)*LL + 2*(n_params/N); bic = -2*LL + ln(N)*n_params.
    Both rank models identically; aic is reported per row.
    """
    aic = (-2.0 / n_rows) * log_likelihood + 2.0 * (n_params / n_rows)
    bic = -2.0 * log_likelihood + np.log(n_rows) * n_params
    return float(aic), float(bic)


def _full_covs(model: GmmModel) -> np.ndarray:
    """Covariances expanded to (k, d, d) regardless of kind."""
    k, d = model.k, model.dims
    c = model.covariances
    if model.kind == "full":
        return c
    if model.kind == "tied":
        return np.broadcast_to(c, (k, d, d))
    if model.kind == "diagonal":
        return np.stack([np.diag(c[j]) for j in range(k)])
    return np.stack([np.eye(d) * c[j] for j in range(k)])


def _log_gaussians(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Per-component log densities, shape (n, k)."""
    n, d = x.shape
    out = np.empty((n, model.k))
    if model.kind in ("full", "tied"):
        from scipy.linalg import solve_triangular  # only these kinds pay its import
        covs = model.covariances if model.kind == "full" else None
        if model.kind == "tied":
            chol = np.linalg.cholesky(model.covariances)
            logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        for j in range(model.k):
            if model.kind == "full":
                chol = np.linalg.cholesky(covs[j])
                logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            diff = x - model.means[j]
            # Solve L y = diff^T for the Mahalanobis term.
            y = solve_triangular(chol, diff.T, lower=True)
            maha = np.sum(y * y, axis=0)
            out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)
    elif model.kind == "diagonal":
        var = model.covariances              # (k, d)
        for j in range(model.k):
            diff = x - model.means[j]
            maha = np.sum(diff * diff / var[j], axis=1)
            out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + np.sum(np.log(var[j])) + maha)
    else:
        var = model.covariances              # (k,)
        for j in range(model.k):
            diff = x - model.means[j]
            maha = np.sum(diff * diff, axis=1) / var[j]
            out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + d * np.log(var[j]) + maha)
    return out


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a 2-D array, bit for bit as scipy 1.17's
    `scipy.special.logsumexp(a, axis=1)` on real input: each row's maximum
    entries are split out of the sum for precision, and a row whose result
    is not finite takes the direct formula. Written here so that a CLI
    process does not import scipy.special."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=1, keepdims=True)
        at_top = a == top
        m = np.sum(at_top, axis=1, keepdims=True, dtype=a.dtype)
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + top)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def _log_joint(model: GmmModel, x: np.ndarray) -> np.ndarray:
    log_w = np.log(np.maximum(model.weights, 1e-300))
    return _log_gaussians(model, x) + log_w[None, :]


def total_log_likelihood(model: GmmModel, x: np.ndarray) -> float:
    return float(np.sum(logsumexp(_log_joint(model, x))))


def responsibilities(model: GmmModel, x: np.ndarray) -> tuple[np.ndarray, float]:
    """E-step: posterior component probabilities per row, plus the total LL."""
    lj = _log_joint(model, x)
    norm = logsumexp(lj)
    return np.exp(lj - norm[:, None]), float(norm.sum())


def _check_positive(var: np.ndarray, kind: str) -> None:
    if not np.isfinite(var).all() or (np.min(var) < VARIANCE_FLOOR):
        raise ValueError(
            f"a {kind} component collapsed below the variance floor; "
            "data may be degenerate (duplicate rows or constant columns)")


def _m_step(x: np.ndarray, resp: np.ndarray, kind: str) -> GmmModel:
    n, d = x.shape
    k = resp.shape[1]
    nk = resp.sum(axis=0) + 10.0 * np.finfo(np.float64).eps
    weights = nk / nk.sum()
    means = (resp.T @ x) / nk[:, None]
    if kind in ("full", "tied"):
        covs = np.empty((k, d, d))
        for j in range(k):
            diff = x - means[j]
            covs[j] = (resp[:, j][:, None] * diff).T @ diff / nk[j]
        if kind == "tied":
            cov = np.einsum("k,kij->ij", nk, covs) / n + REG * np.eye(d)
            _check_positive(np.diag(cov), kind)
            covariances = cov
        else:
            covs += REG * np.eye(d)[None]
            _check_positive(np.stack([np.diag(c) for c in covs]), kind)
            covariances = covs
    elif kind == "diagonal":
        var = np.empty((k, d))
        for j in range(k):
            diff = x - means[j]
            var[j] = (resp[:, j] @ (diff * diff)) / nk[j]
        covariances = var + REG
        _check_positive(covariances, kind)
    else:
        var = np.empty(k)
        for j in range(k):
            diff = x - means[j]
            var[j] = (resp[:, j] @ np.sum(diff * diff, axis=1)) / (nk[j] * d)
        covariances = var + REG
        _check_positive(covariances, kind)
    return GmmModel(k=k, dims=d, weights=weights, means=means,
                    covariances=covariances, kind=kind)


def _initial_model(x: np.ndarray, k: int, kind: str, rng: np.random.Generator) -> GmmModel:
    """Seed means with k-means++, covariances from the global data covariance."""
    n, d = x.shape
    means = kmeans_plus_plus(x, k, rng)
    global_cov = np.cov(x, rowvar=False).reshape(d, d) + REG * np.eye(d)
    if kind == "full":
        covariances = np.repeat(global_cov[None], k, axis=0)
    elif kind == "tied":
        covariances = global_cov
    elif kind == "diagonal":
        covariances = np.repeat(np.diag(global_cov)[None], k, axis=0)
    else:
        covariances = np.full(k, float(np.mean(np.diag(global_cov))))
    weights = np.full(k, 1.0 / k)
    return GmmModel(k=k, dims=d, weights=weights, means=means,
                    covariances=covariances, kind=kind)


def fit_em(data: np.ndarray, k: int, kind: str, cfg: GmmConfig | None = None) -> tuple[GmmModel, FitReport]:
    """Fit one mixture by EM until relative LL improvement < TOL or max_iter."""
    cfg = cfg or GmmConfig()
    x = observed_matrix(data, "EM")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available rows")
    if kind not in COVARIANCE_KINDS:
        raise ValueError(f"unknown covariance kind {kind!r}")

    rng = rng_for(cfg.seed, "gmm-init", k, kind)
    model = _initial_model(x, k, kind, rng)

    prev_ll = -np.inf
    converged = False
    iterations = 0
    trace: list[float] = []
    for iterations in range(1, cfg.max_iter + 1):
        resp, ll = responsibilities(model, x)
        trace.append(float(ll))
        model = _m_step(x, resp, kind)
        if np.isfinite(prev_ll):
            improvement = (ll - prev_ll) / max(abs(prev_ll), 1e-12)
            if improvement < TOL:
                converged = True
                prev_ll = ll
                break
        prev_ll = ll

    ll = total_log_likelihood(model, x)
    n_params = param_count(k, x.shape[1], kind)
    aic, bic = information_criteria(ll, n, n_params)
    report = FitReport(log_likelihood=ll, aic=aic, bic=bic,
                       iterations=iterations, converged=converged,
                       ll_trace=trace)
    return model, report


@dataclass
class SearchRow:
    k: int
    kind: str
    log_likelihood: float
    aic: float
    bic: float
    converged: bool
    iterations: int
    error: str = ""


def _fits(data: np.ndarray, cfg: GmmConfig, grid: list[tuple]) -> list:
    """fit_em for each (k, kind, restart) of `grid`, seeded per cell and
    restart: its (model, report), or the ValueError that failed it."""
    out = []
    for k, kind, r in grid:
        cell_cfg = GmmConfig(max_iter=cfg.max_iter,
                             seed=child_seed(cfg.seed, "grid", k, kind, r))
        try:
            out.append(fit_em(data, k, kind, cell_cfg))
        except ValueError as exc:
            out.append(exc)
    return out


def select_generator(data: np.ndarray, k_range, kinds, criterion: str = "bic",
                     cfg: GmmConfig | None = None) -> tuple[GmmModel, FitReport, list[SearchRow]]:
    """Grid search over (k, kind), best of `restarts` seeded fits per cell;
    inside a `helpers.lending` block, shares of the fits run on the cores
    it lends.

    Returns the model minimizing the chosen criterion and the full search
    table; raises only if every cell fails.
    """
    cfg = cfg or GmmConfig()
    if criterion not in ("aic", "bic"):
        raise ValueError("criterion must be 'aic' or 'bic'")
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("k_range must be non-empty")
    kind_list = [kd for kd in COVARIANCE_KINDS if kd in set(kinds)]
    if not kind_list:
        raise ValueError("kinds must contain at least one covariance kind")

    grid = [(k, kind, r) for k in ks for kind in kind_list for r in range(cfg.restarts)]
    fits = helpers.map(_fits, (data, cfg), grid)
    table: list[SearchRow] = []
    best = None
    last_error: Exception | None = None
    for at in range(0, len(grid), cfg.restarts):
        k, kind, _ = grid[at]
        cell = fits[at:at + cfg.restarts]
        done = [fit for fit in cell if not isinstance(fit, ValueError)]
        if not done:
            last_error = cell[-1]
            table.append(SearchRow(k, kind, np.nan, np.nan, np.nan, False, 0,
                                   error=str(last_error)))
            continue
        # The first restart of the highest likelihood.
        model, report = max(done, key=lambda fit: fit[1].log_likelihood)
        table.append(SearchRow(k, kind, report.log_likelihood, report.aic,
                               report.bic, report.converged, report.iterations))
        score = report.aic if criterion == "aic" else report.bic
        if best is None or score < best[2]:
            best = (model, report, score)
    if best is None:
        raise ValueError(f"every candidate fit failed; last error: {last_error}")
    return best[0], best[1], table


def write_search_table(path, table: list[SearchRow]) -> None:
    write_csv(path, ["k", "kind", "log_likelihood", "aic", "bic", "converged",
                     "iterations", "error"],
              ([row.k, row.kind, row.log_likelihood, row.aic, row.bic, int(row.converged),
                row.iterations, row.error] for row in table))


def save_model(path, model: GmmModel) -> None:
    """Mixture parameters to a .npz with a version field."""
    np.savez(path, version=np.array([1]), k=np.array([model.k]),
             dims=np.array([model.dims]), kind=np.array([model.kind]),
             weights=model.weights, means=model.means,
             covariances=model.covariances)


def load_model(path) -> GmmModel:
    data = load_npz(path, ("version", "k", "dims", "weights", "means", "covariances",
                           "kind"))
    if int(data["version"][0]) != 1:
        raise ValueError(f"{path}: unsupported generator file version")
    return GmmModel(k=int(data["k"][0]), dims=int(data["dims"][0]),
                    weights=data["weights"], means=data["means"],
                    covariances=data["covariances"], kind=str(data["kind"][0]))


def sample(model: GmmModel, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n rows: component index from the weights, then a Gaussian draw.

    Returns (matrix, component labels); deterministic per seed.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = rng_for(seed, "gmm-sample")
    if n == 0:
        return np.empty((0, model.dims)), np.empty(0, dtype=np.int64)
    weights = model.weights / model.weights.sum()
    labels = rng.choice(model.k, size=n, p=weights)
    z = rng.standard_normal((n, model.dims))
    out = np.empty((n, model.dims))
    covs = _full_covs(model)
    for j in range(model.k):
        idx = labels == j
        if not idx.any():
            continue
        chol = np.linalg.cholesky(covs[j])
        out[idx] = model.means[j] + z[idx] @ chol.T
    return out, labels

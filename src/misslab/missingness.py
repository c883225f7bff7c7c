"""Controlled missingness: MCAR/MAR/MNAR induction, mask bookkeeping, recovery.

Schemes:
  MCAR  every eligible cell masked independently with probability = degree.
  MAR   a row's masking probability is a logistic function of its driver
        columns (which are never masked themselves).
  MNAR  a cell's masking probability is a logistic function of its own value.
MAR/MNAR use slope 1.0 on standardized values with the intercept solved by
bisection so the expected masked fraction equals the requested degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .data import mask_of, save_csv, save_mask_csv, validate_matrix

SCHEMES = ("MCAR", "MAR", "MNAR")
_RTOL = 4 * np.finfo(float).eps        # scipy.optimize.bisect's default and floor
_MAXITER = 100                         # scipy.optimize.bisect's default


@dataclass(frozen=True)
class MissingnessSpec:
    scheme: str
    degree: float
    mar_drivers: tuple = ()

    def __post_init__(self):
        scheme = str(self.scheme).upper()
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        object.__setattr__(self, "scheme", scheme)
        if not 0.0 <= self.degree <= 1.0:
            raise ValueError(f"degree must lie in [0, 1], got {self.degree}")
        object.__setattr__(self, "mar_drivers", tuple(int(j) for j in self.mar_drivers))
        if scheme == "MAR" and not self.mar_drivers:
            raise ValueError("MAR requires at least one driver column")


@dataclass
class InducedDataset:
    """A fully observed matrix with the induced cells blanked to NaN; the
    NaN pattern is the mask.

    At 10,000+ eligible cells the realized fraction concentrates within
    half a percentage point of the spec's degree (binomial tail; checked
    statistically, not asserted per instance).
    """

    holed: np.ndarray

    @property
    def mask(self) -> np.ndarray:
        """mask_of(holed): 1 where a cell was hidden."""
        return mask_of(self.holed)

    @property
    def realized_fraction(self) -> float:
        return float(self.mask.mean())


def _standardize(v: np.ndarray) -> np.ndarray:
    sd = v.std()
    if sd == 0.0:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


def bisect(f, a: float, b: float, xtol: float = 2e-12) -> float:
    """A root of f in [a, b], step for step as scipy.optimize.bisect with its
    default rtol and maxiter: halve the step from a, move a to the midpoint
    while f keeps f(a)'s sign, and stop when f hits 0 or the step falls
    below xtol + rtol * |midpoint|. Written here so that a CLI process does
    not import scipy.optimize."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x: float) -> float:
        fx = float(f(x))
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    a, b = float(a), float(b)
    fa, fb = value(a), value(b)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return a
    if fb == 0:
        return b
    step = b - a
    for _ in range(_MAXITER):
        step *= 0.5
        mid = a + step
        fm = value(mid)
        if fm * fa >= 0:
            a = mid
        if fm == 0 or abs(step) < xtol + _RTOL * abs(mid):
            return mid
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), scipy.special.expit's formula.
    numpy's exp is not the C library's, so a value may differ from scipy's
    by a few ulp; the tests check that the calibrated masks do not. Written
    here so that a CLI process does not import scipy.special."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _calibrated_probs(z: np.ndarray, degree: float) -> np.ndarray:
    """expit(z + b) with b solved so the mean probability equals degree."""
    if degree <= 0.0:
        return np.zeros_like(z)
    if degree >= 1.0:
        return np.ones_like(z)
    b = bisect(lambda t: float(np.mean(expit(z + t))) - degree, -60.0, 60.0,
               xtol=1e-12)
    return expit(z + b)


def check_drivers(drivers: list[int], d: int) -> None:
    """Raise ValueError unless MAR can mask a d-column table with `drivers`."""
    if any(j < 0 or j >= d for j in drivers):
        raise ValueError(f"driver column out of range for {d} columns: {drivers}")
    if len(drivers) >= d:
        raise ValueError("MAR needs at least one non-driver column to mask")


def induce_missingness(truth: np.ndarray, spec: MissingnessSpec, seed: int) -> InducedDataset:
    """Mask cells of a fully observed matrix under the given scheme and degree."""
    x = validate_matrix(truth)
    if np.isnan(x).any():
        raise ValueError("cannot induce missingness: input already has missing cells")
    n, d = x.shape
    rng = rng_for(seed, "induce", spec.scheme, repr(float(spec.degree)))
    draws = rng.random((n, d))

    if spec.scheme == "MCAR":
        mask = draws < spec.degree
    elif spec.scheme == "MAR":
        drivers = list(spec.mar_drivers)
        check_drivers(drivers, d)
        score = np.mean([_standardize(x[:, j]) for j in drivers], axis=0)
        p_row = _calibrated_probs(score, spec.degree)
        mask = draws < p_row[:, None]
        mask[:, drivers] = False
    else:  # MNAR: self-masking per column
        mask = np.zeros((n, d), dtype=bool)
        for j in range(d):
            p = _calibrated_probs(_standardize(x[:, j]), spec.degree)
            mask[:, j] = draws[:, j] < p

    return InducedDataset(holed=np.where(mask, np.nan, x))


def combine_recovered(holed: np.ndarray, model_output: np.ndarray) -> np.ndarray:
    """Observed cells from holed, missing cells from model_output; the
    result is always fully observed."""
    holed = validate_matrix(holed)
    model_output = validate_matrix(model_output)
    if holed.shape != model_output.shape:
        raise ValueError("holed/model_output shapes differ")
    if np.isnan(model_output).any():
        raise ValueError("model_output must be fully observed")
    return np.where(np.isnan(holed), model_output, holed)


def save_induced(stem: str, induced: InducedDataset,
                 names: list[str] | None = None) -> tuple[str, str]:
    """Persist the holed matrix and its mask as `<stem>.holed.csv` / `<stem>.mask.csv`."""
    holed_path = f"{stem}.holed.csv"
    mask_path = f"{stem}.mask.csv"
    save_csv(holed_path, induced.holed, names)
    save_mask_csv(mask_path, induced.mask, names)
    return holed_path, mask_path

"""Missingness induction under MCAR/MAR/MNAR and the recovery combination."""

import numpy as np
import pytest
from scipy.optimize import bisect as scipy_bisect
from scipy.special import expit as scipy_expit

from misslab.data import load_csv, load_mask_csv, mask_of
from misslab.missingness import (
    MissingnessSpec,
    bisect,
    combine_recovered,
    expit,
    induce_missingness,
    save_induced,
)

NAN = np.nan


def uniform_matrix(seed, shape=(500, 8)):
    return np.random.default_rng(seed).random(shape)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_degree_outside_unit_interval():
    with pytest.raises(ValueError, match="degree"):
        MissingnessSpec("MCAR", degree=1.2)
    with pytest.raises(ValueError, match="degree"):
        MissingnessSpec("MCAR", degree=-0.1)


def test_spec_rejects_unknown_scheme_and_empty_mar_drivers():
    with pytest.raises(ValueError, match="unknown scheme"):
        MissingnessSpec("BLOCK", degree=0.1)
    with pytest.raises(ValueError, match="driver"):
        MissingnessSpec("MAR", degree=0.1)


def test_spec_normalizes_scheme_case():
    assert MissingnessSpec("mcar", degree=0.1).scheme == "MCAR"


# ---------------------------------------------------------------------------
# Induction
# ---------------------------------------------------------------------------

def test_degree_zero_masks_nothing():
    x = uniform_matrix(0)
    out = induce_missingness(x, MissingnessSpec("MCAR", 0.0), seed=1)
    assert out.mask.sum() == 0
    assert np.array_equal(out.holed, x)


def test_degree_one_mcar_masks_everything():
    x = uniform_matrix(1, (20, 4))
    out = induce_missingness(x, MissingnessSpec("MCAR", 1.0), seed=1)
    assert out.mask.all()
    assert np.isnan(out.holed).all()


def test_mcar_realized_fraction_concentrates():
    x = np.random.default_rng(2).random((20_000, 56))
    out = induce_missingness(x, MissingnessSpec("MCAR", 0.10), seed=3)
    assert 0.095 <= out.realized_fraction <= 0.105


@pytest.mark.parametrize("spec", [MissingnessSpec("MCAR", 0.3),
                                  MissingnessSpec("MAR", 0.3, mar_drivers=(0, 2)),
                                  MissingnessSpec("MNAR", 0.3)],
                         ids=["MCAR", "MAR", "MNAR"])
def test_mask_exactness_invariant(spec):
    x = uniform_matrix(4)
    out = induce_missingness(x, spec, seed=5)
    assert out.mask.dtype == np.uint8
    assert np.array_equal(out.mask, np.isnan(out.holed))
    hidden = out.mask.astype(bool)
    assert hidden.any()
    assert not hidden[:, list(spec.mar_drivers)].any()
    assert np.isnan(out.holed[hidden]).all()
    assert np.array_equal(out.holed[~hidden], x[~hidden])


def test_same_seed_identical_mask_different_seed_differs():
    x = uniform_matrix(6)
    spec = MissingnessSpec("MCAR", 0.25)
    a = induce_missingness(x, spec, seed=7)
    b = induce_missingness(x, spec, seed=7)
    c = induce_missingness(x, spec, seed=8)
    assert np.array_equal(a.mask, b.mask)
    assert not np.array_equal(a.mask, c.mask)


def test_schemes_draw_distinct_streams():
    x = uniform_matrix(9)
    mcar = induce_missingness(x, MissingnessSpec("MCAR", 0.3), seed=1)
    mnar = induce_missingness(x, MissingnessSpec("MNAR", 0.3), seed=1)
    assert not np.array_equal(mcar.mask, mnar.mask)


def test_rejects_input_with_missing_cells():
    x = uniform_matrix(10).copy()
    x[0, 0] = NAN
    with pytest.raises(ValueError, match="already has missing"):
        induce_missingness(x, MissingnessSpec("MCAR", 0.1), seed=0)


def test_mar_never_masks_driver_columns():
    x = uniform_matrix(11, (2000, 6))
    spec = MissingnessSpec("MAR", 0.3, mar_drivers=(0, 2))
    out = induce_missingness(x, spec, seed=12)
    assert out.mask[:, [0, 2]].sum() == 0
    assert out.mask[:, [1, 3, 4, 5]].sum() > 0


def test_mar_masking_follows_driver_values():
    # Rows with larger driver values must be masked more often.
    x = uniform_matrix(13, (5000, 4))
    spec = MissingnessSpec("MAR", 0.3, mar_drivers=(0,))
    out = induce_missingness(x, spec, seed=14)
    rate = out.mask[:, 1:].mean(axis=1)
    high = x[:, 0] > np.median(x[:, 0])
    assert rate[high].mean() > rate[~high].mean() + 0.05


def test_mar_driver_bounds_and_all_driver_errors():
    x = uniform_matrix(15, (50, 3))
    with pytest.raises(ValueError, match="out of range"):
        induce_missingness(x, MissingnessSpec("MAR", 0.2, mar_drivers=(7,)), seed=0)
    with pytest.raises(ValueError, match="non-driver"):
        induce_missingness(x, MissingnessSpec("MAR", 0.2, mar_drivers=(0, 1, 2)), seed=0)


def test_mnar_masks_high_values_preferentially():
    x = uniform_matrix(16, (5000, 3))
    out = induce_missingness(x, MissingnessSpec("MNAR", 0.3), seed=17)
    hidden = out.mask.astype(bool)
    assert x[hidden].mean() > x[~hidden].mean()


def test_calibrated_schemes_hit_requested_degree():
    x = uniform_matrix(18, (4000, 10))
    for scheme, drivers in (("MAR", (0,)), ("MNAR", ())):
        spec = MissingnessSpec(scheme, 0.3, mar_drivers=drivers)
        out = induce_missingness(x, spec, seed=19)
        eligible = out.mask.shape[1] - len(drivers)
        realized = out.mask.sum() / (out.mask.shape[0] * eligible)
        assert abs(realized - 0.3) < 0.02, scheme


# ---------------------------------------------------------------------------
# Recovery combination
# ---------------------------------------------------------------------------

def test_combine_zero_mask_returns_holed_exactly():
    x = uniform_matrix(22, (10, 3))
    filler = np.zeros_like(x)
    out = combine_recovered(x, filler)
    assert np.array_equal(out, x)


def test_combine_full_mask_returns_model_output_exactly():
    x = uniform_matrix(23, (10, 3))
    holed = np.full_like(x, NAN)
    out = combine_recovered(holed, x)
    assert np.array_equal(out, x)


def test_combine_single_masked_cell():
    holed = np.array([[1.0, NAN], [2.0, 3.0]])
    model_output = np.array([[9.0, 8.0], [7.0, 6.0]])
    out = combine_recovered(holed, model_output)
    assert out.tolist() == [[1.0, 8.0], [2.0, 3.0]]


def test_combine_output_is_fully_observed():
    x = uniform_matrix(24, (50, 5))
    induced = induce_missingness(x, MissingnessSpec("MCAR", 0.5), seed=25)
    out = combine_recovered(induced.holed, np.zeros_like(x))
    assert not np.isnan(out).any()


def test_combine_rejects_shape_and_mask_disagreement():
    holed = np.array([[1.0, NAN]])
    with pytest.raises(ValueError, match="shapes differ"):
        combine_recovered(holed, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="fully observed"):
        combine_recovered(holed, np.array([[NAN, 0.0]]))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_save_induced_round_trip(tmp_path):
    x = uniform_matrix(27, (30, 4))
    induced = induce_missingness(x, MissingnessSpec("MCAR", 0.3), seed=28)
    holed_path, mask_path = save_induced(str(tmp_path / "exp"), induced)
    assert holed_path.endswith(".holed.csv") and mask_path.endswith(".mask.csv")
    holed = load_csv(holed_path).features
    mask = load_mask_csv(mask_path)
    assert np.array_equal(mask_of(holed), induced.mask)
    assert np.array_equal(mask, induced.mask)


# ---------------------------------------------------------------------------
# Bisection, against scipy.optimize.bisect
# ---------------------------------------------------------------------------

def outcome(solver, f, a, b, **kw):
    """The root's repr (the same string iff the same bits) or the error."""
    try:
        return repr(solver(f, a, b, **kw))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def random_monotone(rng, kind):
    """A monotone function with a random root, maybe outside the bracket."""
    sign = float(rng.choice([-1.0, 1.0]))
    if kind == 0:                                   # the MAR/MNAR calibration
        z = rng.normal(size=int(rng.integers(1, 60))) * rng.uniform(0.1, 5.0)
        target = rng.uniform(-0.05, 1.05)
        return lambda t: sign * (float(np.mean(scipy_expit(z + t))) - target)
    if kind == 1:
        c, root = rng.uniform(0.0, 3.0), rng.uniform(-70.0, 70.0)
        return lambda t: sign * ((t - root) ** 3 + c * (t - root))
    step = rng.uniform(0.01, 2.0)                   # flat stretches, exact zeros
    return lambda t: sign * float(np.floor(t / step))


def test_bisect_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(600):
        f = random_monotone(rng, trial % 3)
        a, b = rng.uniform(-80.0, 5.0), rng.uniform(-5.0, 80.0)
        kw = {}
        if trial % 4 == 1:
            kw["xtol"] = float(rng.choice([1e-12, 1e-6, 0.5, 5e-324]))
        want = outcome(scipy_bisect, f, a, b, **kw)
        assert outcome(bisect, f, a, b, **kw) == want, (trial, kw)


def test_bisect_argument_errors_match_scipy():
    f = lambda t: t - 0.3                       # noqa: E731
    for kw in ({"xtol": 0.0}, {"xtol": -1.0}):
        assert outcome(bisect, f, 0.0, 1.0, **kw) \
            == outcome(scipy_bisect, f, 0.0, 1.0, **kw), kw
    # A root near 1e-300 needs about 1000 halvings: past the 100-step limit.
    tiny = lambda t: t - 1e-300                 # noqa: E731
    assert outcome(bisect, tiny, -1.0, 2.0, xtol=5e-324)[0] == "RuntimeError"
    assert outcome(bisect, tiny, -1.0, 2.0, xtol=5e-324) \
        == outcome(scipy_bisect, tiny, -1.0, 2.0, xtol=5e-324)
    nan = lambda t: float("nan")                # noqa: E731
    assert outcome(bisect, nan, 0.0, 1.0) == outcome(scipy_bisect, nan, 0.0, 1.0)


@pytest.mark.parametrize("scheme", ["MAR", "MNAR"])
def test_calibrated_masks_match_those_from_scipy_bisect(monkeypatch, scheme):
    x = uniform_matrix(3, (400, 5))
    spec = MissingnessSpec(scheme, 0.3, mar_drivers=(0, 1) if scheme == "MAR" else ())
    ours = [induce_missingness(x, spec, seed).mask for seed in range(4)]
    monkeypatch.setattr("misslab.missingness.bisect", scipy_bisect)
    for seed, mask in enumerate(ours):
        assert np.array_equal(mask, induce_missingness(x, spec, seed).mask), seed


# ---------------------------------------------------------------------------
# The logistic function, against scipy.special.expit
# ---------------------------------------------------------------------------

def test_expit_is_within_a_few_ulp_of_scipy():
    z = np.concatenate([np.linspace(-70.0, 70.0, 20001),
                        [-800.0, -np.inf, 0.0, 800.0, np.inf]])
    with np.errstate(over="raise"):
        ours = expit(z)
    want = scipy_expit(z)
    assert np.array_equal(ours[-5:], [0.0, 0.0, 0.5, 1.0, 1.0])
    assert np.all(np.abs(ours - want) <= 4 * np.spacing(want))


def test_calibrated_masks_match_those_from_scipy_expit(monkeypatch):
    # The two differ by a few ulp on some inputs, which must not move a mask.
    rng = np.random.default_rng(8)
    cases = []
    for case in range(320):
        n, d = int(rng.integers(5, 300)), int(rng.integers(2, 9))
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        if case % 4 == 0:
            x = np.round(x)                             # ties
        scheme = ("MAR", "MNAR")[case % 2]
        drivers = tuple(range(int(rng.integers(1, d)))) if scheme == "MAR" else ()
        spec = MissingnessSpec(scheme, float(rng.uniform(0.01, 0.95)),
                               mar_drivers=drivers)
        cases.append((x, spec, int(rng.integers(0, 2**31))))
    ours = [induce_missingness(x, spec, seed).mask for x, spec, seed in cases]
    monkeypatch.setattr("misslab.missingness.expit", scipy_expit)
    for case, ((x, spec, seed), mask) in enumerate(zip(cases, ours)):
        assert np.array_equal(mask, induce_missingness(x, spec, seed).mask), case

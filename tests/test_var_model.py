import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oficast import var_model
from oficast.data_io import DataFormatError, SyntheticSpec, generate_synthetic
from oficast.var_model import (
    FitDiagnostics,
    K,
    RankDeficiencyError,
    VARIABLE_NAMES,
    VarModel,
    build_lag_matrix,
    fit_var,
    load_var,
    one_step_predictions,
    regressor_names,
    residuals,
    save_var,
    summary,
)

from conftest import make_counts, noisy_ar1_counts, stable_var1_series


def brute_force_ols(series_arr, p):
    """Independent reference: build the lagged design by explicit loops and
    solve the normal equations with a matrix inverse."""
    n = series_arr.shape[0]
    rows = n - p
    Z = np.ones((rows, 1 + 2 * p))
    Y = np.empty((rows, 2))
    for r in range(rows):
        t = p + r
        Y[r] = series_arr[t]
        col = 1
        for lag in range(1, p + 1):
            Z[r, col : col + 2] = series_arr[t - lag]
            col += 2
    B = np.linalg.inv(Z.T @ Z) @ (Z.T @ Y)
    return Z, Y, B


# ------------------------------------------------------------ design matrix

def test_lag_matrix_shapes():
    Z, Y = build_lag_matrix(make_counts([(1, 2)] * 5), 2)
    assert Z.shape == (3, 5)
    assert Y.shape == (3, 2)


def test_lag_matrix_constant_series_rows():
    Z, _ = build_lag_matrix(make_counts([(10, 20)] * 8), 3)
    expected = [1.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
    assert np.all(Z == np.array(expected))


def test_lag_matrix_index_tracing():
    rng = np.random.default_rng(2)
    arr = rng.integers(0, 50, size=(50, 2)).astype(float)
    series = make_counts(arr.astype(int))
    p = 3
    Z, Y = build_lag_matrix(series, p)
    for r in range(Z.shape[0]):
        t = p + r
        assert Z[r, 0] == 1.0
        for lag in range(1, p + 1):
            np.testing.assert_array_equal(Z[r, 1 + 2 * (lag - 1) : 1 + 2 * lag], arr[t - lag])
        np.testing.assert_array_equal(Y[r], arr[t])


def test_lag_matrix_too_short():
    with pytest.raises(ValueError, match="too short"):
        build_lag_matrix(make_counts([(1, 1)] * 3), 3)


def test_regressor_names_order():
    assert list(regressor_names(2)) == [
        "const",
        "L1.buy_orders",
        "L1.sell_orders",
        "L2.buy_orders",
        "L2.sell_orders",
    ]


# ------------------------------------------------------------------ fitting

def test_noiseless_recovery():
    A, c, arr = stable_var1_series(100)
    model, _ = fit_var(arr, 1)
    np.testing.assert_allclose(model.lag_coefs[0], A, atol=1e-10)
    np.testing.assert_allclose(model.c, c, atol=1e-10)
    np.testing.assert_allclose(residuals(model, arr), 0.0, atol=1e-9)


def test_noiseless_recovery_decaying_diagonal():
    A = np.diag([0.5, 0.3])
    arr = np.empty((60, 2))
    arr[0] = (9.0, 7.0)
    for t in range(1, 60):
        arr[t] = A @ arr[t - 1]
    model, _ = fit_var(arr, 1)
    np.testing.assert_allclose(model.lag_coefs[0], A, atol=1e-10)
    np.testing.assert_allclose(model.c, 0.0, atol=1e-10)


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(40, 201))
        p = int(rng.choice([1, 2, 5]))
        arr = rng.poisson(30, size=(n, 2)).astype(float)
        model, _ = fit_var(arr, p)
        _, _, B = brute_force_ols(arr, p)
        np.testing.assert_allclose(model.c, B[0], atol=1e-8)
        for lag in range(p):
            np.testing.assert_allclose(
                model.lag_coefs[lag], B[1 + 2 * lag : 3 + 2 * lag].T, atol=1e-8
            )


def test_duplicate_column_rank_deficiency():
    series = make_counts([(v, v) for v in (10, 12, 9, 14, 11, 13, 10, 15) * 5])
    with pytest.raises(RankDeficiencyError) as exc:
        fit_var(series, 1)
    assert exc.value.columns  # the offending regressors are reported
    assert "sell_orders" in str(exc.value)


_SYNTHETIC = generate_synthetic(SyntheticSpec(length=200, seed=3)).counts

#: shape -> (its (n, 2) count array from a synthetic buy column b, the
#: columns it makes dependent: every sell lag, every lag or none)
_RANK_SHAPES = {
    "buy-equals-sell": (lambda b: np.c_[b, b], "sell"),
    "sell-affine-in-buy": (lambda b: np.c_[b, 2 * b + 1], "sell"),
    "constant-sell": (lambda b: np.c_[b, np.full_like(b, 7)], "sell"),
    "all-zero": (lambda b: np.zeros((len(b), 2), dtype=np.int64), "lags"),
    "synthetic": (lambda b: _SYNTHETIC, "none"),
}


@pytest.mark.parametrize("p", [1, 2, 5, 10])
@pytest.mark.parametrize("shape", list(_RANK_SHAPES))
def test_rank_check_names_exactly_the_dependent_columns(shape, p):
    build, which = _RANK_SHAPES[shape]
    names = regressor_names(p)
    expected = {
        "sell": tuple(name for name in names if name.endswith(".sell_orders")),
        "lags": tuple(names[1:]),
        "none": (),
    }[which]
    series = build(_SYNTHETIC[:, 0])
    if not expected:
        fit_var(series, p)
        return
    with pytest.raises(RankDeficiencyError) as exc:
        fit_var(series, p)
    assert exc.value.columns == expected
    assert str(exc.value) == (
        "design matrix is rank deficient; dependent columns: " + ", ".join(expected)
    )


def _gram_schmidt_dependents(Z, names, rtol=1e-10):
    """Reference: orthogonalise the columns in order against the basis of the
    independent ones before them, twice; a column whose remainder is at most
    rtol times its norm is dependent and joins no basis."""
    basis, dependent = [], []
    for name, column in zip(names, Z.T):
        v = column.astype(float)
        for _ in range(2):
            for b in basis:
                v = v - (b @ v) * b
        remainder = np.linalg.norm(v)
        if remainder <= rtol * np.linalg.norm(column):
            dependent.append(name)
        else:
            basis.append(v / remainder)
    return tuple(dependent)


@st.composite
def _count_series_with_dependence(draw):
    """Counts 0-50 long enough for lag p, optionally made exactly dependent
    (sell affine in buy, or the whole series repeating with a short period)
    or nearly so (a constant sell column but for one spike of 1)."""
    p = draw(st.sampled_from([1, 2, 5, 10]))
    n = draw(st.integers(1 + 3 * p, 60))
    counts = st.integers(0, 50)
    arr = np.array(draw(st.lists(counts, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    dependence = draw(st.sampled_from(["none", "affine", "periodic", "spike"]))
    if dependence == "affine":
        arr[:, 1] = draw(st.integers(0, 3)) * arr[:, 0] + draw(st.integers(0, 5))
    elif dependence == "periodic":
        period = draw(st.integers(1, 3))
        arr = np.resize(arr[:period], (n, 2))
    elif dependence == "spike":
        arr[:, 1] = draw(counts)
        arr[draw(st.integers(0, n - 1)), 1] += 1
    return arr, p


@settings(max_examples=300, deadline=None)
@given(case=_count_series_with_dependence())
def test_rank_check_agrees_with_gram_schmidt(case):
    """The QR check raises exactly where the Gram-Schmidt reference finds a
    dependent column, names the same first one, and names every column the
    reference names (it may name more near the threshold)."""
    arr, p = case
    Z, _ = build_lag_matrix(arr, p)
    reference = _gram_schmidt_dependents(Z, regressor_names(p))
    try:
        fit_var(arr, p)
        named = ()
    except RankDeficiencyError as exc:
        named = exc.columns
    assert bool(named) == bool(reference)
    if reference:
        assert named[0] == reference[0]
        assert set(reference) <= set(named)


def test_underdetermined_fit_reports_series_too_short():
    series = noisy_ar1_counts(15, seed=0)
    with pytest.raises(ValueError, match="series too short"):
        fit_var(series, 10)


def test_sigma_definition_and_orthogonality():
    series = noisy_ar1_counts(120, seed=3)
    p = 2
    model, _ = fit_var(series, p)
    E = residuals(model, series)
    Z, Y = build_lag_matrix(series, p)
    # sigma is the MLE covariance of the residuals
    np.testing.assert_allclose(E.T @ E / E.shape[0], model.sigma, atol=1e-9)
    np.testing.assert_allclose(np.diag(model.sigma), (E * E).sum(axis=0) / E.shape[0], atol=1e-9)
    # normal equations: residuals orthogonal to every regressor
    scale = max(1.0, float(np.abs(Y).max()))
    np.testing.assert_allclose(Z.T @ E / E.shape[0], 0.0, atol=1e-6 * scale)
    # intercept absorbs the mean
    np.testing.assert_allclose(E.mean(axis=0), 0.0, atol=1e-9)


def test_fitted_plus_residual_is_actual():
    series = noisy_ar1_counts(90, seed=12)
    model, _ = fit_var(series, 3)
    _, Y = build_lag_matrix(series, 3)
    np.testing.assert_allclose(
        one_step_predictions(model, series) + residuals(model, series), Y, atol=1e-10
    )


def test_refit_is_deterministic():
    series = noisy_ar1_counts(80, seed=21)
    m1, d1 = fit_var(series, 2)
    m2, d2 = fit_var(series, 2)
    np.testing.assert_array_equal(m1.c, m2.c)
    np.testing.assert_array_equal(m1.lag_coefs, m2.lag_coefs)
    np.testing.assert_array_equal(m1.sigma, m2.sigma)
    assert d1.aic == d2.aic and d1.bic == d2.bic


def test_sigma_symmetric_psd():
    series = noisy_ar1_counts(150, seed=8)
    model, _ = fit_var(series, 2)
    np.testing.assert_allclose(model.sigma, model.sigma.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(model.sigma) > -1e-9)


# -------------------------------------------------------------- diagnostics

def test_information_criteria_penalty_gap():
    series = noisy_ar1_counts(100, seed=4)
    p = 2
    model, diag = fit_var(series, p)
    d = K * (1 + K * p)
    n = model.n_obs
    assert diag.aic - diag.bic == pytest.approx(d * (2.0 - math.log(n)) / n, abs=1e-12)
    assert math.isfinite(diag.aic) and math.isfinite(diag.bic)


def test_per_coefficient_stats_shape_and_tstat():
    series = noisy_ar1_counts(100, seed=4)
    _, diag = fit_var(series, 2)
    for eq in VARIABLE_NAMES:
        stats = diag.per_coefficient[eq]
        assert [s.name for s in stats] == list(regressor_names(2))
        for s in stats:
            if s.std_error > 0:
                assert s.t_stat == pytest.approx(s.estimate / s.std_error, rel=1e-12)
            assert 0.0 <= s.p_value <= 1.0


def test_p_value_normal_tail():
    series = noisy_ar1_counts(300, seed=5)
    _, diag = fit_var(series, 1)
    s = diag.per_coefficient["buy_orders"][1]
    expected = math.erfc(abs(s.t_stat) / math.sqrt(2.0))
    assert s.p_value == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------- one-step predictions

def _halving_model():
    return VarModel(
        p=1,
        c=np.zeros(2),
        lag_coefs=np.array([0.5 * np.eye(2)]),
        sigma=np.zeros((2, 2)),
        n_obs=10,
    )


def test_forecast_one_step():
    out = one_step_predictions(_halving_model(), np.array([[2.0, 4.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_forecast_matches_in_sample_fitted_values():
    series = noisy_ar1_counts(60, seed=9)
    arr = series.astype(float)
    p = 2
    model, _ = fit_var(series, p)
    preds = one_step_predictions(model, series)
    assert preds.shape == (60 - p, 2)
    for t in range(p, 60):
        direct = model.c + sum(model.lag_coefs[lag - 1] @ arr[t - lag] for lag in range(1, p + 1))
        np.testing.assert_allclose(preds[t - p], direct, atol=1e-10)


def test_forecast_builds_only_the_design_matrix_of_the_array_given():
    """No conversion and no target copy: ``predict`` calls this once per row
    block on an array it has converted already."""
    series = noisy_ar1_counts(60, seed=9).astype(float)
    model, _ = fit_var(series, 2)
    Z, _ = build_lag_matrix(series, 2)
    with mock.patch.object(var_model, "counts_to_array", side_effect=AssertionError):
        preds = one_step_predictions(model, series)
    assert preds.tobytes() == (Z @ var_model._stacked_coef(model)).tobytes()


def test_forecast_insufficient_history():
    series = noisy_ar1_counts(60, seed=9)
    model, _ = fit_var(series, 3)
    with pytest.raises(ValueError):  # p rows leave no row to predict
        one_step_predictions(model, make_counts([(1, 1)] * 3))


def test_forecast_output_is_real_valued():
    series = noisy_ar1_counts(60, seed=10)
    model, _ = fit_var(series, 1)
    out = one_step_predictions(model, make_counts([(3, 5), (4, 6), (2, 2)]))
    assert out.dtype == float
    assert not np.allclose(out, np.round(out))  # not silently integerized


# ------------------------------------------------------------------ summary

def test_summary_layout():
    series = noisy_ar1_counts(100, seed=6)
    model, diag = fit_var(series, 2)
    text = summary(model, diag)
    assert "Results for equation buy_orders" in text
    assert "Results for equation sell_orders" in text
    assert "coefficient" in text and "std. error" in text
    assert "Lag order: 2" in text
    assert "L2.sell_orders" in text
    # one row per regressor per equation
    assert text.count("L1.buy_orders") == 2


# -------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path):
    series = noisy_ar1_counts(100, seed=13)
    model, _ = fit_var(series, 2)
    path = tmp_path / "var.txt"
    save_var(model, path)
    loaded = load_var(path)
    assert loaded.p == model.p and loaded.n_obs == model.n_obs
    np.testing.assert_array_equal(loaded.c, model.c)
    np.testing.assert_array_equal(loaded.lag_coefs, model.lag_coefs)
    np.testing.assert_array_equal(loaded.sigma, model.sigma)


def test_load_rejects_wrong_tag(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("some other format\np: 1\n")
    with pytest.raises(ValueError, match="oficast-var"):
        load_var(path)


def test_load_names_file_and_line_for_every_truncation(tmp_path):
    model, _ = fit_var(noisy_ar1_counts(60, seed=13), 2)
    path = tmp_path / "var.txt"
    save_var(model, path)
    lines = path.read_text().splitlines()
    for keep in range(len(lines)):
        path.write_text("".join(line + "\n" for line in lines[:keep]))
        with pytest.raises(DataFormatError, match=r"var\.txt.*line %d\b" % (keep + 1)):
            load_var(path)


#: var.txt line, by its key -> (the text put in its place, the error after "{path}: ")
_BAD_VAR_LINES = {
    "p": ("p: 0", "line 2: expected p >= 1, got '0'"),
    "k": ("k: 3", "line 3: expected k=2, got '3'"),
    "n_obs": ("n_obs: 5 6", "line 4: expected '1' values, got 2"),
    "c": ("c: 1.0 x", "line 5: non-numeric token in '1.0 x'"),
    "A2": ("A2: 1.0 2.0 3.0", "line 7: expected '4' values, got 3"),
    "sigma": ("A3: 1 2 3 4", "line 8: expected 'sigma:', got 'A3: 1 2 3 4'"),
}


@pytest.mark.parametrize("key", list(_BAD_VAR_LINES))
def test_load_names_file_and_line_of_bad_line(tmp_path, key):
    text, message = _BAD_VAR_LINES[key]
    model, _ = fit_var(noisy_ar1_counts(60, seed=13), 2)
    path = tmp_path / "var.txt"
    save_var(model, path)
    lines = path.read_text().splitlines()
    lines[next(i for i, line in enumerate(lines) if line.startswith(key + ":"))] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as exc:
        load_var(path)
    assert str(exc.value) == f"{path}: {message}"
    assert message.startswith(f"line {exc.value.line}: ")


def test_load_rejects_truncated_file(tmp_path):
    series = noisy_ar1_counts(60, seed=13)
    model, _ = fit_var(series, 2)
    path = tmp_path / "var.txt"
    save_var(model, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError):
        load_var(path)

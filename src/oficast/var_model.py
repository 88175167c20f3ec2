"""Bivariate vector autoregression estimated by per-equation least squares.

Model: Y_t = c + A_1 Y_{t-1} + ... + A_p Y_{t-p} + eps_t with
Y_t = (buy_orders_t, sell_orders_t).  Both equations share one design
matrix Z whose columns are a constant, then lags 1..p of both variables
(L1.buy_orders, L1.sell_orders, L2.buy_orders, ...) from :func:`lag_features`.
Z must have full column rank, which one Householder QR factorisation tests;
the solve is ``np.linalg.lstsq`` (LAPACK ``gelsd``, SVD-based), not a
normal-equation inverse.  A model keeps the solution B = [c, A_1, ...,
A_p]' (Lutkepohl 2005, ch. 3) as ``coef``, so it predicts ``Z @ coef``.

Conventions (documented because more than one is common):

* residual covariance ``sigma`` divides by n_obs (the MLE normalization),
  which is what the likelihood-based AIC/BIC below consume;
* coefficient standard errors divide by n_obs - n_regressors;
* AIC = log|sigma| + 2 d / n_obs and BIC = log|sigma| + d log(n_obs) / n_obs
  with d = k (1 + k p) freely estimated parameters, so AIC - BIC depends
  only on n_obs and d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_io import ParamLines, _check_settings, _integer_rules, _quote, counts_to_array

VARIABLE_NAMES = ("buy_orders", "sell_orders")
K = 2

VAR_FORMAT_TAG = "oficast-var v1"
_RANK_RTOL = 1e-10  # see _dependent_columns


class RankDeficiencyError(ValueError):
    """Design matrix lost full column rank; ``columns`` names the dependents."""

    def __init__(self, columns: tuple[str, ...]):
        super().__init__(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(columns)
        )
        self.columns = columns


@dataclass(frozen=True)
class VarModel:
    """Fitted VAR(p): ``coef`` (1 + k p, k), the intercept row then each lag's
    k rows (A_i transposed), with ``c`` (k,) and ``lag_coefs`` (p, k, k) views of
    it; MLE residual covariance ``sigma`` (k, k); and the effective sample size."""

    p: int
    coef: np.ndarray
    sigma: np.ndarray
    n_obs: int

    @property
    def k(self) -> int:
        return self.coef.shape[1]

    @property
    def c(self) -> np.ndarray:
        return self.coef[0]

    @property
    def lag_coefs(self) -> np.ndarray:
        return self.coef[1:].reshape(self.p, self.k, self.k).transpose(0, 2, 1)


@dataclass(frozen=True)
class CoefficientStat:
    name: str
    estimate: float
    std_error: float
    t_stat: float
    p_value: float


@dataclass(frozen=True)
class FitDiagnostics:
    aic: float
    bic: float
    log_likelihood: float
    per_coefficient: dict[str, tuple[CoefficientStat, ...]]


def regressor_names(p: int) -> list[str]:
    names = ["const"]
    for lag in range(1, p + 1):
        for var in VARIABLE_NAMES:
            names.append(f"L{lag}.{var}")
    return names


def lag_features(arr: np.ndarray, q: int, first: int) -> np.ndarray:
    """Row t - first holds the pairs of rows t-q .. t-1 of ``arr``, flattened
    in chronological order, for every t from ``first`` (>= q) to len(arr) - 1."""
    n = arr.shape[0]
    X = np.empty((n - first, 2 * q))
    for j in range(q):
        X[:, 2 * j : 2 * j + 2] = arr[first - q + j : n - q + j]
    return X


def _design_matrix(arr: np.ndarray, p: int) -> np.ndarray:
    """Z for rows p .. n-1 of an ``(n, 2)`` count array, shape (n - p, 1 + k p):
    constant column then lags 1..p of both variables."""
    n = arr.shape[0]
    _check_settings(*_integer_rules("lag order", p, 1))
    if n <= p:
        raise ValueError(f"series of length {n} is too short for p={p}")
    Z = np.ones((n - p, 1 + K * p))
    lags = lag_features(arr, p, p).reshape(n - p, p, K)  # oldest lag first
    Z[:, 1:] = lags[:, ::-1].reshape(n - p, K * p)
    return Z


def build_lag_matrix(series, p: int):
    """Stack the regression pair (Z, Y) for a VAR(p): Z as in
    :func:`_design_matrix`, and Y the current rows p .. n-1."""
    arr = counts_to_array(series)
    return _design_matrix(arr, p), arr[p:].copy()


def _dependent_columns(Z: np.ndarray, names: list[str]):
    """The columns whose distance from the span of every column before them
    is at most _RANK_RTOL times their own norm; a zero column always is one.

    That distance is |R[j, j]| of Z's QR factorisation, for every j at once."""
    distance = np.abs(np.diag(np.linalg.qr(Z, mode="r")))
    bound = _RANK_RTOL * np.linalg.norm(Z, axis=0)
    return tuple(name for name, d, b in zip(names, distance, bound) if d <= b)


def fit_var(series, p: int):
    """Fit a VAR(p); returns (VarModel, FitDiagnostics).

    Raises RankDeficiencyError (naming the offending columns) when the
    design matrix is not full column rank, ValueError when the series is
    too short for p.
    """
    Z, Y = build_lag_matrix(series, p)
    names = regressor_names(p)
    # fewer observations than regressors can never be full column rank;
    # report it as a data-size problem, not a collinearity problem
    if Z.shape[0] < Z.shape[1]:
        raise ValueError(
            f"series too short: fitting lag {p} needs at least "
            f"{p + Z.shape[1]} rows, got {len(series)}"
        )
    dependent = _dependent_columns(Z, names)
    if dependent:
        raise RankDeficiencyError(dependent)
    B, _, _, _ = np.linalg.lstsq(Z, Y, rcond=None)
    E = Y - Z @ B
    n_obs = Z.shape[0]
    sigma = E.T @ E / n_obs
    return VarModel(p=p, coef=B, sigma=sigma, n_obs=n_obs), _diagnostics(Z, B, E, sigma, names)


def _information_criteria(ld: float, n_obs: int, p: int):
    d = K * (1 + K * p)
    aic = ld + 2.0 * d / n_obs
    bic = ld + d * math.log(n_obs) / n_obs
    return aic, bic


def _diagnostics(Z, B, E, sigma, names) -> FitDiagnostics:
    n_obs, m = Z.shape
    p = (m - 1) // K
    sign, ld = np.linalg.slogdet(sigma)
    ld = ld if sign > 0 else -math.inf
    aic, bic = _information_criteria(ld, n_obs, p)
    loglik = -0.5 * n_obs * K * (1.0 + math.log(2.0 * math.pi)) - 0.5 * n_obs * ld
    dof = n_obs - m
    gram_inv_diag = np.diag(np.linalg.inv(Z.T @ Z))
    per: dict[str, tuple[CoefficientStat, ...]] = {}
    for j, eq in enumerate(VARIABLE_NAMES):
        if dof > 0:
            s2 = float(E[:, j] @ E[:, j]) / dof
            ses = np.sqrt(s2 * gram_inv_diag)
        else:
            ses = np.full(m, math.nan)
        stats = []
        for i, name in enumerate(names):
            est = float(B[i, j])
            se = float(ses[i])
            t = est / se if se > 0 else math.nan
            prob = math.erfc(abs(t) / math.sqrt(2.0)) if math.isfinite(t) else math.nan
            stats.append(CoefficientStat(name, est, se, t, prob))
        per[eq] = tuple(stats)
    return FitDiagnostics(
        aic=aic, bic=bic, log_likelihood=loglik, per_coefficient=per
    )


def one_step_predictions(model: VarModel, series: np.ndarray) -> np.ndarray:
    """In-sample one-step-ahead predictions over an ``(n, 2)`` count array;
    row i targets row p + i."""
    return _design_matrix(series, model.p) @ model.coef


def residuals(model: VarModel, series) -> np.ndarray:
    """Actual minus one-step prediction for rows p .. n-1, shape (n - p, k)."""
    Z, Y = build_lag_matrix(series, model.p)
    return Y - Z @ model.coef


def summary(model: VarModel, diagnostics: FitDiagnostics) -> str:
    """Human-readable fit report: header stats plus one block per equation
    with coefficient, standard error, t-statistic, and two-sided prob."""
    lines = []
    lines.append("Order-flow VAR, least-squares estimates")
    lines.append("=" * 55)
    lines.append(f"No. of equations: {model.k:<10d} Lag order: {model.p}")
    lines.append(
        f"Nobs: {model.n_obs:<21d} Log likelihood: {diagnostics.log_likelihood:.3f}"
    )
    lines.append(f"AIC: {diagnostics.aic:<22.4f} BIC: {diagnostics.bic:.4f}")
    for eq in VARIABLE_NAMES:
        lines.append("")
        lines.append(f"Results for equation {eq}")
        lines.append("-" * 55)
        lines.append(
            f"{'':<16}{'coefficient':>14}{'std. error':>13}{'t-stat':>10}{'prob':>8}"
        )
        for stat in diagnostics.per_coefficient[eq]:
            lines.append(
                f"{stat.name:<16}{stat.estimate:>14.6f}{stat.std_error:>13.6f}"
                f"{stat.t_stat:>10.3f}{stat.p_value:>8.3f}"
            )
    lines.append("")
    return "\n".join(lines)


def save_var(model: VarModel, path: str | Path) -> None:
    """Persist in a self-describing text format at full precision."""
    lines = [VAR_FORMAT_TAG]
    lines.append(f"p: {model.p}")
    lines.append(f"k: {model.k}")
    lines.append(f"n_obs: {model.n_obs}")
    lines.append("c: " + " ".join(repr(float(x)) for x in model.c))
    for lag in range(model.p):
        flat = model.lag_coefs[lag].ravel()
        lines.append(f"A{lag + 1}: " + " ".join(repr(float(x)) for x in flat))
    lines.append("sigma: " + " ".join(repr(float(x)) for x in model.sigma.ravel()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_var(path: str | Path) -> VarModel:
    """Inverse of :func:`save_var`.  A truncated file, a malformed line, a
    non-finite value or a value count that does not fit p and k raises
    DataFormatError naming the file and the line."""
    lines = ParamLines(path)
    if lines.line(0) != VAR_FORMAT_TAG:
        raise lines.bad(0, f"not a {VAR_FORMAT_TAG} file")
    p, k, n_obs = (
        lines.numbers(idx, lines.expect(idx, key), int, count=1)[0]
        for idx, key in enumerate(("p", "k", "n_obs"), 1)
    )
    if p < 1:
        raise lines.bad(1, f"expected p >= 1, got {_quote(str(p))}")
    if k != K:
        raise lines.bad(2, f"expected k={K}, got {_quote(str(k))}")

    def values(idx: int, key: str, count: int) -> np.ndarray:
        return np.array(lines.numbers(idx, lines.expect(idx, key), count=count))

    rows = [values(4, "c", k)]
    rows += [values(5 + lag, f"A{lag + 1}", k * k).reshape(k, k).T for lag in range(p)]
    sigma = values(5 + p, "sigma", k * k)
    # C order, as lstsq returns it: the bits of a matmul depend on its operands' layout
    coef = np.ascontiguousarray(np.vstack(rows))
    return VarModel(p=p, coef=coef, sigma=sigma.reshape(k, k), n_obs=n_obs)

"""Bivariate vector autoregression estimated by per-equation least squares.

Model: Y_t = c + A_1 Y_{t-1} + ... + A_p Y_{t-p} + eps_t with
Y_t = (buy_orders_t, sell_orders_t).  Both equations share one design
matrix whose columns are, in fixed order, a leading constant followed by
lags 1..p of both variables (L1.buy_orders, L1.sell_orders, L2.buy_orders,
...).  The solve goes through a QR-backed least-squares routine rather
than an explicit normal-equation inverse.

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

from .data_io import counts_to_array

VARIABLE_NAMES = ("buy_orders", "sell_orders")
K = 2

VAR_FORMAT_TAG = "oficast-var v1"


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
    """Fitted VAR(p): intercept ``c`` (k,), lag matrices ``lag_coefs`` (p, k, k),
    MLE residual covariance ``sigma`` (k, k), and the effective sample size."""

    p: int
    c: np.ndarray
    lag_coefs: np.ndarray
    sigma: np.ndarray
    n_obs: int

    @property
    def k(self) -> int:
        return self.c.shape[0]


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


def build_lag_matrix(series, p: int, *, start: int | None = None):
    """Stack the regression pair (Z, Y) for a VAR(p).

    Z has shape (n - start, 1 + k p): constant column then lags 1..p of both
    variables; Y holds the corresponding current rows.  ``start`` (>= p)
    positions the first regressed row and exists so lag selection can score
    every candidate on one common trimmed sample; it defaults to p.
    """
    arr = counts_to_array(series)
    n = arr.shape[0]
    if p < 1:
        raise ValueError(f"lag order must be >= 1, got {p}")
    if start is None:
        start = p
    if start < p:
        raise ValueError("start must be >= p")
    if n <= start:
        raise ValueError(f"series of length {n} is too short for p={p}, start={start}")
    rows = n - start
    Z = np.ones((rows, 1 + K * p))
    for lag in range(1, p + 1):
        Z[:, 1 + K * (lag - 1) : 1 + K * lag] = arr[start - lag : n - lag]
    Y = arr[start:].copy()
    return Z, Y


def _dependent_columns(Z: np.ndarray, names: list[str], rtol: float = 1e-10):
    """Gram-Schmidt scan: columns whose residual against the span of the
    previous columns is below rtol * own norm are reported as dependent."""
    basis: list[np.ndarray] = []
    dependent: list[str] = []
    for j in range(Z.shape[1]):
        v = Z[:, j].astype(float).copy()
        norm0 = float(np.linalg.norm(v))
        if norm0 == 0.0:
            dependent.append(names[j])
            continue
        for _ in range(2):  # reorthogonalize once for numerical safety
            for b in basis:
                v -= (b @ v) * b
        norm = float(np.linalg.norm(v))
        if norm <= rtol * norm0:
            dependent.append(names[j])
        else:
            basis.append(v / norm)
    return tuple(dependent)


def _stacked_coef(model: VarModel) -> np.ndarray:
    """Reassemble the (1 + k p, k) least-squares coefficient matrix."""
    blocks = [model.c[None, :]]
    for lag in range(model.p):
        blocks.append(model.lag_coefs[lag].T)
    return np.vstack(blocks)


def _least_squares(Z: np.ndarray, Y: np.ndarray, names: list[str]):
    """(B, E, sigma) of Y on Z; RankDeficiencyError names dependent columns."""
    dependent = _dependent_columns(Z, names)
    if dependent:
        raise RankDeficiencyError(dependent)
    B, _, _, _ = np.linalg.lstsq(Z, Y, rcond=None)
    E = Y - Z @ B
    return B, E, E.T @ E / Z.shape[0]


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
    B, E, sigma = _least_squares(Z, Y, names)
    n_obs = Z.shape[0]
    lag_coefs = np.stack(
        [B[1 + K * i : 1 + K * (i + 1), :].T for i in range(p)]
    )
    model = VarModel(
        p=p, c=B[0].copy(), lag_coefs=lag_coefs, sigma=sigma, n_obs=n_obs
    )
    diagnostics = _diagnostics(Z, Y, B, E, sigma, names)
    return model, diagnostics


def _log_det(sigma: np.ndarray) -> float:
    sign, ld = np.linalg.slogdet(sigma)
    return ld if sign > 0 else -math.inf


def _information_criteria(ld: float, n_obs: int, p: int):
    d = K * (1 + K * p)
    aic = ld + 2.0 * d / n_obs
    bic = ld + d * math.log(n_obs) / n_obs
    return aic, bic


def _diagnostics(Z, Y, B, E, sigma, names) -> FitDiagnostics:
    n_obs, m = Z.shape
    p = (m - 1) // K
    ld = _log_det(sigma)
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


def select_lag(series, candidate_lags, criterion: str = "bic") -> int:
    """Pick the lag minimizing AIC or BIC over one common trimmed sample.

    Every candidate is scored on the rows left after trimming the largest
    candidate's warmup, so the criteria are comparable; ties go to the
    smaller lag.
    """
    crit = criterion.lower()
    if crit not in ("aic", "bic"):
        raise ValueError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    cands = sorted({int(p) for p in candidate_lags})
    if not cands:
        raise ValueError("candidate lag set is empty")
    if cands[0] < 1:
        raise ValueError(f"lags must be >= 1, got {cands[0]}")
    arr = counts_to_array(series)
    max_lag = cands[-1]
    best_p = None
    best_value = math.inf
    for p in cands:
        Z, Y = build_lag_matrix(arr, p, start=max_lag)
        _, _, sigma = _least_squares(Z, Y, regressor_names(p))
        aic, bic = _information_criteria(_log_det(sigma), Z.shape[0], p)
        value = aic if crit == "aic" else bic
        if value < best_value:
            best_value = value
            best_p = p
    return best_p


def one_step_predictions(model: VarModel, series) -> np.ndarray:
    """In-sample one-step-ahead predictions; row i targets series row p + i."""
    Z, _ = build_lag_matrix(series, model.p)
    return Z @ _stacked_coef(model)


def residuals(model: VarModel, series) -> np.ndarray:
    """Actual minus one-step prediction for rows p .. n-1, shape (n - p, k)."""
    Z, Y = build_lag_matrix(series, model.p)
    return Y - Z @ _stacked_coef(model)


def forecast(model: VarModel, history, steps: int) -> np.ndarray:
    """Recursive forecast with future innovations set to zero.

    ``history`` must supply at least p rows; forecasts feed back as inputs
    for subsequent steps.  Returns shape (steps, k).
    """
    arr = counts_to_array(history)
    if arr.shape[0] < model.p:
        raise ValueError(
            f"history of length {arr.shape[0]} is shorter than p={model.p}"
        )
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    state = [arr[i] for i in range(arr.shape[0] - model.p, arr.shape[0])]
    out = []
    for _ in range(steps):
        nxt = model.c.copy()
        for lag in range(1, model.p + 1):
            nxt = nxt + model.lag_coefs[lag - 1] @ state[-lag]
        out.append(nxt)
        state.append(nxt)
    return np.array(out)


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


def _parse_floats(line: str, key: str, path) -> np.ndarray:
    prefix = key + ": "
    if not line.startswith(prefix):
        raise ValueError(f"{path}: expected '{key}:' line, got {line!r}")
    return np.array([float(tok) for tok in line[len(prefix) :].split()])


def load_var(path: str | Path) -> VarModel:
    """Inverse of :func:`save_var`; validates the format tag and shapes."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != VAR_FORMAT_TAG:
        raise ValueError(f"{path}: not a {VAR_FORMAT_TAG} file")
    fields = {}
    for key in ("p", "k", "n_obs"):
        idx = 1 + len(fields)
        if idx >= len(lines):
            raise ValueError(f"{path}: truncated file, missing '{key}:' line")
        line = lines[idx]
        prefix = key + ": "
        if not line.startswith(prefix):
            raise ValueError(f"{path}: expected '{key}:' line, got {line!r}")
        fields[key] = int(line[len(prefix) :])
    p, k, n_obs = fields["p"], fields["k"], fields["n_obs"]
    if len(lines) < 6 + p:
        raise ValueError(
            f"{path}: truncated file, expected {6 + p} lines for p={p}"
        )
    if k != K:
        raise ValueError(f"{path}: expected k={K}, got {k}")
    c = _parse_floats(lines[4], "c", path)
    if c.shape != (k,):
        raise ValueError(f"{path}: intercept has wrong length")
    lag_coefs = np.empty((p, k, k))
    for lag in range(p):
        flat = _parse_floats(lines[5 + lag], f"A{lag + 1}", path)
        if flat.shape != (k * k,):
            raise ValueError(f"{path}: lag matrix A{lag + 1} has wrong size")
        lag_coefs[lag] = flat.reshape(k, k)
    flat = _parse_floats(lines[5 + p], "sigma", path)
    if flat.shape != (k * k,):
        raise ValueError(f"{path}: sigma has wrong size")
    return VarModel(
        p=p, c=c, lag_coefs=lag_coefs, sigma=flat.reshape(k, k), n_obs=n_obs
    )

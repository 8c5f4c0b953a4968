"""Model representation and estimation.

Covers the structural VARMA container, reduced-form VAR estimation by
equation-wise OLS, internal-instrument shock identification, and
local-projection IRF regressions.  All estimation results are immutable
and safe to share across threads.

Variable indices in public signatures are 1-based, matching the system
index convention used everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficientRegressorsError,
    ZeroImpactError,
)
from .linalg import as_matrix

__all__ = [
    "VarmaModel",
    "ReducedVar",
    "StructuralShockColumn",
    "LpEstimates",
    "estimate_var_ols",
    "identify_internal_instrument",
    "estimate_lp_irfs",
    "simulate_var",
]


@dataclass(frozen=True)
class VarmaModel:
    """Structural VARMA coefficients.

    The model is ``A0 y_t = sum_i A[i] y_{t-i} + sum_j Psi[j] e_{t-j} + e_t``
    with ``K`` variables, AR order ``len(A)`` and MA order ``len(Psi)``.
    """

    var_names: tuple
    A0: np.ndarray
    A: tuple = ()
    Psi: tuple = ()

    def __post_init__(self):
        names = tuple(str(n) for n in self.var_names)
        object.__setattr__(self, "var_names", names)
        K = len(names)
        if len(set(names)) != K:
            raise ValueError("variable names must be unique")
        A0 = as_matrix(self.A0, "A0", square=True)
        if A0.shape[0] != K:
            raise DimensionMismatchError(
                f"A0 is {A0.shape[0]}x{A0.shape[1]}, expected {K}x{K}"
            )
        s = np.linalg.svd(A0, compute_uv=False)
        if s[-1] <= 1e-12 * max(s[0], 1.0):
            raise ValueError("A0 must be nonsingular")
        object.__setattr__(self, "A0", A0)
        for attr in ("A", "Psi"):
            mats = []
            for i, m in enumerate(getattr(self, attr)):
                m = as_matrix(m, f"{attr}[{i}]", square=True)
                if m.shape[0] != K:
                    raise DimensionMismatchError(
                        f"{attr}[{i}] must be {K}x{K}, got {m.shape}"
                    )
                mats.append(m)
            object.__setattr__(self, attr, tuple(mats))

    @property
    def K(self) -> int:
        return len(self.var_names)

    @property
    def ar_order(self) -> int:
        return len(self.A)

    @property
    def ma_order(self) -> int:
        return len(self.Psi)


@dataclass(frozen=True)
class ReducedVar:
    """Reduced-form VAR(p): ``y_t = c + sum_i coefs[i] y_{t-i} + u_t``."""

    var_names: tuple
    coefs: tuple
    sigma_u: np.ndarray
    intercept: np.ndarray | None = None
    residuals: np.ndarray | None = None
    data: np.ndarray | None = None

    def __post_init__(self):
        names = tuple(str(n) for n in self.var_names)
        object.__setattr__(self, "var_names", names)
        K = len(names)
        mats = []
        for i, m in enumerate(self.coefs):
            m = as_matrix(m, f"coefs[{i}]", square=True)
            if m.shape[0] != K:
                raise DimensionMismatchError(
                    f"coefs[{i}] must be {K}x{K}, got {m.shape}"
                )
            mats.append(m)
        object.__setattr__(self, "coefs", tuple(mats))
        S = as_matrix(self.sigma_u, "sigma_u", square=True)
        if S.shape[0] != K:
            raise DimensionMismatchError(f"sigma_u must be {K}x{K}")
        if not np.allclose(S, S.T, atol=1e-10 * max(1.0, np.abs(S).max())):
            raise ValueError("sigma_u must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) < -1e-10 * max(
            1.0, np.abs(S).max()
        ):
            raise ValueError("sigma_u must be positive semi-definite")
        object.__setattr__(self, "sigma_u", S)
        if self.intercept is not None:
            c = np.asarray(self.intercept, dtype=float).reshape(-1)
            if c.shape[0] != K:
                raise DimensionMismatchError(f"intercept must have length {K}")
            object.__setattr__(self, "intercept", c)
        for attr in ("residuals", "data"):
            v = getattr(self, attr)
            if v is not None:
                object.__setattr__(self, attr, as_matrix(v, attr))

    @property
    def K(self) -> int:
        return len(self.var_names)

    @property
    def p(self) -> int:
        return len(self.coefs)


@dataclass(frozen=True)
class StructuralShockColumn:
    """IRFs of one identified structural shock on the ``(h+1)K`` grid.

    ``phi`` stacks horizon blocks of K responses in the model's native
    variable order; ``normalization`` records the 1-based variable index
    and the impact value it was rescaled to, and ``scale`` the factor
    applied to the raw orthogonalised column.
    """

    label: str
    phi: np.ndarray
    K: int
    normalization: tuple
    scale: float = 1.0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float).reshape(-1)
        if phi.shape[0] % self.K != 0:
            raise DimensionMismatchError(
                f"column length {phi.shape[0]} is not a multiple of K={self.K}"
            )
        object.__setattr__(self, "phi", phi)
        idx, value = self.normalization
        if not np.isclose(phi[int(idx) - 1], value, rtol=1e-9, atol=1e-12):
            raise ValueError("impact entry does not match the normalization")

    @property
    def horizons(self) -> int:
        return self.phi.shape[0] // self.K - 1


@dataclass(frozen=True)
class LpEstimates:
    """Per-horizon local-projection coefficients.

    ``beta[h, i]`` is the response of variable ``i+1`` at horizon ``h``
    to the shock variable, controlling for lags only; ``gamma[h, i]``
    adds the contemporaneous controls and so estimates the unit-shock
    orthogonalised response ratio.  Rank-deficient horizons are listed
    in ``flagged`` and carry NaN coefficients rather than being dropped.
    """

    beta: np.ndarray
    gamma: np.ndarray
    flagged: tuple = ()


def _lagged_design(data: np.ndarray, p: int, intercept: bool) -> tuple:
    """Regressor matrix of an intercept and p lags, plus the target rows."""
    T, K = data.shape
    rows = T - p
    cols = []
    if intercept:
        cols.append(np.ones((rows, 1)))
    for lag in range(1, p + 1):
        cols.append(data[p - lag : T - lag])
    X = np.hstack(cols) if cols else np.empty((rows, 0))
    return data[p:], X


def _ols(Y: np.ndarray, X: np.ndarray):
    """Least squares with an explicit rank check on the regressors."""
    coef, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < X.shape[1]:
        raise RankDeficientRegressorsError(
            f"regressor matrix has rank {rank} < {X.shape[1]}"
        )
    return coef


def estimate_var_ols(data, p: int, include_intercept: bool = True,
                     var_names=None) -> ReducedVar:
    """Estimate a reduced-form VAR(p) by equation-wise OLS.

    Parameters
    ----------
    data : array_like, shape (T, K)
        Observations in rows, no missing values.
    p : int
        Lag order; ``p = 0`` fits only the intercept (or nothing).
    include_intercept : bool
        Include a constant term.  The residual covariance uses the
        small-sample correction ``T - p - K p - 1`` with the intercept
        and ``T - p - K p`` without.
    var_names : sequence of str, optional
        Column labels; defaults to ``y1..yK``.
    """
    data = as_matrix(data, "data")
    T, K = data.shape
    if p < 0:
        raise ValueError("lag order must be >= 0")
    if T <= K * p + 1:
        raise ValueError(f"need T > K*p + 1 observations, got T={T}")
    names = tuple(var_names) if var_names is not None else tuple(
        f"y{i + 1}" for i in range(K)
    )
    if len(names) != K:
        raise DimensionMismatchError("var_names length does not match data")

    Y, X = _lagged_design(data, p, include_intercept)
    if X.shape[1] > 0:
        coef = _ols(Y, X)
        resid = Y - X @ coef
    else:
        coef = np.empty((0, K))
        resid = Y.copy()

    dof = T - p - K * p - (1 if include_intercept else 0)
    if dof <= 0:
        raise ValueError("not enough observations for the dof correction")
    sigma = resid.T @ resid / dof

    row = 0
    intercept = None
    if include_intercept:
        intercept = coef[0]
        row = 1
    mats = tuple(coef[row + i * K : row + (i + 1) * K].T for i in range(p))
    return ReducedVar(
        var_names=names,
        coefs=mats,
        sigma_u=sigma,
        intercept=intercept,
        residuals=resid,
        data=data,
    )


def identify_internal_instrument(var: ReducedVar, normalize_on: int,
                                 impact: float,
                                 h: int = 0) -> StructuralShockColumn:
    """Identify a structural shock column from an internal instrument.

    The instrument is the first variable of the VAR.  The identified
    column is the IRF to the first Cholesky-orthogonalised innovation,
    rescaled so that the horizon-0 response of variable ``normalize_on``
    (1-based) equals ``impact``.
    """
    K = var.K
    if not 1 <= normalize_on <= K:
        raise DimensionMismatchError(f"normalize_on must be in 1..{K}")
    try:
        P = np.linalg.cholesky(var.sigma_u)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "residual covariance is not positive definite"
        ) from exc

    impulse = np.zeros((h + 1, K))
    impulse[0] = P[:, 0]
    raw = _var_recursion(var.coefs, None, impulse, np.zeros((var.p, K)))
    raw = raw[var.p :].reshape(-1)
    denom = raw[normalize_on - 1]
    tol = 1e-12 * max(1.0, np.abs(P).max())
    if abs(denom) < tol:
        raise ZeroImpactError(
            f"impact response of variable {normalize_on} is {denom:.3e}; "
            "normalization is undefined"
        )
    scale = impact / denom
    return StructuralShockColumn(
        label=f"{var.var_names[0]} (internal instrument)",
        phi=raw * scale,
        K=K,
        normalization=(normalize_on, impact),
        scale=scale,
    )


def estimate_lp_irfs(data, shock_var: int, ordered_before, horizons: int,
                     lags: int = 4, var_names=None) -> LpEstimates:
    """Local-projection IRFs with and without contemporaneous controls.

    For each horizon ``h`` and each target variable, two regressions of
    the target led by ``h`` periods are run: one on the shock variable
    and ``lags`` lags of everything (coefficient ``beta``), and one that
    also controls for the current values of the variables listed in
    ``ordered_before`` (coefficient ``gamma``).  ``gamma`` therefore
    estimates the response to a unit increase of the shock variable
    holding earlier-ordered variables fixed.

    ``shock_var`` and ``ordered_before`` are 1-based column indices.
    """
    data = as_matrix(data, "data")
    T, K = data.shape
    if not 1 <= shock_var <= K:
        raise DimensionMismatchError(f"shock_var must be in 1..{K}")
    before = [int(i) for i in ordered_before]
    for i in before:
        if not 1 <= i <= K:
            raise DimensionMismatchError(f"control index {i} out of 1..{K}")
        if i == shock_var:
            raise ValueError("shock_var cannot appear in ordered_before")
    H = int(horizons)
    n_reg = 2 + len(before) + lags * K
    if T - H - lags <= n_reg:
        raise ValueError(
            f"too few observations: T - H - lags = {T - H - lags} "
            f"<= {n_reg} regressors"
        )

    s = data[:, shock_var - 1]
    controls = data[:, [i - 1 for i in before]]
    lag_cols = [data[lags - l : T - l] for l in range(1, lags + 1)]
    base = np.hstack([np.ones((T - lags, 1)), s[lags:, None]] + lag_cols)
    with_controls = np.hstack(
        [base[:, :2], controls[lags:], base[:, 2:]]
    )

    beta = np.full((H + 1, K), np.nan)
    gamma = np.full((H + 1, K), np.nan)
    flagged = []
    for h in range(H + 1):
        n = T - lags - h
        Y = data[lags + h : lags + h + n]
        for out, X in ((beta, base), (gamma, with_controls)):
            try:
                coef = _ols(Y, X[:n])
            except RankDeficientRegressorsError:
                if h not in flagged:
                    flagged.append(h)
                continue
            out[h] = coef[1]
    return LpEstimates(beta=beta, gamma=gamma, flagged=tuple(flagged))


def _var_recursion(coefs, intercept, shocks, initial) -> np.ndarray:
    """``y_t = c + sum_i coefs[i] y_{t-i} + shocks_t``, unchecked.

    Runs over the last two axes, so leading axes batch independent
    samples: ``initial`` is ``(..., p, K)`` and ``shocks`` is
    ``(..., n, K)``; the result is ``(..., p + n, K)`` and starts with
    ``initial``.  ``intercept`` may be ``None`` (zero).
    """
    p = len(coefs)
    *batch, n, K = shocks.shape
    c = 0.0 if intercept is None else intercept
    coefs_t = [Ai.T for Ai in coefs]
    out = np.empty((*batch, p + n, K))
    out[..., :p, :] = initial
    for t in range(p, p + n):
        y = c + shocks[..., t - p, :]
        for i, AiT in enumerate(coefs_t, start=1):
            y = y + out[..., t - i, :] @ AiT
        out[..., t, :] = y
    return out


def simulate_var(coefs, intercept, innovations, initial) -> np.ndarray:
    """Generate data recursively from VAR coefficients.

    ``initial`` provides the first ``p`` rows unchanged; one further row
    is produced per row of ``innovations``.
    """
    coefs = [as_matrix(m, "coefs") for m in coefs]
    p = len(coefs)
    innovations = as_matrix(innovations, "innovations")
    K = innovations.shape[1]
    initial = as_matrix(initial, "initial") if p else np.empty((0, K))
    if initial.shape != (p, K):
        raise DimensionMismatchError(f"initial must be ({p}, {K})")
    if intercept is not None:
        intercept = np.asarray(intercept, dtype=float).reshape(K)
    return _var_recursion(coefs, intercept, innovations, initial)

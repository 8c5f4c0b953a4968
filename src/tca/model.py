"""Model representation and estimation.

Covers the structural VARMA container, reduced-form VAR estimation by
equation-wise OLS, internal-instrument shock identification, and
local-projection IRF regressions.  All estimation results are immutable
and safe to share across threads.

Every least-squares fit, the bootstrap refits included, solves the
normal equations (:func:`_fit`): a Gram matrix per sample, factored by
Cholesky, whose column sweep also inverts the factor, with the rank rule
of ``RANK_TESTS``.  A VAR's Gram matrix, for the point estimate and
every bootstrap draw, is summed from the p+1 lagged cross-products of
its sample, ``BLOCK_ROWS`` periods at a time, with no regression design
array (:func:`_lag_gram`).
With an intercept, the rows are first shifted by the sample mean, so
that the Gram matrix stays well conditioned.  The instrument's impact
column is read off the covariance.

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
from .linalg import as_matrix, cholesky_lower, cholesky_sweep, scope, take

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


#: Periods of a VAR's sample that one step of its Gram matrix
#: (:func:`_lag_gram`) takes at a time, so that a fit's working memory
#: does not grow with the sample.
BLOCK_ROWS = 128

#: The rank rule of a least-squares fit of n rows on k regressors, in the
#: order :func:`_fit` applies it: the fit is full rank when it passes all
#: four tests.  ``P`` is the Cholesky factor of the column-equilibrated
#: ``X'X``.
RANK_TESTS = (
    "n >= k",
    "no zero column",
    "positive Cholesky pivots",
    "sqrt(k) |P^-1|_F sqrt(eps max(n, k)) < 1",
)

#: Most periods per sequential step of the VAR recursion, a divisor of
#: BLOCK_ROWS.
_SUB = 16
assert BLOCK_ROWS % _SUB == 0

#: Most values a sample's step of the VAR recursion spans while it takes
#: more than one period, ``s K``.  A step costs ``s K^2`` flops per period
#: beside the ``p K^2`` of the lags, and its maps ``(s K)^2`` values.
_STEP_WIDTH = 64


def _lag_matrices(mats, name: str, K: int) -> tuple:
    """``mats`` as a tuple of finite K x K arrays ``name[i]``."""
    out = []
    for i, m in enumerate(mats):
        m = as_matrix(m, f"{name}[{i}]")
        if m.shape != (K, K):
            raise DimensionMismatchError(
                f"{name}[{i}] must be {K}x{K}, got {m.shape}"
            )
        out.append(m)
    return tuple(out)


def _intercept(c, K: int) -> np.ndarray:
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != K:
        raise DimensionMismatchError(f"intercept must have length {K}")
    return c


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
            object.__setattr__(self, attr,
                               _lag_matrices(getattr(self, attr), attr, K))

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
        if len(set(names)) != K:
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "coefs", _lag_matrices(self.coefs, "coefs", K))
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
            object.__setattr__(self, "intercept", _intercept(self.intercept, K))
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


def _edge_rows(w: np.ndarray, intercept: bool, workspace=None) -> np.ndarray:
    """The p regressor rows ``(..., p, k)`` that the p rows ``w`` ``(...,
    p, K)`` make past an end of a sample, zero-padded: row m holds the
    intercept 1 and, as lag i, row ``p + m - i`` of ``w`` for i > m and
    zeros for i <= m.  They are taken from ``workspace``."""
    *batch, p, K = w.shape
    c = int(intercept)
    rows = take(workspace, (*batch, p, c + p * K))
    rows[..., :c] = 1.0
    lags = rows[..., c:].reshape(*batch, p, p, K)
    for m in range(p):
        lags[..., m, :m, :] = 0.0
        lags[..., m, m:, :] = w[..., m:, :][..., ::-1, :]
    return rows


def _lag_gram(blocks, p: int, intercept: bool, mu, workspace=None) -> tuple:
    """``(G, n)``: the Gram matrix ``[X | Y]'[X | Y]`` of a VAR(p)
    regression on samples shifted by ``mu``, and its row count n, from
    the samples' rows as they arrive in ``blocks``, without ``[X | Y]``.

    Every block is ``(C, p + r, K)``: a stack of C samples, whose first p
    rows end the block before; the samples share their first p rows, the
    data's in every bootstrap draw.  ``[X | Y]`` has an intercept (when
    ``intercept``), p lags of ``z = rows - mu`` and the K targets, in
    this order.  Each block adds to the lagged cross-products ``M_d =
    sum_t z_t z_(t-d)'`` over its r targets, d = 0..p, and to their
    column sums.  The lag i, j block of ``G`` sums ``z_(t-i) z_(t-j)'``
    over the same n targets moved back by i; so ``G`` is the
    block-Toeplitz matrix of the ``M_d``, plus the Gram matrix of the p
    rows that the first p rows make before the first target, less that
    of the p rows the last p rows make after the last
    (:func:`_edge_rows`).  The first of these is computed once per
    stack.  Each product is one per sample, of a shape fixed by the
    block, so a sample gets the same bits in any stack.

    Each block is shifted by ``mu`` in place, so it must be writable and
    no longer needed by its producer.  A block may be a view whose
    samples lie apart in their buffer, as long as each sample's rows are
    contiguous: it is shifted in a contiguous copy, since numpy would
    shift it through its iteration buffers.  The lag-0 product takes a
    second copy of a block's targets, or, for such a view, its own
    targets shifted; the product of two views of one buffer is much
    slower.  ``G`` is taken held from ``workspace``, after the last
    block; the copies, the lagged products and the last p rows, which
    are copied from every block, come from its low end.

    A diagonal entry is then a difference of sums of squares: one that
    is not positive, or within the rounding of those sums, ``n eps``,
    is set to 0, which marks a zero column.
    """
    K = len(mu)
    n, lagged = 0, None
    with scope(workspace):
        for rows in blocks:
            C, L = rows.shape[:2]
            if lagged is None:
                lagged = take(workspace, (C, p + 1, K, K))
                sums = take(workspace, (C, K))
                last = take(workspace, (C, p, K))
                lagged.fill(0.0)
                sums.fill(0.0)
            with scope(workspace):
                if rows.flags.c_contiguous:
                    z, y0 = rows, take(workspace, (C, L - p, K))
                else:  # the block's own targets are free for the lag-0 copy
                    z, y0 = take(workspace, rows.shape), rows[:, p:]
                    z[...] = rows
                # one flat subtraction: broadcasting mu over an axis of
                # length K costs several times more
                z.reshape(C, L * K)[...] -= np.tile(mu, L)
                if n == 0:
                    head = z[0, :p].copy()  # the first block's buffer is reused
                y = z[:, p:]
                yt = np.swapaxes(y, 1, 2)
                y0[...] = y
                lagged[:, 0] += yt @ y0
                for d in range(1, p + 1):
                    lagged[:, d] += yt @ z[:, p - d : L - d]
                sums += np.ones(L - p) @ y
                last[...] = z[:, L - p :]
            n += L - p
        c, k = int(intercept), int(intercept) + K * p
        G = take(workspace, (C, k + K, k + K), held=True)
        with scope(workspace):
            # blocks of lag gap j - i = -p..p, the target (lag 0) last
            gaps = take(workspace, (C, 2 * p + 1, K, K))
            gaps[:, :p] = np.swapaxes(lagged[:, :0:-1], -1, -2)
            gaps[:, p:] = lagged
            grid = G[:, c:, c:].reshape(C, p + 1, K, p + 1, K)
            for i, lag in enumerate([*range(1, p + 1), 0]):
                # block row i: lags 1..p, then the target, each gap a slice
                grid[:, i, :, :p] = gaps[:, p + 1 - lag : 2 * p + 1 - lag].transpose(
                    0, 2, 1, 3)
                grid[:, i, :, p] = gaps[:, p - lag]
        if intercept:
            G[:, 0, 0] = n
            G[:, 0, 1:] = G[:, 1:, 0] = np.tile(sums, p + 1)
        if p:
            head = _edge_rows(head, intercept)
            tail = _edge_rows(last, intercept, workspace)
            tail = np.matmul(np.swapaxes(tail, -1, -2), tail,
                             out=take(workspace, (C, k, k)))
            # in a contiguous copy: numpy would add into the strided
            # block through its iteration buffers
            block = take(workspace, (C, k, k))
            block[...] = G[:, :k, :k]
            block += np.swapaxes(head, -1, -2) @ head
            block -= tail
            G[:, :k, :k] = block
            diag = G.reshape(C, -1)[:, :: k + K + 1][:, :k]
            # n eps bounds the rounding of the sums that the tail cancels
            spill = np.diagonal(tail, axis1=-2, axis2=-1)
            diag[diag <= n * np.finfo(float).eps * (diag + 2.0 * spill)] = 0.0
    return G, n


def _fit(G, n: int, k: int, workspace=None) -> tuple:
    """Least squares of the last columns of ``[X | Y]`` on its first
    ``k``, by the normal equations, for a stack of samples of n rows each,
    given by their Gram matrices ``G = [X | Y]'[X | Y]``, ``(..., k + K, k
    + K)``.

    ``G`` is equilibrated in place, ``D^-1 G D^-1`` with ``D`` the
    column norms, and only its X block is factored, ``P P'``, by a
    column sweep that also makes ``P^-1``
    (:func:`~tca.linalg.cholesky_sweep`); the rest are products: ``R =
    P^-1 G_xy``, the coefficients ``P^-T R`` and the residual
    cross-product, the Schur complement ``G_yy - R'R``.  Each product is
    one per sample, so a sample gets the same bits in any stack.  The
    sweep's arrays and ``R`` come from ``workspace`` and are given back.

    The fit is full rank when it passes every test of ``RANK_TESTS``; a
    column whose diagonal entry is not positive is a zero column.  The
    columns of the equilibrated X have unit norm, so ``sqrt(k)
    |P^-1|_F`` bounds its condition number kappa, and the last test keeps
    ``kappa^2 eps n``, the relative error that forming ``X'X`` may add,
    below 1: at n = 400 it rejects every kappa above about 3e6.  Returns
    ``(coef, ssr, failed)``: ``failed`` is 0 for a full-rank fit and
    otherwise 1 + the index of the first test the sample fails, whose
    coefficients are then not meaningful.
    """
    diag = np.diagonal(G, axis1=-2, axis2=-1)
    zero = np.any(diag[..., :k] <= 0.0, axis=-1)
    d = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    with scope(workspace):  # in place: the caller's G
        scale = take(workspace, G.shape)
        scale[...] = d[..., :, None]
        scale *= d[..., None, :]
        G /= scale
    xy = G.shape[:-2] + (k, G.shape[-1] - k)
    with scope(workspace, held=True):
        P, inv, pd = cholesky_sweep(G[..., :k, :k], workspace)
        square = np.multiply(inv, inv, out=P)  # P itself is not kept
        bounded = (np.sqrt(k * np.finfo(float).eps * max(n, k))
                   * np.sqrt(np.sum(square, axis=(-2, -1))) < 1.0)
        with scope(workspace):
            R = np.matmul(inv, G[..., :k, k:], out=take(workspace, xy))
            dy = d[..., k:, None] * d[..., None, k:]
            ssr = (G[..., k:, k:] - np.swapaxes(R, -1, -2) @ R) * dy
            coef = np.swapaxes(inv, -1, -2) @ R
        with scope(workspace):
            # the column scales in full, since numpy would broadcast them
            # through its iteration buffers
            scale = take(workspace, xy)
            scale[...] = d[..., :k, None]
            coef /= scale
            scale[...] = d[..., None, k:]
            coef *= scale
    failed = np.select([np.broadcast_to(n < k, pd.shape), zero, ~pd,
                        ~bounded], [1, 2, 3, 4])
    return coef, ssr, failed


def _split_coefficients(coef: np.ndarray, p: int, intercept: bool) -> tuple:
    """``(c, lags)`` from OLS coefficients ``(..., k, K)``: the intercept
    ``(..., K)`` (``None`` without one) and the lag matrices
    ``(..., p, K, K)``."""
    *batch, k, K = coef.shape
    row = 1 if intercept else 0
    lags = coef[..., row:, :].reshape(*batch, p, K, K)
    return (coef[..., 0, :] if intercept else None), np.swapaxes(lags, -1, -2)


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

    # with an intercept the rows are shifted by their mean, which leaves
    # the lags alone and moves the intercept by (I - sum_i A_i) mu
    mu = data.mean(axis=0) if include_intercept else np.zeros(K)
    G, n = _lag_gram((data[None, start : start + p + BLOCK_ROWS].copy()
                      for start in range(0, T - p, BLOCK_ROWS)),
                     p, include_intercept, mu)
    k = G.shape[-1] - K
    coef, ssr, failed = _fit(G, n, k)
    if failed[0]:
        raise RankDeficientRegressorsError(
            f"regressors are rank deficient: the {n} x {k} regressor "
            f"matrix fails the rank test {RANK_TESTS[failed[0] - 1]}"
        )
    dof = T - p - K * p - (1 if include_intercept else 0)
    if dof <= 0:
        raise ValueError("not enough observations for the dof correction")
    intercept, lags = _split_coefficients(coef[0], p, include_intercept)
    z = data - mu
    residuals = z[p:] - (0.0 if intercept is None else intercept)
    for i, A in enumerate(lags, 1):
        residuals -= z[p - i : T - i] @ A.T
    if include_intercept:
        intercept = intercept + mu - lags.sum(axis=0) @ mu
    return ReducedVar(
        var_names=names,
        coefs=tuple(lags),
        sigma_u=ssr[0] / dof,
        intercept=intercept,
        residuals=residuals,
        data=data,
    )


def identify_internal_instrument(var: ReducedVar, normalize_on: int,
                                 impact: float,
                                 h: int = 0) -> StructuralShockColumn:
    """Identify a structural shock column from an internal instrument.

    The instrument is the first variable of the VAR.  The identified
    column is the IRF to the first Cholesky-orthogonalised innovation,
    rescaled so that the horizon-0 response of variable ``normalize_on``
    (1-based) equals ``impact``, on horizons ``0..h``.
    """
    K = var.K
    if not 1 <= normalize_on <= K:
        raise DimensionMismatchError(f"normalize_on must be in 1..{K}")
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if not cholesky_lower(var.sigma_u)[1]:
        raise NotPositiveDefiniteError(
            "residual covariance is not positive definite"
        )
    impulse, scale, nonzero = _instrument_impact(var.sigma_u, normalize_on,
                                                 impact)
    if not nonzero:
        raise ZeroImpactError(
            f"impact response of variable {normalize_on} is "
            f"{impulse[normalize_on - 1]:.3e}; normalization is undefined"
        )
    shocks = np.zeros((h + 1, K))
    shocks[0] = impulse
    raw = _var_recursion(var.coefs, None, shocks, np.zeros((var.p, K)))
    return StructuralShockColumn(
        label=f"{var.var_names[0]} (internal instrument)",
        phi=raw[var.p :].reshape(-1) * scale,
        K=K,
        normalization=(normalize_on, impact),
        scale=float(scale),
    )


def _instrument_impact(sigma_u, normalize_on: int, impact: float) -> tuple:
    """Horizon-0 internal-instrument identification for a stack of
    positive-definite residual covariances ``(..., K, K)``, unchecked.

    Returns ``(raw, scale, nonzero)``: ``raw``, the first column of each
    Cholesky factor, ``sigma_u e_1 / sqrt(sigma_11)`` with the bits of
    :func:`~tca.linalg.cholesky_lower`, holds the impact responses to the
    first orthogonalised innovation; :func:`_impact_scale` normalises it.
    """
    first = sigma_u[..., :, 0]
    # finite values also for a non-PD draw, which is discarded later
    root = np.sqrt(np.where(first[..., :1] > 0.0, first[..., :1], 1.0))
    raw = np.concatenate([root, first[..., 1:] / root], axis=-1)
    return (raw, *_impact_scale(raw, normalize_on, impact))


def _impact_scale(column, normalize_on: int, impact: float) -> tuple:
    """``(scale, nonzero)`` for impact columns ``(..., K)``: ``column *
    scale`` moves variable ``normalize_on`` (1-based) by ``impact`` where
    its entry ``c`` is nonzero, ``|c| >= 1e-12 max(1, max|column|)``."""
    denom = column[..., normalize_on - 1]
    nonzero = np.abs(denom) >= 1e-12 * np.maximum(
        1.0, np.abs(column).max(axis=-1))
    return impact / np.where(nonzero, denom, 1.0), nonzero


def estimate_lp_irfs(data, shock_var: int, ordered_before, horizons: int,
                     lags: int = 4) -> LpEstimates:
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
    H, lags = int(horizons), int(lags)
    if H < 0:
        raise ValueError(f"horizons must be >= 0, got {H}")
    if lags < 0:
        raise ValueError(f"lags must be >= 0, got {lags}")
    n_reg = 2 + len(before) + lags * K
    if T - H - lags <= n_reg:
        raise ValueError(
            f"too few observations: T - H - lags = {T - H - lags} "
            f"<= {n_reg} regressors"
        )

    data = data - data.mean(axis=0)  # moves only the unused intercepts
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
            XY = np.hstack([X[:n], Y])
            coef, _, failed = _fit((XY.T @ XY)[None], n, X.shape[1])
            if failed[0]:
                if h not in flagged:
                    flagged.append(h)
                continue
            out[h] = coef[0, 1]
    return LpEstimates(beta=beta, gamma=gamma, flagged=tuple(flagged))


def _step(K: int) -> int:
    """Periods per step of the VAR recursion of K variables: the most, up
    to ``_SUB``, that keep ``s K`` within ``_STEP_WIDTH``, else 1.  They
    depend on K alone, so a call over part of a sample steps as one call
    over all of it does."""
    s = _SUB
    while s > 1 and s * K > _STEP_WIDTH:
        s //= 2
    return s


def _block_maps(coefs, K: int, s: int) -> tuple:
    """``(T, M)``: an s-period step of the VAR recursion gives rows
    ``y_t .. y_(t+s-1)`` as ``g T + w M``, with ``g`` their ``c + shocks``
    and ``w`` the p rows before, all flattened.  With companion matrix
    ``F`` and ``J = [I 0 .. 0]``, block (l, j) of ``T`` is ``(J F^(j-l)
    J')'`` (0 for l > j) and block (i, j) of ``M`` is the block of ``(J
    F^(j+1))'`` acting on ``y_(t-p+i)``.  ``F`` itself is never formed:
    ``J F^(j+1)`` is the first block of ``J F^j`` times ``[A_1 .. A_p]``
    plus the rest of ``J F^j`` moved one block left."""
    p = len(coefs)
    A = np.concatenate(coefs, axis=1)
    JF = np.zeros((s + 1, K, p * K))  # J F^j
    JF[0, :, :K] = np.eye(K)
    for j in range(s):
        np.matmul(JF[j, :, :K], A, out=JF[j + 1])
        JF[j + 1, :, :-K] += JF[j, :, K:]
    psi = np.concatenate([JF[:s, :, :K], np.zeros((1, K, K))])  # psi[-1] = 0
    lag = np.maximum(np.subtract.outer(np.arange(s), np.arange(s)), -1)
    T = psi[lag].transpose(1, 3, 0, 2)  # lag -1 above the block diagonal
    M = JF[1:].reshape(s, K, p, K)[:, :, ::-1].transpose(2, 3, 0, 1)
    return T.reshape(s * K, s * K), M.reshape(p * K, s * K)


def _var_recursion(coefs, intercept, shocks, initial, maps=None,
                   workspace=None) -> np.ndarray:
    """``y_t = c + sum_i coefs[i] y_{t-i} + shocks_t``, unchecked.

    Leading axes batch independent samples that share the coefficients:
    ``shocks`` is ``(..., n, K)`` and ``initial``, ``(p, K)`` or
    ``(..., p, K)``, holds the first p rows; the result is
    ``(..., p + n, K)``.  ``intercept`` may be ``None`` (zero).
    ``maps``, when given, is ``_block_maps(coefs, K, _step(K))``, for a
    caller that steps the same coefficients many times.  The result is a
    view of ``C (p + m s) K`` floats (C samples, m steps of s periods)
    taken held from ``workspace``.
    Shocks of a whole number of steps and no intercept are stepped where
    they are, others from a zero-padded copy with the intercept added.

    The periods go in steps of ``_step(K)`` from the first, each ``g T +
    w M`` (:func:`_block_maps`): one stacked product per ``BLOCK_ROWS`` block
    gives its steps' ``g T``, then one per step, into scratch, the carried
    ``w M``, which is added to a contiguous copy of ``g T`` and copied
    back, since an add into the strided steps would need numpy's
    iteration buffers.
    numpy's matmul makes one BLAS call per sample, of a shape fixed by
    ``(K, p)`` and the sample's steps in that ``BLOCK_ROWS`` block, so every
    sample gets the same bits alone or in a stack; and a sample made
    ``BLOCK_ROWS`` periods per call, each from the last p rows of the one
    before, makes the calls of one call over the whole sample.
    """
    p = len(coefs)
    *batch, n, K = shocks.shape
    s, C = _step(K), int(np.prod(batch, dtype=int))
    m = -(-n // s)  # steps; the last is padded with zero shocks
    out = take(workspace, (C, (p + m * s) * K), held=True)
    with scope(workspace):
        if intercept is None and n == m * s:
            g = shocks.reshape(C, m, s * K)
        else:
            g = take(workspace, (C, m, s * K))
            g.fill(0.0)
            head = g.reshape(C, -1)[:, : n * K]
            head[:] = shocks.reshape(C, n * K)
            if intercept is not None:  # one long row per sample, not K at a time
                head += np.tile(intercept, n)
        out[:, : p * K] = np.broadcast_to(initial, (*batch, p, K)).reshape(C, -1)
        body = out[:, p * K :].reshape(C, m, s * K)
        if p == 0:
            body[:] = g
        else:
            T, M = _block_maps(coefs, K, s) if maps is None else maps
            for j in range(0, m, BLOCK_ROWS // s):
                block = slice(j, j + BLOCK_ROWS // s)  # the steps of a row block
                np.matmul(g[:, block], T, out=body[:, block])
            carried = take(workspace, (C, 1, s * K))
            step = take(workspace, (C, 1, s * K))
            for j in range(m):  # the window of p rows ends where step j starts
                np.matmul(out[:, None, j * s * K : (j * s + p) * K], M,
                          out=carried)
                step[...] = body[:, j : j + 1]
                carried += step  # w M + g T has the bits of g T + w M
                body[:, j : j + 1] = carried
    return out.reshape(C, p + m * s, K)[:, : p + n].reshape(*batch, p + n, K)


def simulate_var(coefs, intercept, innovations, initial) -> np.ndarray:
    """Generate data recursively from VAR coefficients.

    ``initial`` provides the first ``p`` rows unchanged; one further row
    is produced per row of ``innovations``.
    """
    innovations = as_matrix(innovations, "innovations")
    K = innovations.shape[1]
    coefs = _lag_matrices(coefs, "coefs", K)
    p = len(coefs)
    initial = as_matrix(initial, "initial") if p else np.empty((0, K))
    if initial.shape != (p, K):
        raise DimensionMismatchError(f"initial must be ({p}, {K})")
    if intercept is not None:
        intercept = _intercept(intercept, K)
    return _var_recursion(coefs, intercept, innovations, initial)

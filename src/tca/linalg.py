"""Linear-algebra kernels used throughout the package.

Matrices are plain ``numpy`` arrays of floats.  Construction helpers
validate shape and finiteness; the kernels themselves are pure
functions on immutable inputs and are safe to call concurrently.

A stacked kernel may take a :class:`Workspace`, a flat float buffer
that its large arrays are carved from (:func:`take`), so that a caller
that runs it many times allocates them once.  A workspace belongs to
one call of that caller, so concurrent calls share none.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError

__all__ = ["as_matrix", "cholesky_lower", "cholesky_sweep", "ql_decompose",
           "solve_unit_lower", "unit_lower_inverse"]

#: Relative diagonal tolerance below which a QL factor counts as singular.
QL_SINGULAR_RTOL = 1e-12

#: Bytes the working arrays of one systems-form build (its ``(h+1)K x K``
#: shock columns) or of one evaluation (its ``n x (m+1)`` solve columns
#: for m literals) may take; beyond it the build raises ``ValueError``
#: and the evaluation :class:`~tca.errors.TermExplosionError`.
MEMORY_BUDGET = 2 ** 30


class Workspace:
    """A flat float buffer that arrays are carved from, at both ends.

    :func:`take` carves an array from the low end, or from the high end
    when it is ``held``; :func:`scope` gives back what is taken at one
    end inside it.  So a kernel takes its temporaries from the low end in
    a scope, and what must outlive them, such as what it returns, held;
    what a caller still holds is never carved again.  ``peak`` is the
    most floats taken at once, also by takes that did not fit.
    """

    __slots__ = ("buf", "low", "high", "peak")

    def __init__(self, floats: int):
        self.buf = np.empty(floats)
        self.low, self.high, self.peak = 0, floats, 0

    def reset(self) -> None:
        """Give back everything."""
        self.low, self.high = 0, len(self.buf)


def take(workspace, shape, dtype=float, held: bool = False) -> np.ndarray:
    """An uninitialised array of ``shape``, carved from ``workspace`` in
    whole 64-byte lines, from its high end when ``held``; ``np.empty``
    when there is no workspace or it has no room left."""
    if workspace is None:
        return np.empty(shape, dtype)
    count = math.prod(shape)
    itemsize = 8 if dtype is float else np.dtype(dtype).itemsize
    size = -(-count * itemsize // 64) * 8  # floats
    low, high = workspace.low, workspace.high
    used = len(workspace.buf) - high + low + size
    if used > workspace.peak:
        workspace.peak = used
    if high - low < size:
        return np.empty(shape, dtype)
    if held:
        start = workspace.high = high - size
    else:
        start, workspace.low = low, low + size
    if dtype is float:
        return workspace.buf[start : start + count].reshape(shape)
    return (workspace.buf[start : start + size].view(dtype)[:count]
            .reshape(shape))


class scope:
    """A context that gives back on exit what is taken from ``workspace``
    inside it, at its low end, or at its high end when ``held``."""

    __slots__ = ("workspace", "end", "mark")

    def __init__(self, workspace, held: bool = False):
        self.workspace, self.end = workspace, "high" if held else "low"

    def __enter__(self):
        if self.workspace is not None:
            self.mark = getattr(self.workspace, self.end)

    def __exit__(self, *exc):
        if self.workspace is not None:
            setattr(self.workspace, self.end, self.mark)


def as_matrix(a, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-D float array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def ql_decompose(A):
    """Factor a square matrix as ``A = Q @ L``.

    ``Q`` is orthogonal and ``L`` is lower-triangular with strictly
    positive diagonal, which makes the factorisation unique.  The
    factors are obtained from a Householder QR of the column-reversed
    matrix, so the kernel is deterministic: identical inputs give
    bitwise identical outputs.

    Parameters
    ----------
    A : array_like, shape (K, K)
        Nonsingular matrix to factor.

    Returns
    -------
    (Q, L) : tuple of ndarray

    Raises
    ------
    SingularMatrixError
        If a diagonal entry of ``L`` falls below
        ``QL_SINGULAR_RTOL * max|A|``.
    """
    A = as_matrix(A, "A", square=True)
    K = A.shape[0]
    if K == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    S = np.fliplr(np.eye(K))
    Qs, R = np.linalg.qr(A @ S)
    Q = Qs @ S
    L = S @ R @ S

    scale = np.max(np.abs(A))
    if scale == 0.0 or np.min(np.abs(np.diag(L))) < QL_SINGULAR_RTOL * scale:
        raise SingularMatrixError(
            f"matrix is singular to tolerance {QL_SINGULAR_RTOL:g} * max|A|"
        )

    # Enforce diag(L) > 0 by flipping matched column/row signs; the
    # product Q @ L is unchanged.
    flip = np.where(np.diag(L) < 0, -1.0, 1.0)
    Q = Q * flip
    L = L * flip[:, None]
    return Q, L


def cholesky_lower(S):
    """Lower Cholesky factors of a stack of symmetric matrices.

    Returns ``(P, ok)`` of :func:`cholesky_sweep`: ``ok`` marks the
    positive-definite matrices, and the factor of every other one is the
    identity.
    """
    P, _, ok = cholesky_sweep(S)
    return P, ok


def cholesky_sweep(S, workspace=None):
    """Lower Cholesky factors of a stack of symmetric matrices, and their
    inverses.

    ``S`` is ``(..., K, K)``.  The factor of ``S`` bordered below by the
    identity, ``[S; I] = [P; P^-T] P'``, is built column by column across
    the stack, in the order of LAPACK's unblocked ``potf2``, so that one
    matrix that is not positive definite stops nothing else.  Column j
    takes one product per matrix, of a shape fixed by j: its diagonal
    entry, the entries of ``P`` below it, and the first j + 1 entries of
    its ``P^-T`` part, which are row j of ``P^-1`` (the rest are 0).  So
    a matrix gets the same bits alone or in any stack, and the upper
    triangles of ``P`` and ``P^-1`` are exactly 0.  Returns ``(P, P^-1,
    ok)``: ``ok`` marks the positive-definite matrices, and both factors
    of every other one are the identity.  ``P`` is a view of the
    bordered array; both are taken held from ``workspace``.
    """
    S = np.asarray(S, dtype=float)
    K = S.shape[-1]
    F = take(workspace, S.shape[:-2] + (2 * K, K), held=True)  # factored in place
    F[..., :K, :] = S  # the sweep reads only the lower triangle
    F[..., K:, :] = 0.0
    F[..., range(K, 2 * K), range(K)] = 1.0
    ok = np.ones(S.shape[:-2], dtype=bool)
    for j in range(K):
        rows = F[..., j : K + j + 1, :]
        first = np.swapaxes(rows[..., :1, :j], -1, -2)  # (..., j, 1)
        col = rows[..., j] - (rows[..., :j] @ first)[..., 0]
        ok &= col[..., 0] > 0.0
        root = np.sqrt(np.where(ok, col[..., 0], 1.0))
        rows[..., 1:, j] = col[..., 1:] / root[..., None]
        rows[..., 0, j] = root
    P, inv = F[..., :K, :], take(workspace, S.shape, held=True)
    inv[...] = np.swapaxes(F[..., K:, :], -1, -2)
    above = np.triu_indices(K, 1)
    P[..., above[0], above[1]] = 0.0
    P[~ok] = inv[~ok] = np.eye(K)
    return P, inv, ok


def unit_lower_inverse(M) -> np.ndarray:
    """Inverses of unit lower-triangular matrices ``(..., m, m)``.

    Every matrix is inverted through its transpose, a unit
    upper-triangular matrix, by LAPACK's LU solve.  Each column of that
    transpose holds 1 on the diagonal and exact zeros below it, so
    partial pivoting swaps no rows, the lower LU factor is the identity
    and the solve is a plain back substitution: the upper triangle of
    every inverse is exactly 0 and its diagonal exactly 1.  numpy runs
    one solve per matrix, so a matrix gets the same bits in any stack.
    """
    M = np.asarray(M, dtype=float)
    return np.swapaxes(np.linalg.inv(np.swapaxes(M, -1, -2)), -1, -2)


def solve_unit_lower(B_blocks, rhs) -> np.ndarray:
    """Solve ``(I - B) X = rhs`` for a block-Toeplitz, strictly lower ``B``.

    ``B_blocks`` is the ``(L+1, K, K)`` stack of lag blocks: block row t
    of ``B`` holds the strictly lower ``B_blocks[0]`` on its diagonal and
    ``B_blocks[l]`` in block column ``t - l``.  ``rhs`` is a vector or a
    matrix of ``r`` columns with ``(h+1)K`` rows, one block per horizon;
    lag blocks beyond h are unused.  Horizon by horizon, ``x_t`` is
    ``(I - B_0)^{-1}`` applied to ``rhs_t + sum_l B_l x_{t-l}``, one
    product with ``(I - B_0)^{-1} [B_L .. B_1]`` per horizon, so memory
    is O(n r + (L+1) K^2).

    Leading axes of ``B_blocks`` batch independent systems: with blocks
    ``(..., L+1, K, K)``, ``rhs`` is ``(..., n)`` or ``(..., n, r)``
    with the same leading axes, and every system takes the same steps
    whatever the batch.
    """
    blocks = np.asarray(B_blocks, dtype=float)
    b = np.asarray(rhs, dtype=float)
    _check_blocks(blocks, b)
    return _block_solve(blocks, b)


def _check_blocks(blocks, b) -> None:
    """Raise :class:`DimensionMismatchError` unless the float arrays
    ``blocks`` and ``b`` are lag blocks and right-hand sides that
    :func:`solve_unit_lower` takes."""
    K = blocks.shape[-1]
    batch = blocks.shape[:-3]
    if blocks.ndim < 3 or blocks.shape[-2] != K or K == 0:
        raise DimensionMismatchError(
            f"B_blocks must have shape (..., L+1, K, K), got {blocks.shape}"
        )
    nb = len(batch)
    if b.shape[:nb] != batch or b.ndim - nb not in (1, 2):
        raise DimensionMismatchError(
            f"rhs of shape {b.shape} does not match B_blocks {blocks.shape}"
        )
    if b.shape[nb] % K:
        raise DimensionMismatchError(
            f"rhs has {b.shape[nb]} rows, not a multiple of K={K}"
        )
    if np.any(np.triu(blocks[..., 0, :, :]) != 0.0):
        raise DimensionMismatchError("B_0 must be strictly lower-triangular")


def _block_solve(blocks, b, workspace=None) -> np.ndarray:
    """:func:`solve_unit_lower` for float arrays of the shapes it checks,
    unchecked: the kernel of a caller that built ``blocks`` itself.  The
    solution is taken held from ``workspace``."""
    K, nb = blocks.shape[-1], blocks.ndim - 3
    batch = blocks.shape[:-3]
    H = b.shape[nb] // K
    inv = unit_lower_inverse(np.eye(K) - blocks[..., 0, :, :])
    steps = b.reshape(*batch, H, K, -1)
    X = np.matmul(inv[..., None, :, :], steps,
                  out=take(workspace, steps.shape, held=True))
    L = min(blocks.shape[-3], H) - 1
    if L > 0:
        with scope(workspace):
            lag_row = take(workspace, (*batch, K, L, K))
            lag_row[...] = np.swapaxes(blocks[..., L:0:-1, :, :], -3, -2)
            lags = np.matmul(inv, lag_row.reshape(*batch, K, L * K),
                             out=take(workspace, (*batch, K, L * K)))
            flat = X.reshape(*batch, H * K, -1)  # lags: [B_L .. B_1]
            for t in range(1, H):
                lo = max(0, t - L) * K
                X[..., t, :, :] += (lags[..., lo - t * K :]
                                    @ flat[..., lo : t * K, :])
    return X.reshape(b.shape)

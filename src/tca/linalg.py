"""Linear-algebra kernels used throughout the package.

Matrices are plain ``numpy`` arrays of floats.  Construction helpers
validate shape and finiteness; the kernels themselves are pure
functions on immutable inputs and are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import DimensionMismatchError, SingularMatrixError

__all__ = ["Permutation", "as_matrix", "ql_decompose", "solve_unit_lower"]

#: Relative diagonal tolerance below which a QL factor counts as singular.
QL_SINGULAR_RTOL = 1e-12

#: Bytes the working arrays of one systems-form build (its ``(h+1)K x K``
#: shock columns) or of one evaluation (its ``n x (m+1)`` solve columns
#: for m literals) may take; beyond it the build raises ``ValueError``
#: and the evaluation :class:`~tca.errors.TermExplosionError`.
MEMORY_BUDGET = 2 ** 30


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


@dataclass(frozen=True)
class Permutation:
    """A bijection on ``{1..size}`` stored as a 0-based index array.

    ``dest[r]`` is the 0-based original index placed at (0-based)
    position ``r``.  The associated permutation matrix ``T`` satisfies
    ``(T @ y)[r] = y[dest[r]]``.
    """

    dest: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.dest)
        object.__setattr__(self, "dest", idx)
        if sorted(idx) != list(range(len(idx))):
            raise ValueError(f"not a bijection on 0..{len(idx) - 1}: {idx}")

    @property
    def size(self) -> int:
        return len(self.dest)

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(size)))

    def matrix(self) -> np.ndarray:
        T = np.zeros((self.size, self.size))
        T[np.arange(self.size), list(self.dest)] = 1.0
        return T

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Return ``T @ v`` for a vector or the row-permuted matrix."""
        return np.asarray(v)[list(self.dest)]

    def position_of(self, original: int) -> int:
        """0-based position that 0-based original index ends up at."""
        return self.dest.index(original)


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
    """
    blocks = np.asarray(B_blocks, dtype=float)
    b = np.asarray(rhs, dtype=float)
    K = blocks.shape[-1]
    if blocks.ndim != 3 or blocks.shape[1] != K or K == 0:
        raise DimensionMismatchError(
            f"B_blocks must have shape (L+1, K, K), got {blocks.shape}"
        )
    if b.shape[0] % K:
        raise DimensionMismatchError(
            f"rhs has {b.shape[0]} rows, not a multiple of K={K}"
        )
    if np.any(np.triu(blocks[0]) != 0.0):
        raise DimensionMismatchError("B_0 must be strictly lower-triangular")
    H = b.shape[0] // K
    inv = dtrtri(np.eye(K) - blocks[0], lower=1, unitdiag=1)[0]
    X = inv @ b.reshape(H, K, -1)
    L = min(blocks.shape[0], H) - 1
    if L > 0:
        lags = inv @ np.concatenate(blocks[L:0:-1], axis=1)  # [B_L .. B_1]
        flat = X.reshape(H * K, -1)
        for t in range(1, H):
            lo = max(0, t - L) * K
            X[t] += lags[:, lo - t * K :] @ flat[lo : t * K]
    return X.reshape(np.shape(rhs))

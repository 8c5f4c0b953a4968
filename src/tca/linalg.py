"""Dense linear-algebra kernels used throughout the package.

All matrices are plain 2-D ``numpy`` arrays of floats.  Construction
helpers validate shape and finiteness; the kernels themselves are pure
functions on immutable inputs and are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatchError, SingularMatrixError

__all__ = ["Permutation", "as_matrix", "ql_decompose", "solve_unit_lower"]

#: Relative diagonal tolerance below which a QL factor counts as singular.
QL_SINGULAR_RTOL = 1e-12


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


def solve_unit_lower(M, rhs) -> np.ndarray:
    """Solve ``(I - M) x = rhs`` for strictly lower-triangular ``M``.

    Uses forward substitution on the unit lower-triangular system; the
    strictly-lower structure of ``M`` guarantees the system is always
    solvable.  ``rhs`` may be a vector or a matrix of stacked columns.
    """
    M = as_matrix(M, "M", square=True)
    n = M.shape[0]
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != n:
        raise DimensionMismatchError(
            f"rhs has {b.shape[0]} rows, expected {n}"
        )
    if np.any(np.diag(M) != 0.0) or np.any(np.triu(M, 1) != 0.0):
        raise DimensionMismatchError("M must be strictly lower-triangular")
    if n == 0:
        return b.copy()
    return solve_triangular(np.eye(n) - M, b, lower=True, unit_diagonal=True)

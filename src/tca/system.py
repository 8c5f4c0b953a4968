"""The stacked equilibrium representation and its IRF matrices.

A model plus a transmission ordering and horizon ``h`` determine the
systems form ``x = B x + Omega e`` on the ``(h+1)K`` grid, where ``B``
is strictly lower-triangular and ``Omega`` holds the loadings of the
time-0 shocks.  The nonzero entries of ``(B, Omega)`` are the edges of
the transmission DAG.

System indices are 1-based: index ``m = t*K + r`` refers to the variable
at ordered position ``r`` (1..K) and horizon ``t`` (0..h).  This
convention is used by every interface in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatchError,
    InconsistentNormalizationError,
    NotPositiveDefiniteError,
)
from .linalg import Permutation, ql_decompose, solve_unit_lower
from .model import ReducedVar, VarmaModel

__all__ = [
    "TransmissionOrdering",
    "SystemsForm",
    "make_systems_form",
    "irf_total",
    "cholesky_irfs",
    "reconstruct_from_single_shock",
]

#: Soft cap on the stacked system size (h <= 200 at K <= 20); pass
#: ``allow_large=True`` to override.
SYSTEM_SIZE_CAP = 201 * 20


@dataclass(frozen=True)
class TransmissionOrdering:
    """Researcher-chosen ordering of the variables.

    ``labels[r]`` is the variable placed at ordered position ``r + 1``;
    ``perm`` maps ordered positions to original indices.
    """

    perm: Permutation
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.perm.size:
            raise DimensionMismatchError("labels do not match permutation size")
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def K(self) -> int:
        return self.perm.size

    @classmethod
    def from_names(cls, var_names, ordered_names) -> "TransmissionOrdering":
        """Ordering that places ``ordered_names`` first-to-last."""
        names = [str(n) for n in var_names]
        wanted = [str(n) for n in ordered_names]
        if sorted(names) != sorted(wanted):
            raise ValueError(
                f"ordered names {wanted} are not a permutation of {names}"
            )
        dest = tuple(names.index(n) for n in wanted)
        return cls(perm=Permutation(dest), labels=tuple(wanted))

    @classmethod
    def identity(cls, var_names) -> "TransmissionOrdering":
        names = tuple(str(n) for n in var_names)
        return cls(perm=Permutation.identity(len(names)), labels=names)

    def matrix(self) -> np.ndarray:
        return self.perm.matrix()

    def position(self, name: str) -> int:
        """1-based ordered position of a variable name."""
        return self.labels.index(str(name)) + 1


def _check_ordering(ordering: TransmissionOrdering, var_names) -> None:
    if sorted(ordering.labels) != sorted(str(n) for n in var_names):
        raise ValueError("ordering labels do not match the model's variables")
    for r, orig in enumerate(ordering.perm.dest):
        if str(var_names[orig]) != ordering.labels[r]:
            raise ValueError("ordering permutation disagrees with its labels")


@dataclass(frozen=True)
class SystemsForm:
    """The pair ``(B, Omega)`` with index bookkeeping.

    ``omega`` keeps only the columns of the time-0 shocks, one per
    entry of ``shock_labels``: K for a structural model, one for a
    single identified shock.  Every effect of a shock at a later
    horizon is the time-0 effect shifted, so no route needs the rest.
    """

    K: int
    h: int
    B: np.ndarray
    omega: np.ndarray
    ordering: TransmissionOrdering
    shock_labels: tuple

    @property
    def size(self) -> int:
        return (self.h + 1) * self.K

    def sys_index(self, position: int, horizon: int) -> int:
        """1-based system index of ordered position ``position`` at ``horizon``."""
        if not 1 <= position <= self.K:
            raise IndexError(f"position must be in 1..{self.K}")
        if not 0 <= horizon <= self.h:
            raise IndexError(f"horizon must be in 0..{self.h}")
        return horizon * self.K + position

    def var_horizon(self, m: int) -> tuple:
        """Inverse of :meth:`sys_index`: ``m -> (position, horizon)``."""
        if not 1 <= m <= self.size:
            raise IndexError(f"system index must be in 1..{self.size}")
        return (m - 1) % self.K + 1, (m - 1) // self.K

    def label(self, m: int) -> str:
        r, t = self.var_horizon(m)
        return f"{self.ordering.labels[r - 1]}_{t}"

    def shock_column(self, shock: int | None = None) -> np.ndarray:
        """Omega column of the 1-based time-0 shock ``shock``, which may
        be omitted when the system carries a single shock."""
        s = self.omega.shape[1]
        if shock is None:
            if s != 1:
                raise ValueError(f"the system carries {s} shocks; pass shock")
            shock = 1
        if not 1 <= shock <= s:
            raise IndexError(f"shock must be in 1..{s}")
        return self.omega[:, shock - 1].copy()


def _check_size(K: int, h: int, allow_large: bool) -> None:
    if h < 0:
        raise ValueError("horizon must be >= 0")
    if not allow_large and (h + 1) * K > SYSTEM_SIZE_CAP:
        raise ValueError(
            f"system size (h+1)*K = {(h + 1) * K} exceeds the soft cap "
            f"{SYSTEM_SIZE_CAP}; pass allow_large=True to override"
        )


def _stack_blocks(K: int, h: int, diag: np.ndarray, sub) -> np.ndarray:
    """Block lower-triangular matrix with ``diag`` on the block diagonal
    and ``sub[l-1]`` on the l-th sub-block-diagonal."""
    n = (h + 1) * K
    out = np.zeros((n, n))
    for t in range(h + 1):
        out[t * K : (t + 1) * K, t * K : (t + 1) * K] = diag
        for l, block in enumerate(sub, start=1):
            if l > t:
                break
            out[t * K : (t + 1) * K, (t - l) * K : (t - l + 1) * K] = block
    return out


def _triangular_form(source, ordering: TransmissionOrdering, h: int,
                     allow_large: bool):
    """``(B, L, blocks, Q)``: the triangular form of ``source`` under
    ``ordering`` on horizons ``0..h``.

    A structural :class:`VarmaModel` has its column-permuted
    contemporaneous matrix QL-factored, ``A0 T' = Q L``; a
    :class:`ReducedVar` has ``Q = I`` and ``L`` the inverse Cholesky
    factor of its permuted residual covariance, which turns its
    coefficients into the lag matrices ``L A_i``.  With ``D`` the
    inverse of ``diag(L)``, ``B`` has diagonal blocks ``I - D L`` and
    lag-``i`` blocks ``D Q' A_i`` (in permuted coordinates), and
    ``blocks`` are the orthogonalised Omega blocks ``[D, D Psibar_1,
    ...]`` with ``Psibar_j = Q' Psi_j Q``; the structural ``Omega``
    blocks are these times ``Q'``.  Pre-sample terms are dropped: only a
    time-0 shock propagates.
    """
    if not isinstance(source, (VarmaModel, ReducedVar)):
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    K = source.K
    _check_size(K, h, allow_large)
    _check_ordering(ordering, source.var_names)
    dest = list(ordering.perm.dest)
    if isinstance(source, VarmaModel):
        Q, L = ql_decompose(source.A0[:, dest])
        lags = [Ai[:, dest] for Ai in source.A]
        psi = source.Psi
    else:
        try:
            P = np.linalg.cholesky(source.sigma_u[np.ix_(dest, dest)])
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "permuted residual covariance has no Cholesky factor"
            ) from exc
        L = solve_triangular(P, np.eye(K), lower=True)
        Q = np.eye(K)
        lags = [L @ Ai[np.ix_(dest, dest)] for Ai in source.coefs]
        psi = ()
    d = 1.0 / np.diag(L)
    b_diag = -(d[:, None] * L)
    np.fill_diagonal(b_diag, 0.0)
    DQt = d[:, None] * Q.T
    B = _stack_blocks(K, h, b_diag, [DQt @ Ai for Ai in lags[:h]])
    blocks = [np.diag(d)] + [d[:, None] * (Q.T @ Pj @ Q) for Pj in psi[:h]]
    return B, L, blocks, Q


def make_systems_form(model: VarmaModel, ordering: TransmissionOrdering,
                      h: int, allow_large: bool = False) -> SystemsForm:
    """Build ``(B, Omega)`` from a structural model under an ordering.

    The contemporaneous matrix is column-permuted and QL-factored; with
    ``D`` the inverse of the triangular factor's diagonal, the diagonal
    blocks of ``B`` are ``I - D L`` and its lag-``i`` blocks ``D Q' A_i``
    (in permuted coordinates).  The K time-0 shock columns of ``Omega``
    stack ``D Q'`` over the MA blocks ``D Q' Psi_j``.
    """
    K = model.K
    B, _, blocks, Q = _triangular_form(model, ordering, h, allow_large)
    omega = np.zeros((B.shape[0], K))
    omega[: len(blocks) * K] = np.vstack([block @ Q.T for block in blocks])
    return SystemsForm(K=K, h=h, B=B, omega=omega, ordering=ordering,
                       shock_labels=tuple(f"eps[{i}]" for i in range(1, K + 1)))


def irf_total(sf: SystemsForm) -> np.ndarray:
    """Total-effect IRFs ``(I - B)^{-1} Omega`` of the time-0 shocks."""
    return solve_unit_lower(sf.B, sf.omega)


def cholesky_irfs(source, ordering: TransmissionOrdering, h: int,
                  allow_large: bool = False) -> np.ndarray:
    """IRFs to orthogonalised shocks under the given ordering.

    ``source`` may be a structural :class:`VarmaModel` or an estimated
    :class:`ReducedVar`; both yield the same matrix when the reduced
    form derives from the structural model.  The orthogonalisation is a
    computational device tied to the ordering, not an identification
    claim.
    """
    B, _, blocks, _ = _triangular_form(source, ordering, h, allow_large)
    return solve_unit_lower(B, _stack_blocks(source.K, h, blocks[0], blocks[1:]))


def reconstruct_from_single_shock(reduced, ordering: TransmissionOrdering,
                                  phi_col, h: int,
                                  allow_large: bool = False,
                                  shock_label: str = "shock") -> SystemsForm:
    """Rebuild ``B`` and one ``Omega`` column from reduced-form
    quantities plus a single identified impact column.

    ``phi_col`` holds the horizon-0 responses of the K variables (in the
    model's native variable order) to the identified shock.  The result
    is a one-shock :class:`SystemsForm` that suffices to compute every
    transmission effect of that shock, without knowing the other
    structural shocks: its ``Omega`` column is the orthogonalised blocks
    applied to ``L`` times the permuted impact column.
    """
    K = reduced.K
    impact = np.asarray(phi_col, dtype=float).reshape(-1)
    if impact.shape[0] != K:
        raise InconsistentNormalizationError(
            f"impact column has length {impact.shape[0]}, expected K={K}"
        )
    B, L, blocks, _ = _triangular_form(reduced, ordering, h, allow_large)
    q_col = L @ impact[list(ordering.perm.dest)]
    omega = np.zeros((B.shape[0], 1))
    omega[: len(blocks) * K, 0] = np.concatenate([b @ q_col for b in blocks])
    return SystemsForm(K=K, h=h, B=B, omega=omega, ordering=ordering,
                       shock_labels=(shock_label,))

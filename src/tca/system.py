"""The stacked equilibrium representation and its IRF matrices.

A model plus a transmission ordering and horizon ``h`` determine the
systems form ``x = B x + Omega e`` on the ``(h+1)K`` grid, where ``B``
is strictly lower-triangular and ``Omega`` holds the loadings of the
time-0 shocks.  The nonzero entries of ``(B, Omega)`` are the edges of
the transmission DAG.  ``B`` is block-Toeplitz, so it is kept as its
lag blocks and never formed as an ``(h+1)K`` square matrix.

System indices are 1-based: index ``m = t*K + r`` refers to the variable
at ordered position ``r`` (1..K) and horizon ``t`` (0..h).  This
convention is used by every interface in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InconsistentNormalizationError,
    NotPositiveDefiniteError,
)
from .linalg import (MEMORY_BUDGET, as_matrix, cholesky_sweep, ql_decompose,
                     scope, solve_unit_lower, take)
from .model import ReducedVar, VarmaModel

__all__ = [
    "TransmissionOrdering",
    "SystemsForm",
    "make_systems_form",
    "irf_total",
    "cholesky_irfs",
    "reconstruct_from_single_shock",
]

@dataclass(frozen=True)
class TransmissionOrdering:
    """Researcher-chosen ordering of the variables.

    ``labels[r]`` is the variable placed at ordered position ``r + 1``
    and ``dest[r]`` its 0-based original index, a bijection on
    ``0..K-1``.
    """

    dest: tuple
    labels: tuple

    def __post_init__(self):
        dest = tuple(int(i) for i in self.dest)
        if sorted(dest) != list(range(len(dest))):
            raise ValueError(f"not a bijection on 0..{len(dest) - 1}: {dest}")
        if len(self.labels) != len(dest):
            raise DimensionMismatchError("labels do not match permutation size")
        object.__setattr__(self, "dest", dest)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def K(self) -> int:
        return len(self.dest)

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
        return cls(dest=dest, labels=tuple(wanted))

    @classmethod
    def identity(cls, var_names) -> "TransmissionOrdering":
        names = tuple(str(n) for n in var_names)
        return cls(dest=tuple(range(len(names))), labels=names)

    def position(self, name: str) -> int:
        """1-based ordered position of a variable name."""
        name = str(name)
        if name not in self.labels:
            raise ValueError(
                f"unknown variable {name!r}; ordering has {list(self.labels)}"
            )
        return self.labels.index(name) + 1


def _check_grid(ordering: TransmissionOrdering, var_names, h: int) -> None:
    """Reject a negative horizon, ``(h+1)K x K`` shock columns over
    ``MEMORY_BUDGET`` and an ordering that does not match ``var_names``."""
    K = len(var_names)
    if h < 0:
        raise ValueError("horizon must be >= 0")
    if 8 * (h + 1) * K * K > MEMORY_BUDGET:
        raise ValueError(
            f"horizon {h} at K={K} needs {8 * (h + 1) * K * K} bytes of "
            f"shock columns, over the {MEMORY_BUDGET}-byte budget"
        )
    if sorted(ordering.labels) != sorted(str(n) for n in var_names):
        raise ValueError("ordering labels do not match the model's variables")
    for r, orig in enumerate(ordering.dest):
        if str(var_names[orig]) != ordering.labels[r]:
            raise ValueError("ordering permutation disagrees with its labels")


@dataclass(frozen=True)
class SystemsForm:
    """The pair ``(B, Omega)`` with index bookkeeping.

    ``B_blocks`` is the ``(L+1, K, K)`` stack of the blocks of ``B``,
    with ``L = min(lags, h)``: every block row t holds the strictly
    lower ``B_blocks[0]`` on its diagonal and ``B_blocks[l]`` in block
    column ``t - l``.  ``omega`` keeps only the columns of the time-0
    shocks, one per entry of ``shock_labels``: K for a structural model,
    one for a single identified shock.  Every effect of a shock at a
    later horizon is the time-0 effect shifted, so no route needs the
    rest.
    """

    K: int
    h: int
    B_blocks: np.ndarray
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


def _stacked(blocks, h: int) -> np.ndarray:
    """``blocks`` stacked over horizons ``0..len(blocks)-1``, zero up to h."""
    rows = blocks[0].shape[0]
    out = np.zeros(((h + 1) * rows,) + blocks[0].shape[1:])
    out[: len(blocks) * rows] = np.concatenate(blocks)
    return out


def _triangular_form(source, ordering: TransmissionOrdering, h: int):
    """``(B_blocks, blocks, Q, impact_maps)``: the triangular form of
    ``source`` under ``ordering`` on horizons ``0..h``.

    A structural :class:`VarmaModel` has its column-permuted
    contemporaneous matrix QL-factored, ``A0 T' = Q L``; a
    :class:`ReducedVar` has ``Q = I`` and ``L`` the inverse Cholesky
    factor of its permuted residual covariance, which turns its
    coefficients into the lag matrices ``L A_i``.  With ``D`` the
    inverse of ``diag(L)``, ``B_blocks`` stacks the diagonal block
    ``I - D L`` and the lag-``i`` blocks ``D Q' A_i`` for ``i <= h`` (in
    permuted coordinates), and ``blocks`` are the orthogonalised Omega
    blocks ``[D, D Psibar_1, ...]`` with ``Psibar_j = Q' Psi_j Q``; the
    structural ``Omega`` blocks are these times ``Q'``, and those of
    one shock with permuted impact column ``q`` are ``impact_maps``
    times ``q``, the blocks times ``L``.  Pre-sample terms are dropped:
    only a time-0 shock propagates.  The ``(h+1)K x K`` shock columns
    must fit ``MEMORY_BUDGET`` (``ValueError``).
    """
    if not isinstance(source, (VarmaModel, ReducedVar)):
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    K = source.K
    _check_grid(ordering, source.var_names, h)
    dest = list(ordering.dest)
    if isinstance(source, ReducedVar):
        B_blocks, DL, d, ok = _reduced_form(
            source.sigma_u, np.reshape(source.coefs, (source.p, K, K)), dest, h
        )
        if not ok:
            raise NotPositiveDefiniteError(
                "permuted residual covariance has no Cholesky factor"
            )
        return B_blocks, [np.diag(d)], np.eye(K), [DL]
    Q, L = ql_decompose(source.A0[:, dest])
    d = 1.0 / np.diag(L)
    b_diag = -(d[:, None] * L)
    np.fill_diagonal(b_diag, 0.0)
    DQt = d[:, None] * Q.T
    B_blocks = np.stack([b_diag] + [DQt @ A[:, dest] for A in source.A[:h]])
    blocks = [np.diag(d)] + [d[:, None] * (Q.T @ Psi @ Q)
                             for Psi in source.Psi[:h]]
    return B_blocks, blocks, Q, [b @ L for b in blocks]


def _reduced_form(sigma_u, coefs, dest, h: int, workspace=None):
    """Triangular form of a stack of reduced-form VARs, unchecked.

    ``sigma_u`` is ``(..., K, K)`` and ``coefs`` ``(..., p, K, K)``, in
    data order; ``dest`` is the ordering's permutation.  With ``P`` the
    Cholesky factor of a permuted covariance, ``L = P^{-1}`` (both from
    one column sweep, :func:`~tca.linalg.cholesky_sweep`) and ``D =
    diag(P)``, ``D L`` is the unit lower-triangular inverse of ``P
    D^{-1}``; ``B_blocks`` stacks ``I - D L`` and the lag blocks ``D L
    A_i`` for ``i <= h`` (permuted), and the time-0 ``Omega`` block of a
    permuted impact column ``q`` is ``D L q``.  Returns ``(B_blocks, D
    L, diag(P), ok)``, with ``ok`` marking the positive-definite
    covariances; the others are built from the identity.  ``B_blocks``
    is taken held from ``workspace``.
    """
    rows, cols = np.ix_(dest, dest)
    lags = coefs[..., :h, rows, cols]
    K = len(dest)
    B_blocks = take(workspace, lags.shape[:-3] + (lags.shape[-3] + 1, K, K),
                    held=True)
    with scope(workspace, held=True):
        P, inv, ok = cholesky_sweep(sigma_u[..., rows, cols], workspace)
        d = np.diagonal(P, axis1=-2, axis2=-1).copy()
        DL = d[..., :, None] * inv
    DL[..., range(K), range(K)] = 1.0  # d_i (1 / d_i) may round off 1
    B_blocks[..., 0, :, :] = -DL
    B_blocks[..., 0, range(K), range(K)] = 0.0
    np.matmul(DL[..., None, :, :], lags, out=B_blocks[..., 1:, :, :])
    return B_blocks, DL, d, ok


def make_systems_form(model: VarmaModel, ordering: TransmissionOrdering,
                      h: int) -> SystemsForm:
    """Build ``(B, Omega)`` from a structural model under an ordering.

    The contemporaneous matrix is column-permuted and QL-factored; with
    ``D`` the inverse of the triangular factor's diagonal, the diagonal
    blocks of ``B`` are ``I - D L`` and its lag-``i`` blocks ``D Q' A_i``
    (in permuted coordinates).  The K time-0 shock columns of ``Omega``
    stack ``D Q'`` over the MA blocks ``D Q' Psi_j``.
    """
    K = model.K
    B_blocks, blocks, Q, _ = _triangular_form(model, ordering, h)
    return SystemsForm(K=K, h=h, B_blocks=B_blocks,
                       omega=_stacked([block @ Q.T for block in blocks], h),
                       ordering=ordering,
                       shock_labels=tuple(f"eps[{i}]" for i in range(1, K + 1)))


def irf_total(sf: SystemsForm) -> np.ndarray:
    """Total-effect IRFs ``(I - B)^{-1} Omega`` of the time-0 shocks."""
    return solve_unit_lower(sf.B_blocks, sf.omega)


def cholesky_irfs(source, ordering: TransmissionOrdering, h: int) -> np.ndarray:
    """IRFs to orthogonalised shocks under the given ordering.

    Returns the ``(h+1)K x K`` responses on horizons ``0..h`` to the K
    orthogonalised shocks at time 0, the first block column of the
    orthogonalised IRF grid; every later column of that block-Toeplitz
    grid is this one shifted down.  ``source`` may be a structural
    :class:`VarmaModel` or an estimated :class:`ReducedVar`; both yield
    the same matrix when the reduced form derives from the structural
    model.  The orthogonalisation is a computational device tied to the
    ordering, not an identification claim.
    """
    B_blocks, blocks, _, _ = _triangular_form(source, ordering, h)
    return solve_unit_lower(B_blocks, _stacked(blocks, h))


def reconstruct_from_single_shock(reduced, ordering: TransmissionOrdering,
                                  phi_col, h: int,
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
    impact = as_matrix(np.reshape(phi_col, (1, -1)), "phi_col")[0]
    if impact.shape[0] != K:
        raise InconsistentNormalizationError(
            f"impact column has length {impact.shape[0]}, expected K={K}"
        )
    B_blocks, _, _, maps = _triangular_form(reduced, ordering, h)
    q_col = impact[list(ordering.dest)]
    return SystemsForm(K=K, h=h, B_blocks=B_blocks,
                       omega=_stacked([M @ q_col for M in maps], h)[:, None],
                       ordering=ordering, shock_labels=(shock_label,))

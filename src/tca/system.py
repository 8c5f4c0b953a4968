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
from scipy.linalg.lapack import dtrtri

from .errors import (
    DimensionMismatchError,
    InconsistentNormalizationError,
    NotPositiveDefiniteError,
)
from .linalg import MEMORY_BUDGET, ql_decompose, solve_unit_lower
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


def _check_ordering(ordering: TransmissionOrdering, var_names) -> None:
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


def _stacked(blocks, h: int) -> np.ndarray:
    """``blocks`` stacked over horizons ``0..len(blocks)-1``, zero up to h."""
    rows = blocks[0].shape[0]
    out = np.zeros(((h + 1) * rows,) + blocks[0].shape[1:])
    out[: len(blocks) * rows] = np.concatenate(blocks)
    return out


def _triangular_form(source, ordering: TransmissionOrdering, h: int):
    """``(B_blocks, L, blocks, Q)``: the triangular form of ``source``
    under ``ordering`` on horizons ``0..h``.

    A structural :class:`VarmaModel` has its column-permuted
    contemporaneous matrix QL-factored, ``A0 T' = Q L``; a
    :class:`ReducedVar` has ``Q = I`` and ``L`` the inverse Cholesky
    factor of its permuted residual covariance, which turns its
    coefficients into the lag matrices ``L A_i``.  With ``D`` the
    inverse of ``diag(L)``, ``B_blocks`` stacks the diagonal block
    ``I - D L`` and the lag-``i`` blocks ``D Q' A_i`` for ``i <= h`` (in
    permuted coordinates), and ``blocks`` are the orthogonalised Omega
    blocks ``[D, D Psibar_1, ...]`` with ``Psibar_j = Q' Psi_j Q``; the
    structural ``Omega`` blocks are these times ``Q'``.  Pre-sample
    terms are dropped: only a time-0 shock propagates.  The ``(h+1)K x
    K`` shock columns must fit ``MEMORY_BUDGET`` (``ValueError``).
    """
    if not isinstance(source, (VarmaModel, ReducedVar)):
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    K = source.K
    if h < 0:
        raise ValueError("horizon must be >= 0")
    if 8 * (h + 1) * K * K > MEMORY_BUDGET:
        raise ValueError(
            f"horizon {h} at K={K} needs {8 * (h + 1) * K * K} bytes of "
            f"shock columns, over the {MEMORY_BUDGET}-byte budget"
        )
    _check_ordering(ordering, source.var_names)
    dest = list(ordering.dest)
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
        L = dtrtri(P, lower=1)[0]
        Q = np.eye(K)
        lags = [L @ Ai[np.ix_(dest, dest)] for Ai in source.coefs]
        psi = ()
    d = 1.0 / np.diag(L)
    b_diag = -(d[:, None] * L)
    np.fill_diagonal(b_diag, 0.0)
    DQt = d[:, None] * Q.T
    B_blocks = np.stack([b_diag] + [DQt @ Ai for Ai in lags[:h]])
    blocks = [np.diag(d)] + [d[:, None] * (Q.T @ Pj @ Q) for Pj in psi[:h]]
    return B_blocks, L, blocks, Q


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
    B_blocks, _, blocks, Q = _triangular_form(model, ordering, h)
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
    B_blocks, _, blocks, _ = _triangular_form(source, ordering, h)
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
    impact = np.asarray(phi_col, dtype=float).reshape(-1)
    if impact.shape[0] != K:
        raise InconsistentNormalizationError(
            f"impact column has length {impact.shape[0]}, expected K={K}"
        )
    B_blocks, L, blocks, _ = _triangular_form(reduced, ordering, h)
    q_col = L @ impact[list(ordering.dest)]
    return SystemsForm(K=K, h=h, B_blocks=B_blocks,
                       omega=_stacked([b @ q_col for b in blocks], h)[:, None],
                       ordering=ordering, shock_labels=(shock_label,))

"""Path enumeration.

The systems form induces a DAG whose edges run only from lower to
higher system index: an edge ``x_m -> x_n`` exists when ``B[n, m]`` is
nonzero, and ``e_i -> x_m`` when ``Omega[m, i]`` is nonzero.  A channel
is a set of paths; its effect is the shock size times the sum over
paths of the product of edge coefficients.  Enumeration is brute-force
by design: ``tca paths`` lists the paths behind an effect, and the
tests use it as the ground truth the condition evaluator is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    MixedEndpointsError,
    PathExplosionError,
)
from .system import SystemsForm

__all__ = [
    "Path",
    "enumerate_paths",
    "variable_paths",
    "total_path_effect",
]

PATH_CAP = 10_000_000


@dataclass(frozen=True)
class Path:
    """One path through the DAG, with 1-based system indices.

    ``origin_kind`` is ``"shock"`` for paths starting at a structural
    shock (first edge read from ``Omega``) and ``"variable"`` for paths
    between variables (all edges read from ``B``).  ``nodes`` is the
    strictly increasing node sequence ending at the target and
    ``coefficient`` the product of edge coefficients along the way.
    """

    origin_kind: str
    origin: int
    nodes: tuple
    coefficient: float

    def __post_init__(self):
        if self.origin_kind not in ("shock", "variable"):
            raise ValueError(f"bad origin kind {self.origin_kind!r}")
        nodes = tuple(int(n) for n in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        seq = nodes if self.origin_kind == "shock" else (self.origin,) + nodes
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise ValueError(f"nodes must be strictly increasing, got {seq}")

    @property
    def target(self) -> int:
        return self.nodes[-1]

    def describe(self) -> str:
        head = (
            f"eps[{self.origin}]"
            if self.origin_kind == "shock"
            else f"x{self.origin}"
        )
        chain = " -> ".join([head] + [f"x{m}" for m in self.nodes])
        return f"{chain} (coef = {self.coefficient:.17g})"


def _reaches_target(succ, target: int, n: int) -> np.ndarray:
    """Boolean mask (1-based indexing on position m-1) of nodes with a
    path to ``target``, including the target itself."""
    ok = np.zeros(n + 1, dtype=bool)
    ok[target] = True
    # edges only point upward, so a backward sweep settles in one pass
    for m in range(target - 1, 0, -1):
        ok[m] = any(ok[s] for s in succ[m - 1] if s <= target)
    return ok


def _dfs_paths(starts, succ, ok, target, origin_kind, origin, cap):
    """Depth-first enumeration of all increasing paths into ``target``."""
    out = []
    for first, w0 in starts:
        if not ok[first]:
            continue
        stack = [(first, w0, (first,))]
        while stack:
            node, w, trail = stack.pop()
            if node == target:
                out.append(Path(origin_kind, origin, trail, w))
                if len(out) > cap:
                    raise PathExplosionError(
                        f"more than {cap} paths; shrink the instance"
                    )
                continue
            for nxt, edge in succ[node - 1]:
                if nxt <= target and ok[nxt]:
                    stack.append((nxt, w * edge, trail + (nxt,)))
    # stack order is implementation detail; present paths deterministically
    out.sort(key=lambda p: p.nodes)
    return out


def _weighted_successors(B: np.ndarray, zero_tol: float):
    n = B.shape[0]
    succ = []
    for c in range(n):
        rows = np.nonzero(np.abs(B[:, c]) > zero_tol)[0]
        succ.append([(int(r) + 1, B[r, c]) for r in rows])
    return succ


def enumerate_paths(sf: SystemsForm, shock: int, target: int,
                    zero_tol: float = 0.0, cap: int | None = None):
    """All paths from shock ``shock`` to system index ``target``.

    Every edge on a returned path has ``|coefficient| > zero_tol``; the
    default keeps all structural edges.  Exhaustive by construction;
    raises :class:`PathExplosionError` beyond ``cap`` paths.
    """
    n = sf.size
    if not 1 <= target <= n:
        raise DimensionMismatchError(f"target must be in 1..{n}")
    if not 1 <= shock <= sf.omega.shape[1]:
        raise DimensionMismatchError("shock must index a column of Omega")
    if cap is None:
        cap = PATH_CAP
    succ = _weighted_successors(sf.B, zero_tol)
    ok = _reaches_target([[s for s, _ in row] for row in succ], target, n)
    col = sf.omega[:, shock - 1]
    starts = [
        (int(m) + 1, col[m])
        for m in np.nonzero(np.abs(col) > zero_tol)[0]
        if m + 1 <= target
    ]
    return _dfs_paths(starts, succ, ok, target, "shock", shock, cap)


def variable_paths(sf: SystemsForm, source: int, target: int,
                   zero_tol: float = 0.0, cap: int | None = None):
    """All paths from variable ``source`` to variable ``target`` (both
    1-based system indices, ``source < target``), using only ``B`` edges."""
    n = sf.size
    if not (1 <= source < target <= n):
        raise DimensionMismatchError(
            f"need 1 <= source < target <= {n}, got {source}, {target}"
        )
    if cap is None:
        cap = PATH_CAP
    succ = _weighted_successors(sf.B, zero_tol)
    ok = _reaches_target([[s for s, _ in row] for row in succ], target, n)
    starts = [(nxt, w) for nxt, w in succ[source - 1] if nxt <= target]
    return _dfs_paths(starts, succ, ok, target, "variable", source, cap)


def total_path_effect(paths, xi: float = 1.0) -> float:
    """Shock size times the summed path coefficients.

    All paths must share the same origin and target; an empty collection
    has effect 0.
    """
    paths = list(paths)
    if not paths:
        return 0.0
    key = (paths[0].origin_kind, paths[0].origin, paths[0].target)
    for p in paths[1:]:
        if (p.origin_kind, p.origin, p.target) != key:
            raise MixedEndpointsError(
                "paths mix origins or targets; effects are per endpoint pair"
            )
    return xi * float(sum(p.coefficient for p in paths))

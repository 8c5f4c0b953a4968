"""Path enumeration.

The systems form induces a DAG whose edges run only from lower to
higher system index: an edge ``x_m -> x_n`` exists when ``B[n, m]`` is
nonzero, and ``e_i -> x_m`` when ``Omega[m, i]`` is nonzero.  The edges
out of ``x_m`` are read from the lag blocks of ``B``.  A channel
is a set of paths; its effect is the shock size times the sum over
paths of the product of edge coefficients.  Enumeration is brute-force
by design: ``tca paths`` lists the paths behind an effect, and the
tests use it as the ground truth the condition evaluator is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PathExplosionError
from .system import SystemsForm

__all__ = ["Path", "enumerate_paths"]

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


def _successors(sf: SystemsForm, target: int, zero_tol: float):
    """``succ[m]`` for nodes ``1..target``: the edges ``x_m -> x_s`` with
    ``s <= target`` and ``|B[s, m]| > zero_tol`` as ``(s, B[s, m])``."""
    K = sf.K
    out_of = [[] for _ in range(K)]  # per position: (offset, coefficient)
    for l, i, j in zip(*np.nonzero(np.abs(sf.B_blocks) > zero_tol)):
        out_of[j].append((l * K + i + 1, sf.B_blocks[l, i, j]))
    succ = [[]]
    for m in range(1, target + 1):
        base = (m - 1) // K * K
        succ.append([(base + off, w) for off, w in out_of[(m - 1) % K]
                     if base + off <= target])
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
    if not 0.0 <= zero_tol < np.inf:
        raise ValueError(f"zero_tol must be finite and >= 0, got {zero_tol!r}")
    if cap is None:
        cap = PATH_CAP
    succ = _successors(sf, target, zero_tol)
    # edges only point upward, so a backward sweep settles reachability
    ok = np.zeros(target + 1, dtype=bool)
    ok[target] = True
    for m in range(target - 1, 0, -1):
        ok[m] = any(ok[s] for s, _ in succ[m])
    col = sf.omega[:, shock - 1]
    out = []
    for first in np.flatnonzero(np.abs(col[:target]) > zero_tol) + 1:
        if not ok[first]:
            continue
        stack = [(int(first), col[first - 1], (int(first),))]
        while stack:
            node, w, trail = stack.pop()
            if node == target:
                out.append(Path("shock", shock, trail, w))
                if len(out) > cap:
                    raise PathExplosionError(
                        f"more than {cap} paths; shrink the instance"
                    )
                continue
            for nxt, edge in succ[node]:
                if ok[nxt]:
                    stack.append((nxt, w * edge, trail + (nxt,)))
    # stack order is implementation detail; present paths deterministically
    out.sort(key=lambda p: p.nodes)
    return out

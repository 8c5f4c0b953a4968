"""Path enumeration and the assignment-vector oracle.

The systems form induces a DAG whose edges run only from lower to
higher system index: an edge ``x_m -> x_n`` exists when ``B[n, m]`` is
nonzero, and ``e_i -> x_m`` when ``Omega[m, i]`` is nonzero.  A channel
is a set of paths; its effect is the shock size times the sum over
paths of the product of edge coefficients.  Everything here is
brute-force by design: it is the ground truth the fast edge-deletion
route is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    MixedEndpointsError,
    PathExplosionError,
    TargetTooLargeError,
)
from .system import SystemsForm

__all__ = [
    "Path",
    "AssignmentVector",
    "enumerate_paths",
    "variable_paths",
    "total_path_effect",
    "assignment_effect",
    "assignment_index",
    "assignment_for_paths",
]

PATH_CAP = 10_000_000
ASSIGNMENT_TARGET_CAP = 24


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


@dataclass(frozen=True)
class AssignmentVector:
    """Which nested causal chains into the target receive the shock.

    ``entries`` has length ``2**(target-1)``; each entry is 0 (chain
    shut off) or the common shock size ``xi``.
    """

    target: int
    entries: np.ndarray

    def __post_init__(self):
        if self.target < 1:
            raise ValueError("target must be >= 1")
        if self.target > ASSIGNMENT_TARGET_CAP:
            raise TargetTooLargeError(
                f"target {self.target} exceeds the enumeration cap "
                f"{ASSIGNMENT_TARGET_CAP}"
            )
        e = np.asarray(self.entries, dtype=float).reshape(-1)
        if e.shape[0] != 2 ** (self.target - 1):
            raise DimensionMismatchError(
                f"need 2**(target-1) = {2 ** (self.target - 1)} entries, "
                f"got {e.shape[0]}"
            )
        nz = e[e != 0.0]
        if nz.size and not np.all(nz == nz[0]):
            raise ValueError("nonzero entries must all equal one shock size")
        object.__setattr__(self, "entries", e)

    @property
    def xi(self) -> float:
        nz = self.entries[self.entries != 0.0]
        return float(nz[0]) if nz.size else 0.0


def assignment_effect(sf, shock: int, assignment: AssignmentVector) -> float:
    """Causal effect of an assignment vector on its target.

    Expands the nested chains into the target recursively: the direct
    dependence on the shock is the last entry, and the block of entries
    ``2**(k-1)-1 .. 2**k-1`` (0-based, half-open) covers the chains
    running through intermediate node ``k``.  Desk-scale oracle only.
    """
    j = assignment.target
    B = sf.B
    col = sf.omega[:, shock - 1] if hasattr(sf, "omega") else sf.omega_col
    if j > B.shape[0]:
        raise DimensionMismatchError("target outside the system grid")

    def effect(node: int, vec: np.ndarray) -> float:
        acc = col[node - 1] * vec[-1]
        for k in range(1, node):
            if B[node - 1, k - 1] == 0.0:
                continue
            sub = vec[2 ** (k - 1) - 1 : 2 ** k - 1]
            acc += B[node - 1, k - 1] * effect(k, sub)
        return acc

    return float(effect(j, assignment.entries))


def assignment_index(path: Path) -> int:
    """1-based position of a shock path in its target's assignment vector.

    The direct edge into a node occupies the last slot of that node's
    block; a path arriving via intermediate node ``k`` recurses into the
    block offset ``2**(k-1) - 1``.
    """
    if path.origin_kind != "shock":
        raise ValueError("assignment indices are defined for shock paths")

    def index(nodes) -> int:
        if len(nodes) == 1:
            return 2 ** (nodes[0] - 1)
        return 2 ** (nodes[-2] - 1) - 1 + index(nodes[:-1])

    return index(path.nodes)


def assignment_for_paths(target: int, paths, xi: float = 1.0) -> AssignmentVector:
    """Assignment vector activating exactly the given paths into ``target``."""
    entries = np.zeros(2 ** (target - 1))
    for p in paths:
        if p.target != target:
            raise MixedEndpointsError(f"path targets {p.target}, not {target}")
        entries[assignment_index(p) - 1] = xi
    return AssignmentVector(target=target, entries=entries)

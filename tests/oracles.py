"""Brute-force oracles the fast routes are checked against.

:func:`dense_b` forms the dense ``(h+1)K`` square ``B`` of a systems
form from its lag blocks, and :func:`dense_solve` is a dense triangular
solve; the library itself never forms either.
:func:`permutation_matrix` is the matrix ``T`` of an ordering and
:func:`permuted` applies it by indexing.  :func:`variable_paths`
and :func:`total_path_effect` enumerate and sum paths between
variables on the dense ``B``.

Three independent routes to a channel effect:

- :func:`path_filter_effect` enumerates every path and keeps those that
  satisfy the condition;
- :func:`ie_channel` expands the condition into signed conjunction terms
  by inclusion-exclusion on the formula tree and prices each term by
  deleting edges and re-solving.  Its cost is exponential in the number
  of literals, so it only serves small conditions;
- :func:`assignment_effect` evaluates the potential outcome of an
  :class:`AssignmentVector` that switches nested causal chains into the
  target on or off, with ``2**(target-1)`` entries.

:func:`ma_coefficients` is the textbook reduced-form MA recursion, the
reference for identified and local-projection IRFs.

:func:`write_effects_csv`, :func:`verify_effects_csv` and
:func:`read_data_csv` are the CLI's CSV layer as it was before the bulk
rewrite, one cell at a time: the new layer must write the same bytes and
raise the same errors.  They number records by count, so their line
numbers are physical lines only where no record spans lines.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import solve_triangular

from tca import Path, ReducedVar, enumerate_paths
from tca.cli import IDENTITY_RTOL
from tca.condition import (
    FALSE,
    TERM_CAP,
    TRUE,
    And,
    Not,
    Or,
    TransmissionCondition,
    Var,
    satisfied_by,
)
from tca.errors import DimensionMismatchError, TcaError, TermExplosionError


class MixedEndpointsError(TcaError):
    """Paths passed to an aggregate do not share origin and target."""


# ---------------------------------------------------------------------------
# Dense B and paths between variables


def dense_blocks(B_blocks, h: int) -> np.ndarray:
    """The dense ``(h+1)K`` square block-Toeplitz matrix with
    ``B_blocks[l]`` on the l-th block sub-diagonal."""
    L, K = len(B_blocks) - 1, np.shape(B_blocks)[1]
    out = np.zeros(((h + 1) * K, (h + 1) * K))
    for t in range(h + 1):
        for l in range(min(L, t) + 1):
            out[t * K : (t + 1) * K, (t - l) * K : (t - l + 1) * K] = B_blocks[l]
    return out


def dense_b(sf) -> np.ndarray:
    """The dense ``B`` of a systems form."""
    return dense_blocks(sf.B_blocks, sf.h)


def dense_toeplitz(first_block_column, K: int) -> np.ndarray:
    """The full block-Toeplitz, block lower-triangular grid whose first
    block column is ``first_block_column`` (``(h+1)K x K``), such as the
    orthogonalised IRFs of ``cholesky_irfs``."""
    col = np.asarray(first_block_column, dtype=float)
    return dense_blocks(col.reshape(-1, K, K), col.shape[0] // K - 1)


def permutation_matrix(ordering) -> np.ndarray:
    """``T`` with ``(T @ y)[r] = y[ordering.dest[r]]``, which takes
    original coordinates to ordered ones."""
    T = np.zeros((ordering.K, ordering.K))
    T[np.arange(ordering.K), list(ordering.dest)] = 1.0
    return T


def permuted(ordering, v) -> np.ndarray:
    """``T @ v`` for a vector, or the row-permuted matrix."""
    return np.asarray(v)[list(ordering.dest)]


def dense_solve(B, rhs) -> np.ndarray:
    """``(I - B)^{-1} rhs`` for a dense strictly lower-triangular ``B``."""
    B = np.asarray(B, dtype=float)
    return solve_triangular(np.eye(B.shape[0]) - B, rhs, lower=True,
                            unit_diagonal=True)


def variable_paths(sf, source: int, target: int):
    """All paths from variable ``source`` to variable ``target`` (both
    1-based system indices, ``source < target``), using only ``B`` edges."""
    n = sf.size
    if not (1 <= source < target <= n):
        raise DimensionMismatchError(
            f"need 1 <= source < target <= {n}, got {source}, {target}"
        )
    B = dense_b(sf)
    out, stack = [], [(source, 1.0, ())]
    while stack:
        node, w, trail = stack.pop()
        if node == target:
            out.append(Path("variable", source, trail, w))
            continue
        for nxt in np.flatnonzero(B[node:target, node - 1]) + node + 1:
            stack.append((int(nxt), w * B[nxt - 1, node - 1], trail + (int(nxt),)))
    out.sort(key=lambda p: p.nodes)
    return out


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


def path_filter_effect(sf, shock, target, cond, xi=1.0) -> float:
    """Ground truth: enumerate every path, keep those satisfying the
    condition, and sum their coefficient products."""
    paths = enumerate_paths(sf, shock, target)
    kept = [p for p in paths if satisfied_by(cond, p.nodes)]
    return xi * sum(p.coefficient for p in kept)


# ---------------------------------------------------------------------------
# Inclusion-exclusion into signed conjunction terms


@dataclass(frozen=True)
class ConjunctionTerm:
    """``sign * (all of required on the path, none of forbidden)``."""

    sign: int
    required: frozenset
    forbidden: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "required", frozenset(self.required))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if self.required & self.forbidden:
            raise ValueError("required and forbidden literals overlap")

    @property
    def required_sorted(self) -> tuple:
        return tuple(sorted(self.required))

    @property
    def forbidden_sorted(self) -> tuple:
        return tuple(sorted(self.forbidden))


def _nnf(node, negated: bool = False):
    if isinstance(node, Var):
        return Not(node) if negated else node
    if node is TRUE:
        return FALSE if negated else TRUE
    if node is FALSE:
        return TRUE if negated else FALSE
    if isinstance(node, Not):
        return _nnf(node.child, not negated)
    if isinstance(node, (And, Or)):
        cls = type(node)
        if negated:  # De Morgan
            cls = Or if cls is And else And
        return cls([_nnf(part, negated) for part in node.operands])
    raise TypeError(f"not an AST node: {node!r}")


def _combine(a, b, cap):
    out = []
    for s1, r1, f1 in a:
        for s2, r2, f2 in b:
            out.append((s1 * s2, r1 | r2, f1 | f2))
            if len(out) > cap:
                raise TermExplosionError(f"more than {cap} raw terms")
    return out


def _either(a, b, cap):
    """Inclusion-exclusion for ``A or B``: ``A + B - A B``."""
    out = a + b + [(-s, r, f) for s, r, f in _combine(a, b, cap)]
    if len(out) > cap:
        raise TermExplosionError(f"more than {cap} raw terms")
    return out


def _expand_ie(node, cap):
    """Inclusion-exclusion directly on the formula tree."""
    if isinstance(node, Var):
        return [(1, frozenset([node.index]), frozenset())]
    if isinstance(node, Not):  # NNF keeps negation only on atoms
        return [(1, frozenset(), frozenset([node.child.index]))]
    if node is TRUE:
        return [(1, frozenset(), frozenset())]
    if node is FALSE:
        return []
    if isinstance(node, (And, Or)):
        fold = _combine if isinstance(node, And) else _either
        return reduce(lambda a, part: fold(a, _expand_ie(part, cap), cap),
                      node.operands[1:], _expand_ie(node.operands[0], cap))
    raise TypeError(f"not an AST node: {node!r}")


def expand_terms(cond, cap: int = TERM_CAP):
    """Normalise a condition to signed conjunction terms.

    Negations are pushed to the literals first; disjunctions are then
    priced by inclusion-exclusion on the tree.  Terms with a literal
    both required and forbidden are contradictory and dropped;
    duplicate terms are merged by summing signs.
    """
    root = cond.root if isinstance(cond, TransmissionCondition) else cond
    merged = {}
    for s, req, forb in _expand_ie(_nnf(root), cap):
        if req & forb:
            continue
        key = (req, forb)
        merged[key] = merged.get(key, 0) + s
    return [
        ConjunctionTerm(sign=s, required=req, forbidden=forb)
        for (req, forb), s in merged.items()
        if s != 0
    ]


def effect_by_edge_deletion(B, omega_col, term: ConjunctionTerm,
                            xi: float = 1.0) -> np.ndarray:
    """Effects of one conjunction term on every system index at once.

    For each required literal ``k``, edges jumping over ``k`` (from
    below ``k`` into above ``k``) are deleted; for each forbidden ``k``,
    edges into ``k`` are deleted.  One triangular solve then prices all
    surviving paths for every target.  Targets below the largest
    required literal admit no path and are zeroed; a required literal
    equal to the target is trivially satisfied (every path ends there).
    """
    B = np.array(B, dtype=float)
    col = np.array(omega_col, dtype=float).reshape(-1)
    n = B.shape[0]
    if col.shape[0] != n:
        raise DimensionMismatchError("omega_col does not match B")
    for k in term.required_sorted:
        if k < 1 or k > n:
            raise DimensionMismatchError(f"literal {k} outside 1..{n}")
        B[k:, : k - 1] = 0.0
        col[k:] = 0.0
    for k in term.forbidden_sorted:
        if k < 1 or k > n:
            raise DimensionMismatchError(f"literal {k} outside 1..{n}")
        B[k - 1, : k - 1] = 0.0
        col[k - 1] = 0.0
    v = xi * dense_solve(B, col)
    if term.required:
        v[: max(term.required) - 1] = 0.0
    return v


def ie_channel(B, omega_col, cond, xi: float = 1.0) -> np.ndarray:
    """Channel effect on every system index: the signed sum of the
    edge-deletion effects of the inclusion-exclusion terms."""
    channel = np.zeros(np.shape(B)[0])
    for term in expand_terms(cond):
        channel += term.sign * effect_by_edge_deletion(B, omega_col, term, xi)
    return channel


# ---------------------------------------------------------------------------
# Nested-chain potential outcomes

ASSIGNMENT_TARGET_CAP = 24


class TargetTooLargeError(TcaError):
    """The assignment-vector oracle is infeasible for this target index."""


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
    B = dense_b(sf)
    col = sf.omega[:, shock - 1]
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


# ---------------------------------------------------------------------------
# Reduced-form MA coefficients


def ma_coefficients(var: ReducedVar, h: int) -> np.ndarray:
    """Reduced-form moving-average matrices ``Theta_0..Theta_h``.

    ``Theta_t`` maps a reduced-form innovation at time 0 to the response
    of ``y`` at time t, via ``Theta_t = sum_i coefs[i] Theta_{t-i}``.
    """
    K = var.K
    theta = np.zeros((h + 1, K, K))
    theta[0] = np.eye(K)
    for t in range(1, h + 1):
        acc = np.zeros((K, K))
        for i, Ai in enumerate(var.coefs, start=1):
            if i > t:
                break
            acc += Ai @ theta[t - i]
        theta[t] = acc
    return theta


# ---------------------------------------------------------------------------
# The per-cell CSV layer


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def read_data_csv(path: str):
    """Numeric CSV with a header row of names; returns (names, T x K array)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}"
                )
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric value in {row!r}"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return names, np.asarray(rows, dtype=float)


def write_effects_csv(path: str, tables, bands=None) -> None:
    """One row per (variable, horizon); bands refer to the channel."""
    tables = list(tables)
    first = tables[0]
    for t in tables[1:]:
        if t.labels != first.labels or t.total.shape != first.total.shape:
            raise ValueError("effect tables disagree on grid or labels")
        if not np.allclose(t.total, first.total, rtol=1e-12, atol=1e-12):
            raise ValueError("effect tables disagree on the total effect")
    channel_sum = sum(t.channel for t in tables)
    complement = first.total - channel_sum
    gap = np.abs(channel_sum + complement - first.total)
    if not np.all(gap / np.maximum(1.0, np.abs(first.total)) <= IDENTITY_RTOL):
        raise ValueError("decomposition identity violated before write")

    header = ["variable", "horizon", "total"]
    header += (["channel"] if len(tables) == 1 else
               [f"channel_{i + 1}" for i in range(len(tables))])
    header += ["complement"]
    if bands is not None:
        if len(tables) != 1:
            raise ValueError("bands are written for a single condition only")
        header += ["lower", "upper"]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        h1, K = first.total.shape
        for r in range(K):
            for t in range(h1):
                row = [first.labels[r], str(t), _fmt(first.total[t, r])]
                row += [_fmt(tab.channel[t, r]) for tab in tables]
                row += [_fmt(complement[t, r])]
                if bands is not None:
                    row += [
                        _fmt(bands.lower["channel"][t, r]),
                        _fmt(bands.upper["channel"][t, r]),
                    ]
                writer.writerow(row)


def verify_effects_csv(path: str) -> int:
    """Re-check channel(s) + complement = total per row; returns row count."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        try:
            i_total = header.index("total")
            i_comp = header.index("complement")
        except ValueError:
            raise ValueError(f"{path}: not an effects file") from None
        i_channels = [
            i
            for i, name in enumerate(header)
            if name == "channel" or name.startswith("channel_")
        ]
        if not i_channels:
            raise ValueError(f"{path}: no channel columns")
        count = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                total = float(row[i_total])
                acc = sum(float(row[i]) for i in i_channels) + float(row[i_comp])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric value in {row!r}"
                ) from None
            # a NaN or infinite gap fails too
            if not abs(acc - total) / max(1.0, abs(total)) <= IDENTITY_RTOL:
                raise ValueError(
                    f"{path}:{lineno}: decomposition identity violated "
                    f"({acc!r} vs total {total!r})"
                )
            count += 1
    return count

"""The transmission-channel condition language and its evaluator.

Conditions are Boolean formulas over system variables, written as
``name_horizon`` atoms (``ffr_0``), raw indices (``x12``), the
constants ``true``/``false``, and the operators ``!`` > ``&`` > ``|``
with parentheses.  Paths visit system indices in increasing order, so a
condition is decided literal by literal.  A parsed condition is compiled
once into a plan over states (last visited literal, residual formula),
with residuals interned as an ordered BDD; evaluating it takes one
multi-column triangular solve on ``B`` (the shock and a unit column per
literal), the inverse of the small unit-triangular matrix of path sums
between literals, and one scalar step per plan transition.  The same
evaluator prices conditions from IRF matrices alone, after rebuilding
``B`` from them.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (
    DimensionMismatchError,
    HorizonOutOfRangeError,
    ParseError,
    SingularMatrixError,
    TermExplosionError,
    UnknownVariableError,
)
from .linalg import MEMORY_BUDGET, as_matrix, solve_unit_lower
from .system import SystemsForm

__all__ = [
    "Var",
    "Not",
    "And",
    "Or",
    "TRUE",
    "FALSE",
    "TransmissionCondition",
    "EffectTable",
    "parse_condition",
    "transmission_effect",
    "effect_from_irfs",
    "satisfied_by",
    "any_horizon",
]

#: Bound on the evaluator's plan: its BDD nodes and its transitions
#: (which bound its states); beyond it :class:`TermExplosionError`.
TERM_CAP = 1_000_000

#: Deepest nesting of ``(`` and ``!`` the parser accepts; beyond it
#: :class:`ParseError`.  Chains of ``&`` or ``|`` parse into balanced
#: trees and add only their logarithm to the depth.
NESTING_CAP = 100


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    """A system variable, 1-based index ``m = horizon*K + position``."""

    index: int


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


class _Const:
    def __init__(self, value: bool):
        self.value = value

    def __repr__(self):
        return "TRUE" if self.value else "FALSE"


TRUE = _Const(True)
FALSE = _Const(False)


def _join(cls, parts):
    """``parts`` joined by ``cls`` as a pending chain ``(cls, operands)``,
    built into a tree only where it cannot join an enclosing chain of
    the same operator, so that ``x1 | (x2 | x3)`` parses like
    ``x1 | x2 | x3``, the text it prints as, and each tree is built once
    however deep the parentheses; a lone part passes through as it is."""
    if len(parts) == 1:
        return parts[0]
    operands = []
    for part in parts:
        if isinstance(part, tuple) and part[0] is cls:
            operands += part[1]
        else:
            operands.append(_built(part))
    return cls, operands


def _built(node):
    """``node``, with a pending chain built into a balanced tree paired
    left to right, so that depth grows as ``log2(len(operands))``; three
    operands give ``cls(cls(a, b), c)``."""
    if not isinstance(node, tuple):
        return node
    cls, operands = node
    while len(operands) > 1:
        pairs = [cls(a, b) for a, b in zip(operands[::2], operands[1::2])]
        operands = pairs + operands[2 * len(pairs) :]
    return operands[0]


def _to_text(node, parent_prec: int = 0) -> str:
    # precedence: atoms 3, ! 2, & 1, | 0
    if isinstance(node, Var):
        return f"x{node.index}"
    if node is TRUE:
        return "true"
    if node is FALSE:
        return "false"
    if isinstance(node, Not):
        return f"!{_to_text(node.child, 2)}"
    if isinstance(node, And):
        s = f"{_to_text(node.left, 1)} & {_to_text(node.right, 1)}"
        return f"({s})" if parent_prec > 1 else s
    if isinstance(node, Or):
        s = f"{_to_text(node.left, 0)} | {_to_text(node.right, 0)}"
        return f"({s})" if parent_prec > 0 else s
    raise TypeError(f"not an AST node: {node!r}")


@dataclass(frozen=True)
class TransmissionCondition:
    """A parsed condition plus the grid it refers to."""

    root: object
    source: str
    K: int
    h: int
    labels: tuple = ()

    @property
    def size(self) -> int:
        return (self.h + 1) * self.K

    def canonical_text(self) -> str:
        """Raw-index rendering; reparses to an identical AST."""
        return _to_text(self.root)

    def __str__(self) -> str:
        return self.canonical_text()


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"\s*(?:(?P<op>[!&|()])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))")
_RAW_RE = re.compile(r"^x([0-9]+)$")


class _Parser:
    def __init__(self, text: str, labels, K: int, h: int):
        self.text = text
        self.labels = list(labels)
        self.K = K
        self.h = h
        self.pos = 0
        self.depth = 0

    def error(self, message: str, pos: int | None = None, cls=ParseError):
        raise cls(message, self.pos if pos is None else pos)

    def peek(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos :].lstrip()
            if rest:
                self.error(f"unexpected character {rest[0]!r}",
                           pos=len(self.text) - len(rest))
            return None, self.pos
        return m, m.start("op") if m.group("op") else m.start("ident")

    def take(self):
        m, start = self.peek()
        if m is None:
            return None, start
        self.pos = m.end()
        return (m.group("op") or m.group("ident")), start

    def parse(self):
        node = _built(self.parse_or())
        tok, start = self.peek()
        if tok is not None:
            self.error("unexpected trailing input", pos=start)
        return node

    def parse_or(self):
        return self.parse_chain(Or, "|", self.parse_and)

    def parse_and(self):
        return self.parse_chain(And, "&", self.parse_unary)

    def parse_chain(self, cls, op: str, parse_operand):
        operands = [parse_operand()]
        while True:
            m, _ = self.peek()
            if m is None or m.group("op") != op:
                return _join(cls, operands)
            self.pos = m.end()
            operands.append(parse_operand())

    def nested(self, parse, start):
        """Run ``parse`` one nesting level deeper."""
        if self.depth == NESTING_CAP:
            self.error(f"nesting deeper than {NESTING_CAP} levels", pos=start)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse_unary(self):
        m, start = self.peek()
        if m is None:
            self.error("expected an atom, got end of input")
        if m.group("op") == "!":
            self.pos = m.end()
            return Not(_built(self.nested(self.parse_unary, start)))
        return self.parse_atom()

    def parse_atom(self):
        tok, start = self.take()
        if tok is None:
            self.error("expected an atom, got end of input")
        if tok == "(":
            node = self.nested(self.parse_or, start)
            close, cstart = self.take()
            if close != ")":
                self.error("expected ')'", pos=cstart)
            return node
        if tok in ("!", "&", "|", ")"):
            self.error(f"expected an atom, got {tok!r}", pos=start)
        return self.resolve_ident(tok, start)

    def resolve_ident(self, ident: str, start: int):
        if ident == "true":
            return TRUE
        if ident == "false":
            return FALSE
        raw = _RAW_RE.match(ident)
        if raw:
            m = int(raw.group(1))
            if not 1 <= m <= (self.h + 1) * self.K:
                self.error(
                    f"system index {m} outside 1..{(self.h + 1) * self.K}",
                    pos=start,
                    cls=HorizonOutOfRangeError,
                )
            return Var(m)
        name, sep, suffix = ident.rpartition("_")
        if not sep or not suffix.isdigit():
            self.error(
                f"atom {ident!r} is neither name_horizon nor x<index>",
                pos=start,
            )
        if name not in self.labels:
            self.error(
                f"unknown variable {name!r}; ordering has {self.labels}",
                pos=start,
                cls=UnknownVariableError,
            )
        t = int(suffix)
        if t > self.h:
            self.error(
                f"horizon {t} outside 0..{self.h}",
                pos=start,
                cls=HorizonOutOfRangeError,
            )
        return Var(t * self.K + self.labels.index(name) + 1)


def parse_condition(text: str, var_names, K: int, h: int) -> TransmissionCondition:
    """Parse condition text against an ordering.

    ``var_names`` are the post-ordering labels; the atom ``name_t``
    resolves to system index ``t*K + position``.  Raw ``x<m>`` atoms are
    accepted for scripting.  Conditions can only reference variables;
    there is no syntax for shocks.
    """
    labels = tuple(str(n) for n in var_names)
    if len(labels) != K:
        raise DimensionMismatchError(f"expected {K} labels, got {len(labels)}")
    root = _Parser(text, labels, K, h).parse()
    return TransmissionCondition(root=root, source=text, K=K, h=h, labels=labels)


# ---------------------------------------------------------------------------
# Evaluation on paths (used by the brute-force oracles)


def satisfied_by(cond, nodes) -> bool:
    """Whether a path visiting exactly ``nodes`` satisfies the condition.

    ``nodes`` are the path's variable nodes including its endpoint, so a
    condition on the endpoint itself is trivially true.
    """
    node_set = frozenset(int(n) for n in nodes)
    root = cond.root if isinstance(cond, TransmissionCondition) else cond

    def ev(n):
        if isinstance(n, Var):
            return n.index in node_set
        if n is TRUE:
            return True
        if n is FALSE:
            return False
        if isinstance(n, Not):
            return not ev(n.child)
        if isinstance(n, And):
            return ev(n.left) and ev(n.right)
        if isinstance(n, Or):
            return ev(n.left) or ev(n.right)
        raise TypeError(f"not an AST node: {n!r}")

    return ev(root)


def any_horizon(name: str, horizons) -> str:
    """Convenience: ``name_t`` OR-ed over the given horizons."""
    hs = list(horizons)
    if not hs:
        raise ValueError("need at least one horizon")
    return " | ".join(f"{name}_{t}" for t in hs)


@dataclass(frozen=True)
class EffectTable:
    """Total / channel / complement effects per (variable, horizon).

    Arrays are shaped ``(h+1, K)`` with columns in ordered-variable
    order; ``complement`` is defined as ``total - channel``, so the
    decomposition identity holds by construction and is additionally
    re-checked by :meth:`max_identity_gap`.
    """

    shock_label: str
    condition: str
    labels: tuple
    xi: float
    total: np.ndarray
    channel: np.ndarray
    complement: np.ndarray

    @property
    def K(self) -> int:
        return len(self.labels)

    @property
    def h(self) -> int:
        return self.total.shape[0] - 1

    def max_identity_gap(self) -> float:
        """Largest relative gap of channel + complement against total."""
        gap = np.abs(self.channel + self.complement - self.total)
        scale = np.maximum(1.0, np.abs(self.total))
        return float(np.max(gap / scale)) if gap.size else 0.0

    def cell(self, kind: str, position: int, horizon: int) -> float:
        """1-based ordered position, horizon in 0..h."""
        if not 1 <= position <= self.K:
            raise IndexError(f"position must be in 1..{self.K}")
        if not 0 <= horizon <= self.h:
            raise IndexError(f"horizon must be in 0..{self.h}")
        return float(getattr(self, kind)[horizon, position - 1])


# ---------------------------------------------------------------------------
# Evaluation
#
# Column 0 of the masked solve prices the literal-free stretches of paths
# from the shock, column 1 + k those from the literal of rank k; a state's
# column is that of its last visited literal.

_LEAF = sys.maxsize  # variable of the two terminal nodes, after every index


class _Bdd:
    """Reduced ordered BDD over system indices, ascending.  Node ids are
    ints with 0 and 1 the terminals; interning gives equal residual
    formulas one id."""

    def __init__(self, cap: int):
        self.nodes = [(_LEAF, 0, 0), (_LEAF, 1, 1)]  # (variable, low, high)
        self.ids = {}
        self.memo = {}
        self.cap = cap

    def node(self, v: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (v, low, high)
        if key not in self.ids:
            if len(self.nodes) > self.cap:
                raise TermExplosionError(f"more than {self.cap} evaluator states")
            self.ids[key] = len(self.nodes)
            self.nodes.append(key)
        return self.ids[key]

    def apply(self, op: str, u: int, v: int) -> int:
        """``u & v`` or ``u | v``."""
        absorbing = int(op == "|")
        if absorbing in (u, v):
            return absorbing
        if u == v or v == 1 - absorbing:
            return u
        if u == 1 - absorbing:
            return v
        key = (op, u, v)
        if key not in self.memo:
            (x, u0, u1), (y, v0, v1) = self.nodes[u], self.nodes[v]
            top = min(x, y)
            if x > top:
                u0 = u1 = u
            if y > top:
                v0 = v1 = v
            self.memo[key] = self.node(top, self.apply(op, u0, v0),
                                       self.apply(op, u1, v1))
        return self.memo[key]

    def build(self, node, negated: bool = False) -> int:
        """BDD of ``node``, or of ``!node``; negations are pushed down to
        the literals (De Morgan), so ``apply`` needs no negation."""
        while isinstance(node, Not):
            node, negated = node.child, not negated
        if isinstance(node, Var):
            return self.node(node.index, int(negated), int(not negated))
        if isinstance(node, _Const):
            return int(node.value != negated)
        if not isinstance(node, (And, Or)):
            raise TypeError(f"not an AST node: {node!r}")
        operands, stack = [], [node]
        while stack:
            n = stack.pop()
            if type(n) is type(node):
                stack += (n.right, n.left)
            else:
                operands.append(self.build(n, negated))
        op = "|" if isinstance(node, Or) != negated else "&"
        # fold from the highest top variable down, so that a chain of
        # literals (any_horizon) costs O(1) per operand in any order
        operands.sort(key=lambda u: self.nodes[u][0])
        acc = operands.pop()
        while operands:
            acc = self.apply(op, operands.pop(), acc)
        return acc


@lru_cache(maxsize=512)
def _plan(root, cap: int):
    """``(literals, steps, column, accept)`` of the forward pass.

    State 0 is the start.  ``steps`` lists ``(source, target, k, c)`` in
    topological order, where the target's last visited literal has rank
    ``k`` and ``c`` is the source's column; ``accept`` marks the states
    whose residual holds if no further literal is visited.
    """
    bdd = _Bdd(cap)
    top = bdd.build(root)
    literals = sorted({v for v, _, _ in bdd.nodes[2:]})
    # per state: its residual if no further literal is visited; every
    # BDD variable is a literal, so each literal looks one node deep
    column, cursor, steps = [0], [top], []
    for k, lit in enumerate(literals):
        arrivals = {}
        for s in range(len(cursor)):
            r = cursor[s]
            v, low, high = bdd.nodes[r]
            if v == lit:
                r, cursor[s] = high, low
            if r:
                target = arrivals.setdefault(r, len(cursor) + len(arrivals))
                steps.append((s, target, k, column[s]))
        if len(steps) > cap:
            raise TermExplosionError(f"more than {cap} evaluator transitions")
        cursor += arrivals
        column += [k + 1] * len(arrivals)
    return (np.array(literals, dtype=np.intp) - 1, tuple(steps),
            np.array(column), np.array(cursor) == 1)


def _effects(B_blocks, col, root):
    """Total and channel effects of the shock column ``col`` on every
    system index, for ``B`` given by its lag blocks."""
    try:  # hashing the root for the cache and building it both recurse
        lits, steps, column, accept = _plan(root, TERM_CAP)
    except RecursionError:
        raise TermExplosionError(
            "condition too deeply nested for the evaluator plan"
        ) from None
    n, m = col.shape[0], lits.size
    if m and lits[-1] >= n:
        raise DimensionMismatchError(f"literal x{lits[-1] + 1} outside 1..{n}")
    if 8 * n * (m + 1) > MEMORY_BUDGET:
        raise TermExplosionError(
            f"{m} literals on {n} system indices need {8 * n * (m + 1)} "
            f"bytes of solve columns, over the {MEMORY_BUDGET}-byte budget"
        )
    # every path from the shock and from each literal
    rhs = np.zeros((n, m + 1))
    rhs[:, 0] = col
    rhs[lits, np.arange(1, m + 1)] = 1.0
    Z = solve_unit_lower(B_blocks, rhs)
    total, between = Z[:, 0], Z[lits, 1:]
    # between is unit lower-triangular, and a path that visits literals
    # splits at its first one; so its inverse gives g[k][0] (the shock
    # into literal k) and g[k][1 + a] (literal a into k), each path
    # visiting no other literal
    inv = dtrtri(between, lower=1, unitdiag=1)[0] if m else between
    g = np.column_stack([inv @ total[lits], np.eye(m) - inv]).tolist()

    amp = [1.0] + [0.0] * (len(column) - 1)
    for s, target, k, c in steps:
        amp[target] += amp[s] * g[k][c]
    w = np.bincount(column, weights=np.where(accept, amp, 0.0),
                    minlength=m + 1)
    # w[0] weighs the paths that visit no literal, w[1 + k] those whose
    # last literal is k; the paths from k that visit no further literal
    # are the columns Z[:, 1:] @ inv
    channel = w[0] * total + Z[:, 1:] @ (inv @ (w[1:] - w[0] * total[lits]))
    channel[lits] = w[1:]
    return total, channel


def _table(cond, labels, shock_label, xi, total, channel) -> EffectTable:
    if not np.isfinite(xi):
        raise ValueError(f"shock size xi must be finite, got {xi!r}")
    shape = (cond.h + 1, cond.K)
    return EffectTable(
        shock_label=shock_label,
        condition=cond.source,
        labels=labels,
        xi=xi,
        total=(xi * total).reshape(shape),
        channel=(xi * channel).reshape(shape),
        complement=(xi * (total - channel)).reshape(shape),
    )


def transmission_effect(system: SystemsForm, cond, shock: int | None = None,
                        xi: float = 1.0) -> EffectTable:
    """Decompose the total effect of one shock along a condition.

    ``shock`` is the 1-based time-0 shock of ``system``; it may be
    omitted for a one-shock system from
    :func:`~tca.system.reconstruct_from_single_shock`.  ``cond`` may be
    text, parsed against the system's ordering.  The channel sums the
    effects of the paths whose set of visited literals satisfies the
    condition; the complement is the remainder of the total.  Raises
    :class:`TermExplosionError` when the condition's evaluator plan
    exceeds ``TERM_CAP``.
    """
    col = system.shock_column(shock)
    labels = system.ordering.labels
    if isinstance(cond, str):
        cond = parse_condition(cond, labels, system.K, system.h)
    total, channel = _effects(system.B_blocks, col, cond.root)
    return _table(cond, labels, system.shock_labels[(shock or 1) - 1], xi,
                  total, channel)


def effect_from_irfs(phi_col, phi_tilde, cond, xi: float = 1.0,
                     shock_label: str = "shock") -> EffectTable:
    """Transmission effects computed from IRFs alone.

    ``phi_col`` is the identified shock's structural IRF column on the
    full grid and ``phi_tilde`` the ``(h+1)K x K`` orthogonalised IRFs
    under the same ordering, as :func:`~tca.system.cholesky_irfs`
    returns them: the responses on every horizon to the K orthogonalised
    shocks at time 0.  The full orthogonalised grid is block-Toeplitz,
    so every later column is this block column shifted.  A matrix scaled
    to a unit impact diagonal works equally, since only ratios enter.
    This is the route available when IRFs come from local projections
    and no coefficient matrices exist.

    The ratio ``phi_tilde[s, r] / phi_tilde[r, r]`` prices the unit
    effect of variable r on variable s only when orthogonalised
    innovations enter the system contemporaneously, as they do for VAR
    and local-projection grids; moving-average terms let innovations
    skip periods and break that reading, so use
    :func:`transmission_effect` for models with MA components.

    With ``R`` the grid divided by its impact diagonal, the IRFs
    determine ``I - B = R^{-1}``: one block-Toeplitz solve on ``R``
    gives the first block column of ``R^{-1}``, hence the ``h+1`` blocks
    of ``B``, together with the shock column ``(I - B) phi_col``, which
    the evaluator of :func:`transmission_effect` then prices.  The
    impact block of ``phi_tilde`` must be lower-triangular with a
    nonzero diagonal.
    """
    if not isinstance(cond, TransmissionCondition):
        raise TypeError("cond must be a parsed TransmissionCondition")
    phi_col = np.asarray(phi_col, dtype=float).reshape(-1)
    phi_tilde = as_matrix(phi_tilde, "phi_tilde")
    n, K = cond.size, cond.K
    if phi_col.shape[0] != n or phi_tilde.shape != (n, K):
        raise DimensionMismatchError(
            f"IRF inputs do not match the condition grid of size {n} x {K}"
        )
    impact = phi_tilde[:K]
    if np.any(np.triu(impact, 1) != 0.0):
        raise DimensionMismatchError(
            "the impact block of phi_tilde must be lower-triangular"
        )
    diag = np.diag(impact)
    if np.any(diag == 0.0):
        raise SingularMatrixError("phi_tilde has a zero on its impact diagonal")
    eye_minus_r = -(phi_tilde / diag).reshape(cond.h + 1, K, K)
    eye_minus_r[0] += np.eye(K)
    Z = solve_unit_lower(eye_minus_r, np.column_stack([np.eye(n, K), phi_col]))
    B_blocks = -Z[:, :K].reshape(cond.h + 1, K, K)
    B_blocks[0] = np.tril(B_blocks[0], -1)
    _, channel = _effects(B_blocks, Z[:, K], cond.root)
    labels = cond.labels or tuple(f"x{i + 1}" for i in range(cond.K))
    return _table(cond, labels, shock_label, xi, phi_col, channel)

"""The transmission-channel condition language and its evaluator.

Conditions are Boolean formulas over system variables, written as
``name_horizon`` atoms (``ffr_0``), raw indices (``x12``), the
constants ``true``/``false``, and the operators ``!`` > ``&`` > ``|``
with parentheses.  A chain of one operator parses into one n-ary
``And`` or ``Or`` node, so every tree prints to text that reparses to
an equal tree.  Paths visit system indices in increasing order, so a
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

from .errors import (
    DimensionMismatchError,
    HorizonOutOfRangeError,
    ParseError,
    SingularMatrixError,
    TermExplosionError,
    UnknownVariableError,
)
from .linalg import (MEMORY_BUDGET, _block_solve, _check_blocks, as_matrix,
                     scope, take,
                     solve_unit_lower, unit_lower_inverse)
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
#: :class:`ParseError`.  A chain of ``&`` or ``|`` parses into one
#: n-ary node and adds nothing to the depth.
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
class _Chain:
    """Two or more operands joined by one operator.  An operand of the
    same operator is spliced in when the node is built, so chains stay
    flat and every tree prints to text that reparses to an equal tree."""

    operands: tuple

    def __post_init__(self):
        operands = []
        for part in self.operands:
            if type(part) is type(self):
                operands += part.operands
            else:
                operands.append(part)
        if len(operands) < 2:
            raise ValueError(f"{type(self).__name__} needs two or more operands")
        object.__setattr__(self, "operands", tuple(operands))


class And(_Chain):
    symbol = "&"


class Or(_Chain):
    symbol = "|"


class _Const:
    def __init__(self, value: bool):
        self.value = value

    def __repr__(self):
        return "TRUE" if self.value else "FALSE"


TRUE = _Const(True)
FALSE = _Const(False)


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
    if isinstance(node, _Chain):
        prec = int(isinstance(node, And))
        s = f" {node.symbol} ".join(_to_text(part, prec) for part in node.operands)
        return f"({s})" if parent_prec > prec else s
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

_TOKEN_RE = re.compile(r"\s*([!&|()]|[A-Za-z_][A-Za-z0-9_]*)")
_RAW_RE = re.compile(r"^x([0-9]+)$")


class _Parser:
    def __init__(self, text: str, labels, K: int, h: int):
        self.labels = list(labels)
        self.K = K
        self.h = h
        self.depth = 0
        # one scan into (token, start) pairs, closed by the token None at
        # the end of the last token or at an unexpected character, which
        # is reported only when the parser reaches it
        self.tokens, end = [], 0
        while m := _TOKEN_RE.match(text, end):
            self.tokens.append((m.group(1), m.start(1)))
            end = m.end()
        rest = text[end:].lstrip()
        self.unexpected = rest[:1]
        self.tokens.append((None, len(text) - len(rest) if rest else end))
        self.i = 0

    def take(self, wanted: str | None = None):
        """The next ``(token, start)``, consumed; ``None`` instead if a
        token is ``wanted`` and the next one is another."""
        tok, start = self.tokens[self.i]
        if tok is None and self.unexpected:
            raise ParseError(f"unexpected character {self.unexpected!r}", start)
        if wanted is not None and tok != wanted:
            return None
        self.i += 1
        return tok, start

    def parse(self):
        node = self.parse_or()
        tok, start = self.take()
        if tok is not None:
            raise ParseError("unexpected trailing input", start)
        return node

    def parse_or(self):
        return self.parse_chain(Or, "|", self.parse_and)

    def parse_and(self):
        return self.parse_chain(And, "&", self.parse_unary)

    def parse_chain(self, cls, op: str, parse_operand):
        operands = [parse_operand()]
        while self.take(op):
            operands.append(parse_operand())
        return cls(operands) if len(operands) > 1 else operands[0]

    def nested(self, parse, start):
        """Run ``parse`` one nesting level deeper."""
        if self.depth == NESTING_CAP:
            raise ParseError(f"nesting deeper than {NESTING_CAP} levels", start)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse_unary(self):
        bang = self.take("!")
        if bang:
            return Not(self.nested(self.parse_unary, bang[1]))
        return self.parse_atom()

    def parse_atom(self):
        tok, start = self.take()
        if tok is None:
            raise ParseError("expected an atom, got end of input", start)
        if tok == "(":
            node = self.nested(self.parse_or, start)
            close, cstart = self.take()
            if close != ")":
                raise ParseError("expected ')'", cstart)
            return node
        if tok in ("!", "&", "|", ")"):
            raise ParseError(f"expected an atom, got {tok!r}", start)
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
                raise HorizonOutOfRangeError(
                    f"system index {m} outside 1..{(self.h + 1) * self.K}", start
                )
            return Var(m)
        name, sep, suffix = ident.rpartition("_")
        if not sep or not suffix.isdigit():
            raise ParseError(
                f"atom {ident!r} is neither name_horizon nor x<index>", start
            )
        if name not in self.labels:
            raise UnknownVariableError(
                f"unknown variable {name!r}; ordering has {self.labels}", start
            )
        t = int(suffix)
        if t > self.h:
            raise HorizonOutOfRangeError(f"horizon {t} outside 0..{self.h}", start)
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
            return all(map(ev, n.operands))
        if isinstance(n, Or):
            return any(map(ev, n.operands))
        raise TypeError(f"not an AST node: {n!r}")

    return ev(root)


def any_horizon(name: str, horizons) -> str:
    """Convenience: ``name_t`` OR-ed over the given horizons."""
    hs = list(horizons)
    if not hs:
        raise ValueError("need at least one horizon")
    return " | ".join(f"{name}_{t}" for t in hs)


def identity_gap(parts, total):
    """``(acc, gap)`` of the decomposition identity: ``acc`` is the
    left-to-right sum ``((0.0 + parts[0]) + parts[1]) + ...`` and ``gap``
    is ``|acc - total| / max(1, |total|)``, elementwise.  Test it as
    ``gap <= tol``, so that a NaN gap fails."""
    with np.errstate(invalid="ignore", over="ignore"):
        acc = sum(parts, np.zeros(np.shape(total)))
        return acc, np.abs(acc - total) / np.maximum(1.0, np.abs(total))


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
        _, gap = identity_gap([self.channel, self.complement], self.total)
        return float(np.max(gap)) if gap.size else 0.0

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
        """``u & v`` or ``u | v``, low branch first; the pending pairs
        are an explicit stack, so only the cap bounds the BDD's depth."""
        absorbing = int(op == "|")
        done, todo = [], [(u, v, None)]
        while todo:
            u, v, top = todo.pop()
            if top is not None:  # both branches of (u, v) are done
                high, low = done.pop(), done.pop()
                self.memo[op, u, v] = r = self.node(top, low, high)
                done.append(r)
            elif absorbing in (u, v):
                done.append(absorbing)
            elif u == v or v == 1 - absorbing:
                done.append(u)
            elif u == 1 - absorbing:
                done.append(v)
            elif (op, u, v) in self.memo:
                done.append(self.memo[op, u, v])
            else:
                (x, u0, u1), (y, v0, v1) = self.nodes[u], self.nodes[v]
                top = min(x, y)
                if x > top:
                    u0 = u1 = u
                if y > top:
                    v0 = v1 = v
                todo += ((u, v, top), (u1, v1, None), (u0, v0, None))
        return done[0]

    def build(self, node, negated: bool = False) -> int:
        """BDD of ``node``, or of ``!node``; negations are pushed down to
        the literals (De Morgan), so ``apply`` needs no negation."""
        while isinstance(node, Not):
            node, negated = node.child, not negated
        if isinstance(node, Var):
            return self.node(node.index, int(negated), int(not negated))
        if isinstance(node, _Const):
            return int(node.value != negated)
        if not isinstance(node, _Chain):
            raise TypeError(f"not an AST node: {node!r}")
        operands = [self.build(part, negated) for part in node.operands]
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


def _effects(B_blocks, col, root, workspace=None):
    """Total and channel effects of the shock column ``col`` on every
    system index, for ``B`` given by its lag blocks.

    Leading axes batch systems: ``B_blocks`` is ``(..., L+1, K, K)`` and
    ``col`` ``(..., n)``, and so are both results.  Every system takes
    the same plan: the solve, the inverse, ``g`` and the sums of the
    accepting states run over the batch, the plan's steps once per
    system.  The blocks are not checked here:
    they must be as :func:`~tca.linalg.solve_unit_lower` takes them,
    which :func:`transmission_effect` checks once per system.  Both
    results are taken held from ``workspace``, the total as part of the
    solve.
    """
    try:  # hashing the root for the cache and building it both recurse
        lits, steps, column, accept = _plan(root, TERM_CAP)
    except RecursionError:
        raise TermExplosionError(
            "condition too deeply nested for the evaluator plan"
        ) from None
    n, m = col.shape[-1], lits.size
    if m and lits[-1] >= n:
        raise DimensionMismatchError(f"literal x{lits[-1] + 1} outside 1..{n}")
    if 8 * col.size * (m + 1) > MEMORY_BUDGET:
        raise TermExplosionError(
            f"{m} literals on {n} system indices need {8 * col.size * (m + 1)} "
            f"bytes of solve columns, over the {MEMORY_BUDGET}-byte budget"
        )
    # every path from the shock and from each literal
    with scope(workspace):
        rhs = take(workspace, col.shape + (m + 1,))
        rhs.fill(0.0)
        rhs[..., 0] = col
        rhs[..., lits, np.arange(1, m + 1)] = 1.0
        Z = _block_solve(B_blocks, rhs, workspace)
    total, paths = Z[..., 0], Z[..., 1:]
    R = int(np.prod(col.shape[:-1]))
    with scope(workspace):
        # the solve's rows at the literals, taken from the contiguous Z,
        # which np.take does not copy
        at = np.take(Z, lits, axis=-2, mode="clip",
                     out=take(workspace, col.shape[:-1] + (m, m + 1)))
        at_lits = at[..., 0].copy()
        # between, the paths' rows at the literals, is unit
        # lower-triangular, and a path that visits literals splits at its
        # first one; so its inverse gives g[k][0] (the shock into literal
        # k) and g[k][1 + a] (literal a into k), each path visiting no
        # other literal
        inv = unit_lower_inverse(at[..., 1:])
        g = take(workspace, col.shape[:-1] + (m, m + 1))
        np.matmul(inv, at_lits[..., None], out=g[..., :1])
        np.subtract(np.eye(m), inv, out=g[..., 1:])

        flat_g = g.reshape(R, m, m + 1)
        amp = np.zeros((R, len(column)))
        amp[:, 0] = 1.0
        if steps:
            for r in range(R):
                g_r = flat_g[r].tolist()  # one system's floats at a time
                a = amp[r].tolist()
                for s, target, k, c in steps:
                    a[target] += a[s] * g_r[k][c]
                amp[r] = a
    # each system's accepting states, summed in state order from 0 as
    # one bincount over the batch; a sum never holds -0.0, so leaving
    # out the other states' zeros changes no bit
    where = (m + 1) * np.arange(R)[:, None] + column[accept]
    w = np.bincount(where.reshape(-1), weights=amp[:, accept].reshape(-1),
                    minlength=R * (m + 1)).reshape(col.shape[:-1] + (m + 1,))
    # w[0] weighs the paths that visit no literal, w[1 + k] those whose
    # last literal is k; the paths from k that visit no further literal
    # are the columns paths @ inv
    rest = w[..., 1:] - w[..., :1] * at_lits
    channel = np.multiply(w[..., :1], total,
                          out=take(workspace, total.shape, held=True))
    with scope(workspace):
        channel += np.matmul(paths, inv @ rest[..., None],
                             out=take(workspace, total.shape + (1,)))[..., 0]
    channel[..., lits] = w[..., 1:]
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
    # the one check of the blocks; the evaluator's solves run unchecked
    _check_blocks(np.asarray(system.B_blocks, dtype=float), col)
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
    phi_col = as_matrix(np.reshape(phi_col, (1, -1)), "phi_col")[0]
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

"""References the benchmark checks against, built without calling tca.

Everything here uses numpy alone: a stable-VAR generator, a data
simulator, a formula generator with its own evaluator and text printer,
the structural MA recursion, and an OLS plus Cholesky reading of the
identified shock's total response.  The benchmark never writes these
references; the golden files under ``golden/`` were produced once from
the parent commit of the change that added the benchmark.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Model generators


def stable_var_coefs(rng, K, p, radius):
    """AR matrices whose companion spectral radius is exactly ``radius``."""
    A = [rng.normal(scale=0.4, size=(K, K)) for _ in range(p)]
    comp = np.zeros((K * p, K * p))
    comp[:K] = np.hstack(A)
    if p > 1:
        comp[K:, :-K] = np.eye(K * (p - 1))
    c = np.max(np.abs(np.linalg.eigvals(comp))) / radius
    return [Ai / c ** (i + 1) for i, Ai in enumerate(A)]


def well_conditioned(rng, K):
    """A random K x K matrix with singular values in [0.5, 2]."""
    U, _, Vt = np.linalg.svd(rng.normal(size=(K, K)))
    return U @ np.diag(rng.uniform(0.5, 2.0, size=K)) @ Vt


def structural_var(rng, K, p, radius):
    """``(A0, [A_1..A_p])`` whose reduced form has the given companion radius."""
    A0 = well_conditioned(rng, K)
    reduced = stable_var_coefs(rng, K, p, radius)
    return A0, [A0 @ Ai for Ai in reduced]


def simulate_var(coefs, innovations, initial):
    """``y_t = sum_i A_i y_{t-i} + u_t`` with the first ``p`` rows given."""
    p = len(coefs)
    n, K = innovations.shape
    out = np.empty((p + n, K))
    out[:p] = initial
    for t in range(p, p + n):
        y = innovations[t - p].copy()
        for i, Ai in enumerate(coefs, start=1):
            y = y + Ai @ out[t - i]
        out[t] = y
    return out


# ---------------------------------------------------------------------------
# Impulse responses


def structural_ma(A0, A, Psi, h):
    """``Theta_0..Theta_h`` of ``A0 y_t = sum A_i y_{t-i} + sum Psi_j e_{t-j} + e_t``.

    ``Theta_t = A0^{-1} (sum_i A_i Theta_{t-i} + Psi_t)``, with
    ``Theta_0 = A0^{-1}`` and ``Psi_t = 0`` beyond the MA order.
    """
    K = A0.shape[0]
    theta = np.zeros((h + 1, K, K))
    theta[0] = np.linalg.inv(A0)
    for t in range(1, h + 1):
        acc = Psi[t - 1].copy() if t <= len(Psi) else np.zeros((K, K))
        for i, Ai in enumerate(A[:t], start=1):
            acc += Ai @ theta[t - i]
        theta[t] = np.linalg.solve(A0, acc)
    return theta


def instrument_total(data, p, h, normalize_on, impact):
    """Total response to the first Cholesky shock of an OLS VAR(p) with
    intercept, scaled so variable ``normalize_on`` (1-based) moves by
    ``impact`` on impact.  Shape ``(h+1, K)``, data column order."""
    T, K = data.shape
    X = np.hstack([np.ones((T - p, 1))] + [data[p - i : T - i] for i in range(1, p + 1)])
    Y = data[p:]
    coef = np.linalg.lstsq(X, Y, rcond=None)[0]
    resid = Y - X @ coef
    sigma = resid.T @ resid / (T - p - K * p - 1)
    P = np.linalg.cholesky(sigma)
    A = [coef[1 + i * K : 1 + (i + 1) * K].T for i in range(p)]
    out = np.zeros((h + 1, K))
    theta = [np.eye(K)]
    for t in range(1, h + 1):
        theta.append(sum(Ai @ theta[t - i] for i, Ai in enumerate(A[:t], start=1)))
    for t in range(h + 1):
        out[t] = theta[t] @ P[:, 0]
    return out * (impact / out[0, normalize_on - 1])


# ---------------------------------------------------------------------------
# Formulas: ("lit", m) | ("not", f) | ("and", f, g) | ("or", f, g), where m
# is a 1-based system index t*K + position.


def any_of(indices):
    """The disjunction of the given literals, left-nested."""
    node = ("lit", indices[0])
    for m in indices[1:]:
        node = ("or", node, ("lit", m))
    return node


def random_formula(rng, n_indices, n_literals):
    """A random formula over ``n_literals`` distinct indices in 1..n_indices
    that uses each of ``&``, ``|`` and ``!`` at least once."""
    while True:
        lits = rng.choice(np.arange(1, n_indices + 1), size=n_literals, replace=False)
        node = _random_tree(rng, [("lit", int(m)) for m in lits])
        ops = _operators(node)
        if {"and", "or", "not"} <= ops:
            return node


def _random_tree(rng, pool):
    if len(pool) == 1:
        return ("not", pool[0]) if rng.random() < 0.3 else pool[0]
    split = int(rng.integers(1, len(pool)))
    op = "and" if rng.random() < 0.5 else "or"
    node = (op, _random_tree(rng, pool[:split]), _random_tree(rng, pool[split:]))
    return ("not", node) if rng.random() < 0.15 else node


def _operators(node):
    if node[0] == "lit":
        return set()
    return {node[0]}.union(*(_operators(c) for c in node[1:]))


def to_text(node, labels):
    """Fully parenthesised condition text with ``name_horizon`` atoms."""
    kind = node[0]
    if kind == "lit":
        K = len(labels)
        m = node[1]
        return f"{labels[(m - 1) % K]}_{(m - 1) // K}"
    if kind == "not":
        return f"!{to_text(node[1], labels)}"
    sym = " & " if kind == "and" else " | "
    return f"({to_text(node[1], labels)}{sym}{to_text(node[2], labels)})"


def holds(node, visited):
    """Whether a path visiting the index set ``visited`` satisfies ``node``."""
    kind = node[0]
    if kind == "lit":
        return node[1] in visited
    if kind == "not":
        return not holds(node[1], visited)
    if kind == "and":
        return holds(node[1], visited) and holds(node[2], visited)
    return holds(node[1], visited) or holds(node[2], visited)


# ---------------------------------------------------------------------------
# Comparison


def close(actual, expected, rtol, atol):
    """Same shape and ``|actual - expected| <= atol + rtol * |expected|``."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    return a.shape == e.shape and bool(np.all(np.abs(a - e) <= atol + rtol * np.abs(e)))

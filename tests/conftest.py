"""Shared generators and closed forms; the oracles live in oracles.py."""

from __future__ import annotations

import numpy as np
import pytest

from tca import TransmissionCondition, TransmissionOrdering, VarmaModel
from tca.condition import And, Not, Or, Var


# ---------------------------------------------------------------------------
# The three-variable static policy model used as a worked example


def three_var_model(a1, a2, a3, a4) -> VarmaModel:
    """Static three-equation model: output gap, inflation, policy rate.

    ``a1 = 0`` makes the contemporaneous matrix lower-triangular.
    """
    A0 = np.array(
        [[1.0, 0.0, -a1], [-a2, 1.0, 0.0], [-a3, -a4, 1.0]]
    )
    return VarmaModel(var_names=("x", "pi", "i"), A0=A0)


def three_var_closed_forms(a1, a2, a3, a4):
    """(total, through-inflation, not-through-inflation) of shock 1 on
    the policy rate, from the analytic inverse."""
    eta = 1.0 - a1 * a2 * a4 - a1 * a3
    total = (a2 * a4 + a3) / eta
    indirect = (a2 * a4) / ((1.0 + a1 ** 2) * eta)
    direct = (a3 + a1 * (1.0 - eta)) / ((1.0 + a1 ** 2) * eta)
    return total, indirect, direct


# ---------------------------------------------------------------------------
# Random instances


def random_varma(rng, K=3, ell=1, q=0, names=None) -> VarmaModel:
    """Random model with a well-conditioned contemporaneous matrix."""
    U, _, Vt = np.linalg.svd(rng.normal(size=(K, K)))
    s = rng.uniform(0.5, 2.0, size=K)
    A0 = U @ np.diag(s) @ Vt
    A = [rng.normal(scale=0.3, size=(K, K)) / max(1, ell) for _ in range(ell)]
    Psi = [rng.normal(scale=0.3, size=(K, K)) for _ in range(q)]
    if names is None:
        names = tuple(f"v{i + 1}" for i in range(K))
    return VarmaModel(var_names=names, A0=A0, A=tuple(A), Psi=tuple(Psi))


def random_ordering(rng, names) -> TransmissionOrdering:
    shuffled = list(names)
    rng.shuffle(shuffled)
    return TransmissionOrdering.from_names(names, shuffled)


def orderings_fixed_at(rng, names, fixed):
    """A random base ordering and a reshuffle of it that keeps the
    0-based positions in ``fixed`` pinned and permutes only within the
    gaps between them.  Returns two name lists."""
    base = list(names)
    rng.shuffle(base)
    blocks, prev = [], 0
    for c in sorted(fixed):
        blocks.append(list(range(prev, c)))
        prev = c + 1
    blocks.append(list(range(prev, len(base))))
    other = base[:]
    for blk in blocks:
        vals = [other[i] for i in blk]
        rng.shuffle(vals)
        for i, v in zip(blk, vals):
            other[i] = v
    return base, other


def stable_var_coefs(rng, K, p, radius=0.5):
    """AR matrices whose companion spectral radius is exactly ``radius``."""
    A = [rng.normal(scale=0.4, size=(K, K)) for _ in range(p)]
    comp = np.zeros((K * p, K * p))
    comp[:K] = np.hstack(A)
    if p > 1:
        comp[K:, :-K] = np.eye(K * (p - 1))
    rho = np.max(np.abs(np.linalg.eigvals(comp)))
    c = rho / radius
    return [Ai / c ** (i + 1) for i, Ai in enumerate(A)]


def random_condition(rng, n_indices, n_literals=4):
    """Random Boolean formula over system indices 1..n_indices."""
    literals = [Var(int(rng.integers(1, n_indices + 1)))
                for _ in range(n_literals)]

    def build(pool):
        if len(pool) == 1:
            node = pool[0]
            return Not(node) if rng.random() < 0.35 else node
        split = int(rng.integers(1, len(pool)))
        left, right = build(pool[:split]), build(pool[split:])
        u = rng.random()
        if u < 0.45:
            node = And((left, right))
        elif u < 0.9:
            node = Or((left, right))
        else:
            node = Not(And((left, right)))
        return node

    return build(literals)


def wrap_condition(root, sf) -> TransmissionCondition:
    return TransmissionCondition(
        root=root,
        source="<generated>",
        K=sf.K,
        h=sf.h,
        labels=sf.ordering.labels,
    )


# ---------------------------------------------------------------------------
# Closed-form IRFs


def companion_irfs(model: VarmaModel, h: int) -> np.ndarray:
    """Classical MA coefficients of the structural model, shape
    (h+1, K, K): response of y at lag t to a unit structural shock."""
    K = model.K
    A0inv = np.linalg.inv(model.A0)
    ar = [A0inv @ Ai for Ai in model.A]
    ma = [A0inv @ Pj for Pj in model.Psi]
    theta = np.zeros((h + 1, K, K))
    theta[0] = A0inv
    for t in range(1, h + 1):
        acc = ma[t - 1].copy() if t <= len(ma) else np.zeros((K, K))
        for i, Ai in enumerate(ar, start=1):
            if i > t:
                break
            acc += Ai @ theta[t - i]
        theta[t] = acc
    return theta


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

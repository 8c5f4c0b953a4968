"""Frequentist uncertainty for transmission effects.

A recursive iid residual bootstrap around the estimated VAR: each draw
resamples residuals with replacement, regenerates the sample from the
estimated coefficients (holding the first ``p`` observations fixed),
re-estimates, re-identifies the shock, and recomputes the effect
decomposition.  Percentile intervals are taken across draws.

The point estimate is :func:`point_effects`, the public single-shock
chain: identify the shock, rebuild its one-shock systems form, price the
condition.  Draws run in chunks of at most ``CHUNK_BYTES`` of working
arrays, on one thread: each step of a chunk is one stacked numpy or
LAPACK call over its draws, and on a stack of one these kernels give
the point estimate's bits.  A chunk is resampled, regenerated and
refitted in blocks, so its memory does not grow with the sample length:
each block adds to its draws' lagged cross-products, of rows shifted by
the full-sample mean, from which each refit forms its Gram matrix
without a regression design array and solves the normal equations by
Cholesky.
Every draw uses its own substream derived from ``(seed, draw index)``
and the kernels give each draw the same bits in any stack, so the bands
are byte-identical at any chunk size.  A degenerate draw (rank-deficient
regressors, a covariance that is not positive definite, a zero impact
response) is flagged per draw and discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condition import (TERM_CAP, TransmissionCondition, _effects, _plan,
                        parse_condition, transmission_effect)
from .errors import (
    BootstrapUnstableError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficientRegressorsError,
    ZeroImpactError,
)
from .linalg import as_matrix
from .model import (BLOCK_ROWS, ReducedVar, _block_maps, _fit,
                    _instrument_impact, _lag_gram, _split_coefficients,
                    _step, _var_recursion, estimate_var_ols,
                    identify_internal_instrument)
from .system import (TransmissionOrdering, _reduced_form,
                     reconstruct_from_single_shock)

__all__ = [
    "BootstrapSpec",
    "VarSpec",
    "InstrumentSpec",
    "EffectBands",
    "bootstrap_effects",
    "point_effects",
]

_KINDS = ("total", "channel", "complement")

#: Why a draw is discarded: code ``1 + i`` stands for ``_DISCARDS[i]``.
_DISCARDS = (
    RankDeficientRegressorsError,
    NotPositiveDefiniteError,
    ZeroImpactError,
)
_RANK, _NOT_PD, _ZERO_IMPACT = 1, 2, 3

MAX_DISCARD_SHARE = 0.05

#: Bytes of the working arrays of one chunk of bootstrap draws
#: (:func:`_draw_bytes` per draw): a block of its resampling indices and
#: the arrays that regenerate one ``BLOCK_ROWS`` block of its samples and
#: add that block's lagged cross-products to its refits' Gram matrices,
#: or its evaluator solve columns when those are larger.
CHUNK_BYTES = 3 * 2 ** 20

#: Resampling indices per call of a draw's generator, each call a fixed cost.
INDEX_ROWS = 8 * BLOCK_ROWS


@dataclass(frozen=True)
class VarSpec:
    """Reduced-form estimation settings."""

    lags: int
    intercept: bool = True


@dataclass(frozen=True)
class InstrumentSpec:
    """Internal-instrument identification settings (1-based indices)."""

    normalize_on: int
    impact: float


@dataclass(frozen=True)
class BootstrapSpec:
    """Bootstrap settings.

    ``freeze_normalization`` reuses the full-sample normalisation
    constant in every draw instead of re-normalising per draw.
    """

    replications: int
    seed: int
    level: float = 0.90
    freeze_normalization: bool = False

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not 0.0 < self.level < 1.0:
            raise ValueError("confidence level must be in (0, 1)")


@dataclass(frozen=True)
class EffectBands:
    """Point estimates with percentile bands per (variable, horizon).

    ``point``, ``lower`` and ``upper`` map each of ``total``,
    ``channel`` and ``complement`` to an ``(h+1, K)`` array.  The point
    estimate comes from the full sample and may fall outside its own
    band in pathological samples; :meth:`cells_outside_band` reports
    such cells instead of clipping them.  ``discarded_by`` counts the
    discarded draws by the name of the error class that describes them.
    """

    shock_label: str
    condition: str
    labels: tuple
    level: float
    replications: int
    discarded: int
    discarded_by: dict
    point: dict
    lower: dict
    upper: dict

    def cells_outside_band(self, kind: str = "channel") -> np.ndarray:
        return (self.point[kind] < self.lower[kind]) | (
            self.point[kind] > self.upper[kind]
        )


def point_effects(var: ReducedVar, ident: InstrumentSpec,
                  ordering: TransmissionOrdering, cond, h: int,
                  xi: float = 1.0):
    """Effect table for one estimated VAR via the single-shock route:
    :func:`~tca.model.identify_internal_instrument`, then
    :func:`~tca.system.reconstruct_from_single_shock`, then
    :func:`~tca.condition.transmission_effect`.

    Returns ``(table, scale)`` where ``scale`` is the normalisation
    factor applied to the orthogonalised impact column.
    """
    col = identify_internal_instrument(var, ident.normalize_on, ident.impact)
    sf = reconstruct_from_single_shock(var, ordering, col.phi, h, col.label)
    return transmission_effect(sf, cond, xi=xi), col.scale


def _price(coefs, sigma_u, ident: InstrumentSpec, dest, root, h: int,
           scale_override):
    """Identify the shock and price the condition ``root`` for reduced-form
    VARs, unchecked: the stacked form of :func:`point_effects` that the
    bootstrap draws run.

    ``coefs`` is ``(..., p, K, K)`` and ``sigma_u`` ``(..., K, K)``, where
    leading axes batch VARs.  Returns ``(total, channel, scale, code)``:
    the ``(..., (h+1)K)`` effects, the normalisation factors and the
    discard codes (0 for a usable VAR, else ``1 +`` the index of its
    ``_DISCARDS`` class).  ``scale_override``, when given, replaces every
    normalisation factor (a frozen normalisation).
    """
    raw, scale, nonzero = _instrument_impact(sigma_u, ident.normalize_on,
                                             ident.impact)
    if scale_override is not None:
        scale = np.full_like(scale, scale_override)
    B_blocks, DL, _, ok = _reduced_form(sigma_u, coefs, dest, h)
    K = raw.shape[-1]
    col = np.zeros(raw.shape[:-1] + ((h + 1) * K,))
    col[..., :K] = (DL @ (raw[..., dest] * scale[..., None])[..., None])[..., 0]
    total, channel = _effects(B_blocks, col, root)
    # one verdict on positive definiteness, ok, from the triangular form
    code = np.select([~ok, ~nonzero], [_NOT_PD, _ZERO_IMPACT], 0)
    return total, channel, scale, code


def _draw_bytes(n: int, K: int, p: int, solve: int = 0) -> int:
    """Bytes that one bootstrap draw of n regression rows, K variables
    and p lags holds at once in a chunk: a block of its int32 resampling
    indices and, while a block of r = ``min(n, BLOCK_ROWS)`` periods is
    regenerated, its resampled shocks, the recursion's steps and the new
    ``p + r`` rows, beside the block before and that block's shift by
    the mean; or else its ``solve`` evaluator solve values, when those
    are larger."""
    r = min(n, BLOCK_ROWS)
    return max(4 * min(n, INDEX_ROWS) + 8 * K * (5 * r + 3 * p), 8 * solve)


def _regenerate(var: ReducedVar, seed: int, draws, maps=None):
    """The regenerated samples of the given draws, ``BLOCK_ROWS``
    periods at a time: blocks ``(len(draws), p + rows, K)`` whose first p
    rows end the block before (the data's first p rows at the start).  A
    draw's generator gives its indices ``INDEX_ROWS`` at a time, one
    stream.  ``maps`` are the recursion's (:func:`_var_recursion`)."""
    data = var.data
    resid = var.residuals
    if data is None or resid is None:
        raise ValueError("bootstrap needs a VAR estimated from data")
    p = var.p
    n = data.shape[0] - p
    rngs = [np.random.default_rng((seed, r)) for r in draws]
    rows = np.broadcast_to(data[:p], (len(rngs), p, var.K))
    for start in range(0, n, BLOCK_ROWS):
        at = start % INDEX_ROWS
        if at == 0:
            idx = np.array([rng.integers(0, n, size=min(INDEX_ROWS, n - start),
                                         dtype=np.int32) for rng in rngs])
        shocks = np.take(resid, idx[:, at : at + BLOCK_ROWS], axis=0)
        rows = _var_recursion(var.coefs, var.intercept, shocks,
                              rows[:, rows.shape[1] - p :], maps)
        yield rows


def _draw_effects(var: ReducedVar, ident: InstrumentSpec, dest, root,
                  h: int, scale_override, seed: int, draws, maps=None):
    """Total and channel effects ``(C, (h+1)K)`` of the given bootstrap
    draws, refitted and priced as one stack, and their discard codes.
    ``maps`` are the recursion's (:func:`_var_recursion`)."""
    p, K = var.p, var.K
    intercept = var.intercept is not None
    # the rows are shifted by the data's mean, as in estimate_var_ols
    mu = var.data.mean(axis=0) if intercept else np.zeros(K)
    G, n = _lag_gram(_regenerate(var, seed, draws, maps), p, intercept, mu)
    k = G.shape[-1] - K
    coef, ssr, failed = _fit(G, n, k)
    full = failed == 0
    # a rank-deficient draw goes on as a white-noise VAR, so that every
    # later stacked call sees finite, well-posed inputs
    dof = n - k
    sigma_u = np.where(full[:, None, None], ssr / dof, np.eye(K))
    lags = np.where(full[:, None, None, None],
                    _split_coefficients(coef, p, intercept)[1], 0.0)
    total, channel, _, code = _price(lags, sigma_u, ident, dest, root, h,
                                     scale_override)
    return total, channel, np.where(full, code, _RANK)


def bootstrap_effects(data, var_spec: VarSpec, ident: InstrumentSpec,
                      ordering: TransmissionOrdering, cond,
                      spec: BootstrapSpec, h: int,
                      xi: float = 1.0) -> EffectBands:
    """Percentile bands for a transmission-effect decomposition.

    The point estimate uses the full sample; each retained draw
    re-estimates the VAR on regenerated data and repeats the exact point
    procedure.  Draws whose VAR or identification degenerates are
    discarded and counted by reason; more than 5% discarded raises
    :class:`BootstrapUnstableError`.
    """
    data = as_matrix(data, "data")
    T, K = data.shape
    if K != ordering.K:
        raise DimensionMismatchError(
            f"data has {K} columns, ordering covers {ordering.K}"
        )
    # data-order names recovered from the ordering's permutation
    names = tuple(ordering.labels[ordering.dest.index(i)] for i in range(K))
    var = estimate_var_ols(data, var_spec.lags, var_spec.intercept, names)
    if isinstance(cond, str):
        cond = parse_condition(cond, ordering.labels, var.K, h)
    elif not isinstance(cond, TransmissionCondition):
        raise TypeError("cond must be text or a TransmissionCondition")

    table, full_scale = point_effects(var, ident, ordering, cond, h, xi)
    override = full_scale if spec.freeze_normalization else None

    R = spec.replications
    n = (h + 1) * K
    per_draw = _draw_bytes(T - var.p, K, var.p,
                           n * (_plan(cond.root, TERM_CAP)[0].size + 1))
    size = max(1, CHUNK_BYTES // per_draw)
    # every draw steps the point estimate's coefficients
    maps = _block_maps(var.coefs, K, _step(K)) if var.p else None
    total = np.empty((R, n))
    channel = np.empty((R, n))
    code = np.empty(R, dtype=int)
    for start in range(0, R, size):
        stop = min(R, start + size)
        total[start:stop], channel[start:stop], code[start:stop] = (
            _draw_effects(var, ident, ordering.dest, cond.root, h, override,
                          spec.seed, range(start, stop), maps=maps))

    counts = np.bincount(code, minlength=len(_DISCARDS) + 1)[1:]
    discarded_by = {cls.__name__: int(c) for cls, c in zip(_DISCARDS, counts)
                    if c}
    discarded = int(counts.sum())
    if discarded > MAX_DISCARD_SHARE * R:
        reasons = ", ".join(f"{name}={c}" for name, c in discarded_by.items())
        raise BootstrapUnstableError(
            f"{discarded} of {R} draws degenerate "
            f"(> {MAX_DISCARD_SHARE:.0%}): {reasons}"
        )

    kept = code == 0
    shape = (-1, h + 1, K)
    draws = {"total": xi * total[kept], "channel": xi * channel[kept],
             "complement": xi * (total[kept] - channel[kept])}
    lo_q, hi_q = (1.0 - spec.level) / 2.0, (1.0 + spec.level) / 2.0
    lower, upper, point = {}, {}, {}
    for k in _KINDS:
        stacked = draws[k].reshape(shape)
        lower[k] = np.quantile(stacked, lo_q, axis=0)
        upper[k] = np.quantile(stacked, hi_q, axis=0)
        point[k] = getattr(table, k)
    return EffectBands(
        shock_label=table.shock_label,
        condition=table.condition,
        labels=table.labels,
        level=spec.level,
        replications=R,
        discarded=discarded,
        discarded_by=discarded_by,
        point=point,
        lower=lower,
        upper=upper,
    )

"""Frequentist uncertainty for transmission effects.

A recursive iid residual bootstrap around the estimated VAR: each draw
resamples residuals with replacement, regenerates the sample from the
estimated coefficients (holding the first ``p`` observations fixed),
re-estimates, re-identifies the shock, and recomputes the effect
decomposition.  Percentile intervals are taken across draws.

Draws use independent substreams derived from ``(seed, draw index)`` and
results are stored by draw index, so serial and parallel runs produce
bitwise identical bands.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .condition import TransmissionCondition, parse_condition, transmission_effect
from .errors import (
    BootstrapUnstableError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficientRegressorsError,
    SingularMatrixError,
    ZeroImpactError,
)
from .linalg import as_matrix
from .model import (ReducedVar, _var_recursion, estimate_var_ols,
                    identify_internal_instrument)
from .system import TransmissionOrdering, reconstruct_from_single_shock

__all__ = [
    "BootstrapSpec",
    "VarSpec",
    "InstrumentSpec",
    "EffectBands",
    "bootstrap_effects",
    "point_effects",
    "n_threads",
]

_KINDS = ("total", "channel", "complement")

#: Errors that mark one bootstrap draw as degenerate rather than fatal.
_DEGENERATE = (
    RankDeficientRegressorsError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    ZeroImpactError,
    np.linalg.LinAlgError,
)

MAX_DISCARD_SHARE = 0.05


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
    such cells instead of clipping them.
    """

    shock_label: str
    condition: str
    labels: tuple
    level: float
    replications: int
    discarded: int
    point: dict
    lower: dict
    upper: dict

    def cells_outside_band(self, kind: str = "channel") -> np.ndarray:
        return (self.point[kind] < self.lower[kind]) | (
            self.point[kind] > self.upper[kind]
        )


def n_threads() -> int:
    """Worker count, capped by the TCA_THREADS environment variable.

    Raises ``ValueError`` when TCA_THREADS is set but is not a positive
    integer.
    """
    cap = os.environ.get("TCA_THREADS")
    available = os.cpu_count() or 1
    if not cap:
        return available
    if not cap.strip().isdecimal() or int(cap) < 1:
        raise ValueError(f"TCA_THREADS must be a positive integer, got {cap!r}")
    return min(available, int(cap))


def point_effects(var: ReducedVar, ident: InstrumentSpec,
                  ordering: TransmissionOrdering, cond, h: int,
                  xi: float = 1.0, scale_override: float | None = None):
    """Effect table for one estimated VAR via the single-shock route.

    Returns ``(table, scale)`` where ``scale`` is the normalisation
    factor actually applied to the orthogonalised impact column.
    """
    column = identify_internal_instrument(var, ident.normalize_on,
                                          ident.impact, h=0)
    impact = column.phi[: var.K]
    scale = column.scale
    if scale_override is not None:
        impact = impact * (scale_override / scale)
        scale = scale_override
    sss = reconstruct_from_single_shock(var, ordering, impact, h,
                                        shock_label=column.label)
    return transmission_effect(sss, cond, xi=xi), scale


def _resample_and_regenerate(var: ReducedVar, spec: BootstrapSpec) -> np.ndarray:
    """All draws' regenerated samples, shape (R, T, K)."""
    data = var.data
    resid = var.residuals
    if data is None or resid is None:
        raise ValueError("bootstrap needs a VAR estimated from data")
    T, K = data.shape
    p = var.p
    R = spec.replications
    n = T - p

    draws = np.empty((R, n, K))
    for r in range(R):
        rng = np.random.default_rng((spec.seed, r))
        draws[r] = resid[rng.integers(0, n, size=n)]
    return _var_recursion(var.coefs, var.intercept, draws, data[:p])


def bootstrap_effects(data, var_spec: VarSpec, ident: InstrumentSpec,
                      ordering: TransmissionOrdering, cond,
                      spec: BootstrapSpec, h: int,
                      xi: float = 1.0) -> EffectBands:
    """Percentile bands for a transmission-effect decomposition.

    The point estimate uses the full sample; each retained draw
    re-estimates the VAR on regenerated data and repeats the exact point
    procedure.  Draws whose VAR or identification degenerates are
    discarded and counted; more than 5% discarded raises
    :class:`BootstrapUnstableError`.
    """
    data = as_matrix(data, "data")
    K = data.shape[1]
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
    samples = _resample_and_regenerate(var, spec)
    results = {k: np.full((R,) + table.total.shape, np.nan) for k in _KINDS}
    kept = np.zeros(R, dtype=bool)

    def run_draw(r: int) -> None:
        try:
            var_r = estimate_var_ols(samples[r], var_spec.lags,
                                     var_spec.intercept, var.var_names)
            table_r, _ = point_effects(var_r, ident, ordering, cond, h, xi,
                                       scale_override=override)
        except _DEGENERATE:
            return
        results["total"][r] = table_r.total
        results["channel"][r] = table_r.channel
        results["complement"][r] = table_r.complement
        kept[r] = True

    workers = min(n_threads(), R)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_draw, range(R)))
    else:
        for r in range(R):
            run_draw(r)

    discarded = R - int(kept.sum())
    if discarded > MAX_DISCARD_SHARE * R:
        raise BootstrapUnstableError(
            f"{discarded} of {R} draws degenerate (> {MAX_DISCARD_SHARE:.0%})"
        )

    lo_q, hi_q = (1.0 - spec.level) / 2.0, (1.0 + spec.level) / 2.0
    lower, upper, point = {}, {}, {}
    for k in _KINDS:
        stacked = results[k][kept]
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
        point=point,
        lower=lower,
        upper=upper,
    )

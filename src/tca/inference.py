"""Frequentist uncertainty for transmission effects.

A recursive iid residual bootstrap around the estimated VAR: each draw
resamples residuals with replacement, regenerates the sample from the
estimated coefficients (holding the first ``p`` observations fixed),
re-estimates, re-identifies the shock, and recomputes the effect
decomposition.  Percentile intervals are taken across draws.

The point estimate is :func:`point_effects`, the public single-shock
chain: identify the shock, rebuild its one-shock systems form, price the
condition.  Draws run in chunks of at most ``CHUNK_BYTES``, counted by
one model of a chunk's memory (:func:`_chunk_memory`), which also sizes
its workspace, on one thread: each step of a chunk is one
stacked numpy or LAPACK call over its draws, and on a stack of one these
kernels give the point estimate's bits.  A chunk's large arrays are
carved from one workspace per bootstrap (:class:`_Resampling`), which
the first chunk allocates and later chunks reuse, so that a chunk
allocates only small arrays of its own.  A chunk is resampled,
regenerated and refitted in blocks, so its memory does not grow with the
sample length: each block's shocks are gathered and regenerated in the
workspace, then shifted in place by the full-sample mean and added to
its draws' lagged cross-products, from which each refit forms its Gram
matrix without a regression design array and solves the normal
equations by Cholesky.  The bands are the quantiles of the draw arrays
themselves, scaled and sorted in place.
Draw r resamples with the indices of ``default_rng((seed,
r)).integers(0, n, size=n)``: one stacked SeedSequence pass derives the
chunk's states (:func:`_substreams`), one call per draw takes its raw
words, and numpy's own bounded rule maps the whole chunk's words to
indices at once (:func:`_indices`).
The kernels give each draw the same bits in any stack, so the bands are
byte-identical at any chunk size.  A degenerate draw (rank-deficient
regressors, a covariance that is not positive definite, a zero impact
response) is flagged per draw and discarded.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .condition import (_SOLVE_ROWS, TERM_CAP, TransmissionCondition,
                        _effects, _plan, parse_condition, transmission_effect)
from .errors import (
    BootstrapUnstableError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficientRegressorsError,
    ZeroImpactError,
)
from .linalg import Workspace, as_matrix, scope, take
from .model import (BLOCK_ROWS, ReducedVar, _block_maps, _fit,
                    _instrument_impact, _lag_gram, _split_coefficients,
                    _step, _var_recursion, estimate_var_ols,
                    identify_internal_instrument)
from .system import (TransmissionOrdering, _check_grid, _reduced_form,
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

#: Bytes that a chunk of bootstrap draws may hold at its peak
#: (:func:`_chunk_memory`): 2 MiB and 32 KiB, so that criterion 09's
#: chunks stay at the 167 draws on which its timings were measured.
CHUNK_BYTES = 2 ** 21 + 2 ** 15

#: Resampling indices per call of a draw's generator, a whole number of
#: ``BLOCK_ROWS`` blocks.  Each call costs a fixed time, and each index
#: up to 4 bytes of every draw of a chunk.  On 500-draw bootstraps of 2,000 and
#: 5,000 periods, 1,024 and 2,048 timed within 4% of each other, and
#: 512, 1,536 and 4,096 slower.  It is even, so that a window ends on a
#: whole 64-bit word of its stream and carries no half word to the next.
INDEX_ROWS = 2048
assert INDEX_ROWS % BLOCK_ROWS == 0 and INDEX_ROWS % 2 == 0

#: Resampling words that Lemire's rule (:func:`_indices`) maps at a time:
#: 64 KiB of their 64-bit products.
_LEMIRE_WORDS = 2 ** 13


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
        # a draw's index is one entropy word of its stream (_substreams)
        if not 1 <= self.replications <= 2 ** 32:
            raise ValueError("replications must be in 1..2**32")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")
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
           scale_override, workspace=None):
    """Identify the shock and price the condition ``root`` for reduced-form
    VARs, unchecked: the stacked form of :func:`point_effects` that the
    bootstrap draws run.

    ``coefs`` is ``(..., p, K, K)`` and ``sigma_u`` ``(..., K, K)``, where
    leading axes batch VARs.  Returns ``(total, channel, scale, code)``:
    the ``(..., (h+1)K)`` effects, the normalisation factors and the
    discard codes (0 for a usable VAR, else ``1 +`` the index of its
    ``_DISCARDS`` class).  ``scale_override``, when given, replaces every
    normalisation factor (a frozen normalisation).  The triangular form
    and the effects are taken held from ``workspace``.
    """
    raw, scale, nonzero = _instrument_impact(sigma_u, ident.normalize_on,
                                             ident.impact)
    if scale_override is not None:
        scale = np.full_like(scale, scale_override)
    B_blocks, DL, _, ok = _reduced_form(sigma_u, coefs, dest, h, workspace)
    K = raw.shape[-1]
    with scope(workspace):
        col = take(workspace, raw.shape[:-1] + ((h + 1) * K,))
        col.fill(0.0)
        col[..., :K] = (DL @ (raw[..., dest] * scale[..., None])[..., None])[..., 0]
        total, channel = _effects(B_blocks, col, root, workspace)
    # one verdict on positive definiteness, ok, from the triangular form
    code = np.select([~ok, ~nonzero], [_NOT_PD, _ZERO_IMPACT], 0)
    return total, channel, scale, code


def _padded(rows: int, K: int) -> int:
    """Rows made up to whole steps of the VAR recursion (:func:`_step`)."""
    s = _step(K)
    return -(-rows // s) * s


def _shocks(var: ReducedVar) -> np.ndarray:
    """The rows that every draw of a bootstrap resamples its shocks from,
    built once per bootstrap: the residuals plus the intercept, then a
    row of zeros, which pads a block to whole steps of the recursion."""
    if var.data is None or var.residuals is None:
        raise ValueError("bootstrap needs a VAR estimated from data")
    resid = var.residuals
    shocks = np.zeros((resid.shape[0] + 1, var.K))
    shocks[:-1] = resid
    if var.intercept is not None:
        shocks[:-1] += var.intercept
    return shocks


def _chunk_memory(C: int, n: int, K: int, p: int, h: int, plan,
                  intercept: bool) -> tuple:
    """``(floats, bytes)`` of a chunk of C draws, for n regression rows, K
    variables and p lags, priced on horizons 0..h by the evaluator's
    ``plan``: the floats of its workspace (:class:`_Resampling`), the
    most that the arrays of one phase take from it at once, each in
    whole 64-byte lines; and the bytes that the chunk holds at its peak,
    the workspace's and the most that one phase allocates beside it.

    In the workspace:

    - Regeneration (:func:`_regenerate`, :func:`~tca.model._lag_gram`):
      held, the index window, the carried p rows and a block of
      recursion output; low, the lagged products, their sums and the
      last p rows, beside a block's gathered shocks with its indices or
      the recursion's two step rows, or the lag-0 copy (a copy of a
      padded block), or Lemire's temporaries (:func:`_indices`).
    - Gram assembly: held, ``G``; low, the lagged products beside the
      lag-gap stack, or the tail edge rows, their product and a copy of
      the lag block.
    - Refit (:func:`~tca.model._fit`): ``G`` beside its equilibration, or
      the sweep's bordered factor, its inverse and ``R``.
    - Pricing (:func:`_price`): the lag matrices and the triangular form,
      beside the sweep of the covariances, or the shock column and the
      solve with its right-hand side and lag row, or with the channel,
      the path-sum solve and a product.

    Beside it, 32 KB of small arrays and objects, and the most of these,
    where ``(C, K, K)`` arrays stand for the small temporaries of a step
    and numpy's iteration buffer is 64 KB or the size of its operation:

    - Regeneration: the draws' generator states, 1 KB each as they are
      derived, or kept beside the next window's, read back; and the
      buffer of a block's shift, ``z -= tile(mu, L)``.
    - Refit: ``coef``, and ``ssr``, its scaled copy, ``sigma_u`` and a
      product; and the buffer of ``scale *= d[..., None, :]``.
    - Pricing: ``sigma_u`` and four temporaries, beside the triangular
      form's permuted lag matrices, or the evaluator's sums of m literals,
      beside a block of b path-sum rows, its solve and the product for
      the rows before it; or the steps' weights and two systems' lists
      of them, of their S states and of their sums; or the stretches.
    """
    def f(*dims, itemsize=8):
        return -(-math.prod(dims) * itemsize // 64) * 8

    r = min(n, BLOCK_ROWS)  # the rows of the widest block
    w, last = _padded(r, K), n - (-(-n // BLOCK_ROWS) - 1) * BLOCK_ROWS
    k = int(intercept) + p * K
    size = min(n, INDEX_ROWS)
    group = min(C, max(1, _LEMIRE_WORDS // size))
    lemire = f(group, -(-size // 2)) + f(group, size, itemsize=4) + f(group, size)
    index = f(C, _padded(size, K), itemsize=np.min_scalar_type(n).itemsize)
    block = f(C, w, K) + max(f(C, w), 2 * f(C, _step(K), K) if p else 0)
    copy = f(C, r, K)
    if _padded(last, K) > last:  # a padded last block is shifted in a copy
        copy = max(copy, f(C, p + last, K))
    kept = f(C, p + 1, K, K) + f(C, K) + f(C, p, K)
    regenerate = (index + f(C, p, K) + f(C, p + w, K) + kept
                  + max(lemire, block, copy))
    gram = f(C, k + K, k + K)
    assemble = gram + kept + max(f(C, 2 * p + 1, K, K),
                                 f(C, p, k) + 2 * f(C, k, k) if p else 0)
    refit = gram + max(gram, f(C, 2 * k, k) + f(C, k, k) + f(C, k, K))
    N, L = (h + 1) * K, min(p, h)
    lits, columns, steps, _, S, _ = plan
    m = lits.size
    solve = f(C, N, m + 1)
    lag_row = 2 * f(C, K, L, K) if L else 0
    price = f(C, p, K, K) + f(C, L + 1, K, K) + max(
        f(C, 2 * K, K) + f(C, K, K),
        f(C, N) + solve + max(solve + lag_row,
                              2 * f(C, N) + f(C, m, columns.size)))
    floats = max(regenerate, assemble, refit, price)

    def buffer(count):  # numpy's iteration buffer for count floats
        return min(2 ** 16, 8 * count)

    square = 8 * C * K * K
    b, c, steps = min(m, _SOLVE_ROWS), max(columns.size, 1), len(steps)
    lists = 2 * (168 + 32 * (steps + S + 2 * m))  # lists 56+8n B, floats 24 B
    evaluate = 16 * C * (m + 1) + max(8 * C * b * (m + c) + 8 * b * (b + c),
                                      8 * C * steps + lists, 8 * C * (3 * m + c))
    beside = 2 ** 15 + max(
        2 ** 10 * C + buffer(C * (p + r) * K),
        8 * C * k * K + 4 * square + buffer(C * (k + K) ** 2),
        5 * square + max(8 * C * L * K * K, evaluate))
    return floats, 8 * floats + beside


class _Resampling:
    """What every chunk of draws of one bootstrap shares: the estimated
    VAR, the maps of its recursion (:func:`~tca.model._block_maps`), the
    rows that its draws resample (:func:`_shocks`) and the chunks'
    :class:`~tca.linalg.Workspace`, which the first chunk, the largest,
    sizes and allocates (:meth:`reserve`).  It belongs to one call of
    :func:`bootstrap_effects`, so its workspace is freed on return."""

    def __init__(self, var: ReducedVar):
        self.var = var
        self.maps = _block_maps(var.coefs, var.K, _step(var.K)) if var.p else None
        self.shocks = _shocks(var)
        self.workspace = None

    def memory(self, draws: int, h: int, plan) -> tuple:
        """:func:`_chunk_memory` of a chunk of ``draws`` draws."""
        var = self.var
        return _chunk_memory(draws, self.shocks.shape[0] - 1, var.K, var.p,
                             h, plan, var.intercept is not None)

    def reserve(self, draws: int, h: int, plan) -> Workspace:
        """The workspace, emptied, with room for a chunk of ``draws``
        draws priced on horizons 0..h by the evaluator's ``plan``."""
        floats = self.memory(draws, h, plan)[0]
        if self.workspace is None or len(self.workspace.buf) < floats:
            self.workspace = Workspace(floats)
        self.workspace.reset()
        return self.workspace


_U32 = 0xFFFFFFFF
_U128 = (1 << 128) - 1


def _hashmix(const: int, mult: int):
    """numpy's SeedSequence hash of uint32 arrays, whose constant steps by
    ``mult`` at every call."""
    def hashmix(v):
        nonlocal const
        v = v ^ const
        const = const * mult & _U32
        v = v * const
        return v ^ v >> 16
    return hashmix


def _substreams(seed: int, draws) -> list:
    """The PCG64 ``bit_generator.state`` of ``default_rng((seed, r))`` for
    each r of ``draws`` (each below 2**32): SeedSequence's mix of the
    entropy words of ``(seed, r)`` over the draw axis at once, then
    PCG64's seeding from its four 64-bit output words."""
    seed, r = int(seed), np.asarray(draws, dtype=np.uint32)
    words = [np.full_like(r, seed >> s & _U32)
             for s in range(0, max(seed.bit_length(), 1), 32)] + [r]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0 * r] * 3)[:4]]
    for k in range(max(4, len(words))):  # the pool's words, then the rest
        src = pool[k] if k < 4 else words[k]
        for i in range(4):
            if i != k:
                v = pool[i] * 0xCA01F9DD - hashmix(src) * 0x4973F715
                pool[i] = v ^ v >> 16
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    out = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    states = []
    for a, b, c, d in out.astype("<u4").view("<u8").tolist():
        inc = ((c << 64 | d) << 1 | 1) & _U128
        state = ((inc + (a << 64 | b)) * 0x2360ED051FC65DA44385DF649FCCF645
                 + inc) & _U128
        states.append({"bit_generator": "PCG64", "has_uint32": 0,
                       "uinteger": 0, "state": {"state": state, "inc": inc}})
    return states


def _indices(states: list, n: int, size: int, out=None, more: bool = False,
             workspace=None) -> np.ndarray:
    """The next ``size`` resampling indices below n of each PCG64 state
    of ``states``, as ``Generator.integers(0, n, size)`` draws them, in
    the rows of ``out`` (``(len(states), >= size)``, of an integer type
    that holds n; the smallest such by default), which is returned.
    With ``more``, each state is replaced by its stream's state after
    them.

    numpy maps each 32-bit word u of a stream to ``u n >> 32`` and
    rejects u where ``u n mod 2**32`` falls below ``2**32 mod n``
    (Lemire's rule); a word of PCG64's 64-bit output gives its low half
    first.  So each draw takes its ``ceil(size / 2)`` raw words in one
    call, and the rule maps the words of ``_LEMIRE_WORDS // size`` draws
    at a time, in arrays from the low end of ``workspace``.  A draw
    whose words hold a rejected one, or whose state holds a spare half
    word, draws again with ``integers`` from its state, which is
    exact."""
    C = len(states)
    if out is None:
        out = np.empty((C, size), dtype=np.min_scalar_type(n))
    bits = np.random.PCG64(0)  # set to each draw's state in turn
    half = -(-size // 2)
    group = min(C, max(1, _LEMIRE_WORDS // size))
    threshold = 2 ** 32 % n
    # rejection is rare: a draw of size words has one with probability
    # about size (2**32 mod n) / 2**32
    redo = np.array([state["has_uint32"] for state in states], dtype=bool)
    after = list(states)
    with scope(workspace):
        words = take(workspace, (group, half), "<u8")
        u = words.view("<u4")[:, :size]
        low = take(workspace, (group, size), np.uint32)  # u n mod 2**32
        product = take(workspace, (group, size), np.uint64)
        for lo in range(0, C, group):
            hi = min(C, lo + group)
            for c in range(lo, hi):
                bits.state = states[c]
                words[c - lo] = bits.random_raw(half)
                if more:
                    after[c] = bits.state
            x = u[: hi - lo]
            if threshold:  # uint32 products wrap to their low words
                np.multiply(x, np.uint32(n), out=low[: hi - lo])
                redo[lo:hi] |= np.any(low[: hi - lo] < threshold, axis=1)
            m = product[: hi - lo]
            m[...] = x
            m *= n
            m >>= 32
            out[lo:hi, :size] = m
    if redo.any():
        rng = np.random.Generator(bits)
        for c in np.flatnonzero(redo):
            bits.state = states[c]
            out[c, :size] = rng.integers(0, n, size=size)
            after[c] = bits.state
    if more:
        states[:] = after
    return out


def _regenerate(sample: _Resampling, seed: int, draws):
    """The regenerated samples of the given draws of ``sample``'s
    bootstrap, ``BLOCK_ROWS`` periods at a time: blocks ``(len(draws), p
    + rows, K)`` whose first p rows end the block before (the data's
    first p rows at the start).

    The arrays come from ``sample.workspace`` (``np.empty`` without one):
    a block's shocks are gathered at its low end, with indices widened
    to numpy's index type so that ``np.take`` copies none, and given
    back before the block is yielded; the recursion
    (:func:`~tca.model._var_recursion`) takes the block held, and gives
    it back when the next one is requested.  So a yielded block is valid
    until then, and the consumer may shift it in place.  A block that is
    not a whole number of the recursion's steps keeps its padding rows:
    it is a view of each sample's first ``p + rows`` rows, which are
    contiguous, so no sample is moved.
    Draw r's indices are ``default_rng((seed, r)).integers(0, n,
    size=n)``, drawn ``INDEX_ROWS`` at a time from the draw's state
    (:func:`_substreams`, :func:`_indices`), which is read back only
    while another window follows and dropped after the last."""
    var, shocks, workspace = sample.var, sample.shocks, sample.workspace
    p, K = var.p, var.K
    n = shocks.shape[0] - 1
    C = len(draws)
    states = _substreams(seed, draws)
    with scope(workspace, held=True):
        idx = take(workspace, (C, _padded(min(n, INDEX_ROWS), K)),
                   np.min_scalar_type(n), held=True)
        carried = take(workspace, (C, p, K), held=True)
        initial = var.data[:p]
        for start in range(0, n, BLOCK_ROWS):
            at = start % INDEX_ROWS
            if at == 0:
                size = min(INDEX_ROWS, n - start)
                more = start + size < n
                _indices(states, n, size, idx, more, workspace)
                if not more:
                    del states
                # an index past the sample picks the zero row that pads a block
                idx[:, size:] = n
            r = min(BLOCK_ROWS, n - start)
            width = _padded(r, K)
            with scope(workspace, held=True):  # the block, until the next
                with scope(workspace):
                    step = take(workspace, (C, width, K))
                    with scope(workspace):
                        picks = take(workspace, (C, width), np.intp)
                        picks[...] = idx[:, at : at + width]
                        # "clip" lets numpy gather into step directly; no
                        # index is outside
                        np.take(shocks, picks, axis=0, out=step, mode="clip")
                    block = _var_recursion(var.coefs, None, step, initial,
                                           sample.maps, workspace)[:, : p + r]
                carried[...] = block[:, r:]  # before the consumer shifts it
                initial = carried
                yield block


def _draw_effects(sample: _Resampling, ident: InstrumentSpec, dest, root,
                  h: int, scale_override, seed: int, draws):
    """Total and channel effects ``(C, (h+1)K)`` of the given draws of
    ``sample``'s bootstrap, refitted and priced as one stack, and their
    discard codes.  The chunk's large arrays come from the workspace
    (:meth:`_Resampling.reserve`), so the effects are views of it, valid
    until the next chunk: the Gram matrix is held through the refit, and
    the lag matrices that are priced sit at its low end."""
    var = sample.var
    p, K = var.p, var.K
    intercept = var.intercept is not None
    # the rows are shifted by the data's mean, as in estimate_var_ols
    mu = var.data.mean(axis=0) if intercept else np.zeros(K)
    workspace = sample.reserve(len(draws), h, _plan(root, TERM_CAP))
    with scope(workspace, held=True):
        G, n = _lag_gram(_regenerate(sample, seed, draws), p, intercept, mu,
                         workspace)
        k = G.shape[-1] - K
        coef, ssr, failed = _fit(G, n, k, workspace)
    full = failed == 0
    # a rank-deficient draw goes on as a white-noise VAR, so that every
    # later stacked call sees finite, well-posed inputs
    dof = n - k
    sigma_u = np.where(full[:, None, None], ssr / dof, np.eye(K))
    lags = take(workspace, (len(draws), p, K, K))
    lags[...] = _split_coefficients(coef, p, intercept)[1]
    lags[~full] = 0.0
    del coef, ssr
    total, channel, _, code = _price(lags, sigma_u, ident, dest, root, h,
                                     scale_override, workspace)
    return total, channel, np.where(full, code, _RANK)


def _percentiles(x, q) -> np.ndarray:
    """``np.quantile(x, q, axis=0)`` for draws ``x`` ``(R, ...)`` and
    levels ``q``, bit for bit, with ``x`` sorted in place: numpy's
    default linear rule reads the sorted draws at ``(R - 1) q``, past the
    last one at the last, and runs its ``_lerp`` from the far side where
    the weight t >= 0.5.  A column that holds a NaN gets NaN.  A sort
    and numpy's partition may order 0.0 and -0.0 differently, so only a
    column that mixes the two may get a zero of the other sign."""
    x.sort(axis=0)
    at = (len(x) - 1) * np.asarray(q, dtype=float)
    lo = np.where(at >= len(x) - 1, -1, np.floor(at)).astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    t = (at - lo).reshape(-1, *(1,) * (x.ndim - 1))
    a, b = x[lo], x[hi]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    out[:, np.isnan(x[-1])] = np.nan
    return out


def bootstrap_effects(data, var_spec: VarSpec, ident: InstrumentSpec,
                      ordering: TransmissionOrdering, cond,
                      spec: BootstrapSpec, h: int,
                      xi: float = 1.0) -> EffectBands:
    """Percentile bands for a transmission-effect decomposition.

    The point estimate uses the full sample; each retained draw
    re-estimates the VAR on regenerated data and repeats the exact point
    procedure.  Draws whose VAR or identification degenerates are
    discarded and counted by reason; more than 5% discarded raises
    :class:`BootstrapUnstableError`.  The draws run in chunks of the most
    draws that fit ``CHUNK_BYTES`` (:func:`_chunk_memory`), whose large
    arrays come from one workspace that this call owns: the first chunk
    allocates it, the later ones reuse it, and it is freed before the
    bands are taken, so concurrent calls share nothing.
    """
    data = as_matrix(data, "data")
    T, K = data.shape
    if K != ordering.K:
        raise DimensionMismatchError(
            f"data has {K} columns, ordering covers {ordering.K}"
        )
    # data-order names recovered from the ordering's permutation
    names = tuple(ordering.labels[ordering.dest.index(i)] for i in range(K))
    _check_grid(ordering, names, h)  # before the condition is parsed on it
    var = estimate_var_ols(data, var_spec.lags, var_spec.intercept, names)
    if isinstance(cond, str):
        cond = parse_condition(cond, ordering.labels, var.K, h)
    elif not isinstance(cond, TransmissionCondition):
        raise TypeError("cond must be text or a TransmissionCondition")

    table, full_scale = point_effects(var, ident, ordering, cond, h, xi)
    override = full_scale if spec.freeze_normalization else None

    R = spec.replications
    n = (h + 1) * K
    # every draw steps the point estimate's coefficients and resamples
    # its residuals
    sample = _Resampling(var)
    plan = _plan(cond.root, TERM_CAP)
    # the most draws whose chunk fits CHUNK_BYTES, and at least one
    size = max(1, bisect.bisect(range(1, R + 1), CHUNK_BYTES,
                                key=lambda C: sample.memory(C, h, plan)[1]))
    total = np.empty((R, n))
    channel = np.empty((R, n))
    code = np.empty(R, dtype=int)
    for start in range(0, R, size):
        stop = min(R, start + size)
        total[start:stop], channel[start:stop], code[start:stop] = (
            _draw_effects(sample, ident, ordering.dest, cond.root, h,
                          override, spec.seed, range(start, stop)))
    del sample  # and its workspace, before the bands

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
    total = total[kept]
    channel = channel[kept]
    # the complement of the unscaled draws, as the point estimate's
    complement = total - channel
    q = [(1.0 - spec.level) / 2.0, (1.0 + spec.level) / 2.0]
    lower, upper, point = {}, {}, {}
    for k, x in zip(_KINDS, (total, channel, complement)):
        x *= xi
        # the draws are not needed again, so the bands may sort them
        lower[k], upper[k] = _percentiles(x, q).reshape(2, h + 1, K)
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

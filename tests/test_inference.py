import contextlib
import tracemalloc

import numpy as np
import pytest

from conftest import stable_var_coefs
from oracles import percentile_bands
from tca import (
    TransmissionOrdering,
    estimate_var_ols,
    VarmaModel,
    identify_internal_instrument,
    make_systems_form,
    reconstruct_from_single_shock,
    simulate_var,
    transmission_effect,
)
from tca.condition import Not, Var, any_horizon
from tca.errors import BootstrapUnstableError, RankDeficientRegressorsError
import tca.inference as inf
from tca.inference import (
    BootstrapSpec,
    InstrumentSpec,
    VarSpec,
    _draw_effects,
    _regenerate,
    bootstrap_effects,
    point_effects,
)

B_CONTEMP = 0.6
A0 = np.array([[1.0, 0.0], [-B_CONTEMP, 1.0]])
A1 = np.array([[0.5, 0.1], [0.2, 0.4]])
A0INV = np.linalg.inv(A0)
ORDERING = TransmissionOrdering.identity(("v1", "v2"))
MODEL = VarmaModel(var_names=("v1", "v2"), A0=A0, A=(A1,))
H = 2


def make_data(seed, T=800):
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=(T, 2))
    return simulate_var([A0INV @ A1], None, eps @ A0INV.T, np.zeros((1, 2)))


def regenerated(var, seed, draws, maps=None):
    """The samples ``_regenerate`` yields block by block, joined; each
    block is copied, since the next one reuses its buffer."""
    sample = inf._Resampling(var)
    if maps is not None:
        sample.maps = maps
    blocks = [block.copy() for block in _regenerate(sample, seed, draws)]
    return np.concatenate([blocks[0]] + [b[:, var.p:] for b in blocks[1:]],
                          axis=1)


def run(data, seed=7, reps=50, level=0.9, cond="v2_0", freeze=False):
    return bootstrap_effects(
        data,
        VarSpec(lags=1),
        InstrumentSpec(normalize_on=1, impact=1.0),
        ORDERING,
        cond,
        BootstrapSpec(replications=reps, seed=seed, level=level,
                      freeze_normalization=freeze),
        H,
    )


class TestBootstrapSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapSpec(replications=0, seed=1)
        with pytest.raises(ValueError):
            BootstrapSpec(replications=10, seed=1, level=1.0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.0, "7", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # checked before any estimate, as numpy would reject it only in
        # the first chunk
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            BootstrapSpec(replications=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(5), np.uint64(2 ** 64 - 1),
                                      True, 2 ** 130 + 7])
    def test_integer_seeds_that_numpy_takes_are_accepted(self, seed):
        np.random.default_rng((seed, 0))
        assert BootstrapSpec(replications=10, seed=seed).seed is seed

    def test_draw_indices_stay_below_two_to_the_32(self):
        # each draw's index is one entropy word of its stream
        assert BootstrapSpec(replications=2 ** 32, seed=1)
        with pytest.raises(ValueError, match="replications"):
            BootstrapSpec(replications=2 ** 32 + 1, seed=1)


class TestRegeneration:
    @pytest.mark.parametrize("K,p", [(2, 1), (3, 2), (4, 4)])
    def test_each_draw_is_simulate_var_on_its_residuals(self, K, p):
        rng = np.random.default_rng(10 * K + p)
        coefs = stable_var_coefs(rng, K, p)
        data = simulate_var(coefs, rng.normal(size=K),
                            rng.normal(size=(300, K)), np.zeros((p, K)))
        var = estimate_var_ols(data, p)
        seed = 11
        samples = regenerated(var, seed, range(6))  # in blocks of BLOCK_ROWS
        n = data.shape[0] - p
        assert n > inf.BLOCK_ROWS
        for r in range(6):
            idx = np.random.default_rng((seed, r)).integers(0, n, size=n)
            expected = simulate_var(var.coefs, var.intercept,
                                    var.residuals[idx], data[:p])
            # one recursion, whose rounding depends neither on the batch
            # nor on the blocks
            assert np.array_equal(samples[r], expected)
        assert np.array_equal(regenerated(var, seed, [4]), samples[4:5])
        # the recursion's maps built once, as bootstrap_effects passes them
        maps = inf._block_maps(var.coefs, K, inf._step(K))
        assert np.array_equal(regenerated(var, seed, range(6), maps), samples)


    def test_recursion_maps_are_built_once_per_bootstrap(self, monkeypatch):
        # one build for every block of every draw, in chunks of one
        # draw, and one for the point estimate's impulse responses
        import tca.model

        data = make_data(0)
        calls = []
        for name, module in (("draws", inf), ("point", tca.model)):
            def spy(*args, name=name, original=module._block_maps):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(module, "_block_maps", spy)
        monkeypatch.setattr(inf, "CHUNK_BYTES", 1)
        run(data, reps=5)
        assert sorted(calls) == ["draws", "point"]


class TestSubstreams:
    @staticmethod
    def criterion_09_shape():
        """Data of criterion 09's shape: K=4, p=4, T=400."""
        rng = np.random.default_rng(9)
        return simulate_var(stable_var_coefs(rng, 4, 4, radius=0.6), None,
                            rng.normal(size=(400, 4)), np.zeros((4, 4)))

    @pytest.mark.parametrize("seed", [0, 1, 909, 2 ** 32 - 1, 2 ** 32,
                                      2 ** 64 + 3, 2 ** 130 + 7])
    def test_states_are_default_rng_states(self, seed):
        # seeds of one to five entropy words, beside the draw index's one
        states = inf._substreams(seed, range(301))
        assert len(states) == 301
        for r, state in enumerate(states):
            want = np.random.default_rng((seed, r)).bit_generator.state
            assert state == want, (seed, r)

    def test_a_chunk_draws_the_pinned_indices(self):
        # the first 8 resampling indices of draws 0, 69, 70 and 499 at
        # criterion 09's seed and sample length (n = 396), read from the
        # gather buffer of the first block with shocks that are their own
        # row numbers
        var = estimate_var_ols(self.criterion_09_shape(), 4)
        draws = [0, 69, 70, 499]
        shocks = np.repeat(np.arange(397.0)[:, None], 4, axis=1)
        sample = inf._Resampling(var)
        sample.shocks = shocks
        workspace = sample.reserve(len(draws), 20,
                                   inf._plan(Not(Var(1)), inf.TERM_CAP))
        next(_regenerate(sample, 909, draws))
        width = inf._padded(inf.BLOCK_ROWS, 4)
        step = workspace.buf[: len(draws) * width * 4].reshape(-1, width, 4)
        assert step[:, :8, 0].astype(int).tolist() == [
            [17, 265, 246, 121, 5, 161, 311, 241],
            [243, 318, 13, 347, 90, 38, 131, 361],
            [230, 96, 68, 357, 106, 279, 352, 202],
            [355, 127, 261, 173, 345, 177, 354, 137],
        ]

    def test_a_bootstrap_seeds_each_draw_once_and_no_default_rng(
            self, monkeypatch):
        # criterion 09 in chunks of about 70 draws: each chunk derives its
        # draws' states in one pass, and no draw builds its own generator
        data = self.criterion_09_shape()
        seeded = []
        substreams = inf._substreams

        def substreams_spy(seed, draws):
            seeded.append(list(draws))
            return substreams(seed, draws)

        def no_default_rng(*args, **kwargs):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(inf, "_substreams", substreams_spy)
        monkeypatch.setattr(np.random, "default_rng", no_default_rng)
        bootstrap_effects(data, VarSpec(lags=4), InstrumentSpec(1, 0.25),
                          TransmissionOrdering.identity(
                              ("ffr", "ygap", "infl", "pcom")),
                          "!ffr_0", BootstrapSpec(replications=500, seed=909),
                          20)
        assert len(seeded) > 1 and sum(seeded, []) == list(range(500))


class TestIndices:
    """``_indices``, one window of raw words per draw and Lemire's rule
    over the chunk, against numpy's ``integers`` bit for bit."""

    @staticmethod
    def windows(seed, draws, n, total):
        """The indices of ``total`` periods, drawn INDEX_ROWS at a time
        from the states that each window reads back."""
        states = inf._substreams(seed, draws)
        out = []
        for start in range(0, total, inf.INDEX_ROWS):
            size = min(inf.INDEX_ROWS, total - start)
            idx = inf._indices(states, n, size, more=start + size < total)
            out.append(idx[:, :size].astype(np.int64))
        return np.concatenate(out, axis=1)

    @pytest.mark.parametrize("n", [1, 256, 395, 396, 2047])
    def test_one_window_is_default_rngs_integers(self, n):
        got = self.windows(909, range(30), n, n)
        for r in range(30):
            want = np.random.default_rng((909, r)).integers(0, n, size=n)
            assert np.array_equal(got[r], want), r

    @pytest.mark.parametrize("n", [inf.INDEX_ROWS + 3, 4999])
    def test_windows_continue_from_the_states_read_back(self, n):
        states = inf._substreams(11, range(5))
        inf._indices(states, n, inf.INDEX_ROWS, more=True)
        for r, state in enumerate(states):
            rng = np.random.default_rng((11, r))
            rng.integers(0, n, size=inf.INDEX_ROWS)
            want = rng.bit_generator.state
            # no spare half word, so numpy's stale one is never read
            assert state["has_uint32"] == want["has_uint32"] == 0
            assert state["state"] == want["state"]
        got = self.windows(11, range(5), n, n)
        for r in range(5):
            want = np.random.default_rng((11, r)).integers(0, n, size=n)
            assert np.array_equal(got[r], want), r

    @pytest.mark.parametrize("total", [3, 50, 2 * inf.INDEX_ROWS + 5])
    def test_rejected_words_are_drawn_again(self, monkeypatch, total):
        # at n = 3 * 2**29, 2**32 mod n = 2**30: a quarter of the words
        # are rejected, so most draws, or all, go through integers, and
        # some leave a spare half word for their next window
        n = 3 * 2 ** 29
        fallbacks = []
        generator = np.random.Generator

        def spy(bits):
            fallbacks.append(bits)
            return generator(bits)

        monkeypatch.setattr(np.random, "Generator", spy)
        got = self.windows(5, range(40), n, total)
        assert fallbacks
        for r in range(40):
            want = np.random.default_rng((5, r)).integers(0, n, size=total)
            assert np.array_equal(got[r], want), r


class TestResamplingIndices:
    @pytest.mark.parametrize("n", [100, 396, 1000, 4999])
    @pytest.mark.parametrize("size", [inf.BLOCK_ROWS, inf.INDEX_ROWS])
    def test_block_draws_continue_the_one_call_stream(self, n, size):
        # _regenerate draws a draw's indices INDEX_ROWS at a time from one
        # generator; that equals one call for the whole sample because
        # the bit generator carries its spare 32 bits from call to call
        for r in range(3):
            whole = np.random.default_rng((11, r)).integers(0, n, size=n)
            rng = np.random.default_rng((11, r))
            blocks = [rng.integers(0, n, size=min(size, n - start))
                      for start in range(0, n, size)]
            assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("n", [2 * inf.BLOCK_ROWS + 3,
                                   4 * inf.BLOCK_ROWS + 3,
                                   inf.INDEX_ROWS + 3, 4999])
    def test_long_samples_are_simulate_var_on_one_call_indices(self, n):
        rng = np.random.default_rng(n)
        coefs = stable_var_coefs(rng, 2, 1)
        data = simulate_var(coefs, rng.normal(size=2),
                            rng.normal(size=(n, 2)), np.zeros((1, 2)))
        var = estimate_var_ols(data, 1)
        samples = regenerated(var, 3, range(3))
        for r in range(3):
            idx = np.random.default_rng((3, r)).integers(0, n, size=n)
            expected = simulate_var(var.coefs, var.intercept,
                                    var.residuals[idx], data[:1])
            assert np.array_equal(samples[r], expected)


class TestBootstrapEffects:
    def test_reproducible_bitwise(self):
        data = make_data(0)
        a = run(data, seed=13)
        b = run(data, seed=13)
        for kind in ("total", "channel", "complement"):
            assert np.array_equal(a.lower[kind], b.lower[kind])
            assert np.array_equal(a.upper[kind], b.upper[kind])
            assert np.array_equal(a.point[kind], b.point[kind])

    def test_chunk_size_does_not_change_bands(self, monkeypatch):
        # all 50 draws in one chunk, then one draw per chunk
        data = make_data(1)
        whole = run(data, seed=5)
        monkeypatch.setattr(inf, "CHUNK_BYTES", 1)
        single = run(data, seed=5)
        for kind in ("total", "channel", "complement"):
            assert np.array_equal(whole.lower[kind], single.lower[kind])
            assert np.array_equal(whole.upper[kind], single.upper[kind])

    def test_negative_horizon_is_rejected_before_the_condition(self):
        # the grid is checked first: "v2_0" would be outside 0..-3
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            bootstrap_effects(make_data(2), VarSpec(lags=1),
                              InstrumentSpec(normalize_on=1, impact=1.0),
                              ORDERING, "v2_0",
                              BootstrapSpec(replications=5, seed=1), -3)

    def test_single_replication_collapses(self):
        data = make_data(2)
        bands = run(data, reps=1)
        for kind in ("total", "channel", "complement"):
            assert np.array_equal(bands.lower[kind], bands.upper[kind])

    def test_point_is_full_sample_estimate(self):
        data = make_data(3)
        bands = run(data)
        var_table, _ = point_effects(
            estimate_var_ols(data, 1, True, ("v1", "v2")),
            InstrumentSpec(normalize_on=1, impact=1.0),
            ORDERING,
            "v2_0",
            H,
        )
        assert np.array_equal(bands.point["channel"], var_table.channel)

    @pytest.mark.parametrize("name", ["var4", "static", "no_intercept",
                                      "frozen"])
    def test_draw_kernel_is_the_point_estimate(self, name):
        # the stacked kernel of the draws, on a stack of one, against the
        # public single-shock route; a frozen normalisation reuses the
        # point estimate's own scale
        data, var_spec, ordering, cond, h, freeze = _policy_case(name)
        K = data.shape[1]
        names = tuple(ordering.labels[ordering.dest.index(i)] for i in range(K))
        var = estimate_var_ols(data, var_spec.lags, var_spec.intercept, names)
        ident = InstrumentSpec(2, 0.25)
        table, scale = point_effects(var, ident, ordering, cond, h)
        parsed = inf.parse_condition(cond, ordering.labels, K, h)
        total, channel, got_scale, code = inf._price(
            np.reshape(var.coefs, (1, var.p, K, K)), var.sigma_u[None], ident,
            ordering.dest, parsed.root, h, scale if freeze else None)
        assert code.tolist() == [0]
        assert got_scale[0] == scale
        assert np.array_equal(total[0], table.total.reshape(-1))
        assert np.array_equal(channel[0], table.channel.reshape(-1))

    def test_a_chunk_factors_each_matrix_once(self, monkeypatch):
        # one stacked Cholesky sweep of the chunk's Gram blocks (the
        # refit) and one of its permuted covariances (the triangular
        # form), each also inverting its factor; the impact column is
        # read off the covariance
        import tca.model
        import tca.system

        calls = []
        for module in (tca.model, tca.system):
            def spy(S, *rest, original=module.cholesky_sweep):
                calls.append(np.shape(S))
                return original(S, *rest)
            monkeypatch.setattr(module, "cholesky_sweep", spy)
        var = estimate_var_ols(make_data(12), 1, True, ("v1", "v2"))
        root = inf.parse_condition("v2_0", ORDERING.labels, 2, H).root
        calls.clear()
        _, _, code = _draw_effects(inf._Resampling(var), InstrumentSpec(1, 1.0),
                                   ORDERING.dest, root, H, None, 5, range(6))
        assert code.tolist() == [0] * 6
        assert calls == [(6, 3, 3), (6, 2, 2)]

    def test_a_chunk_calls_no_lapack_inverse_to_refit_or_triangularise(
            self, monkeypatch):
        # each Cholesky factor's inverse comes from its own column sweep;
        # numpy's inverse is left to the evaluator's solves
        inside, calls = [], []
        inv = np.linalg.inv

        def spy_inv(a):
            calls.append(tuple(inside))
            return inv(a)

        def phase(name, fn):
            def wrapped(*args):
                inside.append(name)
                try:
                    return fn(*args)
                finally:
                    inside.pop()
            return wrapped

        monkeypatch.setattr(np.linalg, "inv", spy_inv)
        monkeypatch.setattr(inf, "_fit", phase("refit", inf._fit))
        monkeypatch.setattr(inf, "_reduced_form",
                            phase("triangular form", inf._reduced_form))
        data = TestSubstreams.criterion_09_shape()
        names = ("ffr", "ygap", "infl", "pcom")
        var = estimate_var_ols(data, 4, True, names)
        root = inf.parse_condition("!ffr_0", names, 4, 20).root
        _, _, code = _draw_effects(inf._Resampling(var), InstrumentSpec(1, 0.25),
                                   tuple(range(4)), root, 20, None, 909,
                                   range(40))
        assert code.tolist() == [0] * 40
        assert calls and all(phases == () for phases in calls), calls

    def test_draw_wise_decomposition_identity(self):
        # the complement bands of a condition coincide with the channel
        # bands of its negation: the identity holds draw by draw
        data = make_data(4)
        a = run(data, seed=11, cond="v2_0")
        b = run(data, seed=11, cond="!(v2_0)")
        assert np.max(np.abs(a.lower["complement"] - b.lower["channel"])) <= 1e-9
        assert np.max(np.abs(a.upper["complement"] - b.upper["channel"])) <= 1e-9

    def test_bands_widen_with_level(self):
        data = make_data(5)
        narrow = run(data, seed=3, level=0.60)
        wide = run(data, seed=3, level=0.95)
        assert np.all(wide.lower["channel"] <= narrow.lower["channel"] + 1e-12)
        assert np.all(narrow.upper["channel"] <= wide.upper["channel"] + 1e-12)

    def test_freeze_normalization_switch(self):
        data = make_data(6)
        renorm = run(data, seed=9)
        frozen = run(data, seed=9, freeze=True)
        assert np.array_equal(renorm.point["channel"], frozen.point["channel"])
        assert not np.array_equal(renorm.lower["channel"], frozen.lower["channel"])

    def test_unstable_bootstrap_raises(self, monkeypatch):
        data = make_data(7)
        original = inf._fit

        def flaky(G, n, k, *rest):  # every draw's refit is rank deficient
            coef, ssr, failed = original(G, n, k, *rest)
            return coef, ssr, np.ones_like(failed)

        monkeypatch.setattr(inf, "_fit", flaky)
        with pytest.raises(BootstrapUnstableError,
                           match="20 of 20 .*RankDeficientRegressorsError=20"):
            run(data, reps=20)

    def test_discarded_share_within_limit_is_reported(self, monkeypatch):
        data = make_data(8)
        monkeypatch.setattr(inf, "_fit", _fifth_draw_rank_deficient(inf._fit))
        bands = run(data, reps=40)
        assert bands.discarded == 1
        assert bands.discarded_by == {"RankDeficientRegressorsError": 1}

    def test_bands_are_quantiles_of_the_scaled_kept_draws(self, monkeypatch):
        # bit for bit against the band step over scaled copies of the
        # kept draws; a negative shock size reverses the order of the
        # draws, and one discarded draw leaves 39 of 40
        data, var_spec, ordering, cond, h, _ = _policy_case("var4")
        chunks = []
        original = inf._draw_effects

        def spy(*args, **kwargs):
            chunks.append(original(*args, **kwargs))
            return chunks[-1]

        monkeypatch.setattr(inf, "_draw_effects", spy)
        monkeypatch.setattr(inf, "_fit", _fifth_draw_rank_deficient(inf._fit))
        bands = bootstrap_effects(data, var_spec, InstrumentSpec(1, 0.25),
                                  ordering, cond,
                                  BootstrapSpec(replications=40, seed=17,
                                                level=0.68), h, xi=-2.5)
        assert bands.discarded == 1
        total, channel, code = (np.concatenate(part) for part in zip(*chunks))
        lower, upper = percentile_bands(total, channel, code == 0, -2.5, 0.68,
                                        (h + 1, data.shape[1]))
        for kind in ("total", "channel", "complement"):
            assert bands.lower[kind].tobytes() == lower[kind].tobytes()
            assert bands.upper[kind].tobytes() == upper[kind].tobytes()
        assert np.any(bands.lower["channel"] != bands.upper["channel"])

    def test_draw_past_the_condition_bound_is_a_rank_discard(self,
                                                             monkeypatch):
        # the 40 draws make one chunk, and in its first draw's
        # regenerated rows the second variable becomes the first plus a
        # little noise, as in the data's first row, (0, 0): beside the
        # intercept its lag regressor has condition number about 1.25 /
        # sqrt(eps n), and the unpatched rank rule of the refit discards
        # that draw alone
        data = make_data(10)
        assert not data[0].any()
        limit = 1.0 / np.sqrt(np.finfo(float).eps * (data.shape[0] - 1))
        original = inf._regenerate
        noise = np.random.default_rng(0)

        def near_collinear(*args, **kwargs):
            last = None
            for rows in original(*args, **kwargs):
                rows = rows.copy()
                if last is not None:  # the rows that end the block before
                    rows[0, :1] = last
                first = rows[0, 1:, 0]
                rows[0, 1:, 1] = first + 1.7 / (1.25 * limit) * (
                    np.std(first) * noise.normal(size=first.shape))
                # a copy: the refit shifts the yielded block in place
                last = rows[0, -1:].copy()
                yield rows

        monkeypatch.setattr(inf, "_regenerate", near_collinear)
        bands = run(data, reps=40)
        assert bands.discarded_by == {"RankDeficientRegressorsError": 1}

    @pytest.mark.parametrize(
        "chunk_bytes", [None, inf._chunk_memory(
            7, 799, 2, 1, H, inf._plan(Var(2), inf.TERM_CAP), True)[1]],
        ids=["default_chunks", "chunks_of_7"])
    def test_one_bad_draw_in_a_chunk_discards_that_draw_only(
            self, monkeypatch, chunk_bytes):
        # draw 9 gets a covariance that is not positive definite, negated
        # whole or only in its last variance (its first stays positive,
        # so only the factor of the permuted covariance can tell), or
        # regressors of deficient rank; either way it alone is dropped,
        # so the bands agree to the bit, and only the reason differs
        data = make_data(9)
        if chunk_bytes is not None:  # chunks of 7: draw 9 is in the second
            monkeypatch.setattr(inf, "CHUNK_BYTES", chunk_bytes)
        clean = run(data, reps=40)
        original = inf._fit

        def spoil(kind):
            seen = {"n": 0}

            def fit(G, n, k, *rest):
                coef, ssr, failed = original(G, n, k, *rest)
                first = seen["n"]
                seen["n"] += len(failed)
                if first <= 9 < seen["n"]:
                    ssr, failed = ssr.copy(), failed.copy()
                    if kind == "not_pd":
                        ssr[9 - first] *= -1.0
                    elif kind == "indefinite":
                        assert ssr[9 - first, 0, 0] > 0.0
                        ssr[9 - first, -1, -1] *= -1.0
                    else:
                        failed[9 - first] = 1
                return coef, ssr, failed
            return fit

        spoiled = {}
        for kind in ("not_pd", "indefinite", "rank"):
            monkeypatch.setattr(inf, "_fit", spoil(kind))
            spoiled[kind] = run(data, reps=40)
        not_pd, rank = spoiled["not_pd"], spoiled["rank"]
        assert clean.discarded_by == {}
        assert not_pd.discarded_by == {"NotPositiveDefiniteError": 1}
        assert spoiled["indefinite"].discarded_by == {
            "NotPositiveDefiniteError": 1}
        assert rank.discarded_by == {"RankDeficientRegressorsError": 1}
        for kind in ("total", "channel", "complement"):
            for bands in (not_pd, spoiled["indefinite"]):
                assert np.array_equal(bands.lower[kind], rank.lower[kind])
                assert np.array_equal(bands.upper[kind], rank.upper[kind])
        assert not np.array_equal(clean.lower["channel"], rank.lower["channel"])


def _fifth_draw_rank_deficient(original):
    """A ``_fit`` that marks the fifth draw of a bootstrap, and no other,
    rank deficient."""
    seen = {"n": 0}

    def fit(G, n, k, *rest):
        coef, ssr, failed = original(G, n, k, *rest)
        first = seen["n"]
        seen["n"] += len(failed)
        if first <= 4 < seen["n"]:
            failed = failed.copy()
            failed[4 - first] = 1
        return coef, ssr, failed
    return fit


class _FirstChunk(Exception):
    pass


def _first_chunk_peak(T, cond="!ffr_0"):
    """``(draws, bytes)``: the size of the first default chunk of
    criterion 09's bootstrap on T observations, priced for ``cond``, and
    the traced peak of the memory its regeneration, refit and pricing
    allocate."""
    rng = np.random.default_rng(9)
    coefs = stable_var_coefs(rng, 4, 4, radius=0.6)
    data = simulate_var(coefs, None, rng.normal(size=(T, 4)), np.zeros((4, 4)))
    original = inf._draw_effects
    seen = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            original(*args, **kwargs)
            seen.append((len(args[-1]), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        raise _FirstChunk

    with pytest.MonkeyPatch.context() as patch, pytest.raises(_FirstChunk):
        patch.setattr(inf, "_draw_effects", traced)
        bootstrap_effects(data, VarSpec(lags=4), InstrumentSpec(1, 0.25),
                          TransmissionOrdering.identity(
                              ("ffr", "ygap", "infl", "pcom")),
                          cond, BootstrapSpec(replications=500, seed=909), 20)
    return seen[0]


class TestPercentiles:
    @pytest.mark.parametrize("R", [1, 2, 37, 499, 500])
    @pytest.mark.parametrize("level", [0.68, 0.9, 0.95])
    def test_bands_are_numpys_quantiles_to_the_bit(self, R, level):
        # draws scaled by a negative shock size, a column that holds a
        # NaN and a constant column
        rng = np.random.default_rng(R)
        draws = -2.5 * rng.standard_t(3, size=(R, 12))
        draws[rng.integers(R), 5] = np.nan
        draws[:, 9] = draws[0, 9]
        q = [(1.0 - level) / 2.0, (1.0 + level) / 2.0]
        want = np.quantile(draws, q, axis=0)
        got = inf._percentiles(draws.copy(), q)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[:, 5]).all()

    def test_stacked_cells_and_the_draws_sorted_in_place(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(size=(101, 3, 4))
        want = np.quantile(draws, [0.05, 0.95], axis=0)
        got = inf._percentiles(draws, [0.05, 0.95])
        assert got.shape == (2, 3, 4) and got.tobytes() == want.tobytes()
        assert np.all(np.diff(draws, axis=0) >= 0.0)


class TestChunkMemory:
    def test_a_default_chunk_stays_within_its_budget(self):
        # criterion 09's shape: about 170 draws a chunk, each regenerated
        # in two block buffers and refitted without a design array
        draws, peak = _first_chunk_peak(400)
        assert 167 <= draws <= 180
        assert peak <= 2 * 2 ** 20, peak

    @pytest.mark.parametrize("cond", [
        any_horizon("ygap", range(21)),
        f"({any_horizon('ygap', range(21))}) & "
        f"!({any_horizon('infl', range(21))})",
    ], ids=["21_literals", "42_literals"])
    def test_pricing_many_literals_stays_within_the_budget(self, cond):
        # the evaluator's solve columns and path-sum solves, counted by
        # _chunk_memory, take fewer draws a chunk
        draws, peak = _first_chunk_peak(400, cond)
        assert draws < 70
        assert peak <= 1.1 * inf.CHUNK_BYTES, (draws, peak)

    def test_peak_does_not_grow_with_the_sample(self):
        # past INDEX_ROWS periods a chunk holds the same arrays at any T,
        # and they fit its CHUNK_BYTES, give or take the temporaries
        short = _first_chunk_peak(4_000)
        long = _first_chunk_peak(20_000)
        assert short[0] == long[0]
        assert abs(long[1] - short[1]) <= 0.05 * short[1], (short, long)
        assert long[1] <= 1.1 * inf.CHUNK_BYTES, long


class TestWorkspace:
    @staticmethod
    def traced_chunks(data, cond="!ffr_0", replications=500, seed=909):
        """``[(draws, traced peak, workspace bytes)]`` of each chunk of
        criterion 09's bootstrap on ``data``, each chunk traced alone."""
        original = inf._draw_effects
        seen = []

        def traced(sample, *args):
            tracemalloc.start()
            try:
                result = original(sample, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            seen.append((len(args[-1]), peak, sample.workspace.buf.nbytes))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inf, "_draw_effects", traced)
            bootstrap_effects(data, VarSpec(lags=4), InstrumentSpec(1, 0.25),
                              TransmissionOrdering.identity(
                                  ("ffr", "ygap", "infl", "pcom")),
                              cond, BootstrapSpec(replications=replications,
                                                  seed=seed), 20)
        return seen

    def test_later_chunks_allocate_little_outside_the_workspace(self):
        # the first chunk allocates the workspace, so its traced peak
        # holds it; the second carves its large arrays from it, and
        # allocates only small and bounded ones beside it
        seen = self.traced_chunks(TestSubstreams.criterion_09_shape())
        assert [draws for draws, _, _ in seen] == [167, 167, 166]
        (_, first, workspace), (_, second, same) = seen[:2]
        assert same == workspace
        assert workspace < first <= 2 * 2 ** 20
        assert second <= 256 * 2 ** 10, second

    @pytest.mark.parametrize("K,p,T,intercept,h,cond,chunk", [
        (4, 4, 400, True, 20, "!ffr_0", 12),
        (4, 4, 400, True, 20, any_horizon("v1", range(21)), 12),
        (4, 4, 2_100, False, 5, "v1_1 | v2_2", 12),
        (2, 1, 60, True, 4, "v1_1", 12),
        (3, 0, 130, True, 0, "v1_0", 12),
        (6, 0, 500, True, 3, "!v1_1", 12),
        (5, 6, 700, True, 8, "v1_1 & !v2_2", 12),
        (30, 1, 300, True, 2, "v1_1", 12),
        # criterion 09's shape in default chunks: 1, 21 and 42 literals,
        # and the long samples
        (4, 4, 400, True, 20, "!ffr_0", None),
        (4, 4, 400, True, 20, any_horizon("v1", range(21)), None),
        (4, 4, 400, True, 20, f"({any_horizon('v1', range(21))}) & "
                              f"!({any_horizon('v2', range(21))})", None),
        (4, 4, 4_000, True, 20, "!ffr_0", None),
        (4, 4, 20_000, True, 20, "!ffr_0", None),
    ])
    def test_every_array_of_a_chunk_fits_its_workspace(self, K, p, T,
                                                       intercept, h, cond,
                                                       chunk):
        # _chunk_memory sizes the workspace for the most that a chunk
        # takes at once, so no take falls back to its own array; and its
        # bytes bound the traced peak of the first chunk from above, by
        # at most 15% in chunks of the default size
        rng = np.random.default_rng(K + 10 * p)
        coefs = stable_var_coefs(rng, K, p) if p else []
        data = simulate_var(coefs, rng.normal(size=K),
                            rng.normal(size=(T, K)), np.zeros((p, K)))
        names = ("ffr",) + tuple(f"v{i}" for i in range(1, K))
        original = inf._draw_effects
        seen, chunks = [], []

        def spy(sample, *args):
            if not seen:  # the first chunk is traced
                tracemalloc.start()
            try:
                result = original(sample, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            seen.append((sample.workspace.peak, len(sample.workspace.buf)))
            chunks.append((len(args[-1]), peak))
            if chunk is None and len(seen) == 2:  # the next reuses its
                raise _FirstChunk                    # workspace: stop here
            return result

        parsed = (inf.parse_condition(cond, names, K, h)
                  if isinstance(cond, str) else cond)
        plan = inf._plan(parsed.root, inf.TERM_CAP)
        stop = (pytest.raises(_FirstChunk) if chunk is None
                else contextlib.nullcontext())
        with pytest.MonkeyPatch.context() as patch, stop:
            patch.setattr(inf, "_draw_effects", spy)
            if chunk is not None:
                patch.setattr(inf, "CHUNK_BYTES", inf._chunk_memory(
                    chunk, T, K, p, h, plan, intercept)[1])
            bootstrap_effects(data, VarSpec(lags=p, intercept=intercept),
                              InstrumentSpec(1, 0.25),
                              TransmissionOrdering.identity(names), cond,
                              BootstrapSpec(replications=30 if chunk else 500,
                                            seed=2), h)
        assert len(seen) > 1
        assert all(peak <= floats for peak, floats in seen), seen
        draws, traced = chunks[0]
        modelled = inf._chunk_memory(draws, T, K, p, h, plan, intercept)[1]
        assert traced <= modelled, (draws, traced, modelled)
        if chunk is None:
            assert modelled <= 1.15 * traced, (draws, traced, modelled)
        else:  # every chunk ran, the last one partial
            assert draws == chunk and sum(d for d, _ in chunks) == 30

    def test_concurrent_bootstraps_keep_their_bands(self):
        # each call owns its workspace: two threads that run criterion
        # 09's bootstrap at once get the bands of each call run alone
        import threading

        data = TestSubstreams.criterion_09_shape()

        def bands(seed):
            return bootstrap_effects(
                data, VarSpec(lags=4), InstrumentSpec(1, 0.25),
                TransmissionOrdering.identity(("ffr", "ygap", "infl", "pcom")),
                any_horizon("ygap", range(21)),
                BootstrapSpec(replications=100, seed=seed), 20)

        alone = {seed: bands(seed) for seed in (31, 32)}
        together = {}
        start = threading.Barrier(2)

        def run(seed):
            start.wait()
            together[seed] = bands(seed)

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in alone]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for seed, want in alone.items():
            for part in ("lower", "upper"):
                for kind in ("total", "channel", "complement"):
                    got = getattr(together[seed], part)[kind]
                    assert got.tobytes() == getattr(want, part)[kind].tobytes()


def _policy_case(name):
    """Data, settings and condition of a chunk-invariance case."""
    rng = np.random.default_rng(4040)
    if name == "static":  # p = 0 and h = 0: the static recursive DGP
        A0inv = np.linalg.inv(np.array([[1.0, 0.0, 0.0], [-0.5, 1.0, 0.0],
                                        [-0.8, -1.5, 1.0]]))
        data = rng.normal(size=(400, 3)) @ A0inv.T
        ordering = TransmissionOrdering.from_names(("x", "pi", "i"),
                                                   ("x", "i", "pi"))
        return data, VarSpec(lags=0), ordering, "pi_0", 0, False
    coefs = stable_var_coefs(rng, 4, 4, radius=0.6)
    data = simulate_var(coefs, rng.normal(size=4) if name != "no_intercept"
                        else None, rng.normal(size=(300, 4)), np.zeros((4, 4)))
    if name == "levels":  # an I(1) VAR with drift, fitted in levels
        data = np.cumsum(data, axis=0)
    names = ("ffr", "ygap", "infl", "pcom")
    ordering = TransmissionOrdering.from_names(names,
                                               ("ffr", "pcom", "infl", "ygap"))
    spec = VarSpec(lags=4, intercept=name != "no_intercept")
    if name == "any_horizon":  # absorbing states: one per horizon
        return data, spec, ordering, any_horizon("ygap", range(21)), 20, False
    cond = "!ffr_0 & (pcom_1 | infl_2)"
    return data, spec, ordering, cond, 3, name == "frozen"


class TestChunking:
    @pytest.mark.parametrize("name", ["var4", "frozen", "static",
                                      "no_intercept", "any_horizon"])
    def test_chunk_size_does_not_change_bands(self, monkeypatch, name):
        data, var_spec, ordering, cond, h, freeze = _policy_case(name)
        p, K = var_spec.lags, data.shape[1]
        n = data.shape[0] - p
        plan = inf._plan(inf.parse_condition(cond, ordering.labels, K, h).root,
                         inf.TERM_CAP)
        sizes = []
        original = inf._draw_effects

        def spy(*args, **kwargs):
            sizes.append(len(args[-1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(inf, "_draw_effects", spy)
        runs = {}
        for chunk in (None, 1, 7):  # the default first
            if chunk is not None:
                monkeypatch.setattr(inf, "CHUNK_BYTES", inf._chunk_memory(
                    chunk, n, K, p, h, plan, var_spec.intercept)[1])
            sizes.clear()
            runs[chunk] = bootstrap_effects(
                data, var_spec, InstrumentSpec(normalize_on=1, impact=0.25),
                ordering, cond,
                BootstrapSpec(replications=30, seed=17,
                              freeze_normalization=freeze), h)
            assert sizes == ([30] if chunk is None else
                             [min(chunk, 30 - s) for s in range(0, 30, chunk)])
        for chunk in (1, 7):
            for part in ("lower", "upper"):
                for kind in ("total", "channel", "complement"):
                    a = getattr(runs[chunk], part)[kind]
                    b = getattr(runs[None], part)[kind]
                    assert a.tobytes() == b.tobytes()
        assert runs[None].discarded == 0

    @pytest.mark.parametrize("name", ["var4", "frozen", "no_intercept",
                                      "levels"])
    def test_each_draw_is_its_own_point_estimate(self, name):
        # the stacked refit of a draw against estimate_var_ols plus
        # point_effects on the same regenerated sample
        data, var_spec, ordering, cond, h, freeze = _policy_case(name)
        names = tuple(ordering.labels[ordering.dest.index(i)]
                      for i in range(data.shape[1]))
        ident = InstrumentSpec(normalize_on=1, impact=0.25)
        var = estimate_var_ols(data, var_spec.lags, var_spec.intercept, names)
        _, full_scale = point_effects(var, ident, ordering, cond, h)
        override = full_scale if freeze else None
        parsed = inf.parse_condition(cond, ordering.labels, var.K, h)
        draws = range(3, 15)
        total, channel, code = _draw_effects(
            inf._Resampling(var), ident, ordering.dest, parsed.root, h,
            override, 23, draws)
        samples = regenerated(var, 23, draws)
        assert np.all(code == 0)
        for r in range(len(draws)):
            refit = estimate_var_ols(samples[r], var_spec.lags,
                                     var_spec.intercept, names)
            if override is None:
                table, _ = point_effects(refit, ident, ordering, parsed, h)
            else:  # the draw's own column under the full-sample scale
                col = identify_internal_instrument(refit, 1, 0.25)
                table = transmission_effect(reconstruct_from_single_shock(
                    refit, ordering, col.phi / col.scale * override, h), parsed)
            for got, want in ((total[r], table.total),
                              (channel[r], table.channel)):
                want = want.reshape(-1)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-10 * scale


class TestStaticDgpClosedForms:
    def test_point_estimates_near_closed_forms(self):
        # static recursive DGP: the first variable moves one-for-one
        # with the shock, so the instrument route recovers the analytic
        # through-inflation split up to sampling error
        a2, a3, a4 = 0.5, 0.8, 1.5
        A0 = np.array([[1.0, 0.0, 0.0], [-a2, 1.0, 0.0], [-a3, -a4, 1.0]])
        A0inv = np.linalg.inv(A0)
        rng = np.random.default_rng(2718)
        data = rng.normal(size=(4000, 3)) @ A0inv.T
        ordering = TransmissionOrdering.identity(("x", "pi", "i"))
        bands = bootstrap_effects(
            data,
            VarSpec(lags=0),
            InstrumentSpec(normalize_on=1, impact=1.0),
            ordering,
            "pi_0",
            BootstrapSpec(replications=500, seed=31, level=0.90),
            0,
        )
        indirect, direct = a2 * a4, a3
        assert abs(bands.point["channel"][0, 2] - indirect) < 0.1
        assert abs(bands.point["complement"][0, 2] - direct) < 0.1
        assert bands.lower["channel"][0, 2] < indirect < bands.upper["channel"][0, 2]


@pytest.mark.slow
class TestCoverage:
    def test_percentile_interval_coverage(self):
        """Monte Carlo check: 90% intervals for the through-v2 channel
        cover the data-generating value in 82..96% of worlds."""
        h = 2
        sf = make_systems_form(MODEL, ORDERING, h)
        truth = transmission_effect(sf, "v2_0", shock=1).cell("channel", 2, 2)

        def world(w):
            rng = np.random.default_rng((555, w))
            eps = rng.normal(size=(5000, 2))
            data = simulate_var(
                [A0INV @ A1], None, eps @ A0INV.T, np.zeros((1, 2))
            )
            bands = bootstrap_effects(
                data,
                VarSpec(lags=1),
                InstrumentSpec(normalize_on=1, impact=1.0),
                ORDERING,
                "v2_0",
                BootstrapSpec(replications=500, seed=1000 + w, level=0.90),
                h,
            )
            return (
                bands.lower["channel"][2, 1]
                <= truth
                <= bands.upper["channel"][2, 1]
            )

        # in sequence: the bootstrap runs on one thread, and a pool of
        # threads ran these worlds slower than a plain loop
        hits = [world(w) for w in range(200)]
        coverage = float(np.mean(hits))
        assert 0.82 <= coverage <= 0.96

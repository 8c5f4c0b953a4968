import numpy as np
import pytest
from concurrent.futures import ThreadPoolExecutor

from conftest import stable_var_coefs
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


def regenerated(var, seed, draws):
    """The samples ``_regenerate`` yields block by block, joined."""
    blocks = list(_regenerate(var, seed, draws))
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
        # one stacked Cholesky call of the chunk's Gram blocks (the
        # refit) and one of its permuted covariances (the triangular
        # form); the impact column is read off the covariance
        import tca.model
        import tca.system

        calls = []
        for module in (tca.model, tca.system):
            def spy(S, original=module.cholesky_lower):
                calls.append(np.shape(S))
                return original(S)
            monkeypatch.setattr(module, "cholesky_lower", spy)
        var = estimate_var_ols(make_data(12), 1, True, ("v1", "v2"))
        root = inf.parse_condition("v2_0", ORDERING.labels, 2, H).root
        calls.clear()
        _, _, code = _draw_effects(var, InstrumentSpec(1, 1.0), ORDERING.dest,
                                   root, H, None, 5, range(6))
        assert code.tolist() == [0] * 6
        assert calls == [(6, 3, 3), (6, 2, 2)]

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

        def flaky(XY, k):  # every draw's refit is rank deficient
            coef, ssr, failed = original(XY, k)
            return coef, ssr, np.ones_like(failed)

        monkeypatch.setattr(inf, "_fit", flaky)
        with pytest.raises(BootstrapUnstableError,
                           match="20 of 20 .*RankDeficientRegressorsError=20"):
            run(data, reps=20)

    def test_discarded_share_within_limit_is_reported(self, monkeypatch):
        data = make_data(8)
        original = inf._fit
        seen = {"n": 0}

        def sometimes(XY, k):  # exactly one degenerate draw, the fifth
            coef, ssr, failed = original(XY, k)
            first = seen["n"]
            seen["n"] += len(failed)
            if first <= 4 < seen["n"]:
                failed = failed.copy()
                failed[4 - first] = 1
            return coef, ssr, failed

        monkeypatch.setattr(inf, "_fit", sometimes)
        bands = run(data, reps=40)
        assert bands.discarded == 1
        assert bands.discarded_by == {"RankDeficientRegressorsError": 1}

    def test_draw_past_the_condition_bound_is_a_rank_discard(self,
                                                             monkeypatch):
        # the 40 draws make one chunk, and its first draw's second lag
        # regressor becomes the first plus a little noise, condition
        # number about 1.25 / sqrt(eps n); the unpatched rank rule of the
        # refit discards that draw alone
        data = make_data(10)
        limit = 1.0 / np.sqrt(np.finfo(float).eps * (data.shape[0] - 1))
        original = inf._lagged_design
        noise = np.random.default_rng(0)

        def near_collinear(*args):
            XY = original(*args)
            first = XY[0, :, 1]
            XY[0, :, 2] = first + 1.7 / (1.25 * limit) * np.std(first) * (
                noise.normal(size=first.shape))
            return XY

        monkeypatch.setattr(inf, "_lagged_design", near_collinear)
        bands = run(data, reps=40)
        assert bands.discarded_by == {"RankDeficientRegressorsError": 1}

    @pytest.mark.parametrize("chunk_bytes", [None, 7 * (4 * 799 + 8 * 256 * 5)],
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

            def fit(XY, k):
                coef, ssr, failed = original(XY, k)
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
    cond = "!ffr_0 & (pcom_1 | infl_2)"
    return data, spec, ordering, cond, 3, name == "frozen"


class TestChunking:
    @pytest.mark.parametrize("name", ["var4", "frozen", "static",
                                      "no_intercept"])
    def test_chunk_size_does_not_change_bands(self, monkeypatch, name):
        data, var_spec, ordering, cond, h, freeze = _policy_case(name)
        p, K = var_spec.lags, data.shape[1]
        n = data.shape[0] - p
        draw_bytes = 4 * n + 8 * min(n, inf.BLOCK_ROWS) * (
            int(var_spec.intercept) + K * p + K)
        sizes = []
        original = inf._draw_effects

        def spy(*args):
            sizes.append(len(args[-1]))
            return original(*args)

        monkeypatch.setattr(inf, "_draw_effects", spy)
        runs = {}
        for chunk in (None, 1, 7):  # the default first
            if chunk is not None:
                monkeypatch.setattr(inf, "CHUNK_BYTES", chunk * draw_bytes)
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
            var, ident, ordering.dest, parsed.root, h, override, 23, draws)
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

        with ThreadPoolExecutor(max_workers=2) as pool:
            hits = list(pool.map(world, range(200)))
        coverage = float(np.mean(hits))
        assert 0.82 <= coverage <= 0.96

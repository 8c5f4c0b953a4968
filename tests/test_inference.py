import numpy as np
import pytest
from concurrent.futures import ThreadPoolExecutor

from conftest import stable_var_coefs
from tca import (
    TransmissionOrdering,
    estimate_var_ols,
    VarmaModel,
    make_systems_form,
    simulate_var,
    transmission_effect,
)
from tca.errors import BootstrapUnstableError, RankDeficientRegressorsError
from tca.inference import (
    BootstrapSpec,
    InstrumentSpec,
    VarSpec,
    _resample_and_regenerate,
    bootstrap_effects,
    n_threads,
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


class TestNThreads:
    def test_cap_and_default(self, monkeypatch):
        monkeypatch.setenv("TCA_THREADS", "1")
        assert n_threads() == 1
        monkeypatch.delenv("TCA_THREADS")
        assert n_threads() >= 1

    @pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
    def test_invalid_value_raises(self, monkeypatch, value):
        monkeypatch.setenv("TCA_THREADS", value)
        with pytest.raises(ValueError, match=repr(value)):
            n_threads()


class TestRegeneration:
    @pytest.mark.parametrize("K,p", [(2, 1), (3, 2), (4, 4)])
    def test_each_draw_is_simulate_var_on_its_residuals(self, K, p):
        rng = np.random.default_rng(10 * K + p)
        coefs = stable_var_coefs(rng, K, p)
        data = simulate_var(coefs, rng.normal(size=K),
                            rng.normal(size=(300, K)), np.zeros((p, K)))
        var = estimate_var_ols(data, p)
        spec = BootstrapSpec(replications=6, seed=11)
        samples = _resample_and_regenerate(var, spec)
        n = data.shape[0] - p
        for r in range(spec.replications):
            idx = np.random.default_rng((spec.seed, r)).integers(0, n, size=n)
            expected = simulate_var(var.coefs, var.intercept,
                                    var.residuals[idx], data[:p])
            # one recursion, but a batch of draws multiplies through BLAS
            # gemm and a single sample through gemv, whose roundings can
            # differ in the last bit (they do here at K = 4)
            gap = np.max(np.abs(samples[r] - expected))
            assert gap <= 1e-15 * np.max(np.abs(expected))


class TestBootstrapEffects:
    def test_reproducible_bitwise(self):
        data = make_data(0)
        a = run(data, seed=13)
        b = run(data, seed=13)
        for kind in ("total", "channel", "complement"):
            assert np.array_equal(a.lower[kind], b.lower[kind])
            assert np.array_equal(a.upper[kind], b.upper[kind])
            assert np.array_equal(a.point[kind], b.point[kind])

    def test_thread_count_does_not_change_bands(self, monkeypatch):
        data = make_data(1)
        monkeypatch.setenv("TCA_THREADS", "1")
        serial = run(data, seed=5)
        monkeypatch.setenv("TCA_THREADS", "2")
        threaded = run(data, seed=5)
        for kind in ("total", "channel", "complement"):
            assert np.array_equal(serial.lower[kind], threaded.lower[kind])
            assert np.array_equal(serial.upper[kind], threaded.upper[kind])

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
        import tca.inference as inf

        data = make_data(7)
        original = inf.estimate_var_ols
        full_sample = {}

        def flaky(d, p, intercept, names=None):
            if not full_sample:
                full_sample["done"] = True
                return original(d, p, intercept, names)
            raise RankDeficientRegressorsError("forced degenerate draw")

        monkeypatch.setattr(inf, "estimate_var_ols", flaky)
        with pytest.raises(BootstrapUnstableError):
            run(data, reps=20)

    def test_discarded_share_within_limit_is_reported(self, monkeypatch):
        import tca.inference as inf

        data = make_data(8)
        original = inf.estimate_var_ols
        calls = {"n": 0}

        def sometimes(d, p, intercept, names=None):
            calls["n"] += 1
            if calls["n"] == 5:  # exactly one degenerate draw
                raise RankDeficientRegressorsError("forced")
            return original(d, p, intercept, names)

        monkeypatch.setattr(inf, "estimate_var_ols", sometimes)
        bands = run(data, reps=40)
        assert bands.discarded == 1


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
    def test_percentile_interval_coverage(self, monkeypatch):
        """Monte Carlo check: 90% intervals for the through-v2 channel
        cover the data-generating value in 82..96% of worlds."""
        monkeypatch.setenv("TCA_THREADS", "1")  # worlds parallelise instead
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

import tracemalloc

import numpy as np
import pytest

from conftest import stable_var_coefs, three_var_model
from oracles import (design_gram, lp_lstsq, ma_coefficients, var_lstsq,
                     var_recursion)
from tca import (
    ReducedVar,
    TransmissionOrdering,
    VarmaModel,
    cholesky_irfs,
    estimate_lp_irfs,
    estimate_var_ols,
    identify_internal_instrument,
    simulate_var,
)
from tca.errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficientRegressorsError,
    ZeroImpactError,
)
from tca.linalg import Workspace, cholesky_lower
from tca.model import (BLOCK_ROWS, _STEP_WIDTH, _block_maps,
                       _instrument_impact, _lag_gram, _step, _var_recursion)


def simulate(rng, coefs, T, intercept=None, chol=None):
    K = coefs[0].shape[0] if coefs else (chol.shape[0] if chol is not None else 1)
    innov = rng.normal(size=(T, K))
    if chol is not None:
        innov = innov @ chol.T
    p = len(coefs)
    init = np.zeros((max(p, 1), K))
    data = simulate_var(coefs, intercept, innov[p:] if p else innov, init[:p])
    return data if p else innov


class TestEstimateVarOls:
    def test_ar1_recovery(self):
        rng = np.random.default_rng(12345)
        data = simulate(rng, [np.array([[0.5]])], 10_000)
        var = estimate_var_ols(data, 1)
        assert abs(var.coefs[0][0, 0] - 0.5) < 0.03

    def test_white_noise_has_no_dynamics(self):
        rng = np.random.default_rng(99)
        data = rng.normal(size=(4000, 3))
        var = estimate_var_ols(data, 1)
        Y = data[1:]
        X = np.hstack([np.ones((Y.shape[0], 1)), data[:-1]])
        xtx_inv = np.linalg.inv(X.T @ X)
        for i in range(3):
            for j in range(3):
                se = np.sqrt(var.sigma_u[i, i] * xtx_inv[1 + j, 1 + j])
                assert abs(var.coefs[0][i, j]) < 3 * se

    def test_var1_known_companion(self):
        rng = np.random.default_rng(777)
        A1 = np.array([[0.4, 0.1], [0.0, 0.3]])
        data = simulate(rng, [A1], 20_000)
        var = estimate_var_ols(data, 1)
        assert np.max(np.abs(var.coefs[0] - A1)) < 0.03

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        data = simulate(rng, stable_var_coefs(rng, 3, 2), 2000)
        var = estimate_var_ols(data, 2)
        Y = data[2:]
        X = np.hstack([np.ones((Y.shape[0], 1)), data[1:-1], data[:-2]])
        cross = X.T @ var.residuals
        assert np.max(np.abs(cross)) <= 1e-8 * max(1.0, np.abs(data).max()) * len(Y)
        assert np.max(np.abs(var.residuals.mean(axis=0))) <= 1e-8 * np.abs(data).max()

    def test_rank_deficient_raises(self):
        data = np.zeros((50, 1))
        with pytest.raises(RankDeficientRegressorsError):
            estimate_var_ols(np.hstack([data, data]), 1)

    def test_zero_column_is_rank_deficient(self, rng):
        data = np.hstack([rng.normal(size=(50, 1)), np.zeros((50, 1))])
        with pytest.raises(RankDeficientRegressorsError,
                           match="rank test no zero column"):
            estimate_var_ols(data, 1, include_intercept=False)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_column_zero_but_in_its_last_rows_is_a_zero_column(self, p):
        # the second variable is 0 but in the last p rows, which straddle
        # the end of the first BLOCK_ROWS block: its lag-p regressor is
        # exactly zero, though the lag sums that the Gram matrix takes
        # for it, less their tail, can round to a little above 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = np.zeros((BLOCK_ROWS + p + 1, 2))
            data[:, 0] = rng.normal(size=len(data))
            data[-p:, 1] = rng.normal(size=p) * 10.0 ** rng.integers(-8, 1,
                                                                      size=p)
            with pytest.raises(RankDeficientRegressorsError,
                               match="rank test no zero column"):
                estimate_var_ols(data, p, include_intercept=False)

    def test_duplicated_column_is_rank_deficient(self, rng):
        x = rng.normal(size=(50, 1))
        with pytest.raises(RankDeficientRegressorsError,
                           match=r"rank test (positive Cholesky pivots"
                                 r"|sqrt\(k\) \|P\^-1\|_F)"):
            estimate_var_ols(np.hstack([x, rng.normal(size=(50, 1)), x]), 1)

    def test_constant_column_beside_the_intercept_is_rank_deficient(self,
                                                                     rng):
        # 2.0 has an exact mean, so the shifted column is exactly zero;
        # 0.1 leaves rounding beside a multiple of the intercept
        data = np.hstack([rng.normal(size=(50, 1)), np.full((50, 1), 2.0)])
        with pytest.raises(RankDeficientRegressorsError,
                           match="rank test no zero column"):
            estimate_var_ols(data, 1)
        data[:, 1] = 0.1
        with pytest.raises(RankDeficientRegressorsError,
                           match=r"rank test (no zero column|positive "
                                 r"Cholesky pivots|sqrt\(k\) \|P\^-1\|_F)"):
            estimate_var_ols(data, 1)

    @staticmethod
    def _near_collinear(kappa, T=400):
        """A VAR(1) sample of x and x + delta z whose shifted, column-scaled
        regressors have condition number about ``kappa``, and that
        condition number measured by SVD."""
        rng = np.random.default_rng(1)
        x, z = rng.normal(size=(2, T))
        data = np.column_stack([x, x + 1.7 / kappa * z])
        shifted = data - data.mean(axis=0)
        X = np.column_stack([np.ones(T - 1), shifted[:-1]])
        s = np.linalg.svd(X / np.linalg.norm(X, axis=0), compute_uv=False)
        return data, s[0] / s[-1]

    def test_design_past_the_condition_bound_is_rank_deficient(self):
        # the rule bounds kappa by sqrt(k) |P^-1|_F and rejects kappa
        # sqrt(eps n) >= 1: at n = 399 kappa >= 3.36e6
        limit = 1.0 / np.sqrt(np.finfo(float).eps * 399)
        data, kappa = self._near_collinear(1.25 * limit)
        assert limit < kappa < 1.5 * limit
        with pytest.raises(RankDeficientRegressorsError,
                           match=r"rank test sqrt\(k\) \|P\^-1\|_F "
                                 r"sqrt\(eps max\(n, k\)\) < 1"):
            estimate_var_ols(data, 1)

    @pytest.mark.parametrize("target", [1e3, 1e6])
    def test_design_inside_the_condition_bound_is_accepted(self, target):
        data, kappa = self._near_collinear(target)
        assert 0.5 * target < kappa < 1.5 * target
        var = estimate_var_ols(data, 1)
        c, lags, sigma_u = var_lstsq(data, 1)
        # the normal equations lose about kappa^2 eps of the relative error
        tol = 10 * kappa ** 2 * np.finfo(float).eps
        assert np.abs(var.coefs[0] - lags[0]).max() <= tol * np.abs(
            lags).max()

    def test_too_short_sample_rejected(self):
        with pytest.raises(ValueError):
            estimate_var_ols(np.random.default_rng(0).normal(size=(5, 2)), 2)

    @pytest.mark.parametrize("K, p", [(2, 2), (3, 2)])
    def test_fewer_rows_than_regressors_is_rank_deficient(self, K, p):
        # T = K p + p passes the length check but leaves T - p = K p rows
        # for K p + 1 regressors
        data = np.random.default_rng(0).normal(size=(K * p + p, K))
        with pytest.raises(RankDeficientRegressorsError,
                           match="rank test n >= k"):
            estimate_var_ols(data, p)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="variable names must be unique"):
            ReducedVar(var_names=("a", "a", "b"), coefs=(), sigma_u=np.eye(3))
        data = np.random.default_rng(5).normal(size=(60, 3))
        with pytest.raises(ValueError, match="variable names must be unique"):
            estimate_var_ols(data, 1, var_names=("a", "a", "b"))

    def test_dof_correction(self):
        rng = np.random.default_rng(3)
        data = simulate(rng, [np.array([[0.2]])], 100)
        var = estimate_var_ols(data, 1)
        T = 100
        resid = var.residuals
        expected = resid.T @ resid / (T - 1 - 1 - 1)
        assert np.allclose(var.sigma_u, expected)


class TestLagGram:
    """The Gram matrix summed from lagged cross-products against the one
    of the explicit regression rows (:func:`oracles.design_gram`)."""

    @pytest.mark.parametrize("rows", ["k-1", "block", "block+2",
                                      "2block+3"])
    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_matches_the_explicit_design(self, p, intercept, rows):
        # a stack of 3 samples that share their first p rows, in the
        # blocks the bootstrap regenerates; at block+2 and p = 4 the last
        # block has fewer targets than lags.  A sample of n <= 0 rows has
        # no Gram matrix, so n = k - 1 is at least 1
        K = 3
        k = int(intercept) + K * p
        n = {"k-1": max(k - 1, 1), "block": BLOCK_ROWS,
             "block+2": BLOCK_ROWS + 2, "2block+3": 2 * BLOCK_ROWS + 3}[rows]
        rng = np.random.default_rng(100 * p + n)
        data = 2.0 + rng.normal(size=(3, p + n, K)).cumsum(axis=1)
        data[1:, :p] = data[0, :p]
        mu = data[0].mean(axis=0) if intercept else np.zeros(K)

        def blocks():  # copies: _lag_gram shifts each block in place
            return (data[:, start : start + p + BLOCK_ROWS].copy()
                    for start in range(0, n, BLOCK_ROWS))

        G, got_n = _lag_gram(blocks(), p, intercept, mu)
        # the arrays carved from a workspace, as the bootstrap's, change
        # no bit
        spare = Workspace(2 ** 16)
        assert np.array_equal(_lag_gram(blocks(), p, intercept, mu, spare)[0],
                              G)
        assert got_n == n and G.shape == (3, k + K, k + K)
        for sample, gram in zip(data, G):
            want = design_gram(sample, p, intercept, mu)
            gap = np.abs(gram - want).max()
            assert gap <= 1e-13 * np.abs(want).max(), gap


class TestOlsAccuracy:
    """The normal equations against ``np.linalg.lstsq`` on the unshifted
    regressors; gaps are relative to max(1, max|reference|)."""

    @staticmethod
    def assert_close(got, want, tol):
        gap = np.abs(np.asarray(got) - want).max()
        assert gap <= tol * max(1.0, np.abs(want).max()), gap

    def check(self, data, p, intercept, tol):
        var = estimate_var_ols(data, p, intercept)
        c, lags, sigma_u = var_lstsq(data, p, intercept)
        self.assert_close(var.coefs, lags, tol)
        self.assert_close(var.sigma_u, sigma_u, tol)
        if intercept:
            self.assert_close(var.intercept, c, tol)
        else:
            assert var.intercept is None

    @pytest.mark.parametrize("seed", range(5))
    def test_policy_dgp(self, seed):
        # the criterion-09 VAR(4): kappa of the scaled regressors ~3
        rng = np.random.default_rng(seed)
        coefs = stable_var_coefs(rng, 4, 4, radius=0.6)
        S = np.linalg.cholesky(0.2 * np.eye(4)
                               + 0.8 * np.diag([1.0, 0.8, 0.6, 1.2]))
        data = simulate_var(coefs, None, rng.normal(size=(400, 4)) @ S.T,
                            np.zeros((4, 4)))
        self.check(data, 4, True, 1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_levels_with_drift(self, seed):
        # an I(1) VAR(4) with drift in levels: shifting the rows by their
        # mean keeps kappa of the scaled regressors near 1e2..1e4
        rng = np.random.default_rng(seed)
        coefs = stable_var_coefs(rng, 4, 3, radius=0.6)
        growth = simulate_var(coefs, rng.normal(size=4),
                              rng.normal(size=(400, 4)), np.zeros((3, 4)))
        self.check(np.cumsum(growth, axis=0), 4, True, 1e-7)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_intercept(self, seed):
        rng = np.random.default_rng(seed)
        coefs = stable_var_coefs(rng, 3, 2, radius=0.8)
        data = simulate_var(coefs, None, rng.normal(size=(300, 3)),
                            np.zeros((2, 3)))
        self.check(data, 2, False, 1e-10)

    @pytest.mark.parametrize("shock_var, before", [(1, []), (2, [1]),
                                                   (3, [2, 1])])
    def test_lp_designs(self, shock_var, before):
        rng = np.random.default_rng(shock_var)
        coefs = stable_var_coefs(rng, 3, 2, radius=0.8)
        data = simulate_var(coefs, rng.normal(size=3),
                            rng.normal(size=(500, 3)), np.zeros((2, 3)))
        lp = estimate_lp_irfs(data, shock_var, before, 6, lags=2)
        beta, gamma = lp_lstsq(data, shock_var, before, 6, 2)
        assert lp.flagged == ()
        self.assert_close(lp.beta, beta, 1e-10)
        self.assert_close(lp.gamma, gamma, 1e-10)


class TestIdentifyInternalInstrument:
    def test_pure_rescaling_under_unit_covariance(self):
        var = ReducedVar(var_names=("ffr", "y"), coefs=(), sigma_u=np.eye(2))
        col = identify_internal_instrument(var, normalize_on=1, impact=0.25, h=2)
        assert col.phi[0] == 0.25
        assert np.allclose(col.phi[1:], 0.0)

    def test_static_three_var_model_proportions(self):
        # the static recursive model cast as a VAR(0): the first
        # orthogonalised innovation is the demand disturbance
        a2, a3, a4 = 0.5, 0.8, 1.5
        A = three_var_model(0.0, a2, a3, a4).A0
        Ainv = np.linalg.inv(A)
        var = ReducedVar(
            var_names=("x", "pi", "i"), coefs=(), sigma_u=Ainv @ Ainv.T
        )
        col = identify_internal_instrument(var, normalize_on=1, impact=1.0, h=0)
        assert np.allclose(col.phi, [1.0, a2, a2 * a4 + a3], atol=1e-12)

    def test_equals_rescaled_cholesky_column(self, rng):
        coefs = stable_var_coefs(rng, 3, 2)
        S = rng.normal(size=(3, 3))
        sigma = S @ S.T + 0.5 * np.eye(3)
        var = ReducedVar(var_names=("a", "b", "c"), coefs=tuple(coefs),
                         sigma_u=sigma)
        h = 3
        col = identify_internal_instrument(var, normalize_on=2, impact=0.25, h=h)
        P = np.linalg.cholesky(sigma)
        theta = ma_coefficients(var, h)
        raw = np.concatenate([theta[t] @ P[:, 0] for t in range(h + 1)])
        expected = raw * (0.25 / raw[1])
        assert np.max(np.abs(col.phi - expected)) <= 1e-12

    def test_scale_equivariance(self, rng):
        coefs = stable_var_coefs(rng, 2, 1)
        var = ReducedVar(var_names=("a", "b"), coefs=tuple(coefs),
                         sigma_u=np.array([[1.0, 0.3], [0.3, 1.0]]))
        c1 = identify_internal_instrument(var, 1, impact=0.5, h=2)
        c2 = identify_internal_instrument(var, 1, impact=1.0, h=2)
        assert np.array_equal(2.0 * c1.phi, c2.phi)

    def test_zero_impact(self):
        sigma = np.array([[1.0, 0.0], [0.0, 1.0]])
        var = ReducedVar(var_names=("a", "b"), coefs=(), sigma_u=sigma)
        with pytest.raises(ZeroImpactError):
            identify_internal_instrument(var, normalize_on=2, impact=1.0)

    def test_negative_horizon_rejected(self):
        var = ReducedVar(var_names=("a", "b"), coefs=(), sigma_u=np.eye(2))
        with pytest.raises(ValueError, match="h must be >= 0"):
            identify_internal_instrument(var, 1, impact=1.0, h=-1)

    def test_indefinite_covariance_rejected(self):
        # the first variance is positive, so the impact column alone
        # looks fine; the check at the boundary factors the covariance
        var = ReducedVar(var_names=("a", "b"), coefs=(),
                         sigma_u=np.array([[1.0, 0.0], [0.0, -1e-12]]))
        with pytest.raises(NotPositiveDefiniteError):
            identify_internal_instrument(var, 1, impact=1.0)

    @pytest.mark.parametrize("batch", [(), (40,), (3, 5)])
    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_impact_column_is_the_first_cholesky_column(self, rng, batch, K):
        # read off the covariance, without a factorisation: LAPACK's
        # factor to 1e-15 relative, and the bits of cholesky_lower
        S = rng.normal(size=(*batch, K, K)) * rng.uniform(
            0.1, 10.0, size=(*batch, K, 1))
        sigma = S @ np.swapaxes(S, -1, -2) + 0.1 * np.eye(K)
        raw, _, _ = _instrument_impact(sigma, 1, 0.25)
        expected = np.linalg.cholesky(sigma)[..., :, 0]
        assert np.all(np.abs(raw - expected) <= 1e-15 * np.abs(expected))
        assert np.array_equal(raw, cholesky_lower(sigma)[0][..., :, 0])


class TestEstimateLpIrfs:
    def _dgp(self, rng, T):
        coefs = [np.array([[0.5, 0.1, 0.0], [0.2, 0.4, 0.1], [-0.1, 0.2, 0.3]])]
        S = np.array([[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [-0.2, 0.3, 0.8]])
        data = simulate(rng, coefs, T, chol=S)
        return coefs, S, data

    def test_unit_coefficient_on_own_impact(self, rng):
        _, _, data = self._dgp(rng, 2000)
        lp = estimate_lp_irfs(data, shock_var=1, ordered_before=[], horizons=0,
                              lags=1)
        assert abs(lp.beta[0, 0] - 1.0) <= 1e-8

    def test_converges_to_var_implied_irfs(self):
        rng = np.random.default_rng(42)
        coefs, S, data = self._dgp(rng, 50_000)
        H = 4
        lp = estimate_lp_irfs(data, shock_var=1, ordered_before=[], horizons=H,
                              lags=1)
        var = ReducedVar(var_names=("a", "b", "c"), coefs=tuple(coefs),
                         sigma_u=S @ S.T)
        theta = ma_coefficients(var, H)
        implied = np.stack([theta[t] @ S[:, 0] / S[0, 0] for t in range(H + 1)])
        assert np.max(np.abs(lp.beta - implied)) < 0.05

    def test_contemporaneous_controls_estimate_orthogonalised_ratio(self):
        rng = np.random.default_rng(4242)
        coefs, S, data = self._dgp(rng, 50_000)
        lp = estimate_lp_irfs(data, shock_var=2, ordered_before=[1], horizons=0,
                              lags=1)
        var = ReducedVar(var_names=("a", "b", "c"), coefs=tuple(coefs),
                         sigma_u=S @ S.T)
        pt = cholesky_irfs(var, TransmissionOrdering.identity(var.var_names), 0)
        assert abs(lp.gamma[0, 2] - pt[2, 1] / pt[1, 1]) < 0.05

    def test_lp_var_gap_shrinks_with_sample_size(self):
        gaps = []
        for T in (2_000, 20_000, 200_000):
            rng = np.random.default_rng(2024)  # fixed seed family
            coefs, S, data = self._dgp(rng, T)
            H = 3
            lp = estimate_lp_irfs(data, 1, [], H, lags=1)
            var = ReducedVar(var_names=("a", "b", "c"), coefs=tuple(coefs),
                             sigma_u=S @ S.T)
            theta = ma_coefficients(var, H)
            implied = np.stack(
                [theta[t] @ S[:, 0] / S[0, 0] for t in range(H + 1)]
            )
            gaps.append(np.max(np.abs(lp.beta - implied)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rank_deficient_horizon_flagged_not_dropped(self, rng):
        data = rng.normal(size=(300, 2))
        data = np.hstack([data, data[:, :1]])  # duplicated column
        lp = estimate_lp_irfs(data, shock_var=1, ordered_before=[2],
                              horizons=2, lags=1)
        # every horizon is flagged and keeps its (NaN) row in the grid
        assert lp.flagged == (0, 1, 2)
        assert lp.beta.shape == (3, 3) and lp.gamma.shape == (3, 3)
        assert np.isnan(lp.gamma).all() and np.isnan(lp.beta).all()

    def test_too_small_sample_rejected(self, rng):
        with pytest.raises(ValueError, match="too few"):
            estimate_lp_irfs(rng.normal(size=(20, 3)), 1, [], horizons=10,
                             lags=4)

    def test_negative_horizons_rejected(self, rng):
        with pytest.raises(ValueError, match="horizons must be >= 0"):
            estimate_lp_irfs(rng.normal(size=(200, 3)), 1, [], horizons=-1)

    def test_negative_lags_rejected(self, rng):
        with pytest.raises(ValueError, match="lags must be >= 0"):
            estimate_lp_irfs(rng.normal(size=(200, 3)), 1, [], horizons=2,
                             lags=-1)


class TestSimulateVar:
    def test_matches_manual_recursion(self, rng):
        A1 = np.array([[0.5, 0.1], [0.0, 0.4]])
        innov = rng.normal(size=(5, 2))
        data = simulate_var([A1], [0.2, -0.1], innov, np.zeros((1, 2)))
        y = np.zeros(2)
        for t in range(5):
            y = np.array([0.2, -0.1]) + A1 @ y + innov[t]
            assert np.allclose(data[t + 1], y)

    @pytest.mark.parametrize("coefs", [
        [np.zeros((2, 2)), np.zeros((3, 3))],  # K is 2, from the innovations
        [np.zeros((2, 2)), np.zeros((2, 3))],
    ])
    def test_coefficient_not_k_by_k_rejected(self, rng, coefs):
        with pytest.raises(DimensionMismatchError,
                           match=r"coefs\[1\] must be 2x2"):
            simulate_var(coefs, None, rng.normal(size=(5, 2)), np.zeros((2, 2)))

    def test_intercept_of_wrong_length_rejected(self, rng):
        with pytest.raises(DimensionMismatchError,
                           match="intercept must have length 2"):
            simulate_var([np.zeros((2, 2))], [0.1, 0.2, 0.3],
                         rng.normal(size=(5, 2)), np.zeros((1, 2)))


class TestVarRecursion:
    """The blocked recursion against the one-period-at-a-time reference."""

    def test_a_stack_in_a_workspace_allocates_no_buffers(self):
        # a bootstrap block of criterion 09's chunk: the output and the
        # step rows come from the workspace, and the step adds run on
        # contiguous copies, which need none of numpy's iteration buffers
        import tracemalloc

        rng = np.random.default_rng(5)
        coefs = stable_var_coefs(rng, 4, 4)
        shocks = rng.normal(size=(167, BLOCK_ROWS, 4))
        initial = rng.normal(size=(167, 4, 4))
        want = _var_recursion(coefs, None, shocks, initial)
        maps = _block_maps(coefs, 4, _step(4))  # built once per bootstrap
        workspace = Workspace(2 ** 18)
        tracemalloc.start()
        try:
            got = _var_recursion(coefs, None, shocks, initial, maps, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(got, workspace.buf)
        assert got.tobytes() == want.tobytes()
        assert peak <= 16 * 2 ** 10, peak

    @pytest.mark.parametrize("p", [0, 1, 2, 4, 17])
    @pytest.mark.parametrize("K", [1, 2, 4, 6])
    def test_matches_the_per_period_reference(self, K, p):
        # stable, near-unit-root and mildly explosive; sample lengths
        # around one step of 16 periods and past two BLOCK_ROWS blocks
        rng = np.random.default_rng(100 * K + p)
        for radius in (0.6, 0.99, 1.02) if p else (None,):
            coefs = stable_var_coefs(rng, K, p, radius) if p else []
            for n in (1, 15, 16, 17, 2 * BLOCK_ROWS + 3):
                for batch in ((), (3,), (2, 3)):
                    for c in (None, rng.normal(size=K)):
                        shocks = rng.normal(size=(*batch, n, K))
                        # one shared start for the 2-D batch
                        initial = rng.normal(
                            size=(p, K) if len(batch) == 2 else (*batch, p, K))
                        got = _var_recursion(coefs, c, shocks, initial)
                        want = var_recursion(coefs, c, shocks, initial)
                        assert got.shape == want.shape == (*batch, p + n, K)
                        scale = np.maximum(1.0, np.abs(want).max(
                            axis=(-2, -1), keepdims=True))
                        gap = np.abs(got - want) / scale
                        assert gap.max() <= 1e-12, (radius, n, batch, c)

    @pytest.mark.parametrize("K", [8, 16, 32, 65])
    def test_wide_vars_step_fewer_periods_and_match(self, K):
        # 8, 4, 2 and 1 periods per step
        assert _step(K) == max(1, _STEP_WIDTH // K)
        rng = np.random.default_rng(K)
        for p in (1, 3):
            coefs = stable_var_coefs(rng, K, p, 0.99)
            for n in (1, _step(K) + 1, 2 * BLOCK_ROWS + 3):
                c = rng.normal(size=K)
                shocks = rng.normal(size=(3, n, K))
                initial = rng.normal(size=(3, p, K))
                got = _var_recursion(coefs, c, shocks, initial)
                want = var_recursion(coefs, c, shocks, initial)
                scale = np.maximum(1.0, np.abs(want).max(
                    axis=(-2, -1), keepdims=True))
                assert (np.abs(got - want) / scale).max() <= 1e-12, (p, n)

    def test_memory_stays_within_a_few_lag_matrices_at_large_k(self):
        # a one-period impulse of a VAR(2) with K=200, as the point
        # estimate of a reduced-form VAR asks for; 16-period step maps
        # would take 8 (16 K)^2 bytes, 82 MB here
        K, p = 200, 2
        rng = np.random.default_rng(5)
        var = ReducedVar(var_names=[f"v{i}" for i in range(K)],
                         coefs=[0.3 / K * rng.normal(size=(K, K))
                                for _ in range(p)],
                         sigma_u=np.eye(K))
        tracemalloc.start()
        try:
            column = identify_internal_instrument(var, 1, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert column.phi.shape == (K,)
        assert peak <= 16 * 8 * p * K * K, peak

    @pytest.mark.parametrize("K,p", [(2, 1), (4, 4), (6, 17), (16, 2),
                                     (40, 1)])
    def test_each_sample_has_the_same_bits_in_any_stack(self, K, p):
        rng = np.random.default_rng(7 * K + p)
        coefs = stable_var_coefs(rng, K, p, 0.9)
        c = rng.normal(size=K)
        n = 2 * BLOCK_ROWS + 3
        shocks = rng.normal(size=(70, n, K))
        initial = rng.normal(size=(70, p, K))
        whole = _var_recursion(coefs, c, shocks, initial)
        for size in (1, 7):
            for start in range(0, 70, size):
                part = _var_recursion(coefs, c, shocks[start : start + size],
                                      initial[start : start + size])
                assert np.array_equal(part, whole[start : start + size])
        # BLOCK_ROWS periods per call, each from the last p rows of the one
        # before, as the bootstrap regenerates a sample
        rows, parts = initial, [initial]
        for start in range(0, n, BLOCK_ROWS):
            rows = _var_recursion(coefs, c,
                                  shocks[:, start : start + BLOCK_ROWS],
                                  rows[:, rows.shape[1] - p :])
            parts.append(rows[:, p:])
        assert np.array_equal(np.concatenate(parts, axis=1), whole)

import numpy as np
import pytest

from conftest import (
    companion_irfs,
    orderings_fixed_at,
    random_ordering,
    random_varma,
    three_var_model,
)
from oracles import dense_b, dense_solve, dense_toeplitz
from tca import (
    ReducedVar,
    TransmissionOrdering,
    VarmaModel,
    cholesky_irfs,
    irf_total,
    make_systems_form,
    reconstruct_from_single_shock,
)
from tca.errors import InconsistentNormalizationError, NotPositiveDefiniteError


def identity_ordering(model):
    return TransmissionOrdering.identity(model.var_names)


class TestMakeSystemsForm:
    def test_recursive_three_var_model(self):
        a2, a3, a4 = 0.5, 0.8, 1.5
        sf = make_systems_form(
            three_var_model(0.0, a2, a3, a4),
            TransmissionOrdering.identity(("x", "pi", "i")),
            0,
        )
        assert np.allclose(
            dense_b(sf), [[0, 0, 0], [a2, 0, 0], [a3, a4, 0]], atol=1e-12
        )
        assert np.allclose(sf.omega, np.eye(3), atol=1e-12)

    def test_non_recursive_closed_form_entries(self, rng):
        for _ in range(20):
            a1, a2, a3, a4 = rng.uniform(-2, 2, size=4)
            eta = 1 - a1 * a2 * a4 - a1 * a3
            if abs(eta) < 1e-2:
                continue
            sf = make_systems_form(
                three_var_model(a1, a2, a3, a4),
                TransmissionOrdering.identity(("x", "pi", "i")),
                0,
            )
            den2 = a1 ** 2 * (a4 ** 2 + 1) + 1
            B_expect = [
                [0.0, 0.0, 0.0],
                [((a1 ** 2 + 1) * a2 + a1 * a4 * (1 - a1 * a3)) / den2, 0, 0],
                [(a1 + a3) / (a1 ** 2 + 1), a4 / (a1 ** 2 + 1), 0],
            ]
            omega_expect = [
                [1 / eta, a1 * a4 / eta, a1 / eta],
                [-a1 * a4 / den2, (a1 ** 2 + 1) / den2, -(a1 ** 2) * a4 / den2],
                [-a1 / (a1 ** 2 + 1), 0.0, 1 / (a1 ** 2 + 1)],
            ]
            assert np.max(np.abs(dense_b(sf) - B_expect)) <= 1e-12
            assert np.max(np.abs(sf.omega - omega_expect)) <= 1e-12

    def test_static_orthonormal_system(self):
        m = VarmaModel(var_names=("a", "b"), A0=np.eye(2))
        sf = make_systems_form(m, identity_ordering(m), 2)
        assert np.array_equal(dense_b(sf), np.zeros((6, 6)))
        assert np.allclose(sf.omega, np.eye(6)[:, :2], atol=1e-14)

    def test_structural_zeros_are_exact(self, rng):
        m = random_varma(rng, K=3, ell=2, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 3)
        assert np.all(np.triu(dense_b(sf)) == 0.0)  # strictly lower, exact zeros
        # a time-0 shock loads horizons 0..q only (here q = 1)
        assert np.all(sf.omega[2 * sf.K :] == 0.0)
        assert np.all(np.any(sf.omega[: 2 * sf.K] != 0.0, axis=0))

    def test_index_map_round_trip(self, rng):
        m = random_varma(rng, K=4)
        sf = make_systems_form(m, identity_ordering(m), 3)
        for mth in range(1, sf.size + 1):
            r, t = sf.var_horizon(mth)
            assert sf.sys_index(r, t) == mth

    def test_large_system_builds_without_a_flag(self, rng):
        m = random_varma(rng, K=21, ell=1)
        sf = make_systems_form(m, identity_ordering(m), 200)
        assert sf.size == 201 * 21
        assert sf.B_blocks.shape == (2, 21, 21)
        assert sf.omega.shape == (201 * 21, 21)

    def test_horizon_over_memory_budget_raises_value_error(self, rng):
        m = random_varma(rng, K=3, ell=1)
        with pytest.raises(ValueError, match="budget"):
            make_systems_form(m, identity_ordering(m), 10 ** 9)
        with pytest.raises(ValueError, match="horizon"):
            make_systems_form(m, identity_ordering(m), -1)


class TestIrfTotal:
    def test_three_var_total(self):
        a1, a2, a3, a4 = 0.2, 0.5, 0.8, 1.5
        sf = make_systems_form(
            three_var_model(a1, a2, a3, a4),
            TransmissionOrdering.identity(("x", "pi", "i")),
            0,
        )
        eta = 1 - a1 * a2 * a4 - a1 * a3
        phi = irf_total(sf)
        assert abs(phi[2, 0] - (a2 * a4 + a3) / eta) <= 1e-12

    def test_zero_b_returns_omega(self, rng):
        m = VarmaModel(var_names=("a", "b"), A0=np.eye(2), Psi=(np.full((2, 2), 0.4),))
        sf = make_systems_form(m, identity_ordering(m), 1)
        assert np.allclose(irf_total(sf), sf.omega, atol=1e-14)

    def test_matches_companion_oracle(self, rng):
        for trial in range(8):
            m = random_varma(rng, K=3, ell=1, q=0)
            ordering = random_ordering(rng, m.var_names)
            sf = make_systems_form(m, ordering, 3)
            phi = irf_total(sf)
            theta = companion_irfs(m, 3)
            T = ordering.matrix()
            for t in range(4):
                block = phi[t * 3 : (t + 1) * 3, 0:3]
                assert np.max(np.abs(block - T @ theta[t])) <= 1e-10

    def test_varma_matches_companion_oracle(self, rng):
        m = random_varma(rng, K=3, ell=2, q=1)
        ordering = random_ordering(rng, m.var_names)
        sf = make_systems_form(m, ordering, 4)
        phi = irf_total(sf)
        theta = companion_irfs(m, 4)
        T = ordering.matrix()
        for t in range(5):
            block = phi[t * 3 : (t + 1) * 3, 0:3]
            assert np.max(np.abs(block - T @ theta[t])) <= 1e-10

    def test_consistency_identity(self, rng):
        m = random_varma(rng, K=3, ell=1, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
        phi = irf_total(sf)
        gap = (np.eye(sf.size) - dense_b(sf)) @ phi - sf.omega
        assert np.max(np.abs(gap)) <= 1e-10


class TestCholeskyIrfs:
    def test_recursive_model_is_self_orthogonal(self):
        m = three_var_model(0.0, 0.5, 0.8, 1.5)
        ordering = TransmissionOrdering.identity(m.var_names)
        sf = make_systems_form(m, ordering, 0)
        assert np.allclose(
            cholesky_irfs(m, ordering, 0), irf_total(sf), atol=1e-12
        )

    def test_non_recursive_ratio(self):
        a1, a2, a3, a4 = 0.2, 0.5, 0.8, 1.5
        m = three_var_model(a1, a2, a3, a4)
        pt = cholesky_irfs(m, TransmissionOrdering.identity(m.var_names), 0)
        assert abs(pt[2, 1] / pt[1, 1] - a4 / (1 + a1 ** 2)) <= 1e-12

    def test_lower_block_triangular(self, rng):
        # the first block column of the grid: the impact block is lower
        # triangular, and the full grid repeats the column shifted down
        m = random_varma(rng, K=3, ell=1, q=1)
        pt = cholesky_irfs(m, identity_ordering(m), 2)
        assert pt.shape == (9, 3)
        assert np.all(np.triu(pt[:3], 1) == 0.0)

    def test_reduced_var_route_matches_structural_route(self, rng):
        # a pure VAR: the reduced form carries the same information
        m = random_varma(rng, K=3, ell=2, q=0)
        ordering = random_ordering(rng, m.var_names)
        A0inv = np.linalg.inv(m.A0)
        reduced = ReducedVar(
            var_names=m.var_names,
            coefs=tuple(A0inv @ Ai for Ai in m.A),
            sigma_u=A0inv @ A0inv.T,
        )
        a = cholesky_irfs(m, ordering, 3)
        b = cholesky_irfs(reduced, ordering, 3)
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_cholesky_factor_convention(self):
        # impact block of the orthogonalised IRFs is the lower Cholesky
        # factor of the (permuted) innovation covariance, positive diagonal
        sigma = np.array([[2.0, 0.6], [0.6, 1.5]])
        reduced = ReducedVar(var_names=("a", "b"), coefs=(), sigma_u=sigma)
        ordering = TransmissionOrdering.from_names(("a", "b"), ("b", "a"))
        pt = cholesky_irfs(reduced, ordering, 0)
        perm = sigma[np.ix_([1, 0], [1, 0])]
        P = np.linalg.cholesky(perm)
        assert np.allclose(pt, P, atol=1e-12)
        assert np.all(np.diag(pt) > 0)

    def test_not_positive_definite(self):
        bad = ReducedVar(
            var_names=("a", "b"),
            coefs=(),
            sigma_u=np.array([[1.0, 1.0], [1.0, 1.0]]),
        )
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_irfs(bad, TransmissionOrdering.identity(("a", "b")), 1)


class TestReconstructFromSingleShock:
    def test_full_information_round_trip(self, rng):
        for trial in range(10):
            m = random_varma(rng, K=3, ell=1, q=1)
            ordering = random_ordering(rng, m.var_names)
            h = 2
            sf = make_systems_form(m, ordering, h)
            for shock in range(1, 4):
                impact_native = np.linalg.inv(m.A0)[:, shock - 1]
                sss = reconstruct_from_single_shock(m, ordering, impact_native, h)
                assert np.max(np.abs(sss.B_blocks - sf.B_blocks)) <= 1e-12
                assert np.max(np.abs(sss.omega[:, 0] - sf.omega[:, shock - 1])) <= 1e-12

    def test_reduced_var_route(self, rng):
        m = random_varma(rng, K=3, ell=2, q=0)
        ordering = random_ordering(rng, m.var_names)
        A0inv = np.linalg.inv(m.A0)
        reduced = ReducedVar(
            var_names=m.var_names,
            coefs=tuple(A0inv @ Ai for Ai in m.A),
            sigma_u=A0inv @ A0inv.T,
        )
        h = 3
        sf = make_systems_form(m, ordering, h)
        shock = 2
        sss = reconstruct_from_single_shock(
            reduced, ordering, A0inv[:, shock - 1], h
        )
        assert np.max(np.abs(sss.B_blocks - sf.B_blocks)) <= 1e-10
        assert np.max(np.abs(sss.omega[:, 0] - sf.omega[:, shock - 1])) <= 1e-10

    def test_orthonormal_contemporaneous_matrix(self):
        psi = np.array([[0.2, 0.1], [0.0, 0.3]])
        m = VarmaModel(var_names=("a", "b"), A0=np.eye(2), Psi=(psi,))
        ordering = TransmissionOrdering.identity(("a", "b"))
        sss = reconstruct_from_single_shock(m, ordering, [1.0, 0.0], 1)
        expected = np.concatenate([[1.0, 0.0], psi @ [1.0, 0.0]])
        assert np.allclose(sss.omega[:, 0], expected, atol=1e-12)

    def test_omega_keeps_the_time0_shock_columns(self, rng):
        m = random_varma(rng, K=3, ell=1, q=1)
        ordering = random_ordering(rng, m.var_names)
        h = 4
        sf = make_systems_form(m, ordering, h)
        assert sf.omega.shape == ((h + 1) * 3, 3)
        assert sf.shock_labels == ("eps[1]", "eps[2]", "eps[3]")
        sss = reconstruct_from_single_shock(
            m, ordering, np.linalg.inv(m.A0)[:, 1], h, shock_label="demand"
        )
        assert sss.omega.shape == ((h + 1) * 3, 1)
        assert sss.shock_labels == ("demand",)
        assert np.array_equal(sss.shock_column(), sss.omega[:, 0])

    def test_wrong_length_rejected(self, rng):
        m = random_varma(rng, K=3)
        with pytest.raises(InconsistentNormalizationError):
            reconstruct_from_single_shock(
                m, identity_ordering(m), np.ones(4), 1
            )

    def test_worked_example_decomposition_from_one_column(self):
        # only the demand-shock column is supplied; the downstream
        # direct/indirect split still matches the analytic forms
        from conftest import three_var_closed_forms
        from tca import transmission_effect

        a1, a2, a3, a4 = 0.2, 0.5, 0.8, 1.5
        m = three_var_model(a1, a2, a3, a4)
        ordering = TransmissionOrdering.identity(m.var_names)
        demand_col = np.linalg.inv(m.A0)[:, 0]
        sss = reconstruct_from_single_shock(m, ordering, demand_col, 0)
        table = transmission_effect(sss, "pi_0")
        _, indirect, direct = three_var_closed_forms(a1, a2, a3, a4)
        assert abs(table.cell("channel", 3, 0) - indirect) <= 1e-10
        assert abs(table.cell("complement", 3, 0) - direct) <= 1e-10


class TestInvarianceUnderReordering:
    """Entries of (B, Omega) and orthogonalised IRF columns only depend
    on which variables come before/after, not on the order within those
    groups."""

    def test_omega_rows_invariant(self, rng):
        for trial in range(30):
            m = random_varma(rng, K=4, ell=1, q=1)
            r = int(rng.integers(1, 5))
            base, other = orderings_fixed_at(rng, m.var_names, [r - 1])
            o1 = TransmissionOrdering.from_names(m.var_names, base)
            o2 = TransmissionOrdering.from_names(m.var_names, other)
            h = 2
            om1 = make_systems_form(m, o1, h).omega
            om2 = make_systems_form(m, o2, h).omega
            for t in range(h + 1):
                row = t * 4 + r - 1
                assert np.max(np.abs(om1[row] - om2[row])) <= 1e-10

    def test_b_entries_invariant(self, rng):
        for trial in range(30):
            m = random_varma(rng, K=5, ell=2, q=0)
            r, c = rng.choice(np.arange(1, 6), size=2, replace=False)
            base, other = orderings_fixed_at(
                rng, m.var_names, [int(r) - 1, int(c) - 1]
            )
            o1 = TransmissionOrdering.from_names(m.var_names, base)
            o2 = TransmissionOrdering.from_names(m.var_names, other)
            h = 2
            B1 = dense_b(make_systems_form(m, o1, h))
            B2 = dense_b(make_systems_form(m, o2, h))
            K = 5
            for ti in range(h + 1):
                for tj in range(h + 1):
                    i = ti * K + int(r) - 1
                    j = tj * K + int(c) - 1
                    assert abs(B1[i, j] - B2[i, j]) <= 1e-10

    def test_orthogonalised_columns_invariant(self, rng):
        for trial in range(30):
            m = random_varma(rng, K=4, ell=1, q=1)
            c = int(rng.integers(1, 5))
            base, other = orderings_fixed_at(rng, m.var_names, [c - 1])
            o1 = TransmissionOrdering.from_names(m.var_names, base)
            o2 = TransmissionOrdering.from_names(m.var_names, other)
            h = 2
            K = 4
            p1 = dense_toeplitz(cholesky_irfs(m, o1, h), K)
            p2 = dense_toeplitz(cholesky_irfs(m, o2, h), K)
            remap = [o2.labels.index(name) for name in o1.labels]
            for tcol in range(h + 1):
                col = tcol * K + c - 1
                for trow in range(h + 1):
                    for pos in range(K):
                        i1 = trow * K + pos
                        i2 = trow * K + remap[pos]
                        assert abs(p1[i1, col] - p2[i2, col]) <= 1e-10


class TestDenseOracle:
    """Every route through the block-Toeplitz kernel matches a dense
    triangular solve on the dense B, to 1e-12 relative, on random VARMA
    models with MA terms under random orderings."""

    def test_routes_match_dense_solve(self, rng):
        from oracles import ie_channel
        from tca import effect_from_irfs, transmission_effect
        from tca.cli import _structural_tables
        from tca.linalg import ql_decompose
        from conftest import random_condition, wrap_condition

        def gap(a, b):
            return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))

        for trial in range(60):
            K = int(rng.integers(1, 5))
            q = int(rng.integers(0, 3)) if trial % 2 else 0
            m = random_varma(rng, K=K, ell=int(rng.integers(0, 4)), q=q)
            ordering = random_ordering(rng, m.var_names)
            h = int(rng.integers(0, 7))
            sf = make_systems_form(m, ordering, h)
            B = dense_b(sf)
            phi = dense_solve(B, sf.omega)
            assert gap(irf_total(sf), phi) <= 1e-12
            # orthogonalised IRFs: Omega is the orthogonalised column times Q'
            Q, _ = ql_decompose(m.A0[:, list(ordering.perm.dest)])
            pt = cholesky_irfs(m, ordering, h)
            assert gap(pt, phi @ Q) <= 1e-12
            shock = int(rng.integers(1, K + 1))
            cond = wrap_condition(random_condition(rng, sf.size, 4), sf)
            oracle = ie_channel(B, sf.shock_column(shock), cond)
            table = transmission_effect(sf, cond, shock=shock)
            assert gap(table.channel.reshape(-1), oracle) <= 1e-12
            sss = reconstruct_from_single_shock(
                m, ordering, np.linalg.inv(m.A0)[:, shock - 1], h
            )
            assert gap(transmission_effect(sss, cond).channel.reshape(-1),
                       ie_channel(dense_b(sss), sss.omega[:, 0], cond)) <= 1e-12
            if q == 0:  # the IRF route holds on AR-only grids
                from_irfs = effect_from_irfs(phi[:, shock - 1], pt, cond)
                assert gap(from_irfs.channel.reshape(-1), oracle) <= 1e-12
            name = ordering.labels[int(rng.integers(0, K))]
            (normalized,) = _structural_tables(m, ordering, shock, [cond], h,
                                               1.0, (name, 0.7))
            impact = dense_solve(B[:K, :K], sf.omega[:K, shock - 1])
            xi = 0.7 / impact[ordering.position(name) - 1]
            assert abs(normalized.xi - xi) <= 1e-12 * max(1.0, abs(xi))

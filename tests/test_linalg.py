import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from oracles import dense_blocks, dense_solve
from tca.errors import DimensionMismatchError, SingularMatrixError
from tca.linalg import (Workspace, cholesky_lower, cholesky_sweep, ql_decompose,
                        scope, take,
                         solve_unit_lower, unit_lower_inverse)


class TestQlDecompose:
    def test_identity(self):
        Q, L = ql_decompose(np.eye(3))
        assert np.allclose(Q, np.eye(3))
        assert np.allclose(L, np.eye(3))

    def test_lower_triangular_with_positive_diagonal_is_fixed_point(self):
        A = np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [-2.0, 0.5, 1.0]])
        Q, L = ql_decompose(A)
        assert np.allclose(Q, np.eye(3), atol=1e-12)
        assert np.allclose(L, A, atol=1e-12)

    def test_three_var_model_reconstruction(self):
        a1, a2, a3, a4 = 0.2, 0.5, 0.8, 1.5
        A = np.array([[1.0, 0.0, -a1], [-a2, 1.0, 0.0], [-a3, -a4, 1.0]])
        Q, L = ql_decompose(A)
        assert np.max(np.abs(Q @ L - A)) <= 1e-12
        assert np.all(np.diag(L) > 0)
        # effects computed downstream from this factorisation match the
        # analytic decomposition; pinned end-to-end in test_acceptance

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            ql_decompose(A)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(DimensionMismatchError):
            ql_decompose(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ql_decompose(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_deterministic_bitwise(self, rng):
        A = rng.normal(size=(6, 6))
        Q1, L1 = ql_decompose(A)
        Q2, L2 = ql_decompose(A.copy())
        assert np.array_equal(Q1, Q2)
        assert np.array_equal(L1, L2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2 ** 31 - 1))
    def test_properties_on_random_well_conditioned(self, k, seed):
        r = np.random.default_rng(seed)
        U, _, Vt = np.linalg.svd(r.normal(size=(k, k)))
        s = r.uniform(1e-2, 1e2, size=k)  # condition number < 1e6
        A = U @ np.diag(s) @ Vt
        Q, L = ql_decompose(A)
        scale = np.max(np.abs(A))
        assert np.max(np.abs(Q @ L - A)) <= 1e-10 * scale
        assert np.max(np.abs(Q.T @ Q - np.eye(k))) <= 1e-10
        assert np.all(np.triu(L, 1) == 0.0)
        assert np.all(np.diag(L) > 0)


def random_blocks(rng, L, K):
    blocks = rng.normal(scale=0.4, size=(L + 1, K, K))
    blocks[0] = np.tril(blocks[0], -1)
    return blocks


def dense_blocks_solve(blocks, h, rhs):
    return dense_solve(dense_blocks(blocks, h), rhs)


class TestSolveUnitLower:
    """The block-Toeplitz kernel against a dense solve on the dense B."""

    def test_zero_matrix_returns_rhs(self):
        rhs = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(solve_unit_lower(np.zeros((1, 3, 3)), rhs), rhs)
        assert np.array_equal(solve_unit_lower(np.zeros((3, 1, 1)), rhs), rhs)

    def test_two_by_two_forward_substitution(self):
        blocks = np.array([[[0.0, 0.0], [0.7, 0.0]]])
        x = solve_unit_lower(blocks, np.array([1.0, 0.0]))
        assert np.allclose(x, [1.0, 0.7])

    def test_against_dense_inverse(self, rng):
        for K, L, h in [(3, 2, 4), (4, 4, 20), (2, 1, 1)]:
            blocks = random_blocks(rng, L, K)
            rhs = rng.normal(size=((h + 1) * K, 3))
            expected = dense_blocks_solve(blocks, h, rhs)
            gap = np.max(np.abs(solve_unit_lower(blocks, rhs) - expected))
            assert gap <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_h0_and_k1(self, rng):
        blocks = random_blocks(rng, 2, 3)  # h = 0: only B_0 is read
        rhs = rng.normal(size=3)
        assert np.allclose(solve_unit_lower(blocks, rhs),
                           dense_blocks_solve(blocks[:1], 0, rhs), rtol=1e-14)
        scalar = np.array([[[0.0]], [[0.9]], [[-0.3]]])  # K = 1, h = 5
        rhs = rng.normal(size=6)
        assert np.allclose(solve_unit_lower(scalar, rhs),
                           dense_blocks_solve(scalar, 5, rhs), rtol=1e-14)

    def test_lag_blocks_beyond_h(self, rng):
        blocks = random_blocks(rng, 6, 3)
        rhs = rng.normal(size=(9, 2))  # h = 2 uses B_0..B_2 only
        assert np.allclose(solve_unit_lower(blocks, rhs),
                           dense_blocks_solve(blocks, 2, rhs), rtol=1e-14, atol=1e-14)
        assert np.array_equal(solve_unit_lower(blocks, rhs),
                              solve_unit_lower(blocks[:3], rhs))

    def test_zero_and_several_columns(self, rng):
        blocks = random_blocks(rng, 2, 3)
        assert solve_unit_lower(blocks, np.zeros((12, 0))).shape == (12, 0)
        rhs = rng.normal(size=(12, 5))
        x = solve_unit_lower(blocks, rhs)
        for c in range(5):  # each column alone gives the same result
            assert np.allclose(x[:, c], solve_unit_lower(blocks, rhs[:, c]),
                               rtol=1e-14, atol=1e-14)
        assert np.allclose(x, dense_blocks_solve(blocks, 3, rhs),
                           rtol=1e-12, atol=1e-12)

    def test_unit_columns_keep_exact_zeros(self, rng):
        # a unit right-hand side at (t, r) leaves every earlier row, and
        # the rows above r at horizon t, exactly zero
        blocks = random_blocks(rng, 3, 4)
        x = solve_unit_lower(blocks, np.eye(24)[:, [6, 13]])
        assert np.all(x[:6, 0] == 0.0) and x[6, 0] == 1.0
        assert np.all(x[:13, 1] == 0.0) and x[13, 1] == 1.0

    def test_rejects_non_strictly_lower(self):
        upper = np.array([[[0.0, 0.1], [0.5, 0.0]]])
        with pytest.raises(DimensionMismatchError):
            solve_unit_lower(upper, np.array([1.0, 1.0]))
        diagonal = np.array([[[0.2, 0.0], [0.5, 0.0]]])
        with pytest.raises(DimensionMismatchError):
            solve_unit_lower(diagonal, np.array([1.0, 1.0]))

    def test_rejects_wrong_rhs_length(self):
        with pytest.raises(DimensionMismatchError):
            solve_unit_lower(np.zeros((1, 3, 3)), np.ones(2))
        with pytest.raises(DimensionMismatchError):  # a dense square B
            solve_unit_lower(np.zeros((3, 3)), np.ones(3))



class TestStackedFactors:
    def test_cholesky_flags_only_the_failing_matrix(self, rng):
        S = rng.normal(size=(5, 4, 4))
        S = S @ np.swapaxes(S, -1, -2) + 0.1 * np.eye(4)
        S[2, 3, 3] = -1.0  # no longer positive definite
        P, ok = cholesky_lower(S)
        assert ok.tolist() == [True, True, False, True, True]
        assert np.array_equal(P[2], np.eye(4))
        for i in (0, 1, 3, 4):
            assert np.allclose(P[i], np.linalg.cholesky(S[i]),
                               rtol=1e-13, atol=1e-13)
            assert np.all(np.triu(P[i], 1) == 0.0)

    @pytest.mark.parametrize("m", [0, 1, 6, 200])
    def test_unit_lower_inverse_of_a_stack(self, rng, m):
        for batch in [(7,), (2, 3)]:
            M = np.tril(rng.normal(size=(*batch, m, m)), -1) / np.sqrt(max(m, 1))
            M += np.eye(m)
            X = unit_lower_inverse(M)
            assert X.shape == M.shape
            assert np.all(np.triu(X, 1) == 0.0)
            assert np.all(np.diagonal(X, axis1=-2, axis2=-1) == 1.0)
            for i in np.ndindex(batch):
                reference = solve_triangular(M[i], np.eye(m), lower=True,
                                             unit_diagonal=True)
                assert np.allclose(X[i], reference, rtol=1e-13, atol=1e-13)
                # the same bits alone as in the stack
                assert X[i].tobytes() == unit_lower_inverse(M[i]).tobytes()
            assert np.allclose(M @ X, np.eye(m), atol=1e-12)


class TestCholeskySweep:
    @staticmethod
    def gram(rng, batch, k):
        X = rng.normal(size=(*batch, 3 * k, k))
        return np.swapaxes(X, -1, -2) @ X

    @pytest.mark.parametrize("k", [1, 2, 4, 17, 41])
    def test_inverse_is_the_unit_factors_triangular_inverse(self, rng, k):
        S = self.gram(rng, (20,), k)
        P, inv, ok = cholesky_sweep(S)
        assert ok.all()
        assert np.array_equal(P, cholesky_lower(S)[0])
        assert np.all(np.triu(P, 1) == 0.0) and np.all(np.triu(inv, 1) == 0.0)
        d = np.diagonal(P, axis1=-2, axis2=-1)
        assert np.array_equal(np.diagonal(inv, axis1=-2, axis2=-1), 1.0 / d)
        want = unit_lower_inverse(P / d[..., None, :])
        got = inv * d[..., :, None]  # the inverse of the unit factor
        for i in range(len(S)):
            assert np.max(np.abs(got[i] - want[i])) <= 1e-14 * np.max(
                np.abs(want[i])), i
            assert np.allclose(P[i], np.linalg.cholesky(S[i]), rtol=1e-13,
                               atol=1e-13)

    @pytest.mark.parametrize("k", [4, 17])
    def test_a_matrix_gets_the_same_bits_alone_as_in_a_stack(self, rng, k):
        S = self.gram(rng, (70,), k)
        P, inv, ok = cholesky_sweep(S)
        for i in range(70):
            P_i, inv_i, ok_i = cholesky_sweep(S[i])
            assert ok_i and ok[i]
            assert P_i.tobytes() == P[i].tobytes()
            assert inv_i.tobytes() == inv[i].tobytes()
        # and in a stack of stacks
        P2, inv2, _ = cholesky_sweep(S.reshape(7, 10, k, k))
        assert P2.reshape(P.shape).tobytes() == P.tobytes()
        assert inv2.reshape(inv.shape).tobytes() == inv.tobytes()

    def test_a_member_that_is_not_positive_definite_gets_identities(self, rng):
        S = self.gram(rng, (6,), 5)
        S[1, 4, 4] = -1.0  # its last pivot is negative
        S[3] = -S[3]  # its first
        S[4, 2, 2] = 0.0  # its third pivot is not positive
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P, inv, ok = cholesky_sweep(S)
        assert ok.tolist() == [True, False, True, False, False, True]
        for i in (1, 3, 4):
            assert np.array_equal(P[i], np.eye(5))
            assert np.array_equal(inv[i], np.eye(5))
        for i in (0, 2, 5):  # the others as alone
            assert P[i].tobytes() == cholesky_sweep(S[i])[0].tobytes()
            assert inv[i].tobytes() == cholesky_sweep(S[i])[1].tobytes()

    def test_empty_matrices(self):
        P, inv, ok = cholesky_sweep(np.zeros((3, 0, 0)))
        assert P.shape == inv.shape == (3, 0, 0) and ok.all()


def test_package_imports_without_scipy():
    code = ("import sys, tca, tca.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestWorkspace:
    def test_takes_are_carved_from_both_ends_and_given_back(self):
        ws = Workspace(64)
        a = take(ws, (2, 3))  # a whole 64-byte line: 8 floats
        with scope(ws, held=True):
            b = take(ws, (4,), np.uint16, held=True)
            with scope(ws):
                c = take(ws, (5,))
                assert (ws.low, ws.high) == (16, 56)
            assert ws.low == 8
        assert (ws.low, ws.high, ws.peak) == (8, 64, 24)
        for x in (a, b, c):
            assert np.shares_memory(x, ws.buf)
        assert a.shape == (2, 3) and b.dtype == np.uint16
        assert not np.shares_memory(a, c) and not np.shares_memory(b, c)

    def test_a_take_without_room_or_workspace_is_its_own_array(self):
        ws = Workspace(16)
        take(ws, (9,))
        extra = take(ws, (9,))
        assert not np.shares_memory(extra, ws.buf) and ws.low == 16
        assert ws.peak == 32
        assert take(None, (2, 2)).shape == (2, 2)
        with scope(None):
            pass

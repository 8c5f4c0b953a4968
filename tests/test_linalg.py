import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_blocks, dense_solve
from tca.errors import DimensionMismatchError, SingularMatrixError
from tca.linalg import Permutation, ql_decompose, solve_unit_lower


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


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_matrix_and_apply_agree(self, rng):
        p = Permutation((2, 0, 1, 3))
        v = rng.normal(size=4)
        assert np.allclose(p.matrix() @ v, p.apply(v))

    def test_position_of(self):
        p = Permutation((2, 0, 1))
        assert p.position_of(2) == 0
        assert p.position_of(0) == 1

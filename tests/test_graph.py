import numpy as np
import pytest

from conftest import random_ordering, random_varma, three_var_model
from oracles import (
    AssignmentVector,
    MixedEndpointsError,
    TargetTooLargeError,
    assignment_effect,
    assignment_for_paths,
    assignment_index,
    dense_b,
    dense_solve,
    total_path_effect,
    variable_paths,
)
from tca import (
    TransmissionOrdering,
    VarmaModel,
    enumerate_paths,
    irf_total,
    make_systems_form,
)
from tca.errors import DimensionMismatchError, PathExplosionError
from tca.graph import Path


def three_var_sf(a1, a2, a3, a4):
    return make_systems_form(
        three_var_model(a1, a2, a3, a4),
        TransmissionOrdering.identity(("x", "pi", "i")),
        0,
    )


class TestEnumeratePaths:
    def test_recursive_model_two_paths(self):
        a2, a3, a4 = 0.5, 0.8, 1.5
        paths = enumerate_paths(three_var_sf(0.0, a2, a3, a4), 1, 3)
        assert len(paths) == 2
        by_nodes = {p.nodes: p.coefficient for p in paths}
        assert abs(by_nodes[(1, 3)] - a3) <= 1e-12
        assert abs(by_nodes[(1, 2, 3)] - a2 * a4) <= 1e-12

    def test_non_recursive_model_four_paths(self):
        paths = enumerate_paths(three_var_sf(0.2, 0.5, 0.8, 1.5), 1, 3)
        assert len(paths) == 4
        through_pi = [p for p in paths if 2 in p.nodes]
        assert len(through_pi) == 2

    def test_diagonal_system_single_paths(self):
        m = VarmaModel(var_names=("a", "b", "c"), A0=np.eye(3))
        sf = make_systems_form(m, TransmissionOrdering.identity(m.var_names), 0)
        for shock in range(1, 4):
            paths = enumerate_paths(sf, shock, shock)
            assert len(paths) == 1
            assert paths[0].nodes == (shock,)

    def test_nodes_strictly_increasing(self, rng):
        m = random_varma(rng, K=3, ell=1, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
        for p in enumerate_paths(sf, 1, sf.size):
            assert all(a < b for a, b in zip(p.nodes, p.nodes[1:]))

    def test_explosion_cap(self, rng):
        m = random_varma(rng, K=3, ell=2, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
        with pytest.raises(PathExplosionError):
            enumerate_paths(sf, 1, sf.size, cap=2)

    def test_shock_beyond_time0_columns_rejected(self, rng):
        m = random_varma(rng, K=3, ell=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
        with pytest.raises(DimensionMismatchError):
            enumerate_paths(sf, 4, sf.size)

    def test_zero_tol_prunes_edges(self):
        sf = three_var_sf(0.0, 0.5, 1e-9, 1.5)
        assert len(enumerate_paths(sf, 1, 3)) == 2
        pruned = enumerate_paths(sf, 1, 3, zero_tol=1e-6)
        assert len(pruned) == 1
        assert pruned[0].nodes == (1, 2, 3)

    @pytest.mark.parametrize("zero_tol", [-1.0, float("nan"), float("inf")])
    def test_zero_tol_must_be_finite_and_nonnegative(self, zero_tol):
        with pytest.raises(ValueError, match="zero_tol"):
            enumerate_paths(three_var_sf(0.2, 0.5, 0.8, 1.5), 1, 3,
                            zero_tol=zero_tol)

    def test_successors_read_from_lag_blocks(self, rng):
        # every edge of the dense B appears on some path, with its
        # coefficient, exactly when it can reach the target
        m = random_varma(rng, K=3, ell=2, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 3)
        B = dense_b(sf)
        for shock in (1, 2, 3):
            paths = enumerate_paths(sf, shock, sf.size)
            for p in paths:
                w = sf.omega[p.nodes[0] - 1, shock - 1]
                for a, b in zip(p.nodes, p.nodes[1:]):
                    w *= B[b - 1, a - 1]
                assert w == p.coefficient
            phi = dense_solve(B, sf.omega[:, shock - 1])
            assert abs(sum(p.coefficient for p in paths) - phi[-1]) <= 1e-10

    def test_describe_format(self):
        p = Path("shock", 1, (2, 5), 0.75)
        assert p.describe() == "eps[1] -> x2 -> x5 (coef = 0.75)"


class TestTotalPathEffect:
    def test_empty_collection(self):
        assert total_path_effect([]) == 0.0

    def test_recursive_indirect_channel(self):
        a2, a3, a4 = 0.5, 0.8, 1.5
        paths = enumerate_paths(three_var_sf(0.0, a2, a3, a4), 1, 3)
        indirect = [p for p in paths if 2 in p.nodes]
        assert abs(total_path_effect(indirect, 1.0) - a2 * a4) <= 1e-12

    def test_all_paths_equal_total_irf(self, rng):
        for trial in range(10):
            m = random_varma(rng, K=3, ell=1, q=1)
            sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
            phi = irf_total(sf)
            shock = int(rng.integers(1, 4))
            target = int(rng.integers(1, sf.size + 1))
            xi = float(rng.normal())
            eff = total_path_effect(enumerate_paths(sf, shock, target), xi)
            assert abs(eff - xi * phi[target - 1, shock - 1]) <= 1e-10

    def test_mixed_endpoints_rejected(self):
        paths = [
            Path("shock", 1, (1, 3), 0.5),
            Path("shock", 1, (2,), 0.5),
        ]
        with pytest.raises(MixedEndpointsError):
            total_path_effect(paths)


class TestAssignmentVector:
    def test_length_must_match_target(self):
        with pytest.raises(Exception):
            AssignmentVector(target=3, entries=[0.0, 1.0])

    def test_entries_share_one_shock_size(self):
        with pytest.raises(ValueError):
            AssignmentVector(target=2, entries=[1.0, 2.0])

    def test_target_cap(self):
        with pytest.raises(TargetTooLargeError):
            AssignmentVector(target=25, entries=np.zeros(2 ** 24))


class TestAssignmentIndexMapping:
    """Chains into a target are numbered in nested blocks: entries
    2^(k-1)-1 .. 2^k-1 (0-based) pass through intermediate node k, and
    the final entry is the direct shock edge."""

    def test_target_three_panels(self):
        # for target 3 the four chains are, in order: via x1 directly,
        # via x1 then x2, via x2 directly, and the direct edge
        assert assignment_index(Path("shock", 1, (1, 3), 1.0)) == 1
        assert assignment_index(Path("shock", 1, (1, 2, 3), 1.0)) == 2
        assert assignment_index(Path("shock", 1, (2, 3), 1.0)) == 3
        assert assignment_index(Path("shock", 1, (3,), 1.0)) == 4

    def test_indices_are_unique_per_target(self, rng):
        m = random_varma(rng, K=3, ell=1, q=0)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 1)
        target = sf.size
        paths = enumerate_paths(sf, 2, target)
        idx = [assignment_index(p) for p in paths]
        assert len(set(idx)) == len(idx)
        assert all(1 <= i <= 2 ** (target - 1) for i in idx)


class TestAssignmentEffect:
    def test_all_ones_is_total_effect(self, rng):
        m = random_varma(rng, K=3, ell=1, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 1)
        phi = irf_total(sf)
        xi = 0.7
        for target in (3, 5, 6):
            av = AssignmentVector(
                target=target, entries=np.full(2 ** (target - 1), xi)
            )
            for shock in (1, 2):
                assert (
                    abs(assignment_effect(sf, shock, av) - xi * phi[target - 1, shock - 1])
                    <= 1e-10
                )

    def test_zero_assignment(self, rng):
        m = random_varma(rng, K=3)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 0)
        av = AssignmentVector(target=3, entries=np.zeros(4))
        assert assignment_effect(sf, 1, av) == 0.0

    def test_indirect_channel_of_worked_example(self):
        a1, a2, a3, a4 = 0.2, 0.5, 0.8, 1.5
        eta = 1 - a1 * a2 * a4 - a1 * a3
        sf = three_var_sf(a1, a2, a3, a4)
        av = AssignmentVector(target=3, entries=[0.0, 1.0, 1.0, 0.0])
        expected = (a2 * a4) / ((1 + a1 ** 2) * eta)
        assert abs(assignment_effect(sf, 1, av) - expected) <= 1e-12

    def test_equals_path_subsets(self, rng):
        # selecting any subset of enumerated paths through the
        # assignment vector reproduces the summed path effects
        for trial in range(20):
            m = random_varma(rng, K=3, ell=int(rng.integers(0, 3)),
                             q=int(rng.integers(0, 2)))
            sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
            shock = int(rng.integers(1, 4))
            target = int(rng.integers(2, sf.size + 1))
            paths = enumerate_paths(sf, shock, target)
            if not paths:
                continue
            keep = [p for p in paths if rng.random() < 0.5]
            av = assignment_for_paths(target, keep, xi=1.3)
            direct = total_path_effect(keep, 1.3) if keep else 0.0
            assert abs(assignment_effect(sf, shock, av) - direct) <= 1e-10

    def test_partition_additivity(self, rng):
        # random partition of all paths: the parts' effects add up to
        # the total effect
        for trial in range(10):
            m = random_varma(rng, K=3, ell=1, q=1)
            sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
            phi = irf_total(sf)
            shock, target = 1, sf.size
            paths = enumerate_paths(sf, shock, target)
            labels = rng.integers(0, 3, size=len(paths))
            xi = 1.1
            acc = sum(
                total_path_effect([p for p, g in zip(paths, labels) if g == grp], xi)
                for grp in range(3)
            )
            assert abs(acc - xi * phi[target - 1, shock - 1]) <= 1e-10


class TestVariablePaths:
    def test_single_edge(self):
        sf = three_var_sf(0.0, 0.5, 0.8, 1.5)
        paths = variable_paths(sf, 2, 3)
        assert len(paths) == 1
        assert abs(paths[0].coefficient - 1.5) <= 1e-12

    def test_unit_effect_ratio(self, rng):
        # summed variable-to-variable path effects equal the ratio of
        # orthogonalised IRF entries (pinned via cholesky in condition tests)
        sf = three_var_sf(0.2, 0.5, 0.8, 1.5)
        eff = total_path_effect(variable_paths(sf, 2, 3))
        assert abs(eff - 1.5 / (1 + 0.2 ** 2)) <= 1e-12

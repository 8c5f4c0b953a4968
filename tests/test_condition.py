import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_condition,
    random_ordering,
    random_varma,
    three_var_closed_forms,
    three_var_model,
    wrap_condition,
)
from oracles import (
    ConjunctionTerm,
    dense_b,
    dense_solve,
    effect_by_edge_deletion,
    expand_terms,
    ie_channel,
    path_filter_effect,
)
from tca import (
    TransmissionOrdering,
    VarmaModel,
    cholesky_irfs,
    effect_from_irfs,
    irf_total,
    make_systems_form,
    parse_condition,
    transmission_effect,
)
from tca.condition import FALSE, TRUE, And, Not, Or, Var, any_horizon, satisfied_by
from tca.errors import (
    DimensionMismatchError,
    HorizonOutOfRangeError,
    ParseError,
    SingularMatrixError,
    TermExplosionError,
    UnknownVariableError,
)

LABELS3 = ("x", "pi", "i")


def three_var_sf(a1, a2, a3, a4, h=0):
    return make_systems_form(
        three_var_model(a1, a2, a3, a4),
        TransmissionOrdering.identity(LABELS3),
        h,
    )


class TestParser:
    def test_simple_atom(self):
        cond = parse_condition("pi_0", LABELS3, 3, 0)
        assert cond.root == Var(2)

    def test_negated_atom(self):
        cond = parse_condition("!i_0", ("i", "x", "pi"), 3, 1)
        assert cond.root == Not(Var(1))

    def test_or_chain(self):
        cond = parse_condition("pi_0 | pi_1 | pi_2", LABELS3, 3, 2)
        assert cond.root == Or((Var(2), Var(5), Var(8)))

    def test_raw_index_and_precedence(self):
        cond = parse_condition("!x1 & x2 | x3", LABELS3, 3, 0)
        assert cond.root == Or((And((Not(Var(1)), Var(2))), Var(3)))

    def test_parentheses(self):
        cond = parse_condition("!(x1 & x2)", LABELS3, 3, 0)
        assert cond.root == Not(And((Var(1), Var(2))))

    def test_constants(self):
        assert parse_condition("true", LABELS3, 3, 0).root is TRUE
        assert parse_condition("false", LABELS3, 3, 0).root is FALSE

    def test_horizon_suffix_resolution(self):
        cond = parse_condition("i_2", LABELS3, 3, 4)
        assert cond.root == Var(2 * 3 + 3)

    def test_underscored_names(self):
        cond = parse_condition("y_gap_1", ("y_gap", "infl"), 2, 1)
        assert cond.root == Var(3)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_condition("wages_0", LABELS3, 3, 0)

    def test_horizon_out_of_range(self):
        with pytest.raises(HorizonOutOfRangeError):
            parse_condition("pi_5", LABELS3, 3, 2)
        with pytest.raises(HorizonOutOfRangeError):
            parse_condition("x99", LABELS3, 3, 2)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_condition("pi_0 & & i_0", LABELS3, 3, 0)
        assert err.value.position == 7

    def test_missing_horizon_suffix(self):
        with pytest.raises(ParseError):
            parse_condition("pi", LABELS3, 3, 0)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_condition("pi_0 )", LABELS3, 3, 0)

    @pytest.mark.parametrize("text, cls, message, position", [
        ("x_0 | | pi_0", ParseError, "expected an atom, got '|'", 6),
        ("x_0 # pi_0", ParseError, "unexpected character '#'", 4),
        ("", ParseError, "expected an atom, got end of input", 0),
        ("   ", ParseError, "expected an atom, got end of input", 0),
        ("!", ParseError, "expected an atom, got end of input", 1),
        ("pi_0 &", ParseError, "expected an atom, got end of input", 6),
        ("x_0 |   ", ParseError, "expected an atom, got end of input", 5),
        ("(x_0", ParseError, "expected ')'", 4),
        # the end of input sits after the last token, not after the blanks
        ("(x_0   ", ParseError, "expected ')'", 4),
        ("((x_0)", ParseError, "expected ')'", 6),
        ("x_0 & (pi_0 | i_0", ParseError, "expected ')'", 17),
        ("pi_0 )", ParseError, "unexpected trailing input", 5),
        ("pi_0 i_0", ParseError, "unexpected trailing input", 5),
        ("x_0)", ParseError, "unexpected trailing input", 3),
        ("x_0 & (pi_0 | )", ParseError, "expected an atom, got ')'", 14),
        # an unexpected character is reported when the parser reaches it,
        # so an earlier error wins
        ("pi_0 & & #", ParseError, "expected an atom, got '&'", 7),
        ("pi_0 | #", ParseError, "unexpected character '#'", 7),
        ("(pi_0 # )", ParseError, "unexpected character '#'", 6),
        ("!#", ParseError, "unexpected character '#'", 1),
        ("1pi", ParseError, "unexpected character '1'", 0),
        ("x_0\t\xa0@", ParseError, "unexpected character '@'", 5),
        ("wages_0 #", UnknownVariableError,
         "unknown variable 'wages'; ordering has ['x', 'pi', 'i']", 0),
        ("pi", ParseError, "atom 'pi' is neither name_horizon nor x<index>", 0),
        ("x_0 | pi_9", HorizonOutOfRangeError, "horizon 9 outside 0..2", 6),
        ("x0", HorizonOutOfRangeError, "system index 0 outside 1..9", 0),
        ("x1 & x99", HorizonOutOfRangeError, "system index 99 outside 1..9", 5),
    ])
    def test_diagnostics(self, text, cls, message, position):
        with pytest.raises(ParseError) as err:
            parse_condition(text, LABELS3, 3, 2)
        assert type(err.value) is cls
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_long_chain_parses_into_one_flat_node(self):
        text = any_horizon("y", range(1000))
        cond = parse_condition(text, ("y",), 1, 999)
        assert cond.root == Or(tuple(Var(m) for m in range(1, 1001)))
        assert cond.canonical_text() == " | ".join(
            f"x{m}" for m in range(1, 1001)
        )
        again = parse_condition(cond.canonical_text(), ("y",), 1, 999)
        assert again.root == cond.root

    def test_chain_nodes_stay_flat(self):
        a, b, c, d = (Var(m) for m in range(1, 5))
        assert Or((Or((a, b)), Or((c, d)))) == Or((a, b, c, d))
        assert And((a, Or((b, c)))).operands == (a, Or((b, c)))
        assert Or((a, b)) != And((a, b))
        for operands in ((), (a,)):
            with pytest.raises(ValueError):
                Or(operands)

    @pytest.mark.parametrize("opening, closing", [("(", ")"), ("!", "")])
    def test_nesting_cap(self, opening, closing):
        from tca.condition import NESTING_CAP

        def nested(levels):
            return opening * levels + "pi_0" + closing * levels

        parse_condition(nested(NESTING_CAP), LABELS3, 3, 0)
        with pytest.raises(ParseError) as err:
            parse_condition(nested(600), LABELS3, 3, 0)
        assert err.value.position == NESTING_CAP

    @pytest.mark.parametrize("text, flat", [
        ("x1 | (x2 | x3)", "x1 | x2 | x3"),
        ("(x1 & x2) & (x3 & (x4 & x5))", "x1 & x2 & x3 & x4 & x5"),
        ("(x1 | (x2 | x3)) & !(x4 & (x5 & x6)) | ((x7 | x8) | x9)",
         "(x1 | x2 | x3) & !(x4 & x5 & x6) | x7 | x8 | x9"),
    ])
    def test_parenthesised_same_operator_round_trips(self, text, flat):
        cond = parse_condition(text, LABELS3, 3, 2)
        assert cond.canonical_text() == flat
        assert cond.root == parse_condition(flat, LABELS3, 3, 2).root
        again = parse_condition(cond.canonical_text(), LABELS3, 3, 2)
        assert again.root == cond.root

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_canonical_text_round_trip(self, seed):
        from tca.condition import _to_text

        r = np.random.default_rng(seed)
        root = random_condition(r, n_indices=9, n_literals=4)
        # chains are flat however the tree was built, so the text of a
        # hand-built tree parses back to that very tree
        cond = parse_condition(_to_text(root), LABELS3, 3, 2)
        assert cond.root == root
        again = parse_condition(cond.canonical_text(), LABELS3, 3, 2)
        assert again.root == root


class TestExpandTerms:
    """The inclusion-exclusion oracle of oracles.py."""

    def test_single_literal(self):
        cond = parse_condition("x2", LABELS3, 3, 0)
        assert expand_terms(cond) == [ConjunctionTerm(1, frozenset([2]))]

    def test_disjunction_inclusion_exclusion(self):
        cond = parse_condition("x2 | x3", LABELS3, 3, 0)
        terms = {
            (t.sign, t.required_sorted, t.forbidden_sorted)
            for t in expand_terms(cond)
        }
        assert terms == {
            (1, (2,), ()),
            (1, (3,), ()),
            (-1, (2, 3), ()),
        }

    def test_negated_conjunction(self):
        cond = parse_condition("!(x2 & x3)", LABELS3, 3, 0)
        terms = {
            (t.sign, t.required_sorted, t.forbidden_sorted)
            for t in expand_terms(cond)
        }
        # negation-normal form keeps the literals negated; the signed
        # sum prices the same path set as 'everything minus both'
        assert terms == {
            (1, (), (2,)),
            (1, (), (3,)),
            (-1, (), (2, 3)),
        }

    def test_contradictory_terms_dropped(self):
        cond = parse_condition("x2 & !x2", LABELS3, 3, 0)
        assert expand_terms(cond) == []

    def test_duplicates_merge_by_sign(self):
        cond = parse_condition("x2 | x2", LABELS3, 3, 0)
        assert expand_terms(cond) == [ConjunctionTerm(1, frozenset([2]))]

    def test_term_cap(self):
        text = " | ".join(f"x{i}" for i in range(1, 9))
        cond = parse_condition(text, LABELS3, 3, 2)
        with pytest.raises(TermExplosionError):
            expand_terms(cond, cap=10)


class TestSatisfiedBy:
    def test_membership_semantics(self):
        cond = parse_condition("x2 & !x1", LABELS3, 3, 0)
        assert satisfied_by(cond, (2, 3))
        assert not satisfied_by(cond, (1, 2, 3))
        assert not satisfied_by(cond, (3,))

    def test_endpoint_counts_as_on_path(self):
        cond = parse_condition("x3", LABELS3, 3, 0)
        assert satisfied_by(cond, (1, 3))


class TestEffectByEdgeDeletion:
    def test_empty_term_is_total(self, rng):
        m = random_varma(rng, K=3, ell=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 1)
        col = sf.shock_column(2)
        v = effect_by_edge_deletion(dense_b(sf), col,
                                    ConjunctionTerm(1, frozenset()), 1.0)
        assert np.max(np.abs(v - irf_total(sf)[:, 1])) <= 1e-12

    def test_recursive_through_inflation(self):
        a2, a3, a4 = 0.5, 0.8, 1.5
        sf = three_var_sf(0.0, a2, a3, a4)
        v = effect_by_edge_deletion(
            dense_b(sf), sf.shock_column(1), ConjunctionTerm(1, frozenset([2]))
        )
        assert abs(v[2] - a2 * a4) <= 1e-12

    def test_non_recursive_not_through_inflation(self):
        a1, a2, a3, a4 = 0.2, 0.5, 0.8, 1.5
        _, _, direct = three_var_closed_forms(a1, a2, a3, a4)
        sf = three_var_sf(a1, a2, a3, a4)
        v = effect_by_edge_deletion(
            dense_b(sf), sf.shock_column(1),
            ConjunctionTerm(1, frozenset(), frozenset([2])),
        )
        assert abs(v[2] - direct) <= 1e-10

    def test_matches_path_oracle_per_term(self, rng):
        for trial in range(30):
            m = random_varma(rng, K=3, ell=1, q=1)
            sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
            shock = int(rng.integers(1, 4))
            n = sf.size
            req = set(int(i) for i in rng.choice(n, size=2, replace=False) + 1)
            forb = {int(rng.integers(1, n + 1))} - req
            term = ConjunctionTerm(1, frozenset(req), frozenset(forb))
            v = effect_by_edge_deletion(dense_b(sf), sf.shock_column(shock), term)
            cond = wrap_condition(_term_to_ast(term), sf)
            for target in range(1, n + 1):
                oracle = path_filter_effect(sf, shock, target, cond)
                assert abs(v[target - 1] - oracle) <= 1e-10


def _term_to_ast(term):
    literals = [Var(k) for k in term.required_sorted]
    literals += [Not(Var(k)) for k in term.forbidden_sorted]
    if len(literals) < 2:
        return literals[0] if literals else TRUE
    return And(literals)


class TestTransmissionEffect:
    def test_worked_example_decomposition(self):
        a1, a2, a3, a4 = 0.2, 0.5, 0.8, 1.5
        total, indirect, direct = three_var_closed_forms(a1, a2, a3, a4)
        table = transmission_effect(three_var_sf(a1, a2, a3, a4), "pi_0", shock=1)
        assert abs(table.cell("channel", 3, 0) - indirect) <= 1e-10
        assert abs(table.cell("complement", 3, 0) - direct) <= 1e-10
        assert abs(table.cell("total", 3, 0) - total) <= 1e-10

    def test_a_system_with_ill_formed_blocks_is_refused(self):
        # the evaluator's solves run unchecked, so the public entry
        # checks a system's blocks once
        import dataclasses

        sf = three_var_sf(0.2, 0.5, 0.8, 1.5, h=2)
        upper = sf.B_blocks.copy()
        upper[0, 0, 2] = 0.3  # B_0 no longer strictly lower-triangular
        for bad in (upper, sf.B_blocks[:, :2]):
            with pytest.raises(DimensionMismatchError):
                transmission_effect(dataclasses.replace(sf, B_blocks=bad),
                                    "pi_0", shock=1)

    def test_true_condition(self, rng):
        m = random_varma(rng, K=3, ell=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 1)
        table = transmission_effect(sf, "true", shock=2, xi=0.5)
        assert np.allclose(table.channel, table.total)
        assert np.max(np.abs(table.complement)) == 0.0

    def test_matches_ie_oracle_on_random_conditions(self, rng):
        for trial in range(150):
            K = int(rng.integers(2, 5))
            m = random_varma(rng, K=K, ell=int(rng.integers(0, 3)),
                             q=int(rng.integers(0, 2)))
            sf = make_systems_form(m, random_ordering(rng, m.var_names),
                                   int(rng.integers(0, 4)))
            shock = int(rng.integers(1, K + 1))
            n_literals = int(rng.integers(1, 7))
            cond = wrap_condition(random_condition(rng, sf.size, n_literals), sf)
            table = transmission_effect(sf, cond, shock=shock)
            oracle = ie_channel(dense_b(sf), sf.shock_column(shock), cond)
            scale = max(1.0, np.max(np.abs(table.total)))
            gap = np.max(np.abs(table.channel.reshape(-1) - oracle)) / scale
            assert gap <= 1e-12

    def test_literals_at_several_horizons_match_dense_masked_solve(self, rng):
        # "visits none of them": the paths that avoid every literal, i.e.
        # a dense solve with the literals' rows of B and Omega zeroed
        m = random_varma(rng, K=4, ell=3, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 7)
        literals = [2, 3, 10, 15, 16, 31]  # horizons 0, 2, 3 and 7
        cond = parse_condition("!(" + " | ".join(f"x{i}" for i in literals) + ")",
                               sf.ordering.labels, 4, 7)
        B, col = dense_b(sf), sf.shock_column(2)
        rows = [i - 1 for i in literals]
        B[rows], col[rows] = 0.0, 0.0
        expected = dense_solve(B, col)
        table = transmission_effect(sf, cond, shock=2)
        assert np.max(np.abs(table.channel.reshape(-1) - expected)) <= 1e-12 * max(
            1.0, np.max(np.abs(expected)))
        assert np.all(table.channel.reshape(-1)[rows] == 0.0)

    def test_large_grid_in_bounded_memory(self, rng):
        # K=50, h=400: n = 20,050, where a dense B alone would take 3.2 GB
        import tracemalloc

        from conftest import companion_irfs, stable_var_coefs

        K, h = 50, 400
        A0 = random_varma(rng, K=K, ell=0).A0
        coefs = stable_var_coefs(rng, K, 4, radius=0.8)
        m = VarmaModel(var_names=tuple(f"v{i + 1}" for i in range(K)), A0=A0,
                       A=tuple(A0 @ c for c in coefs))
        ordering = TransmissionOrdering.identity(m.var_names)
        tracemalloc.start()
        try:
            sf = make_systems_form(m, ordering, h)
            table = transmission_effect(sf, "v2_0", shock=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20
        expected = companion_irfs(m, h)[:, :, 0]
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(table.total - expected)) <= 1e-10 * scale
        assert table.max_identity_gap() <= 1e-12

    def test_evaluator_over_memory_budget(self, rng, monkeypatch):
        import tca.condition

        m = random_varma(rng, K=3, ell=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 9)
        monkeypatch.setattr(tca.condition, "MEMORY_BUDGET", 8 * sf.size * 2)
        transmission_effect(sf, "x2", shock=1)  # two solve columns fit
        with pytest.raises(TermExplosionError, match="budget"):
            transmission_effect(sf, "x2 | x5", shock=1)

    def test_any_horizon_beyond_inclusion_exclusion(self, rng):
        # 21 literals: inclusion-exclusion needs 2**21 - 1 terms here and
        # exceeds TERM_CAP; the evaluator needs 22 states
        m = random_varma(rng, K=4, ell=2)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 20)
        text = any_horizon(sf.ordering.labels[1], range(21))
        through = transmission_effect(sf, text, shock=1)
        never = transmission_effect(sf, f"!({text})", shock=1)
        scale = np.maximum(1.0, np.abs(through.total))
        gap = np.abs(through.channel + never.channel - through.total) / scale
        assert np.max(gap) <= 1e-10
        assert np.max(np.abs(through.total - never.total)) <= 1e-12

    def test_disjunction_of_every_index_and_its_negation(self):
        # 1,000 literals on a K=1, h=999 grid; the parse tree, the BDD
        # build and the negation must not recurse once per operand
        m = VarmaModel(var_names=("y",), A0=[[1.0]], A=([[0.6]],))
        sf = make_systems_form(m, TransmissionOrdering.identity(("y",)), 999)
        text = any_horizon("y", range(1000))
        through = transmission_effect(sf, text, shock=1)
        never = transmission_effect(sf, f"!({text})", shock=1)
        assert np.max(np.abs(through.channel - through.total)) <= 1e-12
        assert np.max(np.abs(never.channel)) == 0.0
        gap = np.abs(through.channel + never.channel - through.total)
        assert np.max(gap) <= 1e-12
        backwards = " | ".join(f"x{m}" for m in range(1000, 0, -1))
        assert np.array_equal(
            transmission_effect(sf, backwards, shock=1).channel,
            through.channel,
        )

    def test_too_deep_plan_raises_term_explosion(self, rng):
        # two interleaved chains build a BDD two levels per horizon deep,
        # which only the cap bounds: through horizon 499 the plan takes
        # 998,501 transitions, through 500 it takes 1,002,502
        m = random_varma(rng, K=4, ell=2)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 500)
        v2, v3 = sf.ordering.labels[1:3]

        def both(h):
            return " & ".join(f"({any_horizon(v, range(h + 1))})" for v in (v2, v3))

        through = transmission_effect(sf, both(499), shock=1)
        never = transmission_effect(sf, f"!({both(499)})", shock=1)
        scale = np.maximum(1.0, np.abs(through.total))
        gap = np.abs(through.channel + never.channel - through.total) / scale
        assert np.max(gap) <= 1e-10
        with pytest.raises(TermExplosionError, match="transitions"):
            transmission_effect(sf, both(500), shock=1)
        # a tree built by hand, alternating & and | so that nothing
        # splices, is 1,000 levels deep to hash and to build
        sf = make_systems_form(VarmaModel(var_names=("y",), A0=[[1.0]]),
                               TransmissionOrdering.identity(("y",)), 999)
        root = Var(1)
        for m in range(2, 1001):
            root = (And if m % 2 else Or)((root, Var(m)))
        with pytest.raises(TermExplosionError):
            transmission_effect(sf, wrap_condition(root, sf), shock=1)

    def test_interleaved_chains_match_ie_oracle(self, rng):
        # the small size of the two-chain condition above
        m = random_varma(rng, K=4, ell=2, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
        v2, v3 = sf.ordering.labels[1:3]
        cond = parse_condition(
            f"({any_horizon(v2, range(3))}) & ({any_horizon(v3, range(3))})",
            sf.ordering.labels, 4, 2,
        )
        table = transmission_effect(sf, cond, shock=1)
        oracle = ie_channel(dense_b(sf), sf.shock_column(1), cond)
        scale = max(1.0, np.max(np.abs(table.total)))
        assert np.max(np.abs(table.channel.reshape(-1) - oracle)) <= 1e-12 * scale

    def test_five_thousand_literal_chain(self):
        # a flat chain adds no depth to parse, print, hash or build: the
        # plan of its negation is one state that no literal leaves alive,
        # while the chain itself needs a transition per earlier state and
        # literal (12.5 million) and stops at the cap
        from tca.condition import TERM_CAP, _plan

        m = VarmaModel(var_names=("y",), A0=[[1.0]], A=([[0.6]],))
        sf = make_systems_form(m, TransmissionOrdering.identity(("y",)), 4999)
        cond = parse_condition(any_horizon("y", range(5000)), ("y",), 1, 4999)
        assert len(cond.root.operands) == 5000
        again = parse_condition(cond.canonical_text(), ("y",), 1, 4999)
        assert again.root == cond.root
        lits, steps, _, accept = _plan(Not(cond.root), TERM_CAP)
        assert lits.size == 5000 and steps == () and accept.tolist() == [True]
        with pytest.raises(TermExplosionError, match="transitions"):
            transmission_effect(sf, cond, shock=1)

    def test_cell_rejects_out_of_range_indices(self):
        table = transmission_effect(three_var_sf(0.2, 0.5, 0.8, 1.5, h=1),
                                    "pi_0", shock=1)
        assert table.cell("total", 3, 1) == table.total[1, 2]
        for position, horizon in ((0, 0), (4, 0), (1, -1), (1, 2)):
            with pytest.raises(IndexError):
                table.cell("total", position, horizon)

    def test_state_cap(self, monkeypatch):
        import tca.condition

        monkeypatch.setattr(tca.condition, "TERM_CAP", 50)
        sf = three_var_sf(0.2, 0.5, 0.8, 1.5, h=7)
        # pairs (x_i, x_{i+12}): the residual after x1..x12 remembers
        # which of them were visited, 2**12 states
        text = " | ".join(f"(x{i} & x{i + 12})" for i in range(1, 13))
        with pytest.raises(TermExplosionError):
            transmission_effect(sf, text, shock=1)

    def test_matches_path_oracle_on_random_conditions(self, rng):
        for trial in range(25):
            m = random_varma(rng, K=3, ell=1, q=0)
            sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
            cond = wrap_condition(random_condition(rng, sf.size, 4), sf)
            shock = int(rng.integers(1, 4))
            table = transmission_effect(sf, cond, shock=shock)
            for target in range(1, sf.size + 1):
                r, t = sf.var_horizon(target)
                oracle = path_filter_effect(sf, shock, target, cond)
                assert abs(table.cell("channel", r, t) - oracle) <= 1e-10

    def test_decomposition_identity_against_negated_condition(self, rng):
        for trial in range(25):
            m = random_varma(rng, K=3, ell=1, q=1)
            sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
            root = random_condition(rng, sf.size, 3)
            cond = wrap_condition(root, sf)
            neg = wrap_condition(Not(root), sf)
            shock = int(rng.integers(1, 4))
            t1 = transmission_effect(sf, cond, shock=shock)
            t2 = transmission_effect(sf, neg, shock=shock)
            scale = np.maximum(1.0, np.abs(t1.total))
            gap = np.abs(t1.channel + t2.channel - t1.total) / scale
            assert np.max(gap) <= 1e-10
            assert t1.max_identity_gap() <= 1e-12

    def test_xi_scaling_is_linear(self, rng):
        m = random_varma(rng, K=3, ell=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 1)
        t1 = transmission_effect(sf, "x2 | !x3", shock=1, xi=1.0)
        t2 = transmission_effect(sf, "x2 | !x3", shock=1, xi=2.0)
        assert np.max(np.abs(2.0 * t1.channel - t2.channel)) <= 1e-12

    def test_single_shock_route_matches_full_route(self, rng):
        from tca import reconstruct_from_single_shock

        for trial in range(10):
            m = random_varma(rng, K=3, ell=1, q=1)
            ordering = random_ordering(rng, m.var_names)
            sf = make_systems_form(m, ordering, 2)
            shock = int(rng.integers(1, 4))
            impact = np.linalg.inv(m.A0)[:, shock - 1]
            sss = reconstruct_from_single_shock(m, ordering, impact, 2)
            cond = wrap_condition(random_condition(rng, sf.size, 3), sf)
            a = transmission_effect(sf, cond, shock=shock)
            b = transmission_effect(sss, cond)
            assert np.max(np.abs(a.channel - b.channel)) <= 1e-10
            assert np.max(np.abs(a.total - b.total)) <= 1e-10

    def test_shock_index_is_checked_against_omega_columns(self, rng):
        m = random_varma(rng, K=3, ell=1, q=1)
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
        with pytest.raises(ValueError, match="pass shock"):
            transmission_effect(sf, "x2")
        for shock in (0, 4):
            with pytest.raises(IndexError):
                transmission_effect(sf, "x2", shock=shock)
        assert transmission_effect(sf, "x2", shock=3).shock_label == "eps[3]"

    def test_three_way_literal_partition_adds_to_total(self, rng):
        # x_k, !x_k & x_l and !x_k & !x_l are mutually exclusive and
        # jointly cover every path
        for trial in range(20):
            m = random_varma(rng, K=3, ell=1, q=1)
            sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
            k, l = (int(v) for v in rng.choice(sf.size, 2, replace=False) + 1)
            shock = int(rng.integers(1, 4))
            parts = [f"x{k}", f"!x{k} & x{l}", f"!x{k} & !x{l}"]
            tables = [transmission_effect(sf, c, shock=shock) for c in parts]
            total = tables[0].total
            acc = sum(t.channel for t in tables)
            scale = np.maximum(1.0, np.abs(total))
            assert np.max(np.abs(acc - total) / scale) <= 1e-9

    def test_effects_invariant_to_reordering_later_variables(self, rng):
        # with the condition's variable ordered first, only the set of
        # later-ordered variables matters, not their order
        for trial in range(10):
            m = random_varma(rng, K=4, ell=1, q=1)
            names = list(m.var_names)
            first = names[int(rng.integers(0, 4))]
            rest = [n for n in names if n != first]
            r1, r2 = rest[:], rest[:]
            rng.shuffle(r1)
            rng.shuffle(r2)
            o1 = TransmissionOrdering.from_names(names, [first] + r1)
            o2 = TransmissionOrdering.from_names(names, [first] + r2)
            sf1 = make_systems_form(m, o1, 2)
            sf2 = make_systems_form(m, o2, 2)
            shock = int(rng.integers(1, 5))
            for text in (f"{first}_0", f"!{first}_0"):
                t1 = transmission_effect(sf1, text, shock=shock)
                t2 = transmission_effect(sf2, text, shock=shock)
                for name in names:
                    c1 = t1.channel[:, o1.labels.index(name)]
                    c2 = t2.channel[:, o2.labels.index(name)]
                    assert np.max(np.abs(c1 - c2)) <= 1e-9

    def test_condition_on_target_itself_is_total(self):
        sf = three_var_sf(0.2, 0.5, 0.8, 1.5)
        table = transmission_effect(sf, "i_0", shock=1)
        # every path into the policy rate ends there: the channel is the
        # whole effect for that cell, and nothing for earlier variables
        assert abs(table.cell("channel", 3, 0) - table.cell("total", 3, 0)) <= 1e-12
        assert table.cell("channel", 1, 0) == 0.0
        assert table.cell("channel", 2, 0) == 0.0


class TestBatchedEvaluator:
    @pytest.mark.parametrize("kind", ["no_steps", "any_horizon", "random"])
    def test_a_batch_is_the_stack_of_single_systems(self, rng, kind):
        # a (2, 3) batch of random systems priced at once against each
        # priced alone, bit for bit: the accepting states' sums of the
        # batch come from one bincount, the plan's steps run per system
        from tca.condition import TERM_CAP, _effects, _plan

        K, L, h = 3, 2, 4
        n = (h + 1) * K
        for _ in range(4):
            blocks = rng.normal(scale=0.4, size=(2, 3, L + 1, K, K))
            blocks[..., 0, :, :] = np.tril(blocks[..., 0, :, :], -1)
            col = rng.normal(size=(2, 3, n))
            if kind == "no_steps":
                root = Not(Var(int(rng.integers(1, n + 1))))
            elif kind == "any_horizon":
                root = parse_condition(any_horizon("pi", range(h + 1)),
                                       LABELS3, K, h).root
            else:
                root = random_condition(rng, n, 5)
            steps = _plan(root, TERM_CAP)[1]
            if kind == "no_steps":
                assert not steps
            elif kind == "any_horizon":
                assert steps
            total, channel = _effects(blocks, col, root)
            assert total.shape == channel.shape == (2, 3, n)
            for i in range(2):
                for j in range(3):
                    one = _effects(blocks[i, j], col[i, j], root)
                    assert one[0].tobytes() == total[i, j].tobytes()
                    assert one[1].tobytes() == channel[i, j].tobytes()


class TestEffectFromIrfs:
    def test_recursive_indirect_effect_from_irf_product(self):
        a2, a3, a4 = 0.5, 0.8, 1.5
        m = three_var_model(0.0, a2, a3, a4)
        ordering = TransmissionOrdering.identity(LABELS3)
        sf = make_systems_form(m, ordering, 0)
        phi = irf_total(sf)
        pt = cholesky_irfs(m, ordering, 0)
        cond = parse_condition("pi_0", LABELS3, 3, 0)
        table = effect_from_irfs(phi[:, 0], pt, cond)
        assert abs(table.cell("channel", 3, 0) - a2 * a4) <= 1e-12

    def test_true_condition_returns_total(self, rng):
        m = random_varma(rng, K=3, ell=1)
        ordering = random_ordering(rng, m.var_names)
        sf = make_systems_form(m, ordering, 1)
        phi = irf_total(sf)
        pt = cholesky_irfs(m, ordering, 1)
        cond = parse_condition("true", ordering.labels, 3, 1)
        table = effect_from_irfs(phi[:, 1], pt, cond, xi=0.3)
        assert np.max(np.abs(table.channel - table.total)) <= 1e-12

    def test_matches_edge_deletion_route(self, rng):
        # pure VAR grids: with MA terms the orthogonalised ratios no
        # longer price unit path effects (see the function docstring)
        for trial in range(25):
            m = random_varma(rng, K=3, ell=int(rng.integers(0, 3)), q=0)
            ordering = random_ordering(rng, m.var_names)
            sf = make_systems_form(m, ordering, 2)
            phi = irf_total(sf)
            pt = cholesky_irfs(m, ordering, 2)
            shock = int(rng.integers(1, 4))
            cond = wrap_condition(random_condition(rng, sf.size, 3), sf)
            a = transmission_effect(sf, cond, shock=shock)
            b = effect_from_irfs(phi[:, shock - 1], pt, cond)
            assert np.max(np.abs(a.channel - b.channel)) <= 1e-9
            assert np.max(np.abs(a.total - b.total)) <= 1e-9

    def test_rejects_non_triangular_or_zero_diagonal(self, rng):
        m = random_varma(rng, K=3, ell=1)
        ordering = random_ordering(rng, m.var_names)
        sf = make_systems_form(m, ordering, 1)
        phi = irf_total(sf)[:, 0]
        pt = cholesky_irfs(m, ordering, 1)
        cond = parse_condition("x2", ordering.labels, 3, 1)
        upper = pt.copy()
        upper[0, 1] = 0.1
        with pytest.raises(DimensionMismatchError):
            effect_from_irfs(phi, upper, cond)
        singular = pt.copy()
        singular[1, 1] = 0.0
        with pytest.raises(SingularMatrixError):
            effect_from_irfs(phi, singular, cond)
        with pytest.raises(DimensionMismatchError):  # the dense n x n grid
            effect_from_irfs(phi, np.eye(6), cond)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_irf_column(self, rng, bad):
        m = random_varma(rng, K=3, ell=1)
        ordering = random_ordering(rng, m.var_names)
        sf = make_systems_form(m, ordering, 1)
        phi = irf_total(sf)[:, 0]
        phi[4] = bad
        pt = cholesky_irfs(m, ordering, 1)
        cond = parse_condition("x2", ordering.labels, 3, 1)
        with pytest.raises(ValueError, match="phi_col contains non-finite"):
            effect_from_irfs(phi, pt, cond)

    def test_ratio_matrix_works_like_full_matrix(self, rng):
        # only ratios of the orthogonalised IRFs enter, so a matrix
        # normalised to unit diagonal gives identical results
        m = random_varma(rng, K=3, ell=1)
        ordering = random_ordering(rng, m.var_names)
        sf = make_systems_form(m, ordering, 1)
        phi = irf_total(sf)
        pt = cholesky_irfs(m, ordering, 1)
        ratios = pt / np.diag(pt)[None, :]
        cond = wrap_condition(random_condition(rng, sf.size, 3), sf)
        a = effect_from_irfs(phi[:, 0], pt, cond)
        b = effect_from_irfs(phi[:, 0], ratios, cond)
        assert np.max(np.abs(a.channel - b.channel)) <= 1e-10


class TestAnyHorizonHelper:
    def test_expansion(self):
        assert any_horizon("mil", range(3)) == "mil_0 | mil_1 | mil_2"

    def test_parses(self):
        cond = parse_condition(any_horizon("pi", range(2)), LABELS3, 3, 1)
        assert cond.root == Or((Var(2), Var(5)))

import pytest
from hypothesis import given, settings, strategies as st

from sgparse.align import align, derive_gold, tokenize
from sgparse.corpus import generate_synthetic
from sgparse.errors import IllegalAction, OracleStuck
from sgparse.graph import Arc, ArcRule, ArcSet, EdgeLabel, to_node_centric_lenient
from sgparse.transition import (
    REDUCE,
    SHIFT,
    apply,
    format_trace,
    initial,
    inventory,
    is_terminal,
    left,
    legal_actions,
    oracle,
    oracle_parse,
    preferred,
    right,
)

A, S, O, C, B = (EdgeLabel.ATTR, EdgeLabel.SUBJ, EdgeLabel.OBJT,
                 EdgeLabel.CONT, EdgeLabel.BEGN)

FIG_ACTIONS = [
    SHIFT, left(A), SHIFT, SHIFT, left(C), SHIFT, left(C), SHIFT, SHIFT,
    REDUCE, SHIFT, right(O), right(S), left(B),
]


def run(n, actions):
    c = initial(n)
    for a in actions:
        c = apply(c, a)
    return c


class TestInventory:
    def test_left_rule_has_ten_actions(self):
        actions = inventory(ArcRule.LEFT)
        assert len(actions) == 10
        assert left(C) in actions and right(C) not in actions
        assert left(B) in actions and right(B) not in actions

    def test_right_rule_swaps_cont(self):
        actions = inventory(ArcRule.RIGHT)
        assert len(actions) == 10
        assert right(C) in actions and left(C) not in actions

    @pytest.mark.parametrize("rule", list(ArcRule))
    def test_scorer_order_and_one_tuple_per_rule(self, rule):
        cont = left(C) if rule is ArcRule.LEFT else right(C)
        labels = (A, S, O)
        assert inventory(rule) == (SHIFT, REDUCE, *map(left, labels), cont, left(B),
                                   *map(right, labels))
        assert inventory(rule) is inventory(rule)


class TestInitial:
    def test_seven_tokens(self):
        c = initial(7)
        assert c.stack == ()
        assert c.buffer == tuple(range(1, 9))

    def test_zero_tokens_already_terminal(self):
        c = initial(0)
        assert c.buffer == (1,)
        assert is_terminal(c)

    def test_one_token(self):
        assert initial(1).buffer == (1, 2)


class TestLegalActions:
    def test_mid_parse_state(self):
        # stack [2, 5, 6], buffer [7, ROOT]
        c = run(7, FIG_ACTIONS[:9])
        assert c.stack == (2, 5, 6)
        assert c.buffer == (7, 8)
        expected = {SHIFT, REDUCE, left(A), left(S), left(O), left(C),
                    right(A), right(S), right(O)}
        assert legal_actions(c, ArcRule.LEFT) == frozenset(expected)

    def test_initial_allows_shift_only(self):
        assert legal_actions(initial(7), ArcRule.LEFT) == frozenset({SHIFT})

    def test_root_front_allows_begn_and_reduce(self):
        c = run(1, [SHIFT])
        assert c.stack == (1,) and c.buffer == (2,)
        assert legal_actions(c, ArcRule.LEFT) == frozenset({left(B), REDUCE})

    def test_cont_requires_adjacency(self):
        # stack [1], buffer [3, ROOT] after dropping token 2
        assert left(C) not in legal_actions(run(3, [SHIFT, SHIFT, REDUCE]), ArcRule.LEFT)
        assert left(C) in legal_actions(run(3, [SHIFT]), ArcRule.LEFT)


class TestApply:
    def test_left_cont_from_worked_example(self):
        c = run(7, FIG_ACTIONS[:4])
        assert c.stack == (2, 3)
        after = apply(c, left(C))
        assert Arc(4, 3, C) in after.arcs
        assert after.stack == (2,)

    def test_right_objt_from_worked_example(self):
        c = run(7, FIG_ACTIONS[:11])
        assert c.stack == (2, 5, 7)
        after = apply(c, right(O))
        assert Arc(5, 7, O) in after.arcs
        assert after.stack == (2, 5)

    def test_reduce_pops_without_arcs(self):
        c = run(7, FIG_ACTIONS[:9])
        after = apply(c, REDUCE)
        assert after.arcs == c.arcs
        assert after.stack == c.stack[:-1]

    def test_illegal_action_raises(self):
        with pytest.raises(IllegalAction):
            apply(initial(3), REDUCE)
        with pytest.raises(IllegalAction):
            apply(run(1, [SHIFT]), SHIFT)  # buffer front is ROOT
        with pytest.raises(IllegalAction):
            apply(run(2, [SHIFT]), left(B))  # BEGN with a token in front


class TestIsTerminal:
    def test_worked_example_finishes(self):
        assert is_terminal(run(7, FIG_ACTIONS))

    def test_initial_not_terminal(self):
        assert not is_terminal(initial(7))

    def test_empty_sentence_terminal(self):
        assert is_terminal(initial(0))


class TestOracle:
    def test_reduce_is_exclusive(self, fig_gold):
        gold, reduce_set = fig_gold
        c = run(7, FIG_ACTIONS[:9])
        assert oracle(c, gold, reduce_set) == frozenset({REDUCE})

    def test_left_attr_step(self, fig_gold):
        gold, reduce_set = fig_gold
        c = run(7, FIG_ACTIONS[:1])
        assert oracle(c, gold, reduce_set) == frozenset({left(A)})

    def test_initial_shift(self, fig_gold):
        gold, reduce_set = fig_gold
        assert oracle(initial(7), gold, reduce_set) == frozenset({SHIFT})

    def test_right_waits_for_pending_dependent(self, fig_gold):
        gold, reduce_set = fig_gold
        c = run(7, FIG_ACTIONS[:8])
        # stack [2, 5]; SUBJ arc (2, 5) is gold but 5 still heads token 7
        assert c.stack == (2, 5)
        assert oracle(c, gold, reduce_set) == frozenset({SHIFT})

    def test_oracle_subset_of_legal(self, fig_gold):
        gold, reduce_set = fig_gold
        c = initial(7)
        for a in FIG_ACTIONS:
            assert oracle(c, gold, reduce_set) <= legal_actions(c, ArcRule.LEFT)
            c = apply(c, a)


class TestOracleParse:
    def test_worked_example_sequence(self, fig_gold, fig_tokens):
        gold, reduce_set = fig_gold
        assert oracle_parse(len(fig_tokens), gold, reduce_set) == FIG_ACTIONS

    def test_empty_gold_reduces_each_token_immediately(self):
        # REDUCE is imposed as soon as it is zero-cost, directly after a shift
        gold = ArcSet(3)
        actions = oracle_parse(3, gold, frozenset({1, 2, 3}))
        assert actions == [SHIFT, REDUCE, SHIFT, REDUCE, SHIFT, REDUCE]

    def test_empty_sentence(self):
        assert oracle_parse(0, ArcSet(0), frozenset()) == []

    def test_nonprojective_gold_gets_stuck(self):
        # 1 -> 3 and 2's head beyond 3 cross
        gold = ArcSet(4, frozenset({Arc(1, 3, O), Arc(4, 2, A),
                                    Arc(5, 1, B), Arc(5, 4, B)}))
        with pytest.raises(OracleStuck):
            oracle_parse(4, gold, frozenset())

    def test_completeness_on_synthetic(self):
        for record in generate_synthetic(80, seed=21):
            tokens = tokenize(record.phrase)
            al = align(record.phrase, record.graph)
            gold, reduce_set = derive_gold(al, record.graph, ArcRule.LEFT, len(tokens))
            actions = oracle_parse(len(tokens), gold, reduce_set)
            c = initial(len(tokens))
            n_reduce = 0
            for a in actions:
                assert a in legal_actions(c, ArcRule.LEFT)
                n_reduce += a == REDUCE
                c = apply(c, a)
            assert is_terminal(c)
            assert c.arc_set() == gold
            assert n_reduce == len(reduce_set)
            assert len(c.arcs) + n_reduce == len(tokens)
            assert len(actions) <= 2 * len(tokens) + 1

    def test_right_rule_round_trip(self):
        for record in generate_synthetic(40, seed=22):
            tokens = tokenize(record.phrase)
            al = align(record.phrase, record.graph)
            gold, reduce_set = derive_gold(al, record.graph, ArcRule.RIGHT, len(tokens))
            actions = oracle_parse(len(tokens), gold, reduce_set)
            c = initial(len(tokens))
            for a in actions:
                assert a in legal_actions(c, ArcRule.RIGHT)
                c = apply(c, a)
            assert c.arc_set() == gold


class TestRandomLegalWalk:
    """Any walk of legal actions ends in a well-formed, convertible parse."""

    @settings(max_examples=300, deadline=None)
    @given(rule=st.sampled_from(list(ArcRule)), n=st.integers(0, 10), data=st.data())
    def test_terminates_in_2n_steps_with_valid_arcs(self, rule, n, data):
        c = initial(n)
        steps = 0
        while not is_terminal(c) and steps <= 2 * n:
            c = apply(c, data.draw(st.sampled_from(sorted(legal_actions(c, rule), key=str))))
            steps += 1
        assert is_terminal(c) and steps == 2 * n
        arcs = c.arc_set()  # ArcSet checks its invariants on construction
        to_node_centric_lenient(arcs, [f"w{i}" for i in range(1, n + 1)])


class TestPreferred:
    def test_priority_order(self):
        assert preferred({SHIFT, REDUCE}) == REDUCE
        assert preferred({SHIFT, left(A)}) == left(A)
        assert preferred({right(S), SHIFT}) == right(S)
        assert preferred({SHIFT}) == SHIFT


class TestFormatTrace:
    def test_worked_example_table(self, fig_tokens, data_dir):
        text = format_trace(fig_tokens, FIG_ACTIONS)
        with open(f"{data_dir}/golden_trace.txt", encoding="utf-8") as handle:
            assert text == handle.read()

    def test_empty_sentence_trace(self):
        assert format_trace([], []) == "0\t\tROOT\t\n"

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

    def test_path_that_skips_gold_arcs_raises(self, arc_skipping_oracle, fig_gold, fig_tokens):
        gold, reduce_set = fig_gold
        with pytest.raises(OracleStuck, match="ends without the gold arcs"):
            oracle_parse(len(fig_tokens), gold, reduce_set)

    def test_completeness_on_synthetic(self):
        for record in generate_synthetic(80, seed=21):
            tokens = tokenize(record.phrase)
            al = align(record.phrase, record.graph)
            gold, reduce_set = derive_gold(al, record.graph, ArcRule.LEFT)
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
            gold, reduce_set = derive_gold(al, record.graph, ArcRule.RIGHT)
            actions = oracle_parse(len(tokens), gold, reduce_set)
            c = initial(len(tokens))
            for a in actions:
                assert a in legal_actions(c, ArcRule.RIGHT)
                c = apply(c, a)
            assert c.arc_set() == gold

    @settings(max_examples=300, deadline=None)
    @given(rule=st.sampled_from(list(ArcRule)), n=st.integers(0, 10), data=st.data())
    def test_random_projective_trees_round_trip(self, rule, n, data):
        gold, reduce_set = data.draw(projective_gold(n, rule))
        actions = oracle_parse(n, gold, reduce_set)
        assert set(actions) <= set(inventory(rule))
        c = run(n, actions)
        assert is_terminal(c) and c.arc_set() == gold


@st.composite
def projective_gold(draw, n, rule):
    """A random projective gold tree over tokens 1..n and ROOT, and the
    reduce set of the tokens left out of it.

    Every subtree covers a contiguous run of the tree's tokens, so no two arcs
    cross; ROOT heads the BEGN arcs, and CONT joins adjacent tokens in the
    direction the arc rule builds it.
    """
    root = n + 1
    in_tree = [t for t in range(1, n + 1) if draw(st.integers(0, 3))]
    arcs = []

    def runs(tokens):
        out = []
        for t in tokens:
            if not out or draw(st.booleans()):
                out.append([])
            out[-1].append(t)
        return out

    def subtree(tokens):
        i = draw(st.integers(0, len(tokens) - 1))
        for side in (tokens[:i], tokens[i + 1:]):
            for group in runs(side):
                dep = subtree(group)
                labels = [A, S, O]
                if tokens[i] - dep == (1 if rule is ArcRule.LEFT else -1):
                    labels.append(C)
                arcs.append(Arc(tokens[i], dep, draw(st.sampled_from(labels))))
        return tokens[i]

    for group in runs(in_tree):
        arcs.append(Arc(root, subtree(group), B))
    return ArcSet(n, frozenset(arcs)), frozenset(range(1, n + 1)) - set(in_tree)


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


def direct_legal_actions(c, rule):
    """The legality rules evaluated on c itself, action by action, as
    `legal_actions` did before it looked its set up by configuration shape;
    kept as the reference for that lookup."""
    out = set()
    for a in inventory(rule):
        if a.kind == "SHIFT":
            ok = c.buffer[0] != c.root
        elif a.kind == "REDUCE":
            ok = bool(c.stack)
        elif a.kind == "LEFT":
            ok = (bool(c.stack) and (a.label is B) == (c.buffer[0] == c.root)
                  and (a.label is not C or c.buffer[0] == c.stack[-1] + 1))
        else:
            ok = (len(c.stack) >= 2 and a.label is not B
                  and (a.label is not C or c.stack[-1] == c.stack[-2] + 1))
        if ok:
            out.add(a)
    return frozenset(out)


@st.composite
def reachable_configurations(draw, rule):
    """Every configuration of a random walk of legal actions, chosen by the
    direct rules, from the initial configuration to the terminal one."""
    c = initial(draw(st.integers(0, 12)))
    walk = [c]
    while not is_terminal(c):
        c = apply(c, draw(st.sampled_from(sorted(direct_legal_actions(c, rule), key=str))))
        walk.append(c)
    return walk


class TestLegalActionsByShape:
    """`legal_actions` looks its set up by configuration shape: the stack
    depth (0, 1, or 2 or more), whether the buffer front is ROOT, whether
    the stack top is adjacent to the front, and whether the top two are
    adjacent.  It gives the set of the direct rules, and every configuration
    of one shape the same frozenset object."""

    @settings(max_examples=300, deadline=None)
    @given(rule=st.sampled_from(list(ArcRule)), data=st.data())
    def test_lookup_equals_direct_rules(self, rule, data):
        by_shape = {}
        for c in data.draw(reachable_configurations(rule)):
            legal = legal_actions(c, rule)
            assert legal == direct_legal_actions(c, rule)
            stack, front = c.stack, c.buffer[0]
            shape = (min(len(stack), 2), front == c.root,
                     bool(stack) and front == stack[-1] + 1,
                     len(stack) >= 2 and stack[-1] == stack[-2] + 1)
            assert by_shape.setdefault(shape, legal) is legal


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

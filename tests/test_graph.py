import pytest
from hypothesis import given, settings, strategies as st

from sgparse.align import AlignmentResult, align, tokenize
from sgparse.corpus import generate_synthetic
from sgparse.errors import AlignmentConflict, ArcConflict, MalformedArcs
from sgparse.graph import (
    Arc,
    ArcRule,
    ArcSet,
    EdgeLabel,
    NodeRef,
    SceneGraph,
    is_acyclic,
    normalize_label,
    to_edge_centric,
    to_node_centric,
    to_node_centric_lenient,
    to_node_centric_with_spans,
)
from sgparse.transition import apply, initial, is_terminal, legal_actions
from conftest import canonical

A = EdgeLabel.ATTR
S = EdgeLabel.SUBJ
O = EdgeLabel.OBJT
C = EdgeLabel.CONT
B = EdgeLabel.BEGN


def arcs_as_tuples(arc_set):
    return sorted((a.head, a.dep, a.label) for a in arc_set.arcs)


FIG_ARCS = sorted([(2, 1, A), (4, 3, C), (5, 4, C), (2, 5, S), (5, 7, O), (8, 2, B)])


def first_conflict(arc_set):
    """The MalformedArcs that converting `arc_set` raises, or None.

    Written apart from sgparse.graph, as the reference for its checks: CONT
    arcs in both directions first, then spans voted more than one node kind.
    """
    cont = [a for a in arc_set.arcs if a.label is C]
    directions = {a.head > a.dep for a in cont}
    if len(directions) > 1:
        return MalformedArcs("CONT arcs mix both directions",
                             tokens=sorted({a.dep for a in cont}), arcs=sorted(cont))
    left = not cont or directions.pop()
    pairs = {(min(a.head, a.dep), max(a.head, a.dep)) for a in cont}

    def span_of(token):
        start = end = token
        while (start - 1, start) in pairs:
            start -= 1
        while (end, end + 1) in pairs:
            end += 1
        return start, end

    votes = {}
    for arc in sorted(a for a in arc_set.arcs if a.label is not C):
        if arc.label is not B:
            head_kind = "relation" if arc.label is O else "object"
            votes.setdefault(span_of(arc.head), {}).setdefault(head_kind, []).append(arc)
        dep_kind = {B: "object", A: "attribute", S: "relation", O: "object"}[arc.label]
        votes.setdefault(span_of(arc.dep), {}).setdefault(dep_kind, []).append(arc)
    conflicted = {span: kinds for span, kinds in votes.items() if len(kinds) > 1}
    if not conflicted:
        return None
    tokens = sorted(span[1] if left else span[0] for span in conflicted)
    return MalformedArcs(
        f"tokens {tokens} are typed as more than one node kind", tokens=tokens,
        arcs=sorted({a for kinds in conflicted.values() for arcs in kinds.values() for a in arcs}))


def lenient_by_retry(arc_set, tokens):
    """The reference for to_node_centric_lenient: while converting would raise,
    drop the latest offending arc in (head, dependent) order, then convert."""
    while (err := first_conflict(arc_set)) is not None:
        victim = max(err.arcs, key=lambda a: (a.head, a.dep))
        arc_set = ArcSet(arc_set.n_tokens, arc_set.arcs - {victim})
    return to_node_centric(arc_set, tokens)


@st.composite
def relabelled_walks(draw):
    """The arcs of a random legal walk with each arc below ROOT relabelled; a
    CONT label may go to any arc between adjacent tokens, so CONT directions
    mix and spans are voted more than one kind."""
    rule = draw(st.sampled_from(list(ArcRule)))
    n = draw(st.integers(0, 10))
    c = initial(n)
    while not is_terminal(c):
        c = apply(c, draw(st.sampled_from(sorted(legal_actions(c, rule), key=str))))
    arcs = []
    for arc in sorted(c.arc_set().arcs):
        if arc.label is not B:
            labels = [A, S, O] + ([C] if abs(arc.head - arc.dep) == 1 else [])
            arc = arc._replace(label=draw(st.sampled_from(labels)))
        arcs.append(arc)
    return ArcSet(n, frozenset(arcs))


class TestSceneGraph:
    def test_rejects_out_of_range_attribute(self):
        with pytest.raises(ValueError):
            SceneGraph(objects=("dog",), attributes=((1, "black"),))

    def test_rejects_out_of_range_relation(self):
        with pytest.raises(ValueError):
            SceneGraph(objects=("dog",), relations=((0, "near", 3),))

    def test_normalize_label(self):
        assert normalize_label("  In   Front of ") == "in front of"


class TestArcSet:
    def test_single_head_enforced(self):
        with pytest.raises(ArcConflict):
            ArcSet(3, frozenset({Arc(1, 2, A), Arc(3, 2, S)}))

    def test_root_head_must_be_begn(self):
        with pytest.raises(ArcConflict):
            ArcSet(2, frozenset({Arc(3, 1, A)}))
        with pytest.raises(ArcConflict):
            ArcSet(2, frozenset({Arc(1, 2, B)}))

    def test_cont_must_be_adjacent(self):
        with pytest.raises(ArcConflict):
            ArcSet(3, frozenset({Arc(3, 1, C)}))

    def test_root_never_dependent(self):
        with pytest.raises(ArcConflict):
            ArcSet(2, frozenset({Arc(1, 3, A)}))


class TestToEdgeCentric:
    def test_worked_example_left_rule(self, fig_graph, fig_alignment):
        arc_set = to_edge_centric(fig_graph, fig_alignment, ArcRule.LEFT)
        assert arcs_as_tuples(arc_set) == FIG_ARCS

    def test_empty_graph(self):
        al = AlignmentResult(("a", "b", "c", "d"))
        assert to_edge_centric(SceneGraph.empty(), al, ArcRule.LEFT) == ArcSet(4)

    def test_worked_example_right_rule(self, fig_graph, fig_alignment):
        # chain reversed, phrase head becomes its first word
        arc_set = to_edge_centric(fig_graph, fig_alignment, ArcRule.RIGHT)
        assert arcs_as_tuples(arc_set) == sorted(
            [(2, 1, A), (3, 4, C), (4, 5, C), (2, 3, S), (3, 7, O), (8, 2, B)]
        )

    def test_overlapping_spans_rejected(self, fig_tokens):
        spans = {
            NodeRef("object", 0): (2, 2),
            NodeRef("object", 1): (2, 3),
        }
        with pytest.raises(AlignmentConflict, match="overlaps"):
            AlignmentResult(tuple(fig_tokens), spans)

    @pytest.mark.parametrize("span", [(7, 8), (0, 1), (3, 2)])
    def test_out_of_bounds_span_rejected(self, fig_tokens, span):
        with pytest.raises(AlignmentConflict, match="out of bounds"):
            AlignmentResult(tuple(fig_tokens), {NodeRef("object", 0): span})

    def test_unaligned_relation_endpoint_contributes_nothing(self):
        # relation and subject aligned, object not: no SUBJ/OBJT/chain arcs
        graph = SceneGraph(objects=("dog", "cat"), relations=((0, "next to", 1),))
        spans = {NodeRef("object", 0): (1, 1), NodeRef("relation", 0): (2, 3)}
        al = AlignmentResult(("dog", "next", "to", "cat"), spans)
        arc_set = to_edge_centric(graph, al, ArcRule.LEFT)
        assert arcs_as_tuples(arc_set) == [(5, 1, B)]

    def test_double_objt_dependent_raises(self):
        # one object serving two relations as object: single-head is violated
        graph = SceneGraph(
            objects=("ball", "table", "lamp"),
            relations=((0, "on", 1), (2, "near", 1)),
        )
        al = align("ball on table near lamp", graph)
        with pytest.raises(ArcConflict):
            to_edge_centric(graph, al, ArcRule.LEFT)


class TestToNodeCentric:
    def test_worked_example(self, fig_tokens):
        arc_set = ArcSet(7, frozenset(Arc(h, d, l) for h, d, l in FIG_ARCS))
        graph = to_node_centric(arc_set, fig_tokens)
        assert graph.objects == ("barrier", "person")
        assert graph.attributes == ((0, "black"),)
        assert graph.relations == ((0, "in front of", 1),)

    def test_empty(self):
        assert to_node_centric(ArcSet(0), []) == SceneGraph.empty()

    def test_single_isolated_object(self):
        arc_set = ArcSet(1, frozenset({Arc(2, 1, B)}))
        assert to_node_centric(arc_set, ["dog"]) == SceneGraph(objects=("dog",))

    def test_type_conflict_lists_tokens(self):
        # token 2 is an ATTR dependent and a SUBJ head at once
        arc_set = ArcSet(3, frozenset({Arc(1, 2, A), Arc(2, 3, S)}))
        with pytest.raises(MalformedArcs) as err:
            to_node_centric(arc_set, ["a", "b", "c"])
        assert 2 in err.value.tokens
        assert err.value.arcs

    def test_lenient_drops_later_arc(self):
        arc_set = ArcSet(3, frozenset({Arc(1, 2, A), Arc(2, 3, S)}))
        graph = to_node_centric_lenient(arc_set, ["a", "b", "c"])
        # (2, 3, SUBJ) sorts later, so the ATTR reading survives
        assert graph == SceneGraph(objects=("a",), attributes=((0, "b"),))

    def test_untyped_chain_dropped(self):
        arc_set = ArcSet(3, frozenset({Arc(2, 1, C), Arc(4, 3, B)}))
        graph = to_node_centric(arc_set, ["x", "y", "dog"])
        assert graph == SceneGraph(objects=("dog",))

    def test_mixed_chain_directions_rejected(self):
        arc_set = ArcSet(4, frozenset({Arc(2, 1, C), Arc(3, 4, C)}))
        with pytest.raises(MalformedArcs):
            to_node_centric(arc_set, ["a", "b", "c", "d"])


class TestConflictResolution:
    """Strict conversion against first_conflict, lenient against lenient_by_retry."""

    @settings(max_examples=300, deadline=None)
    @given(arc_set=relabelled_walks())
    def test_matches_reference_on_relabelled_walks(self, arc_set):
        tokens = [f"w{i}" for i in range(1, arc_set.n_tokens + 1)]
        assert to_node_centric_lenient(arc_set, tokens) == lenient_by_retry(arc_set, tokens)
        expected = first_conflict(arc_set)
        if expected is None:
            to_node_centric(arc_set, tokens)
            return
        with pytest.raises(MalformedArcs) as err:
            to_node_centric(arc_set, tokens)
        assert (str(err.value), err.value.tokens, err.value.arcs) == (
            str(expected), expected.tokens, expected.arcs)

    def test_cascade_of_drops(self):
        # tokens 2..4 each head one ATTR arc and depend on another; the latest
        # arc goes first, and each drop leaves one conflict fewer
        arc_set = ArcSet(5, frozenset({Arc(6, 1, B), Arc(1, 2, A), Arc(2, 3, A),
                                       Arc(3, 4, A), Arc(4, 5, A)}))
        tokens = ["a", "b", "c", "d", "e"]
        with pytest.raises(MalformedArcs) as err:
            to_node_centric(arc_set, tokens)
        assert err.value.tokens == (2, 3, 4)
        graph = to_node_centric_lenient(arc_set, tokens)
        assert graph == SceneGraph(objects=("a",), attributes=((0, "b"),))
        assert graph == lenient_by_retry(arc_set, tokens)

    def test_conflict_lists_each_arc_once(self):
        # (2, 3) and (3, 4) each vote on two conflicted tokens
        chain = [Arc(1, 2, A), Arc(2, 3, A), Arc(3, 4, A), Arc(4, 5, A)]
        arc_set = ArcSet(5, frozenset(chain + [Arc(6, 1, B)]))
        with pytest.raises(MalformedArcs) as err:
            to_node_centric(arc_set, ["a", "b", "c", "d", "e"])
        assert err.value.arcs == tuple(chain) == first_conflict(arc_set).arcs

    def test_lenient_resolves_mixed_chain_directions(self):
        # (2, 1) points left, (3, 4) and (4, 5) right: the latest CONT arcs,
        # (4, 5) and then (3, 4), go until only the left chain is left
        arc_set = ArcSet(5, frozenset({Arc(2, 1, C), Arc(3, 4, C), Arc(4, 5, C),
                                       Arc(6, 2, B), Arc(6, 3, B)}))
        tokens = ["a", "b", "c", "d", "e"]
        graph = to_node_centric_lenient(arc_set, tokens)
        assert graph == SceneGraph(objects=("a b", "c"))
        assert graph == lenient_by_retry(arc_set, tokens)


class TestIsAcyclic:
    def test_worked_example(self, fig_graph):
        assert is_acyclic(fig_graph)

    def test_two_cycle(self):
        graph = SceneGraph(
            objects=("a", "b"), relations=((0, "holds", 1), (1, "holds", 0))
        )
        assert not is_acyclic(graph)

    def test_empty(self):
        assert is_acyclic(SceneGraph.empty())

    def test_self_relation(self):
        graph = SceneGraph(objects=("a",), relations=((0, "touching", 0),))
        assert not is_acyclic(graph)


class TestRoundTrip:
    @pytest.mark.parametrize("rule", [ArcRule.LEFT, ArcRule.RIGHT])
    def test_synthetic_round_trip(self, rule):
        records = generate_synthetic(120, seed=5)
        for record in records:
            al = align(record.phrase, record.graph)
            assert al.node_spans.keys() == set(record.graph.node_refs())
            arc_set = to_edge_centric(record.graph, al, rule)
            tokens = tokenize(record.phrase)
            back = to_node_centric(arc_set, tokens)
            assert canonical(back) == canonical(record.graph)

    @pytest.mark.parametrize("rule", [ArcRule.LEFT, ArcRule.RIGHT])
    def test_arcs_rebuild_from_recovered_spans(self, rule, fig_graph, fig_alignment, fig_tokens):
        arc_set = to_edge_centric(fig_graph, fig_alignment, rule)
        graph, spans = to_node_centric_with_spans(arc_set, fig_tokens)
        al = AlignmentResult(tuple(fig_tokens), spans)
        assert to_edge_centric(graph, al, rule) == arc_set

    def test_begn_count_matches_parentless_objects(self):
        for record in generate_synthetic(60, seed=9):
            al = align(record.phrase, record.graph)
            arc_set = to_edge_centric(record.graph, al, ArcRule.LEFT)
            begn = sum(1 for a in arc_set.arcs if a.label is B)
            objt_deps = {a.dep for a in arc_set.arcs if a.label is O}
            n_parentless = len(record.graph.objects) - len(objt_deps)
            assert begn == n_parentless

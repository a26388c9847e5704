import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgparse.align import SynonymLexicon
from sgparse.graph import SceneGraph
from sgparse.spice import (
    TupleBag,
    _max_matching,
    corpus_f,
    evaluate_corpus,
    extract_tuples,
    f_score,
    format_report,
    match_count,
)


def random_graph(rng, max_objects=4):
    n = int(rng.integers(0, max_objects + 1))
    labels = ["dog", "cat", "man", "tree", "car"]
    objects = tuple(labels[int(rng.integers(0, len(labels)))] for _ in range(n))
    attributes = tuple(
        (int(rng.integers(0, n)), ["red", "big", "old"][int(rng.integers(0, 3))])
        for _ in range(int(rng.integers(0, 3)) if n else 0)
    )
    relations = tuple(
        (int(rng.integers(0, n)), ["near", "holds"][int(rng.integers(0, 2))],
         int(rng.integers(0, n)))
        for _ in range(int(rng.integers(0, 3)) if n else 0)
    )
    return SceneGraph(objects=objects, attributes=attributes, relations=relations)


LEXICON = SynonymLexicon.load(__file__.rsplit("/", 1)[0] + "/data/lexicon.txt")


@st.composite
def scene_graphs(draw, max_objects=4):
    """Random graphs over words that the test lexicon relates, the empty
    graph included."""
    objects = draw(st.lists(st.sampled_from(["man", "guy", "dog", "puppy", "car", "tree"]),
                            max_size=max_objects))
    if not objects:
        return SceneGraph()
    node = st.integers(0, len(objects) - 1)
    attributes = draw(st.lists(st.tuples(node, st.sampled_from(["big", "large", "red"])),
                               max_size=3))
    relations = draw(st.lists(st.tuples(node, st.sampled_from(["near", "in front of"]), node),
                              max_size=3))
    return SceneGraph(objects=tuple(objects), attributes=tuple(attributes),
                      relations=tuple(relations))


def brute_force_matching(cands, refs, compatible):
    """Optimal assignment size by exhaustive permutation; oracle for small bags."""
    if len(cands) > len(refs):
        cands, refs = refs, cands
        compatible = lambda a, b, c=compatible: c(b, a)
    best = 0
    for perm in itertools.permutations(range(len(refs)), len(cands)):
        best = max(best, sum(1 for i, j in enumerate(perm) if compatible(cands[i], refs[j])))
    return best


class TestExtractTuples:
    def test_worked_example(self, fig_graph):
        bag = extract_tuples(fig_graph)
        assert bag.objects == (("barrier",), ("person",))
        assert bag.attributes == (("barrier", "black"),)
        assert bag.relations == (("barrier", "in front of", "person"),)
        assert bag.total() == 4

    def test_empty(self):
        assert extract_tuples(SceneGraph.empty()).total() == 0

    def test_duplicate_instances_preserved(self):
        bag = extract_tuples(SceneGraph(objects=("man", "man")))
        assert bag.objects == (("man",), ("man",))


class TestMatchCount:
    def test_identical_bags(self):
        graph = SceneGraph(objects=("a", "b", "c"), attributes=((0, "x"),))
        bag = extract_tuples(graph)
        counts = match_count(bag, bag)
        assert counts.objects == 3 and counts.attributes == 1

    def test_one_to_one_enforced(self):
        candidate = extract_tuples(SceneGraph(objects=("man", "man")))
        reference = extract_tuples(SceneGraph(objects=("man",)))
        assert match_count(candidate, reference).objects == 1
        assert match_count(reference, candidate).objects == 1

    def test_lexicon_match(self):
        lex = SynonymLexicon.from_pairs([("man", "guy")])
        candidate = extract_tuples(SceneGraph(objects=("guy",)))
        reference = extract_tuples(SceneGraph(objects=("man",)))
        assert match_count(candidate, reference, lex).objects == 1

    def test_multiword_slots_match_per_word(self):
        lex = SynonymLexicon.from_pairs([("front", "fore")])
        a = TupleBag(relations=(("dog", "in front of", "cat"),))
        b = TupleBag(relations=(("dog", "in fore of", "cat"),))
        assert match_count(a, b, lex).relations == 1
        c = TupleBag(relations=(("dog", "in front", "cat"),))
        assert match_count(a, c, lex).relations == 0  # word counts differ

    def test_symmetry_random(self):
        rng = np.random.default_rng(5)
        lex = SynonymLexicon.from_pairs([("dog", "cat")])
        for _ in range(50):
            a = extract_tuples(random_graph(rng))
            b = extract_tuples(random_graph(rng))
            fwd = match_count(a, b, lex)
            rev = match_count(b, a, lex)
            assert fwd == rev

    def test_matching_is_maximum_on_small_bags(self):
        rng = np.random.default_rng(6)
        lex = SynonymLexicon.from_pairs([("dog", "cat"), ("man", "guy")])
        compatible = lambda x, y: len(x) == len(y) and all(
            lex.matches(u, v) for u, v in zip(x, y))
        for _ in range(200):
            a = extract_tuples(random_graph(rng))
            b = extract_tuples(random_graph(rng))
            counts = match_count(a, b, lex)
            for name in ("objects", "attributes", "relations"):
                cands = getattr(a, name)
                refs = getattr(b, name)
                if len(cands) > 6 or len(refs) > 6:
                    continue
                assert getattr(counts, name) == brute_force_matching(
                    list(cands), list(refs), compatible)
                assert getattr(counts, name) <= min(len(cands), len(refs))


def kuhn_matching(adjacency, n_right):
    """Recursive augmenting-path matching; reference for the iterative one."""
    match_right = [-1] * n_right

    def augment(u, seen):
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    return sum(augment(u, [False] * n_right) for u in range(len(adjacency)))


class TestMaxMatching:
    def test_agrees_with_recursive_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n_left, n_right = (int(k) for k in rng.integers(0, 40, size=2))
            density = float(rng.random()) * 0.3
            adjacency = [
                [int(v) for v in rng.permutation(n_right) if rng.random() < density]
                for _ in range(n_left)
            ]
            assert _max_matching(adjacency, n_right) == kuhn_matching(adjacency, n_right)

    def test_needs_an_augmenting_path(self):
        # a greedy first pick (0-0) must be undone to reach size 2
        assert _max_matching([[0, 1], [0]], 2) == 2

    def test_empty_sides(self):
        assert _max_matching([], 3) == 0
        assert _max_matching([[], []], 0) == 0


class TestFScore:
    @settings(max_examples=300, deadline=None)
    @given(candidate=scene_graphs(), reference=scene_graphs(),
           lexicon=st.sampled_from([None, LEXICON]))
    @example(candidate=SceneGraph(), reference=SceneGraph(), lexicon=None)
    @example(candidate=SceneGraph(), reference=SceneGraph(objects=("man",)), lexicon=LEXICON)
    def test_bounded_and_one_against_itself(self, candidate, reference, lexicon):
        p, r, f = f_score(candidate, reference, lexicon)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
        assert f_score(candidate, candidate, lexicon).f == 1.0

    def test_many_same_label_objects(self):
        # the recursive matcher this replaced overflowed the stack here
        g = SceneGraph(objects=("man",) * 1200)
        assert f_score(g, g).f == 1.0

    def test_identity(self, fig_graph):
        assert f_score(fig_graph, fig_graph) == (1.0, 1.0, 1.0)

    def test_missing_relation(self, fig_graph):
        candidate = SceneGraph(
            objects=fig_graph.objects, attributes=fig_graph.attributes
        )
        p, r, f = f_score(candidate, fig_graph)
        assert p == 1.0
        assert r == pytest.approx(3 / 4)
        assert f == pytest.approx(6 / 7)

    def test_disjoint(self):
        a = SceneGraph(objects=("dog",))
        b = SceneGraph(objects=("cat",))
        assert f_score(a, b).f == 0.0

    def test_both_empty_convention(self):
        assert f_score(SceneGraph.empty(), SceneGraph.empty()) == (1.0, 1.0, 1.0)

    def test_one_empty_convention(self):
        a = SceneGraph(objects=("dog",))
        assert f_score(a, SceneGraph.empty()).f == 0.0
        assert f_score(SceneGraph.empty(), a).f == 0.0

    def test_bounds_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = random_graph(rng), random_graph(rng)
            p, r, f = f_score(a, b)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
            matched = match_count(extract_tuples(a), extract_tuples(b)).total()
            if extract_tuples(a).total() or extract_tuples(b).total():
                assert (f == 0.0) == (matched == 0)
            assert (f == 1.0) == (p == 1.0 and r == 1.0)


class TestCorpusF:
    def test_all_identical(self):
        graphs = [SceneGraph(objects=("dog",)), SceneGraph(objects=("cat", "dog"))]
        assert corpus_f(graphs, graphs) == 1.0

    def test_mixture(self):
        perfect = SceneGraph(objects=("dog",))
        disjoint = SceneGraph(objects=("cat",))
        assert corpus_f([perfect, disjoint], [perfect, SceneGraph(objects=("bird",))]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_f([SceneGraph.empty()], [])


class TestReport:
    def test_key_value_lines_present(self, fig_graph):
        result = evaluate_corpus([fig_graph], [fig_graph])
        text = format_report(result)
        assert "mean_f=1.0000" in text
        assert "objects_p=1.0000" in text
        assert "relations_f=1.0000" in text
        assert "regions=1" in text

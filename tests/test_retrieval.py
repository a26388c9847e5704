import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgparse import retrieval
from sgparse.align import SynonymLexicon
from sgparse.graph import SceneGraph
from sgparse.retrieval import (
    build_index,
    evaluate_retrieval,
    format_results,
    merge_graphs,
    object_labels,
    rank_images,
    subgraph_of,
)
from sgparse.spice import f_score

LEXICON = SynonymLexicon.load(__file__.rsplit("/", 1)[0] + "/data/lexicon.txt")


def obj_graph(*labels):
    return SceneGraph(objects=tuple(labels))


class TestBuildIndex:
    def test_single_region_is_identity(self):
        g = SceneGraph(objects=("dog",), attributes=((0, "red"),))
        index = build_index([(1, [g])])
        assert index[0].graph == g

    def test_shared_labels_keep_multiplicity(self):
        index = build_index([(1, [obj_graph("man"), obj_graph("man")])])
        assert index[0].graph.objects == ("man", "man")

    def test_empty(self):
        assert build_index([]) == []

    def test_merge_reindexes_relations(self):
        a = SceneGraph(objects=("dog", "cat"), relations=((0, "near", 1),))
        b = SceneGraph(objects=("man",), attributes=((0, "old"),))
        merged = merge_graphs([a, b])
        assert merged.objects == ("dog", "cat", "man")
        assert merged.relations == ((0, "near", 1),)
        assert merged.attributes == ((2, "old"),)


class TestRankImages:
    def test_unique_subgraph_ranks_first(self):
        index = build_index([
            (1, [obj_graph("dog", "cat")]),
            (2, [obj_graph("tree", "car")]),
            (3, [obj_graph("man", "horse")]),
        ])
        assert rank_images(obj_graph("tree"), index)[0] == 2

    def test_exact_image_graph_ranks_first(self):
        g = SceneGraph(objects=("dog", "cat"), relations=((0, "near", 1),))
        index = build_index([(1, [obj_graph("bird")]), (2, [g])])
        assert rank_images(g, index)[0] == 2

    def test_graded_overlap_order(self):
        # equal-sized image graphs sharing 3, 2, 1 objects with the query
        query = obj_graph("a", "b", "c")
        index = build_index([
            (1, [obj_graph("a", "x", "y")]),
            (2, [obj_graph("a", "b", "z")]),
            (3, [obj_graph("a", "b", "c")]),
        ])
        assert rank_images(query, index) == [3, 2, 1]

    def test_ties_break_by_image_id(self):
        index = build_index([(9, [obj_graph("x")]), (4, [obj_graph("y")])])
        assert rank_images(obj_graph("dog"), index) == [4, 9]

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            rank_images(obj_graph("dog"), [])

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        labels = ["a", "b", "c", "d", "e"]
        index = build_index(
            (i, [obj_graph(*rng.choice(labels, size=3))]) for i in range(20)
        )
        query = obj_graph("a", "c")
        assert rank_images(query, index) == rank_images(query, index)


class TestSubgraphOf:
    def test_subset_and_superset(self):
        small = obj_graph("dog")
        big = SceneGraph(objects=("dog", "cat"), relations=((0, "near", 1),))
        assert subgraph_of(small, big)
        assert not subgraph_of(big, small)

    def test_multiplicity_respected(self):
        assert not subgraph_of(obj_graph("man", "man"), obj_graph("man"))


class TestEvaluateRetrieval:
    def test_oracle_setting_perfect_recall(self):
        # every query graph is a unique subgraph of exactly its own image
        index = build_index([
            (i, [SceneGraph(objects=(f"thing{i}", "dog"),
                            attributes=((0, "red"),))]) for i in range(20)
        ])
        queries = [(SceneGraph(objects=(f"thing{i}",)), {i}) for i in range(20)]
        result = evaluate_retrieval(queries, index)
        assert result.recall_at_5 == 1.0
        assert result.recall_at_10 == 1.0
        assert result.median_rank == 1.0

    def test_random_queries_median_near_half(self):
        # unrelated queries leave everything tied; rank = position in id order
        rng = np.random.default_rng(11)
        index = build_index([(i, [obj_graph(f"img{i}")]) for i in range(100)])
        queries = [(obj_graph("nomatch"), {int(rng.integers(0, 100))}) for _ in range(200)]
        result = evaluate_retrieval(queries, index)
        assert 40 <= result.median_rank <= 60

    def test_empty_truth_excluded(self):
        index = build_index([(1, [obj_graph("dog")])])
        result = evaluate_retrieval([(obj_graph("dog"), set()), (obj_graph("dog"), {1})], index)
        assert result.excluded == (0,)
        assert len(result.outcomes) == 1

    def test_reads_one_query_at_a_time(self, monkeypatch):
        """Query k is read from the iterable only after query k - 1 is
        ranked, and an excluded query is read in its turn too."""
        index = build_index([(1, [obj_graph("dog")]), (2, [obj_graph("cat")])])
        events = []

        def queries():
            for k, truth in enumerate([{1}, set(), {2}]):
                events.append(("read", k))
                yield obj_graph("dog"), truth

        rank = retrieval.rank_images
        monkeypatch.setattr(retrieval, "rank_images",
                            lambda graph, *a: events.append(("rank",)) or rank(graph, *a))
        result = evaluate_retrieval(queries(), index)
        assert events == [("read", 0), ("rank",), ("read", 1), ("read", 2), ("rank",)]
        assert result.excluded == (1,)
        assert [o.query_id for o in result.outcomes] == [0, 2]

    def test_recall_ordering(self):
        rng = np.random.default_rng(13)
        index = build_index([(i, [obj_graph(f"img{i}")]) for i in range(30)])
        queries = [(obj_graph(f"img{rng.integers(0, 30)}"), {int(rng.integers(0, 30))})
                   for _ in range(50)]
        result = evaluate_retrieval(queries, index)
        assert result.recall_at_10 >= result.recall_at_5

    def test_rank_monotonicity(self):
        # adding a query tuple that matches only image A never worsens A's rank
        rng = np.random.default_rng(17)
        shared = ["a", "b", "c", "d", "e", "f"]
        for trial in range(300):
            n_images = 8
            marker = "marker"
            target = int(rng.integers(0, n_images))
            graphs = []
            for i in range(n_images):
                labels = list(rng.choice(shared, size=int(rng.integers(1, 4))))
                if i == target:
                    labels.append(marker)
                graphs.append(obj_graph(*labels))
            index = build_index([(i, [g]) for i, g in enumerate(graphs)])
            base_query = obj_graph(*rng.choice(shared, size=2))
            extended = SceneGraph(objects=base_query.objects + (marker,))
            base_rank = rank_images(base_query, index).index(target)
            new_rank = rank_images(extended, index).index(target)
            assert new_rank <= base_rank


class TestFormatResults:
    def test_export_shape(self):
        index = build_index([(1, [obj_graph("dog")]), (2, [obj_graph("cat")])])
        result = evaluate_retrieval([(obj_graph("dog"), {1})], index)
        text = format_results(result)
        lines = text.strip().split("\n")
        assert lines[0].split("\t")[0] == "0"
        assert "R@5=1.0000" in text
        assert "median_rank=1" in text


def brute_force_rank(query_graph, index, lexicon=None):
    """F against every image, sorted by (-F, image id): the unfiltered ranker."""
    scored = [(f_score(query_graph, entry.graph, lexicon).f, entry.image_id) for entry in index]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [image_id for _, image_id in scored]


def brute_force_truth(query_graph, index):
    return {entry.image_id for entry in index if subgraph_of(query_graph, entry.graph)}


def filtered_truth(query_graph, index):
    """The ground-truth filter of `sgparse retrieve`."""
    labels = object_labels(query_graph)
    return {entry.image_id for entry in index
            if labels <= entry.labels and subgraph_of(query_graph, entry.graph)}


# "dog", "big dog" and "large puppy" are linked only through the lexicon;
# case and spacing variants must normalise to the same label.
LABELS = ["man", "guy", "person", "dog", "puppy", "tree", "big dog", "large puppy",
          "Man", "big  Dog", "red car"]


@st.composite
def scene_graphs(draw, max_objects=4):
    objects = draw(st.lists(st.sampled_from(LABELS), max_size=max_objects))
    if not objects:
        return SceneGraph()
    node = st.integers(0, len(objects) - 1)
    attributes = draw(st.lists(st.tuples(node, st.sampled_from(["red", "big", "large"])),
                               max_size=3))
    relations = draw(st.lists(st.tuples(node, st.sampled_from(["near", "in front of"]), node),
                              max_size=3))
    return SceneGraph(objects=tuple(objects), attributes=tuple(attributes),
                      relations=tuple(relations))


images = st.lists(st.lists(scene_graphs(), max_size=3), min_size=1, max_size=8)


class TestFilteredAgreesWithBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(query=scene_graphs(), regions=images, lexicon=st.sampled_from([None, LEXICON]))
    def test_rankings_identical(self, query, regions, lexicon):
        index = build_index(enumerate(regions))
        assert rank_images(query, index, lexicon) == brute_force_rank(query, index, lexicon)

    @settings(max_examples=200, deadline=None)
    @given(query=scene_graphs(), regions=images)
    def test_truth_sets_identical(self, query, regions):
        index = build_index(enumerate(regions))
        assert filtered_truth(query, index) == brute_force_truth(query, index)

    @pytest.mark.parametrize("lexicon", [None, LEXICON])
    def test_empty_query(self, lexicon):
        index = build_index([(1, [obj_graph("dog")]), (2, []), (3, [SceneGraph()])])
        query = SceneGraph()
        assert rank_images(query, index, lexicon) == brute_force_rank(query, index, lexicon)
        assert rank_images(query, index, lexicon) == [2, 3, 1]
        assert filtered_truth(query, index) == brute_force_truth(query, index) == {1, 2, 3}

    @pytest.mark.parametrize("lexicon", [None, LEXICON])
    def test_image_with_empty_graph(self, lexicon):
        index = build_index([(1, []), (2, [obj_graph("tree")]), (3, [obj_graph("dog")])])
        query = obj_graph("dog")
        assert rank_images(query, index, lexicon) == brute_force_rank(query, index, lexicon)
        assert rank_images(query, index, lexicon) == [3, 1, 2]
        assert filtered_truth(query, index) == brute_force_truth(query, index) == {3}

    def test_multiword_label_through_synonyms(self):
        index = build_index([(1, [obj_graph("large dog")]), (2, [obj_graph("large puppy")]),
                             (3, [obj_graph("big cat")]), (4, [obj_graph("dog")])])
        query = SceneGraph(objects=("big  Dog",), attributes=((0, "red"),))
        ranking = rank_images(query, index, LEXICON)
        assert ranking == brute_force_rank(query, index, LEXICON)
        assert ranking[:2] == [1, 2]
        assert rank_images(query, index) == brute_force_rank(query, index) == [1, 2, 3, 4]

    def test_image_linked_only_through_synonym(self):
        index = build_index([(1, [obj_graph("tree")]), (2, [obj_graph("man")])])
        query = obj_graph("guy")
        assert rank_images(query, index, LEXICON) == brute_force_rank(query, index, LEXICON)
        assert rank_images(query, index, LEXICON) == [2, 1]
        assert rank_images(query, index) == [1, 2]       # no lexicon: all tie at 0
        assert filtered_truth(query, index) == brute_force_truth(query, index) == set()

    def test_all_zero_ties_sort_by_id(self):
        index = build_index([(7, [obj_graph("tree")]), (3, [obj_graph("car")]),
                             (5, [SceneGraph()])])
        query = SceneGraph(objects=("horse", "horse"), relations=((0, "near", 1),))
        assert rank_images(query, index, LEXICON) == brute_force_rank(query, index, LEXICON)
        assert rank_images(query, index, LEXICON) == [3, 5, 7]

    def test_only_label_sharing_images_are_scored(self, monkeypatch):
        scored = []

        def counting_f_score(candidate, reference, lexicon=None):
            scored.append(reference.objects)
            return f_score(candidate, reference, lexicon)

        monkeypatch.setattr(retrieval, "f_score", counting_f_score)
        index = build_index([(1, [obj_graph("man")]), (2, [obj_graph("tree")]),
                             (3, [obj_graph("person", "car")]), (4, [SceneGraph()])])
        assert rank_images(obj_graph("man"), index, LEXICON) == [1, 3, 2, 4]
        assert scored == [("man",), ("person", "car")]

import re

import pytest

from sgparse.align import (
    AlignMode,
    SynonymLexicon,
    align,
    aligned_subgraph,
    derive_gold,
    syn_match,
    tokenize,
)
from sgparse.corpus import generate_synthetic
from sgparse.errors import LexiconCorrupt
from sgparse.graph import Arc, ArcRule, ArcSet, EdgeLabel, NodeRef, SceneGraph


class TestTokenize:
    def test_strips_punctuation_and_lowercases(self):
        assert tokenize("Black barrier, in front of the person.") == [
            "black", "barrier", "in", "front", "of", "the", "person",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_internal_hyphen_preserved(self):
        assert tokenize("a well-lit room") == ["a", "well-lit", "room"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("dog -- cat !!") == ["dog", "cat"]


class TestWbwMatch:
    """Word-by-word matching is `syn_match` with an empty lexicon."""

    NONE = SynonymLexicon.empty()

    def test_multiword_match(self, fig_tokens):
        assert syn_match("in front of", fig_tokens, 3, self.NONE)

    def test_wrong_position(self, fig_tokens):
        assert not syn_match("barrier", fig_tokens, 1, self.NONE)

    def test_last_token(self, fig_tokens):
        assert syn_match("person", fig_tokens, 7, self.NONE)

    def test_out_of_bounds(self, fig_tokens):
        assert not syn_match("person", fig_tokens, 8, self.NONE)
        assert not syn_match("in front of", fig_tokens, 6, self.NONE)


class TestSynMatch:
    def test_lexicon_pair(self):
        lex = SynonymLexicon.from_pairs([("man", "guy")])
        assert syn_match("man", ["guy"], 1, lex)

    def test_self_synonymy_with_empty_lexicon(self):
        lex = SynonymLexicon.empty()
        assert syn_match("in front of", ["in", "front", "of"], 1, lex)

    def test_no_pair_no_match(self):
        lex = SynonymLexicon.from_pairs([("man", "guy")])
        assert not syn_match("man", ["dog"], 1, lex)

    def test_symmetry(self):
        lex = SynonymLexicon.from_pairs([("man", "guy")])
        assert lex.matches("guy", "man") and lex.matches("man", "guy")


class TestLexiconFile:
    def test_load(self, data_dir):
        lex = SynonymLexicon.load(f"{data_dir}/lexicon.txt")
        assert lex.matches("man", "guy")
        assert lex.matches("men", "man")  # symmetric closure
        assert lex.matches("large", "big")
        assert not lex.matches("dog", "cat")

    @pytest.mark.parametrize("entry", ["man\tyoung man", "young man\tguy",
                                       "man\tguy, old  fellow", "man guy"])
    def test_multi_word_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "lexicon.txt"
        path.write_text(f"# comment\ndog\tpuppy\n{entry}\n", encoding="utf-8")
        with pytest.raises(LexiconCorrupt, match=re.escape(f"{path}:3:")):
            SynonymLexicon.load(path)


class TestAlign:
    def test_worked_example(self, fig_sentence, fig_graph):
        result = align(fig_sentence, fig_graph)
        assert result.node_spans == {
            NodeRef("object", 0): (2, 2),
            NodeRef("object", 1): (7, 7),
            NodeRef("attribute", 0): (1, 1),
            NodeRef("relation", 0): (3, 5),
        }
        assert 6 not in result.aligned_words

    def test_absent_object_blocks_dependents(self):
        graph = SceneGraph(
            objects=("dog", "cat"),
            attributes=((1, "black"),),
            relations=((0, "near", 1),),
        )
        result = align("the dog sat", graph)
        assert result.aligned_nodes == frozenset({NodeRef("object", 0)})

    def test_duplicate_labels_second_cycle(self):
        lex = SynonymLexicon.from_pairs([("man", "men")])
        graph = SceneGraph(objects=("man", "man"))
        result = align("two men", graph, lex)
        assert result.node_spans == {NodeRef("object", 0): (2, 2)}
        assert NodeRef("object", 1) not in result.aligned_nodes

    def test_no_syn_disables_lexicon(self):
        lex = SynonymLexicon.from_pairs([("man", "guy")])
        graph = SceneGraph(objects=("man",))
        assert align("a guy", graph, lex).aligned_nodes
        assert not align("a guy", graph, lex, AlignMode.NO_SYN).aligned_nodes

    def test_all_syn_can_shift_object_alignment(self):
        lex = SynonymLexicon.from_pairs([("man", "guy")])
        graph = SceneGraph(objects=("man", "guy"))
        full = align("guy man", graph, lex)
        all_syn = align("guy man", graph, lex, AlignMode.ALL_SYN)
        # word-for-word first: each object finds its own word
        assert full.node_spans[NodeRef("object", 0)] == (2, 2)
        # synonyms in cycle one: the first object grabs the first word
        assert all_syn.node_spans[NodeRef("object", 0)] == (1, 1)

    def test_monotone_in_synonym_usage(self):
        lex = SynonymLexicon.from_pairs([("man", "guy"), ("dog", "puppy")])
        for record in generate_synthetic(40, seed=3):
            full = align(record.phrase, record.graph, lex)
            no_syn = align(record.phrase, record.graph, lex, AlignMode.NO_SYN)
            assert no_syn.aligned_nodes <= full.aligned_nodes

    def test_deterministic(self, fig_sentence, fig_graph):
        first = align(fig_sentence, fig_graph)
        second = align(fig_sentence, fig_graph)
        assert first.node_spans == second.node_spans
        assert first.aligned_words == second.aligned_words

    def test_guard_soundness_random(self):
        lex = SynonymLexicon.from_pairs([("man", "guy")])
        for record in generate_synthetic(40, seed=8):
            result = align(record.phrase, record.graph, lex)
            for j, (oi, _) in enumerate(record.graph.attributes):
                if NodeRef("attribute", j) in result.aligned_nodes:
                    assert NodeRef("object", oi) in result.aligned_nodes
            for k, (si, _, oi) in enumerate(record.graph.relations):
                if NodeRef("relation", k) in result.aligned_nodes:
                    assert NodeRef("object", si) in result.aligned_nodes
                    assert NodeRef("object", oi) in result.aligned_nodes


class TestDeriveGold:
    def test_worked_example(self, fig_gold):
        gold, reduce_set = fig_gold
        assert reduce_set == frozenset({6})
        labels = {a.label.value for a in gold.arcs}
        assert labels == {"ATTR", "SUBJ", "OBJT", "CONT", "BEGN"}

    def test_nothing_aligned(self):
        graph = SceneGraph(objects=("zebra",))
        result = align("the dog sat", graph)
        gold, reduce_set = derive_gold(result, graph, ArcRule.LEFT, 3)
        assert gold == ArcSet(3)
        assert reduce_set == frozenset({1, 2, 3})

    def test_single_object_sentence(self):
        graph = SceneGraph(objects=("dog",))
        result = align("dog", graph)
        gold, reduce_set = derive_gold(result, graph, ArcRule.LEFT, 1)
        assert gold == ArcSet(1, frozenset({Arc(2, 1, EdgeLabel.BEGN)}))
        assert reduce_set == frozenset()


class TestAlignedSubgraph:
    def test_synonym_matches_surface_sentence_words(self):
        lex = SynonymLexicon.from_pairs([("man", "guy")])
        graph = SceneGraph(objects=("man",), attributes=((0, "old"),))
        result = align("old guy", graph, lex)
        sub = aligned_subgraph(graph, result, tokenize("old guy"))
        assert sub == SceneGraph(objects=("guy",), attributes=((0, "old"),))

    def test_partial_alignment_drops_nodes(self):
        graph = SceneGraph(
            objects=("dog", "zebra"), relations=((0, "near", 1),)
        )
        result = align("a dog", graph)
        sub = aligned_subgraph(graph, result, tokenize("a dog"))
        assert sub == SceneGraph(objects=("dog",))

import copy
import json
import re

import pytest

from sgparse import align as align_module
from sgparse import corpus as corpus_module
from sgparse.align import SynonymLexicon, tokenize
from sgparse.corpus import (
    RegionRecord,
    build_instances,
    generate_synthetic,
    load_corpus,
    load_split,
    read_config,
    record_from_json,
    save_corpus,
)
from sgparse.errors import CorpusCorrupt
from sgparse.graph import ArcRule, SceneGraph, is_acyclic, to_node_centric
from sgparse.transition import apply, initial, oracle_parse
from conftest import canonical


class TestLoadCorpus:
    def test_fixture_loads_three_records(self, data_dir):
        records, skipped = load_corpus(f"{data_dir}/fixture_corpus.jsonl")
        assert len(records) == 3 and skipped == 0
        assert records[0].phrase == "black barrier in front of the person"
        assert records[1].graph.objects == ("car", "tree")

    def test_unknown_object_id_skips_record(self, tmp_path):
        good = {"image_id": 1, "region_id": 1, "phrase": "a dog",
                "objects": [{"id": 0, "name": "dog"}], "attributes": [],
                "relationships": []}
        bad = dict(good, region_id=2,
                   relationships=[{"subject_id": 0, "predicate": "near", "object_id": 99}])
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps(good), json.dumps(bad)] + [
            json.dumps(dict(good, region_id=i)) for i in range(3, 20)
        ]
        path.write_text("\n".join(lines) + "\n")
        records, skipped = load_corpus(path)
        assert skipped == 1
        assert all(r.region_id != 2 for r in records)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == ([], 0)

    def test_too_many_malformed_records(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("not json\n" * 3 + json.dumps(
            {"image_id": 1, "region_id": 1, "phrase": "", "objects": [],
             "attributes": [], "relationships": []}) + "\n")
        with pytest.raises(CorpusCorrupt):
            load_corpus(path)

    def test_duplicate_region_id_skipped(self, tmp_path):
        record = {"image_id": 1, "region_id": 7, "phrase": "a dog",
                  "objects": [], "attributes": [], "relationships": []}
        lines = [json.dumps(record)] * 2 + [
            json.dumps(dict(record, region_id=i)) for i in range(8, 30)
        ]
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records, skipped = load_corpus(path)
        assert skipped == 1
        assert len(records) == 23

    def test_record_that_is_not_utf8_skipped_and_counted(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(30, seed=1), path)
        latin1 = json.dumps({"image_id": 99, "region_id": 999, "phrase": "café",
                             "objects": [{"id": 0, "name": "café"}]}, ensure_ascii=False)
        with open(path, "ab") as handle:
            handle.write(latin1.encode("latin-1") + b"\n")
        records, skipped = load_corpus(path)
        assert skipped == 1 and len(records) == 30
        assert all(r.region_id != 999 for r in records)

    @pytest.mark.parametrize("place", ["image_id", "region_id", "object", "attribute",
                                       "subject", "object_ref"])
    @pytest.mark.parametrize("value", [True, 0.7, 1.0, "1"])
    def test_id_that_is_not_a_json_integer_rejected(self, place, value):
        data = {"image_id": 1, "region_id": 1, "phrase": "black dog near cat",
                "objects": [{"id": 1, "name": "dog"}, {"id": 0, "name": "cat"}],
                "attributes": [{"object_id": 1, "attribute": "black"}],
                "relationships": [{"subject_id": 1, "predicate": "near", "object_id": 0}]}
        assert record_from_json(copy.deepcopy(data)).graph.relations == ((0, "near", 1),)
        target = {"image_id": (data, "image_id"), "region_id": (data, "region_id"),
                  "object": (data["objects"][1], "id"),
                  "attribute": (data["attributes"][0], "object_id"),
                  "subject": (data["relationships"][0], "subject_id"),
                  "object_ref": (data["relationships"][0], "object_id")}[place]
        target[0][target[1]] = value
        with pytest.raises(ValueError, match="is not an integer"):
            record_from_json(data)

    @pytest.mark.parametrize("data", [True, None, 5, "x", []])
    def test_record_that_is_not_an_object_rejected(self, data):
        with pytest.raises(ValueError, match="not a JSON object"):
            record_from_json(data)

    @pytest.mark.parametrize("phrase", ["", "   ", "...", " -- !? "])
    def test_phrase_without_a_token_rejected(self, phrase):
        data = {"image_id": 1, "region_id": 1, "phrase": phrase,
                "objects": [{"id": 0, "name": "dog"}], "attributes": [], "relationships": []}
        assert record_from_json(dict(data, phrase=phrase + " dog")).phrase == phrase + " dog"
        with pytest.raises(ValueError, match="has no token"):
            record_from_json(data)

    def test_null_phrase_rejected(self):
        with pytest.raises(ValueError):
            record_from_json({"image_id": 1, "region_id": 1, "phrase": None,
                              "objects": [], "attributes": [], "relationships": []})

    def test_labels_normalized_at_load(self, tmp_path):
        record = {"image_id": 1, "region_id": 1, "phrase": "A Dog",
                  "objects": [{"id": 0, "name": "  Big   Dog "}],
                  "attributes": [], "relationships": []}
        path = tmp_path / "norm.jsonl"
        path.write_text(json.dumps(record) + "\n")
        records, _ = load_corpus(path)
        assert records[0].graph.objects == ("big dog",)


class TestSaveLoadRoundTrip:
    def test_identity(self, tmp_path):
        records = generate_synthetic(25, seed=3)
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        loaded, skipped = load_corpus(path)
        assert skipped == 0
        assert loaded == records
        # serialize -> load -> serialize is byte-stable
        path2 = tmp_path / "again.jsonl"
        save_corpus(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestSplits:
    def test_split_file(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("3\n\n17\n5\n")
        assert load_split(path) == frozenset({3, 5, 17})


class TestGenerateSynthetic:
    def test_single_record_round_trips(self):
        records = generate_synthetic(1, seed=7)
        assert len(records) == 1
        instances, stats = build_instances(records)
        assert stats["used"] == 1
        inst = instances[0]
        actions = oracle_parse(len(inst.tokens), inst.gold, inst.reduce_set)
        c = initial(len(inst.tokens))
        for a in actions:
            c = apply(c, a)
        assert c.arc_set() == inst.gold

    def test_zero_records(self):
        assert generate_synthetic(0, seed=1) == []

    def test_deterministic_per_seed(self):
        assert generate_synthetic(30, seed=5) == generate_synthetic(30, seed=5)
        assert generate_synthetic(30, seed=5) != generate_synthetic(30, seed=6)

    def test_all_instances_fully_alignable_and_acyclic(self):
        records = generate_synthetic(200, seed=2)
        instances, stats = build_instances(records)
        assert stats == {"total": 200, "used": 200, "cyclic": 0,
                         "arc_conflict": 0, "non_projective": 0}
        for record, inst in zip(records, instances):
            back = to_node_centric(inst.gold, list(inst.tokens))
            assert canonical(back) == canonical(record.graph)
            assert is_acyclic(record.graph)


class TestBuildInstances:
    def test_cyclic_graph_excluded(self):
        cyclic = RegionRecord(
            image_id=1, region_id=1, phrase="dog near cat",
            graph=SceneGraph(objects=("dog", "cat"),
                             relations=((0, "near", 1), (1, "near", 0))),
        )
        instances, stats = build_instances([cyclic])
        assert instances == [] and stats["cyclic"] == 1

    def test_arc_conflict_excluded(self):
        shared_object = RegionRecord(
            image_id=1, region_id=1, phrase="ball on table near lamp",
            graph=SceneGraph(objects=("ball", "table", "lamp"),
                             relations=((0, "on", 1), (2, "near", 1))),
        )
        instances, stats = build_instances([shared_object])
        assert instances == [] and stats["arc_conflict"] == 1

    def test_oracle_path_without_the_gold_arcs_is_non_projective(self, arc_skipping_oracle):
        record = RegionRecord(image_id=1, region_id=1, phrase="the black dog",
                              graph=SceneGraph(objects=("dog",), attributes=((0, "black"),)))
        instances, stats = build_instances([record])
        assert instances == [] and stats["non_projective"] == 1 and stats["used"] == 0

    def test_each_record_tokenized_once(self, monkeypatch):
        """An instance's tokens are its alignment's: `build_instances`
        tokenizes each record's phrase once, inside `align`."""
        records = generate_synthetic(20, seed=4)
        calls = []

        def counted(phrase):
            calls.append(phrase)
            return tokenize(phrase)

        for module in (align_module, corpus_module):   # each module that binds it
            monkeypatch.setattr(module, "tokenize", counted)
        instances, stats = build_instances(records)
        assert stats["used"] == 20
        assert calls == [r.phrase for r in records]
        assert [inst.tokens for inst in instances] == [tuple(tokenize(r.phrase)) for r in records]

    def test_right_rule_supported(self):
        records = generate_synthetic(20, seed=4)
        instances, stats = build_instances(records, rule=ArcRule.RIGHT)
        assert stats["used"] == 20
        gold_left, _ = build_instances(records, rule=ArcRule.LEFT)
        # CONT chains flip direction between the two rules
        assert any(a.gold != b.gold for a, b in zip(instances, gold_left))


class TestReadConfig:
    def test_parse_and_comments(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# run settings\nepochs = 12\nlr=0.01\n\narc_rule = right\n")
        assert read_config(path) == {"epochs": "12", "lr": "0.01", "arc_rule": "right"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("# run settings\nepochs 12\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: malformed config line: 'epochs 12'$"):
            read_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.conf"
        path.write_text("epochs = 1\nlr = 0.1\n epochs=2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: key 'epochs' is already set on line 1$"):
            read_config(path)

    @pytest.mark.parametrize("read", [read_config, load_split, SynonymLexicon.load])
    def test_bytes_that_are_not_utf8_name_the_file(self, read, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("seed = café\n".encode("latin-1"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read(path)

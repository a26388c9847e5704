import contextlib
import copy
import io
import json
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgparse import cli as cli_module
from sgparse import corpus as corpus_module
from sgparse import retrieval
from sgparse.align import SynonymLexicon, tokenize
from sgparse.cli import main
from sgparse.corpus import (RegionRecord, build_instances, generate_synthetic, load_corpus,
                            save_corpus)
from sgparse.graph import ArcRule, SceneGraph, to_node_centric_lenient
from sgparse.model import (
    ModelParams,
    Vocab,
    encode_batch,
    greedy_parse,
    load_checkpoint,
    parse,
    save_checkpoint,
)
from sgparse.spice import f_score


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_emits_corpus(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        code, stdout, _ = run(["synth", "--count", "12", "--seed", "3",
                               "--out", str(out)], capsys)
        assert code == 0
        assert "records=12" in stdout
        assert len(out.read_text().splitlines()) == 12

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["synth", "--count", "10", "--seed", "4", "--out", str(a)], capsys)
        run(["synth", "--count", "10", "--seed", "4", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_negative_count_rejected(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        code, stdout, stderr = run(["synth", "--count", "-3", "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert stderr == "error: --count must not be negative, not -3\n"
        assert not out.exists()


class TestTrace:
    def test_golden_trace_from_gold_graph(self, tmp_path, capsys, data_dir):
        out = tmp_path / "trace.txt"
        code, _, _ = run([
            "trace",
            "--sentence", "black barrier in front of the person",
            "--gold", f"{data_dir}/fixture_corpus.jsonl",
            "--out", str(out),
        ], capsys)
        assert code == 0
        with open(f"{data_dir}/golden_trace.txt", "rb") as handle:
            assert out.read_bytes() == handle.read()

    def test_unknown_sentence_fails_cleanly(self, capsys, data_dir):
        code, _, stderr = run([
            "trace", "--sentence", "a unicorn",
            "--gold", f"{data_dir}/fixture_corpus.jsonl",
        ], capsys)
        assert code == 1
        assert "error:" in stderr


class TestAlign:
    def test_gold_file_deterministic(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(30, seed=6), corpus)
        a, b = tmp_path / "gold_a.jsonl", tmp_path / "gold_b.jsonl"
        code, _, err = run(["align", "--corpus", str(corpus), "--out", str(a)], capsys)
        assert code == 0
        assert "oracle_corpus_f=1.0000" in err
        run(["align", "--corpus", str(corpus), "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_record_that_is_not_utf8_is_one_malformed_record(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(30, seed=6), corpus)
        with open(corpus, "ab") as handle:
            handle.write(b'{"image_id": 99, "region_id": 999, "phrase": "caf\xe9"}\n')
        code, _, err = run(["align", "--corpus", str(corpus), "--out",
                            str(tmp_path / "gold.jsonl")], capsys)
        assert code == 0
        assert "records=30 malformed_skipped=1" in err

    def test_records_whose_phrase_has_no_token_are_malformed(self, tmp_path, capsys):
        corpus, gold = tmp_path / "corpus.jsonl", tmp_path / "gold.jsonl"
        records = generate_synthetic(30, seed=6)
        graph = SceneGraph(objects=("dog",))
        records += [RegionRecord(image_id=99, region_id=100 + i, phrase=phrase, graph=graph)
                    for i, phrase in enumerate(["   ", "..."])]
        save_corpus(records, corpus)
        code, _, err = run(["align", "--corpus", str(corpus), "--out", str(gold)], capsys)
        assert code == 0
        assert "records=30 malformed_skipped=2" in err and "gold_instances=30 " in err
        assert all(json.loads(line)["n_tokens"] > 0 for line in gold.read_text().splitlines())

    def test_arc_rule_changes_gold(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(30, seed=6), corpus)
        left_out, right_out = tmp_path / "left.jsonl", tmp_path / "right.jsonl"
        run(["align", "--corpus", str(corpus), "--out", str(left_out)], capsys)
        run(["align", "--corpus", str(corpus), "--arc-rule", "right",
             "--out", str(right_out)], capsys)
        assert left_out.read_bytes() != right_out.read_bytes()

    def test_one_align_call_per_record(self, tmp_path, capsys, monkeypatch):
        records = generate_synthetic(30, seed=6)
        cyclic = SceneGraph(objects=("dog", "cat"), relations=((0, "near", 1), (1, "near", 0)))
        records.append(RegionRecord(image_id=99, region_id=99, phrase="dog near cat",
                                    graph=cyclic))
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(records, corpus)
        calls = []

        def counted(align):
            def wrapper(phrase, *args):
                calls.append(phrase)
                return align(phrase, *args)
            return wrapper

        for owner in (corpus_module, cli_module):  # build_instances and cmd_align
            monkeypatch.setattr(owner, "align", counted(owner.align))
        code, _, err = run(["align", "--corpus", str(corpus),
                            "--out", str(tmp_path / "gold.jsonl")], capsys)
        assert code == 0 and "cyclic=1" in err
        assert sorted(calls) == sorted(r.phrase for r in records)

    def test_multi_word_synonym_rejected(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(5, seed=6), corpus)
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("dog\tpuppy\nman\tyoung man\n", encoding="utf-8")
        out = tmp_path / "gold.jsonl"
        code, stdout, stderr = run(["align", "--corpus", str(corpus), "--lexicon", str(lexicon),
                                    "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {lexicon}:2: 'young man' is not a single word\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    corpus = tmp / "corpus.jsonl"
    save_corpus(generate_synthetic(8, seed=9), corpus)
    checkpoint = tmp / "model.ckpt"
    config = tmp / "run.conf"
    config.write_text("epochs = 2\nlr = 0.01\nseed = 1\n")
    code = main(["train", "--corpus", str(corpus), "--checkpoint",
                 str(checkpoint), "--config", str(config)])
    assert code == 0
    return corpus, checkpoint


class TestTrainEvalParse:
    def test_train_writes_checkpoint(self, trained):
        _, checkpoint = trained
        assert checkpoint.exists() and checkpoint.stat().st_size > 0

    def test_parse_file_input(self, trained, tmp_path, capsys):
        _, checkpoint = trained
        source = tmp_path / "lines.txt"
        source.write_text("a dog\nthe red car\n")
        code, stdout, _ = run(["parse", "--checkpoint", str(checkpoint),
                               "--input", str(source)], capsys)
        assert code == 0
        lines = stdout.strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            graph = json.loads(line)
            assert {"objects", "attributes", "relationships"} <= set(graph)

    def test_parse_empty_input(self, trained, tmp_path, capsys):
        _, checkpoint = trained
        source = tmp_path / "empty.txt"
        source.write_text("")
        code, stdout, _ = run(["parse", "--checkpoint", str(checkpoint),
                               "--input", str(source)], capsys)
        assert code == 0
        assert stdout == ""

    def test_eval_reports_scores(self, trained, capsys):
        corpus, checkpoint = trained
        code, stdout, _ = run(["eval", "--checkpoint", str(checkpoint),
                               "--corpus", str(corpus)], capsys)
        assert code == 0
        assert "mean_f=" in stdout and "objects_p=" in stdout

    def test_retrieve_exports_results(self, trained, capsys):
        corpus, checkpoint = trained
        code, stdout, _ = run(["retrieve", "--checkpoint", str(checkpoint),
                               "--corpus", str(corpus)], capsys)
        assert code == 0
        assert "R@5=" in stdout and "median_rank=" in stdout

    def test_model_trace(self, trained, tmp_path, capsys):
        _, checkpoint = trained
        code, stdout, _ = run(["trace", "--sentence", "a dog",
                               "--checkpoint", str(checkpoint)], capsys)
        assert code == 0
        rows = stdout.rstrip("\n").split("\n")
        assert rows[0].startswith("0\t")
        assert rows[-1].split("\t")[3] == ""


class TestParseInput:
    """`sgparse parse` reads `--input`, or stdin without it, as UTF-8 text
    split into lines as text-mode `open` splits them."""

    RAW = b"a dog\r\nthe red car\rman\n"

    def parse_stdin(self, raw, checkpoint, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
        return run(["parse", "--checkpoint", str(checkpoint)], capsys)

    def test_stdin_parses_as_the_file(self, small_checkpoint, tmp_path, capsys, monkeypatch):
        tmp, _ = small_checkpoint
        source = tmp_path / "lines.txt"
        source.write_bytes(self.RAW)
        code, from_file, _ = run(["parse", "--checkpoint", str(tmp / "model.ckpt"),
                                  "--input", str(source)], capsys)
        assert code == 0 and from_file.count("\n") == 3
        assert self.parse_stdin(self.RAW, tmp / "model.ckpt", capsys, monkeypatch) == (
            0, from_file, "")

    def test_file_that_is_not_utf8_names_file_and_line(self, small_checkpoint, tmp_path, capsys):
        tmp, _ = small_checkpoint
        source = tmp_path / "lines.txt"
        source.write_bytes(self.RAW + b"caf\xe9 dog\n")
        code, stdout, stderr = run(["parse", "--checkpoint", str(tmp / "model.ckpt"),
                                    "--input", str(source)], capsys)
        assert (code, stdout, stderr) == (1, "", f"error: {source}:4: not UTF-8 text\n")

    def test_stdin_that_is_not_utf8_names_line(self, small_checkpoint, capsys, monkeypatch):
        tmp, _ = small_checkpoint
        assert self.parse_stdin(b"a dog\ncaf\xe9 dog\n", tmp / "model.ckpt", capsys,
                                monkeypatch) == (1, "", "error: <stdin>:2: not UTF-8 text\n")

    def test_closed_stdin_is_one_line_error(self, small_checkpoint, capsys, monkeypatch):
        tmp, _ = small_checkpoint
        monkeypatch.setattr("sys.stdin", None)
        assert run(["parse", "--checkpoint", str(tmp / "model.ckpt")], capsys) == (
            1, "", "error: no --input file, and stdin is closed\n")


def _brute_force_rank(query_graph, index, lexicon=None):
    scored = [(f_score(query_graph, entry.graph, lexicon).f, entry.image_id) for entry in index]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [image_id for _, image_id in scored]


class TestRetrieveWithLexicon:
    @pytest.mark.parametrize("source", ["fixture", "synthetic"])
    def test_results_equal_brute_force(self, source, trained, data_dir, tmp_path, capsys,
                                       monkeypatch):
        _, checkpoint = trained
        corpus = tmp_path / "corpus.jsonl"
        if source == "fixture":
            corpus = f"{data_dir}/fixture_corpus.jsonl"
        else:   # 40 regions give several multi-image ground-truth sets
            save_corpus(generate_synthetic(40, seed=9), corpus)
        lexicon_path = f"{data_dir}/lexicon.txt"
        out = tmp_path / "results.txt"
        code, _, _ = run(["retrieve", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                          "--lexicon", lexicon_path, "--out", str(out)], capsys)
        assert code == 0

        # every query against every image: subgraph_of for the truth sets and
        # F for the rankings, with no label filter
        records, _ = load_corpus(corpus)
        by_image = {}
        for record in records:
            by_image.setdefault(record.image_id, []).append(record.graph)
        index = retrieval.build_index(sorted(by_image.items()))
        params, _ = load_checkpoint(checkpoint)
        queries = [
            (parse_text(params, record.phrase),
             {entry.image_id for entry in index
              if entry.image_id == record.image_id
              or retrieval.subgraph_of(record.graph, entry.graph)})
            for record in records
        ]
        monkeypatch.setattr(retrieval, "rank_images", _brute_force_rank)
        expected = retrieval.evaluate_retrieval(queries, index, SynonymLexicon.load(lexicon_path))
        assert out.read_text() == retrieval.format_results(expected)


def parse_text(params, text):
    """One sentence through `model.greedy_parse`, a chunk of one."""
    tokens = tokenize(text)
    return to_node_centric_lenient(greedy_parse(tokens, params)[0], tokens)


class TestParseEach:
    """`cli._parse_each` gives the graph of `parse_text` for every text, in
    order, and tokenizes each text once through `cli.tokenize`, whatever the
    size of the last chunk."""

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_matches_parse_text(self, extra, trained, monkeypatch):
        corpus, checkpoint = trained
        params, _ = load_checkpoint(checkpoint)
        phrases = [r.phrase for r in load_corpus(corpus)[0]]
        # an empty line, and one text on both sides of the chunk boundary
        texts = [phrases[0], "", phrases[1], phrases[1], *phrases[2:7], "a dog",
                 "zyx qqq"][:9 + extra]
        monkeypatch.setattr(cli_module, "PARSE_BATCH", 3)
        calls = []
        tokenize = cli_module.tokenize
        monkeypatch.setattr(cli_module, "tokenize", lambda t: calls.append(t) or tokenize(t))
        graphs = list(cli_module._parse_each(params, texts))
        assert calls == texts
        monkeypatch.setattr(cli_module, "tokenize", tokenize)
        assert graphs == [parse_text(params, t) for t in texts]


class TestParseBatchOfOne:
    def test_batched_file_equals_one_line_runs(self, trained, tmp_path, capsys):
        """The batched products and the whole-matrix product of a sentence
        encoded alone lead to the same parses, byte for byte."""
        _, checkpoint = trained
        lines = [r.phrase for r in generate_synthetic(40, seed=17)]
        assert len(lines) > cli_module.PARSE_BATCH
        source, out = tmp_path / "lines.txt", tmp_path / "graphs.jsonl"
        source.write_text("".join(line + "\n" for line in lines))
        code, _, _ = run(["parse", "--checkpoint", str(checkpoint), "--input", str(source),
                          "--out", str(out)], capsys)
        assert code == 0
        alone = []
        for line in lines:
            source.write_text(line + "\n")
            code, stdout, _ = run(["parse", "--checkpoint", str(checkpoint),
                                   "--input", str(source)], capsys)
            assert code == 0
            alone.append(stdout)
        assert out.read_text() == "".join(alone)


def _float64_copy(params):
    wide = copy.copy(params)
    wide.tensors = {name: a.astype(np.float64) for name, a in params.tensors.items()}
    return wide


class TestFloat32Parsing:
    """A loaded checkpoint parses in float32, from read-only aligned views of
    one buffer, and takes the actions of its float64 copy."""

    def test_same_actions_as_float64(self, trained):
        corpus, checkpoint = trained
        params, _ = load_checkpoint(checkpoint)
        wide = _float64_copy(params)
        texts = [r.phrase for r in load_corpus(corpus)[0]]
        texts += [r.phrase for r in generate_synthetic(40, seed=17)]
        texts += ["", "a zebra beside the old piano", "red red red car on a dog"]
        token_lists = [tokenize(t) for t in texts]
        for narrow, broad in zip(encode_batch(token_lists, params),
                                 encode_batch(token_lists, wide)):
            assert narrow.dtype == np.float32 and broad.dtype == np.float64
            assert np.abs(narrow - broad).max() <= 1e-6
        assert parse(token_lists, params) == parse(token_lists, wide)

    def test_tensors_are_aligned_read_only_float32(self, trained, tmp_path):
        _, checkpoint = trained
        params, _ = load_checkpoint(checkpoint)
        wide = _float64_copy(params)
        residues = set()
        # each seed adds a digit to the header, so the payload starts at every
        # offset mod 4
        for seed in (1, 10, 100, 1000):
            path = tmp_path / f"model{seed}.ckpt"
            save_checkpoint(wide, path, rng_seed=seed)
            residues.add((path.read_bytes().index(b"\n") + 1) % 4)
            loaded, _ = load_checkpoint(path)
            for name, tensor in loaded.tensors.items():
                assert tensor.dtype == np.float32 and tensor.flags.aligned
                assert np.array_equal(tensor, params.tensors[name])
                with pytest.raises(ValueError):
                    tensor[...] = 0.0
        assert residues == {0, 1, 2, 3}


class TestTrainWithSplits:
    def test_split_files_partition_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(15, seed=2), corpus)  # images 0..2
        (tmp_path / "train_ids.txt").write_text("0\n1\n")
        (tmp_path / "eval_ids.txt").write_text("2\n")
        checkpoint = tmp_path / "model.ckpt"
        code, stdout, _ = run([
            "train", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
            "--epochs", "1", "--split-train", str(tmp_path / "train_ids.txt"),
            "--split-eval", str(tmp_path / "eval_ids.txt"),
        ], capsys)
        assert code == 0
        assert "instances=10" in stdout  # 2 of 3 images are training data
        assert checkpoint.exists()

    def test_overlapping_splits_rejected(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(10, seed=2), corpus)
        ids = tmp_path / "ids.txt"
        ids.write_text("0\n")
        code, _, stderr = run([
            "train", "--corpus", str(corpus), "--checkpoint",
            str(tmp_path / "m.ckpt"), "--epochs", "1",
            "--split-train", str(ids), "--split-eval", str(ids),
        ], capsys)
        assert code == 1
        assert "overlap" in stderr

    def test_shared_image_ids_named(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(20, seed=2), corpus)
        (tmp_path / "train_ids.txt").write_text("1\n2\n")
        (tmp_path / "eval_ids.txt").write_text("2\n3\n")
        code, stdout, stderr = run([
            "train", "--corpus", str(corpus), "--checkpoint", str(tmp_path / "m.ckpt"),
            "--epochs", "1", "--split-train", str(tmp_path / "train_ids.txt"),
            "--split-eval", str(tmp_path / "eval_ids.txt"),
        ], capsys)
        assert (code, stdout) == (1, "")
        assert stderr.splitlines()[-1] == "error: train and eval image ids overlap: [2]"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("train_ids, eval_ids, trained, evaluated", [
        ([0, 1], [2], [0, 1], [2]),
        ([0], [1], [0], [1]),                       # image 2 is in neither file
        ([0, 1, 2], None, [0, 1, 2], [0, 1, 2]),    # the training records evaluate
        ([1], None, [1], [1]),
        (None, [2], [0, 1], [2]),                   # the images not held out train
        (None, None, [0, 1, 2], [0, 1, 2]),
    ], ids=["partition", "unlisted-dropped", "all-in-train", "only-train", "only-eval",
            "no-split"])
    def test_records_by_split(self, train_ids, eval_ids, trained, evaluated, tmp_path,
                              capsys, monkeypatch):
        """The records `sgparse train` trains on and evaluates on, by image,
        for each combination of split files."""
        corpus = tmp_path / "corpus.jsonl"
        records = generate_synthetic(15, seed=2)  # images 0..2
        save_corpus(records, corpus)
        argv = ["train", "--corpus", str(corpus), "--checkpoint", str(tmp_path / "m.ckpt"),
                "--epochs", "1"]
        for flag, ids in (("--split-train", train_ids), ("--split-eval", eval_ids)):
            if ids is not None:
                path = tmp_path / f"{flag[2:]}.txt"
                path.write_text("".join(f"{i}\n" for i in ids))
                argv += [flag, str(path)]
        seen = {}
        parse_each = cli_module._parse_each

        def recording_build(train_records, *args):
            seen["train"] = train_records
            return build_instances(train_records, *args)

        def recording_parse(params, texts):
            seen["eval"] = texts
            return parse_each(params, texts)

        monkeypatch.setattr(cli_module, "build_instances", recording_build)
        monkeypatch.setattr(cli_module, "_parse_each", recording_parse)
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert seen["train"] == [r for r in records if r.image_id in trained]
        assert seen["eval"] == [r.phrase for r in records if r.image_id in evaluated]
        assert f"instances={len(seen['train'])} " in stdout

    def test_non_integer_id_names_file_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(10, seed=2), corpus)
        ids = tmp_path / "ids.txt"
        ids.write_text("0\n\nabc\n")
        code, stdout, stderr = run([
            "train", "--corpus", str(corpus), "--checkpoint", str(tmp_path / "m.ckpt"),
            "--epochs", "1", "--split-train", str(ids),
        ], capsys)
        assert code == 1 and stdout == ""
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {ids}:3: invalid literal for int() with base 10: 'abc'"]
        assert not (tmp_path / "m.ckpt").exists()


class TestTrainedIsSaved:
    """The checkpoint that `sgparse train` writes is the model that its last
    epoch evaluated."""

    def test_printed_eval_f_is_the_checkpoint_eval_f(self, tmp_path, capsys, monkeypatch):
        corpus, eval_corpus, ids = (tmp_path / name for name in
                                    ("corpus.jsonl", "eval.jsonl", "eval_ids.txt"))
        records = generate_synthetic(30, seed=4)
        save_corpus(records, corpus)
        held = {r.image_id for r in records[-10:]}
        ids.write_text("".join(f"{image}\n" for image in sorted(held)))
        save_corpus([r for r in records if r.image_id in held], eval_corpus)
        checkpoint = tmp_path / "model.ckpt"
        saved = []

        def recording(params, *args, **kwargs):
            saved.append(params)
            return save_checkpoint(params, *args, **kwargs)

        monkeypatch.setattr(cli_module, "save_checkpoint", recording)
        code, stdout, _ = run(["train", "--corpus", str(corpus), "--split-eval", str(ids),
                               "--checkpoint", str(checkpoint), "--epochs", "2",
                               "--seed", "3"], capsys)
        assert code == 0
        eval_f = stdout.splitlines()[-1].split("eval_f=")[1]
        code, report, _ = run(["eval", "--checkpoint", str(checkpoint),
                               "--corpus", str(eval_corpus)], capsys)
        assert code == 0
        assert f"mean_f={eval_f}\n" in report
        loaded, _ = load_checkpoint(checkpoint)
        [trained] = saved
        for name, tensor in trained.tensors.items():
            assert tensor.dtype == np.float32, name
            assert loaded.tensors[name].tobytes() == tensor.tobytes(), name


class TestNothingToRunOn:
    """A command left with no training instance, no region to evaluate or
    no query fails by name: exit 1, one `error:` line last, no checkpoint."""

    def fails(self, argv, capsys, message):
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout) == (1, "")
        assert stderr.count("error:") == 1 and "Traceback" not in stderr
        assert stderr.splitlines()[-1] == f"error: {message}"

    @staticmethod
    def skips(cyclic=0):
        return f"skipped_cyclic={cyclic} skipped_arc_conflict=0 skipped_non_projective=0"

    def test_train_with_every_image_held_out(self, tmp_path, capsys):
        corpus, ids = tmp_path / "corpus.jsonl", tmp_path / "eval_ids.txt"
        records = generate_synthetic(30, seed=2)
        save_corpus(records, corpus)
        ids.write_text("".join(f"{image}\n" for image in {r.image_id for r in records}))
        self.fails(["train", "--corpus", str(corpus), "--split-eval", str(ids),
                    "--checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1"], capsys,
                   f"{corpus}: no training instance among 0 training records ({self.skips()})")
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_on_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        self.fails(["train", "--corpus", str(corpus), "--checkpoint", str(tmp_path / "m.ckpt")],
                   capsys,
                   f"{corpus}: no training instance among 0 training records ({self.skips()})")
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_on_skipped_records_only(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        cyclic = SceneGraph(objects=("dog", "cat"), relations=((0, "near", 1), (1, "near", 0)))
        save_corpus([RegionRecord(image_id=0, region_id=0, phrase="dog near cat near dog",
                                  graph=cyclic)], corpus)
        self.fails(["train", "--corpus", str(corpus), "--checkpoint", str(tmp_path / "m.ckpt")],
                   capsys,
                   f"{corpus}: no training instance among 1 training records ({self.skips(1)})")
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_with_eval_split_matching_no_record(self, tmp_path, capsys):
        corpus, ids = tmp_path / "corpus.jsonl", tmp_path / "eval_ids.txt"
        save_corpus(generate_synthetic(10, seed=2), corpus)
        ids.write_text("999\n")
        self.fails(["train", "--corpus", str(corpus), "--split-eval", str(ids),
                    "--checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1"], capsys,
                   f"{ids}: no record of {corpus} is in the evaluation split")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command, message", [("eval", "no region to evaluate"),
                                                  ("retrieve", "no region to query with")])
    def test_eval_and_retrieve_on_corpus_with_no_region(self, command, message, trained,
                                                          tmp_path, capsys):
        _, checkpoint = trained
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        self.fails([command, "--checkpoint", str(checkpoint), "--corpus", str(corpus)], capsys,
                   f"{corpus}: {message}")

    def test_align_on_corpus_with_no_region(self, tmp_path, capsys):
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "gold.jsonl"
        corpus.write_text("")
        self.fails(["align", "--corpus", str(corpus), "--out", str(out)], capsys,
                   f"{corpus}: no region to align")
        assert not out.exists()


class TestSkipCounts:
    def test_malformed_and_stuck_counts_on_stderr(self, trained, tmp_path, capsys):
        _, checkpoint = trained
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(10, seed=9), corpus)
        with corpus.open("a") as handle:
            handle.write("{not json\n")
        errors = {}
        for argv in (["train", "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt")],
                     ["eval", "--checkpoint", str(checkpoint)],
                     ["retrieve", "--checkpoint", str(checkpoint)]):
            code, stdout, stderr = run(argv + ["--corpus", str(corpus)], capsys)
            assert code == 0
            assert "malformed_skipped" not in stdout and "oracle_stuck" not in stdout
            errors[argv[0]] = stderr.split()
        for command, words in errors.items():
            assert "malformed_skipped=1" in words, command
        assert "oracle_stuck_skipped=0" in errors["train"]


def _rewrite_header(raw, edit):
    head, payload = raw.split(b"\n", 1)
    header = json.loads(head)
    edit(header["tensors"])
    return json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload


def _drop_last_tensor(raw):
    # the last tensor in save order is the "pad" vector, stored at the payload's end
    _, shape = json.loads(raw.split(b"\n", 1)[0])["tensors"][-1]
    return _rewrite_header(raw[:-4 * shape[0]], lambda tensors: tensors.pop())


def _rename_last_tensor(tensors):
    tensors[-1][0] = "padding"


CORRUPTIONS = {
    "trailing_bytes": lambda raw: raw + b"\0\0\0\0",
    "short_payload": lambda raw: raw[:-4],
    "tensor_missing": _drop_last_tensor,
    "header_key_missing": lambda raw: raw.replace(b'"dims"', b'"sizes"', 1),
    "header_line_missing": lambda raw: raw.split(b"\n", 1)[0],
    "unknown_tensor": lambda raw: _rewrite_header(raw, _rename_last_tensor),
}


# Header edits that garble one entry, and the name the error must give.
MALFORMED_HEADERS = {
    "vocab_not_a_list": (lambda h: {**h, "vocab": 5}, "'vocab'"),
    "dims_not_an_object": (lambda h: {**h, "dims": [1, 2]}, "'dims'"),
    "header_not_an_object": (lambda h: [1, 2], "not a JSON object"),
    "vocab_entry_without_count": (lambda h: {**h, "vocab": h["vocab"] + [["cat"]]}, "'vocab'"),
    "vocab_count_not_a_number": (lambda h: {**h, "vocab": h["vocab"] + [["cat", "x"]]}, "'vocab'"),
    "unsupported_version": (lambda h: {**h, "format_version": 2}, "version 2"),
}


class TestCheckpointCorrupt:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_payload_named(self, value, tmp_path, capsys):
        # "embeddings" is first in save order, so its values open the payload
        params = ModelParams(Vocab.from_sentences([("dog",)]), ArcRule.LEFT,
                             emb_dim=20, hidden=3, mlp_hidden=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        head, payload = path.read_bytes().split(b"\n", 1)
        poison = np.full(50, value, dtype="<f4").tobytes()
        path.write_bytes(head + b"\n" + poison + payload[len(poison):])
        source = tmp_path / "lines.txt"
        source.write_text("a dog\n")
        code, stdout, stderr = run(["parse", "--checkpoint", str(path),
                                    "--input", str(source)], capsys)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr
        assert str(path) in stderr and "'embeddings'" in stderr

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_rejected_with_one_line_error(self, corruption, tmp_path, capsys):
        params = ModelParams(Vocab.from_sentences([("dog",)]), ArcRule.LEFT,
                             emb_dim=4, hidden=3, mlp_hidden=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
        source = tmp_path / "lines.txt"
        source.write_text("a dog\n")
        code, stdout, stderr = run(["parse", "--checkpoint", str(path),
                                    "--input", str(source)], capsys)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert str(path) in stderr

    # `true` equals 1 in Python, so a 1-layer model is where it must not pass;
    # a size must also be positive
    @pytest.mark.parametrize("value", ["3", 3.0, None, True, 0, -1])
    def test_non_integer_dim_rejected(self, value, tmp_path, capsys):
        params = ModelParams(Vocab.from_sentences([("dog",)]), ArcRule.LEFT,
                             emb_dim=4, hidden=3, mlp_hidden=2, layers=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        head, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["dims"]["layers"] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        source = tmp_path / "lines.txt"
        source.write_text("a dog\n")
        code, stdout, stderr = run(["parse", "--checkpoint", str(path),
                                    "--input", str(source)], capsys)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "'layers'" in stderr

    @pytest.mark.parametrize("malformed", sorted(MALFORMED_HEADERS))
    def test_malformed_header_entry_named(self, malformed, tmp_path, capsys):
        edit, named = MALFORMED_HEADERS[malformed]
        params = ModelParams(Vocab.from_sentences([("dog",)]), ArcRule.LEFT,
                             emb_dim=4, hidden=3, mlp_hidden=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        head, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + payload)
        source = tmp_path / "lines.txt"
        source.write_text("a dog\n")
        code, stdout, stderr = run(["parse", "--checkpoint", str(path),
                                    "--input", str(source)], capsys)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert str(path) in stderr and named in stderr


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A directory with one line to parse, and a small model's checkpoint bytes."""
    tmp = tmp_path_factory.mktemp("corrupt")
    params = ModelParams(Vocab.from_sentences([("a", "dog")]), ArcRule.LEFT,
                         emb_dim=4, hidden=3, mlp_hidden=2)
    save_checkpoint(params, tmp / "model.ckpt")
    (tmp / "lines.txt").write_text("a dog\n")
    return tmp, (tmp / "model.ckpt").read_bytes()


class TestCorruptCheckpointProperty:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_parse_succeeds_or_fails_in_one_line(self, small_checkpoint, data):
        tmp, raw = small_checkpoint
        header_end = raw.index(b"\n")
        # at least half the cuts and flips fall in the header, a sixth of the file
        at = data.draw(st.one_of(st.integers(0, header_end), st.integers(0, len(raw) - 1)))
        corrupt = bytearray(raw)
        if data.draw(st.booleans()):
            del corrupt[at:]
        else:
            corrupt[at] ^= 1 << data.draw(st.integers(0, 7))
        path = tmp / "corrupt.ckpt"
        path.write_bytes(corrupt)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["parse", "--checkpoint", str(path), "--input", str(tmp / "lines.txt")])
        stderr = err.getvalue()
        assert "Traceback" not in stderr
        if code == 0:
            assert "error:" not in stderr and out.getvalue().count("\n") == 1
        else:
            assert code == 1 and out.getvalue() == ""
            assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestGradcheckCommand:
    def test_passes_on_small_model(self, capsys):
        code, stdout, _ = run(["gradcheck", "--instances", "2", "--seed", "0"], capsys)
        assert code == 0
        assert "worst=" in stdout

    # a check that probes nothing, or with a step that gives no quotient, fails
    @pytest.mark.parametrize("flags", [["--step", "nan"], ["--step", "0"], ["--instances", "0"]],
                             ids=["step-nan", "step-zero", "no-instances"])
    def test_degenerate_check_is_one_line_error(self, flags, capsys):
        code, stdout, stderr = run(["gradcheck", "--instances", "1"] + flags, capsys)
        assert code == 1 and "worst=" not in stdout
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestFlags:
    def test_flag_the_subcommand_does_not_read_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["parse", "--epochs", "1"])
        assert exit_info.value.code == 2
        assert "--epochs" in capsys.readouterr().err


class TestConfigKeys:
    # a key the subcommand reads under another name, and one it does not read
    @pytest.mark.parametrize("command, key", [("train", "epoch"), ("parse", "epochs")])
    def test_unread_key_is_one_line_error(self, command, key, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(6, seed=9), corpus)
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = 1\n")
        flags = {"train": ["--corpus", str(corpus)], "parse": ["--input", str(corpus)]}
        code, stdout, stderr = run([command, "--config", str(config), "--checkpoint",
                                    str(tmp_path / "m.ckpt")] + flags[command], capsys)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {config}: key {key!r} is not read by {command}\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command, line, message", [
        ("synth", "seed = abc", "key 'seed': invalid literal for int() with base 10: 'abc'"),
        ("align", "arc_rule = up", "key 'arc_rule': 'up' is not a valid ArcRule"),
        ("align", "align_mode = some", "key 'align_mode': 'some' is not a valid AlignMode"),
    ], ids=["seed", "arc_rule", "align_mode"])
    def test_value_that_does_not_cast_names_file_and_key(self, command, line, message,
                                                          tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(3, seed=6), corpus)
        inputs = {"synth": ["--count", "3"], "align": ["--corpus", str(corpus)]}[command]
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        out = tmp_path / "out.jsonl"
        code, stdout, stderr = run([command, *inputs, "--config", str(config),
                                    "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {config}: {message}\n"
        assert not out.exists()


    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(6, seed=9), corpus)
        config = tmp_path / "run.conf"
        config.write_text("epochs = 1\nepochs = 2\n")
        code, stdout, stderr = run(["train", "--corpus", str(corpus), "--config", str(config),
                                    "--checkpoint", str(tmp_path / "m.ckpt")], capsys)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {config}:2: key 'epochs' is already set on line 1\n"
        assert not (tmp_path / "m.ckpt").exists()


class TestErrors:
    # a learning rate this large overflows the parameters within two updates;
    # the error line is the only report of it, with no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_parameter_is_one_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(8, seed=9), corpus)
        code, stdout, stderr = run(["train", "--corpus", str(corpus), "--lr", "1e300",
                                    "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt")],
                                   capsys)
        assert code == 1 and "epoch=" not in stdout
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "became non-finite at Adam step" in errors[0]
        assert "of the epoch" in errors[0]
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag", ["--lr", "--adam-eps"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_hyperparameter_is_one_line(self, flag, value, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(8, seed=9), corpus)
        code, stdout, stderr = run(["train", "--corpus", str(corpus), flag, value,
                                    "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt")],
                                   capsys)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "finite" in stderr
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_required_setting(self, capsys):
        code, _, stderr = run(["align"], capsys)
        assert code == 1
        assert "corpus" in stderr

    def test_missing_file(self, capsys):
        code, _, stderr = run(["align", "--corpus", "/nonexistent/x.jsonl"], capsys)
        assert code == 1
        assert "error:" in stderr


# Byte runs that a mutation writes into a corpus line or a config file: JSON
# values of each type, structure, line breaks and bytes that are not UTF-8.
_SPLICES = [b"true", b"null", b"0.7", b"-1", b"1e999", b'"x"', b'""', b"[]", b"{}", b"{", b'"',
            b",", b":", b"=", b"#", b"\n", b"\r", b" ", b"\t", b"\xe9", b"\xff", b"\x80", b"\xc3",
            b"\x00", "é".encode(), b"\\u00e9", b"\\ud800"]
# Whole config lines, valid or not, for align's keys and others.
_CONFIG_LINES = [b"arc_rule = right", b"arc_rule = left", b"align_mode = no-syn",
                 b"align_mode = all-syn", b"align_mode = sideways", b"arc_rule", b"= left",
                 b"epochs = 2", b"lexicon = ", b"lexicon = missing.tsv", b"corpus = x",
                 b"# arc_rule = right", b"", b"arc_rule = right = left"]


def _mutate(data, raw):
    """`raw` with one to three cuts, bit flips or splices at drawn places."""
    out = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(out)))
        kind = data.draw(st.sampled_from(["cut", "flip", "splice"]))
        if kind == "cut":
            del out[at:at + data.draw(st.integers(1, 8))]
        elif kind == "flip" and at < len(out):
            out[at] ^= 1 << data.draw(st.integers(0, 7))
        else:
            out[at:at] = data.draw(st.sampled_from(_SPLICES))
    return bytes(out)


@pytest.fixture(scope="module")
def align_inputs(tmp_path_factory):
    """A directory for mutated inputs, the lines of a synthetic corpus, and
    the bytes of the test lexicon."""
    tmp = tmp_path_factory.mktemp("align_property")
    save_corpus(generate_synthetic(12, seed=4), tmp / "corpus.jsonl")
    lexicon = (Path(__file__).parent / "data" / "lexicon.txt").read_bytes()
    return tmp, (tmp / "corpus.jsonl").read_bytes().splitlines(keepends=True), lexicon


class TestMutatedInputProperty:
    """`sgparse align` on a mutated corpus line, config file or lexicon,
    `sgparse parse` on mutated input lines, and `sgparse train` on mutated
    split files, return 0 with no error line, or 1 after exactly one
    `error:` line; they never raise."""

    def run_align(self, tmp, corpus, config, lexicon=None):
        (tmp / "mutated.jsonl").write_bytes(corpus)
        (tmp / "mutated.conf").write_bytes(config)
        argv = ["align", "--corpus", str(tmp / "mutated.jsonl"),
                "--config", str(tmp / "mutated.conf"), "--out", str(tmp / "gold.jsonl")]
        if lexicon is not None:
            (tmp / "mutated.tsv").write_bytes(lexicon)
            argv += ["--lexicon", str(tmp / "mutated.tsv")]
        return self.run_cli(argv)

    @staticmethod
    def run_cli(argv, reports=False):
        """Runs `main(argv)`, whose outputs go to files, and checks what it
        wrote to the terminal; stdout stays empty unless the command
        `reports` there, as `train` does.  Returns stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stderr = err.getvalue()
        assert "Traceback" not in stderr and (reports or out.getvalue() == "")
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        if code == 0:
            assert errors == []
        else:
            # a reporting command may have reported on stderr before failing
            lines = stderr.splitlines()[-1:] if reports else stderr.splitlines()
            assert code == 1 and stderr.endswith("\n") and lines == errors
            assert len(errors) == 1
        return stderr

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_corpus_line(self, align_inputs, data):
        tmp, lines, _ = align_inputs
        k = data.draw(st.integers(0, len(lines) - 1))
        corpus = b"".join(lines[:k] + [_mutate(data, lines[k])] + lines[k + 1:])
        self.run_align(tmp, corpus, b"")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_phrase_without_a_token(self, align_inputs, data):
        """A phrase that is empty, or only whitespace and punctuation, makes
        its record one malformed record."""
        tmp, lines, _ = align_inputs
        k = data.draw(st.integers(0, len(lines) - 1))
        phrase = data.draw(st.text(alphabet=" \t\n" + string.punctuation, max_size=8))
        line = json.dumps(dict(json.loads(lines[k]), phrase=phrase)).encode() + b"\n"
        stderr = self.run_align(tmp, b"".join(lines[:k] + [line] + lines[k + 1:]), b"")
        assert f"records={len(lines) - 1} malformed_skipped=1\n" in stderr

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_config(self, align_inputs, data):
        tmp, lines, _ = align_inputs
        config = b"\n".join(data.draw(st.lists(st.sampled_from(_CONFIG_LINES), max_size=4)))
        if data.draw(st.booleans()):
            config = _mutate(data, config)
        self.run_align(tmp, b"".join(lines), config)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_lexicon(self, align_inputs, data):
        tmp, lines, lexicon = align_inputs
        self.run_align(tmp, b"".join(lines), b"", _mutate(data, lexicon))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_parse_input(self, small_checkpoint, align_inputs, data):
        tmp, lines, _ = align_inputs
        phrases = b"".join(json.loads(line)["phrase"].encode() + b"\n" for line in lines[:4])
        (tmp / "mutated.txt").write_bytes(_mutate(data, phrases))
        self.run_cli(["parse", "--checkpoint", str(small_checkpoint[0] / "model.ckpt"),
                      "--input", str(tmp / "mutated.txt"), "--out", str(tmp / "parsed.jsonl")])

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mutated_split_files(self, align_inputs, data):
        tmp, lines, _ = align_inputs
        images = sorted({json.loads(line)["image_id"] for line in lines})
        argv = ["train", "--corpus", str(tmp / "corpus.jsonl"), "--epochs", "1",
                "--checkpoint", str(tmp / "split.ckpt")]
        # the last image evaluates and the others train; either file may be
        # left out, and any given one may be mutated
        for flag, ids in (("--split-train", images[:-1]), ("--split-eval", images[-1:])):
            if data.draw(st.booleans()):
                split = "".join(f"{i}\n" for i in ids).encode()
                if data.draw(st.booleans()):
                    split = _mutate(data, split)
                path = tmp / f"mutated{flag[7:]}.txt"
                path.write_bytes(split)
                argv += [flag, str(path)]
        self.run_cli(argv, reports=True)

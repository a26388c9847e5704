"""The benchmark under perfbench/ wraps sgparse names where they are looked
up.  Installing every wrapper here fails with an AttributeError as soon as a
change to src/ drops or moves one of those names."""

import importlib.util
from pathlib import Path
from time import perf_counter

import reference_decoder
from sgparse.graph import ArcRule, SceneGraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_bound():
    run, probes = _load("run"), _load("probes")
    sg = run.import_sgparse()
    patches = probes.Patches()
    try:
        probes.install_latency_probes(patches, probes.Recorder(), sg)
        probes.Tracer().install(patches, sg)
        wrapped = list(patches._saved)
        assert all(getattr(owner, name) is not original for owner, name, original in wrapped)
        assert run.describe_machine(sg)["pool_workers"] >= 1
    finally:
        patches.restore()
    originals = {}
    for owner, name, original in wrapped:   # some names are wrapped twice
        originals.setdefault((owner, name), original)
    assert all(getattr(owner, name) is original for (owner, name), original in originals.items())


def test_spans_fire_on_training_and_parsing():
    """A span that binds but never fires reads 0 in every traced run, so each
    span that a training epoch, a greedy parse or a command's parse pass
    passes through must count calls, on a small model.  The epoch is one
    sentence, and its update comes at the epoch's end, from a part-full
    batch."""
    run, probes = _load("run"), _load("probes")
    sg = run.import_sgparse()
    instances, _ = sg.corpus.build_instances(sg.corpus.generate_synthetic(4, seed=1))
    vocab = sg.model.Vocab.from_sentences(inst.tokens for inst in instances)
    params = sg.model.ModelParams(vocab, ArcRule.LEFT, emb_dim=12, hidden=8, mlp_hidden=4)
    trainer = sg.model.Trainer(params)
    tokens, gold, reduce_set = instances[0].tokens, instances[0].gold, instances[0].reduce_set

    def calls(fn):
        tracer, patches = probes.Tracer(), probes.Patches()
        tracer.install(patches, sg)
        try:
            fn()
        finally:
            patches.restore()
        return tracer.calls

    training = calls(lambda: trainer.run_epoch([(tokens, gold, reduce_set)]))
    for span in ("model.encode", "model.score", "model.adam_step", "transition.oracle",
                 "transition.apply", "transition.legal_actions"):
        assert training[span] > 0, span
    parsing = calls(lambda: sg.model.greedy_parse(tokens, params))
    for span in ("model.score", "transition.apply"):
        assert parsing[span] > 0, span
    # a two-group input through the commands' parse pass: one `model.parse`
    # per command, one `model.score` per group, and one `transition.apply`
    # per action; a sentence's actions are the same in every batch of two
    # or more
    texts = [r.phrase for r in sg.corpus.generate_synthetic(sg.model.PARSE_GROUP + 3, seed=2)]
    parsing = calls(lambda: list(sg.cli._parse_each(params, texts)))
    assert parsing["model.parse"] == 1 and parsing["model.score"] == 2
    assert parsing["transition.legal_actions"] > 0
    token_lists = [sg.cli.tokenize(text) for text in texts]
    assert parsing["transition.apply"] == sum(
        len(actions) for actions, _ in reference_decoder.parse_chunk(token_lists, params))


def test_instance_spans_count_one_alignment_per_record():
    """`build_instances` aligns each record once, and its instances take the
    alignment's tokens, so the `align.align` span counts one call per record
    and the `corpus.build_instances` span holds the rest of its time."""
    run, probes = _load("run"), _load("probes")
    sg = run.import_sgparse()
    records = sg.corpus.generate_synthetic(12, seed=5)
    tracer, patches = probes.Tracer(), probes.Patches()
    tracer.install(patches, sg)
    try:
        instances, _ = sg.cli.build_instances(records)
    finally:
        patches.restore()
    assert len(instances) == len(records)
    assert tracer.calls["align.align"] == len(records)
    assert tracer.calls["corpus.build_instances"] == 1
    assert tracer.metrics()["corpus.build_instances_s"][0] > 0


def test_latency_probes_sample_each_item_once(tmp_path, capsys):
    """The benchmark's item boundaries: a parsed sentence runs from
    `cli.tokenize` to `cli.to_node_centric_lenient`, and a query from
    `cli.tokenize` to the end of `retrieval.rank_images`.  Each parsed line
    and each query gives one sample, and a command's samples, which must not
    overlap, sum to no more than its wall time; a sample taken from an
    earlier item's start mark would add up that item's time too."""
    run, probes = _load("run"), _load("probes")
    sg = run.import_sgparse()
    records = sg.corpus.generate_synthetic(sg.model.PARSE_GROUP + 5, seed=3)   # two groups
    vocab = sg.model.Vocab.from_sentences(sg.cli.tokenize(r.phrase) for r in records)
    params = sg.model.ModelParams(vocab, ArcRule.LEFT, emb_dim=12, hidden=8, mlp_hidden=4)
    checkpoint, corpus, lines = tmp_path / "m.ckpt", tmp_path / "c.jsonl", tmp_path / "lines.txt"
    sg.model.save_checkpoint(params, checkpoint)
    sg.corpus.save_corpus(records, corpus)
    lines.write_text("".join(r.phrase + "\n" for r in records), encoding="utf-8")

    rec, patches = probes.Recorder(), probes.Patches()
    wall = {}
    probes.install_latency_probes(patches, rec, sg)
    try:
        for argv in (["parse", "--input", str(lines), "--out", str(tmp_path / "out.jsonl")],
                     ["eval", "--corpus", str(corpus)],
                     ["retrieve", "--corpus", str(corpus), "--out", str(tmp_path / "r.txt")]):
            rec.path = argv[0]
            start = perf_counter()
            assert sg.cli.main(argv + ["--checkpoint", str(checkpoint)]) == 0
            wall[argv[0]] = perf_counter() - start
    finally:
        patches.restore()
    capsys.readouterr()
    assert not rec.problems
    assert set(rec.samples) == {("parse", "sentence"), ("eval", "sentence"),
                                ("retrieve", "sentence"), ("retrieve", "query")}
    for (path, kind), samples in rec.samples.items():
        assert len(samples) == len(records), (path, kind)
        assert sum(samples) <= wall[path], (path, kind)


def test_training_item_holds_its_batch_update(tmp_path, capsys):
    """`train`'s item is one `Trainer.train_sentence` call, and a batch's
    forward, backward and Adam step run inside the call of its last
    sentence.  On a corpus whose last batch is part full, with one record
    whose oracle is stuck, each counted sentence gives one sample, every
    `Adam.step` falls inside a sampled call, and the samples sum to no more
    than the command's wall time."""
    run, probes = _load("run"), _load("probes")
    sg = run.import_sgparse()
    size, epochs = sg.model._TRAIN_BATCH, 2
    records = sg.corpus.generate_synthetic(size + 3, seed=3)
    # crossing relation arcs: the oracle cannot reach them
    records.insert(4, sg.corpus.RegionRecord(
        image_id=99, region_id=99, phrase="man dog holds chases cat ball",
        graph=SceneGraph(objects=("man", "dog", "cat", "ball"),
                         relations=((0, "holds", 2), (1, "chases", 3)))))
    corpus = tmp_path / "c.jsonl"
    sg.corpus.save_corpus(records, corpus)
    spans, steps = [], []

    class SpanRecorder(probes.Recorder):
        def sample(self, kind, seconds):
            super().sample(kind, seconds)
            end = perf_counter()
            spans.append((end - seconds, end))

    def timed_step(step):
        def timed(self, grads):
            start = perf_counter()
            step(self, grads)
            steps.append((start, perf_counter()))
        return timed

    rec, patches = SpanRecorder(), probes.Patches()
    probes.install_latency_probes(patches, rec, sg)
    patches.wrap(sg.model.Adam, "step", timed_step)
    try:
        rec.path = "train"
        start = perf_counter()
        assert sg.cli.main(["train", "--corpus", str(corpus), "--epochs", str(epochs),
                            "--checkpoint", str(tmp_path / "m.ckpt")]) == 0
        wall = perf_counter() - start
    finally:
        patches.restore()
    assert f"instances={size + 3} " in capsys.readouterr().out and not rec.problems
    samples = rec.samples[("train", "train_sentence")]
    assert len(samples) == epochs * (size + 3) and sum(samples) <= wall
    assert len(steps) == epochs * 2
    assert all(any(a <= s and e <= b for a, b in spans) for s, e in steps)


def test_spans_fire_on_retrieval(tmp_path, capsys):
    """One `retrieve` command passes through the spans of its scoring and
    ground truth: `spice.match_count` under both, `spice.f_score` per scored
    image and `retrieval.subgraph_of` per candidate truth image."""
    run, probes = _load("run"), _load("probes")
    sg = run.import_sgparse()
    records = sg.corpus.generate_synthetic(20, seed=4)
    checkpoint, corpus = tmp_path / "m.ckpt", tmp_path / "c.jsonl"
    sg.corpus.save_corpus(records, corpus)
    # an untrained model's queries share no object label with any image
    assert sg.cli.main(["train", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                        "--epochs", "1", "--seed", "4"]) == 0
    tracer, patches = probes.Tracer(), probes.Patches()
    tracer.install(patches, sg)
    try:
        assert sg.cli.main(["retrieve", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                            "--out", str(tmp_path / "r.txt")]) == 0
    finally:
        patches.restore()
    capsys.readouterr()
    for span in ("spice.match_count", "spice.f_score", "retrieval.subgraph_of"):
        assert tracer.calls[span] > 0, span

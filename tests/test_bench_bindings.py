"""The benchmark under perfbench/ wraps sgparse names where they are looked
up.  Installing every wrapper here fails with an AttributeError as soon as a
change to src/ drops or moves one of those names."""

import importlib.util
from pathlib import Path

from sgparse.graph import ArcRule

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
    span that a training epoch or a greedy parse passes through must count
    calls, on a small model.  The epoch is one sentence, and its update
    comes at the epoch's end, from a part-full batch."""
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

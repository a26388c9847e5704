"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget."""

import itertools
import time
from pathlib import Path

import numpy as np

from sgparse.align import SynonymLexicon, align, aligned_subgraph, tokenize
from sgparse.cli import main
from sgparse.corpus import (
    RegionRecord,
    build_instances,
    generate_synthetic,
    save_corpus,
)
from sgparse.graph import ArcRule, SceneGraph, to_node_centric, to_node_centric_lenient
from sgparse.model import (
    ModelParams,
    TrainConfig,
    Trainer,
    Vocab,
    accumulate_gradients,
    grad_check,
    greedy_parse,
)
from sgparse.retrieval import build_index, evaluate_retrieval, rank_images
from sgparse.spice import corpus_f, extract_tuples, f_score, match_count
from sgparse.transition import apply, initial
from conftest import canonical

REPO_ROOT = Path(__file__).resolve().parent.parent


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def check(self) -> float:
        elapsed = self.elapsed()
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"
        return elapsed


def report(criterion: int, label: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion} PASS ({elapsed:.2f}s): {label}")


def test_criterion_1_golden_trace(tmp_path, capsys, data_dir):
    budget = Budget(1.0)
    out = tmp_path / "trace.txt"
    code = main([
        "trace",
        "--sentence", "black barrier in front of the person",
        "--gold", f"{data_dir}/fixture_corpus.jsonl",
        "--out", str(out),
    ])
    assert code == 0
    golden = Path(data_dir, "golden_trace.txt").read_bytes()
    assert out.read_bytes() == golden
    assert golden.count(b"\n") == 15  # 14 action rows plus the terminal row
    elapsed = budget.check()
    with capsys.disabled():
        report(1, "gold-driven trace is byte-identical to the reference table", elapsed)


def test_criterion_2_oracle_round_trip(capsys):
    budget = Budget(30.0)
    records = generate_synthetic(500, seed=202)
    for rule in (ArcRule.LEFT, ArcRule.RIGHT):
        instances, stats = build_instances(records, rule=rule)
        assert stats["used"] == 500, stats
        for record, inst in zip(records, instances):
            from sgparse.transition import oracle_parse

            actions = oracle_parse(len(inst.tokens), inst.gold, inst.reduce_set)
            c = initial(len(inst.tokens))
            for a in actions:
                c = apply(c, a)
            assert c.arc_set() == inst.gold
            rebuilt = to_node_centric(c.arc_set(), list(inst.tokens))
            assert canonical(rebuilt) == canonical(record.graph)
    elapsed = budget.check()
    with capsys.disabled():
        report(2, "oracle round-trip holds on 500 of 500 instances, both arc rules", elapsed)


def test_criterion_3_gradient_check(capsys):
    budget = Budget(120.0)
    records = [r for r in generate_synthetic(40, seed=303)
               if len(tokenize(r.phrase)) <= 6][:10]
    instances, _ = build_instances(records)
    assert len(instances) == 10
    vocab = Vocab.from_sentences(inst.tokens for inst in instances)
    params = ModelParams(vocab, ArcRule.LEFT, emb_dim=12, hidden=8, mlp_hidden=4, seed=0)
    worst = 0.0
    for inst in instances:
        err = grad_check(params, (inst.tokens, inst.gold, inst.reduce_set), step=1e-3)
        worst = max(worst, err)
    assert worst < 1e-4, worst

    # a corrupted analytic gradient must be flagged
    probe = instances[0]
    _, grads = accumulate_gradients(probe.tokens, probe.gold, probe.reduce_set, params)
    name, index = max(
        ((n, int(np.argmax(np.abs(g)))) for n, g in grads.items() if g is not None),
        key=lambda pair: abs(grads[pair[0]].reshape(-1)[pair[1]]),
    )
    corrupted = grad_check(params, (probe.tokens, probe.gold, probe.reduce_set),
                           step=1e-3, negate_grad_of=(name, index))
    assert corrupted > 1e-2, corrupted
    elapsed = budget.check()
    with capsys.disabled():
        report(3, f"gradients match finite differences (worst {worst:.2e}; "
                  f"mutation flagged at {corrupted:.2e})", elapsed)


def test_criterion_4_overfit(capsys):
    budget = Budget(300.0)
    records = generate_synthetic(50, seed=404)
    instances, stats = build_instances(records)
    assert stats["used"] == 50
    by_region = {r.region_id: r for r in records}
    vocab = Vocab.from_sentences(inst.tokens for inst in instances)
    params = ModelParams(vocab, ArcRule.LEFT, seed=0)
    trainer = Trainer(params, TrainConfig(rng_seed=0))
    items = [(inst.tokens, inst.gold, inst.reduce_set) for inst in instances]
    best = 0.0
    for epoch in range(1, 51):
        trainer.run_epoch(items)
        candidates = [
            to_node_centric_lenient(greedy_parse(inst.tokens, params)[0], list(inst.tokens))
            for inst in instances
        ]
        references = [by_region[inst.region_id].graph for inst in instances]
        best = corpus_f(candidates, references)
        if best >= 0.95:
            break
    assert best >= 0.95, best
    assert trainer.skipped == 0
    elapsed = budget.check()
    with capsys.disabled():
        report(4, f"overfit run reaches corpus F {best:.4f} within {epoch} epochs", elapsed)


def test_criterion_5_metric_properties(capsys):
    budget = Budget(60.0)
    rng = np.random.default_rng(505)
    labels = ["dog", "cat", "man", "tree", "car", "bird"]
    attrs = ["red", "big", "old"]
    rels = ["near", "holds"]

    def random_graph():
        n = int(rng.integers(0, 5))
        objects = tuple(labels[int(rng.integers(0, len(labels)))] for _ in range(n))
        attributes = tuple(
            (int(rng.integers(0, n)), attrs[int(rng.integers(0, len(attrs)))])
            for _ in range(int(rng.integers(0, 3)) if n else 0)
        )
        relations = tuple(
            (int(rng.integers(0, n)), rels[int(rng.integers(0, len(rels)))],
             int(rng.integers(0, n)))
            for _ in range(int(rng.integers(0, 3)) if n else 0)
        )
        return SceneGraph(objects=objects, attributes=attributes, relations=relations)

    for _ in range(100):
        g = random_graph()
        assert f_score(g, g) == (1.0, 1.0, 1.0)

    def brute_force(cands, refs, compatible):
        if len(cands) > len(refs):
            cands, refs = refs, cands
            compatible = lambda a, b, c=compatible: c(b, a)
        best = 0
        for perm in itertools.permutations(range(len(refs)), len(cands)):
            best = max(best, sum(1 for i, j in enumerate(perm)
                                 if compatible(cands[i], refs[j])))
        return best

    lexicon = SynonymLexicon.from_pairs([("dog", "cat"), ("man", "guy")])
    compatible = lambda x, y: len(x) == len(y) and all(
        lexicon.matches(u, v) for u, v in zip(x, y))
    checked = 0
    for _ in range(300):
        a, b = random_graph(), random_graph()
        counts = match_count(extract_tuples(a), extract_tuples(b), lexicon)
        for category in ("objects", "attributes", "relations"):
            cands = list(getattr(extract_tuples(a), category))
            refs = list(getattr(extract_tuples(b), category))
            if len(cands) <= 6 and len(refs) <= 6:
                assert getattr(counts, category) == brute_force(cands, refs, compatible)
                checked += 1
        p, r, f = f_score(a, b, lexicon)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
    assert checked >= 300
    elapsed = budget.check()
    with capsys.disabled():
        report(5, "metric identity, exhaustive-assignment equality and bounds hold", elapsed)


def test_criterion_6_retrieval_sanity(capsys):
    budget = Budget(60.0)
    grammar_objects = ["dog", "cat", "man", "car", "tree", "bird", "horse", "boat"]
    grammar_attrs = ["black", "red", "small", "old", "tall"]
    grammar_rels = ["holds", "near", "under", "behind"]
    combos = [
        (o1, a, r, o2)
        for o1 in grammar_objects for o2 in grammar_objects if o1 != o2
        for a in grammar_attrs for r in grammar_rels
    ]
    assert len(combos) >= 100
    records = []
    for i, (o1, a, r, o2) in enumerate(combos[:100]):
        records.append(RegionRecord(
            image_id=i, region_id=i, phrase=f"{a} {o1} {r} {o2}",
            graph=SceneGraph(objects=(o1, o2), attributes=((0, a),),
                             relations=((0, r, 1),)),
        ))
    filler = {i: SceneGraph(objects=(f"filler{i}",)) for i in range(100)}
    index = build_index([(r.image_id, [r.graph, filler[r.image_id]]) for r in records])
    by_phrase = {r.phrase: r for r in records}

    def oracle_parser(text: str) -> SceneGraph:
        record = by_phrase[text]
        alignment = align(text, record.graph)
        return aligned_subgraph(record.graph, alignment)

    queries = [(oracle_parser(r.phrase), {r.image_id}) for r in records]
    result = evaluate_retrieval(queries, index)
    assert result.recall_at_5 == 1.0
    assert result.median_rank == 1.0

    # rank monotonicity: a query tuple matching only image A never hurts A
    rng = np.random.default_rng(606)
    shared = ["a", "b", "c", "d", "e", "f"]
    for _ in range(1000):
        target = int(rng.integers(0, 8))
        graphs = []
        for i in range(8):
            labels = list(rng.choice(shared, size=int(rng.integers(1, 4))))
            if i == target:
                labels.append("marker")
            graphs.append(SceneGraph(objects=tuple(labels)))
        trial_index = build_index([(i, [g]) for i, g in enumerate(graphs)])
        base = SceneGraph(objects=tuple(rng.choice(shared, size=2)))
        extended = SceneGraph(objects=base.objects + ("marker",))
        base_rank = rank_images(base, trial_index).index(target)
        new_rank = rank_images(extended, trial_index).index(target)
        assert new_rank <= base_rank
    elapsed = budget.check()
    with capsys.disabled():
        report(6, "planted subgraphs retrieve at rank 1; monotonicity holds "
                  "on 1000 trials", elapsed)


def test_criterion_7_full_scale_runs_documented(capsys):
    budget = Budget(5.0)
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    # the full-corpus runs are not desk-reproducible; the exact commands and
    # score targets must be documented instead
    assert "sgparse align" in readme
    assert "sgparse train" in readme
    assert "0.6985" in readme
    assert "0.4967" in readme
    elapsed = budget.check()
    with capsys.disabled():
        report(7, "full-corpus commands and score targets are documented", elapsed)


def test_criterion_8_ablation_plumbing(tmp_path, capsys):
    budget = Budget(60.0)
    records = generate_synthetic(30, seed=808)
    # two records whose alignment depends on the synonym configuration
    records.append(RegionRecord(
        image_id=900, region_id=900, phrase="small puppy near the tree",
        graph=SceneGraph(objects=("dog", "tree"), attributes=((0, "small"),),
                         relations=((0, "near", 1),)),
    ))
    records.append(RegionRecord(
        image_id=901, region_id=901, phrase="guy near man",
        graph=SceneGraph(objects=("man", "guy"), relations=((0, "near", 1),)),
    ))
    corpus = tmp_path / "ablation.jsonl"
    save_corpus(records, corpus)
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("man\tguy\ndog\tpuppy\n", encoding="utf-8")

    def run_align(tag: str, extra: list[str]) -> bytes:
        out = tmp_path / f"gold_{tag}.jsonl"
        code = main(["align", "--corpus", str(corpus), "--lexicon", str(lexicon),
                     "--out", str(out)] + extra)
        assert code == 0
        return out.read_bytes()

    gold = {
        "left_full": run_align("left_full", []),
        "right_full": run_align("right_full", ["--arc-rule", "right"]),
        "all_syn": run_align("all_syn", ["--align-mode", "all-syn"]),
        "no_syn": run_align("no_syn", ["--align-mode", "no-syn"]),
    }
    for tag, blob in gold.items():
        assert blob == run_align(tag + "_again", _flags_for(tag)), tag
    assert gold["left_full"] != gold["right_full"]
    assert gold["left_full"] != gold["all_syn"]
    assert gold["left_full"] != gold["no_syn"]
    assert gold["all_syn"] != gold["no_syn"]
    elapsed = budget.check()
    with capsys.disabled():
        report(8, "arc-rule and alignment-mode switches yield distinct, "
                  "deterministic gold files", elapsed)


def _flags_for(tag: str) -> list[str]:
    return {
        "left_full": [],
        "right_full": ["--arc-rule", "right"],
        "all_syn": ["--align-mode", "all-syn"],
        "no_syn": ["--align-mode", "no-syn"],
    }[tag]

"""Command-line surface tying the library together.

Subcommands: synth, align, train, parse, eval, retrieve, trace, gradcheck.
Every flag overrides the matching key of an optional `key = value` config
file passed with --config, which may hold only the subcommand's flags.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path
from typing import Hashable, Iterator, Sequence

from .align import AlignMode, SynonymLexicon, align, aligned_subgraph, derive_gold, tokenize
from .align import tokenize as _tokenize_batch
from .corpus import (
    RegionRecord,
    build_instances,
    generate_synthetic,
    graph_to_json,
    load_corpus,
    load_split,
    read_config,
    save_corpus,
)
from .errors import SgparseError
from .graph import ArcRule, SceneGraph, to_node_centric_lenient
from .model import (
    ModelParams,
    TrainConfig,
    Trainer,
    Vocab,
    grad_check,
    greedy_parse,
    load_checkpoint,
    parse as model_parse,
    save_checkpoint,
)
from .pool import parallel_map
from .retrieval import (
    ImageEntry,
    ImageIndex,
    build_index,
    evaluate_retrieval,
    format_results,
    subgraph_of,
)
from .spice import corpus_f, evaluate_corpus, format_report
from .transition import format_trace, oracle_parse


# The flags that override config-file keys, by key; the flag is the key with
# dashes.  Each subcommand takes --config and the flags it reads.
_FLAGS = {
    "corpus": dict(help="line-delimited region corpus"),
    "lexicon": dict(help="synonym lexicon file"),
    "checkpoint": dict(help="model checkpoint path"),
    "arc_rule": dict(choices=["left", "right"]),
    "align_mode": dict(choices=["full", "all-syn", "no-syn"]),
    "epochs": dict(type=int), "lr": dict(type=float), "adam_eps": dict(type=float),
    "seed": dict(type=int),
}


def _flags(sub: argparse.ArgumentParser, *keys: str) -> None:
    sub.add_argument("--config", help="flat key = value configuration file")
    for key in keys:
        sub.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])


class Settings:
    """CLI flags merged over config-file keys merged over defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = read_config(args.config) if getattr(args, "config", None) else {}
        for key in self.config:
            if key not in _FLAGS or not hasattr(args, key):
                raise SgparseError(f"{args.config}: key {key!r} is not read by {args.command}")

    def get(self, key: str, default=None, cast=str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.config:
            try:
                return cast(self.config[key])
            except ValueError as err:
                raise SgparseError(f"{self.args.config}: key {key!r}: {err}") from err
        return default

    def require(self, key: str, cast=str):
        value = self.get(key, cast=cast)
        if value is None:
            raise SgparseError(f"missing required setting --{key.replace('_', '-')}")
        return value


def _load_lexicon(settings: Settings) -> SynonymLexicon:
    path = settings.get("lexicon")
    return SynonymLexicon.load(path) if path else SynonymLexicon.empty()


def _arc_rule(settings: Settings) -> ArcRule:
    return ArcRule(settings.get("arc_rule", "left", ArcRule))


def _align_mode(settings: Settings) -> AlignMode:
    return AlignMode(settings.get("align_mode", "full", AlignMode))


def _load_records(settings: Settings) -> list[RegionRecord]:
    """The --corpus records; the malformed-record count goes to stderr."""
    records, skipped = load_corpus(settings.require("corpus"))
    print(f"malformed_skipped={skipped}", file=sys.stderr)
    return records


def _parse_each(params: ModelParams, texts: Sequence[str]) -> Iterator[SceneGraph]:
    """The scene graph of each text, in order.

    Each text is tokenized, then converted, in turn, through the names bound
    in this module, so wrappers installed here see one call of each per
    text, in text order.  The first text also parses every text in one
    `model_parse` call, which decodes them in length-sorted lockstep groups,
    after its own `tokenize` call; the texts are tokenized for it through a
    second name, so a wrapper of `tokenize` still sees each text once.
    """
    for i, text in enumerate(texts):
        tokens = tokenize(text)
        if i == 0:
            parsed = model_parse([_tokenize_batch(t) for t in texts], params)
        arcs, _ = parsed[i]
        yield to_node_centric_lenient(arcs, tokens)


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_synth(args) -> int:
    settings = Settings(args)
    if args.count < 0:
        raise SgparseError(f"--count must not be negative, not {args.count}")
    records = generate_synthetic(args.count, settings.get("seed", 0, int))
    save_corpus(records, args.out)
    print(f"records={len(records)}")
    return 0


def cmd_align(args) -> int:
    settings = Settings(args)
    lexicon = _load_lexicon(settings)
    rule = _arc_rule(settings)
    mode = _align_mode(settings)
    records, skipped = load_corpus(settings.require("corpus"))
    if not records:
        raise SgparseError(f"{settings.require('corpus')}: no region to align")
    alignments = []
    instances, stats = build_instances(records, lexicon, rule, mode, alignments)

    lines = []
    by_region = {r.region_id: r for r in records}
    for inst in instances:
        record = by_region[inst.region_id]
        lines.append(json.dumps({
            "image_id": record.image_id,
            "region_id": inst.region_id,
            "n_tokens": len(inst.tokens),
            "arcs": sorted([a.head, a.dep, a.label.value] for a in inst.gold.arcs),
            "reduce": sorted(inst.reduce_set),
        }, sort_keys=True))
    _write_text(args.out, "".join(line + "\n" for line in lines))

    graphs = [r.graph for r in records]
    candidates = parallel_map(lambda pair: aligned_subgraph(*pair), zip(graphs, alignments))
    oracle_f = corpus_f(candidates, graphs, lexicon)
    total_nodes = sum(len(r.graph.node_refs()) for r in records)
    aligned_nodes = sum(len(alignment.node_spans) for alignment in alignments)
    err = sys.stderr
    print(f"records={stats['total']} malformed_skipped={skipped}", file=err)
    print(f"gold_instances={stats['used']} cyclic={stats['cyclic']} "
          f"arc_conflict={stats['arc_conflict']} non_projective={stats['non_projective']}",
          file=err)
    frac = aligned_nodes / total_nodes if total_nodes else 0.0
    print(f"aligned_node_fraction={frac:.4f}", file=err)
    print(f"oracle_corpus_f={oracle_f:.4f}", file=err)
    return 0


def cmd_train(args) -> int:
    settings = Settings(args)
    config = TrainConfig(
        learning_rate=settings.get("lr", 0.001, float),
        adam_epsilon=settings.get("adam_eps", 0.01, float),
        epochs=settings.get("epochs", 4, int),
        rng_seed=settings.get("seed", 0, int),
    )
    lexicon = _load_lexicon(settings)
    rule = _arc_rule(settings)
    mode = _align_mode(settings)
    records = _load_records(settings)
    # Training takes the listed training images, or every image not held out
    # for evaluation; evaluation takes the listed images, or the training ones.
    train_ids = load_split(args.split_train) if args.split_train else None
    eval_ids = load_split(args.split_eval) if args.split_eval else None
    if train_ids and eval_ids and (overlap := train_ids & eval_ids):
        raise SgparseError(f"train and eval image ids overlap: {sorted(overlap)[:5]}")
    train_records = [r for r in records if (train_ids is None or r.image_id in train_ids)
                     and (eval_ids is None or r.image_id not in eval_ids)]
    eval_records = (train_records if eval_ids is None
                    else [r for r in records if r.image_id in eval_ids])
    corpus = settings.require("corpus")
    instances, stats = build_instances(train_records, lexicon, rule, mode)
    skips = (f"skipped_cyclic={stats['cyclic']} skipped_arc_conflict={stats['arc_conflict']} "
             f"skipped_non_projective={stats['non_projective']}")
    if not instances:
        raise SgparseError(f"{corpus}: no training instance among {stats['total']} "
                           f"training records ({skips})")
    if not eval_records:
        raise SgparseError(f"{args.split_eval}: no record of {corpus} is in the evaluation split")
    vocab = Vocab.from_sentences(inst.tokens for inst in instances)
    params = ModelParams(vocab, rule, seed=config.rng_seed)
    trainer = Trainer(params, config)
    train_items = [(inst.tokens, inst.gold, inst.reduce_set) for inst in instances]
    print(f"instances={stats['used']} {skips}")
    for epoch in range(1, config.epochs + 1):
        mean_loss = trainer.run_epoch(train_items)
        candidates = list(_parse_each(params, [r.phrase for r in eval_records]))
        eval_f = corpus_f(candidates, [r.graph for r in eval_records], lexicon)
        print(f"epoch={epoch} mean_loss={mean_loss:.4f} eval_f={eval_f:.4f}")
    print(f"oracle_stuck_skipped={trainer.skipped}", file=sys.stderr)
    save_checkpoint(params, settings.require("checkpoint"), rng_seed=config.rng_seed)
    return 0


def _input_lines(path: str | None) -> list[str]:
    """The lines of the text file at `path`, or of stdin without one, split
    as text-mode `open` splits them.  A line that is not UTF-8 raises
    SgparseError naming the file, or `<stdin>`, and the line."""
    if path:
        with open(path, "rb") as source:
            raw = source.read()
    elif sys.stdin is None:
        raise SgparseError("no --input file, and stdin is closed")
    else:
        raw = sys.stdin.buffer.read()
    # a byte that is not UTF-8 decodes to a lone surrogate, failing `encode`
    lines = list(io.StringIO(raw.decode("utf-8", "surrogateescape"), newline=None))
    for number, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as err:
            raise SgparseError(f"{path or '<stdin>'}:{number}: not UTF-8 text") from err
    return lines


def cmd_parse(args) -> int:
    settings = Settings(args)
    params, _ = load_checkpoint(settings.require("checkpoint"))
    out_lines = [json.dumps(graph_to_json(graph), sort_keys=True)
                 for graph in _parse_each(params, _input_lines(args.input))]
    _write_text(args.out, "".join(line + "\n" for line in out_lines))
    return 0


def cmd_eval(args) -> int:
    settings = Settings(args)
    params, _ = load_checkpoint(settings.require("checkpoint"))
    lexicon = _load_lexicon(settings)
    records = _load_records(settings)
    if not records:
        raise SgparseError(f"{settings.require('corpus')}: no region to evaluate")
    candidates = list(_parse_each(params, [r.phrase for r in records]))
    report = evaluate_corpus(candidates, [r.graph for r in records], lexicon)
    sys.stdout.write(format_report(report))
    return 0


def ground_truth(query: ImageEntry, index: ImageIndex) -> set[Hashable]:
    """The query's own image and every other image of `index` that holds the
    query graph exactly (`subgraph_of`, through this module's name).

    Only the images whose object-label multiset contains the query's, found
    through the index's postings, are tested; an exact one-to-one match
    needs every label.  The query's tuples come from its entry, extracted
    once."""
    truth = {query.image_id}
    truth.update(entry.image_id for entry in index.holding(query.labels)
                 if entry.image_id != query.image_id and subgraph_of(query.bag, entry.bag))
    return truth


def cmd_retrieve(args) -> int:
    """Rank every image for each record's parsed phrase, against the truth
    of `ground_truth` over the record's gold graph.

    The index of per-image graphs and each record's gold tuples are built
    once per command."""
    settings = Settings(args)
    params, _ = load_checkpoint(settings.require("checkpoint"))
    lexicon = _load_lexicon(settings)
    records = _load_records(settings)
    if not records:
        raise SgparseError(f"{settings.require('corpus')}: no region to query with")
    by_image: dict[int, list[SceneGraph]] = {}
    for record in records:
        by_image.setdefault(record.image_id, []).append(record.graph)
    index = build_index(sorted(by_image.items()))
    truths = [ground_truth(ImageEntry(record.image_id, record.graph), index) for record in records]
    # the first query read parses every query; each is then ranked as it is read
    queries = zip(_parse_each(params, [r.phrase for r in records]), truths)
    result = evaluate_retrieval(queries, index, lexicon)
    _write_text(args.out, format_results(result))
    return 0


def cmd_trace(args) -> int:
    settings = Settings(args)
    sentence = args.sentence
    tokens = tokenize(sentence)
    if args.gold:
        records, _ = load_corpus(args.gold)
        matches = [r for r in records if tokenize(r.phrase) == tokens]
        if not matches:
            raise SgparseError(f"no record in {args.gold} matches the sentence")
        record = matches[0]
        lexicon = _load_lexicon(settings)
        alignment = align(sentence, record.graph, lexicon, _align_mode(settings))
        gold, reduce_set = derive_gold(alignment, record.graph, _arc_rule(settings))
        actions = oracle_parse(len(alignment.tokens), gold, reduce_set)
    else:
        params, _ = load_checkpoint(settings.require("checkpoint"))
        _, actions = greedy_parse(tokens, params)
    _write_text(args.out, format_trace(tokens, actions))
    return 0


def cmd_gradcheck(args) -> int:
    settings = Settings(args)
    seed = settings.get("seed", 0, int)
    if args.instances < 1:
        raise SgparseError(f"--instances must be at least 1, not {args.instances}")
    started = time.perf_counter()
    records = generate_synthetic(args.instances, seed)
    instances, _ = build_instances(records)
    vocab = Vocab.from_sentences(inst.tokens for inst in instances)
    params = ModelParams(vocab, ArcRule.LEFT, emb_dim=12, hidden=8, mlp_hidden=4, seed=seed)
    worst = 0.0
    for inst in instances:
        err = grad_check(params, (inst.tokens, inst.gold, inst.reduce_set), step=args.step)
        worst = max(worst, err)
        print(f"region={inst.region_id} max_rel_err={err:.3e}")
    print(f"worst={worst:.3e} elapsed={time.perf_counter() - started:.1f}s")
    if worst >= 1e-4:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgparse", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("synth", help="emit a synthetic corpus")
    _flags(sub, "seed")
    sub.add_argument("--count", type=int, required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=cmd_synth)

    sub = subs.add_parser("align", help="derive gold arcs and alignment statistics")
    _flags(sub, "corpus", "lexicon", "arc_rule", "align_mode")
    sub.add_argument("--out", help="gold arcs output file (stdout when omitted)")
    sub.set_defaults(fn=cmd_align)

    sub = subs.add_parser("train", help="train a parser and write a checkpoint")
    _flags(sub, *_FLAGS)
    sub.add_argument("--split-train", dest="split_train",
                     help="file of training image ids, one per line")
    sub.add_argument("--split-eval", dest="split_eval",
                     help="file of evaluation image ids, one per line")
    sub.set_defaults(fn=cmd_train)

    sub = subs.add_parser("parse", help="parse text lines into scene graphs")
    _flags(sub, "checkpoint")
    sub.add_argument("--input", help="text file, one sentence per line (stdin when omitted)")
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_parse)

    sub = subs.add_parser("eval", help="score a checkpoint against a corpus")
    _flags(sub, "checkpoint", "corpus", "lexicon")
    sub.set_defaults(fn=cmd_eval)

    sub = subs.add_parser("retrieve", help="image retrieval over a region corpus")
    _flags(sub, "checkpoint", "corpus", "lexicon")
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_retrieve)

    sub = subs.add_parser("trace", help="step-by-step action trace for one sentence")
    _flags(sub, "checkpoint", "lexicon", "arc_rule", "align_mode")
    sub.add_argument("--sentence", required=True)
    sub.add_argument("--gold", help="corpus file holding the sentence's gold graph")
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_trace)

    sub = subs.add_parser("gradcheck", help="verify gradients on a reduced model")
    _flags(sub, "seed")
    sub.add_argument("--instances", type=int, default=10)
    sub.add_argument("--step", type=float, default=1e-3)
    sub.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SgparseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

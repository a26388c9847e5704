"""Command-line surface tying the library together.

Subcommands: synth, align, train, parse, eval, retrieve, trace, gradcheck.
Every flag overrides the matching key of an optional `key = value` config
file passed with --config, which may hold only the subcommand's flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .align import AlignMode, SynonymLexicon, align, aligned_subgraph, derive_gold, tokenize
from .align import tokenize as _tokenize_batch
from .corpus import (
    RegionRecord,
    SplitSpec,
    build_instances,
    generate_synthetic,
    graph_to_json,
    load_corpus,
    load_split,
    make_splits,
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
    encode_batch,
    grad_check,
    greedy_parse,
    load_checkpoint,
    parse as model_parse,
    save_checkpoint,
)
from .pool import parallel_map
from .retrieval import build_index, evaluate_retrieval, format_results, object_labels, subgraph_of
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
            return cast(self.config[key])
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
    return ArcRule(settings.get("arc_rule", "left"))


def _align_mode(settings: Settings) -> AlignMode:
    return AlignMode(settings.get("align_mode", "full"))


def _load_records(settings: Settings) -> list[RegionRecord]:
    """The --corpus records; the malformed-record count goes to stderr."""
    records, skipped = load_corpus(settings.require("corpus"))
    print(f"malformed_skipped={skipped}", file=sys.stderr)
    return records


# Sentences per `encode_batch` pass when a command parses a list of them.
PARSE_BATCH = 32


class _Parser:
    """Parses the sentences of one command, one call per sentence, asked for
    in the order given.

    Each call tokenizes, parses and converts its own sentence, looking the
    three stages up in this module, so wrappers installed here see each
    one.  The call that reaches a sentence not yet encoded encodes it and
    the next PARSE_BATCH - 1 sentences of the list in one `encode_batch`
    pass; those are tokenized through a second name, so a wrapper of
    `tokenize` still sees one call per parsed sentence.  A sentence that is
    not ahead in the list is encoded alone: 1e-12 from the one-thread batch
    products (`autodiff._row_blocks`), with the same parse.
    """

    def __init__(self, params: ModelParams, texts: Sequence[str]):
        self.params = params
        self.texts = list(texts)
        self.next = 0
        self.ready: dict[str, np.ndarray] = {}

    def __call__(self, text: str) -> SceneGraph:
        tokens = tokenize(text)
        vectors = self.ready.get(text)
        if vectors is None:
            vectors = self._encode(text)
        return to_node_centric_lenient(model_parse(tokens, self.params, vectors), tokens)

    def _encode(self, text: str) -> np.ndarray:
        start = self.next
        while start < len(self.texts) and self.texts[start] != text:
            start += 1
        if start == len(self.texts):
            return encode_batch([_tokenize_batch(text)], self.params)[0]
        batch = self.texts[start:start + PARSE_BATCH]
        self.next = start + len(batch)
        self.ready = dict(zip(batch, encode_batch([_tokenize_batch(t) for t in batch],
                                                  self.params)))
        return self.ready[text]


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_synth(args) -> int:
    settings = Settings(args)
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

    def aligned_pair(item):
        record, alignment = item
        if alignment is None:  # build_instances skips cyclic records unaligned
            alignment = align(record.phrase, record.graph, lexicon, mode)
        subgraph = aligned_subgraph(record.graph, alignment, tokenize(record.phrase))
        return subgraph, len(alignment.aligned_nodes)

    pairs = parallel_map(aligned_pair, zip(records, alignments))
    candidates = [subgraph for subgraph, _ in pairs]
    oracle_f = corpus_f(candidates, [r.graph for r in records], lexicon)
    total_nodes = sum(len(r.graph.node_refs()) for r in records)
    aligned_nodes = sum(count for _, count in pairs)
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
    eval_records = records
    if args.split_train and args.split_eval:
        spec = SplitSpec(load_split(args.split_train), load_split(args.split_eval))
        records, eval_records = make_splits(records, spec)
    elif args.split_train:
        train_ids = load_split(args.split_train)
        records = [r for r in records if r.image_id in train_ids]
        eval_records = records
    elif args.split_eval:
        eval_ids = load_split(args.split_eval)
        eval_records = [r for r in records if r.image_id in eval_ids]
        records = [r for r in records if r.image_id not in eval_ids]
    instances, stats = build_instances(records, lexicon, rule, mode)
    vocab = Vocab.from_sentences(inst.tokens for inst in instances)
    params = ModelParams(vocab, rule, seed=config.rng_seed)
    trainer = Trainer(params, config)
    train_items = [(inst.tokens, inst.gold, inst.reduce_set) for inst in instances]
    print(f"instances={stats['used']} skipped_cyclic={stats['cyclic']} "
          f"skipped_arc_conflict={stats['arc_conflict']} "
          f"skipped_non_projective={stats['non_projective']}")
    for epoch in range(1, config.epochs + 1):
        mean_loss = trainer.run_epoch(train_items)
        parser = _Parser(params, [r.phrase for r in eval_records])
        candidates = parallel_map(lambda r: parser(r.phrase), eval_records)
        eval_f = corpus_f(candidates, [r.graph for r in eval_records], lexicon)
        print(f"epoch={epoch} mean_loss={mean_loss:.4f} eval_f={eval_f:.4f}")
    print(f"oracle_stuck_skipped={trainer.skipped}", file=sys.stderr)
    save_checkpoint(params, settings.require("checkpoint"), rng_seed=config.rng_seed)
    return 0


def cmd_parse(args) -> int:
    settings = Settings(args)
    params, _ = load_checkpoint(settings.require("checkpoint"))
    source = open(args.input, encoding="utf-8") if args.input else sys.stdin
    try:
        lines = list(source)
        parser = _Parser(params, lines)
        out_lines = []
        for line in lines:
            graph = parser(line)
            out_lines.append(json.dumps(graph_to_json(graph), sort_keys=True))
    finally:
        if args.input:
            source.close()
    _write_text(args.out, "".join(line + "\n" for line in out_lines))
    return 0


def cmd_eval(args) -> int:
    settings = Settings(args)
    params, _ = load_checkpoint(settings.require("checkpoint"))
    lexicon = _load_lexicon(settings)
    records = _load_records(settings)
    parser = _Parser(params, [r.phrase for r in records])
    candidates = parallel_map(lambda r: parser(r.phrase), records)
    report = evaluate_corpus(candidates, [r.graph for r in records], lexicon)
    sys.stdout.write(format_report(report))
    return 0


def cmd_retrieve(args) -> int:
    settings = Settings(args)
    params, _ = load_checkpoint(settings.require("checkpoint"))
    lexicon = _load_lexicon(settings)
    records = _load_records(settings)
    by_image: dict[int, list[SceneGraph]] = {}
    for record in records:
        by_image.setdefault(record.image_id, []).append(record.graph)
    index = build_index(sorted(by_image.items()))
    queries = []
    for record in records:
        # an image can hold the query exactly only if it holds every object label
        labels = object_labels(record.graph)
        truth = {record.image_id}
        truth.update(
            entry.image_id for entry in index
            if entry.image_id != record.image_id and labels <= entry.labels
            and subgraph_of(record.graph, entry.graph)
        )
        queries.append((record.phrase, truth))
    parser = _Parser(params, [text for text, _ in queries])
    result = evaluate_retrieval(queries, parser, index, lexicon)
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
        gold, reduce_set = derive_gold(alignment, record.graph, _arc_rule(settings), len(tokens))
        actions = oracle_parse(len(tokens), gold, reduce_set)
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

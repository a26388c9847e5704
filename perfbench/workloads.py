"""The three workloads: inputs made from the seed at set-up, one closed-loop
iteration through the sgparse CLI, and the checks on what it wrote.

Every iteration calls `sgparse.cli.main` with the same arguments a user would
type, so the measured path is the CLI's own, ground-truth construction in
`cmd_retrieve` included.  Iteration k works on input chunk k mod `chunks`;
a chunk that comes round again must give the same output digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

# Single-word object labels for the retrieve workload.  None of them occurs
# in the default attribute, relation or determiner vocabulary, so every
# synthetic phrase still aligns exactly.
WIDE_OBJECTS = tuple("""
apple arm bag ball banana basket bed bench bike board book bottle bowl box boy
bread bridge brush bucket building bus cake camera candle cap cart ceiling clock
cloud coat counter cow cup curtain desk dish door elephant fence field flag floor
flower fork frame giraffe girl glove grass guitar hair hand hat head hill hydrant
jacket jar kite knife lamp leaf leg letter mirror motorcycle mountain mouth neck
nose ocean orange pan pants paper path pen phone pillow pizza plane plant plate
pole post pot rail rock roof rope sand sheep shelf shirt shoe shore sink
skateboard sky snow sofa spoon street surfboard table tail tile tire toilet towel
tower track train truck umbrella vase wall water wave wheel window wing zebra
""".split())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    prefix = ""              # metric name prefix of the primary item
    chunks = 1
    traced_chunks = 1        # iterations in the traced pass (fixed work)
    tail_cap = 90.0          # highest percentile reported as the tail
    item = ""                # latency sample kind of the primary item
    cli_path = ""            # CLI path whose items are the primary items

    def __init__(self, sg):
        self.sg = sg

    def cli(self, rec, path, argv, items):
        """Run one CLI subcommand, timing it as one call of `path`."""
        out, err = io.StringIO(), io.StringIO()
        rec.path = path
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.sg.cli.main(argv)
        rec.wall[path] += perf_counter() - start
        rec.path = None
        rec.attempted += items
        if code != 0:
            rec.failed["nonzero_exit"] += items
            rec.problem(f"sgparse {argv[0]} exited {code}: {err.getvalue().strip()}")
        else:
            rec.items[path] += items
        return code, out.getvalue()

    def train_checkpoint(self, records, work, seed):
        """Train briefly through `sgparse train`; the last five records feed
        its per-epoch eval.  Returns the checkpoint path."""
        corpus, eval_ids, ckpt = work / "setup.jsonl", work / "setup_eval.txt", work / "setup.ckpt"
        self.sg.corpus.save_corpus(records, corpus)
        eval_ids.write_text("".join(f"{r.image_id}\n" for r in records[-5:]), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.sg.cli.main(["train", "--corpus", str(corpus), "--split-eval", str(eval_ids),
                                     "--checkpoint", str(ckpt), "--epochs", "1",
                                     "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"set-up training failed: {err.getvalue().strip()}")
        return ckpt

    def check(self, state, rec):
        """Checks on the stored outputs; runs after the probes are removed."""


class Train(Workload):
    """Forward, tape backward and an Adam step per sentence: the only
    workload that runs `autodiff.backward` and `Adam.step`."""

    name = "train"
    prefix = "train.sent"
    chunks = 6
    traced_chunks = 2
    tail_cap = 90.0
    item = "train_sentence"
    cli_path = "train"
    chunk_size = 20          # training sentences per `sgparse train` call
    held_out = 20            # regions in the per-epoch eval split

    def setup(self, work, seed):
        sg = self.sg
        records = sg.corpus.generate_synthetic(self.chunks * self.chunk_size + self.held_out, seed)
        held = records[-self.held_out:]
        eval_ids = work / "eval_ids.txt"
        eval_ids.write_text("".join(f"{r.image_id}\n" for r in held), encoding="utf-8")
        files = []
        for k in range(self.chunks):
            chunk = records[k * self.chunk_size:(k + 1) * self.chunk_size]
            corpus, train_ids = work / f"train{k}.jsonl", work / f"train_ids{k}.txt"
            sg.corpus.save_corpus(chunk + held, corpus)
            train_ids.write_text("".join(f"{r.image_id}\n" for r in chunk), encoding="utf-8")
            files.append((corpus, train_ids))
        # Warm-up: one small training call, so first-call costs are paid here.
        ckpt = self.train_checkpoint(records[:10], work, seed)
        return {"seed": seed, "files": files, "eval_ids": eval_ids,
                "ckpt": work / "train.ckpt", "digest": sha256(ckpt.read_bytes())}

    def iterate(self, state, chunk, rec):
        corpus, train_ids = state["files"][chunk]
        ckpt = state["ckpt"]
        code, out = self.cli(rec, "train", [
            "train", "--corpus", str(corpus), "--split-train", str(train_ids),
            "--split-eval", str(state["eval_ids"]), "--checkpoint", str(ckpt),
            "--epochs", "1", "--seed", str(state["seed"])], self.chunk_size)
        skipped = sum(t.skipped for t in rec.trainers)
        rec.trainers.clear()
        rec.failed["oracle_stuck"] += skipped
        if code != 0:
            return
        used = int(re.search(r"instances=(\d+)", out).group(1))
        rec.failed["build_skipped"] += self.chunk_size - used
        rec.items["train"] -= self.chunk_size - used + skipped
        raw = ckpt.read_bytes()
        problem = checkpoint_problem(raw)
        if problem:
            rec.problem(f"checkpoint of chunk {chunk}: {problem}")
        rec.keep(chunk, "train.checkpoint", sha256(raw))
        rec.keep(chunk, "train.stdout", sha256(out.encode()), out)

    def check(self, state, rec):
        for (key, chunk), out in rec.outputs.items():
            if key != "train.stdout":
                continue
            m = re.search(r"epoch=1 mean_loss=(\S+) eval_f=(\S+)", out)
            if not m:
                rec.problem(f"train chunk {chunk}: no epoch line")
                continue
            loss, f = float(m.group(1)), float(m.group(2))
            if not (math.isfinite(loss) and loss >= 0.0 and 0.0 <= f <= 1.0):
                rec.problem(f"train chunk {chunk}: loss {loss} or eval_f {f} out of range")
            if chunk == 0:
                rec.quality["train.eval_f"] = (f, "F")


def checkpoint_problem(raw):
    """Why a checkpoint's bytes are not a complete, finite model, or None."""
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline].decode("utf-8"))
    count = sum(int(np.prod(shape)) if shape else 1 for _, shape in header["tensors"])
    if len(raw) - newline - 1 != 4 * count:
        return f"payload holds {len(raw) - newline - 1} bytes, header names {4 * count}"
    if not np.isfinite(np.frombuffer(raw, dtype="<f4", offset=newline + 1)).all():
        return "non-finite parameter"
    return None


class ParseEval(Workload):
    """Forward-only use of the same model and transition code: `sgparse
    parse`, then `sgparse eval` on the same regions."""

    name = "parse-eval"
    prefix = "parse.sent"
    chunks = 8
    traced_chunks = 3
    tail_cap = 95.0
    item = "sentence"
    cli_path = "parse"
    chunk_size = 100         # phrases per parse call and regions per eval call
    train_size = 21          # set-up training records (16 train, 5 eval)

    def setup(self, work, seed):
        sg = self.sg
        records = sg.corpus.generate_synthetic(
            self.train_size + self.chunks * self.chunk_size, seed)
        ckpt = self.train_checkpoint(records[:self.train_size], work, seed)
        files = []
        for k in range(self.chunks):
            start = self.train_size + k * self.chunk_size
            chunk = records[start:start + self.chunk_size]
            text, corpus = work / f"phrases{k}.txt", work / f"regions{k}.jsonl"
            text.write_text("".join(r.phrase + "\n" for r in chunk), encoding="utf-8")
            sg.corpus.save_corpus(chunk, corpus)
            files.append((text, corpus, chunk))
        return {"ckpt": ckpt, "files": files, "out": work / "parsed.jsonl",
                "digest": sha256(ckpt.read_bytes())}

    def iterate(self, state, chunk, rec):
        text, corpus, _ = state["files"][chunk]
        ckpt, out = str(state["ckpt"]), state["out"]
        code, _ = self.cli(rec, "parse", ["parse", "--checkpoint", ckpt, "--input", str(text),
                                          "--out", str(out)], self.chunk_size)
        if code == 0:
            parsed = out.read_text(encoding="utf-8")
            rec.keep(chunk, "parse.graphs", sha256(parsed.encode()), parsed)
        code, report = self.cli(rec, "eval", ["eval", "--checkpoint", ckpt, "--corpus",
                                              str(corpus)], self.chunk_size)
        if code == 0:
            rec.keep(chunk, "eval.report", sha256(report.encode()), report)

    def check(self, state, rec):
        sg = self.sg
        for (key, chunk), report in rec.outputs.items():
            if key != "eval.report":
                continue
            refs = [r.graph for r in state["files"][chunk][2]]
            regions = int(re.search(r"regions=(\d+)", report).group(1))
            mean_f = float(re.search(r"mean_f=(\S+)", report).group(1))
            if regions != len(refs) or not 0.0 <= mean_f <= 1.0:
                rec.problem(f"eval chunk {chunk}: regions={regions} mean_f={mean_f}")
            parsed = rec.outputs.get(("parse.graphs", chunk))
            if parsed is None:
                continue
            lines = parsed.splitlines()
            try:
                graphs = [sg.corpus.graph_from_json(json.loads(line)) for line in lines]
            except (ValueError, KeyError, TypeError) as err:
                rec.problem(f"parse chunk {chunk}: invalid graph ({err})")
                continue
            if len(graphs) != len(refs):
                rec.problem(f"parse chunk {chunk}: {len(graphs)} graphs for {len(refs)} lines")
                continue
            # eval parses the same phrases, so its mean F must be the mean F
            # of the graphs that parse wrote.
            scores = [sg.spice.f_score(g, r).f for g, r in zip(graphs, refs)]
            if abs(sum(scores) / len(scores) - mean_f) > 5.1e-5:
                rec.problem(f"chunk {chunk}: eval mean_f {mean_f} disagrees with parse output")
            if chunk == 0:
                rec.quality["eval.mean_f"] = (mean_f, "F")


class Retrieve(Workload):
    """Every query ranked against every image, and `subgraph_of` ground truth
    over every query-image pair, on a wide object vocabulary so that most
    pairs share no label."""

    name = "retrieve"
    prefix = "retrieve.query"
    chunks = 4
    traced_chunks = 1
    tail_cap = 95.0
    item = "query"
    cli_path = "retrieve"
    images = 48              # images per index; 5 regions each, every region a query
    train_size = 21

    def setup(self, work, seed):
        sg = self.sg
        grammar = sg.corpus.SynthGrammar(objects=WIDE_OBJECTS)
        clash = {w for label in grammar.attributes + grammar.relations + grammar.determiners
                 for w in label.split()} & set(WIDE_OBJECTS)
        if clash:
            raise RuntimeError(f"object labels reuse other vocabulary: {sorted(clash)}")
        per_chunk = self.images * grammar.regions_per_image
        records = sg.corpus.generate_synthetic(
            self.train_size + 4 + self.chunks * per_chunk, seed, grammar)
        ckpt = self.train_checkpoint(records[:self.train_size], work, seed)
        files = []
        start = self.train_size + 4   # skip to an image boundary
        for k in range(self.chunks):
            chunk = records[start + k * per_chunk:start + (k + 1) * per_chunk]
            corpus = work / f"index{k}.jsonl"
            sg.corpus.save_corpus(chunk, corpus)
            files.append((corpus, chunk))
        return {"ckpt": ckpt, "files": files, "out": work / "ranked.txt",
                "digest": sha256(ckpt.read_bytes())}

    def iterate(self, state, chunk, rec):
        corpus, records = state["files"][chunk]
        out = state["out"]
        code, _ = self.cli(rec, "retrieve", ["retrieve", "--checkpoint", str(state["ckpt"]),
                                             "--corpus", str(corpus), "--out", str(out)],
                           len(records))
        if code != 0:
            return
        text = out.read_text(encoding="utf-8")
        excluded = int(re.search(r"excluded=(\d+)", text).group(1))
        rec.failed["excluded_query"] += excluded
        rec.items["retrieve"] -= excluded
        rec.keep(chunk, "retrieve.results", sha256(text.encode()), text)

    def check(self, state, rec):
        for (key, chunk), text in rec.outputs.items():
            records = state["files"][chunk][1]
            lines = text.splitlines()
            summary = dict(line.split("=", 1) for line in lines if "=" in line)
            rows = [line.split("\t") for line in lines if "\t" in line]
            if int(summary["queries"]) + int(summary["excluded"]) != len(records):
                rec.problem(f"retrieve chunk {chunk}: query count does not match the corpus")
            ranks = []
            for qid, best, top in rows:
                best = int(best)
                top10 = [int(i) for i in top.split(",")] if top else []
                own = records[int(qid)].image_id
                ranks.append(best)
                if not 1 <= best <= self.images or len(top10) != min(10, self.images):
                    rec.problem(f"retrieve chunk {chunk}: query {qid} rank {best} out of range")
                elif own in top10 and best > top10.index(own) + 1:
                    rec.problem(f"retrieve chunk {chunk}: query {qid} best rank {best} "
                                "is below its own image")
            recall = sum(1 for r in ranks if r <= 10) / len(ranks) if ranks else 0.0
            if abs(recall - float(summary["R@10"])) > 5.1e-5:
                rec.problem(f"retrieve chunk {chunk}: R@10 disagrees with the best ranks")
            if chunk == 0:
                rec.quality["retrieve.recall_at_10"] = (recall, "share")


WORKLOADS = {cls.name: cls for cls in (Train, ParseEval, Retrieve)}

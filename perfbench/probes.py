"""Wrappers that the benchmark installs around sgparse functions from outside.

Two kinds of wrapper live here:

* latency probes, installed on every pass, that time one item (a training
  sentence, a parsed phrase, a retrieval query) and check each ranking;
* the tracer, installed only on the traced pass, that records a span around
  each wrapped call and reports per-layer self time and counts.

A wrapper must replace a function at the place it is looked up.  `cli` and
`model` bind names with `from .x import y`, so `sgparse.model.oracle` is a
different binding from `sgparse.transition.oracle`; wrapping the home module
would leave those call sites untimed.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make):
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Recorder:
    """What one pass of the closed loop did: wall time and items per CLI path,
    per-item latency samples, failures by cause, output digests and failed
    checks."""

    def __init__(self):
        self.path = None
        self.wall = defaultdict(float)
        self.items = defaultdict(int)
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = defaultdict(int)
        self.digests = {}
        self.outputs = {}
        self.quality = {}
        self.problems = []
        self.trainers = []
        self.chunk_wall = defaultdict(list)
        self.iterations = 0

    def sample(self, kind, seconds):
        self.samples[(self.path, kind)].append(seconds)

    def problem(self, text):
        self.problems.append(text)

    def keep(self, chunk, key, digest, payload=None):
        """Store a chunk's output digest; a repeat of the chunk must match."""
        seen = self.digests.get((key, chunk))
        if seen is None:
            self.digests[(key, chunk)] = digest
            self.outputs[(key, chunk)] = payload
        elif seen != digest:
            self.problem(f"{key} output of chunk {chunk} changed between repeats")


def install_latency_probes(patches, rec, sg):
    """Per-item timers on the item boundaries of the CLI paths.

    A parsed phrase runs from `tokenize` to `to_node_centric_lenient`, a
    retrieval query from `tokenize` to the end of `rank_images`, and a
    training sentence is one `Trainer.train_sentence` call.  Start marks are
    per thread because `eval` and `retrieve` run items on the pool.
    """
    local = threading.local()

    def mark_start(tokenize):
        def probed(text):
            local.start = perf_counter()
            return tokenize(text)
        return probed

    def parse_end(convert):
        def probed(arcs, tokens):
            graph = convert(arcs, tokens)
            rec.sample("sentence", perf_counter() - local.start)
            return graph
        return probed

    def query_end(rank):
        def probed(query_graph, index, lexicon=None):
            ranking = rank(query_graph, index, lexicon)
            rec.sample("query", perf_counter() - local.start)
            if len(ranking) != len(index) or set(ranking) != {e.image_id for e in index}:
                rec.problem("a ranking is not a permutation of the index")
            return ranking
        return probed

    def trainer_class(base):
        class ProbedTrainer(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rec.trainers.append(self)

            def train_sentence(self, tokens, gold, reduce_set):
                start = perf_counter()
                loss = super().train_sentence(tokens, gold, reduce_set)
                rec.sample("train_sentence", perf_counter() - start)
                return loss
        return ProbedTrainer

    patches.wrap(sg.cli, "tokenize", mark_start)
    patches.wrap(sg.cli, "to_node_centric_lenient", parse_end)
    patches.wrap(sg.retrieval, "rank_images", query_end)
    patches.wrap(sg.cli, "Trainer", trainer_class)


def tape_size(root):
    """Number of nodes reachable from a tape root, counted as backward does."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Spans around wrapped calls, kept in memory.

    Each thread keeps a stack of open spans; a span's self time is its
    duration minus the time of the spans nested in it on the same thread.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, counter, amount):
        with self._lock:
            self.counts[counter] += amount

    def span(self, name, before=None, after=None):
        """Wrapper factory; `before(tracer, args)` and `after(tracer, args,
        result)` run outside the timed interval."""
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if before is not None:
                    before(self, args)
                stack = getattr(self._local, "stack", None)
                if stack is None:
                    stack = self._local.stack = []
                stack.append(0.0)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    nested = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    with self._lock:
                        self.self_s[name] += elapsed - nested
                        self.total_s[name] += elapsed
                        self.calls[name] += 1
                if after is not None:
                    after(self, args, result)
                return result
            return traced
        return make

    def pool_map(self):
        """`parallel_map` wrapper that also times every item it runs."""
        def make(parallel_map):
            item = self.span("pool.item")
            return self.span("pool.parallel_map")(
                lambda fn, items: parallel_map(item(fn), items)
            )
        return make

    def install(self, patches, sg):
        span = self.span
        cli, model, spice, retrieval = sg.cli, sg.model, sg.spice, sg.retrieval
        malformed = span("corpus.load_corpus",
                         after=lambda t, a, r: t.add("corpus.malformed", r[1]))
        patches.wrap(cli, "load_corpus", malformed)
        patches.wrap(cli, "build_instances", span("corpus.build_instances"))
        patches.wrap(sg.corpus, "align", span("align.align"))
        patches.wrap(model, "oracle", span("transition.oracle"))
        patches.wrap(model, "apply", span("transition.apply"))
        patches.wrap(model, "legal_actions", span("transition.legal_actions"))
        patches.wrap(model, "encode", span(
            "model.encode", before=lambda t, a: t.add("model.encode_tokens", len(a[0]))))
        patches.wrap(model, "score", span("model.score"))
        patches.wrap(cli, "model_parse", span("model.parse"))
        patches.wrap(model.Adam, "step", span("model.adam_step"))
        patches.wrap(sg.autodiff, "backward", span(
            "autodiff.backward",
            before=lambda t, a: t.add("autodiff.tape_nodes", tape_size(a[0]))))
        patches.wrap(cli, "save_checkpoint", span("model.checkpoint_io"))
        patches.wrap(cli, "load_checkpoint", span("model.checkpoint_io"))
        patches.wrap(cli, "to_node_centric_lenient", span("graph.to_node_centric"))
        nonzero = span("spice.f_score",
                       after=lambda t, a, r: t.add("spice.f_nonzero", r.f > 0.0))
        for owner in (spice, retrieval):
            patches.wrap(owner, "extract_tuples", span("spice.extract_tuples"))
            patches.wrap(owner, "match_count", span("spice.match_count"))
            patches.wrap(owner, "f_score", nonzero)
        patches.wrap(retrieval, "rank_images", span("retrieval.rank_images"))
        patches.wrap(cli, "subgraph_of", span("retrieval.subgraph_of"))
        patches.wrap(cli, "build_index", span("retrieval.build_index"))
        for owner in (cli, spice, retrieval):
            patches.wrap(owner, "parallel_map", self.pool_map())

    def metrics(self):
        """Per-layer metrics by name: `_s` is self time, except the pool's
        wall and item sums, which are whole span durations."""
        s, calls, counts = self.self_s, self.calls, self.counts
        f_calls = calls["spice.f_score"]
        return {
            "model.encode_s": (s["model.encode"], "s"),
            "model.encode_tokens": (counts["model.encode_tokens"], "count"),
            "model.score_s": (s["model.score"], "s"),
            "model.score_calls": (calls["model.score"], "count"),
            "model.parse_s": (s["model.parse"], "s"),
            "model.adam_step_s": (s["model.adam_step"], "s"),
            "model.adam_step_calls": (calls["model.adam_step"], "count"),
            "model.checkpoint_io_s": (s["model.checkpoint_io"], "s"),
            "autodiff.backward_s": (s["autodiff.backward"], "s"),
            "autodiff.tape_nodes": (counts["autodiff.tape_nodes"], "count"),
            "transition.oracle_s": (s["transition.oracle"], "s"),
            "transition.apply_s": (s["transition.apply"], "s"),
            "transition.legal_actions_s": (s["transition.legal_actions"], "s"),
            "transition.steps": (calls["transition.apply"], "count"),
            "graph.to_node_centric_s": (s["graph.to_node_centric"], "s"),
            "spice.extract_tuples_s": (s["spice.extract_tuples"], "s"),
            "spice.extract_tuples_calls": (calls["spice.extract_tuples"], "count"),
            "spice.match_count_s": (s["spice.match_count"], "s"),
            "spice.match_count_calls": (calls["spice.match_count"], "count"),
            "spice.f_score_calls": (f_calls, "count"),
            "spice.nonzero_f_share": (counts["spice.f_nonzero"] / f_calls if f_calls else 0.0,
                                      "share"),
            "retrieval.rank_images_s": (s["retrieval.rank_images"], "s"),
            "retrieval.subgraph_of_s": (s["retrieval.subgraph_of"], "s"),
            "retrieval.subgraph_of_calls": (calls["retrieval.subgraph_of"], "count"),
            "retrieval.build_index_s": (s["retrieval.build_index"], "s"),
            "pool.parallel_map_s": (self.total_s["pool.parallel_map"], "s"),
            "pool.items": (calls["pool.item"], "count"),
            "pool.item_sum_s": (self.total_s["pool.item"], "s"),
            "corpus.load_corpus_s": (s["corpus.load_corpus"], "s"),
            "corpus.build_instances_s": (s["corpus.build_instances"], "s"),
            "corpus.malformed": (counts["corpus.malformed"], "count"),
            "align.align_s": (s["align.align"], "s"),
        }

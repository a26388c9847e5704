"""Image retrieval by scene-graph similarity.

Each image's region graphs are unioned into one combined graph (instance
multiplicity preserved); each query is the graph parsed from a description,
and images are ranked by the F score between the query graph and each
combined graph.

Only images that share a compatible object label with the query are scored.
Attribute and relation tuples carry their object's label, and tuples are
compared slot by slot, so a pair with no compatible object label has no
matched tuple at all and its F is 0.0 -- unless both graphs are empty, which
score 1.0.  The query's object labels are expanded through the lexicon on
the query side only, which is the direction `match_count` compares in.
Likewise an image can contain a query exactly only if its object-label
multiset contains the query's.
"""

from __future__ import annotations

import itertools
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, NamedTuple, Sequence

from .align import SynonymLexicon
from .graph import SceneGraph, normalize_label
from .pool import parallel_map
from .spice import extract_tuples, f_score, match_count


def merge_graphs(graphs: Sequence[SceneGraph]) -> SceneGraph:
    """Union of several graphs with object lists concatenated."""
    objects: list[str] = []
    attributes: list[tuple[int, str]] = []
    relations: list[tuple[int, str, int]] = []
    for g in graphs:
        offset = len(objects)
        objects.extend(g.objects)
        attributes.extend((oi + offset, a) for oi, a in g.attributes)
        relations.extend((si + offset, r, oi + offset) for si, r, oi in g.relations)
    return SceneGraph(objects=tuple(objects), attributes=tuple(attributes), relations=tuple(relations))


def object_labels(graph: SceneGraph) -> Counter[str]:
    """Multiset of the graph's normalised object labels."""
    return Counter(normalize_label(label) for label in graph.objects)


@dataclass(frozen=True)
class ImageEntry:
    image_id: Hashable
    graph: SceneGraph
    labels: Counter[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", object_labels(self.graph))


def build_index(images: Iterable[tuple[Hashable, Sequence[SceneGraph]]]) -> list[ImageEntry]:
    return [ImageEntry(image_id, merge_graphs(graphs)) for image_id, graphs in images]


def subgraph_of(query: SceneGraph, container: SceneGraph) -> bool:
    """True iff every query tuple can be one-to-one matched in the container
    (exact labels, no synonyms)."""
    q = extract_tuples(query)
    return match_count(q, extract_tuples(container)).total() == q.total()


def _expand_labels(graph: SceneGraph, lexicon: SynonymLexicon | None = None) -> set[str]:
    """Every image object label that some object label of `graph` is
    compatible with: each word may become itself or one of its synonyms."""
    table = lexicon.table if lexicon is not None else {}
    expanded = set()
    for label in object_labels(graph):
        choices = [{word} | table.get(word, frozenset()) for word in label.split()]
        expanded.update(" ".join(words) for words in itertools.product(*choices))
    return expanded


def rank_images(
    query_graph: SceneGraph, index: Sequence[ImageEntry], lexicon: SynonymLexicon | None = None
) -> list[Hashable]:
    """Image ids by descending F score; ties break by ascending image id.

    Images that share no compatible object label with the query get F = 0.0
    without scoring (1.0 when both graphs are empty)."""
    if not index:
        raise ValueError("cannot rank against an empty index")
    wanted = _expand_labels(query_graph, lexicon)
    scored = []
    for entry in index:
        # two empty graphs are the one label-disjoint pair that scores above 0
        if wanted.isdisjoint(entry.labels) and (wanted or entry.labels):
            f = 0.0
        else:
            f = f_score(query_graph, entry.graph, lexicon).f
        scored.append((f, entry.image_id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [image_id for _, image_id in scored]


class QueryOutcome(NamedTuple):
    query_id: Hashable
    best_rank: int
    top10: tuple[Hashable, ...]


@dataclass(frozen=True)
class RetrievalResult:
    outcomes: tuple[QueryOutcome, ...]
    recall_at_5: float
    recall_at_10: float
    median_rank: float
    excluded: tuple[Hashable, ...] = ()


def evaluate_retrieval(
    queries: Iterable[tuple[SceneGraph, set[Hashable]]],
    index: Sequence[ImageEntry],
    lexicon: SynonymLexicon | None = None,
) -> RetrievalResult:
    """Rank every query graph; recall@k is the fraction with a ground-truth
    image in the top k, and the median is over each query's best
    ground-truth rank.

    `queries` pairs each query graph with its ground-truth image ids and is
    read once, one query at a time, each ranked before the next is read; so
    a lazy iterable parses query k just before ranking it.  Queries with an
    empty ground-truth set are excluded and reported.
    """
    def run(item):
        qid, (graph, truth) = item
        if not truth:
            return None
        ranking = rank_images(graph, index, lexicon)
        position = {image_id: i + 1 for i, image_id in enumerate(ranking)}
        best = min(position.get(t, len(ranking) + 1) for t in truth)
        return QueryOutcome(qid, best, tuple(ranking[:10]))

    ranked = parallel_map(run, enumerate(queries))
    excluded = tuple(qid for qid, outcome in enumerate(ranked) if outcome is None)
    outcomes = tuple(outcome for outcome in ranked if outcome is not None)
    n = len(outcomes)
    recall5 = sum(1 for o in outcomes if o.best_rank <= 5) / n if n else 0.0
    recall10 = sum(1 for o in outcomes if o.best_rank <= 10) / n if n else 0.0
    median = float(statistics.median(o.best_rank for o in outcomes)) if n else 0.0
    return RetrievalResult(
        outcomes=outcomes,
        recall_at_5=recall5,
        recall_at_10=recall10,
        median_rank=median,
        excluded=excluded,
    )


def format_results(result: RetrievalResult) -> str:
    """One line per query plus a summary block."""
    lines = [
        f"{o.query_id}\t{o.best_rank}\t{','.join(str(i) for i in o.top10)}"
        for o in result.outcomes
    ]
    lines.append(f"R@5={result.recall_at_5:.4f}")
    lines.append(f"R@10={result.recall_at_10:.4f}")
    lines.append(f"median_rank={result.median_rank:g}")
    lines.append(f"queries={len(result.outcomes)}")
    lines.append(f"excluded={len(result.excluded)}")
    return "\n".join(lines) + "\n"

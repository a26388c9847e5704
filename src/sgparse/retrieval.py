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
multiset contains the query's.  The index finds both sets of images through
its postings, from each object label to the images holding it, and every
image's tuples are extracted once, when the index is built.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .align import SynonymLexicon
from .graph import SceneGraph
from .pool import parallel_map
from .spice import TupleBag, _slot_match, extract_tuples, f_score, match_count


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


@dataclass(frozen=True)
class ImageEntry:
    """An image id and a graph, with the graph's tuple bag and the multiset of
    its normalised object labels, both made once, when the entry is."""

    image_id: Hashable
    graph: SceneGraph
    bag: TupleBag = field(init=False, repr=False, compare=False)
    labels: Counter[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bag = extract_tuples(self.graph)
        object.__setattr__(self, "bag", bag)
        object.__setattr__(self, "labels", Counter(label for label, in bag.objects))


class ImageIndex(list):
    """The entries of an index, in the order given, with the lookups that
    ranking and ground truth share, made once:

    * `postings` maps each normalised object label to the ascending
      positions of the entries that hold it;
    * `unlabelled` lists the positions of the entries with no object;
    * `order` lists every `(image id, position)` pair in ascending image-id
      order, ties in position order.

    The lookups are not updated if the list is changed afterwards."""

    def __init__(self, entries: Iterable[ImageEntry]):
        super().__init__(entries)
        self.postings: dict[str, list[int]] = {}
        for position, entry in enumerate(self):
            for label in entry.labels:
                self.postings.setdefault(label, []).append(position)
        self.unlabelled = [position for position, entry in enumerate(self) if not entry.labels]
        self.order = sorted(((entry.image_id, position) for position, entry in enumerate(self)),
                            key=lambda pair: pair[0])

    def holding(self, labels: Counter[str]) -> list[ImageEntry]:
        """The entries whose object-label multiset contains `labels`, in
        index order: those of the shortest posting among its labels that
        pass the multiset inclusion test, which also checks every other
        posting."""
        if not labels:
            return list(self)
        shortest = min((self.postings.get(label, []) for label in labels), key=len)
        return [self[position] for position in shortest if labels <= self[position].labels]


def build_index(images: Iterable[tuple[Hashable, Sequence[SceneGraph]]]) -> ImageIndex:
    """One entry per `(image id, region graphs)` pair, over the union of its
    graphs, in the order given; each entry's tuples are extracted here."""
    return ImageIndex(ImageEntry(image_id, merge_graphs(graphs)) for image_id, graphs in images)


def subgraph_of(query: SceneGraph | TupleBag, container: SceneGraph | TupleBag) -> bool:
    """True iff every query tuple can be one-to-one matched in the container
    (exact labels, no synonyms)."""
    q = extract_tuples(query)
    return match_count(q, extract_tuples(container)).total() == q.total()


def _expand_labels(
    labels: Iterable[str], postings: Mapping[str, list[int]], lexicon: SynonymLexicon | None = None
) -> set[str]:
    """The keys of `postings` (image labels) that some query label is
    compatible with, in the direction of `lexicon.matches`: by lookup
    without a lexicon, else by testing each image label with `_slot_match`,
    so the cost does not grow with the number of synonyms a word has."""
    lexicon = lexicon or SynonymLexicon.empty()
    if not lexicon.table:
        return set(labels) & postings.keys()
    return {image_label for image_label in postings for label in labels
            if _slot_match(label, image_label, lexicon)}


def rank_images(
    query_graph: SceneGraph, index: ImageIndex, lexicon: SynonymLexicon | None = None
) -> list[Hashable]:
    """Image ids by descending F score; ties break by ascending image id.

    The query's tuples are extracted once, and `f_score` compares them with
    the bags of only the images that the postings of the image labels
    compatible with its object labels name; a query with no object is compared with the images that
    have none, the one label-disjoint pair that scores above 0 (1.0).  Every
    other image has F = 0.0 and follows in image-id order."""
    if not index:
        raise ValueError("cannot rank against an empty index")
    query = extract_tuples(query_graph)
    labels = {label for label, in query.objects}
    if labels:
        postings = index.postings
        candidates = sorted({position for label in _expand_labels(labels, postings, lexicon)
                             for position in postings[label]})
    else:
        candidates = index.unlabelled
    hits = [(f, position) for position in candidates
            if (f := f_score(query, index[position].bag, lexicon).f) > 0.0]
    hits.sort(key=lambda hit: (-hit[0], index[hit[1]].image_id))
    seen = {position for _, position in hits}
    return ([index[position].image_id for _, position in hits]
            + [image_id for image_id, position in index.order if position not in seen])


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
    index: ImageIndex,
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

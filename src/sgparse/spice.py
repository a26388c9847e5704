"""Graph similarity scoring over semantic tuples with one-to-one matching.

A graph decomposes into object tuples, (object, attribute) tuples and
(subject, relation, object) tuples.  Candidate and reference tuples are
matched within each category by a maximum bipartite matching, so a tuple on
one side can never be credited twice; precision, recall and F follow from
the matched counts.  Two tuples are compatible when each slot's words pair
up as equal or synonymous; without a lexicon that is equality, so a tuple's
partners are found by one dict lookup, and with one each distinct partner
is tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .align import SynonymLexicon
from .graph import SceneGraph, normalize_label
from .pool import parallel_map


@dataclass(frozen=True)
class TupleBag:
    """Multisets of semantic tuples extracted from one scene graph; slots hold
    normalised labels (`normalize_label`), as `match_count` looks them up."""

    objects: tuple[tuple[str], ...] = ()
    attributes: tuple[tuple[str, str], ...] = ()
    relations: tuple[tuple[str, str, str], ...] = ()

    def total(self) -> int:
        return len(self.objects) + len(self.attributes) + len(self.relations)

    def sizes(self) -> CategoryCounts:
        return CategoryCounts(len(self.objects), len(self.attributes), len(self.relations))

    def categories(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        return {
            "objects": self.objects,
            "attributes": self.attributes,
            "relations": self.relations,
        }


class CategoryCounts(NamedTuple):
    objects: int
    attributes: int
    relations: int

    def total(self) -> int:
        return self.objects + self.attributes + self.relations


class ScoreTriple(NamedTuple):
    precision: float
    recall: float
    f: float


def extract_tuples(graph: SceneGraph | TupleBag) -> TupleBag:
    """One tuple per object instance, attribute pair and relation triple.

    A `TupleBag` is returned as it is, so the functions that take graphs
    through here (`f_score`, `retrieval.subgraph_of`) also take a bag that
    was extracted once, ahead of many comparisons."""
    if isinstance(graph, TupleBag):
        return graph
    objects = tuple((normalize_label(label),) for label in graph.objects)
    attributes = tuple(
        (normalize_label(graph.objects[oi]), normalize_label(attr))
        for oi, attr in graph.attributes
    )
    relations = tuple(
        (
            normalize_label(graph.objects[si]),
            normalize_label(rel),
            normalize_label(graph.objects[oi]),
        )
        for si, rel, oi in graph.relations
    )
    return TupleBag(objects=objects, attributes=attributes, relations=relations)


def _slot_match(a: str, b: str, lexicon: SynonymLexicon) -> bool:
    wa, wb = a.split(), b.split()
    if len(wa) != len(wb):
        return False
    return all(lexicon.matches(x, y) for x, y in zip(wa, wb))


def _compatible(a: tuple[str, ...], b: tuple[str, ...], lexicon: SynonymLexicon) -> bool:
    return len(a) == len(b) and all(_slot_match(x, y, lexicon) for x, y in zip(a, b))


def _max_matching(adjacency: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size (Hopcroft–Karp, without recursion).

    Each phase layers the left vertices by a breadth-first search from the
    free ones, then augments along layered paths found by an explicit-stack
    depth-first search.  The loop ends when no free right vertex is
    reachable, i.e. when no augmenting path is left.
    """
    match_left = [-1] * len(adjacency)
    match_right = [-1] * n_right
    matched = 0
    while True:
        free = [u for u, v in enumerate(match_left) if v == -1]
        layer = [-1] * len(adjacency)
        for u in free:
            layer[u] = 0
        queue, reachable = list(free), False
        for u in queue:                     # the queue grows while it is read
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    reachable = True
                elif layer[w] == -1:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        if not reachable:
            return matched
        next_edge = [0] * len(adjacency)
        for root in free:
            path, via = [root], []
            while path:
                u = path[-1]
                edges = adjacency[u]
                while next_edge[u] < len(edges):
                    v = edges[next_edge[u]]
                    next_edge[u] += 1
                    w = match_right[v]
                    if w == -1:
                        via.append(v)
                        for left, right in zip(path, via):
                            match_left[left] = right
                            match_right[right] = left
                        matched += 1
                        path = []
                        break
                    if layer[w] == layer[u] + 1:
                        path.append(w)
                        via.append(v)
                        break
                else:
                    layer[u] = -1           # dead end for the rest of this phase
                    path.pop()
                    if via:
                        via.pop()


def match_count(
    candidate: TupleBag, reference: TupleBag, lexicon: SynonymLexicon | None = None
) -> CategoryCounts:
    """Size of the maximum one-to-one matching per tuple category.

    Each distinct candidate tuple value finds its compatible reference
    tuples once: by lookup without a lexicon, else by testing each distinct
    reference value.  Every instance of a value shares that value's edge
    list."""
    lexicon = lexicon or SynonymLexicon.empty()
    counts = {}
    ref_cats = reference.categories()
    for name, cand_tuples in candidate.categories().items():
        ref_tuples = ref_cats[name]
        positions: dict[tuple[str, ...], list[int]] = {}
        for j, r in enumerate(ref_tuples):
            positions.setdefault(r, []).append(j)
        edges: dict[tuple[str, ...], list[int]] = {}
        for c in cand_tuples:
            if c not in edges:
                edges[c] = positions.get(c, []) if not lexicon.table else [
                    j for r, js in positions.items() if _compatible(c, r, lexicon) for j in js]
        counts[name] = _max_matching([edges[c] for c in cand_tuples], len(ref_tuples))
    return CategoryCounts(**counts)


def _prf(matched: int, n_cand: int, n_ref: int) -> ScoreTriple:
    """Precision/recall/F of `matched` one-to-one pairs between `n_cand`
    candidate and `n_ref` reference tuples.

    Two empty sides score 1.0 by convention; when exactly one side is empty
    the score is 0.0.
    """
    if n_cand == 0 and n_ref == 0:
        return ScoreTriple(1.0, 1.0, 1.0)
    precision = matched / n_cand if n_cand else 0.0
    recall = matched / n_ref if n_ref else 0.0
    if precision + recall == 0.0:
        return ScoreTriple(precision, recall, 0.0)
    return ScoreTriple(precision, recall, 2.0 * precision * recall / (precision + recall))


def f_score(
    candidate: SceneGraph | TupleBag,
    reference: SceneGraph | TupleBag,
    lexicon: SynonymLexicon | None = None,
) -> ScoreTriple:
    """Precision/recall/F over all matched tuples of two graphs or bags.

    Two empty graphs score 1.0 by convention; when exactly one side is empty
    the score is 0.0.
    """
    cand = extract_tuples(candidate)
    ref = extract_tuples(reference)
    return _prf(match_count(cand, ref, lexicon).total(), cand.total(), ref.total())


def corpus_f(
    candidates: Sequence[SceneGraph],
    references: Sequence[SceneGraph],
    lexicon: SynonymLexicon | None = None,
) -> float:
    """Arithmetic mean of the per-region F scores."""
    return evaluate_corpus(candidates, references, lexicon).mean_f


@dataclass(frozen=True)
class CorpusEval:
    """Corpus-level evaluation: mean per-region F plus per-category micro scores."""

    n_regions: int
    mean_f: float
    categories: dict[str, ScoreTriple]


def evaluate_corpus(
    candidates: Sequence[SceneGraph],
    references: Sequence[SceneGraph],
    lexicon: SynonymLexicon | None = None,
) -> CorpusEval:
    """Mean per-region F and per-category micro scores, from one tuple
    extraction and one matching per region."""
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} references")

    def region(pair):
        cand, ref = extract_tuples(pair[0]), extract_tuples(pair[1])
        return match_count(cand, ref, lexicon), cand.sizes(), ref.sizes()

    rows = parallel_map(region, zip(candidates, references))
    fs = [_prf(matched.total(), n_cand.total(), n_ref.total()).f
          for matched, n_cand, n_ref in rows]
    categories = {}
    for k, name in enumerate(CategoryCounts._fields):
        matched, n_cand, n_ref = (sum(row[side][k] for row in rows) for side in range(3))
        categories[name] = _prf(matched, n_cand, n_ref)
    mean_f = float(sum(fs) / len(fs)) if fs else 0.0
    return CorpusEval(n_regions=len(fs), mean_f=mean_f, categories=categories)


def format_report(result: CorpusEval) -> str:
    """Human-readable table plus key=value lines for scripting."""
    lines = [f"{'category':<12}{'precision':>10}{'recall':>10}{'f-score':>10}"]
    for name, triple in result.categories.items():
        lines.append(
            f"{name:<12}{triple.precision:>10.4f}{triple.recall:>10.4f}{triple.f:>10.4f}"
        )
    lines.append("")
    lines.append(f"regions={result.n_regions}")
    lines.append(f"mean_f={result.mean_f:.4f}")
    for name, triple in result.categories.items():
        lines.append(f"{name}_p={triple.precision:.4f}")
        lines.append(f"{name}_r={triple.recall:.4f}")
        lines.append(f"{name}_f={triple.f:.4f}")
    return "\n".join(lines) + "\n"

"""Scene graphs in node-centric and edge-centric form, and the conversions between them.

A scene graph lists object instances, (object, attribute) pairs, and
(subject, relation, object) triples.  The same information can be carried by
labeled directed arcs over the tokens of a sentence once every graph node is
mapped to a contiguous token span: multi-token spans are chained with CONT
arcs, attributes hang off their object head with ATTR, relations connect to
their endpoints with SUBJ and OBJT, and parentless object heads are attached
to a virtual ROOT token with BEGN.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, TYPE_CHECKING

from .errors import AlignmentConflict, ArcConflict, MalformedArcs

if TYPE_CHECKING:  # pragma: no cover
    from .align import AlignmentResult


class EdgeLabel(Enum):
    """The five arc labels of the edge-centric encoding."""

    ATTR = "ATTR"
    SUBJ = "SUBJ"
    OBJT = "OBJT"
    CONT = "CONT"
    BEGN = "BEGN"


class ArcRule(Enum):
    """Direction convention for CONT chains inside multi-token nodes.

    Under LEFT, chain arcs point left and the rightmost word heads the
    phrase; under RIGHT the mirror holds.
    """

    LEFT = "left"
    RIGHT = "right"


class NodeRef(NamedTuple):
    """Identifies one node of a SceneGraph by kind and entry index."""

    kind: str  # "object" | "attribute" | "relation"
    index: int


class Arc(NamedTuple):
    """A labeled head -> dependent arc over 1-based token indices."""

    head: int
    dep: int
    label: EdgeLabel


def normalize_label(label: str) -> str:
    """Lowercase and collapse whitespace to single spaces."""
    return " ".join(label.lower().split())


@dataclass(frozen=True)
class SceneGraph:
    """Node-centric scene graph over positional object instances.

    Object identity is the index into ``objects``; two instances may share a
    label.  ``attributes`` holds (object-index, attribute-label) pairs and
    ``relations`` holds (subject-index, relation-label, object-index) triples.
    """

    objects: tuple[str, ...] = ()
    attributes: tuple[tuple[int, str], ...] = ()
    relations: tuple[tuple[int, str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "attributes", tuple((int(i), str(a)) for i, a in self.attributes))
        object.__setattr__(
            self, "relations", tuple((int(s), str(r), int(o)) for s, r, o in self.relations)
        )
        n = len(self.objects)
        for i, _ in self.attributes:
            if not 0 <= i < n:
                raise ValueError(f"attribute references object index {i} out of range 0..{n - 1}")
        for s, _, o in self.relations:
            if not (0 <= s < n and 0 <= o < n):
                raise ValueError(f"relation references object index out of range: ({s}, {o})")

    @classmethod
    def empty(cls) -> "SceneGraph":
        return cls()

    def node_refs(self) -> list[NodeRef]:
        """All node identifiers in declaration order: objects, attributes, relations."""
        refs = [NodeRef("object", i) for i in range(len(self.objects))]
        refs += [NodeRef("attribute", j) for j in range(len(self.attributes))]
        refs += [NodeRef("relation", k) for k in range(len(self.relations))]
        return refs


@dataclass(frozen=True)
class ArcSet:
    """Edge-centric graph: labeled arcs over token indices 1..n_tokens.

    ROOT is index ``n_tokens + 1``.  Invariants enforced at construction:
    every dependent has at most one head, ROOT is never a dependent, arcs
    headed by ROOT are exactly the BEGN arcs, and CONT arcs connect adjacent
    tokens.
    """

    n_tokens: int
    arcs: frozenset[Arc] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        root = self.root
        seen_deps = set()
        for arc in self.arcs:
            if not isinstance(arc.label, EdgeLabel):
                raise ArcConflict(f"arc {arc} carries a non-EdgeLabel label")
            if not 1 <= arc.dep <= self.n_tokens:
                raise ArcConflict(f"arc {arc} has dependent outside 1..{self.n_tokens}")
            if not 1 <= arc.head <= root:
                raise ArcConflict(f"arc {arc} has head outside 1..{root}")
            if arc.dep in seen_deps:
                raise ArcConflict(f"token {arc.dep} has more than one head")
            seen_deps.add(arc.dep)
            if (arc.head == root) != (arc.label is EdgeLabel.BEGN):
                raise ArcConflict(f"arc {arc}: BEGN arcs and only BEGN arcs start at ROOT")
            if arc.label is EdgeLabel.CONT and abs(arc.head - arc.dep) != 1:
                raise ArcConflict(f"CONT arc {arc} does not connect adjacent tokens")

    @property
    def root(self) -> int:
        return self.n_tokens + 1

    def participants(self) -> frozenset[int]:
        """Token indices that occur in any arc as head or dependent (ROOT excluded)."""
        out = set()
        for arc in self.arcs:
            out.add(arc.dep)
            if arc.head != self.root:
                out.add(arc.head)
        return frozenset(out)


def is_acyclic(graph: SceneGraph) -> bool:
    """True iff the induced node-centric directed graph has no cycle.

    Edges run object -> attribute, subject -> relation, relation -> object.
    """
    deps: dict[NodeRef, set[NodeRef]] = {ref: set() for ref in graph.node_refs()}
    for j, (oi, _) in enumerate(graph.attributes):
        deps[NodeRef("attribute", j)].add(NodeRef("object", oi))
    for k, (si, _, oi) in enumerate(graph.relations):
        deps[NodeRef("relation", k)].add(NodeRef("object", si))
        deps[NodeRef("object", oi)].add(NodeRef("relation", k))
    try:
        graphlib.TopologicalSorter(deps).prepare()
    except graphlib.CycleError:
        return False
    return True


def _span_head(span: tuple[int, int], rule: ArcRule) -> int:
    return span[1] if rule is ArcRule.LEFT else span[0]


def _chain_arcs(span: tuple[int, int], rule: ArcRule) -> list[Arc]:
    start, end = span
    if rule is ArcRule.LEFT:
        return [Arc(i + 1, i, EdgeLabel.CONT) for i in range(start, end)]
    return [Arc(i, i + 1, EdgeLabel.CONT) for i in range(start, end)]


def _check_spans(spans: dict[NodeRef, tuple[int, int]], graph: SceneGraph, n_tokens: int) -> None:
    counts = {"object": len(graph.objects), "attribute": len(graph.attributes),
              "relation": len(graph.relations)}
    for ref, (start, end) in spans.items():
        if ref.kind not in counts or not 0 <= ref.index < counts[ref.kind]:
            raise AlignmentConflict(f"alignment references unknown node {ref}")
        if not (1 <= start <= end <= n_tokens):
            raise AlignmentConflict(f"span {start}..{end} for {ref} is out of bounds")
    ordered = sorted(spans.values())
    for (s1, e1), (s2, _) in zip(ordered, ordered[1:]):
        if s2 <= e1:
            raise AlignmentConflict(f"alignment spans overlap around tokens {s2}..{e1}")


def to_edge_centric(graph: SceneGraph, alignment: "AlignmentResult", rule: ArcRule) -> ArcSet:
    """Convert an aligned scene graph to labeled arcs over the sentence tokens.

    Only nodes whose span and required neighbours are aligned contribute:
    an attribute needs its object, a relation needs both endpoints.  Nodes
    that contribute emit a CONT chain inside their span; ATTR/SUBJ/OBJT arcs
    connect span heads; BEGN arcs attach parentless object heads to ROOT.
    """
    n = alignment.n_tokens
    spans = dict(alignment.node_spans)
    _check_spans(spans, graph, n)

    def span(ref: NodeRef) -> tuple[int, int] | None:
        return spans.get(ref)

    objects = [NodeRef("object", i) for i in range(len(graph.objects)) if span(NodeRef("object", i))]
    attributes = [
        NodeRef("attribute", j)
        for j, (oi, _) in enumerate(graph.attributes)
        if span(NodeRef("attribute", j)) and span(NodeRef("object", oi))
    ]
    relations = [
        NodeRef("relation", k)
        for k, (si, _, oi) in enumerate(graph.relations)
        if span(NodeRef("relation", k)) and span(NodeRef("object", si)) and span(NodeRef("object", oi))
    ]

    arcs: list[Arc] = []
    for ref in objects + attributes + relations:
        arcs.extend(_chain_arcs(spans[ref], rule))
    for ref in attributes:
        oi, _ = graph.attributes[ref.index]
        arcs.append(Arc(_span_head(spans[NodeRef("object", oi)], rule),
                        _span_head(spans[ref], rule), EdgeLabel.ATTR))
    for ref in relations:
        si, _, oi = graph.relations[ref.index]
        rel_head = _span_head(spans[ref], rule)
        arcs.append(Arc(_span_head(spans[NodeRef("object", si)], rule), rel_head, EdgeLabel.SUBJ))
        arcs.append(Arc(rel_head, _span_head(spans[NodeRef("object", oi)], rule), EdgeLabel.OBJT))

    dependents = {arc.dep for arc in arcs}
    root = n + 1
    for ref in objects:
        head = _span_head(spans[ref], rule)
        if head not in dependents:
            arcs.append(Arc(root, head, EdgeLabel.BEGN))
    return ArcSet(n, frozenset(arcs))


def _cont_spans(arcs: ArcSet) -> tuple[dict[int, tuple[int, int]], ArcRule]:
    """Group CONT-linked tokens into maximal spans and infer the chain rule."""
    cont = [a for a in arcs.arcs if a.label is EdgeLabel.CONT]
    if not cont:
        return {}, ArcRule.LEFT
    directions = {a.head > a.dep for a in cont}
    if len(directions) > 1:
        raise MalformedArcs(
            "CONT arcs mix both directions",
            tokens=sorted({a.dep for a in cont}),
            arcs=sorted(cont),
        )
    rule = ArcRule.LEFT if directions.pop() else ArcRule.RIGHT
    linked = sorted({a.head for a in cont} | {a.dep for a in cont})
    pairs = {(min(a.head, a.dep), max(a.head, a.dep)) for a in cont}
    by_token: dict[int, tuple[int, int]] = {}
    i = 0
    while i < len(linked):
        start = linked[i]
        end = start
        while (end, end + 1) in pairs:
            end += 1
        while i < len(linked) and linked[i] <= end:
            i += 1
        for t in range(start, end + 1):
            by_token[t] = (start, end)
    return by_token, rule


def to_node_centric_with_spans(
    arcs: ArcSet, tokens: list[str]
) -> tuple[SceneGraph, dict[NodeRef, tuple[int, int]]]:
    """Rebuild a scene graph (and its node spans) from an edge-centric arc set.

    Maximal CONT chains collapse into one multi-word node; typed arcs decide
    node kinds.  A token voting more than one kind raises MalformedArcs.
    Spans that carry a CONT chain but no typed arc have no recoverable kind
    and are dropped; relations missing a subject or object likewise produce
    no triple.
    """
    if len(tokens) != arcs.n_tokens:
        raise ValueError(f"{len(tokens)} tokens given for an arc set over {arcs.n_tokens}")
    chain_span, rule = _cont_spans(arcs)

    def span_of(token: int) -> tuple[int, int]:
        return chain_span.get(token, (token, token))

    typed = sorted(a for a in arcs.arcs if a.label is not EdgeLabel.CONT)
    votes: dict[tuple[int, int], dict[str, list[Arc]]] = {}

    def vote(span: tuple[int, int], kind: str, arc: Arc) -> None:
        votes.setdefault(span, {}).setdefault(kind, []).append(arc)

    for arc in typed:
        dep_span = span_of(arc.dep)
        if arc.label is EdgeLabel.BEGN:
            vote(dep_span, "object", arc)
            continue
        head_span = span_of(arc.head)
        if arc.label is EdgeLabel.ATTR:
            vote(head_span, "object", arc)
            vote(dep_span, "attribute", arc)
        elif arc.label is EdgeLabel.SUBJ:
            vote(head_span, "object", arc)
            vote(dep_span, "relation", arc)
        elif arc.label is EdgeLabel.OBJT:
            vote(head_span, "relation", arc)
            vote(dep_span, "object", arc)

    conflicted = {span: kinds for span, kinds in votes.items() if len(kinds) > 1}
    if conflicted:
        bad_tokens = sorted(_span_head(span, rule) for span in conflicted)
        bad_arcs = sorted(a for kinds in conflicted.values() for lst in kinds.values() for a in lst)
        raise MalformedArcs(
            f"tokens {bad_tokens} are typed as more than one node kind",
            tokens=bad_tokens,
            arcs=bad_arcs,
        )

    kind_of = {span: next(iter(kinds)) for span, kinds in votes.items()}

    def label(span: tuple[int, int]) -> str:
        return normalize_label(" ".join(tokens[span[0] - 1: span[1]]))

    object_spans = sorted(s for s, k in kind_of.items() if k == "object")
    obj_index = {span: i for i, span in enumerate(object_spans)}
    spans: dict[NodeRef, tuple[int, int]] = {
        NodeRef("object", i): span for span, i in obj_index.items()
    }

    attributes: list[tuple[int, str]] = []
    for arc in typed:
        if arc.label is not EdgeLabel.ATTR:
            continue
        attributes.append((obj_index[span_of(arc.head)], label(span_of(arc.dep))))
        spans[NodeRef("attribute", len(attributes) - 1)] = span_of(arc.dep)

    subj_of = {span_of(a.dep): span_of(a.head) for a in typed if a.label is EdgeLabel.SUBJ}
    relations: list[tuple[int, str, int]] = []
    for arc in typed:
        if arc.label is not EdgeLabel.OBJT:
            continue
        rel_span = span_of(arc.head)
        subj_span = subj_of.get(rel_span)
        if subj_span is None:
            continue
        relations.append((obj_index[subj_span], label(rel_span), obj_index[span_of(arc.dep)]))
        spans[NodeRef("relation", len(relations) - 1)] = rel_span

    graph = SceneGraph(
        objects=tuple(label(span) for span in object_spans),
        attributes=tuple(attributes),
        relations=tuple(relations),
    )
    return graph, spans


def to_node_centric(arcs: ArcSet, tokens: list[str]) -> SceneGraph:
    """Collapse CONT chains and infer node kinds; see to_node_centric_with_spans."""
    return to_node_centric_with_spans(arcs, tokens)[0]


def to_node_centric_lenient(arcs: ArcSet, tokens: list[str]) -> SceneGraph:
    """Like to_node_centric, but resolve type conflicts by dropping arcs.

    On each conflict the latest offending arc in (head, dependent) order is
    removed and conversion retried, so the result is deterministic.
    """
    current = arcs
    while True:
        try:
            return to_node_centric(current, tokens)
        except MalformedArcs as err:
            if not err.arcs:
                raise
            victim = max(err.arcs, key=lambda a: (a.head, a.dep))
            remaining = frozenset(a for a in current.arcs if a != victim)
            current = ArcSet(current.n_tokens, remaining)

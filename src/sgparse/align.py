"""Sentence-to-graph alignment that turns region graphs into parser supervision.

Alignment runs two cycles, each trying objects, then attributes, then
relations.  The first cycle matches object labels word-for-word only; every
other step may also use synonyms.  An attribute aligns only after its object,
a relation only after both endpoints, and each token is consumed at most
once, so spans stay disjoint.  An `AlignmentResult` is the sentence's tokens
and its node spans, so gold arcs and the aligned subgraph derive from it
alone, with no second tokenization.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import AlignmentConflict, LexiconCorrupt
from .graph import (
    ArcRule,
    ArcSet,
    NodeRef,
    SceneGraph,
    normalize_label,
    to_edge_centric,
)

_PUNCT = string.punctuation


def tokenize(sentence: str) -> list[str]:
    """Lowercase whitespace tokenization, stripping edge punctuation.

    Internal hyphens survive ("well-lit"); tokens that were pure punctuation
    are dropped.
    """
    out = []
    for raw in sentence.lower().split():
        word = raw.strip(_PUNCT)
        if word:
            out.append(word)
    return out


def read_text_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file (a lexicon, config or split file);
    bytes that are not UTF-8 raise ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text ({err})") from err


@dataclass(frozen=True)
class SynonymLexicon:
    """Case-insensitive symmetric synonym table.

    Every word matches itself; entries are single words, closed under
    symmetry.
    """

    table: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "SynonymLexicon":
        return cls({})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "SynonymLexicon":
        """Matching compares one token with one token, so an entry that is
        empty or not a single word raises LexiconCorrupt."""
        raw: dict[str, set[str]] = {}
        for a, b in pairs:
            a, b = a.lower(), b.lower()
            if a.split() != [a] or b.split() != [b]:
                raise LexiconCorrupt(f"{(a, b)!r} is not a pair of single words")
            raw.setdefault(a, set()).add(b)
            raw.setdefault(b, set()).add(a)
        return cls({w: frozenset(s) for w, s in raw.items()})

    @classmethod
    def load(cls, path: str | Path) -> "SynonymLexicon":
        """Read `word<TAB>syn1,syn2,...` lines; `#` starts a comment line.

        Every word and synonym must be a single word, as in `from_pairs`.
        """
        pairs = []
        for number, line in enumerate(read_text_lines(path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            word, _, rest = line.partition("\t")
            word = word.strip().lower()
            if not word:
                continue
            syns = [syn.strip().lower() for syn in rest.split(",")]
            for entry in [word, *syns]:
                if len(entry.split()) > 1:
                    raise LexiconCorrupt(f"{path}:{number}: {entry!r} is not a single word")
            pairs.extend((word, syn) for syn in syns if syn)
        return cls.from_pairs(pairs)

    def matches(self, a: str, b: str) -> bool:
        a, b = a.lower(), b.lower()
        return a == b or b in self.table.get(a, frozenset())


@dataclass(frozen=True)
class AlignmentResult:
    """A sentence's tokens and a partial map from graph nodes to disjoint
    1-based spans over them; a span out of bounds or overlapping another
    raises AlignmentConflict."""

    tokens: tuple[str, ...]
    node_spans: dict[NodeRef, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        covered: set[int] = set()
        for ref, (start, end) in self.node_spans.items():
            if not (1 <= start <= end <= len(self.tokens)):
                raise AlignmentConflict(f"span {start}..{end} for {ref} is out of bounds")
            toks = set(range(start, end + 1))
            if toks & covered:
                raise AlignmentConflict(f"span for {ref} overlaps an earlier span")
            covered |= toks


class AlignMode(Enum):
    """Synonym usage: FULL is the two-cycle default, ALL_SYN enables synonyms
    in every step, NO_SYN disables them everywhere."""

    FULL = "full"
    ALL_SYN = "all-syn"
    NO_SYN = "no-syn"


def syn_match(label: str, tokens: list[str], start: int, lexicon: SynonymLexicon) -> bool:
    """True iff each of the label's words matches tokens[start + k - 1] (1-based)
    through the lexicon; with an empty lexicon this is word-by-word matching."""
    words = normalize_label(label).split()
    if not words or start < 1 or start + len(words) - 1 > len(tokens):
        return False
    return all(lexicon.matches(w, tokens[start - 1 + k]) for k, w in enumerate(words))


def align(
    sentence: str,
    graph: SceneGraph,
    lexicon: SynonymLexicon | None = None,
    mode: AlignMode = AlignMode.FULL,
) -> AlignmentResult:
    """Two-cycle greedy alignment of the sentence's tokens; unaligned nodes
    simply stay unmapped.

    Nodes are visited in declaration order and each takes the leftmost free
    span whose length equals its word count; ties never arise because the
    first match wins.
    """
    lexicon = lexicon or SynonymLexicon.empty()
    no_synonyms = SynonymLexicon.empty()
    tokens = tokenize(sentence)
    n = len(tokens)
    spans: dict[NodeRef, tuple[int, int]] = {}
    used_words: set[int] = set()

    def try_align(ref: NodeRef, label: str, synonyms: SynonymLexicon) -> None:
        words = normalize_label(label).split()
        width = len(words)
        if width == 0:
            return
        for start in range(1, n - width + 2):
            span = range(start, start + width)
            if any(t in used_words for t in span):
                continue
            if syn_match(label, tokens, start, synonyms):
                spans[ref] = (start, start + width - 1)
                used_words.update(span)
                return

    for cycle in (1, 2):
        if mode is AlignMode.NO_SYN:
            object_syn = other_syn = no_synonyms
        elif mode is AlignMode.ALL_SYN:
            object_syn = other_syn = lexicon
        else:
            object_syn = lexicon if cycle == 2 else no_synonyms
            other_syn = lexicon
        for i, label in enumerate(graph.objects):
            ref = NodeRef("object", i)
            if ref not in spans:
                try_align(ref, label, object_syn)
        for j, (oi, label) in enumerate(graph.attributes):
            ref = NodeRef("attribute", j)
            if ref not in spans and NodeRef("object", oi) in spans:
                try_align(ref, label, other_syn)
        for k, (si, label, oi) in enumerate(graph.relations):
            ref = NodeRef("relation", k)
            if (
                ref not in spans
                and NodeRef("object", si) in spans
                and NodeRef("object", oi) in spans
            ):
                try_align(ref, label, other_syn)

    return AlignmentResult(tuple(tokens), spans)


def derive_gold(
    alignment: AlignmentResult, graph: SceneGraph, rule: ArcRule
) -> tuple[ArcSet, frozenset[int]]:
    """Gold arcs over the alignment's tokens plus the tokens a parser must
    drop with REDUCE.

    The reduce set is every token that takes part in no arc at all, which
    covers unaligned words and the spans of nodes whose guards failed.
    """
    gold = to_edge_centric(graph, alignment, rule)
    reduce_set = frozenset(range(1, len(alignment.tokens) + 1)) - gold.participants()
    return gold, reduce_set


def aligned_subgraph(graph: SceneGraph, alignment: AlignmentResult) -> SceneGraph:
    """The scene graph actually taught to the parser: aligned nodes only,
    with labels realized from the matched tokens (synonym matches therefore
    surface the sentence's words)."""

    def realize(ref: NodeRef) -> str:
        start, end = alignment.node_spans[ref]
        return normalize_label(" ".join(alignment.tokens[start - 1: end]))

    spans = alignment.node_spans
    kept_objects = [i for i in range(len(graph.objects)) if NodeRef("object", i) in spans]
    remap = {old: new for new, old in enumerate(kept_objects)}
    objects = tuple(realize(NodeRef("object", i)) for i in kept_objects)
    attributes = tuple(
        (remap[oi], realize(NodeRef("attribute", j)))
        for j, (oi, _) in enumerate(graph.attributes)
        if NodeRef("attribute", j) in spans and oi in remap
    )
    relations = tuple(
        (remap[si], realize(NodeRef("relation", k)), remap[oi])
        for k, (si, _, oi) in enumerate(graph.relations)
        if NodeRef("relation", k) in spans and si in remap and oi in remap
    )
    return SceneGraph(objects=objects, attributes=attributes, relations=relations)

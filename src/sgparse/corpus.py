"""Corpus ingestion, split files, and synthetic data for verification.

The corpus format is line-delimited JSON, one region per line:

    {"image_id": int, "region_id": int, "phrase": str,
     "objects": [{"id": int, "name": str}],
     "attributes": [{"object_id": int, "attribute": str}],
     "relationships": [{"subject_id": int, "predicate": str, "object_id": int}]}

Malformed records (one that is not UTF-8, an id that is not a JSON integer,
or a phrase with no token) are skipped and counted; a corpus with more than
10% malformed lines is rejected outright.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .align import (AlignMode, AlignmentResult, SynonymLexicon, align, derive_gold,
                    read_text_lines, tokenize)
from .errors import AlignmentConflict, ArcConflict, CorpusCorrupt, OracleStuck
from .graph import ArcRule, ArcSet, SceneGraph, is_acyclic, normalize_label
from .transition import oracle_parse

MALFORMED_LIMIT = 0.10


@dataclass(frozen=True)
class RegionRecord:
    image_id: int
    region_id: int
    phrase: str
    graph: SceneGraph


def graph_to_json(graph: SceneGraph) -> dict:
    return {
        "objects": [{"id": i, "name": name} for i, name in enumerate(graph.objects)],
        "attributes": [{"object_id": oi, "attribute": a} for oi, a in graph.attributes],
        "relationships": [
            {"subject_id": si, "predicate": r, "object_id": oi} for si, r, oi in graph.relations
        ],
    }


def _json_int(value) -> int:
    """An id as JSON holds it; a bool, float or string raises ValueError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"id {value!r} is not an integer")
    return value


def graph_from_json(data: dict) -> SceneGraph:
    ids = [_json_int(obj["id"]) for obj in data.get("objects", ())]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate object ids")
    index = {obj_id: i for i, obj_id in enumerate(ids)}
    objects = tuple(normalize_label(str(obj["name"])) for obj in data.get("objects", ()))
    attributes = tuple(
        (index[_json_int(a["object_id"])], normalize_label(str(a["attribute"])))
        for a in data.get("attributes", ())
    )
    relations = tuple(
        (
            index[_json_int(r["subject_id"])],
            normalize_label(str(r["predicate"])),
            index[_json_int(r["object_id"])],
        )
        for r in data.get("relationships", ())
    )
    return SceneGraph(objects=objects, attributes=attributes, relations=relations)


def record_to_json(record: RegionRecord) -> dict:
    out = {"image_id": record.image_id, "region_id": record.region_id, "phrase": record.phrase}
    out.update(graph_to_json(record.graph))
    return out


def record_from_json(data: dict) -> RegionRecord:
    if not isinstance(data, dict):
        raise ValueError("record is not a JSON object")
    if data.get("phrase") is None:
        raise ValueError("phrase must not be null")
    phrase = str(data["phrase"])
    if not tokenize(phrase):
        raise ValueError(f"phrase {phrase!r} has no token")
    return RegionRecord(
        image_id=_json_int(data["image_id"]),
        region_id=_json_int(data["region_id"]),
        phrase=phrase,
        graph=graph_from_json(data),
    )


def load_corpus(path: str | Path) -> tuple[list[RegionRecord], int]:
    """Stream a corpus file; returns (records, number of skipped records).
    A line that is not one well-formed record, JSON nested too deeply to
    decode included, is skipped."""
    records: list[RegionRecord] = []
    seen_regions: set[int] = set()
    skipped = 0
    total = 0
    # a byte that is not UTF-8 loads as a lone surrogate, failing `encode`
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            total += 1
            try:
                line.encode("utf-8")
                record = record_from_json(json.loads(line))
                if record.region_id in seen_regions:
                    raise ValueError(f"duplicate region id {record.region_id}")
            # RecursionError: JSON nested deeper than `json.loads` descends
            except (ValueError, KeyError, TypeError, RecursionError):
                skipped += 1
                continue
            seen_regions.add(record.region_id)
            records.append(record)
    if total and skipped / total > MALFORMED_LIMIT:
        raise CorpusCorrupt(f"{skipped} of {total} records malformed in {path}")
    return records, skipped


def save_corpus(records: Iterable[RegionRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_json(record), sort_keys=True) + "\n")


def load_split(path: str | Path) -> frozenset[int]:
    """One image id per line."""
    ids = set()
    for number, line in enumerate(read_text_lines(path), 1):
        line = line.strip()
        if line:
            try:
                ids.add(int(line))
            except ValueError as err:
                raise ValueError(f"{path}:{number}: {err}") from err
    return frozenset(ids)


@dataclass(frozen=True)
class SynthGrammar:
    """Closed-vocabulary template grammar whose sentences align exactly.

    No word appears in two different labels and determiners never appear in
    labels, so word-by-word alignment recovers every node and the derived
    arcs are always projective.
    """

    objects: tuple[str, ...] = (
        "dog", "cat", "man", "woman", "car", "tree", "house", "bird", "horse",
        "chair", "boat", "child", "traffic light", "fire truck", "stop sign",
    )
    attributes: tuple[str, ...] = (
        "black", "white", "red", "blue", "green", "small", "large", "old",
        "young", "tall", "shiny", "wooden", "dark brown",
    )
    relations: tuple[str, ...] = (
        "holds", "rides", "carries", "near", "under", "behind", "above",
        "beside", "in front of", "on top of", "next to", "looking at",
    )
    determiners: tuple[str, ...] = ("the", "a")
    p_attribute: float = 0.5
    p_determiner: float = 0.4
    regions_per_image: int = 5


def _noun_phrase(rng: random.Random, grammar: SynthGrammar) -> tuple[list[str], str, str | None]:
    words: list[str] = []
    if rng.random() < grammar.p_determiner:
        words.append(rng.choice(grammar.determiners))
    attribute = None
    if rng.random() < grammar.p_attribute:
        attribute = rng.choice(grammar.attributes)
        words.extend(attribute.split())
    obj = rng.choice(grammar.objects)
    words.extend(obj.split())
    return words, obj, attribute


def generate_synthetic(
    n: int, seed: int, grammar: SynthGrammar | None = None
) -> list[RegionRecord]:
    """Deterministic synthetic corpus; every instance is fully alignable."""
    grammar = grammar or SynthGrammar()
    rng = random.Random(seed)
    records = []
    for i in range(n):
        pattern = rng.random()
        n_objects = 1 if pattern < 0.3 else (2 if pattern < 0.85 else 3)
        words: list[str] = []
        objects: list[str] = []
        attributes: list[tuple[int, str]] = []
        relations: list[tuple[int, str, int]] = []
        for j in range(n_objects):
            if j > 0:
                relation = rng.choice(grammar.relations)
                words.extend(relation.split())
                relations.append((j - 1, relation, j))
            np_words, obj, attribute = _noun_phrase(rng, grammar)
            if attribute is not None:
                attributes.append((j, attribute))
            words.extend(np_words)
            objects.append(obj)
        graph = SceneGraph(objects=tuple(objects), attributes=tuple(attributes),
                           relations=tuple(relations))
        records.append(
            RegionRecord(
                image_id=i // grammar.regions_per_image,
                region_id=i,
                phrase=" ".join(words),
                graph=graph,
            )
        )
    return records


class TrainInstance(NamedTuple):
    region_id: int
    tokens: tuple[str, ...]
    gold: ArcSet
    reduce_set: frozenset[int]


def build_instances(
    records: Sequence[RegionRecord],
    lexicon: SynonymLexicon | None = None,
    rule: ArcRule = ArcRule.LEFT,
    mode: AlignMode = AlignMode.FULL,
    alignments: list[AlignmentResult] | None = None,
) -> tuple[list[TrainInstance], dict[str, int]]:
    """Alignment-derived supervision for every usable record.

    Each record's phrase is tokenized once, by `align`, and its instance
    takes the alignment's tokens.  Records are dropped (and counted) when
    their graph is cyclic, when the derived arcs violate the single-head
    property, or when `oracle_parse` cannot reach the gold arcs
    (non-projective); it checks that its walk ends on exactly those arcs.
    When `alignments` is a list, each record's alignment is appended to it
    in record order.
    """
    instances = []
    stats = {"total": len(records), "used": 0, "cyclic": 0, "arc_conflict": 0,
             "non_projective": 0}
    for record in records:
        alignment = align(record.phrase, record.graph, lexicon, mode)
        if alignments is not None:
            alignments.append(alignment)
        if not is_acyclic(record.graph):
            stats["cyclic"] += 1
            continue
        try:
            gold, reduce_set = derive_gold(alignment, record.graph, rule)
        except (ArcConflict, AlignmentConflict):
            stats["arc_conflict"] += 1
            continue
        try:
            oracle_parse(len(alignment.tokens), gold, reduce_set)
        except OracleStuck:
            stats["non_projective"] += 1
            continue
        stats["used"] += 1
        instances.append(TrainInstance(record.region_id, alignment.tokens, gold, reduce_set))
    return instances, stats


def read_config(path: str | Path) -> dict[str, str]:
    """Flat `key = value` configuration file; `#` starts a comment line.  A
    line without `=`, or a key set twice, raises ValueError naming its line."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for number, line in enumerate(read_text_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{path}:{number}: malformed config line: {line!r}")
        if key in lines:
            raise ValueError(f"{path}:{number}: key {key!r} is already set on line {lines[key]}")
        lines[key] = number
        out[key] = value.strip()
    return out

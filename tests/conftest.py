import pytest

from sgparse import transition
from sgparse.align import align, derive_gold, tokenize
from sgparse.graph import ArcRule, SceneGraph

DATA = __file__.rsplit("/", 1)[0] + "/data"

FIG_SENTENCE = "black barrier in front of the person"
FIG_GRAPH = SceneGraph(
    objects=("barrier", "person"),
    attributes=((0, "black"),),
    relations=((0, "in front of", 1),),
)


@pytest.fixture
def fig_sentence():
    return FIG_SENTENCE


@pytest.fixture
def fig_graph():
    return FIG_GRAPH


@pytest.fixture
def fig_tokens():
    return tokenize(FIG_SENTENCE)


@pytest.fixture
def fig_alignment():
    return align(FIG_SENTENCE, FIG_GRAPH)


@pytest.fixture
def fig_gold(fig_alignment):
    return derive_gold(fig_alignment, FIG_GRAPH, ArcRule.LEFT)


@pytest.fixture
def data_dir():
    return DATA


def canonical(graph: SceneGraph):
    """Order-insensitive form of a scene graph for equality checks.

    Objects are compared as a multiset of (label, sorted attributes,
    sorted outgoing and incoming relation signatures).
    """
    per_object = []
    for i, label in enumerate(graph.objects):
        attrs = tuple(sorted(a for oi, a in graph.attributes if oi == i))
        outgoing = tuple(sorted(
            (r, graph.objects[oi]) for si, r, oi in graph.relations if si == i))
        incoming = tuple(sorted(
            (graph.objects[si], r) for si, r, oi in graph.relations if oi == i))
        per_object.append((label, attrs, outgoing, incoming))
    return tuple(sorted(per_object))


@pytest.fixture
def arc_skipping_oracle(monkeypatch):
    """Patches `sgparse.transition.oracle` with a mutant that offers REDUCE
    alone wherever the oracle offers an arc action, so the path it leads
    reaches the terminal configuration without those gold arcs."""
    oracle = transition.oracle

    def skipping(c, gold, reduce_set):
        actions = oracle(c, gold, reduce_set)
        if any(a.kind in ("LEFT", "RIGHT") for a in actions):
            return frozenset({transition.REDUCE})
        return actions

    monkeypatch.setattr(transition, "oracle", skipping)

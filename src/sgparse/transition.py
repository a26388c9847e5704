"""Arc-hybrid transition system extended with a REDUCE action.

A configuration is a stack, a buffer ending in a virtual ROOT index, and the
arcs built so far.  SHIFT moves the buffer front onto the stack; LEFT(l)
attaches the stack top to the buffer front and pops; RIGHT(l) attaches the
stack top to the second stack element and pops; REDUCE pops without adding
an arc, so words that belong to no graph node can be dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import IllegalAction, OracleStuck
from .graph import Arc, ArcRule, ArcSet, EdgeLabel


class Action(NamedTuple):
    kind: str  # "SHIFT" | "REDUCE" | "LEFT" | "RIGHT"
    label: EdgeLabel | None = None

    def __str__(self) -> str:
        if self.label is None:
            return self.kind
        return f"{self.kind}({self.label.value})"


SHIFT = Action("SHIFT")
REDUCE = Action("REDUCE")


def left(label: EdgeLabel) -> Action:
    return Action("LEFT", label)


def right(label: EdgeLabel) -> Action:
    return Action("RIGHT", label)


@lru_cache(maxsize=None)
def inventory(rule: ArcRule) -> tuple[Action, ...]:
    """The ten actions reachable under one CONT direction, in scorer order.

    CONT is restricted to the configured direction and BEGN exists only as a
    LEFT action because ROOT sits at the end of the buffer.
    """
    cont = left(EdgeLabel.CONT) if rule is ArcRule.LEFT else right(EdgeLabel.CONT)
    return (
        SHIFT,
        REDUCE,
        left(EdgeLabel.ATTR),
        left(EdgeLabel.SUBJ),
        left(EdgeLabel.OBJT),
        cont,
        left(EdgeLabel.BEGN),
        right(EdgeLabel.ATTR),
        right(EdgeLabel.SUBJ),
        right(EdgeLabel.OBJT),
    )


@dataclass(frozen=True)
class Configuration:
    """Immutable parser state; the stack top is the last element."""

    n_tokens: int
    stack: tuple[int, ...]
    buffer: tuple[int, ...]
    arcs: frozenset[Arc] = frozenset()

    @property
    def root(self) -> int:
        return self.n_tokens + 1

    def arc_set(self) -> ArcSet:
        return ArcSet(self.n_tokens, self.arcs)


def initial(n_tokens: int) -> Configuration:
    if n_tokens < 0:
        raise ValueError("n_tokens must be non-negative")
    return Configuration(
        n_tokens=n_tokens,
        stack=(),
        buffer=tuple(range(1, n_tokens + 2)),
        arcs=frozenset(),
    )


def is_terminal(c: Configuration) -> bool:
    return not c.stack and c.buffer == (c.root,)


def _arc_action_ok(c: Configuration, a: Action) -> bool:
    """Structural legality of a LEFT/RIGHT action in configuration c.

    Beyond the stack and buffer shapes this enforces the arc-set
    invariants: BEGN if and only if the head would be ROOT, and CONT only
    between adjacent tokens, so every reachable arc set is well formed.
    """
    if a.kind == "LEFT":
        if not c.stack:
            return False
        front_is_root = c.buffer[0] == c.root
        if (a.label is EdgeLabel.BEGN) != front_is_root:
            return False
        if a.label is EdgeLabel.CONT and c.buffer[0] != c.stack[-1] + 1:
            return False
        return True
    if a.kind == "RIGHT":
        if len(c.stack) < 2 or a.label is EdgeLabel.BEGN:
            return False
        if a.label is EdgeLabel.CONT and c.stack[-1] != c.stack[-2] + 1:
            return False
        return True
    return False


def legal_actions(c: Configuration, rule: ArcRule = ArcRule.LEFT) -> frozenset[Action]:
    out = set()
    for a in inventory(rule):
        if a.kind == "SHIFT":
            if c.buffer[0] != c.root:
                out.add(a)
        elif a.kind == "REDUCE":
            if c.stack:
                out.add(a)
        elif _arc_action_ok(c, a):
            out.add(a)
    return frozenset(out)


def apply(c: Configuration, a: Action) -> Configuration:
    """Apply one action, returning the successor configuration."""
    if a.kind == "SHIFT":
        if c.buffer[0] == c.root:
            raise IllegalAction(f"cannot SHIFT ROOT in {c}")
        return Configuration(c.n_tokens, c.stack + (c.buffer[0],), c.buffer[1:], c.arcs)
    if a.kind == "REDUCE":
        if not c.stack:
            raise IllegalAction(f"cannot REDUCE with empty stack in {c}")
        return Configuration(c.n_tokens, c.stack[:-1], c.buffer, c.arcs)
    if not _arc_action_ok(c, a):
        raise IllegalAction(f"{a} is not applicable in {c}")
    if a.kind == "LEFT":
        arc = Arc(c.buffer[0], c.stack[-1], a.label)
    else:
        arc = Arc(c.stack[-2], c.stack[-1], a.label)
    return Configuration(c.n_tokens, c.stack[:-1], c.buffer, c.arcs | {arc})


@lru_cache(maxsize=512)
def _gold_maps(gold: ArcSet) -> tuple[dict[int, Arc], dict[int, frozenset[int]]]:
    head_of = {a.dep: a for a in gold.arcs}
    deps: dict[int, set[int]] = {}
    for a in gold.arcs:
        deps.setdefault(a.head, set()).add(a.dep)
    return head_of, {h: frozenset(d) for h, d in deps.items()}


def oracle(c: Configuration, gold: ArcSet, reduce_set: frozenset[int]) -> frozenset[Action]:
    """All zero-cost actions for the given gold arcs.

    An action is zero-cost when it neither creates an arc missing from gold
    nor makes a pending gold arc unbuildable.  When REDUCE is zero-cost it is
    returned alone so headless words are dropped as soon as possible.
    """
    head_of, deps_of = _gold_maps(gold)
    b0 = c.buffer[0]
    buffer_set = set(c.buffer)
    out: set[Action] = set()

    if c.stack:
        s0 = c.stack[-1]
        if s0 in reduce_set:
            return frozenset({REDUCE})
        gold_head = head_of.get(s0)
        pending_dep = any(d in buffer_set for d in deps_of.get(s0, ()))
        if gold_head is not None and not pending_dep:
            if gold_head.head == b0:
                out.add(left(gold_head.label))
            if len(c.stack) >= 2 and gold_head.head == c.stack[-2]:
                out.add(right(gold_head.label))

    if b0 != c.root:
        below_top = set(c.stack[:-1])
        b0_head = head_of.get(b0)
        head_lost = b0_head is not None and b0_head.head in below_top
        dep_lost = any(d in set(c.stack) for d in deps_of.get(b0, ()))
        if not head_lost and not dep_lost:
            out.add(SHIFT)

    if not out:
        raise OracleStuck(
            f"gold arcs unreachable from stack={c.stack} buffer={c.buffer}; "
            "the instance is non-projective or corrupt"
        )
    return frozenset(out)


_PRIORITY = {"LEFT": 0, "RIGHT": 1, "REDUCE": 2, "SHIFT": 3}


def preferred(actions: Iterable[Action]) -> Action:
    """Deterministic choice among zero-cost actions: LEFT > RIGHT > REDUCE > SHIFT."""
    return min(actions, key=lambda a: (_PRIORITY[a.kind], a.label.value if a.label else ""))


def oracle_parse(
    n_tokens: int, gold: ArcSet, reduce_set: frozenset[int]
) -> list[Action]:
    """Follow the preferred zero-cost action to termination.

    Applying the returned sequence from the initial configuration rebuilds
    exactly the gold arc set.
    """
    c = initial(n_tokens)
    actions: list[Action] = []
    limit = 2 * n_tokens + 1
    while not is_terminal(c):
        if len(actions) > limit:
            raise OracleStuck(f"no termination within {limit} actions")
        a = preferred(oracle(c, gold, reduce_set))
        actions.append(a)
        c = apply(c, a)
    return actions


def format_trace(tokens: list[str], actions: Iterable[Action], root_word: str = "ROOT") -> str:
    """Render an action sequence as a step/stack/buffer/action table.

    One tab-separated line per step plus a final line for the terminal
    configuration with an empty action column.
    """

    def words(indices: Iterable[int]) -> str:
        n = len(tokens)
        return " ".join(root_word if i == n + 1 else tokens[i - 1] for i in indices)

    c = initial(len(tokens))
    lines = []
    for step, a in enumerate(actions):
        lines.append(f"{step}\t{words(c.stack)}\t{words(c.buffer)}\t{a}")
        c = apply(c, a)
    lines.append(f"{len(lines)}\t{words(c.stack)}\t{words(c.buffer)}\t")
    return "\n".join(lines) + "\n"

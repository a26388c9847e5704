"""Learned action scorer: embeddings, a two-layer BiLSTM, an MLP over the
configuration feature, hinge training with oracle guidance, greedy parsing,
and a finite-difference gradient check.

The configuration feature concatenates the context vectors of the top three
stack elements and the buffer front, substituting a learned pad vector for
missing slots.  Training follows the oracle's preferred action, sums the
per-step hinge losses over a sentence, and applies one Adam update per
sentence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .errors import CheckpointCorrupt, OracleStuck
from .graph import ArcRule, ArcSet
from .transition import (
    Action,
    Configuration,
    REDUCE,
    apply,
    initial,
    inventory,
    is_terminal,
    legal_actions,
    oracle,
    preferred,
)

UNK = "<unk>"
ROOT_WORD = "<root>"
PAD = "<pad>"

# LSTM gate rows, in order: input, forget, output, candidate.
_GATES = 4


@dataclass(frozen=True)
class Vocab:
    """Word-to-index map with reserved UNK/ROOT/PAD entries and corpus counts."""

    words: tuple[str, ...]
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.words[:3] != (UNK, ROOT_WORD, PAD):
            raise ValueError("vocab must start with the reserved UNK, ROOT, PAD entries")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.words)})

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sequence[str]]) -> "Vocab":
        counts: dict[str, int] = {}
        for sent in sentences:
            for word in sent:
                counts[word] = counts.get(word, 0) + 1
        words = (UNK, ROOT_WORD, PAD) + tuple(sorted(counts))
        return cls(words=words, counts=counts)

    def __len__(self) -> int:
        return len(self.words)

    def id(self, word: str) -> int:
        return self._index.get(word, 0)

    def count(self, word: str) -> int:
        return self.counts.get(word, 0)


class ModelParams:
    """All learned tensors plus the sizes that tie them together.

    Defaults follow the trained system: 200-dim embeddings, two BiLSTM
    layers with 256 hidden units per direction, a 100-unit MLP.  Reduced
    sizes are used for gradient checking.
    """

    def __init__(
        self,
        vocab: Vocab,
        arc_rule: ArcRule,
        emb_dim: int = 200,
        hidden: int = 256,
        mlp_hidden: int = 100,
        layers: int = 2,
        seed: int = 0,
    ):
        if min(emb_dim, hidden, mlp_hidden, layers) <= 0:
            raise ValueError("all model sizes must be positive")
        self.vocab = vocab
        self.arc_rule = arc_rule
        self.emb_dim = emb_dim
        self.hidden = hidden
        self.mlp_hidden = mlp_hidden
        self.layers = layers
        self.d_ctx = 2 * hidden
        self.actions = inventory(arc_rule)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        rng = np.random.default_rng(seed)

        def xavier(out_dim: int, in_dim: int) -> np.ndarray:
            limit = np.sqrt(6.0 / (in_dim + out_dim))
            return rng.uniform(-limit, limit, size=(out_dim, in_dim))

        self.tensors: dict[str, ad.Tensor] = {}
        self.tensors["embeddings"] = ad.tensor(rng.uniform(-0.1, 0.1, size=(len(vocab), emb_dim)))
        for layer in range(layers):
            in_dim = emb_dim if layer == 0 else self.d_ctx
            for direction in ("fwd", "bwd"):
                w = xavier(_GATES * hidden, in_dim + hidden)
                b = np.zeros(_GATES * hidden)
                b[hidden: 2 * hidden] = 1.0  # forget-gate bias
                self.tensors[f"lstm{layer}_{direction}_w"] = ad.tensor(w)
                self.tensors[f"lstm{layer}_{direction}_b"] = ad.tensor(b)
        self.tensors["pad"] = ad.tensor(rng.uniform(-0.1, 0.1, size=self.d_ctx))
        self.tensors["mlp_w1"] = ad.tensor(xavier(mlp_hidden, 4 * self.d_ctx))
        self.tensors["mlp_b1"] = ad.tensor(np.zeros(mlp_hidden))
        self.tensors["mlp_w2"] = ad.tensor(xavier(len(self.actions), mlp_hidden))
        self.tensors["mlp_b2"] = ad.tensor(np.zeros(len(self.actions)))

    def parameters(self) -> dict[str, ad.Tensor]:
        return self.tensors

    def finite(self) -> bool:
        return all(np.all(np.isfinite(t.data)) for t in self.tensors.values())


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    adam_epsilon: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epochs: int = 4
    word_dropout_alpha: float = 0.25
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.learning_rate, self.adam_epsilon, self.adam_beta1,
               self.adam_beta2, self.word_dropout_alpha) <= 0 or self.epochs <= 0:
            raise ValueError("all training hyperparameters must be positive")


class Adam:
    """Adaptive-moment optimizer over named tensors."""

    def __init__(self, params: Mapping[str, ad.Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * np.square(g)
            m_hat = self.m[name] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[name] / (1.0 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def _lstm_direction(xs: list[ad.Tensor], w: ad.Tensor, b: ad.Tensor, hidden: int) -> list[ad.Tensor]:
    h = ad.tensor(np.zeros(hidden))
    c = ad.tensor(np.zeros(hidden))
    outs = []
    for x in xs:
        pre = ad.add(ad.matvec(w, ad.concat([x, h])), b)
        i = ad.sigmoid(ad.narrow(pre, 0, hidden))
        f = ad.sigmoid(ad.narrow(pre, hidden, 2 * hidden))
        o = ad.sigmoid(ad.narrow(pre, 2 * hidden, 3 * hidden))
        g = ad.tanh(ad.narrow(pre, 3 * hidden, 4 * hidden))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        outs.append(h)
    return outs


def encode(
    tokens: Sequence[str],
    params: ModelParams,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    dropout_alpha: float = 0.25,
) -> list[ad.Tensor]:
    """Context vectors for each token plus a trailing one for ROOT.

    In train mode each occurrence of a word with corpus frequency f is
    replaced by UNK with probability alpha / (alpha + f).
    """
    ids = [params.vocab.id(w) for w in tokens]
    if train_mode and rng is not None:
        dropped = []
        for word, idx in zip(tokens, ids):
            freq = params.vocab.count(word)
            p = dropout_alpha / (dropout_alpha + freq)
            dropped.append(0 if rng.random() < p else idx)
        ids = dropped
    ids.append(params.vocab.id(ROOT_WORD))

    emb = params.tensors["embeddings"]
    layer_in = [ad.row(emb, i) for i in ids]
    for layer in range(params.layers):
        fwd = _lstm_direction(
            layer_in, params.tensors[f"lstm{layer}_fwd_w"],
            params.tensors[f"lstm{layer}_fwd_b"], params.hidden,
        )
        bwd = _lstm_direction(
            list(reversed(layer_in)), params.tensors[f"lstm{layer}_bwd_w"],
            params.tensors[f"lstm{layer}_bwd_b"], params.hidden,
        )
        bwd.reverse()
        layer_in = [ad.concat([f, b]) for f, b in zip(fwd, bwd)]
    return layer_in


def feature(c: Configuration, vectors: list[ad.Tensor], params: ModelParams) -> ad.Tensor:
    """Concatenation of the top three stack vectors and the buffer front,
    with the learned pad vector filling missing slots."""
    pad = params.tensors["pad"]

    def vec(index: int) -> ad.Tensor:
        return vectors[index - 1]

    slots = [pad] * 3
    top = c.stack[-3:]
    for offset, token in enumerate(top):
        slots[3 - len(top) + offset] = vec(token)
    slots.append(vec(c.buffer[0]))
    return ad.concat(slots)


def score(feat: ad.Tensor, params: ModelParams) -> ad.Tensor:
    """Raw per-action scores: W2 tanh(W1 x + b1) + b2."""
    hidden = ad.tanh(ad.add(ad.matvec(params.tensors["mlp_w1"], feat), params.tensors["mlp_b1"]))
    return ad.add(ad.matvec(params.tensors["mlp_w2"], hidden), params.tensors["mlp_b2"])


def step_loss(
    scores: ad.Tensor,
    y_plus: frozenset[Action],
    legal: frozenset[Action],
    action_index: Mapping[Action, int],
) -> tuple[float, ad.Tensor | None]:
    """Hinge loss of one step; returns the value and a tape node when positive.

    The best correct action must outscore the best incorrect legal action by
    a margin of 1, raised to 2 when REDUCE is the only correct action
    (equivalently, every competitor's score is raised by 1 before the max).
    When every legal action is correct the loss is zero.  Ties between equal
    scores go to the lowest action index.
    """
    if not y_plus:
        raise ValueError("y_plus must not be empty")
    if not y_plus <= legal:
        raise ValueError("y_plus must be a subset of the legal actions")
    wrong = legal - y_plus
    if not wrong:
        return 0.0, None
    data = scores.data
    margin = 2.0 if y_plus == frozenset({REDUCE}) else 1.0
    best_wrong = max(sorted(action_index[a] for a in wrong), key=lambda i: data[i])
    best_correct = max(sorted(action_index[a] for a in y_plus), key=lambda i: data[i])
    value = margin - data[best_correct] + data[best_wrong]
    if value <= 0.0:
        return 0.0, None
    term = ad.sub(ad.pick(scores, best_wrong), ad.pick(scores, best_correct))
    return float(value), term


def sentence_pass(
    tokens: Sequence[str],
    gold: ArcSet,
    reduce_set: frozenset[int],
    params: ModelParams,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    dropout_alpha: float = 0.25,
) -> tuple[float, list[ad.Tensor], int]:
    """Oracle-guided pass over one sentence.

    Follows the deterministic preferred gold action at every step and
    accumulates hinge terms; returns (summed loss, tape terms, step count).
    """
    vectors = encode(tokens, params, train_mode=train_mode, rng=rng, dropout_alpha=dropout_alpha)
    c = initial(len(tokens))
    total = 0.0
    terms: list[ad.Tensor] = []
    steps = 0
    while not is_terminal(c):
        y_plus = oracle(c, gold, reduce_set)
        legal = legal_actions(c, params.arc_rule)
        scores = score(feature(c, vectors, params), params)
        value, term = step_loss(scores, y_plus, legal, params.action_index)
        total += value
        if term is not None:
            terms.append(term)
        steps += 1
        c = apply(c, preferred(y_plus))
    return total, terms, steps


class Trainer:
    """Single-writer training loop: one Adam update per sentence."""

    def __init__(self, params: ModelParams, config: TrainConfig | None = None):
        self.params = params
        self.config = config or TrainConfig()
        self.optimizer = Adam(
            params.parameters(),
            lr=self.config.learning_rate,
            beta1=self.config.adam_beta1,
            beta2=self.config.adam_beta2,
            eps=self.config.adam_epsilon,
        )
        self.rng = np.random.default_rng(self.config.rng_seed)
        self.skipped = 0

    def train_sentence(self, tokens: Sequence[str], gold: ArcSet, reduce_set: frozenset[int]) -> float:
        total, terms, _ = sentence_pass(
            tokens, gold, reduce_set, self.params,
            train_mode=True, rng=self.rng,
            dropout_alpha=self.config.word_dropout_alpha,
        )
        if terms:
            ad.backward(ad.addsum(terms))
        self.optimizer.step()
        self.optimizer.zero_grad()
        return total

    def run_epoch(self, instances: Iterable[tuple[Sequence[str], ArcSet, frozenset[int]]]) -> float:
        """Train over the instances in order; returns the mean sentence loss.

        Instances whose gold arcs are unreachable are skipped and counted.
        """
        losses = []
        for tokens, gold, reduce_set in instances:
            try:
                losses.append(self.train_sentence(tokens, gold, reduce_set))
            except OracleStuck:
                self.skipped += 1
        return float(np.mean(losses)) if losses else 0.0


def greedy_parse(tokens: Sequence[str], params: ModelParams) -> tuple[ArcSet, list[Action]]:
    """Greedy decoding restricted to legal actions; deterministic given params."""
    vectors = encode(tokens, params, train_mode=False)
    c = initial(len(tokens))
    actions: list[Action] = []
    while not is_terminal(c):
        legal = legal_actions(c, params.arc_rule)
        data = score(feature(c, vectors, params), params).data
        best = None
        for i, a in enumerate(params.actions):
            if a in legal and (best is None or data[i] > data[best]):
                best = i
        a = params.actions[best]
        actions.append(a)
        c = apply(c, a)
    return c.arc_set(), actions


def parse(tokens: Sequence[str], params: ModelParams) -> ArcSet:
    return greedy_parse(tokens, params)[0]


def _loss_value_plain(
    tokens: Sequence[str], gold: ArcSet, reduce_set: frozenset[int], params: ModelParams
) -> float:
    """Tape-free recomputation of the summed sentence loss.

    Written directly in numpy so the finite-difference side of the gradient
    check does not share code with the backpropagation tape.
    """

    def sigmoid(x):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    ids = [params.vocab.id(w) for w in tokens] + [params.vocab.id(ROOT_WORD)]
    layer_in = [params.tensors["embeddings"].data[i] for i in ids]
    hidden = params.hidden
    for layer in range(params.layers):
        outs = {}
        for direction, seq in (("fwd", layer_in), ("bwd", list(reversed(layer_in)))):
            w = params.tensors[f"lstm{layer}_{direction}_w"].data
            b = params.tensors[f"lstm{layer}_{direction}_b"].data
            h = np.zeros(hidden)
            c = np.zeros(hidden)
            collected = []
            for x in seq:
                pre = w @ np.concatenate([x, h]) + b
                i_g = sigmoid(pre[:hidden])
                f_g = sigmoid(pre[hidden: 2 * hidden])
                o_g = sigmoid(pre[2 * hidden: 3 * hidden])
                g_g = np.tanh(pre[3 * hidden:])
                c = f_g * c + i_g * g_g
                h = o_g * np.tanh(c)
                collected.append(h)
            outs[direction] = collected
        outs["bwd"].reverse()
        layer_in = [np.concatenate([f, b]) for f, b in zip(outs["fwd"], outs["bwd"])]

    pad = params.tensors["pad"].data
    w1, b1 = params.tensors["mlp_w1"].data, params.tensors["mlp_b1"].data
    w2, b2 = params.tensors["mlp_w2"].data, params.tensors["mlp_b2"].data
    c = initial(len(tokens))
    total = 0.0
    while not is_terminal(c):
        y_plus = oracle(c, gold, reduce_set)
        legal = legal_actions(c, params.arc_rule)
        slots = [pad] * 3
        top = c.stack[-3:]
        for offset, token in enumerate(top):
            slots[3 - len(top) + offset] = layer_in[token - 1]
        slots.append(layer_in[c.buffer[0] - 1])
        data = w2 @ np.tanh(w1 @ np.concatenate(slots) + b1) + b2
        wrong = legal - y_plus
        if wrong:
            margin = 2.0 if y_plus == frozenset({REDUCE}) else 1.0
            best_wrong = max(data[params.action_index[a]] for a in wrong)
            best_correct = max(data[params.action_index[a]] for a in y_plus)
            total += max(0.0, margin - best_correct + best_wrong)
        c = apply(c, preferred(y_plus))
    return total


def grad_check(
    params: ModelParams,
    instance: tuple[Sequence[str], ArcSet, frozenset[int]],
    step: float = 1e-3,
    negate_grad_of: tuple[str, int] | None = None,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    The error is |analytic - numeric| / max(1, |analytic|, |numeric|) over
    every element of every tensor.  The loss is piecewise linear, so when a
    hinge boundary falls inside the probe interval the quotient is
    re-evaluated with a 100x (then 10000x) smaller step; a genuinely wrong
    gradient disagrees at every step size and is still caught.
    ``negate_grad_of`` flips one analytic gradient entry first, for
    verifying that the check catches corruption.
    """
    tokens, gold, reduce_set = instance

    def loss_value() -> float:
        return _loss_value_plain(tokens, gold, reduce_set, params)

    for t in params.parameters().values():
        t.grad = None
    _, terms, _ = sentence_pass(tokens, gold, reduce_set, params)
    if terms:
        ad.backward(ad.addsum(terms))
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.parameters().items()
    }
    for t in params.parameters().values():
        t.grad = None
    if negate_grad_of is not None:
        name, index = negate_grad_of
        analytic[name].reshape(-1)[index] *= -1.0

    def central(flat, j, h) -> float:
        saved = flat[j]
        flat[j] = saved + h
        up = loss_value()
        flat[j] = saved - h
        down = loss_value()
        flat[j] = saved
        return (up - down) / (2.0 * h)

    def rel_err(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    worst = 0.0
    for name, t in params.parameters().items():
        flat = t.data.reshape(-1)
        ga = analytic[name].reshape(-1)
        for j in range(flat.size):
            err = rel_err(ga[j], central(flat, j, step))
            for shrink in (100.0, 10000.0):
                if err <= 1e-6:
                    break
                err = rel_err(ga[j], central(flat, j, step / shrink))
            if err > worst:
                worst = err
    return worst


CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path: str | Path, rng_seed: int = 0) -> None:
    """Self-describing checkpoint: a JSON header line naming every tensor and
    the vocab, followed by row-major little-endian float32 payloads in header
    order."""
    names = sorted(params.parameters())
    header = {
        "format_version": CHECKPOINT_VERSION,
        "rng_seed": rng_seed,
        "arc_rule": params.arc_rule.value,
        "dims": {
            "emb_dim": params.emb_dim,
            "hidden": params.hidden,
            "mlp_hidden": params.mlp_hidden,
            "layers": params.layers,
        },
        "vocab": [[w, params.vocab.count(w)] for w in params.vocab.words],
        "tensors": [[name, list(params.tensors[name].data.shape)] for name in names],
    }
    blob = json.dumps(header, ensure_ascii=True, separators=(",", ":")).encode("utf-8") + b"\n"
    payload = b"".join(
        params.tensors[name].data.astype("<f4").tobytes(order="C") for name in names
    )
    Path(path).write_bytes(blob + payload)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Rebuild ModelParams from a checkpoint; returns (params, header).

    Raises CheckpointCorrupt when the header line is unreadable or lacks an
    entry, when it does not list exactly the tensors, in save order and with
    the shapes, that its dims define, or when the payload does not hold
    exactly their float32 values.
    """
    raw = Path(path).read_bytes()
    try:
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline].decode("utf-8"))
    except ValueError as err:  # no header line, or one that is not UTF-8 JSON
        raise CheckpointCorrupt(f"{path}: unreadable header ({err})") from err
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('format_version')!r}")
    try:
        words = tuple(w for w, _ in header["vocab"])
        counts = {w: int(c) for w, c in header["vocab"] if c}
        dims = {key: header["dims"][key] for key in ("emb_dim", "hidden", "mlp_hidden", "layers")}
        rule, declared = ArcRule(header["arc_rule"]), header["tensors"]
    except KeyError as err:
        raise CheckpointCorrupt(f"{path}: header has no {err} entry") from err
    params = ModelParams(Vocab(words=words, counts=counts), rule, seed=0, **dims)
    names = sorted(params.tensors)
    if declared != [[name, list(params.tensors[name].data.shape)] for name in names]:
        raise CheckpointCorrupt(f"{path}: header tensors do not match the model its dims define")
    expected = 4 * sum(params.tensors[name].data.size for name in names)
    if len(raw) - newline - 1 != expected:
        raise CheckpointCorrupt(
            f"{path}: payload holds {len(raw) - newline - 1} bytes, expected {expected}")
    offset = newline + 1
    for name in names:
        tensor = params.tensors[name]
        values = np.frombuffer(raw, dtype="<f4", count=tensor.data.size, offset=offset)
        offset += tensor.data.size * 4
        tensor.data = values.astype(np.float64).reshape(tensor.data.shape)
    return params, header

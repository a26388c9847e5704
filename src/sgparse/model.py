"""Learned action scorer: embeddings, a two-layer BiLSTM, an MLP over the
configuration feature, hinge training with oracle guidance, greedy parsing,
and a finite-difference gradient check.

The configuration feature concatenates the context vectors of the top three
stack elements and the buffer front, substituting a learned pad vector for
missing slots.  One scorer, `score`, serves greedy parsing and training: it
projects a block of context vectors through the first MLP layer once, and
scores any number of configurations per call, each from four gathered rows.
Greedy parsing (`parse`) decodes a chunk of sentences in lockstep: one
encoder pass and one projection for the chunk, then at each step one `score`
call for every sentence still running, while each sentence looks up its
legal actions and applies its best one on its own.  The parameters are plain
arrays: float64 when drawn, read-only float32 views of one buffer when
loaded from a checkpoint, and every kernel runs in their dtype.  Training
rounds them to float32 once, as a checkpoint does, so it updates and
evaluates the model that it saves; the gradient check runs on drawn float64
ones.  Training and parsing share one BiLSTM-stack forward.  Training
follows the oracle's preferred action and sums the per-step hinge losses
over a sentence.  It trains a batch of `_TRAIN_BATCH` sentences together, on
the same parameters: one forward over the batch, each sentence's steps
scored on its own vectors, then one backward with no tape, the MLP head over
every positive step of the batch and then one lockstep BPTT per LSTM from
the top layer down.  Each weight gradient is one matmul over the batch,
written into gradient arrays that the `Trainer` keeps for an epoch, and one
Adam update follows.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .errors import CheckpointCorrupt, OracleStuck, ParameterNonFinite
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

# Elements per block of the Adam update: with the parameters, both moments,
# the gradient and two scratch buffers, a block's working set is 1.5 MB.
_ADAM_BLOCK = 1 << 15

# Training sentences per Adam update.  A batch runs one forward and one
# backward over all its sentences on the same parameters; its weight
# gradients are one matmul per tensor, and Adam runs once.  At 1 training is
# per-sentence Adam.
_TRAIN_BATCH = 8

# Adam's decay rates for the first and second moments.
_BETA1, _BETA2 = 0.9, 0.999

# The largest parameter magnitude that a checkpoint's float32 payload holds.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


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
    """All learned tensors, as arrays, plus the sizes that tie them; drawn
    here in float64, which the gradient check needs, or read by
    `load_checkpoint` in float32.  `Trainer` rounds drawn ones to float32.

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
        self._set_sizes(vocab, arc_rule, emb_dim, hidden, mlp_hidden, layers)
        rng = np.random.default_rng(seed)

        def xavier(out_dim: int, in_dim: int) -> np.ndarray:
            limit = np.sqrt(6.0 / (in_dim + out_dim))
            return rng.uniform(-limit, limit, size=(out_dim, in_dim))

        self.tensors: dict[str, np.ndarray] = {}
        for name, shape in self._shapes().items():
            if name in ("embeddings", "pad"):
                data = rng.uniform(-0.1, 0.1, size=shape)
            elif len(shape) == 2:
                data = xavier(*shape)
            else:
                data = np.zeros(shape)
                if name.startswith("lstm"):
                    data[hidden: 2 * hidden] = 1.0  # forget-gate bias
            self.tensors[name] = data

    def _set_sizes(self, vocab: Vocab, arc_rule: ArcRule, emb_dim: int, hidden: int,
                   mlp_hidden: int, layers: int) -> None:
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

    def _shapes(self) -> dict[str, tuple[int, ...]]:
        """Every tensor's shape, in the order the initial values are drawn."""
        shapes = {"embeddings": (len(self.vocab), self.emb_dim)}
        for layer in range(self.layers):
            in_dim = self.emb_dim if layer == 0 else self.d_ctx
            for direction in ("fwd", "bwd"):
                shapes[f"lstm{layer}_{direction}_w"] = (_GATES * self.hidden, in_dim + self.hidden)
                shapes[f"lstm{layer}_{direction}_b"] = (_GATES * self.hidden,)
        shapes["pad"] = (self.d_ctx,)
        shapes["mlp_w1"] = (self.mlp_hidden, 4 * self.d_ctx)
        shapes["mlp_b1"] = (self.mlp_hidden,)
        shapes["mlp_w2"] = (len(self.actions), self.mlp_hidden)
        shapes["mlp_b2"] = (len(self.actions),)
        return shapes


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    adam_epsilon: float = 0.01
    epochs: int = 4
    word_dropout_alpha: float = 0.25
    rng_seed: int = 0

    def __post_init__(self):
        rates = (self.learning_rate, self.adam_epsilon, self.word_dropout_alpha)
        if not all(math.isfinite(x) and x > 0 for x in rates) or self.epochs <= 0:
            raise ValueError("all training hyperparameters must be positive and finite")


class Adam:
    """Adaptive-moment optimizer over named tensors.

    Each tensor is updated in place, in blocks of `_ADAM_BLOCK` elements,
    so that its parameters, moments, gradient and the two scratch buffers
    stay in cache while one block goes through every step of the update;
    each step is the same expression, in the same order, as the
    whole-tensor form `p -= lr * m_hat / (sqrt(v_hat) + eps)`.  Parameter
    arrays must be writable and C-contiguous; the moments and scratch take
    their dtype, float32 in training.  A value beyond float32's range counts
    as non-finite, because checkpoints store parameters, and parsing reads
    them, in float32; in float32 that is the finite check.
    """

    def __init__(self, params: Mapping[str, np.ndarray], lr: float, eps: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p) for k, p in self.params.items()}
        dtype = np.result_type(*self.params.values())
        self._scratch = (np.empty(_ADAM_BLOCK, dtype), np.empty(_ADAM_BLOCK, dtype))

    def step(self, grads: Mapping[str, np.ndarray | None]) -> None:
        """One update of every tensor from `grads[name]` (zero when None).

        Raises ParameterNonFinite, naming the tensor, when the update leaves
        one of its values infinite or NaN in float32.
        """
        self.t += 1
        # Each block is checked for non-finite values instead of warning.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for name, p in self.params.items():
                self._update(name, p, grads[name])

    def _update(self, name: str, p: np.ndarray, grad: np.ndarray | None) -> None:
        b1, b2, lr, eps = _BETA1, _BETA2, self.lr, self.eps
        m_scale, v_scale = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        flat_p, flat_m, flat_v = (a.reshape(-1) for a in (p, self.m[name], self.v[name]))
        flat_g = grad.reshape(-1) if grad is not None else None
        for lo in range(0, flat_p.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, flat_p.size)
            pb, m, v = flat_p[lo:hi], flat_m[lo:hi], flat_v[lo:hi]
            g = flat_g[lo:hi] if flat_g is not None else 0.0
            s1, s2 = self._scratch[0][: hi - lo], self._scratch[1][: hi - lo]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=s1)
            np.add(m, s1, out=m)                # m = b1*m + (1-b1)*g
            np.multiply(v, b2, out=v)
            np.square(g, out=s1)
            np.multiply(s1, 1.0 - b2, out=s1)
            np.add(v, s1, out=v)                # v = b2*v + (1-b2)*g^2
            np.divide(m, m_scale, out=s1)
            np.multiply(s1, lr, out=s1)         # lr * m_hat
            np.divide(v, v_scale, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, eps, out=s2)             # sqrt(v_hat) + eps
            np.divide(s1, s2, out=s1)
            np.subtract(pb, s1, out=pb)
            # False for NaN, as a NaN minimum compares false
            if not (-_FLOAT32_MAX <= pb.min() and pb.max() <= _FLOAT32_MAX):
                raise ParameterNonFinite(f"parameter tensor {name!r} became non-finite at "
                                         f"Adam step {self.t} (in float32, as checkpoints hold it)")


def _bilstm_stack(ids: np.ndarray, lengths: np.ndarray, params: ModelParams,
                  saved: list | None = None) -> np.ndarray:
    """The BiLSTM stack that `encode` and `encode_batch` share, over `ids`,
    steps x batch, of sentences with descending `lengths`.  Returns the top
    layer's states, steps x batch x 2H; appends each `ad.lstm` call's saved
    arrays, layer by layer and forward first, to `saved`."""
    tensors = params.tensors

    def states(xs: np.ndarray, name: str, reverse: bool) -> np.ndarray:
        hs, arrays = ad.lstm(xs, lengths, tensors[f"{name}_w"], tensors[f"{name}_b"], reverse)
        if saved is not None:
            saved.append(arrays)
        return hs

    layer_in = tensors["embeddings"][ids]
    for layer in range(params.layers):
        layer_in = np.concatenate([states(layer_in, f"lstm{layer}_{direction}", direction == "bwd")
                                   for direction in ("fwd", "bwd")], axis=2)
    return layer_in


def word_ids(tokens: Sequence[str], params: ModelParams, rng: np.random.Generator | None = None,
             dropout_alpha: float = 0.25) -> np.ndarray:
    """The vocabulary ids of the tokens and of a trailing ROOT.

    Given an rng (training), each occurrence of a word with corpus frequency
    f is replaced by UNK with probability alpha / (alpha + f), one draw per
    token in order.
    """
    ids = [params.vocab.id(w) for w in tokens]
    if rng is not None:
        ids = [0 if rng.random() < dropout_alpha / (dropout_alpha + params.vocab.count(w)) else i
               for w, i in zip(tokens, ids)]
    return np.array(ids + [params.vocab.id(ROOT_WORD)], dtype=np.intp)


def _lockstep_ids(id_lists: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sentences' ids as one steps x batch array, longest first as
    `ad.lstm` takes them, zero past each sentence's end; returns it with
    the descending lengths and each sentence's column."""
    order = sorted(range(len(id_lists)), key=lambda k: -len(id_lists[k]))
    lengths = np.array([len(id_lists[k]) for k in order])
    ids = np.zeros((lengths[0], len(order)), dtype=np.intp)
    for column, k in enumerate(order):
        ids[:lengths[column], column] = id_lists[k]
    return ids, lengths, np.argsort(order)


def encode(id_lists: Sequence[np.ndarray], params: ModelParams) -> tuple[list[np.ndarray], tuple]:
    """The context vectors of a batch of training sentences, from their
    `word_ids`: one len(ids) x 2H array per sentence, in order.

    The sentences run through each layer together (`ad.lstm`); a sentence's
    vectors are a view of one steps x batch x 2H array of states, in the
    column that `_lockstep_ids` gives it.  Also returns what the backward
    reads: that array, the columns, the ids and lengths in the batch's
    layout, and the arrays each LSTM saved.  A batch of one runs each step
    as a GEMV, as parsing never does.
    """
    ids, lengths, columns = _lockstep_ids(id_lists)
    saved: list = []
    states = _bilstm_stack(ids, lengths, params, saved)
    vectors = [states[:len(id_lists[k]), column] for k, column in enumerate(columns)]
    return vectors, (states, columns, ids, lengths, saved)


def _encode_backward(dstates: np.ndarray, ids: np.ndarray, lengths: np.ndarray, saved: list,
                     params: ModelParams, out: Mapping[str, np.ndarray]) -> None:
    """Backpropagate the gradient of `encode`'s states, in its steps x batch
    x 2H layout, through each layer's two LSTMs from the top layer down,
    given the ids, lengths and saved arrays of `encode`'s cache, and write
    the `lstm*` and `embeddings` gradients into `out`; the embedding rows'
    with `np.add.at` at the ids.  Each LSTM's saved arrays are popped from
    `saved` and freed once its gradients are written, so that fewer are
    alive at once."""
    hidden = params.hidden
    for layer in reversed(range(params.layers)):
        dx_bwd = _lstm_gradients(f"lstm{layer}_bwd", dstates[..., hidden:], lengths, saved.pop(),
                                 params, out)
        dx_fwd = _lstm_gradients(f"lstm{layer}_fwd", dstates[..., :hidden], lengths, saved.pop(),
                                 params, out)
        dstates = dx_fwd + dx_bwd
    valid = np.arange(len(ids))[:, None] < lengths
    out["embeddings"].fill(0.0)
    np.add.at(out["embeddings"], ids[valid], dstates[valid])


def _lstm_gradients(name: str, dhs: np.ndarray, lengths: np.ndarray, saved: tuple,
                    params: ModelParams, out: Mapping[str, np.ndarray]) -> np.ndarray:
    """One LSTM's backward over the whole batch, in one lockstep BPTT
    (`ad.lstm_backward`), given its states' gradient and its saved arrays.
    Writes its weight gradient into `out`, as one matmul of the batch's
    pre-activation gradients and saved `[x; h]` rows, and its bias's, as
    their sum; returns its inputs' gradient."""
    dpre, dxs = ad.lstm_backward(dhs, lengths, params.tensors[f"{name}_w"], saved,
                                 name.endswith("bwd"))
    dpre, z = dpre.reshape(-1, dpre.shape[2]), saved[0].reshape(-1, saved[0].shape[2])
    np.matmul(dpre.T, z, out=out[f"{name}_w"])
    dpre.sum(axis=0, out=out[f"{name}_b"])
    return dxs


def encode_batch(token_lists: Sequence[Sequence[str]], params: ModelParams) -> list[np.ndarray]:
    """The context vectors of several sentences, for parsing: one
    (len(tokens) + 1) x 2H array per sentence in the parameters' dtype; in
    float64 they are the vectors of `encode` to 1e-12.

    The sentences run through each layer together (`ad.lstm`) on the
    calling thread, each LSTM step one small GEMM per row block of the
    weights, summed in another order than one sentence's GEMV; a sentence's
    vectors are bit for bit the same in every batch of two or more.
    """
    if not token_lists:
        return []
    ids, lengths, columns = _lockstep_ids([word_ids(tokens, params) for tokens in token_lists])
    states = _bilstm_stack(ids, lengths, params)
    return [np.ascontiguousarray(states[:lengths[column], column]) for column in columns]


def score(vectors: np.ndarray, params: ModelParams):
    """The action scorer of a block of context vectors, the rows of one
    array, which greedy parsing (a chunk of sentences) and training (one
    sentence) share.

    Returns `step(slots)`, which takes any number of configurations' four
    feature slots, as rows of `[vectors; pad]` (`_slots` gives them), and
    gives their MLP hidden layers and per-action scores, `w2 @ hidden +
    b2`, one row per configuration.  The slots are the top three stack
    elements and the buffer front, so the learned pad vector fills missing
    stack slots.  `mlp_w1` splits into four `mlp_hidden x 2H` blocks, one
    per slot; each block is applied to every row once, so a step adds four
    precomputed rows instead of multiplying the concatenated slots by
    `mlp_w1`.
    """
    d = params.d_ctx
    w1, b1 = params.tensors["mlp_w1"], params.tensors["mlp_b1"]
    w2, b2 = params.tensors["mlp_w2"], params.tensors["mlp_b2"]
    rows = np.concatenate([vectors, params.tensors["pad"][None]])
    blocks = w1.reshape(len(w1), 4, d).transpose(1, 2, 0)   # slot k's block, transposed
    # Four rows per product: OpenBLAS runs products that small on the calling
    # thread, so parsing never wakes its second thread.  One matmul makes
    # every product of four rows and one block.  The rows left over make a
    # product of their own: a lone row's is a GEMV, which rounds otherwise
    # than a row padded into a block, and training's scores keep their bits.
    full = len(rows) - len(rows) % 4
    fours = np.matmul(rows[:full].reshape(-1, 1, 4, d), blocks)
    projected = np.concatenate([fours.transpose(1, 0, 2, 3).reshape(4, full, len(w1)),
                                rows[full:] @ blocks], axis=1)
    slot = np.arange(4)

    def step(slots: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
        # one gather; the sum adds the four slot rows in slot order
        hidden = np.tanh(projected[slot, np.array(slots, dtype=np.intp)].sum(axis=1) + b1)
        return hidden, hidden @ w2.T + b2

    return step


def _slots(c: Configuration, first: int, pad: int) -> list[int]:
    """Configuration c's four feature slots, the top three stack elements
    and the buffer front, as rows of a block whose row `first` holds its
    sentence's first token and whose row `pad` the pad vector."""
    top = [pad] * 3 + [first + token - 1 for token in c.stack[-3:]]
    return [top[-3], top[-2], top[-1], first + c.buffer[0] - 1]


def step_loss(
    scores: np.ndarray,
    y_plus: frozenset[Action],
    legal: frozenset[Action],
    action_index: Mapping[Action, int],
) -> tuple[float, tuple[int, int] | None]:
    """Hinge loss of one step from its score row; returns the value and, when
    it is positive, the indices of the best incorrect and the best correct
    action, whose score difference it is, up to the margin.

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
    margin = 2.0 if y_plus == frozenset({REDUCE}) else 1.0
    best_wrong = max(sorted(action_index[a] for a in wrong), key=lambda i: scores[i])
    best_correct = max(sorted(action_index[a] for a in y_plus), key=lambda i: scores[i])
    value = margin - scores[best_correct] + scores[best_wrong]
    if value <= 0.0:
        return 0.0, None
    return float(value), (best_wrong, best_correct)


def _head_backward(rows: np.ndarray, slots: np.ndarray, hidden: np.ndarray,
                   pairs: np.ndarray, params: ModelParams, out: Mapping[str, np.ndarray]
                   ) -> np.ndarray:
    """Backpropagate the summed hinge loss of some positive steps through
    the MLP head, write the `mlp_*` gradients into `out`, and return the
    gradient of `rows`, the context vectors and the pad vector last,
    written over `rows` once the `mlp_w1` gradient has read them.

    Positive step k read the rows `slots[k]`, had the hidden layer
    `hidden[k]`, and its loss is its score of action `pairs[k, 0]` minus its
    score of `pairs[k, 1]`, plus the margin.  Each slot's gradient is summed
    per row with `np.add.at` before it is multiplied out, so `mlp_w1`'s
    block k is `dproj_k.T @ rows`.
    """
    w1, w2 = params.tensors["mlp_w1"], params.tensors["mlp_w2"]
    d = params.d_ctx
    dscores = np.zeros((len(pairs), w2.shape[0]), w2.dtype)
    steps = np.arange(len(pairs))
    dscores[steps, pairs[:, 0]] = 1.0
    dscores[steps, pairs[:, 1]] = -1.0
    dpre = (dscores @ w2) * (1.0 - hidden * hidden)
    dprojs = [np.zeros((len(rows), dpre.shape[1]), dpre.dtype) for _ in range(4)]
    for k, dproj in enumerate(dprojs):
        np.add.at(dproj, slots[:, k], dpre)
        np.matmul(dproj.T, rows, out=out["mlp_w1"][:, k * d: (k + 1) * d])
    drows = np.matmul(dprojs[0], w1[:, :d], out=rows)
    for k in range(1, 4):
        drows += dprojs[k] @ w1[:, k * d: (k + 1) * d]
    dpre.sum(axis=0, out=out["mlp_b1"])
    np.matmul(dscores.T, hidden, out=out["mlp_w2"])
    dscores.sum(axis=0, out=out["mlp_b2"])
    return drows


def _oracle_walk(tokens: Sequence[str], gold: ArcSet, reduce_set: frozenset[int],
                 rule: ArcRule) -> list[tuple[Configuration, frozenset[Action], frozenset[Action]]]:
    """The configurations that the oracle's preferred actions pass through,
    from the initial one to the last before the terminal one, each with its
    zero-cost and its legal actions.  Raises OracleStuck when the gold arcs
    are unreachable.  None of it depends on the parameters."""
    c = initial(len(tokens))
    walk = []
    while not is_terminal(c):
        y_plus = oracle(c, gold, reduce_set)
        walk.append((c, y_plus, legal_actions(c, rule)))
        c = apply(c, preferred(y_plus))
    return walk


def _walk_losses(walks: Sequence[list], vectors: Sequence[np.ndarray], columns: np.ndarray,
                 width: int, params: ModelParams
                 ) -> tuple[list[float], np.ndarray, np.ndarray, np.ndarray]:
    """Each sentence's oracle walk scored with `score` on its own vectors:
    returns each sentence's summed hinge loss and, for every positive step
    of the batch, its slots, as rows of the batch's states (step times
    `width` plus the sentence's column, and the pad row after them all),
    its hidden layer and its action pair, as `_head_backward` takes them."""
    pad = max(len(sentence) for sentence in vectors) * width
    losses, slots, hidden, pairs = [], [], [], []
    for walk, sentence, column in zip(walks, vectors, columns):
        scores = score(sentence, params)
        total = 0.0
        for c, y_plus, legal in walk:
            step_slots = _slots(c, 0, len(sentence))
            (step_hidden,), (row,) = scores([step_slots])
            value, pair = step_loss(row, y_plus, legal, params.action_index)
            total += value
            if pair is not None:
                slots.append([pad if s == len(sentence) else s * width + column
                              for s in step_slots])
                hidden.append(step_hidden)
                pairs.append(pair)
        losses.append(total)
    return losses, np.array(slots), np.array(hidden), np.array(pairs)


class GradientBatch:
    """Up to `size` training sentences, queued with their word ids and
    oracle walks, and the gradient arrays, one per tensor in its dtype, into
    which `run` writes their summed gradients.  The arrays are made once,
    with the batch.

    `run` trains the queued sentences together on the parameters as they
    are: one `encode` over the batch; each sentence's walk scored with
    `score` on its own vectors, summing its per-step hinge losses; then one
    head backward over every positive step of the batch, whose rows are the
    encoder's states and one pad row, and one lockstep encoder backward
    (`_encode_backward`).  Each weight gradient is one matmul over the whole
    batch.  A batch of one makes the products of one sentence's backward.
    """

    def __init__(self, params: ModelParams, size: int):
        self.params = params
        self.size = size
        self.arrays = {name: np.empty_like(t) for name, t in params.tensors.items()}
        self._queued: list[tuple[np.ndarray, list]] = []

    @property
    def sentences(self) -> int:
        return len(self._queued)

    def add(self, tokens: Sequence[str], gold: ArcSet, reduce_set: frozenset[int],
            rng: np.random.Generator | None = None, dropout_alpha: float = 0.25) -> None:
        """Queue one sentence: draw its `word_ids`, then walk its oracle
        path.  A sentence whose oracle is stuck raises OracleStuck after its
        draws, so the rng stream does not depend on it, and is not queued."""
        ids = word_ids(tokens, self.params, rng, dropout_alpha)
        self._queued.append((ids, _oracle_walk(tokens, gold, reduce_set, self.params.arc_rule)))

    def run(self) -> tuple[list[float], dict[str, np.ndarray | None]]:
        """Train the queued sentences and empty the batch.  Returns each
        sentence's summed loss, in order, and the arrays holding the batch's
        summed gradients, every element written, or all None when no step's
        loss is positive.  The parameter arrays are left unchanged."""
        queued, self._queued = self._queued, []
        params = self.params
        vectors, (states, columns, ids, lengths, saved) = encode(
            [sentence_ids for sentence_ids, _ in queued], params)
        losses, slots, hidden, pairs = _walk_losses([walk for _, walk in queued], vectors,
                                                    columns, states.shape[1], params)
        if not len(pairs):
            return losses, dict.fromkeys(self.arrays)
        shape = states.shape
        rows = np.concatenate([states.reshape(-1, shape[2]), params.tensors["pad"][None]])
        # `rows` is the states' only copy left, and the head's backward
        # writes their gradient over it, so fewer arrays are alive in the
        # backward
        del vectors, states
        drows = _head_backward(rows, slots, hidden, pairs, params, self.arrays)
        self.arrays["pad"][...] = drows[-1]
        _encode_backward(drows[:-1].reshape(shape), ids, lengths, saved, params, self.arrays)
        return losses, self.arrays


def accumulate_gradients(
    tokens: Sequence[str],
    gold: ArcSet,
    reduce_set: frozenset[int],
    params: ModelParams,
    rng: np.random.Generator | None = None,
    dropout_alpha: float = 0.25,
) -> tuple[float, dict[str, np.ndarray | None]]:
    """One sentence's summed loss and gradients, as a `GradientBatch` of one
    in fresh arrays; the gradients are all None when no step's loss is
    positive.  The parameter arrays are left unchanged.  A sentence whose
    oracle is stuck raises OracleStuck.
    """
    batch = GradientBatch(params, 1)
    batch.add(tokens, gold, reduce_set, rng, dropout_alpha)
    (total,), grads = batch.run()
    return total, grads


class Trainer:
    """Single-writer training loop: one Adam update per `_TRAIN_BATCH`
    counted sentences.

    The parameters are replaced by their float32 copies when the trainer is
    made, the rounding that `save_checkpoint` applies; every array that
    training makes then takes their dtype, so a saved checkpoint holds the
    bytes that training evaluated.

    Each `train_sentence` call queues its sentence in the batch, after its
    word-dropout draws; a sentence whose oracle is stuck is skipped and not
    counted.  The call of the sentence that fills the batch, or of the last
    sentence that `run_epoch` counts, trains the batch (`GradientBatch.run`)
    on the parameters as they are, and makes the update, so every update
    falls inside a `train_sentence` call.  The gradient arrays are made by
    the first `train_sentence` and dropped at the end of `run_epoch`, so
    they are not alive through what follows an epoch, such as `sgparse
    train`'s per-epoch eval and checkpoint save.
    """

    def __init__(self, params: ModelParams, config: TrainConfig | None = None):
        params.tensors.update({name: t.astype(np.float32) for name, t in params.tensors.items()})
        self.params = params
        self.config = config or TrainConfig()
        self.optimizer = Adam(
            params.tensors,
            lr=self.config.learning_rate,
            eps=self.config.adam_epsilon,
        )
        self.rng = np.random.default_rng(self.config.rng_seed)
        self.skipped = 0
        self._grads: GradientBatch | None = None
        self._ends_epoch = False   # set by `run_epoch` for its last counted sentence

    def train_sentence(self, tokens: Sequence[str], gold: ArcSet,
                       reduce_set: frozenset[int]) -> list[float]:
        """Queue one sentence, and train its batch and update when it fills
        the batch or ends the epoch; returns the losses of the batch's
        sentences, in order, when this call trained it, else []."""
        if self._grads is None:
            self._grads = GradientBatch(self.params, _TRAIN_BATCH)
        batch = self._grads
        batch.add(tokens, gold, reduce_set, self.rng, self.config.word_dropout_alpha)
        if batch.sentences < batch.size and not self._ends_epoch:
            return []
        # Overflow here can only come from parameters that are already huge;
        # the update's finite check then names the tensor instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = batch.run()
        self.optimizer.step(grads)
        return losses

    def run_epoch(self, instances: Iterable[tuple[Sequence[str], ArcSet, frozenset[int]]]) -> float:
        """Train over the instances in order; returns the mean sentence loss.

        Instances whose gold arcs are unreachable are skipped and counted.
        Whether an oracle is stuck does not depend on the parameters, so the
        epoch's last counted sentence is known before it is queued, and its
        call trains the part-full batch that it ends.  A ParameterNonFinite
        from an update is raised again with the position in the epoch of its
        batch's last sentence added.
        """
        instances = list(instances)
        last = len(instances)
        while last and _is_stuck(*instances[last - 1], self.params.arc_rule):
            last -= 1
        losses = []
        try:
            for position, (tokens, gold, reduce_set) in enumerate(instances, 1):
                self._ends_epoch = position == last
                try:
                    with _named_update(position, tokens):
                        losses += self.train_sentence(tokens, gold, reduce_set)
                except OracleStuck:
                    self.skipped += 1
        finally:
            self._grads, self._ends_epoch = None, False
        return float(np.mean(losses)) if losses else 0.0


def _is_stuck(tokens: Sequence[str], gold: ArcSet, reduce_set: frozenset[int],
              rule: ArcRule) -> bool:
    """Whether `GradientBatch.add` raises OracleStuck for the sentence: the
    same `_oracle_walk` decides both."""
    try:
        _oracle_walk(tokens, gold, reduce_set, rule)
    except OracleStuck:
        return True
    return False


@contextmanager
def _named_update(position: int, tokens: Sequence[str]):
    """Raise a ParameterNonFinite again with the training sentence that
    the update followed."""
    try:
        yield
    except ParameterNonFinite as err:
        raise ParameterNonFinite(f"{err}, after training sentence {position} "
                                 f"of the epoch ({' '.join(tokens)!r})") from err


def parse(token_lists: Sequence[Sequence[str]], params: ModelParams
          ) -> list[tuple[ArcSet, list[Action]]]:
    """Greedy decoding of a chunk of sentences in lockstep, restricted to
    legal actions; deterministic given params.  Returns each sentence's arcs
    and actions, in order.

    The chunk is encoded in one `encode_batch` pass, and its vectors, one
    block of rows, are projected once (`score`).  Each step then scores
    every sentence still running in one `score` step, and each takes its
    best legal action, the lowest index among equal scores.  Scores are
    compared as Python floats, which hold float32 and float64 values
    exactly.
    """
    vectors = encode_batch(token_lists, params)
    if not vectors:
        return []
    firsts = np.cumsum([0] + [len(v) for v in vectors]).tolist()   # each sentence's first row
    scores = score(np.concatenate(vectors), params)
    pad, choices, rule = firsts[-1], params.actions, params.arc_rule
    configs = [initial(len(tokens)) for tokens in token_lists]
    taken: list[list[Action]] = [[] for _ in token_lists]
    legal_indices: dict[frozenset[Action], list[int]] = {}   # in scorer order
    running = [k for k, c in enumerate(configs) if not is_terminal(c)]
    while running:
        _, rows = scores([_slots(configs[k], firsts[k], pad) for k in running])
        for k, row in zip(running, rows.tolist()):
            legal = legal_actions(configs[k], rule)
            indices = legal_indices.get(legal)
            if indices is None:
                indices = legal_indices[legal] = [i for i, a in enumerate(choices) if a in legal]
            a = choices[max(indices, key=row.__getitem__)]
            taken[k].append(a)
            configs[k] = apply(configs[k], a)
        running = [k for k in running if not is_terminal(configs[k])]
    return [(c.arc_set(), actions) for c, actions in zip(configs, taken)]


def greedy_parse(tokens: Sequence[str], params: ModelParams) -> tuple[ArcSet, list[Action]]:
    """`parse` of one sentence: its arcs and actions."""
    return parse([tokens], params)[0]


def _loss_value_plain(
    tokens: Sequence[str], gold: ArcSet, reduce_set: frozenset[int], params: ModelParams
) -> float:
    """Tape-free recomputation of the summed sentence loss.

    Written directly in numpy so the finite-difference side of the gradient
    check does not share code with the backpropagation tape.
    """

    def sigmoid(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)

    ids = [params.vocab.id(w) for w in tokens] + [params.vocab.id(ROOT_WORD)]
    layer_in = [params.tensors["embeddings"][i] for i in ids]
    hidden = params.hidden
    for layer in range(params.layers):
        outs = {}
        for direction, seq in (("fwd", layer_in), ("bwd", list(reversed(layer_in)))):
            w = params.tensors[f"lstm{layer}_{direction}_w"]
            b = params.tensors[f"lstm{layer}_{direction}_b"]
            h = np.zeros(hidden)
            c = np.zeros(hidden)
            collected = []
            for x in seq:
                pre = w @ np.concatenate([x, h]) + b
                ifo = sigmoid(pre[:3 * hidden])
                g_g = np.tanh(pre[3 * hidden:])
                c = ifo[hidden: 2 * hidden] * c + ifo[:hidden] * g_g
                h = ifo[2 * hidden:] * np.tanh(c)
                collected.append(h)
            outs[direction] = collected
        outs["bwd"].reverse()
        layer_in = [np.concatenate([f, b]) for f, b in zip(outs["fwd"], outs["bwd"])]

    pad = params.tensors["pad"]
    w1, b1 = params.tensors["mlp_w1"], params.tensors["mlp_b1"]
    w2, b2 = params.tensors["mlp_w2"], params.tensors["mlp_b2"]
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
    verifying that the check catches corruption.  An error that is NaN
    counts as infinite, so a NaN gradient fails the check.  The parameters
    must be float64, as `ModelParams` draws them: in float32, as a `Trainer`
    leaves them, the differences would measure rounding, so that raises
    ValueError.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"gradient check step must be finite and positive, not {step}")
    for name, t in params.tensors.items():
        if t.dtype != np.float64:
            raise ValueError(f"gradient check needs float64 parameters, and tensor {name!r} "
                             f"is {t.dtype}; a step of {step} would measure its rounding")
    tokens, gold, reduce_set = instance

    def loss_value() -> float:
        return _loss_value_plain(tokens, gold, reduce_set, params)

    _, grads = accumulate_gradients(tokens, gold, reduce_set, params)
    analytic = {name: np.zeros(t.size) if grads[name] is None else grads[name].reshape(-1)
                for name, t in params.tensors.items()}
    if negate_grad_of is not None:
        name, index = negate_grad_of
        analytic[name][index] *= -1.0

    def central(flat, j, h) -> float:
        saved = flat[j]
        flat[j] = saved + h
        up = loss_value()
        flat[j] = saved - h
        down = loss_value()
        flat[j] = saved
        return (up - down) / (2.0 * h)

    def rel_err(a: float, b: float) -> float:
        err = abs(a - b) / max(1.0, abs(a), abs(b))
        return math.inf if math.isnan(err) else err

    worst = 0.0
    for name, t in params.tensors.items():
        flat = t.reshape(-1)
        ga = analytic[name]
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
    order.

    The header is written first, then each tensor's float32 copy in turn, so
    that one tensor's copy at a time is alive beside the parameters.
    """
    names = sorted(params.tensors)
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
        "tensors": [[name, list(params.tensors[name].shape)] for name in names],
    }
    with open(path, "wb") as sink:
        sink.write(json.dumps(header, ensure_ascii=True, separators=(",", ":")).encode("utf-8"))
        sink.write(b"\n")
        for name in names:
            sink.write(np.ascontiguousarray(params.tensors[name], dtype="<f4"))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Rebuild ModelParams from a checkpoint; returns (params, header).

    The payload is read into one aligned float32 buffer, and each tensor is
    a read-only view of it, for parsing.  Raises CheckpointCorrupt when the
    header line is unreadable, is not a JSON object, names another format
    version, or lacks or garbles an entry, when a dim is not a positive
    integer, when it does not list exactly the tensors, in save order and
    with the shapes, that its dims define, when the payload does not hold
    exactly their float32 values, or when a value is infinite or NaN; that
    error names the first such tensor in save order.
    """
    with open(path, "rb") as source:
        line = source.readline()
        try:
            if not line.endswith(b"\n"):
                raise ValueError("no line end")
            header = json.loads(line.decode("utf-8"))
        except ValueError as err:  # no header line, or one that is not UTF-8 JSON
            raise CheckpointCorrupt(f"{path}: unreadable header ({err})") from err
        if not isinstance(header, dict):
            raise CheckpointCorrupt(f"{path}: header is not a JSON object")
        version = header.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointCorrupt(f"{path}: unsupported checkpoint version {version!r}")

        def entry(key: str, read):
            try:
                return read(header[key])
            except KeyError as err:
                raise CheckpointCorrupt(f"{path}: header has no {err} entry") from err
            except (TypeError, ValueError) as err:
                raise CheckpointCorrupt(
                    f"{path}: header entry {key!r} is malformed ({err})") from err

        vocab = entry("vocab", lambda pairs: Vocab(words=tuple(w for w, _ in pairs),
                                                   counts={w: int(c) for w, c in pairs if c}))
        dim_keys = ("emb_dim", "hidden", "mlp_hidden", "layers")
        dims = entry("dims", lambda d: {key: d[key] for key in dim_keys})
        rule, declared = entry("arc_rule", ArcRule), entry("tensors", list)
        for key, value in dims.items():
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise CheckpointCorrupt(
                    f"{path}: header dim {key!r} is {value!r}, not a positive integer")
        # The tensors are read from the payload, so none are drawn at random.
        params = ModelParams.__new__(ModelParams)
        params._set_sizes(vocab, rule, **dims)
        shapes = params._shapes()
        names = sorted(shapes)
        if declared != [[name, list(shapes[name])] for name in names]:
            raise CheckpointCorrupt(
                f"{path}: header tensors do not match the model its dims define")
        sizes = [math.prod(shapes[name]) for name in names]
        expected = 4 * sum(sizes)
        # checked before the buffer is made, as a header can ask for any size
        held = os.fstat(source.fileno()).st_size - source.tell()
        if held == expected:
            payload = np.empty(sum(sizes), "<f4")
            held = source.readinto(payload)
        if held != expected:
            raise CheckpointCorrupt(f"{path}: payload holds {held} bytes, expected {expected}")
    payload.flags.writeable = False
    views = dict(zip(names, np.split(payload, np.cumsum(sizes)[:-1])))
    for name in names:
        if not np.isfinite(views[name]).all():
            raise CheckpointCorrupt(f"{path}: tensor {name!r} holds an infinite or NaN value")
    params.tensors = {name: views[name].reshape(shape) for name, shape in shapes.items()}
    return params, header

"""Learned action scorer: embeddings, a two-layer BiLSTM, an MLP over the
configuration feature, hinge training with oracle guidance, greedy parsing,
and a finite-difference gradient check.

The configuration feature concatenates the context vectors of the top three
stack elements and the buffer front, substituting a learned pad vector for
missing slots.  One scorer, `score`, serves greedy parsing and training: it
projects every context vector through the first MLP layer once per sentence,
so a step adds four rows.  The parameters are plain arrays: float64 when
drawn, read-only float32 views of one buffer when loaded from a checkpoint,
and every kernel runs in their dtype.  Training rounds them to float32 once,
as a checkpoint does, so it updates and evaluates the model that it saves;
the gradient check runs on drawn float64 ones.  Training and parsing share
one BiLSTM-stack forward.  Training follows the oracle's preferred action,
sums the per-step hinge losses over a sentence, and runs that sum's backward
itself, the MLP head first and then the layers from the top down, with no
tape.  A sentence's backward stops short of the weights: it keeps the
factors of each weight gradient, and a batch of `_TRAIN_BATCH` sentences
writes its gradients with one matmul per tensor over the factors' stacked
rows, into gradient arrays that the `Trainer` keeps for an epoch, then
applies one Adam update from them.
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

# Training sentences per Adam update.  Each batch runs forward and backward
# sentence by sentence on the same parameters; its weight gradients are one
# matmul per tensor, and Adam runs once.  At 1 training is per-sentence Adam.
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
    layer's states, steps x batch x 2H; appends the arrays that each
    `ad.lstm` call saves, layer by layer and forward first, to `saved`."""
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


def encode(
    tokens: Sequence[str],
    params: ModelParams,
    rng: np.random.Generator | None = None,
    dropout_alpha: float = 0.25,
) -> tuple[np.ndarray, tuple[np.ndarray, list]]:
    """Context vectors for each token plus a trailing one for ROOT, as the
    rows of one (len(tokens) + 1) x 2H array, for training; also returns
    what `_encode_backward` reads, the ids and the arrays each LSTM saved.

    Given an rng (training), each occurrence of a word with corpus frequency
    f is replaced by UNK with probability alpha / (alpha + f).
    """
    ids = [params.vocab.id(w) for w in tokens]
    if rng is not None:
        ids = [0 if rng.random() < dropout_alpha / (dropout_alpha + params.vocab.count(w)) else i
               for w, i in zip(tokens, ids)]
    ids = np.array(ids + [params.vocab.id(ROOT_WORD)], dtype=np.intp)
    saved: list = []
    vectors = _bilstm_stack(ids[:, None], np.array([len(ids)]), params, saved)
    return vectors[:, 0], (ids, saved)


def _encode_backward(dvectors: np.ndarray, cache: tuple[np.ndarray, list],
                     params: ModelParams) -> dict[str, tuple[np.ndarray, ...]]:
    """Backpropagate the gradient of `encode`'s vectors through each layer's
    two LSTMs, from the top layer down, to the embedding rows.  Returns the
    factors of the `lstm*` and `embeddings` gradients (see `GradientBatch`):
    per LSTM its pre-activation gradients and saved `[x; h]` rows, and the
    ids with their rows' gradients."""
    ids, saved = cache
    tensors, hidden = params.tensors, params.hidden
    factors = {}
    for layer in reversed(range(params.layers)):
        dxs = []
        for k, direction in enumerate(("fwd", "bwd")):
            name = f"lstm{layer}_{direction}"
            dhs = dvectors[:, :hidden] if k == 0 else dvectors[::-1, hidden:]
            arrays = [a[:, 0] for a in saved[2 * layer + k]]
            dpre, dx = ad._lstm_backward(dhs, tensors[f"{name}_w"], arrays, hidden)
            factors[f"{name}_w"], factors[f"{name}_b"] = (dpre, arrays[0]), (dpre,)
            dxs.append(dx)
        dvectors = dxs[0] + dxs[1][::-1]
    factors["embeddings"] = (ids, dvectors)
    return factors


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
    order = sorted(range(len(token_lists)), key=lambda i: -len(token_lists[i]))
    lengths = np.array([len(token_lists[i]) + 1 for i in order])
    ids = np.zeros((lengths[0], len(order)), dtype=np.intp)
    for k, i in enumerate(order):
        ids[:lengths[k], k] = [params.vocab.id(w) for w in token_lists[i]] + [
            params.vocab.id(ROOT_WORD)]
    states = _bilstm_stack(ids, lengths, params)
    return [np.ascontiguousarray(states[:lengths[k], k]) for k in np.argsort(order)]


def score(vectors: np.ndarray, params: ModelParams):
    """The action scorer of one sentence, which greedy parsing and training
    share, given the context vectors as the rows of one array.

    Returns `step(c)`, which gives configuration c's four feature slots, its
    MLP hidden layer and its per-action scores, `w2 @ hidden + b2`.  The
    slots are the top three stack elements and the buffer front, as rows of
    `[vectors; pad]`, so the learned pad vector fills missing stack slots.
    `mlp_w1` splits into four `mlp_hidden x 2H` blocks, one per slot; each
    block is applied to every row once, so a step adds four precomputed rows
    instead of multiplying the concatenated slots by `mlp_w1`.
    """
    d = params.d_ctx
    w1, b1 = params.tensors["mlp_w1"], params.tensors["mlp_b1"]
    w2, b2 = params.tensors["mlp_w2"], params.tensors["mlp_b2"]
    rows = np.concatenate([vectors, params.tensors["pad"][None]])
    pad = len(vectors)
    # Four rows per product: OpenBLAS runs products that small on the calling
    # thread, so parsing never wakes its second thread.
    p0, p1, p2, p3 = (
        np.concatenate([rows[i: i + 4] @ w1[:, k * d: (k + 1) * d].T
                        for i in range(0, len(rows), 4)])
        for k in range(4)
    )

    def step(c: Configuration) -> tuple[tuple[int, int, int, int], np.ndarray, np.ndarray]:
        top = [pad] * 3 + [token - 1 for token in c.stack[-3:]]
        slots = (top[-3], top[-2], top[-1], c.buffer[0] - 1)
        hidden = np.tanh(p0[slots[0]] + p1[slots[1]] + p2[slots[2]] + p3[slots[3]] + b1)
        return slots, hidden, w2 @ hidden + b2

    return step


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


def _head_backward(vectors: np.ndarray, slots: np.ndarray, hidden: np.ndarray,
                   pairs: np.ndarray, params: ModelParams
                   ) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, ...]]]:
    """Backpropagate a sentence's summed hinge loss through the MLP head;
    returns the gradient of the rows of `[vectors; pad]` and the factors of
    the `mlp_*` gradients (see `GradientBatch`).

    Positive step k read the rows `slots[k]`, had the hidden layer
    `hidden[k]`, and its loss is its score of action `pairs[k, 0]` minus its
    score of `pairs[k, 1]`, plus the margin.  Each slot's gradient is summed
    per row with `np.add.at` before it is multiplied out, so `mlp_w1`'s
    block k is `dproj_k.T @ rows`.
    """
    w1, w2 = params.tensors["mlp_w1"], params.tensors["mlp_w2"]
    d = params.d_ctx
    rows = np.concatenate([vectors, params.tensors["pad"][None]])
    dscores = np.zeros((len(pairs), w2.shape[0]), w2.dtype)
    steps = np.arange(len(pairs))
    dscores[steps, pairs[:, 0]] = 1.0
    dscores[steps, pairs[:, 1]] = -1.0
    dpre = (dscores @ w2) * (1.0 - hidden * hidden)
    drows = np.zeros_like(rows)
    dprojs = []
    for k in range(4):
        dproj = np.zeros((len(rows), dpre.shape[1]), dpre.dtype)
        np.add.at(dproj, slots[:, k], dpre)
        drows += dproj @ w1[:, k * d: (k + 1) * d]
        dprojs.append(dproj)
    factors = {"mlp_w1": (*dprojs, rows), "mlp_b1": (dpre,), "mlp_w2": (dscores, hidden),
               "mlp_b2": (dscores,)}
    return drows, factors


def sentence_pass(
    tokens: Sequence[str],
    gold: ArcSet,
    reduce_set: frozenset[int],
    params: ModelParams,
    rng: np.random.Generator | None = None,
    dropout_alpha: float = 0.25,
) -> tuple[float, tuple | None]:
    """Oracle-guided forward pass over one sentence.

    Follows the deterministic preferred gold action at every step and
    scores each step with `score`; returns the summed hinge loss and what
    the backward reads: `encode`'s output and each positive step's slots,
    hidden layer and action pair, or None when no step's loss is positive.
    """
    vectors, cache = encode(tokens, params, rng=rng, dropout_alpha=dropout_alpha)
    scores = score(vectors, params)
    c = initial(len(tokens))
    total = 0.0
    slots, hidden, pairs = [], [], []
    while not is_terminal(c):
        y_plus = oracle(c, gold, reduce_set)
        legal = legal_actions(c, params.arc_rule)
        step_slots, step_hidden, row = scores(c)
        value, pair = step_loss(row, y_plus, legal, params.action_index)
        total += value
        if pair is not None:
            slots.append(step_slots)
            hidden.append(step_hidden)
            pairs.append(pair)
        c = apply(c, preferred(y_plus))
    if not pairs:
        return total, None
    return total, (vectors, cache, np.array(slots), np.array(hidden), np.array(pairs))


class GradientBatch:
    """The training sentences of one batch, up to `size`, and the gradient
    arrays, one per tensor in its dtype, into which their summed gradients
    are written.

    Each sentence adds the factors of its weight gradients, as its backward
    leaves them: per tensor, the arrays whose rows the sentence contributes.
    `gradients` stacks every sentence's rows and writes each tensor once:
    `a.T @ b` for a pair `(a, b)` (LSTM weights, `mlp_w2`), one such product
    per block of `mlp_w1` from `(dproj_0, ..., dproj_3, rows)`, a sum over
    rows for a bias or `pad`, and `np.add.at` of the rows into the ids'
    embeddings.  For one sentence each product is its own backward's, on the
    same rows.  The arrays are made once, with the batch.
    """

    def __init__(self, params: ModelParams, size: int):
        self.size = size
        self.sentences = 0
        self.arrays = {name: np.empty_like(t) for name, t in params.tensors.items()}
        self._factors: list[dict[str, tuple[np.ndarray, ...]]] = []

    def add(self, factors: dict[str, tuple[np.ndarray, ...]] | None) -> None:
        """Count one sentence, with its factors, or None when no step of it
        had a positive loss."""
        self.sentences += 1
        if factors is not None:
            self._factors.append(factors)

    def gradients(self) -> dict[str, np.ndarray | None]:
        """Write the batch's summed gradients, every element of every array,
        and empty the batch; returns the arrays, or all None when no
        sentence had a positive loss."""
        batch, self._factors, self.sentences = self._factors, [], 0
        if not batch:
            return dict.fromkeys(self.arrays)
        for name, out in self.arrays.items():
            # a tensor's factors are dropped as soon as it is written, so
            # that fewer of them are alive beside the arrays
            _write_gradient(name, out, [np.concatenate(rows)
                                        for rows in zip(*(f.pop(name) for f in batch))])
        return self.arrays


def _write_gradient(name: str, out: np.ndarray, stacked: list[np.ndarray]) -> None:
    """Write one tensor's gradient into `out` from its factors' stacked rows
    (see `GradientBatch`)."""
    if name == "embeddings":
        out.fill(0.0)
        np.add.at(out, *stacked)
    elif name == "mlp_w1":
        *dprojs, rows = stacked
        d = rows.shape[1]
        for k, dproj in enumerate(dprojs):
            np.matmul(dproj.T, rows, out=out[:, k * d: (k + 1) * d])
    elif len(stacked) == 2:
        np.matmul(stacked[0].T, stacked[1], out=out)
    else:
        stacked[0].sum(axis=0, out=out)


def accumulate_gradients(
    tokens: Sequence[str],
    gold: ArcSet,
    reduce_set: frozenset[int],
    params: ModelParams,
    rng: np.random.Generator | None = None,
    dropout_alpha: float = 0.25,
    batch: GradientBatch | None = None,
) -> tuple[float, dict[str, np.ndarray | None] | None]:
    """Run one sentence's `sentence_pass` and its loss's backward, the MLP
    head then the encoder, and add it to `batch`.  Returns the summed loss
    and, when the sentence fills the batch, the batch's gradients
    (`GradientBatch.gradients`) in the parameters' dtype, else None.

    Without `batch` the sentence is a batch of one in fresh arrays, so it
    returns that sentence's gradients, all None when no step's loss is
    positive.  The parameter arrays are left unchanged.  A sentence whose
    oracle is stuck raises OracleStuck and is not added.
    """
    total, saved = sentence_pass(tokens, gold, reduce_set, params, rng=rng,
                                 dropout_alpha=dropout_alpha)
    factors = None
    if saved is not None:
        vectors, cache, slots, hidden, pairs = saved
        drows, factors = _head_backward(vectors, slots, hidden, pairs, params)
        factors["pad"] = (drows[-1:],)
        factors.update(_encode_backward(drows[:-1], cache, params))
    if batch is None:
        batch = GradientBatch(params, 1)
    batch.add(factors)
    return total, batch.gradients() if batch.sentences == batch.size else None


class Trainer:
    """Single-writer training loop: one Adam update per `_TRAIN_BATCH`
    counted sentences.

    The parameters are replaced by their float32 copies when the trainer is
    made, the rounding that `save_checkpoint` applies; every array that
    training makes then takes their dtype, so a saved checkpoint holds the
    bytes that training evaluated.

    Every sentence runs forward and backward on the parameters of its
    batch, in order, with its word-dropout draws; a sentence whose oracle
    is stuck is skipped and not counted.  The sentence that fills the batch
    writes the batch's gradients (`GradientBatch`) and makes the update, and
    `run_epoch` makes one more for a batch left part full at its end.  The
    gradient arrays are made by the first `train_sentence` and dropped at
    the end of `run_epoch`, so they are not alive through what follows an
    epoch, such as `sgparse train`'s per-epoch eval and checkpoint save.
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

    def train_sentence(self, tokens: Sequence[str], gold: ArcSet, reduce_set: frozenset[int]) -> float:
        """Add one sentence to the batch, and update when it fills the
        batch; returns the sentence's loss."""
        if self._grads is None:
            self._grads = GradientBatch(self.params, _TRAIN_BATCH)
        # Overflow here can only come from parameters that are already huge;
        # the update's finite check then names the tensor instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            total, grads = accumulate_gradients(tokens, gold, reduce_set, self.params, self.rng,
                                                self.config.word_dropout_alpha, self._grads)
        if grads is not None:
            self.optimizer.step(grads)
        return total

    def run_epoch(self, instances: Iterable[tuple[Sequence[str], ArcSet, frozenset[int]]]) -> float:
        """Train over the instances in order; returns the mean sentence loss.

        Instances whose gold arcs are unreachable are skipped and counted.
        A ParameterNonFinite from an update is raised again with the
        position in the epoch of its batch's last sentence added.
        """
        losses = []
        last = 0, ()   # the epoch's last counted sentence, by position
        try:
            for position, (tokens, gold, reduce_set) in enumerate(instances, 1):
                try:
                    with _named_update(position, tokens):
                        losses.append(self.train_sentence(tokens, gold, reduce_set))
                except OracleStuck:
                    self.skipped += 1
                else:
                    last = position, tokens
            if self._grads is not None and self._grads.sentences:
                with _named_update(*last), np.errstate(over="ignore", invalid="ignore"):
                    self.optimizer.step(self._grads.gradients())
        finally:
            self._grads = None
        return float(np.mean(losses)) if losses else 0.0


@contextmanager
def _named_update(position: int, tokens: Sequence[str]):
    """Raise a ParameterNonFinite again with the training sentence that
    the update followed."""
    try:
        yield
    except ParameterNonFinite as err:
        raise ParameterNonFinite(f"{err}, after training sentence {position} "
                                 f"of the epoch ({' '.join(tokens)!r})") from err


def greedy_parse(
    tokens: Sequence[str], params: ModelParams, vectors: np.ndarray | None = None
) -> tuple[ArcSet, list[Action]]:
    """Greedy decoding restricted to legal actions; deterministic given params.

    `vectors` are the sentence's context vectors from `encode_batch`, which
    computes them alone if they are not given.  Scores are compared as
    Python floats, which hold float32 and float64 values exactly.
    """
    if vectors is None:
        vectors = encode_batch([tokens], params)[0]
    scores = score(vectors, params)
    c = initial(len(tokens))
    actions: list[Action] = []
    while not is_terminal(c):
        legal = legal_actions(c, params.arc_rule)
        data = scores(c)[2].tolist()
        best = None
        for i, a in enumerate(params.actions):
            if a in legal and (best is None or data[i] > data[best]):
                best = i
        a = params.actions[best]
        actions.append(a)
        c = apply(c, a)
    return c.arc_set(), actions


def parse(tokens: Sequence[str], params: ModelParams, vectors: np.ndarray | None = None) -> ArcSet:
    return greedy_parse(tokens, params, vectors)[0]


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

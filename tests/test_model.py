import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgparse import autodiff as ad
from sgparse import cli, model
from sgparse.align import align, derive_gold, tokenize
from sgparse.corpus import build_instances, generate_synthetic, save_corpus
from sgparse.errors import OracleStuck, ParameterNonFinite
from sgparse.graph import Arc, ArcRule, ArcSet, EdgeLabel, SceneGraph
from sgparse.model import (
    ROOT_WORD,
    Adam,
    ModelParams,
    TrainConfig,
    Trainer,
    Vocab,
    accumulate_gradients,
    encode,
    encode_batch,
    grad_check,
    greedy_parse,
    load_checkpoint,
    parse,
    save_checkpoint,
    score,
    step_loss,
)
from sgparse.transition import (
    REDUCE,
    SHIFT,
    initial,
    inventory,
    is_terminal,
    left,
    legal_actions,
    apply,
    oracle,
    preferred,
)
import reference_decoder
import tape_ops as ops


@pytest.fixture
def per_sentence_updates(monkeypatch):
    """One Adam update per training sentence, as `Trainer` made before its
    updates were batched: tests that call `train_sentence` a few times then
    still update on each call."""
    monkeypatch.setattr(model, "_TRAIN_BATCH", 1)


def small_params(tokens_groups, seed=0, rule=ArcRule.LEFT):
    vocab = Vocab.from_sentences(tokens_groups)
    return ModelParams(vocab, rule, emb_dim=12, hidden=8, mlp_hidden=4, seed=seed)


def leaves(params):
    """Fresh tape leaves over the parameter arrays, for the reference tapes."""
    return {name: ad.Tensor(a) for name, a in params.tensors.items()}


def encode_one(tokens, params, rng=None, dropout_alpha=0.25):
    """`encode` over a batch of one sentence: its vectors and the cache."""
    vectors, cache = encode([model.word_ids(tokens, params, rng, dropout_alpha)], params)
    return vectors[0], cache


def score_config(vectors, params, c):
    """`score` of one sentence's vectors at configuration c: its four slots,
    its hidden layer and its score row."""
    slots = model._slots(c, 0, len(vectors))
    (hidden,), (row,) = score(vectors, params)([slots])
    return tuple(slots), hidden, row


def reference_lstm_direction(xs, w, b, hidden):
    """The per-token tape LSTM that the sequence-level LSTM replaced, about a
    dozen tape nodes per token; kept as the reference for `encode` and its
    backward."""
    h = ad.Tensor(np.zeros(hidden))
    c = ad.Tensor(np.zeros(hidden))
    outs = []
    for x in xs:
        pre = ops.add(ops.matvec(w, ops.concat([x, h])), b)
        i = ops.sigmoid(ops.narrow(pre, 0, hidden))
        f = ops.sigmoid(ops.narrow(pre, hidden, 2 * hidden))
        o = ops.sigmoid(ops.narrow(pre, 2 * hidden, 3 * hidden))
        g = ops.tanh(ops.narrow(pre, 3 * hidden, 4 * hidden))
        c = ops.add(ops.mul(f, c), ops.mul(i, g))
        h = ops.mul(o, ops.tanh(c))
        outs.append(h)
    return outs


def reference_encode(tokens, params, tape, rng=None, dropout_alpha=0.25):
    """`encode` built from per-token row lookups and reference LSTM steps."""
    assert rng is None, "the reference does not apply word dropout"
    ids = [params.vocab.id(w) for w in tokens] + [params.vocab.id(ROOT_WORD)]
    layer_in = [ops.row(tape["embeddings"], i) for i in ids]
    for layer in range(params.layers):
        fwd = reference_lstm_direction(
            layer_in, tape[f"lstm{layer}_fwd_w"], tape[f"lstm{layer}_fwd_b"], params.hidden,
        )
        bwd = reference_lstm_direction(
            list(reversed(layer_in)), tape[f"lstm{layer}_bwd_w"],
            tape[f"lstm{layer}_bwd_b"], params.hidden,
        )
        bwd.reverse()
        layer_in = [ops.concat([f, b]) for f, b in zip(fwd, bwd)]
    return layer_in


def reference_lstm_forward(xs, w, b, hidden):
    """One LSTM direction over the rows of xs, as it ran before its steps
    wrote into the saved arrays directly: a fresh `[x; h]` per step and one
    stable sigmoid per gate slice."""

    def sigmoid(x):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    steps = xs.shape[0]
    z = np.empty((steps, xs.shape[1] + hidden))
    gates = np.empty((steps, 4 * hidden))
    cells = np.empty((steps, hidden))
    hs = np.empty((steps, hidden))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in range(steps):
        zt = np.concatenate([xs[t], h])
        pre = w @ zt + b
        i = sigmoid(pre[:hidden])
        f = sigmoid(pre[hidden: 2 * hidden])
        o = sigmoid(pre[2 * hidden: 3 * hidden])
        g = np.tanh(pre[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        z[t] = zt
        gates[t, :hidden], gates[t, hidden: 2 * hidden] = i, f
        gates[t, 2 * hidden: 3 * hidden], gates[t, 3 * hidden:] = o, g
        cells[t], hs[t] = c, h
    return hs, (z, gates, cells)


def reference_feature(c, vectors, tape):
    """The concatenated configuration feature that the tape scorer read: the
    top three stack vectors and the buffer front, with the learned pad
    vector filling missing slots."""
    slots = [tape["pad"]] * 3
    top = c.stack[-3:]
    for offset, token in enumerate(top):
        slots[3 - len(top) + offset] = vectors[token - 1]
    slots.append(vectors[c.buffer[0] - 1])
    return ops.concat(slots)


def reference_score(feat, tape):
    """The tape scorer that `score` replaced: W2 tanh(W1 x + b1) + b2."""
    hidden = ops.tanh(ops.add(ops.matvec(tape["mlp_w1"], feat), tape["mlp_b1"]))
    return ops.add(ops.matvec(tape["mlp_w2"], hidden), tape["mlp_b2"])


def reference_step_loss(scores, y_plus, legal, action_index):
    """The tape `step_loss`: the hinge value, a tape term when it is
    positive, and the (best wrong, best correct) action indices it chose."""
    wrong = legal - y_plus
    if not wrong:
        return 0.0, None, None
    data = scores.data
    margin = 2.0 if y_plus == frozenset({REDUCE}) else 1.0
    best_wrong = max(sorted(action_index[a] for a in wrong), key=lambda i: data[i])
    best_correct = max(sorted(action_index[a] for a in y_plus), key=lambda i: data[i])
    value = margin - data[best_correct] + data[best_wrong]
    if value <= 0.0:
        return 0.0, None, None
    term = ops.sub(ops.pick(scores, best_wrong), ops.pick(scores, best_correct))
    return float(value), term, (best_wrong, best_correct)


def reference_gradients(vectors, instance, params, tape):
    """The oracle-guided training pass as the tape ran it before the one-node
    MLP head, over per-token vector nodes on the parameter leaves `tape`:
    every step scored with `reference_score(reference_feature(...))` and its
    hinge term put on the tape.  Returns per step the scores, the loss value
    and the chosen pair, then the summed loss and every parameter's
    gradient."""
    tokens, gold, reduce_set = instance
    c = initial(len(tokens))
    steps, total, terms = [], 0.0, []
    while not is_terminal(c):
        y_plus = oracle(c, gold, reduce_set)
        legal = legal_actions(c, params.arc_rule)
        scores = reference_score(reference_feature(c, vectors, tape), tape)
        value, term, pair = reference_step_loss(scores, y_plus, legal, params.action_index)
        total += value
        if term is not None:
            terms.append(term)
        steps.append((scores.data, value, pair))
        c = apply(c, preferred(y_plus))
    if terms:
        ad.backward(ops.addsum(terms))
    return steps, total, {name: leaf.grad for name, leaf in tape.items()}


def reference_greedy_parse(tokens, params, vectors=None):
    """Greedy decoding that scores every step on the tape with
    `reference_score(reference_feature(...))`, as `greedy_parse` did before
    its slot projections, over `reference_encode(...)` unless `vectors`
    are given; returns the actions and, per step, the configuration and its
    scores."""
    tape = leaves(params)
    if vectors is None:
        vectors = reference_encode(tokens, params, tape)
    c = initial(len(tokens))
    actions, steps = [], []
    while not is_terminal(c):
        legal = legal_actions(c, params.arc_rule)
        data = reference_score(reference_feature(c, vectors, tape), tape).data
        steps.append((c, data))
        best = None
        for i, a in enumerate(params.actions):
            if a in legal and (best is None or data[i] > data[best]):
                best = i
        actions.append(params.actions[best])
        c = apply(c, params.actions[best])
    return actions, steps


@pytest.fixture(scope="module")
def fig_instance():
    sentence = "black barrier in front of the person"
    graph = SceneGraph(
        objects=("barrier", "person"),
        attributes=((0, "black"),),
        relations=((0, "in front of", 1),),
    )
    tokens = tuple(tokenize(sentence))
    al = align(sentence, graph)
    gold, reduce_set = derive_gold(al, graph, ArcRule.LEFT)
    return tokens, gold, reduce_set


def reference_initial_values(vocab, rule, emb_dim, hidden, mlp_hidden, layers, seed):
    """The `ModelParams` initialisation written out tensor by tensor, in the
    order of its random draws."""
    rng = np.random.default_rng(seed)

    def xavier(out_dim, in_dim):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        return rng.uniform(-limit, limit, size=(out_dim, in_dim))

    values = {"embeddings": rng.uniform(-0.1, 0.1, size=(len(vocab), emb_dim))}
    for layer in range(layers):
        in_dim = emb_dim if layer == 0 else 2 * hidden
        for direction in ("fwd", "bwd"):
            values[f"lstm{layer}_{direction}_w"] = xavier(4 * hidden, in_dim + hidden)
            b = np.zeros(4 * hidden)
            b[hidden: 2 * hidden] = 1.0
            values[f"lstm{layer}_{direction}_b"] = b
    values["pad"] = rng.uniform(-0.1, 0.1, size=2 * hidden)
    values["mlp_w1"] = xavier(mlp_hidden, 8 * hidden)
    values["mlp_b1"] = np.zeros(mlp_hidden)
    values["mlp_w2"] = xavier(len(inventory(rule)), mlp_hidden)
    values["mlp_b2"] = np.zeros(len(inventory(rule)))
    return values


class TestModelParams:
    @pytest.mark.parametrize("dims", [dict(emb_dim=200, hidden=256, mlp_hidden=100, layers=2),
                                      dict(emb_dim=3, hidden=2, mlp_hidden=4, layers=3)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_initial_values_match_reference(self, dims, seed):
        vocab = Vocab.from_sentences([("dog", "cat")])
        params = ModelParams(vocab, ArcRule.RIGHT, seed=seed, **dims)
        want = reference_initial_values(vocab, ArcRule.RIGHT, seed=seed, **dims)
        assert list(params.tensors) == list(want)
        assert all(np.array_equal(params.tensors[n], want[n]) for n in want)

    def test_load_draws_no_random_values(self, tmp_path):
        params = small_params([("dog",)], seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError):
            loaded, _ = load_checkpoint(path)
        assert list(loaded.tensors) == list(params.tensors)
        for name, t in params.tensors.items():
            assert np.array_equal(loaded.tensors[name], t.astype(np.float32))


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate", "adam_epsilon", "word_dropout_alpha"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            TrainConfig(**{field: value})


class TestVocab:
    def test_reserved_entries_first(self):
        vocab = Vocab.from_sentences([("dog", "cat", "dog")])
        assert vocab.words[:3] == ("<unk>", "<root>", "<pad>")
        assert vocab.count("dog") == 2
        assert vocab.id("zebra") == 0  # unknown words map to UNK


class TestEncode:
    def test_single_token_dimensions(self):
        params = small_params([("dog",)])
        vectors, _ = encode_one(["dog"], params)
        assert vectors.shape == (2, 16)  # token + ROOT

    def test_default_dimensions(self):
        vocab = Vocab.from_sentences([("dog",)])
        params = ModelParams(vocab, ArcRule.LEFT, seed=0)
        vectors, _ = encode_one(["dog"], params)
        assert vectors.shape == (2, 512)

    def test_empty_sentence_gives_root_only(self):
        params = small_params([("dog",)])
        assert encode_one([], params)[0].shape == (1, 16)

    def test_context_sensitivity(self):
        words = ("a", "b", "c", "d", "e")
        params = small_params([words], seed=3)
        forward, _ = encode_one(list(words), params)
        backward, _ = encode_one(list(reversed(words)), params)
        # token "c" sits at index 2 both times but its context differs
        assert not np.allclose(forward[2], backward[2])


def assert_grads_close(grads, ref_grads, params):
    """Every gradient within 1e-12 of its tensor's largest gradient entry."""
    for name, t in params.tensors.items():
        got, want = (np.zeros_like(t) if g is None else g
                     for g in (grads[name], ref_grads[name]))
        scale = max(np.abs(got).max(), np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-12 * scale, name


def encoder_gradients(dvectors, cache, params):
    """The `lstm*` and `embeddings` gradients that `_encode_backward` writes
    for a batch of one, given the gradient of its vectors."""
    out = {name: np.empty_like(t) for name, t in params.tensors.items()
           if name == "embeddings" or name.startswith("lstm")}
    model._encode_backward(dvectors[:, None], *cache[2:], params, out)
    return out


def assert_matches_reference(instance, params):
    """`encode` and `_encode_backward` against `reference_encode`, under the
    tape head of `reference_gradients`: the same vectors and step losses bit
    for bit, and the same gradients to 1e-12 relative.  The head reads
    `encode`'s vectors as tape leaves, whose gradients `_encode_backward`
    takes back through the stack."""
    tokens = instance[0]
    ref_tape = leaves(params)
    ref_vectors = reference_encode(tokens, params, ref_tape)
    ref_steps, _, ref_grads = reference_gradients(ref_vectors, instance, params, ref_tape)
    vectors, cache = encode_one(tokens, params)
    assert np.array_equal(vectors, np.array([v.data for v in ref_vectors]))
    rows = [ad.Tensor(v) for v in vectors]
    steps, _, grads = reference_gradients(rows, instance, params, leaves(params))
    assert [value for _, value, _ in steps] == [value for _, value, _ in ref_steps]
    dvectors = np.array([np.zeros(params.d_ctx) if r.grad is None else r.grad for r in rows])
    grads.update(encoder_gradients(dvectors, cache, params))
    assert_grads_close(grads, ref_grads, params)


def _instances_by_length(rule):
    """Synthetic training instances of 1..7 tokens by length, plus the empty
    sentence (ROOT only)."""
    instances, _ = build_instances(generate_synthetic(300, seed=21), rule=rule)
    by_length = {0: [((), ArcSet(0), frozenset())]}
    for inst in instances:
        if len(inst.tokens) <= 7:
            by_length.setdefault(len(inst.tokens), []).append(
                (inst.tokens, inst.gold, inst.reduce_set))
    assert sorted(by_length) == list(range(8))
    return by_length


INSTANCES_BY_LENGTH = {rule: _instances_by_length(rule) for rule in ArcRule}


class TestFusedBiLSTM:
    """The BiLSTM stack of `encode`, with its backward, against the per-token
    tape LSTM it replaced, both read by the tape scorer: the same context
    vectors and step losses bit for bit, and the same gradients to 1e-12
    relative."""

    def test_default_size_on_synthetic_sentences(self):
        instances, _ = build_instances(generate_synthetic(12, seed=21))
        params = ModelParams(Vocab.from_sentences(i.tokens for i in instances),
                             ArcRule.LEFT, seed=0)
        for inst in instances[:5]:
            assert_matches_reference((inst.tokens, inst.gold, inst.reduce_set), params)

    @settings(max_examples=150, deadline=None)
    @given(rule=st.sampled_from(list(ArcRule)), length=st.integers(0, 7),
           pick=st.integers(0, 1000), emb_dim=st.integers(1, 6), hidden=st.integers(1, 5),
           layers=st.integers(1, 2), seed=st.integers(0, 1000))
    def test_small_sizes_and_lengths(self, rule, length, pick, emb_dim, hidden, layers, seed):
        pool = INSTANCES_BY_LENGTH[rule][length]
        instance = pool[pick % len(pool)]
        params = ModelParams(Vocab.from_sentences([instance[0]]), rule, emb_dim=emb_dim,
                             hidden=hidden, mlp_hidden=3, layers=layers, seed=seed)
        assert_matches_reference(instance, params)

    def test_word_dropout_reaches_the_embedding_rows(self):
        tokens = ("dog", "cat", "dog")
        params = small_params([tokens])
        vectors, cache = encode_one(list(tokens), params, rng=np.random.default_rng(0),
                                    dropout_alpha=1e9)
        dvectors = np.zeros_like(vectors)
        dvectors[:, 0] = 1.0
        grad = encoder_gradients(dvectors, cache, params)["embeddings"]
        touched = set(np.flatnonzero(np.abs(grad).sum(axis=1)))
        assert touched == {params.vocab.id("<unk>"), params.vocab.id(ROOT_WORD)}


class TestAccumulateGradients:
    """`accumulate_gradients` returns its gradients and keeps no state: the
    parameter arrays are unchanged, a second call returns the same
    gradients, and each equals the reference tape's to 1e-12 relative."""

    def test_repeat_call_same_gradients_parameters_unchanged(self, fig_instance):
        params = small_params([fig_instance[0]], seed=0)
        before = {name: (a, a.copy()) for name, a in params.tensors.items()}
        total, grads = accumulate_gradients(*fig_instance, params)
        again_total, again = accumulate_gradients(*fig_instance, params)
        assert total > 0.0 and again_total == total
        assert list(grads) == list(again) == list(params.tensors)
        for name, (array, copy) in before.items():
            assert params.tensors[name] is array and np.array_equal(array, copy), name
            assert grads[name] is not None and np.array_equal(grads[name], again[name]), name
        assert_matches_gradients(fig_instance, params, total, grads)

    def test_repeated_word_sums_its_embedding_rows(self):
        # the reference looks each occurrence up as its own tape row
        instance = next(i for pool in INSTANCES_BY_LENGTH[ArcRule.LEFT].values() for i in pool
                        if len(set(i[0])) < len(i[0]))
        params = ModelParams(Vocab.from_sentences([instance[0]]), ArcRule.LEFT, emb_dim=12,
                             hidden=8, mlp_hidden=4, seed=0)
        total, grads = accumulate_gradients(*instance, params)
        repeated = next(w for w in instance[0] if instance[0].count(w) > 1)
        assert np.abs(grads["embeddings"][params.vocab.id(repeated)]).max() > 0.0
        assert_matches_gradients(instance, params, total, grads)


def assert_matches_gradients(instance, params, total, grads):
    """The loss and gradients of `accumulate_gradients` against the reference
    tape's: the loss to 1e-12, the gradients to 1e-12 relative."""
    tape = leaves(params)
    _, ref_total, ref_grads = reference_gradients(
        reference_encode(instance[0], params, tape), instance, params, tape)
    assert abs(total - ref_total) <= 1e-12
    assert_grads_close(grads, ref_grads, params)


class TestBuildsNoTensor:
    """sgparse builds no tape node: parsing, scoring, checkpoint I/O,
    training passes and the `train` command all run with `ad.Tensor` and
    `ad.backward` made to raise."""

    def test_no_tensor_is_made(self, fig_instance, tmp_path):
        tokens = fig_instance[0]
        params = small_params([tokens], seed=0)
        path = tmp_path / "model.ckpt"
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(6, seed=9), corpus)
        made = AssertionError("tape node made")
        with mock.patch.object(ad, "Tensor", side_effect=made), \
                mock.patch.object(ad, "backward", side_effect=made):
            with pytest.raises(AssertionError, match="tape node made"):
                ad.Tensor(0.0)   # the patch is in force
            save_checkpoint(params, path)
            loaded, _ = load_checkpoint(path)
            vectors = encode_batch([tokens, tokens[:3]], loaded)
            _, _, scores = score_config(vectors[0], loaded, initial(len(tokens)))
            parse([tokens, tokens[:3]], loaded)
            greedy_parse(tokens[:3], loaded)
            for source in (params, loaded):
                total, grads = accumulate_gradients(*fig_instance, source)
                assert total > 0.0 and all(g is not None for g in grads.values())
            assert cli.main(["train", "--corpus", str(corpus), "--epochs", "1",
                             "--checkpoint", str(tmp_path / "trained.ckpt")]) == 0
        assert scores.shape == (len(loaded.actions),)


class TestLeanLSTMForward:
    """`ad.lstm` on a batch of one against the former per-sequence body: the
    same hidden states and saved arrays, bit for bit, on every layer and
    direction of `encode`."""

    @staticmethod
    def assert_matches_reference(tokens, params):
        ids = [params.vocab.id(w) for w in tokens] + [params.vocab.id(ROOT_WORD)]
        xs = params.tensors["embeddings"][ids]
        for layer in range(params.layers):
            outs = []
            for direction, seq in (("fwd", xs), ("bwd", xs[::-1])):
                w = params.tensors[f"lstm{layer}_{direction}_w"]
                b = params.tensors[f"lstm{layer}_{direction}_b"]
                hs, saved = ad.lstm(xs[:, None], np.array([len(xs)]), w, b, direction == "bwd")
                # the reference runs `seq` in step order; `lstm` stores each
                # state at its input's row and saves the rest in step order
                hs = hs[:, 0] if direction == "fwd" else hs[::-1, 0]
                saved = [a[:, 0] for a in saved]
                ref_hs, ref_saved = reference_lstm_forward(seq, w, b, params.hidden)
                assert np.array_equal(hs, ref_hs)
                assert len(saved) == len(ref_saved)
                assert all(np.array_equal(a, r) for a, r in zip(saved, ref_saved))
                outs.append(hs)
            xs = np.concatenate([outs[0], outs[1][::-1]], axis=1)

    def test_default_size_on_synthetic_sentences(self):
        instances, _ = build_instances(generate_synthetic(12, seed=21))
        params = ModelParams(Vocab.from_sentences(i.tokens for i in instances),
                             ArcRule.LEFT, seed=0)
        for inst in instances[:5]:
            self.assert_matches_reference(inst.tokens, params)

    @settings(max_examples=150, deadline=None)
    @given(rule=st.sampled_from(list(ArcRule)), length=st.integers(0, 7),
           pick=st.integers(0, 1000), emb_dim=st.integers(1, 6), hidden=st.integers(1, 5),
           layers=st.integers(1, 2), seed=st.integers(0, 1000))
    def test_small_sizes_and_lengths(self, rule, length, pick, emb_dim, hidden, layers, seed):
        pool = INSTANCES_BY_LENGTH[rule][length]
        tokens = pool[pick % len(pool)][0]
        params = ModelParams(Vocab.from_sentences([tokens]), rule, emb_dim=emb_dim,
                             hidden=hidden, mlp_hidden=3, layers=layers, seed=seed)
        self.assert_matches_reference(tokens, params)


class TestSlotScores:
    """The slot-projection scorer `score` against the tape scorer it replaced,
    in greedy decoding and in training.  Greedy decoding takes the same
    actions, with scores within 1e-12 at every step.  The training pass makes
    the same hinge decision at every step, from scores within 1e-12; its
    summed loss agrees to 1e-12 and its gradients to 1e-12 relative."""

    @staticmethod
    def assert_matches_reference(instance, params):
        tokens = instance[0]
        ref_actions, steps = reference_greedy_parse(tokens, params)
        arcs, actions = greedy_parse(tokens, params)
        assert actions == ref_actions
        vectors = encode_one(tokens, params)[0]
        for c, ref in steps:
            assert np.abs(score_config(vectors, params, c)[2] - ref).max() <= 1e-12
        c = initial(len(tokens))
        for a in actions:
            c = apply(c, a)
        assert c.arc_set() == arcs

        tape = leaves(params)
        ref_steps, ref_total, ref_grads = reference_gradients(
            reference_encode(tokens, params, tape), instance, params, tape)
        decisions = []

        def recording_step_loss(row, *args):
            value, pair = step_loss(row, *args)
            decisions.append((row, value, pair))
            return value, pair

        with mock.patch.object(model, "step_loss", recording_step_loss):
            total, grads = accumulate_gradients(*instance, params)
        assert len(decisions) == len(ref_steps)
        for (row, value, pair), (ref_row, ref_value, ref_pair) in zip(decisions, ref_steps):
            assert np.abs(row - ref_row).max() <= 1e-12
            assert pair == ref_pair and (value > 0.0) == (ref_value > 0.0)
        assert abs(total - ref_total) <= 1e-12
        assert_grads_close(grads, ref_grads, params)

    def test_default_size_on_synthetic_sentences(self):
        instances, _ = build_instances(generate_synthetic(30, seed=21))
        assert len(instances) == 30
        params = ModelParams(Vocab.from_sentences(i.tokens for i in instances),
                             ArcRule.LEFT, seed=0)
        for inst in instances:
            self.assert_matches_reference((inst.tokens, inst.gold, inst.reduce_set), params)

    @settings(max_examples=150, deadline=None)
    @given(rule=st.sampled_from(list(ArcRule)), length=st.integers(0, 7),
           pick=st.integers(0, 1000), emb_dim=st.integers(1, 6), hidden=st.integers(1, 5),
           mlp_hidden=st.integers(1, 5), layers=st.integers(1, 2), seed=st.integers(0, 1000))
    def test_small_sizes_and_lengths(self, rule, length, pick, emb_dim, hidden, mlp_hidden,
                                     layers, seed):
        pool = INSTANCES_BY_LENGTH[rule][length]
        instance = pool[pick % len(pool)]
        params = ModelParams(Vocab.from_sentences([instance[0]]), rule, emb_dim=emb_dim,
                             hidden=hidden, mlp_hidden=mlp_hidden, layers=layers, seed=seed)
        self.assert_matches_reference(instance, params)


def mixed_chunk_texts():
    """Texts of 0 to 15 tokens, blank lines among them, for two full parse
    chunks and a part-full third."""
    rng = np.random.default_rng(8)
    words = [w for r in generate_synthetic(60, seed=8) for w in tokenize(r.phrase)]
    texts = []
    for k in range(2 * cli.PARSE_BATCH + 5):
        start, n = int(rng.integers(len(words) - 15)), 7 * k % 16
        texts.append(" ".join(words[start:start + n]))
    return texts


class TestLockstepDecoder:
    """`parse` decodes a chunk in lockstep, and takes the actions of the
    per-sentence decoder it replaced (`reference_decoder`), each sentence
    decoded from the vectors of the same `encode_batch` pass.  Its score
    rows sum each step's output product in another order than the
    reference's GEMV, so they agree within a bound set by the dtype: 1e-12
    in float64, and in float32, whose rounding unit is 6e-8, 1e-6.  The
    chunks are those of `cli._parse_each` over texts of 0 to 15 tokens,
    blank lines included: two full, one part full, and a chunk of one
    sentence, whose encoder runs each step as a GEMV."""

    @staticmethod
    def recorded_parse(token_lists, params):
        """`parse` of a chunk, and the score rows of each `score` step."""
        steps = []

        def recording_score(vectors, p):
            step = score(vectors, p)

            def recorded(slots):
                hidden, rows = step(slots)
                steps.append(rows)
                return hidden, rows
            return recorded

        with mock.patch.object(model, "score", recording_score):
            return parse(token_lists, params), steps

    def assert_matches_reference(self, token_lists, params, bound):
        parsed, steps = self.recorded_parse(token_lists, params)
        reference = reference_decoder.parse_chunk(token_lists, params)
        assert [actions for _, actions in parsed] == [actions for actions, _ in reference]
        for tokens, (arcs, actions) in zip(token_lists, parsed):
            c = initial(len(tokens))
            for a in actions:
                c = apply(c, a)
            assert is_terminal(c) and c.arc_set() == arcs
        # step t scores, in chunk order, each sentence that takes more than t actions
        assert len(steps) == max(len(actions) for actions, _ in reference)
        for t, rows in enumerate(steps):
            wanted = [rows_k[t] for _, rows_k in reference if len(rows_k) > t]
            assert rows.dtype == params.tensors["mlp_w2"].dtype and len(rows) == len(wanted)
            assert np.abs(rows - np.array(wanted)).max() <= bound

    @pytest.mark.parametrize("rule", list(ArcRule))
    def test_drawn_float64_and_loaded_float32(self, rule, tmp_path):
        texts = mixed_chunk_texts()
        token_lists = [tokenize(t) for t in texts]
        assert {len(tokens) for tokens in token_lists} == set(range(16)) and "" in texts
        drawn = ModelParams(Vocab.from_sentences(token_lists[::2]), rule, seed=3)
        save_checkpoint(drawn, tmp_path / "model.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "model.ckpt")
        batch = cli.PARSE_BATCH
        chunks = [token_lists[i:i + batch] for i in range(0, len(token_lists), batch)]
        assert [len(chunk) for chunk in chunks] == [batch, batch, 5]
        for params, bound in ((drawn, 1e-12), (loaded, 1e-6)):
            for chunk in chunks + [token_lists[7:8]]:
                self.assert_matches_reference(chunk, params, bound)

    def test_equal_scores_go_to_the_lowest_index(self):
        token_lists = [tokenize(t) for t in mixed_chunk_texts()[:cli.PARSE_BATCH]]
        params = small_params(token_lists, seed=1)
        params.tensors["mlp_w2"][:] = 0.0
        params.tensors["mlp_b2"][:] = 0.0
        self.assert_matches_reference(token_lists, params, 0.0)


class TestEncodeBatch:
    """`encode_batch` against `encode`, sentence by sentence: the same
    context vectors to 1e-12 max-abs, whatever the batch holds, and a
    lockstep parse of the batch that takes each sentence's actions alone.  A batch multiplies each
    row block of the LSTM weights by every running sentence in one GEMM,
    whose sums run in another order than the GEMV of a batch of one."""

    @staticmethod
    def assert_matches_encode(token_lists, params):
        got = encode_batch(token_lists, params)
        assert len(got) == len(token_lists)
        for tokens, vectors in zip(token_lists, got):
            expected, _ = encode_one(tokens, params)
            assert vectors.shape == expected.shape
            assert np.abs(vectors - expected).max() <= 1e-12
        assert parse(token_lists, params) == [greedy_parse(tokens, params) for tokens in token_lists]

    def test_default_size_on_synthetic_sentences(self):
        instances, _ = build_instances(generate_synthetic(40, seed=21))
        params = ModelParams(Vocab.from_sentences(i.tokens for i in instances),
                             ArcRule.LEFT, seed=0)
        token_lists = [list(i.tokens) for i in instances]
        # mixed lengths, ROOT alone, a repeat and words outside the vocabulary
        token_lists += [[], token_lists[0], ["zyx", "a", "qqq"]]
        self.assert_matches_encode(token_lists, params)

    def test_default_size_same_vectors_whatever_the_companions(self):
        instances, _ = build_instances(generate_synthetic(40, seed=21))
        params = ModelParams(Vocab.from_sentences(i.tokens for i in instances),
                             ArcRule.LEFT, seed=0)
        token_lists = [list(i.tokens) for i in instances]
        longest = max(range(len(token_lists)), key=lambda i: len(token_lists[i]))
        shortest = min(range(len(token_lists)), key=lambda i: len(token_lists[i]))
        # batches of 2 to 40 in other orders; the longest sentence also runs
        # its last steps alone beside the shortest
        batches = [list(range(len(token_lists)))[::-1], [longest, shortest],
                   [shortest, longest, 3], list(range(2, 34)), list(range(0, 40, 3))]
        seen = {}
        for batch in batches:
            for i, vectors in zip(batch, encode_batch([token_lists[i] for i in batch], params)):
                if i in seen:
                    assert np.array_equal(vectors, seen[i])
                seen.setdefault(i, vectors)
        assert longest in seen and shortest in seen

    def test_empty_batch(self):
        assert encode_batch([], small_params([("a",)])) == []

    @settings(max_examples=150, deadline=None)
    @given(rule=st.sampled_from(list(ArcRule)),
           picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1000)),
                          min_size=1, max_size=6),
           emb_dim=st.integers(1, 6), hidden=st.integers(1, 5),
           layers=st.integers(1, 2), seed=st.integers(0, 1000))
    def test_small_sizes_and_lengths(self, rule, picks, emb_dim, hidden, layers, seed):
        pools = INSTANCES_BY_LENGTH[rule]
        token_lists = [list(pools[n][k % len(pools[n])][0]) for n, k in picks]
        params = ModelParams(Vocab.from_sentences(token_lists), rule, emb_dim=emb_dim,
                             hidden=hidden, mlp_hidden=3, layers=layers, seed=seed)
        self.assert_matches_encode(token_lists, params)

    @pytest.mark.parametrize("shape, rows", [((1024, 456), 8), ((1024, 768), 4),
                                             ((32, 10), 16), ((12, 5), 4), ((4, 3000), 4)])
    def test_row_blocks(self, shape, rows, dtype=np.float64):
        w = np.arange(np.prod(shape), dtype=dtype).reshape(shape)
        blocks = ad._row_blocks(w, 32)
        assert blocks.shape == (shape[0] // rows, rows, shape[1])
        assert np.array_equal(blocks.reshape(shape), w) and np.shares_memory(blocks, w)
        # one sequence multiplies the whole matrix
        whole = ad._row_blocks(w, 1)
        assert whole.shape == (1,) + shape and np.shares_memory(whole, w)

    # a block fits in 32 KB, so float32 blocks hold twice the float64 rows
    @pytest.mark.parametrize("shape, rows", [((1024, 456), 16), ((1024, 768), 8)])
    def test_row_blocks_float32(self, shape, rows):
        self.test_row_blocks(shape, rows, np.float32)

    def test_greedy_parse_from_batch_vectors(self):
        instances, _ = build_instances(generate_synthetic(20, seed=5))
        params = ModelParams(Vocab.from_sentences(i.tokens for i in instances),
                             ArcRule.LEFT, seed=3)
        token_lists = [i.tokens for i in instances]
        assert parse(token_lists, params) == [greedy_parse(tokens, params) for tokens in token_lists]


class TestFeature:
    """The feature slots that `score` reads, as rows of `[vectors; pad]`, and
    the hidden layer it computes from them."""

    @staticmethod
    def slots(config):
        params = small_params([("a", "b", "c", "d", "e", "f", "g")])
        vectors, _ = encode_one(list("abcdefg"), params)
        slots, hidden, _ = score_config(vectors, params, config)
        rows = np.concatenate([vectors, params.tensors["pad"][None]])
        w1, b1 = params.tensors["mlp_w1"], params.tensors["mlp_b1"]
        feat = np.concatenate([rows[i] for i in slots])
        assert np.abs(hidden - np.tanh(w1 @ feat + b1)).max() <= 1e-12
        return slots

    def test_initial_uses_pad_slots(self):
        # rows 0..6 are tokens 1..7, row 7 is ROOT and row 8 the pad vector
        assert self.slots(initial(7)) == (8, 8, 8, 0)

    def test_stack_and_buffer_slots(self):
        config = initial(7).__class__(7, (2, 5, 7), (8,), frozenset())
        assert self.slots(config) == (1, 4, 6, 7)  # tokens 2, 5, 7 and ROOT

    def test_deep_stack_keeps_top_three(self):
        config = initial(7).__class__(7, (1, 2, 3, 4, 5), (6, 7, 8), frozenset())
        assert self.slots(config) == (2, 3, 4, 5)  # tokens 3, 4, 5, not 1


class TestScore:
    def test_zero_weights_zero_scores(self):
        params = small_params([("dog",)])
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            params.tensors[name][:] = 0.0
        vectors, _ = encode_one(["dog"], params)
        _, _, out = score_config(vectors, params, initial(1))
        assert np.array_equal(out, np.zeros(len(params.actions)))

    def test_hand_computed_two_by_two(self):
        w1 = np.array([[1.0, 0.0], [0.0, -1.0]])
        b1 = np.array([0.0, 0.1])
        w2 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b2 = np.array([0.01, -0.02])
        x = np.array([0.5, 0.25])
        hidden = np.tanh(w1 @ x + b1)
        expected = w2 @ hidden + b2
        out = ops.add(ops.matvec(ad.Tensor(w2), ops.tanh(
            ops.add(ops.matvec(ad.Tensor(w1), ad.Tensor(x)), ad.Tensor(b1)))), ad.Tensor(b2))
        assert np.allclose(out.data, expected)

    def test_doubling_output_weights_doubles_scores(self):
        params = small_params([("dog", "cat")])
        vectors, _ = encode_one(["dog", "cat"], params)
        base = score_config(vectors, params, initial(2))[2]
        params.tensors["mlp_w2"] *= 2.0
        params.tensors["mlp_b2"] *= 2.0
        assert np.allclose(score_config(vectors, params, initial(2))[2], 2.0 * base)


class TestStepLoss:
    def setup_method(self):
        self.actions = inventory(ArcRule.LEFT)
        self.index = {a: i for i, a in enumerate(self.actions)}

    def make_scores(self, mapping, default=-1.0):
        data = np.full(len(self.actions), default)
        for action, value in mapping.items():
            data[self.index[action]] = value
        return data

    def test_direct_substitution(self):
        scores = self.make_scores({SHIFT: 0.2, left(EdgeLabel.ATTR): 0.5})
        legal = frozenset(self.actions)
        value, pair = step_loss(scores, frozenset({SHIFT}), legal, self.index)
        assert value == pytest.approx(1.0 - 0.2 + 0.5)
        assert pair == (self.index[left(EdgeLabel.ATTR)], self.index[SHIFT])

    def test_hinge_region_zero(self):
        scores = self.make_scores({SHIFT: 2.0})
        value, pair = step_loss(scores, frozenset({SHIFT}), frozenset(self.actions), self.index)
        assert value == 0.0 and pair is None

    def test_reduce_margin_is_two(self):
        scores = self.make_scores({REDUCE: 0.0, SHIFT: 0.0})
        value, _ = step_loss(scores, frozenset({REDUCE}), frozenset({REDUCE, SHIFT}), self.index)
        assert value == pytest.approx(2.0)

    def test_all_legal_correct_is_zero(self):
        scores = self.make_scores({SHIFT: -5.0})
        value, pair = step_loss(scores, frozenset({SHIFT}), frozenset({SHIFT}), self.index)
        assert value == 0.0 and pair is None

    def test_empty_y_plus_rejected(self):
        scores = self.make_scores({})
        with pytest.raises(ValueError):
            step_loss(scores, frozenset(), frozenset({SHIFT}), self.index)

    def test_zero_loss_implies_margin_satisfied(self):
        rng = np.random.default_rng(9)
        legal = frozenset(self.actions)
        for _ in range(200):
            scores = rng.standard_normal(len(self.actions)) * 2
            y_plus = frozenset({REDUCE}) if rng.random() < 0.3 else frozenset({SHIFT})
            value, _ = step_loss(scores, y_plus, legal, self.index)
            if value == 0.0:
                margin = 2.0 if y_plus == frozenset({REDUCE}) else 1.0
                best_correct = max(scores[self.index[a]] for a in y_plus)
                for a in legal - y_plus:
                    assert best_correct >= scores[self.index[a]] + margin


# Crossing arcs make this gold unreachable for the oracle.
STUCK_INSTANCE = (("a", "b", "c", "d"), ArcSet(4, frozenset({
    Arc(1, 3, EdgeLabel.OBJT), Arc(4, 2, EdgeLabel.ATTR),
    Arc(5, 1, EdgeLabel.BEGN), Arc(5, 4, EdgeLabel.BEGN),
})), frozenset())


class TestTrainSentence:
    def test_step_count_matches_action_count(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens])
        with mock.patch.object(model, "apply", wraps=apply) as applied:
            accumulate_gradients(tokens, gold, reduce_set, params)
        assert applied.call_count == 14

    def test_all_tokens_unaligned_terminates(self):
        tokens = ("foo", "bar", "baz")
        params = small_params([tokens])
        gold = ArcSet(3)
        reduce_set = frozenset({1, 2, 3})
        trainer = Trainer(params, TrainConfig(rng_seed=0))
        loss = trainer.run_epoch([(tokens, gold, reduce_set)])
        assert np.isfinite(loss) and trainer.optimizer.t == 1

    @pytest.mark.usefixtures("per_sentence_updates")
    def test_loss_reaches_zero_on_repeated_updates(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=1)
        trainer = Trainer(params, TrainConfig(rng_seed=1, learning_rate=0.01,
                                              word_dropout_alpha=1e-9))
        losses = [trainer.train_sentence(tokens, gold, reduce_set) for _ in range(250)]
        assert losses[-1][0] < 0.05
        assert all(np.isfinite(t).all() for t in params.tensors.values())

    def test_unreachable_gold_skipped_and_counted(self):
        params = small_params([STUCK_INSTANCE[0]])
        trainer = Trainer(params, TrainConfig(rng_seed=0))
        mean = trainer.run_epoch([STUCK_INSTANCE])
        assert trainer.skipped == 1
        assert mean == 0.0

    @pytest.mark.usefixtures("per_sentence_updates")
    def test_identical_seeds_identical_parameters(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        results = []
        for _ in range(2):
            params = small_params([tokens], seed=7)
            trainer = Trainer(params, TrainConfig(rng_seed=7))
            for _ in range(5):
                trainer.train_sentence(tokens, gold, reduce_set)
            results.append({k: t.copy() for k, t in params.tensors.items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])


def default_size_model(count=20, seed=7):
    """Default-size parameters over the vocabulary of a synthetic corpus,
    and its training instances."""
    instances, _ = build_instances(generate_synthetic(count, seed=seed))
    vocab = Vocab.from_sentences(inst.tokens for inst in instances)
    return ModelParams(vocab, ArcRule.LEFT), [(i.tokens, i.gold, i.reduce_set) for i in instances]


def traced_peak(fn) -> int:
    """The most memory, in bytes, that `tracemalloc` saw allocated at once
    while `fn` ran, over what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGradientArrays:
    """`Trainer` writes every sentence's gradients into one array per tensor,
    made once per epoch; what it trains is what fresh arrays train."""

    @pytest.mark.usefixtures("per_sentence_updates")
    def test_trains_byte_for_byte_as_fresh_arrays(self, fig_instance):
        by_length = INSTANCES_BY_LENGTH[ArcRule.LEFT]
        empty = by_length[0][0]   # every step's only legal action is correct: zero loss
        # the zero-loss sentences follow positive ones, so the arrays then
        # hold a previous sentence's gradients
        instances = [fig_instance, empty, STUCK_INSTANCE, by_length[5][0], by_length[3][1],
                     empty, fig_instance]
        words = [inst[0] for inst in instances]
        config = TrainConfig(rng_seed=3, learning_rate=0.01)
        params = small_params(words, seed=3)
        trainer = Trainer(params, config)
        fresh = small_params(words, seed=3)
        # the float32 rounding that `Trainer` gives the parameters
        fresh.tensors = {name: t.astype(np.float32) for name, t in fresh.tensors.items()}
        optimizer = Adam(fresh.tensors, lr=config.learning_rate, eps=config.adam_epsilon)
        rng = np.random.default_rng(config.rng_seed)
        original = model.GradientBatch.run
        calls = []

        def recording(batch):
            losses, grads = original(batch)
            calls.append((losses, batch.arrays))
            return losses, grads

        for _ in range(2):
            calls.clear()
            with mock.patch.object(model.GradientBatch, "run", recording):
                mean = trainer.run_epoch(instances)
            assert trainer._grads is None
            losses = []
            for inst in instances:
                try:
                    total, grads = accumulate_gradients(*inst, fresh, rng,
                                                        config.word_dropout_alpha)
                except OracleStuck:
                    continue
                optimizer.step(grads)
                losses.append(total)
            assert [batch_losses for batch_losses, _ in calls] == [[total] for total in losses]
            assert [total > 0.0 for total in losses] == [True, False, True, True, False, True]
            assert mean == float(np.mean(losses))
            assert len({id(out) for _, out in calls}) == 1   # one set of arrays per epoch
            for name in params.tensors:
                assert params.tensors[name].tobytes() == fresh.tensors[name].tobytes(), name
                assert trainer.optimizer.m[name].tobytes() == optimizer.m[name].tobytes(), name
                assert trainer.optimizer.v[name].tobytes() == optimizer.v[name].tobytes(), name
        assert trainer.skipped == 2

    def test_warm_training_sentence_allocates_less_than_a_weight(self):
        """Every call of a warm batch, the one that fills it and updates
        included, allocates less than the largest weight tensor."""
        params, instances = default_size_model()
        size = model._TRAIN_BATCH
        trainer = Trainer(params)
        for instance in instances[:size]:   # the first batch makes the arrays
            trainer.train_sentence(*instance)
        losses, peaks = [], []
        with mock.patch.object(trainer.optimizer, "step", wraps=trainer.optimizer.step) as step:
            for instance in instances[size: 2 * size]:
                peaks.append(traced_peak(lambda: losses.extend(trainer.train_sentence(*instance))))
                assert step.call_count == (len(peaks) == size)
        assert step.call_args.args[0]["mlp_w1"] is not None
        assert len(losses) == size and max(losses) > 0.0
        assert max(peaks) < max(t.nbytes for t in params.tensors.values())


def summed_gradients(instances, params):
    """The sum of each sentence's `accumulate_gradients` gradients, skipping
    a sentence whose oracle is stuck."""
    summed = {name: np.zeros(t.shape) for name, t in params.tensors.items()}
    for instance in instances:
        try:
            _, grads = accumulate_gradients(*instance, params)
        except OracleStuck:
            continue
        for name, g in grads.items():
            if g is not None:
                summed[name] += g
    return summed


def assert_batch_matches_sentences(batch, instances, params):
    """`batch.run` against `accumulate_gradients` sentence by sentence, in
    float64: each counted sentence's loss to 1e-12, and the batch's
    gradients equal to the summed sentence gradients to 1e-12 relative."""
    losses, grads = batch.run()
    want = []
    for instance in instances:
        try:
            want.append(accumulate_gradients(*instance, params)[0])
        except OracleStuck:
            continue
    assert len(losses) == len(want) and batch.sentences == 0
    assert all(abs(got - total) <= 1e-12 * max(1.0, total) for got, total in zip(losses, want))
    assert_grads_close(grads, summed_gradients(instances, params), params)


class TestLockstepBPTT:
    """A batch trains through one `encode` and one lockstep BPTT per LSTM,
    and its gradients are the sum of its sentences' own, to 1e-12 relative
    in float64, whatever lengths the batch mixes."""

    @staticmethod
    def queue(instances, params):
        batch = model.GradientBatch(params, len(instances))
        for instance in instances:
            try:
                batch.add(*instance)
            except OracleStuck:
                pass
        return batch

    @pytest.mark.parametrize("rule", list(ArcRule))
    def test_sentence_that_outlasts_the_rest(self, rule):
        by_length = INSTANCES_BY_LENGTH[rule]
        # the 7-token sentence runs its last five steps alone, ROOT alone is
        # one step, and the stuck sentence inside the batch is not queued
        instances = [by_length[1][0], by_length[0][0], STUCK_INSTANCE, by_length[7][0],
                     by_length[2][1]]
        params = ModelParams(Vocab.from_sentences(inst[0] for inst in instances), rule,
                             emb_dim=12, hidden=8, mlp_hidden=4, seed=2)
        batch = self.queue(instances, params)
        assert batch.sentences == 4
        assert_batch_matches_sentences(batch, instances, params)

    def test_default_size_on_synthetic_sentences(self):
        params, instances = default_size_model()
        assert_batch_matches_sentences(self.queue(instances[:8], params), instances[:8], params)

    @settings(max_examples=60, deadline=None)
    @given(rule=st.sampled_from(list(ArcRule)),
           picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1000)),
                          min_size=1, max_size=8),
           emb_dim=st.integers(1, 6), hidden=st.integers(1, 5), mlp_hidden=st.integers(1, 5),
           layers=st.integers(1, 2), seed=st.integers(0, 1000))
    def test_small_sizes_and_lengths(self, rule, picks, emb_dim, hidden, mlp_hidden, layers,
                                     seed):
        pools = INSTANCES_BY_LENGTH[rule]
        instances = [pools[n][k % len(pools[n])] for n, k in picks]
        params = ModelParams(Vocab.from_sentences(inst[0] for inst in instances), rule,
                             emb_dim=emb_dim, hidden=hidden, mlp_hidden=mlp_hidden,
                             layers=layers, seed=seed)
        assert_batch_matches_sentences(self.queue(instances, params), instances, params)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_backward_matches_each_sequence(self, reverse):
        """`ad.lstm_backward` over a batch against each sequence's batch of
        one: the pre-activation and input gradients to 1e-12 relative, and
        zero past each sequence's end."""
        rng = np.random.default_rng(4)
        hidden, in_dim, lengths = 5, 3, np.array([9, 4, 4, 1])
        w = rng.standard_normal((4 * hidden, in_dim + hidden))
        b = rng.standard_normal(4 * hidden)
        xs = rng.standard_normal((9, 4, in_dim))
        dhs = rng.standard_normal((9, 4, hidden))
        valid = np.arange(9)[:, None] < lengths
        xs[~valid], dhs[~valid] = 0.0, 0.0
        _, saved = ad.lstm(xs, lengths, w, b, reverse)
        dpre, dxs = ad.lstm_backward(dhs, lengths, w, saved, reverse)
        assert not dpre[~valid].any() and not dxs[~valid].any()
        for k, n in enumerate(lengths):
            _, one = ad.lstm(xs[:n, k:k + 1], lengths[k:k + 1], w, b, reverse)
            want = ad.lstm_backward(dhs[:n, k:k + 1], lengths[k:k + 1], w, one, reverse)
            for got, expected in zip((dpre[:n, k], dxs[:n, k]), want):
                assert np.abs(got - expected[:, 0]).max() <= 1e-12 * np.abs(expected).max()


class TestTrainBatch:
    """A batch of B sentences writes the sum of their gradients, and `Trainer`
    steps Adam once per B counted sentences."""

    @staticmethod
    def batch_instances(fig_instance):
        by_length = INSTANCES_BY_LENGTH[ArcRule.LEFT]
        empty = by_length[0][0]   # zero loss
        return [by_length[4][0], STUCK_INSTANCE, empty, fig_instance, by_length[6][1],
                by_length[2][0], by_length[7][0], by_length[5][2], by_length[3][1], by_length[1][0]]

    @pytest.mark.parametrize("size", [2, 3, 8])
    def test_batch_gradients_are_the_summed_sentence_gradients(self, fig_instance, size):
        instances = self.batch_instances(fig_instance)
        params = small_params([inst[0] for inst in instances], seed=5)
        batch = model.GradientBatch(params, size)
        fed = []
        for instance in instances:
            fed.append(instance)
            try:
                batch.add(*instance)
            except OracleStuck:
                continue
            if batch.sentences == size:
                break
        assert STUCK_INSTANCE in fed and INSTANCES_BY_LENGTH[ArcRule.LEFT][0][0] in fed
        assert_batch_matches_sentences(batch, fed, params)

    def test_batch_without_positive_loss_gives_none(self):
        empty = INSTANCES_BY_LENGTH[ArcRule.LEFT][0][0]
        params = small_params([("dog",)])
        batch = model.GradientBatch(params, 2)
        batch.add(*empty)
        batch.add(*empty)
        assert batch.run() == ([0.0, 0.0], dict.fromkeys(params.tensors))
        assert batch.sentences == 0

    @pytest.mark.parametrize("size", [1, 2, 3, 8])
    def test_one_adam_step_per_batch(self, fig_instance, monkeypatch, size):
        instances = self.batch_instances(fig_instance)   # 9 counted, 1 stuck
        monkeypatch.setattr(model, "_TRAIN_BATCH", size)
        params = small_params([inst[0] for inst in instances], seed=5)
        trainer = Trainer(params, TrainConfig(rng_seed=5))
        with mock.patch.object(trainer.optimizer, "step", wraps=trainer.optimizer.step) as step:
            for epoch in (1, 2):
                trainer.run_epoch(instances)
                assert step.call_count == epoch * math.ceil(9 / size)
        assert trainer.skipped == 2 and trainer.optimizer.t == step.call_count

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the loss is inf - inf
    @pytest.mark.parametrize("size, stuck_at, position", [(3, 1, 4), (8, 3, 3)])
    def test_non_finite_update_names_the_batch_last_sentence(self, fig_instance, monkeypatch,
                                                             size, stuck_at, position):
        monkeypatch.setattr(model, "_TRAIN_BATCH", size)
        instances = [fig_instance, INSTANCES_BY_LENGTH[ArcRule.LEFT][3][1], fig_instance]
        instances.insert(stuck_at, STUCK_INSTANCE)
        params = small_params([inst[0] for inst in instances])
        params.tensors["mlp_b2"][:] = np.inf
        trainer = Trainer(params, TrainConfig(rng_seed=0))
        with pytest.raises(ParameterNonFinite,
                           match=f"'mlp_b2'.*sentence {position} of the epoch"):
            trainer.run_epoch(instances)
        assert trainer._grads is None


class TestFloat32Training:
    """`Trainer` rounds the parameters to float32 once, as a checkpoint
    does, and every array that training makes takes their dtype."""

    def test_one_epoch_runs_in_float32(self, fig_instance):
        instances = TestTrainBatch.batch_instances(fig_instance)
        params = small_params([inst[0] for inst in instances], seed=5)
        trainer = Trainer(params, TrainConfig(rng_seed=5))
        forward, head_backward, bptt = model.encode, model._head_backward, ad.lstm_backward
        made = []   # every array that a pass returns or saves; the batch then drops them

        def encoder(*args):
            vectors, cache = forward(*args)
            states, _, ids, _, saved = cache
            assert ids.dtype == np.intp
            made.extend([*vectors, states, *(a for arrays in saved for a in arrays)])
            return vectors, cache

        def head(*args):
            drows = head_backward(*args)
            made.append(drows)
            return drows

        def lstm_backward(*args):
            dpre, dxs = bptt(*args)
            made.extend([dpre, dxs])
            return dpre, dxs

        with mock.patch.object(model, "encode", side_effect=encoder) as encoders, \
                mock.patch.object(model, "_head_backward", side_effect=head) as heads, \
                mock.patch.object(ad, "lstm_backward", side_effect=lstm_backward) as bptts, \
                mock.patch.object(model.GradientBatch, "run", autospec=True,
                                  side_effect=model.GradientBatch.run) as runs:
            trainer.run_epoch(instances)
        # 9 counted sentences in batches of 8, each batch with a positive loss;
        # one BPTT per LSTM and batch
        assert encoders.call_count == heads.call_count == runs.call_count == 2
        assert bptts.call_count == 2 * 2 * params.layers
        made += [*params.tensors.values(), *trainer.optimizer._scratch]
        made += [*trainer.optimizer.m.values(), *trainer.optimizer.v.values()]
        made += [a for call in runs.call_args_list for a in call.args[0].arrays.values()]
        assert {a.dtype for a in made} == {np.dtype(np.float32)}

    def test_float32_gradients_agree_with_float64(self):
        """On the same float32-rounded values, at the default size: each
        gradient within 1e-5 of its tensor's largest magnitude, each loss
        within 1e-6 relative."""
        wide, instances = default_size_model()
        narrow, _ = default_size_model()
        narrow.tensors = {name: t.astype(np.float32) for name, t in narrow.tensors.items()}
        wide.tensors = {name: t.astype(np.float64) for name, t in narrow.tensors.items()}
        compared = 0
        for instance in instances:
            try:
                loss64, grads64 = accumulate_gradients(*instance, wide)
            except OracleStuck:
                continue
            loss32, grads32 = accumulate_gradients(*instance, narrow)
            assert abs(loss32 - loss64) <= 1e-6 * abs(loss64)
            for name, g64 in grads64.items():
                g32 = grads32[name]
                assert g32.dtype == np.float32 and g64.dtype == np.float64, name
                assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max(), name
            compared += 1
            if compared == 10:
                break
        assert compared == 10


    def test_float32_batch_agrees_with_float64_sentences(self):
        """A float32 batch of 8 against the sum of its sentences' float64
        gradients, on the same rounded values, within the bounds above."""
        wide, instances = default_size_model()
        narrow, _ = default_size_model()
        narrow.tensors = {name: t.astype(np.float32) for name, t in narrow.tensors.items()}
        wide.tensors = {name: t.astype(np.float64) for name, t in narrow.tensors.items()}
        batch = TestLockstepBPTT.queue(instances[:8], narrow)
        losses, grads = batch.run()
        wanted = [accumulate_gradients(*instance, wide)[0] for instance in instances[:8]]
        assert all(abs(got - want) <= 1e-6 * abs(want) for got, want in zip(losses, wanted))
        for name, g64 in summed_gradients(instances[:8], wide).items():
            assert grads[name].dtype == np.float32, name
            assert np.abs(grads[name] - g64).max() <= 1e-5 * np.abs(g64).max(), name


class TestParse:
    @pytest.mark.usefixtures("per_sentence_updates")
    def test_overfit_model_recovers_gold(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=2)
        trainer = Trainer(params, TrainConfig(rng_seed=2, learning_rate=0.01,
                                              word_dropout_alpha=1e-9))
        for _ in range(250):
            trainer.train_sentence(tokens, gold, reduce_set)
        assert greedy_parse(tokens, params)[0] == gold

    def test_empty_sentence(self):
        params = small_params([("dog",)])
        assert greedy_parse([], params) == (ArcSet(0), [])
        assert parse([], params) == []

    def test_terminates_and_emits_legal_actions(self):
        records = generate_synthetic(10, seed=13)
        instances, _ = build_instances(records)
        params = small_params([i.tokens for i in instances], seed=5)
        for inst in instances:
            arcs, actions = greedy_parse(inst.tokens, params)
            assert len(actions) <= 2 * len(inst.tokens) + 1
            c = initial(len(inst.tokens))
            for a in actions:
                assert a in legal_actions(c, params.arc_rule)
                c = apply(c, a)
            assert c.arc_set() == arcs


class TestGradCheck:
    def test_small_model_matches_finite_differences(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=0)
        err = grad_check(params, (tokens, gold, reduce_set), step=1e-3)
        assert err < 1e-4

    def test_zero_loss_instance_has_zero_gradients(self):
        tokens = ("dog",)
        params = small_params([tokens], seed=0)
        # single BEGN arc; force a large margin by rigging the output bias
        gold = ArcSet(1, frozenset({Arc(2, 1, EdgeLabel.BEGN)}))
        b2 = params.tensors["mlp_b2"]
        b2[:] = -100.0
        b2[params.action_index[SHIFT]] = 100.0
        # after SHIFT the correct action is LEFT(BEGN)
        b2[params.action_index[left(EdgeLabel.BEGN)]] = 200.0
        value, grads = accumulate_gradients(tokens, gold, frozenset(), params)
        assert value == 0.0 and grads == dict.fromkeys(params.tensors)
        err = grad_check(params, (tokens, gold, frozenset()), step=1e-3)
        assert err == 0.0

    def test_nan_gradient_fails(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=0)
        original = model.accumulate_gradients

        def poisoned(*args):
            total, grads = original(*args)
            grads["mlp_b2"][0] = np.nan
            return total, grads

        with mock.patch.object(model, "accumulate_gradients", poisoned):
            assert grad_check(params, (tokens, gold, reduce_set)) == math.inf

    def test_float32_parameters_rejected(self, fig_instance):
        params = small_params([fig_instance[0]], seed=0)
        Trainer(params)   # training rounds the parameters to float32
        with pytest.raises(ValueError, match="needs float64 parameters, and tensor "
                                             "'embeddings' is float32"):
            grad_check(params, fig_instance)

    def test_corrupted_gradient_detected(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=0)
        _, grads = accumulate_gradients(tokens, gold, reduce_set, params)
        name, index = max(
            ((n, int(np.argmax(np.abs(g)))) for n, g in grads.items() if g is not None),
            key=lambda pair: abs(grads[pair[0]].reshape(-1)[pair[1]]),
        )
        err = grad_check(params, (tokens, gold, reduce_set), step=1e-3,
                         negate_grad_of=(name, index))
        assert err > 1e-2


def reference_adam_step(opt, grads):
    """The whole-tensor update that the blocked `Adam.step` replaced."""
    opt.t += 1
    for name, p in opt.params.items():
        g = grads[name] if grads[name] is not None else 0.0
        b1, b2 = model._BETA1, model._BETA2
        opt.m[name] = b1 * opt.m[name] + (1.0 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1.0 - b2) * np.square(g)
        m_hat = opt.m[name] / (1.0 - b1 ** opt.t)
        v_hat = opt.v[name] / (1.0 - b2 ** opt.t)
        p -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


class TestAdam:
    def test_blocked_step_matches_whole_tensor_reference(self):
        block = model._ADAM_BLOCK
        shapes = {"never_grad": (6,), "small": (3, 5), "one_block": (block,),
                  "ragged": (2 * block + 123,), "gaps": (4, 7)}
        rng = np.random.default_rng(3)
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        blocked = {name: data.copy() for name, data in start.items()}
        whole = {name: data.copy() for name, data in start.items()}
        opt = Adam(blocked, lr=0.01, eps=1e-3)
        ref = Adam(whole, lr=0.01, eps=1e-3)
        for step in range(5):
            grads = {}
            for name, shape in shapes.items():
                # "gaps" has a gradient on even steps only, so its moments
                # decay with no gradient while they are nonzero
                none = name == "never_grad" or (name == "gaps" and step % 2)
                grads[name] = (None if none else
                               rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3))
            opt.step({name: None if g is None else g.copy() for name, g in grads.items()})
            reference_adam_step(ref, grads)
            for name in shapes:
                assert np.array_equal(blocked[name], whole[name]), name
                assert np.array_equal(opt.m[name], ref.m[name]), name
                assert np.array_equal(opt.v[name], ref.v[name]), name
        assert not np.array_equal(blocked["gaps"], start["gaps"])

    def test_non_finite_update_names_the_tensor(self):
        opt = Adam({"a": np.ones(3), "b": np.ones(4)}, lr=0.1)
        grads = {"a": np.ones(3), "b": np.array([0.0, np.inf, 0.0, 0.0])}
        with pytest.raises(ParameterNonFinite, match="'b'"):
            opt.step(grads)

    def test_value_beyond_float32_range_is_non_finite(self):
        # finite in float64, but a checkpoint would store it as infinite
        opt = Adam({"a": np.ones(3)}, lr=1e300)
        with pytest.raises(ParameterNonFinite, match="'a' became non-finite at Adam step 1"):
            opt.step({"a": np.ones(3)})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the loss is inf - inf
    def test_trainer_adds_the_sentence_position(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens])
        # every gradient stays finite; the infinite bias fails its own update
        params.tensors["mlp_b2"][:] = np.inf
        trainer = Trainer(params, TrainConfig(rng_seed=0))
        with pytest.raises(ParameterNonFinite, match="'mlp_b2'.*sentence 2 of the epoch"):
            trainer.run_epoch([STUCK_INSTANCE, (tokens, gold, reduce_set)])
        assert trainer.skipped == 1

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal(4)
        g = rng.standard_normal(4)
        start = p.copy()
        opt = Adam({"p": p}, lr=0.1, eps=0.01)
        opt.step({"p": g.copy()})
        m = 0.1 * g
        v = 0.001 * g * g
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = start - 0.1 * m_hat / (np.sqrt(v_hat) + 0.01)
        assert np.allclose(p, expected)

    def test_step_without_gradients_is_noop_at_start(self):
        p = np.ones(3)
        opt = Adam({"p": p}, lr=0.1)
        opt.step({"p": None})
        assert np.array_equal(p, np.ones(3))


class TestCheckpoint:
    @pytest.mark.usefixtures("per_sentence_updates")
    def test_round_trip(self, fig_instance, tmp_path):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=4)
        trainer = Trainer(params, TrainConfig(rng_seed=4))
        for _ in range(3):
            trainer.train_sentence(tokens, gold, reduce_set)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, rng_seed=4)
        loaded, header = load_checkpoint(path)
        assert header["rng_seed"] == 4
        assert loaded.vocab.words == params.vocab.words
        assert loaded.arc_rule == params.arc_rule
        for name, t in params.tensors.items():
            # payload is float32, so compare at that precision
            assert np.allclose(loaded.tensors[name], t, atol=1e-6)
        assert parse([tokens], loaded) == parse([tokens], params)

    @pytest.mark.usefixtures("per_sentence_updates")
    def test_streamed_bytes_equal_the_joined_payload(self, fig_instance, tmp_path):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=4)
        trainer = Trainer(params, TrainConfig(rng_seed=4))
        for _ in range(3):
            trainer.train_sentence(tokens, gold, reduce_set)
        path, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
        save_checkpoint(params, path, rng_seed=4)
        loaded, header = load_checkpoint(path)
        names = sorted(params.tensors)
        blob = json.dumps(header, ensure_ascii=True, separators=(",", ":")).encode("utf-8") + b"\n"
        payload = b"".join(params.tensors[name].astype("<f4").tobytes() for name in names)
        assert path.read_bytes() == blob + payload
        for name in names:
            assert loaded.tensors[name].tobytes() == params.tensors[name].astype("<f4").tobytes()
        save_checkpoint(loaded, again, rng_seed=4)
        assert again.read_bytes() == blob + payload

    def test_save_holds_one_tensor_copy_at_a_time(self, tmp_path):
        params, _ = default_size_model()
        peak = traced_peak(lambda: save_checkpoint(params, tmp_path / "model.ckpt"))
        assert peak < 2 * 4 * max(t.size for t in params.tensors.values())

    def test_header_is_self_describing(self, tmp_path):
        params = small_params([("dog",)])
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, rng_seed=0)
        header_line = path.read_bytes().split(b"\n", 1)[0].decode("utf-8")
        import json

        header = json.loads(header_line)
        assert header["format_version"] == 1
        assert {"emb_dim", "hidden", "mlp_hidden", "layers"} <= set(header["dims"])
        assert [w for w, _ in header["vocab"]][:3] == ["<unk>", "<root>", "<pad>"]
        assert all(isinstance(shape, list) for _, shape in header["tensors"])


class TestWordDropout:
    def test_rare_words_replaced_deterministically(self):
        tokens = ("dog",)
        params = small_params([tokens])
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        va, _ = encode_one(["dog"], params, rng=rng_a, dropout_alpha=1e9)
        # with an enormous alpha the word always drops to UNK
        unk_only, _ = encode_one(["zebra"], params, rng=rng_b, dropout_alpha=1e9)
        assert np.allclose(va[0], unk_only[0])

    def test_no_rng_no_dropout(self):
        params = small_params([("dog",)])
        kept, _ = encode_one(["dog"], params, dropout_alpha=1e9)
        unk_only, _ = encode_one(["zebra"], params, dropout_alpha=1e9)
        assert not np.allclose(kept[0], unk_only[0])

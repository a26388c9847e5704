import numpy as np
import pytest

from sgparse import autodiff as ad
from sgparse.align import align, derive_gold, tokenize
from sgparse.corpus import build_instances, generate_synthetic
from sgparse.graph import Arc, ArcRule, ArcSet, EdgeLabel, SceneGraph
from sgparse.model import (
    Adam,
    ModelParams,
    TrainConfig,
    Trainer,
    Vocab,
    encode,
    feature,
    grad_check,
    greedy_parse,
    load_checkpoint,
    parse,
    save_checkpoint,
    score,
    sentence_pass,
    step_loss,
)
from sgparse.transition import (
    REDUCE,
    SHIFT,
    initial,
    inventory,
    left,
    legal_actions,
    apply,
)


def small_params(tokens_groups, seed=0, rule=ArcRule.LEFT):
    vocab = Vocab.from_sentences(tokens_groups)
    return ModelParams(vocab, rule, emb_dim=12, hidden=8, mlp_hidden=4, seed=seed)


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
    gold, reduce_set = derive_gold(al, graph, ArcRule.LEFT, len(tokens))
    return tokens, gold, reduce_set


class TestVocab:
    def test_reserved_entries_first(self):
        vocab = Vocab.from_sentences([("dog", "cat", "dog")])
        assert vocab.words[:3] == ("<unk>", "<root>", "<pad>")
        assert vocab.count("dog") == 2
        assert vocab.id("zebra") == 0  # unknown words map to UNK


class TestEncode:
    def test_single_token_dimensions(self):
        params = small_params([("dog",)])
        vectors = encode(["dog"], params)
        assert len(vectors) == 2  # token + ROOT
        assert all(v.data.shape == (16,) for v in vectors)

    def test_default_dimensions(self):
        vocab = Vocab.from_sentences([("dog",)])
        params = ModelParams(vocab, ArcRule.LEFT, seed=0)
        vectors = encode(["dog"], params)
        assert vectors[0].data.shape == (512,)

    def test_empty_sentence_gives_root_only(self):
        params = small_params([("dog",)])
        assert len(encode([], params)) == 1

    def test_context_sensitivity(self):
        words = ("a", "b", "c", "d", "e")
        params = small_params([words], seed=3)
        forward = encode(list(words), params)
        backward = encode(list(reversed(words)), params)
        # token "c" sits at index 2 both times but its context differs
        assert not np.allclose(forward[2].data, backward[2].data)


class TestFeature:
    def test_initial_uses_pad_slots(self):
        params = small_params([("a", "b", "c", "d", "e", "f", "g")])
        vectors = encode(list("abcdefg"), params)
        feat = feature(initial(7), vectors, params).data
        pad = params.tensors["pad"].data
        d = params.d_ctx
        assert np.array_equal(feat[:d], pad)
        assert np.array_equal(feat[d:2 * d], pad)
        assert np.array_equal(feat[2 * d:3 * d], pad)
        assert np.array_equal(feat[3 * d:], vectors[0].data)

    def test_stack_and_buffer_slots(self):
        params = small_params([("a", "b", "c", "d", "e", "f", "g")])
        vectors = encode(list("abcdefg"), params)
        c = initial(7)
        config = c.__class__(7, (2, 5, 7), (8,), frozenset())
        feat = feature(config, vectors, params).data
        d = params.d_ctx
        assert np.array_equal(feat[:d], vectors[1].data)       # token 2
        assert np.array_equal(feat[d:2 * d], vectors[4].data)  # token 5
        assert np.array_equal(feat[2 * d:3 * d], vectors[6].data)  # token 7
        assert np.array_equal(feat[3 * d:], vectors[7].data)   # ROOT

    def test_deep_stack_keeps_top_three(self):
        params = small_params([("a", "b", "c", "d", "e", "f", "g")])
        vectors = encode(list("abcdefg"), params)
        config = initial(7).__class__(7, (1, 2, 3, 4, 5), (6, 7, 8), frozenset())
        feat = feature(config, vectors, params).data
        d = params.d_ctx
        assert np.array_equal(feat[:d], vectors[2].data)  # token 3, not 1


class TestScore:
    def test_zero_weights_zero_scores(self):
        params = small_params([("dog",)])
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            params.tensors[name].data[:] = 0.0
        vectors = encode(["dog"], params)
        out = score(feature(initial(1), vectors, params), params)
        assert np.array_equal(out.data, np.zeros(len(params.actions)))

    def test_hand_computed_two_by_two(self):
        w1 = np.array([[1.0, 0.0], [0.0, -1.0]])
        b1 = np.array([0.0, 0.1])
        w2 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b2 = np.array([0.01, -0.02])
        x = np.array([0.5, 0.25])
        hidden = np.tanh(w1 @ x + b1)
        expected = w2 @ hidden + b2
        out = ad.add(ad.matvec(ad.tensor(w2), ad.tanh(
            ad.add(ad.matvec(ad.tensor(w1), ad.tensor(x)), ad.tensor(b1)))), ad.tensor(b2))
        assert np.allclose(out.data, expected)

    def test_doubling_output_weights_doubles_scores(self):
        params = small_params([("dog", "cat")])
        vectors = encode(["dog", "cat"], params)
        feat = feature(initial(2), vectors, params)
        base = score(feat, params).data.copy()
        params.tensors["mlp_w2"].data *= 2.0
        params.tensors["mlp_b2"].data *= 2.0
        assert np.allclose(score(feat, params).data, 2.0 * base)


class TestStepLoss:
    def setup_method(self):
        self.actions = inventory(ArcRule.LEFT)
        self.index = {a: i for i, a in enumerate(self.actions)}

    def make_scores(self, mapping, default=-1.0):
        data = np.full(len(self.actions), default)
        for action, value in mapping.items():
            data[self.index[action]] = value
        return ad.tensor(data)

    def test_direct_substitution(self):
        scores = self.make_scores({SHIFT: 0.2, left(EdgeLabel.ATTR): 0.5})
        legal = frozenset(self.actions)
        value, term = step_loss(scores, frozenset({SHIFT}), legal, self.index)
        assert value == pytest.approx(1.0 - 0.2 + 0.5)
        assert term is not None

    def test_hinge_region_zero(self):
        scores = self.make_scores({SHIFT: 2.0})
        value, term = step_loss(scores, frozenset({SHIFT}), frozenset(self.actions), self.index)
        assert value == 0.0 and term is None

    def test_reduce_margin_is_two(self):
        scores = self.make_scores({REDUCE: 0.0, SHIFT: 0.0})
        value, _ = step_loss(scores, frozenset({REDUCE}), frozenset({REDUCE, SHIFT}), self.index)
        assert value == pytest.approx(2.0)

    def test_all_legal_correct_is_zero(self):
        scores = self.make_scores({SHIFT: -5.0})
        value, term = step_loss(scores, frozenset({SHIFT}), frozenset({SHIFT}), self.index)
        assert value == 0.0 and term is None

    def test_empty_y_plus_rejected(self):
        scores = self.make_scores({})
        with pytest.raises(ValueError):
            step_loss(scores, frozenset(), frozenset({SHIFT}), self.index)

    def test_zero_loss_implies_margin_satisfied(self):
        rng = np.random.default_rng(9)
        legal = frozenset(self.actions)
        for _ in range(200):
            scores = ad.tensor(rng.standard_normal(len(self.actions)) * 2)
            y_plus = frozenset({REDUCE}) if rng.random() < 0.3 else frozenset({SHIFT})
            value, _ = step_loss(scores, y_plus, legal, self.index)
            if value == 0.0:
                margin = 2.0 if y_plus == frozenset({REDUCE}) else 1.0
                best_correct = max(scores.data[self.index[a]] for a in y_plus)
                for a in legal - y_plus:
                    assert best_correct >= scores.data[self.index[a]] + margin


class TestTrainSentence:
    def test_step_count_matches_action_count(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens])
        _, _, steps = sentence_pass(tokens, gold, reduce_set, params)
        assert steps == 14

    def test_all_tokens_unaligned_terminates(self):
        tokens = ("foo", "bar", "baz")
        params = small_params([tokens])
        gold = ArcSet(3)
        reduce_set = frozenset({1, 2, 3})
        trainer = Trainer(params, TrainConfig(rng_seed=0))
        loss = trainer.train_sentence(tokens, gold, reduce_set)
        assert np.isfinite(loss)

    def test_loss_reaches_zero_on_repeated_updates(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=1)
        trainer = Trainer(params, TrainConfig(rng_seed=1, learning_rate=0.01,
                                              word_dropout_alpha=1e-9))
        losses = [trainer.train_sentence(tokens, gold, reduce_set) for _ in range(250)]
        assert losses[-1] < 0.05
        assert params.finite()

    def test_unreachable_gold_skipped_and_counted(self):
        # crossing arcs make the gold unreachable for the oracle
        tokens = ("a", "b", "c", "d")
        gold = ArcSet(4, frozenset({
            Arc(1, 3, EdgeLabel.OBJT), Arc(4, 2, EdgeLabel.ATTR),
            Arc(5, 1, EdgeLabel.BEGN), Arc(5, 4, EdgeLabel.BEGN),
        }))
        params = small_params([tokens])
        trainer = Trainer(params, TrainConfig(rng_seed=0))
        mean = trainer.run_epoch([(tokens, gold, frozenset())])
        assert trainer.skipped == 1
        assert mean == 0.0

    def test_identical_seeds_identical_parameters(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        results = []
        for _ in range(2):
            params = small_params([tokens], seed=7)
            trainer = Trainer(params, TrainConfig(rng_seed=7))
            for _ in range(5):
                trainer.train_sentence(tokens, gold, reduce_set)
            results.append({k: t.data.copy() for k, t in params.parameters().items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])


class TestParse:
    def test_overfit_model_recovers_gold(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=2)
        trainer = Trainer(params, TrainConfig(rng_seed=2, learning_rate=0.01,
                                              word_dropout_alpha=1e-9))
        for _ in range(250):
            trainer.train_sentence(tokens, gold, reduce_set)
        assert parse(tokens, params) == gold

    def test_empty_sentence(self):
        params = small_params([("dog",)])
        assert parse([], params) == ArcSet(0)

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
        b2 = params.tensors["mlp_b2"].data
        b2[:] = -100.0
        b2[params.action_index[SHIFT]] = 100.0
        # after SHIFT the correct action is LEFT(BEGN)
        b2[params.action_index[left(EdgeLabel.BEGN)]] = 200.0
        value, terms, _ = sentence_pass(tokens, gold, frozenset(), params)
        assert value == 0.0 and not terms
        err = grad_check(params, (tokens, gold, frozenset()), step=1e-3)
        assert err == 0.0

    def test_corrupted_gradient_detected(self, fig_instance):
        tokens, gold, reduce_set = fig_instance
        params = small_params([tokens], seed=0)
        for t in params.parameters().values():
            t.grad = None
        _, terms, _ = sentence_pass(tokens, gold, reduce_set, params)
        ad.backward(ad.addsum(terms))
        name, index = max(
            ((n, int(np.argmax(np.abs(t.grad)))) for n, t in params.parameters().items()
             if t.grad is not None),
            key=lambda pair: abs(params.parameters()[pair[0]].grad.reshape(-1)[pair[1]]),
        )
        for t in params.parameters().values():
            t.grad = None
        err = grad_check(params, (tokens, gold, reduce_set), step=1e-3,
                         negate_grad_of=(name, index))
        assert err > 1e-2


class TestAdam:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        p = ad.tensor(rng.standard_normal(4))
        g = rng.standard_normal(4)
        start = p.data.copy()
        opt = Adam({"p": p}, lr=0.1, beta1=0.9, beta2=0.999, eps=0.01)
        p.grad = g.copy()
        opt.step()
        m = 0.1 * g
        v = 0.001 * g * g
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = start - 0.1 * m_hat / (np.sqrt(v_hat) + 0.01)
        assert np.allclose(p.data, expected)

    def test_step_without_gradients_is_noop_at_start(self):
        p = ad.tensor(np.ones(3))
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.ones(3))


class TestCheckpoint:
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
        for name, t in params.parameters().items():
            # payload is float32, so compare at that precision
            assert np.allclose(loaded.tensors[name].data, t.data, atol=1e-6)
        assert parse(tokens, loaded) == parse(tokens, params)

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
        va = encode(["dog"], params, train_mode=True, rng=rng_a, dropout_alpha=1e9)
        # with an enormous alpha the word always drops to UNK
        unk_only = encode(["zebra"], params, train_mode=True, rng=rng_b, dropout_alpha=1e9)
        assert np.allclose(va[0].data, unk_only[0].data)

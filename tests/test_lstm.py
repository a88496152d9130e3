import numpy as np
import pytest

from nextaction import evaluation, lstm
from nextaction.errors import ConfigError, NextactionError, NumericalFaultError
from nextaction.ingest import Corpus, StudentSequence


def tiny_net(seed=0, vocab=7, emb=5, hidden=6, layers=2, dropout=0.0, window=9, cell="lstm"):
    rng = np.random.default_rng([seed, 0xEE])
    return lstm.init_network(vocab, emb, hidden, layers, dropout, window, cell, rng)


def cycle_corpus(n_students=10, length=30, period=3):
    seqs = [
        StudentSequence(f"s{i}", [(j + i) % period for j in range(length)], True)
        for i in range(n_students)
    ]
    return Corpus(vocabulary=None, sequences=seqs, vocab_size=period)


def straight_line_cell(params, x, h_prev, c_prev):
    """Independent transcription of the cell update for cross-checking."""
    def logistic(v):
        return 1.0 / (1.0 + np.exp(-v))

    f = logistic(params.W_fx.dot(x) + params.W_fh.dot(h_prev) + params.b_f)
    i = logistic(params.W_ix.dot(x) + params.W_ih.dot(h_prev) + params.b_i)
    g = np.tanh(params.W_Cx.dot(x) + params.W_Ch.dot(h_prev) + params.b_C)
    c = f * c_prev + i * g
    o = logistic(params.W_ox.dot(x) + params.W_oh.dot(h_prev) + params.b_o)
    return o * np.tanh(c), c


class TestForwardCell:
    def test_all_zero_parameters(self):
        hidden, d = 4, 3
        params = lstm.LstmLayerParams(*[
            np.zeros((hidden, d)) if name.endswith("x") else
            np.zeros((hidden, hidden)) if name.startswith("W") else np.zeros(hidden)
            for name in lstm.LSTM_TENSORS
        ])
        prev = lstm.LstmLayerState(h=np.zeros(hidden), C=np.zeros(hidden))
        state = lstm.forward_cell(params, np.zeros(d), prev)
        assert np.allclose(state.f, 0.5)
        assert np.allclose(state.i, 0.5)
        assert np.allclose(state.o, 0.5)
        assert np.allclose(state.c_tilde, 0.0)
        assert np.allclose(state.C, 0.0)
        assert np.allclose(state.h, 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        hidden, d = 4, 3
        tensors = {}
        for name in lstm.LSTM_TENSORS:
            if name.endswith("x"):
                tensors[name] = np.zeros((hidden, d))
            elif name.startswith("W"):
                tensors[name] = np.zeros((hidden, hidden))
            else:
                tensors[name] = np.zeros(hidden)
        tensors["b_f"] = np.full(hidden, 30.0)
        params = lstm.LstmLayerParams(**tensors)
        c_prev = np.array([0.3, -0.7, 1.1, 0.0])
        prev = lstm.LstmLayerState(h=np.zeros(hidden), C=c_prev)
        state = lstm.forward_cell(params, np.zeros(d), prev)
        assert np.allclose(state.C, c_prev, atol=1e-12)

    def test_matches_straight_line_transcription(self):
        rng = np.random.default_rng(13)
        net = tiny_net(seed=13, vocab=5, emb=3, hidden=3, layers=1)
        params = net.layers[0]
        x = rng.normal(size=3)
        h_prev = rng.normal(size=3) * 0.5
        c_prev = rng.normal(size=3) * 0.5
        state = lstm.forward_cell(params, x, lstm.LstmLayerState(h=h_prev, C=c_prev))
        h_ref, c_ref = straight_line_cell(params, x, h_prev, c_prev)
        assert np.max(np.abs(state.h - h_ref)) <= 1e-12 * max(1.0, np.max(np.abs(h_ref)))
        assert np.max(np.abs(state.C - c_ref)) <= 1e-12 * max(1.0, np.max(np.abs(c_ref)))

    def test_non_finite_input_rejected(self):
        net = tiny_net(vocab=5, emb=3, hidden=3, layers=1)
        prev = lstm.LstmLayerState(h=np.zeros(3), C=np.zeros(3))
        with pytest.raises(NumericalFaultError):
            lstm.forward_cell(net.layers[0], np.array([np.nan, 0, 0]), prev)

    def test_gate_ranges(self):
        rng = np.random.default_rng(14)
        net = tiny_net(seed=14, vocab=6, emb=4, hidden=5, layers=1)
        prev = lstm.LstmLayerState(h=np.zeros(5), C=np.zeros(5))
        for _ in range(20):
            state = lstm.forward_cell(net.layers[0], rng.normal(size=4), prev)
            for gate in (state.f, state.i, state.o):
                assert np.all(gate > 0) and np.all(gate < 1)
            assert np.all(state.c_tilde > -1) and np.all(state.c_tilde < 1)
            prev = state


class TestForwardSequence:
    def test_distributions_normalized_with_v_entries(self):
        net = tiny_net(seed=1)
        probs, _ = lstm.forward_sequence(net, [0, 1, 2, 3])
        assert probs.shape == (1, 4, 7)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_zero_dropout_train_equals_infer(self):
        net = tiny_net(seed=2, dropout=0.0)
        rng = np.random.default_rng(0)
        train_probs, _ = lstm.forward_sequence(net, [0, 1, 2], train=True, rng=rng)
        infer_probs, _ = lstm.forward_sequence(net, [0, 1, 2], train=False)
        assert np.array_equal(train_probs, infer_probs)

    def test_single_layer_matches_iterated_cell(self):
        net = tiny_net(seed=3, layers=1)
        ids = [1, 4, 2, 0]
        probs, _ = lstm.forward_sequence(net, ids)
        state = lstm.LstmLayerState(h=np.zeros(net.hidden_size), C=np.zeros(net.hidden_size))
        for t, action in enumerate(ids):
            state = lstm.forward_cell(net.layers[0], net.embedding[action], state)
            logits = net.W_y @ state.h + net.b_y
            ref = np.exp(logits - logits.max())
            ref /= ref.sum()
            assert np.allclose(probs[0, t], ref, atol=1e-12)

    def test_rejects_out_of_range_ids(self):
        net = tiny_net(seed=4)
        with pytest.raises(NextactionError):
            lstm.forward_sequence(net, [0, 99])

    def test_rejects_window_overflow(self):
        net = tiny_net(seed=4, window=3)
        with pytest.raises(ConfigError):
            lstm.forward_sequence(net, [0, 1, 2, 3])

    def test_state_isolation_across_batch(self):
        net = tiny_net(seed=5)
        a = np.array([0, 1, 2, 3])
        b = np.array([6, 5, 4, 3])
        batched, _ = lstm.forward_sequence(net, np.stack([a, b]))
        alone_a, _ = lstm.forward_sequence(net, a)
        alone_b, _ = lstm.forward_sequence(net, b)
        assert np.allclose(batched[0], alone_a[0], atol=1e-12)
        assert np.allclose(batched[1], alone_b[0], atol=1e-12)

    def test_infer_mode_is_pure(self):
        net = tiny_net(seed=6, dropout=0.5)
        p1, _ = lstm.forward_sequence(net, [0, 1, 2])
        p2, _ = lstm.forward_sequence(net, [0, 1, 2])
        assert np.array_equal(p1, p2)

    def test_train_mode_gate_ranges(self):
        net = tiny_net(seed=7)
        _, cache = lstm.forward_sequence(net, [0, 1, 2, 3, 4], train=True)
        for layer_cache in cache["layers"]:
            for gate in ("f", "i", "o"):
                vals = layer_cache[gate]
                assert np.all(vals > 0) and np.all(vals < 1)
            ct = layer_cache["c_tilde"]
            assert np.all(ct > -1) and np.all(ct < 1)


class TestLoss:
    def test_uniform_distribution(self):
        probs = np.full((3, 4), 0.25)
        assert lstm.loss(probs, [0, 3, 2]) == pytest.approx(np.log(4))

    def test_certain_prediction(self):
        probs = np.zeros((2, 4))
        probs[:, 1] = 1.0
        assert lstm.loss(probs, [1, 1]) == 0.0

    def test_batch_is_mean_of_window_losses(self):
        rng = np.random.default_rng(20)
        probs = rng.dirichlet(np.ones(5), size=(2, 3))
        targets = rng.integers(0, 5, size=(2, 3))
        batch = lstm.loss(probs, targets)
        singles = [lstm.loss(probs[b], targets[b]) for b in range(2)]
        assert batch == pytest.approx(np.mean(singles))

    def test_floor_applies(self):
        probs = np.zeros((1, 3))
        probs[0, 0] = 1.0
        value = lstm.loss(probs, [2])
        assert value == pytest.approx(-np.log(1e-12))


def relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestBackward:
    @pytest.mark.parametrize("cell", ["lstm", "rnn"])
    def test_matches_finite_differences(self, cell):
        rng = np.random.default_rng([77, 1 if cell == "rnn" else 0])
        net = tiny_net(seed=77, cell=cell)
        ids = rng.integers(0, 7, size=9)
        targets = rng.integers(0, 7, size=9)
        _, cache = lstm.forward_sequence(net, ids, train=True, rng=rng)
        analytic = lstm.backward(net, cache, targets)
        numeric = lstm.finite_difference_gradients(net, ids, targets, step=1e-5)
        for name in analytic:
            assert relative_error(analytic[name], numeric[name]) <= 1e-4, name

    def test_output_bias_identity(self):
        net = tiny_net(seed=8)
        ids = np.array([0, 1, 2, 3, 4])
        targets = np.array([1, 2, 3, 4, 5])
        probs, cache = lstm.forward_sequence(net, ids, train=True)
        grads = lstm.backward(net, cache, targets)
        onehot = np.zeros((5, 7))
        onehot[np.arange(5), targets] = 1.0
        expected = (probs[0] - onehot).mean(axis=0)
        assert np.allclose(grads["output.b_y"], expected, atol=1e-12)

    def test_dropout_masked_unit_gets_zero_gradient(self):
        net = tiny_net(seed=9, dropout=0.4)
        ids = np.array([[0, 1, 2, 3]])
        targets = np.array([[1, 2, 3, 4]])
        mask = np.ones((1, 4, net.hidden_size)) / (1 - net.dropout_rate)
        mask[:, :, 2] = 0.0  # silence hidden unit 2 between the layers
        _, cache = lstm.forward_sequence(net, ids, train=True, dropout_masks=[mask])
        grads = lstm.backward(net, cache, targets)
        for gate in ("f", "i", "C", "o"):
            assert np.allclose(grads[f"layer1.W_{gate}x"][:, 2], 0.0)

    def test_pad_steps_contribute_nothing(self):
        net = tiny_net(seed=10)
        pad = net.pad_id
        short = np.array([[3, 1]])
        padded = np.array([[3, 1, pad, pad]])
        t_short = np.array([[1, 4]])
        t_padded = np.array([[1, 4, pad, pad]])
        _, cache_s = lstm.forward_sequence(net, short, train=True)
        _, cache_p = lstm.forward_sequence(net, padded, train=True)
        g_s = lstm.backward(net, cache_s, t_short)
        g_p = lstm.backward(net, cache_p, t_padded, t_padded != pad)
        for name in g_s:
            assert np.allclose(g_s[name], g_p[name], atol=1e-12), name
        assert np.allclose(g_p["embedding"][pad], 0.0)

    def test_missing_cache_rejected(self):
        net = tiny_net(seed=11)
        with pytest.raises(NextactionError):
            lstm.backward(net, {}, [0])


class TestRmsprop:
    def test_first_step_value(self):
        param = np.array([1.0])
        grad = np.array([1.0])
        accum = np.array([0.0])
        lstm.rmsprop_step(param, grad, accum, learning_rate=0.5, decay=0.9, epsilon=1e-8)
        assert accum[0] == pytest.approx(0.1)
        assert param[0] - 1.0 == pytest.approx(-0.5 / (np.sqrt(0.1) + 1e-8))

    def test_zero_gradient_leaves_parameters(self):
        param = np.array([1.0, -2.0])
        accum = np.zeros(2)
        lstm.rmsprop_step(param, np.zeros(2), accum, learning_rate=0.1)
        assert np.array_equal(param, [1.0, -2.0])

    def test_equal_histories_give_equal_updates(self):
        param = np.array([0.3, 0.3])
        accum = np.zeros(2)
        for _ in range(5):
            lstm.rmsprop_step(param, np.array([0.2, 0.2]), accum, learning_rate=0.05)
        assert param[0] == param[1]


class TestTraining:
    def test_deterministic_cycle_reaches_perfect_hill_climb(self):
        cfg = lstm.TrainConfig(
            learning_rate=0.01, epochs=30, window=5, batch_size=8,
            dropout_rate=0.0, seed=3, hidden_size=16, layers=1, embedding_dim=8,
        )
        net, curve = lstm.train(cycle_corpus(), cfg)
        assert any(s.hillclimb_accuracy >= 1.0 for s in curve)
        assert lstm.predict_next(net, [0])[0] == 1
        assert lstm.predict_next(net, [1])[0] == 2

    def test_fixed_seed_bit_identical_checkpoints(self, tmp_path):
        cfg = lstm.TrainConfig(epochs=3, window=5, batch_size=4, seed=21,
                               hidden_size=8, layers=2, embedding_dim=6,
                               dropout_rate=0.2)
        blobs = []
        for run in range(2):
            net, _ = lstm.train(cycle_corpus(n_students=6, length=18), cfg)
            path = tmp_path / f"run{run}.nlstm"
            lstm.save_checkpoint(net, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_loss_descends_on_cycle_corpus(self):
        descents = 0
        for seed in range(20):
            cfg = lstm.TrainConfig(
                learning_rate=0.01, epochs=10, window=5, batch_size=8,
                dropout_rate=0.0, seed=seed, hidden_size=8, layers=1,
                embedding_dim=6,
            )
            _, curve = lstm.train(cycle_corpus(n_students=6, length=18), cfg)
            descents += curve[-1].train_loss < curve[0].train_loss
        assert descents >= 19

    def test_curve_has_one_row_per_epoch(self):
        cfg = lstm.TrainConfig(epochs=4, window=5, batch_size=4, seed=0,
                               hidden_size=8, layers=1, embedding_dim=6)
        _, curve = lstm.train(cycle_corpus(n_students=5, length=12), cfg)
        assert [s.epoch for s in curve] == [1, 2, 3, 4]
        assert all(np.isfinite(s.train_loss) for s in curve)


class TestPrediction:
    def test_zero_output_weights_tie_break_to_lowest_id(self):
        net = tiny_net(seed=15)
        net.W_y[:] = 0.0
        net.b_y[:] = 0.0
        predicted, dist = lstm.predict_next(net, [3, 2])
        assert predicted == 0
        assert np.allclose(dist, 1.0 / net.vocab_size)

    def test_distribution_sums_to_one(self):
        net = tiny_net(seed=16)
        _, dist = lstm.predict_next(net, [1, 2, 3])
        assert abs(dist.sum() - 1.0) <= 1e-9

    def test_empty_context_rejected(self):
        net = tiny_net(seed=17)
        with pytest.raises(NextactionError):
            lstm.predict_next(net, [])

    def test_context_clipped_to_window(self):
        net = tiny_net(seed=18, window=4)
        rng = np.random.default_rng(0)
        context = rng.integers(0, 7, size=12).tolist()
        full = lstm.predict_next(net, context)
        clipped = lstm.predict_next(net, context[-4:])
        assert full[0] == clipped[0]
        assert np.array_equal(full[1], clipped[1])


class TestCheckpoint:
    def test_round_trip_preserves_parameters_and_predictions(self, tmp_path):
        net = tiny_net(seed=22, layers=2)
        path = tmp_path / "model.nlstm"
        lstm.save_checkpoint(net, path)
        assert path.read_bytes().startswith(b"NLSTM1")
        manifest = (tmp_path / "model.nlstm.manifest.txt").read_text()
        assert "window: 9" in manifest
        loaded = lstm.load_checkpoint(path)
        assert loaded.window == net.window
        for (name_a, a), (name_b, b) in zip(net.param_items(), loaded.param_items()):
            assert name_a == name_b
            assert np.array_equal(a, b)
        context = [0, 1, 2]
        assert lstm.predict_next(net, context)[0] == lstm.predict_next(loaded, context)[0]

    def test_rnn_checkpoint_round_trip(self, tmp_path):
        net = tiny_net(seed=23, cell="rnn", layers=2)
        path = tmp_path / "model.nlstm"
        lstm.save_checkpoint(net, path)
        loaded = lstm.load_checkpoint(path)
        assert loaded.cell == "rnn"
        probs_a, _ = lstm.forward_sequence(net, [0, 1, 2])
        probs_b, _ = lstm.forward_sequence(loaded, [0, 1, 2])
        assert np.array_equal(probs_a, probs_b)


class TestGridSearch:
    def test_shape_of_desk_scale_grid(self):
        corpus = cycle_corpus(n_students=10, length=24)
        plan = evaluation.make_folds(corpus.student_ids(), 5, seed=1)
        base = lstm.TrainConfig(epochs=1, window=5, batch_size=8, seed=2,
                                embedding_dim=6, dropout_rate=0.0)
        results = lstm.grid_search(
            corpus, [(l, n, 0.01) for l in (1, 2) for n in (16, 32)], plan, base
        )
        assert len(results) == 4
        for cfg, report in results:
            assert len(report.per_fold_accuracy) == 5
        accs = [report.cv_accuracy for _, report in results]
        assert accs == sorted(accs, reverse=True)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for bad in (
            dict(learning_rate=0.0),
            dict(window=0),
            dict(layers=4),
            dict(dropout_rate=1.0),
            dict(cell="gru"),
            dict(epochs=0),
        ):
            with pytest.raises(ConfigError):
                lstm.TrainConfig(**bad).validate()

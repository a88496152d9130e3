import hashlib
import struct
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    LstmLayerState, actions_pos, corpus_of, finite_difference_gradients, forward_cell,
    frozen_backward, frozen_forward_sequence, frozen_run_layers, lstm_predict_next, mutated,
    naive_sigmoid,
)
from nextaction import evaluation, lstm
from nextaction.errors import (
    ConfigError, MalformedRecordError, NextactionError, NumericalFaultError,
)
from nextaction.ingest import StudentSequence


def tiny_net(seed=0, vocab=7, emb=5, hidden=6, layers=2, dropout=0.0, window=9, cell="lstm"):
    rng = np.random.default_rng([seed, 0xEE])
    return lstm.init_network(vocab, emb, hidden, layers, dropout, window, cell, rng)


def cycle_corpus(n_students=10, length=30, period=3):
    seqs = [
        StudentSequence(f"s{i}", [(j + i) % period for j in range(length)], True)
        for i in range(n_students)
    ]
    return corpus_of(seqs, period)


def straight_line_cell(params, x, h_prev, c_prev):
    """Independent transcription of the cell update for cross-checking."""
    def logistic(v):
        return 1.0 / (1.0 + np.exp(-v))

    p = dict(params.tensors())
    f = logistic(p["W_fx"].dot(x) + p["W_fh"].dot(h_prev) + p["b_f"])
    i = logistic(p["W_ix"].dot(x) + p["W_ih"].dot(h_prev) + p["b_i"])
    g = np.tanh(p["W_Cx"].dot(x) + p["W_Ch"].dot(h_prev) + p["b_C"])
    c = f * c_prev + i * g
    o = logistic(p["W_ox"].dot(x) + p["W_oh"].dot(h_prev) + p["b_o"])
    return o * np.tanh(c), c


# signed zeros, subnormals, the exp underflow edge (|z| 700-750), any float and infinities
LOGISTIC_INPUTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
    st.floats(700, 750), st.floats(-750, -700),
    st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True),
)


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6), elements=LOGISTIC_INPUTS))
    def test_one_pass_equals_the_masked_branches_bit_for_bit(self, z):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = lstm.sigmoid(z)
        assert out.dtype == np.float64 and out.shape == z.shape
        assert out.tobytes() == naive_sigmoid(z).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6), elements=LOGISTIC_INPUTS),
           st.booleans())
    def test_out_buffer_and_out_aliased_to_z_equal_the_masked_branches(self, z, aliased):
        expected = naive_sigmoid(z).tobytes()
        out = z.copy() if aliased else np.full_like(z, np.nan)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = lstm.sigmoid(out if aliased else z, out=out)
        assert result is out and out.tobytes() == expected

    def test_nan_in_nan_out(self):
        z = np.array([np.nan, -np.nan, 0.5, -np.inf])
        out = lstm.sigmoid(z)
        assert np.isnan(out[:2]).all()
        assert out[2:].tobytes() == naive_sigmoid(z[2:]).tobytes()


class TestForwardCell:
    def test_all_zero_parameters(self):
        hidden, d = 4, 3
        params = lstm.RecurrentLayer.zeros("lstm", d, hidden)
        prev = LstmLayerState(h=np.zeros(hidden), C=np.zeros(hidden))
        state = forward_cell(params, np.zeros(d), prev)
        assert np.allclose(state.f, 0.5)
        assert np.allclose(state.i, 0.5)
        assert np.allclose(state.o, 0.5)
        assert np.allclose(state.c_tilde, 0.0)
        assert np.allclose(state.C, 0.0)
        assert np.allclose(state.h, 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        hidden, d = 4, 3
        params = lstm.RecurrentLayer.zeros("lstm", d, hidden)
        dict(params.tensors())["b_f"][:] = 30.0
        c_prev = np.array([0.3, -0.7, 1.1, 0.0])
        prev = LstmLayerState(h=np.zeros(hidden), C=c_prev)
        state = forward_cell(params, np.zeros(d), prev)
        assert np.allclose(state.C, c_prev, atol=1e-12)

    def test_matches_straight_line_transcription(self):
        rng = np.random.default_rng(13)
        net = tiny_net(seed=13, vocab=5, emb=3, hidden=3, layers=1)
        params = net.layers[0]
        x = rng.normal(size=3)
        h_prev = rng.normal(size=3) * 0.5
        c_prev = rng.normal(size=3) * 0.5
        state = forward_cell(params, x, LstmLayerState(h=h_prev, C=c_prev))
        h_ref, c_ref = straight_line_cell(params, x, h_prev, c_prev)
        assert np.max(np.abs(state.h - h_ref)) <= 1e-12 * max(1.0, np.max(np.abs(h_ref)))
        assert np.max(np.abs(state.C - c_ref)) <= 1e-12 * max(1.0, np.max(np.abs(c_ref)))

    def test_non_finite_input_rejected(self):
        net = tiny_net(vocab=5, emb=3, hidden=3, layers=1)
        prev = LstmLayerState(h=np.zeros(3), C=np.zeros(3))
        with pytest.raises(NumericalFaultError):
            forward_cell(net.layers[0], np.array([np.nan, 0, 0]), prev)

    def test_gate_ranges(self):
        rng = np.random.default_rng(14)
        net = tiny_net(seed=14, vocab=6, emb=4, hidden=5, layers=1)
        prev = LstmLayerState(h=np.zeros(5), C=np.zeros(5))
        for _ in range(20):
            state = forward_cell(net.layers[0], rng.normal(size=4), prev)
            for gate in (state.f, state.i, state.o):
                assert np.all(gate > 0) and np.all(gate < 1)
            assert np.all(state.c_tilde > -1) and np.all(state.c_tilde < 1)
            prev = state


class TestRecurrentLayer:
    def test_tensors_are_named_per_gate_views(self):
        layer = tiny_net(seed=12, layers=1).layers[0]
        names = [name for name, _ in layer.tensors()]
        assert names == ["W_fx", "W_fh", "b_f", "W_ix", "W_ih", "b_i",
                         "W_Cx", "W_Ch", "b_C", "W_ox", "W_oh", "b_o"]
        for k, gate in enumerate("fiCo"):
            views = dict(layer.tensors())
            assert views[f"W_{gate}x"].base is layer.W_x
            assert np.array_equal(views[f"W_{gate}x"], layer.W_x[k])
            assert np.array_equal(views[f"W_{gate}h"], layer.W_h[k])
            assert np.array_equal(views[f"b_{gate}"], layer.b[k])
        assert layer.W_x.shape == (4, 6, 5) and layer.W_h.shape == (4, 6, 6)

    def test_unknown_cell_kind(self):
        with pytest.raises(ConfigError, match="unknown cell kind 'gru'"):
            tiny_net(cell="gru")

    def test_tanh_cell_has_one_gate_and_an_initial_state(self):
        layer = tiny_net(seed=12, layers=1, cell="rnn").layers[0]
        assert [name for name, _ in layer.tensors()] == ["W_x", "W_h", "b_h", "h0"]
        assert layer.W_x.shape == (1, 6, 5) and layer.h0.shape == (6,)
        assert dict(layer.tensors())["W_x"].base is layer.W_x


class TestForwardSequence:
    def test_distributions_normalized_with_v_entries(self):
        net = tiny_net(seed=1)
        probs, _ = lstm.forward_sequence(net, [0, 1, 2, 3])
        assert probs.shape == (1, 4, 7)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_single_layer_matches_iterated_cell(self):
        net = tiny_net(seed=3, layers=1)
        ids = [1, 4, 2, 0]
        probs, _ = lstm.forward_sequence(net, ids)
        state = LstmLayerState(h=np.zeros(net.hidden_size), C=np.zeros(net.hidden_size))
        for t, action in enumerate(ids):
            state = forward_cell(net.layers[0], net.embedding[action], state)
            logits = net.W_y @ state.h + net.b_y
            ref = np.exp(logits - logits.max())
            ref /= ref.sum()
            assert np.allclose(probs[0, t], ref, atol=1e-12)

    def test_rejects_out_of_range_ids(self):
        net = tiny_net(seed=4)
        with pytest.raises(NextactionError):
            lstm.forward_sequence(net, [0, 99])

    @pytest.mark.parametrize("ids", [[], np.zeros((2, 0), dtype=np.int64)])
    def test_rejects_an_empty_window(self, ids):
        with pytest.raises(NextactionError, match="non-empty window"):
            lstm.forward_sequence(tiny_net(seed=4), ids)

    def test_train_mode_dropout_needs_an_rng_or_masks(self):
        net = tiny_net(seed=4, layers=2, dropout=0.5)
        with pytest.raises(ConfigError, match="needs an rng or explicit masks"):
            lstm.forward_sequence(net, [0, 1, 2], train=True)

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

    @pytest.mark.parametrize("cell", ["lstm", "rnn"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_zero_dropout_train_equals_infer(self, cell, layers):
        """Bit for bit at every length up to the window; the infer pass keeps no
        per-step gates or cell states."""
        net = tiny_net(seed=20 + layers, layers=layers, cell=cell, window=5)
        ids = np.random.default_rng(layers).integers(0, 8, size=(3, net.window))  # 7 is the pad id
        for n_steps in range(1, net.window + 1):
            infer_probs, cache = lstm.forward_sequence(net, ids[:, :n_steps])
            assert all("gates" not in lc and "c" not in lc for lc in cache["layers"])
            train_probs, _ = lstm.forward_sequence(net, ids[:, :n_steps], train=True)
            assert infer_probs.tobytes() == train_probs.tobytes()

    def test_train_cache_holds_tanh_of_the_cell_state(self):
        net = tiny_net(seed=24, layers=3, dropout=0.3)
        _, cache = lstm.forward_sequence(net, [0, 1, 2, 3], train=True, rng=np.random.default_rng(1))
        for lc in cache["layers"]:
            assert lc["tanh_c"].tobytes() == np.tanh(lc["c"]).tobytes()

    def test_train_mode_gate_ranges(self):
        net = tiny_net(seed=7)
        _, cache = lstm.forward_sequence(net, [0, 1, 2, 3, 4], train=True)
        for layer_cache in cache["layers"]:
            f, i, ct, o = layer_cache["gates"]
            for vals in (f, i, o):
                assert np.all(vals > 0) and np.all(vals < 1)
            assert np.all(ct > -1) and np.all(ct < 1)


@st.composite
def kernel_cases(draw):
    """A small network, possibly scaled until gate inputs reach |z| of 700-750,
    with a batch of windows that may hold pad ids, and its targets and masks."""
    cell = draw(st.sampled_from(["lstm", "rnn"]))
    layers = draw(st.integers(1, 3))
    window = draw(st.integers(1, 5))
    vocab, emb, hidden = (draw(st.integers(1, 5)) for _ in range(3))
    dropout = draw(st.sampled_from([0.0, 0.4]))
    seed = draw(st.integers(0, 2**32 - 1))
    net = tiny_net(seed, vocab, emb, hidden, layers, dropout, window, cell)
    rng = np.random.default_rng([seed, 0x0C])
    scale = draw(st.sampled_from([1.0, 30.0, 750.0]))
    for layer in net.layers:
        layer.b[...] = rng.uniform(-1.0, 1.0, layer.b.shape)
        for arr in (layer.W_x, layer.W_h, layer.b):
            arr *= scale
    n_batch = draw(st.sampled_from([1, 2, 33, 190]))
    n_steps = draw(st.integers(1, window))
    ids = rng.integers(0, vocab + 1, size=(n_batch, n_steps))  # vocab is the pad id
    targets = rng.integers(0, vocab + 1, size=(n_batch, n_steps))
    masks = None
    if dropout and layers > 1 and draw(st.booleans()):
        masks = [(rng.random((n_batch, n_steps, hidden)) >= dropout) / (1.0 - dropout)
                 for _ in range(layers - 1)]
    return net, ids, targets, masks, seed


def same_bytes(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bytes(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_bytes(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelOracle:
    """The buffered kernel against its frozen predecessor in ``helpers``: both
    make the same BLAS calls, so every output must match byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_cases())
    def test_train_pass_caches_and_gradients_equal_the_frozen_kernel(self, case):
        net, ids, targets, masks, seed = case
        valid = targets != net.pad_id
        runs = []
        for forward, backward in ((lstm.forward_sequence, lstm.backward),
                                  (frozen_forward_sequence, frozen_backward)):
            rng = np.random.default_rng(seed)
            probs, cache = forward(net, ids, train=True, rng=rng, dropout_masks=masks)
            infer_probs, _ = forward(net, ids)
            runs.append((probs, cache, infer_probs, backward(net, cache, targets, valid)))
        assert all(same_bytes(new, old) for new, old in zip(*runs))

    @settings(max_examples=200, deadline=None)
    @given(kernel_cases(), st.lists(st.sampled_from([0, 1, 2, 33, 190]), min_size=1, max_size=3),
           st.integers(1, 5))
    def test_predictions_equal_the_frozen_kernel(self, case, n_windows, short):
        """Sequences of at most the window, scored by the prefix run alone, and
        longer ones whose sliding windows form batches of 1, 2, 33 or 190 rows."""
        net, _, _, _, seed = case
        rng = np.random.default_rng([seed, 0x9E])
        lengths = [net.window + n if n else min(short, net.window) for n in n_windows]
        actions, pos = actions_pos([rng.integers(0, net.vocab_size, n).tolist() for n in lengths])
        predictor = lstm.LstmPredictor(net)
        predicted = predictor.predict_sequence(actions, pos)
        with mock.patch.object(lstm, "_run_layers", frozen_run_layers):
            expected = predictor.predict_sequence(actions, pos)
        assert predicted.tobytes() == expected.tobytes()


def window_of(targets):
    """One window's (1, T) int64 targets and its all-true (1, T) mask."""
    targets = np.asarray(targets, dtype=np.int64)[None]
    return targets, np.ones(targets.shape, dtype=bool)


class TestLoss:
    def test_uniform_distribution(self):
        probs = np.full((3, 4), 0.25)
        assert lstm.loss(probs[None], *window_of([0, 3, 2])) == pytest.approx(np.log(4))

    def test_certain_prediction(self):
        probs = np.zeros((2, 4))
        probs[:, 1] = 1.0
        assert lstm.loss(probs[None], *window_of([1, 1])) == 0.0

    def test_batch_is_mean_of_window_losses(self):
        rng = np.random.default_rng(20)
        probs = rng.dirichlet(np.ones(5), size=(2, 3))
        targets = rng.integers(0, 5, size=(2, 3))
        batch = lstm.loss(probs, targets, np.ones(targets.shape, dtype=bool))
        singles = [lstm.loss(probs[b][None], *window_of(targets[b])) for b in range(2)]
        assert batch == pytest.approx(np.mean(singles))

    def test_floor_applies(self):
        probs = np.zeros((1, 3))
        probs[0, 0] = 1.0
        value = lstm.loss(probs[None], *window_of([2]))
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
        analytic = lstm.backward(net, cache, *window_of(targets))
        numeric = finite_difference_gradients(net, ids, *window_of(targets), step=1e-5)
        for name in analytic:
            assert relative_error(analytic[name], numeric[name]) <= 1e-4, name

    def test_output_bias_identity(self):
        net = tiny_net(seed=8)
        ids = np.array([0, 1, 2, 3, 4])
        targets = np.array([1, 2, 3, 4, 5])
        probs, cache = lstm.forward_sequence(net, ids, train=True)
        grads = lstm.backward(net, cache, *window_of(targets))
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
        grads = lstm.backward(net, cache, targets, np.ones(targets.shape, dtype=bool))
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
        g_s = lstm.backward(net, cache_s, t_short, np.ones(t_short.shape, dtype=bool))
        g_p = lstm.backward(net, cache_p, t_padded, t_padded != pad)
        for name in g_s:
            assert np.allclose(g_s[name], g_p[name], atol=1e-12), name
        assert np.allclose(g_p["embedding"][pad], 0.0)

    @pytest.mark.parametrize("cell", ["lstm", "rnn"])
    def test_keys_are_the_parameter_names(self, cell):
        net = tiny_net(seed=12, cell=cell, dropout=0.3)
        _, cache = lstm.forward_sequence(net, [0, 1, 2], train=True, rng=np.random.default_rng(0))
        grads = lstm.backward(net, cache, *window_of([1, 2, 3]))
        assert sorted(grads) == sorted(name for name, _ in net.param_items())
        for name, arr in net.param_items():
            assert grads[name].shape == arr.shape, name

    @pytest.mark.parametrize("cell", ["lstm", "rnn"])
    def test_missing_cache_rejected(self, cell):
        net = tiny_net(seed=11, cell=cell)
        with pytest.raises(NextactionError):
            lstm.backward(net, {}, *window_of([0]))
        _, cache = lstm.forward_sequence(net, [0, 1, 2])
        with pytest.raises(NextactionError, match="needs the cache of a train-mode forward pass"):
            lstm.backward(net, cache, *window_of([1, 2, 3]))


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
        assert lstm_predict_next(net, [0])[0] == 1
        assert lstm_predict_next(net, [1])[0] == 2

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

    def test_non_finite_parameter_stops_training(self, monkeypatch):
        build = lstm.network_from_config

        def poisoned(vocab_size, cfg):
            net = build(vocab_size, cfg)
            net.layers[0].W_h[0, 0, 0] = np.nan
            return net

        monkeypatch.setattr(lstm, "network_from_config", poisoned)
        cfg = lstm.TrainConfig(epochs=3, window=5, batch_size=4, seed=0,
                               hidden_size=8, layers=1, embedding_dim=6)
        with pytest.raises(NumericalFaultError, match="epoch 1: non-finite parameter"):
            lstm.train(cycle_corpus(n_students=5, length=12), cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_activations_stop_training(self):
        # the parameters stay finite, but the hill-climb outputs are NaN
        cfg = lstm.TrainConfig(learning_rate=1e300, epochs=3, window=5, batch_size=4, seed=0,
                               hidden_size=8, layers=1, embedding_dim=6)
        with pytest.raises(NumericalFaultError,
                           match="epoch 1: non-finite output probability"):
            lstm.train(cycle_corpus(n_students=10, length=12), cfg)

    @pytest.mark.parametrize("corpus, message", [
        (cycle_corpus(n_students=0), "cannot train on an empty corpus"),
        (cycle_corpus(n_students=5, length=1), "no trainable windows"),
    ])
    def test_nothing_to_train_on(self, corpus, message):
        cfg = lstm.TrainConfig(epochs=1, window=5, hidden_size=4, embedding_dim=4)
        with pytest.raises(ConfigError, match=message):
            lstm.train(corpus, cfg)

    # the seeds at which the hill-climb split trains on the last student
    @pytest.mark.parametrize("seed", [0, 2, 3, 4])
    def test_an_action_id_of_v_is_refused_not_trained_as_padding(self, seed):
        rows = [[(i + j) % 5 for j in range(7)] for i in range(7)] + [[2, 3, 5, 5, 5, 4]]
        cfg = lstm.TrainConfig(epochs=1, window=5, hidden_size=4, embedding_dim=4, seed=seed)
        with pytest.raises(ConfigError, match=r"action id outside \[0, 5\)"):
            lstm.train(corpus_of(rows, 5), cfg)

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
        predicted, dist = lstm_predict_next(net, [3, 2])
        assert predicted == 0
        assert np.allclose(dist, 1.0 / net.vocab_size)

    def test_distribution_sums_to_one(self):
        net = tiny_net(seed=16)
        _, dist = lstm_predict_next(net, [1, 2, 3])
        assert abs(dist.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("cell, window", [("lstm", 1), ("lstm", 4), ("rnn", 4)])
    def test_predict_sequence_matches_the_oracle_at_every_length(self, cell, window):
        net = tiny_net(seed=19, window=window, cell=cell)
        predictor = lstm.LstmPredictor(net)
        actions = np.random.default_rng(2).integers(0, 7, size=9).tolist()
        for n in range(len(actions) + 1):
            predictions = predictor.predict_sequence(*actions_pos([actions[:n]]))
            assert predictions.dtype == np.int64
            assert predictions.tolist() == [
                lstm_predict_next(net, actions[:t])[0] for t in range(1, n)
            ]

    @pytest.mark.parametrize("cell", ["lstm", "rnn"])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_window_one_scores_from_a_zero_step_head_run(self, cell, layers):
        net = tiny_net(seed=25, layers=layers, cell=cell, window=1)
        actions = [3, 1, 4, 1, 5]
        predictions = lstm.LstmPredictor(net).predict_sequence(*actions_pos([actions, actions[:2]]))
        expected = [lstm_predict_next(net, seq[:t])[0]
                    for seq in (actions, actions[:2]) for t in range(1, len(seq))]
        assert predictions.tolist() == expected

    def test_context_clipped_to_window(self):
        net = tiny_net(seed=18, window=4)
        rng = np.random.default_rng(0)
        context = rng.integers(0, 7, size=12).tolist()
        full = lstm_predict_next(net, context)
        clipped = lstm_predict_next(net, context[-4:])
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
        loaded = lstm.load_checkpoint(path.read_bytes(), path)
        assert loaded.window == net.window
        for (name_a, a), (name_b, b) in zip(net.param_items(), loaded.param_items()):
            assert name_a == name_b
            assert np.array_equal(a, b)
        context = [0, 1, 2]
        assert lstm_predict_next(net, context)[0] == lstm_predict_next(loaded, context)[0]

    def test_rnn_checkpoint_round_trip(self, tmp_path):
        net = tiny_net(seed=23, cell="rnn", layers=2)
        path = tmp_path / "model.nlstm"
        lstm.save_checkpoint(net, path)
        loaded = lstm.load_checkpoint(path.read_bytes(), path)
        assert loaded.cell == "rnn"
        probs_a, _ = lstm.forward_sequence(net, [0, 1, 2])
        probs_b, _ = lstm.forward_sequence(loaded, [0, 1, 2])
        assert np.array_equal(probs_a, probs_b)


    # SHA-256 of the checkpoint and manifest of a seeded init net: init uses no
    # BLAS, so these hold on every host and pin the NLSTM1 layout and tensor order
    @pytest.mark.parametrize("cell, seed, blob_sha, manifest_sha", [
        ("lstm", 0, "cc3c5f653ca95be8db5ededf5ac7e5710406748924c9e765b31f60df29af4f14",
         "0b08cadac182bd27c1ffbd7b5294984e961975bdac548d72aa900df4c67eee40"),
        ("rnn", 1, "3eb56f2b25cb3c1c9f076b9c6a5f1355ad1fb5fff0482ffe12b765ebb6f5bca2",
         "7122cea475955499926077c871cd80415b3aae58d047e895788a8ffd41a9ec0f"),
    ])
    def test_byte_layout_is_pinned(self, tmp_path, cell, seed, blob_sha, manifest_sha):
        net = lstm.init_network(11, 4, 6, 2, 0.2, 8, cell, rng=np.random.default_rng(seed))
        path = tmp_path / "model.nlstm"
        lstm.save_checkpoint(net, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == blob_sha
        manifest = (tmp_path / "model.nlstm.manifest.txt").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == manifest_sha


HEADER_END = 6 + 25  # magic, then V, embedding, hidden, layers (4 bytes each), dropout, cell


class TestCheckpointRejects:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.nlstm"
        lstm.save_checkpoint(tiny_net(seed=24, layers=2), path)
        return path

    def load_error(self, path, blob, error=MalformedRecordError, window=None):
        path.write_bytes(blob)
        with pytest.raises(error) as caught:
            lstm.load_checkpoint(path.read_bytes(), path, window)
        return caught.value

    def test_every_header_truncation(self, saved):
        blob = saved.read_bytes()
        assert self.load_error(saved, blob[:5]).reason == "bad checkpoint magic"
        for size in range(6, HEADER_END):
            error = self.load_error(saved, blob[:size])
            assert (error.lineno, error.reason) == (size, f"short header, needs {HEADER_END} bytes")

    def test_short_tensor_region_and_trailing_bytes(self, saved):
        blob = saved.read_bytes()
        for size in (HEADER_END, HEADER_END + 8, len(blob) - 1):
            error = self.load_error(saved, blob[:size])
            assert error.lineno == size
            assert error.reason == f"tensor region ends early, needs {len(blob)} bytes"
        error = self.load_error(saved, blob + b"\0")
        assert (error.lineno, error.reason) == (len(blob), "trailing bytes after the tensors")

    def test_unknown_cell_byte(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[HEADER_END - 1] = 7
        error = self.load_error(saved, bytes(blob))
        assert str(error) == f"byte {HEADER_END - 1}: unknown cell byte 7"

    # V at byte 6, embedding at 10, hidden at 14, layers at 18, dropout at 22
    @pytest.mark.parametrize("fmt, offset, value", [
        ("<I", 6, 0), ("<I", 10, 0), ("<I", 14, 0), ("<I", 18, 0), ("<I", 18, 4),
        ("<d", 22, 1.0), ("<d", 22, float("nan")),
    ])
    def test_header_value_out_of_range(self, saved, fmt, offset, value):
        blob = bytearray(saved.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        error = self.load_error(saved, bytes(blob))
        assert (error.lineno, error.reason) == (6, "header value out of range")

    def test_checksum_mismatch_with_a_manifest(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[-1] ^= 0x01
        error = self.load_error(saved, bytes(blob), error=ConfigError)
        assert "SHA-256" in str(error)

    def test_no_manifest_and_no_window(self, saved):
        Path(str(saved) + ".manifest.txt").unlink()
        error = self.load_error(saved, saved.read_bytes(), error=ConfigError)
        assert str(error) == ("model.nlstm has no manifest model.nlstm.manifest.txt "
                              "to verify it against")

    def test_a_window_does_not_stand_in_for_the_manifest(self, saved):
        """With its manifest gone, a checkpoint with a flipped tensor byte is refused
        even when the window is given."""
        Path(str(saved) + ".manifest.txt").unlink()
        blob = bytearray(saved.read_bytes())
        blob[-1] ^= 0x01
        error = self.load_error(saved, bytes(blob), error=ConfigError, window=9)
        assert str(error) == ("model.nlstm has no manifest model.nlstm.manifest.txt "
                              "to verify it against")

    def test_non_integer_window_line(self, saved):
        manifest = Path(str(saved) + ".manifest.txt")
        manifest.write_text(manifest.read_text().replace("window: 9", "window: 9.5"))
        error = self.load_error(saved, saved.read_bytes())
        assert str(error) == "line 3: window is not a positive integer: '9.5'"

    @pytest.mark.parametrize("stated", ["x", "9.5", "0"])
    def test_a_window_override_still_checks_the_stated_window(self, saved, stated):
        manifest = Path(str(saved) + ".manifest.txt")
        manifest.write_text(manifest.read_text().replace("window: 9", f"window: {stated}"))
        error = self.load_error(saved, saved.read_bytes(), window=5)
        assert str(error) == f"line 3: window is not a positive integer: {stated!r}"
        manifest.write_text(manifest.read_text().replace(f"window: {stated}", "window: 9"))
        assert lstm.load_checkpoint(saved.read_bytes(), saved, window=5).window == 5

    # tiny_net(seed=24, layers=2): V=7, embedding 5, hidden 6; line 5 is the embedding's
    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines.__setitem__(1, "cell: rnn"),
         "line 2: cell is 'rnn', the checkpoint's is 'lstm'"),
        (lambda lines: lines.__setitem__(4, "tensor: embedding 99x5"),
         "line 5: tensor is 'embedding 99x5', the checkpoint's is 'embedding 8x5'"),
        (lambda lines: lines.__setitem__(0, "checkpoint: other.nlstm"),
         "line 1: checkpoint is 'other.nlstm', the checkpoint's is 'model.nlstm'"),
        (lambda lines: lines.insert(2, "cell: lstm"), "line 3: repeated key 'cell'"),
        (lambda lines: lines.insert(3, "note: kept"), "line 4: unknown key 'note'"),
        (lambda lines: lines.pop(3), "line 4: missing 'sha256' line"),
        (lambda lines: lines.pop(), "line {n}: missing 'tensor' line"),
        (lambda lines: lines.append(lines[-1]), "line {n}: repeated key 'tensor'"),
    ])
    def test_every_manifest_line_is_checked(self, saved, edit, message):
        manifest = Path(str(saved) + ".manifest.txt")
        lines = manifest.read_text().splitlines()
        edit(lines)
        manifest.write_text("".join(line + "\n" for line in lines))
        error = self.load_error(saved, saved.read_bytes())
        assert str(error) == message.format(n=len(lines) + (message.endswith("'tensor' line")))

    def test_manifest_without_a_final_newline(self, saved):
        manifest = Path(str(saved) + ".manifest.txt")
        text = manifest.read_text()
        manifest.write_text(text[:-1])
        error = self.load_error(saved, saved.read_bytes())
        assert str(error) == f"line {text.count(chr(10))}: no newline at the end of the line"

    def test_every_byte_flip_outside_the_window_digits_is_refused(self, saved):
        manifest = Path(str(saved) + ".manifest.txt")
        text = manifest.read_bytes()
        first = text.index(b"\nwindow: ") + len(b"\nwindow: ")
        digits = range(first, text.index(b"\n", first))
        for at in (at for at in range(len(text)) if at not in digits):
            for value in {text[at] ^ 1, text[at] ^ 0x20, ord("\n")} - {text[at]}:
                manifest.write_bytes(text[:at] + bytes([value]) + text[at + 1 :])
                with pytest.raises(NextactionError):
                    lstm.load_checkpoint(saved.read_bytes(), saved)

    def test_non_finite_parameter(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[HEADER_END + 8 * 3 : HEADER_END + 8 * 4] = np.array([np.inf]).tobytes()
        # a manifest whose SHA-256 is the edited blob's, so that the value check is reached
        manifest = Path(str(saved) + ".manifest.txt")
        manifest.write_text(manifest.read_text().replace(
            hashlib.sha256(saved.read_bytes()).hexdigest(), hashlib.sha256(blob).hexdigest()))
        error = self.load_error(saved, bytes(blob))
        assert (error.lineno, error.reason) == (HEADER_END + 24, "non-finite parameter")

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["lstm", "rnn"]), st.integers(1, 3), st.booleans(), st.data())
    def test_corrupt_checkpoint_is_refused_or_read_exactly(self, cell, layers, manifest, data):
        """A truncated or flipped checkpoint raises a NextactionError, and so does
        one with no manifest to check it against, even given the window."""
        net = tiny_net(seed=layers, vocab=3, emb=2, hidden=2, layers=layers, cell=cell)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.nlstm"
            lstm.save_checkpoint(net, path)
            if not manifest:
                Path(str(path) + ".manifest.txt").unlink()
            path.write_bytes(mutated(data.draw, path.read_bytes()))
            with pytest.raises(NextactionError):
                lstm.load_checkpoint(path.read_bytes(), path, None if manifest else net.window)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["lstm", "rnn"]), st.integers(1, 3), st.data())
    def test_corrupt_manifest_is_refused_or_read_exactly(self, cell, layers, data):
        """A truncated or flipped manifest raises a NextactionError unless the
        change falls in the window's digits, which no checksum covers; the
        checkpoint then loads to the saved network with the window they read."""
        net = tiny_net(seed=layers, vocab=3, emb=2, hidden=2, layers=layers, cell=cell)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.nlstm"
            lstm.save_checkpoint(net, path)
            manifest = Path(str(path) + ".manifest.txt")
            saved = manifest.read_bytes().split(b"\n")
            manifest.write_bytes(mutated(data.draw, manifest.read_bytes()))
            try:
                loaded = lstm.load_checkpoint(path.read_bytes(), path)
            except NextactionError:
                return
            lines = manifest.read_bytes().split(b"\n")
            assert len(lines) == len(saved) and lines[:2] + lines[3:] == saved[:2] + saved[3:]
            assert lines[2] == f"window: {lines[2][8:].decode()}".encode()
            assert loaded.window == int(lines[2][8:])
            again = Path(root) / "again.nlstm"
            lstm.save_checkpoint(loaded, again)
            assert again.read_bytes() == path.read_bytes()


class TestGridSearch:
    def test_shape_of_desk_scale_grid(self):
        corpus = cycle_corpus(n_students=10, length=24)
        plan = evaluation.make_folds(corpus.students, 5, seed=1)
        base = lstm.TrainConfig(epochs=1, window=5, batch_size=8, seed=2,
                                embedding_dim=6, dropout_rate=0.0)
        configs = [replace(base, layers=l, hidden_size=n) for l in (1, 2) for n in (16, 32)]
        for cfg in configs:
            (report,) = evaluation.cross_validate(lstm.LstmSpec(cfg), corpus, plan)
            assert len(report.per_fold_accuracy) == 5
            assert 0.0 <= report.cv_accuracy <= 1.0


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

    @pytest.mark.parametrize("sizes", [
        dict(hidden_size=10**18), dict(hidden_size=10**19), dict(embedding_dim=10**19),
        dict(window=2**60), dict(window=10**19),
    ])
    def test_a_size_numpy_cannot_describe_is_refused(self, sizes):
        with pytest.raises(ConfigError, match="larger than numpy can describe"):
            lstm.TrainConfig(**sizes).validate()

    def test_the_vocabulary_sizes_the_embedding_check(self):
        cfg = lstm.TrainConfig(embedding_dim=2**31)
        cfg.validate()
        with pytest.raises(ConfigError, match=r"^the embedding or output layer would need a "
                                              r"\(4294967297, 2147483648\)"):
            lstm.network_from_config(2**32, cfg)

    def test_training_windows_numpy_cannot_describe_are_refused(self):
        with pytest.raises(ConfigError, match=r"^the training windows would need a \(4, "):
            lstm.make_windows(cycle_corpus(n_students=4, length=3), 2**58, 3)

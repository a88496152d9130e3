"""A from-scratch recurrent next-action model trained with truncated BPTT.

The network stacks an embedding lookup, 1-3 recurrent layers (LSTM cells by
default, a simple tanh cell as an alternate), inter-layer dropout in train
mode, and a softmax projection over the action space.  Per layer and step
the LSTM computes, with logistic gates and elementwise products,

    f_t = logistic(W_fx x_t + W_fh h_{t-1} + b_f)
    i_t = logistic(W_ix x_t + W_ih h_{t-1} + b_i)
    g_t = tanh(W_Cx x_t + W_Ch h_{t-1} + b_C)      (candidate cell state)
    C_t = f_t * C_{t-1} + i_t * g_t
    o_t = logistic(W_ox x_t + W_oh h_{t-1} + b_o)
    h_t = o_t * tanh(C_t)

Training minimizes categorical cross-entropy with RMSprop.  Gradients are
exact under the recorded dropout masks; ``finite_difference_gradients``
provides an independent numerical check.  Sequences are cut into
non-overlapping windows of ``window + 1`` actions with zero initial state;
short trailing windows are padded with a reserved mask id (== vocab size)
whose steps contribute no loss and no gradient.

Everything runs in 64-bit floats.
"""

import hashlib
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NextactionError, NumericalFaultError
from .evaluation import hill_climb_split, sequence_accuracy
from .ingest import Corpus, StudentSequence

PROB_FLOOR = 1e-12
HILL_FRACTION = 0.1  # share of training students held out for hill climbing
CHECKPOINT_MAGIC = b"NLSTM1"
_CELL_KINDS = {"lstm": 0, "rnn": 1}

LSTM_TENSORS = ("W_fx", "W_fh", "b_f", "W_ix", "W_ih", "b_i",
                "W_Cx", "W_Ch", "b_C", "W_ox", "W_oh", "b_o")
RNN_TENSORS = ("W_x", "W_h", "b_h", "h0")


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


@dataclass
class LstmLayerParams:
    """Gate weights of one LSTM layer; x-matrices are (hidden, input)."""

    W_fx: np.ndarray
    W_fh: np.ndarray
    b_f: np.ndarray
    W_ix: np.ndarray
    W_ih: np.ndarray
    b_i: np.ndarray
    W_Cx: np.ndarray
    W_Ch: np.ndarray
    b_C: np.ndarray
    W_ox: np.ndarray
    W_oh: np.ndarray
    b_o: np.ndarray

    def tensors(self):
        return [(name, getattr(self, name)) for name in LSTM_TENSORS]


@dataclass
class RnnLayerParams:
    """Simple tanh recurrence: h_t = tanh(W_x x_t + W_h h_{t-1} + b_h)."""

    W_x: np.ndarray
    W_h: np.ndarray
    b_h: np.ndarray
    h0: np.ndarray  # trainable initial state

    def tensors(self):
        return [(name, getattr(self, name)) for name in RNN_TENSORS]


@dataclass
class LstmLayerState:
    """One step's activations, retained for backprop."""

    h: np.ndarray
    C: np.ndarray
    f: np.ndarray | None = None
    i: np.ndarray | None = None
    o: np.ndarray | None = None
    c_tilde: np.ndarray | None = None


@dataclass
class LstmNetwork:
    embedding: np.ndarray  # (V + 1, emb_dim); last row is the window-pad id
    layers: list
    W_y: np.ndarray  # (V, hidden)
    b_y: np.ndarray  # (V,)
    dropout_rate: float
    window: int
    cell: str = "lstm"

    @property
    def vocab_size(self) -> int:
        return self.W_y.shape[0]

    @property
    def pad_id(self) -> int:
        return self.vocab_size

    @property
    def hidden_size(self) -> int:
        return self.W_y.shape[1]

    @property
    def embedding_dim(self) -> int:
        return self.embedding.shape[1]

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        items = [("embedding", self.embedding)]
        for idx, layer in enumerate(self.layers):
            items.extend((f"layer{idx}.{n}", a) for n, a in layer.tensors())
        items.append(("output.W_y", self.W_y))
        items.append(("output.b_y", self.b_y))
        return items


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 10
    window: int = 10
    batch_size: int = 32
    dropout_rate: float = 0.2
    rmsprop_decay: float = 0.9
    rmsprop_epsilon: float = 1e-8
    seed: int = 0
    hidden_size: int = 64
    layers: int = 1
    embedding_dim: int = 64
    cell: str = "lstm"

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.window < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("window, epochs and batch size must be >= 1")
        if self.layers not in (1, 2, 3):
            raise ConfigError(f"layer count must be 1, 2 or 3, got {self.layers}")
        if self.hidden_size < 1 or self.embedding_dim < 1:
            raise ConfigError("hidden and embedding sizes must be >= 1")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError("dropout rate must be in [0, 1)")
        if self.cell not in _CELL_KINDS:
            raise ConfigError(f"cell must be one of {sorted(_CELL_KINDS)}")


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (for per-fold training streams)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def init_network(
    vocab_size: int,
    embedding_dim: int,
    hidden_size: int,
    layers: int,
    dropout_rate: float,
    window: int,
    cell: str = "lstm",
    rng: np.random.Generator | None = None,
) -> LstmNetwork:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; biases zero.

    Draw order is fixed: embedding, then each layer's gate matrices in
    declaration order, then the output projection.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    emb = _uniform_init(rng, (vocab_size + 1, embedding_dim), embedding_dim)
    layer_params = []
    for idx in range(layers):
        d_in = embedding_dim if idx == 0 else hidden_size
        if cell == "lstm":
            gates = {}
            for gate in ("f", "i", "C", "o"):
                gates[f"W_{gate}x"] = _uniform_init(rng, (hidden_size, d_in), d_in)
                gates[f"W_{gate}h"] = _uniform_init(rng, (hidden_size, hidden_size), hidden_size)
                gates[f"b_{gate}"] = np.zeros(hidden_size)
            layer_params.append(LstmLayerParams(**gates))
        elif cell == "rnn":
            layer_params.append(RnnLayerParams(
                W_x=_uniform_init(rng, (hidden_size, d_in), d_in),
                W_h=_uniform_init(rng, (hidden_size, hidden_size), hidden_size),
                b_h=np.zeros(hidden_size),
                h0=np.zeros(hidden_size),
            ))
        else:
            raise ConfigError(f"unknown cell kind {cell!r}")
    W_y = _uniform_init(rng, (vocab_size, hidden_size), hidden_size)
    return LstmNetwork(
        embedding=emb,
        layers=layer_params,
        W_y=W_y,
        b_y=np.zeros(vocab_size),
        dropout_rate=dropout_rate,
        window=window,
        cell=cell,
    )


def network_from_config(vocab_size: int, cfg: TrainConfig) -> LstmNetwork:
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 0x1417])
    return init_network(
        vocab_size, cfg.embedding_dim, cfg.hidden_size, cfg.layers,
        cfg.dropout_rate, cfg.window, cfg.cell, rng,
    )


def forward_cell(
    params: LstmLayerParams, x: np.ndarray, prev: LstmLayerState
) -> LstmLayerState:
    """One LSTM step on a single input vector, gate activations retained."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(prev.h)) and np.all(np.isfinite(prev.C))):
        raise NumericalFaultError("non-finite input to LSTM cell")
    f = sigmoid(params.W_fx @ x + params.W_fh @ prev.h + params.b_f)
    i = sigmoid(params.W_ix @ x + params.W_ih @ prev.h + params.b_i)
    c_tilde = np.tanh(params.W_Cx @ x + params.W_Ch @ prev.h + params.b_C)
    C = f * prev.C + i * c_tilde
    o = sigmoid(params.W_ox @ x + params.W_oh @ prev.h + params.b_o)
    h = o * np.tanh(C)
    return LstmLayerState(h=h, C=C, f=f, i=i, o=o, c_tilde=c_tilde)


def _run_layers(
    net: LstmNetwork,
    ids: np.ndarray,
    train: bool,
    rng: np.random.Generator | None,
    dropout_masks: list[np.ndarray] | None,
):
    """Batched forward through embedding and all recurrent layers.

    Returns the top layer's hidden states (B, T, H) and the cache needed by
    ``backward``.
    """
    n_batch, n_steps = ids.shape
    hidden = net.hidden_size
    layer_inputs = net.embedding[ids]  # (B, T, D)
    use_dropout = train and net.dropout_rate > 0 and len(net.layers) > 1
    masks: list[np.ndarray | None] = []
    layer_caches = []

    for idx, layer in enumerate(net.layers):
        if idx > 0:
            if use_dropout:
                if dropout_masks is not None:
                    mask = dropout_masks[idx - 1]
                else:
                    if rng is None:
                        raise ConfigError("train-mode dropout needs an rng or explicit masks")
                    keep = rng.random((n_batch, n_steps, hidden)) >= net.dropout_rate
                    mask = keep / (1.0 - net.dropout_rate)
                masks.append(mask)
                layer_inputs = layer_inputs * mask
            else:
                masks.append(None)

        xs = layer_inputs
        h = np.zeros((n_batch, hidden))
        if net.cell == "lstm":
            c = np.zeros((n_batch, hidden))
            fs = np.empty((n_batch, n_steps, hidden))
            is_ = np.empty_like(fs)
            os_ = np.empty_like(fs)
            cts = np.empty_like(fs)
            cs = np.empty_like(fs)
            hs = np.empty_like(fs)
            for t in range(n_steps):
                x = xs[:, t]
                f = sigmoid(x @ layer.W_fx.T + h @ layer.W_fh.T + layer.b_f)
                i = sigmoid(x @ layer.W_ix.T + h @ layer.W_ih.T + layer.b_i)
                ct = np.tanh(x @ layer.W_Cx.T + h @ layer.W_Ch.T + layer.b_C)
                c = f * c + i * ct
                o = sigmoid(x @ layer.W_ox.T + h @ layer.W_oh.T + layer.b_o)
                h = o * np.tanh(c)
                fs[:, t], is_[:, t], os_[:, t], cts[:, t] = f, i, o, ct
                cs[:, t], hs[:, t] = c, h
            layer_caches.append({"xs": xs, "f": fs, "i": is_, "o": os_,
                                 "c_tilde": cts, "c": cs, "h": hs})
        else:
            h = np.broadcast_to(layer.h0, (n_batch, hidden)).copy()
            hs = np.empty((n_batch, n_steps, hidden))
            for t in range(n_steps):
                h = np.tanh(xs[:, t] @ layer.W_x.T + h @ layer.W_h.T + layer.b_h)
                hs[:, t] = h
            layer_caches.append({"xs": xs, "h": hs})
        layer_inputs = layer_caches[-1]["h"]

    cache = {
        "ids": ids,
        "layers": layer_caches,
        "dropout_masks": masks,
        "top_h": layer_inputs,
        "train": train,
    }
    return layer_inputs, cache


def _validate_ids(net: LstmNetwork, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() > net.pad_id):
        raise NextactionError(
            f"action ids must lie in [0, {net.vocab_size}) (pad id {net.pad_id})"
        )


def forward_sequence(
    net: LstmNetwork,
    ids: Sequence[int] | np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray] | None = None,
):
    """Per-step output distributions for one window or a batch of windows.

    ``ids`` is (T,) or (B, T) with T <= the training window; entries equal to
    the pad id mark padded steps.  Returns (probs, cache) with probs of shape
    (B, T, V); pass the cache to ``backward`` after a train-mode run.
    """
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise NextactionError("ids must be a non-empty window or batch of windows")
    if arr.shape[1] > net.window:
        raise ConfigError(f"window of {arr.shape[1]} exceeds the model window {net.window}")
    _validate_ids(net, arr)
    top_h, cache = _run_layers(net, arr, train, rng, dropout_masks)
    logits = top_h @ net.W_y.T + net.b_y
    probs = softmax(logits)
    cache["probs"] = probs
    return probs, cache


def loss(
    probs: np.ndarray,
    targets: Sequence[int] | np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Mean over steps of -log p(target), then mean over windows in a batch.

    Probabilities are floored at 1e-12.  ``mask`` marks real (non-pad)
    steps; by default every step counts.
    """
    p = np.asarray(probs)
    t = np.asarray(targets, dtype=np.int64)
    if p.ndim == 2:
        p = p[None]
    if t.ndim == 1:
        t = t[None, :]
    if mask is None:
        valid = np.ones(t.shape, dtype=bool)
    else:
        valid = np.asarray(mask, dtype=bool)
        if valid.ndim == 1:
            valid = valid[None, :]
    n_batch, n_steps, _ = p.shape
    picked = p[np.arange(n_batch)[:, None], np.arange(n_steps)[None, :],
               np.where(valid, t, 0)]
    step_loss = -np.log(np.maximum(picked, PROB_FLOOR)) * valid
    per_window = step_loss.sum(axis=1) / np.maximum(valid.sum(axis=1), 1)
    return float(per_window.mean())


def backward(
    net: LstmNetwork,
    cache: dict,
    targets: Sequence[int] | np.ndarray,
    mask: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Exact loss gradients for every parameter under the cached dropout masks."""
    if "probs" not in cache:
        raise NextactionError("backward needs the cache of a prior forward pass")
    probs = cache["probs"]
    ids = cache["ids"]
    n_batch, n_steps, _ = probs.shape
    t_arr = np.asarray(targets, dtype=np.int64)
    if t_arr.ndim == 1:
        t_arr = t_arr[None, :]
    valid = (
        np.ones(t_arr.shape, dtype=bool) if mask is None
        else np.asarray(mask, dtype=bool)
    )

    rows = np.arange(n_batch)[:, None]
    cols = np.arange(n_steps)[None, :]
    safe_t = np.where(valid, t_arr, 0)
    picked = probs[rows, cols, safe_t]
    live = valid & (picked > PROB_FLOOR)  # floored steps have zero gradient

    dz = probs * live[:, :, None]
    dz[rows, cols, safe_t] -= live
    scale = live / (n_batch * np.maximum(valid.sum(axis=1, keepdims=True), 1))
    dz *= scale[:, :, None]

    grads: dict[str, np.ndarray] = {}
    top_h = cache["top_h"]
    grads["output.W_y"] = np.einsum("btv,bth->vh", dz, top_h)
    grads["output.b_y"] = dz.sum(axis=(0, 1))
    dh_above = dz @ net.W_y  # (B, T, H)

    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        lc = cache["layers"][idx]
        xs = lc["xs"]
        d_in = xs.shape[2]
        hidden = net.hidden_size
        dxs = np.empty((n_batch, n_steps, d_in))

        if net.cell == "lstm":
            g = {name: np.zeros_like(t) for name, t in layer.tensors()}
            dh_rec = np.zeros((n_batch, hidden))
            dc_rec = np.zeros((n_batch, hidden))
            for t in range(n_steps - 1, -1, -1):
                f, i, o = lc["f"][:, t], lc["i"][:, t], lc["o"][:, t]
                ct, c = lc["c_tilde"][:, t], lc["c"][:, t]
                c_prev = lc["c"][:, t - 1] if t > 0 else np.zeros_like(c)
                h_prev = lc["h"][:, t - 1] if t > 0 else np.zeros((n_batch, hidden))
                x = xs[:, t]

                dh = dh_above[:, t] + dh_rec
                tanh_c = np.tanh(c)
                do = dh * tanh_c
                dc = dc_rec + dh * o * (1.0 - tanh_c * tanh_c)
                df = dc * c_prev
                di = dc * ct
                dct = dc * i

                dpre_f = df * f * (1.0 - f)
                dpre_i = di * i * (1.0 - i)
                dpre_c = dct * (1.0 - ct * ct)
                dpre_o = do * o * (1.0 - o)

                g["W_fx"] += dpre_f.T @ x
                g["W_ix"] += dpre_i.T @ x
                g["W_Cx"] += dpre_c.T @ x
                g["W_ox"] += dpre_o.T @ x
                g["W_fh"] += dpre_f.T @ h_prev
                g["W_ih"] += dpre_i.T @ h_prev
                g["W_Ch"] += dpre_c.T @ h_prev
                g["W_oh"] += dpre_o.T @ h_prev
                g["b_f"] += dpre_f.sum(axis=0)
                g["b_i"] += dpre_i.sum(axis=0)
                g["b_C"] += dpre_c.sum(axis=0)
                g["b_o"] += dpre_o.sum(axis=0)

                dxs[:, t] = (dpre_f @ layer.W_fx + dpre_i @ layer.W_ix
                             + dpre_c @ layer.W_Cx + dpre_o @ layer.W_ox)
                dh_rec = (dpre_f @ layer.W_fh + dpre_i @ layer.W_ih
                          + dpre_c @ layer.W_Ch + dpre_o @ layer.W_oh)
                dc_rec = dc * f
        else:
            g = {name: np.zeros_like(t) for name, t in layer.tensors()}
            hs = lc["h"]
            dh_rec = np.zeros((n_batch, hidden))
            for t in range(n_steps - 1, -1, -1):
                h_prev = (
                    hs[:, t - 1] if t > 0
                    else np.broadcast_to(layer.h0, (n_batch, hidden))
                )
                dh = dh_above[:, t] + dh_rec
                dpre = dh * (1.0 - hs[:, t] * hs[:, t])
                g["W_x"] += dpre.T @ xs[:, t]
                g["W_h"] += dpre.T @ h_prev
                g["b_h"] += dpre.sum(axis=0)
                dxs[:, t] = dpre @ layer.W_x
                dh_rec = dpre @ layer.W_h
                if t == 0:
                    g["h0"] += dh_rec.sum(axis=0)
                    dh_rec = np.zeros((n_batch, hidden))

        for name, grad in g.items():
            grads[f"layer{idx}.{name}"] = grad

        if idx > 0:
            mask_below = cache["dropout_masks"][idx - 1]
            dh_above = dxs if mask_below is None else dxs * mask_below
        else:
            demb = np.zeros_like(net.embedding)
            np.add.at(demb, ids, dxs)
            grads["embedding"] = demb

    return grads


def finite_difference_gradients(
    net: LstmNetwork,
    ids: Sequence[int] | np.ndarray,
    targets: Sequence[int] | np.ndarray,
    step: float = 1e-5,
    mask: np.ndarray | None = None,
    dropout_masks: list[np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Central-difference loss gradients; the numerical oracle for ``backward``.

    With ``dropout_masks`` the loss is evaluated under those fixed masks,
    matching a train-mode forward; otherwise dropout is off.
    """

    def current_loss() -> float:
        probs, _ = forward_sequence(
            net, ids, train=dropout_masks is not None, dropout_masks=dropout_masks
        )
        return loss(probs, targets, mask)

    grads = {}
    for name, arr in net.param_items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        flat_grad = grad.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + step
            up = current_loss()
            flat[j] = original - step
            down = current_loss()
            flat[j] = original
            flat_grad[j] = (up - down) / (2.0 * step)
        grads[name] = grad
    return grads


def rmsprop_step(
    param: np.ndarray,
    grad: np.ndarray,
    accum: np.ndarray,
    learning_rate: float,
    decay: float = 0.9,
    epsilon: float = 1e-8,
) -> None:
    """In place: accum <- d*accum + (1-d)*g^2; param <- param - lr*g/(sqrt(accum)+eps)."""
    accum *= decay
    accum += (1.0 - decay) * grad * grad
    param -= learning_rate * grad / (np.sqrt(accum) + epsilon)


class RmsPropOptimizer:
    """Per-tensor accumulators, updated in the network's fixed parameter order."""

    def __init__(self, net: LstmNetwork, cfg: TrainConfig):
        self.cfg = cfg
        self.accum = {name: np.zeros_like(arr) for name, arr in net.param_items()}

    def apply(self, net: LstmNetwork, grads: dict[str, np.ndarray]) -> None:
        for name, param in net.param_items():
            rmsprop_step(
                param, grads[name], self.accum[name],
                self.cfg.learning_rate, self.cfg.rmsprop_decay, self.cfg.rmsprop_epsilon,
            )


def make_windows(sequences: Iterable[StudentSequence], window: int) -> list[np.ndarray]:
    """Cut each sequence into non-overlapping chunks of window+1 actions.

    The trailing short chunk is kept when it still holds one transition.
    """
    chunks = []
    for seq in sequences:
        actions = np.asarray(seq.actions, dtype=np.int64)
        for start in range(0, len(actions), window + 1):
            chunk = actions[start : start + window + 1]
            if len(chunk) >= 2:
                chunks.append(chunk)
    return chunks


def _pad_batch(windows: list[np.ndarray], length: int, pad_id: int):
    batch = np.full((len(windows), length), pad_id, dtype=np.int64)
    for row, chunk in enumerate(windows):
        batch[row, : len(chunk)] = chunk
    inputs = batch[:, :-1]
    targets = batch[:, 1:]
    return inputs, targets, targets != pad_id


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    hillclimb_accuracy: float


def train(corpus: Corpus, cfg: TrainConfig) -> tuple[LstmNetwork, list[EpochStats]]:
    """Train on windowed sequences; track hill-climbing accuracy each epoch.

    A student-level slice of the training data (HILL_FRACTION, ceiling) is
    held out and scored after every epoch with the usual sequence accuracy.
    The final-epoch network and the per-epoch curve are returned.
    """
    cfg.validate()
    if not corpus.sequences:
        raise ConfigError("cannot train on an empty corpus")
    train_seqs, hill_seqs = hill_climb_split(corpus.sequences, HILL_FRACTION, cfg.seed)
    net = network_from_config(corpus.vocab_size, cfg)
    optimizer = RmsPropOptimizer(net, cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 0x5F0F])
    dropout_rng = np.random.default_rng([cfg.seed, 0xD0])

    windows = make_windows(train_seqs, cfg.window)
    if not windows:
        raise ConfigError("no trainable windows; sequences may be too short")
    scoreable_hill = [s for s in hill_seqs if len(s) >= 2]

    curve = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(windows))
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch_windows = [windows[j] for j in order[start : start + cfg.batch_size]]
            inputs, targets, valid = _pad_batch(batch_windows, cfg.window + 1, net.pad_id)
            probs, cache = forward_sequence(net, inputs, train=True, rng=dropout_rng)
            batch_loss = loss(probs, targets, valid)
            grads = backward(net, cache, targets, valid)
            optimizer.apply(net, grads)
            loss_sum += batch_loss * len(batch_windows)
        predictor = LstmPredictor(net)
        hill_acc = (
            float(np.mean([sequence_accuracy(predictor, s.actions) for s in scoreable_hill]))
            if scoreable_hill
            else float("nan")
        )
        curve.append(EpochStats(epoch, loss_sum / len(windows), hill_acc))
    return net, curve


def _last_step_distribution(net: LstmNetwork, ids: np.ndarray) -> np.ndarray:
    top_h, _ = _run_layers(net, ids, train=False, rng=None, dropout_masks=None)
    logits = top_h[:, -1] @ net.W_y.T + net.b_y
    return softmax(logits)


def predict_next(net: LstmNetwork, context: Sequence[int]) -> tuple[int, np.ndarray]:
    """Argmax next action from the most recent window of the context."""
    if len(context) == 0:
        raise NextactionError("prediction needs a non-empty context")
    ids = np.asarray(context, dtype=np.int64)[-net.window:][None, :]
    _validate_ids(net, ids)
    if ids.max() >= net.vocab_size:
        raise NextactionError("context contains the reserved pad id")
    dist = _last_step_distribution(net, ids)[0]
    return int(np.argmax(dist)), dist


class LstmPredictor:
    """Scores whole sequences with a trained network."""

    def __init__(self, net: LstmNetwork):
        self.net = net

    def predict_sequence(self, actions: Sequence[int]) -> list[int]:
        """Predictions for positions 2..T, batched by shared context length."""
        net = self.net
        arr = np.asarray(actions, dtype=np.int64)
        n = len(arr)
        if n < 2:
            return []
        by_length: dict[int, list[int]] = {}
        for t in range(1, n):
            by_length.setdefault(min(t, net.window), []).append(t)
        out = np.empty(n - 1, dtype=np.int64)
        for length, positions in by_length.items():
            ids = np.stack([arr[t - length : t] for t in positions])
            _validate_ids(net, ids)
            dist = _last_step_distribution(net, ids)
            for row, t in enumerate(positions):
                out[t - 1] = int(np.argmax(dist[row]))
        return out.tolist()


def cv_factory(cfg: TrainConfig):
    """A cross-validation model factory; also collects per-fold epoch curves."""
    curves: dict[int, list[EpochStats]] = {}

    def factory(train_corpus: Corpus, fold: int):
        fold_cfg = replace(cfg, seed=derive_seed(cfg.seed, fold))
        net, curve = train(train_corpus, fold_cfg)
        curves[fold] = curve
        return LstmPredictor(net)

    return factory, curves


def grid_search(
    corpus: Corpus,
    combos: Iterable[tuple[int, int, float]],
    plan,
    base_cfg: TrainConfig,
    workers: int = 1,
):
    """Cross-validated accuracy for each (layers, nodes, learning rate) combo.

    Returns (config, report) pairs sorted by descending accuracy.
    """
    from .evaluation import cross_validate

    results = []
    for layers, nodes, lr in combos:
        cfg = replace(base_cfg, layers=layers, hidden_size=nodes, learning_rate=lr)
        factory, _ = cv_factory(cfg)
        name = f"{cfg.cell} layers={layers} nodes={nodes} lr={lr:g}"
        report = cross_validate(factory, corpus, plan, model_name=name, workers=workers)
        report.metadata.update({
            "layers": str(layers), "nodes": str(nodes), "lr": f"{lr:g}",
            "epochs": str(cfg.epochs), "window": str(cfg.window),
        })
        results.append((cfg, report))
    results.sort(key=lambda item: -item[1].cv_accuracy)
    return results


def save_checkpoint(net: LstmNetwork, path: str | Path) -> None:
    """Binary checkpoint plus a text manifest with shapes and a checksum."""
    path = Path(path)
    header = struct.pack(
        "<IIIIdB",
        net.vocab_size,
        net.embedding_dim,
        net.hidden_size,
        len(net.layers),
        net.dropout_rate,
        _CELL_KINDS[net.cell],
    )
    parts = [CHECKPOINT_MAGIC, header]
    for _, arr in net.param_items():
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    blob = b"".join(parts)
    path.write_bytes(blob)

    manifest = [
        f"checkpoint: {path.name}",
        f"cell: {net.cell}",
        f"window: {net.window}",
        f"sha256: {hashlib.sha256(blob).hexdigest()}",
    ]
    manifest.extend(
        f"tensor: {name} {'x'.join(str(d) for d in arr.shape)}"
        for name, arr in net.param_items()
    )
    Path(str(path) + ".manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path, window: int | None = None) -> LstmNetwork:
    path = Path(path)
    blob = path.read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise NextactionError("bad checkpoint magic")
    offset = len(CHECKPOINT_MAGIC)
    vocab_size, emb_dim, hidden, n_layers, dropout_rate, cell_kind = struct.unpack_from(
        "<IIIIdB", blob, offset
    )
    offset += struct.calcsize("<IIIIdB")
    cell = {v: k for k, v in _CELL_KINDS.items()}[cell_kind]

    if window is None:
        manifest_path = Path(str(path) + ".manifest.txt")
        if manifest_path.exists():
            for line in manifest_path.read_text(encoding="utf-8").splitlines():
                if line.startswith("window: "):
                    window = int(line.split(": ", 1)[1])
        if window is None:
            raise ConfigError("checkpoint manifest missing; pass the window explicitly")

    net = init_network(vocab_size, emb_dim, hidden, n_layers, dropout_rate, window, cell)

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        n = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += 8 * n
        return arr.astype(np.float64)

    net.embedding = take(net.embedding.shape)
    for layer in net.layers:
        for name, arr in layer.tensors():
            setattr(layer, name, take(arr.shape))
    net.W_y = take(net.W_y.shape)
    net.b_y = take(net.b_y.shape)
    if offset != len(blob):
        raise NextactionError("checkpoint has trailing bytes; shape mismatch")
    return net

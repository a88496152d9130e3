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

The logistic takes one pass with no branch per element: e = exp(-|z|), a
numerator max(e, [z >= 0]) that is 1 where z >= 0 (there e <= 1) and e
elsewhere, then numerator / (1 + e).  No exp overflows, and each element
rounds exactly as in the two-branch form 1 / (1 + exp(-z)),
exp(z) / (1 + exp(z)).  A step applies it to the f, i and o gates only and
tanh to the candidate.

Each layer stores its weights with the gate axis first (``RecurrentLayer``):
``W_x`` (G, H, D), ``W_h`` (G, H, H) and ``b`` (G, H), with G = 4 gates in
f, i, C, o order for the LSTM and G = 1 for the tanh cell, so one time loop
forward and one backward serve both cells.  Checkpoints and gradients name
the per-gate views (``W_fx``, ``W_fh``, ``b_f``, ...).

Training minimizes categorical cross-entropy with RMSprop.  Gradients are
exact under the recorded dropout masks.  Sequences are cut into
non-overlapping windows of ``window + 1`` actions with zero initial state;
short trailing windows are padded with a reserved mask id (== vocab size)
whose steps contribute no loss and no gradient.

Everything runs in 64-bit floats.
"""

import hashlib
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import check_shape
from .errors import ConfigError, MalformedRecordError, NextactionError, NumericalFaultError
from .evaluation import hill_climb_split, pool_folds, sequence_accuracy
from .ingest import Corpus, action_array, text_lines

PROB_FLOOR = 1e-12
HILL_FRACTION = 0.1  # share of training students held out for hill climbing
CHECKPOINT_MAGIC = b"NLSTM1"
_HEADER = struct.Struct("<IIIIdB")  # V, embedding, hidden, layers, dropout, cell
_CELL_KINDS = {"lstm": 0, "rnn": 1}


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    out = np.maximum(e, z >= 0, out=out)  # 1 where z >= 0, since e <= 1; e elsewhere
    out /= np.add(e, 1.0, out=e)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


@dataclass
class RecurrentLayer:
    """Weights of one recurrent layer, gate axis first.

    ``W_x`` is (G, H, D), ``W_h`` (G, H, H) and ``b`` (G, H): G = 4 LSTM gates
    in f, i, C, o order, or G = 1 for the tanh cell
    h_t = tanh(W_x x_t + W_h h_{t-1} + b), which alone has a trainable
    initial state ``h0`` (H,).
    """

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray
    h0: np.ndarray | None = None

    @classmethod
    def zeros(cls, cell: str, d_in: int, hidden: int) -> "RecurrentLayer":
        gates = 4 if cell == "lstm" else 1
        return cls(np.zeros((gates, hidden, d_in)), np.zeros((gates, hidden, hidden)),
                   np.zeros((gates, hidden)), None if cell == "lstm" else np.zeros(hidden))

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """Per-gate views under their checkpoint names, in checkpoint order."""
        if self.h0 is not None:
            return [("W_x", self.W_x[0]), ("W_h", self.W_h[0]), ("b_h", self.b[0]),
                    ("h0", self.h0)]
        return [item for k, gate in enumerate("fiCo") for item in (
            (f"W_{gate}x", self.W_x[k]), (f"W_{gate}h", self.W_h[k]), (f"b_{gate}", self.b[k]))]

    def initial_state(self, n_batch: int) -> np.ndarray:
        """h_{-1} for a batch: zeros for the LSTM, broadcast h0 for the tanh cell."""
        if self.h0 is None:
            return np.zeros((n_batch, self.b.shape[1]))
        return np.broadcast_to(self.h0, (n_batch, self.b.shape[1]))


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
    seed: int = 0
    hidden_size: int = 64
    layers: int = 1
    embedding_dim: int = 64
    cell: str = "lstm"

    def validate(self, vocab_size: int = 1) -> None:
        if not 0 < self.learning_rate < np.inf:  # nan fails this too
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.window < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("window, epochs and batch size must be >= 1")
        if self.layers not in (1, 2, 3):
            raise ConfigError(f"layer count must be 1, 2 or 3, got {self.layers}")
        if self.hidden_size < 1 or self.embedding_dim < 1:
            raise ConfigError("hidden and embedding sizes must be >= 1")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError("dropout rate must be in [0, 1)")
        if self.cell not in _CELL_KINDS:
            raise ConfigError(f"cell must be lstm or rnn, got {self.cell!r}")
        # the tensors for vocab_size actions (1 before a corpus is read), and one window
        widest = max(self.embedding_dim, self.hidden_size)
        check_shape("the embedding or output layer", vocab_size + 1, widest)
        check_shape("a recurrent layer", 4 if self.cell == "lstm" else 1, self.hidden_size, widest)
        check_shape("a training window", self.window + 1)


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (for per-fold training streams)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


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

    The weight matrices, the embedding and every ``W_*`` tensor, are drawn in
    ``param_items`` order, the checkpoint's, each with fan-in ``shape[1]``.
    """
    if cell not in _CELL_KINDS:
        raise ConfigError(f"unknown cell kind {cell!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    net = LstmNetwork(
        np.zeros((vocab_size + 1, embedding_dim)),
        [RecurrentLayer.zeros(cell, embedding_dim if idx == 0 else hidden_size, hidden_size)
         for idx in range(layers)],
        np.zeros((vocab_size, hidden_size)), np.zeros(vocab_size), dropout_rate, window, cell,
    )
    for name, array in net.param_items():
        if name == "embedding" or name.rpartition(".")[2].startswith("W"):
            limit = 1.0 / np.sqrt(array.shape[1])
            array[...] = rng.uniform(-limit, limit, size=array.shape)
    return net


def network_from_config(vocab_size: int, cfg: TrainConfig) -> LstmNetwork:
    cfg.validate(vocab_size)
    rng = np.random.default_rng([cfg.seed, 0x1417])
    return init_network(
        vocab_size, cfg.embedding_dim, cfg.hidden_size, cfg.layers,
        cfg.dropout_rate, cfg.window, cfg.cell, rng,
    )


def _run_layers(
    net: LstmNetwork,
    ids: np.ndarray,
    train: bool,
    rng: np.random.Generator | None,
):
    """Batched forward through embedding and all recurrent layers.

    Returns the top layer's hidden states (B, T, H) and the cache; only train
    mode keeps the per-step gates and cell states that ``backward`` reads.

    Each layer's steps reuse one set of buffers: ``act`` (G, B, H), where the
    gate pre-activations (x W_x + h W_h) + b are summed and then activated in
    place, the recurrent product, and c, tanh(c), i * g and h (B, H).  Every
    operation keeps its operands and their order, so the buffers change no
    bit.  The outputs of exp (inside the logistic) and tanh are whole
    buffers or gate slices of ``act``, all C-contiguous: numpy vectorises
    these functions only into a contiguous output, and a strided one may
    round differently.
    """
    n_batch, n_steps = ids.shape
    hidden = net.hidden_size
    layer_inputs = net.embedding[ids]  # (B, T, D)
    use_dropout = train and net.dropout_rate > 0 and len(net.layers) > 1
    lstm = net.cell == "lstm"
    masks: list[np.ndarray | None] = []
    layer_caches = []

    for idx, layer in enumerate(net.layers):
        if idx > 0:
            if use_dropout:
                if rng is None:
                    raise ConfigError("train-mode dropout needs an rng")
                keep = rng.random((n_batch, n_steps, hidden)) >= net.dropout_rate
                mask = keep / (1.0 - net.dropout_rate)
                masks.append(mask)
                layer_inputs = layer_inputs * mask
            else:
                masks.append(None)

        xs = layer_inputs
        W_xT, W_hT = layer.W_x.transpose(0, 2, 1), layer.W_h.transpose(0, 2, 1)
        bias = layer.b[:, None]
        hs = np.empty((n_batch, n_steps, hidden))
        lc = {"xs": xs, "h": hs}
        if train:
            lc["gates"] = np.empty((len(layer.b), n_batch, n_steps, hidden))
            lc["c"], lc["tanh_c"] = (np.empty_like(hs), np.empty_like(hs)) if lstm else (None, None)
        act = np.empty((len(layer.b), n_batch, hidden))
        h_proj = np.empty_like(act)
        h = layer.initial_state(n_batch).copy()
        c, tanh_c, i_g = np.zeros((n_batch, hidden)), np.empty_like(h), np.empty_like(h)
        for t in range(n_steps):
            np.matmul(xs[:, t], W_xT, out=act)
            act += np.matmul(h, W_hT, out=h_proj)
            act += bias
            if lstm:
                sigmoid(act[:2], out=act[:2])
                np.tanh(act[2], out=act[2])
                sigmoid(act[3], out=act[3])
                c *= act[0]
                c += np.multiply(act[1], act[2], out=i_g)
                np.multiply(act[3], np.tanh(c, out=tanh_c), out=h)
                if train:
                    lc["c"][:, t], lc["tanh_c"][:, t] = c, tanh_c
            else:
                h[...] = np.tanh(act, out=act)[0]
            if train:
                lc["gates"][:, :, t] = act
            hs[:, t] = h
        layer_caches.append(lc)
        layer_inputs = hs

    cache = {"ids": ids, "layers": layer_caches, "dropout_masks": masks, "top_h": layer_inputs}
    return layer_inputs, cache


def forward_sequence(
    net: LstmNetwork,
    ids: Sequence[int] | np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Per-step output distributions for one window or a batch of windows.

    ``ids`` is (T,) or (B, T) with T <= the training window; entries equal to
    the pad id mark padded steps, and an id above it raises ConfigError.
    Returns (probs, cache) with probs of shape (B, T, V); pass the cache to
    ``backward`` after a train-mode run.
    """
    arr = action_array(net.pad_id + 1, ids)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise NextactionError("ids must be a non-empty window or batch of windows")
    if arr.shape[1] > net.window:
        raise ConfigError(f"window of {arr.shape[1]} exceeds the model window {net.window}")
    top_h, cache = _run_layers(net, arr, train, rng)
    logits = top_h @ net.W_y.T + net.b_y
    probs = softmax(logits)
    cache["probs"] = probs
    return probs, cache


def _target_probs(probs: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """(index of each step's target in ``probs``, its probability); a masked step reads id 0."""
    n_batch, n_steps, _ = probs.shape
    at = (np.arange(n_batch)[:, None], np.arange(n_steps)[None, :], np.where(mask, targets, 0))
    return at, probs[at]


def loss(probs: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """Mean over steps of -log p(target), then mean over windows in a batch.

    ``probs`` is (B, T, V), ``targets`` (B, T) int64 and ``mask`` (B, T) bool,
    true at real (non-pad) steps.  Probabilities are floored at 1e-12.
    """
    _, picked = _target_probs(probs, targets, mask)
    step_loss = -np.log(np.maximum(picked, PROB_FLOOR)) * mask
    per_window = step_loss.sum(axis=1) / np.maximum(mask.sum(axis=1), 1)
    return float(per_window.mean())


def backward(net: LstmNetwork, cache: dict, targets: np.ndarray,
             mask: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of ``loss`` for every parameter under the cached dropout
    masks; ``targets`` and ``mask`` are as in ``loss``."""
    if "gates" not in cache.get("layers", [{}])[0]:
        raise NextactionError("backward needs the cache of a train-mode forward pass")
    probs = cache["probs"]
    ids = cache["ids"]
    n_batch, n_steps, _ = probs.shape
    at, picked = _target_probs(probs, targets, mask)
    live = mask & (picked > PROB_FLOOR)  # floored steps have zero gradient

    dz = probs * live[:, :, None]
    dz[at] -= live
    scale = live / (n_batch * np.maximum(mask.sum(axis=1, keepdims=True), 1))
    dz *= scale[:, :, None]

    grads: dict[str, np.ndarray] = {}
    top_h = cache["top_h"]
    grads["output.W_y"] = np.einsum("btv,bth->vh", dz, top_h)
    grads["output.b_y"] = dz.sum(axis=(0, 1))
    dh_above = dz @ net.W_y  # (B, T, H)

    hidden = net.hidden_size
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        lc = cache["layers"][idx]
        xs, gates, cs, tanh_cs, hs = lc["xs"], lc["gates"], lc["c"], lc["tanh_c"], lc["h"]
        h_start = layer.initial_state(n_batch)
        grad = RecurrentLayer.zeros(net.cell, xs.shape[2], hidden)
        dxs = np.empty_like(xs)
        dh_rec = np.zeros((n_batch, hidden))
        dc_rec, c_start = np.zeros_like(dh_rec), np.zeros_like(dh_rec)
        dh, dc = np.empty_like(dh_rec), np.empty_like(dh_rec)
        d_act, dpre, scratch = (np.empty((len(layer.b), n_batch, hidden)) for _ in range(3))
        for t in range(n_steps - 1, -1, -1):
            act = gates[:, :, t]
            np.add(dh_above[:, t], dh_rec, out=dh)
            if net.cell == "lstm":
                f, i, ct, o = act
                c_prev = cs[:, t - 1] if t > 0 else c_start
                tanh_c = tanh_cs[:, t]
                # dc = dc_rec + dh * o * (1 - tanh_c^2)
                np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=dc), out=dc)
                dc *= np.multiply(dh, o, out=scratch[0])
                dc += dc_rec
                np.multiply(dc, c_prev, out=d_act[0])
                np.multiply(dc, ct, out=d_act[1])
                np.multiply(dc, i, out=d_act[2])
                np.multiply(dh, tanh_c, out=d_act[3])
                # dpre = d_act * act * (1 - act), and d_act * (1 - ct^2) for the tanh gate
                np.multiply(d_act, act, out=dpre)
                dpre *= np.subtract(1.0, act, out=scratch)
                np.subtract(1.0, np.multiply(ct, ct, out=dpre[2]), out=dpre[2])
                dpre[2] *= d_act[2]
                np.multiply(dc, f, out=dc_rec)
            else:
                np.subtract(1.0, np.multiply(act, act, out=dpre), out=dpre)
                dpre *= dh
            dpre_T = dpre.transpose(0, 2, 1)
            grad.W_x += np.matmul(dpre_T, xs[:, t])
            grad.W_h += np.matmul(dpre_T, hs[:, t - 1] if t > 0 else h_start)
            grad.b += dpre.sum(axis=1)
            dxs[:, t] = np.matmul(dpre, layer.W_x).sum(axis=0)
            dh_rec = np.matmul(dpre, layer.W_h).sum(axis=0)
        if grad.h0 is not None:
            grad.h0 += dh_rec.sum(axis=0)
        grads.update((f"layer{idx}.{name}", g) for name, g in grad.tensors())

        if idx > 0:
            mask_below = cache["dropout_masks"][idx - 1]
            dh_above = dxs if mask_below is None else dxs * mask_below
        else:
            demb = np.zeros_like(net.embedding)
            np.add.at(demb, ids, dxs)
            grads["embedding"] = demb

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
    step = np.multiply(grad, 1.0 - decay)
    accum *= decay
    accum += np.multiply(step, grad, out=step)
    denom = np.sqrt(accum)
    denom += epsilon
    param -= np.divide(np.multiply(grad, learning_rate, out=step), denom, out=step)


class RmsPropOptimizer:
    """Per-tensor accumulators, updated in the network's fixed parameter order."""

    def __init__(self, net: LstmNetwork, cfg: TrainConfig):
        self.cfg = cfg
        self.accum = {name: np.zeros_like(arr) for name, arr in net.param_items()}

    def apply(self, net: LstmNetwork, grads: dict[str, np.ndarray]) -> None:
        for name, param in net.param_items():
            rmsprop_step(param, grads[name], self.accum[name], self.cfg.learning_rate)


def make_windows(corpus: Corpus, window: int, pad_id: int) -> np.ndarray:
    """Cut each sequence into non-overlapping chunks of window+1 actions, one
    chunk per row of a matrix, in corpus order, padded at the end with ``pad_id``.

    The trailing short chunk is kept when it still holds one transition.
    """
    column = corpus.pos % (window + 1)
    chunk = np.cumsum(column == 0) - 1  # each action's chunk
    kept = np.bincount(chunk) >= 2
    keep = kept[chunk]
    windows = np.full(check_shape("the training windows", int(kept.sum()), window + 1), pad_id,
                      dtype=np.int64)
    windows[(np.cumsum(kept) - 1)[chunk[keep]], column[keep]] = corpus.actions[keep]
    return windows


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    hillclimb_accuracy: float


def train(corpus: Corpus, cfg: TrainConfig) -> tuple[LstmNetwork, list[EpochStats]]:
    """Train on windowed sequences; track hill-climbing accuracy each epoch.

    A student-level slice of the training data (HILL_FRACTION, ceiling) is
    held out and scored after every epoch with the usual sequence accuracy.
    The final-epoch network and the per-epoch curve are returned.  An epoch
    that ends with a non-finite loss or parameter raises NumericalFaultError.
    """
    cfg.validate(corpus.vocab_size)
    if not len(corpus):
        raise ConfigError("cannot train on an empty corpus")
    action_array(corpus.vocab_size, corpus.actions)  # an id of V would train as padding
    train_corpus, hill_corpus = hill_climb_split(corpus, HILL_FRACTION, cfg.seed)
    net = network_from_config(corpus.vocab_size, cfg)
    optimizer = RmsPropOptimizer(net, cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 0x5F0F])
    dropout_rng = np.random.default_rng([cfg.seed, 0xD0])

    windows = make_windows(train_corpus, cfg.window, net.pad_id)
    if not len(windows):
        raise ConfigError("no trainable windows; sequences may be too short")
    scoreable_hill = hill_corpus.take(hill_corpus.lengths >= 2)

    curve = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(windows))
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = windows[order[start : start + cfg.batch_size]]
            inputs, targets = batch[:, :-1], batch[:, 1:]
            valid = targets != net.pad_id
            probs, cache = forward_sequence(net, inputs, train=True, rng=dropout_rng)
            batch_loss = loss(probs, targets, valid)
            grads = backward(net, cache, targets, valid)
            optimizer.apply(net, grads)
            loss_sum += batch_loss * len(batch)
        train_loss = loss_sum / len(windows)
        bad = [name for name, arr in net.param_items() if not np.all(np.isfinite(arr))]
        if bad or not np.isfinite(train_loss):
            raise NumericalFaultError(
                f"epoch {epoch}: non-finite " + (f"parameter {bad[0]}" if bad else "training loss")
            )
        try:
            hill_acc = (
                float(np.mean(sequence_accuracy(LstmPredictor(net), scoreable_hill)[0]))
                if len(scoreable_hill) else float("nan")
            )
        except NumericalFaultError as exc:
            raise NumericalFaultError(f"epoch {epoch}: {exc}") from None
        curve.append(EpochStats(epoch, train_loss, hill_acc))
    return net, curve


class LstmPredictor:
    """Scores concatenated sequences with a trained network, one sequence at a time."""

    def __init__(self, net: LstmNetwork):
        self.net = net

    def predict_sequence(self, actions: Sequence[int], pos: Sequence[int]) -> np.ndarray:
        """Predictions at every ``pos >= 1``, each from at most the last ``window``
        actions of its own sequence.  Non-finite output probabilities raise
        NumericalFaultError."""
        arr = action_array(self.net.vocab_size, actions)
        starts = np.flatnonzero(np.asarray(pos) == 0)[1:]
        return np.concatenate([self._score(seq) for seq in np.split(arr, starts)])

    def _score(self, arr: np.ndarray) -> np.ndarray:
        """Predictions for positions 2..T of one sequence.

        The contexts shorter than the window are the prefixes of one run from
        the initial state; the rest are one batch of sliding windows.
        """
        net = self.net
        head = arr[: min(net.window, len(arr)) - 1]
        top_h, _ = _run_layers(net, head[None], False, None)
        # a (1, H) @ (H, V) product per prefix rounds as a run over that prefix alone
        logits = [top_h[0][:, None] @ net.W_y.T]
        if len(arr) > net.window:
            windows = sliding_window_view(arr[:-1], net.window)
            top_h, _ = _run_layers(net, windows, False, None)
            logits.append((top_h[:, -1] @ net.W_y.T)[:, None])
        # the argmax reads probabilities, whose rounding can tie logits that differ
        probs = softmax(np.concatenate(logits) + net.b_y)
        if not np.isfinite(probs).all():
            raise NumericalFaultError("non-finite output probability; activations overflow")
        return np.argmax(probs[:, 0], axis=-1)


@dataclass(frozen=True)
class LstmSpec:
    """Cross-validation spec: one network trained per fold by the one task function
    of ``pool_folds``, in this process at one worker, else on ``workers`` forked
    processes; its extras are the epoch curve.  A fold trains with a seed derived
    from the config seed and the fold index; the full-corpus fit, only with
    ``fit_full``, trains with the config seed."""

    cfg: TrainConfig
    workers: int = 1
    fit_full: bool = False

    @property
    def names(self) -> list[str]:
        return [f"{self.cfg.cell} layers={self.cfg.layers} nodes={self.cfg.hidden_size}"]

    def fit_folds(self, corpus: Corpus, folds: np.ndarray, held_out: list[np.ndarray]):
        return pool_folds(self, corpus, folds, held_out, self.workers, self.fit_full)

    def fit(self, train_corpus: Corpus, fold: int | None):
        cfg = self.cfg if fold is None else replace(self.cfg, seed=derive_seed(self.cfg.seed, fold))
        net, curve = train(train_corpus, cfg)
        return (LstmPredictor(net),), curve


def save_checkpoint(net: LstmNetwork, path: str | Path) -> None:
    """Binary checkpoint plus a text manifest with shapes and a checksum."""
    path = Path(path)
    header = _HEADER.pack(net.vocab_size, net.embedding_dim, net.hidden_size, len(net.layers),
                          net.dropout_rate, _CELL_KINDS[net.cell])
    parts = [CHECKPOINT_MAGIC, header]
    for _, arr in net.param_items():
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    blob = b"".join(parts)
    path.write_bytes(blob)
    manifest = _manifest(path.name, net, hashlib.sha256(blob).hexdigest())
    Path(str(path) + ".manifest.txt").write_text(
        "".join(f"{key}: {value}\n" for key, value in manifest), encoding="utf-8")


def _manifest(name: str, net: LstmNetwork, digest: str) -> list[tuple[str, str]]:
    """The (key, value) lines of the manifest of a checkpoint named ``name`` holding
    ``net`` with SHA-256 ``digest``, in file order."""
    return [("checkpoint", name), ("cell", net.cell), ("window", str(net.window)),
            ("sha256", digest), *(("tensor", f"{tensor} {'x'.join(map(str, arr.shape))}")
                                  for tensor, arr in net.param_items())]


def _read_manifest(path: Path, name: str, net: LstmNetwork, digest: str) -> int:
    """The window a checkpoint's manifest states, after checking every line, in
    order, against ``_manifest(name, net, digest)``; only the window's value may
    differ from ``net``'s, and it must be a positive integer."""
    expected = _manifest(name, net, digest)
    keys = {key for key, _ in expected}
    lines, seen, window = text_lines(path.read_bytes()), set(), None
    for lineno, (key, want) in enumerate([*expected, (None, None)], start=1):
        line = next(lines, (lineno, None))[1]
        if line is None:
            if key is None:
                return window
            raise MalformedRecordError(lineno, f"missing {key!r} line")
        got, _, value = line.removesuffix("\n").partition(": ")
        if got != key:
            raise MalformedRecordError(lineno, f"unknown key {got!r}" if got not in keys
                                       else f"repeated key {got!r}" if got in seen
                                       else f"missing {key!r} line")
        seen.add(key)
        if not line.endswith("\n"):
            raise MalformedRecordError(lineno, "no newline at the end of the line")
        if key == "window":
            if not (value.isascii() and value.isdigit() and int(value) >= 1):
                raise MalformedRecordError(lineno, f"window is not a positive integer: {value!r}")
            window = int(value)
        elif key == "sha256":
            if value != digest:
                raise ConfigError(f"{name} does not match the SHA-256 in its manifest")
        elif value != want:
            raise MalformedRecordError(lineno, f"{key} is {value!r}, the checkpoint's is {want!r}")


def load_checkpoint(blob: bytes, path: str | Path, window: int | None = None) -> LstmNetwork:
    """Parse the bytes of the checkpoint at ``path``, verifying against them the
    manifest beside that path, which must exist.

    The window comes from ``window`` or else the manifest, whose stated window
    is checked either way.  A malformed file raises MalformedRecordError with the
    byte offset (in the manifest, the line) of the bad field; a missing manifest,
    a checksum mismatch or a ``window`` below 1 raises ConfigError.  Every manifest
    line must be the one ``save_checkpoint`` writes for this file, its name
    included, except the window's value.
    """
    if window is not None and window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    path = Path(path)
    start = len(CHECKPOINT_MAGIC) + _HEADER.size
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise MalformedRecordError(0, "bad checkpoint magic", unit="byte")
    if len(blob) < start:
        raise MalformedRecordError(len(blob), f"short header, needs {start} bytes", unit="byte")
    vocab_size, emb_dim, hidden, n_layers, dropout_rate, cell_kind = _HEADER.unpack_from(
        blob, len(CHECKPOINT_MAGIC)
    )
    cell = next((k for k, v in _CELL_KINDS.items() if v == cell_kind), None)
    if cell is None:
        raise MalformedRecordError(start - 1, f"unknown cell byte {cell_kind}", unit="byte")
    if min(vocab_size, emb_dim, hidden) < 1 or not 1 <= n_layers <= 3 or not 0 <= dropout_rate < 1:
        raise MalformedRecordError(len(CHECKPOINT_MAGIC), "header value out of range", unit="byte")
    # sizes come from the file, so check them before allocating anything
    gates, h0_size = (4, 0) if cell == "lstm" else (1, hidden)
    n_values = (vocab_size + 1) * emb_dim + vocab_size * (hidden + 1) + n_layers * h0_size
    for d_in in [emb_dim] + [hidden] * (n_layers - 1):
        n_values += gates * hidden * (d_in + hidden + 1)
    end = start + 8 * n_values
    if len(blob) != end:
        raise MalformedRecordError(min(len(blob), end), (
            f"tensor region ends early, needs {end} bytes" if len(blob) < end
            else "trailing bytes after the tensors"), unit="byte")

    net = init_network(vocab_size, emb_dim, hidden, n_layers, dropout_rate, 1, cell)
    manifest = Path(str(path) + ".manifest.txt")
    if not manifest.exists():
        raise ConfigError(f"{path.name} has no manifest {manifest.name} to verify it against")
    stated = _read_manifest(manifest, path.name, net, hashlib.sha256(blob).hexdigest())

    values = np.frombuffer(blob, dtype="<f8", offset=start)
    finite = np.isfinite(values)
    if not finite.all():
        bad = start + 8 * int(np.argmin(finite))
        raise MalformedRecordError(bad, "non-finite parameter", unit="byte")
    net.window = stated if window is None else window
    for _, arr in net.param_items():
        arr[...] = values[: arr.size].reshape(arr.shape)
        values = values[arr.size :]
    return net

"""Independent brute-force oracles shared by the module and acceptance tests.

These deliberately re-derive gram statistics and backoff behavior with a
different traversal than the library (per-order window scans instead of
per-position order loops), the LSTM step one vector at a time instead of
a batch at a time, the logistic in two masked branches instead of one pass,
each LSTM prediction from its own window instead of a shared run, loss
gradients by central differences instead of backpropagation, synthetic
walks by one ``Generator.choice`` over the kernel's ``distribution`` per
step instead of a cached CDF table, prediction streams one record at a
time instead of as columns, stream and n-gram table files written one
f-string per record instead of as byte columns, n-gram cross-validation
by one table fitted per fold instead of by one count of the whole corpus,
n-gram contexts by a second sort per order instead of from the grams of the
order below, a table context's parent by one search per id instead of one per
packed word, event logs through the per-line rule on every line instead of in
blocks of array operations,
and corpus subsets, splits and training windows one row at a time instead
of by gathers over the columns, so they can serve as a second opinion.  The batched LSTM kernel is
also kept here as it was before its step buffers, as a byte-for-byte oracle.
"""

import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from nextaction.errors import (
    ConfigError, MalformedRecordError, NextactionError, NumericalFaultError,
)
from nextaction import ingest, ngram
from nextaction.evaluation import AgreementTable
from nextaction.ingest import NUMBER, Corpus, StudentSequence, action_array, text_lines
from nextaction.lstm import (
    PROB_FLOOR, LstmNetwork, RecurrentLayer, forward_sequence, loss, softmax,
)
from nextaction.synth import SynthConfig


def naive_gram_counts(sequences, max_order):
    """counts[k][ctx][next] by direct window enumeration per order."""
    counts = {k: {} for k in range(1, max_order + 1)}
    for actions in sequences:
        n = len(actions)
        for order in range(1, max_order + 1):
            if order == 1:
                slots = [((), actions[t]) for t in range(1, n)]
            else:
                slots = [
                    (tuple(actions[i : i + order - 1]), actions[i + order - 1])
                    for i in range(0, n - order + 1)
                ]
            for ctx, nxt in slots:
                counts[order].setdefault(ctx, Counter())[nxt] += 1
    return counts


def table_counts(table):
    """counts[k][ctx][next] of a fitted table, read through ``table.continuations``."""
    return {k: dict(view.items()) for k, view in table.continuations.items()}


def naive_backoff_predict(counts, context, max_order):
    """(predicted, order_used) from the naive counts: largest order with
    observations, argmax by count then lowest id."""
    start = min(max_order, len(context) + 1)
    for order in range(start, 0, -1):
        ctx = tuple(context[len(context) - order + 1 :]) if order > 1 else ()
        table = counts[order].get(ctx)
        if table:
            predicted = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            return predicted, order
    raise ValueError("no observations at any order")


def naive_backoff_usage(counts, sequences, max_order):
    """Order-usage fractions recomputed from the naive counts."""
    used = Counter()
    total = 0
    for actions in sequences:
        for t in range(1, len(actions)):
            _, order = naive_backoff_predict(counts, actions[:t], max_order)
            used[order] += 1
            total += 1
    return {order: used.get(order, 0) / total for order in range(1, max_order + 1)}


def two_sort_fit(corpus, max_order, gram_index):
    """``ngram.fit`` as it was before its contexts came from the grams of the order
    below: one ``np.unique`` of the contexts and one of the grams per order."""
    V = corpus.vocab_size
    actions, pos = action_array(V, corpus.actions), corpus.pos
    at = np.flatnonzero(pos >= 1)
    contexts = {1: np.zeros(min(len(at), 1), dtype=np.int64)}
    ids = np.zeros(len(actions), dtype=np.int64)
    grams, counts = {}, {}
    for k in range(1, max_order + 1):
        if k > 1:
            at = at[pos[at] >= k - 1]
            contexts[k], ranks = np.unique(ids[at - 1] * V + actions[at - 1], return_inverse=True)
            ids = np.full(len(actions), -1, dtype=np.int64)
            ids[at] = ranks
        grams[k], inverse, counts[k] = np.unique(ids[at] * V + actions[at], return_inverse=True,
                                                 return_counts=True)
        gram_index[k] = np.full(len(actions), -1, dtype=np.int64)
        gram_index[k][at] = inverse
    return ngram.NGramTable(max_order, V, contexts, grams, counts)


def chained_parents(contexts, rows, V):
    """The order-(k-1) id of the first k - 2 ids of each order-k context row, or -1
    where it has none: ``load_table``'s lookup as it was before packed words, rolled
    one id at a time up the orders' sorted ``contexts`` keys."""
    parent = np.zeros(len(rows), dtype=np.int64)
    for j in range(2, rows.shape[1] + 1):
        parent = ngram._match(contexts[j], np.where(parent >= 0, parent * V + rows[:, j - 2], -1))
    return parent


def naive_sigmoid(z):
    """The logistic in two masked branches: 1 / (1 + exp(-z)) where z >= 0,
    exp(z) / (1 + exp(z)) elsewhere, so that no exp overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LstmLayerState:
    """One step's activations of a single LSTM cell."""

    h: np.ndarray
    C: np.ndarray
    f: np.ndarray | None = None
    i: np.ndarray | None = None
    o: np.ndarray | None = None
    c_tilde: np.ndarray | None = None


def forward_cell(params, x, prev):
    """One LSTM step on a single input vector, gate activations retained.

    ``params`` is an LSTM ``RecurrentLayer``; its gates are read one at a
    time through the stacked f, i, C, o axis.
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(prev.h)) and np.all(np.isfinite(prev.C))):
        raise NumericalFaultError("non-finite input to LSTM cell")
    W_x, W_h, b = params.W_x, params.W_h, params.b
    f = naive_sigmoid(W_x[0] @ x + W_h[0] @ prev.h + b[0])
    i = naive_sigmoid(W_x[1] @ x + W_h[1] @ prev.h + b[1])
    c_tilde = np.tanh(W_x[2] @ x + W_h[2] @ prev.h + b[2])
    C = f * prev.C + i * c_tilde
    o = naive_sigmoid(W_x[3] @ x + W_h[3] @ prev.h + b[3])
    h = o * np.tanh(C)
    return LstmLayerState(h=h, C=C, f=f, i=i, o=o, c_tilde=c_tilde)


def lstm_predict_next(net, context):
    """(argmax, distribution) of the action after ``context``, from the last step
    of one ``forward_sequence`` over its final ``window`` actions: a path apart
    from the predictor's prefix run and sliding-window batch."""
    probs, _ = forward_sequence(net, list(context)[-net.window:])
    return int(np.argmax(probs[0, -1])), probs[0, -1]


def finite_difference_gradients(net, ids, targets, mask, step=1e-5, dropout_masks=None):
    """Central-difference loss gradients; the numerical oracle for ``lstm.backward``,
    with its (B, T) ``targets`` and ``mask``.

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


def mutated(draw, blob: bytes) -> bytes:
    """A hypothesis-drawn truncation or single-byte flip of ``blob``."""
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    at = draw(st.integers(0, len(blob) - 1))
    value = draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
    return blob[:at] + bytes([value]) + blob[at + 1 :]


def save_config(cfg, path):
    """Write a synth config as ``key=value`` lines, one per ``SynthConfig`` field."""
    lines = [f"{name}={getattr(cfg, name)}" for name in SynthConfig.__dataclass_fields__]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def advance_target(kernel, state):
    """Successor of the most recent on-course action of ``state``, item 0 if none."""
    for action in reversed(state):
        if action < kernel.syllabus_length:
            return (action + 1) % kernel.syllabus_length
    return 0


def distribution(kernel, state):
    """The kernel: exact next-action probabilities after a lookback ``state``, of
    which the last ``markov_order`` actions count, from ``kernel._probs``."""
    if not state:
        raise ConfigError("the kernel needs at least one prior action")
    state = state[-kernel.markov_order:]
    return kernel._probs(advance_target(kernel, state), state[-1])


def per_step_sample(kernel, length, rng):
    """A generator walk drawn one ``rng.choice`` over ``distribution`` per step."""
    seq = [0]
    for _ in range(length - 1):
        probs = distribution(kernel, seq[-kernel.markov_order:])
        seq.append(int(rng.choice(kernel.vocab_size, p=probs)))
    return seq


def per_step_oracle_accuracy(kernel, horizon, seed):
    """``synth.oracle_accuracy`` re-derived with per-step walks, scoring each
    position by the argmax of ``distribution`` over its whole prefix."""
    rng = np.random.default_rng([seed, 0x0AC1E])
    props = []
    for _ in range(horizon):
        seq = per_step_sample(kernel, kernel.sample_length(rng), rng)
        correct = sum(
            int(np.argmax(distribution(kernel, seq[:t]))) == seq[t] for t in range(1, len(seq))
        )
        props.append(correct / (len(seq) - 1))
    props_arr = np.asarray(props)
    stderr = float(props_arr.std(ddof=1) / np.sqrt(horizon)) if horizon > 1 else 0.0
    return float(props_arr.mean()), stderr


def columns(stream):
    """The four columns of a prediction stream as lists, after checking their types."""
    assert stream.student.dtype == object
    ints = (stream.position, stream.predicted, stream.truth)
    assert all(column.dtype == np.int64 for column in ints)
    return stream.student.tolist(), *(column.tolist() for column in ints)


def per_line_write_stream(stream, path):
    """``evaluation.write_stream`` as it was before its columns were formatted as
    bytes: one f-string per record, then one join."""
    ints = [column.tolist() for column in (stream.position, stream.predicted, stream.truth)]
    lines = [f"{sid}\t{t}\t{pred}\t{truth}\n" for sid, t, pred, truth in zip(stream.student, *ints)]
    Path(path).write_text("".join(lines), encoding="utf-8")


def per_line_save_table(table, path):
    """``ngram.save_table`` as it was before its columns were formatted as bytes:
    one f-string per record, each context's text built from its parent's."""
    V = table.vocab_size
    lines = [f"#NGRAM max_order={table.max_order} V={V}\n"]
    ctx_text = [""] * len(table.contexts[1])
    for k in table.grams:
        if k > 1:  # a context's text is its parent's, then its last id
            keys, sep = table.contexts[k], "," if k > 2 else ""
            ctx_text = [
                f"{ctx_text[p]}{sep}{a}" for p, a in zip((keys // V).tolist(), (keys % V).tolist())
            ]
        grams = table.grams[k]
        lines.extend(
            f"{k}\t{ctx_text[c]}\t{nxt}\t{n}\n"
            for c, nxt, n in zip(
                (grams // V).tolist(), (grams % V).tolist(), table.counts[k].tolist()
            )
        )
    Path(path).write_text("".join(lines), encoding="utf-8")


_STREAM_LINE = re.compile(rf"([^\t]+)\t([2-9]|[1-9][0-9]{{1,17}})\t(-1|{NUMBER})\t({NUMBER})\n")


def per_line_read_stream(path):
    """The (student, position, predicted, truth) rows of a stream file, one line
    at a time, with the columnar reader's errors."""
    rows = []
    for lineno, line in text_lines(Path(path).read_bytes()):
        row = _STREAM_LINE.fullmatch(line)
        if row is None:
            raise MalformedRecordError(
                lineno, f"expected student, position >= 2, predicted, truth; got {line!r:.80}"
            )
        sid, pos, pred, truth = row.groups()
        rows.append((sid, int(pos), int(pred), int(truth)))
    return rows


def read_report(path):
    """The flat key-value section of a saved report."""
    parsed = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or "\t" in line:
            continue
        if line == "per_sequence:":
            break
        if ": " in line:
            key, value = line.split(": ", 1)
            parsed[key] = value
    return parsed


def per_record_agreement(a, b):
    """The agreement table of two lists of stream rows, one record at a time."""
    if len(a) != len(b):
        raise NextactionError(f"prediction streams differ in length: {len(a)} vs {len(b)}")
    cells = [0, 0, 0, 0]
    for (sid_a, pos_a, pred_a, truth_a), (sid_b, pos_b, pred_b, truth_b) in zip(a, b):
        if (sid_a, pos_a, truth_a) != (sid_b, pos_b, truth_b):
            raise NextactionError(f"misaligned streams at {sid_a}:{pos_a} vs {sid_b}:{pos_b}")
        cells[(0 if pred_a == truth_a else 2) + (0 if pred_b == truth_b else 1)] += 1
    return AgreementTable(*cells)


@dataclass(frozen=True)
class RefitNGramSpec:
    """``ngram.NGramSpec`` as it was before its folds were derived from one count:
    a table fitted on each fold's training sequences, scored at each order by
    ``NGramPredictor``."""

    orders: tuple[int, ...]

    def fit(self, train_corpus, fold):
        table = ngram.fit(train_corpus, max(self.orders))
        return tuple(ngram.NGramPredictor(table, max_order=order) for order in self.orders), None


def corpus_of(rows, vocab_size=None, vocabulary=None):
    """A columnar corpus of ``rows``: ``StudentSequence``s, or action lists, which
    become certified students s0, s1, ...; V defaults to the largest id plus one."""
    rows = [row if isinstance(row, StudentSequence) else StudentSequence(f"s{i}", list(row), True)
            for i, row in enumerate(rows)]
    actions = np.array([a for row in rows for a in row.actions], dtype=np.int64)
    if vocab_size is None:
        vocab_size = int(actions.max(initial=-1)) + 1
    return Corpus(
        vocabulary, vocab_size, actions, np.array([len(row) for row in rows], dtype=np.int64),
        np.array([row.student_id for row in rows], dtype=object),
        np.array([row.certified for row in rows], dtype=bool),
    )


def per_line_columns(log: bytes, on_malformed: str, stats) -> ingest.EventColumns:
    """The event columns of a whole log, every line through ``ingest.iter_events``:
    each value is coded at its first use, in log order, field after field."""
    students: dict[str, int] = {}
    names: dict[str, int] = {}
    student, time, fields = [], [], []
    for stamp, student_id, *raw in ingest.iter_events(log, on_malformed, stats):
        student.append(students.setdefault(student_id, len(students)))
        time.append((stamp - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1))
        fields.extend(-1 if name is None else names.setdefault(name, len(names)) for name in raw)
    event, page, obj = np.array(fields, dtype=np.int64).reshape(-1, 3).T
    return ingest.EventColumns(
        list(students), np.array(student, dtype=np.int64), np.array(time, dtype=np.int64),
        list(names), ingest._action_token(names, event, page, obj),
    )


def per_line_ingest(events_path, roster_path, min_count, on_malformed="abort"):
    """``ingest.ingest_files`` with the log read whole through ``per_line_columns``."""
    stats = ingest.IngestStats()
    columns = per_line_columns(Path(events_path).read_bytes(), on_malformed, stats)
    counts = np.bincount(columns.token, minlength=len(columns.tokens)).tolist()
    vocab = ingest.build_vocabulary(dict(zip(columns.tokens, counts)), min_count)
    roster = ingest.parse_roster(Path(roster_path).read_bytes())
    return ingest.encode_corpus(columns, vocab, roster, stats), stats


def actions_pos(sequences):
    """The prediction contract's ``(actions, pos)`` of a list of action lists."""
    corpus = corpus_of(sequences)
    return corpus.actions, corpus.pos


def students_in(plan, fold):
    """The students a fold plan assigns to ``fold``, sorted."""
    return sorted(s for s, f in plan.assignment.items() if f == fold)


def per_row_filter_cohort(rows, certified, min_actions):
    """The rows of one cohort (of both for None) with at least ``min_actions`` actions."""
    return [row for row in rows if certified in (None, row.certified) and len(row) >= min_actions]


def per_row_hill_climb_split(rows, fraction, seed):
    """(train, holdout) rows: ceil(fraction * n) students drawn from the rows in
    student order, each part kept in row order."""
    ordered = sorted(rows, key=lambda row: row.student_id)
    order = np.random.default_rng([seed, 0xC11A]).permutation(len(ordered))
    holdout = {ordered[j].student_id for j in order[: int(np.ceil(fraction * len(ordered)))]}
    return ([row for row in rows if row.student_id not in holdout],
            [row for row in rows if row.student_id in holdout])


def per_row_windows(rows, window, pad_id):
    """Each row cut into chunks of window+1 actions (a trailing chunk kept when
    it holds two), one chunk per row of a matrix padded with ``pad_id``."""
    chunks = [row.actions[start : start + window + 1]
              for row in rows for start in range(0, len(row), window + 1)]
    chunks = [chunk for chunk in chunks if len(chunk) >= 2]
    batch = np.full((len(chunks), window + 1), pad_id, dtype=np.int64)
    for i, chunk in enumerate(chunks):
        batch[i, : len(chunk)] = chunk
    return batch


# The LSTM kernel as it stood before its step buffers, kept verbatim as the
# oracle of ``lstm._run_layers``, ``forward_sequence`` and ``backward``: a fresh
# array for every step's temporaries, and the logistic over all four gates with
# a per-element ``np.where``.  Each output of the buffered kernel must equal
# its counterpart here byte for byte, since both make the same BLAS calls.
def frozen_sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    out = np.where(z >= 0, 1.0, e)
    out /= np.add(e, 1.0, out=e)
    return out


def frozen_run_layers(
    net: LstmNetwork,
    ids: np.ndarray,
    train: bool,
    rng: np.random.Generator | None,
    dropout_masks: list[np.ndarray] | None,
):
    """Batched forward through embedding and all recurrent layers.

    Returns the top layer's hidden states (B, T, H) and the cache; only train
    mode keeps the per-step gates and cell states that ``backward`` reads.
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
        W_xT, W_hT = layer.W_x.transpose(0, 2, 1), layer.W_h.transpose(0, 2, 1)
        bias = layer.b[:, None]
        hs = np.empty((n_batch, n_steps, hidden))
        lc = {"xs": xs, "h": hs}
        if train:
            lc["gates"] = np.empty((len(layer.b), n_batch, n_steps, hidden))
            lc["c"], lc["tanh_c"] = (np.empty_like(hs), np.empty_like(hs)) if lstm else (None, None)
        h = layer.initial_state(n_batch).copy()
        c = np.zeros((n_batch, hidden))
        for t in range(n_steps):
            pre = np.matmul(xs[:, t], W_xT) + np.matmul(h, W_hT) + bias
            if lstm:
                act = frozen_sigmoid(pre)
                act[2] = np.tanh(pre[2])
                c = act[0] * c + act[1] * act[2]
                tanh_c = np.tanh(c)
                h = act[3] * tanh_c
                if train:
                    lc["c"][:, t], lc["tanh_c"][:, t] = c, tanh_c
            else:
                act = np.tanh(pre)
                h = act[0]
            if train:
                lc["gates"][:, :, t] = act
            hs[:, t] = h
        layer_caches.append(lc)
        layer_inputs = hs

    cache = {"ids": ids, "layers": layer_caches, "dropout_masks": masks, "top_h": layer_inputs}
    return layer_inputs, cache


def frozen_forward_sequence(
    net: LstmNetwork,
    ids: Sequence[int] | np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray] | None = None,
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
    top_h, cache = frozen_run_layers(net, arr, train, rng, dropout_masks)
    logits = top_h @ net.W_y.T + net.b_y
    probs = softmax(logits)
    cache["probs"] = probs
    return probs, cache


def frozen_backward(
    net: LstmNetwork,
    cache: dict,
    targets: Sequence[int] | np.ndarray,
    mask: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Exact loss gradients for every parameter under the cached dropout masks."""
    if "gates" not in cache.get("layers", [{}])[0]:
        raise NextactionError("backward needs the cache of a train-mode forward pass")
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

    hidden = net.hidden_size
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        lc = cache["layers"][idx]
        xs, gates, cs, tanh_cs, hs = lc["xs"], lc["gates"], lc["c"], lc["tanh_c"], lc["h"]
        h_start = layer.initial_state(n_batch)
        grad = RecurrentLayer.zeros(net.cell, xs.shape[2], hidden)
        dxs = np.empty_like(xs)
        dh_rec = np.zeros((n_batch, hidden))
        dc_rec = np.zeros((n_batch, hidden))
        d_act = np.empty((4, n_batch, hidden))
        for t in range(n_steps - 1, -1, -1):
            act = gates[:, :, t]
            dh = dh_above[:, t] + dh_rec
            if net.cell == "lstm":
                f, i, ct, o = act
                c_prev = cs[:, t - 1] if t > 0 else np.zeros((n_batch, hidden))
                tanh_c = tanh_cs[:, t]
                dc = dc_rec + dh * o * (1.0 - tanh_c * tanh_c)
                np.multiply(dc, c_prev, out=d_act[0])
                np.multiply(dc, ct, out=d_act[1])
                np.multiply(dc, i, out=d_act[2])
                np.multiply(dh, tanh_c, out=d_act[3])
                dpre = d_act * act * (1.0 - act)
                dpre[2] = d_act[2] * (1.0 - ct * ct)
                dc_rec = dc * f
            else:
                dpre = dh * (1.0 - act * act)
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

"""Independent brute-force oracles shared by the module and acceptance tests.

These deliberately re-derive gram statistics and backoff behavior with a
different traversal than the library (per-order window scans instead of
per-position order loops), the LSTM step one vector at a time instead of
a batch at a time, each LSTM prediction from its own window instead of a
shared run, and loss gradients by central differences instead of
backpropagation, so they can serve as a second opinion.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from nextaction.errors import NumericalFaultError
from nextaction.lstm import forward_sequence, loss, sigmoid


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
    f = sigmoid(W_x[0] @ x + W_h[0] @ prev.h + b[0])
    i = sigmoid(W_x[1] @ x + W_h[1] @ prev.h + b[1])
    c_tilde = np.tanh(W_x[2] @ x + W_h[2] @ prev.h + b[2])
    C = f * prev.C + i * c_tilde
    o = sigmoid(W_x[3] @ x + W_h[3] @ prev.h + b[3])
    h = o * np.tanh(C)
    return LstmLayerState(h=h, C=C, f=f, i=i, o=o, c_tilde=c_tilde)


def lstm_predict_next(net, context):
    """(argmax, distribution) of the action after ``context``, from the last step
    of one ``forward_sequence`` over its final ``window`` actions: a path apart
    from the predictor's prefix run and sliding-window batch."""
    probs, _ = forward_sequence(net, list(context)[-net.window:])
    return int(np.argmax(probs[0, -1])), probs[0, -1]


def finite_difference_gradients(net, ids, targets, step=1e-5, mask=None, dropout_masks=None):
    """Central-difference loss gradients; the numerical oracle for ``lstm.backward``.

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

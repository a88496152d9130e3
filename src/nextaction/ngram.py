"""Gram-count tables with recursive backoff next-action prediction.

A table of order N stores, for every order k in 1..N, the count of each
(k-1 context ids, next id) pair observed in training.  Only continuation
positions are counted: position t of a sequence contributes the grams that
end at t for t >= 2, so all orders share the same scored positions.  The
order-1 context is empty.

Prediction takes the largest order whose context has at least one observed
continuation and returns the count argmax, ties broken by lowest action id.

Each order is held as sorted int64 arrays, built in one pass per order over
the whole corpus:

- ``contexts[k]`` holds the key ``parent * V + last`` of every order-k
  context, where ``parent`` is the order-(k-1) id of the context's first k-2
  actions and ``last`` is its final action.  A context's id is its index in
  this array (its dense rank), so ids stay below the number of positions
  counted and keys fit in int64 for any 32-bit V.  Ranks keep lexicographic
  tuple order.  Order 1 has one context, the empty one, with id 0.
- ``grams[k]`` holds the sorted keys ``ctx_id * V + next`` and ``counts[k]``
  their counts; ``first[k][c]:first[k][c + 1]`` is the gram slice of context c.
- ``best[k][c]`` is context c's count argmax, computed once when the table
  is built.

A context is found by rolling its id up the orders: one ``searchsorted`` per
order over every position at once, with id -1 for a context never seen.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, MalformedRecordError, UnfittedModelError
from .ingest import NUMBER, Corpus, action_array, flatten

_EMPTY = np.zeros(0, dtype=np.int64)
_MAX_VOCAB = 2**32  # action ids are 32-bit (NACT1), which keeps every key in int64


@dataclass
class BackoffPrediction:
    predicted: int
    order_used: int


class _Continuations:
    """Read-only view of one order: ``len()`` is its number of contexts, and
    ``items()`` yields ``(context tuple, {next: count})`` in sorted order."""

    def __init__(self, table: "NGramTable", order: int):
        self._table = table
        self._order = order

    def __len__(self) -> int:
        return len(self._table.contexts[self._order])

    def items(self):
        table, order, V = self._table, self._order, self._table.vocab_size
        rows = np.zeros((len(table.contexts[1]), 0), dtype=np.int64)
        for k in range(2, order + 1):  # each context is its parent's row plus its last id
            rows = np.column_stack([rows[table.contexts[k] // V], table.contexts[k] % V])
        nexts = (table.grams[order] % V).tolist()
        counts = table.counts[order].tolist()
        first = table.first[order].tolist()
        for c, ctx in enumerate(map(tuple, rows.tolist())):
            lo, hi = first[c], first[c + 1]
            yield ctx, dict(zip(nexts[lo:hi], counts[lo:hi]))


class NGramTable:
    """Per-order sorted context keys, gram keys and counts (see the module doc)."""

    def __init__(
        self,
        max_order: int,
        vocab_size: int,
        contexts: dict[int, np.ndarray] | None = None,
        grams: dict[int, np.ndarray] | None = None,
        counts: dict[int, np.ndarray] | None = None,
    ):
        if max_order < 1:
            raise ConfigError(f"max_order must be >= 1, got {max_order}")
        orders = range(1, max_order + 1)
        self.max_order = max_order
        self.vocab_size = vocab_size
        self.contexts = contexts or {k: _EMPTY for k in orders}
        self.grams = grams or {k: _EMPTY for k in orders}
        self.counts = counts or {k: _EMPTY for k in orders}
        self.first: dict[int, np.ndarray] = {}
        self.best: dict[int, np.ndarray] = {}
        for k in orders:
            n_contexts = len(self.contexts[k])
            owner = self.grams[k] // vocab_size
            first = np.searchsorted(owner, np.arange(n_contexts + 1))
            self.first[k] = first
            if n_contexts == 0:
                self.best[k] = _EMPTY
                continue
            # the first gram whose count is its context's maximum has the lowest next id
            top = np.maximum.reduceat(self.counts[k], first[:-1])
            leaders = np.flatnonzero(self.counts[k] == top[owner])
            lead = leaders[np.searchsorted(owner[leaders], np.arange(n_contexts))]
            self.best[k] = self.grams[k][lead] % vocab_size
        self.continuations = {k: _Continuations(self, k) for k in orders}


def _child(keys: np.ndarray, parent: np.ndarray, last: np.ndarray, V: int) -> np.ndarray:
    """Id of each context (parent's actions, then ``last``) in the sorted ``keys``,
    or -1 if it is absent or its parent id is -1."""
    if len(keys) == 0:
        return np.full(len(parent), -1, dtype=np.int64)
    query = np.where(parent >= 0, parent * V + last, -1)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[at] == query, at, -1)


def _context_ids(table: NGramTable, actions: np.ndarray, pos: np.ndarray, cap: int):
    """Yield ``(k, ids)`` for k = 1..cap, ids[i] being the id of the context
    ``actions[i-k+1:i]``, or -1 if unseen or if it would cross the start of
    i's sequence (``pos[i]`` is i's index within it)."""
    ids = np.full(len(actions), 0 if len(table.contexts[1]) else -1, dtype=np.int64)
    yield 1, ids
    previous = np.roll(actions, 1)
    for k in range(2, cap + 1):
        parent = np.roll(ids, 1)
        parent[pos < k - 1] = -1  # this also covers the value rolled in at index 0
        ids = _child(table.contexts[k], parent, previous, table.vocab_size)
        yield k, ids


def _backoff(table: NGramTable, actions: np.ndarray, pos: np.ndarray, cap: int, scored):
    """(predicted, order used) at the ``scored`` positions."""
    predicted = np.full(len(actions), -1, dtype=np.int64)
    used = np.zeros(len(actions), dtype=np.int64)
    # a context's prefix is itself a context, so the highest hit is the last one
    for order, ids in _context_ids(table, actions, pos, cap):
        hit = ids >= 0
        predicted[hit] = table.best[order][ids[hit]]
        used[hit] = order
    predicted, used = predicted[scored], used[scored]
    if not used.all():
        raise UnfittedModelError("n-gram table has no observations")
    return predicted, used


def fit(corpus: Corpus, max_order: int) -> NGramTable:
    """Count all grams of order <= max_order over the corpus sequences."""
    if not corpus.sequences:
        raise ConfigError("cannot fit an n-gram table on an empty corpus")
    if max_order < 1:
        raise ConfigError(f"max_order must be >= 1, got {max_order}")
    V = corpus.vocab_size
    actions, pos = flatten([s.actions for s in corpus.sequences])
    actions = action_array(V, actions)
    at = np.flatnonzero(pos >= 1)  # continuation positions
    contexts = {1: np.zeros(min(len(at), 1), dtype=np.int64)}
    ids = np.zeros(len(actions), dtype=np.int64)
    grams, counts = {}, {}
    for k in range(1, max_order + 1):
        if k > 1:
            at = at[pos[at] >= k - 1]
            contexts[k], ranks = np.unique(ids[at - 1] * V + actions[at - 1], return_inverse=True)
            ids = np.full(len(actions), -1, dtype=np.int64)
            ids[at] = ranks
        grams[k], counts[k] = np.unique(ids[at] * V + actions[at], return_counts=True)
    return NGramTable(max_order, V, contexts, grams, counts)


def _cap(table: NGramTable, max_order: int | None) -> int:
    return table.max_order if max_order is None else min(max_order, table.max_order)


def predict_next(
    table: NGramTable, context: Sequence[int], max_order: int | None = None
) -> BackoffPrediction:
    """Predict via backoff: the largest usable order with observations wins.

    ``max_order`` caps the orders consulted (useful for order sweeps over a
    single fitted table); it defaults to the table's own order.
    """
    actions = np.append(action_array(table.vocab_size, context), 0)  # the 0 is never read
    predicted, used = _backoff(
        table, actions, np.arange(len(actions)), _cap(table, max_order), slice(-1, None)
    )
    return BackoffPrediction(int(predicted[0]), int(used[0]))


def backoff_usage(
    table: NGramTable,
    corpus: Corpus,
    max_order: int | None = None,
) -> dict[int, float]:
    """Fraction of scored positions served by each gram order."""
    cap = _cap(table, max_order)
    actions, pos = flatten([s.actions for s in corpus.sequences])
    _, used = _backoff(table, action_array(table.vocab_size, actions), pos, cap, pos >= 1)
    if len(used) == 0:
        return {order: 0.0 for order in range(1, cap + 1)}
    tally = np.bincount(used, minlength=cap + 1).tolist()
    return {order: tally[order] / len(used) for order in range(1, cap + 1)}


class NGramPredictor:
    """Scores concatenated sequences by one backoff pass over one fitted table."""

    def __init__(self, table: NGramTable, max_order: int | None = None):
        self.table = table
        self.max_order = _cap(table, max_order)

    def predict_sequence(self, actions: Sequence[int], pos: Sequence[int]) -> np.ndarray:
        array = action_array(self.table.vocab_size, actions)
        pos = np.asarray(pos, dtype=np.int64)
        predicted, _ = _backoff(self.table, array, pos, self.max_order, pos >= 1)
        return predicted


@dataclass(frozen=True)
class NGramSpec:
    """Cross-validation spec: per fold, one table of the largest order, scored at each order.

    Counts at order k are identical to a table fitted at order k, so every
    model matches an independent fit at its order.  Fold None fits the
    whole corpus.
    """

    orders: tuple[int, ...]

    def fit(self, train_corpus: Corpus, fold: int | None):
        table = fit(train_corpus, max(self.orders))
        return tuple(NGramPredictor(table, max_order=order) for order in self.orders), None


def sweep_orders(corpus: Corpus, orders: Iterable[int], plan, workers: int = 1):
    """Cross-validated accuracy per gram order, from one table fitted per fold."""
    from .evaluation import cross_validate_each  # local import avoids a cycle

    orders = sorted(set(orders))
    if not orders or orders[0] < 1:
        raise ConfigError(f"gram orders must be >= 1, got {orders}")
    reports = cross_validate_each(
        NGramSpec(tuple(orders)), corpus, plan,
        [f"{order}-gram backoff" for order in orders], workers=workers,
    )
    return dict(zip(orders, reports))


def save_table(table: NGramTable, path: str | Path) -> None:
    """Write the table as sorted text, bit-exact across runs."""
    V = table.vocab_size
    lines = [f"#NGRAM max_order={table.max_order} V={V}\n"]
    ctx_text = [""] * len(table.contexts[1])
    for k in range(1, table.max_order + 1):
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


_HEADER = re.compile(rf"#NGRAM max_order=({NUMBER}) V=({NUMBER})")
_RECORD = re.compile(rf"{NUMBER}\t(?:{NUMBER}(?:,{NUMBER})*)?\t{NUMBER}\t{NUMBER}")
_SHAPES = str.maketrans("23456789", "11111111")
_SPACES = str.maketrans("\t,", "  ")


def _reject(checks) -> None:
    """Raise for the earliest record flagged by any (mask over records, reason)."""
    found = [(int(np.argmax(bad)), reason) for bad, reason in checks if bad.any()]
    if found:
        index, reason = min(found)
        raise MalformedRecordError(index + 2, reason)  # records start on line 2


def _read_tokens(path: str | Path) -> tuple[int, int, np.ndarray]:
    """(max_order, V, tokens) of a table file whose header and record syntax
    are valid: each record's integers in order, then -1."""
    blob = Path(path).read_bytes()
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedRecordError(blob.count(b"\n", 0, exc.start) + 1, "non-ASCII byte") from exc
    header, _, body = text.partition("\n")
    head = _HEADER.fullmatch(header)
    if head is None:
        raise MalformedRecordError(1, "expected the header '#NGRAM max_order=<N> V=<int>'")
    max_order, V = int(head[1]), int(head[2])
    if max_order < 1:
        raise MalformedRecordError(1, f"max_order must be >= 1, got {max_order}")
    if V > _MAX_VOCAB:
        raise MalformedRecordError(1, f"V={V} exceeds the 32-bit action id range")
    if not text.endswith("\n"):
        raise MalformedRecordError(text.count("\n") + 1, "no newline at the end of the file")
    # digits 1-9 all map to 1, so records of one shape share one regex check
    shapes = body.translate(_SHAPES).split("\n")[:-1]
    malformed = {shape for shape in set(shapes) if _RECORD.fullmatch(shape) is None}
    if malformed:
        index = next(i for i, shape in enumerate(shapes) if shape in malformed)
        raise MalformedRecordError(
            index + 2, "expected order<TAB>context<TAB>next<TAB>count in canonical integers"
        )
    if not shapes:
        return max_order, V, _EMPTY
    del blob, text, shapes  # the token array is the largest object; free these first
    return max_order, V, np.fromstring(
        body.translate(_SPACES).replace("\n", " -1 "), dtype=np.int64, sep=" "
    )


def load_table(path: str | Path) -> NGramTable:
    """Read a table written by ``save_table``, refusing anything it would not write.

    Raises MalformedRecordError with the line number on a bad header, a
    record that is not four canonical integer fields, an order outside
    1..max_order, a context of the wrong length, an id outside [0, V), a
    count below 1, a record out of order or repeated, or an order-k context
    whose (k-1)-prefix has no record at order k-1.
    """
    max_order, V, tokens = _read_tokens(path)
    ends = np.flatnonzero(tokens < 0)
    begins = np.concatenate(([0], ends + 1))[:-1]
    order, nxt, count = tokens[begins], tokens[ends - 2], tokens[ends - 1]
    width = ends - begins - 3
    _reject([
        ((order < 1) | (order > max_order), f"order outside 1..{max_order}"),
        (width != order - 1, "context length is not order - 1"),
        (nxt >= V, f"next id outside [0, {V})"),
        (count < 1, "count below 1"),
        (np.diff(order, prepend=1) < 0, "record out of order"),
    ])
    in_context = np.ones(len(tokens), dtype=bool)
    in_context[np.concatenate((begins, ends - 2, ends - 1, ends))] = False
    digits = tokens[in_context]  # record by record, so each order's are contiguous
    del tokens, in_context
    digit_at = np.concatenate(([0], np.cumsum(width)))  # record i's are digit_at[i]:[i + 1]
    bad = np.flatnonzero(digits >= V)
    if bad.size:
        record = np.searchsorted(digit_at, bad[0], side="right") - 1
        raise MalformedRecordError(record + 2, f"context id outside [0, {V})")

    def flag(at: np.ndarray, bad: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(order), dtype=bool)
        mask[at[bad]] = True
        return mask

    contexts, grams, counts = {}, {}, {}
    for k in range(1, max_order + 1):
        lo, hi = np.searchsorted(order, [k, k + 1])
        at = np.arange(lo, hi)
        rows = digits[digit_at[lo] : digit_at[hi]].reshape(hi - lo, k - 1)
        new = np.ones(hi - lo, dtype=bool)  # a context is a run of equal rows
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        own = rows[new]
        if k == 1:
            keys, orphan = np.zeros(len(own), dtype=np.int64), np.zeros(len(own), dtype=bool)
        else:
            parent = np.full(len(own), 0 if len(contexts[1]) else -1, dtype=np.int64)
            for j in range(2, k):
                parent = _child(contexts[j], parent, own[:, j - 2], V)
            keys, orphan = parent * V + own[:, -1], parent < 0
        gram_keys = (np.cumsum(new) - 1) * V + nxt[lo:hi]
        _reject([
            (flag(at[new], orphan), f"context has no record at order {k - 1}"),
            (flag(at[new][1:], np.diff(keys) <= 0), "record out of order or repeated"),
            (flag(at[1:], np.diff(gram_keys) <= 0), "record out of order or repeated"),
        ])
        contexts[k], grams[k], counts[k] = keys, gram_keys, count[lo:hi]
    return NGramTable(max_order, V, contexts, grams, counts)

"""Gram-count tables with recursive backoff next-action prediction.

A table stores, for each order k in 1..n, the count of each (k-1 context ids,
next id) pair observed in training, n being the highest order with a gram;
``max_order`` only caps the orders backoff starts from.  Only continuation
positions are counted: position t of a sequence contributes the grams that
end at t for t >= 2, so all orders share the same scored positions.  The
order-1 context is empty.  A fit at ``max_order`` holds orders 1 to
``highest_order(corpus, max_order)``, and a table answers the orders it holds:
its ``continuations``, its usage histograms and an order sweep stop there.

Prediction takes the largest order whose context has at least one observed
continuation and returns the count argmax, ties broken by lowest action id.

Each order is held as sorted int64 arrays, built in one pass per order over
the whole corpus:

- ``contexts[k]`` holds the key ``parent * V + last`` of every order-k
  context, where ``parent`` is the order-(k-1) id of the context's first k-2
  actions and ``last`` is its final action.  A context's id is its index in
  this array (its dense rank), so ids stay below the number of positions
  counted and keys fit in int64 for any 32-bit V.  Ranks keep lexicographic
  tuple order.  Order 1 has one context, the empty one, with id 0.  That key
  is the key of the order-(k-1) gram ending one action earlier, so for k >= 3
  the contexts are the grams of the order below seen there, picked in order
  with no sort of their own: each order sorts only its grams.
- ``grams[k]`` holds the sorted keys ``ctx_id * V + next`` and ``counts[k]``
  their counts; ``first[k][c]:first[k][c + 1]`` is the gram slice of context c.
- ``best[k][c]`` is context c's count argmax, computed once, at the table's
  first lookup.

A context is found by rolling its id up the orders: one ``searchsorted`` per
order over every position at once, with id -1 for a context never seen.
Cross-validation needs no lookup: it counts the whole corpus once and derives
every fold's counts from that count with one ``bincount`` per order (see
``NGramSpec``).  Nor does the usage histogram of a table over the corpus it
was fitted on (``fitted_usage``).
"""

import io
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from types import MappingProxyType
from typing import NoReturn, Sequence

import numpy as np

from .errors import ConfigError, MalformedRecordError, UnfittedModelError
from .ingest import (
    NUMBER, Corpus, action_array, count_byte, format_decimals, line_blocks, parse_decimals,
    text_lines, text_rows,
)

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
        table, k = self._table, self._order
        nexts, counts = (table.grams[k] % table.vocab_size).tolist(), table.counts[k].tolist()
        first = table.first[k].tolist()
        for ctx, lo, hi in zip(map(tuple, _context_rows(table, k).tolist()), first, first[1:]):
            yield ctx, dict(zip(nexts[lo:hi], counts[lo:hi]))


class NGramTable:
    """Per-order sorted context keys, gram keys and counts (see the module doc),
    keyed by the orders 1..n that hold a gram; ``max_order`` is the backoff cap."""

    def __init__(self, max_order: int, vocab_size: int, contexts: dict[int, np.ndarray],
                 grams: dict[int, np.ndarray], counts: dict[int, np.ndarray]):
        self.max_order = _check_order(max_order)
        self.vocab_size = vocab_size
        self.contexts, self.grams, self.counts = contexts, grams, counts
        self.first = {}
        for k, keys in self.grams.items():  # each context's grams are one run of the sorted keys
            runs = np.bincount(keys // vocab_size, minlength=len(self.contexts[k]))
            self.first[k] = np.concatenate(([0], np.cumsum(runs)))

    @property
    def continuations(self) -> MappingProxyType:
        """A read-only mapping of each order the table holds to its view, made on
        each access: a table that held views of itself would be a reference cycle,
        freed only by the cyclic collector."""
        return MappingProxyType({k: _Continuations(self, k) for k in self.grams})

    @cached_property
    def best(self) -> dict[int, np.ndarray]:
        """Each order's ``_best``, made at the first lookup: a table that is only
        counted and saved, as cross-validation's is, never needs it."""
        return {k: _best(self.counts[k], first, self.grams[k] % self.vocab_size)
                for k, first in self.first.items()}


def _best(counts: np.ndarray, first: np.ndarray, nexts: np.ndarray) -> np.ndarray:
    """Each context's count argmax, the lowest next id on ties, or -1 where all its
    counts are 0; ``first[c]:first[c + 1]`` is context c's non-empty slice of
    ``counts`` and of ``nexts``, which is in next id order."""
    top = np.maximum.reduceat(counts, first[:-1])
    # the first gram whose count is its context's maximum has the lowest next id
    leaders = np.where(counts == np.repeat(top, np.diff(first)), np.arange(len(counts)),
                       len(counts))
    lead = np.minimum.reduceat(leaders, first[:-1])
    return np.where(top > 0, nexts[lead], -1)


def _context_rows(table: NGramTable, k: int) -> np.ndarray:
    """The order-k contexts as rows of k - 1 ids, filled from the last column back:
    a key is its parent's id * V plus its last id, and the parent's key is at that
    id among the keys of the order below."""
    keys = table.contexts[k]
    rows = np.empty((len(keys), k - 1), dtype=np.int64)
    for j in range(k - 1, 0, -1):
        parent, rows[:, j - 1] = np.divmod(keys, table.vocab_size)
        keys = table.contexts[j][parent]
    return rows


def _match(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each ``query`` value in the sorted, non-empty ``keys``, or -1 if it is
    absent."""
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[at] == query, at, -1)


def _pack(rows: np.ndarray) -> np.ndarray:
    """Rows of unsigned ids as rows of native uint64 words: each word holds 8 // itemsize
    ids big-endian, the last word zero-padded, so that rows of one width compare word
    by word as they do id by id.  A row of no ids is one zero word."""
    per_word = 8 // rows.itemsize
    count, width = rows.shape
    padded = np.zeros((count, max(1, -(-width // per_word)) * per_word),
                      dtype=rows.dtype.newbyteorder(">"))
    padded[:, :width] = rows
    return padded.view(">u8").astype(np.uint64)


def _row_ids(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each packed row of ``query`` among the sorted, distinct packed rows
    ``rows`` of the same width, or -1 if it is absent.

    Rows are matched one word at a time, as ``_context_ids`` matches one id at a time: the
    first word is its own key, and the key of a row's first j + 1 words is the rank
    of its first j words among ``rows``, then the rank of word j among the words of
    column j, so that every key fits int64 however many words a row has.
    """
    keys, wanted = rows[:, 0], query[:, 0]
    for j in range(1, rows.shape[1]):
        new = np.ones(len(keys), dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        found = _match(keys[new], wanted)
        words, rank = np.unique(rows[:, j], return_inverse=True)
        at = _match(words, query[:, j])
        keys = (np.cumsum(new) - 1) * len(words) + rank
        wanted = np.where((found >= 0) & (at >= 0), found * len(words) + at, -1)
    return _match(keys, wanted)


def _context_ids(table: NGramTable, actions: np.ndarray, pos: np.ndarray, cap: int):
    """Yield ``(k, ids)`` for each order k <= cap that the table holds, ids[i] being
    the id of the context ``actions[i-k+1:i]``, or -1 if unseen or if it would
    cross the start of i's sequence (``pos[i]`` is i's index within it)."""
    ids = np.zeros(len(actions), dtype=np.int64)  # order 1's one context, the empty one
    previous = np.roll(actions, 1)
    for k in islice(table.grams, cap):
        if k > 1:
            parent = np.roll(ids, 1)
            parent[pos < k - 1] = -1  # this also covers the value rolled in at index 0
            ids = _match(table.contexts[k],
                         np.where(parent >= 0, parent * table.vocab_size + previous, -1))
        yield k, ids


def _backoff(table: NGramTable, actions: np.ndarray, pos: np.ndarray, cap: int, scored):
    """(predicted, order used) at the ``scored`` positions."""
    predicted = np.full(len(actions), -1, dtype=np.int64)
    used = np.zeros(len(actions), dtype=np.int64)
    # a context's prefix is itself a context, so the highest hit is the last one
    for order, ids in _context_ids(table, actions, pos, cap):
        hit = ids >= 0
        if not hit.any():  # nor will any order above, as the child of -1 is -1
            break
        predicted[hit] = table.best[order][ids[hit]]
        used[hit] = order
    predicted, used = predicted[scored], used[scored]
    if not used.all():
        raise UnfittedModelError("n-gram table has no observations")
    return predicted, used


def fit(corpus: Corpus, max_order: int, gram_index: dict | None = None) -> NGramTable:
    """Count all grams of the orders 1 to ``highest_order(corpus, max_order)`` over
    the corpus sequences.

    Given a dict, the count also sets ``gram_index[k]``, for each order k the
    table holds, to the index in the table's ``grams[k]`` of the order-k gram
    that ends at each action, or -1 at an action that ends none.
    """
    if not len(corpus):
        raise ConfigError("cannot fit an n-gram table on an empty corpus")
    V = corpus.vocab_size
    actions, pos = action_array(V, corpus.actions), corpus.pos
    at = np.flatnonzero(pos >= 1)  # continuation positions
    index = {} if gram_index is None else gram_index
    contexts, grams, counts = {}, {}, {}
    for k in range(1, highest_order(corpus, max_order) + 1):
        at = at[pos[at] >= k - 1]  # not empty: a sequence is at least k long
        if k == 1:  # the empty context, id 0, is the context at each position
            contexts[k], ranks = np.zeros(1, dtype=np.int64), np.zeros(len(at), dtype=np.int64)
        elif k == 2:
            contexts[k], ranks = np.unique(actions[at - 1], return_inverse=True)
        else:  # an order-k context is the order-(k-1) gram that ends one action earlier
            parents = index[k - 1][at - 1]
            seen = np.bincount(parents, minlength=len(grams[k - 1])) > 0
            contexts[k], ranks = grams[k - 1][seen], (np.cumsum(seen) - 1)[parents]
        grams[k], inverse, counts[k] = np.unique(ranks * V + actions[at], return_inverse=True,
                                                 return_counts=True)
        index[k] = np.full(len(actions), -1, dtype=np.int64)
        index[k][at] = inverse
    return NGramTable(max_order, V, contexts, grams, counts)


def _check_order(max_order: int) -> int:
    if max_order < 1:
        raise ConfigError(f"max_order must be >= 1, got {max_order}")
    if max_order >= 10**18:  # a saved header's max_order has at most 18 digits (ingest.NUMBER)
        raise ConfigError(f"max_order must be below 10**18 for a table to save, got {max_order}")
    return max_order


def highest_order(corpus: Corpus, max_order: int) -> int:
    """The highest order that ``fit(corpus, max_order)`` holds, 0 if it holds none:
    a gram ends at a scored position (p >= 1), and none is longer than its sequence."""
    longest = int(corpus.lengths.max(initial=0))
    return min(_check_order(max_order), longest) if longest > 1 else 0


def _cap(table: NGramTable, max_order: int | None) -> int:
    return table.max_order if max_order is None else min(_check_order(max_order), table.max_order)


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
    """Fraction of scored positions served by each gram order the table holds, up
    to ``max_order``."""
    cap = _cap(table, max_order)
    pos = corpus.pos
    _, used = _backoff(table, action_array(table.vocab_size, corpus.actions), pos, cap, pos >= 1)
    return _usage(used, min(cap, len(table.grams)))  # the held orders are 1..n


def fitted_usage(corpus: Corpus, max_order: int) -> dict[int, float]:
    """``backoff_usage`` of the table fitted on ``corpus`` at ``max_order``, over
    that same corpus: the table holds every context in it, so each position p >= 1
    is served at order min(max_order, p + 1)."""
    top, pos = highest_order(corpus, max_order), corpus.pos
    return _usage(np.minimum(pos[pos >= 1] + 1, top), top)


def _usage(used: np.ndarray, cap: int) -> dict[int, float]:
    shares = np.bincount(used, minlength=cap + 1)[1 : cap + 1] / max(len(used), 1)
    return dict(enumerate(shares.tolist(), start=1))


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
    """Cross-validation spec: one count of the whole corpus, scored at each order.

    The whole-corpus table is the full fit, and no fold builds a table of its
    own.  A fold's counts are those of the grams of its training actions, so
    its best next id per context is the argmax of those counts, and a held-out
    action backs off through the contexts of the grams that end at it.  That
    is what a table fitted on the fold's training sequences predicts, and
    counts at order k are those of a table fitted at order k, so every model
    matches an independent fit per fold at its order.
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or min(self.orders) < 1:
            raise ConfigError(f"gram orders must be >= 1, got {list(self.orders)}")
        _check_order(max(self.orders))

    @property
    def names(self) -> list[str]:
        return [f"{order}-gram backoff" for order in self.orders]

    def fit_folds(self, corpus: Corpus, folds: np.ndarray, held_out: list[np.ndarray]):
        """The whole-corpus fit, and per fold the predictions of each order at the
        scored actions of its ``held_out`` sequences; ``folds`` is each sequence's fold.
        An order above the table's highest predicts as that highest order."""
        gram_index: dict[int, np.ndarray] = {}
        table = fit(corpus, max(self.orders), gram_index)
        F, pos = len(held_out), corpus.pos
        # a sequence in no held-out fold (a plan's fold outside 0..F-1) trains every fold
        fold_of = np.repeat(np.where((folds >= 0) & (folds < F), folds, F), corpus.lengths)
        scored = [at[pos[at] >= 1] for at in map(corpus.gather, held_out)]
        found = [np.full(len(at), -1, dtype=np.int64) for at in scored]
        by_order: list[dict[int, np.ndarray]] = [{} for _ in scored]
        for k in table.grams:
            counted = gram_index[k] >= 0
            first, nexts = table.first[k], table.grams[k] % table.vocab_size
            # each fold's count of each gram, from one bincount over the fold-major keys
            by_fold = np.bincount(fold_of[counted] * len(nexts) + gram_index[k][counted],
                                  minlength=(F + 1) * len(nexts)).reshape(F + 1, -1)
            for fold, at in enumerate(scored):
                counts = table.counts[k] - by_fold[fold]
                # each gram's context's best, and -1 at index -1 for an action that ends none
                best = np.append(np.repeat(_best(counts, first, nexts), np.diff(first)), -1)
                guess = best[gram_index[k][at]]
                found[fold] = np.where(guess >= 0, guess, found[fold])
                if k == 1 and (found[fold] < 0).any():
                    raise UnfittedModelError("n-gram table has no observations")
                if k in self.orders:
                    by_order[fold][k] = found[fold]
        full = tuple(NGramPredictor(table, max_order=order) for order in self.orders), None
        return full, [([own.get(order, top) for order in self.orders], None)
                      for own, top in zip(by_order, found)]


def save_table(table: NGramTable, path: str | Path) -> None:
    """Write the table as sorted text, bit-exact across runs: each order's records
    are formatted as NUL-padded byte columns and packed once.  An order's context
    text is built from the order below's: its parent's text, a comma, its last id."""
    V = table.vocab_size
    with open(path, "wb") as out:
        out.write(f"#NGRAM max_order={table.max_order} V={V}\n".encode())
        text = np.zeros((1, 0), dtype=np.uint8)  # order 1's one context, the empty one
        for k in table.grams:
            if k > 1:
                parent, last = np.divmod(table.contexts[k], V)
                text = text_rows(len(last), np.take(text, parent, axis=0),
                                 b"," if k > 2 else b"", format_decimals(last))
            context, nxt = np.divmod(table.grams[k], V)
            rows = text_rows(
                len(nxt), f"{k}\t".encode(), np.take(text, context, axis=0), b"\t",
                format_decimals(nxt), b"\t", format_decimals(table.counts[k]), b"\n",
            )
            out.write(rows[rows != 0])


_HEADER = re.compile(rf"#NGRAM max_order=({NUMBER}) V=({NUMBER})")
_RECORD = re.compile(rf"{NUMBER}\t(?:{NUMBER}(?:,{NUMBER})*)?\t{NUMBER}\t{NUMBER}")


def _parse_records(data: np.ndarray, lo: int, hi: int):
    """(order, context width, next, count, context ids) of the records in the
    whole lines ``data[lo:hi]``, or None unless every one of those lines is
    order<TAB>context<TAB>next<TAB>count in canonical integers."""
    ends = lo + np.flatnonzero(data[lo:hi] - np.uint8(ord("0")) > 9)  # each field ends at one
    kind = np.take(data, ends)
    value, length, canonical = parse_decimals(data, ends)
    tab = kind == ord("\t")
    last = np.flatnonzero(kind == ord("\n"))  # each line's separators are first..last
    first = np.concatenate(([0], last[:-1] + 1))
    after_first = np.zeros(len(ends) + 1, dtype=bool)
    after_first[first + 1] = True
    # a line's separators are a tab, commas, two tabs and a newline, and each field
    # but an empty context is a canonical decimal
    if (((kind != ord(",")) & ~tab & (kind != ord("\n"))).any()
            or (last - first < 3).any() or np.count_nonzero(tab) != 3 * len(last)
            or not (tab[first].all() and tab[last - 1].all() and tab[last - 2].all())
            or (~canonical & ~((length == 0) & tab & after_first[:-1])).any()):
        return None
    width = last - first - 2 - (length[last - 2] == 0)
    context = length > 0
    context[first] = context[last - 1] = context[last] = False
    return value[first], width, value[last - 1], value[last], value[context]


def _refuse_table(blob: bytes, max_order: int, V: int) -> NoReturn:
    """Raise for the first record line of a table's bytes that ``save_table``
    would not write after the lines before it, naming the first of its faults
    in the order README lists them."""
    seen = {0: {()}}  # the contexts of each order met so far
    last: tuple = (0,)  # sorts below every record's (order, context, next)
    for lineno, line in islice(text_lines(blob), 1, None):
        record = line.removesuffix("\n")
        if _RECORD.fullmatch(record) is None:
            raise MalformedRecordError(
                lineno, "expected order<TAB>context<TAB>next<TAB>count in canonical integers"
            )
        if record == line:
            raise MalformedRecordError(lineno, "no newline at the end of the file")
        k, context, nxt, count = record.split("\t")
        k, nxt, count = int(k), int(nxt), int(count)
        context = tuple(int(i) for i in context.split(",") if i)
        for bad, reason in (
            (not 1 <= k <= max_order, f"order outside 1..{max_order}"),
            (len(context) != k - 1, "context length is not order - 1"),
            (any(i >= V for i in context), f"context id outside [0, {V})"),
            (nxt >= V, f"next id outside [0, {V})"),
            (count < 1, "count below 1"),
            ((k, context, nxt) <= last, "record out of order or repeated"),
            (context[:-1] not in seen.get(k - 1, ()), f"context has no record at order {k - 1}"),
        ):
            if bad:
                raise MalformedRecordError(lineno, reason)
        seen.setdefault(k, set()).add(context)
        last = (k, context, nxt)
    raise AssertionError("the byte parse refused a table whose every line is good")


def load_table(blob: bytes) -> NGramTable:
    """Parse a table's bytes as ``save_table`` writes them, refusing anything else.

    The records are parsed in blocks of whole lines into columns sized from the file's
    newlines and commas (``count_byte``), the ids kept in the narrowest dtype that holds
    V - 1.  Each order's contexts are its runs of equal context rows, compared as packed
    words (``_pack``), and each context's parent is found with one search of its packed
    prefix among the packed contexts of the order below (``_row_ids``).  The byte parse
    and the whole-array checks only decide whether the table is clean: on any fault
    ``_refuse_table`` raises MalformedRecordError for the first bad line, as a bad
    header does for line 1.  The table holds the orders that have a record, however
    large ``max_order`` is.
    """
    newline = blob.find(b"\n")
    header = blob if newline < 0 else blob[:newline]
    head = _HEADER.fullmatch(header.decode("ascii", "replace"))
    if head is None:
        raise MalformedRecordError(1, "expected the header '#NGRAM max_order=<N> V=<int>'")
    max_order, V = int(head[1]), int(head[2])
    if max_order < 1:
        raise MalformedRecordError(1, f"max_order must be >= 1, got {max_order}")
    if V > _MAX_VOCAB:
        raise MalformedRecordError(1, f"V={V} exceeds the 32-bit action id range")
    if newline < 0:
        raise MalformedRecordError(1, "no newline at the end of the file")
    if not blob.endswith(b"\n"):
        _refuse_table(blob, max_order, V)
    ids = np.min_scalar_type(max(V - 1, 0))
    records = count_byte(blob, b"\n") - 1
    # orders 1..n with none left out need a record each, so none is above the records
    top = min(max_order, records)
    order, nxt = np.empty(records, dtype=np.min_scalar_type(top)), np.empty(records, dtype=ids)
    count = np.empty(records, dtype=np.int64)
    digits = np.empty(count_byte(blob, b",") + records, dtype=ids)  # commas + 1 each
    row = digit = 0
    handle = io.BytesIO(blob)  # shares the bytes; line_blocks copies each block once
    handle.seek(newline + 1)
    for buf, size in line_blocks(handle):
        # a block's first record starts at index 0, so the digits of its order are
        # read back to index -1: the buffer's last byte, which no read writes
        parsed = _parse_records(np.frombuffer(buf, dtype=np.uint8), 0, size)
        if parsed is None:
            _refuse_table(blob, max_order, V)
        k, width, n, c, context = parsed
        # every field in range, before the columns are narrowed
        if (((k < 1) | (k > top) | (width != k - 1) | (n >= V) | (c < 1)).any()
                or (context >= V).any()):
            _refuse_table(blob, max_order, V)
        order[row : row + len(k)], nxt[row : row + len(k)], count[row : row + len(k)] = k, n, c
        digits[digit : digit + len(context)] = context
        row, digit = row + len(k), digit + len(context)
    buf = None  # free the block buffer before the table's arrays are allocated above it
    # the orders sorted as 1, 2, ..., n with none left out; unsigned, a fall wraps above 1
    if (np.diff(order, prepend=order.dtype.type(0)) > 1).any():
        _refuse_table(blob, max_order, V)
    contexts, grams, counts = {}, {}, {}
    below = _pack(np.zeros((1, 0), dtype=ids))  # order 1's one context, the empty one
    digit = 0
    for k in range(1, int(order.max(initial=0)) + 1):
        lo, hi = np.searchsorted(order, [k, k + 1])
        rows = digits[digit : digit + (hi - lo) * (k - 1)].reshape(hi - lo, k - 1)
        digit += (hi - lo) * (k - 1)
        packed = _pack(rows)
        new = np.ones(hi - lo, dtype=bool)  # a context is a run of equal rows
        new[1:] = (packed[1:] != packed[:-1]).any(axis=1)
        own = rows[new]
        parent = _row_ids(below, _pack(own[:, :-1]))
        keys = parent if k == 1 else parent * V + own[:, -1]
        gram_keys = (np.cumsum(new) - 1) * V + nxt[lo:hi]
        if (parent < 0).any() or (np.diff(keys) <= 0).any() or (np.diff(gram_keys) <= 0).any():
            _refuse_table(blob, max_order, V)
        contexts[k], grams[k], counts[k], below = keys, gram_keys, count[lo:hi], packed[new]
    del blob, handle  # no fault is left to name, so the bytes go before the table is built
    return NGramTable(max_order, V, contexts, grams, counts)

"""Gram-count tables with recursive backoff next-action prediction.

A table of order N stores, for every order k in 1..N, the count of each
(k-1 context ids, next id) pair observed in training.  Only continuation
positions are counted: position t of a sequence contributes the grams that
end at t for t >= 2, so all orders share the same scored positions.  The
order-1 context is empty.

Prediction takes the largest order whose context has at least one observed
continuation and returns the count argmax, ties broken by lowest action id.
"""

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, MalformedRecordError, UnfittedModelError
from .ingest import Corpus

Context = tuple[int, ...]


@dataclass
class BackoffPrediction:
    predicted: int
    order_used: int
    distribution: dict[int, float] | None = None


class NGramTable:
    """Per-order context -> continuation counts, plus context totals."""

    def __init__(self, max_order: int, vocab_size: int):
        if max_order < 1:
            raise ConfigError(f"max_order must be >= 1, got {max_order}")
        self.max_order = max_order
        self.vocab_size = vocab_size
        # continuations[k][ctx][next] = count, with k = gram order, |ctx| = k - 1
        self.continuations: dict[int, dict[Context, Counter]] = {
            k: {} for k in range(1, max_order + 1)
        }
        self.context_totals: dict[int, dict[Context, int]] = {
            k: {} for k in range(1, max_order + 1)
        }

    def add_sequence(self, actions: Sequence[int]) -> None:
        for t in range(1, len(actions)):
            nxt = actions[t]
            for order in range(1, self.max_order + 1):
                if order - 1 > t:
                    break  # context would not fit inside the sequence
                ctx = tuple(actions[t - order + 1 : t])
                by_ctx = self.continuations[order].setdefault(ctx, Counter())
                by_ctx[nxt] += 1
                totals = self.context_totals[order]
                totals[ctx] = totals.get(ctx, 0) + 1

    def count(self, order: int, ctx: Context, nxt: int) -> int:
        return self.continuations[order].get(ctx, Counter()).get(nxt, 0)

    def total(self, order: int, ctx: Context) -> int:
        return self.context_totals[order].get(ctx, 0)


def fit(corpus: Corpus, max_order: int) -> NGramTable:
    """Count all grams of order <= max_order over the corpus sequences."""
    if not corpus.sequences:
        raise ConfigError("cannot fit an n-gram table on an empty corpus")
    table = NGramTable(max_order, corpus.vocab_size)
    for seq in corpus.sequences:
        table.add_sequence(seq.actions)
    return table


def _cap(table: NGramTable, max_order: int | None) -> int:
    return table.max_order if max_order is None else min(max_order, table.max_order)


def _backoff(table: NGramTable, actions: Sequence[int], t: int, cap: int):
    """(predicted, order used, context) for position t, read from actions[t-order+1:t]."""
    for order in range(min(cap, t + 1), 0, -1):
        ctx = tuple(actions[t - order + 1 : t])
        by_next = table.continuations[order].get(ctx)
        if by_next:
            return min(by_next, key=lambda a: (-by_next[a], a)), order, ctx
    raise UnfittedModelError("n-gram table has no observations")


def predict_next(
    table: NGramTable,
    context: Sequence[int],
    max_order: int | None = None,
    with_distribution: bool = False,
) -> BackoffPrediction:
    """Predict via backoff: the largest usable order with observations wins.

    ``max_order`` caps the orders consulted (useful for order sweeps over a
    single fitted table); it defaults to the table's own order.
    """
    predicted, order, ctx = _backoff(table, context, len(context), _cap(table, max_order))
    distribution = None
    if with_distribution:
        by_next = table.continuations[order][ctx]
        total = table.context_totals[order][ctx]
        distribution = {a: n / total for a, n in sorted(by_next.items())}
    return BackoffPrediction(predicted, order, distribution)


def backoff_usage(
    table: NGramTable,
    corpus: Corpus,
    max_order: int | None = None,
) -> dict[int, float]:
    """Fraction of scored positions served by each gram order."""
    cap = _cap(table, max_order)
    used = Counter(
        _backoff(table, seq.actions, t, cap)[1]
        for seq in corpus.sequences
        for t in range(1, len(seq.actions))
    )
    scored = sum(used.values())
    if scored == 0:
        return {order: 0.0 for order in range(1, cap + 1)}
    return {order: used.get(order, 0) / scored for order in range(1, cap + 1)}


class NGramPredictor:
    """Scores whole sequences by backoff over one fitted table."""

    def __init__(self, table: NGramTable, max_order: int | None = None):
        self.table = table
        self.max_order = _cap(table, max_order)

    def predict_sequence(self, actions: Sequence[int]) -> list[int]:
        return [
            _backoff(self.table, actions, t, self.max_order)[0]
            for t in range(1, len(actions))
        ]


def sweep_orders(corpus: Corpus, orders: Iterable[int], plan, workers: int = 1):
    """Cross-validated accuracy per gram order.

    One table of the largest requested order is fitted per fold and consulted
    with per-order caps; counts at order k are identical to a table fitted at
    order k, so the sweep matches independent per-order fits.
    """
    from .evaluation import cross_validate  # local import avoids a cycle

    orders = sorted(set(orders))
    if not orders or orders[0] < 1:
        raise ConfigError(f"gram orders must be >= 1, got {orders}")
    top = orders[-1]

    tables: dict[int, NGramTable] = {}

    def factory_for(order: int):
        def factory(train_corpus: Corpus, fold: int):
            if fold not in tables:
                tables[fold] = fit(train_corpus, top)
            return NGramPredictor(tables[fold], max_order=order)

        return factory

    reports = {}
    for order in orders:
        reports[order] = cross_validate(
            factory_for(order),
            corpus,
            plan,
            model_name=f"{order}-gram backoff",
            workers=workers,
        )
    return reports


def save_table(table: NGramTable, path: str | Path) -> None:
    """Write the table as sorted text, bit-exact across runs."""
    lines = [f"#NGRAM max_order={table.max_order} V={table.vocab_size}\n"]
    for order in range(1, table.max_order + 1):
        for ctx in sorted(table.continuations[order]):
            by_next = table.continuations[order][ctx]
            ctx_text = ",".join(str(a) for a in ctx)
            for nxt in sorted(by_next):
                lines.append(f"{order}\t{ctx_text}\t{nxt}\t{by_next[nxt]}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_table(path: str | Path) -> NGramTable:
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or not text[0].startswith("#NGRAM"):
        raise MalformedRecordError(1, "missing n-gram header")
    head = dict(part.split("=", 1) for part in text[0].split()[1:])
    table = NGramTable(int(head["max_order"]), int(head["V"]))
    for line in text[1:]:
        if not line.strip():
            continue
        order_text, ctx_text, nxt_text, count_text = line.split("\t")
        order = int(order_text)
        ctx = tuple(int(a) for a in ctx_text.split(",")) if ctx_text else ()
        count = int(count_text)
        by_ctx = table.continuations[order].setdefault(ctx, Counter())
        by_ctx[int(nxt_text)] += count
        totals = table.context_totals[order]
        totals[ctx] = totals.get(ctx, 0) + count
    return table

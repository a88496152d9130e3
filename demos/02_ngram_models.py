"""Fit gram-count models of increasing order and watch backoff at work.

An order-N table predicts from the longest context with observations and
falls back one order at a time otherwise.  The sweep cross-validates each
order with the shared 5-fold student split; the histogram at the end shows
which order actually served each prediction for the largest model.
"""

import tempfile
from pathlib import Path

import numpy as np

from nextaction import evaluation, ingest, ngram, synth

config = synth.SynthConfig()
with tempfile.TemporaryDirectory(prefix="nextaction-demo-") as out_dir:
    outputs = synth.generate(config, Path(out_dir))
    corpus, _ = ingest.ingest_files(outputs.events_path, outputs.roster_path, min_count=40)
certified = ingest.filter_cohort(corpus, certified=True)

# a tiny portrait of prediction and backoff on one table
table = ngram.fit(certified, max_order=3)
context = certified.actions[:6].tolist()  # the first student's first six actions
prediction = ngram.predict_next(table, context)
print(f"context (ids): {context}")
print(f"predicted next: {prediction.predicted} using order {prediction.order_used}")
# the counts behind it: the continuations of the context at the order used
order = prediction.order_used
key = tuple(context[len(context) - order + 1 :]) if order > 1 else ()
counts = dict(table.continuations[order].items())[key]
total = sum(counts.values())
top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
print("top continuations:", ", ".join(f"{a}: {n / total:.3f}" for a, n in top))

# cross-validated accuracy per order, 2-gram through 10-gram
plan = evaluation.make_folds(certified.students, 5, seed=11)
print("\ncross-validated accuracy by gram order:")
# the evaluator scores every order of one spec from a single count of the corpus
orders = tuple(range(2, 11))
reports = evaluation.cross_validate(ngram.NGramSpec(orders), certified, plan)
best, _ = max(zip(orders, reports), key=lambda item: item[1].cv_accuracy)
for order, report in zip(orders, reports):
    marker = "  <- best" if order == best else ""
    print(f"  {order:2d}-gram  {report.cv_accuracy:.4f}{marker}")

# which order actually served each prediction: train the 10-gram on four
# folds and look at the held-out fold, where long contexts are often unseen
fold_of = np.array([plan.assignment[student] for student in certified.students])
big = ngram.fit(certified.take(fold_of != 0), max_order=10)
usage = ngram.backoff_usage(big, certified.take(fold_of == 0))
print("\nshare of held-out predictions served by each order (10-gram model):")
for order in sorted(usage, reverse=True):  # the orders the table holds
    bar = "#" * int(round(usage[order] * 60))
    print(f"  order {order:2d}  {usage[order]:.4f} {bar}")
print(f"  (fractions sum to {sum(usage.values()):.9f})")

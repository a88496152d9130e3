"""Fit gram-count models of increasing order and watch backoff at work.

An order-N table predicts from the longest context with observations and
falls back one order at a time otherwise.  The sweep cross-validates each
order with the shared 5-fold student split; the histogram at the end shows
which order actually served each prediction for the largest model.
"""

import tempfile
from pathlib import Path

from nextaction import evaluation, ingest, ngram, synth

out_dir = Path(tempfile.mkdtemp(prefix="nextaction-demo-"))
config = synth.SynthConfig()
outputs = synth.generate(config, out_dir)
corpus, _ = ingest.ingest_files(outputs.events_path, outputs.roster_path, min_count=40)
certified = ingest.filter_cohort(corpus, certified=True)

# a tiny portrait of prediction and backoff on one table
table = ngram.fit(certified, max_order=3)
sample = certified.sequences[0].actions
context = sample[:6]
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
plan = evaluation.make_folds(certified.student_ids(), 5, seed=11)
print("\ncross-validated accuracy by gram order:")
reports = ngram.sweep_orders(certified, range(2, 11), plan)
best = max(reports, key=lambda order: reports[order].cv_accuracy)
for order, report in sorted(reports.items()):
    marker = "  <- best" if order == best else ""
    print(f"  {order:2d}-gram  {report.cv_accuracy:.4f}{marker}")

# which order actually served each prediction: train the 10-gram on four
# folds and look at the held-out fold, where long contexts are often unseen
train_seqs = [s for s in certified.sequences if plan.assignment[s.student_id] != 0]
held_out = [s for s in certified.sequences if plan.assignment[s.student_id] == 0]
big = ngram.fit(
    ingest.Corpus(certified.vocabulary, train_seqs, certified.vocab_size), max_order=10
)
usage = ngram.backoff_usage(
    big, ingest.Corpus(certified.vocabulary, held_out, certified.vocab_size)
)
print("\nshare of held-out predictions served by each order (10-gram model):")
for order in range(10, 0, -1):
    bar = "#" * int(round(usage[order] * 60))
    print(f"  order {order:2d}  {usage[order]:.4f} {bar}")
print(f"  (fractions sum to {sum(usage.values()):.9f})")

"""Train the from-scratch LSTM and compare it with a gram model head to head.

Training cuts each student sequence into windows of eleven actions, runs
truncated backpropagation through time with RMSprop on batches of windows,
and tracks accuracy on a held-out tenth of the students after every epoch.
The agreement table at the end counts positions where the two models were
jointly right or wrong on the same held-out students.
"""

import tempfile
from pathlib import Path

import numpy as np

from nextaction import evaluation, ingest, lstm, ngram, synth

config = synth.SynthConfig()
with tempfile.TemporaryDirectory(prefix="nextaction-demo-") as out_dir:
    outputs = synth.generate(config, Path(out_dir))
    corpus, _ = ingest.ingest_files(outputs.events_path, outputs.roster_path, min_count=40)
certified = ingest.filter_cohort(corpus, certified=True)

# one fold of the usual split: train on 80% of students, score the rest
plan = evaluation.make_folds(certified.students, 5, seed=11)
fold_of = np.array([plan.assignment[student] for student in certified.students])
train_corpus = certified.take(fold_of != 0)
eval_corpus = certified.take(fold_of == 0)

cfg = lstm.TrainConfig(
    learning_rate=0.01, epochs=8, window=10, batch_size=32,
    dropout_rate=0.2, seed=11, hidden_size=32, layers=2, embedding_dim=64,
)
print(f"training a {cfg.layers}-layer, {cfg.hidden_size}-node LSTM on "
      f"{len(train_corpus)} students ({train_corpus.total_actions} actions)")
net, curve = lstm.train(train_corpus, cfg)
print("\nepoch  train loss  hill-climb accuracy")
for stats in curve:
    print(f"  {stats.epoch:3d}   {stats.train_loss:9.4f}   {stats.hillclimb_accuracy:.4f}")

lstm_model = lstm.LstmPredictor(net)
gram_model = ngram.NGramPredictor(ngram.fit(train_corpus, 3))

# one call per model scores the whole held-out fold; the stream pairs each
# prediction with its student, position and true action
scored = eval_corpus.take(np.argsort(eval_corpus.students))  # in student order
scored = scored.take(scored.lengths >= 2)

def fold_score(model):
    accuracies, predictions = evaluation.sequence_accuracy(model, scored)
    return float(accuracies.mean()), evaluation.prediction_stream(scored, predictions)

lstm_acc, lstm_stream = fold_score(lstm_model)
gram_acc, gram_stream = fold_score(gram_model)
print(f"\nheld-out fold accuracy: lstm {lstm_acc:.4f}, 3-gram {gram_acc:.4f}")

table = evaluation.agreement(lstm_stream, gram_stream)
print("\nagreement on the same positions (lstm rows, 3-gram columns):")
print(f"  both correct      {table.both_correct:7d}")
print(f"  lstm only         {table.a_only:7d}")
print(f"  3-gram only       {table.b_only:7d}")
print(f"  neither           {table.neither:7d}")
print(f"  total positions   {table.total:7d}")

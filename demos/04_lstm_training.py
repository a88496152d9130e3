"""Train the from-scratch LSTM and compare it with a gram model head to head.

Training cuts each student sequence into windows of eleven actions, runs
truncated backpropagation through time with RMSprop on batches of windows,
and tracks accuracy on a held-out tenth of the students after every epoch.
The agreement table at the end counts positions where the two models were
jointly right or wrong on the same held-out students.
"""

import tempfile
from pathlib import Path

from nextaction import evaluation, ingest, lstm, ngram, synth

out_dir = Path(tempfile.mkdtemp(prefix="nextaction-demo-"))
config = synth.SynthConfig()
outputs = synth.generate(config, out_dir)
corpus, _ = ingest.ingest_files(outputs.events_path, outputs.roster_path, min_count=40)
certified = ingest.filter_cohort(corpus, certified=True)

# one fold of the usual split: train on 80% of students, score the rest
plan = evaluation.make_folds(certified.student_ids(), 5, seed=11)
train_seqs = [s for s in certified.sequences if plan.assignment[s.student_id] != 0]
eval_seqs = [s for s in certified.sequences if plan.assignment[s.student_id] == 0]
train_corpus = ingest.Corpus(certified.vocabulary, train_seqs, certified.vocab_size)

cfg = lstm.TrainConfig(
    learning_rate=0.01, epochs=8, window=10, batch_size=32,
    dropout_rate=0.2, seed=11, hidden_size=32, layers=2, embedding_dim=64,
)
print(f"training a {cfg.layers}-layer, {cfg.hidden_size}-node LSTM on "
      f"{len(train_seqs)} students ({train_corpus.total_actions} actions)")
net, curve = lstm.train(train_corpus, cfg)
print("\nepoch  train loss  hill-climb accuracy")
for stats in curve:
    print(f"  {stats.epoch:3d}   {stats.train_loss:9.4f}   {stats.hillclimb_accuracy:.4f}")

lstm_model = lstm.LstmPredictor(net)
gram_model = ngram.NGramPredictor(ngram.fit(train_corpus, 3))

# one call per model scores the whole held-out fold; the stream pairs each
# prediction with its student, position and true action
scored = sorted((s for s in eval_seqs if len(s) >= 2), key=lambda s: s.student_id)
students = [s.student_id for s in scored for _ in s.actions[1:]]
positions = [t for s in scored for t in range(2, len(s) + 1)]
truths = [a for s in scored for a in s.actions[1:]]

def fold_score(model):
    accuracies, predictions = evaluation.sequence_accuracy(model, [s.actions for s in scored])
    stream = list(map(evaluation.PredictionRecord, students, positions,
                      predictions.tolist(), truths))
    return float(accuracies.mean()), stream

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

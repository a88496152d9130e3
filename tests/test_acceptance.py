"""Acceptance suite: one test per criterion, each printing a pass line.

Reference quantities (the frozen oracle value, fold seeds) are pinned here;
everything else is recomputed from scratch against independent oracles.
"""

import time
from collections import Counter

import numpy as np
import pytest

from helpers import (
    corpus_of, finite_difference_gradients, naive_backoff_predict, naive_backoff_usage,
    naive_gram_counts, students_in,
)
from nextaction import baselines, evaluation, ingest, lstm, ngram, synth
from nextaction.cli import main

# synth.oracle_accuracy(certified_kernel(SynthConfig()), horizon=2000, seed=99)
FROZEN_ORACLE_ACCURACY = 0.7503558086854251
FOLD_SEED = 2024


@pytest.fixture(scope="module")
def certified(default_data):
    return default_data.certified


@pytest.fixture(scope="module")
def fold_plan(certified):
    return evaluation.make_folds(certified.students, 5, seed=FOLD_SEED)


@pytest.fixture(scope="module")
def trigram_report(certified, fold_plan):
    (report,) = evaluation.cross_validate(ngram.NGramSpec((3,)), certified, fold_plan)
    return report


def test_criterion_1_gradient_fidelity():
    start = time.time()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng([seed, 0xACC])
        net = lstm.init_network(
            vocab_size=7, embedding_dim=5, hidden_size=6, layers=2,
            dropout_rate=0.0, window=9, cell="lstm", rng=rng,
        )
        ids = rng.integers(0, 7, size=9)
        targets = rng.integers(0, 7, size=9)
        _, cache = lstm.forward_sequence(net, ids, train=True, rng=rng)
        batch = targets[None], np.ones((1, len(targets)), dtype=bool)
        analytic = lstm.backward(net, cache, *batch)
        numeric = finite_difference_gradients(net, ids, *batch, step=1e-5)
        assert analytic.keys() == numeric.keys()
        for name, grad in analytic.items():
            ref = numeric[name]
            rel = np.linalg.norm(grad - ref) / max(
                np.linalg.norm(grad), np.linalg.norm(ref), 1e-12
            )
            assert rel <= 1e-4, f"seed {seed}, group {name}: rel error {rel:.2e}"
            worst = max(worst, rel)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"criterion 1 gradient fidelity: PASS (worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_ngram_count_oracle():
    start = time.time()
    rng = np.random.default_rng(0xC2)
    checked_counts = checked_predictions = 0
    for _ in range(50):
        vocab_size = int(rng.integers(3, 25))
        max_order = int(rng.integers(1, 6))
        budget = int(rng.integers(50, 5001))
        sequences = []
        while budget > 0:
            length = int(min(budget, rng.integers(2, 120)))
            if length < 2:
                break
            sequences.append(rng.integers(0, vocab_size, size=length).tolist())
            budget -= length
        corpus = corpus_of([
            ingest.StudentSequence(f"s{i}", seq, True)
            for i, seq in enumerate(sequences)
        ], vocab_size)

        table = ngram.fit(corpus, max_order)
        naive = naive_gram_counts(sequences, max_order)
        for order in range(1, max_order + 1):
            stored = {c: dict(v) for c, v in table.continuations[order].items()}
            expected = {c: dict(v) for c, v in naive[order].items()}
            assert stored == expected
            checked_counts += sum(len(v) for v in stored.values())
        for seq in sequences:
            for t in range(1, len(seq)):
                pred = ngram.predict_next(table, seq[:t])
                assert (pred.predicted, pred.order_used) == naive_backoff_predict(
                    naive, seq[:t], max_order
                )
                checked_predictions += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"criterion 2 n-gram count oracle: PASS ({checked_counts} counts, "
        f"{checked_predictions} predictions, {elapsed:.1f}s)"
    )


def test_criterion_3_synthetic_quantitative_match(trigram_report):
    start = time.time()
    cv = trigram_report.cv_accuracy
    gap = abs(cv - FROZEN_ORACLE_ACCURACY)
    assert gap <= 0.02, f"3-gram CV {cv:.4f} vs oracle {FROZEN_ORACLE_ACCURACY:.4f}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"criterion 3 synthetic quantitative match: PASS "
        f"(3-gram CV {cv:.4f}, oracle {FROZEN_ORACLE_ACCURACY:.4f}, gap {gap:.4f})"
    )


def test_criterion_4_lstm_learnability(certified, fold_plan, trigram_report):
    start = time.time()
    cfg = lstm.TrainConfig(
        learning_rate=0.01, epochs=10, window=10, batch_size=32,
        dropout_rate=0.2, seed=FOLD_SEED, hidden_size=32, layers=2,
        embedding_dim=64,
    )
    (report,) = evaluation.cross_validate(lstm.LstmSpec(cfg, workers=2), certified, fold_plan)
    floor = trigram_report.cv_accuracy - 0.05
    assert report.cv_accuracy >= floor, (
        f"LSTM CV {report.cv_accuracy:.4f} below floor {floor:.4f}"
    )
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(
        f"criterion 4 lstm learnability: PASS (LSTM CV {report.cv_accuracy:.4f} "
        f"vs 3-gram {trigram_report.cv_accuracy:.4f}, {elapsed:.0f}s)"
    )


def test_criterion_5_structural_ordering(default_data, certified, fold_plan):
    start = time.time()
    syllabus = baselines.load_syllabus(
        default_data.outputs.syllabus_path.read_bytes(), default_data.corpus.vocabulary
    )
    scores = {}
    for model in (
        baselines.RepeatModel(),
        baselines.SyllabusModel(syllabus),
        baselines.SyllabusRepeatModel(syllabus),
    ):
        (report,) = evaluation.cross_validate(evaluation.FixedSpec(model), certified, fold_plan)
        scores[model.name] = report.cv_accuracy
    combined = scores["syllabus+repeat"]
    best_single = max(scores["repeat"], scores["syllabus"])
    assert combined > best_single, scores
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(
        f"criterion 5 structural ordering: PASS (combined {combined:.4f} > "
        f"repeat {scores['repeat']:.4f}, syllabus {scores['syllabus']:.4f}, {elapsed:.1f}s)"
    )


def test_criterion_6_cohort_transfer_gap(default_data, certified, trigram_report):
    start = time.time()
    table = ngram.fit(certified, 3)
    predictor = ngram.NGramPredictor(table)
    uncertified = default_data.uncertified
    accuracy, n_scored = evaluation.transfer_eval(predictor, uncertified, min_actions=30)
    gap = trigram_report.cv_accuracy - accuracy
    assert gap >= 0.03, f"certified {trigram_report.cv_accuracy:.4f} vs transfer {accuracy:.4f}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"criterion 6 cohort transfer gap: PASS (certified {trigram_report.cv_accuracy:.4f} "
        f"-> uncertified {accuracy:.4f} on {n_scored} students, gap {gap:.4f}, {elapsed:.1f}s)"
    )


def test_criterion_7_backoff_usage_histogram(certified):
    start = time.time()
    table = ngram.fit(certified, 10)
    usage = ngram.backoff_usage(table, certified)
    assert abs(sum(usage.values()) - 1.0) <= 1e-9
    sequences = [s.actions for s in certified.sequences]
    expected = naive_backoff_usage(naive_gram_counts(sequences, 10), sequences, 10)
    assert usage == expected
    elapsed = time.time() - start
    top = usage[10]
    print(
        f"criterion 7 backoff usage histogram: PASS (order-10 share {top:.4f}, "
        f"sum {sum(usage.values()):.12f}, {elapsed:.1f}s)"
    )


def test_criterion_8_determinism(tmp_path):
    start = time.time()
    config = tmp_path / "synth.cfg"
    config.write_text(
        "vocab_size=16\nsyllabus_length=8\nstudents_certified=15\n"
        "students_uncertified=5\nmean_sequence_length=40\nseed=31\n",
        encoding="utf-8",
    )
    artifacts = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        assert main(["synth", "--config", str(config), "--out-dir", str(root)]) == 0
        assert main([
            "ingest", "--events", str(root / "events.tsv"),
            "--roster", str(root / "roster.tsv"), "--min-count", "1",
            "--out-dir", str(root), "--report", str(root / "ingest.txt"),
        ]) == 0
        assert main([
            "ngram", "--corpus", str(root / "corpus.nact"),
            "--vocab", str(root / "vocab.tsv"), "--max-order", "3",
            "--folds", "3", "--seed", "9", "--usage",
            "--save-model", str(root / "model.ngram"),
            "--stream", str(root / "model.pred"),
            "--report", str(root / "ngram.txt"), "--out-dir", str(root),
        ]) == 0
        assert main([
            "lstm", "--corpus", str(root / "corpus.nact"),
            "--vocab", str(root / "vocab.tsv"),
            "--layers", "1", "--nodes", "8", "--lr", "0.01",
            "--epochs", "2", "--window", "5", "--emb-dim", "8",
            "--dropout", "0.2", "--folds", "3", "--seed", "9",
            "--save-model", str(root / "model.nlstm"),
            "--stream", str(root / "lstm.pred"),
            "--report", str(root / "lstm.txt"), "--out-dir", str(root),
        ]) == 0
        artifacts.append({
            name: (root / name).read_bytes()
            for name in (
                "events.tsv", "roster.tsv", "syllabus.txt", "vocab.tsv",
                "corpus.nact", "ingest.txt", "model.ngram", "model.pred",
                "ngram.txt", "model.nlstm", "lstm.pred", "lstm.txt",
                "curve-fold0.csv", "curve-fold1.csv", "curve-fold2.csv",
                "curve-final.csv",
            )
        })
    mismatched = [k for k in artifacts[0] if artifacts[0][k] != artifacts[1][k]]
    assert not mismatched, f"non-deterministic artifacts: {mismatched}"
    elapsed = time.time() - start
    print(
        f"criterion 8 determinism: PASS ({len(artifacts[0])} artifacts "
        f"byte-identical across runs, {elapsed:.1f}s)"
    )


def test_criterion_9_protocol_shape():
    start = time.time()
    # folds partition the student set with sizes differing by at most one
    students = [f"s{i:03d}" for i in range(103)]
    plan = evaluation.make_folds(students, 5, seed=3)
    seen = Counter()
    for fold in range(5):
        for student in students_in(plan, fold):
            seen[student] += 1
    assert all(count == 1 for count in seen.values())
    assert sorted(seen) == students
    sizes = sorted(len(students_in(plan, f)) for f in range(5))
    assert sizes[-1] - sizes[0] <= 1

    # hill-climb holdout takes the ceiling of 10% by student count
    for n_students, expected in ((20, 2), (9, 1), (31, 4)):
        seqs = [ingest.StudentSequence(f"u{i}", [0, 1], True) for i in range(n_students)]
        train, hold = evaluation.hill_climb_split(corpus_of(seqs, 2), 0.1, seed=4)
        assert len(hold) == expected
        assert len(train) + len(hold) == n_students
        assert not set(train.students) & set(hold.students)

    # macro vs micro averaging differ on a constructed two-fold corpus
    corpus = corpus_of([
        ingest.StudentSequence("long", [0] + [1] * 20, True),
        ingest.StudentSequence("short", [0, 1], True),
    ], 2)
    plan = evaluation.FoldPlan(k=2, seed=0, assignment={"long": 0, "short": 1})

    class RepeatLast:
        name = "repeat"

        def predict_sequence(self, actions, pos):
            return actions[:-1][pos[1:] >= 1]

    (report,) = evaluation.cross_validate(evaluation.FixedSpec(RepeatLast()), corpus, plan)
    macro = (19 / 20 + 0.0) / 2
    micro = 19 / 21
    assert report.cv_accuracy == pytest.approx(macro)
    assert abs(macro - micro) > 0.01
    elapsed = time.time() - start
    print(f"criterion 9 protocol shape: PASS (macro {macro:.4f} != micro {micro:.4f}, {elapsed:.1f}s)")

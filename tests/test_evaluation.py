import pickle
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    actions_pos, columns, lstm_predict_next, mutated, naive_backoff_predict, naive_gram_counts,
    per_line_read_stream, per_line_write_stream, per_record_agreement, read_report, students_in,
)
from helpers import corpus_of as rows_corpus
from nextaction import baselines, evaluation, ingest, lstm, ngram
from nextaction.errors import ConfigError, MalformedRecordError, NextactionError
from nextaction.ingest import StudentSequence


def corpus_of(sequences, vocab_size=None, certified=True):
    seqs = [
        StudentSequence(f"s{i:03d}", list(a), certified) for i, a in enumerate(sequences)
    ]
    return rows_corpus(seqs, vocab_size)


class ConstantModel:
    def __init__(self, value):
        self.value = value

    def predict_sequence(self, actions, pos):
        return [self.value] * int(np.count_nonzero(pos >= 1))


class RepeatLast:
    def predict_sequence(self, actions, pos):
        return actions[:-1][pos[1:] >= 1]


class ShortByOne:
    """A repeat model that leaves out its last prediction of the fold."""

    def predict_sequence(self, actions, pos):
        return actions[:-1][pos[1:] >= 1][:-1]


def one(actions):
    """A single sequence as the contract's (actions, pos)."""
    return actions_pos([actions])


class TestMakeFolds:
    def test_even_split(self):
        plan = evaluation.make_folds([f"s{i}" for i in range(10)], 5, seed=1)
        sizes = [len(students_in(plan, f)) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_same_seed_same_assignment(self):
        students = [f"s{i}" for i in range(17)]
        a = evaluation.make_folds(students, 5, seed=9).assignment
        b = evaluation.make_folds(students, 5, seed=9).assignment
        assert a == b

    def test_assignment_independent_of_input_order(self):
        students = [f"s{i}" for i in range(17)]
        a = evaluation.make_folds(students, 5, seed=9).assignment
        b = evaluation.make_folds(list(reversed(students)), 5, seed=9).assignment
        assert a == b

    def test_eleven_students_five_folds(self):
        plan = evaluation.make_folds([f"s{i}" for i in range(11)], 5, seed=2)
        sizes = sorted((len(students_in(plan, f)) for f in range(5)), reverse=True)
        assert sizes == [3, 2, 2, 2, 2]

    def test_partition_exact(self):
        students = [f"s{i}" for i in range(23)]
        plan = evaluation.make_folds(students, 4, seed=3)
        seen = [s for f in range(4) for s in students_in(plan, f)]
        assert sorted(seen) == sorted(students)

    def test_too_few_students(self):
        with pytest.raises(ConfigError):
            evaluation.make_folds(["a", "b"], 5, seed=0)
        with pytest.raises(ConfigError):
            evaluation.make_folds(["a", "b", "c"], 1, seed=0)


class TestHillClimbSplit:
    def test_twenty_students_two_held_out(self):
        corpus = corpus_of([[0, 1]] * 20, 2)
        train, hold = evaluation.hill_climb_split(corpus, 0.1, seed=4)
        assert len(hold) == 2 and len(train) == 18

    def test_ceiling_rounding(self):
        corpus = corpus_of([[0, 1]] * 9, 2)
        train, hold = evaluation.hill_climb_split(corpus, 0.1, seed=4)
        assert len(hold) == 1 and len(train) == 8

    def test_disjoint_and_complete(self):
        corpus = corpus_of([[0, 1]] * 13, 2)
        train, hold = evaluation.hill_climb_split(corpus, 0.25, seed=4)
        train_ids = {s.student_id for s in train.sequences}
        hold_ids = {s.student_id for s in hold.sequences}
        assert not train_ids & hold_ids
        assert train_ids | hold_ids == {s.student_id for s in corpus.sequences}

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_outside_the_open_unit_interval(self, fraction):
        with pytest.raises(ConfigError, match="holdout fraction must be in"):
            evaluation.hill_climb_split(corpus_of([[0, 1]] * 5, 2), fraction)

    def test_fewer_than_two_students(self):
        with pytest.raises(ConfigError, match="needs at least 2 students"):
            evaluation.hill_climb_split(corpus_of([[0, 1]], 2), 0.5)


class TestSequenceAccuracy:
    def test_repeat_on_small_sequence(self):
        accuracies, _ = evaluation.sequence_accuracy(RepeatLast(), corpus_of([[0, 0, 1, 1]]))
        assert accuracies.tolist() == pytest.approx([2 / 3])

    def test_perfect_model(self):
        seq = [3, 1, 4, 1, 5]

        class Oracle:
            def predict_sequence(self, actions, pos):
                return seq[1:]

        accuracies, _ = evaluation.sequence_accuracy(Oracle(), corpus_of([seq]))
        assert accuracies.tolist() == [1.0]

    def test_ngram_on_own_deterministic_sequence(self):
        seq = [0, 1, 2, 3, 4]
        corpus = corpus_of([seq], 5)
        table = ngram.fit(corpus, max_order=3)
        accuracies, _ = evaluation.sequence_accuracy(ngram.NGramPredictor(table), corpus)
        assert accuracies.tolist() == [1.0]

    def test_too_short_raises(self):
        with pytest.raises(NextactionError):
            evaluation.sequence_accuracy(RepeatLast(), corpus_of([[1]]))
        with pytest.raises(NextactionError):
            evaluation.sequence_accuracy(RepeatLast(), corpus_of([[0, 1], [1]]))
        with pytest.raises(NextactionError):
            evaluation.sequence_accuracy(RepeatLast(), corpus_of([]))

    def test_one_call_scores_every_sequence(self):
        seqs = [[0, 0, 1, 1], [2, 2], [1, 0, 0, 0, 1]]
        accuracies, predictions = evaluation.sequence_accuracy(RepeatLast(), corpus_of(seqs))
        assert accuracies.tolist() == pytest.approx([2 / 3, 1.0, 2 / 4])
        assert predictions.tolist() == [0, 0, 1, 2, 1, 0, 0, 0]


def _syllabus_map(items, vocab_size=7):
    successor_of = np.full(vocab_size, baselines.NO_PREDICTION)
    successor_of[items[:-1]] = items[1:]
    return baselines.SyllabusMap(items, successor_of, len(items), [])


def _contract_case(kind):
    """(model, single-context rule) pairs that must agree at every position.

    ``ngram`` caps a 4-gram table at 3, ``ngram<k>`` at k; ``rnn`` is the LSTM
    network with the tanh cell."""
    if kind == "repeat":
        model = baselines.RepeatModel()
        return model, model.predict
    if kind in ("syllabus", "combined"):
        # ids 4..6 are off the course order and 3 is its final item
        syllabus = _syllabus_map([0, 1, 2, 3])
        cls = baselines.SyllabusModel if kind == "syllabus" else baselines.SyllabusRepeatModel
        model = cls(syllabus)
        return model, model.predict
    if kind.startswith("ngram"):
        cap = int(kind[5:] or 3)
        rng = np.random.default_rng(20)
        seqs = [rng.integers(0, 7, size=30).tolist() for _ in range(4)]
        table = ngram.fit(corpus_of(seqs, 7), max_order=4)
        naive = naive_gram_counts(seqs, 4)
        model = ngram.NGramPredictor(table, max_order=cap)
        return model, lambda context: naive_backoff_predict(naive, context, cap)[0]
    net = lstm.init_network(7, 5, 6, 2, 0.0, 4, kind, rng=np.random.default_rng([19, 0xEE]))
    return lstm.LstmPredictor(net), lambda context: lstm_predict_next(net, context)[0]


class TestPredictionContract:
    @pytest.mark.parametrize("kind", ["repeat", "syllabus", "combined", "ngram", "lstm"])
    def test_predict_sequence_matches_per_position_calls(self, kind):
        model, single = _contract_case(kind)
        actions = np.random.default_rng(1).integers(0, 7, size=15).tolist()
        predictions = model.predict_sequence(*one(actions))
        assert len(predictions) == len(actions) - 1
        assert predictions.dtype == np.int64
        assert predictions.tolist() == [single(actions[:t]) for t in range(1, len(actions))]

    # 7 is one past the last id, and the LSTM's pad id
    @pytest.mark.parametrize("kind", ["syllabus", "combined", "ngram", "lstm"])
    @pytest.mark.parametrize("bad", [-1, 7])
    def test_ids_outside_the_vocabulary_raise(self, kind, bad):
        model, _ = _contract_case(kind)
        with pytest.raises(ConfigError):
            model.predict_sequence(*one([0, 1, bad, 2]))

    # a fold of sequences of lengths 1 and 2 among longer ones, in mixed order
    @pytest.mark.parametrize("kind", ["repeat", "syllabus", "combined", "ngram1", "ngram2",
                                      "ngram3", "ngram4", "lstm", "rnn"])
    def test_a_fold_call_equals_its_sequences_called_one_at_a_time(self, kind):
        model, single = _contract_case(kind)
        rng = np.random.default_rng(3)
        fold = [rng.integers(0, 7, size=n).tolist() for n in (9, 1, 2, 13, 2, 1, 6, 5)]
        predictions = model.predict_sequence(*actions_pos(fold))
        assert predictions.dtype == np.int64
        one_by_one = [model.predict_sequence(*one(actions)) for actions in fold]
        assert predictions.tolist() == np.concatenate(one_by_one).tolist()
        assert predictions.tolist() == [
            single(actions[:t]) for actions in fold for t in range(1, len(actions))
        ]

    def test_wrong_prediction_count_raises(self):
        corpus = corpus_of([[0, 1, 0, 1], [1, 1, 0], [0, 0, 1]], 2)
        plan = evaluation.make_folds(corpus.students, 3, seed=0)
        with pytest.raises(NextactionError, match="predictions for"):
            evaluation.cross_validate(evaluation.FixedSpec(ShortByOne()), corpus, plan, ["m"])
        with pytest.raises(NextactionError, match="2 predictions for 3 positions"):
            evaluation.transfer_eval(ShortByOne(), corpus, min_actions=4)
        with pytest.raises(NextactionError):
            evaluation.sequence_accuracy(ShortByOne(), corpus_of([[0, 1, 1]]))


class TestCrossValidate:
    def test_a_plan_that_misses_a_student(self):
        corpus = corpus_of([[0, 1]] * 6, 2)
        plan = evaluation.make_folds(corpus.students[:-1], 3, seed=0)
        with pytest.raises(ConfigError, match="fold plan does not cover students"):
            evaluation.cross_validate(evaluation.FixedSpec(ConstantModel(1)), corpus, plan,
                                      ["m"])

    @pytest.mark.parametrize("spec, names, fitted", [
        (evaluation.FixedSpec(baselines.RepeatModel()), ["a", "b"], 1),
        (ngram.NGramSpec((2, 3)), ["2-gram"], 2),
        (ngram.NGramSpec((2, 3)), [], 2),
    ], ids=["more-names", "fewer-names", "no-names"])
    def test_one_name_per_model_the_spec_fits(self, spec, names, fitted):
        corpus = corpus_of([[0, 1, 0, 1], [1, 1, 0], [0, 0, 1]], 2)
        plan = evaluation.make_folds(corpus.students, 3, seed=0)
        with pytest.raises(ConfigError, match=f"{len(names)} model names for a spec that "
                                              f"fits {fitted} models"):
            evaluation.cross_validate(spec, corpus, plan, names)

    def test_constant_model_equals_base_rate(self):
        rng = np.random.default_rng(6)
        seqs = [rng.integers(0, 3, size=rng.integers(4, 12)).tolist() for _ in range(12)]
        corpus = corpus_of(seqs, 3)
        plan = evaluation.make_folds(corpus.students, 3, seed=0)
        (report,) = evaluation.cross_validate(evaluation.FixedSpec(ConstantModel(1)), corpus,
                                              plan, ["m"])
        # direct recomputation of the macro base rate of action 1
        by_id = {s.student_id: s.actions for s in corpus.sequences}
        fold_means = []
        for f in range(3):
            props = []
            for sid in students_in(plan, f):
                actions = by_id[sid]
                props.append(sum(a == 1 for a in actions[1:]) / (len(actions) - 1))
            fold_means.append(np.mean(props))
        assert report.per_fold_accuracy == pytest.approx(fold_means)
        assert report.cv_accuracy == pytest.approx(np.mean(fold_means))

    def test_training_free_model_equals_direct_fold_eval(self):
        rng = np.random.default_rng(7)
        seqs = [rng.integers(0, 4, size=10).tolist() for _ in range(9)]
        corpus = corpus_of(seqs, 4)
        plan = evaluation.make_folds(corpus.students, 3, seed=1)
        model = RepeatLast()
        (report,) = evaluation.cross_validate(evaluation.FixedSpec(model), corpus, plan, ["m"])
        by_id = {s.student_id: s.actions for s in corpus.sequences}
        for f in range(3):
            direct = np.mean([
                evaluation.sequence_accuracy(model, corpus_of([by_id[sid]]))[0][0]
                for sid in students_in(plan, f)
            ])
            assert report.per_fold_accuracy[f] == pytest.approx(direct)

    def test_short_sequences_skipped_and_tallied(self):
        corpus = corpus_of([[0, 1, 0], [0], [1, 1], [0, 0]], 2)
        plan = evaluation.make_folds(corpus.students, 2, seed=2)
        (report,) = evaluation.cross_validate(evaluation.FixedSpec(RepeatLast()), corpus, plan,
                                              ["m"])
        assert report.skipped_sequences == 1

    def test_macro_differs_from_micro_on_constructed_folds(self):
        # fold A holds one long all-wrong-but-one sequence, fold B one short
        # all-correct sequence: macro treats them equally, micro would not.
        long_seq = [0] + [1] * 20  # repeat scores 19/20
        short_seq = [0, 1]  # repeat scores 0/1
        corpus = rows_corpus([
            StudentSequence("long", long_seq, True),
            StudentSequence("short", short_seq, True),
        ], 2)
        plan = evaluation.FoldPlan(k=2, seed=0, assignment={"long": 0, "short": 1})
        (report,) = evaluation.cross_validate(evaluation.FixedSpec(RepeatLast()), corpus, plan,
                                              ["m"])
        macro = (19 / 20 + 0 / 1) / 2
        micro = 19 / 21
        assert report.cv_accuracy == pytest.approx(macro)
        assert abs(report.cv_accuracy - micro) > 0.01

    def test_report_bytes_deterministic(self):
        rng = np.random.default_rng(9)
        seqs = [rng.integers(0, 4, size=12).tolist() for _ in range(8)]
        corpus = corpus_of(seqs, 4)
        plan = evaluation.make_folds(corpus.students, 4, seed=5)

        def run():
            (report,) = evaluation.cross_validate(ngram.NGramSpec((3,)), corpus, plan, ["3-gram"])
            return report.to_text()

        assert run() == run()


class FailingFold:
    """Raises a record error from one fold's fit."""

    def fit(self, train_corpus, fold):
        if fold == 1:
            raise MalformedRecordError(7, "bad fold", unit="byte")
        return (RepeatLast(),), None


def _tiny_lstm_config(seed=4):
    return lstm.TrainConfig(
        learning_rate=0.01, epochs=2, window=4, batch_size=8, dropout_rate=0.2,
        seed=seed, hidden_size=6, layers=1, embedding_dim=5,
    )


class TestSpecs:
    @pytest.fixture
    def corpus_and_plan(self):
        rng = np.random.default_rng(8)
        seqs = [rng.integers(0, 4, size=15).tolist() for _ in range(10)]
        corpus = corpus_of(seqs, 4)
        return corpus, evaluation.make_folds(corpus.students, 5, seed=3)

    @pytest.mark.parametrize("spec", [
        ngram.NGramSpec((2,)),
        lstm.LstmSpec(_tiny_lstm_config()),
        evaluation.FixedSpec(baselines.RepeatModel()),
    ], ids=["ngram", "lstm", "fixed"])
    def test_worker_count_does_not_change_report(self, corpus_and_plan, spec):
        corpus, plan = corpus_and_plan
        serial, pooled = (
            evaluation.cross_validate(spec, corpus, plan, ["m"], workers=w, keep_streams=True)[0]
            for w in (1, 4)
        )
        assert serial.to_text() == pooled.to_text()
        assert columns(serial.streams) == columns(pooled.streams)
        assert serial.fold_extras == pooled.fold_extras

    def test_specs_survive_pickling(self):
        for spec in (ngram.NGramSpec((2, 3)), lstm.LstmSpec(_tiny_lstm_config())):
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_lstm_extras_are_fold_curves_and_full_fit_uses_the_config_seed(self, corpus_and_plan):
        corpus, plan = corpus_and_plan
        cfg = _tiny_lstm_config(seed=11)
        (report,) = evaluation.cross_validate(lstm.LstmSpec(cfg), corpus, plan, ["m"],
                                              fit_full=True)
        for fold, curve in enumerate(report.fold_extras):
            train = rows_corpus([
                s for s in corpus.sequences if plan.assignment[s.student_id] != fold
            ], 4)
            _, direct = lstm.train(train, replace(cfg, seed=lstm.derive_seed(11, fold)))
            assert curve == direct
        (predictor,), final_curve = report.full_fit
        net, direct = lstm.train(corpus, cfg)
        assert final_curve == direct
        for (name, got), (_, want) in zip(predictor.net.param_items(), net.param_items()):
            assert np.array_equal(got, want), name

    def test_full_fit_is_absent_unless_asked_for(self, corpus_and_plan):
        corpus, plan = corpus_and_plan
        (report,) = evaluation.cross_validate(ngram.NGramSpec((2,)), corpus, plan, ["m"])
        assert report.full_fit is None and report.fold_extras == [None] * 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fold_fault_arrives_as_itself(self, corpus_and_plan, workers):
        corpus, plan = corpus_and_plan
        with pytest.raises(MalformedRecordError, match="byte 7: bad fold") as caught:
            evaluation.cross_validate(FailingFold(), corpus, plan, ["m"], workers=workers)
        assert (caught.value.lineno, caught.value.reason) == (7, "bad fold")


class TestTransferEval:
    def test_filter_and_macro_mean(self):
        corpus = corpus_of([[1] * 40, [1] * 35, [1] * 10], 2)
        acc, n = evaluation.transfer_eval(RepeatLast(), corpus, min_actions=30)
        assert (acc, n) == (1.0, 2)

    def test_matches_in_sample_fold_numbers(self):
        rng = np.random.default_rng(10)
        seqs = [rng.integers(0, 4, size=20).tolist() for _ in range(10)]
        corpus = corpus_of(seqs, 4)
        plan = evaluation.make_folds(corpus.students, 5, seed=6)
        model = RepeatLast()
        (report,) = evaluation.cross_validate(evaluation.FixedSpec(model), corpus, plan, ["m"])
        for f in range(5):
            fold_corpus = rows_corpus([
                s for s in corpus.sequences if plan.assignment[s.student_id] == f
            ], 4)
            acc, _ = evaluation.transfer_eval(model, fold_corpus, min_actions=1)
            assert acc == pytest.approx(report.per_fold_accuracy[f])

    def test_empty_after_filter(self):
        corpus = corpus_of([[1, 2, 3]], 4)
        with pytest.raises(NextactionError):
            evaluation.transfer_eval(RepeatLast(), corpus, min_actions=30)

    @pytest.mark.parametrize("min_actions", [0, -5])
    def test_min_actions_below_one(self, min_actions):
        corpus = corpus_of([[1, 2, 3]], 4)
        with pytest.raises(ConfigError, match=f"got {min_actions}"):
            evaluation.transfer_eval(RepeatLast(), corpus, min_actions=min_actions)


def records(rows):
    """The columnar stream of (student, position, predicted, truth) rows."""
    student, *ints = zip(*rows) if rows else ((),) * 4
    return evaluation.PredictionStream(
        np.array(student, dtype=object), *(np.array(c, dtype=np.int64) for c in ints)
    )


class TestAgreement:
    def test_identical_streams_have_zero_off_diagonal(self):
        stream = records([("s1", 2, 1, 1), ("s1", 3, 0, 1), ("s2", 2, 2, 2)])
        table = evaluation.agreement(stream, stream)
        assert table.a_only == table.b_only == 0
        assert table.both_correct == 2
        assert table.neither == 1

    def test_cells_sum_to_total(self):
        rng = np.random.default_rng(11)
        truths = rng.integers(0, 3, size=50)
        a = records([("s", t + 2, int(rng.integers(0, 3)), int(v)) for t, v in enumerate(truths)])
        b = records([("s", t + 2, int(rng.integers(0, 3)), int(v)) for t, v in enumerate(truths)])
        table = evaluation.agreement(a, b)
        assert table.total == 50

    def test_marginals_match_per_model_correct_counts(self):
        rng = np.random.default_rng(12)
        truths = rng.integers(0, 3, size=80)
        a = records([("s", t + 2, int(rng.integers(0, 3)), int(v)) for t, v in enumerate(truths)])
        b = records([("s", t + 2, int(rng.integers(0, 3)), int(v)) for t, v in enumerate(truths)])
        table = evaluation.agreement(a, b)
        a_correct = int(np.sum(a.predicted == a.truth))
        b_correct = int(np.sum(b.predicted == b.truth))
        assert table.both_correct + table.a_only == a_correct
        assert table.both_correct + table.b_only == b_correct

    def test_misaligned_streams_raise(self):
        a = records([("s1", 2, 1, 1)])
        b = records([("s2", 2, 1, 1)])
        with pytest.raises(NextactionError):
            evaluation.agreement(a, b)
        with pytest.raises(NextactionError):
            evaluation.agreement(a, records([]))


class TestStreamsAndReports:
    def test_stream_file_round_trip(self, tmp_path):
        stream = records([("s1", 2, 1, 1), ("s2", 5, 0, 3)])
        path = tmp_path / "model.pred"
        evaluation.write_stream(stream, path)
        assert columns(evaluation.read_stream(path.read_bytes())) == columns(stream)

    @pytest.mark.parametrize("bad", ["s1\t2\tx\t3", "s1\t2\t3"])
    def test_malformed_stream_line_names_its_line(self, tmp_path, bad):
        path = tmp_path / "model.pred"
        path.write_text(f"s1\t2\t1\t1\n{bad}\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError) as caught:
            evaluation.read_stream(path.read_bytes())
        assert caught.value.lineno == 2

    def test_report_text_parses(self, tmp_path):
        report = evaluation.EvalReport(
            model="demo", per_fold_accuracy=[0.5, 0.75],
            metadata={"config.seed": "3"}, per_sequence=[("s1", 0.5)],
        )
        path = tmp_path / "report.txt"
        path.write_text(report.to_text(), encoding="utf-8")
        parsed = read_report(path)
        assert parsed["model"] == "demo"
        assert float(parsed["cv_accuracy"]) == pytest.approx(0.625)
        assert parsed["meta.config.seed"] == "3"
        assert report.to_csv().splitlines()[0] == "fold,accuracy"


class CountingRepeat(RepeatLast):
    def __init__(self):
        self.calls = 0

    def predict_sequence(self, actions, pos):
        self.calls += 1
        return super().predict_sequence(actions, pos)


def counting(monkeypatch, cls):
    """Count the calls of ``cls.predict_sequence``, which keeps its behavior."""
    calls = []
    real = cls.predict_sequence

    def counted(self, actions, pos):
        calls.append(len(actions))
        return real(self, actions, pos)

    monkeypatch.setattr(cls, "predict_sequence", counted)
    return calls


class TestOneCallPerFold:
    @pytest.fixture
    def corpus(self):
        rng = np.random.default_rng(13)
        return corpus_of([rng.integers(0, 4, size=rng.integers(2, 15)).tolist()
                          for _ in range(12)], 4)

    def test_cross_validate_and_transfer(self, corpus):
        model = CountingRepeat()
        plan = evaluation.make_folds(corpus.students, 4, seed=2)
        evaluation.cross_validate(evaluation.FixedSpec(model), corpus, plan, ["m"],
                                  keep_streams=True)
        assert model.calls == 4
        evaluation.transfer_eval(model, corpus, min_actions=2)
        assert model.calls == 5

    def test_each_model_of_a_sweep_once_per_fold(self, corpus, monkeypatch):
        """The sweep counts once and calls no predictor, and each order's
        predictions are scored once per fold."""
        calls = counting(monkeypatch, ngram.NGramPredictor)
        scored, accuracy = [], evaluation._accuracy
        monkeypatch.setattr(evaluation, "_accuracy",
                            lambda fold, p: scored.append(len(p)) or accuracy(fold, p))
        plan = evaluation.make_folds(corpus.students, 3, seed=2)
        evaluation.cross_validate(ngram.NGramSpec((2, 3, 4)), corpus, plan,
                                  ["2-gram", "3-gram", "4-gram"], workers=1)
        assert calls == []
        assert len(scored) == 3 * 3
        assert sum(scored) == 3 * int((corpus.lengths - 1).clip(0).sum())

    def test_hill_climb_once_per_epoch(self, corpus, monkeypatch):
        calls = counting(monkeypatch, lstm.LstmPredictor)
        cfg = replace(_tiny_lstm_config(), epochs=3)
        lstm.train(corpus, cfg)
        assert len(calls) == 3
        plan = evaluation.make_folds(corpus.students, 2, seed=2)
        evaluation.cross_validate(lstm.LstmSpec(cfg), corpus, plan, ["m"], workers=1)
        assert len(calls) == 3 + 2 * (3 + 1)


def _stream_text(rows):
    return "".join(f"{sid}\t{pos}\t{pred}\t{truth}\n" for sid, pos, pred, truth in rows)


class TestStreamFormat:
    GOOD = "s1\t2\t1\t1\ns1\t3\t-1\t3\n"

    @pytest.mark.parametrize("text, lineno", [
        ("s1\t2\t1\t1\ns1\t3\t-1\t3", 2),  # no newline at the end
        ("s1\t2\t1\t1\ns1\t3\t2\t31"[:-1], 2),  # cut inside the final truth id
        ("\ns1\t2\t1\t1\n", 1),
        ("# comment\n", 1),
        ("\t2\t1\t1\n", 1),
        ("s1\t1\t1\t1\n", 1),
        ("s1\t0\t1\t1\n", 1),
        ("s1\t02\t1\t1\n", 1),
        ("s1\t+3\t1\t1\n", 1),
        ("s1\t1_2\t1\t1\n", 1),
        ("s1\t 2\t1\t1\n", 1),
        ("s1\t2\t-2\t1\n", 1),
        ("s1\t2\t1\t-1\n", 1),
        ("s1\t٣\t1\t1\n", 1),
        ("s1\t2\t1\t1\t\n", 1),
        ("s1\t2\t1\t1\r\n", 1),
    ])
    def test_anything_write_stream_would_not_write_is_refused(self, tmp_path, text, lineno):
        path = tmp_path / "model.pred"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedRecordError) as caught:
            evaluation.read_stream(path.read_bytes())
        assert caught.value.lineno == lineno

    def test_no_prediction_and_empty_stream_read(self, tmp_path):
        path = tmp_path / "model.pred"
        path.write_text(self.GOOD, encoding="utf-8")
        expected = records([("s1", 2, 1, 1), ("s1", 3, -1, 3)])
        assert columns(evaluation.read_stream(path.read_bytes())) == columns(expected)
        path.write_text("", encoding="utf-8")
        assert columns(evaluation.read_stream(path.read_bytes())) == ([], [], [], [])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["s1", "sé", "s 3", "#4"]),
                              st.integers(2, 10**6), st.integers(-1, 10**6),
                              st.integers(0, 10**6)), min_size=1, max_size=6), st.data())
    def test_round_trip_and_corruption(self, rows, data):
        """A stream reads back as written; a truncated or flipped one raises a
        NextactionError or reads to records that write back byte for byte."""
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.pred"
            evaluation.write_stream(records(rows), path)
            assert path.read_text(encoding="utf-8") == _stream_text(rows)
            assert columns(evaluation.read_stream(path.read_bytes())) == columns(records(rows))
            path.write_bytes(mutated(data.draw, path.read_bytes()))
            changed = path.read_bytes()
            try:
                loaded = evaluation.read_stream(path.read_bytes())
            except NextactionError:
                return
            evaluation.write_stream(loaded, path)
            assert path.read_bytes() == changed


def outcome(call, *args):
    """What ``call`` returns, or the type and text of the NextactionError it raises."""
    try:
        return call(*args)
    except NextactionError as exc:
        return type(exc), str(exc)


def read_rows(path):
    return list(zip(*columns(evaluation.read_stream(path.read_bytes()))))


# ids with a carriage return, NEL and a line separator, which split only on "\n"
STREAM_ROWS = st.lists(st.tuples(
    st.sampled_from(["s1", "sé", "s 3", "#4", "a\rb", "c\x85d", "e\u2028f"]),
    st.integers(2, 10**6), st.integers(-1, 4), st.integers(0, 4),
), max_size=8)


class TestStreamOracles:
    """The columnar reader and agreement against the per-record ones they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(STREAM_ROWS, st.data())
    def test_agreement_matches_the_per_record_loop(self, a_rows, data):
        b_rows = [(sid, pos, data.draw(st.integers(-1, 4)), truth) for sid, pos, _, truth in a_rows]
        for _ in range(data.draw(st.integers(0, 2))):
            change = data.draw(st.sampled_from(["student", "position", "truth", "length"]))
            if change == "length":
                b_rows = b_rows[:-1] if data.draw(st.booleans()) else [*b_rows, ("s1", 2, 0, 0)]
            elif b_rows:
                i = data.draw(st.integers(0, len(b_rows) - 1))
                sid, pos, pred, truth = b_rows[i]
                b_rows[i] = {"student": (sid + "x", pos, pred, truth),
                             "position": (sid, pos + 1, pred, truth),
                             "truth": (sid, pos, pred, truth + 1)}[change]
        expected = outcome(per_record_agreement, a_rows, b_rows)
        assert outcome(evaluation.agreement, records(a_rows), records(b_rows)) == expected

    @settings(max_examples=300, deadline=None)
    @given(STREAM_ROWS.filter(bool), st.data())
    def test_reader_matches_the_per_line_reader_on_damaged_files(self, rows, data):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.pred"
            evaluation.write_stream(records(rows), path)
            path.write_bytes(mutated(data.draw, path.read_bytes()))
            assert outcome(read_rows, path) == outcome(per_line_read_stream, path)

    # ids of 1 to 3 words that differ only in their last byte, or in their first,
    # read in blocks of one to a few lines
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["a", "b", "a" * 8, "a" * 7 + "b", "b" + "a" * 7, "a" * 9, "a" * 8 + "b",
                         "a" * 17, "a" * 16 + "é", "é" + "a" * 15]),
        st.integers(2, 9), st.integers(-1, 4), st.integers(0, 4),
    ), min_size=1, max_size=10), st.integers(1, 3))
    def test_long_ids_compared_a_few_words_at_a_time(self, rows, words):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.pred"
            per_line_write_stream(records(rows), path)
            with mock.patch.object(ingest, "_BLOCK", 8 * words):
                assert read_rows(path) == rows

    # runs of one to five records of an id, read with a `_BLOCK` of one byte to a few lines
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["s1", "sé", "s1x", "a" * 9, "a" * 8 + "b"]),
                              st.integers(1, 5)), min_size=1, max_size=8),
           st.integers(1, 64), st.data())
    def test_id_runs_that_cross_chunks(self, runs, chunk, data):
        rows = [(sid, data.draw(st.integers(2, 10**6)), data.draw(st.integers(-1, 4)),
                 data.draw(st.integers(0, 4))) for sid, size in runs for _ in range(size)]
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.pred"
            per_line_write_stream(records(rows), path)
            with mock.patch.object(ingest, "_BLOCK", chunk):
                student = evaluation.read_stream(path.read_bytes()).student
                assert read_rows(path) == per_line_read_stream(path) == rows
        # one string per id, however the chunks cut its runs
        assert len({id(sid) for sid in student}) == len(set(student))

    @pytest.mark.parametrize("faults", [
        {1500: b"s\t2\tx\t1\n"},
        {1500: b"s\xff\t2\t1\t1\n"},
        {1500: b"s\t2\t1\t1"},  # a record that runs into the next line
        {700: b"s\t2\tx\t1\n", 1500: b"s\xff\t2\t1\t1\n"},
        {700: b"s\xff\t2\t1\t1\n", 1500: b"s\t2\tx\t1\n"},
        {1999: b"s\t1\t1\t1\n", 2000: b"s\xff\t2\t1\t1"},  # and the file's end
    ])
    def test_a_fault_in_a_later_chunk_names_its_line(self, tmp_path, faults):
        lines = [f"s{i // 3}\t{i % 3 + 2}\t1\t1\n".encode() for i in range(2000)]
        for lineno, line in faults.items():
            lines[lineno - 1] = line
        path = tmp_path / "model.pred"
        path.write_bytes(b"".join(lines))
        expected = outcome(per_line_read_stream, path)
        assert expected[1].startswith(f"line {min(faults)}: ")
        with mock.patch.object(ingest, "_BLOCK", 100):  # about eight lines
            assert outcome(read_rows, path) == expected

    def test_memory_is_the_columns_and_a_few_chunks(self):
        """The 32 bytes a record of the columns, and temporaries bounded by the
        chunk, not by the stream: the whole-stream parse took 80 chunks here.
        The ids are interned first, so that no growth of the interpreter's table
        of interned strings is counted."""
        count = 200_000
        ids = [sys.intern(f"s{i}") for i in range(count // 40)]
        blob = "".join(f"{ids[i // 40]}\t{i % 40 + 2}\t{i % 7 - 1}\t{i % 5}\n"
                       for i in range(count)).encode()
        assert len(blob) > 8 * ingest._BLOCK
        tracemalloc.start()
        try:
            stream = evaluation.read_stream(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == count
        assert peak < 32 * count + 16 * ingest._BLOCK

    def test_memory_after_a_long_id_is_bounded_by_the_block(self):
        """A block buffer doubled to hold one very long line shrinks back once that
        line is read, so the blocks after it are not parsed at its size."""
        count = 200_000
        ids = [sys.intern(f"s{i}") for i in range(count // 40)]
        long = "x" * (4 * ingest._BLOCK)
        blob = (f"{long}\t2\t0\t0\n" + "".join(f"{ids[i // 40]}\t{i % 40 + 2}\t0\t0\n"
                                               for i in range(count))).encode()
        tracemalloc.start()
        try:
            stream = evaluation.read_stream(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == count + 1
        assert peak < 32 * count + 16 * ingest._BLOCK + 8 * len(long)

    def test_megabyte_ids_among_short_ones(self, tmp_path):
        """Each id is compared with the one before only: a run of two megabyte ids
        and one that differs in its last byte, among 20,000 short-id records."""
        long = "x" * (1 << 20)
        ids = [f"s{i // 40}" for i in range(20000)]
        ids[10000:10000] = [long, long, long[:-1] + "y"]
        rows = [(sid, 2, 0, 0) for sid in ids]
        path = tmp_path / "model.pred"
        per_line_write_stream(records(rows), path)
        student = evaluation.read_stream(path.read_bytes()).student
        assert student.tolist() == ids
        assert student[10000] is student[10001] and student[10002] != long

    # a line with no tab would pass if an id could run across "\n" into the next line
    @pytest.mark.parametrize("bad", ["garbage\n", "s\t1\t1\t1\n", "s\t2\t-0\t1\n", "\n"])
    def test_a_bad_line_in_the_middle_of_a_long_stream(self, tmp_path, bad):
        lines = [f"s{i // 30}\t{i % 30 + 2}\t{i % 7 - 1}\t{i % 5}\n" for i in range(20000)]
        lines[12345] = bad
        path = tmp_path / "model.pred"
        path.write_text("".join(lines), encoding="utf-8")
        expected = outcome(per_line_read_stream, path)
        assert outcome(read_rows, path) == expected
        assert expected[1].startswith("line 12346: ")

    @pytest.mark.parametrize("bad_line, non_utf8_line", [(3, 1900), (1900, 3)])
    def test_the_earlier_fault_wins_across_decoder_chunks(self, tmp_path, bad_line, non_utf8_line):
        lines = [f"s{i}\t{i + 2}\t1\t1\n".encode() for i in range(2000)]
        lines[bad_line - 1] = b"s\t2\tx\t1\n"
        lines[non_utf8_line - 1] = b"s\xff\t2\t1\t1\n"
        path = tmp_path / "model.pred"
        path.write_bytes(b"".join(lines))
        expected = outcome(per_line_read_stream, path)
        assert outcome(read_rows, path) == expected
        assert expected[1].startswith(f"line {min(bad_line, non_utf8_line)}: ")


# values across decimal-width boundaries, up to the 18 digits a stream holds
WIDE = st.one_of(st.integers(0, 12), st.integers(1, 17).map(lambda k: 10**k),
                 st.integers(1, 18).map(lambda k: 10**k - 1))
# ids with multi-byte, carriage-return, NEL, space and NUL characters
WRITER_ROWS = st.lists(st.tuples(
    st.sampled_from(["s1", "sé", "a\rb", "c\x85d", "e f", "g\x00h", "\x00"]),
    WIDE.map(lambda v: max(v, 2)), st.one_of(st.just(-1), WIDE), WIDE,
), max_size=12)


class TestStreamWriter:
    """The byte-column stream writer against the per-line writer it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(WRITER_ROWS)
    def test_write_stream_matches_the_per_line_writer(self, rows):
        with tempfile.TemporaryDirectory() as root:
            columnar, per_line = Path(root) / "a.pred", Path(root) / "b.pred"
            evaluation.write_stream(records(rows), columnar)
            per_line_write_stream(records(rows), per_line)
            assert columnar.read_bytes() == per_line.read_bytes()
            assert read_rows(columnar) == per_line_read_stream(per_line) == rows
            # blocks of two or three records, so that runs of one id cross blocks
            with mock.patch.object(evaluation, "_TEXT_BYTES", 200):
                evaluation.write_stream(records(rows), columnar)
            assert columnar.read_bytes() == per_line.read_bytes()

    @pytest.mark.parametrize("row, reason", [
        (("", 2, 1, 1), "student id"),
        (("a\tb", 2, 1, 1), "student id"),
        (("a\nb", 2, 1, 1), "student id"),
        (("s", 1, 1, 1), "position below 2"),
        (("s", 2, -2, 1), "predicted id below -1"),
        (("s", 2, 1, -1), "negative truth"),
        (("s", 10**18, 1, 1), "19 or more digits"),
        (("s", 2, 10**18, 1), "19 or more digits"),
        (("s", 2, 1, 10**18), "19 or more digits"),
    ])
    def test_a_record_read_stream_would_refuse_is_not_written(self, tmp_path, row, reason):
        path = tmp_path / "model.pred"
        with pytest.raises(NextactionError) as caught:
            evaluation.write_stream(records([("s0", 2, 0, 0), row, ("s0", 3, 0, 0)]), path)
        assert "record 2" in str(caught.value) and reason in str(caught.value)
        assert not path.exists()

import pickle
from dataclasses import replace

import numpy as np
import pytest

from helpers import lstm_predict_next, naive_backoff_predict, naive_gram_counts
from nextaction import baselines, evaluation, lstm, ngram
from nextaction.errors import ConfigError, MalformedRecordError, NextactionError
from nextaction.ingest import Corpus, StudentSequence


def corpus_of(sequences, vocab_size, certified=True):
    seqs = [
        StudentSequence(f"s{i:03d}", list(a), certified) for i, a in enumerate(sequences)
    ]
    return Corpus(vocabulary=None, sequences=seqs, vocab_size=vocab_size)


class ConstantModel:
    def __init__(self, value):
        self.value = value

    def predict_sequence(self, actions):
        return [self.value] * (len(actions) - 1)


class RepeatLast:
    def predict_sequence(self, actions):
        return list(actions[:-1])


class ShortByOne:
    """A perfect repeat model that leaves out its last prediction: T-2 of them."""

    def predict_sequence(self, actions):
        return list(actions[:-2])


class TestMakeFolds:
    def test_even_split(self):
        plan = evaluation.make_folds([f"s{i}" for i in range(10)], 5, seed=1)
        sizes = [len(plan.students_in(f)) for f in range(5)]
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
        sizes = sorted((len(plan.students_in(f)) for f in range(5)), reverse=True)
        assert sizes == [3, 2, 2, 2, 2]

    def test_partition_exact(self):
        students = [f"s{i}" for i in range(23)]
        plan = evaluation.make_folds(students, 4, seed=3)
        seen = [s for f in range(4) for s in plan.students_in(f)]
        assert sorted(seen) == sorted(students)

    def test_too_few_students(self):
        with pytest.raises(ConfigError):
            evaluation.make_folds(["a", "b"], 5, seed=0)
        with pytest.raises(ConfigError):
            evaluation.make_folds(["a", "b", "c"], 1, seed=0)


class TestHillClimbSplit:
    def test_twenty_students_two_held_out(self):
        corpus = corpus_of([[0, 1]] * 20, 2)
        train, hold = evaluation.hill_climb_split(corpus.sequences, 0.1, seed=4)
        assert len(hold) == 2 and len(train) == 18

    def test_ceiling_rounding(self):
        corpus = corpus_of([[0, 1]] * 9, 2)
        train, hold = evaluation.hill_climb_split(corpus.sequences, 0.1, seed=4)
        assert len(hold) == 1 and len(train) == 8

    def test_disjoint_and_complete(self):
        corpus = corpus_of([[0, 1]] * 13, 2)
        train, hold = evaluation.hill_climb_split(corpus.sequences, 0.25, seed=4)
        train_ids = {s.student_id for s in train}
        hold_ids = {s.student_id for s in hold}
        assert not train_ids & hold_ids
        assert train_ids | hold_ids == {s.student_id for s in corpus.sequences}


class TestSequenceAccuracy:
    def test_repeat_on_small_sequence(self):
        assert evaluation.sequence_accuracy(RepeatLast(), [0, 0, 1, 1]) == pytest.approx(2 / 3)

    def test_perfect_model(self):
        seq = [3, 1, 4, 1, 5]

        class Oracle:
            def predict_sequence(self, actions):
                return list(seq[1 : len(actions)])

        assert evaluation.sequence_accuracy(Oracle(), seq) == 1.0

    def test_ngram_on_own_deterministic_sequence(self):
        seq = [0, 1, 2, 3, 4]
        corpus = corpus_of([seq], 5)
        table = ngram.fit(corpus, max_order=3)
        assert evaluation.sequence_accuracy(ngram.NGramPredictor(table), seq) == 1.0

    def test_too_short_raises(self):
        with pytest.raises(NextactionError):
            evaluation.sequence_accuracy(RepeatLast(), [1])


def _syllabus_map(items, vocab_size=7):
    successor_of = np.full(vocab_size, baselines.NO_PREDICTION)
    successor_of[items[:-1]] = items[1:]
    return baselines.SyllabusMap(items, successor_of, len(items), [])


def _contract_case(kind):
    """(model, single-context rule) pairs that must agree at every position."""
    if kind == "repeat":
        model = baselines.RepeatModel()
        return model, model.predict
    if kind in ("syllabus", "combined"):
        # ids 4..6 are off the course order and 3 is its final item
        syllabus = _syllabus_map([0, 1, 2, 3])
        cls = baselines.SyllabusModel if kind == "syllabus" else baselines.SyllabusRepeatModel
        model = cls(syllabus)
        return model, model.predict
    if kind == "ngram":
        rng = np.random.default_rng(20)
        seqs = [rng.integers(0, 7, size=30).tolist() for _ in range(4)]
        table = ngram.fit(corpus_of(seqs, 7), max_order=4)
        naive = naive_gram_counts(seqs, 4)
        model = ngram.NGramPredictor(table, max_order=3)
        return model, lambda context: naive_backoff_predict(naive, context, 3)[0]
    net = lstm.init_network(7, 5, 6, 2, 0.0, 4, rng=np.random.default_rng([19, 0xEE]))
    return lstm.LstmPredictor(net), lambda context: lstm_predict_next(net, context)[0]


class TestPredictionContract:
    @pytest.mark.parametrize("kind", ["repeat", "syllabus", "combined", "ngram", "lstm"])
    def test_predict_sequence_matches_per_position_calls(self, kind):
        model, single = _contract_case(kind)
        actions = np.random.default_rng(1).integers(0, 7, size=15).tolist()
        predictions = model.predict_sequence(actions)
        assert len(predictions) == len(actions) - 1
        assert predictions.dtype == np.int64
        assert predictions.tolist() == [single(actions[:t]) for t in range(1, len(actions))]

    # 7 is one past the last id, and the LSTM's pad id
    @pytest.mark.parametrize("kind", ["syllabus", "combined", "ngram", "lstm"])
    @pytest.mark.parametrize("bad", [-1, 7])
    def test_ids_outside_the_vocabulary_raise(self, kind, bad):
        model, _ = _contract_case(kind)
        with pytest.raises(ConfigError):
            model.predict_sequence([0, 1, bad, 2])

    def test_wrong_prediction_count_raises(self):
        corpus = corpus_of([[0, 1, 0, 1], [1, 1, 0], [0, 0, 1]], 2)
        plan = evaluation.make_folds(corpus.student_ids(), 3, seed=0)
        with pytest.raises(NextactionError, match="predictions for"):
            evaluation.cross_validate(evaluation.FixedSpec(ShortByOne()), corpus, plan)
        with pytest.raises(NextactionError, match="2 predictions for 3 positions"):
            evaluation.transfer_eval(ShortByOne(), corpus, min_actions=4)
        with pytest.raises(NextactionError):
            evaluation.sequence_accuracy(ShortByOne(), [0, 1, 1])


class TestCrossValidate:
    def test_constant_model_equals_base_rate(self):
        rng = np.random.default_rng(6)
        seqs = [rng.integers(0, 3, size=rng.integers(4, 12)).tolist() for _ in range(12)]
        corpus = corpus_of(seqs, 3)
        plan = evaluation.make_folds(corpus.student_ids(), 3, seed=0)
        report = evaluation.cross_validate(evaluation.FixedSpec(ConstantModel(1)), corpus, plan)
        # direct recomputation of the macro base rate of action 1
        by_id = {s.student_id: s.actions for s in corpus.sequences}
        fold_means = []
        for f in range(3):
            props = []
            for sid in plan.students_in(f):
                actions = by_id[sid]
                props.append(sum(a == 1 for a in actions[1:]) / (len(actions) - 1))
            fold_means.append(np.mean(props))
        assert report.per_fold_accuracy == pytest.approx(fold_means)
        assert report.cv_accuracy == pytest.approx(np.mean(fold_means))

    def test_training_free_model_equals_direct_fold_eval(self):
        rng = np.random.default_rng(7)
        seqs = [rng.integers(0, 4, size=10).tolist() for _ in range(9)]
        corpus = corpus_of(seqs, 4)
        plan = evaluation.make_folds(corpus.student_ids(), 3, seed=1)
        model = RepeatLast()
        report = evaluation.cross_validate(evaluation.FixedSpec(model), corpus, plan)
        by_id = {s.student_id: s.actions for s in corpus.sequences}
        for f in range(3):
            direct = np.mean([
                evaluation.sequence_accuracy(model, by_id[sid])
                for sid in plan.students_in(f)
            ])
            assert report.per_fold_accuracy[f] == pytest.approx(direct)

    def test_short_sequences_skipped_and_tallied(self):
        corpus = corpus_of([[0, 1, 0], [0], [1, 1], [0, 0]], 2)
        plan = evaluation.make_folds(corpus.student_ids(), 2, seed=2)
        report = evaluation.cross_validate(evaluation.FixedSpec(RepeatLast()), corpus, plan)
        assert report.skipped_sequences == 1

    def test_macro_differs_from_micro_on_constructed_folds(self):
        # fold A holds one long all-wrong-but-one sequence, fold B one short
        # all-correct sequence: macro treats them equally, micro would not.
        long_seq = [0] + [1] * 20  # repeat scores 19/20
        short_seq = [0, 1]  # repeat scores 0/1
        corpus = Corpus(None, [
            StudentSequence("long", long_seq, True),
            StudentSequence("short", short_seq, True),
        ], 2)
        plan = evaluation.FoldPlan(k=2, seed=0, assignment={"long": 0, "short": 1})
        report = evaluation.cross_validate(evaluation.FixedSpec(RepeatLast()), corpus, plan)
        macro = (19 / 20 + 0 / 1) / 2
        micro = 19 / 21
        assert report.cv_accuracy == pytest.approx(macro)
        assert abs(report.cv_accuracy - micro) > 0.01

    def test_report_bytes_deterministic(self):
        rng = np.random.default_rng(9)
        seqs = [rng.integers(0, 4, size=12).tolist() for _ in range(8)]
        corpus = corpus_of(seqs, 4)
        plan = evaluation.make_folds(corpus.student_ids(), 4, seed=5)

        def run():
            report = evaluation.cross_validate(
                ngram.NGramSpec((3,)), corpus, plan, model_name="3-gram"
            )
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
        return corpus, evaluation.make_folds(corpus.student_ids(), 5, seed=3)

    @pytest.mark.parametrize("spec", [
        ngram.NGramSpec((2,)),
        lstm.LstmSpec(_tiny_lstm_config()),
        evaluation.FixedSpec(baselines.RepeatModel()),
    ], ids=["ngram", "lstm", "fixed"])
    def test_worker_count_does_not_change_report(self, corpus_and_plan, spec):
        corpus, plan = corpus_and_plan
        serial, pooled = (
            evaluation.cross_validate(spec, corpus, plan, workers=w, keep_streams=True)
            for w in (1, 4)
        )
        assert serial.to_text() == pooled.to_text()
        assert serial.streams == pooled.streams
        assert serial.fold_extras == pooled.fold_extras

    def test_specs_survive_pickling(self):
        for spec in (ngram.NGramSpec((2, 3)), lstm.LstmSpec(_tiny_lstm_config())):
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_lstm_extras_are_fold_curves_and_full_fit_uses_the_config_seed(self, corpus_and_plan):
        corpus, plan = corpus_and_plan
        cfg = _tiny_lstm_config(seed=11)
        report = evaluation.cross_validate(lstm.LstmSpec(cfg), corpus, plan, fit_full=True)
        for fold, curve in enumerate(report.fold_extras):
            train = Corpus(None, [
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
        report = evaluation.cross_validate(ngram.NGramSpec((2,)), corpus, plan)
        assert report.full_fit is None and report.fold_extras == [None] * 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fold_fault_arrives_as_itself(self, corpus_and_plan, workers):
        corpus, plan = corpus_and_plan
        with pytest.raises(MalformedRecordError, match="byte 7: bad fold") as caught:
            evaluation.cross_validate(FailingFold(), corpus, plan, workers=workers)
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
        plan = evaluation.make_folds(corpus.student_ids(), 5, seed=6)
        model = RepeatLast()
        report = evaluation.cross_validate(evaluation.FixedSpec(model), corpus, plan)
        for f in range(5):
            fold_corpus = Corpus(None, [
                s for s in corpus.sequences if plan.assignment[s.student_id] == f
            ], 4)
            acc, _ = evaluation.transfer_eval(model, fold_corpus, min_actions=1)
            assert acc == pytest.approx(report.per_fold_accuracy[f])

    def test_empty_after_filter(self):
        corpus = corpus_of([[1, 2, 3]], 4)
        with pytest.raises(NextactionError):
            evaluation.transfer_eval(RepeatLast(), corpus, min_actions=30)


def records(rows):
    return [evaluation.PredictionRecord(*row) for row in rows]


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
        a_correct = sum(r.predicted == r.truth for r in a)
        b_correct = sum(r.predicted == r.truth for r in b)
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
        assert evaluation.read_stream(path) == stream

    @pytest.mark.parametrize("bad", ["s1\t2\tx\t3", "s1\t2\t3"])
    def test_malformed_stream_line_names_its_line(self, tmp_path, bad):
        path = tmp_path / "model.pred"
        path.write_text(f"s1\t2\t1\t1\n{bad}\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError) as caught:
            evaluation.read_stream(path)
        assert caught.value.lineno == 2

    def test_report_text_parses(self, tmp_path):
        report = evaluation.EvalReport(
            model="demo", per_fold_accuracy=[0.5, 0.75],
            metadata={"config.seed": "3"}, per_sequence=[("s1", 0.5)],
        )
        path = tmp_path / "report.txt"
        path.write_text(report.to_text(), encoding="utf-8")
        parsed = evaluation.read_report(path)
        assert parsed["model"] == "demo"
        assert float(parsed["cv_accuracy"]) == pytest.approx(0.625)
        assert parsed["meta.config.seed"] == "3"
        assert report.to_csv().splitlines()[0] == "fold,accuracy"

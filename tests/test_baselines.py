import pytest

from helpers import corpus_of
from nextaction import baselines, evaluation, ingest
from nextaction.errors import MalformedRecordError, NextactionError


@pytest.fixture
def vocab():
    return ingest.build_vocabulary(["a", "b", "c", "x"], min_count=1)


def syllabus_bytes(tokens):
    return "".join(t + "\n" for t in tokens).encode("utf-8")


class TestLoadSyllabus:
    def test_all_matched(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b", "c"]), vocab)
        assert len(syl.items) == 3
        assert syl.coverage == 3
        assert syl.unmatched == []
        a, b, c, x = (vocab.encode(t) for t in "abcx")
        successor = {a: b, b: c, c: baselines.NO_PREDICTION, x: baselines.NO_PREDICTION}
        assert syl.successor_of.tolist() == [successor[i] for i in range(len(vocab))]

    def test_unknown_token_tallied(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "zz"]), vocab)
        assert [vocab.decode(i) for i in syl.items] == ["a"]
        assert syl.unmatched == ["zz"]

    def test_duplicate_raises(self, vocab):
        with pytest.raises(MalformedRecordError,
                           match="^line 3: duplicate course item 'a'$") as caught:
            baselines.load_syllabus(syllabus_bytes(["a", "b", "a"]), vocab)
        assert caught.value.lineno == 3

    def test_comments_ignored(self, vocab):
        syl = baselines.load_syllabus(
            syllabus_bytes(["# course order", "a", "", "b"]), vocab
        )
        assert syl.coverage == 2


class TestRepeat:
    def test_returns_last(self):
        assert baselines.RepeatModel().predict([0, 0, 1]) == 1

    def test_constant_sequence_scores_one(self):
        model = baselines.RepeatModel()
        assert evaluation.sequence_accuracy(model, corpus_of([[7, 7, 7, 7]]))[0].tolist() == [1.0]

    def test_empty_context(self):
        with pytest.raises(NextactionError):
            baselines.RepeatModel().predict([])


class TestSyllabus:
    def test_successor(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b", "c"]), vocab)
        a, b, c = (vocab.encode(t) for t in "abc")
        assert baselines.SyllabusModel(syl).predict([a, b]) == c

    def test_final_item_gives_no_prediction(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b", "c"]), vocab)
        model = baselines.SyllabusModel(syl)
        assert model.predict([vocab.encode("c")]) == baselines.NO_PREDICTION

    def test_off_order_gives_no_prediction(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b"]), vocab)
        model = baselines.SyllabusModel(syl)
        assert model.predict([vocab.encode("x")]) == baselines.NO_PREDICTION

    def test_model_wrapper_scores_no_prediction_incorrect(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b"]), vocab)
        model = baselines.SyllabusModel(syl)
        x = vocab.encode("x")
        # off-order context never predicts correctly, even a repeat
        assert evaluation.sequence_accuracy(model, corpus_of([[x, x, x]]))[0].tolist() == [0.0]


class TestSyllabusRepeat:
    def test_off_order_repeats(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b"]), vocab)
        x = vocab.encode("x")
        assert baselines.SyllabusRepeatModel(syl).predict([x]) == x

    def test_on_order_advances(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b"]), vocab)
        a, b = vocab.encode("a"), vocab.encode("b")
        assert baselines.SyllabusRepeatModel(syl).predict([a]) == b

    def test_final_item_repeats(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b"]), vocab)
        b = vocab.encode("b")
        assert baselines.SyllabusRepeatModel(syl).predict([b]) == b

    def test_always_emits_a_prediction(self, vocab):
        syl = baselines.load_syllabus(syllabus_bytes(["a", "b"]), vocab)
        model = baselines.SyllabusRepeatModel(syl)
        for context in ([0], [1], [2], [3], [3, 2, 1]):
            assert model.predict(context) >= 0


class TestCombinedDominates:
    def test_combined_at_least_each_part_on_default_corpus(self, default_data):
        syl = baselines.load_syllabus(
            default_data.outputs.syllabus_path.read_bytes(), default_data.corpus.vocabulary
        )
        cert = default_data.certified
        plan = evaluation.make_folds(cert.students, 5, seed=77)
        scores = {}
        for model in (
            baselines.RepeatModel(),
            baselines.SyllabusModel(syl),
            baselines.SyllabusRepeatModel(syl),
        ):
            (report,) = evaluation.cross_validate(
                evaluation.FixedSpec(model), cert, plan, [model.name]
            )
            scores[model.name] = report.cv_accuracy
        assert scores["syllabus+repeat"] >= scores["syllabus"]
        assert scores["syllabus+repeat"] >= scores["repeat"]

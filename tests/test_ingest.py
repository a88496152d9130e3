import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mutated
from nextaction import ingest
from nextaction.errors import ConfigError, MalformedRecordError, NextactionError


def make_log(tmp_path, lines, name="events.tsv"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def make_roster(tmp_path, entries, name="roster.tsv"):
    path = tmp_path / name
    path.write_text("".join(f"{sid}\t{1 if c else 0}\n" for sid, c in entries), encoding="utf-8")
    return path


class TestParseEvent:
    def test_direct_field_mapping(self):
        ev = ingest.parse_event("2013-03-01T10:00:00Z\ts1\tplay_video\tcourseware/w1/v2\t-", 1)
        assert ev.student_id == "s1"
        assert ev.event_type == "play_video"
        assert ev.page == "courseware/w1/v2"
        assert ev.object_name is None

    def test_two_fields_is_malformed(self):
        with pytest.raises(MalformedRecordError) as err:
            ingest.parse_event("2013-03-01T10:00:00Z\ts1", 7)
        assert err.value.lineno == 7

    def test_object_name_field(self):
        ev = ingest.parse_event("2013-03-01T10:00:01Z\ts1\tsave_problem_check\t-\ti4x://quiz1_q3", 1)
        assert ev.object_name == "i4x://quiz1_q3"
        assert ev.page is None

    def test_bad_timestamp(self):
        with pytest.raises(MalformedRecordError):
            ingest.parse_event("not-a-time\ts1\tx\t-\t-", 1)

    def test_missing_required_fields(self):
        with pytest.raises(MalformedRecordError):
            ingest.parse_event("2013-03-01T10:00:00Z\t-\tx\t-\t-", 1)
        with pytest.raises(MalformedRecordError):
            ingest.parse_event("2013-03-01T10:00:00Z\ts1\t\t-\t-", 1)


class TestExtractAction:
    def test_problem_check_uses_object_name(self):
        ev = ingest.RawEvent(
            timestamp=ingest._parse_timestamp("2013-03-01T10:00:00Z", 0),
            student_id="s1", event_type="save_problem_check",
            page="x", object_name="i4x://quiz1_q3",
        )
        assert ingest.extract_action(ev) == "i4x://quiz1_q3"

    def test_page_when_present(self):
        ev = ingest.RawEvent(
            timestamp=ingest._parse_timestamp("2013-03-01T10:00:00Z", 0),
            student_id="s1", event_type="play_video", page="courseware/w1/v2",
        )
        assert ingest.extract_action(ev) == "courseware/w1/v2"

    def test_event_type_fallback(self):
        ev = ingest.RawEvent(
            timestamp=ingest._parse_timestamp("2013-03-01T10:00:00Z", 0),
            student_id="s1", event_type="seq_goto",
        )
        assert ingest.extract_action(ev) == "seq_goto"

    def test_problem_check_without_object_falls_through(self):
        ev = ingest.RawEvent(
            timestamp=ingest._parse_timestamp("2013-03-01T10:00:00Z", 0),
            student_id="s1", event_type="save_problem_check", page="p1",
        )
        assert ingest.extract_action(ev) == "p1"


class TestVocabulary:
    def test_count_at_threshold_is_retained(self):
        vocab = ingest.build_vocabulary(["a"] * 40 + ["b"] * 39, min_count=40)
        assert vocab.encode("a") == 0
        assert vocab.encode("b") is None
        assert len(vocab) == 1

    def test_empty_stream(self):
        assert len(ingest.build_vocabulary([], min_count=40)) == 0

    def test_id_order_descending_count_then_lexicographic(self):
        vocab = ingest.build_vocabulary(["b", "b", "c", "c", "a"], min_count=1)
        assert vocab.id_to_token == ["b", "c", "a"]
        assert vocab.counts == [2, 2, 1]

    def test_round_trip_every_entry(self):
        vocab = ingest.build_vocabulary(["x", "y", "y", "z"], min_count=1)
        for token in ("x", "y", "z"):
            assert vocab.decode(vocab.encode(token)) == token

    def test_monotone_in_min_count(self):
        tokens = ["a"] * 5 + ["b"] * 3 + ["c"] * 2 + ["d"]
        sizes = [len(ingest.build_vocabulary(tokens, mc)) for mc in range(1, 7)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 4  # min_count=1 keeps every distinct token

    def test_min_count_must_be_positive(self):
        with pytest.raises(ConfigError):
            ingest.build_vocabulary(["a"], min_count=0)


class TestEncodeCorpus:
    def test_filtered_token_dropped_from_sequence(self, tmp_path):
        log = make_log(tmp_path, [
            "2013-03-01T10:00:00Z\ts1\tview\ta\t-",
            "2013-03-01T10:00:01Z\ts1\tview\trare\t-",
            "2013-03-01T10:00:02Z\ts1\tview\ta\t-",
        ])
        roster = make_roster(tmp_path, [("s1", True)])
        corpus, stats = ingest.ingest_files(log, roster, min_count=2)
        assert [len(s) for s in corpus.sequences] == [2]
        assert stats.dropped_token_events == 1

    def test_equal_timestamps_keep_input_order(self, tmp_path):
        log = make_log(tmp_path, [
            "2013-03-01T10:00:00Z\ts1\tview\tfirst\t-",
            "2013-03-01T10:00:00Z\ts1\tview\tsecond\t-",
            "2013-03-01T09:00:00Z\ts1\tview\tearlier\t-",
        ])
        roster = make_roster(tmp_path, [("s1", False)])
        corpus, _ = ingest.ingest_files(log, roster, min_count=1)
        tokens = [corpus.vocabulary.decode(a) for a in corpus.sequences[0].actions]
        assert tokens == ["earlier", "first", "second"]

    def test_certified_flag_joined_from_roster(self, tmp_path):
        log = make_log(tmp_path, ["2013-03-01T10:00:00Z\ts1\tview\ta\t-"] * 2)
        roster = make_roster(tmp_path, [("s1", True)])
        corpus, _ = ingest.ingest_files(log, roster, min_count=1)
        assert corpus.sequences[0].certified is True

    def test_unrostered_student_is_uncertified_and_tallied(self, tmp_path):
        log = make_log(tmp_path, ["2013-03-01T10:00:00Z\tghost\tview\ta\t-"])
        roster = make_roster(tmp_path, [("someone_else", True)])
        corpus, stats = ingest.ingest_files(log, roster, min_count=1)
        assert corpus.sequences[0].certified is False
        assert stats.unrostered_students == 1

    def test_conservation_of_events(self, tmp_path):
        # s2's only event carries a token below threshold, so the whole
        # student drops; s1 loses one event to the token filter.
        log = make_log(tmp_path, [
            "2013-03-01T10:00:00Z\ts1\tview\ta\t-",
            "2013-03-01T10:00:01Z\ts1\tview\ta\t-",
            "2013-03-01T10:00:02Z\ts1\tview\trare1\t-",
            "2013-03-01T10:00:03Z\ts2\tview\trare2\t-",
        ])
        roster = make_roster(tmp_path, [("s1", True), ("s2", True)])
        corpus, stats = ingest.ingest_files(log, roster, min_count=2)
        assert stats.kept_actions == corpus.total_actions == 2
        assert stats.dropped_token_events == 1
        assert stats.dropped_student_events == 1
        assert stats.dropped_students == 1
        assert (
            stats.parsed_events
            == stats.kept_actions + stats.dropped_token_events + stats.dropped_student_events
        )

    def test_malformed_skip_and_abort(self, tmp_path):
        log = make_log(tmp_path, [
            "2013-03-01T10:00:00Z\ts1\tview\ta\t-",
            "broken line",
        ])
        roster = make_roster(tmp_path, [("s1", True)])
        with pytest.raises(MalformedRecordError):
            ingest.ingest_files(log, roster, min_count=1, on_malformed="abort")
        corpus, stats = ingest.ingest_files(log, roster, min_count=1, on_malformed="skip")
        assert stats.malformed_lines == 1
        assert corpus.total_actions == 1


    def test_log_is_read_once(self, tmp_path, monkeypatch):
        log = make_log(tmp_path, ["2013-03-01T10:00:00Z\ts1\tview\ta\t-"] * 3)
        roster = make_roster(tmp_path, [("s1", True)])
        passes = []
        read = ingest.iter_events
        monkeypatch.setattr(ingest, "iter_events", lambda *a: passes.append(a) or read(*a))
        corpus, stats = ingest.ingest_files(log, roster, min_count=1)
        assert len(passes) == 1
        assert (stats.total_lines, stats.parsed_events, corpus.total_actions) == (3, 3, 3)


class TestHostileText:
    def test_non_utf8_event_line_aborts_even_when_skipping(self, tmp_path):
        log = make_log(tmp_path, ["2013-03-01T10:00:00Z\ts1\tview\ta\t-"] * 2)
        log.write_bytes(log.read_bytes() + b"\xff\n")
        roster = make_roster(tmp_path, [("s1", True)])
        with pytest.raises(MalformedRecordError) as caught:
            ingest.ingest_files(log, roster, min_count=1, on_malformed="skip")
        assert (caught.value.lineno, caught.value.reason) == (3, "not UTF-8")


class TestFilterCohort:
    def test_min_actions_one_is_identity_on_cohort(self, tmp_path):
        log = make_log(tmp_path, [
            "2013-03-01T10:00:00Z\ts1\tview\ta\t-",
            "2013-03-01T10:00:01Z\ts2\tview\ta\t-",
        ])
        roster = make_roster(tmp_path, [("s1", True), ("s2", False)])
        corpus, _ = ingest.ingest_files(log, roster, min_count=1)
        certified = ingest.filter_cohort(corpus, certified=True, min_actions=1)
        assert [s.student_id for s in certified.sequences] == ["s1"]

    def test_empty_cohort_is_valid(self, tmp_path):
        log = make_log(tmp_path, ["2013-03-01T10:00:00Z\ts1\tview\ta\t-"])
        roster = make_roster(tmp_path, [("s1", True)])
        corpus, _ = ingest.ingest_files(log, roster, min_count=1)
        assert ingest.filter_cohort(corpus, certified=False).sequences == []

    def test_min_actions_threshold(self, tmp_path):
        lines = [f"2013-03-01T10:00:{i:02d}Z\ts1\tview\ta\t-" for i in range(5)]
        lines += [f"2013-03-01T10:00:{i:02d}Z\ts2\tview\ta\t-" for i in range(3)]
        log = make_log(tmp_path, lines)
        roster = make_roster(tmp_path, [("s1", False), ("s2", False)])
        corpus, _ = ingest.ingest_files(log, roster, min_count=1)
        kept = ingest.filter_cohort(corpus, certified=False, min_actions=4)
        assert [s.student_id for s in kept.sequences] == ["s1"]


class TestFileFormats:
    def test_vocabulary_file_round_trip(self, tmp_path):
        vocab = ingest.build_vocabulary(["a", "a", "b"], min_count=1)
        path = tmp_path / "vocab.tsv"
        ingest.save_vocabulary(vocab, path)
        loaded = ingest.load_vocabulary(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.counts == vocab.counts
        assert loaded.min_count == vocab.min_count
        assert path.read_text().startswith("#V=2 min_count=1\n")

    def test_corpus_binary_round_trip(self, tmp_path):
        vocab = ingest.build_vocabulary(["a", "b"], min_count=1)
        corpus = ingest.Corpus(vocab, [
            ingest.StudentSequence("alpha", [0, 1, 0], True),
            ingest.StudentSequence("beta", [1, 1], False),
        ], vocab_size=2)
        path = tmp_path / "corpus.nact"
        ingest.save_corpus(corpus, path)
        assert path.read_bytes().startswith(b"NACT1")
        loaded = ingest.load_corpus(path, vocab)
        assert [s.student_id for s in loaded.sequences] == ["alpha", "beta"]
        assert loaded.sequences[0].actions == [0, 1, 0]
        assert loaded.sequences[0].certified is True
        assert loaded.sequences[1].certified is False

    def test_bit_identical_outputs_across_runs(self, tmp_path):
        lines = [f"2013-03-01T10:00:{i:02d}Z\ts{i % 3}\tview\ttok{i % 5}\t-" for i in range(30)]
        log = make_log(tmp_path, lines)
        roster = make_roster(tmp_path, [("s0", True), ("s1", False), ("s2", True)])
        blobs = []
        for run in range(2):
            corpus, _ = ingest.ingest_files(log, roster, min_count=2)
            vpath = tmp_path / f"v{run}.tsv"
            cpath = tmp_path / f"c{run}.nact"
            ingest.save_vocabulary(corpus.vocabulary, vpath)
            ingest.save_corpus(corpus, cpath)
            blobs.append((vpath.read_bytes(), cpath.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_corpus_header_vocab_mismatch(self, tmp_path):
        vocab = ingest.build_vocabulary(["a", "b"], min_count=1)
        corpus = ingest.Corpus(vocab, [ingest.StudentSequence("s", [0], True)], 2)
        path = tmp_path / "c.nact"
        ingest.save_corpus(corpus, path)
        wrong = ingest.build_vocabulary(["a", "b", "c"], min_count=1)
        with pytest.raises(ConfigError):
            ingest.load_corpus(path, wrong)


HEADER = "header is not '#V=<int> min_count=<int>'"
RECORD = "record is not 'token <TAB> id <TAB> count'"


class TestVocabularyRejects:
    GOOD = "#V=2 min_count=1\na\t0\t5\nb\t1\t3\n"

    @pytest.mark.parametrize("text, lineno, reason", [
        ("", 1, HEADER),
        ("#V=x min_count=1\na\t0\t5\n", 1, HEADER),
        ("#V=1 min_count=\na\t0\t5\n", 1, HEADER),
        ("#V=1\na\t0\t5\n", 1, HEADER),
        ("#V=2 min_count=1\na\t0\t5\nb\t1\tabc\n", 3, RECORD),
        ("#V=2 min_count=1\na\t0\t5\nb\tx\t3\n", 3, RECORD),
        ("#V=2 min_count=1\na\t0\t-5\nb\t1\t3\n", 2, RECORD),
        ("#V=2 min_count=1\na\t0\nb\t1\t3\n", 2, RECORD),
        ("#V=2 min_count=1\na\t0\t5\t1\nb\t1\t3\n", 2, RECORD),
        ("#V=2 min_count=1\na\t0\t5\na\t1\t3\n", 3, "duplicate token 'a'"),
        ("#V=2 min_count=1\na\t0\t5\nb\t2\t3\n", 3, "vocabulary ids out of order"),
        ("#V=3 min_count=1\na\t0\t5\nb\t1\t3\n", 1, "vocabulary size mismatch with header"),
        ("#V=2 min_count=1\na\t0\t5\nb\t1\t3", 3, "no newline at the end of the file"),
        ("#V=2 min_count=1\na\t0\t5\nb\t1\t18"[:-1], 3, "no newline at the end of the file"),
        ("#V=0 min_count=1", 1, "no newline at the end of the file"),
        ("#V=2 min_count=1\na\t0\t5\n\nb\t1\t3\n", 3, RECORD),
        ("#V=2 min_count=1\na\t0\t5\nb\t1\t3\n\n", 4, RECORD),
        ("#V=2 min_count=1\r\na\t0\t5\nb\t1\t3\n", 1, HEADER),
        ("#V=2 min_count=1\na\t0\t5\r\nb\t1\t3\n", 2, RECORD),
        ("#V=2 min_count=1\n\t0\t5\nb\t1\t3\n", 2, RECORD),
    ])
    def test_malformed_vocabulary(self, tmp_path, text, lineno, reason):
        path = tmp_path / "vocab.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedRecordError) as caught:
            ingest.load_vocabulary(path)
        assert (caught.value.lineno, caught.value.reason) == (lineno, reason)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(self.GOOD.encode() + b"\xff\t2\t1\n")
        with pytest.raises(MalformedRecordError) as caught:
            ingest.load_vocabulary(path)
        assert (caught.value.lineno, caught.value.reason) == (4, "not UTF-8")

    def test_good_file_loads(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text(self.GOOD, encoding="utf-8")
        vocab = ingest.load_vocabulary(path)
        assert (vocab.id_to_token, vocab.counts) == (["a", "b"], [5, 3])
        assert vocab.token_to_id == {"a": 0, "b": 1}


tokens = st.text(st.characters(blacklist_characters="\t\n", blacklist_categories=("Cs",)),
                min_size=1, max_size=6)


@st.composite
def vocabularies(draw):
    id_to_token = draw(st.lists(tokens, max_size=6, unique=True))
    counts = draw(st.lists(st.integers(1, 10**6), min_size=len(id_to_token),
                           max_size=len(id_to_token)))
    return ingest.Vocabulary({t: i for i, t in enumerate(id_to_token)}, id_to_token, counts,
                             draw(st.integers(1, 50)))


class TestVocabularyProperties:
    @settings(max_examples=300, deadline=None)
    @given(vocabularies(), st.data())
    def test_round_trip_and_corruption(self, vocab, data):
        """A vocabulary reads back as saved; a truncated or flipped file raises a
        NextactionError or loads to a vocabulary that saves back byte for byte."""
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "vocab.tsv"
            ingest.save_vocabulary(vocab, path)
            assert ingest.load_vocabulary(path) == vocab
            path.write_bytes(mutated(data.draw, path.read_bytes()))
            changed = path.read_bytes()
            try:
                loaded = ingest.load_vocabulary(path)
            except NextactionError:
                return
            ingest.save_vocabulary(loaded, path)
            assert path.read_bytes() == changed


class TestCorpusRejects:
    @pytest.fixture
    def saved(self, tmp_path):
        corpus = ingest.Corpus(None, [
            ingest.StudentSequence("alpha", [0, 1, 0], True),
            ingest.StudentSequence("beta", [1, 1], False),
        ], vocab_size=2)
        path = tmp_path / "corpus.nact"
        ingest.save_corpus(corpus, path)
        return path

    def load_error(self, path, blob):
        path.write_bytes(blob)
        with pytest.raises(MalformedRecordError) as caught:
            ingest.load_corpus(path)
        return caught.value

    def test_every_truncation(self, saved):
        blob = saved.read_bytes()
        for size in range(len(blob)):
            error = self.load_error(saved, blob[:size])
            assert str(error).startswith("byte ")
            assert error.lineno <= size

    def test_truncated_actions_offset(self, saved):
        blob = saved.read_bytes()
        error = self.load_error(saved, blob[:-3])
        # beta's two ids start 8 bytes before the end
        assert error.lineno == len(blob) - 8
        assert "truncated" in error.reason

    def test_trailing_bytes(self, saved):
        blob = saved.read_bytes()
        error = self.load_error(saved, blob + b"\0")
        assert (error.lineno, error.reason) == (len(blob), "1 trailing bytes")

    def test_action_id_at_or_above_v(self, saved):
        blob = bytearray(saved.read_bytes())
        # alpha's ids follow magic (5), header (8), id length (4), "alpha" (5), flag and count (5)
        first_id = 5 + 8 + 4 + 5 + 5
        blob[first_id + 4] = 2  # alpha's second id becomes 2 with V=2
        error = self.load_error(saved, bytes(blob))
        assert error.lineno == first_id + 4
        assert "action id 2 >= V=2" in error.reason

    def test_certified_byte_and_utf8_student_id(self, saved):
        blob = bytearray(saved.read_bytes())
        flag = 5 + 8 + 4 + 5
        blob[flag] = 7
        assert self.load_error(saved, bytes(blob)).lineno == flag
        blob[flag] = 1
        blob[5 + 8 + 4] = 0xFF
        assert self.load_error(saved, bytes(blob)).lineno == 5 + 8 + 4

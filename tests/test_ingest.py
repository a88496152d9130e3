import builtins
import hashlib
import io
import os
import tempfile
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    corpus_of, mutated, per_line_columns, per_line_ingest, per_row_filter_cohort,
    per_row_hill_climb_split, per_row_windows,
)
from nextaction import evaluation, ingest, lstm, synth
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
        _, student_id, event_type, page, object_name = ingest.parse_event(
            "2013-03-01T10:00:00Z\ts1\tplay_video\tcourseware/w1/v2\t-", 1
        )
        assert student_id == "s1"
        assert event_type == "play_video"
        assert page == "courseware/w1/v2"
        assert object_name is None

    def test_two_fields_is_malformed(self):
        with pytest.raises(MalformedRecordError) as err:
            ingest.parse_event("2013-03-01T10:00:00Z\ts1", 7)
        assert err.value.lineno == 7

    def test_object_name_field(self):
        *_, page, object_name = ingest.parse_event(
            "2013-03-01T10:00:01Z\ts1\tsave_problem_check\t-\ti4x://quiz1_q3", 1
        )
        assert object_name == "i4x://quiz1_q3"
        assert page is None

    def test_bad_timestamp(self):
        with pytest.raises(MalformedRecordError):
            ingest.parse_event("not-a-time\ts1\tx\t-\t-", 1)

    def test_a_stamp_with_no_zone_reads_as_utc(self):
        zoned, *_ = ingest.parse_event("2013-03-01T10:00:00Z\ts1\tx\t-\t-", 1)
        naive, *_ = ingest.parse_event("2013-03-01T10:00:00\ts1\tx\t-\t-", 1)
        assert naive == zoned and naive.tzinfo is not None

    def test_missing_required_fields(self):
        with pytest.raises(MalformedRecordError):
            ingest.parse_event("2013-03-01T10:00:00Z\t-\tx\t-\t-", 1)
        with pytest.raises(MalformedRecordError):
            ingest.parse_event("2013-03-01T10:00:00Z\ts1\t\t-\t-", 1)


# a canonical stamp, read in bulk, and one that only the per-line reader reads
STAMP_FORMS = ["2013-03-01T10:00:00Z", "2013-03-01T10:00:00+00:00"]


@pytest.mark.parametrize("stamp", STAMP_FORMS)
class TestActionToken:
    def token(self, tmp_path, stamp, event_type, page, object_name):
        """The one action token of a one-line log."""
        log = make_log(tmp_path, [f"{stamp}\ts1\t{event_type}\t{page}\t{object_name}"])
        corpus, _ = ingest.ingest_files(log, make_roster(tmp_path, [("s1", True)]), min_count=1)
        (token,) = corpus.vocabulary.id_to_token
        return token

    def test_problem_check_uses_object_name(self, tmp_path, stamp):
        token = self.token(tmp_path, stamp, "save_problem_check", "x", "i4x://quiz1_q3")
        assert token == "i4x://quiz1_q3"

    def test_page_when_present(self, tmp_path, stamp):
        token = self.token(tmp_path, stamp, "play_video", "courseware/w1/v2", "-")
        assert token == "courseware/w1/v2"

    def test_event_type_fallback(self, tmp_path, stamp):
        assert self.token(tmp_path, stamp, "seq_goto", "-", "-") == "seq_goto"

    def test_problem_check_without_object_falls_through(self, tmp_path, stamp):
        assert self.token(tmp_path, stamp, "save_problem_check", "p1", "-") == "p1"


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

    def test_padded_roster_fields_read_as_the_canonical_roster(self, tmp_path):
        """Each roster field is stripped, as an event's fields are."""
        log = make_log(tmp_path, [f"2013-03-01T10:00:0{i}Z\t{s}\tview\ta\t-"
                                  for i, s in enumerate(["a", "b", "c", "a", "b", "c"])])
        blobs = []
        for name, text in (("canonical", "a\t1\nb\t1\nc\t0\n"),
                           ("padded", "a \t1\nb\t 1\n c \t 0 \n")):
            roster = tmp_path / f"{name}.tsv"
            roster.write_text(text, encoding="utf-8")
            corpus, stats = ingest.ingest_files(log, roster, min_count=1)
            assert stats.unrostered_students == 0
            ingest.save_corpus(corpus, tmp_path / f"{name}.nact")
            blobs.append((tmp_path / f"{name}.nact").read_bytes())
        assert blobs[0] == blobs[1]
        with pytest.raises(MalformedRecordError, match="line 2: bad roster line"):
            ingest.parse_roster(b"a \t1\ns\t2\n")

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

    @pytest.mark.parametrize("last, on_malformed, parses, counts", [
        ("2013-03-01T10:00:02Z\ts1\tview\ta\t-", "abort", 0, (3, 3, 3)),
        ("2013-03-01T11:00:02+01:00\ts1\tview\ta\t-", "abort", 1, (3, 3, 3)),
        ("broken line", "skip", 1, (3, 2, 2)),
    ], ids=["canonical", "offset-stamp", "skip-bad-line"])
    def test_log_is_read_once(self, tmp_path, monkeypatch, last, on_malformed, parses, counts):
        """The log is opened once, and only its odd lines go through the per-line
        rule, once each: none of a log in canonical form."""
        log = make_log(tmp_path, ["2013-03-01T10:00:00Z\ts1\tview\ta\t-"] * 2 + [last])
        roster = make_roster(tmp_path, [("s1", True)])
        opened, calls = [], []
        real_open, parse = io.open, ingest._parse_line

        def spy_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        for owner in (builtins, io):
            monkeypatch.setattr(owner, "open", spy_open)
        monkeypatch.setattr(ingest, "_parse_line", lambda *a: calls.append(a) or parse(*a))
        corpus, stats = ingest.ingest_files(log, roster, min_count=1, on_malformed=on_malformed)
        assert [Path(f) for f in opened].count(log) == 1
        assert len(calls) == parses
        assert (stats.total_lines, stats.parsed_events, corpus.total_actions) == counts

    def test_log_from_a_pipe(self, tmp_path):
        """A pipe reports size 0; its bytes are still read to the end."""
        log = tmp_path / "events.fifo"
        os.mkfifo(log)
        text = "".join(f"2013-03-01T10:00:{i:02d}Z\ts1\tview\ta\t-\n" for i in range(3))

        def write():
            with open(log, "w", encoding="utf-8") as handle:
                handle.write(text)

        writer = threading.Thread(target=write)
        writer.start()
        corpus, stats = ingest.ingest_files(log, make_roster(tmp_path, [("s1", True)]), 1)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (stats.total_lines, corpus.total_actions) == (3, 3)

    @pytest.mark.parametrize("options", [
        {"min_count": 0}, {"min_count": -1}, {"on_malformed": "ignore"},
    ])
    def test_bad_options_raise_before_any_read(self, tmp_path, options):
        missing = tmp_path / "absent.tsv"
        with pytest.raises(ConfigError):
            ingest.ingest_files(missing, missing, **{"min_count": 1, **options})


class TestBoundedMemory:
    def test_peak_stays_under_the_log_and_twenty_bytes_an_event(self, tmp_path):
        """The log is read in blocks, so ingest never holds it whole, nor a copy of it:
        its traced peak stays under the log's bytes plus 20 bytes an event."""
        out = synth.generate(synth.SynthConfig(students_certified=340, students_uncertified=160,
                                               mean_sequence_length=40, seed=7), tmp_path)
        tracemalloc.start()
        try:
            corpus, stats = ingest.ingest_files(out.events_path, out.roster_path, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 19_000 < stats.parsed_events == corpus.total_actions < 21_000
        assert peak < out.events_path.stat().st_size + 20 * stats.parsed_events


class TestHostileText:
    def test_non_utf8_event_line_aborts_even_when_skipping(self, tmp_path):
        log = make_log(tmp_path, ["2013-03-01T10:00:00Z\ts1\tview\ta\t-"] * 2)
        log.write_bytes(log.read_bytes() + b"\xff\n")
        roster = make_roster(tmp_path, [("s1", True)])
        with pytest.raises(MalformedRecordError) as caught:
            ingest.ingest_files(log, roster, min_count=1, on_malformed="skip")
        assert (caught.value.lineno, caught.value.reason) == (3, "not UTF-8")

    def test_bad_lines_before_a_non_utf8_line_are_counted_when_skipping(self):
        good = b"2013-03-01T10:00:00Z\ts1\tview\ta\t-\n"
        log = good + b"broken\n" + good + b"# note\n" + b"s1\tview\n" + b"\xff\n" + good
        stats = ingest.IngestStats()
        events = []
        with pytest.raises(MalformedRecordError) as caught:
            events.extend(ingest.iter_events(log, "skip", stats))
        assert (caught.value.lineno, caught.value.reason) == (6, "not UTF-8")
        assert len(events) == 2
        assert (stats.total_lines, stats.ignored_lines, stats.malformed_lines,
                stats.parsed_events) == (5, 1, 2, 2)


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

    def test_both_cohorts_and_min_actions_below_one(self, tmp_path):
        log = make_log(tmp_path, [
            "2013-03-01T10:00:00Z\ts1\tview\ta\t-",
            "2013-03-01T10:00:01Z\ts2\tview\ta\t-",
        ])
        roster = make_roster(tmp_path, [("s1", True), ("s2", False)])
        corpus, _ = ingest.ingest_files(log, roster, min_count=1)
        kept = ingest.filter_cohort(corpus, certified=None)
        assert [s.student_id for s in kept.sequences] == ["s1", "s2"]
        for certified in (True, False, None):
            with pytest.raises(ConfigError):
                ingest.filter_cohort(corpus, certified, min_actions=0)


class TestFileFormats:
    def test_vocabulary_file_round_trip(self, tmp_path):
        vocab = ingest.build_vocabulary(["a", "a", "b"], min_count=1)
        path = tmp_path / "vocab.tsv"
        ingest.save_vocabulary(vocab, path)
        loaded = ingest.load_vocabulary(path.read_bytes())
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.counts == vocab.counts
        assert loaded.min_count == vocab.min_count
        assert path.read_text().startswith("#V=2 min_count=1\n")

    def test_corpus_binary_round_trip(self, tmp_path):
        vocab = ingest.build_vocabulary(["a", "b"], min_count=1)
        corpus = corpus_of([
            ingest.StudentSequence("alpha", [0, 1, 0], True),
            ingest.StudentSequence("beta", [1, 1], False),
        ], vocab_size=2, vocabulary=vocab)
        path = tmp_path / "corpus.nact"
        ingest.save_corpus(corpus, path)
        assert path.read_bytes().startswith(b"NACT1")
        loaded = ingest.load_corpus(path.read_bytes(), vocab)
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

    def test_roster_skips_blank_and_comment_lines(self):
        blob = b"# student\tcertified\n\ns1\t1\n   \n  # s3\t1\ns2\t0\n"
        assert ingest.parse_roster(blob) == {"s1": True, "s2": False}

    def test_corpus_header_vocab_mismatch(self, tmp_path):
        vocab = ingest.build_vocabulary(["a", "b"], min_count=1)
        corpus = corpus_of([ingest.StudentSequence("s", [0], True)], 2, vocab)
        path = tmp_path / "c.nact"
        ingest.save_corpus(corpus, path)
        wrong = ingest.build_vocabulary(["a", "b", "c"], min_count=1)
        with pytest.raises(ConfigError):
            ingest.load_corpus(path.read_bytes(), wrong)


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
            ingest.load_vocabulary(path.read_bytes())
        assert (caught.value.lineno, caught.value.reason) == (lineno, reason)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(self.GOOD.encode() + b"\xff\t2\t1\n")
        with pytest.raises(MalformedRecordError) as caught:
            ingest.load_vocabulary(path.read_bytes())
        assert (caught.value.lineno, caught.value.reason) == (4, "not UTF-8")

    def test_good_file_loads(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text(self.GOOD, encoding="utf-8")
        vocab = ingest.load_vocabulary(path.read_bytes())
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


class TestRosterProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**32 - 1), st.data())
    def test_round_trip_and_corruption(self, n_certified, n_uncertified, seed, data):
        """The roster ``synth.generate`` writes reads back as written; a truncated
        file raises a NextactionError or loads a prefix of it, and a flipped byte
        raises or changes at most one student's entry."""
        cfg = synth.SynthConfig(
            vocab_size=4, syllabus_length=2, students_certified=n_certified,
            students_uncertified=n_uncertified, mean_sequence_length=2, seed=seed,
        )
        with tempfile.TemporaryDirectory() as root:
            path = synth.generate(cfg, root).roster_path
            saved = ingest.parse_roster(path.read_bytes())
            assert saved == {
                **{f"cert{i + 1:04d}": True for i in range(n_certified)},
                **{f"unc{i + 1:04d}": False for i in range(n_uncertified)},
            }
            blob = path.read_bytes()
            path.write_bytes(mutated(data.draw, blob))
            truncated = len(path.read_bytes()) < len(blob)
            try:
                loaded = ingest.parse_roster(path.read_bytes())
            except NextactionError:
                return
            if truncated:
                assert list(loaded.items()) == list(saved.items())[: len(loaded)]
            else:
                assert len(set(saved.items()) ^ set(loaded.items())) <= 2


class TestVocabularyProperties:
    @settings(max_examples=300, deadline=None)
    @given(vocabularies(), st.data())
    def test_round_trip_and_corruption(self, vocab, data):
        """A vocabulary reads back as saved; a truncated or flipped file raises a
        NextactionError or loads to a vocabulary that saves back byte for byte."""
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "vocab.tsv"
            ingest.save_vocabulary(vocab, path)
            assert ingest.load_vocabulary(path.read_bytes()) == vocab
            path.write_bytes(mutated(data.draw, path.read_bytes()))
            changed = path.read_bytes()
            try:
                loaded = ingest.load_vocabulary(path.read_bytes())
            except NextactionError:
                return
            ingest.save_vocabulary(loaded, path)
            assert path.read_bytes() == changed


class TestCorpusRejects:
    @pytest.fixture
    def saved(self, tmp_path):
        corpus = corpus_of([
            ingest.StudentSequence("alpha", [0, 1, 0], True),
            ingest.StudentSequence("beta", [1, 1], False),
        ], vocab_size=2)
        path = tmp_path / "corpus.nact"
        ingest.save_corpus(corpus, path)
        return path

    def load_error(self, path, blob):
        path.write_bytes(blob)
        with pytest.raises(MalformedRecordError) as caught:
            ingest.load_corpus(path.read_bytes())
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

    @pytest.mark.parametrize("sid, reason", [
        ("", "student id '' is empty or holds a tab or a newline"),
        ("s\t4", "student id 's\\t4' is empty or holds a tab or a newline"),
        ("s\n4", "student id 's\\n4' is empty or holds a tab or a newline"),
        ("alpha", "student id 'alpha' appears twice"),
    ])
    def test_empty_tabbed_or_repeated_student_id(self, saved, sid, reason):
        corpus = corpus_of([
            ingest.StudentSequence("alpha", [0, 1, 0], True),
            ingest.StudentSequence(sid, [1, 1], False),
        ], vocab_size=2)
        ingest.save_corpus(corpus, saved)
        error = self.load_error(saved, saved.read_bytes())
        # the second id follows alpha's length, id, flag and count, and three ids
        assert (error.lineno, error.reason) == (5 + 8 + 4 + 5 + 5 + 12 + 4, reason)

    @pytest.mark.parametrize("later", ["truncated", "repeated student", "trailing bytes"])
    def test_first_bad_field_in_file_order_is_reported(self, saved, later):
        """A bad id in the first sequence is reported before a fault further on."""
        corpus = corpus_of([
            ingest.StudentSequence("alpha", [0, 1, 0], True),
            ingest.StudentSequence("alpha" if later == "repeated student" else "beta",
                                   [1, 1], False),
        ], vocab_size=2)
        ingest.save_corpus(corpus, saved)
        blob = bytearray(saved.read_bytes())
        first_id = 5 + 8 + 4 + 5 + 5
        blob[first_id + 4] = 2  # alpha's second id becomes 2 with V=2
        if later == "truncated":
            blob = blob[:-3]
        elif later == "trailing bytes":
            blob += b"\0"
        error = self.load_error(saved, bytes(blob))
        assert (error.lineno, error.reason) == (first_id + 4, "action id 2 >= V=2")


STUDENTS = ["s1", "s2", "é3", "a b"]
EVENTS = ["view", "play_video", "save_problem_check"]
PAGES = ["-", "p1", "p2", "unit/ü"]
OBJECTS = ["-", "q1", "p1"]
STAMPS = st.one_of(
    st.sampled_from([datetime(2013, 3, 1, 10), datetime(2013, 3, 1, 10, 0, 1)]),
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)),
)
FILLER_LINES = ["", "# a comment", "#\tholds\ttabs\t\t"]


@st.composite
def canonical_logs(draw):
    """The lines of an event log in canonical form, blank and comment lines included."""
    records = draw(st.lists(st.tuples(
        STAMPS, *(st.sampled_from(values) for values in (STUDENTS, EVENTS, PAGES, OBJECTS))
    ), max_size=12))
    lines = [
        "\t".join((stamp.isoformat(timespec="seconds") + "Z", *fields))
        for stamp, *fields in records
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLER_LINES)))
    return lines


def _edit_stamp(edit):
    return lambda fields, draw: [edit(fields[0]), *fields[1:]]


def _set_field(column, value):
    return lambda fields, draw: fields[:column] + [value] + fields[column + 1:]


def _pad_edge(pad):
    def edit(fields, draw):
        column = draw(st.integers(0, 4))
        padded = pad + fields[column] if draw(st.booleans()) else fields[column] + pad
        return fields[:column] + [padded] + fields[column + 1:]
    return edit


# a corruption of one record's fields: each makes the line one that only the
# per-line reader reads, or one that it refuses
RECORD_EDITS = {
    "space-at-edge": _pad_edge(" "),
    "nbsp-at-edge": _pad_edge("\xa0"),
    "dash-student": _set_field(1, "-"),
    "empty-student": _set_field(1, ""),
    "dash-event": _set_field(2, "-"),
    "empty-event": _set_field(2, ""),
    "lowercase-z": _edit_stamp(lambda t: t[:-1] + "z"),
    "year-0000": _edit_stamp(lambda t: "0000" + t[4:]),
    "signed-year": _edit_stamp(lambda t: "-" + t[1:]),
    "space-in-year": _edit_stamp(lambda t: " " + t[1:]),
    "feb-30": _edit_stamp(lambda t: t[:5] + "02-30" + t[10:]),
    "hour-24": _edit_stamp(lambda t: t[:11] + "24" + t[13:]),
    "offset-stamp": _edit_stamp(lambda t: t[:-1] + "+01:00"),
    "fractional-stamp": _edit_stamp(lambda t: t[:-1] + ".5Z"),
    "carriage-return": lambda fields, draw: fields[:4] + [fields[4] + "\r"],
    "nul": lambda fields, draw: fields[:3] + [fields[3] + "\0"] + fields[4:],
    "four-fields": lambda fields, draw: fields[:4],
    "six-fields": lambda fields, draw: fields + ["x"],
}


def _insert_non_utf8_byte(text, draw):
    blob = text.encode()
    at = draw(st.integers(0, len(blob)))
    return blob[:at] + b"\xff" + blob[at:]


# a corruption of the file as a whole
LOG_EDITS = {
    "none": lambda text, draw: text.encode(),
    "crlf": lambda text, draw: text.replace("\n", "\r\n").encode(),
    "bom": lambda text, draw: b"\xef\xbb\xbf" + text.encode(),
    "not-utf8": _insert_non_utf8_byte,
    "no-final-newline": lambda text, draw: text.removesuffix("\n").encode(),
    "whitespace-lines": lambda text, draw: text.encode() + draw(
        st.sampled_from([b"\t\t\t\t\n", b" \t \n", b"\r\n"])),
    "mutated": lambda text, draw: mutated(draw, text.encode()) if text else b"",
}


def _ingest(log, roster, min_count, on_malformed, read=ingest.ingest_files):
    """(vocabulary, sequences, stats) of one ingest, or the refusal's (line, reason)."""
    try:
        corpus, stats = read(log, roster, min_count, on_malformed)
    except MalformedRecordError as exc:
        return exc.lineno, exc.reason
    return corpus.vocabulary, corpus.sequences, stats


def _counting_parses(log, roster, min_count, on_malformed):
    """``_ingest`` of the block reader, and the numbers of the lines that it sent
    through the per-line rule, in the order it did."""
    parsed, parse = [], ingest._parse_line
    with mock.patch.object(ingest, "_parse_line",
                           lambda line, lineno, *a: parsed.append(lineno) or parse(line, lineno, *a)):
        return _ingest(log, roster, min_count, on_malformed), parsed


def _columns(log, on_malformed, per_line=False):
    """The event columns and stats of one log, or the refusal's (line, reason)."""
    stats = ingest.IngestStats()
    try:
        if per_line:
            columns = per_line_columns(log.read_bytes(), on_malformed, stats)
        else:
            with open(log, "rb") as handle:
                columns = ingest._read_events(handle, on_malformed, stats, hashlib.sha256())
    except MalformedRecordError as exc:
        return exc.lineno, exc.reason
    return (columns.students, columns.student.tolist(), columns.time.tolist(), columns.tokens,
            columns.token.tolist(), stats)


class TestReadersAgree:
    @settings(max_examples=300, deadline=None)
    @given(canonical_logs(), st.sampled_from([None, *RECORD_EDITS]),
           st.sampled_from(list(LOG_EDITS)), st.integers(1, 3), st.sampled_from(["abort", "skip"]),
           st.sampled_from([16, 64, 1 << 18]), st.data())
    def test_bulk_reader_matches_per_line_reader(self, lines, record_edit, log_edit, min_count,
                                                 on_malformed, block, data):
        """On canonical logs and corruptions of them, read in blocks of a line or a
        few or whole, ingest gives what the per-line reader alone gives: the same
        event columns, vocabulary, sequences and stats, or the same refusal; and of
        a log in canonical form it parses no line one at a time."""
        records = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
        if record_edit is not None and records:
            at = data.draw(st.sampled_from(records))
            lines[at] = "\t".join(RECORD_EDITS[record_edit](lines[at].split("\t"), data.draw))
        blob = LOG_EDITS[log_edit]("".join(line + "\n" for line in lines), data.draw)
        with tempfile.TemporaryDirectory() as root:
            log = Path(root) / "events.tsv"
            log.write_bytes(blob)
            roster = make_roster(Path(root), [("s1", True), ("é3", False)])
            with mock.patch.object(ingest, "_BLOCK", block):
                got, parsed = _counting_parses(log, roster, min_count, on_malformed)
                assert _columns(log, on_malformed) == _columns(log, on_malformed, per_line=True)
            assert got == _ingest(log, roster, min_count, on_malformed, per_line_ingest)
        if log_edit in ("none", "no-final-newline"):
            assert len(parsed) == (record_edit is not None and len(records) > 0)


@pytest.fixture(scope="module")
def course_log(tmp_path_factory):
    """The lines of a synthetic log in canonical form of about 2,000 events, and its roster."""
    out = synth.generate(synth.SynthConfig(vocab_size=16, syllabus_length=8, students_certified=40,
                                           students_uncertified=10, mean_sequence_length=40,
                                           seed=5), tmp_path_factory.mktemp("course"))
    return out.events_path.read_text(encoding="utf-8").splitlines(), out.roster_path


class TestOddLines:
    @pytest.mark.parametrize("kind", RECORD_EDITS)
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_one_odd_line_costs_one_per_line_parse(self, course_log, kind, data):
        """One odd line in the middle of a long canonical log is the only line parsed
        one at a time, and ingest gives what the per-line reader gives."""
        lines, roster = course_log
        at = len(lines) // 2
        assert len(lines) > 1_900 and not lines[at].startswith("#")
        odd = "\t".join(RECORD_EDITS[kind](lines[at].split("\t"), data.draw))
        with tempfile.TemporaryDirectory() as root:
            log = Path(root) / "events.tsv"
            log.write_text("".join(line + "\n" for line in lines[:at] + [odd] + lines[at + 1:]),
                           encoding="utf-8")
            for on_malformed in ("skip", "abort"):
                got, parsed = _counting_parses(log, roster, 1, on_malformed)
                assert parsed == [at + 1]
                assert got == _ingest(log, roster, 1, on_malformed, per_line_ingest)


class TestStamps:
    def test_canonical_stamps_read_as_fromisoformat_reads_them(self):
        """A stamp of the canonical shape is read to the time that fromisoformat
        gives it, or refused where fromisoformat refuses it: leap days, month ends,
        century years, year 0000 and times past 23:59:59 included."""
        texts = [f"{y:04d}-{m:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}Z"
                 for y in (0, 1, 4, 100, 400, 1900, 1969, 1970, 2000, 2012, 2013, 2100, 9999)
                 for m in range(14) for d in (0, 1, 28, 29, 30, 31, 32)
                 for h, mi, s in ((0, 0, 0), (23, 59, 59), (24, 0, 0), (0, 60, 0), (0, 0, 60))]
        buf = np.frombuffer("".join(texts).encode() + bytes(64), dtype=np.uint8)
        time, valid = ingest._stamp_times(buf, np.arange(len(texts)) * 20)
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        for text, got, ok in zip(texts, time.tolist(), valid.tolist()):
            try:
                want = (datetime.fromisoformat(text[:-1] + "+00:00") - epoch) // timedelta(
                    microseconds=1)
            except ValueError:
                want = None
            assert (got if ok else None) == want, text


class TestFieldKeys:
    def bulk(self, log):
        with open(log, "rb") as handle:
            columns = ingest._read_events(handle, "abort", ingest.IngestStats(), hashlib.sha256())
        return (columns.students, columns.student.tolist(), columns.time.tolist(),
                columns.tokens, columns.token.tolist())

    def test_values_that_share_a_key_are_sorted_as_bytes(self, tmp_path):
        """With a key mix under which every value collides, the check of each
        record against its key's first record fails and the field falls back to a
        sort of its bytes: the event columns and the corpus are unchanged."""
        out = synth.generate(synth.SynthConfig(vocab_size=16, syllabus_length=8,
                                               students_certified=6, students_uncertified=3,
                                               mean_sequence_length=30, seed=4), tmp_path)
        keyed = self.bulk(out.events_path)
        corpus, stats = ingest.ingest_files(out.events_path, out.roster_path, 1)
        with mock.patch.object(ingest, "_mix", lambda key, word: key):
            assert self.bulk(out.events_path) == keyed
            collided, collided_stats = ingest.ingest_files(out.events_path, out.roster_path, 1)
        assert min(len(keyed[0]), len(keyed[3])) >= 2  # so every field collided
        assert (collided.vocabulary, collided.sequences, collided_stats) == (
            corpus.vocabulary, corpus.sequences, stats)

    def test_values_are_listed_in_order_of_first_use(self, tmp_path):
        log = make_log(tmp_path, ["2013-03-01T10:00:00Z\ts2\tview\tb\t-",
                                  "2013-03-01T10:00:01Z\ts10\tview\ta\t-",
                                  "2013-03-01T10:00:02Z\ts2\tview\tlong/page/name\t-"])
        students, student, _, tokens, token = self.bulk(log)
        assert (students, student) == (["s2", "s10"], [0, 1, 0])
        assert [tokens[t] for t in token] == ["b", "a", "long/page/name"]


STUDENT_IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"), min_size=1, max_size=3
)


@st.composite
def corpus_rows(draw):
    """(V, rows): sequences of 0 to 12 ids below V under distinct student ids."""
    vocab_size = draw(st.integers(1, 6))
    students = draw(st.lists(STUDENT_IDS, max_size=8, unique=True))
    return vocab_size, [
        ingest.StudentSequence(student, draw(st.lists(st.integers(0, vocab_size - 1), max_size=12)),
                               draw(st.booleans()))
        for student in students
    ]


class TestColumnarCorpus:
    @settings(max_examples=200, deadline=None)
    @given(corpus_rows(), st.data())
    def test_columns_agree_with_row_oracles(self, case, data):
        """Gathers, cohort filters, hill-climb splits, training windows and a
        save/load round trip over the columns give what the same steps give
        one row at a time."""
        vocab_size, rows = case
        corpus = corpus_of(rows, vocab_size)
        assert corpus.sequences == rows
        assert corpus.pos.tolist() == [t for row in rows for t in range(len(row))]

        index = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=10) if rows
                          else st.just([]))
        picked = corpus.take(np.array(index, dtype=np.int64))
        assert picked.sequences == [rows[i] for i in index]
        assert picked.actions.dtype == picked.lengths.dtype == np.int64
        mask = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        assert (corpus.take(np.array(mask, dtype=bool)).sequences
                == [row for row, keep in zip(rows, mask) if keep])

        certified = data.draw(st.sampled_from([None, True, False]))
        min_actions = data.draw(st.integers(1, 4))
        assert (ingest.filter_cohort(corpus, certified, min_actions).sequences
                == per_row_filter_cohort(rows, certified, min_actions))

        if len(rows) >= 2:
            fraction = data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
            seed = data.draw(st.integers(0, 2**16))
            train, holdout = evaluation.hill_climb_split(corpus, fraction, seed)
            assert ((train.sequences, holdout.sequences)
                    == per_row_hill_climb_split(rows, fraction, seed))

        window = data.draw(st.integers(1, 5))
        windows = lstm.make_windows(corpus, window, vocab_size)
        assert windows.dtype == np.int64
        assert np.array_equal(windows, per_row_windows(rows, window, vocab_size))

        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "corpus.nact"
            ingest.save_corpus(corpus, path)
            loaded = ingest.load_corpus(path.read_bytes())
        assert loaded.vocab_size == vocab_size
        assert loaded.sequences == rows

"""Event-log ingestion: parsing, action extraction, vocabulary, encoded corpora.

Input formats (UTF-8 text, one record per line; in the event log and roster,
lines starting with '#' and blank lines are ignored):

  event log:  timestamp <TAB> student_id <TAB> event_type <TAB> page <TAB> object_name
              absent optional fields (page, object_name) are written as '-'
  roster:     student_id <TAB> certified(0|1)
  vocabulary: header '#V=<int> min_count=<int>', then 'token <TAB> id <TAB> count'
              sorted by id; every line, the last included, ends in a line break

The event log is read from disk once, in blocks of whole lines of about
``_BLOCK`` (256 KiB) bytes, each hashed as it is read, so neither the log nor a
copy of it is held whole.  Each block is split into columns with array
operations.  A line in it is *odd* unless it is blank, a '#' line or a record in
canonical form: no NUL byte, five fields split by four tabs, a
``YYYY-MM-DDTHH:MM:SSZ`` stamp of a calendar date and time from year 1, no field
over ``_MAX_FIELD`` (128) bytes, no whitespace at a field's edge, and a student
and event type that are neither empty nor '-'.  Each odd line costs one parse
by the per-line rule (``_parse_line``, which ``iter_events`` applies to every
line): it reads any ISO-8601 stamp and padded fields alike, names a bad line or,
under "skip", counts it, and its event joins the columns at its place in the
log.  A line that is not UTF-8 is named once the lines before it are read, so
the first bad line in file order is the one named.  Each field's values are
keyed without sorting bytes: a value's key is a 64-bit mix of its 8-byte words
(``_mix``), the keys are made unique, and every record's words are checked
against those of its key's first record; only when two values share a key are
that field's values sorted as bytes.  Students and names enter one dictionary
each in order of first use over the whole log (student order is corpus order),
and each event is held as a narrow student code, a time and a narrow token code.
The peak is then one block's work, a few times the block, or the encoder's few
int64 columns, so once a log spans a few blocks the traced peak of
``ingest_files`` stays under the log's bytes plus 20 bytes an event.  One
action-token rule, one vocabulary rule and one encoder follow.

In memory a corpus is columnar (``Corpus``): one int64 array of every
sequence's action ids, concatenated in sequence order, and per sequence its
length, student id and certified flag.  ``Corpus.pos`` gives each action's
index within its own sequence, so ``(corpus.actions, corpus.pos)`` is the
input every model scores, and ``Corpus.take`` gathers a subset of sequences.

The encoded corpus is a binary container (magic ``NACT1``, little-endian):
vocab size, sequence count, then per sequence the student-id length and bytes,
one certified byte, the action count, and the action ids as 32-bit unsigned.

Every text reader names its first bad line in file order, one that is not UTF-8
included, through ``text_lines``.  The integer columns of n-gram tables and
prediction streams are written and read as whole byte columns with
``format_decimals``, ``text_rows`` and ``parse_decimals``.
"""

import hashlib
import re
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, MalformedRecordError

CORPUS_MAGIC = b"NACT1"
NUMBER = r"(?:0|[1-9][0-9]{0,17})"  # a canonical decimal below 2**63
_VOCAB_HEADER = re.compile(rf"#V=({NUMBER}) min_count=({NUMBER})")
_VOCAB_RECORD = re.compile(rf"([^\t]+)\t({NUMBER})\t({NUMBER})")
_MAX_FIELD = 128  # bytes; a longer event-log field makes its line odd, read by the per-line rule
_BLOCK = 1 << 18  # bytes of whole event-log lines read and split at a time
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)  # '0' marks a digit
_STAMP_DIGIT = _STAMP == ord("0")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def action_array(vocab_size: int, actions: Sequence[int]) -> np.ndarray:
    """``actions`` as int64, refusing any id outside [0, vocab_size) with ConfigError."""
    array = np.asarray(actions, dtype=np.int64)
    if array.size and (array.min() < 0 or array.max() >= vocab_size):
        raise ConfigError(f"action id outside [0, {vocab_size}) in {actions!r:.80}")
    return array


def text_lines(blob: bytes) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each line of ``blob``, split after each ``\n`` and
    decoded on its own; a line that is not UTF-8 raises MalformedRecordError."""
    start = lineno = 0
    while start < len(blob):
        end, lineno = blob.find(b"\n", start) + 1 or len(blob), lineno + 1
        try:
            line = str(blob[start:end], "utf-8")
        except UnicodeDecodeError:
            raise MalformedRecordError(lineno, "not UTF-8") from None
        yield lineno, line
        start = end


def format_decimals(values: np.ndarray) -> np.ndarray:
    """The canonical decimals of non-negative ints as ASCII digits in a new last
    axis, right-aligned and padded on the left with NUL bytes to the widest."""
    top = int(values.max(initial=0))
    rest = values.astype(np.min_scalar_type(top))
    digits = np.empty(values.shape + (len(str(top)),), dtype=np.uint8)
    rest, digit = np.divmod(rest, 10)
    digits[..., -1] = digit + ord("0")
    for column in range(digits.shape[-1] - 2, -1, -1):
        nonzero = rest != 0  # a leading zero becomes NUL
        rest, digit = np.divmod(rest, 10)
        digits[..., column] = (digit + ord("0")) * nonzero
    return digits


def text_rows(count: int, *fields) -> np.ndarray:
    """A uint8 matrix of ``count`` rows of text, field after field: a field is
    either a ``(count, width)`` uint8 matrix or bytes that every row shares."""
    fields = [np.frombuffer(f, np.uint8)[None] if isinstance(f, bytes) else f for f in fields]
    return np.concatenate([np.broadcast_to(f, (count, f.shape[1])) for f in fields], axis=1)


def parse_decimals(data: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The value and length of the run of ASCII digits in the uint8 ``data`` that
    ends just before each index in ``ends``, 0 and 0 for no run; and whether the
    run is a canonical decimal below 2**63: 1 to 18 digits, no leading zero.
    Every run must have a byte before it in ``data``.  A run of more than 18
    digits reads as length 19, with a meaningless value."""
    digit = np.take(data, ends - 1) - np.uint8(ord("0"))  # uint8: bytes below '0' wrap
    live = digit < 10
    value, length = np.where(live, digit, 0).astype(np.int64), live.astype(np.int64)
    at = np.flatnonzero(live)  # the runs still being read, right to left
    before = np.take(ends, at) - 2
    for exponent in range(1, 19):
        digit = np.take(data, before) - np.uint8(ord("0"))
        more = np.flatnonzero(digit < 10)
        if not more.size:
            break
        at, before = np.take(at, more), np.take(before, more) - 1
        value[at] += np.take(digit, more) * np.int64(10**exponent)
        length[at] += 1
    leading = np.take(data, ends - length) != ord("0")
    return value, length, (length >= 1) & (length <= 18) & ((length == 1) | leading)


@dataclass
class Vocabulary:
    """Bijection between action tokens and dense ids 0..V-1.

    Ids are assigned by descending occurrence count, ties broken
    lexicographically, so the mapping is reproducible from counts alone.
    """

    token_to_id: dict[str, int]
    id_to_token: list[str]
    counts: list[int]
    min_count: int

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int | None:
        return self.token_to_id.get(token)

    def decode(self, action_id: int) -> str:
        return self.id_to_token[action_id]


@dataclass
class StudentSequence:
    """One row of ``Corpus.sequences``: a student's actions and cohort flag."""

    student_id: str
    actions: list[int]
    certified: bool

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(eq=False)
class Corpus:
    """Encoded sequences as columns (see the module docstring)."""

    vocabulary: Vocabulary | None
    vocab_size: int
    actions: np.ndarray  # int64, every sequence's action ids concatenated
    lengths: np.ndarray  # int64, one entry per sequence, as are the two below
    students: np.ndarray  # object array of student ids
    certified: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def total_actions(self) -> int:
        return len(self.actions)

    @property
    def starts(self) -> np.ndarray:
        """The index in ``actions`` of each sequence's first action."""
        return np.cumsum(self.lengths) - self.lengths

    @property
    def pos(self) -> np.ndarray:
        """Each action's index within its own sequence."""
        return np.arange(len(self.actions)) - np.repeat(self.starts, self.lengths)

    def gather(self, index: np.ndarray) -> np.ndarray:
        """The index in ``actions`` of every action of the sequences picked by
        ``index`` (integer indices, in their order, or a boolean mask)."""
        lengths = self.lengths[index]
        shift = self.starts[index] - (np.cumsum(lengths) - lengths)
        return np.arange(int(lengths.sum())) + np.repeat(shift, lengths)

    def take(self, index: np.ndarray) -> "Corpus":
        """The sequences picked by ``index``, with their actions gathered into new columns."""
        return Corpus(self.vocabulary, self.vocab_size, self.actions[self.gather(index)],
                      self.lengths[index], self.students[index], self.certified[index])

    @property
    def sequences(self) -> list[StudentSequence]:
        """The corpus as rows, built on every access; the library reads the columns."""
        blocks = np.split(self.actions, np.cumsum(self.lengths)[:-1])
        return [
            StudentSequence(student, block.tolist(), flag)
            for student, block, flag in zip(self.students, blocks, self.certified.tolist())
        ]


@dataclass
class IngestStats:
    """Tallies from one ingestion run.

    ``dropped_token_events`` counts filtered-token events of students that
    survive; ``dropped_student_events`` counts every event of students whose
    sequence ended up empty.  Together with ``kept_actions`` they partition
    the parsed events exactly.
    """

    total_lines: int = 0
    ignored_lines: int = 0
    malformed_lines: int = 0
    parsed_events: int = 0
    kept_actions: int = 0
    dropped_token_events: int = 0
    dropped_student_events: int = 0
    dropped_students: int = 0
    unrostered_students: int = 0


@dataclass
class EventColumns:
    """Parsed events as columns in log order: each event's student (an index into
    ``students``, listed in order of first appearance), UTC time in microseconds,
    and action token (an index into ``tokens``)."""

    students: list[str]
    student: np.ndarray
    time: np.ndarray
    tokens: list[str]
    token: np.ndarray


def _parse_timestamp(text: str, lineno: int) -> datetime:
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise MalformedRecordError(lineno, f"bad timestamp {text!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


Event = tuple[datetime, str, str, str | None, str | None]


def parse_event(line: str, lineno: int = 0) -> Event:
    """Parse one tab-separated event record into (timestamp, student_id,
    event_type, page, object_name), an absent page or object name as None.

    Raises MalformedRecordError on a wrong field count, an empty or '-'
    required field, or an unparseable timestamp.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 5:
        raise MalformedRecordError(lineno, f"expected 5 fields, got {len(fields)}")
    ts_text, student_id, event_type, page, object_name = (f.strip() for f in fields)
    if not student_id or student_id == "-":
        raise MalformedRecordError(lineno, "missing student_id")
    if not event_type or event_type == "-":
        raise MalformedRecordError(lineno, "missing event_type")
    return (
        _parse_timestamp(ts_text, lineno),
        student_id,
        event_type,
        None if page in ("", "-") else page,
        None if object_name in ("", "-") else object_name,
    )


def _check_on_malformed(on_malformed: str) -> None:
    if on_malformed not in ("abort", "skip"):
        raise ConfigError(f"on_malformed must be 'abort' or 'skip', got {on_malformed!r}")


def _check_min_count(min_count: int) -> None:
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")


def _parse_line(line: str, lineno: int, on_malformed: str, stats: IngestStats) -> Event | None:
    """The per-line rule: the event of one line of the log, or None for a blank or
    '#' line and, under "skip", for a bad one; every line is tallied in ``stats``."""
    stats.total_lines += 1
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        stats.ignored_lines += 1
        return None
    try:
        event = parse_event(line, lineno)
    except MalformedRecordError:
        if on_malformed == "abort":
            raise
        stats.malformed_lines += 1
        return None
    stats.parsed_events += 1
    return event


def iter_events(
    log: bytes,
    on_malformed: str = "abort",
    stats: IngestStats | None = None,
) -> Iterator[Event]:
    """Yield the events of an event log held in memory, every line through the
    per-line rule.

    ``on_malformed`` is either "abort" (raise on the first bad line) or
    "skip" (count it and continue).  A line that is not UTF-8 raises
    MalformedRecordError under either, once the lines before it are read.
    """
    _check_on_malformed(on_malformed)
    stats = stats if stats is not None else IngestStats()
    for lineno, line in text_lines(bytes(log)):
        event = _parse_line(line, lineno, on_malformed, stats)
        if event is not None:
            yield event


def _action_token(names: dict[str, int], event, page, obj) -> np.ndarray:
    """Each event's action token, from its event-type, page and object-name codes
    (indices into ``names``, -1 for an absent page or object name): a problem
    check's object name, else the page, else the event type.  A problem check
    without an object name falls through to the page/event-type rule."""
    check = (event == names.get("save_problem_check", -1)) & (obj >= 0)
    return np.where(check, obj, np.where(page >= 0, page, event))


def _blocks(handle, digest) -> Iterator[tuple[bytearray, int]]:
    """The whole lines of an open file, about ``_BLOCK`` bytes of them at a time, at
    the head of a buffer with at least ``_MAX_FIELD`` bytes after them so that a field
    window from any line stays inside; and their count.  Only the last block may
    lack a final newline.  The buffer is reused, so a block is gone once the next
    is asked for.  ``digest`` takes every byte read, in order."""
    buf, held, more = bytearray(_BLOCK + _MAX_FIELD), 0, True
    while more:
        size = held  # the bytes of a partial line carried from the last block come first
        with memoryview(buf) as view:
            while more and size < len(buf) - _MAX_FIELD:
                got = handle.readinto(view[size : len(buf) - _MAX_FIELD])
                digest.update(view[size : size + got])
                size, more = size + got, got > 0
        cut = buf.rfind(b"\n", held, size) + 1 if more else size
        if cut:
            yield buf, cut
            held = size - cut
            buf[:held] = buf[cut:size]
        elif more:  # one line fills the buffer: double it
            buf, held = buf + bytes(len(buf)), size


def _mix(key: np.ndarray, word: np.ndarray) -> np.ndarray:
    """``key`` with one more 8-byte word of each value mixed in, in place."""
    key ^= word
    key *= np.uint64(0x9E3779B97F4A7C15)
    key ^= key >> np.uint64(29)
    return key


def _rows(buf: np.ndarray, span: int) -> np.ndarray:
    """The ``span`` bytes of ``buf`` from each index, a view of ``buf``."""
    return np.ndarray((len(buf) - span + 1, span), np.uint8, buf, 0, (1, 1))


def _windows(buf: np.ndarray, at: np.ndarray, width: np.ndarray, span: int) -> np.ndarray:
    """The ``span`` bytes of ``buf`` from each index in ``at``, those from ``width`` on
    set to NUL (which a bytes value drops at its end)."""
    rows = _rows(buf, span)[at]
    rows[np.arange(span) >= width[:, None]] = 0
    return rows


# the low n bytes of a word for n in 0..8, then zeros, which a negative n up to
# -_MAX_FIELD indexes from the end
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)] + [0] * _MAX_FIELD, dtype=np.uint64)


def _field(
    buf: np.ndarray, left: np.ndarray, right: np.ndarray
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct values of one field, the at most ``_MAX_FIELD`` bytes from ``left``
    up to ``right`` in each record, in the order of their keys; each record's index
    into them; and the record of each value's first use.

    A value's key mixes its 8-byte words, NUL past its end; every record's words
    are then checked against those of its key's first record, and only when two
    values share a key are the values sorted as bytes."""
    width = right - left
    widest = int(width.max(initial=1))
    unaligned = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # the 8 bytes from each index

    words = [unaligned[left + at] & _LOW_BYTES[np.minimum(width - at, 8)]
             for at in range(0, widest, 8)]
    key = np.zeros(len(left), dtype=np.uint64)
    for word in words:
        _mix(key, word)
    _, first, codes = np.unique(key, return_index=True, return_inverse=True)
    del key
    if any((word != word[first][codes]).any() for word in words):
        _, first, codes = np.unique(_windows(buf, left, width, widest).view(f"S{widest}")[:, 0],
                                    return_index=True, return_inverse=True)
    distinct = _windows(buf, left[first], width[first], widest).view(f"S{widest}")[:, 0]
    return [value.decode("utf-8") for value in distinct.tolist()], codes, first


# by a stamp's two-digit month: its days in a common year (0 for no month), and the days before it
_MONTH_DAYS = np.zeros(256, dtype=np.uint8)
_MONTH_DAYS[1:13] = 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31
_MONTH_START = np.zeros(256, dtype=np.int16)
_MONTH_START[1:13] = np.cumsum(_MONTH_DAYS[:12])
_EPOCH_DAYS = 719_162  # days from 0001-01-01 to 1970-01-01


def _stamp_times(buf: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The UTC time in microseconds of the ``YYYY-MM-DDTHH:MM:SSZ`` stamp at each index
    in ``at``, and whether it is one: a year from 1, a date of the calendar and a
    time of day, as ``datetime.fromisoformat`` reads them.  Any other time is
    meaningless."""
    stamps = _rows(buf, len(_STAMP))[at]
    valid = (stamps[:, ~_STAMP_DIGIT] == _STAMP[~_STAMP_DIGIT]).all(axis=1)
    digits = stamps[:, _STAMP_DIGIT] - np.uint8(ord("0"))  # uint8: bytes below '0' wrap
    valid &= (digits <= 9).all(axis=1)
    century, year, month, day, hour, minute, second = (
        digits[:, ::2] * np.uint8(10) + digits[:, 1::2]).T
    # a year is leap when 4 divides it, or for a century year, when 400 does
    leap = np.where(year == 0, century, year) % 4 == 0
    valid &= (((century > 0) | (year > 0)) & (day >= 1)
              & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))
              & (hour < 24) & (minute < 60) & (second < 60))
    before = century.astype(np.int32) * 100 + year - 1  # whole years since 0001-01-01
    days = (before * 365 + before // 4 - before // 100 + before // 400 - _EPOCH_DAYS
            + _MONTH_START[month] + (leap & (month > 2)) + day - 1)
    return (((days.astype(np.int64) * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000, valid


_ABSENT = (None, "", "-")  # an absent page or object name; as a student or event type, a bad line


def _canonical_records(data: np.ndarray, size: int):
    """The structural index of the whole lines ``data[:size]``, each line's end and
    start; its records, the lines that are neither blank nor '#' lines; the records
    in canonical form, their times, and each field's values (see ``_field``)."""
    ends = np.flatnonzero(data[:size] == ord("\n"))
    if size and data[size - 1] != ord("\n"):
        ends = np.append(ends, size)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    records = np.flatnonzero((ends > starts) & (data[starts] != ord("#")))
    canonical = np.ones(len(records), dtype=bool)
    if data[:size].min(initial=1) == 0:  # a bytes value would drop a trailing NUL
        canonical[np.isin(records, np.searchsorted(ends, np.flatnonzero(data[:size] == 0)))] = False
    tabs = np.flatnonzero(data[:size] == ord("\t"))
    first_tab = np.searchsorted(tabs, starts[records])
    canonical &= np.searchsorted(tabs, ends[records]) - first_tab == 4
    keep, first_tab = records[canonical], first_tab[canonical]
    # each record's line start, four tabs and line end; field k lies between edges k and k+1
    edges = [starts[keep], *(tabs[first_tab + j] for j in range(4)), ends[keep]]
    del tabs, first_tab
    time, canonical = _stamp_times(data, edges[0])
    canonical &= edges[1] - edges[0] == len(_STAMP)
    for k in (1, 2, 3, 4):
        canonical &= edges[k + 1] - edges[k] <= _MAX_FIELD + 1
    keep, time = keep[canonical], time[canonical]
    spans = [(edges[k][canonical] + 1, edges[k + 1][canonical]) for k in (1, 2, 3, 4)]
    del edges
    fields = [_field(data, *span) for span in spans]
    # a value with whitespace at an edge, which the per-line rule strips, or a missing
    # student or event type, makes its records odd
    canonical = ~np.any([np.array([value != value.strip() or k < 2 and value in _ABSENT
                                   for value in values], dtype=bool)[codes]
                         for k, (values, codes, _) in enumerate(fields)], axis=0)
    if not canonical.all():
        keep, time = keep[canonical], time[canonical]
        fields = [_field(data, left[canonical], right[canonical]) for left, right in spans]
    return ends, starts, records, keep, time, fields


def _block_columns(
    buf: bytearray, size: int, lineno: int, on_malformed: str, stats: IngestStats,
    students: dict[str, int], names: dict[str, int],
) -> tuple[int, list[np.ndarray]]:
    """The line count and the event columns (student, time, token) of the whole lines
    ``buf[:size]``, the first of them line ``lineno + 1`` of the log: records in
    canonical form split with array operations, each odd line through the per-line
    rule, and every value keyed into ``students`` or ``names`` at its first use."""
    ends, starts, records, keep, time, fields = _canonical_records(
        np.frombuffer(buf, dtype=np.uint8), size)
    kept = np.zeros(len(ends), dtype=bool)
    kept[keep] = True
    odd = records[~kept[records]]
    stats.total_lines += len(ends) - len(odd)
    stats.ignored_lines += len(ends) - len(records)
    stats.parsed_events += len(keep)
    events = []
    for line in odd.tolist():
        event = _parse_line(str(memoryview(buf)[starts[line] : ends[line]], "utf-8"),
                            lineno + line + 1, on_malformed, stats)
        if event is not None:
            events.append((line, event))

    # each field's canonical values, then its value in each odd event; keyed in
    # order of first use: by line, then field by field within a line
    at = np.concatenate((keep, np.array([line for line, _ in events], dtype=np.int64)))
    values = [values + [event[k] for _, event in events] for k, (values, _, _) in
              enumerate(fields, 1)]
    codes = [np.concatenate((codes, len(fields[k][0]) + np.arange(len(events))))
             for k, (_, codes, _) in enumerate(fields)]
    first_use = [at[np.concatenate((first, np.arange(len(keep), len(at))))]
                 for _, _, first in fields]
    for dictionary, columns in ((students, (0,)), (names, (1, 2, 3))):
        for *_, value in sorted((line, k, value) for k in columns
                                for line, value in zip(first_use[k].tolist(), values[k])
                                if value not in _ABSENT):
            dictionary.setdefault(value, len(dictionary))
    student, event, page, obj = (
        np.array([-1 if value in _ABSENT else (names if k else students)[value]
                  for value in values[k]], dtype=np.int64)[codes[k]] for k in range(4))
    time = np.concatenate((time, np.array([(event[0] - _EPOCH) // _MICROSECOND
                                           for _, event in events], dtype=np.int64)))
    if events:  # into log order
        order = np.argsort(at, kind="stable")
        student, time, event, page, obj = (c[order] for c in (student, time, event, page, obj))
    token = _action_token(names, event, page, obj)
    return len(ends), [student.astype(np.min_scalar_type(len(students))), time,
                       token.astype(np.min_scalar_type(len(names)))]


def _read_events(handle, on_malformed: str, stats: IngestStats, digest) -> EventColumns:
    """The events of an open event log as columns, read a block of whole lines at a
    time (see the module docstring); ``digest`` takes every byte read."""
    students: dict[str, int] = {}
    names: dict[str, int] = {}
    parts: tuple[list, list, list] = ([], [], [])
    lines = 0
    for buf, size in _blocks(handle, digest):
        end = size
        if np.frombuffer(buf, dtype=np.uint8)[:size].max(initial=0) >= 0x80:
            try:
                str(memoryview(buf)[:size], "utf-8")
            except UnicodeDecodeError as exc:  # read the lines before the first bad one
                end = buf.rfind(b"\n", 0, exc.start) + 1
        block_lines, columns = _block_columns(buf, end, lines, on_malformed, stats,
                                              students, names)
        lines += block_lines
        for part, column in zip(parts, columns):
            part.append(column)
        if end < size:
            raise MalformedRecordError(lines + 1, "not UTF-8")

    def joined(part: list) -> np.ndarray:  # each column's blocks go as it is joined
        column = np.concatenate(part) if part else np.zeros(0, dtype=np.int64)
        part.clear()
        return column

    student, time, token = map(joined, parts)
    return EventColumns(list(students), student, time, list(names), token)


def build_vocabulary(tokens: Iterable[str] | Mapping[str, int], min_count: int = 1) -> Vocabulary:
    """Count tokens (or take a mapping of token to count) and keep those
    occurring at least ``min_count`` times."""
    _check_min_count(min_count)
    counts = Counter(tokens)
    retained = sorted(
        ((token, n) for token, n in counts.items() if n >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    return Vocabulary(
        token_to_id={token: i for i, (token, _) in enumerate(retained)},
        id_to_token=[token for token, _ in retained],
        counts=[n for _, n in retained],
        min_count=min_count,
    )


def encode_corpus(
    columns: EventColumns,
    vocab: Vocabulary,
    roster: dict[str, bool],
    stats: IngestStats | None = None,
) -> Corpus:
    """Sort each student's events by time, log order breaking ties, and encode them.

    Events whose token is out of vocabulary are dropped; students with no
    surviving actions are omitted.  Students missing from the roster are
    treated as uncertified and tallied.
    """
    stats = stats if stats is not None else IngestStats()
    ids = np.array([vocab.token_to_id.get(t, -1) for t in columns.tokens], dtype=np.int64)
    ids = ids[columns.token]
    n_students = len(columns.students)
    events = np.bincount(columns.student, minlength=n_students)
    kept = np.bincount(columns.student[ids >= 0], minlength=n_students)
    ids = ids[np.lexsort((columns.time, columns.student))]  # stable, so log order breaks ties
    actions = ids[ids >= 0]
    dropped = kept == 0
    stats.dropped_students += int(dropped.sum())
    stats.dropped_student_events += int(events[dropped].sum())
    stats.dropped_token_events += int((events - kept)[~dropped].sum())
    stats.kept_actions += len(actions)
    students = np.array(columns.students, dtype=object)[~dropped]
    certified = np.fromiter(map(roster.get, students, repeat(False)), dtype=bool,
                            count=len(students))
    stats.unrostered_students += len(students) - sum(map(roster.__contains__, students))
    return Corpus(vocab, len(vocab), actions, kept[~dropped], students, certified)


def ingest_files(
    events_path: str | Path,
    roster_path: str | Path,
    min_count: int = 40,
    on_malformed: str = "abort",
    sha256: dict[str, str] | None = None,
) -> tuple[Corpus, IngestStats]:
    """Full ingestion from one read of each input, the event log a block of whole
    lines at a time.  A given ``sha256`` dict receives the SHA-256 of the bytes
    read, under "events" and "roster"."""
    _check_min_count(min_count)
    _check_on_malformed(on_malformed)
    sha256 = {} if sha256 is None else sha256
    stats = IngestStats()
    digest = hashlib.sha256()
    with open(events_path, "rb") as handle:
        columns = _read_events(handle, on_malformed, stats, digest)
    sha256["events"] = digest.hexdigest()
    counts = np.bincount(columns.token, minlength=len(columns.tokens)).tolist()
    vocab = build_vocabulary(dict(zip(columns.tokens, counts)), min_count=min_count)
    roster = Path(roster_path).read_bytes()
    sha256["roster"] = hashlib.sha256(roster).hexdigest()
    corpus = encode_corpus(columns, vocab, parse_roster(roster), stats)
    return corpus, stats


def filter_cohort(corpus: Corpus, certified: bool | None, min_actions: int = 1) -> Corpus:
    """Keep sequences of one cohort (of both for None) with at least ``min_actions`` actions."""
    if min_actions < 1:
        raise ConfigError(f"min_actions must be >= 1, got {min_actions}")
    keep = corpus.lengths >= min_actions
    if certified is not None:
        keep &= corpus.certified == certified
    return corpus.take(keep)


def parse_roster(blob: bytes) -> dict[str, bool]:
    """A roster's students and flags; a malformed line or a repeated student
    raises MalformedRecordError."""
    roster: dict[str, bool] = {}
    for lineno, line in text_lines(blob):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        if len(fields) != 2 or fields[1] not in ("0", "1"):
            raise MalformedRecordError(lineno, f"bad roster line {stripped!r}")
        if fields[0] in roster:
            raise MalformedRecordError(lineno, f"student {fields[0]!r} is listed twice")
        roster[fields[0]] = fields[1] == "1"
    return roster


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> bytes:
    """Write a vocabulary file; returns the bytes written."""
    lines = [f"#V={len(vocab)} min_count={vocab.min_count}\n"]
    for action_id, token in enumerate(vocab.id_to_token):
        lines.append(f"{token}\t{action_id}\t{vocab.counts[action_id]}\n")
    blob = "".join(lines).encode("utf-8")
    Path(path).write_bytes(blob)
    return blob


def load_vocabulary(blob: bytes) -> Vocabulary:
    """Parse a vocabulary file's bytes as ``save_vocabulary`` writes them; any other
    line, a blank one or a missing final newline included, raises MalformedRecordError."""
    lines = text_lines(blob)
    lineno, line = next(lines, (1, ""))
    head = _VOCAB_HEADER.fullmatch(line.removesuffix("\n"))
    if head is None:
        raise MalformedRecordError(1, "header is not '#V=<int> min_count=<int>'")
    declared_v, min_count = int(head[1]), int(head[2])
    id_to_token: list[str] = []
    counts: list[int] = []
    token_to_id: dict[str, int] = {}
    for lineno, line in lines:
        record = _VOCAB_RECORD.fullmatch(line.removesuffix("\n"))
        if record is None:
            raise MalformedRecordError(lineno, "record is not 'token <TAB> id <TAB> count'")
        token, id_text, count_text = record.groups()
        if int(id_text) != len(id_to_token):
            raise MalformedRecordError(lineno, "vocabulary ids out of order")
        if token in token_to_id:
            raise MalformedRecordError(lineno, f"duplicate token {token!r}")
        token_to_id[token] = len(id_to_token)
        id_to_token.append(token)
        counts.append(int(count_text))
    if not line.endswith("\n"):
        raise MalformedRecordError(lineno, "no newline at the end of the file")
    if len(id_to_token) != declared_v:
        raise MalformedRecordError(1, "vocabulary size mismatch with header")
    return Vocabulary(token_to_id, id_to_token, counts, min_count)


def save_corpus(corpus: Corpus, path: str | Path) -> bytes:
    """Write a NACT1 corpus file; returns the bytes written."""
    ids = corpus.actions.astype("<u4").tobytes()
    parts = [CORPUS_MAGIC, struct.pack("<II", corpus.vocab_size, len(corpus))]
    for student, certified, start, n in zip(
        corpus.students, corpus.certified.tolist(), corpus.starts.tolist(), corpus.lengths.tolist()
    ):
        sid = student.encode("utf-8")
        parts += [struct.pack("<I", len(sid)), sid, struct.pack("<BI", certified, n),
                  ids[4 * start : 4 * (start + n)]]
    blob = b"".join(parts)
    Path(path).write_bytes(blob)
    return blob


def load_corpus(blob: bytes, vocabulary: Vocabulary | None = None) -> Corpus:
    """Parse a NACT1 corpus file's bytes, refusing truncation, trailing bytes, ids
    >= V, and student ids that are empty, repeated, or hold a tab or a newline.

    Errors are MalformedRecordError with the byte offset of the bad field; of
    several bad fields, the first in the file is reported.  A str or Path is read
    first; ``corpus_facts`` in ``benchmarks/run.py`` is the one caller that passes one.
    """
    blob = Path(blob).read_bytes() if isinstance(blob, (str, Path)) else blob
    if blob[: len(CORPUS_MAGIC)] != CORPUS_MAGIC:
        raise MalformedRecordError(0, "bad corpus magic", unit="byte")
    offset = len(CORPUS_MAGIC)

    def take(size: int, what: str) -> int:
        nonlocal offset
        if offset + size > len(blob):
            raise MalformedRecordError(
                offset, f"truncated: {what} needs {size} bytes, {len(blob) - offset} left",
                unit="byte",
            )
        offset += size
        return offset - size

    vocab_size, n_sequences = struct.unpack_from("<II", blob, take(8, "the header"))
    if vocabulary is not None and len(vocabulary) != vocab_size:
        raise ConfigError(
            f"vocabulary size {len(vocabulary)} does not match corpus header {vocab_size}"
        )
    students, flags, lengths, blocks = [], [], [], []  # blocks: each sequence's id offset
    seen: set[str] = set()
    try:
        for _ in range(n_sequences):
            (sid_len,) = struct.unpack_from("<I", blob, take(4, "a student-id length"))
            at = take(sid_len, "a student id")
            try:
                sid = blob[at:offset].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(at, "student id is not UTF-8", unit="byte") from exc
            if not sid or "\t" in sid or "\n" in sid:
                raise MalformedRecordError(
                    at, f"student id {sid!r} is empty or holds a tab or a newline", unit="byte"
                )
            if sid in seen:
                raise MalformedRecordError(at, f"student id {sid!r} appears twice", unit="byte")
            seen.add(sid)
            at = take(5, "a sequence header")
            certified, n_actions = struct.unpack_from("<BI", blob, at)
            if certified > 1:
                raise MalformedRecordError(at, f"certified byte is {certified}, not 0 or 1",
                                           unit="byte")
            blocks.append(take(4 * n_actions, "the action ids"))
            students.append(sid)
            flags.append(certified == 1)
            lengths.append(n_actions)
        if offset != len(blob):
            raise MalformedRecordError(offset, f"{len(blob) - offset} trailing bytes", unit="byte")
    finally:  # every id read is checked, so a bad id is reported ahead of a later fault
        ids = np.frombuffer(b"".join(blob[at : at + 4 * n] for at, n in zip(blocks, lengths)),
                            dtype="<u4")
        bad = np.flatnonzero(ids >= vocab_size)[:1]
        if bad.size:
            ends = np.cumsum(lengths)
            sequence = int(np.searchsorted(ends, bad[0], side="right"))
            at = blocks[sequence] + 4 * int(bad[0] - ends[sequence] + lengths[sequence])
            raise MalformedRecordError(at, f"action id {ids[bad[0]]} >= V={vocab_size}",
                                       unit="byte")
    return Corpus(vocabulary, vocab_size, ids.astype(np.int64), np.array(lengths, dtype=np.int64),
                  np.array(students, dtype=object), np.array(flags, dtype=bool))

"""Event-log ingestion: parsing, action extraction, vocabulary, encoded corpora.

Input formats (UTF-8 text, one record per line; in the event log and roster,
lines starting with '#' and blank lines are ignored):

  event log:  timestamp <TAB> student_id <TAB> event_type <TAB> page <TAB> object_name
              absent optional fields (page, object_name) are written as '-'
  roster:     student_id <TAB> certified(0|1)
  vocabulary: header '#V=<int> min_count=<int>', then 'token <TAB> id <TAB> count'
              sorted by id; every line, the last included, ends in a line break

The event log is read from disk once.  A log in canonical form is split into
columns with array operations: no NUL byte, blank lines and '#' lines, and
records of five non-empty fields, a ``YYYY-MM-DDTHH:MM:SSZ`` stamp, no
whitespace at a field's edge, no field above ``_MAX_FIELD`` (128) bytes.  Any other
log, which may use any ISO-8601 stamp, padded fields or bad lines, goes through
the per-line reader (``iter_events``) over the same bytes, which gives the same
output for a canonical log and names the first bad line.  The bulk reader
builds each field's dictionary without sorting bytes: a value is keyed by a
64-bit mix of its 8-byte words (``_mix``), the keys are made unique, and every
record's words are checked against those of its key's first record; only when
two values share a key are that field's values sorted as bytes.  Both readers
list a field's values in order of first use, code each event's type, page and
object name alike and feed one action-token rule, one vocabulary rule and one
encoder.

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
import os
import re
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, MalformedRecordError

CORPUS_MAGIC = b"NACT1"
NUMBER = r"(?:0|[1-9][0-9]{0,17})"  # a canonical decimal below 2**63
_VOCAB_HEADER = re.compile(rf"#V=({NUMBER}) min_count=({NUMBER})")
_VOCAB_RECORD = re.compile(rf"([^\t]+)\t({NUMBER})\t({NUMBER})")
_MAX_FIELD = 128  # bytes; a longer event-log field sends the log to the per-line reader
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


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The ``text_lines`` of a file, read whole."""
    return text_lines(Path(path).read_bytes())


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


def parse_decimals(data: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and length of the run of ASCII digits in the uint8 ``data`` that
    ends just before each index in ``ends``; 0 and 0 for no run.  Every run must
    have a byte before it in ``data``.  A run of more than 18 digits reads as
    length 19, with a meaningless value."""
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
    return value, length


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


def iter_events(
    log: bytes,
    on_malformed: str = "abort",
    stats: IngestStats | None = None,
) -> Iterator[Event]:
    """Yield the events of an event log held in memory, one line at a time.

    ``on_malformed`` is either "abort" (raise on the first bad line) or
    "skip" (count it and continue).  A line that is not UTF-8 raises
    MalformedRecordError under either, once the lines before it are read.
    """
    _check_on_malformed(on_malformed)
    stats = stats if stats is not None else IngestStats()
    for lineno, line in text_lines(bytes(log)):
        stats.total_lines += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            stats.ignored_lines += 1
            continue
        try:
            event = parse_event(line, lineno)
        except MalformedRecordError:
            if on_malformed == "abort":
                raise
            stats.malformed_lines += 1
            continue
        stats.parsed_events += 1
        yield event


def _action_token(names: dict[str, int], event, page, obj) -> np.ndarray:
    """Each event's action token, from its event-type, page and object-name codes
    (indices into ``names``, -1 for an absent page or object name): a problem
    check's object name, else the page, else the event type.  A problem check
    without an object name falls through to the page/event-type rule."""
    check = (event == names.get("save_problem_check", -1)) & (obj >= 0)
    return np.where(check, obj, np.where(page >= 0, page, event))


def _line_columns(events: Iterable[Event]) -> EventColumns:
    """The per-line reader's events as columns."""
    students: dict[str, int] = {}
    names: dict[str, int] = {}
    student, time, fields = [], [], []
    for stamp, student_id, *raw in events:
        student.append(students.setdefault(student_id, len(students)))
        time.append((stamp - _EPOCH) // _MICROSECOND)
        fields.extend(-1 if name is None else names.setdefault(name, len(names)) for name in raw)
    event, page, obj = np.array(fields, dtype=np.int64).reshape(-1, 3).T
    return EventColumns(
        list(students), np.array(student, dtype=np.int64), np.array(time, dtype=np.int64),
        list(names), _action_token(names, event, page, obj),
    )


def _read_log(path: str | Path) -> tuple[np.ndarray, int]:
    """A file's bytes at the head of a uint8 array, with ``_MAX_FIELD`` zero bytes
    after them so that a field window from any line stays inside; and their count."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        buf = np.zeros(size + _MAX_FIELD, dtype=np.uint8)
        size = handle.readinto(memoryview(buf)[:size])
        rest = handle.read()  # what a pipe, which reports size 0, or a growing file holds
    if rest:
        buf = np.concatenate((buf[:size], np.frombuffer(rest, np.uint8), buf[size:]))
        size += len(rest)
    return buf, size


def _mix(key: np.ndarray, word: np.ndarray) -> np.ndarray:
    """``key`` with one more 8-byte word of each value mixed in, in place."""
    key ^= word
    key *= np.uint64(0x9E3779B97F4A7C15)
    key ^= key >> np.uint64(29)
    return key


def _windows(buf: np.ndarray, at: np.ndarray, width: np.ndarray, span: int) -> np.ndarray:
    """The ``span`` bytes of ``buf`` from each index in ``at``, those from ``width`` on
    set to NUL (which a bytes value drops at its end)."""
    rows = sliding_window_view(buf, span)[at]
    rows[np.arange(span) >= width[:, None]] = 0
    return rows


_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _field(
    buf: np.ndarray, left: np.ndarray, right: np.ndarray
) -> tuple[list[str], np.ndarray] | None:
    """The distinct values of one field, the bytes from ``left`` up to ``right`` in
    each record, in order of first use, and each record's index into them.  None
    when a value is empty, wider than ``_MAX_FIELD`` bytes or has whitespace at
    an edge, which the per-line reader strips.

    A value's key mixes its 8-byte words, NUL past its end; every record's words
    are then checked against those of its key's first record, and only when two
    values share a key are the values sorted as bytes."""
    width = right - left
    widest = int(width.max(initial=1))
    if width.min(initial=1) < 1 or widest > _MAX_FIELD:
        return None
    unaligned = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # the 8 bytes from each index

    def word(at: int) -> np.ndarray:
        return unaligned[left + at] & _LOW_BYTES[np.clip(width - at, 0, 8)]

    key = np.zeros(len(left), dtype=np.uint64)
    for at in range(0, widest, 8):
        _mix(key, word(at))
    _, first, codes = np.unique(key, return_index=True, return_inverse=True)
    del key
    if any((w != w[first][codes]).any() for w in map(word, range(0, widest, 8))):
        _, first, codes = np.unique(_windows(buf, left, width, widest).view(f"S{widest}")[:, 0],
                                    return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    distinct = _windows(buf, left[first], width[first], widest).view(f"S{widest}")[:, 0]
    names = [value.decode("utf-8") for value in distinct.tolist()]
    if any(name != name.strip() for name in names):
        return None
    return names, rank[codes]


def _bulk_columns(buf: np.ndarray, size: int, stats: IngestStats) -> EventColumns | None:
    """Split a log in canonical form (see the module docstring) into columns with
    array operations; for any other log return None and leave ``stats`` as it was."""
    data = buf[:size]
    if size and data.min() == 0:  # a bytes value would drop trailing NULs
        return None
    if size and data.max() >= 0x80:
        try:
            str(memoryview(data), "utf-8")
        except UnicodeDecodeError:
            return None
    ends = np.flatnonzero(data == ord("\n"))
    if size and data[-1] != ord("\n"):
        ends = np.append(ends, size)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    records = (ends > starts) & (buf[starts] != ord("#"))
    lines, starts, ends = len(ends), starts[records], ends[records]
    del records
    tabs = np.flatnonzero(data == ord("\t"))
    first_tab = np.searchsorted(tabs, starts)
    if (np.searchsorted(tabs, ends) - first_tab != 4).any():
        return None
    # each record's line start, four tabs and line end; field k lies between edges k and k+1
    edges = [starts, *(tabs[first_tab + j] for j in range(4)), ends]
    del starts, ends, tabs, first_tab

    if (edges[1] - edges[0] != len(_STAMP)).any():
        return None
    stamps = sliding_window_view(buf, len(_STAMP))[edges[0]]
    if ((stamps[:, _STAMP_DIGIT] - ord("0") > 9).any()  # uint8: bytes below '0' wrap
            or (stamps[:, ~_STAMP_DIGIT] != _STAMP[~_STAMP_DIGIT]).any()
            or (stamps[:, :4] == ord("0")).all(axis=1).any()):  # fromisoformat refuses year 0
        return None
    stamps[:, -1] = 0  # the Z
    try:
        time = stamps.view(f"S{len(_STAMP)}")[:, 0].astype("datetime64[s]").astype(np.int64)
    except ValueError:  # a day, hour, minute or second out of range
        return None
    del stamps
    time *= 1_000_000

    fields = []
    for column in (1, 2, 3, 4):
        edges[column - 1] = None  # no later field reads it
        field = _field(buf, edges[column] + 1, edges[column + 1])
        if field is None or column in (1, 2) and "-" in field[0]:
            return None
        fields.append(field)
    (students, student), *token_fields = fields

    names: dict[str, int] = {}
    event, page, obj = (
        np.array([-1 if value == "-" else names.setdefault(value, len(names)) for value in values],
                 dtype=np.int64)[codes]
        for values, codes in token_fields
    )

    stats.total_lines += lines
    stats.ignored_lines += lines - len(time)
    stats.parsed_events += len(time)
    return EventColumns(students, student, time, list(names),
                        _action_token(names, event, page, obj))


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
    """Full ingestion from one read of each input: a log in canonical form is split
    into columns in bulk, any other goes through the per-line reader.  A given
    ``sha256`` dict receives the SHA-256 of the bytes read, under "events" and
    "roster"."""
    _check_min_count(min_count)
    _check_on_malformed(on_malformed)
    sha256 = {} if sha256 is None else sha256
    stats = IngestStats()
    buf, size = _read_log(events_path)
    sha256["events"] = hashlib.sha256(memoryview(buf)[:size]).hexdigest()
    columns = _bulk_columns(buf, size, stats)
    if columns is None:
        columns = _line_columns(iter_events(memoryview(buf)[:size], on_malformed, stats))
    del buf
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


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file as ``save_vocabulary`` writes it; any other line,
    a blank one or a missing final newline included, raises MalformedRecordError."""
    lines = read_lines(path)
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


def load_corpus(path: str | Path, vocabulary: Vocabulary | None = None) -> Corpus:
    """Read a NACT1 corpus, refusing truncation, trailing bytes, ids >= V, and
    student ids that are empty, repeated, or hold a tab or a newline.

    Errors are MalformedRecordError with the byte offset of the bad field; of
    several bad fields, the first in the file is reported.
    """
    blob = Path(path).read_bytes()
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

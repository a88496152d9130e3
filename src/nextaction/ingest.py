"""Event-log ingestion: parsing, action extraction, vocabulary, encoded corpora.

Input formats (UTF-8 text, one record per line; in the event log and roster,
lines starting with '#' and blank lines are ignored):

  event log:  timestamp <TAB> student_id <TAB> event_type <TAB> page <TAB> object_name
              absent optional fields (page, object_name) are written as '-'
  roster:     student_id <TAB> certified(0|1)
  vocabulary: header '#V=<int> min_count=<int>', then 'token <TAB> id <TAB> count'
              sorted by id; every line, the last included, ends in a line break

The encoded corpus is a binary container (magic ``NACT1``, little-endian):
vocab size, sequence count, then per sequence the student-id length and bytes,
one certified byte, the action count, and the action ids as 32-bit unsigned.
"""

import re
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, MalformedRecordError

CORPUS_MAGIC = b"NACT1"
NUMBER = r"(?:0|[1-9][0-9]{0,17})"  # a canonical decimal below 2**63
_VOCAB_HEADER = re.compile(rf"#V=({NUMBER}) min_count=({NUMBER})")
_VOCAB_RECORD = re.compile(rf"([^\t]+)\t({NUMBER})\t({NUMBER})")


def action_array(vocab_size: int, actions: Sequence[int]) -> np.ndarray:
    """``actions`` as int64, refusing any id outside [0, vocab_size) with ConfigError."""
    array = np.asarray(actions, dtype=np.int64)
    if array.size and (array.min() < 0 or array.max() >= vocab_size):
        raise ConfigError(f"action id outside [0, {vocab_size}) in {actions!r:.80}")
    return array


def flatten(sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The actions of ``sequences`` concatenated as int64, and each action's index
    within its own sequence: the ``(actions, pos)`` that every model scores."""
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    total = int(lengths.sum())
    actions = np.fromiter(chain.from_iterable(sequences), dtype=np.int64, count=total)
    starts = np.cumsum(lengths) - lengths
    return actions, np.arange(total) - np.repeat(starts, lengths)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Stream ``(line number, text)`` pairs of a UTF-8 file; a line that is not
    UTF-8 raises MalformedRecordError with its number."""
    try:
        with open(path, encoding="utf-8", newline="\n") as handle:
            yield from enumerate(handle, start=1)
    except UnicodeDecodeError:
        blob = Path(path).read_bytes()  # the decoder runs ahead of the lines yielded
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecordError(blob.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None
        raise


@dataclass(frozen=True)
class RawEvent:
    """One parsed event-log record."""

    timestamp: datetime
    student_id: str
    event_type: str
    page: str | None = None
    object_name: str | None = None


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
    """One student's time-ordered encoded actions plus cohort flag."""

    student_id: str
    actions: list[int]
    certified: bool

    def __len__(self) -> int:
        return len(self.actions)


@dataclass
class Corpus:
    vocabulary: Vocabulary | None
    sequences: list[StudentSequence]
    vocab_size: int

    @property
    def total_actions(self) -> int:
        return sum(len(s) for s in self.sequences)

    def student_ids(self) -> list[str]:
        return [s.student_id for s in self.sequences]


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


def parse_event(line: str, lineno: int = 0) -> RawEvent:
    """Parse one tab-separated event record.

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
    return RawEvent(
        timestamp=_parse_timestamp(ts_text, lineno),
        student_id=student_id,
        event_type=event_type,
        page=None if page in ("", "-") else page,
        object_name=None if object_name in ("", "-") else object_name,
    )


def iter_events(
    path: str | Path,
    on_malformed: str = "abort",
    stats: IngestStats | None = None,
) -> Iterator[RawEvent]:
    """Yield events from an event-log file.

    ``on_malformed`` is either "abort" (raise on the first bad line) or
    "skip" (count it and continue).
    """
    if on_malformed not in ("abort", "skip"):
        raise ConfigError(f"on_malformed must be 'abort' or 'skip', got {on_malformed!r}")
    stats = stats if stats is not None else IngestStats()
    for lineno, line in read_lines(path):
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


def extract_action(event: RawEvent) -> str:
    """Map a raw event to its action token.

    Problem-check submissions are identified by their object name; any other
    event with an explicit page uses the page; the event type is the
    fallback.  A problem check without an object name falls through to the
    page/event-type rule.
    """
    if event.event_type == "save_problem_check" and event.object_name is not None:
        return event.object_name
    if event.page is not None:
        return event.page
    return event.event_type


def build_vocabulary(tokens: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Count tokens and keep those occurring at least ``min_count`` times."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
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
    rows: dict[str, list[tuple[datetime, int, str]]],
    vocab: Vocabulary,
    roster: dict[str, bool],
    stats: IngestStats | None = None,
) -> Corpus:
    """Sort each student's ``(timestamp, log order, token)`` rows and encode them.

    Events whose token is out of vocabulary are dropped; students with no
    surviving actions are omitted.  Students missing from the roster are
    treated as uncertified and tallied.
    """
    stats = stats if stats is not None else IngestStats()
    sequences = []
    for student_id, student_rows in rows.items():
        student_rows.sort(key=lambda row: (row[0], row[1]))  # stable on timestamp ties
        actions = []
        dropped_here = 0
        for _, _, token in student_rows:
            action_id = vocab.encode(token)
            if action_id is None:
                dropped_here += 1
            else:
                actions.append(action_id)
        if not actions:
            stats.dropped_students += 1
            stats.dropped_student_events += len(student_rows)
            continue
        stats.dropped_token_events += dropped_here
        stats.kept_actions += len(actions)
        if student_id not in roster:
            stats.unrostered_students += 1
        sequences.append(
            StudentSequence(
                student_id=student_id,
                actions=actions,
                certified=roster.get(student_id, False),
            )
        )
    return Corpus(vocabulary=vocab, sequences=sequences, vocab_size=len(vocab))


def ingest_files(
    events_path: str | Path,
    roster_path: str | Path,
    min_count: int = 40,
    on_malformed: str = "abort",
) -> tuple[Corpus, IngestStats]:
    """Full ingestion in one pass over the log, which fills the student rows as
    ``build_vocabulary`` counts the tokens."""
    stats = IngestStats()
    rows: dict[str, list[tuple[datetime, int, str]]] = {}

    def tokens() -> Iterator[str]:
        for order, event in enumerate(iter_events(events_path, on_malformed, stats)):
            token = extract_action(event)
            rows.setdefault(event.student_id, []).append((event.timestamp, order, token))
            yield token

    vocab = build_vocabulary(tokens(), min_count=min_count)
    corpus = encode_corpus(rows, vocab, load_roster(roster_path), stats)
    return corpus, stats


def filter_cohort(corpus: Corpus, certified: bool, min_actions: int = 1) -> Corpus:
    """Keep sequences of one cohort with at least ``min_actions`` actions."""
    if min_actions < 1:
        raise ConfigError(f"min_actions must be >= 1, got {min_actions}")
    kept = [
        s for s in corpus.sequences
        if s.certified == certified and len(s) >= min_actions
    ]
    return Corpus(vocabulary=corpus.vocabulary, sequences=kept, vocab_size=corpus.vocab_size)


def load_roster(path: str | Path) -> dict[str, bool]:
    """Read a roster; a malformed line or a repeated student raises MalformedRecordError."""
    roster: dict[str, bool] = {}
    for lineno, line in read_lines(path):
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


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    lines = [f"#V={len(vocab)} min_count={vocab.min_count}\n"]
    for action_id, token in enumerate(vocab.id_to_token):
        lines.append(f"{token}\t{action_id}\t{vocab.counts[action_id]}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    parts = [CORPUS_MAGIC, struct.pack("<II", corpus.vocab_size, len(corpus.sequences))]
    for seq in corpus.sequences:
        sid = seq.student_id.encode("utf-8")
        parts.append(struct.pack("<I", len(sid)))
        parts.append(sid)
        parts.append(struct.pack("<BI", 1 if seq.certified else 0, len(seq.actions)))
        parts.append(struct.pack(f"<{len(seq.actions)}I", *seq.actions))
    Path(path).write_bytes(b"".join(parts))


def load_corpus(path: str | Path, vocabulary: Vocabulary | None = None) -> Corpus:
    """Read a NACT1 corpus, refusing truncation, trailing bytes and ids >= V.

    Errors are MalformedRecordError with the byte offset of the bad field.
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
    sequences = []
    for _ in range(n_sequences):
        (sid_len,) = struct.unpack_from("<I", blob, take(4, "a student-id length"))
        at = take(sid_len, "a student id")
        try:
            sid = blob[at:offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecordError(at, "student id is not UTF-8", unit="byte") from exc
        at = take(5, "a sequence header")
        certified, n_actions = struct.unpack_from("<BI", blob, at)
        if certified > 1:
            raise MalformedRecordError(at, f"certified byte is {certified}, not 0 or 1", unit="byte")
        at = take(4 * n_actions, "the action ids")
        actions = np.frombuffer(blob, dtype="<u4", count=n_actions, offset=at)
        bad = np.flatnonzero(actions >= vocab_size)
        if bad.size:
            raise MalformedRecordError(
                at + 4 * int(bad[0]), f"action id {actions[bad[0]]} >= V={vocab_size}", unit="byte"
            )
        sequences.append(StudentSequence(sid, actions.tolist(), certified == 1))
    if offset != len(blob):
        raise MalformedRecordError(offset, f"{len(blob) - offset} trailing bytes", unit="byte")
    return Corpus(vocabulary=vocabulary, sequences=sequences, vocab_size=vocab_size)

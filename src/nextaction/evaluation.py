"""Student-level cross-validation, per-sequence accuracy, and model agreement.

Scoring rule, shared by every model: a sequence of length T is scored at
positions t = 2..T, predicting action t from actions 1..t-1.  The accuracy
of a sequence is the proportion of correct predictions; fold accuracy is the
mean over its sequences, and the cross-validated accuracy is the mean over
folds (macro averaging at both levels, not pooled over positions).

Every model meets one contract, the only call made on it here:
``model.predict_sequence(actions, pos)`` takes the int64 concatenation of
one or more sequences and each action's index within its own sequence (one
sequence is ``pos = arange(T)``; a corpus holds both as ``corpus.actions``
and ``corpus.pos``), and returns the int64 predictions for every action with
``pos >= 1``, in order, each made only from the earlier actions of its own
sequence.  ``sequence_accuracy`` makes that call once for a whole corpus;
any other number of predictions raises NextactionError.

Cross-validation has one entry point, ``cross_validate``, and every spec,
a small frozen object, meets one contract: ``spec.names`` names the models
it fits, and ``spec.fit_folds(corpus, folds, held_out)`` returns its
full-corpus fit (None if it skips it) and, per fold, each model's
predictions for the held-out sequences and the fold's extras (such as an
LSTM epoch curve).  ``FixedSpec`` and ``ngram.NGramSpec`` score every fold
in this process.  ``lstm.LstmSpec`` is fitted once per fold by
``pool_folds``, on forked worker processes that inherit the spec and corpus
and send back arrays, so reports are byte-identical at any worker count.
"""

import io
import multiprocessing
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

from .errors import ConfigError, MalformedRecordError, NextactionError
from .ingest import (
    LOW_BYTES, NUMBER, Corpus, count_byte, format_decimals, line_blocks, parse_decimals, text_lines,
    text_rows,
)

ACCURACY_FORMAT = "{:.10f}"


@dataclass
class FoldPlan:
    k: int
    seed: int
    assignment: dict[str, int]


@dataclass(frozen=True, eq=False)
class PredictionStream:
    """Four columns with one entry per scored position, the last three int64."""

    student: np.ndarray  # object array of interned student ids
    position: np.ndarray  # 1-indexed position of the predicted action (2..T)
    predicted: np.ndarray  # -1 for no prediction
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.position)


@dataclass
class EvalReport:
    model: str
    per_fold_accuracy: list[float]
    metadata: dict[str, str] = field(default_factory=dict)
    per_sequence: list[tuple[str, float]] | None = None
    skipped_sequences: int = 0
    streams: PredictionStream | None = None  # not serialized, only counted
    # not serialized: the spec's per-fold extras, and its full-corpus fit (None if skipped)
    fold_extras: list = field(default_factory=list)
    full_fit: tuple | None = None

    @property
    def cv_accuracy(self) -> float:
        return float(np.mean(self.per_fold_accuracy))

    def to_text(self) -> str:
        lines = [
            "# nextaction eval report",
            f"model: {self.model}",
            f"folds: {len(self.per_fold_accuracy)}",
            f"cv_accuracy: {ACCURACY_FORMAT.format(self.cv_accuracy)}",
        ]
        for i, acc in enumerate(self.per_fold_accuracy):
            lines.append(f"fold_accuracy.{i}: {ACCURACY_FORMAT.format(acc)}")
        lines.append(f"skipped_sequences: {self.skipped_sequences}")
        for key in sorted(self.metadata):
            lines.append(f"meta.{key}: {self.metadata[key]}")
        if self.per_sequence is not None:
            lines.append("per_sequence:")
            for student_id, prop in self.per_sequence:
                lines.append(f"{student_id}\t{ACCURACY_FORMAT.format(prop)}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = ["fold,accuracy"]
        rows.extend(
            f"{i},{ACCURACY_FORMAT.format(acc)}"
            for i, acc in enumerate(self.per_fold_accuracy)
        )
        return "\n".join(rows) + "\n"


def make_folds(students: Iterable[str], k: int, seed: int) -> FoldPlan:
    """Seeded shuffle of the sorted student set, then round-robin assignment."""
    unique = sorted(set(students))
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if len(unique) < k:
        raise ConfigError(f"{len(unique)} students cannot fill {k} folds")
    rng = np.random.default_rng([seed, 0xF01D])
    order = rng.permutation(len(unique))
    assignment = {unique[j]: i % k for i, j in enumerate(order)}
    return FoldPlan(k=k, seed=seed, assignment=assignment)


def hill_climb_split(
    corpus: Corpus,
    fraction: float = 0.1,
    seed: int = 0,
) -> tuple[Corpus, Corpus]:
    """Student-level holdout of ceil(fraction * n) sequences for hill climbing."""
    if not 0 < fraction < 1:
        raise ConfigError(f"holdout fraction must be in (0,1), got {fraction}")
    if len(corpus) < 2:
        raise ConfigError("hill-climb split needs at least 2 students")
    rng = np.random.default_rng([seed, 0xC11A])
    order = rng.permutation(len(corpus))
    n_holdout = int(np.ceil(fraction * len(corpus)))
    holdout = np.zeros(len(corpus), dtype=bool)
    holdout[np.argsort(corpus.students)[order[:n_holdout]]] = True  # drawn in student order
    return corpus.take(~holdout), corpus.take(holdout)


def _accuracy(corpus: Corpus, predictions: np.ndarray) -> np.ndarray:
    """Per-sequence proportion of positions 2..T that ``predictions``, a model's
    concatenated predictions for ``corpus``, got right."""
    lengths, truths = corpus.lengths, corpus.actions[corpus.pos >= 1]
    if predictions.shape != truths.shape:
        raise NextactionError(f"{predictions.size} predictions for {truths.size} positions")
    starts = np.cumsum(lengths - 1) - (lengths - 1)
    hits = np.add.reduceat(predictions == truths, starts, dtype=np.int64)
    return hits / (lengths - 1)


def sequence_accuracy(model, corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Per-sequence proportion of positions 2..T predicted correctly from the
    prior context, and the concatenated predictions, from one model call."""
    lengths = corpus.lengths
    if lengths.size == 0 or lengths.min() < 2:
        raise NextactionError("scoring needs sequences of at least 2 actions")
    predictions = np.asarray(model.predict_sequence(corpus.actions, corpus.pos))
    return _accuracy(corpus, predictions), predictions


@dataclass(frozen=True)
class FixedSpec:
    """A model that needs no training: every fold scores the same one, in this process."""

    model: object

    @property
    def names(self) -> list[str]:
        return [self.model.name]

    def fit_folds(self, corpus: Corpus, folds: np.ndarray, held_out: list[np.ndarray]):
        held = map(corpus.take, held_out)
        return ((self.model,), None), [
            ([self.model.predict_sequence(fold.actions, fold.pos)], None) for fold in held]


def _held_out(corpus: Corpus, folds: np.ndarray, fold: int) -> np.ndarray:
    """The indices of a fold's scoreable sequences, in student order."""
    index = np.flatnonzero((folds == fold) & (corpus.lengths >= 2))
    return index[np.argsort(corpus.students[index])]


def _run_task(job: tuple, fold: int | None):
    """One pool task: the full-corpus fit (fold None), or one fold fitted and scored.

    A fold yields, per model the spec fits, the predictions of its held-out
    sequences in one array, and its extras.  The job is the spec, the corpus,
    the fold of each of its sequences and the held-out sequences of each fold.
    """
    spec, corpus, folds, held_out = job
    if fold is None:
        return spec.fit(corpus, None)
    models, extras = spec.fit(corpus.take(folds != fold), fold)
    held = corpus.take(held_out[fold])
    return [model.predict_sequence(held.actions, held.pos) for model in models], extras


_job = None  # set in each pool worker by _adopt; the parent never sets it


def _adopt(job: tuple) -> None:
    global _job
    _job = job


def _pool_task(fold: int | None):
    return _run_task(_job, fold)


def _run_tasks(job: tuple, tasks: list, workers: int) -> list:
    """Results of ``tasks`` in order, on a pool of forked processes when workers > 1.

    The job reaches each worker by fork inheritance, so the corpus is not
    pickled per task; only fold indices and results cross the boundary.
    """
    if workers <= 1:
        return [_run_task(job, task) for task in tasks]
    # the package starts no threads of its own, and OpenBLAS stops its
    # threads before a fork and restarts them on demand
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(job,),
    )
    try:
        return list(pool.map(_pool_task, tasks))
    except BrokenProcessPool as exc:
        raise NextactionError(f"a fold worker stopped: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


def pool_folds(spec, corpus: Corpus, folds: np.ndarray, held_out: list[np.ndarray],
               workers: int = 1, fit_full: bool = False):
    """``fit_folds`` of a spec whose ``fit(train_corpus, fold)`` fits one fold, or the
    whole corpus as fold None: that task runs first with ``fit_full`` (else the fit is
    None), then the folds, in task order, forked onto ``workers`` processes if more than one."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    tasks = ([None] if fit_full else []) + list(range(len(held_out)))
    results = _run_tasks((spec, corpus, folds, held_out), tasks, workers)
    return results.pop(0) if fit_full else None, results


def prediction_stream(corpus: Corpus, predictions: np.ndarray) -> PredictionStream:
    """The stream of the sequences of ``corpus`` in order, from their concatenated
    predictions."""
    pos = corpus.pos
    scored = pos >= 1
    return PredictionStream(np.repeat(corpus.students, corpus.lengths - 1), pos[scored] + 1,
                            np.asarray(predictions, dtype=np.int64), corpus.actions[scored])


def cross_validate(spec, corpus: Corpus, plan: FoldPlan,
                   keep_streams: bool = False) -> list[EvalReport]:
    """One report per name of ``spec.names``, in that order, from one
    ``spec.fit_folds`` call (see the module doc); every report carries the
    folds' extras in fold order and the spec's full-corpus fit."""
    missing = set(corpus.students) - set(plan.assignment)
    if missing:
        raise ConfigError(f"fold plan does not cover students {sorted(missing)[:5]}")
    folds = np.fromiter(map(plan.assignment.__getitem__, corpus.students), dtype=np.int64,
                        count=len(corpus))

    held_out = [_held_out(corpus, folds, fold) for fold in range(plan.k)]
    for fold, index in enumerate(held_out):
        if not len(index):
            raise NextactionError(f"fold {fold} has no scoreable sequences")

    full_fit, results = spec.fit_folds(corpus, folds, held_out)
    held = [corpus.take(index) for index in held_out]
    scored = corpus.take(np.concatenate(held_out))  # in fold order

    reports = []
    for index, name in enumerate(spec.names):
        predictions = [np.asarray(scores[index]) for scores, _ in results]
        accuracies = [_accuracy(fold, p) for fold, p in zip(held, predictions)]
        per_sequence = np.concatenate(accuracies).tolist()
        report = EvalReport(
            model=name, per_fold_accuracy=[float(np.mean(a)) for a in accuracies],
            per_sequence=list(zip(scored.students.tolist(), per_sequence)),
            skipped_sequences=int((corpus.lengths < 2).sum()),
            fold_extras=[extras for _, extras in results], full_fit=full_fit,
        )
        report.metadata["folds.seed"] = str(plan.seed)
        if keep_streams:
            report.streams = prediction_stream(scored, np.concatenate(predictions))
            report.metadata["stream_records"] = str(len(report.streams))
        reports.append(report)
    return reports


def transfer_eval(model, corpus: Corpus, min_actions: int = 30) -> tuple[float, int]:
    """Macro accuracy of a fixed model on another cohort's sequences.

    Sequences shorter than ``min_actions`` (at least 1) are excluded first.
    Returns the accuracy and the number of sequences scored.
    """
    if min_actions < 1:
        raise ConfigError(f"min_actions must be >= 1, got {min_actions}")
    scored = corpus.take(corpus.lengths >= max(min_actions, 2))
    if not len(scored):
        raise NextactionError("no sequences satisfy the transfer filter")
    accuracies, _ = sequence_accuracy(model, scored)
    return float(np.mean(accuracies)), len(scored)


@dataclass
class AgreementTable:
    """2x2 counts over aligned prediction streams: (A correct?, B correct?)."""

    both_correct: int
    a_only: int
    b_only: int
    neither: int

    @property
    def total(self) -> int:
        return self.both_correct + self.a_only + self.b_only + self.neither

    def to_text(self) -> str:
        return (
            "# nextaction agreement table\n"
            f"both_correct: {self.both_correct}\n"
            f"a_only_correct: {self.a_only}\n"
            f"b_only_correct: {self.b_only}\n"
            f"neither_correct: {self.neither}\n"
            f"total: {self.total}\n"
        )


def agreement(a: PredictionStream, b: PredictionStream) -> AgreementTable:
    """Count joint correctness of two aligned prediction streams."""
    if len(a) != len(b):
        raise NextactionError(f"prediction streams differ in length: {len(a)} vs {len(b)}")
    aligned = (a.student == b.student) & (a.position == b.position) & (a.truth == b.truth)
    if not aligned.all():
        i = int(np.argmin(aligned))
        raise NextactionError(
            f"misaligned streams at {a.student[i]}:{a.position[i]} vs {b.student[i]}:{b.position[i]}"
        )
    cells = 2 * (a.predicted != a.truth) + (b.predicted != b.truth)
    return AgreementTable(*np.bincount(cells, minlength=4).tolist())


_TEXT_BYTES = 1 << 24  # the matrix of a block of stream records, as bounded by write_stream


def _check_stream(stream: PredictionStream, names: list[bytes], runs: np.ndarray) -> None:
    """Raise NextactionError for the first record that ``read_stream`` would refuse;
    ``names`` are the UTF-8 student ids of the runs of equal ids starting at ``runs``."""
    faults = [(int(runs[i]), "a student id that is empty or holds a tab or newline")
              for i, name in enumerate(names) if not name or b"\t" in name or b"\n" in name][:1]
    widest = np.maximum(np.maximum(stream.position, stream.predicted), stream.truth)
    checks = [(stream.position < 2, "position below 2"),
              (stream.predicted < -1, "predicted id below -1"),
              (stream.truth < 0, "negative truth"),
              (widest >= 10**18, "a value of 19 or more digits")]
    faults += [(int(np.argmax(bad)), reason) for bad, reason in checks if bad.any()]
    if faults:
        index, reason = min(faults)
        raise NextactionError(f"cannot write stream record {index + 1}: {reason}")


def _stream_text(stream: PredictionStream, names: list[bytes], runs: np.ndarray,
                 lo: int, hi: int) -> np.ndarray:
    """The text of records lo..hi-1 as packed bytes; ``runs`` are the first records
    of the stream's runs of equal student ids, and ``names`` their UTF-8 ids."""
    first, end = np.searchsorted(runs, lo, side="right") - 1, np.searchsorted(runs, hi)
    repeats = np.diff(np.append(np.maximum(runs[first:end], lo), hi))
    lengths = np.array([len(name) for name in names[first:end]], dtype=np.int64)
    own = np.arange(lengths.max()) < lengths[:, None]  # id bytes, NULs included
    ids = np.zeros(own.shape, dtype=np.uint8)
    ids[own] = np.frombuffer(b"".join(names[first:end]), dtype=np.uint8)
    predicted = stream.predicted[lo:hi]
    text = text_rows(
        hi - lo, np.repeat(ids, repeats, axis=0), b"\t", format_decimals(stream.position[lo:hi]),
        b"\t", (predicted < 0).astype(np.uint8)[:, None] * np.uint8(ord("-")),
        format_decimals(np.abs(predicted)), b"\t", format_decimals(stream.truth[lo:hi]), b"\n",
    )
    keep = text != 0
    keep[:, : own.shape[1]] = np.repeat(own, repeats, axis=0)
    return text[keep]


def write_stream(stream: PredictionStream, path: str | Path) -> None:
    """Write a stream as ``read_stream`` reads it, refusing a record it would refuse
    before writing any byte.  The fields are formatted as NUL-padded byte columns,
    each run of equal student ids encoded once, and packed once per block of
    records; a block's matrix stays near ``_TEXT_BYTES`` however long an id is."""
    student, count = stream.student, len(stream)
    runs = np.flatnonzero(np.concatenate(([True], student[1:] != student[:-1]))[:count])
    names = [name.encode("utf-8") for name in student[runs].tolist()]
    _check_stream(stream, names, runs)
    rows = max(1, _TEXT_BYTES // (max(map(len, names), default=0) + 64))  # ids, then 64 bytes
    with open(path, "wb") as out:
        for lo in range(0, count, rows):
            out.write(_stream_text(stream, names, runs, lo, min(lo + rows, count)))


# student, position >= 2, predicted (-1 for none), truth, in canonical decimals below
# 2**63, and a newline: the per-line check that names a bad file's first bad line
_STREAM_RECORD = re.compile(rf"([^\t\n]+)\t(?![01]\t){NUMBER}\t(?:-1|{NUMBER})\t{NUMBER}\n")


def _refuse_stream(blob: bytes) -> NoReturn:
    """Raise for the first line of a stream's bytes that is not a record."""
    for lineno, line in text_lines(blob):
        if _STREAM_RECORD.fullmatch(line) is None:
            raise MalformedRecordError(
                lineno, f"expected student, position >= 2, predicted, truth; got {line!r:.80}"
            )


def _parse_stream(data: np.ndarray, end: np.ndarray):
    """(id starts, id ends, position, predicted, truth) of the lines that start at
    index 0 and end at the newlines ``end`` of ``data``, or None unless each of
    them is a record."""
    start = np.concatenate(([0], end[:-1] + 1))

    def byte(at: np.ndarray) -> np.ndarray:  # an index below 0 only ever marks a bad line
        return np.take(data, np.maximum(at, 0))

    def field(stop: np.ndarray):
        """The canonical decimal that ends at ``stop``, whether it is one, and its tab."""
        value, length, canonical = parse_decimals(data, np.maximum(stop, 0))
        return value, canonical, stop - length - 1

    truth, good, tab = field(end)
    good &= byte(tab) == ord("\t")
    predicted, canonical, minus = field(tab)
    negative = byte(minus) == ord("-")
    good &= canonical & (~negative | (predicted == 1))
    tab = minus - negative
    good &= byte(tab) == ord("\t")
    position, canonical, tab = field(tab)
    good &= canonical & (position >= 2) & (byte(tab) == ord("\t")) & (tab > start)
    if not good.all() or np.count_nonzero(data[: end[-1]] == ord("\t")) != 3 * len(end):
        return None
    return start, tab, position, np.where(negative, -1, predicted), truth


def _id_runs(data: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The lines whose student id, ``data[start[i]:stop[i]]`` for line i, differs
    from the line before's, for lines that are records; the first line always
    does.  Only an id as long as the one before is compared, one 8-byte word a
    round, and only while its words so far are equal, so the work is bounded by
    the bytes of the ids, not by their number times the longest."""
    length = stop - start
    new = np.ones(len(start), dtype=bool)
    same = np.flatnonzero(length[1:] == length[:-1]) + 1
    new[same] = False
    # every id is followed by at least 7 bytes ("\t2\t0\t0\n"), so each word is in data
    words = np.ndarray(max(len(data) - 7, 0), "<u8", data, strides=(1,))
    offset = 0
    while len(same):
        left = length[same] - offset  # the id's bytes from this word on, at least 1
        xor = words[start[same] + offset] ^ words[start[same - 1] + offset]
        differ = xor & LOW_BYTES[np.minimum(left, 8)] != 0
        new[same[differ]] = True
        same = same[~differ & (left > 8)]
        offset += 8
    return np.flatnonzero(new)


def read_stream(blob: bytes) -> PredictionStream:
    """Parse a stream file's bytes as ``write_stream`` writes them: every line, the
    last included, is a non-empty student id, a position >= 2, a prediction (-1
    for none) and a truth in canonical integers, and a newline.

    The stream is read one block of whole lines at a time (``ingest.line_blocks``),
    into columns sized from its newlines (``ingest.count_byte``): each block's lines
    are checked and their three integer columns parsed backwards from each newline,
    and one string is decoded and interned per run of equal student ids.  Only a bad
    file is split into lines, to name its first bad line."""
    if blob and not blob.endswith(b"\n"):
        _refuse_stream(blob)
    count = count_byte(blob, b"\n")
    student = np.empty(count, dtype=object)
    position, predicted, truth = (np.empty(count, dtype=np.int64) for _ in range(3))
    line = 0
    for buf, size in line_blocks(io.BytesIO(blob)):
        data = np.frombuffer(buf, dtype=np.uint8)
        end = np.flatnonzero(data[:size] == ord("\n"))
        parsed = _parse_stream(data, end)
        if parsed is None:
            _refuse_stream(blob)
        start, stop, *columns = parsed
        runs = _id_runs(data, start, stop)
        # every byte outside the ids is ASCII and every id equals its run's first, so the
        # one string decoded per run, interned to be shared across blocks, checks the block
        try:
            names = [sys.intern(buf[a:b].decode("utf-8"))
                     for a, b in zip(start[runs].tolist(), stop[runs].tolist())]
        except UnicodeDecodeError:
            _refuse_stream(blob)
        rows = slice(line, line + len(end))
        student[rows] = np.repeat(np.array(names, dtype=object), np.diff(np.append(runs, len(end))))
        position[rows], predicted[rows], truth[rows] = columns
        line = rows.stop
    return PredictionStream(student, position, predicted, truth)

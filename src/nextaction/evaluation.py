"""Student-level cross-validation, per-sequence accuracy, and model agreement.

Scoring rule, shared by every model: a sequence of length T is scored at
positions t = 2..T, predicting action t from actions 1..t-1.  The accuracy
of a sequence is the proportion of correct predictions; fold accuracy is the
mean over its sequences, and the cross-validated accuracy is the mean over
folds (macro averaging at both levels, not pooled over positions).

Every model meets one contract, the only call made on it here:
``model.predict_sequence(actions, pos)`` takes the int64 concatenation of
one or more sequences and each action's index within its own sequence (one
sequence is ``pos = arange(T)``; ``ingest.flatten`` builds both), and returns
the int64 predictions for every action with ``pos >= 1``, in order, each made
only from the earlier actions of its own sequence.  ``sequence_accuracy``
makes that call once for a whole fold; any other number of predictions
raises NextactionError.

Cross-validation is driven by a spec, a small frozen object whose
``fit(train_corpus, fold)`` returns the fold's models and extras (such as
an LSTM epoch curve); fold None is the fit on the whole corpus.  Folds run
on a pool of forked worker processes, which inherit the spec and corpus and
send back arrays, so reports are byte-identical at any worker count.
"""

import multiprocessing
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, MalformedRecordError, NextactionError
from .ingest import NUMBER, Corpus, StudentSequence, flatten, read_lines

ACCURACY_FORMAT = "{:.10f}"


@dataclass
class FoldPlan:
    k: int
    seed: int
    assignment: dict[str, int]

    def students_in(self, fold: int) -> list[str]:
        return sorted(s for s, f in self.assignment.items() if f == fold)


@dataclass(slots=True)
class PredictionRecord:
    student_id: str
    position: int  # 1-indexed position of the predicted action (2..T)
    predicted: int
    truth: int


@dataclass
class EvalReport:
    model: str
    per_fold_accuracy: list[float]
    metadata: dict[str, str] = field(default_factory=dict)
    per_sequence: list[tuple[str, float]] | None = None
    skipped_sequences: int = 0
    streams: list["PredictionRecord"] | None = None  # not serialized, only counted
    # not serialized: the spec's per-fold extras, and its full-corpus fit if asked for
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


def read_report(path: str | Path) -> dict[str, str]:
    """Parse the flat key-value section of a saved report."""
    parsed: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or "\t" in line:
            continue
        if line == "per_sequence:":
            break
        if ": " in line:
            key, value = line.split(": ", 1)
            parsed[key] = value
    return parsed


def make_folds(students: Sequence[str], k: int, seed: int) -> FoldPlan:
    """Seeded shuffle of the sorted student set, then round-robin assignment."""
    unique = sorted(set(students))
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")
    if len(unique) < k:
        raise ConfigError(f"{len(unique)} students cannot fill {k} folds")
    rng = np.random.default_rng([seed, 0xF01D])
    order = rng.permutation(len(unique))
    assignment = {unique[j]: i % k for i, j in enumerate(order)}
    return FoldPlan(k=k, seed=seed, assignment=assignment)


def hill_climb_split(
    sequences: Sequence[StudentSequence],
    fraction: float = 0.1,
    seed: int = 0,
) -> tuple[list[StudentSequence], list[StudentSequence]]:
    """Student-level holdout of ceil(fraction * n) sequences for hill climbing."""
    if not 0 < fraction < 1:
        raise ConfigError(f"holdout fraction must be in (0,1), got {fraction}")
    ordered = sorted(sequences, key=lambda s: s.student_id)
    if len(ordered) < 2:
        raise ConfigError("hill-climb split needs at least 2 students")
    rng = np.random.default_rng([seed, 0xC11A])
    order = rng.permutation(len(ordered))
    n_holdout = int(np.ceil(fraction * len(ordered)))
    holdout_ids = {ordered[j].student_id for j in order[:n_holdout]}
    train = [s for s in sequences if s.student_id not in holdout_ids]
    holdout = [s for s in sequences if s.student_id in holdout_ids]
    return train, holdout


def sequence_accuracy(model, sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Per-sequence proportion of positions 2..T predicted correctly from the
    prior context, and the concatenated predictions, from one model call."""
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    if lengths.size == 0 or lengths.min() < 2:
        raise NextactionError("scoring needs sequences of at least 2 actions")
    actions, pos = flatten(sequences)
    predictions = np.asarray(model.predict_sequence(actions, pos))
    truths = actions[pos >= 1]
    if predictions.shape != truths.shape:
        raise NextactionError(f"{predictions.size} predictions for {truths.size} positions")
    starts = np.cumsum(lengths - 1) - (lengths - 1)
    hits = np.add.reduceat(predictions == truths, starts, dtype=np.int64)
    return hits / (lengths - 1), predictions


@dataclass(frozen=True)
class FixedSpec:
    """A model that needs no training: every fold scores the same one."""

    model: object

    def fit(self, train_corpus: Corpus, fold: int | None):
        return (self.model,), None


def _held_out(corpus: Corpus, plan: FoldPlan, fold: int) -> tuple[list[StudentSequence], int]:
    """A fold's scoreable sequences in student order, and how many are too short."""
    by_student = {s.student_id: s for s in corpus.sequences}
    seqs = [by_student[sid] for sid in plan.students_in(fold) if sid in by_student]
    scoreable = [s for s in seqs if len(s) >= 2]
    return scoreable, len(seqs) - len(scoreable)


def _run_task(job: tuple, fold: int | None):
    """One pool task: the full-corpus fit (fold None), or one fold fitted and scored.

    A fold yields its extras and, per model the spec fits, the per-sequence
    accuracies and the predictions of every scored sequence in one array.
    """
    spec, corpus, plan = job
    if fold is None:
        return spec.fit(corpus, None)
    held_out, _ = _held_out(corpus, plan, fold)
    if not held_out:
        raise NextactionError(f"fold {fold} has no scoreable sequences")
    train = [s for s in corpus.sequences if plan.assignment[s.student_id] != fold]
    models, extras = spec.fit(Corpus(corpus.vocabulary, train, corpus.vocab_size), fold)
    sequences = [s.actions for s in held_out]
    return [sequence_accuracy(model, sequences) for model in models], extras


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


def _records(seqs: list[StudentSequence], predictions: np.ndarray) -> list[PredictionRecord]:
    actions, pos = flatten([s.actions for s in seqs])
    sids = [s.student_id for s in seqs for _ in range(len(s) - 1)]
    scored = pos >= 1
    return list(map(PredictionRecord, sids, (pos[scored] + 1).tolist(), predictions.tolist(),
                    actions[scored].tolist()))


def cross_validate_each(
    spec,
    corpus: Corpus,
    plan: FoldPlan,
    model_names: Sequence[str],
    workers: int = 1,
    keep_streams: bool = False,
    fit_full: bool = False,
) -> list[EvalReport]:
    """One report per model the spec fits, from a single fit per fold.

    ``spec.fit(train_corpus, fold)`` returns the models to score on the
    held-out fold, in the order of ``model_names``, and the fold's extras,
    which every report carries in fold order.  With ``fit_full`` the reports
    also carry ``spec.fit(corpus, None)``, run as one more task ahead of the
    folds.  Tasks run on ``workers`` forked processes, except for a
    FixedSpec, and are merged in fold order, so reports do not depend on the
    worker count.
    """
    missing = set(corpus.student_ids()) - set(plan.assignment)
    if missing:
        raise ConfigError(f"fold plan does not cover students {sorted(missing)[:5]}")

    tasks = ([None] if fit_full else []) + list(range(plan.k))
    # a fixed model fits nothing, and scoring it costs less than forking workers
    results = _run_tasks((spec, corpus, plan), tasks, 1 if isinstance(spec, FixedSpec) else workers)
    full_fit = results.pop(0) if fit_full else None
    held_out = [_held_out(corpus, plan, fold) for fold in range(plan.k)]

    reports = []
    for index, name in enumerate(model_names):
        report = EvalReport(
            model=name, per_fold_accuracy=[], per_sequence=[],
            skipped_sequences=sum(skipped for _, skipped in held_out),
            fold_extras=[extras for _, extras in results], full_fit=full_fit,
        )
        streams: list[PredictionRecord] = []
        for (seqs, _), (scores, _) in zip(held_out, results):
            accuracies, predictions = scores[index]
            report.per_fold_accuracy.append(float(np.mean(accuracies)))
            report.per_sequence.extend(zip((s.student_id for s in seqs), accuracies.tolist()))
            if keep_streams:
                streams.extend(_records(seqs, predictions))
        report.metadata["folds.seed"] = str(plan.seed)
        if keep_streams:
            report.metadata["stream_records"] = str(len(streams))
            report.streams = streams
        reports.append(report)
    return reports


def cross_validate(
    spec,
    corpus: Corpus,
    plan: FoldPlan,
    model_name: str = "model",
    workers: int = 1,
    keep_streams: bool = False,
    fit_full: bool = False,
) -> EvalReport:
    """Train on k-1 folds, score the held-out fold, macro-average twice.

    ``spec`` fits one model per fold; see ``cross_validate_each``.
    """
    (report,) = cross_validate_each(
        spec, corpus, plan, [model_name], workers, keep_streams, fit_full
    )
    return report


def transfer_eval(model, corpus: Corpus, min_actions: int = 30) -> tuple[float, int]:
    """Macro accuracy of a fixed model on another cohort's sequences.

    Sequences shorter than ``min_actions`` are excluded first.  Returns the
    accuracy and the number of sequences scored.
    """
    scored = [s.actions for s in corpus.sequences if len(s) >= max(min_actions, 2)]
    if not scored:
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


def agreement(
    a: Sequence[PredictionRecord], b: Sequence[PredictionRecord]
) -> AgreementTable:
    """Count joint correctness of two aligned prediction streams."""
    if len(a) != len(b):
        raise NextactionError(f"prediction streams differ in length: {len(a)} vs {len(b)}")
    cells = [0, 0, 0, 0]
    for ra, rb in zip(a, b):
        if (ra.student_id, ra.position, ra.truth) != (rb.student_id, rb.position, rb.truth):
            raise NextactionError(
                f"misaligned streams at {ra.student_id}:{ra.position} vs {rb.student_id}:{rb.position}"
            )
        a_ok = ra.predicted == ra.truth
        b_ok = rb.predicted == rb.truth
        cells[(0 if a_ok else 2) + (0 if b_ok else 1)] += 1
    return AgreementTable(*cells)


def write_stream(records: Sequence[PredictionRecord], path: str | Path) -> None:
    lines = [
        f"{r.student_id}\t{r.position}\t{r.predicted}\t{r.truth}\n" for r in records
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")


# student, position >= 2, predicted (-1 for none), truth
_STREAM_RECORD = re.compile(rf"([^\t]+)\t([2-9]|[1-9][0-9]{{1,17}})\t(-1|{NUMBER})\t({NUMBER})\n")


def read_stream(path: str | Path) -> list[PredictionRecord]:
    """Read a stream as ``write_stream`` writes it: every line, the last
    included, is a non-empty student id, a position >= 2, a prediction (-1 for
    none) and a truth in canonical integers, and a newline."""
    records = []
    for lineno, line in read_lines(path):
        record = _STREAM_RECORD.fullmatch(line)
        if record is None:
            raise MalformedRecordError(
                lineno, f"expected student, position >= 2, predicted, truth; got {line!r:.80}"
            )
        sid, pos, pred, truth = record.groups()
        # one shared string per student keeps a long stream small
        records.append(PredictionRecord(sys.intern(sid), int(pos), int(pred), int(truth)))
    return records

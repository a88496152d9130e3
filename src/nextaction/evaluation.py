"""Student-level cross-validation, per-sequence accuracy, and model agreement.

Scoring rule, shared by every model: a sequence of length T is scored at
positions t = 2..T, predicting action t from actions 1..t-1.  The accuracy
of a sequence is the proportion of correct predictions; fold accuracy is the
mean over its sequences, and the cross-validated accuracy is the mean over
folds (macro averaging at both levels, not pooled over positions).

Every model meets one contract, the only call made on it here:
``model.predict_sequence(actions)`` returns the T-1 predictions for
positions 2..T in order, each made from the actions before it, as an int
array.  Any other number of predictions raises NextactionError.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, MalformedRecordError, NextactionError
from .ingest import Corpus, StudentSequence, read_lines

ACCURACY_FORMAT = "{:.10f}"


@dataclass
class FoldPlan:
    k: int
    seed: int
    assignment: dict[str, int]

    def fold_of(self, student_id: str) -> int:
        return self.assignment[student_id]

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


def _predictions(model, actions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The model's predictions for positions 2..T and the actions they predict."""
    predictions = np.asarray(model.predict_sequence(actions))
    truths = np.asarray(actions, dtype=np.int64)[1:]
    if predictions.shape != truths.shape:
        raise NextactionError(f"{predictions.size} predictions for {len(truths)} positions")
    return predictions, truths


def sequence_accuracy(model, actions: Sequence[int]) -> float:
    """Proportion of positions 2..T predicted correctly from the prior context."""
    if len(actions) < 2:
        raise NextactionError("sequences shorter than 2 cannot be scored")
    predictions, truths = _predictions(model, actions)
    return np.count_nonzero(predictions == truths) / len(truths)


def _score_sequence(
    model, seq: StudentSequence, keep_records: bool
) -> tuple[float, list[PredictionRecord]]:
    predictions, truths = _predictions(model, seq.actions)
    records = [
        PredictionRecord(seq.student_id, t, pred, truth)
        for t, pred, truth in zip(range(2, len(seq) + 1), predictions.tolist(), truths.tolist())
    ] if keep_records else []
    return np.count_nonzero(predictions == truths) / len(truths), records


ModelFactory = Callable[[Corpus, int], object]


def cross_validate(
    factory: ModelFactory,
    corpus: Corpus,
    plan: FoldPlan,
    model_name: str = "model",
    workers: int = 1,
    keep_streams: bool = False,
) -> EvalReport:
    """Train on k-1 folds, score the held-out fold, macro-average twice.

    Fold results are computed independently (optionally on worker threads)
    and merged in fold order, so reports do not depend on the worker count.
    """
    students = set(corpus.student_ids())
    missing = students - set(plan.assignment)
    if missing:
        raise ConfigError(f"fold plan does not cover students {sorted(missing)[:5]}")

    by_student = {s.student_id: s for s in corpus.sequences}

    def run_fold(fold: int):
        train_seqs = [
            s for s in corpus.sequences if plan.assignment[s.student_id] != fold
        ]
        train_corpus = Corpus(
            vocabulary=corpus.vocabulary,
            sequences=train_seqs,
            vocab_size=corpus.vocab_size,
        )
        model = factory(train_corpus, fold)
        props: list[tuple[str, float]] = []
        records: list[PredictionRecord] = []
        skipped = 0
        for sid in plan.students_in(fold):
            seq = by_student.get(sid)
            if seq is None:
                continue
            if len(seq) < 2:
                skipped += 1
                continue
            prop, recs = _score_sequence(model, seq, keep_streams)
            props.append((sid, prop))
            records.extend(recs)
        if not props:
            raise NextactionError(f"fold {fold} has no scoreable sequences")
        return props, records, skipped

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fold_results = list(pool.map(run_fold, range(plan.k)))
    else:
        fold_results = [run_fold(fold) for fold in range(plan.k)]

    per_fold = []
    per_sequence: list[tuple[str, float]] = []
    streams: list[PredictionRecord] = []
    skipped_total = 0
    for props, records, skipped in fold_results:
        per_fold.append(float(np.mean([p for _, p in props])))
        per_sequence.extend(props)
        streams.extend(records)
        skipped_total += skipped

    report = EvalReport(
        model=model_name,
        per_fold_accuracy=per_fold,
        per_sequence=per_sequence,
        skipped_sequences=skipped_total,
    )
    report.metadata["folds.seed"] = str(plan.seed)
    if keep_streams:
        report.metadata["stream_records"] = str(len(streams))
        report.streams = streams
    return report


def transfer_eval(model, corpus: Corpus, min_actions: int = 30) -> tuple[float, int]:
    """Macro accuracy of a fixed model on another cohort's sequences.

    Sequences shorter than ``min_actions`` are excluded first.  Returns the
    accuracy and the number of sequences scored.
    """
    props = [
        sequence_accuracy(model, seq.actions)
        for seq in corpus.sequences
        if len(seq) >= max(min_actions, 2)
    ]
    if not props:
        raise NextactionError("no sequences satisfy the transfer filter")
    return float(np.mean(props)), len(props)


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


def read_stream(path: str | Path) -> list[PredictionRecord]:
    records = []
    for lineno, line in read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            sid, pos, pred, truth = line.split("\t")  # int() ignores the line break
            # one shared string per student keeps a long stream small
            records.append(PredictionRecord(sys.intern(sid), int(pos), int(pred), int(truth)))
        except ValueError:
            raise MalformedRecordError(
                lineno, f"expected student, position, predicted, truth; got {line.rstrip()!r}"
            ) from None
    return records

"""Structural predictors: repeat-last, course-order successor, and their combination.

Each rule reads only the last action of the context (and a course-order
map), so none needs training.  Each class writes its rule once, over an array
of last actions: ``predict_sequence`` applies it to every action followed by
another of its own sequence, and ``predict`` to the last action of one
context.  The course-order model emits no prediction when the last action is
off the course order or is its final item; no-prediction is scored incorrect,
which keeps denominators identical across models.  The combined model stays
total by falling back to repeat in exactly those cases.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MalformedRecordError, NextactionError
from .ingest import Vocabulary, action_array, content_lines

NO_PREDICTION = -1  # sentinel id; never matches a real action


@dataclass
class SyllabusMap:
    """Course-ordered action ids and the course successor of every action id.

    ``successor_of`` has one entry per vocabulary id, NO_PREDICTION off the
    course order and at its final item.  ``coverage`` is the number of course
    items that resolved against the vocabulary; ``unmatched`` lists the
    tokens that did not.
    """

    items: list[int]
    successor_of: np.ndarray
    coverage: int
    unmatched: list[str]


def load_syllabus(blob: bytes, vocab: Vocabulary) -> SyllabusMap:
    """Parse a course-order file's bytes, one token per line, and resolve each
    token against the vocabulary."""
    seen: set[str] = set()
    items: list[int] = []
    unmatched: list[str] = []
    for lineno, token in content_lines(blob):
        if token in seen:
            raise MalformedRecordError(lineno, f"duplicate course item {token!r}")
        seen.add(token)
        action_id = vocab.encode(token)
        if action_id is None:
            unmatched.append(token)
        else:
            items.append(action_id)
    successor_of = np.full(len(vocab), NO_PREDICTION, dtype=np.int64)
    successor_of[items[:-1]] = items[1:]
    return SyllabusMap(items, successor_of, len(items), unmatched)


def _last(context: Sequence[int]) -> np.ndarray:
    if len(context) == 0:
        raise NextactionError("structural prediction needs a non-empty context")
    return np.asarray(context[-1:], dtype=np.int64)


def _previous(actions: Sequence[int], pos: Sequence[int]) -> np.ndarray:
    """The action before each scored position (``pos >= 1``) of concatenated sequences."""
    return np.asarray(actions, dtype=np.int64)[:-1][np.asarray(pos)[1:] >= 1]


class RepeatModel:
    """The next action is the last action."""

    name = "repeat"

    def predict(self, context: Sequence[int]) -> int:
        return int(_last(context)[0])

    def predict_sequence(self, actions: Sequence[int], pos: Sequence[int]) -> np.ndarray:
        return _previous(actions, pos)


class SyllabusModel:
    """The course-order successor of the last action; NO_PREDICTION if it has none."""

    name = "syllabus"

    def __init__(self, syllabus: SyllabusMap):
        self.syllabus = syllabus

    def rule(self, last: np.ndarray) -> np.ndarray:
        successor_of = self.syllabus.successor_of
        return successor_of[action_array(len(successor_of), last)]

    def predict(self, context: Sequence[int]) -> int:
        return int(self.rule(_last(context))[0])

    def predict_sequence(self, actions: Sequence[int], pos: Sequence[int]) -> np.ndarray:
        return self.rule(_previous(actions, pos))


class SyllabusRepeatModel(SyllabusModel):
    """Course-order successor when it exists, otherwise repeat the last action."""

    name = "syllabus+repeat"

    def rule(self, last: np.ndarray) -> np.ndarray:
        successor = super().rule(last)
        return np.where(successor < 0, last, successor)

    def predict(self, context: Sequence[int]) -> int:
        return int(self.rule(_last(context))[0])

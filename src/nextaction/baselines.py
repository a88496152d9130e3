"""Structural predictors: repeat-last, course-order successor, and their combination.

Each rule reads only the last action of the context (and a course-order
map), so none needs training, and ``predict_sequence`` scores a sequence by
applying ``predict`` to each action but the final one.  The course-order
model emits no prediction when the last action is off the course order or is
its final item; no-prediction is scored incorrect, which keeps denominators
identical across models.  The combined model stays total by falling back to
repeat in exactly those cases.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import DuplicateItemError, NextactionError
from .ingest import Vocabulary

NO_PREDICTION = -1  # sentinel id; never matches a real action


@dataclass
class SyllabusMap:
    """Course-ordered action ids with their positions.

    ``coverage`` is the number of course items that resolved against the
    vocabulary; ``unmatched`` lists the tokens that did not.
    """

    items: list[int]
    position_of: dict[int, int]
    coverage: int
    unmatched: list[str]

    def successor(self, action: int) -> int | None:
        """The course item after ``action``; None off the course order or at its end."""
        pos = self.position_of.get(action)
        if pos is None or pos + 1 >= len(self.items):
            return None
        return self.items[pos + 1]


def load_syllabus(path: str | Path, vocab: Vocabulary) -> SyllabusMap:
    """Read one token per line (course order) and resolve against the vocabulary."""
    seen: set[str] = set()
    items: list[int] = []
    unmatched: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            token = line.strip()
            if not token or token.startswith("#"):
                continue
            if token in seen:
                raise DuplicateItemError(f"duplicate course item {token!r}")
            seen.add(token)
            action_id = vocab.encode(token)
            if action_id is None:
                unmatched.append(token)
            else:
                items.append(action_id)
    return SyllabusMap(
        items=items,
        position_of={a: i for i, a in enumerate(items)},
        coverage=len(items),
        unmatched=unmatched,
    )


def _last(context: Sequence[int]) -> int:
    if len(context) == 0:
        raise NextactionError("structural prediction needs a non-empty context")
    return context[-1]


class RepeatModel:
    """The next action is the last action."""

    name = "repeat"

    def predict(self, context: Sequence[int]) -> int:
        return _last(context)

    def predict_sequence(self, actions: Sequence[int]) -> list[int]:
        return [self.predict((a,)) for a in actions[:-1]]


class SyllabusModel:
    """The course-order successor of the last action; NO_PREDICTION if it has none."""

    name = "syllabus"

    def __init__(self, syllabus: SyllabusMap):
        self.syllabus = syllabus

    def predict(self, context: Sequence[int]) -> int:
        successor = self.syllabus.successor(_last(context))
        return NO_PREDICTION if successor is None else successor

    def predict_sequence(self, actions: Sequence[int]) -> list[int]:
        return [self.predict((a,)) for a in actions[:-1]]


class SyllabusRepeatModel:
    """Course-order successor when it exists, otherwise repeat the last action."""

    name = "syllabus+repeat"

    def __init__(self, syllabus: SyllabusMap):
        self.syllabus = syllabus

    def predict(self, context: Sequence[int]) -> int:
        last = _last(context)
        successor = self.syllabus.successor(last)
        return last if successor is None else successor

    def predict_sequence(self, actions: Sequence[int]) -> list[int]:
        return [self.predict((a,)) for a in actions[:-1]]

"""Seeded generator of course-like event logs with a known transition kernel.

Students walk an action space of ``vocab_size`` tokens: the first
``syllabus_length`` are course-content pages in course order (every fifth one
a problem check), the rest are off-course pages (forum threads and the like).
At each step a student advances along the course order (from the most recent
on-course action in the lookback state, wrapping at the end), repeats the
last action, or jumps uniformly onto an off-course page.  With a lookback of
two the resulting process is order-2 Markov, so the conditional distribution
of the next action given the state is known exactly and the accuracy of the
best possible predictor can be estimated by Monte Carlo.

The uncertified cohort follows a perturbed kernel: its advance mass is
halved, the difference moved onto jumps, and a tenth of its students quit
early with very short logs.

Emitted files use the ingestion formats (event log, roster, course order).
"""

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import read_kv_file
from .errors import ConfigError

UNCERTIFIED_ADVANCE_FACTOR = 0.5
UNCERTIFIED_DROPOUT_FRACTION = 0.1
DROPOUT_LENGTH_RANGE = (3, 30)
PROBLEM_ITEM_STRIDE = 5
_BASE_INSTANT = datetime(2020, 1, 6, tzinfo=timezone.utc)


@dataclass(frozen=True)
class SynthConfig:
    vocab_size: int = 60
    syllabus_length: int = 12
    students_certified: int = 200
    students_uncertified: int = 100
    mean_sequence_length: int = 200
    p_advance: float = 0.75
    p_repeat: float = 0.12
    p_jump: float = 0.13
    markov_order: int = 2
    seed: int = 1234

    def validate(self) -> None:
        total = self.p_advance + self.p_repeat + self.p_jump
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"move probabilities must sum to 1, got {total!r}")
        if min(self.p_advance, self.p_repeat, self.p_jump) < 0:
            raise ConfigError("move probabilities must be non-negative")
        if not 2 <= self.syllabus_length <= self.vocab_size:
            raise ConfigError("syllabus_length must be in [2, vocab_size]")
        if self.students_certified < 1 or self.students_uncertified < 0:
            raise ConfigError("student counts must be positive")
        if self.mean_sequence_length < 2:
            raise ConfigError("mean sequence length must be >= 2")
        if self.markov_order < 1:
            raise ConfigError("markov_order must be >= 1")


def load_config(path: str | Path) -> SynthConfig:
    """Read a flat key=value file; unknown keys are rejected."""
    kinds = {name: f.type for name, f in SynthConfig.__dataclass_fields__.items()}
    cfg = SynthConfig(**read_kv_file(path, kinds))
    cfg.validate()
    return cfg


def save_config(cfg: SynthConfig, path: str | Path) -> None:
    lines = [
        f"{name}={getattr(cfg, name)}"
        for name in SynthConfig.__dataclass_fields__
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class GeneratorModel:
    """The explicit transition kernel induced by a config.

    ``distribution(state)`` returns the exact next-action probabilities for a
    lookback state (the most recent up-to-``markov_order`` actions), and is
    the same rule the sampler draws from.
    """

    def __init__(self, config: SynthConfig, p_advance: float | None = None):
        config.validate()
        self.config = config
        self.vocab_size = config.vocab_size
        self.syllabus_length = config.syllabus_length
        self.markov_order = config.markov_order
        self.p_advance = config.p_advance if p_advance is None else p_advance
        self.p_repeat = config.p_repeat
        self.p_jump = 1.0 - self.p_advance - self.p_repeat
        if self.p_jump < -1e-12:
            raise ConfigError("advance and repeat masses exceed 1")
        self.p_jump = max(self.p_jump, 0.0)

    def advance_target(self, state: Sequence[int]) -> int:
        """Successor of the most recent on-course action, item 0 if none."""
        for action in reversed(state):
            if action < self.syllabus_length:
                return (action + 1) % self.syllabus_length
        return 0

    def distribution(self, state: Sequence[int]) -> np.ndarray:
        if not state:
            raise ConfigError("the kernel needs at least one prior action")
        state = state[-self.markov_order:]
        probs = np.zeros(self.vocab_size)
        probs[self.advance_target(state)] += self.p_advance
        probs[state[-1]] += self.p_repeat
        n_off = self.vocab_size - self.syllabus_length
        if n_off > 0:
            probs[self.syllabus_length:] += self.p_jump / n_off
        else:
            probs += self.p_jump / self.vocab_size
        return probs

    def best_prediction(self, state: Sequence[int]) -> int:
        return int(np.argmax(self.distribution(state)))

    def sample_sequence(self, length: int, rng: np.random.Generator) -> list[int]:
        if length < 1:
            raise ConfigError("sequence length must be >= 1")
        seq = [0]  # every student starts at the first course item
        for _ in range(length - 1):
            probs = self.distribution(seq[-self.markov_order:])
            seq.append(int(rng.choice(self.vocab_size, p=probs)))
        return seq

    def sample_length(self, rng: np.random.Generator) -> int:
        return max(2, int(rng.poisson(self.config.mean_sequence_length)))


def certified_kernel(config: SynthConfig) -> GeneratorModel:
    return GeneratorModel(config)


def uncertified_kernel(config: SynthConfig) -> GeneratorModel:
    """Perturbed kernel: advance mass halved, the difference moved to jumps."""
    return GeneratorModel(config, p_advance=config.p_advance * UNCERTIFIED_ADVANCE_FACTOR)


def token_name(config: SynthConfig, action: int) -> str:
    """Stable token string for a generator action index."""
    if action < config.syllabus_length:
        if action % PROBLEM_ITEM_STRIDE == PROBLEM_ITEM_STRIDE - 1:
            return f"i4x://problem/p{action:03d}"
        return f"courseware/unit{action:03d}"
    off_index = action - config.syllabus_length
    if off_index == 0:
        return "page_close"
    return f"forum/thread{off_index:03d}"


def _event_fields(config: SynthConfig, action: int) -> tuple[str, str, str]:
    """(event_type, page, object_name) columns for one action."""
    token = token_name(config, action)
    if token.startswith("i4x://"):
        return "save_problem_check", "-", token
    if token == "page_close":
        return "page_close", "-", "-"
    return "page_view", token, "-"


@dataclass
class SynthOutputs:
    events_path: Path
    roster_path: Path
    syllabus_path: Path


def generate(config: SynthConfig, out_dir: str | Path) -> SynthOutputs:
    """Write the event log, roster, and course-order files for one config.

    Deterministic per seed: each student's walk uses a seed derived from the
    config seed and the student index.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = SynthOutputs(
        events_path=out / "events.tsv",
        roster_path=out / "roster.tsv",
        syllabus_path=out / "syllabus.txt",
    )

    cert = certified_kernel(config)
    uncert = uncertified_kernel(config)
    cohorts = [
        ("cert", cert, config.students_certified, True),
        ("unc", uncert, config.students_uncertified, False),
    ]

    event_lines = ["# timestamp\tstudent_id\tevent_type\tpage\tobject_name\n"]
    roster_lines = []
    for cohort_tag, kernel, n_students, certified in cohorts:
        for index in range(n_students):
            student_id = f"{cohort_tag}{index + 1:04d}"
            rng = np.random.default_rng([config.seed, 0x5E9, 0 if certified else 1, index])
            length = kernel.sample_length(rng)
            if not certified and rng.random() < UNCERTIFIED_DROPOUT_FRACTION:
                length = int(rng.integers(*DROPOUT_LENGTH_RANGE))
            for step, action in enumerate(kernel.sample_sequence(length, rng)):
                stamp = _format_timestamp(step)
                event_type, page, object_name = _event_fields(config, action)
                event_lines.append(
                    f"{stamp}\t{student_id}\t{event_type}\t{page}\t{object_name}\n"
                )
            roster_lines.append(f"{student_id}\t{1 if certified else 0}\n")

    outputs.events_path.write_text("".join(event_lines), encoding="utf-8")
    outputs.roster_path.write_text("".join(roster_lines), encoding="utf-8")
    outputs.syllabus_path.write_text(
        "".join(token_name(config, item) + "\n" for item in range(config.syllabus_length)),
        encoding="utf-8",
    )
    return outputs


def _format_timestamp(offset_seconds: int) -> str:
    # fixed 1-second spacing from a shared base instant
    stamp = _BASE_INSTANT + timedelta(seconds=offset_seconds)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def oracle_accuracy(
    kernel: GeneratorModel,
    horizon: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo accuracy of the best possible predictor on fresh sequences.

    Samples ``horizon`` sequences, scores positions 2..T with the kernel's
    argmax, and macro-averages the per-sequence proportions.  Returns the
    estimate and its standard error.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    rng = np.random.default_rng([seed, 0x0AC1E])
    props = []
    for _ in range(horizon):
        seq = kernel.sample_sequence(kernel.sample_length(rng), rng)
        correct = sum(
            kernel.best_prediction(seq[:t]) == seq[t] for t in range(1, len(seq))
        )
        props.append(correct / (len(seq) - 1))
    props_arr = np.asarray(props)
    stderr = float(props_arr.std(ddof=1) / np.sqrt(horizon)) if horizon > 1 else 0.0
    return float(props_arr.mean()), stderr

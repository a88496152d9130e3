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

The kernel, ``GeneratorModel._probs(target, last)``, reads a state only
through its advance target (the successor of its most recent on-course
action, item 0 if none) and its last action.  Sampling is table-driven: one
CDF row per such pair, built as ``Generator.choice`` builds its own, so
corpora are byte-identical per seed to those of one ``choice`` per step.

The uncertified cohort follows a perturbed kernel: its advance mass is
halved, the difference moved onto jumps, and a tenth of its students quit
early with very short logs.

Emitted files use the ingestion formats (event log, roster, course order).
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .config import read_kv_file
from .errors import ConfigError

UNCERTIFIED_ADVANCE_FACTOR = 0.5
UNCERTIFIED_DROPOUT_FRACTION = 0.1
DROPOUT_LENGTH_RANGE = (3, 30)
PROBLEM_ITEM_STRIDE = 5
_BASE_INSTANT = datetime(2020, 1, 6, tzinfo=timezone.utc)
_CHOICE_ATOL = np.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on the sum


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
        if not abs(total - 1.0) <= 1e-12:  # a nan sum fails this too
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def load_config(path: str | Path) -> SynthConfig:
    """Read a flat key=value file; unknown keys are rejected."""
    kinds = {name: f.type for name, f in SynthConfig.__dataclass_fields__.items()}
    cfg = SynthConfig(**read_kv_file(path, kinds))
    cfg.validate()
    return cfg


class GeneratorModel:
    """The explicit transition kernel induced by a config.

    ``_probs(target, last)`` returns the exact next-action probabilities for
    a lookback state (the most recent up-to-``markov_order`` actions) with
    that advance target and last action.  The sampler and
    ``oracle_accuracy`` read them through the rows of ``_rows``.
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
        # (advance target, last action) -> (CDF, argmax)
        self._table: dict[tuple[int, int], tuple[array, int]] = {}

    def _probs(self, target: int, last: int) -> np.ndarray:
        """The kernel's next-action probabilities for one (target, last) pair."""
        probs = np.zeros(self.vocab_size)
        probs[target] += self.p_advance
        probs[last] += self.p_repeat
        n_off = self.vocab_size - self.syllabus_length
        if n_off > 0:
            probs[self.syllabus_length:] += self.p_jump / n_off
        else:
            probs += self.p_jump / self.vocab_size
        return probs

    def _rows(self, seq: list[int]):
        """Yield the (CDF, argmax) row each next action of ``seq`` is drawn from.

        Reads ``seq`` lazily, so the sampler may append to it between steps,
        and tracks the age of the most recent on-course action.  A row is
        checked and built as ``Generator.choice`` checks and builds its CDF.
        """
        table, order, syllabus = self._table, self.markov_order, self.syllabus_length
        on_at, target = -order, 0
        for t, last in enumerate(seq):
            if last < syllabus:
                on_at, target = t, (last + 1) % syllabus
            elif t - on_at >= order:
                target = 0
            row = table.get((target, last))
            if row is None:
                probs = self._probs(target, last)
                total = probs.sum()
                if np.isnan(total) or (probs < 0).any() or abs(total - 1) > _CHOICE_ATOL:
                    raise ConfigError(f"move probabilities must be >= 0 and sum to 1: {probs}")
                cdf = probs.cumsum()
                cdf /= cdf[-1]
                row = table[target, last] = (array("d", cdf), int(np.argmax(probs)))
            yield row

    def sample_sequence(self, length: int, rng: np.random.Generator) -> list[int]:
        """A walk from item 0: ``length - 1`` doubles drawn at once (the same
        stream as one per step), each placed in its row's CDF as ``choice``'s
        ``searchsorted(side="right")`` places it."""
        if length < 1:
            raise ConfigError("sequence length must be >= 1")
        seq = [0]  # every student starts at the first course item
        for x, (cdf, _) in zip(rng.random(length - 1).tolist(), self._rows(seq)):
            seq.append(bisect_right(cdf, x))
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


def _event_columns(config: SynthConfig, action: int) -> str:
    """The event_type, page and object_name columns of one action's events."""
    token = token_name(config, action)
    if token.startswith("i4x://"):
        return f"\tsave_problem_check\t-\t{token}\n"
    if token == "page_close":
        return "\tpage_close\t-\t-\n"
    return f"\tpage_view\t{token}\t-\n"


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

    # each action's event columns and each step's timestamp are formatted once
    columns = [_event_columns(config, action) for action in range(config.vocab_size)]
    stamps: list[str] = []
    roster_lines = []
    with open(outputs.events_path, "w", encoding="utf-8") as events:
        events.write("# timestamp\tstudent_id\tevent_type\tpage\tobject_name\n")
        for cohort_tag, kernel, n_students, certified in cohorts:
            for index in range(n_students):
                student_id = f"{cohort_tag}{index + 1:04d}"
                rng = np.random.default_rng([config.seed, 0x5E9, 0 if certified else 1, index])
                length = kernel.sample_length(rng)
                if not certified and rng.random() < UNCERTIFIED_DROPOUT_FRACTION:
                    length = int(rng.integers(*DROPOUT_LENGTH_RANGE))
                stamps.extend(_format_timestamp(step) for step in range(len(stamps), length))
                events.write("".join(
                    f"{stamps[step]}\t{student_id}{columns[action]}"
                    for step, action in enumerate(kernel.sample_sequence(length, rng))
                ))
                roster_lines.append(f"{student_id}\t{1 if certified else 0}\n")

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

    Samples ``horizon`` sequences, scores positions 2..T with the argmax of
    each step's table row, and macro-averages the per-sequence proportions.
    Returns the estimate and its standard error.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    rng = np.random.default_rng([seed, 0x0AC1E])
    props = []
    for _ in range(horizon):
        seq = kernel.sample_sequence(kernel.sample_length(rng), rng)
        correct = sum(best == action for (_, best), action in zip(kernel._rows(seq), seq[1:]))
        props.append(correct / (len(seq) - 1))
    props_arr = np.asarray(props)
    stderr = float(props_arr.std(ddof=1) / np.sqrt(horizon)) if horizon > 1 else 0.0
    return float(props_arr.mean()), stderr

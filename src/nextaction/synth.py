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
action, item 0 if none) and its last action.  ``walks`` samples every
student of both cohorts in one lockstep, from keyed rows of the CDFs that
``Generator.choice`` would build (``GeneratorModel._draw_table``), so corpora
are byte-identical per seed to those of one ``choice`` per step.  The log is
written in blocks of whole students, as byte columns.

The uncertified cohort follows a perturbed kernel: its advance mass is
halved, the difference moved onto jumps, and a tenth of its students quit
early with very short logs.

Emitted files use the ingestion formats (event log, roster, course order).
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import check_shape, read_kv_file
from .errors import ConfigError
from .ingest import text_rows

UNCERTIFIED_ADVANCE_FACTOR = 0.5
UNCERTIFIED_DROPOUT_FRACTION = 0.1
DROPOUT_LENGTH_RANGE = (3, 30)
PROBLEM_ITEM_STRIDE = 5
_BASE_INSTANT = np.datetime64("2020-01-06T00:00:00", "s")  # UTC
_HEADER = b"# timestamp\tstudent_id\tevent_type\tpage\tobject_name\n"
_BLOCK = 8192  # events formatted at once when the log is written; more raises the peak RSS
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
        check_shape("a kernel row", self.vocab_size)
        check_shape("the student seeds", max(self.students_certified, self.students_uncertified),
                    8, itemsize=4)
        # a walk's Poisson length stays below twice a large mean
        check_shape("a walk of twice the mean length", 2 * self.mean_sequence_length)


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
    that advance target and last action.  The sampler reads them through
    the keyed rows of ``_draw_table``, ``oracle_accuracy`` through their argmax.
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

    def _cdf(self, target: int, last: int) -> np.ndarray:
        """The CDF that ``Generator.choice`` checks and builds from ``_probs``."""
        probs = self._probs(target, last)
        total = probs.sum()
        if np.isnan(total) or (probs < 0).any() or abs(total - 1) > _CHOICE_ATOL:
            raise ConfigError(f"move probabilities must be >= 0 and sum to 1: {probs}")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return cdf

    def _draw_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keyed CDF rows for the sampler: ``(values, counts, key)``.

        A draw ``u`` from state (target, last) reads the row ``key[last]`` of
        ``values`` and ``counts``: with ``j`` of its values <= u, the drawn action
        is ``counts[key, j] + target`` when that is below ``syllabus_length``, else
        ``counts[key, j]``.  That is ``bisect_right`` on the pair's CDF, since the
        CDF is zero up to its first bump, has at most two steps on the syllabus
        (at ``last`` and ``target``) and an off-syllabus tail that depends only on
        ``last``, one tail serving every on-syllabus ``last``.  So the keys are an
        on-syllabus ``last``, the last syllabus item (whose target wraps to 0),
        then each off-syllabus ``last``; a row holds the CDF at 0, at the last
        syllabus item and on the tail.  Without off-syllabus actions a row is
        the whole CDF of one ``last``, whose target is then fixed.
        """
        V, S = self.vocab_size, self.syllabus_length
        if V == S:
            successor = (np.arange(V) + 1) % S
            values = np.array([self._cdf(t, last) for last, t in enumerate(successor)])
            return values, np.arange(V) - successor[:, None], np.arange(V)
        cdfs = np.array([self._cdf(1, 0), self._cdf(0, S - 1),
                         *(self._cdf(0, last) for last in range(S, V))])
        counts = np.tile(np.r_[0, S, S:V], (len(cdfs), 1))
        counts[:2, :2] = [[-1, 0], [0, S - 1]]
        return (cdfs[:, np.r_[0, S - 1, S:V]], counts,
                np.r_[np.zeros(S - 1, dtype=np.int64), 1, 2:V - S + 2])

    def sample_sequence(self, length: int, rng: np.random.Generator) -> list[int]:
        """One walk from item 0 of ``length`` actions, its ``length - 1`` uniforms
        drawn at once from ``rng`` (the stream of one ``choice`` per step)."""
        if length < 1:
            raise ConfigError("sequence length must be >= 1")
        return walks([self], [rng.random(length - 1)], np.zeros(1, dtype=np.int64)).tolist()

    def sample_length(self, rng: np.random.Generator) -> int:
        return max(2, int(rng.poisson(self.config.mean_sequence_length)))


def walks(kernels: list[GeneratorModel], draws: list[np.ndarray],
          which: np.ndarray) -> np.ndarray:
    """Walks from item 0, walk ``i`` drawn by ``kernels[which[i]]`` from the
    uniforms ``draws[i]``, concatenated (each is ``len(draws[i]) + 1`` long).

    The walks step in lockstep, longest first, one numpy step per time index
    over the walks still going.  A walk's state is its row key (of its kernel
    and last action), the successor of its most recent on-syllabus action and
    that action's position.  A row is found by a search for (key, u) among
    (key, value) pairs, held as complex numbers, which sort by key, then value.
    The kernels share vocabulary, syllabus and order.
    """
    V, S, order = kernels[0].vocab_size, kernels[0].syllabus_length, kernels[0].markov_order
    tables = [kernel._draw_table() for kernel in kernels]
    values = np.concatenate([values for values, _, _ in tables])
    rows = np.empty(values.shape, dtype=complex)
    rows.real, rows.imag = np.arange(len(values))[:, None], values
    rows = rows.ravel()
    counts = np.concatenate([counts for _, counts, _ in tables]).ravel()
    key_of = np.concatenate([key + k * len(table[0])  # each kernel's keys after the last's
                             for k, (*table, key) in enumerate(tables)]).astype(float)
    successor = (np.arange(V) + 1) % S

    steps = np.array([len(d) for d in draws], dtype=np.int64)
    rank = np.argsort(-steps, kind="stable")  # longest first: the walks at step t are a prefix
    active = np.searchsorted(-steps[rank], -np.arange(steps.max(initial=0)), side="left")
    bounds = np.r_[0, np.cumsum(active)]
    step = np.arange(bounds[-1]) - np.repeat(np.cumsum(steps[rank]) - steps[rank], steps[rank])
    at = bounds[step] + np.repeat(np.arange(len(rank)), steps[rank])  # time-major position
    queries = np.zeros(bounds[-1] + len(rank), dtype=complex)  # each step's (key, u), time-major
    queries.imag[at] = np.concatenate([draws[i] for i in rank])
    base = np.asarray(which, dtype=np.int64)[rank] * V  # each walk's kernel, into key_of
    queries.real[:len(rank)] = key_of[base]  # every walk starts at item 0
    drawn = np.empty(bounds[-1], dtype=np.int64)
    recent = np.ones(len(rank), dtype=np.int64)
    since = np.zeros(len(rank), dtype=np.int64)
    target = recent.copy()
    n = None
    for t, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        if n != hi - lo:  # the walks still going
            n = hi - lo
            walk_recent, walk_since, walk_target, walk_base = (
                recent[:n], since[:n], target[:n], base[:n])
        action = counts.take(rows.searchsorted(queries[lo:hi], "right"))
        on = action < S
        np.add(action, walk_target, out=action, where=on)
        drawn[lo:hi] = action
        np.copyto(walk_recent, successor.take(action), where=on)
        np.copyto(walk_since, t + 1, where=on)
        np.multiply(walk_recent, walk_since > t + 1 - order, out=walk_target)
        # the keys of step t + 1, whose walks are a prefix of these
        queries.real[hi:hi + n] = key_of.take(walk_base + action)

    starts = np.cumsum(steps + 1) - steps - 1
    out = np.zeros(int(steps.sum()) + len(steps), dtype=np.int64)
    out[np.repeat(starts[rank] + 1, steps[rank]) + step] = drawn[at]
    return out


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


def _text_matrix(texts: list[str]) -> np.ndarray:
    """The UTF-8 bytes of each text as a row, padded on the right with NUL bytes."""
    encoded = np.array([text.encode("utf-8") for text in texts], dtype=bytes)
    return encoded.view(np.uint8).reshape(len(texts), -1)


class _Drawn(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state words are already drawn."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.state


def _student_seeds(seed: int, cohort: int, count: int) -> np.ndarray:
    """The PCG64 seed words of ``default_rng([seed, 0x5E9, cohort, index])`` for each
    index below ``count``, one row each: numpy's ``SeedSequence`` computed for all
    of them at once, as its mix of the uint32 words that list coerces to (a seed of
    2**32 or more spans several) into a pool of four, then ``generate_state``."""
    seed_words = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"),
                               dtype="<u4")
    entropy = [*(np.full(count, word, dtype=np.uint32) for word in (*seed_words, 0x5E9, cohort)),
               np.arange(count, dtype=np.uint32)]
    constant = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal constant
        value = value ^ np.uint32(constant)
        constant = constant * 0x931E8875 & 0xFFFFFFFF
        value = value * np.uint32(constant)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return value ^ value >> np.uint32(16)

    pool = [hashmix(word) for word in entropy[:4]]
    for source in range(4):
        for sink in range(4):
            if source != sink:
                pool[sink] = mix(pool[sink], hashmix(pool[source]))
    for word in entropy[4:]:
        for sink in range(4):
            pool[sink] = mix(pool[sink], hashmix(word))
    state, constant = np.empty((count, 8), dtype=np.uint32), 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(constant)
        constant = constant * 0x58F38DED & 0xFFFFFFFF
        value = value * np.uint32(constant)
        state[:, i] = value ^ value >> np.uint32(16)
    return state.view("<u8")


@dataclass
class SynthOutputs:
    events_path: Path
    roster_path: Path
    syllabus_path: Path
    sha256: dict[str, str]  # of the bytes written, by "events", "roster" and "syllabus"


def generate(config: SynthConfig, out_dir: str | Path) -> SynthOutputs:
    """Write the event log, roster, and course-order files for one config.

    Deterministic per seed: each student's walk uses a seed derived from the
    config seed, its cohort and its index.  Every student of both cohorts is
    walked in one lockstep; the log is written in blocks of whole students.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kernels = [certified_kernel(config), uncertified_kernel(config)]
    students, which, draws = [], [], []
    for cohort, (tag, count) in enumerate([("cert", config.students_certified),
                                           ("unc", config.students_uncertified)]):
        for index, seeds in enumerate(_student_seeds(config.seed, cohort, count)):
            rng = np.random.Generator(np.random.PCG64(_Drawn(seeds)))
            length = kernels[cohort].sample_length(rng)
            if cohort and rng.random() < UNCERTIFIED_DROPOUT_FRACTION:
                length = int(rng.integers(*DROPOUT_LENGTH_RANGE))
            draws.append(rng.random(length - 1))
            students.append(f"{tag}{index + 1:04d}")
            which.append(cohort)
    actions = walks(kernels, draws, np.array(which))
    lengths = np.array([len(d) + 1 for d in draws])

    # each step's timestamp: fixed 1-second spacing from a shared base instant
    stamps = np.datetime_as_string(_BASE_INSTANT + np.arange(lengths.max()), unit="s")
    stamps = stamps.astype(bytes).view(np.uint8).reshape(len(stamps), -1)
    ids = _text_matrix(students)
    columns = _text_matrix([_event_columns(config, a) for a in range(config.vocab_size)])
    starts = np.cumsum(lengths) - lengths
    events = hashlib.sha256(_HEADER)
    outputs = SynthOutputs(out / "events.tsv", out / "roster.tsv", out / "syllabus.txt", {})
    with open(outputs.events_path, "wb") as log:
        log.write(_HEADER)
        first = 0
        while first < len(students):  # a block of whole students, about _BLOCK events
            end = int(np.searchsorted(starts, starts[first] + _BLOCK))
            at = np.arange(starts[first], starts[end - 1] + lengths[end - 1])
            step = at - np.repeat(starts[first:end], lengths[first:end])
            student = np.repeat(np.arange(first, end), lengths[first:end])
            text = text_rows(len(at), stamps.take(step, 0), b"Z\t", ids.take(student, 0),
                             columns.take(actions[at], 0))
            text = text[text != 0]  # the padding
            log.write(text)
            events.update(text)
            first = end
    outputs.sha256["events"] = events.hexdigest()

    roster = "".join(f"{student}\t{1 - cohort}\n" for student, cohort in zip(students, which))
    syllabus = "".join(token_name(config, item) + "\n" for item in range(config.syllabus_length))
    for label, path, text in (("roster", outputs.roster_path, roster),
                              ("syllabus", outputs.syllabus_path, syllabus)):
        blob = text.encode("utf-8")
        path.write_bytes(blob)
        outputs.sha256[label] = hashlib.sha256(blob).hexdigest()
    return outputs


def oracle_accuracy(
    kernel: GeneratorModel,
    horizon: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo accuracy of the best possible predictor on fresh sequences.

    Samples ``horizon`` sequences, scores positions 2..T with the argmax of
    each step's kernel row, and macro-averages the per-sequence proportions.
    Returns the estimate and its standard error.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    rng = np.random.default_rng([seed, 0x0AC1E])
    draws = [rng.random(kernel.sample_length(rng) - 1) for _ in range(horizon)]
    seqs = walks([kernel], draws, np.zeros(horizon, dtype=np.int64))
    S, V = kernel.syllabus_length, kernel.vocab_size
    # the argmax of each last action's row with the advance target its own successor
    # (on the syllabus) or item 0 (off it); an off-syllabus row's head is one bump
    # at the target, so its argmax with target x is max(argmax at 0, x)
    best = np.array([np.argmax(kernel._probs((last + 1) % S if last < S else 0, last))
                     for last in range(V)])
    index = np.arange(len(seqs))
    latest = np.maximum.accumulate(np.where(seqs < S, index, 0))  # each walk starts on item 0
    target = np.where(index - latest < kernel.markov_order, (seqs[latest] + 1) % S, 0)
    guess = np.where(seqs < S, best[seqs], np.maximum(best[seqs], target))
    hits = np.r_[0, np.cumsum(guess[:-1] == seqs[1:])]
    lengths = np.array([len(d) + 1 for d in draws])
    ends = np.cumsum(lengths)
    props = (hits[ends - 1] - hits[ends - lengths]) / (lengths - 1)
    stderr = float(props.std(ddof=1) / np.sqrt(horizon)) if horizon > 1 else 0.0
    return float(props.mean()), stderr

"""The benchmark's workloads: a seeded synthetic corpus and the CLI stages run on it.

Every workload generates its corpus with ``nextaction synth`` from the
workload seed (set-up, paid once per corpus), then runs its pipeline: the
subcommands a user would type after ``ingest``.  Each stage names the files
it writes, so outputs can be verified and attributed to the call that made
them.
"""

from dataclasses import dataclass
from pathlib import Path

FOLD_SEED = 7  # the CV --seed; the corpus seed is the workload seed


@dataclass(frozen=True)
class Stage:
    """One CLI invocation: its argv and the files it writes."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    blas_dependent: bool = False  # outputs hold floats from BLAS kernels


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict[str, int]  # SynthConfig fields other than the seed
    min_count: int
    pipeline: str  # "ngram" (n-gram + baseline), "lstm" (LSTM vs n-gram) or "both"
    max_order: int = 3
    lstm_args: tuple[str, ...] = ()
    oracle_stage: str | None = None  # stage whose CV accuracy meets the frozen oracle


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="course-10x",
            why="10x the default students with short logs: set-up, 3-gram fit and lookup "
                "and stream I/O dominate; the LSTM is bypassed",
            synth={"students_certified": 2000, "students_uncertified": 1000,
                   "mean_sequence_length": 40},
            min_count=40,
            pipeline="ngram",
            max_order=3,
            oracle_stage="ngram",
        ),
        Workload(
            name="long-sessions",
            why="few students with very long logs: O(T^2) prefix slicing per position and "
                "a large 10-gram table to save and load",
            # five uncertified logs, so that the chance that all five are early quits
            # (1 in 10 each) and leave eval nothing to score is 1e-5 per seed
            synth={"students_certified": 8, "students_uncertified": 5,
                   "mean_sequence_length": 8000},
            min_count=40,
            pipeline="ngram",
            max_order=10,
        ),
        Workload(
            name="lstm-default",
            why="the default corpus and the paper's LSTM vs 3-gram head-to-head: LSTM "
                "training and scoring dominate",
            synth={},
            min_count=40,
            pipeline="lstm",
            lstm_args=("--layers", "2", "--nodes", "32", "--window", "10", "--epochs", "2"),
        ),
        # not in BENCHMARK.json: a few-second corpus (the criterion-8 config) that
        # exercises every layer, for the benchmark's own tests
        Workload(
            name="smoke",
            why="every layer on a tiny corpus, for the harness tests",
            synth={"vocab_size": 16, "syllabus_length": 8, "students_certified": 15,
                   "students_uncertified": 5, "mean_sequence_length": 40},
            min_count=1,
            pipeline="both",
            lstm_args=("--layers", "1", "--nodes", "8", "--window", "5", "--epochs", "2",
                       "--emb-dim", "8"),
        ),
    )
}


def synth_config_text(workload: Workload) -> str:
    return "".join(f"{key}={value}\n" for key, value in sorted(workload.synth.items()))


def setup_stages(workload: Workload, seed: int, data: Path) -> list[Stage]:
    """synth + ingest into ``data``; the config file must already be written there."""
    return [
        Stage("synth", (
            "synth", "--config", str(data / "synth.cfg"), "--seed", str(seed),
            "--out-dir", str(data), "--report", str(data / "synth.txt"),
        ), tuple(data / n for n in ("events.tsv", "roster.tsv", "syllabus.txt", "synth.txt"))),
        Stage("ingest", (
            "ingest", "--events", str(data / "events.tsv"), "--roster", str(data / "roster.tsv"),
            "--min-count", str(workload.min_count), "--out-dir", str(data),
            "--report", str(data / "ingest.txt"),
        ), tuple(data / n for n in ("vocab.tsv", "corpus.nact", "ingest.txt"))),
    ]


def pipeline_stages(workload: Workload, data: Path, out: Path, workers: int) -> list[Stage]:
    """The subcommands after ingest, reading ``data`` and writing into ``out``."""
    corpus = ("--corpus", str(data / "corpus.nact"), "--vocab", str(data / "vocab.tsv"))
    cv = ("--seed", str(FOLD_SEED), "--workers", str(workers))

    def ngram(order: int, save: bool) -> Stage:
        argv = ("ngram", *corpus, "--max-order", str(order), *cv,
                "--stream", str(out / "ngram.pred"), "--report", str(out / "ngram.txt"))
        outputs = [out / "ngram.pred", out / "ngram.txt"]
        if save:
            argv += ("--usage", "--save-model", str(out / "ngram.model"))
            outputs.append(out / "ngram.model")
        return Stage("ngram", argv, tuple(outputs))

    def lstm() -> Stage:
        argv = ("lstm", *corpus, *workload.lstm_args, *cv,
                "--save-model", str(out / "lstm.model"), "--stream", str(out / "lstm.pred"),
                "--report", str(out / "lstm.txt"), "--out-dir", str(out))
        names = ["lstm.model", "lstm.model.manifest.txt", "lstm.pred", "lstm.txt",
                 "curve-final.csv", *(f"curve-fold{k}.csv" for k in range(5))]
        return Stage("lstm", argv, tuple(out / n for n in names), blas_dependent=True)

    def baseline() -> Stage:
        return Stage("baseline", (
            "baseline", *corpus, "--model", "combined", "--syllabus", str(data / "syllabus.txt"),
            *cv, "--stream", str(out / "baseline.pred"), "--report", str(out / "baseline.txt"),
        ), (out / "baseline.pred", out / "baseline.txt"))

    def evaluate(model: str, blas: bool) -> Stage:
        return Stage("eval", (
            "eval", *corpus, "--model", str(out / model), "--cohort", "uncertified",
            "--min-actions", "30", "--report", str(out / "transfer.txt"),
        ), (out / "transfer.txt",), blas_dependent=blas)

    def agree(a: str, b: str, blas: bool) -> Stage:
        return Stage("agree", (
            "agree", str(out / a), str(out / b), "--report", str(out / "agree.txt"),
        ), (out / "agree.txt",), blas_dependent=blas)

    if workload.pipeline == "ngram":
        return [ngram(workload.max_order, save=True), baseline(),
                evaluate("ngram.model", blas=False),
                agree("ngram.pred", "baseline.pred", blas=False)]
    if workload.pipeline == "lstm":
        return [lstm(), ngram(workload.max_order, save=False),
                evaluate("lstm.model", blas=True),
                agree("lstm.pred", "ngram.pred", blas=True)]
    return [ngram(workload.max_order, save=True), lstm(), baseline(),  # "both"
            evaluate("ngram.model", blas=False),
            agree("lstm.pred", "ngram.pred", blas=True)]

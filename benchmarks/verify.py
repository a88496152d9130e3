"""Checks on what each CLI call wrote: exit codes, pinned digests and invariants.

A call whose exit code is not 0, whose output differs from its expected
SHA-256, or whose output breaks an invariant is a failed operation.  The
invariants hold on any seed: every prediction stream has as many records as
its report says it scored, the agreement table counts exactly those
positions, the transfer evaluation scores at least one sequence, and on the
workload that names it the 3-gram CV accuracy is within 0.02 of the
generator's frozen oracle.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Stage, Workload

# FROZEN_ORACLE_ACCURACY of the acceptance suite: the default kernel's optimum
ORACLE_ACCURACY = 0.7503558086854251
ORACLE_TOLERANCE = 0.02
CV_STAGES = ("ngram", "lstm", "baseline")  # each writes <name>.txt and <name>.pred


@dataclass
class Op:
    """One CLI invocation and what became of it."""

    stage: Stage
    code: int
    seconds: float
    error: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(ops: list[Op]) -> dict[str, str]:
    """SHA-256 of every output that exists, keyed by file name."""
    return {p.name: sha256(p) for op in ops for p in op.stage.outputs if p.is_file()}


def read_report(path: Path) -> dict[str, str]:
    """The flat ``key: value`` lines of a report, up to any per-sequence table."""
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line == "per_sequence:":
            break
        if not line.startswith("#") and ": " in line:
            key, value = line.split(": ", 1)
            values[key] = value
    return values


def stream_records(path: Path) -> int:
    """Records in a prediction stream; a malformed line raises ValueError."""
    count = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path.name}: bad record {line!r}")
            int(fields[1]), int(fields[2]), int(fields[3])
            count += 1
    return count


def check(workload: Workload, ops: list[Op], expected: dict[str, str] | None,
          compare_blas: bool = True) -> None:
    """Record every problem on the op that caused it.

    ``expected`` maps output names to digests; outputs of BLAS-dependent
    stages are compared only when ``compare_blas`` is set.
    """
    for op in ops:
        if op.code != 0:
            continue
        for path in op.stage.outputs:
            if not path.is_file():
                op.problems.append(f"{path.name} was not written")
            elif expected is not None and (compare_blas or not op.stage.blas_dependent):
                want = expected.get(path.name)
                if want is None:
                    op.problems.append(f"{path.name} has no reference digest")
                elif sha256(path) != want:
                    op.problems.append(f"{path.name} differs from its reference digest")
        if op.problems:
            continue
        try:
            _invariants(workload, op, ops)
        except (OSError, ValueError, KeyError) as exc:
            op.problems.append(f"unreadable output: {exc}")


def _invariants(workload: Workload, op: Op, ops: list[Op]) -> None:
    outputs = {p.name: p for p in op.stage.outputs}
    if op.stage.name in CV_STAGES:
        report = read_report(outputs[f"{op.stage.name}.txt"])
        records = stream_records(outputs[f"{op.stage.name}.pred"])
        if int(report["meta.stream_records"]) != records:
            op.problems.append(f"stream has {records} records, report says "
                               f"{report['meta.stream_records']}")
        if op.stage.name == workload.oracle_stage:
            gap = abs(float(report["cv_accuracy"]) - ORACLE_ACCURACY)
            if gap > ORACLE_TOLERANCE:
                op.problems.append(f"CV accuracy is {gap:.4f} from the frozen oracle")
    elif op.stage.name == "eval":
        if int(read_report(outputs["transfer.txt"])["sequences_scored"]) < 1:
            op.problems.append("transfer scored no sequence")
    elif op.stage.name == "agree":
        total = int(read_report(outputs["agree.txt"])["total"])
        counts = {p.name: stream_records(p) for p in map(Path, op.stage.argv[1:3])}
        scored = [int(read_report(p)["meta.stream_records"]) for p in _cv_reports(ops)]
        if any(n != total for n in [*counts.values(), *scored]):
            op.problems.append(f"agreement total {total} vs streams {counts} and "
                               f"scored positions {scored}")


def _cv_reports(ops: list[Op]):
    for op in ops:
        if op.stage.name in CV_STAGES:
            yield next(p for p in op.stage.outputs if p.name == f"{op.stage.name}.txt")


def positions_scored(ops: list[Op]) -> int:
    """Positions scored by the CV stages: the sum of each report's stream_records."""
    return sum(int(read_report(p)["meta.stream_records"]) for p in _cv_reports(ops))

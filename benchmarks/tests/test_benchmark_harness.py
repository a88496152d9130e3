"""Tests of the benchmark harness itself (run: python3 -m pytest benchmarks/tests)."""

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import layers
import run
import tracer
import verify
from workloads import WORKLOADS

BENCH = Path(run.__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def test_smoke_workload_runs_the_whole_harness():
    for trace, names in (("0", run.UNITS), ("1", layers.METRICS)):
        done = _bench("--workload", "smoke", "--seed", "1234", "--seconds", "0",
                      "--trace", trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, done.stdout
        assert list(result["metrics"]) == list(names)
        assert "reference digests compared" in done.stdout
        assert any(line.startswith("failed_ops: 0 share") for line in lines)
        assert any(line.startswith("provenance: ") for line in lines)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_self_time_subtracts_the_union_of_overlapping_fold_spans():
    spans = tracer.Tracer()
    spans.spans = [
        tracer.Span("evaluation.cv", 0.0, 10.0, thread=1, parent=None),
        tracer.Span("ngram.fit", 1.0, 5.0, thread=2, parent=0),  # fold thread A
        tracer.Span("ngram.fit", 3.0, 8.0, thread=3, parent=0),  # fold thread B
    ]
    kids = spans.children()
    assert tracer.measure(spans.self_intervals(0, kids)) == 3.0  # 10 - |[1, 8]|
    metrics = layers.layer_metrics(spans)
    assert metrics["evaluation.cv_self_s"] == 3.0
    assert metrics["evaluation.cv_s"] == 10.0
    assert metrics["ngram.fit_s"] == 7.0  # wall time with a fit running, not 4 + 5
    assert metrics["ngram.fits"] == 2


def test_fold_thread_spans_are_parented_to_the_waiting_span():
    spans = tracer.Tracer()
    both_open = threading.Barrier(2, timeout=10)

    def fold():
        with spans.span("ngram.fit"):
            both_open.wait()

    with spans.span("evaluation.cv"):
        threads = [threading.Thread(target=fold) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    cv, *fits = spans.spans
    assert [fit.parent for fit in fits] == [0, 0]
    assert len({fit.thread for fit in fits}) == 2
    assert fits[0].start < fits[1].end and fits[1].start < fits[0].end


def test_interval_arithmetic():
    assert tracer.union([(3, 4), (0, 1), (0.5, 2)]) == [(0, 2), (3, 4)]
    assert tracer.subtract((0, 10), [(2, 3), (2.5, 4), (9, 12)]) == [(0, 2), (4, 9)]
    assert tracer.subtract((0, 1), [(-1, 2)]) == []


def test_install_restores_every_wrapped_name():
    class Model:
        def predict(self, context):
            return context[-1]

    original = vars(Model)["predict"]
    spans = tracer.Tracer()
    restore = tracer.install(spans, [
        tracer.Probe(Model, "predict", "model.predict",
                     lambda t, a, k, r: t.count("calls")),
    ])
    assert vars(Model)["predict"] is not original
    assert Model().predict([1, 2]) == 2
    restore()
    assert vars(Model)["predict"] is original
    assert [s.name for s in spans.spans] == ["model.predict"]
    assert spans.counters["calls"] == 1


def test_metric_names_and_units():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARK_WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    for workload in spec["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert WORKLOADS[workload["name"]].why == workload["why"]


def test_both_shipped_seeds_are_pinned_and_scoreable():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    assert reference["seeds"] == run.SEEDS
    for name in run.BENCHMARK_WORKLOADS:
        for seed in run.SEEDS.values():
            entry = reference["workloads"][name][str(seed)]
            assert entry["transfer_scored"] >= 1, (name, seed)
            assert entry["corpus"]["certified"] >= 5, (name, seed)
            assert {"ngram.txt", "ngram.pred", "transfer.txt", "agree.txt",
                    "corpus.nact"} <= set(entry["digests"])


def _smoke_ops(tmp_path: Path) -> tuple[run.Session, list[verify.Op]]:
    session = run.Session(WORKLOADS["smoke"], 1234, tmp_path)
    _, _, _, data = session.setup("setup0")
    _, ops, _ = session.pipeline(data, "run0")
    assert not any(op.failed for op in session.ops)
    return session, ops


def _recheck(session, ops, expected) -> list[str]:
    fresh = [verify.Op(op.stage, op.code, op.seconds) for op in ops]
    verify.check(session.workload, fresh, expected)
    return [op.stage.name for op in fresh if op.failed]


def test_a_corrupted_artifact_counts_as_a_failed_op(tmp_path):
    session, ops = _smoke_ops(tmp_path)
    expected = verify.digests(ops)
    assert _recheck(session, ops, expected) == []

    model = tmp_path / "run0" / "ngram.model"
    blob = bytearray(model.read_bytes())
    blob[-3] ^= 1
    model.write_bytes(bytes(blob))
    assert _recheck(session, ops, expected) == ["ngram"]

    stream = tmp_path / "run0" / "baseline.pred"
    stream.write_text("".join(stream.read_text().splitlines(keepends=True)[:-1]))
    # caught without digests too: the record count no longer matches the report
    assert _recheck(session, ops, None) == ["baseline"]

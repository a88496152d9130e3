"""Benchmark of the nextaction command-line pipeline.

Drives ``nextaction.cli.main`` with the argv a user would type, on a corpus
generated from the workload seed, and checks every file each call writes.

    python3 benchmarks/run.py --workload course-10x --seed 1234 --seconds 14 --trace 0
    python3 benchmarks/run.py --workload all      # every workload, untraced then traced
    python3 benchmarks/run.py --write-reference   # re-pin digests for the shipped seeds

With ``--trace 0`` a run sets the corpus up ``SETUP_REPEATS`` times, then runs
the pipeline until ``--seconds`` have passed (at least once), and reports
medians of the end-to-end metrics.  With ``--trace 1`` it runs set-up and
pipeline once plain and once with the program's public names wrapped, checks
that both runs wrote identical files, and reports the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import verify
from workloads import WORKLOADS, Workload, pipeline_stages, setup_stages, synth_config_text

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# the default corpus seed, and a held-out seed that no change is tuned on
SEEDS = {"default": 1234, "held_out": 8191}
BENCHMARK_WORKLOADS = ("course-10x", "long-sessions", "lstm-default")
SETUP_REPEATS = 3


def import_program():
    """Import nextaction from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "nextaction" / "__init__.py").is_file():
        raise SystemExit(f"error: no nextaction package under {src}")
    sys.path.insert(0, str(src))
    import nextaction

    if not Path(nextaction.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported nextaction from {nextaction.__file__}, not {src}")
    return nextaction


# ---------------------------------------------------------------- host facts

def workers() -> int:
    return len(os.sched_getaffinity(0))


def blas_facts() -> dict:
    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "library": f"{build.get('name')} {build.get('version')}",
        "config": build.get("openblas configuration", "unknown"),
        "threads": "unknown",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }
    # the runtime config names the kernel actually chosen (DYNAMIC_ARCH builds)
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                facts["config"] = config().decode()
                facts["threads"] = threads()
    return facts


def host_facts() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts()["config"],
        "machine": platform.machine(),
        "workers": workers(),
    }


def git_facts() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=60)

    try:
        head = git("rev-parse", "--show-toplevel", "HEAD")
        if head.returncode != 0 or Path(head.stdout.split()[0]).resolve() != ROOT:
            return {"revision": "none (not a git checkout)", "dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"revision": f"unknown ({exc})", "dirty": None}
    return {"revision": head.stdout.split()[1], "dirty": bool(status.stdout.strip())}


def corpus_facts(data: Path) -> dict:
    from nextaction import ingest

    corpus = ingest.load_corpus(data / "corpus.nact")
    lengths = [len(s) for s in corpus.sequences]
    return {
        "students": len(lengths),
        "certified": sum(s.certified for s in corpus.sequences),
        "actions": sum(lengths),
        "V": corpus.vocab_size,
        "longest": max(lengths),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


# ---------------------------------------------------------------- running

def call(stage) -> verify.Op:
    """One CLI invocation in this process, its output captured."""
    from nextaction import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(stage.argv))
        error = err.getvalue().strip()
    except Exception:  # a crash is a failed operation, not a failed benchmark
        code, error = -1, traceback.format_exc(limit=4)
    return verify.Op(stage, code, time.perf_counter() - start, error)


def run_pass(stages) -> tuple[float, list[verify.Op]]:
    start = time.perf_counter()
    ops = [call(stage) for stage in stages]
    return time.perf_counter() - start, ops


def prepare(data: Path, workload: Workload) -> Path:
    data.mkdir(parents=True)
    (data / "synth.cfg").write_text(synth_config_text(workload), encoding="utf-8")
    return data


def reference_for(workload: Workload, seed: int, host: dict) -> tuple[dict | None, bool, str]:
    """(expected digests or None, whether BLAS-dependent ones compare, a note)."""
    if not REFERENCE.is_file():
        return None, False, "no reference digests"
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = ref["workloads"].get(workload.name, {}).get(str(seed))
    if entry is None:
        return None, False, (f"seed {seed} has no reference digests: "
                             "invariants and repeat consistency only")
    pinned = ref["host"]
    differs = [k for k in ("numpy", "workers") if pinned[k] != host[k]]
    if differs:
        return None, False, f"reference digests not comparable: host differs in {differs}"
    blas = all(pinned[k] == host[k] for k in ("blas", "machine", "python"))
    note = "reference digests compared" + ("" if blas else
                                           ", except BLAS-dependent ones (other BLAS host)")
    return entry["digests"], blas, note


class Session:
    """One workload and seed in a scratch directory inside the checkout."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.workers = workers()
        self.host = host_facts()
        self.expected, self.compare_blas, self.note = reference_for(workload, seed, self.host)
        self.ops: list[verify.Op] = []

    def run(self, stages, first: dict | None) -> tuple[float, list[verify.Op], dict]:
        """Run and check ``stages``: against the reference digests when there are
        any, else against ``first``, the digests of the first pass of its kind."""
        seconds, ops = run_pass(stages)
        if self.expected is not None:
            verify.check(self.workload, ops, self.expected, self.compare_blas)
        else:
            verify.check(self.workload, ops, first)
        self.ops.extend(ops)
        return seconds, ops, verify.digests(ops)

    def setup(self, name: str, first: dict | None = None):
        data = prepare(self.work / name, self.workload)
        return (*self.run(setup_stages(self.workload, self.seed, data), first), data)

    def pipeline(self, data: Path, name: str, first: dict | None = None):
        out = self.work / name
        out.mkdir()
        return self.run(pipeline_stages(self.workload, data, out, self.workers), first)


def measure(session: Session, seconds: float, setups: int = 1) -> dict:
    """End-to-end metrics: the median of ``setups`` set-ups, and the median pipeline
    over ``seconds`` (at least one run)."""
    setup_times, first_setup = [], None
    for i in range(setups):
        name = f"setup{i}"
        t, _, digests, _ = session.setup(name, first_setup)
        setup_times.append(t)
        if first_setup is None:
            first_setup = digests
        else:
            shutil.rmtree(session.work / name)
    data = session.work / "setup0"
    pipeline_times, positions, first_run = [], 0, None
    start = time.perf_counter()
    while not pipeline_times or time.perf_counter() - start < seconds:
        name = f"run{len(pipeline_times)}"
        t, ops, digests = session.pipeline(data, name, first_run)
        pipeline_times.append(t)
        if first_run is None:
            first_run = digests
            positions = 0 if any(op.failed for op in ops) else verify.positions_scored(ops)
        else:
            shutil.rmtree(session.work / name)
    pipeline_s = statistics.median(pipeline_times)
    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": pipeline_s,
        "positions_per_s": positions / pipeline_s,
        "peak_rss_mb": peak_rss_mb(),
        "samples": {"setup_s": setup_times, "pipeline_s": pipeline_times},
        "corpus": corpus_facts(data),
        "digests": {**first_setup, **first_run},
    }


def traced(session: Session) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from one wrapped run, after one plain run as its base."""
    import layers
    import tracer

    base = measure(session, 0)
    spans = tracer.Tracer()
    probes = layers.probes()
    originals = [vars(p.owner)[p.attr] for p in probes]
    restore = tracer.install(spans, probes)
    try:
        _, setup_ops, _, data = session.setup("traced-setup")
        pipeline_s, run_ops, _ = session.pipeline(data, "traced-run")
    finally:
        restore()
    if any(vars(p.owner)[p.attr] is not o for p, o in zip(probes, originals)):
        run_ops[-1].problems.append("a wrapped name was not restored")
    for op in setup_ops + run_ops:
        differ = [p.name for p in op.stage.outputs
                  if p.is_file() and verify.sha256(p) != base["digests"].get(p.name)]
        if differ:
            op.problems.append(f"traced outputs differ from untraced: {differ}")
    agree = run_ops[-1]
    if agree.stage.outputs[0].is_file():
        total = int(verify.read_report(agree.stage.outputs[0])["total"])
        scored = spans.samples["evaluation.cv_positions"]
        if any(n != total for n in scored):
            agree.problems.append(f"agreement total {total} vs positions scored per "
                                  f"cross_validate call {scored}")

    metrics = layers.layer_metrics(spans)
    metrics["trace.overhead_ratio"] = pipeline_s / base["pipeline_s"]
    metrics["trace.untraced_pipeline_s"] = base["pipeline_s"]
    metrics["trace.spans"] = len(spans.spans)
    notes = [session.note,
             f"tracing overhead: traced pipeline {pipeline_s:.3f} s over untraced "
             f"{base['pipeline_s']:.3f} s (untraced ran first, in the same process)",
             "lstm.train_gflop is computed from tensor shapes, not counted"]
    tail = layers.tail_note(spans)
    if tail:
        notes.append(tail)
    return {name: metrics[name] for name in layers.METRICS}, base, notes


# ---------------------------------------------------------------- output

UNITS = {"setup_s": "s", "pipeline_s": "s", "positions_per_s": "1/s", "peak_rss_mb": "MB"}


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = Session(workload, args.seed, work)
        print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
        if args.trace:
            import layers

            metrics, facts, notes = traced(session)
            units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        else:
            facts = measure(session, args.seconds, SETUP_REPEATS)
            metrics = {name: facts[name] for name in UNITS}
            units, notes = UNITS, [session.note]
            samples = facts["samples"]
            notes.append(f"setup_s is the median of {len(samples['setup_s'])}, pipeline_s of "
                         f"{len(samples['pipeline_s'])}; too few samples for a tail percentile")
        provenance = {**git_facts(), "host": session.host, "blas": blas_facts(),
                      "workers": session.workers, "seed": args.seed, "corpus": facts["corpus"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in session.ops if op.failed]
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"failed_ops: {len(failed) / len(session.ops):.6g} share "
          f"({len(failed)} of {len(session.ops)} CLI calls)")
    for op in failed:
        print(f"failed: {op.stage.name} exit {op.code}: {'; '.join(op.problems) or op.error}")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(session.ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every benchmark workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in BENCHMARK_WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def write_reference() -> int:
    """Pin the digests of every output, per workload, for both shipped seeds."""
    entries: dict[str, dict] = {}
    for name in (*BENCHMARK_WORKLOADS, "smoke"):
        for seed in SEEDS.values():
            work = ROOT / ".bench_work" / f"reference-{name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                session = Session(WORKLOADS[name], seed, work)
                session.expected = None  # pin what the program writes now
                facts = measure(session, 0)
                failed = [op for op in session.ops if op.failed]
                if failed:
                    raise SystemExit(f"error: {name} seed {seed}: "
                                     f"{[(op.stage.name, op.problems, op.error) for op in failed]}")
                scored = verify.read_report(work / "run0" / "transfer.txt")["sequences_scored"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            entries.setdefault(name, {})[str(seed)] = {
                "corpus": facts["corpus"], "digests": facts["digests"],
                "transfer_scored": int(scored)}
            print(f"{name} seed {seed}: {facts['corpus']}")
    REFERENCE.write_text(json.dumps({"host": host_facts(), "seeds": SEEDS,
                                     "workloads": entries}, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=SEEDS["default"])
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    import_program()
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

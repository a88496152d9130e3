"""Per-layer metrics: which program names are wrapped, and how spans reduce to numbers.

Layers are the package's modules.  A ``*_s`` metric is the wall time during
which at least one span of that kind was running its own code (its self
time, unioned over threads), unless its description says "inclusive", which
keeps the children in.  Counts come from observing arguments and results,
and repeat exactly between runs of one seed.
"""

from collections import defaultdict
from pathlib import Path

from nextaction import baselines, cli, evaluation, ingest, lstm, ngram, synth

from tracer import Probe, Tracer, measure

# name -> (unit, what it is); the traced run reports exactly these
METRICS = {
    "synth.generate_s": ("s", "generate() self time: formatting and writing the event log"),
    "synth.sample_s": ("s", "GeneratorModel.sample_sequence self time"),
    "synth.actions": ("count", "actions sampled"),
    "synth.events_bytes": ("bytes", "size of the generated event log"),
    "ingest.vocab_pass_s": ("s", "build_vocabulary, which drains the first parse pass"),
    "ingest.encode_pass_s": ("s", "encode_corpus, the second parse pass"),
    "ingest.lines": ("count", "event-log lines read, over all passes"),
    "ingest.log_passes": ("count", "iter_events calls per ingest"),
    "ingest.save_s": ("s", "save_vocabulary + save_corpus"),
    "ingest.load_s": ("s", "load_vocabulary + load_corpus"),
    "ingest.loads": ("count", "load_corpus calls"),
    "ngram.fit_s": ("s", "fit"),
    "ngram.fits": ("count", "fit calls"),
    "ngram.contexts": ("count", "distinct contexts over all orders of the largest fitted table"),
    "ngram.predict_s": ("s", "NGramPredictor.predict_sequence (fold scoring and transfer)"),
    "ngram.predict_seq_ms.p50": ("ms", "per-sequence predict_sequence latency, median"),
    "ngram.predict_seq_ms.p90": ("ms", "per-sequence predict_sequence latency, 90th percentile"),
    "ngram.usage_s": ("s", "backoff_usage"),
    "ngram.probes_per_prediction": (
        "count", "orders probed per prediction, from the usage histogram, taking every "
                 "probe to start at the top order (0 when no histogram is asked for)"),
    "ngram.save_s": ("s", "save_table"),
    "ngram.load_s": ("s", "load_table"),
    "ngram.table_bytes": ("bytes", "size of the saved table"),
    "lstm.train_s": ("s", "train, inclusive"),
    "lstm.forward_s": ("s", "forward_sequence in training"),
    "lstm.loss_s": ("s", "loss"),
    "lstm.backward_s": ("s", "backward"),
    "lstm.rmsprop_s": ("s", "RmsPropOptimizer.apply"),
    "lstm.batches": ("count", "training batches"),
    "lstm.hillclimb_s": ("s", "per-epoch hill-climb sequence_accuracy, inclusive"),
    "lstm.predict_s": ("s", "LstmPredictor.predict_sequence outside train: folds and transfer"),
    "lstm.pad_fraction": ("ratio", "padded share of training steps"),
    "lstm.inference_steps_per_position": (
        "ratio", "recurrent steps run per scored position (1 would reuse state)"),
    "lstm.train_gflop": ("GFLOP", "computed from tensor shapes: 3x the training forward pass"),
    "lstm.checkpoint_save_s": ("s", "save_checkpoint"),
    "lstm.checkpoint_load_s": ("s", "load_checkpoint"),
    "baselines.cv_s": ("s", "the baseline stage's cross_validate, inclusive"),
    "baselines.predict_calls": ("count", "predict calls on the structural models"),
    "evaluation.cv_s": ("s", "cross_validate, inclusive"),
    "evaluation.cv_self_s": ("s", "cross_validate minus fit, train and predict: slicing, records, merge"),
    "evaluation.transfer_s": ("s", "transfer_eval, inclusive"),
    "evaluation.positions_scored": ("count", "positions scored by cross_validate calls"),
    "evaluation.stream_write_s": ("s", "write_stream"),
    "evaluation.stream_read_s": ("s", "read_stream"),
    "evaluation.agreement_s": ("s", "agreement"),
    "evaluation.stream_bytes": ("bytes", "prediction streams written"),
    "cli.synth_s": ("s", "the synth subcommand, inclusive"),
    "cli.ingest_s": ("s", "the ingest subcommand, inclusive"),
    "cli.ngram_s": ("s", "the ngram subcommand, inclusive"),
    "cli.lstm_s": ("s", "the lstm subcommand, inclusive"),
    "cli.baseline_s": ("s", "the baseline subcommand, inclusive"),
    "cli.eval_s": ("s", "the eval subcommand, inclusive"),
    "cli.agree_s": ("s", "the agree subcommand, inclusive"),
    "cli.self_s": ("s", "main minus its children: parsing, input hashing, report writing"),
    "cli.bytes_hashed": ("bytes", "input bytes hashed for report provenance"),
    "trace.overhead_ratio": ("ratio", "traced pipeline_s over untraced pipeline_s"),
    "trace.untraced_pipeline_s": ("s", "the base of the overhead ratio"),
    "trace.spans": ("count", "spans recorded"),
}


def _size(path) -> int:
    return Path(path).stat().st_size


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _inference_steps(tracer: Tracer, args, kwargs, result) -> None:
    predictor, actions = args[0], args[1]
    positions, window = len(actions) - 1, predictor.net.window
    if positions < 1:
        return
    ramp = min(positions, window)
    tracer.count("lstm.inference_positions", positions)
    tracer.count("lstm.inference_steps", ramp * (ramp + 1) // 2 + (positions - ramp) * window)


def _train_flops(tracer: Tracer, args, kwargs, result) -> None:
    net, ids = args[0], args[1]
    if not _arg(args, kwargs, 2, "train"):
        return
    shape = getattr(ids, "shape", (len(ids),))
    steps = shape[0] * shape[-1] if len(shape) == 2 else shape[0]
    hidden, width = net.hidden_size, net.embedding_dim
    gates = 4 if net.cell == "lstm" else 1
    per_step = 2 * hidden * net.vocab_size
    for _ in net.layers:
        per_step += 2 * gates * hidden * (width + hidden)
        width = hidden
    tracer.count("lstm.train_flop", 3 * steps * per_step)


def _padding(tracer: Tracer, args, kwargs, result) -> None:
    mask = _arg(args, kwargs, 2, "mask")
    if mask is not None:
        tracer.count("lstm.steps", mask.size)
        tracer.count("lstm.padded_steps", mask.size - int(mask.sum()))


def _usage_probes(tracer: Tracer, args, kwargs, result) -> None:
    top = max(result)
    tracer.sample("ngram.probes", sum(f * (top - k + 1) for k, f in result.items()))


def _cv_positions(tracer: Tracer, args, kwargs, result) -> None:
    corpus = _arg(args, kwargs, 1, "corpus")
    tracer.sample("evaluation.cv_positions",
                  sum(len(s) - 1 for s in corpus.sequences if len(s) >= 2))


def _counter(name: str, amount=lambda args, kwargs, result: 1):
    return lambda tracer, args, kwargs, result: tracer.count(name, amount(args, kwargs, result))


def probes() -> list[Probe]:
    """The program names the traced run wraps, each with its span or observer."""
    predict_calls = _counter("baselines.predict_calls")
    return [
        Probe(cli, "main", lambda args: f"cli.{args[0][0] if args and args[0] else 'main'}"),
        Probe(cli, "_sha256_file", None,
              _counter("cli.bytes_hashed", lambda a, k, r: _size(a[0]))),
        Probe(synth, "generate", "synth.generate",
              _counter("synth.events_bytes", lambda a, k, r: _size(r.events_path))),
        Probe(synth.GeneratorModel, "sample_sequence", "synth.sample",
              _counter("synth.actions", lambda a, k, r: len(r))),
        Probe(ingest, "iter_events", None,
              lambda t, a, k, r: t.sample("ingest.stats", _arg(a, k, 2, "stats"))),
        Probe(ingest, "build_vocabulary", "ingest.vocab_pass"),
        Probe(ingest, "encode_corpus", "ingest.encode_pass"),
        Probe(ingest, "save_vocabulary", "ingest.save"),
        Probe(ingest, "save_corpus", "ingest.save"),
        Probe(ingest, "load_vocabulary", "ingest.load"),
        Probe(ingest, "load_corpus", "ingest.load", _counter("ingest.loads")),
        Probe(ngram, "fit", "ngram.fit",
              lambda t, a, k, r: t.sample("ngram.contexts",
                                          sum(len(c) for c in r.continuations.values()))),
        Probe(ngram.NGramPredictor, "predict_sequence", "ngram.predict"),
        Probe(ngram, "backoff_usage", "ngram.usage", _usage_probes),
        Probe(ngram, "save_table", "ngram.save",
              _counter("ngram.table_bytes", lambda a, k, r: _size(a[1]))),
        Probe(ngram, "load_table", "ngram.load"),
        Probe(lstm, "train", "lstm.train"),
        Probe(lstm, "forward_sequence", "lstm.forward", _train_flops),
        Probe(lstm, "loss", "lstm.loss", _padding),
        Probe(lstm, "backward", "lstm.backward", _counter("lstm.batches")),
        Probe(lstm.RmsPropOptimizer, "apply", "lstm.rmsprop"),
        # train() calls the name lstm imported, not evaluation's own
        Probe(lstm, "sequence_accuracy", "lstm.hillclimb"),
        Probe(lstm.LstmPredictor, "predict_sequence", "lstm.predict", _inference_steps),
        Probe(lstm, "save_checkpoint", "lstm.checkpoint_save"),
        Probe(lstm, "load_checkpoint", "lstm.checkpoint_load"),
        Probe(baselines.RepeatModel, "predict", None, predict_calls),
        Probe(baselines.SyllabusModel, "predict", None, predict_calls),
        Probe(baselines.SyllabusRepeatModel, "predict", None, predict_calls),
        Probe(evaluation, "cross_validate", "evaluation.cv", _cv_positions),
        Probe(evaluation, "transfer_eval", "evaluation.transfer"),
        Probe(evaluation, "write_stream", "evaluation.stream_write",
              _counter("evaluation.stream_bytes", lambda a, k, r: _size(a[1]))),
        Probe(evaluation, "read_stream", "evaluation.stream_read"),
        Probe(evaluation, "agreement", "evaluation.agreement"),
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_note(tracer: Tracer) -> str | None:
    """Say when the p90 latency has fewer than ten samples beyond it."""
    n = sum(span.name == "ngram.predict" for span in tracer.spans)
    beyond = n - int(-(-n * 90 // 100))
    if beyond >= 10:
        return None
    return (f"ngram.predict_seq_ms.p90 rests on {n} sequences, {beyond} beyond it "
            "(ten are needed for a stable tail)")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every METRICS entry except the trace.* ones, reduced from one traced run."""
    kids = tracer.children()
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        by_name[span.name].append(index)

    def chosen(names, under=None, outside=None):
        for name in names:
            for index in by_name.get(name, ()):
                above = {s.name for s in tracer.ancestors(index)}
                if under and under not in above or outside and outside in above:
                    continue
                yield index

    def self_s(*names, **where) -> float:
        return measure([part for i in chosen(names, **where)
                        for part in tracer.self_intervals(i, kids)])

    def total_s(*names, **where) -> float:
        return measure([(tracer.spans[i].start, tracer.spans[i].end)
                        for i in chosen(names, **where)])

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    c, s = tracer.counters, tracer.samples
    predict_ms = [1e3 * (tracer.spans[i].end - tracer.spans[i].start)
                  for i in by_name.get("ngram.predict", ())]
    cli_names = [n for n in by_name if n.startswith("cli.")]
    ingests = max(1, calls("cli.ingest"))
    return {
        "synth.generate_s": self_s("synth.generate"),
        "synth.sample_s": self_s("synth.sample"),
        "synth.actions": c["synth.actions"],
        "synth.events_bytes": c["synth.events_bytes"],
        "ingest.vocab_pass_s": self_s("ingest.vocab_pass"),
        "ingest.encode_pass_s": self_s("ingest.encode_pass"),
        "ingest.lines": sum(st.total_lines for st in s["ingest.stats"] if st is not None),
        "ingest.log_passes": len(s["ingest.stats"]) / ingests,
        "ingest.save_s": self_s("ingest.save"),
        "ingest.load_s": self_s("ingest.load"),
        "ingest.loads": c["ingest.loads"],
        "ngram.fit_s": self_s("ngram.fit"),
        "ngram.fits": calls("ngram.fit"),
        "ngram.contexts": max(s["ngram.contexts"], default=0),
        "ngram.predict_s": self_s("ngram.predict"),
        "ngram.predict_seq_ms.p50": percentile(predict_ms, 50),
        "ngram.predict_seq_ms.p90": percentile(predict_ms, 90),
        "ngram.usage_s": self_s("ngram.usage"),
        "ngram.probes_per_prediction": max(s["ngram.probes"], default=0.0),
        "ngram.save_s": self_s("ngram.save"),
        "ngram.load_s": self_s("ngram.load"),
        "ngram.table_bytes": c["ngram.table_bytes"],
        "lstm.train_s": total_s("lstm.train"),
        "lstm.forward_s": self_s("lstm.forward"),
        "lstm.loss_s": self_s("lstm.loss"),
        "lstm.backward_s": self_s("lstm.backward"),
        "lstm.rmsprop_s": self_s("lstm.rmsprop"),
        "lstm.batches": c["lstm.batches"],
        "lstm.hillclimb_s": total_s("lstm.hillclimb"),
        "lstm.predict_s": self_s("lstm.predict", outside="lstm.train"),
        "lstm.pad_fraction": c["lstm.padded_steps"] / max(1, c["lstm.steps"]),
        "lstm.inference_steps_per_position":
            c["lstm.inference_steps"] / max(1, c["lstm.inference_positions"]),
        "lstm.train_gflop": c["lstm.train_flop"] / 1e9,
        "lstm.checkpoint_save_s": self_s("lstm.checkpoint_save"),
        "lstm.checkpoint_load_s": self_s("lstm.checkpoint_load"),
        "baselines.cv_s": total_s("evaluation.cv", under="cli.baseline"),
        "baselines.predict_calls": c["baselines.predict_calls"],
        "evaluation.cv_s": total_s("evaluation.cv"),
        "evaluation.cv_self_s": self_s("evaluation.cv"),
        "evaluation.transfer_s": total_s("evaluation.transfer"),
        "evaluation.positions_scored": sum(s["evaluation.cv_positions"]),
        "evaluation.stream_write_s": self_s("evaluation.stream_write"),
        "evaluation.stream_read_s": self_s("evaluation.stream_read"),
        "evaluation.agreement_s": self_s("evaluation.agreement"),
        "evaluation.stream_bytes": c["evaluation.stream_bytes"],
        **{f"cli.{cmd}_s": total_s(f"cli.{cmd}")
           for cmd in ("synth", "ingest", "ngram", "lstm", "baseline", "eval", "agree")},
        "cli.self_s": self_s(*cli_names),
        "cli.bytes_hashed": c["cli.bytes_hashed"],
    }

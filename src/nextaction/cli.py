"""Command-line pipeline: synth, ingest, ngram, lstm, baseline, eval, agree.

Every report embeds the effective option values and the SHA-256 of each input
file, so a result can be re-derived from the report alone.  Each such file is
read once, by ``_sha256_file``, and its loader parses the bytes that were
hashed, so a report names the bytes its run used.  Randomness flows
from the --seed flag of the invocation; outputs are byte-identical across
repeated runs with the same seed, at any --workers count (which a report
echoes).  Reports default to content-addressed filenames in --out-dir to
avoid silent overwrites.
"""

import argparse
import hashlib
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

from . import baselines, evaluation, ingest, lstm, ngram, synth
from .config import read_kv_file
from .errors import ConfigError, NextactionError


def _sha256_file(path: str | Path, name: str, digests: dict[str, str]) -> bytes:
    """The bytes of input file ``path``, read once; their SHA-256 goes into
    ``digests`` under ``name``."""
    blob = Path(path).read_bytes()
    digests[name] = hashlib.sha256(blob).hexdigest()
    return blob


def _kind(default) -> type:
    """The type that parses an option: a bare type, or the type of its default."""
    return default if isinstance(default, type) else type(default)


def _merge_options(args: argparse.Namespace) -> dict:
    """Flag value if given, else config-file value, else the default in _COMMANDS.

    The config file may set only the subcommand's options, each parsed by its kind.
    """
    defaults = _COMMANDS[args.command].options
    merged = {key: None if isinstance(d, type) else d for key, d in defaults.items()}
    if args.config:
        merged.update(read_kv_file(args.config, {key: _kind(d) for key, d in defaults.items()}))
    merged.update((key, getattr(args, key)) for key in defaults if getattr(args, key) is not None)
    return merged


def _write_output(path: str | Path, write: Callable, *args):
    """``write(*args, path)`` into output file ``path``, whose parent directory is
    made first, and a line that names it; returns what ``write`` returns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    result = write(*args, path)
    print(f"wrote {path}")
    return result


def _save_text(text: str, path: Path) -> None:
    path.write_text(text, encoding="utf-8")


def _write_artifact(text: str, out_dir: str, prefix: str, explicit: str | None) -> None:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    _write_output(explicit or Path(out_dir) / f"{prefix}-{digest}.txt", _save_text, text)


def _write_comparison(title: str, meta: dict, rows, args, prefix: str) -> int:
    """One report over several CV runs; ``rows`` pairs a key prefix with each report."""
    lines = [title]
    lines.extend(f"meta.{k}: {v}" for k, v in sorted(meta.items()))
    for key, report in rows:
        accs = " ".join(f"{a:.10f}" for a in report.per_fold_accuracy)
        lines.append(f"{key}.cv_accuracy: {report.cv_accuracy:.10f}")
        lines.append(f"{key}.fold_accuracy: {accs}")
    _write_artifact("\n".join(lines) + "\n", args.out_dir, prefix, args.report)
    return 0


def _write_cv_outputs(report: evaluation.EvalReport, args, prefix: str) -> int:
    """The prediction stream, the report and the fold CSV of one CV run."""
    if args.stream:
        _write_output(args.stream, evaluation.write_stream, report.streams)
    _write_artifact(report.to_text(), args.out_dir, prefix, args.report)
    if args.csv:
        _write_output(args.csv, _save_text, report.to_csv())
    return 0


def _refuse_outputs(mode: str, outputs: dict[str, object]) -> None:
    """Raise ConfigError for the first output flag given that ``mode`` writes nothing for."""
    for flag, value in outputs.items():
        if value:
            raise ConfigError(f"{mode} writes one comparison report; it takes no {flag}")


def _config_metadata(options: dict, digests: dict[str, str]) -> dict[str, str]:
    """The report's config echo, then the SHA-256 of each input by name."""
    # path-valued options are echoed by basename; the checksums below pin
    # the exact content, keeping reports byte-stable across directories
    meta = {}
    for key, value in options.items():
        if value is None:
            continue
        meta[f"config.{key}"] = Path(value).name if key in ("events", "roster") else str(value)
    for name, digest in digests.items():
        meta[f"input.{name}.sha256"] = digest
    return meta


def _load_corpus(args, digests: dict[str, str]) -> ingest.Corpus:
    vocabulary = ingest.load_vocabulary(_sha256_file(args.vocab, "vocab", digests))
    return ingest.load_corpus(_sha256_file(args.corpus, "corpus", digests), vocabulary)


_COHORTS = {"certified": True, "uncertified": False, "all": None}


def _select_cohort(corpus: ingest.Corpus, cohort: str, min_actions: int) -> ingest.Corpus:
    if cohort not in _COHORTS:
        raise ConfigError(f"cohort must be certified, uncertified or all, got {cohort!r}")
    return ingest.filter_cohort(corpus, _COHORTS[cohort], min_actions)


def _cv_inputs(args, options: dict, syllabus: str | None = None):
    """The cohort, fold plan and provenance of a ngram, lstm or baseline run, and
    the course order in file ``syllabus`` (None without one).  A worker count
    below 1 is refused before any input is read."""
    if options["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {options['workers']}")
    digests: dict[str, str] = {}
    corpus = _select_cohort(_load_corpus(args, digests), options["cohort"], options["min_actions"])
    plan = evaluation.make_folds(corpus.students, options["folds"], options["seed"])
    order = syllabus and baselines.load_syllabus(_sha256_file(syllabus, "syllabus", digests),
                                                 corpus.vocabulary)
    return corpus, plan, _config_metadata(options, digests), order


# ---------------------------------------------------------------- synth

def _cmd_synth(args) -> int:
    cfg = synth.load_config(args.config) if args.config else synth.SynthConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    outputs = synth.generate(cfg, args.out_dir)  # which validates cfg before any output
    lines = ["# nextaction synth report"]
    for name in synth.SynthConfig.__dataclass_fields__:
        lines.append(f"config.{name}: {getattr(cfg, name)}")
    for label in ("events", "roster", "syllabus"):
        lines.append(f"output.{label}: {getattr(outputs, f'{label}_path').name}")
        lines.append(f"output.{label}.sha256: {outputs.sha256[label]}")
    _write_artifact("\n".join(lines) + "\n", args.out_dir, "synth", args.report)
    return 0


# ---------------------------------------------------------------- ingest

def _cmd_ingest(args) -> int:
    options = _merge_options(args)
    if not options["events"] or not options["roster"]:
        raise ConfigError("ingest needs --events and --roster")
    inputs: dict[str, str] = {}  # the SHA-256 of the bytes ingest read
    corpus, stats = ingest.ingest_files(
        options["events"], options["roster"],
        min_count=options["min_count"], on_malformed=options["on_malformed"], sha256=inputs,
    )
    out_dir = Path(args.out_dir)
    vocab_blob = _write_output(args.vocab_out or out_dir / "vocab.tsv",
                               ingest.save_vocabulary, corpus.vocabulary)
    corpus_blob = _write_output(args.corpus_out or out_dir / "corpus.nact",
                                ingest.save_corpus, corpus)

    meta = _config_metadata(options, inputs)
    lines = ["# nextaction ingest report", f"vocab_size: {corpus.vocab_size}",
             f"sequences: {len(corpus)}", f"total_actions: {corpus.total_actions}"]
    for name in ingest.IngestStats.__dataclass_fields__:
        lines.append(f"stats.{name}: {getattr(stats, name)}")
    lines.extend(f"meta.{k}: {v}" for k, v in sorted(meta.items()))
    lines.append(f"output.vocab.sha256: {hashlib.sha256(vocab_blob).hexdigest()}")
    lines.append(f"output.corpus.sha256: {hashlib.sha256(corpus_blob).hexdigest()}")
    _write_artifact("\n".join(lines) + "\n", args.out_dir, "ingest", args.report)
    return 0


# ---------------------------------------------------------------- ngram

def _cmd_ngram(args) -> int:
    options = _merge_options(args)
    max_order, sweep = options["max_order"], options["sweep"]
    if sweep and max_order < 2:
        raise ConfigError("--sweep needs --max-order >= 2")
    if sweep:
        _refuse_outputs("--sweep", {"--usage": options["usage"], "--save-model": args.save_model,
                                    "--stream": args.stream, "--csv": args.csv})
    spec = ngram.NGramSpec((max_order,))  # a cap no table can hold is refused before any read
    corpus, plan, meta, _ = _cv_inputs(args, options)
    if sweep:  # no fit holds an order above the longest sequence
        spec = ngram.NGramSpec(tuple(range(2, max(2, ngram.highest_order(corpus, max_order)) + 1)))
    reports = evaluation.cross_validate(spec, corpus, plan, keep_streams=bool(args.stream))
    if sweep:
        rows = [(f"order.{order}", report) for order, report in zip(spec.orders, reports)]
        return _write_comparison("# nextaction n-gram order sweep", meta, rows, args,
                                 "ngram-sweep")

    (report,) = reports
    report.metadata.update(meta)
    if options["usage"]:
        for order, fraction in ngram.fitted_usage(corpus, max_order).items():
            report.metadata[f"backoff_usage.{order}"] = f"{fraction:.10f}"
    if args.save_model:
        (predictor,), _ = report.full_fit
        _write_output(args.save_model, ngram.save_table, predictor.table)
    return _write_cv_outputs(report, args, "ngram-report")


# ---------------------------------------------------------------- lstm

def _parse_list(options: dict, key: str, caster) -> list:
    """The comma list of option ``key``, from a flag or a config file alike."""
    try:
        return [caster(part) for part in str(options[key]).split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"--{key} needs {caster.__name__} values, got {options[key]!r}") from None


def _write_curve(curve: list[lstm.EpochStats], path: Path) -> None:
    rows = ["epoch,train_loss,hillclimb_accuracy"]
    rows.extend(f"{s.epoch},{s.train_loss:.10f},{s.hillclimb_accuracy:.10f}" for s in curve)
    _write_output(path, _save_text, "\n".join(rows) + "\n")


def _cmd_lstm(args) -> int:
    options = _merge_options(args)
    configs = [lstm.TrainConfig(
        learning_rate=lr, epochs=options["epochs"], window=options["window"],
        batch_size=options["batch"], dropout_rate=options["dropout"],
        seed=options["seed"], hidden_size=nodes, layers=layers,
        embedding_dim=options["emb_dim"], cell=options["cell"],
    ) for layers, nodes, lr in product(_parse_list(options, "layers", int),
                                       _parse_list(options, "nodes", int),
                                       _parse_list(options, "lr", float))]
    if not configs:
        raise ConfigError("--layers, --nodes and --lr need at least one value")
    for cfg in configs:  # every combination of a grid, before any of them trains
        cfg.validate()
    if len(configs) > 1:
        _refuse_outputs("a grid", {"--save-model": args.save_model, "--stream": args.stream,
                                   "--csv": args.csv, "--curve-prefix": args.curve_prefix})

    corpus, plan, meta, _ = _cv_inputs(args, options)
    reports = [report for cfg in configs for report in evaluation.cross_validate(
        lstm.LstmSpec(cfg, workers=options["workers"], fit_full=bool(args.save_model)),
        corpus, plan, keep_streams=bool(args.stream),
    )]
    if len(configs) > 1:
        rows = [(f"grid.layers={cfg.layers}.nodes={cfg.hidden_size}.lr={cfg.learning_rate:g}",
                 report) for cfg, report in zip(configs, reports)]
        rows.sort(key=lambda row: -row[1].cv_accuracy)  # stable: ties keep grid order
        return _write_comparison("# nextaction lstm grid report", meta, rows, args, "lstm-grid")

    (report,) = reports
    report.metadata.update(meta)

    out_dir = Path(args.out_dir)
    prefix = args.curve_prefix or "curve"
    for fold, curve in enumerate(report.fold_extras):
        _write_curve(curve, out_dir / f"{prefix}-fold{fold}.csv")
    if report.full_fit:
        (predictor,), final_curve = report.full_fit
        _write_output(args.save_model, lstm.save_checkpoint, predictor.net)
        _write_curve(final_curve, out_dir / f"{prefix}-final.csv")
    return _write_cv_outputs(report, args, "lstm-report")


# ---------------------------------------------------------------- baseline

_SYLLABUS_MODELS = {"syllabus": baselines.SyllabusModel,
                    "combined": baselines.SyllabusRepeatModel}


def _cmd_baseline(args) -> int:
    options = _merge_options(args)
    name = options["model"]
    if name != "repeat" and name not in _SYLLABUS_MODELS:
        raise ConfigError(f"baseline model must be repeat, syllabus or combined, got {name!r}")
    if name != "repeat" and not args.syllabus:
        raise ConfigError(f"baseline {name!r} needs --syllabus")
    if name == "repeat" and args.syllabus:
        raise ConfigError("baseline 'repeat' reads no course order; it takes no --syllabus")
    corpus, plan, meta, syllabus = _cv_inputs(args, options, args.syllabus)
    model = baselines.RepeatModel() if name == "repeat" else _SYLLABUS_MODELS[name](syllabus)

    (report,) = evaluation.cross_validate(evaluation.FixedSpec(model), corpus, plan,
                                          keep_streams=bool(args.stream))
    report.metadata.update(meta)
    return _write_cv_outputs(report, args, "baseline-report")


# ---------------------------------------------------------------- eval

def _load_model(path: str, window: int | None, digests: dict[str, str]):
    """(predictor, description, V) of a saved checkpoint or n-gram table."""
    blob = _sha256_file(path, "model", digests)
    if blob.startswith(lstm.CHECKPOINT_MAGIC):
        net = lstm.load_checkpoint(blob, path, window=window)
        return lstm.LstmPredictor(net), f"lstm checkpoint {Path(path).name}", net.vocab_size
    if blob.startswith(b"#NGRAM"):
        if window is not None:
            raise ConfigError("--window overrides a checkpoint's window; an n-gram table has none")
        table = ngram.load_table(blob)
        description = f"{table.max_order}-gram table {Path(path).name}"
        return ngram.NGramPredictor(table), description, table.vocab_size
    raise ConfigError(f"unrecognized model file {path!r}")


def _cmd_eval(args) -> int:
    options = _merge_options(args)
    digests: dict[str, str] = {}
    corpus = _select_cohort(_load_corpus(args, digests), options["cohort"], 1)
    model, description, vocab_size = _load_model(args.model, options["window"], digests)
    if vocab_size != corpus.vocab_size:
        raise ConfigError(
            f"{description} has V={vocab_size}, which does not match corpus V={corpus.vocab_size}"
        )
    accuracy, n_scored = evaluation.transfer_eval(model, corpus, options["min_actions"])
    # a window override is echoed only when given, so other reports keep their bytes
    meta = _config_metadata(options, digests)
    lines = ["# nextaction transfer report", f"model: {description}",
             f"accuracy: {accuracy:.10f}", f"sequences_scored: {n_scored}"]
    lines.extend(f"meta.{k}: {v}" for k, v in sorted(meta.items()))
    _write_artifact("\n".join(lines) + "\n", args.out_dir, "transfer", args.report)
    return 0


# ---------------------------------------------------------------- agree

def _cmd_agree(args) -> int:
    table = evaluation.agreement(evaluation.read_stream(Path(args.a).read_bytes()),
                                 evaluation.read_stream(Path(args.b).read_bytes()))
    text = table.to_text()
    sys.stdout.write(text)
    if args.report or args.out_dir is not None:
        _write_artifact(text, args.out_dir, "agreement", args.report)
    return 0


# ---------------------------------------------------------------- parser

class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    # each option is a flag and a --config key of the same name, with its default, whose
    # type parses the value (False makes a switch); a bare type is an option with no default
    options: dict[str, object]
    files: tuple[str, ...]  # flags that only name a file, besides --config and --report


_CV_OPTIONS = {"folds": 5, "seed": 0, "cohort": "certified", "min_actions": 1, "workers": 1}
_COMMANDS = {
    "ingest": _Command(_cmd_ingest, "event log + roster -> vocab + corpus", {
        "events": str, "roster": str, "min_count": 40, "on_malformed": "abort",
    }, ("vocab_out", "corpus_out")),
    "ngram": _Command(_cmd_ngram, "fit/sweep gram models with CV report", {
        "max_order": 10, **_CV_OPTIONS, "sweep": False, "usage": False,
    }, ("corpus", "vocab", "save_model", "stream", "csv")),
    "lstm": _Command(_cmd_lstm, "train or grid-search the recurrent model", {
        "layers": "1", "nodes": "64", "lr": "0.01", "epochs": 10, "window": 10,
        "dropout": 0.2, "emb_dim": 64, "batch": 32, "cell": "lstm", **_CV_OPTIONS,
    }, ("corpus", "vocab", "save_model", "stream", "csv", "curve_prefix")),
    "baseline": _Command(_cmd_baseline, "repeat / syllabus / combined predictors", {
        "model": "repeat", **_CV_OPTIONS,
    }, ("corpus", "vocab", "syllabus", "stream", "csv")),
    "eval": _Command(_cmd_eval, "apply a saved model to a cohort", {
        "cohort": "uncertified", "min_actions": 30, "window": int,
    }, ("corpus", "vocab", "model")),
}
_REQUIRED_FILES = {"corpus", "vocab", "model"}  # baseline's --model is an option, not a file

# help by option name, or by "<subcommand> <name>" where subcommands differ
_HELP = {
    "config": "key=value file supplying option defaults",
    "report": "explicit report path (default content-addressed)",
    "workers": "parallel fold workers; only lstm forks, ngram and baseline echo the value",
    "corpus": "encoded corpus file", "vocab": "vocabulary file",
    "cohort": "certified, uncertified or all", "on_malformed": "abort or skip",
    "sweep": "evaluate every order from 2 to --max-order or the longest sequence, if shorter",
    "usage": "include the backoff order-usage histogram",
    "stream": "write the per-position prediction stream", "csv": "write fold accuracies as CSV",
    "layers": "layer count, or comma list for a grid",
    "nodes": "hidden size, or comma list for a grid",
    "lr": "learning rate, or comma list for a grid", "cell": "lstm or rnn",
    "dropout": "dropout rate, applied only between stacked layers (none with --layers 1)",
    "baseline model": "repeat, syllabus or combined", "syllabus": "course-order token file",
    "eval model": "saved n-gram table or checkpoint",
    "eval window": "context window override for checkpoints",
}


def _add_flag(parser, command: str, name: str, default, required: bool = False) -> None:
    """``--name`` into ``dest=name``, None unless given, so _merge_options sees it unset."""
    text = _HELP.get(f"{command} {name}", _HELP.get(name))
    if not isinstance(default, (bool, type)):
        text = f"{text} (default {default})" if text else f"default {default}"
    flag = "--" + name.replace("_", "-")
    if isinstance(default, bool):
        parser.add_argument(flag, action="store_const", const=True, dest=name, help=text)
    else:
        parser.add_argument(flag, type=_kind(default), dest=name, required=required, help=text)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand with its name and help, and the flags of
    ``command`` alone, or of every subcommand when it is None."""
    parser = argparse.ArgumentParser(
        prog="nextaction", description="Next-action prediction pipeline for sequential event logs")
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser | None:
        p = commands.add_parser(name, help=text)
        return p if command in (None, name) else None

    if p := add("synth", "generate a synthetic corpus"):
        p.add_argument("--config", help="key=value generator config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--report", default=None)
        p.add_argument("--out-dir", default=".", dest="out_dir")
        p.set_defaults(func=_cmd_synth)

    for name, spec in _COMMANDS.items():
        if p := add(name, spec.help):
            for option, default in spec.options.items():
                _add_flag(p, name, option, default)
            for option in ("config", "report", *spec.files):
                _add_flag(p, name, option, str, required=option in _REQUIRED_FILES)
            p.add_argument("--out-dir", default=".", dest="out_dir")
            p.set_defaults(func=spec.run)

    if p := add("agree", "2x2 agreement between prediction streams"):
        p.add_argument("a", help="first prediction stream")
        p.add_argument("b", help="second prediction stream")
        p.add_argument("--report", default=None)
        p.add_argument("--out-dir", default=None, dest="out_dir")
        p.set_defaults(func=_cmd_agree)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first word that is not an option names the subcommand; only its flags are built
    parser = build_parser(next((word for word in argv if not word.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NextactionError, OSError, MemoryError) as exc:  # an array too large to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

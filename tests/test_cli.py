import argparse
import builtins
import hashlib
import io
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import corpus_of, read_report
from nextaction import baselines, cli, evaluation, ingest, lstm, ngram, synth
from nextaction.cli import build_parser, main
from nextaction.config import read_kv_file
from nextaction.errors import MalformedRecordError, NextactionError


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small synth -> ingest pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    cfg = root / "synth.cfg"
    cfg.write_text(
        "vocab_size=16\nsyllabus_length=8\nstudents_certified=15\n"
        "students_uncertified=6\nmean_sequence_length=40\nseed=11\n",
        encoding="utf-8",
    )
    assert main(["synth", "--config", str(cfg), "--out-dir", str(root)]) == 0
    assert main([
        "ingest", "--events", str(root / "events.tsv"),
        "--roster", str(root / "roster.tsv"), "--min-count", "1",
        "--out-dir", str(root), "--report", str(root / "ingest.txt"),
    ]) == 0
    return root


class TestPipelineSmoke:
    def test_synth_then_ingest_then_ngram_report_parses(self, pipeline, tmp_path):
        report_path = tmp_path / "ngram.txt"
        rc = main([
            "ngram", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--max-order", "3", "--folds", "5", "--seed", "7",
            "--report", str(report_path), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        parsed = read_report(report_path)
        assert parsed["folds"] == "5"
        assert 0.0 <= float(parsed["cv_accuracy"]) <= 1.0
        assert parsed["meta.config.seed"] == "7"
        assert "meta.input.corpus.sha256" in parsed

    def test_max_order_zero_fails(self, pipeline, tmp_path):
        rc = main([
            "ngram", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--max-order", "0", "--out-dir", str(tmp_path),
        ])
        assert rc != 0

    def test_unknown_flag_fails(self):
        assert main(["ngram", "--bogus"]) != 0

    def test_missing_file_fails(self, tmp_path):
        rc = main([
            "ngram", "--corpus", str(tmp_path / "nope.nact"),
            "--vocab", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path),
        ])
        assert rc == 2

    def test_sweep_report(self, pipeline, tmp_path):
        report_path = tmp_path / "sweep.txt"
        rc = main([
            "ngram", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--max-order", "3", "--sweep", "--folds", "3", "--seed", "1",
            "--report", str(report_path), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        text = report_path.read_text()
        assert "order.2.cv_accuracy:" in text
        assert "order.3.cv_accuracy:" in text


@pytest.fixture
def opened(monkeypatch):
    """The (file name, mode) of each file opened while the test runs."""
    opened, real_open = [], io.open

    def spy_open(file, mode="r", *args, **kwargs):
        opened.append((Path(file).name, mode))
        return real_open(file, mode, *args, **kwargs)

    for owner in (builtins, io):
        monkeypatch.setattr(owner, "open", spy_open)
    return opened


class TestSetUpReadsEachFileOnce:
    def test_inputs_are_read_once_and_outputs_only_written(self, tmp_path, opened, monkeypatch):
        """``synth`` opens its config once and its outputs only to write them;
        ``ingest`` opens the log and the roster once each, hashes the bytes it
        read, and opens its outputs only to write them."""
        (tmp_path / "synth.cfg").write_text("students_certified=5\nstudents_uncertified=2\n")
        opened.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["synth", "--config", str(tmp_path / "synth.cfg"),
                         "--out-dir", str(tmp_path), "--report", str(tmp_path / "s.txt")]) == 0
            synth_opens, opened[:] = opened[:], []
            assert main(["ingest", "--events", str(tmp_path / "events.tsv"),
                         "--roster", str(tmp_path / "roster.tsv"), "--out-dir", str(tmp_path),
                         "--report", str(tmp_path / "i.txt")]) == 0
        monkeypatch.undo()
        reads = [name for name, mode in synth_opens if "r" in mode]
        assert reads == ["synth.cfg"]
        assert sorted(name for name, mode in synth_opens if "w" in mode) == [
            "events.tsv", "roster.tsv", "s.txt", "syllabus.txt"]
        assert sorted(opened) == [("corpus.nact", "wb"), ("events.tsv", "rb"), ("i.txt", "w"),
                                  ("roster.tsv", "rb"), ("vocab.tsv", "wb")]
        synth_report = read_report(tmp_path / "s.txt")
        ingest_report = read_report(tmp_path / "i.txt")
        for name, report, key in [("events.tsv", synth_report, "output.events.sha256"),
                                  ("events.tsv", ingest_report, "meta.input.events.sha256"),
                                  ("roster.tsv", ingest_report, "meta.input.roster.sha256"),
                                  ("syllabus.txt", synth_report, "output.syllabus.sha256"),
                                  ("vocab.tsv", ingest_report, "output.vocab.sha256"),
                                  ("corpus.nact", ingest_report, "output.corpus.sha256")]:
            assert report[key] == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


class TestEachHashedInputIsReadOnce:
    def test_each_subcommand_opens_each_input_once(self, tmp_path, opened):
        """From synth to agree, a subcommand opens each file it reads once, and its
        report's SHA-256 of that file, where it has one, is the file's."""
        (tmp_path / "synth.cfg").write_text("vocab_size=8\nsyllabus_length=4\n"
                                            "students_certified=6\nstudents_uncertified=3\n"
                                            "mean_sequence_length=12\n")
        at = {name: str(tmp_path / name) for name in (
            "synth.cfg", "events.tsv", "roster.tsv", "syllabus.txt", "model.ngram",
            "model.nlstm", "a.pred", "b.pred")}
        data = ["--corpus", str(tmp_path / "corpus.nact"), "--vocab", str(tmp_path / "vocab.tsv")]
        cv = [*data, "--folds", "3", "--cohort", "all"]
        evals = [*data, "--cohort", "all", "--min-actions", "2", "--model"]
        inputs = {"corpus.nact": "corpus", "vocab.tsv": "vocab"}  # each read, by its report key
        runs = [
            (["synth", "--config", at["synth.cfg"]], {"synth.cfg": None}),
            (["ingest", "--events", at["events.tsv"], "--roster", at["roster.tsv"],
              "--min-count", "1"], {"events.tsv": "events", "roster.tsv": "roster"}),
            (["ngram", *cv, "--max-order", "2", "--save-model", at["model.ngram"],
              "--stream", at["a.pred"]], inputs),
            (["lstm", *cv, "--nodes", "2", "--emb-dim", "2", "--epochs", "1", "--window", "3",
              "--save-model", at["model.nlstm"]], inputs),
            (["baseline", *cv, "--model", "combined", "--syllabus", at["syllabus.txt"],
              "--stream", at["b.pred"]], {**inputs, "syllabus.txt": "syllabus"}),
            (["eval", *evals, at["model.ngram"]], {**inputs, "model.ngram": "model"}),
            (["eval", *evals, at["model.nlstm"]],
             {**inputs, "model.nlstm": "model", "model.nlstm.manifest.txt": None}),
            (["agree", at["a.pred"], at["b.pred"]], {"a.pred": None, "b.pred": None}),
        ]
        for argv, reads in runs:
            opened.clear()
            report = tmp_path / f"{argv[0]}.txt"
            with redirect_stdout(io.StringIO()):
                assert main([*argv, "--report", str(report), "--out-dir", str(tmp_path)]) == 0
            assert sorted(name for name, mode in opened if "r" in mode) == sorted(reads), argv
            meta = read_report(report)
            for name, key in reads.items():
                if key is not None:
                    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    assert meta[f"meta.input.{key}.sha256"] == digest, argv

    def test_a_report_hashes_the_bytes_it_parsed(self, tiny, tmp_path, monkeypatch):
        """A corpus file rewritten after it is parsed leaves the report's digest
        that of the bytes parsed."""
        corpus = tmp_path / "corpus.nact"
        shutil.copy(tiny / "corpus.nact", corpus)
        parsed = hashlib.sha256(corpus.read_bytes()).hexdigest()
        load = ingest.load_corpus

        def load_then_overwrite(*args, **kwargs):
            loaded = load(*args, **kwargs)
            corpus.write_bytes(b"overwritten")
            return loaded

        monkeypatch.setattr(ingest, "load_corpus", load_then_overwrite)
        with redirect_stdout(io.StringIO()):
            assert main(["ngram", "--corpus", str(corpus), "--vocab", str(tiny / "vocab.tsv"),
                         "--folds", "3", "--report", str(tmp_path / "r.txt"),
                         "--out-dir", str(tmp_path)]) == 0
        assert read_report(tmp_path / "r.txt")["meta.input.corpus.sha256"] == parsed


class TestAgree:
    def test_identical_streams_zero_off_diagonal(self, pipeline, tmp_path, capsys):
        stream = tmp_path / "a.pred"
        rc = main([
            "ngram", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--max-order", "2", "--folds", "3", "--seed", "1",
            "--stream", str(stream), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        capsys.readouterr()
        assert main(["agree", str(stream), str(stream)]) == 0
        out = capsys.readouterr().out
        assert "a_only_correct: 0" in out
        assert "b_only_correct: 0" in out

    @pytest.mark.parametrize("out_dir", [None, ".", "sub"])
    def test_out_dir_writes_the_report(self, tmp_path, monkeypatch, out_dir):
        """With --out-dir, the current directory included, the table is also
        written there under a content-addressed name; without it, only printed."""
        monkeypatch.chdir(tmp_path)
        stream = tmp_path / "a.pred"
        stream.write_text("s1\t2\t1\t1\n", encoding="utf-8")
        argv = ["agree", str(stream), str(stream)]
        assert main(argv if out_dir is None else [*argv, "--out-dir", out_dir]) == 0
        written = [path.parent for path in tmp_path.rglob("agreement-*.txt")]
        assert written == ([] if out_dir is None else [tmp_path / out_dir])


class TestBaselineAndEval:
    def test_baseline_models(self, pipeline, tmp_path):
        for model in ("repeat", "syllabus", "combined"):
            syllabus = [] if model == "repeat" else ["--syllabus", str(pipeline / "syllabus.txt")]
            rc = main([
                "baseline", "--corpus", str(pipeline / "corpus.nact"),
                "--vocab", str(pipeline / "vocab.tsv"), "--model", model, *syllabus,
                "--folds", "3", "--seed", "2",
                "--report", str(tmp_path / f"{model}.txt"), "--out-dir", str(tmp_path),
            ])
            assert rc == 0
            parsed = read_report(tmp_path / f"{model}.txt")
            assert parsed["model"] == model if model != "combined" else True

    def test_repeat_refuses_a_syllabus_before_reading_any_input(self, tiny, tmp_path, capsys,
                                                                 monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "_load_corpus", lambda *args: loads.append(args))
        out = tmp_path / "out"
        assert main(["baseline", "--model", "repeat", "--syllabus", str(tmp_path / "nonexistent"),
                     "--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv"),
                     "--folds", "3", "--out-dir", str(out)]) == 2
        assert ("error: baseline 'repeat' reads no course order; it takes no --syllabus"
                in capsys.readouterr().err)
        assert loads == [] and not out.exists()

    def test_syllabus_model_without_a_syllabus_exits_2(self, tiny, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["baseline", "--model", "syllabus", "--corpus", str(tiny / "corpus.nact"),
                     "--vocab", str(tiny / "vocab.tsv"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: baseline 'syllabus' needs --syllabus"]
        assert not out.exists()

    def test_csv_rows_are_the_report_fold_accuracies(self, tiny, tmp_path):
        assert main(["baseline", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--folds", "3", "--csv", str(tmp_path / "f.csv"),
                     "--report", str(tmp_path / "r.txt"), "--out-dir", str(tmp_path)]) == 0
        parsed = read_report(tmp_path / "r.txt")
        assert (tmp_path / "f.csv").read_text().splitlines() == [
            "fold,accuracy", *(f"{i},{parsed[f'fold_accuracy.{i}']}" for i in range(3))]

    def test_eval_saved_ngram_on_uncertified(self, pipeline, tmp_path):
        model_path = tmp_path / "model.ngram"
        rc = main([
            "ngram", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--max-order", "3", "--folds", "3", "--seed", "1",
            "--save-model", str(model_path),
            "--report", str(tmp_path / "cv.txt"), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        rc = main([
            "eval", "--model", str(model_path),
            "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--cohort", "uncertified", "--min-actions", "2",
            "--report", str(tmp_path / "transfer.txt"), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        parsed = read_report(tmp_path / "transfer.txt")
        assert 0.0 <= float(parsed["accuracy"]) <= 1.0

    def test_lstm_single_run_with_curves_and_checkpoint(self, pipeline, tmp_path):
        ckpt = tmp_path / "model.nlstm"
        rc = main([
            "lstm", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--layers", "1", "--nodes", "8", "--lr", "0.01",
            "--epochs", "2", "--window", "5", "--emb-dim", "8",
            "--dropout", "0", "--folds", "3", "--seed", "3",
            "--save-model", str(ckpt),
            "--report", str(tmp_path / "lstm.txt"), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        for fold in range(3):
            curve = (tmp_path / f"curve-fold{fold}.csv").read_text().splitlines()
            assert curve[0] == "epoch,train_loss,hillclimb_accuracy"
            assert len(curve) == 3
        assert ckpt.exists()
        assert (tmp_path / "model.nlstm.manifest.txt").exists()

        rc = main([
            "eval", "--model", str(ckpt),
            "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--cohort", "certified", "--min-actions", "2",
            "--report", str(tmp_path / "transfer-lstm.txt"), "--out-dir", str(tmp_path),
        ])
        assert rc == 0

    def test_lstm_grid_mode(self, pipeline, tmp_path):
        report_path = tmp_path / "grid.txt"
        rc = main([
            "lstm", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--layers", "1,2", "--nodes", "8", "--lr", "0.01",
            "--epochs", "1", "--window", "5", "--emb-dim", "8",
            "--dropout", "0", "--folds", "3", "--seed", "3",
            "--report", str(report_path), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        text = report_path.read_text()
        assert "grid.layers=1.nodes=8.lr=0.01.cv_accuracy:" in text
        assert "grid.layers=2.nodes=8.lr=0.01.cv_accuracy:" in text


# a sweep or a grid writes one comparison report and none of these outputs
SWEEP = ["ngram", "--max-order", "3", "--sweep"]
GRID = ["lstm", "--layers", "1", "--nodes", "4,8", "--epochs", "1", "--window", "5",
        "--emb-dim", "8"]


class TestSweepAndGridOutputs:
    @pytest.mark.parametrize("argv, flag", [
        (SWEEP + ["--usage"], "--usage"),
        (SWEEP + ["--config", "{out}/usage.cfg"], "--usage"),
        (SWEEP + ["--save-model", "{out}/m.ngram"], "--save-model"),
        (SWEEP + ["--stream", "{out}/s.pred"], "--stream"),
        (SWEEP + ["--csv", "{out}/f.csv"], "--csv"),
        (GRID + ["--save-model", "{out}/m.nlstm"], "--save-model"),
        (GRID + ["--stream", "{out}/s.pred"], "--stream"),
        (GRID + ["--csv", "{out}/f.csv"], "--csv"),
        (GRID + ["--curve-prefix", "grid"], "--curve-prefix"),
    ])
    def test_an_output_they_would_drop_exits_2_before_any_fold(self, tiny, tmp_path, capsys,
                                                                monkeypatch, argv, flag):
        (tmp_path / "usage.cfg").write_text("usage=true\n", encoding="utf-8")
        runs = []
        monkeypatch.setattr(evaluation, "cross_validate", lambda *a, **k: runs.append(a))
        out = tmp_path / "out"
        out.mkdir()
        assert main([*(arg.format(out=tmp_path) for arg in argv), "--corpus",
                     str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv"),
                     "--folds", "3", "--out-dir", str(out)]) == 2
        assert f"takes no {flag}" in capsys.readouterr().err
        assert runs == [] and list(out.iterdir()) == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "usage.cfg"]

    def test_every_grid_combination_is_checked_before_any_trains(self, tiny, tmp_path, capsys,
                                                                 monkeypatch):
        calls = []
        train = lstm.train
        monkeypatch.setattr(lstm, "train", lambda *a, **k: calls.append(a) or train(*a, **k))
        assert main(["lstm", "--nodes", "8,0", "--epochs", "1", "--folds", "3", "--corpus",
                     str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv"),
                     "--out-dir", str(tmp_path)]) == 2
        assert "error: hidden and embedding sizes must be >= 1" in capsys.readouterr().err
        assert calls == []


class TestSweepAndGridThroughTheEvaluator:
    """A sweep row or a grid row is the evaluator's report of that one model."""

    @staticmethod
    def rows(report_path) -> dict[str, str]:
        return {key: value for key, value in read_report(report_path).items()
                if key.startswith(("order.", "grid."))}

    @staticmethod
    def lines(key: str, report: evaluation.EvalReport) -> dict[str, str]:
        return {f"{key}.cv_accuracy": f"{report.cv_accuracy:.10f}",
                f"{key}.fold_accuracy": " ".join(f"{a:.10f}" for a in report.per_fold_accuracy)}

    def test_each_sweep_row_is_the_evaluator_at_its_order(self, tiny, tmp_path):
        assert main(["ngram", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--max-order", "4", "--sweep", "--folds", "3",
                     "--seed", "9", "--report", str(tmp_path / "sweep.txt"),
                     "--out-dir", str(tmp_path)]) == 0
        corpus = ingest.filter_cohort(
            ingest.load_corpus((tiny / "corpus.nact").read_bytes()), True)
        plan = evaluation.make_folds(corpus.students, 3, 9)
        expected = {}
        for order in (2, 3, 4):
            (report,) = evaluation.cross_validate(ngram.NGramSpec((order,)), corpus, plan)
            expected.update(self.lines(f"order.{order}", report))
        assert self.rows(tmp_path / "sweep.txt") == expected

    def test_tied_grid_combinations_keep_grid_order(self, tmp_path):
        """With one action id every combination predicts it, and so scores 1.0 in
        every fold whatever it learned."""
        ingest.save_corpus(corpus_of([[0] * 12] * 9, 1), tmp_path / "corpus.nact")
        ingest.save_vocabulary(ingest.Vocabulary({"a": 0}, ["a"], [108], 1),
                               tmp_path / "vocab.tsv")
        assert main(["lstm", "--corpus", str(tmp_path / "corpus.nact"), "--vocab",
                     str(tmp_path / "vocab.tsv"), "--layers", "1,2", "--nodes", "8,16",
                     "--lr", "0.1", "--epochs", "1", "--window", "5", "--emb-dim", "4",
                     "--folds", "3", "--seed", "1", "--report", str(tmp_path / "grid.txt"),
                     "--out-dir", str(tmp_path)]) == 0
        rows = self.rows(tmp_path / "grid.txt")
        assert list(rows) == [f"grid.layers={layers}.nodes={nodes}.lr=0.1.{line}"
                              for layers in (1, 2) for nodes in (8, 16)
                              for line in ("cv_accuracy", "fold_accuracy")]
        assert set(rows.values()) == {"1.0000000000", " ".join(["1.0000000000"] * 3)}

    def test_grid_rows_are_the_evaluator_in_descending_accuracy(self, tiny, tmp_path):
        assert main(["lstm", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--nodes", "2,8", "--lr", "0.01,0.1",
                     "--epochs", "1", "--window", "5", "--emb-dim", "4", "--folds", "3",
                     "--seed", "9", "--report", str(tmp_path / "grid.txt"),
                     "--out-dir", str(tmp_path)]) == 0
        corpus = ingest.filter_cohort(
            ingest.load_corpus((tiny / "corpus.nact").read_bytes()), True)
        plan = evaluation.make_folds(corpus.students, 3, 9)
        expected = {}
        for nodes in (2, 8):
            for lr in (0.01, 0.1):
                cfg = lstm.TrainConfig(learning_rate=lr, epochs=1, window=5, seed=9,
                                       hidden_size=nodes, embedding_dim=4)
                (report,) = evaluation.cross_validate(lstm.LstmSpec(cfg), corpus, plan)
                expected.update(self.lines(f"grid.layers=1.nodes={nodes}.lr={lr:g}", report))
        rows = self.rows(tmp_path / "grid.txt")
        assert rows == expected
        accuracies = [float(v) for k, v in rows.items() if k.endswith(".cv_accuracy")]
        assert accuracies == sorted(accuracies, reverse=True)


class TestConfigMerging:
    def test_flags_override_config_file(self, pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_order=2\nfolds=3\nseed=5\n", encoding="utf-8")
        report_path = tmp_path / "merged.txt"
        rc = main([
            "ngram", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--config", str(cfg), "--max-order", "4",
            "--report", str(report_path), "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        parsed = read_report(report_path)
        assert parsed["meta.config.max_order"] == "4"  # flag wins
        assert parsed["meta.config.folds"] == "3"  # file fills the gap
        assert parsed["meta.config.seed"] == "5"

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a run\n\n   \nseed=3\n  # folds=9\nfolds=4\n", encoding="utf-8")
        assert read_kv_file(cfg, {"seed": int, "folds": int}) == {"seed": 3, "folds": 4}

    def test_synth_seed_override(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(
            "vocab_size=12\nsyllabus_length=6\nstudents_certified=4\n"
            "students_uncertified=0\nmean_sequence_length=20\nseed=1\n",
            encoding="utf-8",
        )
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(a)]) == 0
        assert main(["synth", "--config", str(cfg), "--seed", "2", "--out-dir", str(b)]) == 0
        assert (a / "events.tsv").read_bytes() != (b / "events.tsv").read_bytes()


class TestConfigErrors:
    def test_bad_value_exits_2(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "ingest.cfg"
        cfg.write_text("on_malformed=abort\nmin_count=abc\n", encoding="utf-8")
        rc = main([
            "ingest", "--config", str(cfg), "--events", str(pipeline / "events.tsv"),
            "--roster", str(pipeline / "roster.tsv"), "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "ngram.cfg"
        cfg.write_text("max_ordr=2\n", encoding="utf-8")
        rc = main([
            "ngram", "--config", str(cfg), "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"), "--folds", "3",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "max_ordr" in err
        assert not list(tmp_path.glob("ngram-report-*.txt"))


    # a repeat is found after '-' reads as '_', and blank and '#' lines count toward its line
    @pytest.mark.parametrize("command, text, key, line", [
        ("ngram", "seed=1\nseed=2\n", "seed", 2),
        ("ingest", "min-count=1\n# again\n\nmin_count=2\n", "min_count", 4),
        ("synth", "seed=1\nseed=1\n", "seed", 2),
    ], ids=["ngram", "ingest", "synth"])
    def test_a_key_set_twice_exits_2(self, pipeline, tmp_path, capsys, command, text, key,
                                     line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        data = {"synth": [],
                "ingest": ["--events", str(pipeline / "events.tsv"), "--roster",
                           str(pipeline / "roster.tsv")],
                "ngram": ["--corpus", str(pipeline / "corpus.nact"), "--vocab",
                          str(pipeline / "vocab.tsv")]}[command]
        out = tmp_path / "out"
        assert main([command, *data, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: run.cfg, line {line}: config key {key!r} is set twice"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, kind", [
        ("--layers", "abc", "int"), ("--nodes", "8,x", "int"), ("--lr", "fast", "float"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_numeric_list_value_exits_2(self, tiny, tmp_path, capsys, flag, value, kind,
                                            source):
        given = [flag, value]
        if source == "config":
            cfg = tmp_path / "lstm.cfg"
            cfg.write_text(f"{flag[2:]}={value}\n", encoding="utf-8")
            given = ["--config", str(cfg)]
        assert main(["lstm", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), *given, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {flag} needs {kind} values, got {value!r}"]


class TestIngestInputs:
    @pytest.mark.parametrize("given", ["--events", "--roster", None])
    def test_ingest_without_events_or_roster_exits_2(self, pipeline, tmp_path, capsys, given):
        files = {"--events": "events.tsv", "--roster": "roster.tsv"}
        argv = [] if given is None else [given, str(pipeline / files[given])]
        out = tmp_path / "out"
        assert main(["ingest", *argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ingest needs --events and --roster"]
        assert not out.exists()


@pytest.mark.filterwarnings("error")
class TestSeedAndNonFiniteValues:
    """A negative seed, a non-finite learning rate and a nan move probability are
    refused before any work, with one error line."""

    @pytest.mark.parametrize("command", ["synth", "ngram", "lstm", "baseline"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2(self, tiny, tmp_path, capsys, command, source):
        given = ["--seed", "-3"]
        if source == "config":
            (tmp_path / "run.cfg").write_text("seed=-3\n", encoding="utf-8")
            given = ["--config", str(tmp_path / "run.cfg")]
        data = [] if command == "synth" else [
            "--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv")]
        assert main([command, *data, *given, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -3"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, tiny, tmp_path, capsys, lr):
        assert main(["lstm", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--lr", lr, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: learning rate must be finite and > 0, got {lr}"]

    def test_nan_move_probability_exits_2(self, tmp_path, capsys):
        (tmp_path / "synth.cfg").write_text("p_jump=nan\n", encoding="utf-8")
        assert main(["synth", "--config", str(tmp_path / "synth.cfg"),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: move probabilities must sum to 1, got nan"]
        assert not (tmp_path / "out").exists()


class TestHostileSizes:
    """A size that numpy cannot describe, or that no memory holds, ends in one error
    line and exit 2.  Each size asks for more than 2**47 bytes, which no allocation
    grants under any overcommit policy, or for a shape numpy refuses outright."""

    too_large = "larger than numpy can describe"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("option, value, message", [
        ("emb_dim", 10**13, "Unable to allocate"),  # about 1.2 PiB of embedding
        ("window", 10**14, "Unable to allocate"),  # at least 0.7 PiB of training windows
        ("nodes", 10**18, too_large),
        ("nodes", 10**19, too_large),
        ("emb_dim", 10**19, too_large),
        ("window", 10**19, too_large),
    ])
    def test_lstm_size_exits_2(self, tiny, tmp_path, capsys, source, option, value, message):
        given = [f"--{option.replace('_', '-')}", str(value)]
        if source == "config":
            (tmp_path / "run.cfg").write_text(f"{option}={value}\n", encoding="utf-8")
            given = ["--config", str(tmp_path / "run.cfg")]
        assert main(["lstm", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--epochs", "1", *given,
                     "--out-dir", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("key, value, message", [
        ("vocab_size", 2**45, "Unable to allocate"),  # 256 TiB of kernel row
        ("students_certified", 2**46, "Unable to allocate"),  # 256 TiB of seed words
        ("mean_sequence_length", 10**14, "Unable to allocate"),  # about 0.7 PiB of draws
        ("vocab_size", 10**19, too_large),
        ("students_certified", 10**19, too_large),
        ("mean_sequence_length", 10**19, too_large),
    ])
    def test_synth_size_exits_2(self, tmp_path, capsys, key, value, message):
        (tmp_path / "synth.cfg").write_text(f"{key}={value}\n", encoding="utf-8")
        assert main(["synth", "--config", str(tmp_path / "synth.cfg"),
                     "--out-dir", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not (tmp_path / "out").exists()


class TestMalformedStream:
    def test_agree_exits_2_on_a_bad_record(self, tmp_path, capsys):
        good = tmp_path / "a.pred"
        good.write_text("s1\t2\t1\t1\ns1\t3\t2\t3\n", encoding="utf-8")
        bad = tmp_path / "b.pred"
        bad.write_text("s1\t2\t1\t1\ns1\t2\tx\t3\n", encoding="utf-8")
        assert main(["agree", str(good), str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_agree_names_a_line_whose_id_is_not_utf8(self, tmp_path, capsys):
        """A stream's parse checks every byte outside the ids as ASCII, and one id is
        decoded per run of equal ids: a bad byte in an id deep inside a block is
        named by its line."""
        lines = [f"s{i // 3}\t{i % 3 + 2}\t1\t1\n".encode() for i in range(2000)]
        good = tmp_path / "a.pred"
        good.write_bytes(b"".join(lines))
        lines[1499] = b"s\xff\t2\t1\t1\n"
        bad = tmp_path / "b.pred"
        bad.write_bytes(b"".join(lines))
        assert len(bad.read_bytes()) < ingest._BLOCK  # one block, whose first line is line 1
        assert main(["agree", str(good), str(bad)]) == 2
        assert "line 1500: not UTF-8" in capsys.readouterr().err


class TestHostileModelAndCorpus:
    @pytest.fixture(scope="class")
    def model(self, pipeline, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.ngram"
        assert main([
            "ngram", "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"),
            "--max-order", "3", "--folds", "3", "--save-model", str(path),
            "--out-dir", str(path.parent),
        ]) == 0
        return path

    def eval_exit(self, pipeline, model_path, corpus_path, tmp_path):
        return main([
            "eval", "--model", str(model_path), "--corpus", str(corpus_path),
            "--vocab", str(pipeline / "vocab.tsv"), "--min-actions", "2",
            "--out-dir", str(tmp_path),
        ])

    def test_eval_exits_2_on_a_bad_table_record(self, pipeline, model, tmp_path, capsys):
        bad = tmp_path / "bad.ngram"
        bad.write_text(model.read_text() + "3\t1,2\tx\t4\n")
        assert self.eval_exit(pipeline, bad, pipeline / "corpus.nact", tmp_path) == 2
        lines = model.read_text().count("\n")
        assert f"line {lines + 1}:" in capsys.readouterr().err

    def test_eval_exits_2_when_table_v_differs_from_corpus(self, pipeline, model, tmp_path, capsys):
        text = model.read_text()
        v = int(text.split("V=", 1)[1].split("\n", 1)[0])
        other = tmp_path / "other.ngram"
        other.write_text(text.replace(f"V={v}\n", f"V={v + 1}\n", 1))
        assert self.eval_exit(pipeline, other, pipeline / "corpus.nact", tmp_path) == 2
        assert "does not match corpus" in capsys.readouterr().err

    def test_truncated_corpus_exits_2(self, pipeline, model, tmp_path, capsys):
        cut = tmp_path / "cut.nact"
        cut.write_bytes((pipeline / "corpus.nact").read_bytes()[:1000])
        assert main([
            "ngram", "--corpus", str(cut), "--vocab", str(pipeline / "vocab.tsv"),
            "--max-order", "3", "--out-dir", str(tmp_path),
        ]) == 2
        assert "truncated" in capsys.readouterr().err
        assert self.eval_exit(pipeline, model, cut, tmp_path) == 2

    @pytest.mark.parametrize("sid, reason", [
        (None, "appears twice"), ("s\t4", "is empty or holds a tab or a newline"),
    ])
    def test_bad_student_id_exits_2(self, pipeline, tmp_path, capsys, sid, reason):
        corpus = ingest.load_corpus((pipeline / "corpus.nact").read_bytes())
        rows = corpus.sequences
        rows.append(ingest.StudentSequence(sid or rows[0].student_id, rows[0].actions, True))
        hostile = tmp_path / "hostile.nact"
        ingest.save_corpus(corpus_of(rows, corpus.vocab_size), hostile)
        assert main([
            "baseline", "--corpus", str(hostile), "--vocab", str(pipeline / "vocab.tsv"),
            "--folds", "3", "--stream", str(tmp_path / "b.pred"), "--out-dir", str(tmp_path),
        ]) == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "b.pred").exists()


class TestHostileCheckpointAndVocabulary:
    @pytest.fixture
    def checkpoint(self, pipeline, tmp_path):
        v = ingest.load_corpus((pipeline / "corpus.nact").read_bytes()).vocab_size
        path = tmp_path / "model.nlstm"
        net = lstm.init_network(v, 4, 5, 2, 0.2, 6, rng=np.random.default_rng(0))
        lstm.save_checkpoint(net, path)
        return path

    def eval_exit(self, pipeline, model_path, tmp_path, *extra):
        return main([
            "eval", "--model", str(model_path), "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"), "--min-actions", "2",
            "--out-dir", str(tmp_path), *extra,
        ])

    def test_intact_checkpoint_evaluates(self, pipeline, checkpoint, tmp_path):
        assert self.eval_exit(pipeline, checkpoint, tmp_path) == 0

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: blob[:-8] + bytes([blob[-8] ^ 1]) + blob[-7:], "SHA-256 in its manifest"),
        (lambda blob: blob[:30] + bytes([7]) + blob[31:], "byte 30: unknown cell byte 7"),
        (lambda blob: blob[:20], "byte 20: short header"),
        (lambda blob: blob[:-5], "tensor region ends early"),
    ])
    def test_damaged_checkpoint_exits_2(self, pipeline, checkpoint, tmp_path, capsys, damage,
                                        message):
        checkpoint.write_bytes(damage(checkpoint.read_bytes()))
        assert self.eval_exit(pipeline, checkpoint, tmp_path) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    def test_non_integer_manifest_window_exits_2(self, pipeline, checkpoint, tmp_path, capsys):
        manifest = tmp_path / "model.nlstm.manifest.txt"
        manifest.write_text(manifest.read_text().replace("window: 6", "window: six"))
        assert self.eval_exit(pipeline, checkpoint, tmp_path) == 2
        assert "error: line 3: window is not a positive integer" in capsys.readouterr().err

    def test_a_checkpoint_without_its_manifest_exits_2(self, pipeline, checkpoint, tmp_path,
                                                        capsys):
        blob = checkpoint.read_bytes()
        checkpoint.write_bytes(blob[:-8] + bytes([blob[-8] ^ 1]) + blob[-7:])
        (tmp_path / "model.nlstm.manifest.txt").unlink()
        assert self.eval_exit(pipeline, checkpoint, tmp_path, "--window", "5") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: model.nlstm has no manifest model.nlstm.manifest.txt to verify it against"]

    def test_bad_vocabulary_record_exits_2(self, pipeline, tmp_path, capsys):
        text = (pipeline / "vocab.tsv").read_text(encoding="utf-8")
        v = text.count("\n") - 1
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text(text + f"tokx\t{v}\tabc\n", encoding="utf-8")
        assert main([
            "ngram", "--corpus", str(pipeline / "corpus.nact"), "--vocab", str(vocab),
            "--max-order", "3", "--out-dir", str(tmp_path),
        ]) == 2
        assert f"error: line {v + 2}: record is not" in capsys.readouterr().err


class TestEvalChecksModelAgainstCorpus:
    def eval_run(self, pipeline, model_path, tmp_path, *extra):
        return main([
            "eval", "--model", str(model_path), "--corpus", str(pipeline / "corpus.nact"),
            "--vocab", str(pipeline / "vocab.tsv"), "--min-actions", "2",
            "--out-dir", str(tmp_path), "--report", str(tmp_path / "transfer.txt"), *extra,
        ])

    def checkpoint(self, tmp_path, vocab_size):
        path = tmp_path / "model.nlstm"
        net = lstm.init_network(vocab_size, 4, 5, 1, 0.0, 6, rng=np.random.default_rng(0))
        lstm.save_checkpoint(net, path)
        return path

    @pytest.mark.parametrize("shift", [1, -1])  # the corpus V is smaller, then larger
    def test_checkpoint_v_differs_from_corpus(self, pipeline, tmp_path, capsys, shift):
        v = ingest.load_corpus((pipeline / "corpus.nact").read_bytes()).vocab_size
        path = self.checkpoint(tmp_path, v + shift)
        assert self.eval_run(pipeline, path, tmp_path) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"V={v + shift}" in err and f"corpus V={v}" in err

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_window_below_one_exits_2(self, pipeline, tmp_path, capsys, window):
        v = ingest.load_corpus((pipeline / "corpus.nact").read_bytes()).vocab_size
        path = self.checkpoint(tmp_path, v)
        assert self.eval_run(pipeline, path, tmp_path, "--window", window) == 2
        assert f"error: window must be >= 1, got {window}" in capsys.readouterr().err

    def test_a_window_override_still_checks_the_stated_window(self, pipeline, tmp_path,
                                                                capsys):
        v = ingest.load_corpus((pipeline / "corpus.nact").read_bytes()).vocab_size
        path = self.checkpoint(tmp_path, v)
        manifest = tmp_path / "model.nlstm.manifest.txt"
        manifest.write_text(manifest.read_text().replace("window: 6", "window: x"))
        assert self.eval_run(pipeline, path, tmp_path, "--window", "5") == 2
        assert ("error: line 3: window is not a positive integer: 'x'"
                in capsys.readouterr().err)

    def test_window_override_is_recorded(self, pipeline, tmp_path):
        v = ingest.load_corpus((pipeline / "corpus.nact").read_bytes()).vocab_size
        path = self.checkpoint(tmp_path, v)
        assert self.eval_run(pipeline, path, tmp_path) == 0
        assert "meta.config.window" not in read_report(tmp_path / "transfer.txt")
        assert self.eval_run(pipeline, path, tmp_path, "--window", "3") == 0
        assert read_report(tmp_path / "transfer.txt")["meta.config.window"] == "3"


class TestEvalWindowOnTable:
    def test_window_with_an_ngram_table_exits_2(self, pipeline, tmp_path, capsys):
        corpus = ["--corpus", str(pipeline / "corpus.nact"), "--vocab", str(pipeline / "vocab.tsv")]
        table = tmp_path / "model.ngram"
        assert main(["ngram", *corpus, "--max-order", "2", "--folds", "3",
                     "--save-model", str(table), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["eval", *corpus, "--model", str(table), "--window", "3",
                     "--min-actions", "2", "--out-dir", str(tmp_path)]) == 2
        assert "error: --window overrides a checkpoint's window" in capsys.readouterr().err

    def test_a_table_whose_header_order_is_far_above_its_records(self, pipeline, tmp_path):
        """max_order=20000 over records of orders 1-2 scores as the order-2 table does."""
        corpus = ["--corpus", str(pipeline / "corpus.nact"), "--vocab", str(pipeline / "vocab.tsv")]
        table, wide = tmp_path / "model.ngram", tmp_path / "wide.ngram"
        assert main(["ngram", *corpus, "--max-order", "2", "--folds", "3",
                     "--save-model", str(table), "--out-dir", str(tmp_path)]) == 0
        wide.write_bytes(table.read_bytes().replace(b"max_order=2", b"max_order=20000", 1))
        for model in (table, wide):
            assert main(["eval", *corpus, "--model", str(model), "--min-actions", "2",
                         "--report", str(tmp_path / f"{model.stem}.txt"),
                         "--out-dir", str(tmp_path)]) == 0
        reports = [read_report(tmp_path / f"{name}.txt") for name in ("model", "wide")]
        assert reports[1]["model"] == "20000-gram table wide.ngram"
        assert reports[0]["accuracy"] == reports[1]["accuracy"]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The acceptance suite's criterion-8 corpus, ingested."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "synth.cfg"
    cfg.write_text(
        "vocab_size=16\nsyllabus_length=8\nstudents_certified=15\n"
        "students_uncertified=5\nmean_sequence_length=40\nseed=31\n",
        encoding="utf-8",
    )
    assert main(["synth", "--config", str(cfg), "--out-dir", str(root)]) == 0
    assert main(["ingest", "--events", str(root / "events.tsv"), "--roster",
                 str(root / "roster.tsv"), "--min-count", "1", "--out-dir", str(root)]) == 0
    return root


class TestWorkerCount:
    """Folds on forked processes write what one in-process worker writes.

    Reports echo the --workers value as ``meta.config.workers``; every
    other byte of every output matches.
    """

    COMMANDS = {
        "ngram": ["ngram", "--max-order", "3", "--usage", "--save-model", "{out}/model.ngram",
                  "--stream", "{out}/model.pred"],
        "ngram-sweep": ["ngram", "--max-order", "4", "--sweep"],
        "lstm": ["lstm", "--layers", "1", "--nodes", "8", "--lr", "0.01", "--epochs", "2",
                 "--window", "5", "--emb-dim", "8", "--dropout", "0.2",
                 "--save-model", "{out}/model.nlstm", "--stream", "{out}/lstm.pred"],
        "baseline": ["baseline", "--model", "combined", "--syllabus", "{data}/syllabus.txt",
                     "--stream", "{out}/baseline.pred"],
    }

    def outputs(self, tiny, tmp_path, command, workers):
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        argv = [arg.format(out=out, data=tiny) for arg in self.COMMANDS[command]]
        assert main([*argv, "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--folds", "3", "--seed", "9", "--workers",
                     str(workers), "--report", str(out / "report.txt"), "--out-dir", str(out),
                     ]) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        echo = f"meta.config.workers: {workers}\n".encode()
        assert files["report.txt"].count(echo) == 1
        files["report.txt"] = files["report.txt"].replace(echo, b"")
        return files

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_outputs_match_at_one_and_two_workers(self, tiny, tmp_path, command):
        one = self.outputs(tiny, tmp_path, command, 1)
        two = self.outputs(tiny, tmp_path, command, 2)
        assert one.keys() == two.keys()
        assert [name for name in one if one[name] != two[name]] == []

    def test_lstm_writes_every_curve_checkpoint_and_manifest(self, tiny, tmp_path):
        names = set(self.outputs(tiny, tmp_path, "lstm", 2))
        assert names == {"report.txt", "lstm.pred", "model.nlstm", "model.nlstm.manifest.txt",
                         "curve-fold0.csv", "curve-fold1.csv", "curve-fold2.csv",
                         "curve-final.csv"}


class TestValuesBelowOne:
    """--workers and --min-actions below 1 exit 2 on every path that reads them."""

    GRID = ["lstm", "--layers", "1", "--nodes", "4,8", "--epochs", "1", "--window", "5",
            "--emb-dim", "8"]

    @pytest.mark.parametrize("command", [*TestWorkerCount.COMMANDS, "lstm-grid"])
    def test_workers_below_one_exits_2(self, tiny, tmp_path, capsys, command):
        argv = self.GRID if command == "lstm-grid" else [
            arg.format(out=tmp_path, data=tiny) for arg in TestWorkerCount.COMMANDS[command]]
        assert main([*argv, "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--folds", "3", "--workers", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert "workers must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ngram", "lstm", "baseline"])
    def test_workers_below_one_exits_2_before_any_input_is_read(self, tmp_path, capsys,
                                                                command):
        assert main([command, "--corpus", str(tmp_path / "none.nact"), "--vocab",
                     str(tmp_path / "none.tsv"), "--workers", "0",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cohort", ["certified", "uncertified", "all"])
    def test_min_actions_below_one_exits_2_for_every_cohort(self, tiny, tmp_path, capsys, cohort):
        assert main(["baseline", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--folds", "3", "--cohort", cohort,
                     "--min-actions", "-5", "--out-dir", str(tmp_path)]) == 2
        assert "min_actions must be >= 1, got -5" in capsys.readouterr().err

    def test_eval_min_actions_below_one_exits_2(self, tiny, tmp_path, capsys):
        corpus = ["--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv")]
        model = tmp_path / "model.ngram"
        assert main(["ngram", *corpus, "--max-order", "2", "--folds", "3",
                     "--save-model", str(model), "--out-dir", str(tmp_path)]) == 0
        assert main(["eval", *corpus, "--model", str(model), "--min-actions", "-5",
                     "--out-dir", str(tmp_path)]) == 2
        assert "min_actions must be >= 1, got -5" in capsys.readouterr().err


_LSTM = ["lstm", "--epochs", "1", "--nodes", "4", "--window", "5", "--emb-dim", "4"]
_CV_DATA = ["--corpus", "{data}/corpus.nact", "--vocab", "{data}/vocab.tsv", "--folds", "3"]
_LOG = ["--events", "{data}/events.tsv", "--roster", "{data}/roster.tsv", "--min-count", "1"]


class TestOutputDirectories:
    """Every output makes the missing directories above it, as --report does, and
    writes there the bytes it writes into an existing directory."""

    OUTPUTS = {
        "ngram --stream": ["ngram", *_CV_DATA, "--max-order", "2", "--stream", "{dir}/x.pred"],
        "ngram --save-model": ["ngram", *_CV_DATA, "--max-order", "2",
                               "--save-model", "{dir}/m.ngram"],
        "baseline --csv": ["baseline", *_CV_DATA, "--csv", "{dir}/f.csv"],
        "baseline --report": ["baseline", *_CV_DATA, "--report", "{dir}/r.txt"],
        "lstm --save-model": [*_LSTM, *_CV_DATA, "--save-model", "{dir}/m.lstm"],
        "lstm curves": [*_LSTM, *_CV_DATA, "--out-dir", "{dir}"],
        "ingest --vocab-out": ["ingest", *_LOG, "--vocab-out", "{dir}/v.tsv"],
        "ingest --corpus-out": ["ingest", *_LOG, "--corpus-out", "{dir}/c.nact"],
    }

    @pytest.mark.parametrize("case", list(OUTPUTS))
    def test_an_output_into_a_new_nested_directory(self, tiny, tmp_path, case):
        written = []
        for where in ("old", "new/deep"):
            target = tmp_path / where
            if where == "old":
                target.mkdir()
            rest = tmp_path / f"rest-{where.replace('/', '-')}"  # the outputs not under test
            argv = [arg.format(data=tiny, dir=target) for arg in self.OUTPUTS[case]]
            assert main([argv[0], "--out-dir", str(rest), *argv[1:]]) == 0
            written.append({path.name: path.read_bytes() for path in target.iterdir()})
        old, new = written
        assert len(old) >= 1 and new == old


class TestSpecNames:
    """A spec's names are the ``model:`` lines of the reports the CLI writes for it."""

    @pytest.mark.parametrize("argv, spec", [
        (["ngram", "--max-order", "4"], lambda _: ngram.NGramSpec((4,))),
        ([*_LSTM, "--layers", "2", "--cell", "rnn"], lambda _: lstm.LstmSpec(lstm.TrainConfig(
            hidden_size=4, layers=2, cell="rnn"))),
        (["baseline", "--model", "repeat"],
         lambda _: evaluation.FixedSpec(baselines.RepeatModel())),
        (["baseline", "--model", "combined", "--syllabus", "{data}/syllabus.txt"],
         lambda data: evaluation.FixedSpec(baselines.SyllabusRepeatModel(baselines.load_syllabus(
             (data / "syllabus.txt").read_bytes(),
             ingest.load_vocabulary((data / "vocab.tsv").read_bytes()))))),
    ], ids=["ngram", "lstm", "baseline-repeat", "baseline-combined"])
    def test_names_are_the_report_model_lines(self, tiny, tmp_path, argv, spec):
        assert main([*(arg.format(data=tiny) for arg in argv + _CV_DATA),
                     "--report", str(tmp_path / "r.txt"), "--out-dir", str(tmp_path)]) == 0
        assert spec(tiny).names == [read_report(tmp_path / "r.txt")["model"]]


class TestInProcessNgram:
    def test_ngram_starts_no_process(self, tiny, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        corpus = ["--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv")]
        for mode in (["--usage", "--save-model", str(tmp_path / "model.ngram"),
                      "--stream", str(tmp_path / "model.pred")], ["--sweep"]):
            assert main(["ngram", *corpus, "--max-order", "3", "--folds", "3", "--workers",
                         "2", *mode, "--out-dir", str(tmp_path)]) == 0

    def test_usage_runs_no_backoff_lookup(self, tiny, tmp_path, monkeypatch):
        """The histogram of the table fitted on the corpus is read from positions."""
        def refuse(*args, **kwargs):
            raise AssertionError("a backoff lookup ran")

        monkeypatch.setattr(ngram, "backoff_usage", refuse)
        monkeypatch.setattr(ngram, "_backoff", refuse)
        corpus = ["--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv")]
        for save in ([], ["--save-model", str(tmp_path / "model.ngram")]):
            report = tmp_path / f"ngram-{len(save)}.txt"
            assert main(["ngram", *corpus, "--max-order", "3", "--folds", "3", "--usage", *save,
                         "--report", str(report), "--out-dir", str(tmp_path)]) == 0
            assert "meta.backoff_usage.3" in read_report(report)

    def test_usage_stops_at_the_longest_sequence(self, tiny, tmp_path):
        """A cap far above the data writes no order that no position can reach."""
        corpus = ["--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv")]
        report = tmp_path / "usage.txt"
        assert main(["ngram", *corpus, "--max-order", "1000000", "--folds", "3", "--usage",
                     "--cohort", "all", "--report", str(report), "--out-dir", str(tmp_path)]) == 0
        longest = int(ingest.load_corpus((tiny / "corpus.nact").read_bytes()).lengths.max())
        orders = sorted(int(key.rsplit(".", 1)[1]) for key in read_report(report)
                        if key.startswith("meta.backoff_usage."))
        assert orders == list(range(1, longest + 1))

    def test_sweep_stops_at_the_longest_sequence(self, tiny, tmp_path):
        """A sweep far above the data has one row per order a fit can hold."""
        corpus = ["--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv")]
        report = tmp_path / "sweep.txt"
        assert main(["ngram", *corpus, "--max-order", "1000000000", "--folds", "3", "--sweep",
                     "--cohort", "all", "--report", str(report), "--out-dir", str(tmp_path)]) == 0
        longest = int(ingest.load_corpus((tiny / "corpus.nact").read_bytes()).lengths.max())
        orders = [int(key.split(".")[1]) for key in read_report(report)
                  if key.endswith(".cv_accuracy")]
        assert orders == list(range(2, longest + 1))

    def test_a_cap_no_table_header_holds_exits_2_before_any_output(self, tiny, tmp_path, capsys):
        """A saved header's max_order has at most 18 digits, so 10**18 is refused and
        10**18 - 1 saves a table that eval reads."""
        corpus = ["--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv")]
        out = tmp_path / "out"
        for sweep in ([], ["--sweep"]):
            assert main(["ngram", *corpus, "--max-order", str(10**18), "--folds", "3", *sweep,
                         "--out-dir", str(out)]) == 2
            assert "max_order must be below 10**18" in capsys.readouterr().err
        model = tmp_path / "m.ngram"
        assert main(["ngram", *corpus, "--max-order", str(10**18), "--folds", "3",
                     "--save-model", str(model), "--stream", str(tmp_path / "m.pred"),
                     "--out-dir", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []
        assert main(["ngram", *corpus, "--max-order", str(10**18 - 1), "--folds", "3",
                     "--save-model", str(model), "--out-dir", str(out)]) == 0
        assert main(["eval", *corpus, "--model", str(model), "--cohort", "all",
                     "--min-actions", "2", "--out-dir", str(out)]) == 0

    def test_eval_reads_an_ngram_table_once(self, tiny, tmp_path, opened):
        """Its magic, its table and its digest all come from one read."""
        corpus = ["--corpus", str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv")]
        model = tmp_path / "model.ngram"
        assert main(["ngram", *corpus, "--max-order", "2", "--folds", "3",
                     "--save-model", str(model), "--out-dir", str(tmp_path)]) == 0
        opened.clear()
        assert main(["eval", *corpus, "--model", str(model), "--cohort", "all",
                     "--min-actions", "2", "--out-dir", str(tmp_path)]) == 0
        assert [mode for name, mode in opened if name == model.name] == ["rb"]


class TestFoldWorkerFault:
    """A fault raised inside a forked fold worker, or in the n-gram count that
    serves every fold in process, ends in exit 2 with its message; so does a
    worker that dies."""

    def test_numerical_fault(self, tiny, tmp_path, capsys, monkeypatch):
        build = lstm.network_from_config

        def poisoned(vocab_size, cfg):
            net = build(vocab_size, cfg)
            net.layers[0].W_h[0, 0, 0] = np.nan
            return net

        monkeypatch.setattr(lstm, "network_from_config", poisoned)  # inherited by the fork
        assert main(["lstm", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--nodes", "4", "--emb-dim", "4", "--epochs", "1",
                     "--folds", "3", "--workers", "2", "--out-dir", str(tmp_path)]) == 2
        assert "error: epoch 1: non-finite parameter" in capsys.readouterr().err

    def test_record_error(self, tiny, tmp_path, capsys, monkeypatch):
        def refuse(corpus, max_order, *rest):
            raise MalformedRecordError(5, "refused in the count", unit="byte")

        monkeypatch.setattr(ngram, "fit", refuse)
        for sweep in ([], ["--sweep"]):
            assert main(["ngram", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                         str(tiny / "vocab.tsv"), "--folds", "3", "--workers", "2", *sweep,
                         "--out-dir", str(tmp_path)]) == 2
            assert "error: byte 5: refused in the count" in capsys.readouterr().err

    def test_a_worker_that_dies(self, tiny, tmp_path, capsys, monkeypatch):
        build, parent = lstm.network_from_config, os.getpid()

        def die(vocab_size, cfg):
            if os.getpid() != parent:
                os._exit(1)
            return build(vocab_size, cfg)

        monkeypatch.setattr(lstm, "network_from_config", die)  # inherited by the fork
        assert main(["lstm", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--nodes", "4", "--emb-dim", "4", "--epochs", "1",
                     "--folds", "3", "--workers", "2", "--out-dir", str(tmp_path)]) == 2
        assert "error: a fold worker stopped" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestOverflowingActivations:
    """Finite parameters whose activations overflow to NaN end a run in exit 2."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_training_stops_in_the_epoch_of_the_fault(self, tiny, tmp_path, capsys, workers):
        assert main(["lstm", "--corpus", str(tiny / "corpus.nact"), "--vocab",
                     str(tiny / "vocab.tsv"), "--layers", "1", "--nodes", "8", "--emb-dim", "8",
                     "--window", "5", "--epochs", "2", "--folds", "3", "--seed", "9",
                     "--lr", "1e300", "--workers", workers, "--out-dir", str(tmp_path)]) == 2
        assert "error: epoch 1: non-finite output probability" in capsys.readouterr().err

    def test_eval_of_such_a_checkpoint_exits_2(self, tiny, tmp_path, capsys):
        v = ingest.load_corpus((tiny / "corpus.nact").read_bytes()).vocab_size
        net = lstm.init_network(v, 4, 5, 1, 0.0, 6, rng=np.random.default_rng(0))
        # every value is finite, but 1e308 * 1e308 - 1e308 * 1e308 is NaN
        net.embedding[:, :2] = 1e308
        net.layers[0].W_x[:, :, 0] = 1e308
        net.layers[0].W_x[:, :, 1] = -1e308
        lstm.save_checkpoint(net, tmp_path / "model.nlstm")
        assert main(["eval", "--model", str(tmp_path / "model.nlstm"), "--corpus",
                     str(tiny / "corpus.nact"), "--vocab", str(tiny / "vocab.tsv"),
                     "--min-actions", "2", "--out-dir", str(tmp_path)]) == 2
        assert "error: non-finite output probability" in capsys.readouterr().err
        assert not list(tmp_path.glob("transfer-*.txt"))


class TestHostileText:
    """Every text reader refuses a line that is not UTF-8, naming the line."""

    def spoiled(self, source, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(source.read_bytes() + b"\xff\n")
        return path, source.read_bytes().count(b"\n") + 1

    def run(self, pipeline, tmp_path, reader):
        corpus = ["--corpus", str(pipeline / "corpus.nact"), "--vocab", str(pipeline / "vocab.tsv")]
        ingest_args = ["ingest", "--events", str(pipeline / "events.tsv"),
                       "--roster", str(pipeline / "roster.tsv"), "--min-count", "1",
                       "--out-dir", str(tmp_path)]
        if reader == "events":
            path, line = self.spoiled(pipeline / "events.tsv", tmp_path, "events.tsv")
            return main(ingest_args + ["--events", str(path)]), line
        if reader == "roster":
            path, line = self.spoiled(pipeline / "roster.tsv", tmp_path, "roster.tsv")
            return main(ingest_args + ["--roster", str(path)]), line
        if reader == "syllabus":
            path, line = self.spoiled(pipeline / "syllabus.txt", tmp_path, "syllabus.txt")
            return main(["baseline", *corpus, "--model", "syllabus", "--syllabus", str(path),
                         "--folds", "3", "--out-dir", str(tmp_path)]), line
        if reader == "stream":
            good = tmp_path / "a.pred"
            good.write_text("s1\t2\t1\t1\n", encoding="utf-8")
            path, line = self.spoiled(good, tmp_path, "b.pred")
            return main(["agree", str(good), str(path)]), line
        source = tmp_path / "source.cfg"
        if reader == "config":
            source.write_text("max_order=2\n", encoding="utf-8")
            path, line = self.spoiled(source, tmp_path, "ngram.cfg")
            return main(["ngram", "--config", str(path), *corpus, "--folds", "3",
                         "--out-dir", str(tmp_path)]), line
        source.write_text("vocab_size=16\nsyllabus_length=8\n", encoding="utf-8")
        path, line = self.spoiled(source, tmp_path, "synth.cfg")
        return main(["synth", "--config", str(path), "--out-dir", str(tmp_path)]), line

    @pytest.mark.parametrize("reader", ["events", "roster", "syllabus", "stream", "config",
                                        "synth-config"])
    def test_non_utf8_line_exits_2(self, pipeline, tmp_path, capsys, reader):
        rc, line = self.run(pipeline, tmp_path, reader)
        assert rc == 2
        assert f"error: line {line}: not UTF-8" in capsys.readouterr().err

    def test_repeated_roster_student_exits_2(self, pipeline, tmp_path, capsys):
        roster = (pipeline / "roster.tsv").read_text(encoding="utf-8")
        first = roster.splitlines()[0]
        spoiled = tmp_path / "roster.tsv"
        spoiled.write_text(roster + first + "\n", encoding="utf-8")
        assert main([
            "ingest", "--events", str(pipeline / "events.tsv"), "--roster", str(spoiled),
            "--min-count", "1", "--out-dir", str(tmp_path),
        ]) == 2
        line = roster.count("\n") + 1
        assert f"error: line {line}: student" in capsys.readouterr().err



def _log_line(i):
    return f"2013-03-01T10:00:{i:02d}Z\ts1\tview\ta\t-"


# reader: the 60 lines of a good file, the read, a line that is malformed where it
# stands and the error it raises ({n} is its line number), and a line that is not UTF-8
FILE_ORDER = {
    "events": ([_log_line(i) for i in range(60)],
               lambda path: ingest.ingest_files(path, path.with_name("roster.tsv"), 1),
               "broken line", "line {n}: expected 5 fields, got 1",
               _log_line(0).encode().replace(b"s1", b"s\xff")),
    "roster": ([f"s{i}\t1" for i in range(60)],
               lambda path: ingest.parse_roster(path.read_bytes()),
               "s\t2", "line {n}: bad roster line 's\\t2'", b"s\xff\t1"),
    "vocabulary": (["#V=59 min_count=1", *(f"t{i}\t{i}\t5" for i in range(59))],
                   lambda path: ingest.load_vocabulary(path.read_bytes()),
                   "t\tx\t5", "line {n}: record is not 'token <TAB> id <TAB> count'",
                   b"t\xff\t0\t5"),
    "syllabus": ([f"t{i}" for i in range(60)],
                 lambda path: baselines.load_syllabus(path.read_bytes(),
                                                      ingest.build_vocabulary(["t1"])),
                 "t0", "line {n}: duplicate course item 't0'", b"t\xff"),
    "config": ([f"k{i}={i}" for i in range(60)],
               lambda path: read_kv_file(path, {f"k{i}": int for i in range(60)}),
               "k0", "input, line {n}: expected key=value, got 'k0'", b"k0=\xff"),
    # each key once, as a repeat is a bad line too
    "synth-config": ([f"{key}={value}" for key, value in vars(synth.SynthConfig()).items()]
                     + [f"# {i}" for i in range(50)], synth.load_config,
                     "seed=x", "input, line {n}: bad int value for seed: 'x'", b"seed=\xff"),
    "stream": ([f"s{i}\t{i + 2}\t1\t1" for i in range(60)],
               lambda path: evaluation.read_stream(path.read_bytes()),
               "s\t2\tx\t1",
               "line {n}: expected student, position >= 2, predicted, truth; got 's\\t2\\tx\\t1\\n'",
               b"s\xff\t2\t1\t1"),
    "table": (["#NGRAM max_order=1 V=60", *(f"1\t\t{i}\t1" for i in range(59))],
              lambda path: ngram.load_table(path.read_bytes()), "1\t\tx\t1",
              "line {n}: expected order<TAB>context<TAB>next<TAB>count in canonical integers",
              b"1\t\t\xff\t1"),
}


class TestFirstBadLineInFileOrder:
    """Every text reader names the first bad line of a file, whether that line is
    malformed or not UTF-8, with both lines in the first 8 KB."""

    def check(self, path, read, lines, malformed, message, non_utf8, at, bad_at):
        """Put ``malformed`` on line ``at`` and ``non_utf8`` on line ``bad_at``."""
        lines[at - 1], lines[bad_at - 1] = malformed, non_utf8
        blob = b"".join(line + b"\n" for line in lines)
        assert len(blob) < 8192
        path.write_bytes(blob)
        with pytest.raises(NextactionError) as caught:
            read(path)
        if at < bad_at:
            assert str(caught.value) == message.format(n=at)
        else:
            assert type(caught.value) is MalformedRecordError
            assert str(caught.value) == f"line {bad_at}: not UTF-8"

    @pytest.mark.parametrize("at, bad_at", [(5, 50), (50, 5)])
    @pytest.mark.parametrize("reader", list(FILE_ORDER))
    def test_first_bad_line_is_named(self, tmp_path, reader, at, bad_at):
        lines, read, malformed, message, non_utf8 = FILE_ORDER[reader]
        (tmp_path / "roster.tsv").write_text("s1\t1\n", encoding="utf-8")
        self.check(tmp_path / "input", read, [line.encode() for line in lines],
                   malformed.encode(), message, non_utf8, at, bad_at)

    @pytest.mark.parametrize("bad_at", [6, 2])
    def test_first_bad_manifest_line_is_named(self, tmp_path, bad_at):
        """The window line, line 3, is the manifest line that can be malformed."""
        path = tmp_path / "model.nlstm"
        lstm.save_checkpoint(lstm.init_network(5, 2, 2, 1, 0.0, 9), path)
        manifest = Path(str(path) + ".manifest.txt")
        self.check(manifest, lambda _: lstm.load_checkpoint(path.read_bytes(), path),
                   manifest.read_bytes().splitlines(), b"window: x",
                   "line {n}: window is not a positive integer: 'x'", b"cell: \xff", 3, bad_at)


# each subcommand's fixed arguments ({data}: the fixture corpus, {out}: a scratch
# directory), the flags drawn per example with a valid value of each, and its switches
_DATA = ["--corpus", "{data}/corpus.nact", "--vocab", "{data}/vocab.tsv"]
_CV = {"--folds": "3", "--seed": "1", "--workers": "1", "--min-actions": "2"}
ARGV = {
    "synth": (["--config", "{data}/synth.cfg"], {"--seed": "5"}, []),
    "ingest": (["--events", "{data}/events.tsv", "--roster", "{data}/roster.tsv"],
               {"--min-count": "1", "--on-malformed": "skip"}, []),
    "ngram": (_DATA, {**_CV, "--max-order": "3", "--cohort": "all"}, ["--sweep", "--usage"]),
    "lstm": (_DATA, {**_CV, "--folds": "2", "--layers": "1", "--nodes": "2", "--lr": "0.1",
                     "--epochs": "1", "--window": "3", "--dropout": "0.1", "--emb-dim": "2",
                     "--batch": "8", "--cell": "rnn", "--cohort": "all"}, []),
    "baseline": ([*_DATA, "--syllabus", "{data}/syllabus.txt"],
                 {**_CV, "--model": "combined", "--cohort": "certified"}, []),
    "eval": ([*_DATA, "--model", "{out}/model.nlstm"],
             {"--window": "3", "--min-actions": "2", "--cohort": "all"}, []),
    "agree": (["{out}/a.pred", "{out}/b.pred"], {}, []),
}


@pytest.fixture(scope="module")
def argv_inputs(tiny, tmp_path_factory):
    """A scratch directory holding a checkpoint for eval and two streams for agree."""
    out = tmp_path_factory.mktemp("argv")
    v = ingest.load_corpus((tiny / "corpus.nact").read_bytes()).vocab_size
    net = lstm.init_network(v, 2, 2, 1, 0.0, 3, rng=np.random.default_rng(0))
    lstm.save_checkpoint(net, out / "model.nlstm")
    for name in ("a.pred", "b.pred"):
        assert main(["baseline", *(arg.format(data=tiny) for arg in _DATA), "--folds", "3",
                     "--stream", str(out / name), "--out-dir", str(out)]) == 0
    return out


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr of one in-process run, stdout dropped."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _exits_0_or_2_with_one_error_line(argv: list[str]) -> int:
    rc, err = _run(argv)
    assert rc in (0, 2)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == (rc == 2)
    return rc


class TestArgvAtTheProcessBoundary:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_argv_exits_0_or_2_with_one_error_line(self, tiny, argv_inputs, data):
        """Up to two flags get an empty, zero, negative, non-numeric or comma-list
        value and the rest a valid one: the run exits 0, or 2 with one ``error:``
        line and no traceback."""
        command = data.draw(st.sampled_from(sorted(ARGV)))
        fixed, flags, switches = ARGV[command]
        argv = [command, *(arg.format(data=tiny, out=argv_inputs) for arg in fixed)]
        hostile = data.draw(st.sets(st.sampled_from(sorted(flags)), max_size=2)) if flags else ()
        for flag, valid in flags.items():
            token = st.one_of(st.just(""), st.just("0"), st.just("-1"),
                              st.sampled_from(["x", "nan", "inf"]), st.just("1,2"))
            argv += [flag, data.draw(token, label=flag) if flag in hostile else valid]
        argv += [switch for switch in switches if data.draw(st.booleans(), label=switch)]
        _exits_0_or_2_with_one_error_line([*argv, "--out-dir", str(argv_inputs / "out")])


# each subcommand's flags, and its required flags and arguments
_CV_FLAGS = "--cohort --config --corpus --folds --min-actions --out-dir --report --seed --vocab " \
            "--workers"
SURFACE = {
    "synth": ("--config --out-dir --report --seed", []),
    "ingest": ("--config --corpus-out --events --min-count --on-malformed --out-dir --report "
               "--roster --vocab-out", []),
    "ngram": (f"{_CV_FLAGS} --csv --max-order --save-model --stream --sweep --usage",
              ["--corpus", "--vocab"]),
    "lstm": (f"{_CV_FLAGS} --batch --cell --csv --curve-prefix --dropout --emb-dim --epochs "
             "--layers --lr --nodes --save-model --stream --window", ["--corpus", "--vocab"]),
    "baseline": (f"{_CV_FLAGS} --csv --model --stream --syllabus", ["--corpus", "--vocab"]),
    "eval": ("--cohort --config --corpus --min-actions --model --out-dir --report --vocab "
             "--window", ["--corpus", "--model", "--vocab"]),
    "agree": ("--out-dir --report", ["a", "b"]),
}

# the meta.config lines of each report, at every default a run leaves unset
_CKPT = ["--model", "{out}/model.nlstm"]
ECHOED = {
    "ingest": (["ingest", "--events", "{data}/events.tsv", "--roster", "{data}/roster.tsv"],
               "events: events.tsv | min_count: 40 | on_malformed: abort | roster: roster.tsv"),
    "ngram": (["ngram", *_DATA], "cohort: certified | folds: 5 | max_order: 10 | min_actions: 1 | seed: 0 | "
                     "sweep: False | usage: False | workers: 1"),
    "ngram --sweep": (["ngram", *_DATA, "--sweep", "--max-order", "3"],
                      "cohort: certified | folds: 5 | max_order: 3 | min_actions: 1 | seed: 0 | "
                      "sweep: True | usage: False | workers: 1"),
    "lstm": (["lstm", *_DATA], "batch: 32 | cell: lstm | cohort: certified | dropout: 0.2 | emb_dim: 64 | "
                    "epochs: 10 | folds: 5 | layers: 1 | lr: 0.01 | min_actions: 1 | nodes: 64 | "
                    "seed: 0 | window: 10 | workers: 1"),
    "lstm grid": (["lstm", *_DATA, "--nodes", "4,8", "--epochs", "1", "--emb-dim", "4"],
                  "batch: 32 | cell: lstm | cohort: certified | dropout: 0.2 | emb_dim: 4 | "
                  "epochs: 1 | folds: 5 | layers: 1 | lr: 0.01 | min_actions: 1 | nodes: 4,8 | "
                  "seed: 0 | window: 10 | workers: 1"),
    "baseline": (["baseline", *_DATA], "cohort: certified | folds: 5 | min_actions: 1 | model: repeat | seed: 0 | "
                        "workers: 1"),
    "eval": (["eval", *_DATA, *_CKPT], "cohort: uncertified | min_actions: 30"),
    "eval --window": (["eval", *_DATA, *_CKPT, "--window", "4"],
                      "cohort: uncertified | min_actions: 30 | window: 4"),
}

# a value other than the default for every option of each subcommand: the
# subcommand, its fixed arguments and the values (True: a switch)
_CV_VALUES = {"folds": "3", "seed": "4", "cohort": "all", "min_actions": "2", "workers": "2"}
SET_EITHER_WAY = {
    "ingest": ("ingest", [], {"events": "{data}/events.tsv", "roster": "{data}/roster.tsv",
                              "min_count": "2", "on_malformed": "skip"}),
    "ngram": ("ngram", _DATA, {"max_order": "3", **_CV_VALUES, "usage": True}),
    "ngram --sweep": ("ngram", _DATA, {"sweep": True}),
    "lstm": ("lstm", _DATA, {"layers": "2", "nodes": "4", "lr": "0.1", "epochs": "1",
                             "window": "3", "dropout": "0.1", "emb_dim": "4", "batch": "8",
                             "cell": "rnn", **_CV_VALUES}),
    "baseline": ("baseline", [*_DATA, "--syllabus", "{data}/syllabus.txt"],
                 {"model": "combined", **_CV_VALUES}),
    "eval": ("eval", [*_DATA, *_CKPT], {"cohort": "all", "min_actions": "2", "window": "4"}),
}


class TestOptionSurface:
    """Each subcommand takes the same flags with the same defaults, and each of
    its options is set alike by its flag and by a --config key of the same name."""

    def test_each_subcommand_accepts_its_flags(self):
        (commands,) = [action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert list(commands) == list(SURFACE)
        for command, (flags, required) in SURFACE.items():
            actions = [a for a in commands[command]._actions if a.dest != "help"]
            assert {s for a in actions for s in a.option_strings} == set(flags.split())
            assert sorted((a.option_strings or [a.dest])[0] for a in actions if a.required) \
                == required
            # unset options stay None, so that a --config file can fill them
            assert {a.dest: a.default for a in actions if a.default is not None} == (
                {} if command == "agree" else {"out_dir": "."})

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_one_subcommand_parser_helps_as_the_full_one(self, command, capsys):
        """``build_parser(command)`` lists every subcommand and prints the full
        parser's help, at the top level and for ``command``, with no flag of
        another subcommand built."""
        helps = []
        for parser in (build_parser(), build_parser(command)):
            for argv in (["--help"], [command, "--help"]):
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
                helps.append(capsys.readouterr().out)
        assert helps[:2] == helps[2:]
        (commands,) = [action.choices for action in build_parser(command)._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert list(commands) == list(SURFACE)
        assert [name for name, p in commands.items() if len(p._actions) > 1] == [command]

    def test_main_builds_the_flags_of_its_subcommand_only(self, monkeypatch, capsys):
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                            or real(command))
        assert main(["eval", "--help"]) == 0
        assert main(["--help"]) == 0
        assert built == ["eval", ""]

    @pytest.mark.parametrize("case", list(ECHOED))
    def test_reports_echo_the_defaults(self, tiny, argv_inputs, tmp_path, case):
        argv, echoed = ECHOED[case]
        report = tmp_path / "report.txt"
        assert main([*(arg.format(data=tiny, out=argv_inputs) for arg in argv),
                     "--out-dir", str(tmp_path), "--report", str(report)]) == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("meta.config.")] == [
            f"meta.config.{pair}" for pair in echoed.split(" | ")]

    @pytest.mark.parametrize("case", list(SET_EITHER_WAY))
    def test_flag_and_config_key_set_an_option_alike(self, tiny, argv_inputs, tmp_path, case):
        command, fixed, values = SET_EITHER_WAY[case]
        argv = [command, *(arg.format(data=tiny, out=argv_inputs) for arg in fixed)]
        values = {key: value if value is True else value.format(data=tiny)
                  for key, value in values.items()}
        flags = []
        for key, value in values.items():
            flags += ["--" + key.replace("_", "-")] + ([] if value is True else [value])
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key}={str(value).lower() if value is True else value}\n"
                                  for key, value in values.items()), encoding="utf-8")
        reports = []
        for source, given in (("flag", flags), ("config", ["--config", str(config)])):
            out = tmp_path / source
            assert main([*argv, *given, "--out-dir", str(out), "--report",
                         str(out / "report.txt")]) == 0
            reports.append((out / "report.txt").read_bytes())
        assert reports[0] == reports[1]
        echoed = read_report(tmp_path / "flag" / "report.txt")
        for key, value in values.items():
            assert echoed[f"meta.config.{key}"] == (Path(value).name if "/" in str(value)
                                                    else str(value))

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_option_is_covered(self, command):
        """A new option joins these properties: ARGV and SET_EITHER_WAY name every
        option in the table."""
        options = {"--" + name.replace("_", "-") for name in cli._COMMANDS[command].options}
        fixed, flags, switches = ARGV[command]
        assert options <= {*fixed, *flags, *switches}
        assert options == {"--" + key.replace("_", "-") for name, (sub, _, values)
                           in SET_EITHER_WAY.items() if sub == command for key in values}


class TestOneCheckPerChoice:
    """A value outside an option's few choices exits 2 with one error line and writes
    nothing, by flag or by --config alike; a bad baseline model is refused before
    the syllabus is read."""

    @pytest.mark.parametrize("argv, key, message", [
        (["ingest", "--events", "{data}/events.tsv", "--roster", "{data}/roster.tsv"],
         "on_malformed", "on_malformed must be 'abort' or 'skip', got 'foo'"),
        (["ngram", *_DATA], "cohort", "cohort must be certified, uncertified or all, got 'foo'"),
        (["eval", *_DATA, *_CKPT], "cohort",
         "cohort must be certified, uncertified or all, got 'foo'"),
        (["lstm", *_DATA], "cell", "cell must be lstm or rnn, got 'foo'"),
        (["baseline", *_DATA], "model",
         "baseline model must be repeat, syllabus or combined, got 'foo'"),
        (["baseline", *_DATA, "--syllabus", "{data}/syllabus.txt"], "model",
         "baseline model must be repeat, syllabus or combined, got 'foo'"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_choice_exits_2(self, tiny, argv_inputs, tmp_path, monkeypatch, argv, key,
                                message, source):
        loads = []
        monkeypatch.setattr(baselines, "load_syllabus", lambda *a: loads.append(a))
        given = ["--" + key.replace("_", "-"), "foo"]
        if source == "config":
            (tmp_path / "run.cfg").write_text(f"{key}=foo\n", encoding="utf-8")
            given = ["--config", str(tmp_path / "run.cfg")]
        rc, err = _run([*(arg.format(data=tiny, out=argv_inputs) for arg in argv), *given,
                        "--out-dir", str(tmp_path / "out")])
        assert (rc, err.splitlines()) == (2, [f"error: {message}"])
        assert loads == [] and not (tmp_path / "out").exists()


def _mutate(blob: bytes, data) -> bytes:
    """``blob`` truncated, with one byte flipped, with a NUL or 0xff inserted, or
    with two of its lines swapped."""
    how = data.draw(st.sampled_from(["truncate", "flip", "insert", "swap"]), label="how")
    if how == "swap":
        lines = blob.splitlines(keepends=True)
        i, j = (data.draw(st.integers(0, len(lines) - 1), label=f"line {k}") for k in "ij")
        lines[i], lines[j] = lines[j], lines[i]
        return b"".join(lines)
    at = data.draw(st.integers(0, len(blob) - (how != "insert")), label="at")
    if how == "truncate":
        return blob[:at]
    if how == "insert":
        return blob[:at] + data.draw(st.sampled_from([b"\0", b"\xff"]), label="byte") + blob[at:]
    flipped = blob[at] ^ data.draw(st.integers(1, 255), label="xor")
    return blob[:at] + bytes([flipped]) + blob[at + 1:]


# each input file the CLI reads: the intact file ({data}: the fixture corpus,
# {models}: saved models, streams and configs) and a run that reads its mutated
# copy in {work}, with its outputs in {work}/out
_INGEST = ["ingest", "--events", "{data}/events.tsv", "--roster", "{data}/roster.tsv",
           "--min-count", "1", "--vocab-out", "{work}/out/vocab.tsv",
           "--corpus-out", "{work}/out/corpus.nact"]
_NGRAM = ["ngram", *_DATA, "--max-order", "2", "--folds", "3", "--stream", "{work}/out/s.pred",
          "--save-model", "{work}/out/m.ngram"]
_EVAL = ["eval", *_DATA, "--min-actions", "2", "--model"]
MUTATED = {
    "events": ("{data}/events.tsv", [*_INGEST, "--events", "{work}/events.tsv"]),
    "roster": ("{data}/roster.tsv", [*_INGEST, "--roster", "{work}/roster.tsv"]),
    "corpus": ("{data}/corpus.nact", [*_NGRAM, "--corpus", "{work}/corpus.nact"]),
    "vocab": ("{data}/vocab.tsv", [*_NGRAM, "--vocab", "{work}/vocab.tsv"]),
    "syllabus": ("{data}/syllabus.txt", ["baseline", *_DATA, "--model", "combined", "--folds", "3",
                                         "--syllabus", "{work}/syllabus.txt",
                                         "--stream", "{work}/out/s.pred"]),
    "table": ("{models}/model.ngram", [*_EVAL, "{work}/model.ngram"]),
    "checkpoint": ("{models}/model.nlstm", [*_EVAL, "{work}/model.nlstm"]),
    "manifest": ("{models}/model.nlstm.manifest.txt", [*_EVAL, "{work}/model.nlstm"]),
    "stream": ("{models}/a.pred", ["agree", "{work}/a.pred", "{models}/b.pred"]),
    "config": ("{models}/ngram.cfg", ["ngram", *_DATA, "--config", "{work}/ngram.cfg",
                                      "--stream", "{work}/out/s.pred"]),
    "synth-config": ("{data}/synth.cfg", ["synth", "--config", "{work}/synth.cfg"]),
}

# the outputs a run that exits 0 writes, each read back
READ_BACK = {
    "report.txt": read_report,
    "s.pred": lambda path: evaluation.read_stream(path.read_bytes()),
    "m.ngram": lambda path: ngram.load_table(path.read_bytes()),
    "corpus.nact": lambda path: ingest.load_corpus(
        path.read_bytes(), ingest.load_vocabulary((path.parent / "vocab.tsv").read_bytes())),
}


@pytest.fixture(scope="module")
def models(tiny, argv_inputs, tmp_path_factory):
    """A saved n-gram table, checkpoint, two streams and an n-gram --config file."""
    root = tmp_path_factory.mktemp("models")
    for name in ("model.nlstm", "model.nlstm.manifest.txt", "a.pred", "b.pred"):
        shutil.copy(argv_inputs / name, root)
    assert main(["ngram", *(arg.format(data=tiny) for arg in _DATA), "--max-order", "3",
                 "--folds", "3", "--save-model", str(root / "model.ngram"),
                 "--out-dir", str(root)]) == 0
    (root / "ngram.cfg").write_text("max_order=3\nfolds=3\nseed=2\ncohort=all\nusage=true\n",
                                    encoding="utf-8")
    return root


class TestHostileFilesAtTheProcessBoundary:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_mutated_input_exits_0_or_2_with_one_error_line(self, tiny, models, data):
        """A truncated, flipped, NUL- or 0xff-spiked or line-swapped input file: the run
        exits 0 and every output it wrote reads back, or it exits 2 with one
        ``error:`` line and no traceback."""
        kind = data.draw(st.sampled_from(sorted(MUTATED)), label="file")
        source, argv = MUTATED[kind]
        source = Path(source.format(data=tiny, models=models))
        with tempfile.TemporaryDirectory() as work:
            if source.name.startswith("model.nlstm"):  # a checkpoint and its manifest
                shutil.copy(models / "model.nlstm", work)
                shutil.copy(models / "model.nlstm.manifest.txt", work)
            (Path(work) / source.name).write_bytes(_mutate(source.read_bytes(), data))
            out = Path(work) / "out"
            argv = [arg.format(data=tiny, models=models, work=work) for arg in argv]
            if _exits_0_or_2_with_one_error_line(
                    [*argv, "--out-dir", str(out), "--report", str(out / "report.txt")]) == 0:
                assert read_report(out / "report.txt")
                for path in out.iterdir():
                    if path.name in READ_BACK:
                        READ_BACK[path.name](path)

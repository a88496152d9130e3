import gc
import tempfile
import time
import tracemalloc
import weakref
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    RefitNGramSpec, actions_pos, chained_parents, columns, corpus_of, mutated,
    naive_backoff_predict, naive_backoff_usage, naive_gram_counts, per_line_save_table,
    table_counts, two_sort_fit,
)
from nextaction import evaluation, ingest, ngram
from nextaction.errors import ConfigError, MalformedRecordError, NextactionError, UnfittedModelError
from nextaction.ingest import StudentSequence


A, B, Z = 0, 1, 2


class TestFit:
    def test_hand_counts_order_two(self):
        counts = table_counts(ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=2))
        assert counts[2][(A,)][B] == 2
        assert counts[2][(B,)][A] == 1
        assert counts[2][(B,)].get(B, 0) == 0

    def test_unigram_counts_continuation_positions(self):
        counts = table_counts(ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=1))
        # continuations are B, A, B: position 1 is never a continuation
        assert counts[1][()][A] == 1
        assert counts[1][()][B] == 2
        assert sum(counts[1][()].values()) == 3

    def test_two_identical_sequences_double_counts(self):
        one = ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=3)
        two = table_counts(ngram.fit(corpus_of([[A, B, A, B]] * 2, 3), max_order=3))
        for order in (1, 2, 3):
            for ctx, counter in one.continuations[order].items():
                for nxt, count in counter.items():
                    assert two[order][ctx][nxt] == 2 * count

    def test_a_table_is_freed_once_unreachable(self):
        """A table holds no reference to itself, so its arrays go when its last
        reference does, without waiting for the cyclic collector."""
        table = ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=3)
        assert len(table.continuations[2]) == 2
        table.best  # the lookup arrays, cached on the table
        freed = weakref.ref(table)
        gc.disable()
        try:
            del table
            assert freed() is None
        finally:
            gc.enable()

    def test_invalid_order(self):
        with pytest.raises(ConfigError):
            ngram.fit(corpus_of([[A, B]], 2), max_order=0)

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            ngram.fit(corpus_of([], 2), max_order=2)


class TestPredict:
    def test_only_continuation(self):
        table = ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=2)
        pred = ngram.predict_next(table, [A])
        assert (pred.predicted, pred.order_used) == (B, 2)

    def test_unseen_context_backs_off_to_unigram(self):
        table = ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=2)
        pred = ngram.predict_next(table, [Z])
        assert (pred.predicted, pred.order_used) == (B, 1)

    def test_empty_context_uses_unigram(self):
        table = ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=3)
        pred = ngram.predict_next(table, [])
        assert (pred.predicted, pred.order_used) == (B, 1)

    def test_unfitted_table_raises(self):
        table = ngram.NGramTable(2, 3, {}, {}, {})
        with pytest.raises(UnfittedModelError):
            ngram.predict_next(table, [A])

    @pytest.mark.parametrize("call", [
        lambda table, corpus: ngram.predict_next(table, [A], 0),
        lambda table, corpus: ngram.predict_next(table, [A], -5),
        lambda table, corpus: ngram.NGramPredictor(table, max_order=-1),
        lambda table, corpus: ngram.backoff_usage(table, corpus, 0),
        lambda table, corpus: ngram.fitted_usage(corpus, 0),
    ])
    def test_a_cap_below_one_is_refused(self, call):
        corpus = corpus_of([[A, B, A, B]], 3)
        with pytest.raises(ConfigError, match="max_order must be >= 1"):
            call(ngram.fit(corpus, max_order=2), corpus)

    @pytest.mark.parametrize("call", [
        lambda corpus: ngram.fit(corpus, 10**18),
        lambda corpus: ngram.NGramSpec((2, 10**18)),
        lambda corpus: ngram.fitted_usage(corpus, 10**19),
        lambda corpus: ngram.highest_order(corpus, 10**18),
        lambda corpus: ngram.predict_next(ngram.fit(corpus, 2), [A], 10**18),
    ])
    def test_a_cap_that_no_header_can_hold_is_refused(self, call):
        """A saved header's max_order has at most 18 digits."""
        with pytest.raises(ConfigError, match="max_order must be below 10\\*\\*18"):
            call(corpus_of([[A, B, A, B]], 3))

    def test_tie_break_lowest_id(self):
        # continuations of A are B once and Z once: tie broken toward B
        table = ngram.fit(corpus_of([[A, B], [A, Z]], 3), max_order=2)
        assert ngram.predict_next(table, [A]).predicted == B

    def test_training_order_never_changes_predictions(self):
        rng = np.random.default_rng(11)
        seqs = [rng.integers(0, 4, size=25).tolist() for _ in range(6)]
        t1 = ngram.fit(corpus_of(seqs, 4), max_order=3)
        t2 = ngram.fit(corpus_of(list(reversed(seqs)), 4), max_order=3)
        for seq in seqs:
            for t in range(1, len(seq)):
                assert (
                    ngram.predict_next(t1, seq[:t]).predicted
                    == ngram.predict_next(t2, seq[:t]).predicted
                )

    def test_matches_known_markov_chain_argmax(self):
        # order-2 chain: dominant successor (a + 2b + 1) mod V with mass 0.7
        V = 6
        rng = np.random.default_rng(21)

        def dominant(a, b):
            return (a + 2 * b + 1) % V

        seqs = []
        for _ in range(40):
            seq = [int(rng.integers(V)), int(rng.integers(V))]
            for _ in range(400):
                probs = np.full(V, 0.3 / (V - 1))
                probs[dominant(seq[-2], seq[-1])] = 0.7
                seq.append(int(rng.choice(V, p=probs)))
            seqs.append(seq)
        table = ngram.fit(corpus_of(seqs, V), max_order=3)
        trigrams = table_counts(table)[3]

        checked = agreed = 0
        for a in range(V):
            for b in range(V):
                total = sum(trigrams.get((a, b), {}).values())
                if total < 50:
                    continue
                checked += 1
                pred = ngram.predict_next(table, [a, b])
                agreed += pred.predicted == dominant(a, b)
        assert checked >= 30
        assert agreed / checked >= 0.99


class TestAgainstNaiveOracle:
    def test_counts_and_predictions_match_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            vocab_size = int(rng.integers(3, 8))
            seqs = [
                rng.integers(0, vocab_size, size=rng.integers(2, 60)).tolist()
                for _ in range(int(rng.integers(1, 6)))
            ]
            max_order = int(rng.integers(1, 5))
            table = ngram.fit(corpus_of(seqs, vocab_size), max_order)
            naive = naive_gram_counts(seqs, max_order)
            # the table holds the orders with a count, and the oracle counts none above them
            assert table_counts(table) == {k: {ctx: dict(c) for ctx, c in naive[k].items()}
                                           for k in table.continuations}
            assert all(not naive[k] for k in range(len(table.grams) + 1, max_order + 1))
            for seq in seqs:
                for t in range(1, len(seq)):
                    pred = ngram.predict_next(table, seq[:t])
                    expected = naive_backoff_predict(naive, seq[:t], max_order)
                    assert (pred.predicted, pred.order_used) == expected


class TestBackoffUsage:
    def test_trained_on_eval_itself_always_top_order(self):
        rng = np.random.default_rng(41)
        seqs = [rng.integers(0, 4, size=30).tolist() for _ in range(4)]
        corpus = corpus_of(seqs, 4)
        table = ngram.fit(corpus, max_order=2)
        usage = ngram.backoff_usage(table, corpus)
        assert usage[2] == 1.0
        assert usage[1] == 0.0

    def test_fractions_sum_to_one_and_match_naive(self):
        rng = np.random.default_rng(42)
        train = [rng.integers(0, 5, size=40).tolist() for _ in range(4)]
        eval_seqs = [rng.integers(0, 5, size=40).tolist() for _ in range(3)]
        table = ngram.fit(corpus_of(train, 5), max_order=4)
        usage = ngram.backoff_usage(table, corpus_of(eval_seqs, 5))
        assert abs(sum(usage.values()) - 1.0) <= 1e-9
        naive = naive_backoff_usage(naive_gram_counts(train, 4), eval_seqs, 4)
        assert usage == naive


    def test_no_scored_positions(self):
        table = ngram.fit(corpus_of([[A, B, A]], 3), max_order=3)
        for seqs in ([], [[A]], [[B], [Z]]):
            assert ngram.backoff_usage(table, corpus_of(seqs, 3)) == {1: 0.0, 2: 0.0, 3: 0.0}
        predictor = ngram.NGramPredictor(table)
        assert (predictor.predict_sequence(*actions_pos([])).tolist()
                == predictor.predict_sequence(*actions_pos([[Z]])).tolist()
                == predictor.predict_sequence(*actions_pos([[B], [Z]])).tolist() == [])


class TestSweepAndFiles:
    def test_cyclic_corpus_perfect_for_all_orders(self):
        cycle = [(i % 3) for i in range(30)]
        seqs = [list(cycle)] * 6
        corpus = corpus_of(seqs, 3)
        plan = evaluation.make_folds(corpus.students, 3, seed=5)
        reports = evaluation.cross_validate(ngram.NGramSpec((2, 3, 4)), corpus, plan,
                                            ["2-gram", "3-gram", "4-gram"])
        for order, report in zip((2, 3, 4), reports):
            assert report.cv_accuracy == 1.0, f"order {order}"

    def test_sweep_counts_the_corpus_once(self, monkeypatch):
        rng = np.random.default_rng(50)
        corpus = corpus_of([rng.integers(0, 4, size=20).tolist() for _ in range(9)], 4)
        plan = evaluation.make_folds(corpus.students, 3, seed=5)
        fitted = []
        real_fit = ngram.fit

        def counting_fit(counted, order, *rest):
            fitted.append((counted.total_actions, order))
            return real_fit(counted, order, *rest)

        monkeypatch.setattr(ngram, "fit", counting_fit)
        for workers in (1, 2):
            fitted.clear()
            reports = evaluation.cross_validate(
                ngram.NGramSpec((2, 3, 4)), corpus, plan, ["2-gram", "3-gram", "4-gram"],
                workers=workers)
            assert fitted == [(corpus.total_actions, 4)]
            assert [report.model for report in reports] == ["2-gram", "3-gram", "4-gram"]

    @pytest.mark.parametrize("orders", [(), (0, 2)])
    def test_orders_must_be_given_and_at_least_one(self, orders):
        with pytest.raises(ConfigError, match="gram orders must be >= 1"):
            ngram.NGramSpec(orders)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=12), min_size=2,
                    max_size=24),
           st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True), st.data())
    def test_count_once_matches_a_table_fitted_per_fold(self, rows, orders, data):
        """Reports, streams and the full fit equal those of one table fitted per
        fold, for sweeps in any order, 2 to 10 folds and sequences of length 1."""
        corpus = corpus_of(rows, 4)
        k = data.draw(st.integers(2, min(10, len(rows))))
        plan = evaluation.make_folds(corpus.students, k, seed=data.draw(st.integers(0, 9)))

        def run(spec):
            try:
                return evaluation.cross_validate(
                    spec(tuple(orders)), corpus, plan, [f"{o}-gram" for o in orders],
                    keep_streams=True, fit_full=True)
            except NextactionError as exc:
                return type(exc), str(exc)

        counted, refit = run(ngram.NGramSpec), run(RefitNGramSpec)
        if isinstance(refit, tuple):
            assert counted == refit
            return
        for mine, theirs in zip(counted, refit, strict=True):
            assert mine.to_text() == theirs.to_text()
            assert columns(mine.streams) == columns(theirs.streams)
            assert mine.fold_extras == theirs.fold_extras == [None] * k
        (full, _), (again, _) = counted[0].full_fit, refit[0].full_fit
        assert [p.max_order for p in full] == [p.max_order for p in again] == orders
        assert table_counts(full[0].table) == table_counts(again[0].table)

    def test_a_fold_with_no_counted_position_has_no_observations(self):
        """Fold 0 trains on one sequence of one action alone."""
        corpus = corpus_of([[A, B, A], [B]], 3)
        plan = evaluation.FoldPlan(k=1, seed=0, assignment={"s0": 0, "s1": 1})
        for spec in (ngram.NGramSpec((2,)), RefitNGramSpec((2,))):
            with pytest.raises(UnfittedModelError, match="n-gram table has no observations"):
                evaluation.cross_validate(spec, corpus, plan, ["2-gram"])

    def test_a_sequence_in_no_held_out_fold_trains_every_fold(self):
        """A hand-made plan may name folds outside 0..k-1: those sequences are
        scored in no fold and counted in every fold's training."""
        rng = np.random.default_rng(52)
        corpus = corpus_of([rng.integers(0, 4, size=12).tolist() for _ in range(6)], 4)
        plan = evaluation.FoldPlan(k=2, seed=0, assignment={
            "s0": 0, "s1": 1, "s2": 5, "s3": -1, "s4": 0, "s5": 1})
        counted, refit = (evaluation.cross_validate(spec((2, 3)), corpus, plan, ["2", "3"])
                          for spec in (ngram.NGramSpec, RefitNGramSpec))
        assert [r.to_text() for r in counted] == [r.to_text() for r in refit]

    def test_model_file_round_trip_and_stability(self, tmp_path):
        rng = np.random.default_rng(51)
        seqs = [rng.integers(0, 5, size=30).tolist() for _ in range(4)]
        table = ngram.fit(corpus_of(seqs, 5), max_order=3)
        p1, p2 = tmp_path / "m1.ngram", tmp_path / "m2.ngram"
        ngram.save_table(table, p1)
        loaded = ngram.load_table(p1.read_bytes())
        ngram.save_table(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for seq in seqs:
            for t in range(1, len(seq)):
                assert (
                    ngram.predict_next(loaded, seq[:t]).predicted
                    == ngram.predict_next(table, seq[:t]).predicted
                )


class TestActionRange:
    @pytest.mark.parametrize("bad", [3, -1])
    def test_out_of_range_ids_are_refused(self, bad):
        table = ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=2)
        with pytest.raises(ConfigError):
            ngram.NGramPredictor(table).predict_sequence(*actions_pos([[A, bad, B]]))
        with pytest.raises(ConfigError):
            ngram.predict_next(table, [A, bad])

    def test_fit_refuses_ids_at_or_above_v(self):
        # with V=2, the id 2 would alias context key parent * 2 + 2 = (parent + 1) * 2 + 0
        with pytest.raises(ConfigError):
            ngram.fit(corpus_of([[A, 2, A]], 2), max_order=3)


# the table fitted on [[A, B, A, B]] at order 3 with V=3, as save_table writes it
SAVED = (
    "#NGRAM max_order=3 V=3\n"
    "1\t\t0\t1\n"
    "1\t\t1\t2\n"
    "2\t0\t1\t2\n"
    "2\t1\t0\t1\n"
    "3\t0,1\t0\t1\n"
    "3\t1,0\t1\t1\n"
)
SAVED_LINES = SAVED.splitlines(keepends=True)

# a fault of each kind for line n of a saved table's lines, and its reason: a
# non-record, a count of 0, a repeat of line n - 1, an order-3 context whose
# 1-id prefix (99) is no order-2 context and which sorts after every one
TWO_FAULTS = {
    "format": (lambda lines, n: "3\t0,x\t0\t1\n", "canonical integers"),
    "value": (lambda lines, n: lines[n].rsplit("\t", 1)[0] + "\t0\n", "count below 1"),
    "sort": (lambda lines, n: lines[n - 1], "repeated"),
    "orphan": (lambda lines, n: "3\t99,0\t0\t1\n", "no record at order 2"),
}


class TestLoadRejects:
    def test_saved_text_is_the_expected_table(self, tmp_path):
        path = tmp_path / "m.ngram"
        ngram.save_table(ngram.fit(corpus_of([[A, B, A, B]], 3), max_order=3), path)
        assert path.read_text() == SAVED

    @pytest.mark.parametrize("text, lineno, reason", [
        ("", 1, "header"),
        (SAVED.replace(" V=3", ""), 1, "header"),
        (SAVED.replace(" V=3", " W=3"), 1, "header"),
        (SAVED.replace("max_order=3", "max_order=0"), 1, "max_order"),
        (SAVED.replace("V=3", "V=4294967297"), 1, "32-bit"),
        (SAVED + "3\t1,2\tx\t4\n", 8, "canonical"),
        (SAVED + "3\t1,0\t2\n", 8, "canonical"),
        (SAVED + "3\t1,0\t2\t1\t1\n", 8, "canonical"),
        (SAVED + "3\t1,00\t2\t1\n", 8, "canonical"),
        (SAVED + "3\t1,0\t2\t-1\n", 8, "canonical"),
        (SAVED + "\n", 8, "canonical"),
        (SAVED_LINES[0][:-1], 1, "newline"),
        (SAVED[:-1], 7, "newline"),
        (SAVED + "4\t1,0,1\t0\t1\n", 8, "order outside"),
        (SAVED + "3\t1\t2\t1\n", 8, "context length"),
        (SAVED + "3\t1,0\t3\t1\n", 8, "next id"),
        (SAVED + "3\t1,7\t0\t1\n", 8, "context id"),
        (SAVED.replace("3\t1,0\t1\t1", "3\t1,0\t1\t0"), 7, "count below 1"),
        # order 3 ahead of order 2: line 4 is the first bad given the lines before it
        ("".join(SAVED_LINES[:3] + SAVED_LINES[5:] + SAVED_LINES[3:5]), 4, "no record at order 2"),
        ("".join(SAVED_LINES[:5] + SAVED_LINES[6:5:-1] + SAVED_LINES[5:6]), 7, "out of order"),
        (SAVED + SAVED_LINES[-1], 8, "repeated"),
        (SAVED.replace("1\t\t0\t1\n1\t\t1", "1\t\t1\t1\n1\t\t0"), 3, "repeated"),
        (SAVED + "3\t2,0\t1\t1\n", 8, "no record at order 2"),
        ("".join(SAVED_LINES[:1] + SAVED_LINES[3:]), 2, "no record at order 1"),
        # a value fault on line 3 is named ahead of a format fault on line 50
        ("".join(["#NGRAM max_order=1 V=60\n", "1\t\t0\t1\n", "2\t\t1\t1\n",
                  *(f"1\t\t{i}\t1\n" for i in range(2, 48)), "1\t\tx\t1\n",
                  *(f"1\t\t{i}\t1\n" for i in range(49, 60))]), 3, "order outside 1..1"),
        # a line with several faults is named for the first in README's list; line 8
        # is good, and each line 9 but the last has one more fault listed later
        *((SAVED.replace("max_order=3", "max_order=4") + "4\t1,0,1\t0\t1\n" + line, 9, reason)
          for line, reason in [
              ("5\t1\t9\t0\n", "order outside 1..4"),
              ("4\t1\t9\t0\n", "context length is not order - 1"),
              ("4\t1,0,7\t9\t0\n", "context id outside [0, 3)"),
              ("4\t1,0,1\t9\t0\n", "next id outside [0, 3)"),
              ("4\t1,0,1\t0\t0\n", "count below 1"),
              ("4\t0,0,1\t0\t1\n", "record out of order or repeated"),  # (0, 0): no context
              ("4\t2,0,1\t0\t1\n", "context has no record at order 3"),
          ]),
        # a record above orders that hold none
        (SAVED.replace("max_order=3", "max_order=9") + "5\t1,0,1,0\t0\t1\n", 8,
         "no record at order 4"),
    ])
    def test_malformed_table(self, tmp_path, text, lineno, reason):
        path = tmp_path / "m.ngram"
        path.write_text(text, encoding="ascii")
        with pytest.raises(MalformedRecordError) as caught:
            ngram.load_table(path.read_bytes())
        assert caught.value.lineno == lineno
        assert reason in str(caught.value)

    def test_non_ascii_byte(self, tmp_path):
        path = tmp_path / "m.ngram"
        path.write_bytes(SAVED.encode().replace(b"2\t0\t1", b"2\t\xff\t1"))
        with pytest.raises(MalformedRecordError) as caught:
            ngram.load_table(path.read_bytes())
        assert caught.value.lineno == 4

    @pytest.mark.parametrize("first, second", list(permutations(TWO_FAULTS, 2)))
    def test_the_earlier_of_two_faults_is_named(self, tmp_path, first, second):
        """Faults of two kinds on order-3 lines i < j: line i is named, for its own reason."""
        actions = np.random.default_rng(7).integers(0, 6, size=200).tolist()
        ngram.save_table(ngram.fit(corpus_of([actions], 100), 3), tmp_path / "m.ngram")
        lines = (tmp_path / "m.ngram").read_text().splitlines(keepends=True)
        i = next(n for n, line in enumerate(lines) if line.startswith("3\t")) + 2
        spoiled = list(lines)
        for at, kind in ((i, first), (i + 4, second)):
            spoiled[at] = TWO_FAULTS[kind][0](lines, at)
        (tmp_path / "bad.ngram").write_text("".join(spoiled), encoding="ascii")
        with pytest.raises(MalformedRecordError) as caught:
            ngram.load_table((tmp_path / "bad.ngram").read_bytes())
        assert caught.value.lineno == i + 1 and TWO_FAULTS[first][1] in str(caught.value)

    @pytest.mark.parametrize("vocab_size, order", [(256, 11), (257, 7), (2**32, 5)])
    def test_a_prefix_that_matches_only_in_its_first_word_is_refused(
            self, tmp_path, vocab_size, order):
        """The one order-k record's context prefix is packed as one word and one id;
        changing that id leaves a prefix whose first word is that of an order-(k-1)
        context, and which no order-(k-1) record holds."""
        sequence = [vocab_size - 1 - i for i in range(order)]
        ngram.save_table(ngram.fit(corpus_of([sequence], vocab_size), order), tmp_path / "m.ngram")
        lines = (tmp_path / "m.ngram").read_text().splitlines(keepends=True)
        k, context, rest = lines[-1].split("\t", 2)
        ids = context.split(",")
        ids[order - 3] = "0"
        lines[-1] = "\t".join([k, ",".join(ids), rest])
        with pytest.raises(MalformedRecordError) as caught:
            ngram.load_table("".join(lines).encode())
        assert caught.value.lineno == len(lines)
        assert f"context has no record at order {order - 1}" in str(caught.value)


class TestHeaderOrderAboveTheRecords:
    """A header's max_order may exceed the highest order that holds a record."""

    def test_orders_without_records_look_up_no_context(self, monkeypatch):
        """Records at orders 1-2 under max_order=50 need one parent lookup per
        order that holds a record, and none for the 48 orders above them."""
        blob = SAVED.replace("max_order=3", "max_order=50").encode()
        calls, row_ids = [], ngram._row_ids
        monkeypatch.setattr(ngram, "_row_ids", lambda *a: calls.append(a) or row_ids(*a))
        table = ngram.load_table(b"".join(line for line in blob.splitlines(keepends=True)
                                          if not line.startswith(b"3\t")))
        assert len(calls) == 2
        assert table.max_order == 50 and sorted(table.grams) == [1, 2]
        assert ngram.predict_next(table, [A, B]) == ngram.BackoffPrediction(A, 2)

    def test_a_header_far_above_the_records_costs_nothing_per_order(self, tmp_path):
        """Load, predict and save a two-order table under max_order=10**4 in well
        under the memory of one array per order, and save back the same bytes."""
        blob = b"".join(line for line in SAVED.replace("max_order=3", f"max_order={10**4}")
                        .encode().splitlines(keepends=True) if not line.startswith(b"3\t"))
        tracemalloc.start()
        try:
            table = ngram.load_table(blob)
            prediction = ngram.predict_next(table, [A, B])
            ngram.save_table(table, tmp_path / "m.ngram")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prediction == ngram.BackoffPrediction(A, 2)
        assert (tmp_path / "m.ngram").read_bytes() == blob
        assert peak < 2**20

    def test_continuations_cost_only_the_order_read(self):
        """A 4-record table under max_order=10**9 answers the two orders it holds,
        and its views and usage histograms cost nothing per order of the cap."""
        table = ngram.load_table(b"#NGRAM max_order=1000000000 V=3\n"
                                 b"1\t\t0\t2\n1\t\t1\t2\n2\t0\t1\t2\n2\t1\t0\t1\n")
        corpus = corpus_of([[A, B, A]], 3)
        start = time.perf_counter()
        orders = table.continuations
        assert list(orders) == [1, 2]
        assert dict(orders[2].items()) == {(A,): {B: 2}, (B,): {A: 1}} and len(orders[2]) == 2
        assert 0 not in orders and 3 not in orders and 10**9 not in orders and "2" not in orders
        with pytest.raises(TypeError):
            orders[2] = None
        for read, expected in (
            (lambda: sum(len(c) for c in table.continuations.values()), 3),
            (lambda: ngram.backoff_usage(table, corpus), {1: 0.0, 2: 1.0}),
            (lambda: ngram.fitted_usage(corpus, 10**9), {1: 0.0, 2: 0.5, 3: 0.5}),
        ):
            tracemalloc.start()
            try:
                assert read() == expected
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
        assert time.perf_counter() - start < 1

    def test_a_fit_far_above_the_data_stops_at_its_longest_sequence(self):
        """Sequences of 5 actions fitted at order 10**4 hold orders 1-5, and that
        order predicts every fold as order 5 does."""
        rows = np.random.default_rng(3).integers(0, 4, size=(6, 5)).tolist()
        corpus = corpus_of(rows, 4)
        tracemalloc.start()
        try:
            table = ngram.fit(corpus, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and table.max_order == 10**4 and sorted(table.grams) == [1, 2, 3, 4, 5]
        folds = np.arange(6) % 3
        held_out = [np.flatnonzero(folds == fold) for fold in range(3)]
        far, five = (ngram.NGramSpec((order,)).fit_folds(corpus, folds, held_out)[1]
                     for order in (10**4, 5))
        assert [[p.tolist() for p in own] for own, _ in far] == [
            [p.tolist() for p in own] for own, _ in five]

    def test_a_large_order_loads_and_saves_back_the_same_bytes(self, tmp_path):
        blob = SAVED.replace("max_order=3", "max_order=2000").encode()
        table = ngram.load_table(blob)
        assert ngram.predict_next(table, [A, B]) == ngram.BackoffPrediction(A, 3)
        ngram.save_table(table, tmp_path / "m.ngram")
        assert (tmp_path / "m.ngram").read_bytes() == blob


# --- properties against the brute-force oracles in helpers.py

@st.composite
def gram_corpora(draw, max_vocab=4000, max_length=40):
    """(V, max_order, training sequences, held-out sequences).

    Most ids come from a small pool so that long contexts recur, and the
    held-out sequences mix in ids never seen in training.
    """
    vocab_size = draw(st.integers(1, max_vocab))
    max_order = draw(st.integers(1, 10))
    pool = draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=5, unique=True))
    ids = st.one_of(st.sampled_from(pool), st.integers(0, vocab_size - 1))
    sequence = st.lists(ids, min_size=2, max_size=max_length)
    train = draw(st.lists(sequence, min_size=1, max_size=5))
    held_out = draw(st.lists(sequence, min_size=1, max_size=3))
    return vocab_size, max_order, train, held_out


def word_boundary_case(vocab_size, max_order):
    """A ``gram_corpora`` case of ids 0, 1 and V - 1 whose contexts recur up to max_order."""
    top = vocab_size - 1
    sequence = [0, top, 1, top, top, 0, 1, top, 0, 0, top, 1, top]
    return vocab_size, max_order, [sequence * 2], [[top, 0, top, 1]]


@st.composite
def fit_cases(draw):
    """(sequences, V, max_order): sequences of 1 to 9 ids from a small pool, V up
    to the 32-bit limit, and orders up to 12, above every sequence length."""
    vocab_size = draw(st.one_of(st.integers(1, 50), st.just(2**32)))
    pool = st.sampled_from(draw(st.lists(st.integers(0, vocab_size - 1), min_size=1,
                                         max_size=4, unique=True)))
    rows = draw(st.lists(st.lists(pool, min_size=1, max_size=9), min_size=1, max_size=6))
    return rows, vocab_size, draw(st.integers(1, 12))


@st.composite
def packed_parent_cases(draw):
    """(sequences, V, max_order, column, id): V on both sides of each packed id width,
    ids from both ends of its range, sequences long enough for context prefixes of
    one packed word and of more, and an id to write into one column of each row."""
    vocab_size = draw(st.sampled_from([1, 2, 60, 256, 257, 2**16, 2**16 + 1, 2**32]))
    ids = st.sampled_from(sorted({0, min(1, vocab_size - 1), vocab_size // 2, vocab_size - 1}))
    rows = draw(st.lists(st.lists(ids, min_size=1, max_size=14), min_size=1, max_size=4))
    return rows, vocab_size, draw(st.integers(1, 12)), draw(st.integers(0, 10)), draw(ids)


class TestDerivations:
    """What ``fit`` takes from the order below, and the usage read from positions."""

    @settings(max_examples=150, deadline=None)
    @given(fit_cases())
    @example(([[A]], 1, 3))  # no scored position
    @example(([[A], [B]], 2, 1))
    @example(([[A, B, A], [B]], 2, 12))
    def test_fitted_usage_is_the_backoff_usage_of_the_fit(self, case):
        rows, vocab_size, max_order = case
        corpus = corpus_of(rows, vocab_size)
        table = ngram.fit(corpus, max_order)
        assert ngram.fitted_usage(corpus, max_order) == ngram.backoff_usage(table, corpus)

    @settings(max_examples=150, deadline=None)
    @given(fit_cases())
    @example(([[A]], 1, 3))  # no scored position: the fit holds no order
    @example(([[A, B], [A]], 2, 10**9))
    def test_highest_order_is_the_highest_order_a_fit_holds(self, case):
        rows, vocab_size, max_order = case
        corpus = corpus_of(rows, vocab_size)
        top = ngram.highest_order(corpus, max_order)
        assert list(ngram.fit(corpus, max_order).continuations) == list(range(1, top + 1))
        # the brute-force count has a gram at each order up to it and none above
        counted = naive_gram_counts(rows, min(max_order, 12))  # fit_cases draw orders <= 12
        assert [k for k, grams in counted.items() if grams] == list(range(1, min(top, 12) + 1))

    @settings(max_examples=150, deadline=None)
    @given(fit_cases())
    @example(([[A]], 1, 3))
    def test_fit_matches_the_two_sort_derivation(self, case):
        rows, vocab_size, max_order = case
        corpus = corpus_of(rows, vocab_size)
        index, oracle_index = {}, {}
        oracle = two_sort_fit(corpus, max_order, oracle_index)
        for table in (ngram.fit(corpus, max_order, index), ngram.fit(corpus, max_order)):
            for k in table.grams:
                for name in ("contexts", "grams", "counts"):
                    mine, theirs = getattr(table, name)[k], getattr(oracle, name)[k]
                    assert mine.dtype == theirs.dtype == np.int64
                    assert np.array_equal(mine, theirs), (name, k)
                assert np.array_equal(index[k], oracle_index[k])
            assert sorted(index) == sorted(table.grams)
            # the orders the table leaves out are those where the oracle counts no gram
            for k in range(len(table.grams) + 1, max_order + 1):
                assert len(oracle.grams[k]) == 0 and (oracle_index[k] == -1).all()

    @settings(max_examples=150, deadline=None)
    @given(packed_parent_cases())
    @example(([[0, 1, 2**32 - 1, 0, 1, 0, 2**32 - 1, 1, 0, 1, 1, 0]], 2**32, 8, 3, 1))
    @example(([[0, 1, 255, 0, 1, 0, 255, 1, 0, 1, 1, 0] * 2], 256, 12, 9, 0))
    def test_packed_parents_match_the_per_id_chain(self, case):
        """Each context row's parent, found by packed words, is the one the per-id chain
        finds, and so is the -1 of a row with one id changed to a prefix the table may lack."""
        rows, vocab_size, max_order, column, changed = case
        table = ngram.fit(corpus_of(rows, vocab_size), max_order)
        dtype = np.min_scalar_type(vocab_size - 1)
        for k in range(2, len(table.grams) + 1):
            below, own = (ngram._context_rows(table, j).astype(dtype) for j in (k - 1, k))
            query = np.concatenate([own, own])
            query[len(own):, column % (k - 1)] = changed
            found = ngram._row_ids(ngram._pack(below), ngram._pack(query[:, :-1]))
            assert found.tolist() == chained_parents(table.contexts, query, vocab_size).tolist()
            assert (found[: len(own)] >= 0).all()

    @settings(max_examples=100, deadline=None)
    @given(fit_cases())
    def test_contexts_above_order_two_are_grams_of_the_order_below(self, case):
        rows, vocab_size, max_order = case
        table = ngram.fit(corpus_of(rows, vocab_size), max_order)
        for k in range(3, len(table.grams) + 1):
            assert np.isin(table.contexts[k], table.grams[k - 1]).all()

    @settings(max_examples=150, deadline=None)
    @given(fit_cases())
    @example(([[0, 2**32 - 1, 1, 0, 2**32 - 1, 0, 1, 1, 2**32 - 1, 0, 1, 0, 0]], 2**32, 12))
    def test_context_rows_are_the_brute_force_contexts(self, case):
        """Each order's rows, read on their own, are the sorted context tuples that the
        window count finds at that order."""
        rows, vocab_size, max_order = case
        table = ngram.fit(corpus_of(rows, vocab_size), max_order)
        counted = naive_gram_counts(rows, max_order)
        for k in table.grams:
            found = ngram._context_rows(table, k)
            assert found.dtype == np.int64 and found.shape == (len(table.contexts[k]), k - 1)
            assert list(map(tuple, found.tolist())) == sorted(counted[k])


def _scratch_file(data: bytes) -> Path:
    handle = tempfile.NamedTemporaryFile(delete=False)
    with handle:
        handle.write(data)
    return Path(handle.name)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(gram_corpora())
    def test_table_matches_oracles(self, case):
        vocab_size, max_order, train, held_out = case
        table = ngram.fit(corpus_of(train, vocab_size), max_order)
        naive = naive_gram_counts(train, max_order)
        for order, view in table.continuations.items():
            assert len(view) == len(naive[order])
            assert dict(view.items()) == {ctx: dict(c) for ctx, c in naive[order].items()}
        held = len(table.grams)  # the oracle counts nothing above the orders the table holds
        assert list(table.continuations) == list(range(1, held + 1))
        assert all(not naive[order] for order in range(held + 1, max_order + 1))
        for cap in range(1, max_order + 1):
            predictor = ngram.NGramPredictor(table, max_order=cap)
            for seq in train + held_out:
                expected = [naive_backoff_predict(naive, seq[:t], cap) for t in range(1, len(seq))]
                assert (predictor.predict_sequence(*actions_pos([seq])).tolist()
                        == [p for p, _ in expected])
                for t, (predicted, order) in zip(range(1, len(seq)), expected):
                    pred = ngram.predict_next(table, seq[:t], cap)
                    assert (pred.predicted, pred.order_used) == (predicted, order)
            usage = ngram.backoff_usage(table, corpus_of(held_out, vocab_size), cap)
            expected = naive_backoff_usage(naive, held_out, cap)
            assert usage == {order: expected[order] for order in range(1, min(cap, held) + 1)}
            assert all(expected[order] == 0 for order in range(held + 1, cap + 1))

    @settings(max_examples=60, deadline=None)
    @given(gram_corpora())
    # context prefixes of exactly one packed word, and of one word and one id
    @example(word_boundary_case(256, 10))
    @example(word_boundary_case(256, 11))
    @example(word_boundary_case(257, 6))
    @example(word_boundary_case(257, 7))
    @example(word_boundary_case(2**32, 4))
    @example(word_boundary_case(2**32, 5))
    def test_save_load_save_is_byte_identical(self, case):
        vocab_size, max_order, train, held_out = case
        table = ngram.fit(corpus_of(train, vocab_size), max_order)
        with tempfile.TemporaryDirectory() as root:
            first, second = Path(root) / "a.ngram", Path(root) / "b.ngram"
            ngram.save_table(table, first)
            loaded = ngram.load_table(first.read_bytes())
            ngram.save_table(loaded, second)
            assert first.read_bytes() == second.read_bytes()
        fold = actions_pos(held_out)
        assert (ngram.NGramPredictor(loaded).predict_sequence(*fold).tolist()
                == ngram.NGramPredictor(table).predict_sequence(*fold).tolist())

    @settings(max_examples=300, deadline=None)
    @given(gram_corpora(max_vocab=300, max_length=12), st.data())
    def test_corrupt_table_is_refused_or_read_exactly(self, case, data):
        """A truncated or flipped table raises a NextactionError, or it is a
        canonical table that save_table writes back byte for byte."""
        vocab_size, max_order, train, _ = case
        path = _scratch_file(b"")
        try:
            ngram.save_table(ngram.fit(corpus_of(train, vocab_size), max_order), path)
            path.write_bytes(mutated(data.draw, path.read_bytes()))
            changed = path.read_bytes()
            try:
                loaded = ngram.load_table(path.read_bytes())
            except NextactionError:
                return
            ngram.save_table(loaded, path)
            assert path.read_bytes() == changed
        finally:
            path.unlink()

    @settings(max_examples=300, deadline=None)
    @given(gram_corpora(max_vocab=300, max_length=12), st.data())
    def test_corrupt_corpus_is_refused_or_read_exactly(self, case, data):
        """The same for an encoded corpus: NextactionError, or an exact re-read."""
        vocab_size, _, train, _ = case
        corpus = corpus_of([
            StudentSequence(f"s\u00e9{i}", seq, i % 2 == 0) for i, seq in enumerate(train)
        ], vocab_size)
        path = _scratch_file(b"")
        try:
            ingest.save_corpus(corpus, path)
            path.write_bytes(mutated(data.draw, path.read_bytes()))
            changed = path.read_bytes()
            try:
                loaded = ingest.load_corpus(path.read_bytes())
            except NextactionError:
                return
            ingest.save_corpus(loaded, path)
            assert path.read_bytes() == changed
        finally:
            path.unlink()


# --- the byte-column table codec against the per-line writer and the record regex

@st.composite
def boundary_tables(draw):
    """A fitted table whose ids, contexts and counts sit at decimal-width boundaries:
    V in {1, 9, 10, 11, 100, 2**32}, counts drawn across powers of ten, and orders
    above the longest sequence left empty (max_order 1 gives an order-1-only table)."""
    vocab_size = draw(st.sampled_from([1, 9, 10, 11, 100, 2**32]))
    ids = st.sampled_from(sorted({0, 1, 8, 9, 10, 11, 99, 100, vocab_size - 1} & set(
        range(min(vocab_size, 101))) | {vocab_size - 1}))
    train = draw(st.lists(st.lists(ids, min_size=2, max_size=6), min_size=1, max_size=4))
    table = ngram.fit(corpus_of(train, vocab_size), draw(st.integers(1, 8)))
    # up to the 18 digits that a table file holds
    count = st.one_of(st.integers(1, 12), st.integers(1, 17).map(lambda k: 10**k),
                      st.integers(1, 18).map(lambda k: 10**k - 1))
    counts = {k: np.array(draw(st.lists(count, min_size=len(g), max_size=len(g))), dtype=np.int64)
              for k, g in table.grams.items()}
    return ngram.NGramTable(table.max_order, vocab_size, table.contexts, table.grams, counts)


# fields of a table record, mostly canonical, for the byte check against the regex
FIELDS = st.sampled_from(["0", "7", "10", "1" * 18] * 4 + ["", "01", "00", "x", "-1", " 1", "1" * 19])


@st.composite
def record_lines(draw):
    """A table record line, one with a character inserted, or random characters."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(alphabet="019\t,x ", max_size=14))
    context = ",".join(draw(st.lists(FIELDS, max_size=3)))
    line = f"{draw(FIELDS)}\t{context}\t{draw(FIELDS)}\t{draw(FIELDS)}"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from("\t,0x")) + line[at:]
    return line


class TestByteColumns:
    @settings(max_examples=300, deadline=None)
    @given(boundary_tables())
    @example(ngram.fit(corpus_of([[A, B]], 3), 4))  # orders 3 and 4 empty
    @example(ngram.fit(corpus_of([[A, B, A]], 3), 1))  # order 1 alone
    def test_save_table_matches_the_per_line_writer(self, table):
        with tempfile.TemporaryDirectory() as root:
            columnar, per_line = Path(root) / "a.ngram", Path(root) / "b.ngram"
            ngram.save_table(table, columnar)
            per_line_save_table(table, per_line)
            assert columnar.read_bytes() == per_line.read_bytes()
            ngram.save_table(ngram.load_table(columnar.read_bytes()), per_line)
            assert per_line.read_bytes() == columnar.read_bytes()

    @settings(max_examples=500, deadline=None)
    @given(st.lists(record_lines(), min_size=1, max_size=3))
    def test_byte_check_matches_the_record_regex(self, lines):
        blob = ("#\n" + "".join(line + "\n" for line in lines)).encode()
        parsed = ngram._parse_records(np.frombuffer(blob, dtype=np.uint8), 2, len(blob))
        assert (parsed is not None) == all(ngram._RECORD.fullmatch(line) for line in lines)
        if parsed is None:
            return
        fields = [line.replace(",", "\t").split("\t") for line in lines]
        order, width, nxt, count, context = (column.tolist() for column in parsed)
        assert order == [int(f[0]) for f in fields]
        assert nxt == [int(f[-2]) for f in fields] and count == [int(f[-1]) for f in fields]
        ids = [[int(i) for i in f[1:-2] if i] for f in fields]
        assert width == [len(row) for row in ids]
        assert context == [i for row in ids for i in row]

    def test_a_table_longer_than_one_chunk(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(52)
        table = ngram.fit(corpus_of([rng.integers(0, 40, size=300).tolist()], 40), 5)
        ngram.save_table(table, tmp_path / "m.ngram")
        whole = ngram.load_table((tmp_path / "m.ngram").read_bytes())
        monkeypatch.setattr(ingest, "_BLOCK", 64)
        chunked = ngram.load_table((tmp_path / "m.ngram").read_bytes())
        for k in range(1, 6):
            assert chunked.grams[k].tolist() == whole.grams[k].tolist()
            assert chunked.contexts[k].tolist() == whole.contexts[k].tolist()
            assert chunked.counts[k].tolist() == whole.counts[k].tolist()
        text = (tmp_path / "m.ngram").read_text().splitlines(keepends=True)
        for at, line, reason in ((900, "1\t\t0\t00\n", "canonical"),
                                 (901, "5\t1,2,3,99\t0\t1\n", "context id")):
            (tmp_path / "bad.ngram").write_text("".join(text[:at] + [line] + text[at + 1:]))
            with pytest.raises(MalformedRecordError) as caught:
                ngram.load_table((tmp_path / "bad.ngram").read_bytes())
            assert caught.value.lineno == at + 1 and reason in str(caught.value)

    @pytest.mark.parametrize("block", [1, 5, 13])
    def test_blocks_that_start_at_a_two_digit_order(self, tmp_path, monkeypatch, block):
        """A block's first record starts at index 0 of its buffer, so the digits of
        an order 10 there are read back to index -1, the buffer's last byte."""
        rng = np.random.default_rng(53)
        table = ngram.fit(corpus_of([rng.integers(0, 12, size=400).tolist()], 12), 10)
        ngram.save_table(table, tmp_path / "m.ngram")
        blob = (tmp_path / "m.ngram").read_bytes()
        whole = ngram.load_table(blob)
        heads = []

        def spied(handle):
            for buf, size in ingest.line_blocks(handle):
                heads.append(bytes(buf[:3]))
                yield buf, size

        monkeypatch.setattr(ngram, "line_blocks", spied)
        monkeypatch.setattr(ingest, "_BLOCK", block)
        chunked = ngram.load_table(blob)
        assert b"10\t" in heads
        assert chunked.max_order == whole.max_order == 10
        for k in range(1, 11):
            assert chunked.grams[k].tolist() == whole.grams[k].tolist()
            assert chunked.contexts[k].tolist() == whole.contexts[k].tolist()
            assert chunked.counts[k].tolist() == whole.counts[k].tolist()

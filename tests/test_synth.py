import hashlib
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    advance_target, distribution, per_step_oracle_accuracy, per_step_sample, save_config,
)
from nextaction import ingest, synth
from nextaction.errors import ConfigError

# frozen once from synth.oracle_accuracy on the default config (horizon 300,
# seed 99); guards both the kernel and the sampler against drift
FROZEN_DEFAULT_ORACLE_H300 = 0.7525131328003657

# SHA-256 of events.tsv, roster.tsv and syllabus.txt for the criterion-8 config,
# recorded from the per-step sampler before the table-driven one replaced it
CRITERION_8_SYNTH = dict(
    vocab_size=16, syllabus_length=8, students_certified=15,
    students_uncertified=5, mean_sequence_length=40,
)
CRITERION_8_ROSTER_SHA = "d3fcee1d3c37b89eeff3e4a6440481ae31b83fcb64bc5d3adbd666c6d4e7a4c7"
CRITERION_8_SYLLABUS_SHA = "bc42a9719537e2c6c8eccf35d523774322d222bfcdb781013f308e9855865019"
CRITERION_8_EVENTS_SHA = {
    1234: "56891734a520cdd95064e7ee3004e8e9c745b5fe3e523a79c1c58a97ab4671c0",
    8191: "7de088a16f3a95d19eeca991ff1347320c9ff87e68d812fbaf8ef74b6d301cda",
}


def tiny_config(**overrides):
    base = dict(
        vocab_size=12, syllabus_length=6, students_certified=6,
        students_uncertified=3, mean_sequence_length=30, seed=5,
    )
    base.update(overrides)
    return synth.SynthConfig(**base)


class TestConfig:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            tiny_config(p_advance=0.5, p_repeat=0.5, p_jump=0.5).validate()

    def test_syllabus_bounds(self):
        with pytest.raises(ConfigError):
            tiny_config(syllabus_length=13).validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(p_advance=1.25, p_repeat=-0.25, p_jump=0.0), "must be non-negative"),
        (dict(students_certified=0), "student counts must be positive"),
        (dict(students_uncertified=-1), "student counts must be positive"),
        (dict(mean_sequence_length=1), "mean sequence length must be >= 2"),
        (dict(markov_order=0), "markov_order must be >= 1"),
    ])
    def test_each_bound(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            tiny_config(**overrides).validate()

    def test_advance_and_repeat_above_one(self):
        with pytest.raises(ConfigError, match="advance and repeat masses exceed 1"):
            synth.GeneratorModel(tiny_config(), p_advance=0.95)

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "synth.cfg"
        save_config(cfg, path)
        assert synth.load_config(path) == cfg

    def test_a_key_set_twice_is_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("mean-sequence-length=20\nseed=4\nmean_sequence_length=20\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="^synth.cfg, line 3: config key "
                                              "'mean_sequence_length' is set twice$"):
            synth.load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("nonsense=1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            synth.load_config(path)


class TestKernel:
    def test_rows_sum_to_one(self):
        kernel = synth.certified_kernel(tiny_config())
        v = kernel.vocab_size
        for a in range(v):
            for b in range(v):
                assert abs(distribution(kernel, (a, b)).sum() - 1.0) <= 1e-12

    def test_sequence_length_below_one(self):
        with pytest.raises(ConfigError, match="sequence length must be >= 1"):
            synth.certified_kernel(tiny_config()).sample_sequence(0, np.random.default_rng(1))

    def test_advance_uses_most_recent_on_course_action(self):
        kernel = synth.certified_kernel(tiny_config())
        off = kernel.syllabus_length  # first off-course token
        assert advance_target(kernel, (2, off)) == 3
        assert advance_target(kernel, (off, 2)) == 3
        assert advance_target(kernel, (off, off)) == 0
        assert advance_target(kernel, (kernel.syllabus_length - 1,)) == 0  # wraps

    @pytest.mark.parametrize("p_advance", [-0.5, np.nan])
    def test_invalid_row_is_refused_when_sampled(self, p_advance):
        kernel = synth.GeneratorModel(tiny_config(), p_advance=p_advance)
        with pytest.raises(ConfigError, match="must be >= 0 and sum to 1"):
            kernel.sample_sequence(3, np.random.default_rng(0))

    def test_uncertified_kernel_reduces_advance(self):
        cfg = tiny_config()
        cert = synth.certified_kernel(cfg)
        unc = synth.uncertified_kernel(cfg)
        assert unc.p_advance == pytest.approx(cfg.p_advance * 0.5)
        assert unc.p_repeat == cert.p_repeat
        assert unc.p_jump > cert.p_jump


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = tiny_config()
        out_a = synth.generate(cfg, tmp_path / "a")
        out_b = synth.generate(cfg, tmp_path / "b")
        for field in ("events_path", "roster_path", "syllabus_path"):
            assert getattr(out_a, field).read_bytes() == getattr(out_b, field).read_bytes()

    @pytest.mark.parametrize("seed", sorted(CRITERION_8_EVENTS_SHA))
    def test_criterion_8_files_are_pinned(self, tmp_path, seed):
        out = synth.generate(synth.SynthConfig(**CRITERION_8_SYNTH, seed=seed), tmp_path)
        digests = [
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out.events_path, out.roster_path, out.syllabus_path)
        ]
        assert digests == [
            CRITERION_8_EVENTS_SHA[seed], CRITERION_8_ROSTER_SHA, CRITERION_8_SYLLABUS_SHA,
        ]

    def test_different_seed_differs(self, tmp_path):
        out_a = synth.generate(tiny_config(seed=1), tmp_path / "a")
        out_b = synth.generate(tiny_config(seed=2), tmp_path / "b")
        assert out_a.events_path.read_bytes() != out_b.events_path.read_bytes()

    def test_pure_repeat_kernel_is_constant_sequence(self, tmp_path):
        cfg = tiny_config(p_advance=0.0, p_repeat=1.0, p_jump=0.0, students_uncertified=0)
        out = synth.generate(cfg, tmp_path)
        corpus, _ = ingest.ingest_files(out.events_path, out.roster_path, min_count=1)
        for seq in corpus.sequences:
            assert len(set(seq.actions)) == 1

    def test_default_files_ingest_cleanly(self, default_data):
        assert default_data.stats.malformed_lines == 0
        assert default_data.stats.parsed_events == default_data.corpus.total_actions
        assert default_data.corpus.vocab_size == default_data.cfg.vocab_size

    def test_round_trip_is_lossless(self, tmp_path):
        cfg = tiny_config()
        out = synth.generate(cfg, tmp_path)
        corpus, _ = ingest.ingest_files(out.events_path, out.roster_path, min_count=1)
        # re-extract tokens straight from the emitted file, per student
        expected: dict[str, list[str]] = defaultdict(list)
        for line in out.events_path.read_text().splitlines():
            if line.startswith("#"):
                continue
            _, sid, event_type, page, object_name = line.split("\t")
            if event_type == "save_problem_check" and object_name != "-":
                token = object_name
            elif page != "-":
                token = page
            else:
                token = event_type
            expected[sid].append(token)
        assert len(corpus.sequences) == len(expected)
        for seq in corpus.sequences:
            decoded = [corpus.vocabulary.decode(a) for a in seq.actions]
            assert decoded == expected[seq.student_id]

    def test_uncertified_cohort_includes_short_logs(self, default_data):
        lengths = [len(s) for s in default_data.uncertified.sequences]
        assert any(length < 30 for length in lengths)
        assert any(length >= 30 for length in lengths)

    def test_event_fields_cover_all_extraction_paths(self, default_data):
        text = default_data.outputs.events_path.read_text()
        assert "save_problem_check" in text
        assert "page_view" in text
        assert "page_close\t-\t-" in text


@st.composite
def cohort_kernels(draw):
    """The certified and uncertified kernels of one config: V up to a few hundred,
    the syllabus possibly the whole vocabulary, any of the advance, repeat and
    jump masses possibly zero, and a lookback of 1 to 5."""
    vocab_size = draw(st.one_of(st.integers(2, 12), st.integers(13, 300)))
    weights = draw(st.tuples(*[st.integers(0, 3)] * 3).filter(any))
    p_advance, p_repeat, p_jump = (w / sum(weights) for w in weights)
    cfg = synth.SynthConfig(
        vocab_size=vocab_size,
        syllabus_length=draw(st.one_of(st.just(vocab_size), st.integers(2, vocab_size))),
        p_advance=p_advance, p_repeat=p_repeat, p_jump=p_jump,
        markov_order=draw(st.integers(1, 5)),
    )
    return [synth.certified_kernel(cfg), synth.uncertified_kernel(cfg)]


class TestTableSampler:
    @settings(max_examples=300, deadline=None)
    @given(cohort_kernels(),
           st.lists(st.tuples(st.sampled_from([1, 2, 3, 17, 60]), st.integers(0, 1)),
                    min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_walks_match_the_per_step_sampler(self, kernels, walks, seed):
        """Walks of mixed lengths from both cohorts, walked in one lockstep, equal
        the per-step sampler's walks over the same uniforms, one by one."""
        rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [rng.random(length - 1) for length, _ in walks]
        which = np.array([cohort for _, cohort in walks])
        expected = [per_step_sample(kernels[cohort], length, step_rng) for length, cohort in walks]
        assert synth.walks(kernels, draws, which).tolist() == sum(expected, [])
        assert rng.bit_generator.state == step_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(cohort_kernels(), st.lists(st.integers(1, 60), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_matches_per_step_sampler(self, kernels, lengths, seed):
        """``sample_sequence``, one walk per call, and the generator state after
        each equal the per-step sampler's."""
        table_rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in lengths:
            assert kernels[0].sample_sequence(length, table_rng) == per_step_sample(
                kernels[0], length, step_rng)
            assert table_rng.bit_generator.state == step_rng.bit_generator.state

    @pytest.mark.parametrize("markov_order", [1, 2, 4])
    @pytest.mark.parametrize("make_kernel", [synth.certified_kernel, synth.uncertified_kernel])
    def test_oracle_accuracy_matches_prefix_argmax(self, make_kernel, markov_order):
        kernel = make_kernel(synth.SynthConfig(markov_order=markov_order, mean_sequence_length=40))
        assert synth.oracle_accuracy(kernel, 20, seed=3) == per_step_oracle_accuracy(
            kernel, 20, seed=3)

    @settings(max_examples=30, deadline=None)
    @given(cohort_kernels(), st.integers(0, 1), st.integers(0, 2**16))
    def test_oracle_accuracy_matches_prefix_argmax_on_any_kernel(self, kernels, cohort, seed):
        assert synth.oracle_accuracy(kernels[cohort], 3, seed) == per_step_oracle_accuracy(
            kernels[cohort], 3, seed)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)), st.integers(0, 1),
           st.integers(1, 300))
    def test_student_seeds_are_those_of_default_rng(self, seed, cohort, count):
        """Each student's generator is in the state ``default_rng`` gives the seed list."""
        for index, seeds in enumerate(synth._student_seeds(seed, cohort, count)):
            assert np.random.Generator(np.random.PCG64(synth._Drawn(seeds))).bit_generator.state \
                == np.random.default_rng([seed, 0x5E9, cohort, index]).bit_generator.state


class TestOracle:
    def test_deterministic_kernel_scores_one(self):
        cfg = tiny_config(p_advance=1.0, p_repeat=0.0, p_jump=0.0)
        acc, stderr = synth.oracle_accuracy(synth.certified_kernel(cfg), 50, seed=1)
        assert acc == 1.0
        assert stderr == 0.0

    def test_uniform_kernel_scores_one_over_v(self):
        cfg = tiny_config(
            p_advance=0.0, p_repeat=0.0, p_jump=1.0,
            syllabus_length=12, mean_sequence_length=60,
        )
        kernel = synth.certified_kernel(cfg)
        assert np.allclose(distribution(kernel, (0, 1)), 1.0 / 12)
        acc, stderr = synth.oracle_accuracy(kernel, 400, seed=2)
        assert abs(acc - 1.0 / 12) <= 3 * stderr

    def test_horizon_below_one(self):
        with pytest.raises(ConfigError, match="horizon must be >= 1"):
            synth.oracle_accuracy(synth.certified_kernel(tiny_config()), 0, seed=1)

    def test_frozen_default_value_reproduced(self):
        kernel = synth.certified_kernel(synth.SynthConfig())
        acc, _ = synth.oracle_accuracy(kernel, 300, seed=99)
        assert acc == FROZEN_DEFAULT_ORACLE_H300

    def test_certified_oracle_exceeds_uncertified(self):
        cfg = synth.SynthConfig()
        cert, _ = synth.oracle_accuracy(synth.certified_kernel(cfg), 200, seed=7)
        unc, _ = synth.oracle_accuracy(synth.uncertified_kernel(cfg), 200, seed=7)
        assert cert > unc


class TestEmpiricalConvergence:
    def test_visited_states_match_kernel(self, default_data):
        cfg = default_data.cfg
        kernel = synth.certified_kernel(cfg)
        to_generator = {synth.token_name(cfg, a): a for a in range(cfg.vocab_size)}
        vocab = default_data.corpus.vocabulary
        decode = [to_generator[vocab.decode(i)] for i in range(cfg.vocab_size)]

        visits = Counter()
        transitions = defaultdict(Counter)
        for seq in default_data.certified.sequences:
            walk = [decode[a] for a in seq.actions]
            for t in range(2, len(walk)):
                state = (walk[t - 2], walk[t - 1])
                visits[state] += 1
                transitions[state][walk[t]] += 1

        checked = 0
        for state, n in visits.items():
            if n < 500:
                continue
            checked += 1
            true_dist = distribution(kernel, state)
            for action in range(cfg.vocab_size):
                observed = transitions[state][action] / n
                assert abs(observed - true_dist[action]) <= 0.03, (state, action)
        assert checked >= 10

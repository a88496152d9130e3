"""Generate a synthetic course log, ingest it, and inspect what came out.

The generator walks students through a course-ordered action space with
repeat and off-course jump moves, emitting a tab-separated event log, a
certification roster, and the course-order file.  Ingestion turns that back
into encoded per-student sequences.  Because the generating kernel is known
exactly, we can also ask how well the best possible predictor would do.
"""

import tempfile
from pathlib import Path

from nextaction import ingest, synth

config = synth.SynthConfig()  # 60 actions, 200 certified students, ~200 actions each
# the generated files are removed once ingested
with tempfile.TemporaryDirectory(prefix="nextaction-demo-") as out_dir:
    print(f"generating into {out_dir}")
    outputs = synth.generate(config, Path(out_dir))

    print("\nfirst event-log lines:")
    for line in outputs.events_path.read_text().splitlines()[:6]:
        print(f"  {line}")

    corpus, stats = ingest.ingest_files(
        outputs.events_path, outputs.roster_path, min_count=40
    )
certified = ingest.filter_cohort(corpus, certified=True)
uncertified = ingest.filter_cohort(corpus, certified=False)

print(f"\nvocabulary size: {corpus.vocab_size} (min count {min(corpus.vocabulary.counts)})")
print(f"parsed events:   {stats.parsed_events}")
print(f"kept actions:    {stats.kept_actions}")
print(f"certified:       {len(certified.sequences)} students, {certified.total_actions} actions")
print(f"uncertified:     {len(uncertified.sequences)} students, {uncertified.total_actions} actions")

lengths = sorted(len(s) for s in certified.sequences)
print(f"certified sequence lengths: min {lengths[0]}, median {lengths[len(lengths) // 2]}, max {lengths[-1]}")

# the ceiling any model can reach on this data
kernel = synth.certified_kernel(config)
accuracy, stderr = synth.oracle_accuracy(kernel, horizon=500, seed=42)
print(f"\nbest-possible prediction accuracy (known kernel): {accuracy:.4f} +- {stderr:.4f}")
print("models evaluated on this corpus should approach, and cannot beat, that number")

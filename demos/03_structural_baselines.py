"""Score the three structure-only predictors nothing has to learn.

"repeat" guesses the last action again; "syllabus" guesses the course-order
successor of the last action; the combined model uses the successor when
the last action sits on the course order and repeats otherwise.  None of
them see any training data, yet course structure alone recovers a large
share of next actions, and the combination beats either part.
"""

import tempfile
from pathlib import Path

from nextaction import baselines, evaluation, ingest, synth

config = synth.SynthConfig()
with tempfile.TemporaryDirectory(prefix="nextaction-demo-") as out_dir:
    outputs = synth.generate(config, Path(out_dir))
    corpus, _ = ingest.ingest_files(outputs.events_path, outputs.roster_path, min_count=40)
    syllabus = baselines.load_syllabus(outputs.syllabus_path.read_bytes(), corpus.vocabulary)
certified = ingest.filter_cohort(corpus, certified=True)

print(f"course order: {syllabus.coverage} items matched, {len(syllabus.unmatched)} unmatched")

plan = evaluation.make_folds(certified.students, 5, seed=11)
models = [
    baselines.RepeatModel(),
    baselines.SyllabusModel(syllabus),
    baselines.SyllabusRepeatModel(syllabus),
]
print("\ncross-validated accuracy (same folds for every model):")
for model in models:
    (report,) = evaluation.cross_validate(evaluation.FixedSpec(model), certified, plan)
    folds = " ".join(f"{a:.3f}" for a in report.per_fold_accuracy)
    print(f"  {model.name:16s} {report.cv_accuracy:.4f}   folds: {folds}")

print("\nnote: the syllabus model emits no prediction off the course order or at")
print("its final item; those positions count as wrong, which is exactly where")
print("the combined model picks up its advantage by falling back to repeat.")

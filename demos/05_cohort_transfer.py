"""Apply a model trained on certified students to the uncertified cohort.

Uncertified students follow the course order only half as reliably, so a
model fitted to certified behavior predicts their next actions much less
well.  The drop between in-cohort cross-validation and the transfer score
quantifies how differently the two groups navigate.
"""

import tempfile
from pathlib import Path

from nextaction import evaluation, ingest, ngram, synth

config = synth.SynthConfig()
with tempfile.TemporaryDirectory(prefix="nextaction-demo-") as out_dir:
    outputs = synth.generate(config, Path(out_dir))
    corpus, _ = ingest.ingest_files(outputs.events_path, outputs.roster_path, min_count=40)
certified = ingest.filter_cohort(corpus, certified=True)
uncertified = ingest.filter_cohort(corpus, certified=False)

plan = evaluation.make_folds(certified.students, 5, seed=11)
(report,) = evaluation.cross_validate(ngram.NGramSpec((3,)), certified, plan)
print(f"certified cross-validated accuracy: {report.cv_accuracy:.4f}")

(model,), _ = report.full_fit  # the 3-gram table of the whole certified cohort
accuracy, n_scored = evaluation.transfer_eval(model, uncertified, min_actions=30)
short = len(uncertified.sequences) - n_scored
print(f"uncertified transfer accuracy:      {accuracy:.4f}")
print(f"  ({n_scored} students scored; {short} dropped by the 30-action minimum)")
print(f"cohort gap: {report.cv_accuracy - accuracy:.4f}")

# the gap is a property of the cohorts, not of the model class: even the
# best possible predictor for each cohort shows it
cert_opt, _ = synth.oracle_accuracy(synth.certified_kernel(config), 300, seed=5)
unc_opt, _ = synth.oracle_accuracy(synth.uncertified_kernel(config), 300, seed=5)
print(f"\nbest-possible accuracy per cohort: certified {cert_opt:.4f}, uncertified {unc_opt:.4f}")

"""Next-action prediction for sequential event logs.

Ingest tab-separated event logs into encoded per-student action sequences,
fit n-gram backoff models or a from-scratch LSTM, compare them against
structural baselines under student-level cross-validation, and generate
seeded synthetic corpora with a known-optimal predictor for end-to-end
verification.
"""

from . import baselines, evaluation, ingest, lstm, ngram, synth
from .errors import (
    ConfigError,
    MalformedRecordError,
    NextactionError,
    NumericalFaultError,
    UnfittedModelError,
)

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "evaluation",
    "ingest",
    "lstm",
    "ngram",
    "synth",
    "ConfigError",
    "MalformedRecordError",
    "NextactionError",
    "NumericalFaultError",
    "UnfittedModelError",
    "__version__",
]

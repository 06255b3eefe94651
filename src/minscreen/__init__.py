"""MinHash set-similarity screening with early-exit binomial checkpoints."""

from .binomial import ThresholdRow, ThresholdTable, build_threshold_table
from .minhash import HashFamily, Signature, SignatureMatrix, make_family, sign_many
from .screening import PairOutcome, ScreenConfig, screen_batch

__version__ = "0.1.0"

__all__ = [
    "HashFamily",
    "PairOutcome",
    "ScreenConfig",
    "Signature",
    "SignatureMatrix",
    "ThresholdRow",
    "ThresholdTable",
    "build_threshold_table",
    "make_family",
    "screen_batch",
    "sign_many",
]

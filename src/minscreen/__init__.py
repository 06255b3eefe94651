"""MinHash set-similarity screening with early-exit binomial checkpoints."""

from .binomial import (
    ThresholdRow,
    ThresholdTable,
    binom_cdf,
    binom_upper_tail,
    build_threshold_table,
    log_binom_pmf,
)
from .minhash import (
    HashFamily,
    Signature,
    SignatureMatrix,
    make_family,
    sign,
    sign_many,
)
from .screening import (
    PairOutcome,
    ScreenConfig,
    compare_pair,
    filtering_rate,
    screen_batch,
)
from .sets import exact_jaccard, exhaustive_collision_probability, jaccard_fraction

__version__ = "0.1.0"

__all__ = [
    "HashFamily",
    "PairOutcome",
    "ScreenConfig",
    "Signature",
    "SignatureMatrix",
    "ThresholdRow",
    "ThresholdTable",
    "binom_cdf",
    "binom_upper_tail",
    "build_threshold_table",
    "compare_pair",
    "exact_jaccard",
    "exhaustive_collision_probability",
    "filtering_rate",
    "jaccard_fraction",
    "log_binom_pmf",
    "make_family",
    "screen_batch",
    "sign",
    "sign_many",
]

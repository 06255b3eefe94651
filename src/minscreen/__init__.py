"""MinHash set-similarity screening with early-exit binomial checkpoints."""

from .binomial import (
    ThresholdRow,
    ThresholdTable,
    binom_cdf,
    binom_upper_tail,
    build_threshold_table,
    log_binom_pmf,
    solve_lower,
    solve_upper,
)
from .minhash import (
    HashFamily,
    MatchCount,
    Signature,
    SignatureMatrix,
    estimate,
    estimator_variance,
    make_family,
    match_count,
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
    "MatchCount",
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
    "estimate",
    "estimator_variance",
    "exact_jaccard",
    "exhaustive_collision_probability",
    "filtering_rate",
    "jaccard_fraction",
    "log_binom_pmf",
    "make_family",
    "match_count",
    "screen_batch",
    "sign",
    "sign_many",
    "solve_lower",
    "solve_upper",
]

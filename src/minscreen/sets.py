"""Token sets, exact Jaccard similarity, and a tiny exhaustive oracle.

Sets are plain Python sets of unsigned 64-bit token identifiers. Similarity
helpers here are the exact ground truth that the sketching layer is judged
against, so divisions happen on integers (or exact rationals) only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import AbstractSet

# Largest unsigned 64-bit integer: the top of the token, set id and seed
# ranges, and the mask of 64-bit arithmetic.
U64_MAX = 2**64 - 1

ORACLE_UNIVERSE_LIMIT = 8


def validate_tokens(tokens: AbstractSet[int]) -> None:
    """Reject anything that is not a set of unsigned 64-bit integers."""
    for t in tokens:
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValueError(f"token {t!r} is not an integer")
        if t < 0 or t > U64_MAX:
            raise ValueError(f"token {t} outside unsigned 64-bit range")


def jaccard_fraction(a: AbstractSet[int], b: AbstractSet[int]) -> Fraction:
    """Exact Jaccard similarity |a & b| / |a | b| as a Fraction.

    Raises ValueError for two empty sets; the ratio is undefined there and
    picking 0 or 1 silently would mask ingestion bugs.
    """
    if not a and not b:
        raise ValueError("undefined Jaccard: both sets are empty")
    return Fraction(len(a & b), len(a | b))


def jaccard_at_least(a: AbstractSet[int], b: AbstractSet[int], threshold: float) -> bool:
    """Exact test of jaccard_fraction(a, b) >= threshold, on integers only.

    A float is a dyadic rational num / den, so cross-multiplying decides the
    comparison exactly, as comparing the Fraction with the float would.
    """
    if not a and not b:
        raise ValueError("undefined Jaccard: both sets are empty")
    num, den = threshold.as_integer_ratio()
    return len(a & b) * den >= len(a | b) * num


def exact_jaccard(a: AbstractSet[int], b: AbstractSet[int]) -> float:
    """Exact Jaccard similarity as a float in [0, 1]."""
    return float(jaccard_fraction(a, b))


def exhaustive_collision_probability(
    a: AbstractSet[int], b: AbstractSet[int], universe_size: int
) -> Fraction:
    """Probability that a uniformly random permutation of the universe maps
    a and b to the same minimum, computed by full enumeration.

    This is the independent oracle for the min-wise collision identity: the
    returned rational must equal jaccard_fraction(a, b) exactly. Enumeration
    is factorial in universe_size, hence the hard cap.
    """
    if universe_size > ORACLE_UNIVERSE_LIMIT:
        raise ValueError(
            f"oracle scale exceeded: universe_size {universe_size} > {ORACLE_UNIVERSE_LIMIT}"
        )
    if universe_size < 1:
        raise ValueError("universe_size must be at least 1")
    if not a or not b:
        raise ValueError("oracle requires two non-empty sets")
    for name, s in (("a", a), ("b", b)):
        bad = [t for t in s if not (0 <= t < universe_size)]
        if bad:
            raise ValueError(f"token {bad[0]} of set {name} outside universe [0, {universe_size})")

    hits = 0
    total = 0
    for perm in permutations(range(universe_size)):
        total += 1
        if min(perm[t] for t in a) == min(perm[t] for t in b):
            hits += 1
    return Fraction(hits, total)

"""Token sets, exact Jaccard similarity, and a tiny exhaustive oracle.

Sets are plain Python sets of unsigned 64-bit token identifiers. Similarity
helpers here are the exact ground truth that the sketching layer is judged
against, so divisions happen on integers (or exact rationals) only.
"""

from __future__ import annotations

import numbers
import operator
from fractions import Fraction
from itertools import chain, permutations
from typing import AbstractSet, Iterable

import numpy as np

# Largest unsigned 64-bit integer: the top of the token, set id and seed
# ranges, and the mask of 64-bit arithmetic.
U64_MAX = 2**64 - 1

ORACLE_UNIVERSE_LIMIT = 8


def as_u64(value: object, name: str) -> int:
    """value as an int in [0, U64_MAX], or a ValueError naming it: the one rule
    for an unsigned 64-bit integer. An integer is what operator.index takes
    (Python and numpy integers; a bool is 0 or 1), never a float or a str."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if not 0 <= number <= U64_MAX:
        raise ValueError(f"{name} {number} outside unsigned 64-bit range")
    return number


def as_real(value: object, name: str) -> float:
    """value as a Python float, or a ValueError naming it: the one rule for a
    real-valued parameter, a numbers.Real (Python and numpy integers and
    floats, Fraction; a bool is 0 or 1), never a str, None, Decimal or complex."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} {value!r} is not a real number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {value!r} is too large for a float") from None


def as_u64_array(groups: Iterable[Iterable[object]], name: str, count: int = -1) -> np.ndarray:
    """as_u64 over groups (token sets, pairs, [mapping] for its keys) in order:
    one uint64 array, of count values if given, in one C-level pass. Only on
    failure are the collections read again, to name the first bad value."""
    try:
        return np.fromiter(map(operator.index, chain.from_iterable(groups)), np.uint64, count)
    except (TypeError, OverflowError):
        for value in chain.from_iterable(groups):
            as_u64(value, name)
        raise


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

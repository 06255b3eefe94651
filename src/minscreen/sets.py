"""Token sets, exact Jaccard similarity, and the integer and real rules.

Sets are plain Python sets of unsigned 64-bit token identifiers; pairs of
set ids, as a pairs file is read, are a Pairs over one (n, 2) uint64 array.
Similarity helpers here are the exact ground truth that the sketching layer
is judged against, so divisions happen on integers (or exact rationals)
only.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from typing import AbstractSet, Iterable, Iterator, Mapping

import numpy as np

# Largest unsigned 64-bit integer: the top of the token, set id and seed
# ranges, and the mask of 64-bit arithmetic.
U64_MAX = 2**64 - 1


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


def is_u64_array(array: object, ndim: int) -> bool:
    """array is a numpy array of ndim axes of unsigned 64-bit integers (either byte order)."""
    return isinstance(array, np.ndarray) and array.dtype.str[1:] == "u8" and array.ndim == ndim


def describe_array(array: object) -> str:
    """The dtype and shape of an array, or the type of anything else, for errors."""
    if isinstance(array, np.ndarray):
        return f"{array.dtype} {array.shape}"
    return str(type(array))


class Pairs(Sequence[tuple[int, int]]):
    """Pairs of set ids as one read-only (n, 2) uint64 array, ids, read as
    a list of (id, id) tuples of Python ints. An index gives such a tuple,
    a slice a Pairs view of the same memory. == with another Pairs compares
    the arrays; with anything else it gives what the equal list of tuples
    would, so a list of lists is unequal. Like a list it is unhashable."""

    def __init__(self, ids: np.ndarray) -> None:
        if not (is_u64_array(ids, 2) and ids.shape[1] == 2):  # a cast would wrap -1
            raise ValueError(f"need an (n, 2) uint64 array of set ids, got {describe_array(ids)}")
        ids.setflags(write=False)
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Pairs(self.ids[index])
        id_a, id_b = self.ids[operator.index(index)].tolist()
        return id_a, id_b

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.ids[:, 0].tolist(), self.ids[:, 1].tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Pairs):
            return np.array_equal(self.ids, other.ids)
        return list(self) == other


def pair_ids(pairs: Sequence[Sequence[object]]) -> np.ndarray:
    """The set ids of pairs, in order, as one uint64 array: a Pairs' own
    ids, flattened, or by as_u64_array, with a ValueError naming the first
    pair that is not two ids or the first bad id."""
    if isinstance(pairs, Pairs):
        return pairs.ids.reshape(-1)
    if set(map(len, pairs)) - {2}:
        index = next(i for i, pair in enumerate(pairs) if len(pair) != 2)
        raise ValueError(f"pair {index} is {tuple(pairs[index])}, not two set ids")
    return as_u64_array(pairs, "set id", 2 * len(pairs))


def jaccard_fraction(a: AbstractSet[int], b: AbstractSet[int]) -> Fraction:
    """Exact Jaccard similarity |a & b| / |a | b| as a Fraction.

    Raises ValueError for two empty sets; the ratio is undefined there and
    picking 0 or 1 silently would mask ingestion bugs.
    """
    shared = len(a & b)
    union = len(a) + len(b) - shared
    if not union:
        raise ValueError("undefined Jaccard: both sets are empty")
    return Fraction(shared, union)


def jaccard_at_least_each(
    sets: Mapping[int, AbstractSet[int]],
    pairs: Iterable[tuple[int, int]],
    threshold: float,
) -> Iterator[bool]:
    """Per pair of set ids, in order, the exact test of the pair's
    jaccard_fraction >= threshold, on Python integers only.

    A float is a dyadic rational num / den, so cross-multiplying decides the
    comparison exactly, as comparing the Fraction with the float would; den
    reaches 2**55 at 0.1, too large for int64 products.
    """
    num, den = threshold.as_integer_ratio()
    for id_a, id_b in pairs:
        a, b = sets[id_a], sets[id_b]
        shared = len(a & b)
        union = len(a) + len(b) - shared
        if not union:
            raise ValueError("undefined Jaccard: both sets are empty")
        yield shared * den >= union * num

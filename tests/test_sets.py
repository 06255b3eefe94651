"""Exact Jaccard, the exhaustive permutation oracle (oracles.py), the
integer and real rules, and Pairs."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from minscreen.sets import (
    U64_MAX,
    Pairs,
    as_real,
    as_u64,
    as_u64_array,
    jaccard_at_least_each,
    jaccard_fraction,
    pair_ids,
)
from oracles import exhaustive_collision_probability


def test_jaccard_fraction_identical_singleton():
    assert jaccard_fraction({7}, {7}) == 1


def test_jaccard_fraction_disjoint():
    assert jaccard_fraction({1, 2}, {3, 4}) == 0


def test_jaccard_fraction_one_empty_side():
    assert jaccard_fraction(set(), {1, 2}) == 0
    assert jaccard_fraction({1, 2}, set()) == 0


def test_jaccard_fraction_both_empty_rejected():
    with pytest.raises(ValueError, match="undefined Jaccard"):
        jaccard_fraction(set(), set())


def test_jaccard_fraction_is_exact_rational():
    assert jaccard_fraction({1, 2, 3}, {2, 3, 4}) == Fraction(1, 2)
    assert jaccard_fraction({0, 1, 2}, {2, 3}) == Fraction(1, 4)


def test_jaccard_at_least_on_boundaries():
    """jaccard_at_least_each over a mapping of set ids, each pair both ways.
    Two empty sets fail when their pair is reached."""
    three_tenths = (set(range(7)), set(range(4, 10)))
    assert jaccard_fraction(*three_tenths) == Fraction(3, 10)
    one_tenth = (set(range(1)), set(range(10)))
    assert jaccard_fraction(*one_tenth) == Fraction(1, 10)
    sets = {10: {1, 2, 3}, 11: {2, 3, 4}, 12: {3, 4, 5}, 40: set(), 41: set()}
    sets.update({20: three_tenths[0], 21: three_tenths[1], 30: one_tenth[0], 31: one_tenth[1]})
    cases = [
        ((10, 11), 0.5, True),  # J = 1/2 exactly at T = 0.5 counts as above.
        ((10, 12), 0.5, False),
        ((20, 21), 0.3, True),  # The float 0.3 lies just below 3/10.
        ((30, 31), 0.1, False),  # The float 0.1 lies just above 1/10.
    ]
    for pair, t, above in cases:
        assert list(jaccard_at_least_each(sets, [pair, pair[::-1]], t)) == [above, above]
    decided = jaccard_at_least_each(sets, [(10, 11), (40, 41)], 0.5)
    assert next(decided)
    with pytest.raises(ValueError, match="undefined Jaccard"):
        next(decided)


def test_jaccard_at_least_agrees_with_fraction_comparison():
    """jaccard_fraction and jaccard_at_least_each count the union as
    |a| + |b| - |a & b|; the oracle builds it. Sizes are uneven, one side
    may be empty, and the thresholds include 0, 1 and the floats 1/3 and
    0.5 at exact ties."""
    rng = random.Random(11)
    thresholds = [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.5, 0.6, 2 / 3, 0.7, 0.9, 0.999, 1.0]
    cases = [
        (set(rng.sample(range(60), rng.randint(0, 20))),
         set(rng.sample(range(60), rng.randint(1, 40))))
        for _ in range(400)
    ]
    cases += [
        ({1, 2}, {2, 3, 4}),  # 1/4
        ({1, 2}, {2, 3}),  # 1/3
        (set(range(6)), set(range(3, 12))),  # 3/12
        (set(range(4)), set(range(2, 6))),  # 2/6
        ({1, 2, 3}, {2, 3, 4}),  # 1/2
        (set(range(10)), set(range(5))),  # 1/2
        (set(), {7}),  # 0
        ({7}, {7}),  # 1
    ]
    cases += [(b, a) for a, b in cases]
    exact = [Fraction(len(a & b), len(a | b)) for a, b in cases]
    assert [jaccard_fraction(a, b) for a, b in cases] == exact
    sets = {2 * i + side: pair[side] for i, pair in enumerate(cases) for side in (0, 1)}
    pairs = [(2 * i, 2 * i + 1) for i in range(len(cases))]
    for t in thresholds:
        expected = [j >= Fraction(t) for j in exact]
        assert list(jaccard_at_least_each(sets, pairs, t)) == expected


def test_jaccard_symmetry_and_self_similarity():
    rng = random.Random(20240811)
    for _ in range(100):
        a = set(rng.sample(range(50), rng.randint(1, 12)))
        b = set(rng.sample(range(50), rng.randint(1, 12)))
        assert jaccard_fraction(a, b) == jaccard_fraction(b, a)
        assert jaccard_fraction(a, a) == 1


def test_oracle_small_examples():
    assert exhaustive_collision_probability({0, 1}, {1, 2}, 3) == Fraction(1, 3)
    assert exhaustive_collision_probability({0}, {0}, 4) == Fraction(1, 1)
    # 120 permutations of a 5-element universe, |intersection|=1, |union|=4
    assert exhaustive_collision_probability({0, 1, 2}, {2, 3}, 5) == Fraction(1, 4)


def test_oracle_matches_jaccard_exactly_over_random_sets():
    rng = random.Random(97)
    cases = 0
    while cases < 200:
        universe = rng.randint(2, 8)
        a = set(rng.sample(range(universe), rng.randint(1, universe)))
        b = set(rng.sample(range(universe), rng.randint(1, universe)))
        assert exhaustive_collision_probability(a, b, universe) == jaccard_fraction(a, b)
        cases += 1


def test_oracle_rejects_big_universe():
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        exhaustive_collision_probability({0}, {1}, 9)


def test_oracle_rejects_token_outside_universe():
    with pytest.raises(ValueError, match="outside universe"):
        exhaustive_collision_probability({0, 5}, {1}, 4)


def test_oracle_rejects_empty_set():
    with pytest.raises(ValueError):
        exhaustive_collision_probability(set(), {0}, 3)


def test_validate_tokens_range():
    """One rule for an unsigned 64-bit integer, in its scalar and its array
    form: both accept and refuse the same values, with the same message."""
    accepted = [0, 2**64 - 1, np.int64(7), np.uint64(2**64 - 1), True, False]
    assert [as_u64(value, "token") for value in accepted] == [0, 2**64 - 1, 7, 2**64 - 1, 1, 0]
    assert all(type(as_u64(value, "token")) is int for value in accepted)
    got = as_u64_array([{0}, accepted[1:]], "token", len(accepted))
    assert got.dtype == np.uint64 and got.tolist() == [0, 2**64 - 1, 7, 2**64 - 1, 1, 0]
    for bad, message in (
        (-1, "token -1 outside unsigned 64-bit range"),
        (2**64, f"token {2**64} outside unsigned 64-bit range"),
        (np.int64(-2), "token -2 outside unsigned 64-bit range"),
        ("7", "token '7' is not an integer"),
        (1.5, "token 1.5 is not an integer"),
        (2.0, "token 2.0 is not an integer"),
        (np.float64(3.0), f"token {np.float64(3.0)!r} is not an integer"),
        (None, "token None is not an integer"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_u64(bad, "token")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_u64_array([(1, 2), (3, bad, -5)], "token")


def test_real_rule():
    """One rule for a real-valued parameter: every numbers.Real becomes a
    Python float, anything else is refused with a ValueError naming it."""
    accepted = [
        (3, 3.0),
        (0.25, 0.25),
        (np.float32(0.1), float(np.float32(0.1))),
        (np.int64(-2), -2.0),
        (Fraction(1, 3), 1 / 3),
        (True, 1.0),
    ]
    for value, expected in accepted:
        got = as_real(value, "threshold")
        assert type(got) is float and got == expected
    for bad in ("0.5", None, Decimal("0.5"), 1j, [0.5]):
        message = f"threshold {bad!r} is not a real number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_real(bad, "threshold")
    with pytest.raises(ValueError, match="^threshold 10+ is too large for a float$"):
        as_real(10**400, "threshold")


def test_array_form_names_the_first_bad_value_in_order():
    with pytest.raises(ValueError, match="^set id 2.5 is not an integer$"):
        as_u64_array([(0, 1), (2.5, -1), ("x",)], "set id")
    with pytest.raises(ValueError, match="^set id -1 outside unsigned 64-bit range$"):
        as_u64_array([(0, 1), (-1, 2.5)], "set id")
    assert as_u64_array([], "set id").tolist() == []


@pytest.mark.parametrize(
    "ids, got",
    [
        (np.array([[0, 1]], dtype=np.int64), "int64 (1, 2)"),
        (np.array([0, 1], dtype=np.uint64), "uint64 (2,)"),
        (np.zeros((2, 3), dtype=np.uint64), "uint64 (2, 3)"),
        ([(0, 1)], "<class 'list'>"),
    ],
)
def test_pairs_take_only_an_n_by_2_uint64_array(ids, got):
    """A cast would wrap an int64 -1 to 2**64 - 1, so none is made."""
    message = f"need an (n, 2) uint64 array of set ids, got {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Pairs(ids)


def test_pairs_read_like_a_list_of_tuples_over_one_read_only_array():
    ids = np.array([[0, 1], [2, U64_MAX], [U64_MAX, 3], [4, 4]], dtype=np.uint64)
    pairs = Pairs(ids)
    listed = [(0, 1), (2, U64_MAX), (U64_MAX, 3), (4, 4)]
    assert pairs.ids is ids and not ids.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pairs.ids[0, 0] = 7
    assert len(pairs) == 4 and list(pairs) == listed
    assert [pairs[i] for i in range(-4, 4)] == listed * 2
    assert pairs[1] == (2, U64_MAX) and all(type(v) is int for v in pairs[1] + pairs[-2])
    with pytest.raises(IndexError):
        pairs[4]
    with pytest.raises(TypeError):
        pairs[1.0]
    part = pairs[1::2]
    assert isinstance(part, Pairs) and np.shares_memory(part.ids, ids)
    assert part == listed[1::2] and pairs[:0] == []
    assert list(reversed(pairs)) == listed[::-1]
    assert (U64_MAX, 3) in pairs and pairs.index((4, 4)) == 3 and pairs.count((0, 1)) == 1
    assert pair_ids(pairs).tolist() == [v for pair in listed for v in pair]
    assert np.shares_memory(pair_ids(pairs), ids)


def test_pairs_compare_as_the_equal_list_of_tuples_would():
    pairs = Pairs(np.array([[0, 1], [2, 3]], dtype=np.uint64))
    assert pairs == [(0, 1), (2, 3)] and [(0, 1), (2, 3)] == pairs
    assert not pairs != [(0, 1), (2, 3)]
    assert pairs != [(0, 1), (3, 2)] and pairs != [(0, 1)] and pairs != [(0, 1), (2, 3), (4, 5)]
    assert pairs != [[0, 1], [2, 3]]  # as [(0, 1)] != [[0, 1]]
    assert (pairs == [(0, 1), (2, 3)]) is True and (pairs != [[0, 1], [2, 3]]) is True
    assert pairs != ((0, 1), (2, 3)) and pairs != "01" and pairs != None  # noqa: E711
    assert pairs == Pairs(np.array([[0, 1], [2, 3]], dtype=np.uint64))
    assert pairs[:1] == Pairs(np.array([[0, 1]], dtype=np.uint64))
    assert pairs != Pairs(np.array([[0, 1], [2, 4]], dtype=np.uint64)) and pairs != pairs[:1]
    with pytest.raises(TypeError, match="unhashable"):
        hash(pairs)


def test_no_pairs_is_falsy():
    empty = Pairs(np.empty((0, 2), dtype=np.uint64))
    assert not empty and len(empty) == 0 and list(empty) == [] and empty == []
    assert Pairs(np.zeros((1, 2), dtype=np.uint64))

"""Exact Jaccard and the exhaustive permutation oracle."""

import random
from fractions import Fraction

import pytest

from minscreen.sets import (
    exact_jaccard,
    exhaustive_collision_probability,
    jaccard_at_least,
    jaccard_fraction,
    validate_tokens,
)


def test_exact_jaccard_half():
    assert exact_jaccard({1, 2, 3}, {2, 3, 4}) == 0.5


def test_exact_jaccard_identical_singleton():
    assert exact_jaccard({7}, {7}) == 1.0


def test_exact_jaccard_disjoint():
    assert exact_jaccard({1, 2}, {3, 4}) == 0.0


def test_exact_jaccard_one_empty_side():
    assert exact_jaccard(set(), {1, 2}) == 0.0
    assert exact_jaccard({1, 2}, set()) == 0.0


def test_exact_jaccard_both_empty_rejected():
    with pytest.raises(ValueError, match="undefined Jaccard"):
        exact_jaccard(set(), set())


def test_jaccard_fraction_is_exact_rational():
    assert jaccard_fraction({1, 2, 3}, {2, 3, 4}) == Fraction(1, 2)
    assert jaccard_fraction({0, 1, 2}, {2, 3}) == Fraction(1, 4)


def test_jaccard_at_least_on_boundaries():
    # J = 1/2 exactly at T = 0.5 counts as above.
    assert jaccard_at_least({1, 2, 3}, {2, 3, 4}, 0.5)
    assert not jaccard_at_least({1, 2, 3}, {3, 4, 5}, 0.5)
    # The float 0.3 lies just below 3/10, so J = 3/10 is above it.
    three_tenths = (set(range(7)), set(range(4, 10)))
    assert jaccard_fraction(*three_tenths) == Fraction(3, 10)
    assert jaccard_at_least(*three_tenths, 0.3)
    # The float 0.1 lies just above 1/10, so J = 1/10 is below it.
    one_tenth = (set(range(1)), set(range(10)))
    assert jaccard_fraction(*one_tenth) == Fraction(1, 10)
    assert not jaccard_at_least(*one_tenth, 0.1)
    with pytest.raises(ValueError, match="undefined Jaccard"):
        jaccard_at_least(set(), set(), 0.5)


def test_jaccard_at_least_agrees_with_fraction_comparison():
    rng = random.Random(11)
    thresholds = [0.1, 0.2, 0.3, 1 / 3, 0.5, 0.6, 2 / 3, 0.7, 0.9, 0.999]
    for _ in range(400):
        a = set(rng.sample(range(30), rng.randint(1, 20)))
        b = set(rng.sample(range(30), rng.randint(1, 20)))
        for t in thresholds:
            assert jaccard_at_least(a, b, t) == (jaccard_fraction(a, b) >= t)


def test_jaccard_symmetry_and_self_similarity():
    rng = random.Random(20240811)
    for _ in range(100):
        a = set(rng.sample(range(50), rng.randint(1, 12)))
        b = set(rng.sample(range(50), rng.randint(1, 12)))
        assert jaccard_fraction(a, b) == jaccard_fraction(b, a)
        assert exact_jaccard(a, a) == 1.0


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
    validate_tokens({0, 2**64 - 1})
    with pytest.raises(ValueError, match="outside unsigned 64-bit range"):
        validate_tokens({-1})
    with pytest.raises(ValueError, match="outside unsigned 64-bit range"):
        validate_tokens({2**64})
    with pytest.raises(ValueError, match="not an integer"):
        validate_tokens({"7"})
    with pytest.raises(ValueError, match="not an integer"):
        validate_tokens({True})

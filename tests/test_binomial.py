"""Binomial tails and cutoff solvers against an exact rational oracle.

The oracle below evaluates the same tails with Fraction arithmetic over
big-integer binomial coefficients, so every float assertion in this file is
anchored to exact values computed by an independent route.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np

import pytest

from minscreen.binomial import (
    E_ROUNDING_SLACK,
    build_threshold_table,
    binom_cdf,
    binom_upper_tail,
    log_binom_pmf,
    threshold_table_csv,
)


def exact_cdf(m: int, k: int, p: Fraction) -> Fraction:
    return sum(Fraction(math.comb(k, i)) * p**i * (1 - p) ** (k - i) for i in range(m + 1))


def exact_upper(m: int, k: int, p: Fraction) -> Fraction:
    return sum(
        Fraction(math.comb(k, i)) * p**i * (1 - p) ** (k - i) for i in range(m + 1, k + 1)
    )


def _rel_err(value: float, truth: Fraction) -> float:
    if truth == 0:
        return abs(value)
    return abs((Fraction(value) - truth) / truth)


class TestPmf:
    """Log-space binomial mass."""

    def test_center_value_matches_exact_big_integer(self):
        # C(100,50)/2**100, frozen from the rational oracle
        truth = 0.07958923738717877
        assert math.isclose(math.exp(log_binom_pmf(50, 100, 0.5)), truth, rel_tol=1e-12)
        assert math.isclose(log_binom_pmf(50, 100, 0.5), -2.5308764039771035, abs_tol=1e-12)

    def test_degenerate_probabilities(self):
        assert log_binom_pmf(0, 10, 0.0) == 0.0
        assert log_binom_pmf(5, 10, 1.0) == -math.inf
        assert log_binom_pmf(10, 10, 1.0) == 0.0
        assert log_binom_pmf(3, 10, 0.0) == -math.inf

    def test_rejects_out_of_range_arguments(self):
        with pytest.raises(ValueError):
            log_binom_pmf(-1, 10, 0.5)
        with pytest.raises(ValueError):
            log_binom_pmf(11, 10, 0.5)
        with pytest.raises(ValueError):
            log_binom_pmf(0, 0, 0.5)
        with pytest.raises(ValueError):
            log_binom_pmf(0, 10, 1.5)

    @pytest.mark.parametrize("tail", [log_binom_pmf, binom_cdf, binom_upper_tail])
    def test_arguments_pass_the_integer_and_real_rules(self, tail):
        for args, message in (
            ((1.5, 10, 0.5), "m 1.5 is not an integer"),
            ((3, 10.0, 0.5), "k 10.0 is not an integer"),
            ((3, "10", 0.5), "k '10' is not an integer"),
            ((-1, 10, 0.5), "m -1 outside unsigned 64-bit range"),
            ((3, 10, "0.5"), "p '0.5' is not a real number"),
            ((3, 10, None), "p None is not a real number"),
            ((3, 10, 0.5j), "p 0.5j is not a real number"),
        ):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                tail(*args)
        assert tail(np.int64(3), np.uint64(10), Fraction(1, 2)) == tail(3, 10, 0.5)
        assert tail(3, 10, np.float32(0.25)) == tail(3, 10, 0.25)


class TestTails:
    """CDF and upper tail keep relative accuracy across twenty decades."""

    def test_frozen_deep_tail_anchors(self):
        assert math.isclose(binom_cdf(10, 100, 0.5), 1.5316450877188822e-17, rel_tol=1e-11)
        assert math.isclose(binom_cdf(20, 100, 0.5), 5.579544528625889e-10, rel_tol=1e-11)

    def test_matches_oracle_on_k100_grid(self):
        half = Fraction(1, 2)
        for m in (0, 6, 10, 19, 20, 21, 30, 40, 50, 60, 70, 80, 99, 100):
            assert _rel_err(binom_cdf(m, 100, 0.5), exact_cdf(m, 100, half)) < 1e-11
            assert _rel_err(binom_upper_tail(m, 100, 0.5), exact_upper(m, 100, half)) < 1e-11

    def test_matches_oracle_for_small_k(self):
        for k in (1, 2, 5, 17, 30):
            for p in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
                for m in range(k + 1):
                    assert _rel_err(binom_cdf(m, k, float(p)), exact_cdf(m, k, p)) < 1e-9

    def test_complement_is_float_exact(self):
        for k, p in ((1, 0.3), (7, 0.01), (100, 0.5), (100, 0.77), (1000, 0.3)):
            for m in range(0, k + 1, max(1, k // 7)):
                assert binom_cdf(m, k, p) + binom_upper_tail(m, k, p) == 1.0

    def test_monotone_in_m(self):
        values = [binom_cdf(m, 100, 0.37) for m in range(101)]
        assert values == sorted(values)
        tails = [binom_upper_tail(m, 100, 0.37) for m in range(101)]
        assert tails == sorted(tails, reverse=True)

    def test_degenerate_probabilities(self):
        assert binom_cdf(3, 10, 0.0) == 1.0
        assert binom_cdf(9, 10, 1.0) == 0.0
        assert binom_cdf(10, 10, 1.0) == 1.0
        assert binom_upper_tail(3, 10, 0.0) == 0.0
        assert binom_upper_tail(9, 10, 1.0) == 1.0
        assert binom_upper_tail(10, 10, 0.25) == 0.0

    def test_rejects_out_of_range_arguments(self):
        with pytest.raises(ValueError):
            binom_cdf(101, 100, 0.5)
        with pytest.raises(ValueError):
            binom_upper_tail(-1, 100, 0.5)
        with pytest.raises(ValueError):
            binom_cdf(0, 100, -0.2)


def cutoffs(k: int, t: float, e: float):
    """The cutoff row of a one-checkpoint table."""
    return build_threshold_table(t, e, (k,)).rows[0]


class TestSolvers:
    """Cutoff solvers: worked examples, oracle scans, and the guarantee."""

    def test_lower_cutoff_worked_example(self):
        row = build_threshold_table(0.5, 5.6e-10, (100,), e_upper=1.35e-10).rows[0]
        assert row.m_l == 20
        assert row.m_l / 100 == 0.2

    def test_upper_cutoff_worked_example(self):
        row = build_threshold_table(0.5, 5.6e-10, (100,), e_upper=1.35e-10).rows[0]
        assert row.m_u == 80
        assert row.m_u / 100 == 0.8

    def test_upper_example_needs_the_rounding_slack(self):
        # The exact tail at 80 exceeds the three-figure constant 1.35e-10,
        # which is why the solvers accept tails within E_ROUNDING_SLACK of e.
        tail = binom_upper_tail(80, 100, 0.5)
        assert tail > 1.35e-10
        assert tail <= 1.35e-10 * (1.0 + E_ROUNDING_SLACK)

    def test_lower_cutoff_deep_significance(self):
        # CDF(6;100,0.5) = 1.003e-21 <= 1e-20 < CDF(7;100,0.5) = 1.363e-20
        assert cutoffs(100, 0.5, 1e-20).m_l == 6

    def test_lower_cutoff_can_be_none(self):
        # CDF(0;10,0.9) = 1e-10 already exceeds e
        assert cutoffs(10, 0.9, 1e-12).m_l is None

    def test_upper_cutoff_extremes(self):
        assert cutoffs(100, 0.5, 0.999).m_u == 0
        # even a full run of successes is not rare enough, so only m=k works
        assert cutoffs(10, 0.9, 1e-12).m_u == 10

    def test_upper_cutoff_against_brute_force_scan(self):
        e = 1e-5
        bound = e * (1.0 + E_ROUNDING_SLACK)
        scan = min(m for m in range(101) if binom_upper_tail(m, 100, 0.3) <= bound)
        assert scan == 50
        assert cutoffs(100, 0.3, e).m_u == scan

    def test_lower_cutoff_against_brute_force_scan(self):
        e = 1e-5
        bound = e * (1.0 + E_ROUNDING_SLACK)
        hits = [m for m in range(101) if binom_cdf(m, 100, 0.3) <= bound]
        assert max(hits) == 11
        assert cutoffs(100, 0.3, e).m_l == max(hits)

    def test_solver_sandwich_property(self):
        import random

        rng = random.Random(5150)
        for _ in range(120):
            k = rng.randint(1, 400)
            t = rng.uniform(0.05, 0.95)
            e = 10.0 ** rng.uniform(-12, -0.4)
            bound = e * (1.0 + E_ROUNDING_SLACK)
            row = cutoffs(k, t, e)
            m_l, m_u = row.m_l, row.m_u
            if m_l is None:
                assert binom_cdf(0, k, t) > bound
            else:
                assert binom_cdf(m_l, k, t) <= bound
                if m_l < k:
                    assert binom_cdf(m_l + 1, k, t) > bound
            assert binom_upper_tail(m_u, k, t) <= bound
            if m_u > 0:
                assert binom_upper_tail(m_u - 1, k, t) > bound

    def test_bracketing_around_threshold(self):
        import random

        rng = random.Random(777)
        for _ in range(80):
            k = rng.randint(2, 300)
            t = rng.uniform(0.1, 0.9)
            e = 10.0 ** rng.uniform(-9, math.log10(0.45))
            row = cutoffs(k, t, e)
            m_l, m_u = row.m_l, row.m_u
            if m_l is not None:
                assert m_l / k <= t
            assert t <= m_u / k

    def test_rejects_out_of_range_arguments(self):
        for bad in ((0, 0.5, 1e-3), (10, 0.0, 1e-3), (10, 1.0, 1e-3), (10, 0.5, 0.0), (10, 0.5, 1.0)):
            with pytest.raises(ValueError):
                cutoffs(*bad)


class TestThresholdTable:
    """Per-checkpoint cutoff tables."""

    def test_worked_example_row(self):
        table = build_threshold_table(0.5, 5.6e-10, [100])
        row = table.row_at(100)
        assert row.m_l == 20
        assert row.t_l == 0.2

    def test_default_grid_satisfies_cutoff_invariants(self):
        table = build_threshold_table(0.5, 1e-3, range(100, 1000, 100))
        assert table.checkpoints == tuple(range(100, 1000, 100))
        bound = 1e-3 * (1.0 + E_ROUNDING_SLACK)
        for row in table.rows:
            assert row.m_l is not None
            assert binom_cdf(row.m_l, row.k, 0.5) <= bound
            assert binom_cdf(row.m_l + 1, row.k, 0.5) > bound
            assert binom_upper_tail(row.m_u, row.k, 0.5) <= bound
            assert binom_upper_tail(row.m_u - 1, row.k, 0.5) > bound
            assert row.t_l <= 0.5 <= row.t_u

    def test_split_significance_levels(self):
        table = build_threshold_table(0.5, 5.6e-10, [100], e_upper=1.35e-10)
        row = table.row_at(100)
        assert (row.m_l, row.m_u) == (20, 80)
        assert table.e_lower == 5.6e-10
        assert table.e_upper == 1.35e-10

    def test_empty_checkpoint_list(self):
        table = build_threshold_table(0.5, 1e-3, [])
        assert table.rows == ()
        assert table.checkpoints == ()

    def test_rejects_non_increasing_checkpoints(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_threshold_table(0.5, 1e-3, [100, 100])
        with pytest.raises(ValueError, match="strictly increasing"):
            build_threshold_table(0.5, 1e-3, [200, 100])
        with pytest.raises(ValueError, match="strictly increasing"):
            build_threshold_table(0.5, 1e-3, [0, 100])

    @pytest.mark.parametrize("checkpoints", [[100.9, 200.2], [100, "200"], [100.0]])
    def test_rejects_non_integer_checkpoints(self, checkpoints):
        with pytest.raises(ValueError, match="strictly increasing positive integers"):
            build_threshold_table(0.5, 1e-3, checkpoints)

    def test_numpy_integer_checkpoints_become_ints(self):
        table = build_threshold_table(0.5, 1e-3, np.array([100, 200], dtype=np.int64))
        assert table == build_threshold_table(0.5, 1e-3, [100, 200])
        assert [type(k) for k in table.checkpoints] == [int, int]

    def test_real_parameters_are_kept_as_floats(self):
        table = build_threshold_table(Fraction(1, 2), np.float32(1e-3), [100], np.float64(1e-4))
        assert [type(v) for v in (table.threshold, table.e_lower, table.e_upper)] == [float] * 3
        assert table == build_threshold_table(0.5, float(np.float32(1e-3)), [100], 1e-4)
        assert build_threshold_table(0.5, 1e-3, [100]).e_upper == 1e-3
        for args, message in (
            ((0.5, None, (10,)), "significance e None is not a real number"),
            (("0.5", 1e-3, (10,)), "threshold '0.5' is not a real number"),
            ((0.5, 1e-3, (10,), Decimal("0.1")), "significance e_upper Decimal('0.1') is not a real number"),
            ((Fraction(3, 2), 1e-3, (10,)), "threshold must lie in (0, 1), got 1.5"),
        ):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                build_threshold_table(*args)

    def test_csv_header_and_rows_are_pinned(self):
        table = build_threshold_table(0.5, 1e-3, [100, 200])
        text = threshold_table_csv(table)
        lines = text.splitlines()
        assert lines[0] == "k,m_l,T_L,m_u,T_U"
        assert lines[1] == "100,34,0.34,65,0.65"
        assert lines[2] == "200,77,0.385,122,0.61"

    def test_csv_blank_cells_when_no_lower_cutoff(self):
        table = build_threshold_table(0.9, 1e-12, [10])
        lines = threshold_table_csv(table).splitlines()
        assert lines[1] == "10,,,10,1.0"

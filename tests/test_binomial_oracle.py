"""The cutoff solvers against the bisection they replaced, and golden tables.

The oracle below is the earlier solver: each tail is a math.fsum of
math.exp(log_binom_pmf(i, k, p)) terms, one scalar call per term, and each
cutoff is found by bisection on the exact tail predicate. The solvers in
minscreen.binomial must return the same cutoff on every configuration, and
the tails they sum must be the same floats.
"""

import math
from pathlib import Path

import pytest

from minscreen.binomial import (
    E_ROUNDING_SLACK,
    binom_cdf,
    binom_upper_tail,
    build_threshold_table,
    log_binom_pmf,
)
from minscreen.cli import main

GOLDEN = Path(__file__).parent / "golden"

THRESHOLDS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
SIGNIFICANCES = (1e-15, 1e-5, 1e-3, 0.05, 0.4, 0.9)
SAMPLED_K = (301, 347, 512, 999, 1000, 1777, 2500, 3900, 5000)
CHECKPOINTS = tuple(range(1, 301)) + SAMPLED_K


class OracleTails:
    """Binomial(k, p) tails from scalar log_binom_pmf terms, as summed before."""

    def __init__(self, k: int, p: float):
        self.k, self.p = k, p
        self.terms = [math.exp(log_binom_pmf(i, k, p)) for i in range(k + 1)]

    def cdf(self, m: int) -> float:
        if m < self.k * self.p:
            return math.fsum(self.terms[: m + 1])
        return 1.0 - math.fsum(self.terms[m + 1 :])

    def upper(self, m: int) -> float:
        if m < self.k * self.p:
            return 1.0 - math.fsum(self.terms[: m + 1])
        return math.fsum(self.terms[m + 1 :])

    def solve_lower(self, e: float) -> int | None:
        bound = e * (1.0 + E_ROUNDING_SLACK)
        if self.cdf(0) > bound:
            return None
        lo, hi = 0, self.k
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.cdf(mid) <= bound:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def solve_upper(self, e: float) -> int:
        bound = e * (1.0 + E_ROUNDING_SLACK)
        lo, hi = 0, self.k
        while lo < hi:
            mid = (lo + hi) // 2
            if self.upper(mid) <= bound:
                hi = mid
            else:
                lo = mid + 1
        return lo


@pytest.fixture(scope="module")
def oracles():
    return {(k, t): OracleTails(k, t) for t in THRESHOLDS for k in CHECKPOINTS}


@pytest.mark.parametrize("t", THRESHOLDS)
def test_table_matches_bisection_and_its_predicate(t, oracles):
    """Each e is the discard significance once and the accept one once."""
    for e, e_up in zip(SIGNIFICANCES, SIGNIFICANCES[1:] + SIGNIFICANCES[:1]):
        lower_bound = e * (1.0 + E_ROUNDING_SLACK)
        upper_bound = e_up * (1.0 + E_ROUNDING_SLACK)
        for row in build_threshold_table(t, e, CHECKPOINTS, e_upper=e_up).rows:
            oracle = oracles[(row.k, t)]
            expected = (oracle.solve_lower(e), oracle.solve_upper(e_up))
            assert (row.m_l, row.m_u) == expected, (row.k, t, e, e_up)
            if row.m_l is None:
                assert oracle.cdf(0) > lower_bound
            else:
                assert oracle.cdf(row.m_l) <= lower_bound
                if row.m_l < row.k:
                    assert oracle.cdf(row.m_l + 1) > lower_bound
            assert oracle.upper(row.m_u) <= upper_bound
            if row.m_u > 0:
                assert oracle.upper(row.m_u - 1) > upper_bound


@pytest.mark.parametrize("t", (0.1, 0.5, 0.9))
def test_significance_on_a_tail_value_matches_bisection(t):
    """e placed on an exact tail, and one ulp either side: the running sum
    can land one step off here, so the exact-tail steps decide."""
    for k in (50, 300, 1000):
        oracle = OracleTails(k, t)
        for m in range(0, k, k // 20):
            for tail, side in ((oracle.cdf(m), "lower"), (oracle.upper(m), "upper")):
                e0 = tail / (1.0 + E_ROUNDING_SLACK)
                if not 0.0 < e0 < 1.0:
                    continue
                for e in (math.nextafter(e0, 0.0), e0, math.nextafter(e0, 1.0)):
                    row = build_threshold_table(t, e, [k]).rows[0]
                    if side == "lower":
                        assert row.m_l == oracle.solve_lower(e), (k, t, m, e)
                    else:
                        assert row.m_u == oracle.solve_upper(e), (k, t, m, e)


def test_single_solvers_match_the_table(oracles):
    """Tables of one checkpoint against the bisection."""
    for t in (0.1, 0.5, 0.9):
        for k in (1, 2, 57, 300, 1000, 3900):
            for e in (1e-15, 1e-3, 0.4):
                oracle = oracles[(k, t)]
                row = build_threshold_table(t, e, (k,)).rows[0]
                assert (row.m_l, row.m_u) == (oracle.solve_lower(e), oracle.solve_upper(e))


@pytest.mark.parametrize("k", (1, 7, 100, 1000, 3900))
@pytest.mark.parametrize("p", (0.01, 0.3, 0.5, 0.77, 0.99))
def test_tails_are_the_floats_the_scalar_terms_give(k, p):
    oracle = OracleTails(k, p)
    for m in sorted({0, 1, k // 3, int(k * p), int(k * p) + 1, k - 1, k} & set(range(k + 1))):
        assert binom_cdf(m, k, p) == oracle.cdf(m)
        assert binom_upper_tail(m, k, p) == oracle.upper(m)


GOLDEN_TABLES = {
    "thresholds_t0.5_e1e-3_100-900.csv": range(100, 1000, 100),
    "thresholds_t0.5_e1e-3_100-3900.csv": range(100, 4000, 100),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_thresholds_output_matches_golden(name, capsys):
    schedule = ",".join(str(k) for k in GOLDEN_TABLES[name])
    assert main(["thresholds", "--threshold", "0.5", "--e", "1e-3", "--schedule", schedule]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="ascii")


def test_golden_tables_keep_their_anchors():
    anchors = {100: ("34", "65"), 200: ("77", "122"), 900: ("403", "496"), 3900: ("1853", "2046")}
    for name in GOLDEN_TABLES:
        for line in (GOLDEN / name).read_text(encoding="ascii").splitlines()[1:]:
            k, m_l, _, m_u, _ = line.split(",")
            if int(k) in anchors:
                assert (m_l, m_u) == anchors[int(k)]

"""The cutoff solver against the bisection it replaced, and golden tables.

The oracle, oracles.OracleTails, is the earlier solver: each tail is a
math.fsum of scalar log-mass terms, one lgamma expression per term, and each
cutoff is found by bisection on the exact tail predicate. The solver in
minscreen.binomial must return the same cutoff on every configuration, and
the tails it sums must be the same floats. Tables solved from a window of
each side's masses must equal tables solved from all of them.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from minscreen import binomial
from minscreen.binomial import (
    E_ROUNDING_SLACK,
    _log_factorials,
    _log_pmf,
    _search,
    build_threshold_table,
)
from minscreen.cli import main
from oracles import OracleTails, exact_upper, package_tails

GOLDEN = Path(__file__).parent / "golden"

THRESHOLDS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
SIGNIFICANCES = (1e-15, 1e-5, 1e-3, 0.05, 0.4, 0.9)
SAMPLED_K = (301, 347, 512, 999, 1000, 1777, 2500, 3900, 5000)
CHECKPOINTS = tuple(range(1, 301)) + SAMPLED_K


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


@pytest.mark.parametrize("t", (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99))
def test_significance_on_a_tail_value_matches_bisection(t):
    """e placed on an exact tail, and one ulp either side: the running sum
    can land one step off here, so the exact-tail steps decide. Where k * t
    is not an integer (k = 7, 13, 101 at most of these t), the lower tail
    and the mirrored upper tail must switch between direct sum and
    complement at the same m as the oracle. An e with e * (1 + slack) >= 1
    accepts at 0 and discards at k."""
    for k in (7, 13, 50, 101, 300, 1000):
        oracle = OracleTails(k, t)
        for m in range(0, k, max(1, k // 20)):
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
        for e in (1.0 / (1.0 + E_ROUNDING_SLACK), 0.999, math.nextafter(1.0, 0.0)):
            row = build_threshold_table(t, e, [k]).rows[0]
            assert (row.m_l, row.m_u) == (oracle.solve_lower(e), oracle.solve_upper(e))
            assert (row.m_l, row.m_u) == (k, 0), (k, t, e)


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
    """binomial._cdf on the masses, and on the reversed masses for the upper
    tail, switches between direct sum and complement where the oracle's
    m < k * p does, so each tail is bit-equal to the oracle's."""
    oracle = OracleTails(k, p)
    cdf, upper = package_tails(k, p)
    for m in sorted({0, 1, k // 3, int(k * p), int(k * p) + 1, k - 1, k} & set(range(k + 1))):
        assert cdf(m) == oracle.cdf(m)
        assert upper(m) == oracle.upper(m)


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


def test_the_accept_side_exceeds_e_at_its_cutoff():
    """The walk accepts at X >= m_u, but the table bounds only P(X > m_u):
    at k = 100, T = 0.5, e = 1e-3 the README quotes 1.76e-3 for the first
    and 8.9e-4 for the second. At T = 0.99 m_u is k itself, so a pair at
    J = T is accepted whenever all k slots match: 0.99**100 = 0.366."""
    (row,) = build_threshold_table(0.5, 1e-3, (100,)).rows
    assert row.m_u == 65
    at_or_above = exact_upper(row.m_u - 1, 100, Fraction(1, 2))
    above = exact_upper(row.m_u, 100, Fraction(1, 2))
    assert f"{float(at_or_above):.2e}" == "1.76e-03"
    assert f"{float(above):.1e}" == "8.9e-04"
    assert above <= Fraction(1, 1000) < at_or_above
    (row,) = build_threshold_table(0.99, 1e-3, (100,)).rows
    assert row.m_u == 100
    assert exact_upper(99, 100, Fraction(99, 100)) == Fraction(99, 100) ** 100
    assert f"{float(Fraction(99, 100) ** 100):.3f}" == "0.366"


def _all_masses_rows(t, e, points, e_upper=None):
    """(k, m_l, m_u) per checkpoint, each side solved by _search on all
    k + 1 masses."""
    lower, upper = (x * (1.0 + E_ROUNDING_SLACK) for x in (e, e if e_upper is None else e_upper))
    log_fact = _log_factorials(max(points))
    rows = []
    for k in points:
        logs, split = _log_pmf(k, t, log_fact), math.ceil(k * t)
        m_l = _search(logs, 0, k + 1, split, lower)
        m_u = max(0, k - 1 - _search(logs[::-1], 0, k + 1, k - split, upper))
        rows.append((k, None if m_l < 0 else m_l, m_u))
    return rows


@pytest.fixture
def all_masses_solves(monkeypatch):
    """Counts the sides solved from all masses, by counting the _search
    calls that start at 0 and stop at k + 1."""
    calls = []

    def counted(logs, start, stop, split, bound):
        if (start, stop) == (0, len(logs)):
            calls.append((len(logs) - 1, split, bound))
        return _search(logs, start, stop, split, bound)

    monkeypatch.setattr(binomial, "_search", counted)
    return calls


def test_window_tables_equal_all_masses_tables(all_masses_solves):
    """300 seeded random configurations: k up to 20,000, T anywhere in
    (0, 1) and near either end, e and e_upper from 1e-15 to 0.9. Some sides
    fall back to all masses (a large e puts the cutoff past the split), most
    do not."""
    rng = random.Random(20)
    sides = 0
    for _ in range(300):
        top = rng.choice((50, 500, 5000, 20000))
        points = sorted(rng.sample(range(1, top + 1), rng.randint(1, 3)))
        t = rng.choice((rng.random(), rng.uniform(0.0, 0.02), rng.uniform(0.98, 1.0)))
        t = min(max(t, 1e-6), 1.0 - 1e-6)
        e = 10 ** rng.uniform(-15, math.log10(0.9))
        e_upper = rng.choice((None, 10 ** rng.uniform(-15, math.log10(0.9))))
        table = build_threshold_table(t, e, points, e_upper=e_upper)
        got = [(row.k, row.m_l, row.m_u) for row in table.rows]
        assert got == _all_masses_rows(t, e, points, e_upper), (t, e, e_upper, points)
        sides += 2 * len(points)
    assert 0 < len(all_masses_solves) < sides / 4


def test_the_window_decides_the_golden_and_benchmark_tables(all_masses_solves):
    """The golden schedules are those of the benchmark's workloads: thirds
    and join screen with 100..900, wide with 100..3900, all at T = 0.5 and
    e = 1e-3."""
    for points in GOLDEN_TABLES.values():
        build_threshold_table(0.5, 1e-3, points)
    assert all_masses_solves == []


@pytest.mark.parametrize("t", (0.1, 0.5, 0.9))
def test_significance_on_a_tail_value_is_solved_from_all_masses(t, all_masses_solves):
    """At k = 1000 the windows omit masses, so a bound within rounding of an
    exact tail cannot be decided from a window: that side, and only it, is
    solved from all masses, with the cutoff of the bisection."""
    k = 1000
    oracle = OracleTails(k, t)
    for m, side in ((int(k * t * 0.8), "lower"), (k - int(k * (1 - t) * 0.8), "upper")):
        e0 = (oracle.cdf(m) if side == "lower" else oracle.upper(m)) / (1.0 + E_ROUNDING_SLACK)
        for e in (math.nextafter(e0, 0.0), e0, math.nextafter(e0, 1.0)):
            all_masses_solves.clear()
            row = build_threshold_table(t, e, [k]).rows[0]
            assert (row.m_l, row.m_u) == (oracle.solve_lower(e), oracle.solve_upper(e))
            assert len(all_masses_solves) == 1, (t, m, side, e)


def test_the_benchmark_tables_exponentiate_a_window(monkeypatch):
    """The 9-checkpoint table to k = 900 (thirds, join) holds 4,509 masses
    and the 39-checkpoint table to k = 3900 (wide) holds 78,039; their
    windows need under half and under a quarter of them."""
    calls = []
    exp = math.exp

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    for points, most in zip(GOLDEN_TABLES.values(), (2_108, 18_358)):
        calls.clear()
        build_threshold_table(0.5, 1e-3, points)
        assert len(calls) <= most, points

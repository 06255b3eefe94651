"""Binomial tail probabilities and the early-exit cutoff solver.

The screening engine asks two questions of a Binomial(k, t) match count X at
each checkpoint k:

* lower cutoff m_l: the largest m with P(X <= m) at most 1.005·e
  (E_ROUNDING_SLACK), so that a match count at or below m_l justifies
  discarding the pair, wrongly with probability at most 1.005·e when the
  true similarity is at least t;
* upper cutoff m_u: the smallest m with P(X > m) at most 1.005·e, so that
  a match count at or above m_u justifies accepting the pair early.

They mirror each other: X > m exactly when k - X <= k - m - 1, and the
masses of k - X are those of X reversed. So one tail, P(X <= m), and one
solver, the largest m whose tail is at most a bound, give m_l on the masses
and k - 1 - m_u on the reversed masses.

Tail values span twenty orders of magnitude (P(X <= 10) for k=100, t=0.5 is
about 1.5e-17). The tail sums the side that does not hold mass ceil(k * t)
directly with math.fsum and takes the other side as the complement; every
term is positive, so relative error stays around 1e-13. In the mirror that
mass sits at k - ceil(k * t), so the reversed tail sums the slices a direct
upper tail would.

The log masses of a checkpoint are one vector, computed with numpy from a
table of log-factorials that a threshold table builds once up to its
largest checkpoint. A running sum locates each cutoff and the exact tail
confirms it in about two evaluations. The terms are the floats of scalar
lgamma terms and math.fsum is correctly rounded, so tails and cutoffs are
those of summing term by term and bisecting.

The solver is one search. It runs first on a window of a side's masses,
from the first whose log exceeds ln(bound) - 60 up to the split, and only
when the window cannot decide (e within rounding of an exact tail value, or
a tail at or past the split, where _cdf takes the complement) on all k + 1
masses, so every cutoff is the one all the masses give.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .sets import as_real

# The cutoff solver accepts a tail that exceeds e by up to this relative margin.
# Significance levels are conventionally quoted to at most three significant
# figures (5.6e-10, 1.35e-10, ...); a cutoff whose exact tail rounds to the
# quoted e at that precision is the cutoff the quote meant. The early-discard
# error guarantee therefore reads: P(wrong early discard) <= e * (1 + slack).
# The screening walk accepts at X >= m_u, which this bound does not cover.
E_ROUNDING_SLACK = 5e-3

# A side's window starts at the first mass whose log exceeds ln(bound) minus
# this depth. The masses before it are each at most bound * e**-60, and
# e**-60 < 2**-86, so even 2**33 of them (a 64 GiB log-factorial table) sum
# to under half an ulp of a normal bound: they cannot move a cutoff, and are
# never exponentiated. A shallower depth would widen the margin within which
# a window cannot decide; a deeper one exponentiates masses that never count.
# _OMITTED_RATIO is that e**-60.
_WINDOW_LOG_DEPTH = 60.0
_OMITTED_RATIO = math.exp(-_WINDOW_LOG_DEPTH)


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) = math.lgamma(j + 1) for j in 0..n.

    np.fromiter with a count allocates the n + 1 floats first, so an n too
    large for memory fails before any lgamma is evaluated.
    """
    return np.fromiter(map(math.lgamma, range(1, n + 2)), dtype=float, count=n + 1)


def _log_pmf(k: int, p: float, log_fact: np.ndarray) -> np.ndarray:
    """Log Binomial(k, p) masses at 0..k for 0 < p < 1; log_fact reaches at
    least k.

    Term i is lgamma(k + 1) - lgamma(i + 1) - lgamma(k - i + 1) + i * log(p)
    + (k - i) * log1p(-p), evaluated as one scalar expression would be:
    numpy performs the same IEEE operations in the same order.
    """
    i = np.arange(k + 1)
    logs = (log_fact[k] - log_fact[: k + 1]) - log_fact[k::-1]
    return logs + i * math.log(p) + (k - i) * math.log1p(-p)


def _masses(logs: np.ndarray) -> list[float]:
    """math.exp of each log mass; np.exp may differ in the last ulp."""
    return [math.exp(x) for x in logs.tolist()]


def _cdf(pmf: list[float], m: int, split: int) -> float:
    """P(X <= m) from the masses of X, for m in [-1, len(pmf) - 1].

    Below split the masses up to m are summed directly, largest first: they
    rise towards split, and math.fsum keeps fewer partial sums when large
    terms come first (its result does not depend on the order). From split
    on, the masses above m are summed and complemented.
    """
    if m < split:
        return math.fsum(reversed(pmf[: m + 1]))
    return 1.0 - math.fsum(pmf[m + 1 :])


def validate_table_args(
    t: float, e: float, checkpoints: Iterable[int], e_upper: float | None = None
) -> tuple[float, float, float | None, tuple[int, ...]]:
    """Check a threshold, its significance levels and a checkpoint schedule;
    return (t, e, e_upper) as floats by sets.as_real, e_upper None if not
    given, and the checkpoints as validate_checkpoints does."""
    t, e = as_real(t, "threshold"), as_real(e, "significance e")
    e_upper = None if e_upper is None else as_real(e_upper, "significance e_upper")
    for name, value in (("threshold", t), ("significance e", e), ("significance e_upper", e_upper)):
        if value is not None and not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return t, e, e_upper, validate_checkpoints(checkpoints)


def validate_checkpoints(checkpoints: Iterable[int]) -> tuple[int, ...]:
    """Check a checkpoint schedule; return it as a tuple of ints.

    Checkpoints must be strictly increasing positive integers. They are
    converted with operator.index, so Python and numpy integers pass and
    floats or strings are refused rather than truncated.
    """
    checkpoints = tuple(checkpoints)
    problem = f"checkpoints must be strictly increasing positive integers, got {checkpoints!r}"
    try:
        points = tuple(operator.index(k) for k in checkpoints)
    except TypeError:
        raise ValueError(problem) from None
    if any(k <= prev for prev, k in zip((0, *points), points)):
        raise ValueError(problem)
    return points


def _search(logs: np.ndarray, start: int, stop: int, split: int, bound: float) -> int | None:
    """Largest m in [-1, k] with _cdf(pmf, m, split) <= bound, for the k + 1
    masses pmf = exp(logs), from the masses at start..stop - 1 alone; None
    when they cannot decide it.

    A running sum locates the candidate and exact tails step to it until the
    tail holds at m and fails at m + 1; a tail at or past stop is undecided.
    With start = 0 every test is exact. With start > 0 the tail of m is w,
    the fsum of the masses at start..m, plus those before start, which sum
    to at most start * bound * e**-60 (counted twice, to cover the rounding
    of that product and of ln(bound)). As w is within half an ulp of its
    sum, a test is decided only when w lies that far plus two ulps of the
    bound from the bound. Below the split w never decreases in m, so a
    decided boundary is the one all the masses give.
    """
    masses = _masses(logs[start:stop])
    margin = 2 * math.ulp(bound) + 2 * start * bound * _OMITTED_RATIO if start else 0.0

    def holds(m: int) -> bool | None:
        if m >= stop:
            return None
        w = _cdf(masses, m - start, split - start)
        if bound - w >= margin:
            return True
        return False if w - bound >= margin else None

    m = start + int(np.searchsorted(np.cumsum(masses), bound, side="right")) - 1
    verdict = False
    while m < len(logs) - 1 and (verdict := holds(m + 1)) is True:
        m += 1
    while verdict is False and m >= 0 and (verdict := holds(m)) is False:
        m -= 1
    return None if verdict is None else m


def _cutoff(logs: np.ndarray, split: int, bound: float) -> int:
    """Largest m in [-1, k] with _cdf(pmf, m, split) <= bound, for the k + 1
    masses pmf = exp(logs).

    The search runs first on a window: from the first index whose log mass
    exceeds ln(bound) minus _WINDOW_LOG_DEPTH up to the split. Only when
    the window cannot decide does it run on all k + 1 masses.
    """
    above = logs[:split] > math.log(bound) - _WINDOW_LOG_DEPTH
    start = int(above.argmax()) if above.any() else split
    m = _search(logs, start, split, split, bound)
    return _search(logs, 0, len(logs), split, bound) if m is None else m


@dataclass(frozen=True)
class ThresholdRow:
    """Cutoffs for one checkpoint: discard at or below m_l, accept at or
    above m_u, both expressed as match counts out of k."""

    k: int
    m_l: int | None
    m_u: int

    @property
    def t_l(self) -> float | None:
        return None if self.m_l is None else self.m_l / self.k

    @property
    def t_u(self) -> float:
        return self.m_u / self.k


@dataclass(frozen=True)
class ThresholdTable:
    """Immutable per-checkpoint cutoff table for one (t, e) configuration."""

    threshold: float
    e_lower: float
    e_upper: float
    rows: tuple[ThresholdRow, ...]

    @property
    def checkpoints(self) -> tuple[int, ...]:
        return tuple(row.k for row in self.rows)


def build_threshold_table(
    t: float,
    e: float,
    checkpoints: Iterable[int],
    e_upper: float | None = None,
) -> ThresholdTable:
    """Solve both cutoffs at every checkpoint.

    e applies to the discard (lower) side; e_upper, when given, replaces it
    on the accept side, mirroring configurations that quote the two tails
    separately. The arguments are checked by validate_table_args. The
    table is built once per configuration and reused across all pairs.
    """
    t, e, e_upper, points = validate_table_args(t, e, checkpoints, e_upper)
    e_up = e if e_upper is None else e_upper
    lower_bound, upper_bound = (x * (1.0 + E_ROUNDING_SLACK) for x in (e, e_up))
    log_fact = _log_factorials(max(points, default=0))
    rows = []
    for k in points:
        logs = _log_pmf(k, t, log_fact)
        split = math.ceil(k * t)
        m_l = _cutoff(logs, split, lower_bound)
        # P(X > m) is P(k - X <= k - m - 1): the tail of the reversed masses.
        m_u = max(0, k - 1 - _cutoff(logs[::-1], k - split, upper_bound))
        rows.append(ThresholdRow(k=k, m_l=None if m_l < 0 else m_l, m_u=m_u))
    return ThresholdTable(threshold=t, e_lower=e, e_upper=e_up, rows=tuple(rows))


def threshold_table_csv(table: ThresholdTable) -> str:
    """Render a table as CSV with columns k, m_l, T_L, m_u, T_U, by plain
    joins: no field can contain a comma, quote or newline."""
    lines = ["k,m_l,T_L,m_u,T_U"]
    for row in table.rows:
        lower = "," if row.m_l is None else f"{row.m_l},{row.t_l!r}"
        lines.append(f"{row.k},{lower},{row.m_u},{row.t_u!r}")
    return "\n".join(lines) + "\n"

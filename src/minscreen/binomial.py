"""Binomial tail probabilities and the early-exit cutoff solver.

The screening engine asks two questions of a Binomial(k, t) match count X at
each checkpoint k:

* lower cutoff m_l: the largest m with P(X <= m) at most e, so that a match
  count at or below m_l justifies discarding the pair, wrongly with
  probability at most e when the true similarity is at least t;
* upper cutoff m_u: the smallest m with P(X > m) at most e, so that a match
  count at or above m_u justifies accepting the pair early.

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

The masses of a checkpoint are one vector, computed with numpy from a table
of log-factorials that a threshold table builds once up to its largest
checkpoint. A running sum locates each cutoff and the exact tail confirms it
in about two evaluations. The terms are the floats of scalar lgamma terms
and math.fsum is correctly rounded, so tails and cutoffs are those of
summing term by term and bisecting.
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


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) = math.lgamma(j + 1) for j in 0..n."""
    return np.array([math.lgamma(j + 1) for j in range(n + 1)])


def _pmf(k: int, p: float, log_fact: np.ndarray) -> list[float]:
    """Binomial(k, p) masses at 0..k for 0 < p < 1; log_fact reaches at least k.

    Term i is math.exp of the log mass lgamma(k + 1) - lgamma(i + 1) -
    lgamma(k - i + 1) + i * log(p) + (k - i) * log1p(-p), evaluated as one
    scalar expression would be: numpy performs the same IEEE operations in
    the same order, and math.exp exponentiates because np.exp may differ in
    the last ulp.
    """
    i = np.arange(k + 1)
    logs = (log_fact[k] - log_fact[: k + 1]) - log_fact[k::-1]
    logs = logs + i * math.log(p) + (k - i) * math.log1p(-p)
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


def _cutoff(pmf: list[float], split: int, bound: float) -> int:
    """Largest m in [-1, k] with _cdf(pmf, m, split) <= bound, for the k + 1
    masses pmf.

    A running sum of the masses locates the candidate; the exact tail then
    confirms it, stepping until it holds at m and fails at m + 1.
    """
    k = len(pmf) - 1
    m = int(np.searchsorted(np.cumsum(pmf), bound, side="right")) - 1
    while m < k and _cdf(pmf, m + 1, split) <= bound:
        m += 1
    while m >= 0 and _cdf(pmf, m, split) > bound:
        m -= 1
    return m


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
        pmf = _pmf(k, t, log_fact)
        split = math.ceil(k * t)
        m_l = _cutoff(pmf, split, lower_bound)
        # P(X > m) is P(k - X <= k - m - 1): the tail of the reversed masses.
        m_u = max(0, k - 1 - _cutoff(pmf[::-1], k - split, upper_bound))
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

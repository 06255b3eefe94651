"""Binomial tail probabilities and the early-exit cutoff solvers.

The screening engine asks two questions of a Binomial(k, t) match count X at
each checkpoint k:

* lower cutoff m_l: the largest m with P(X <= m) at most e, so that a match
  count at or below m_l justifies discarding the pair, wrongly with
  probability at most e when the true similarity is at least t;
* upper cutoff m_u: the smallest m with P(X > m) at most e, so that a match
  count at or above m_u justifies accepting the pair early.

Tail values span twenty orders of magnitude (P(X <= 10) for k=100, t=0.5 is
about 1.5e-17), so both tails are evaluated by exponentiating log-domain
terms and summing the smaller tail directly with math.fsum. Every term is
positive, there is no cancellation, and the larger tail is obtained from the
complement, which keeps relative error around 1e-13 across the whole range.

Both cutoffs at a checkpoint come from one mass vector: the k + 1 terms of
Binomial(k, t), computed with numpy from a table of log-factorials that a
threshold table builds once up to its largest checkpoint. A running sum of
that vector locates each cutoff, and the exact tail, a math.fsum over a
slice of the same vector, confirms it in about two evaluations: the tail
holds at the cutoff and fails one step past it. The terms are the floats the
scalar log_binom_pmf gives and math.fsum is correctly rounded, so tails and
cutoffs are those of summing term by term and bisecting.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Cutoff solvers accept a tail that exceeds e by up to this relative margin.
# Significance levels are conventionally quoted to at most three significant
# figures (5.6e-10, 1.35e-10, ...); a cutoff whose exact tail rounds to the
# quoted e at that precision is the cutoff the quote meant. The early-exit
# error guarantee therefore reads: P(wrong early decision) <= e * (1 + slack).
E_ROUNDING_SLACK = 5e-3


def _validate_tail_args(m: int, k: int, p: float) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0 <= m <= k:
        raise ValueError(f"m must lie in [0, {k}], got {m}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


def log_binom_pmf(i: int, k: int, p: float) -> float:
    """Natural log of the Binomial(k, p) mass at i.

    Uses log-gamma for the coefficient so k in the thousands is fine. At the
    degenerate probabilities 0 and 1 the impossible outcomes return -inf
    exactly.
    """
    _validate_tail_args(i, k, p)
    if p == 0.0:
        return 0.0 if i == 0 else -math.inf
    if p == 1.0:
        return 0.0 if i == k else -math.inf
    coeff = math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)
    return coeff + i * math.log(p) + (k - i) * math.log1p(-p)


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) = math.lgamma(j + 1) for j in 0..n, the values log_binom_pmf uses."""
    return np.array([math.lgamma(j + 1) for j in range(n + 1)])


def _pmf(k: int, p: float, log_fact: np.ndarray) -> list[float]:
    """Binomial(k, p) masses at 0..k for 0 < p < 1; log_fact reaches at least k.

    Term i is the float math.exp(log_binom_pmf(i, k, p)): numpy performs the
    same IEEE operations in the same order, and math.exp exponentiates
    because np.exp may differ in the last ulp. Tails summed from this vector
    are therefore the floats the scalar route gives.
    """
    i = np.arange(k + 1)
    logs = (log_fact[k] - log_fact[: k + 1]) - log_fact[k::-1]
    logs = logs + i * math.log(p) + (k - i) * math.log1p(-p)
    return [math.exp(x) for x in logs.tolist()]


def _cdf(pmf: list[float], m: int, k: int, p: float) -> float:
    """P(X <= m): the side below the mean summed, the other complemented."""
    if m < k * p:
        return math.fsum(pmf[: m + 1])
    return 1.0 - math.fsum(pmf[m + 1 :])


def _upper_tail(pmf: list[float], m: int, k: int, p: float) -> float:
    """P(X > m), the exact complement of _cdf."""
    if m < k * p:
        return 1.0 - math.fsum(pmf[: m + 1])
    return math.fsum(pmf[m + 1 :])


def binom_cdf(m: int, k: int, p: float) -> float:
    """P(X <= m) for X ~ Binomial(k, p).

    The side of the distribution below the mean is summed directly; above
    the mean the upper tail is summed and complemented, so tiny results on
    either side keep full relative accuracy.
    """
    _validate_tail_args(m, k, p)
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 1.0 if m == k else 0.0
    return _cdf(_pmf(k, p, _log_factorials(k)), m, k, p)


def binom_upper_tail(m: int, k: int, p: float) -> float:
    """P(X > m) for X ~ Binomial(k, p), the exact complement of binom_cdf."""
    _validate_tail_args(m, k, p)
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 0.0 if m == k else 1.0
    return _upper_tail(_pmf(k, p, _log_factorials(k)), m, k, p)


def _validate_solver_args(k: int, t: float, e: float) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {t}")
    if not 0.0 < e < 1.0:
        raise ValueError(f"significance e must lie in (0, 1), got {e}")


def _lower_cutoff(pmf: list[float], k: int, t: float, e: float) -> int | None:
    """solve_lower on the mass vector of Binomial(k, t).

    A running sum of the masses locates the candidate; the exact tail then
    confirms it, stepping until it holds at m and fails at m + 1.
    """
    bound = e * (1.0 + E_ROUNDING_SLACK)
    m = int(np.searchsorted(np.cumsum(pmf), bound, side="right")) - 1
    while m < k and _cdf(pmf, m + 1, k, t) <= bound:
        m += 1
    while m >= 0 and _cdf(pmf, m, k, t) > bound:
        m -= 1
    return None if m < 0 else m


def _upper_cutoff(pmf: list[float], k: int, t: float, e: float) -> int:
    """solve_upper on the mass vector of Binomial(k, t).

    The running sum from the top, whose entry j approximates P(X >= k - j),
    locates the candidate; the exact tail then confirms it, stepping until
    it holds at m and fails at m - 1.
    """
    bound = e * (1.0 + E_ROUNDING_SLACK)
    from_top = np.cumsum(pmf[::-1])
    m = max(0, k - int(np.searchsorted(from_top, bound, side="right")))
    while m > 0 and _upper_tail(pmf, m - 1, k, t) <= bound:
        m -= 1
    while _upper_tail(pmf, m, k, t) > bound:
        m += 1
    return m


def solve_lower(k: int, t: float, e: float) -> int | None:
    """Largest m with P(X <= m) <= e for X ~ Binomial(k, t), or None.

    None means even a match count of zero is not improbable enough at this
    checkpoint, so no discard cutoff exists. Rounding is conservative (the
    cutoff tail never exceeds e beyond E_ROUNDING_SLACK), which preserves
    the significance guarantee of the early discard.
    """
    _validate_solver_args(k, t, e)
    return _lower_cutoff(_pmf(k, t, _log_factorials(k)), k, t, e)


def solve_upper(k: int, t: float, e: float) -> int:
    """Smallest m with P(X > m) <= e for X ~ Binomial(k, t).

    Always defined: P(X > k) is an empty sum, so the result is at most k.
    A result of k means only a perfect match count accepts early.
    """
    _validate_solver_args(k, t, e)
    return _upper_cutoff(_pmf(k, t, _log_factorials(k)), k, t, e)


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

    def row_at(self, k: int) -> ThresholdRow:
        for row in self.rows:
            if row.k == k:
                return row
        raise KeyError(f"no checkpoint {k} in table")


def build_threshold_table(
    t: float,
    e: float,
    checkpoints: Iterable[int],
    e_upper: float | None = None,
) -> ThresholdTable:
    """Solve both cutoffs at every checkpoint.

    e applies to the discard (lower) side; e_upper, when given, replaces it
    on the accept side, mirroring configurations that quote the two tails
    separately. Checkpoints must be strictly increasing positive integers.
    The table is built once per configuration and reused across all pairs.
    """
    points = tuple(int(k) for k in checkpoints)
    e_up = e if e_upper is None else e_upper
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {t}")
    for value in (e, e_up):
        if not 0.0 < value < 1.0:
            raise ValueError(f"significance e must lie in (0, 1), got {value}")
    prev = 0
    for k in points:
        if k <= prev:
            raise ValueError(f"checkpoints must be strictly increasing, got {points}")
        prev = k
    log_fact = _log_factorials(max(points, default=0))
    rows = []
    for k in points:
        pmf = _pmf(k, t, log_fact)
        rows.append(
            ThresholdRow(k=k, m_l=_lower_cutoff(pmf, k, t, e), m_u=_upper_cutoff(pmf, k, t, e_up))
        )
    return ThresholdTable(threshold=t, e_lower=e, e_upper=e_up, rows=tuple(rows))


def threshold_table_csv(table: ThresholdTable) -> str:
    """Render a table as CSV with columns k, m_l, T_L, m_u, T_U."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "m_l", "T_L", "m_u", "T_U"])
    for row in table.rows:
        writer.writerow(
            [
                row.k,
                "" if row.m_l is None else row.m_l,
                "" if row.m_l is None else repr(row.t_l),
                row.m_u,
                repr(row.t_u),
            ]
        )
    return buf.getvalue()

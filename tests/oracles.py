"""Independent oracles that the tests hold the package against.

* OracleTails: Binomial(k, p) tails as a math.fsum of scalar log-mass terms,
  one lgamma expression per term, and each cutoff found by bisection on the
  exact tail predicate. This is the solver that the table's running-sum
  solver replaced.
* exact_cdf and exact_upper: the same tails in Fraction arithmetic over
  big-integer binomial coefficients.
* exhaustive_collision_probability: the min-wise collision probability of
  two sets, by enumerating every permutation of a tiny universe.
* sets_from_lines and pairs_from_lines: the sets and pairs file readers as
  per-line loops over the text read with Python's universal newlines, the
  readers that the package's one byte scan replaced.

package_pmf and package_tails give the package's own masses and tails, as
build_threshold_table evaluates them, for comparison with these.
"""

import math
from fractions import Fraction
from itertools import permutations
from typing import AbstractSet, Callable

from minscreen.binomial import E_ROUNDING_SLACK, _cdf, _log_factorials, _log_pmf, _masses
from minscreen.workload import _is_comment, _line_problem

ORACLE_UNIVERSE_LIMIT = 8


def log_binom_pmf(i: int, k: int, p: float) -> float:
    """Natural log of the Binomial(k, p) mass at i, for 0 < p < 1."""
    coeff = math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)
    return coeff + i * math.log(p) + (k - i) * math.log1p(-p)


class OracleTails:
    """Binomial(k, p) tails from scalar log_binom_pmf terms, and the cutoffs
    by bisection on them."""

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


def _exact_pmf(i: int, k: int, p: Fraction) -> Fraction:
    return Fraction(math.comb(k, i)) * p**i * (1 - p) ** (k - i)


def exact_cdf(m: int, k: int, p: Fraction) -> Fraction:
    """P(X <= m) for X ~ Binomial(k, p), exactly."""
    return sum((_exact_pmf(i, k, p) for i in range(m + 1)), Fraction(0))


def exact_upper(m: int, k: int, p: Fraction) -> Fraction:
    """P(X > m) for X ~ Binomial(k, p), exactly."""
    return sum((_exact_pmf(i, k, p) for i in range(m + 1, k + 1)), Fraction(0))


def package_pmf(k: int, p: float) -> list[float]:
    """The package's Binomial(k, p) masses at 0..k, as build_threshold_table
    exponentiates them."""
    return _masses(_log_pmf(k, p, _log_factorials(k)))


def package_tails(k: int, p: float) -> tuple[Callable[[int], float], Callable[[int], float]]:
    """The package's P(X <= m) and P(X > m) for X ~ Binomial(k, p), m in
    [0, k]: binomial._cdf on the masses, and on the reversed masses for the
    upper tail, with the split build_threshold_table uses."""
    pmf = package_pmf(k, p)
    split = math.ceil(k * p)
    mirrored = pmf[::-1]

    def cdf(m: int) -> float:
        return _cdf(pmf, m, split)

    def upper(m: int) -> float:
        return _cdf(mirrored, k - 1 - m, k - split)

    return cdf, upper


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


def text_lines(path: str) -> tuple[list[str], bool]:
    """The lines of a file read as text with universal newlines, split at
    "\n" without the empty field after a final newline, and whether the
    whole text is ASCII."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines, text.isascii()


def sets_from_lines(path: str) -> tuple[dict[int, frozenset[int]], int]:
    """load_sets line by line, for any file: the sets and the number of
    repeated tokens dropped."""
    lines, ascii_text = text_lines(path)
    sets: dict[int, frozenset[int]] = {}
    duplicates = 0
    for lineno, line in enumerate(lines):
        fields = line.split()
        # In ASCII text isdigit means 0-9, so one isdigit over the joined
        # fields checks every token, and fewer than 20 digits fit 64 bits.
        if not (ascii_text and "".join(fields).isdigit() and max(map(len, fields)) < 20):
            if _is_comment(line, fields):
                continue
            problem = _line_problem(line, fields, "token") if fields else "empty set"
            if problem is not None:
                raise ValueError(f"{path}:{lineno + 1}: {problem} (set id {lineno})")
        tokens = frozenset(map(int, fields))
        duplicates += len(fields) - len(tokens)
        sets[lineno] = tokens
    return sets, duplicates


def pairs_from_lines(path: str) -> list[tuple[int, int]]:
    """load_pairs line by line, for any file."""
    lines, ascii_text = text_lines(path)
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(lines):
        fields = line.split()
        try:
            id_a, id_b = fields
            # In ASCII text isdigit means 0-9, and a line under 22 characters
            # holds no id of 20 digits, so both ids fit 64 bits.
            if ascii_text and len(line) < 22 and id_a.isdigit() and id_b.isdigit():
                pairs.append((int(id_a), int(id_b)))
                continue
        except ValueError:  # not two fields
            pass
        if not fields or _is_comment(line, fields):
            continue
        problem = _line_problem(line, fields, "set id")
        if problem is None and len(fields) != 2:
            problem = f"expected two set ids, got {line!r}"
        if problem is not None:
            raise ValueError(f"{path}:{lineno + 1}: {problem}")
        pairs.append((int(fields[0]), int(fields[1])))
    return pairs

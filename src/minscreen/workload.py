r"""Set and pair files, plus synthetic workloads with exact target Jaccard.

Sets file: one set per line, whitespace-separated decimal token ids. The
0-based physical line number is the set id, so comment lines (leading '#')
still consume an id. Pairs file: two set ids per line; comments and blank
lines are skipped. Both are read with universal newlines, so a line ends at
"\n", "\r\n" or a lone "\r"; form feed, vertical tab and the separators
\x1c-\x1e are whitespace inside a line. A byte outside ASCII is an error
that names its line. Token and set ids are plain ASCII decimal digits: no
sign, no underscore. An error names path:N, N counting lines from 1; in a
sets file also the set id, N-1.

Synthetic pairs are constructed, not sampled: a target similarity a/b in
lowest terms becomes a*c shared tokens out of b*c union tokens, so the
exact Jaccard of every generated pair equals the target as a rational.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping, Sequence

from .sets import U64_MAX, as_u64

logger = logging.getLogger(__name__)


def parse_decimal(text: str) -> int:
    """A non-negative integer written in ASCII decimal digits only. int()
    alone would also take a sign, surrounding whitespace, underscores (1_0)
    and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected decimal digits, got {text!r}")
    return int(text)


def _lines(text: str) -> list[str]:
    r"""The lines of text split at "\n", without the empty field after a
    final newline. str.splitlines would also break lines at form feeds,
    vertical tabs and \x1c-\x1e, shifting every later set id."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def load_sets(path: str) -> dict[int, frozenset[int]]:
    """Parse a sets file into {line number: token set}."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    sets: dict[int, frozenset[int]] = {}
    duplicates = 0
    for lineno, line in enumerate(_lines(text)):
        if not line.isascii():
            raise ValueError(f"{path}:{lineno + 1}: non-ASCII byte (set id {lineno})")
        if line.lstrip().startswith("#"):
            continue
        fields = line.split()
        if not fields:
            raise ValueError(f"{path}:{lineno + 1}: empty set (set id {lineno})")
        # One isdigit over the joined line checks every token; the line is
        # ASCII, so digits are 0-9. int() fails only past its digit limit.
        try:
            if not "".join(fields).isdigit():
                raise ValueError
            values = list(map(int, fields))
        except ValueError:
            bad = next((field for field in fields if not field.isdigit()), max(fields, key=len))
            raise ValueError(f"{path}:{lineno + 1}: bad token {bad!r} (set id {lineno})") from None
        if max(values) > U64_MAX:
            value = next(value for value in values if value > U64_MAX)
            raise ValueError(
                f"{path}:{lineno + 1}: token {value} outside unsigned 64-bit range "
                f"(set id {lineno})"
            )
        tokens = frozenset(values)
        duplicates += len(values) - len(tokens)
        sets[lineno] = tokens
    if duplicates:
        logger.warning("%s: deduplicated %d repeated tokens", path, duplicates)
    return sets


def load_pairs(path: str) -> list[tuple[int, int]]:
    """Parse a pairs file into an ordered list of (id, id)."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(_lines(text)):
        if not line.isascii():
            raise ValueError(f"{path}:{lineno + 1}: non-ASCII byte")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno + 1}: expected two set ids, got {line!r}")
        id_a, id_b = fields
        try:
            if not (id_a.isdigit() and id_b.isdigit()):
                raise ValueError
            pairs.append((int(id_a), int(id_b)))
        except ValueError:
            negative = any(field[:1] == "-" and field[1:].isdigit() for field in fields)
            problem = "negative set id" if negative else "bad set id"
            raise ValueError(f"{path}:{lineno + 1}: {problem}") from None
    return pairs


def write_sets(path: str, sets: Mapping[int, AbstractSet[int]]) -> None:
    """Write sets with ids 0..n-1, one per line, tokens sorted."""
    expected = range(len(sets))
    if sorted(sets) != list(expected):
        raise ValueError("set ids must be contiguous from 0 to match line numbers")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for set_id in expected:
            fh.write(" ".join(str(t) for t in sorted(sets[set_id])))
            fh.write("\n")


def write_pairs(path: str, pairs: Sequence[tuple[int, int]]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for id_a, id_b in pairs:
            fh.write(f"{id_a} {id_b}\n")


@dataclass(frozen=True)
class WorkloadGroup:
    """pair_count pairs at exactly the target similarity, with both set
    sizes inside [size_lo, size_hi]."""

    jaccard: Fraction
    pair_count: int
    size_lo: int
    size_hi: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "jaccard", Fraction(self.jaccard))
        for name in ("pair_count", "size_lo", "size_hi"):
            object.__setattr__(self, name, as_u64(getattr(self, name), name))
        if not 0 < self.jaccard < 1:
            raise ValueError(f"target Jaccard must lie strictly in (0, 1), got {self.jaccard}")
        if self.pair_count < 1:
            raise ValueError(f"pair count must be at least 1, got {self.pair_count}")
        if not 1 <= self.size_lo <= self.size_hi:
            raise ValueError(f"bad size range [{self.size_lo}, {self.size_hi}]")


@dataclass(frozen=True)
class WorkloadSpec:
    groups: tuple[WorkloadGroup, ...]
    seed: int = 42

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "seed", as_u64(self.seed, "workload seed"))


def parse_group(text: str) -> WorkloadGroup:
    """CLI group syntax J:COUNT:SIZE, SIZE being LO-HI or a single value.
    COUNT, LO and HI are plain decimal digits; a bad group is named."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"group must look like J:COUNT:LO-HI, got {text!r}")
    size = parts[2]
    try:
        jaccard = Fraction(parts[0])
        count = parse_decimal(parts[1])
        if "-" in size:
            lo_text, hi_text = size.split("-", 1)
            lo, hi = parse_decimal(lo_text), parse_decimal(hi_text)
        else:
            lo = hi = parse_decimal(size)
        return WorkloadGroup(jaccard=jaccard, pair_count=count, size_lo=lo, size_hi=hi)
    except ZeroDivisionError:
        raise ValueError(f"bad group {text!r}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"bad group {text!r}: {exc}") from None


def _pick_scale(group: WorkloadGroup) -> tuple[int, int, int, int]:
    """Smallest scale c whose set sizes land in the group's range.

    With target a/b in lowest terms, the pair shares a*c tokens, and the
    (b-a)*c exclusive tokens split as evenly as possible between the sides.
    Returns (shared, exclusive_a, exclusive_b, scale).
    """
    a = group.jaccard.numerator
    b = group.jaccard.denominator
    c = 1
    while True:
        shared = a * c
        exclusive = (b - a) * c
        excl_a = exclusive // 2
        excl_b = exclusive - excl_a
        size_a = shared + excl_a
        size_b = shared + excl_b
        if size_a > group.size_hi:
            raise ValueError(
                f"cannot reach Jaccard {a}/{b} with set sizes in "
                f"[{group.size_lo}, {group.size_hi}]"
            )
        if size_a >= group.size_lo and size_b <= group.size_hi:
            return shared, excl_a, excl_b, c
        c += 1


def gen_synthetic(spec: WorkloadSpec) -> tuple[dict[int, frozenset[int]], list[tuple[int, int]]]:
    """Generate sets and pairs for a workload spec.

    Pair p gets set ids 2p and 2p+1. Token ids come from a counter starting
    at the workload seed, so each run is deterministic and all pairs are
    token-disjoint from one another.
    """
    sets: dict[int, frozenset[int]] = {}
    pairs: list[tuple[int, int]] = []
    counter = spec.seed

    def take(n: int) -> list[int]:
        nonlocal counter
        block = [(counter + i) & U64_MAX for i in range(n)]
        counter = (counter + n) & U64_MAX
        return block

    for group in spec.groups:
        shared_n, excl_a_n, excl_b_n, _ = _pick_scale(group)
        for _ in range(group.pair_count):
            shared = take(shared_n)
            excl_a = take(excl_a_n)
            excl_b = take(excl_b_n)
            id_a = len(sets)
            id_b = id_a + 1
            sets[id_a] = frozenset(shared + excl_a)
            sets[id_b] = frozenset(shared + excl_b)
            pairs.append((id_a, id_b))
    return sets, pairs

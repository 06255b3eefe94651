r"""Set and pair files, plus synthetic workloads with exact target Jaccard.

Sets file: one set per line, whitespace-separated decimal token ids. The
0-based physical line number is the set id, so comment lines (leading '#')
still consume an id. Pairs file: two set ids per line; comments and blank
lines are skipped.

A file in the canonical form that write_sets and write_pairs (and so gen)
write is read in one numpy pass over its bytes (_scan_ids): only ASCII
digits, one space between ids, "\n" after every line, the last included,
every id 1 to 19 digits long, no blank or comment line, and in a pairs file
two ids on every line. Any other file is read line by line by read_lines,
like every text file of the package, with the same values on canonical text
and every message below. read_lines uses universal newlines, so a line ends
at "\n", "\r\n" or a lone "\r"; form feed, vertical tab and the separators
\x1c-\x1e are whitespace inside a line. A byte outside ASCII is an error
that names its line, a comment line included. Token and set ids are plain
ASCII decimal digits, no sign and no underscore, of value at most
2**64 - 1. An error names path:N, N counting lines from 1; in a sets file
also the set id, N-1. Every text file is written by write_text.

Synthetic pairs are constructed, not sampled: a target similarity a/b in
lowest terms becomes a*c shared tokens out of b*c union tokens, so the
exact Jaccard of every generated pair equals the target as a rational.
"""

from __future__ import annotations

import logging
import numbers
import os
import stat
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from .sets import U64_MAX, as_u64

logger = logging.getLogger(__name__)

_SPACE, _NEWLINE = ord(" "), ord("\n")


def parse_decimal(text: str) -> int:
    """A non-negative integer written in ASCII decimal digits only. int()
    alone would also take a sign, surrounding whitespace, underscores (1_0)
    and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected decimal digits, got {text!r}")
    return int(text)


def read_lines(path: str) -> tuple[list[str], bool]:
    r"""The lines of a sets, pairs or outcomes file, split at "\n" without
    the empty field after a final newline, and whether the whole text is
    ASCII. str.splitlines would also break lines at form feeds, vertical
    tabs and \x1c-\x1e, shifting every later set id."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines, text.isascii()


def write_text(path: str, text: str) -> None:
    """text to path as ASCII bytes, encoded before the file is opened and
    emptied: a text that cannot be encoded leaves the file as it was."""
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def _is_comment(line: str, fields: list[str]) -> bool:
    """The comment rule of both files: an ASCII line whose first field
    starts with '#'."""
    return bool(fields) and fields[0].startswith("#") and line.isascii()


def _line_problem(line: str, fields: list[str], noun: str) -> str | None:
    """The first problem on a line that failed its reader's fast test: a
    byte outside ASCII, then, field by field, a field that is not plain
    decimal digits or a value past 2**64 - 1. None when every field is a
    valid id. The reader applies the comment rule before this and its own
    shape rule after."""
    if not line.isascii():
        return "non-ASCII byte"
    for field in fields:
        if not field.isdigit():  # the line is ASCII, so this means 0-9
            return f"bad {noun} {field!r}"
        # A length test first, since int() refuses text past its digit limit.
        value = field.lstrip("0") or "0"
        if len(value) > 20 or int(value) > U64_MAX:
            return f"{noun} {field} outside unsigned 64-bit range"
    return None


def _scan_ids(path: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The ids of a non-empty regular file in the canonical form above, read
    by numpy alone; an id of at most 19 digits is below 2**64, so it needs no
    range check. Returns the ids as one uint64 array and, per line, the index
    past its last id, or None for any other file, which its reader then reads
    line by line. A pipe is not read here, as it could not be read twice."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        data = np.fromfile(path, dtype=np.uint8)
    except OSError:  # the per-line path raises it as it always has
        return None
    if data.size == 0 or data[-1] != _NEWLINE:
        return None
    digits = data - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    ends = np.flatnonzero(digits > 9)  # the separator after each id
    separators = data[ends]
    lengths = np.diff(ends, prepend=-1) - 1
    if not (
        np.all((separators == _SPACE) | (separators == _NEWLINE))
        and 1 <= lengths.min()
        and lengths.max() <= 19
    ):
        return None
    # Column by column from the last digit, each pass over the longer ids.
    ids = digits[ends - 1].astype(np.uint64)
    scale = np.uint64(1)
    for column in range(2, int(lengths.max()) + 1):
        scale *= np.uint64(10)
        longer = np.flatnonzero(lengths >= column)
        ids[longer] += digits[ends[longer] - column] * scale
    return ids, np.flatnonzero(separators == _NEWLINE) + 1


def load_sets(path: str) -> dict[int, frozenset[int]]:
    """Parse a sets file into {line number: token set}."""
    scanned = _scan_ids(path)
    if scanned is None:
        sets, duplicates = _sets_from_lines(path)
    else:
        tokens, ends = (array.tolist() for array in scanned)
        del scanned
        starts = [0, *ends[:-1]]
        sets = {i: frozenset(tokens[a:b]) for i, (a, b) in enumerate(zip(starts, ends))}
        duplicates = len(tokens) - sum(map(len, sets.values()))
    if duplicates:
        logger.warning("%s: deduplicated %d repeated tokens", path, duplicates)
    return sets


def _sets_from_lines(path: str) -> tuple[dict[int, frozenset[int]], int]:
    """load_sets line by line, for any file: the sets and the number of
    repeated tokens dropped."""
    lines, ascii_text = read_lines(path)
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


def load_pairs(path: str) -> list[tuple[int, int]]:
    """Parse a pairs file into an ordered list of (id, id)."""
    scanned = _scan_ids(path)
    if scanned is not None:
        ids, ends = scanned
        if np.array_equal(ends, np.arange(2, ids.size + 1, 2)):  # two ids a line
            return list(zip(ids[0::2].tolist(), ids[1::2].tolist()))
    return _pairs_from_lines(path)


def _pairs_from_lines(path: str) -> list[tuple[int, int]]:
    """load_pairs line by line, for any file."""
    lines, ascii_text = read_lines(path)
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


def write_sets(path: str, sets: Mapping[int, AbstractSet[int]]) -> None:
    """Write sets with ids 0..n-1, one per line, tokens sorted."""
    expected = range(len(sets))
    if sorted(sets) != list(expected):
        raise ValueError("set ids must be contiguous from 0 to match line numbers")
    write_text(path, "".join(" ".join(map(str, sorted(sets[i]))) + "\n" for i in expected))


def write_pairs(path: str, pairs: Sequence[tuple[int, int]]) -> None:
    write_text(path, "".join(f"{id_a} {id_b}\n" for id_a, id_b in pairs))


@dataclass(frozen=True)
class WorkloadGroup:
    """pair_count pairs at exactly the target similarity, with both set
    sizes inside [size_lo, size_hi]."""

    jaccard: Fraction
    pair_count: int
    size_lo: int
    size_hi: int

    def __post_init__(self) -> None:
        # A rational (int, Fraction, numpy integer) is exact; text is
        # parse_group's to read, and a float would be a rounded target.
        if not isinstance(self.jaccard, numbers.Rational):
            raise ValueError(f"target Jaccard {self.jaccard!r} is not a rational number")
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


def _pick_scale(group: WorkloadGroup) -> tuple[int, int, int]:
    """Smallest scale c whose set sizes land in the group's range.

    With target a/b in lowest terms, the pair shares a*c tokens, and the
    (b-a)*c exclusive tokens split as evenly as possible between the sides.
    Returns (shared, exclusive_a, exclusive_b).
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
            return shared, excl_a, excl_b
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
        shared_n, excl_a_n, excl_b_n = _pick_scale(group)
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

r"""Set and pair files, plus synthetic workloads with exact target Jaccard.

Sets file: one set per line, whitespace-separated decimal token ids. The
0-based physical line number is the set id, so comment lines (leading '#')
still consume an id. Pairs file: two set ids per line; comments and blank
lines are skipped.

Every text file is read once, as bytes, by _read_bytes, with universal
newlines: a line ends at "\n", "\r\n" or a lone "\r". A sets or pairs file,
a pipe included, is then read by one numpy scan of those bytes, _read_ids,
which builds every id. Inside a line, tab, vertical tab, form feed,
\x1c-\x1f and space separate ids, as str.split() has it. Python only checks
a line holding any other byte (a comment, whose ids the scan then drops, or
an error), a line with an id of 20 digits or more (its range check) and a
line of the wrong shape (an error). A byte outside ASCII is an error that
names its line, a comment included. Token and set ids are plain ASCII
decimal digits, no sign and no underscore, of value at most 2**64 - 1. An
error names the first bad line as path:N, N counting lines from 1; in a
sets file also the set id, N-1. Every file the package writes, a cache
too, is written whole beside its target by replace_file, then renamed.

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
from itertools import islice
from typing import AbstractSet, BinaryIO, Callable, Mapping, Sequence

import numpy as np

from .sets import U64_MAX, Pairs, as_u64, as_u64_array, pair_ids

logger = logging.getLogger(__name__)

_SPACE, _NEWLINE = ord(" "), ord("\n")
# The bytes that str.split() takes for whitespace inside an ASCII line.
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[[9, 11, 12, 28, 29, 30, 31, 32]] = True


def parse_decimal(text: str) -> int:
    """A non-negative integer written in ASCII decimal digits only. int()
    alone would also take a sign, surrounding whitespace, underscores (1_0)
    and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected decimal digits, got {text!r}")
    return int(text)


def _read_bytes(path: str) -> bytes:
    r"""A text file's bytes, read once, with "\r\n" and then a lone "\r"
    made "\n", and a final "\n" added to a non-empty file that lacks one."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # replace copies the bytes even when it finds nothing
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data + b"\n" if data and not data.endswith(b"\n") else data


def read_lines(path: str) -> list[str]:
    r"""The lines of a text file by _read_bytes' newline rule, a byte outside
    ASCII as a surrogate escape. str.splitlines would also break lines at
    form feeds, vertical tabs and \x1c-\x1e, shifting every later line."""
    return _read_bytes(path).decode("ascii", "surrogateescape").split("\n")[:-1]


def replace_file(path: str, write: Callable[[BinaryIO], object]) -> None:
    """Fill a new file beside path (a symlink's target) by write(fh) and
    rename it over path: a failed write leaves the old file and no new one.
    The file, new or replacing one, gets the mode and owner open(path, "wb")
    gives a new file. A target that is not a regular file, such as /dev/null
    or a pipe, is opened and written in place, never replaced."""
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "wb") as fh:
            write(fh)
        return
    directory, name = os.path.split(os.path.realpath(path))
    temporary = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL opens no existing file; 0o666 is masked as open() masks it.
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named by the target: the temporary is ours
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as fh:
            write(fh)
        os.replace(temporary, os.path.join(directory, name))
    except BaseException:
        os.unlink(temporary)
        raise


def write_text(path: str, text: str) -> None:
    """text to path as ASCII bytes by replace_file."""
    replace_file(path, lambda fh: fh.write(text.encode("ascii")))


def _is_comment(line: str, fields: list[str]) -> bool:
    """The comment rule of both files: an ASCII line whose first field
    starts with '#'."""
    return bool(fields) and fields[0].startswith("#") and line.isascii()


def _line_problem(line: str, fields: list[str], noun: str) -> str | None:
    """The first problem on a line that is not a comment: a byte outside
    ASCII, then, field by field, a field that is not plain decimal digits or
    a value past 2**64 - 1. None when every field is a valid id. The
    reader's own shape rule comes after this."""
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


def _read_ids(path: str, pairs: bool) -> tuple[np.ndarray, np.ndarray]:
    """The ids of a sets file, or with pairs of a pairs file, as one uint64
    array, and each line's id count, 0 for a comment line, whose ids are
    left out. A set has at least one id; a pairs line two, or none if blank.
    The first line that breaks a rule is named in a ValueError. Python
    checks the lines the scan cannot, but every id comes from the scan."""
    data = _read_bytes(path)
    text = np.frombuffer(data, dtype=np.uint8)
    digits = text - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    stops = np.flatnonzero(digits > 9)  # the other bytes, each "\n" among them
    lengths = np.diff(stops, prepend=-1)
    lengths -= 1  # the digits before each stop
    stop_bytes = text[stops]
    line_ends = np.flatnonzero(stop_bytes == _NEWLINE)  # as indices into stops
    gaps = np.flatnonzero(lengths == 0)  # the stops that end no id
    counts = np.diff(line_ends + 1 - gaps.searchsorted(line_ends, "right"), prepend=0)
    # Stops that are no separator: a comment's or an error's bytes.
    odd = np.flatnonzero((stop_bytes != _SPACE) & (stop_bytes != _NEWLINE))
    odd = odd[~_SEPARATOR[stop_bytes[odd]]]
    top = int(lengths.max(initial=0))
    if top >= 20:
        odd = np.concatenate((odd, np.flatnonzero(lengths >= 20)))
    shape = ((counts != 2) & (counts != 0)) if pairs else counts == 0
    # A sorted union in Python: np.union1d imports numpy.ma (10 ms or more).
    look = sorted({*line_ends.searchsorted(odd).tolist(), *np.flatnonzero(shape).tolist()})
    for line_no in look:  # a comment, an error, or a line of long ids
        start = stops[line_ends[line_no - 1]] + 1 if line_no else 0
        line = data[start : stops[line_ends[line_no]]].decode("ascii", "surrogateescape")
        fields = line.split()
        if _is_comment(line, fields):  # its '#' is in gaps: the filter below drops its ids
            first = line_ends[line_no - 1] + 1 if line_no else 0
            lengths[first : line_ends[line_no] + 1] = counts[line_no] = 0
            continue
        problem = _line_problem(line, fields, "set id" if pairs else "token")
        if problem is None and pairs and len(fields) not in (0, 2):
            problem = f"expected two set ids, got {line!r}"
        elif problem is None and not (pairs or fields):
            problem = "empty set"
        if problem is not None:
            where = "" if pairs else f" (set id {line_no})"
            raise ValueError(f"{path}:{line_no + 1}: {problem}{where}")
    if gaps.size:
        stops, lengths = stops[lengths > 0], lengths[lengths > 0]
    # Horner's rule over each id's last 20 digits at most, at moving in place
    # to the last; a digit before an id is 0. An id of 20 digits or more was
    # checked above to be at most 2**64 - 1 < 10**20, so those digits are its
    # value, and no prefix of them is larger: nothing wraps.
    del stop_bytes, line_ends
    top, at = min(top, 20), stops
    at -= top
    ids = np.zeros(at.size, dtype=np.uint64)
    for column in range(top, 0, -1):
        column_digits = digits.take(at)
        column_digits *= lengths >= column
        ids *= np.uint64(10)
        ids += column_digits
        at += 1
    return ids, counts


def load_sets(path: str) -> dict[int, frozenset[int]]:
    """Parse a sets file into {line number: token set}."""
    ids, counts = _read_ids(path, pairs=False)
    tokens = ids.tolist()
    del ids
    ends = np.cumsum(counts).tolist()
    starts = [0, *ends[:-1]]  # a comment line has none: a == b
    sets = {i: frozenset(tokens[a:b]) for i, (a, b) in enumerate(zip(starts, ends)) if a < b}
    duplicates = len(tokens) - sum(map(len, sets.values()))
    if duplicates:
        logger.warning("%s: deduplicated %d repeated tokens", path, duplicates)
    return sets


def load_pairs(path: str) -> Pairs:
    """Parse a pairs file into its pairs of set ids, in order, as a Pairs:
    the scan's one array, with no Python object per pair."""
    ids, _ = _read_ids(path, pairs=True)
    return Pairs(ids.reshape(-1, 2))


def write_sets(path: str, sets: Mapping[int, AbstractSet[int]]) -> None:
    """Write sets with ids 0..n-1, one per line, tokens sorted. The tokens
    are checked by sets.as_u64_array first, so a bad one writes nothing."""
    expected = range(len(sets))
    if sorted(sets) != list(expected):
        raise ValueError("set ids must be contiguous from 0 to match line numbers")
    rows = [sets[i] for i in expected]
    tokens = iter(as_u64_array(rows, "token").tolist())
    lines = (" ".join(map(str, sorted(islice(tokens, len(row))))) + "\n" for row in rows)
    write_text(path, "".join(lines))


def write_pairs(path: str, pairs: Sequence[tuple[int, int]]) -> None:
    """Write pairs one per line. The set ids are checked by sets.pair_ids
    first, so a bad one writes nothing."""
    ids = iter(pair_ids(pairs).tolist())
    write_text(path, "".join(f"{id_a} {id_b}\n" for id_a, id_b in zip(ids, ids)))


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

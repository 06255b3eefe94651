"""Sequential pair screening over signature prefixes.

A pair's match count is examined at each stop of the walk: the configured
checkpoints, then K. Each stop has a lower and an upper cutoff, and a count
at or below the lower or at or above the upper resolves the pair there. At
a checkpoint they are the threshold table's m_l, an early discard (-1, so
none, where the table has no m_l), and m_u, an early accept. At K they are
need - 1 and need, need being the least count whose frequency need / K
reaches the threshold, so the full comparison is the walk's last stop.
An early discard is wrong with probability at most 1.005·e per checkpoint
(binomial.E_ROUNDING_SLACK). An early accept is not held to it: the table
bounds P(X > m_u) but the walk accepts at X >= m_u, and at k = 100,
T = 0.5, e = 1e-3 P(X >= m_u | T) is 1.76e-3.

screen_batch walks a batch checkpoint by checkpoint rather than pair by
pair, over one signature matrix. For each interval [k_{i-1}, k_i) it adds
the unresolved pairs' matches in that interval's columns to their running
counts, and drops the pairs the checkpoint resolves. A pair resolved at
checkpoint k is counted as k slot comparisons: comparisons are the walk's
accounting, and no column past the last checkpoint a pair reaches is read.
In time, a batch with few pairs per signature row gathers both rows of each
pair, about n·w slot comparisons for n pairs and w columns; a dense batch,
many pairs among R rows, sorts each column of those rows once and counts
every pair from the collisions, about R·w·log R. The plain full-width
screen is the same call with an empty schedule. The result is a Screened
record of the walk's arrays, per pair the resolving stop and the match
count there; its PairOutcomes are built only when it is read.

With baseline=True the same walk also settles each pair's full-width
decision, so a run is compared with the full-width screen without a second
walk. A pair resolved early stays among the walked pairs, no longer open,
only until that decision is certain: above once x >= need, and below once
x + (K - k) < need, when even K - k more matches cannot reach it. This is
deterministic curtailment; the checkpoints' cutoffs play no part in it, and
it is tested only at the walk's stops.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .binomial import ThresholdTable, build_threshold_table, validate_table_args
from .minhash import Signature, SignatureMatrix, validate_family_args
from .sets import pair_ids

ABOVE = "AboveThreshold"
BELOW = "BelowThreshold"

OUTPUT_EARLY = "OutputEarly"
FILTERED_EARLY = "FilteredEarly"
FULL_COMPARISON = "FullComparison"

DEFAULT_SCHEDULE = tuple(range(100, 1000, 100))

# Bytes of slot slices one comparison step gathers from the signature
# matrix. Steps stay in a core's cache, and glibc's malloc keeps slices this
# small on its heap: with 1 MiB steps it handed the freed slices back to the
# OS after every step, and a full-K pass over 9,000 pairs at K = 1000 took
# 30k minor page faults and three times as long.
_STEP_BYTES = 1 << 18

# A batch of at least _DENSE_PAIRS pairs over at most sqrt(_DENSE_TABLE ·
# pairs) signature rows is dense: sorting each column of those rows costs
# less than gathering both rows of every pair, and the row-pair table holds
# at most _DENSE_TABLE counts per pair. Crediting one row pair of a run of
# equal slots costs about as much as _COLLISION_COST gathered slot
# comparisons; all three were measured on a 2-CPU Xeon (numpy 2.4). Taking
# _COLLISION_COLUMNS columns at a time keeps the row pairs credited at once
# below 4 per pair, about 250 bytes of scratch per pair, however wide the
# interval (a full-width screen is one interval of K columns).
_DENSE_PAIRS = 1000
_DENSE_TABLE = 8
_COLLISION_COST = 32
_COLLISION_COLUMNS = 128


@dataclass(frozen=True)
class PairOutcome:
    """How one pair was decided.

    resolution_checkpoint is the checkpoint that resolved the pair early,
    None for a full comparison. comparisons_used counts the slots the
    sequential walk needed: the resolving checkpoint, or all of them.
    """

    decision: str
    resolution_kind: str
    resolution_checkpoint: int | None
    comparisons_used: int
    estimate: float


@dataclass(frozen=True)
class ScreenConfig:
    """One screening configuration. Its field defaults are the command
    line's defaults. It keeps its cutoff table, the walk's cutoffs and the
    outcomes read from the records screened under it, shared across calls;
    none is a field."""

    threshold: float = 0.5
    e: float = 1e-5
    e_upper: float | None = None
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    k: int = 1000
    master_seed: int = 42

    def __post_init__(self) -> None:
        # The two checks return the checked values in the order of the fields.
        checked = validate_table_args(self.threshold, self.e, self.schedule, self.e_upper)
        checked += validate_family_args(self.k, self.master_seed)
        for f, value in zip(fields(self), checked, strict=True):
            object.__setattr__(self, f.name, value)
        if self.schedule and self.schedule[-1] > self.k:
            raise ValueError(
                f"schedule reaches {self.schedule[-1]} but signatures have only {self.k} slots"
            )

    @cached_property
    def table(self) -> ThresholdTable:
        """The cutoff table of this configuration, built on first use and
        kept. It is not a field, so equality, hashing, asdict and replace
        see only the fields, and replace gives a config with its own table."""
        return build_threshold_table(self.threshold, self.e, self.schedule, self.e_upper)

    @cached_property
    def _cutoffs(self) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
        """The walk's stops, (*schedule, k), and per stop the lower and
        upper cutoff: m_l (-1 where a row has none) and m_u at a checkpoint,
        need - 1 and need at k. Like table it is no field."""
        rows, need = self.table.rows, _full_need(self.threshold, self.k)
        lower = [-1 if row.m_l is None else row.m_l for row in rows]
        upper = [row.m_u for row in rows]
        return (*self.schedule, self.k), np.array([*lower, need - 1]), np.array([*upper, need])

    @cached_property
    def _outcomes(self) -> dict[int, PairOutcome]:
        """The outcomes read from records screened under this configuration,
        by Screened's key, shared across records. Like table it is no field,
        and it holds at most (checkpoints + 1)·(k + 1) outcomes."""
        return {}


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate accounting for one screened batch. agree_with_full counts
    the pairs whose decision equals the full-width decision; it is None
    unless screen_batch ran with baseline=True."""

    n_pairs: int
    total_comparisons: int
    baseline_comparisons: int
    filtered_at: dict[int, int] = field(default_factory=dict)
    output_at: dict[int, int] = field(default_factory=dict)
    full_comparisons: int = 0
    above_threshold: tuple[tuple[int, int], ...] = ()
    agree_with_full: int | None = None


@dataclass(frozen=True, eq=False)
class Screened(Sequence[PairOutcome]):
    """The outcomes of one screen_batch call as the walk left them, a
    sequence with a PairOutcome per pair. ids holds the pairs' set ids,
    (n, 2) uint64; resolved_at the index of the stop in cfg._cutoffs that
    resolved each pair, as _walk gives it, and counts its match count
    there; the three arrays are read-only. A pair's outcome is a function
    of its key, stop index·(k + 1) + count, and is built through
    cfg._outcomes only when the record is first read, so pairs resolved
    alike share one (frozen) PairOutcome, also across records of one
    configuration.

    As on a list, one pair's outcome can be replaced, record[i] = outcome
    (the benchmark's smoke test doctors a result this way). Reading and
    writing the record then give the new outcome; the walk's arrays and
    above() stay the walk's."""

    cfg: ScreenConfig
    ids: np.ndarray
    resolved_at: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.ids, self.resolved_at, self.counts):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.resolved_at)

    def __getitem__(self, index):
        outcomes, which = self.entries
        if isinstance(index, slice):
            return list(map(outcomes.__getitem__, which[index].tolist()))
        return outcomes[which[index]]

    def __setitem__(self, index: int, outcome: PairOutcome) -> None:
        outcomes, which = self.entries
        which[operator.index(index)] = len(outcomes)
        outcomes.append(outcome)

    def __iter__(self) -> Iterator[PairOutcome]:
        outcomes, which = self.entries
        return map(outcomes.__getitem__, which.tolist())

    @cached_property
    def entries(self) -> tuple[list[PairOutcome], np.ndarray]:
        """The distinct outcomes among the pairs, in key order, and per pair
        the index of its outcome in that list. Both are the record's own,
        built on the first read; only __setitem__ changes them. When the key
        space, stops·(k + 1), is no larger than the number of pairs, the
        present keys are marked in a table over it and a key's index is the
        count of present keys below it; otherwise np.unique sorts the keys."""
        space = len(self.cfg._cutoffs[0]) * (self.cfg.k + 1)
        keys = self.resolved_at * (self.cfg.k + 1) + self.counts
        if space <= len(keys):
            present = np.zeros(space, dtype=bool)
            present[keys] = True
            distinct = np.flatnonzero(present)
            which = (np.cumsum(present) - 1)[keys]
        else:
            distinct, which = np.unique(keys, return_inverse=True)
        return [_outcome(key, self.cfg) for key in distinct.tolist()], which

    def above(self) -> np.ndarray:
        """Per pair, whether the walk decided it above the threshold:
        whether its count reaches the upper cutoff of its stop."""
        return self.counts >= self.cfg._cutoffs[2][self.resolved_at]


def build_table(cfg: ScreenConfig) -> ThresholdTable:
    return cfg.table


def screen_batch(
    pairs: Sequence[tuple[int, int]],
    signatures: Mapping[int, Signature],
    cfg: ScreenConfig,
    table: ThresholdTable | None = None,
    *,
    baseline: bool = False,
) -> tuple[Screened, BatchSummary]:
    """Screen every pair, in order, against cfg.table, into a Screened.

    Signatures must come from the family (cfg.master_seed, cfg.k), and a
    table passed in must equal cfg.table: cutoffs solved for another
    threshold, significance or schedule would decide pairs plausibly but
    wrongly. At each checkpoint the accept test runs before the discard
    test, and a checkpoint with no discard cutoff simply cannot discard. A
    pair that survives every checkpoint is decided by its full-width match
    frequency, ties at the threshold counting as above. Each set id must
    pass sets.as_u64 and have a signature; the first that does not is named.
    A sets.Pairs is read as its array, which the record then shares.
    With baseline=True the walk also settles every pair's full-width
    decision, as the module docstring says, and the summary counts the
    pairs whose decision agrees with it. The outcomes and comparison counts
    are those of a screen without baseline.
    """
    ids = pair_ids(pairs)
    matrix = SignatureMatrix.stack(signatures)
    try:
        pair_rows = matrix.rows(ids).reshape(-1, 2)
    except KeyError as missing:
        raise ValueError(f"no signature for set id {missing.args[0]}") from None
    if len(matrix) and matrix.k != cfg.k:
        raise ValueError(f"expected signatures of length {cfg.k}, got {matrix.k}")
    family = (cfg.master_seed, cfg.k)
    if len(matrix) and matrix.fingerprint != family:
        raise ValueError(f"expected hash family (seed, k) = {family}, got {matrix.fingerprint}")
    if table is not None and table is not cfg.table and table != cfg.table:
        raise ValueError(
            f"threshold table for threshold {table.threshold}, e {table.e_lower} (upper "
            f"{table.e_upper}), checkpoints {table.checkpoints} does not match the "
            "configuration's table"
        )
    resolved_at, counts, full_above = _walk(
        matrix.matrix, pair_rows[:, 0], pair_rows[:, 1], cfg._cutoffs, baseline
    )
    screened = Screened(cfg, ids.reshape(-1, 2), resolved_at, counts)
    return screened, _summary(screened, full_above)


def _full_need(threshold: float, k: int) -> int:
    """The least match count x in [0, k] with x / k >= threshold, the float
    rule of a full comparison, so ties decide as they do there; k + 1 if
    there is none. x / k rises with x, so a bisection finds it."""
    return bisect_left(range(k + 1), threshold, key=lambda x: x / k)


def _is_dense(rows: int, n: int) -> bool:
    """Whether n pairs over a matrix of that many rows are a dense batch:
    at least _DENSE_PAIRS pairs over at most sqrt(_DENSE_TABLE · n) rows."""
    return n >= _DENSE_PAIRS and rows**2 <= _DENSE_TABLE * n


def _gather_matches(
    values: np.ndarray, a: np.ndarray, b: np.ndarray, lo: int, hi: int, x: np.ndarray
) -> None:
    """Add to x[i] the equal slots in columns [lo, hi) between matrix rows
    a[i] and b[i], compared in steps that gather at most _STEP_BYTES of
    both rows of each pair and summed in int32, which holds any count of
    fewer than 2**31 columns."""
    step = max(1, _STEP_BYTES // (2 * 8 * (hi - lo)))
    dtype = np.int32 if hi - lo < 2**31 else np.int64
    for i in range(0, len(a), step):
        part = slice(i, i + step)
        x[part] += (values[a[part], lo:hi] == values[b[part], lo:hi]).sum(axis=1, dtype=dtype)


def _count_collisions(
    values: np.ndarray, a: np.ndarray, b: np.ndarray, lo: int, hi: int, x: np.ndarray
) -> bool:
    """Add to x[i] the equal slots in columns [lo, hi) between matrix rows
    a[i] and b[i] from the collisions of all R rows: each of the w columns
    is sorted once, every two rows inside a run of equal values are one
    match of that row pair, and one bincount over ordered row-pair keys
    (each pair in both orders, w on the diagonal for a self-pair) is the
    table each pair reads its count from. Duplicate and reversed pairs so
    count as the gather counts them. Returns False, with x untouched, when
    the runs hold more row pairs than the gather's n·w comparisons buy:
    crediting one costs about _COLLISION_COST comparisons."""
    n, w, r = len(a), hi - lo, len(values)
    columns = np.ascontiguousarray(values[:, lo:hi].T)
    order = columns.argsort(axis=1)
    ranked = np.take_along_axis(columns, order, axis=1)
    same = np.zeros((w, r), dtype=bool)  # rank j of a column equals rank j - 1
    np.equal(ranked[:, 1:], ranked[:, :-1], out=same[:, 1:])
    later = np.flatnonzero(same)
    # depth: how many ranks of its run precede each later rank
    starts = np.ones(len(later), dtype=bool)
    np.not_equal(later[1:], later[:-1] + 1, out=starts[1:])
    index = np.arange(len(later))
    depth = index - np.maximum.accumulate(np.where(starts, index, 0)) + 1
    emitted = int(depth.sum())
    if emitted * _COLLISION_COST > n * w:
        return False
    later = np.repeat(later, depth)
    earlier = later - np.arange(1, emitted + 1) + np.repeat(np.cumsum(depth) - depth, depth)
    rows = order.reshape(-1)
    u, v = rows[later], rows[earlier]
    table = np.bincount(np.concatenate((u * r + v, v * r + u)), minlength=r * r)
    table[:: r + 1] = w
    x += table[a * r + b]
    return True


def _collide(
    values: np.ndarray, a: np.ndarray, b: np.ndarray, lo: int, hi: int, x: np.ndarray
) -> bool:
    """Add to x[i] the equal slots in columns [lo, hi) between rows a[i] and
    b[i] of values, counted from the slot collisions of its rows
    (_count_collisions), _COLLISION_COLUMNS columns at a time, while the
    pairs are a dense batch (_is_dense). From the first tile where they are
    not, or the first declined tile, the rest of [lo, hi) is gathered in one
    call (_gather_matches), and the result is False: the walk gathers from
    there on. A batch that is not dense never becomes dense, since its pair
    count only falls, and a cluster of near-duplicates so pays for one
    declined sort, not for one per tile. Both ways give the same counts."""
    for start in range(lo, hi, _COLLISION_COLUMNS):
        end = min(start + _COLLISION_COLUMNS, hi)
        if not (_is_dense(len(values), len(a)) and _count_collisions(values, a, b, start, end, x)):
            _gather_matches(values, a, b, start, hi, x)
            return False
    return True


def _walk(
    values: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    cutoffs: tuple[tuple[int, ...], np.ndarray, np.ndarray],
    baseline: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stop-major walk of the pairs of signature rows (a[i], b[i]) through
    a config's _cutoffs. Returns, per pair, the index of the stop that
    resolved it, its match count there, and, with baseline, whether its
    full-width count reaches need (else None). alive lists the walked pairs
    and x their running counts; with baseline, is_open marks those still
    unresolved, the others waiting for their full-width decision to settle.
    Intervals go to _collide until it returns False, then each in one call
    to _gather_matches, as a batch not dense at the first stop is gathered.
    """
    stops, lower, upper = cutoffs
    k, need = stops[-1], upper[-1]
    resolved_at = np.empty(len(a), dtype=np.int64)
    counts = np.empty(len(a), dtype=np.int64)
    alive = np.arange(len(a))
    x = np.zeros(len(a), dtype=np.int64)
    full_above = np.empty(len(a), dtype=bool) if baseline else None
    is_open = np.ones(len(a), dtype=bool)
    collide = True
    lo = 0
    for index, hi in enumerate(stops):
        if not alive.size:
            break
        if hi > lo:
            if collide:
                collide = _collide(values, a, b, lo, hi, x)
            else:
                _gather_matches(values, a, b, lo, hi, x)
            lo = hi
        done = (x <= lower[index]) | (x >= upper[index])
        if baseline:
            done &= is_open
            is_open &= ~done
        resolved_at[alive[done]] = index
        counts[alive[done]] = x[done]
        if baseline:
            done = ~is_open & ((x >= need) | (x <= lower[-1] - (k - hi)))
            full_above[alive[done]] = x[done] >= need
            is_open = is_open[~done]
        if done.any():
            kept = ~done
            alive, a, b, x = alive[kept], a[kept], b[kept], x[kept]
    return resolved_at, counts, full_above


def _summary(screened: Screened, full_above: np.ndarray | None) -> BatchSummary:
    """The summary of a screened batch, counted from its arrays. full_above
    is _walk's, None without baseline."""
    cfg, resolved_at = screened.cfg, screened.resolved_at
    stops = cfg._cutoffs[0]  # a stop is also the comparisons it costs
    is_above = screened.above()
    resolved = np.bincount(resolved_at, minlength=len(stops)).tolist()
    accepted = np.bincount(resolved_at[is_above], minlength=len(stops)).tolist()
    return BatchSummary(
        n_pairs=len(screened),
        total_comparisons=sum(n * k for n, k in zip(resolved, stops)),
        baseline_comparisons=len(screened) * cfg.k,
        filtered_at={k: n - a for k, n, a in zip(cfg.schedule, resolved, accepted)},
        output_at=dict(zip(cfg.schedule, accepted)),
        full_comparisons=resolved[-1],
        above_threshold=tuple(map(tuple, screened.ids[is_above].tolist())),
        agree_with_full=None if full_above is None else int((is_above == full_above).sum()),
    )


def _outcome(key: int, cfg: ScreenConfig) -> PairOutcome:
    """The outcome of a Screened key, an early accept or an early discard at
    a checkpoint, or at the last stop a full comparison: cfg._outcomes', or
    on a miss a new one kept there."""
    outcome = cfg._outcomes.get(key)
    if outcome is not None:
        return outcome
    index, x = divmod(key, cfg.k + 1)
    stops, _, upper = cfg._cutoffs
    above = x >= upper[index]
    decision = ABOVE if above else BELOW
    if index < len(cfg.schedule):
        kind = OUTPUT_EARLY if above else FILTERED_EARLY
        outcome = PairOutcome(decision, kind, stops[index], stops[index], x / stops[index])
    else:
        outcome = PairOutcome(decision, FULL_COMPARISON, None, cfg.k, x / cfg.k)
    cfg._outcomes[key] = outcome
    return outcome


def count_early(outcomes: Iterable[PairOutcome]) -> tuple[dict[int, int], dict[int, int]]:
    """Early discards and early accepts among the outcomes, counted by
    resolving checkpoint: the filtered_at and output_at of a BatchSummary."""
    tally = Counter((o.resolution_kind, o.resolution_checkpoint) for o in outcomes)
    filtered_at = {k: n for (kind, k), n in tally.items() if kind == FILTERED_EARLY}
    output_at = {k: n for (kind, k), n in tally.items() if kind == OUTPUT_EARLY}
    return filtered_at, output_at


def filtering_rates(
    points: Iterable[int],
    filtered_at: Mapping[int, int],
    output_at: Mapping[int, int],
    n_pairs: int,
) -> tuple[dict[int, float], dict[int, float]]:
    """Cumulative filtering rates of n_pairs pairs at each point.

    filtered_at and output_at count early discards and early accepts by
    resolving checkpoint. A count belongs to every point at or above its
    checkpoint, so a point need not be a checkpoint. Returns (strict,
    resolved) by point: strict is the share discarded early, the headline
    filtering rate; resolved also counts early accepts.
    """
    if n_pairs < 1:
        raise ValueError("filtering rate undefined over zero outcomes")
    strict: dict[int, float] = {}
    resolved: dict[int, float] = {}
    for point in points:
        filtered = sum(n for k, n in filtered_at.items() if k <= point)
        accepted = sum(n for k, n in output_at.items() if k <= point)
        strict[point] = filtered / n_pairs
        resolved[point] = (filtered + accepted) / n_pairs
    return strict, resolved


def filtering_rate(
    outcomes: Sequence[PairOutcome], k: int, schedule: Sequence[int]
) -> tuple[float, float]:
    """(strict, resolved) filtering rates of the outcomes by checkpoint k,
    which must be in the schedule: see filtering_rates."""
    if k not in tuple(schedule):
        raise ValueError(f"checkpoint {k} not in schedule {tuple(schedule)}")
    strict, resolved = filtering_rates((k,), *count_early(outcomes), len(outcomes))
    return strict[k], resolved[k]

"""Sequential pair screening over signature prefixes.

A pair's match count is examined at each configured checkpoint. Reaching the
accept cutoff resolves the pair early as above-threshold, reaching the
discard cutoff resolves it early as below-threshold, and a pair that clears
every checkpoint is decided by the full-width match frequency. Cutoffs come
from the binomial threshold table, so each early resolution is wrong with
probability at most the configured significance (per checkpoint).

screen_batch walks a batch checkpoint by checkpoint rather than pair by
pair, over one signature matrix. For each interval [k_{i-1}, k_i) it
gathers only the unresolved pairs' slots of that interval straight from the
matrix, adds the matches to their running counts, and drops the pairs the
checkpoint resolves. A pair resolved at checkpoint k therefore costs k slot
comparisons in time as well as in the count, and no column past the last
checkpoint a pair reaches is read. The full-width baseline is the same call
with an empty schedule, and compare_pair is a batch of one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .binomial import ThresholdTable, build_threshold_table, validate_table_args
from .minhash import Signature, SignatureMatrix, validate_family_args

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
    line's defaults."""

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


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate accounting for one screened batch."""

    n_pairs: int
    total_comparisons: int
    baseline_comparisons: int
    filtered_at: dict[int, int] = field(default_factory=dict)
    output_at: dict[int, int] = field(default_factory=dict)
    full_comparisons: int = 0
    above_threshold: tuple[tuple[int, int], ...] = ()


def build_table(cfg: ScreenConfig) -> ThresholdTable:
    return cfg.table


def compare_pair(
    a: Signature, b: Signature, table: ThresholdTable, cfg: ScreenConfig
) -> PairOutcome:
    """Walk one pair through the checkpoint schedule: screen_batch on a
    batch of one pair, with the same checks."""
    outcomes, _ = screen_batch([(0, 1)], {0: a, 1: b}, cfg, table)
    return outcomes[0]


def screen_batch(
    pairs: Sequence[tuple[int, int]],
    signatures: Mapping[int, Signature],
    cfg: ScreenConfig,
    table: ThresholdTable | None = None,
) -> tuple[list[PairOutcome], BatchSummary]:
    """Screen every pair, in order, against cfg.table.

    A table passed in must equal cfg.table: cutoffs solved for another
    threshold, significance or schedule would decide pairs plausibly but
    wrongly. At each checkpoint the accept test runs before the discard
    test, and a checkpoint with no discard cutoff simply cannot discard. A
    pair that survives every checkpoint is decided by its full-width match
    frequency, ties at the threshold counting as above.
    """
    if set(map(len, pairs)) - {2}:
        index = next(i for i, pair in enumerate(pairs) if len(pair) != 2)
        raise ValueError(f"pair {index} is {tuple(pairs[index])}, not two set ids")
    matrix = SignatureMatrix.stack(signatures)
    try:
        pair_rows = matrix.rows(pairs, 2 * len(pairs)).reshape(-1, 2)
    except KeyError as missing:
        raise ValueError(f"no signature for set id {missing.args[0]}") from None
    if len(matrix) and matrix.k != cfg.k:
        raise ValueError(f"expected signatures of length {cfg.k}, got {matrix.k}")
    if table is not None and table != cfg.table:
        raise ValueError(
            f"threshold table for threshold {table.threshold}, e {table.e_lower} (upper "
            f"{table.e_upper}), checkpoints {table.checkpoints} does not match the "
            "configuration's table"
        )
    table = cfg.table
    resolved_at, matches = _walk(matrix.matrix, pair_rows[:, 0], pair_rows[:, 1], table, cfg.k)
    return _collect(pairs, resolved_at, matches, table, cfg)


def _count_matches(
    values: np.ndarray, a: np.ndarray, b: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Equal slots in columns [lo, hi) between matrix rows a[i] and b[i],
    compared in steps that gather at most _STEP_BYTES."""
    step = max(1, _STEP_BYTES // (2 * 8 * (hi - lo)))
    parts = [
        (values[a[i : i + step], lo:hi] == values[b[i : i + step], lo:hi]).sum(axis=1)
        for i in range(0, len(a), step)
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _walk(
    values: np.ndarray, a: np.ndarray, b: np.ndarray, table: ThresholdTable, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Checkpoint-major walk of the pairs of signature rows (a[i], b[i]).

    Returns, per pair, the index of the table row that resolved it (the
    number of rows for a full comparison) and its match count there.
    alive lists the unresolved pairs and x holds their running counts.
    """
    rows = table.rows
    stops = [row.k for row in rows]
    if not stops or stops[-1] < k:
        stops.append(k)
    resolved_at = np.full(len(a), len(rows), dtype=np.int64)
    counts = np.empty(len(a), dtype=np.int64)
    alive = np.arange(len(a))
    x = np.zeros(len(a), dtype=np.int64)
    lo = 0
    for index, hi in enumerate(stops):
        if not alive.size:
            break
        x += _count_matches(values, a, b, lo, hi)
        lo = hi
        if index < len(rows):
            row = rows[index]
            done = x >= row.m_u
            if row.m_l is not None:
                done |= x <= row.m_l
            if done.any():
                resolved_at[alive[done]] = index
                counts[alive[done]] = x[done]
                kept = ~done
                alive, a, b, x = alive[kept], a[kept], b[kept], x[kept]
    counts[alive] = x
    return resolved_at, counts


def _collect(
    pairs: Sequence[tuple[int, int]],
    resolved_at: np.ndarray,
    matches: np.ndarray,
    table: ThresholdTable,
    cfg: ScreenConfig,
) -> tuple[list[PairOutcome], BatchSummary]:
    """Outcomes and summary from the walk's per-pair results. Pairs that
    resolve alike share one (frozen) PairOutcome."""
    keys, inverse, tally = np.unique(
        resolved_at * (cfg.k + 1) + matches, return_inverse=True, return_counts=True
    )
    filtered_at: dict[int, int] = {k: 0 for k in cfg.schedule}
    output_at: dict[int, int] = {k: 0 for k in cfg.schedule}
    full = 0
    total = 0
    shared: list[PairOutcome] = []
    for key, count in zip(keys.tolist(), tally.tolist()):
        index, x = divmod(key, cfg.k + 1)
        if index < len(table.rows):
            row = table.rows[index]
            if x >= row.m_u:
                outcome = PairOutcome(ABOVE, OUTPUT_EARLY, row.k, row.k, x / row.k)
                output_at[row.k] = output_at.get(row.k, 0) + count
            else:
                outcome = PairOutcome(BELOW, FILTERED_EARLY, row.k, row.k, x / row.k)
                filtered_at[row.k] = filtered_at.get(row.k, 0) + count
        else:
            estimate = x / cfg.k
            decision = ABOVE if estimate >= cfg.threshold else BELOW
            outcome = PairOutcome(decision, FULL_COMPARISON, None, cfg.k, estimate)
            full += count
        total += count * outcome.comparisons_used
        shared.append(outcome)
    is_above = np.array([o.decision == ABOVE for o in shared], dtype=bool)[inverse]
    summary = BatchSummary(
        n_pairs=len(inverse),
        total_comparisons=total,
        baseline_comparisons=len(inverse) * cfg.k,
        filtered_at=filtered_at,
        output_at=output_at,
        full_comparisons=full,
        above_threshold=tuple(tuple(pairs[i]) for i in np.flatnonzero(is_above).tolist()),
    )
    return [shared[i] for i in inverse.tolist()], summary


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

"""Sequential pair screening over signature prefixes.

A pair's match count is examined at each configured checkpoint. Reaching the
accept cutoff resolves the pair early as above-threshold, reaching the
discard cutoff resolves it early as below-threshold, and a pair that clears
every checkpoint is decided by the full-width match frequency. Cutoffs come
from the binomial threshold table, so each early resolution is wrong with
probability at most the configured significance (per checkpoint).

screen_batch walks a batch checkpoint by checkpoint rather than pair by
pair. Within a block of consecutive pairs it gathers, one window of slot
columns at a time, the columns of the signatures that unresolved pairs
reference; for each interval [k_{i-1}, k_i) inside the window it compares
only those pairs' slots, adds the matches to their running counts, and
drops the pairs the checkpoint resolves. A pair resolved at checkpoint k
therefore costs k slot comparisons in time as well as in the count, and no
columns past the last checkpoint a block reaches are copied. The full-width
baseline is the same call with an empty schedule, and compare_pair is a
batch of one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .binomial import ThresholdTable, build_threshold_table, validate_table_args
from .minhash import Signature, validate_family_args

ABOVE = "AboveThreshold"
BELOW = "BelowThreshold"

OUTPUT_EARLY = "OutputEarly"
FILTERED_EARLY = "FilteredEarly"
FULL_COMPARISON = "FullComparison"

DEFAULT_SCHEDULE = tuple(range(100, 1000, 100))

# Signature rows one block of pairs may reference. A window holds a column
# range of every row that unresolved pairs of the block reference, so fewer
# rows make for wider windows and fewer row-by-row gathers.
_BLOCK_ROWS = 1024
# Bytes of one window of signature columns. Wider windows mean fewer
# row-by-row gathers, but a buffer of several MiB may be handed back to the
# OS between calls and page-fault in again on the next, which makes a
# call's cost vary with what ran before it. Windows stay well below that
# and below numpy's 4 MiB huge-page threshold.
_WINDOW_BYTES = 2 << 20
# Bytes of slot slices one comparison step gathers from a window. Steps
# that stay in a core's cache compare several times faster than larger ones.
_STEP_BYTES = 1 << 20


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
    threshold: float = 0.5
    e: float = 1e-5
    e_upper: float | None = None
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    k: int = 1000
    master_seed: int = 42

    def __post_init__(self) -> None:
        schedule = validate_table_args(self.threshold, self.e, self.schedule, self.e_upper)
        object.__setattr__(self, "schedule", schedule)
        validate_family_args(self.k, self.master_seed)
        if self.schedule and self.schedule[-1] > self.k:
            raise ValueError(
                f"schedule reaches {self.schedule[-1]} but signatures have only {self.k} slots"
            )


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
    return build_threshold_table(cfg.threshold, cfg.e, cfg.schedule, cfg.e_upper)


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
    """Screen every pair, in order, against a shared threshold table.

    At each checkpoint the accept test runs before the discard test, and a
    checkpoint with no discard cutoff simply cannot discard. A pair that
    survives every checkpoint is decided by its full-width match frequency,
    ties at the threshold counting as above.
    """
    ids = [set_id for id_a, id_b in pairs for set_id in (id_a, id_b)]
    row_of = {set_id: row for row, set_id in enumerate(dict.fromkeys(ids))}
    for set_id in row_of:
        if set_id not in signatures:
            raise ValueError(f"no signature for set id {set_id}")
    sigs = [signatures[set_id] for set_id in row_of]
    # A batch may span families as long as each pair shares one, so only a
    # mixed batch is checked pair by pair, with the per-pair messages.
    families = {(sig.fingerprint, sig.k) for sig in sigs}
    if len(families) > 1 or any(k != cfg.k for _, k in families):
        for id_a, id_b in pairs:
            _check_pair(signatures[id_a], signatures[id_b], cfg)
    if table is None:
        table = build_table(cfg)
    if table.rows and table.rows[-1].k > cfg.k:
        raise ValueError(
            f"threshold table checkpoint {table.rows[-1].k} exceeds signature length {cfg.k}"
        )

    pair_rows = np.fromiter(map(row_of.__getitem__, ids), dtype=np.intp, count=len(ids))
    pair_rows = pair_rows.reshape(-1, 2)
    resolved_at = np.empty(len(pair_rows), dtype=np.int64)
    matches = np.empty(len(pair_rows), dtype=np.int64)
    values = [sig.values for sig in sigs]
    for block in _blocks(pair_rows):
        rows = pair_rows[block]
        resolved_at[block], matches[block] = _walk(values, rows[:, 0], rows[:, 1], table, cfg.k)
    return _collect(pairs, resolved_at, matches, table, cfg)


def _check_pair(a: Signature, b: Signature, cfg: ScreenConfig) -> None:
    if a.fingerprint != b.fingerprint:
        raise ValueError("signatures come from different hash families")
    if a.k != cfg.k or b.k != cfg.k:
        raise ValueError(f"expected signatures of length {cfg.k}, got {a.k} and {b.k}")


def _blocks(pair_rows: np.ndarray) -> list[slice]:
    """Split consecutive pairs into blocks that reference at most
    _BLOCK_ROWS signature rows.

    A block ending at pair e references no row above the running maximum
    row at e. Rows are numbered in order of first reference, so a leading
    run of pairs that reuses few signatures, as an all-pairs join does,
    fits one block. Past that run a block holds _BLOCK_ROWS / 2 pairs.
    """
    if not len(pair_rows):
        return []
    top = np.maximum.accumulate(pair_rows.max(axis=1))
    within = int(np.searchsorted(top, _BLOCK_ROWS))
    blocks = []
    start = 0
    while start < len(pair_rows):
        end = min(len(pair_rows), max(start + _BLOCK_ROWS // 2, within))
        blocks.append(slice(start, end))
        start = end
    return blocks


def _count_matches(
    window: np.ndarray, a: np.ndarray, b: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Equal slots in window columns [lo, hi) between window rows a[i] and
    b[i], compared in steps that gather at most _STEP_BYTES."""
    step = max(1, _STEP_BYTES // (2 * 8 * (hi - lo)))
    parts = [
        (window[a[i : i + step], lo:hi] == window[b[i : i + step], lo:hi]).sum(axis=1)
        for i in range(0, len(a), step)
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _walk(
    values: Sequence[np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    table: ThresholdTable,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Checkpoint-major walk of the pairs of signature rows (a[i], b[i]).

    Returns, per pair, the index of the table row that resolved it (the
    number of rows for a full comparison) and its match count there.
    alive lists the unresolved pairs and x holds their running counts.
    """
    rows = table.rows
    stops = [row.k for row in rows] + [k]
    resolved_at = np.full(len(a), len(rows), dtype=np.int64)
    counts = np.empty(len(a), dtype=np.int64)
    alive = np.arange(len(a))
    x = np.zeros(len(a), dtype=np.int64)
    index = 0
    lo = 0
    while alive.size and lo < k:
        # The window runs to the furthest checkpoint its byte budget
        # reaches, or stops inside the next interval if that is too wide.
        live, local = np.unique(np.concatenate((a[alive], b[alive])), return_inverse=True)
        width = max(1, _WINDOW_BYTES // (8 * len(live)))
        reach = bisect_right(stops, lo + width)
        hi = stops[reach - 1] if reach and stops[reach - 1] > lo else lo + width
        window = np.concatenate([values[row][lo:hi] for row in live.tolist()])
        window = window.reshape(len(live), hi - lo)
        la, lb = local[: alive.size], local[alive.size :]
        start = lo
        while start < hi and alive.size:
            end = min(hi, stops[index])
            x += _count_matches(window, la, lb, start - lo, end - lo)
            start = end
            if index < len(rows) and end == rows[index].k:
                row = rows[index]
                done = x >= row.m_u
                if row.m_l is not None:
                    done |= x <= row.m_l
                if done.any():
                    resolved_at[alive[done]] = index
                    counts[alive[done]] = x[done]
                    kept = ~done
                    alive, la, lb, x = alive[kept], la[kept], lb[kept], x[kept]
                index += 1
        lo = hi
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


def filtering_rate(
    outcomes: Sequence[PairOutcome], k: int, schedule: Sequence[int]
) -> tuple[float, float]:
    """Fraction of pairs resolved by checkpoint k.

    Returns (strict, resolved): strict counts only early discards, the
    headline filtering rate; resolved also counts early accepts. Both are
    cumulative over checkpoints up to and including k.
    """
    if k not in tuple(schedule):
        raise ValueError(f"checkpoint {k} not in schedule {tuple(schedule)}")
    if not outcomes:
        raise ValueError("filtering rate undefined over zero outcomes")
    filtered = 0
    resolved = 0
    for outcome in outcomes:
        cp = outcome.resolution_checkpoint
        if cp is None or cp > k:
            continue
        resolved += 1
        if outcome.resolution_kind == FILTERED_EARLY:
            filtered += 1
    return filtered / len(outcomes), resolved / len(outcomes)

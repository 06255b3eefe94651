"""Experiment harness: sign, screen, and report.

Produces the outcome CSV and an aggregate report per run. The report's cost
metric is slot comparisons, which is portable across machines; wall time is
recorded for orientation only and is never compared against anything. The
outcome CSV is written from a screening.Screened record in blocks of rows
rendered by numpy, never a Python string per row.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass
from typing import AbstractSet, BinaryIO, Mapping, Sequence

import numpy as np

from .minhash import Signature, make_family, sign_many
from .sets import Pairs, as_u64, jaccard_at_least_each, pair_ids
from .workload import parse_decimal, read_lines, replace_file
from .screening import (
    ABOVE,
    BELOW,
    FILTERED_EARLY,
    FULL_COMPARISON,
    OUTPUT_EARLY,
    PairOutcome,
    ScreenConfig,
    Screened,
    count_early,
    filtering_rates,
    screen_batch,
)

OUTCOME_COLUMNS = [
    "pair_index",
    "id_a",
    "id_b",
    "decision",
    "resolution_kind",
    "resolution_checkpoint",
    "comparisons_used",
    "estimate",
]

# Rows of the outcome CSV rendered at a time. A block of the join workload's
# 57-byte rows takes 0.9 MB, and the writer holds about three blocks' worth
# at once (the block, its NUL mask and the compressed bytes), not the file.
_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class ExperimentReport:
    n_pairs: int
    k: int
    threshold: float
    e: float
    e_upper: float
    schedule: tuple[int, ...]
    total_comparisons: int
    baseline_comparisons: int
    above_threshold_count: int
    fr_strict: dict[int, float]
    fr_resolved: dict[int, float]
    accuracy: float | None
    agreement_vs_exact: float | None
    wall_time_ms: float


def screen_signatures(
    signatures: Mapping[int, Signature],
    pairs: Sequence[tuple[int, int]],
    cfg: ScreenConfig,
    baseline: bool = False,
    sets: Mapping[int, AbstractSet[int]] | None = None,
) -> tuple[Screened, ExperimentReport]:
    """Screen presigned pairs and aggregate the report.

    With baseline=True the one screening walk also settles each pair's
    full-width decision (see screening.screen_batch), and accuracy is the
    fraction of pairs on which the screened decision agrees with it.
    agreement_vs_exact is only available when the underlying sets are
    supplied; the screened decisions it compares are the record's above().
    The cutoffs are cfg.table, so a config whose table is already
    built is not solved again.
    """
    started = time.perf_counter()
    outcomes, summary = screen_batch(pairs, signatures, cfg, baseline=baseline)
    fr_strict, fr_resolved = filtering_rates(
        cfg.schedule, summary.filtered_at, summary.output_at, summary.n_pairs
    )

    accuracy = None
    if baseline:
        accuracy = summary.agree_with_full / len(outcomes)

    agreement_vs_exact = None
    if sets is not None:
        truth = np.fromiter(jaccard_at_least_each(sets, pairs, cfg.threshold), bool, len(pairs))
        agreement_vs_exact = int((truth == outcomes.above()).sum()) / len(outcomes)

    report = ExperimentReport(
        n_pairs=len(outcomes),
        k=cfg.k,
        threshold=cfg.threshold,
        e=cfg.e,
        e_upper=cfg.table.e_upper,
        schedule=cfg.schedule,
        total_comparisons=summary.total_comparisons,
        baseline_comparisons=summary.baseline_comparisons,
        above_threshold_count=len(summary.above_threshold),
        fr_strict=fr_strict,
        fr_resolved=fr_resolved,
        accuracy=accuracy,
        agreement_vs_exact=agreement_vs_exact,
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
    )
    return outcomes, report


def run_screen(
    sets: Mapping[int, AbstractSet[int]],
    pairs: Sequence[tuple[int, int]],
    cfg: ScreenConfig,
    baseline: bool = False,
) -> tuple[Screened, ExperimentReport]:
    """Sign the sets the pairs reference, then screen every pair. The pairs
    are converted once, by sets.pair_ids, and screened as a sets.Pairs, so
    a list that is not pairs of set ids gets screen_batch's error before any
    set is signed. The first id in pair order with no set is named."""
    pairs = Pairs(pair_ids(pairs).reshape(-1, 2))
    ids = dict.fromkeys(pairs.ids.reshape(-1).tolist())
    try:
        referenced = {set_id: sets[set_id] for set_id in ids}
    except KeyError as missing:
        raise ValueError(f"pair list references unknown set id {missing.args[0]}") from None
    signatures = sign_many(make_family(cfg.k, cfg.master_seed), referenced)
    return screen_signatures(signatures, pairs, cfg, baseline=baseline, sets=sets)


def write_outcomes_csv(path: str, pairs: Sequence[tuple[int, int]], outcomes: Screened) -> None:
    """The outcomes of a screen as CSV, one row per pair, by replace_file.

    pairs must be the pairs screened: pairs of another number or other
    set ids are refused, the first differing pair named, before the file
    is opened. For a sets.Pairs that check is one array comparison. No
    field can hold a comma, quote or newline, so the rows are the bytes
    csv.writer would give. Each block of at most _BLOCK_ROWS rows is
    rendered into a uint8 array of fixed-width rows padded with NUL bytes:
    pair_index and the ids by _decimal, and the rest of the row by
    gathering its outcome's tail, rendered once per distinct outcome.
    Dropping the NULs gives the block's bytes."""
    if len(pairs) != len(outcomes):
        raise ValueError(f"{len(pairs)} pairs but {len(outcomes)} outcomes")
    ids = pair_ids(pairs).reshape(-1, 2)
    if not np.array_equal(ids, outcomes.ids):
        index = int(np.flatnonzero((ids != outcomes.ids).any(axis=1))[0])
        raise ValueError(
            f"pair {index} is {tuple(ids[index].tolist())} but the outcomes screened "
            f"{tuple(outcomes.ids[index].tolist())}"
        )
    replace_file(path, lambda fh: _write_rows(fh, outcomes))


def _write_rows(fh: BinaryIO, screened: Screened) -> None:
    outcomes, which = screened.entries
    tails = [
        f",{o.decision},{o.resolution_kind},"
        f"{'' if o.resolution_checkpoint is None else o.resolution_checkpoint},"
        f"{o.comparisons_used},{o.estimate!r}\n".encode("ascii")
        for o in outcomes
    ]
    width = max(map(len, tails), default=0)
    padded = b"".join(tail.ljust(width, b"\0") for tail in tails)
    tails = np.frombuffer(padded, np.uint8).reshape(len(tails), width)
    fh.write((",".join(OUTCOME_COLUMNS) + "\n").encode("ascii"))
    for start in range(0, len(screened), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(screened))
        fields = (np.arange(start, stop, dtype=np.uint64), *screened.ids[start:stop].T)
        widths = [len(str(int(values.max()))) for values in fields]
        block = np.empty((stop - start, sum(widths) + 2 + width), np.uint8)
        at = 0
        for values, digits in zip(fields, widths):
            if at:
                block[:, at] = ord(",")
                at += 1
            _decimal(block[:, at : at + digits], values)
            at += digits
        block[:, at:] = tails[which[start:stop]]  # from the comma after id_b
        flat = block.reshape(-1)
        fh.write(flat[flat != 0])


def _decimal(out: np.ndarray, values: np.ndarray) -> None:
    """values, uint64, in decimal ASCII right-aligned in the columns of out,
    which must hold the widest, with NUL bytes before the first digit. A
    width of at most 9 digits is computed in uint32, which cut the whole
    write on the join workload's 101,025 rows from 20 to 18 ms."""
    if out.shape[1] <= 9:
        values = values.astype(np.uint32)
    for column in range(out.shape[1] - 1, -1, -1):
        quotient = values // 10
        digit = values - quotient * 10 + ord("0")
        if column < out.shape[1] - 1:
            digit *= values != 0  # a leading zero is a NUL
        out[:, column] = digit
        values = quotient


def read_outcomes_csv(path: str) -> tuple[list[tuple[int, int]], list[PairOutcome]]:
    """Pairs and outcomes from an outcomes CSV, read by read_lines: one row
    per line, fields split at ',' with no quoting, the header on line 1 and
    pair_index counting rows from 0 in order. A malformed row fails with
    path:line (1-based, the header being line 1)."""
    lines = read_lines(path)
    header = lines[0].split(",") if lines else None
    if header != OUTCOME_COLUMNS:
        raise ValueError(f"{path}: not an outcomes CSV (header {header})")
    rows = []
    for position, line in enumerate(lines[1:]):
        try:
            rows.append(_parse_outcome_row(line.split(","), position))
        except ValueError as exc:
            raise ValueError(f"{path}:{position + 2}: {exc}") from None
    return [pair for pair, _ in rows], [outcome for _, outcome in rows]


def _parse_outcome_row(row: list[str], position: int) -> tuple[tuple[int, int], PairOutcome]:
    """One outcomes row as write_outcomes_csv writes it: a known decision and kind,
    an early row deciding as its kind says at a checkpoint (at least 1) equal
    to comparisons_used, plain decimal integers, set ids by sets.as_u64, an
    estimate in [0, 1] by repr, and, checked last, pair_index == position."""
    if not all(field.isascii() for field in row):
        raise ValueError("non-ASCII byte")
    if len(row) != len(OUTCOME_COLUMNS):
        raise ValueError(f"expected {len(OUTCOME_COLUMNS)} fields, got {len(row)}")
    index, id_a, id_b, decision, kind, checkpoint, used, estimate = row
    if decision not in (ABOVE, BELOW):
        raise ValueError(f"unknown decision {decision!r}")
    if kind not in (OUTPUT_EARLY, FILTERED_EARLY, FULL_COMPARISON):
        raise ValueError(f"unknown resolution kind {kind!r}")
    if kind == FULL_COMPARISON and checkpoint:
        raise ValueError(f"{kind} row with resolution_checkpoint {checkpoint!r}")
    if kind != FULL_COMPARISON and not checkpoint:
        raise ValueError(f"{kind} row without resolution_checkpoint")
    if kind != FULL_COMPARISON and decision != (ABOVE if kind == OUTPUT_EARLY else BELOW):
        raise ValueError(f"{kind} row with decision {decision}")
    try:
        pair_index = parse_decimal(index)
        pair = (parse_decimal(id_a), parse_decimal(id_b))
        resolved_at = parse_decimal(checkpoint) if checkpoint else None
        outcome = PairOutcome(decision, kind, resolved_at, parse_decimal(used), float(estimate))
    except ValueError as exc:
        raise ValueError(f"bad number ({exc})") from None
    pair = (as_u64(pair[0], "set id"), as_u64(pair[1], "set id"))
    if resolved_at == 0:
        raise ValueError("resolution_checkpoint 0, expected at least 1")
    if resolved_at is not None and outcome.comparisons_used != resolved_at:
        raise ValueError(f"comparisons_used {used} differs from resolution_checkpoint {checkpoint}")
    if repr(outcome.estimate) != estimate:
        raise ValueError(f"estimate {estimate!r} is not written as {outcome.estimate!r}")
    if estimate.startswith("-") or not 0.0 <= outcome.estimate <= 1.0:
        raise ValueError(f"estimate {estimate!r} is not a number in [0, 1]")
    if pair_index != position:
        raise ValueError(f"pair_index {pair_index}, expected {position}")
    return pair, outcome


def report_fr_curves(
    outcome_sets: Mapping[str, Sequence[PairOutcome]], schedule: Sequence[int]
) -> str:
    """Filtering-rate curves as CSV, one labeled block of rows per source.
    The schedule's points need not be the checkpoints the outcomes were
    screened with."""
    if not outcome_sets:
        raise ValueError("no outcome sets to report on")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "k", "fr_strict", "fr_resolved"])
    for label, outcomes in outcome_sets.items():
        if not outcomes:
            raise ValueError(f"outcome set {label!r} is empty")
        strict, resolved = filtering_rates(schedule, *count_early(outcomes), len(outcomes))
        for point in schedule:
            writer.writerow([label, point, repr(strict[point]), repr(resolved[point])])
    return buf.getvalue()


def report_json(report: ExperimentReport) -> str:
    payload = asdict(report)
    payload["schedule"] = list(report.schedule)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_report(report: ExperimentReport) -> str:
    """Human-readable run summary."""
    cost = f"slot comparisons    : {report.total_comparisons}"
    if report.baseline_comparisons:
        share = report.total_comparisons / report.baseline_comparisons
        cost += f" ({share:.1%} of {report.baseline_comparisons} baseline)"
    lines = [
        f"pairs screened      : {report.n_pairs}",
        f"signature slots     : {report.k}",
        f"threshold           : {report.threshold}",
        f"e (lower / upper)   : {report.e} / {report.e_upper}",
        f"schedule            : {','.join(str(k) for k in report.schedule) or '(none)'}",
        f"above threshold     : {report.above_threshold_count}",
        cost,
    ]
    for point in report.schedule:
        lines.append(
            f"  by k={point:<5d} filtered {report.fr_strict[point]:.4f}"
            f"  resolved {report.fr_resolved[point]:.4f}"
        )
    if report.accuracy is not None:
        lines.append(f"accuracy vs full    : {report.accuracy:.6f}")
    if report.agreement_vs_exact is not None:
        lines.append(f"agreement vs exact  : {report.agreement_vs_exact:.6f}")
    lines.append(f"wall time           : {report.wall_time_ms:.1f} ms")
    return "\n".join(lines) + "\n"

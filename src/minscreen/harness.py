"""Experiment harness: sign, screen, and report.

Produces the outcome CSV and an aggregate report per run. The report's cost
metric is slot comparisons, which is portable across machines; wall time is
recorded for orientation only and is never compared against anything.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, replace
from typing import AbstractSet, Mapping, Sequence

from .minhash import Signature, SignatureMatrix, make_family, sign_many
from .sets import jaccard_at_least
from .workload import parse_decimal
from .screening import (
    ABOVE,
    BELOW,
    FILTERED_EARLY,
    FULL_COMPARISON,
    OUTPUT_EARLY,
    PairOutcome,
    ScreenConfig,
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


def sign_all(
    sets: Mapping[int, AbstractSet[int]], pairs: Sequence[tuple[int, int]], cfg: ScreenConfig
) -> SignatureMatrix:
    """Sign every set referenced by the pair list, in increasing id order."""
    family = make_family(cfg.k, cfg.master_seed)
    try:
        referenced = {set_id: sets[set_id] for pair in pairs for set_id in pair}
    except KeyError as missing:
        raise ValueError(f"pair list references unknown set id {missing.args[0]}") from None
    return sign_many(family, referenced)


def screen_signatures(
    signatures: Mapping[int, Signature],
    pairs: Sequence[tuple[int, int]],
    cfg: ScreenConfig,
    baseline: bool = False,
    sets: Mapping[int, AbstractSet[int]] | None = None,
) -> tuple[list[PairOutcome], ExperimentReport]:
    """Screen presigned pairs and aggregate the report.

    With baseline=True the same signatures are also decided by a plain
    full-width comparison, and accuracy is the fraction of pairs on which
    the screened decision agrees with it. agreement_vs_exact is only
    available when the underlying sets are supplied. The cutoffs are
    cfg.table, so a config whose table is already built is not solved again.
    """
    started = time.perf_counter()
    outcomes, summary = screen_batch(pairs, signatures, cfg)
    fr_strict, fr_resolved = filtering_rates(
        cfg.schedule, summary.filtered_at, summary.output_at, summary.n_pairs
    )

    accuracy = None
    if baseline:
        full_cfg = replace(cfg, schedule=())
        full_outcomes, _ = screen_batch(pairs, signatures, full_cfg)
        agree = sum(o.decision == f.decision for o, f in zip(outcomes, full_outcomes))
        accuracy = agree / len(outcomes)

    agreement_vs_exact = None
    if sets is not None:
        hits = 0
        for (id_a, id_b), outcome in zip(pairs, outcomes):
            truth = jaccard_at_least(sets[id_a], sets[id_b], cfg.threshold)
            hits += (outcome.decision == ABOVE) == truth
        agreement_vs_exact = hits / len(outcomes)

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
) -> tuple[list[PairOutcome], ExperimentReport]:
    """Sign the referenced sets, then screen every pair."""
    signatures = sign_all(sets, pairs, cfg)
    return screen_signatures(signatures, pairs, cfg, baseline=baseline, sets=sets)


def outcomes_csv(pairs: Sequence[tuple[int, int]], outcomes: Sequence[PairOutcome]) -> str:
    """The outcomes as CSV, one row per pair.

    No field can contain a comma, quote or newline, so plain joins give the
    bytes csv.writer would. screen_batch shares one PairOutcome among pairs
    resolved alike, so each distinct object's tail of five fields is
    formatted once; the list keeps the objects alive, so id() is a safe key.
    """
    tails: dict[int, str] = {}
    lines = [",".join(OUTCOME_COLUMNS)]
    for index, ((id_a, id_b), outcome) in enumerate(zip(pairs, outcomes)):
        tail = tails.get(id(outcome))
        if tail is None:
            checkpoint = outcome.resolution_checkpoint
            tail = tails[id(outcome)] = (
                f"{outcome.decision},{outcome.resolution_kind},"
                f"{'' if checkpoint is None else checkpoint},"
                f"{outcome.comparisons_used},{outcome.estimate!r}"
            )
        lines.append(f"{index},{id_a},{id_b},{tail}")
    lines.append("")
    return "\n".join(lines)


def write_outcomes_csv(
    path: str, pairs: Sequence[tuple[int, int]], outcomes: Sequence[PairOutcome]
) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(outcomes_csv(pairs, outcomes))


def read_outcomes_csv(path: str) -> tuple[list[tuple[int, int]], list[PairOutcome]]:
    """Pairs and outcomes from an outcomes CSV. A malformed row fails with
    path:line (1-based, the header being line 1)."""
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != OUTCOME_COLUMNS:
            raise ValueError(f"{path}: not an outcomes CSV (header {header})")
        pairs: list[tuple[int, int]] = []
        outcomes: list[PairOutcome] = []
        for row in reader:
            try:
                pair, outcome = _parse_outcome_row(row)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            pairs.append(pair)
            outcomes.append(outcome)
    return pairs, outcomes


def _parse_outcome_row(row: list[str]) -> tuple[tuple[int, int], PairOutcome]:
    """One outcomes row as outcomes_csv writes it: a known decision and kind,
    an early row deciding as its kind says at a checkpoint (at least 1) equal
    to comparisons_used, plain decimal integers, an estimate in [0, 1] by repr."""
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
        parse_decimal(index)
        pair = (parse_decimal(id_a), parse_decimal(id_b))
        resolved_at = parse_decimal(checkpoint) if checkpoint else None
        outcome = PairOutcome(decision, kind, resolved_at, parse_decimal(used), float(estimate))
    except ValueError as exc:
        raise ValueError(f"bad number ({exc})") from None
    if resolved_at == 0:
        raise ValueError("resolution_checkpoint 0, expected at least 1")
    if resolved_at is not None and outcome.comparisons_used != resolved_at:
        raise ValueError(f"comparisons_used {used} differs from resolution_checkpoint {checkpoint}")
    if repr(outcome.estimate) != estimate:
        raise ValueError(f"estimate {estimate!r} is not written as {outcome.estimate!r}")
    if estimate.startswith("-") or not 0.0 <= outcome.estimate <= 1.0:
        raise ValueError(f"estimate {estimate!r} is not a number in [0, 1]")
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

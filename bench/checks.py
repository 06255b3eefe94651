"""Output checks: an independent numpy reference for every screening
decision, plus signature, cache and report checks.

The reference walks the same checkpoint rule as ``minscreen.screening`` but
computes every prefix match count directly from the signature matrix, so it
shares no screening code with the program. Cutoffs come from the program's
threshold table, whose values the repository's own tests pin.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from minscreen import minhash
from minscreen.screening import (
    ABOVE,
    BELOW,
    FILTERED_EARLY,
    FULL_COMPARISON,
    OUTPUT_EARLY,
    PairOutcome,
)

# Signature slots recomputed one token at a time: SAMPLE_SETS x SAMPLE_SLOTS.
SAMPLE_SETS = 8
SAMPLE_SLOTS = 8


class Ops:
    """Counts operations attempted and failed. An operation is one call of
    a user flow or library function whose output was checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{op}: {'; '.join(problems)}")


def signature_matrix(signatures: Mapping[int, minhash.Signature], n_sets: int) -> np.ndarray:
    """Rows are signatures of set ids 0..n_sets-1."""
    return np.stack([signatures[set_id].values for set_id in range(n_sets)])


@dataclass(frozen=True)
class Reference:
    """Expected outcome of every pair, early-exit and full-K."""

    screened: list[PairOutcome]
    baseline: list[PairOutcome]

    @property
    def total_comparisons(self) -> int:
        return sum(o.comparisons_used for o in self.screened)


def reference_screen(
    matrix: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    rows: Sequence[tuple[int, int | None, int]],
    threshold: float,
) -> Reference:
    """rows are (k, m_l, m_u) per checkpoint. The accept test runs before
    the discard test; a pair no checkpoint resolves is decided by its
    full-width match frequency."""
    k = matrix.shape[1]
    ids = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    points = np.array([row[0] for row in rows], dtype=np.int64)
    screened: list[PairOutcome] = []
    baseline: list[PairOutcome] = []
    chunk = max(1, 2_000_000 // k)
    for start in range(0, len(ids), chunk):
        a = matrix[ids[start : start + chunk, 0]]
        b = matrix[ids[start : start + chunk, 1]]
        prefix = np.cumsum(a == b, axis=1, dtype=np.int64)
        full = prefix[:, k - 1].tolist()
        at = prefix[:, points - 1].tolist() if len(points) else [[] for _ in full]
        for counts, x_full in zip(at, full):
            estimate = x_full / k
            full_outcome = PairOutcome(
                ABOVE if estimate >= threshold else BELOW, FULL_COMPARISON, None, k, estimate
            )
            baseline.append(full_outcome)
            for (point, m_l, m_u), x in zip(rows, counts):
                if x >= m_u:
                    screened.append(PairOutcome(ABOVE, OUTPUT_EARLY, point, point, x / point))
                    break
                if m_l is not None and x <= m_l:
                    screened.append(PairOutcome(BELOW, FILTERED_EARLY, point, point, x / point))
                    break
            else:
                screened.append(full_outcome)
    return Reference(screened, baseline)


def outcome_problems(
    label: str, got: Sequence[PairOutcome], expected: Sequence[PairOutcome]
) -> list[str]:
    if len(got) != len(expected):
        return [f"{label}: {len(got)} outcomes, expected {len(expected)}"]
    bad = [i for i, (g, x) in enumerate(zip(got, expected)) if g != x]
    if bad:
        return [f"{label}: {len(bad)} outcomes differ, first at pair {bad[0]}: "
                f"{got[bad[0]]} != {expected[bad[0]]}"]
    return []


def truth_decisions(exact: Sequence[Fraction], threshold: float) -> list[str]:
    return [ABOVE if j >= threshold else BELOW for j in exact]


def wrong_early(outcomes: Sequence[PairOutcome], truth: Sequence[str]) -> int:
    """Early decisions that disagree with the exact similarity."""
    return sum(
        1
        for o, t in zip(outcomes, truth)
        if o.resolution_kind != FULL_COMPARISON and o.decision != t
    )


def expected_report(
    ref: Reference,
    truth: Sequence[str],
    schedule: Sequence[int],
    k: int,
    baseline: bool,
) -> dict:
    """Report fields the program must reproduce exactly (JSON form)."""
    n = len(ref.screened)
    resolved_at = Counter(o.resolution_checkpoint for o in ref.screened)
    filtered_at = Counter(
        o.resolution_checkpoint for o in ref.screened if o.resolution_kind == FILTERED_EARLY
    )
    fr_strict, fr_resolved = {}, {}
    resolved = filtered = 0
    for point in schedule:
        resolved += resolved_at[point]
        filtered += filtered_at[point]
        fr_strict[str(point)] = filtered / n
        fr_resolved[str(point)] = resolved / n
    fields = {
        "n_pairs": n,
        "k": k,
        "schedule": list(schedule),
        "total_comparisons": ref.total_comparisons,
        "baseline_comparisons": n * k,
        "above_threshold_count": sum(o.decision == ABOVE for o in ref.screened),
        "fr_strict": fr_strict,
        "fr_resolved": fr_resolved,
        "accuracy": None,
        "agreement_vs_exact": None,
    }
    if baseline:
        fields["accuracy"] = sum(
            s.decision == f.decision for s, f in zip(ref.screened, ref.baseline)
        ) / n
        fields["agreement_vs_exact"] = sum(
            o.decision == t for o, t in zip(ref.screened, truth)
        ) / n
    return fields


def report_problems(label: str, report_text: str, expected: dict) -> list[str]:
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return [f"{label}: report is not JSON ({exc})"]
    problems = [
        f"{label}: report {key} = {report.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if report.get(key) != value
    ]
    wall = report.get("wall_time_ms")
    if not isinstance(wall, (int, float)) or wall <= 0:
        problems.append(f"{label}: report wall_time_ms = {wall!r}")
    return problems


def signature_problems(
    signatures: Mapping[int, minhash.Signature],
    sets: Mapping[int, frozenset[int]],
    family: minhash.HashFamily,
    seed: int,
) -> list[str]:
    """Every set has a signature from this family, and a seeded sample of
    (set, slot) values equals the per-token reference hash bit for bit."""
    problems = []
    if sorted(signatures) != sorted(sets):
        problems.append(f"signatures cover {len(signatures)} ids, sets {len(sets)}")
        return problems
    wrong_family = [i for i, sig in signatures.items()
                    if sig.fingerprint != family.fingerprint or sig.k != family.k]
    if wrong_family:
        problems.append(
            f"{len(wrong_family)} signatures not from the family, e.g. set {wrong_family[0]}")
    rng = random.Random(seed)
    for set_id in rng.sample(sorted(sets), min(SAMPLE_SETS, len(sets))):
        for slot in rng.sample(range(family.k), min(SAMPLE_SLOTS, family.k)):
            expected = min(
                minhash.slot_hash(t, int(family.key_add[slot]), int(family.key_mid[slot]))
                for t in sets[set_id]
            )
            got = int(signatures[set_id].values[slot])
            if got != expected:
                problems.append(f"set {set_id} slot {slot}: {got:#x} != slot_hash {expected:#x}")
    return problems


def same_signatures(
    a: Mapping[int, minhash.Signature], b: Mapping[int, minhash.Signature], ids
) -> list[str]:
    """a and b hold equal signatures for every id in ids."""
    bad = [i for i in ids if i not in a or i not in b
           or a[i].fingerprint != b[i].fingerprint
           or not np.array_equal(a[i].values, b[i].values)]
    return [f"{len(bad)} signatures differ, first set {bad[0]}"] if bad else []

"""The checkpoint-major batch walk against a per-pair reference walk, and the
checks screen_batch makes before it compares anything."""

import itertools
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from minscreen import harness, screening
from minscreen.binomial import ThresholdTable
from minscreen.cache import read_cache, write_cache
from minscreen.cli import main
from minscreen.harness import run_screen, screen_signatures
from minscreen.minhash import Signature, SignatureMatrix, make_family, sign, sign_many
from minscreen.sets import Pairs, pair_ids
from minscreen.screening import (
    ABOVE,
    BELOW,
    FILTERED_EARLY,
    FULL_COMPARISON,
    OUTPUT_EARLY,
    BatchSummary,
    PairOutcome,
    ScreenConfig,
    build_table,
    screen_batch,
)
from minscreen.workload import WorkloadSpec, gen_synthetic, parse_group, write_text

GOLDEN = Path(__file__).parent / "golden"


def oracle_compare_pair(
    a: Signature, b: Signature, table: ThresholdTable, cfg: ScreenConfig
) -> PairOutcome:
    """Pair-major reference: every prefix count from one cumulative sum,
    then the checkpoints in order, accept before discard."""
    prefix_matches = np.cumsum(a.values == b.values)
    for row in table.rows:
        x = int(prefix_matches[row.k - 1])
        if x >= row.m_u:
            return PairOutcome(ABOVE, OUTPUT_EARLY, row.k, row.k, x / row.k)
        if row.m_l is not None and x <= row.m_l:
            return PairOutcome(BELOW, FILTERED_EARLY, row.k, row.k, x / row.k)
    x = int(prefix_matches[cfg.k - 1])
    estimate = x / cfg.k
    decision = ABOVE if estimate >= cfg.threshold else BELOW
    return PairOutcome(decision, FULL_COMPARISON, None, cfg.k, estimate)


def oracle_screen_batch(pairs, signatures, cfg, table):
    outcomes = []
    filtered_at = {k: 0 for k in cfg.schedule}
    output_at = {k: 0 for k in cfg.schedule}
    full = 0
    total = 0
    above = []
    for id_a, id_b in pairs:
        outcome = oracle_compare_pair(signatures[id_a], signatures[id_b], table, cfg)
        outcomes.append(outcome)
        total += outcome.comparisons_used
        if outcome.resolution_kind == FILTERED_EARLY:
            filtered_at[outcome.resolution_checkpoint] += 1
        elif outcome.resolution_kind == OUTPUT_EARLY:
            output_at[outcome.resolution_checkpoint] += 1
        else:
            full += 1
        if outcome.decision == ABOVE:
            above.append((id_a, id_b))
    summary = BatchSummary(
        n_pairs=len(outcomes),
        total_comparisons=total,
        baseline_comparisons=len(outcomes) * cfg.k,
        filtered_at=filtered_at,
        output_at=output_at,
        full_comparisons=full,
        above_threshold=tuple(above),
    )
    return outcomes, summary


def listed(result):
    """screen_batch's result with its record as a list, to compare with
    oracle_screen_batch's."""
    outcomes, summary = result
    return list(outcomes), summary


def crafted_signatures(k: int, n: int, rng: np.random.Generator) -> dict[int, Signature]:
    """Signatures in a few groups: members of a group copy their group's
    base vector except for a random share of slots, so pairs within a group
    agree on anywhere from none to all of their slots. All are tagged with
    the default configuration's family."""
    bases = rng.integers(0, 2**63, size=(4, k), dtype=np.uint64)
    signatures = {}
    for i in range(n):
        values = bases[i % 4].copy()
        redrawn = rng.random(k) < rng.uniform(0.0, 0.7)
        values[redrawn] = rng.integers(2**63, 2**64 - 1, size=int(redrawn.sum()), dtype=np.uint64)
        values.setflags(write=False)
        signatures[1000 + 7 * i] = Signature(values, fingerprint=(ScreenConfig.master_seed, k))
    return signatures


def crafted_pairs(ids, n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random pairs, mostly within a group, plus self-pairs and repeats."""
    ids = list(ids)
    pairs = []
    for _ in range(n):
        a = int(rng.integers(len(ids)))
        b = a + 4 * int(rng.integers(-3, 4)) if rng.random() < 0.8 else int(rng.integers(len(ids)))
        pairs.append((ids[a], ids[b % len(ids)]))
    pairs += [(ids[0], ids[0]), (ids[5], ids[5])]
    pairs += pairs[:10]
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


CONFIGS = {
    "mid-schedule": ScreenConfig(threshold=0.5, e=1e-3, schedule=(50, 100, 150), k=200),
    "no-schedule": ScreenConfig(threshold=0.5, e=1e-3, schedule=(), k=200),
    "ends-at-k": ScreenConfig(threshold=0.4, e=1e-2, schedule=(40, 200), k=200),
    "ends-below-k": ScreenConfig(threshold=0.6, e=1e-3, schedule=(20, 60, 120), k=200),
    "ends-one-below-k": ScreenConfig(threshold=0.5, e=1e-2, schedule=(100, 199), k=200),
    "no-discard-rows": ScreenConfig(threshold=0.9, e=1e-12, schedule=(10, 20, 40, 120), k=200),
    "separate-e-upper": ScreenConfig(
        threshold=0.5, e=1e-6, e_upper=0.05, schedule=(25, 50, 100, 150), k=200
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_walk_matches_per_pair_walk(name):
    cfg = CONFIGS[name]
    rng = np.random.default_rng(sorted(CONFIGS).index(name))
    signatures = crafted_signatures(cfg.k, 40, rng)
    pairs = crafted_pairs(signatures, 300, rng)
    table = build_table(cfg)
    if name == "no-discard-rows":
        assert any(row.m_l is None for row in table.rows)
    expected = oracle_screen_batch(pairs, signatures, cfg, table)
    assert listed(screen_batch(pairs, signatures, cfg)) == expected
    outcomes, summary = expected
    kinds = {o.resolution_kind for o in outcomes}
    if cfg.schedule:
        assert kinds == {OUTPUT_EARLY, FILTERED_EARLY, FULL_COMPARISON} or name == "ends-at-k"
    else:
        assert kinds == {FULL_COMPARISON}
    assert 0 < len(summary.above_threshold) < len(pairs)


def signed_sets(k: int, n: int, rng: np.random.Generator):
    """n token sets drawn from four pools of 80 tokens, so that sets of one
    pool overlap anywhere from little to all, and their SignatureMatrix
    from a real family."""
    sets = {}
    for i in range(n):
        pool = np.arange(80, dtype=np.uint64) + 1000 * (i % 4)
        size = int(rng.integers(20, 81))
        sets[1000 + 7 * i] = frozenset(rng.choice(pool, size, replace=False).tolist())
    family = make_family(k, 5)
    return family, sets, sign_many(family, sets)


@pytest.mark.parametrize("name", ["mid-schedule", "no-schedule", "ends-below-k"])
def test_batch_walk_matches_across_many_small_blocks(name, monkeypatch, tmp_path):
    """Every input form gives the oracle's outcomes with comparison steps of
    three pairs, so that each interval between checkpoints is split into
    many steps."""
    cfg = replace(CONFIGS[name], master_seed=5)  # signed_sets' seed
    rng = np.random.default_rng(77)
    family, sets, matrix = signed_sets(cfg.k, 60, rng)
    write_cache(str(tmp_path / "sigs.mhsg"), 5, matrix)
    stored = read_cache(str(tmp_path / "sigs.mhsg")).signatures
    assert not stored.matrix.flags.c_contiguous
    plain = {set_id: sign(family, tokens) for set_id, tokens in sets.items()}
    pairs = crafted_pairs(sets, 400, rng)
    expected = oracle_screen_batch(pairs, plain, cfg, build_table(cfg))
    kinds = {o.resolution_kind for o in expected[0]}
    if cfg.schedule:
        assert kinds == {OUTPUT_EARLY, FILTERED_EARLY, FULL_COMPARISON}
    else:
        assert kinds == {FULL_COMPARISON}
    monkeypatch.setattr(screening, "_STEP_BYTES", 3 * 2 * 8 * 50)
    for signatures in (matrix, stored, plain):
        assert listed(screen_batch(pairs, signatures, cfg)) == expected


def test_count_matches_past_2_31_columns_sums_in_int64():
    """hi - lo >= 2**31 makes _gather_matches sum in int64. Column slicing
    clamps, so a 2 x 3 matrix with hi = 2**31 reads the same three columns
    as hi = 3, in one step a pair, and must add the same counts."""
    values = np.array([[1, 2, 3], [1, 5, 3]], dtype=np.uint64)
    a, b = np.array([0, 0, 1, 1]), np.array([1, 0, 0, 1])
    counts = []
    for hi in (3, 2**31):
        x = np.full(4, 7, dtype=np.int64)
        screening._gather_matches(values, a, b, 0, hi, x)
        counts.append(x.tolist())
    assert counts == [[9, 10, 9, 10]] * 2


def count_spy(monkeypatch) -> list[tuple[int, int, int]]:
    """Wrap screening._gather_matches, which sees each interval of a sparse
    walk once; each interval it counts appends (pairs, lo, hi)."""
    calls = []
    gather = screening._gather_matches

    def spy(values, a, b, lo, hi, x):
        calls.append((len(a), lo, hi))
        gather(values, a, b, lo, hi, x)

    monkeypatch.setattr(screening, "_gather_matches", spy)
    return calls


def test_walk_compares_no_column_past_the_last_checkpoint_reached(monkeypatch):
    """Each interval is compared once, for exactly the pairs still alive
    at its start, and the walk stops at the last checkpoint any pair
    reaches; with schedule=() every pair's K columns are compared once."""
    calls = count_spy(monkeypatch)
    rng = np.random.default_rng(9)
    signatures = crafted_signatures(200, 40, rng)
    pairs = crafted_pairs(signatures, 300, rng)
    for name in ("mid-schedule", "ends-below-k", "ends-at-k", "no-schedule"):
        calls.clear()
        outcomes, summary = screen_batch(pairs, signatures, CONFIGS[name])
        used = [o.comparisons_used for o in outcomes]
        assert [lo for _, lo, _ in calls] == [0] + [hi for _, _, hi in calls[:-1]]
        assert all(lo < hi for _, lo, hi in calls)
        assert calls[-1][2] == max(used)
        for alive, _, hi in calls:
            assert alive == sum(u >= hi for u in used)
        assert sum(n * (hi - lo) for n, lo, hi in calls) == summary.total_comparisons
    assert calls == [(len(pairs), 0, 200)]
    # Self-pairs all resolve as accepted at the first checkpoint.
    calls.clear()
    self_pairs = [(i, i) for i in sorted(signatures)[:12]]
    outcomes, _ = screen_batch(self_pairs, signatures, CONFIGS["mid-schedule"])
    assert {o.resolution_checkpoint for o in outcomes} == {50}
    assert calls == [(12, 0, 50)]


def test_empty_pair_list_matches_reference():
    cfg = CONFIGS["mid-schedule"]
    assert listed(screen_batch([], {}, cfg)) == oracle_screen_batch([], {}, cfg, build_table(cfg))


@pytest.mark.parametrize("t", [0.1, 0.3, 1 / 3, 0.5, 0.7, 0.9, 1 - 2**-53])
def test_full_need_is_the_least_count_a_full_comparison_accepts(t):
    """need is the first x in [0, k] whose estimate x / k reaches t, found
    here by trying every x: the float rule of a full comparison."""
    for k in [*range(1, 2001), 4000]:
        accepted = np.arange(k + 1) / k >= t
        assert screening._full_need(t, k) == int(np.argmax(accepted)), (t, k)


BASELINE_CONFIGS = {
    **{name: CONFIGS[name] for name in ("no-schedule", "ends-at-k", "no-discard-rows")},
    "one-checkpoint": ScreenConfig(threshold=0.5, e=1e-2, schedule=(60,), k=200),
    "separate-e-upper": CONFIGS["separate-e-upper"],
    "tiny-e": ScreenConfig(threshold=0.5, e=1e-12, schedule=(20, 50, 100, 150, 180), k=200),
}


@pytest.mark.parametrize("name", sorted({*CONFIGS, *BASELINE_CONFIGS}))
def test_cutoffs_are_the_table_rows_then_the_full_comparison(name):
    """The walk's stops are the checkpoints and then k. A checkpoint's
    cutoffs are its table row's m_l, or -1 where the row has none, and m_u;
    k's are need - 1 and need, so a count at k resolves exactly as the full
    comparison's float rule decides. A config made by replace builds its
    own list."""
    cfg = {**CONFIGS, **BASELINE_CONFIGS}[name]
    stops, lower, upper = cfg._cutoffs
    assert stops == (*cfg.schedule, cfg.k)
    assert len(lower) == len(upper) == len(stops)
    for row, low, up in zip(cfg.table.rows, lower.tolist(), upper.tolist()):
        assert low == (-1 if row.m_l is None else row.m_l) and up == row.m_u
    if name == "no-discard-rows":
        assert -1 in lower.tolist()
    need = screening._full_need(cfg.threshold, cfg.k)
    assert (lower[-1], upper[-1]) == (need - 1, need)
    assert (need - 1) / cfg.k < cfg.threshold <= need / cfg.k
    assert cfg._cutoffs is cfg._cutoffs
    copy = replace(cfg)
    assert copy._cutoffs is not cfg._cutoffs
    assert copy._cutoffs[0] == stops
    assert all(np.array_equal(c, o) for c, o in zip(copy._cutoffs[1:], (lower, upper)))
    moved = replace(cfg, threshold=cfg.threshold + 0.05)
    assert moved._cutoffs[2][-1] == screening._full_need(moved.threshold, cfg.k)
    assert moved._cutoffs[2][-1] > need


def boundary_signatures(k: int, need: int) -> dict[int, Signature]:
    """Signature 0 and signatures that match it in exactly the first or the
    last m slots, m within 3 of need or of k - need: pairs with 0 whose
    counts meet need, or fall short of it by exactly the slots left, at
    some stop."""
    base = np.arange(k, dtype=np.uint64)
    signatures = {0: base}
    for m in {*range(need - 3, need + 4), *range(k - need - 3, k - need + 4)} & set(range(k + 1)):
        for ident, matched in ((2 * m + 1, np.arange(k) < m), (2 * m + 2, np.arange(k) >= k - m)):
            signatures[ident] = np.where(matched, base, base + np.uint64(k))
    fingerprint = (ScreenConfig.master_seed, k)
    for values in signatures.values():
        values.setflags(write=False)
    return {i: Signature(values, fingerprint=fingerprint) for i, values in signatures.items()}


@pytest.mark.parametrize("name", sorted(BASELINE_CONFIGS))
def test_one_walk_baseline_agrees_with_a_separate_full_screen(name, monkeypatch):
    """With baseline=True the outcomes and summary are those of a plain
    screen, and agree_with_full is the agreement with a separate
    schedule=() screen. Per pair, the walk's settled full-width decision is
    the full count's, and the walk reads each pair up to the first stop, at
    or after the one that resolves it, where its full-width decision is
    certain. tiny-e has m_u above need, so a pair can be settled above
    while the table still walks it. The pairs include self-pairs, repeats
    and pairs that meet the settling rules with equality."""
    cfg = BASELINE_CONFIGS[name]
    table = build_table(cfg)
    need = screening._full_need(cfg.threshold, cfg.k)
    if name == "no-discard-rows":
        assert any(row.m_l is None for row in table.rows)
    if name == "tiny-e":
        assert any(row.m_u > need for row in table.rows)
    rng = np.random.default_rng(sorted(BASELINE_CONFIGS).index(name) + 40)
    signatures = crafted_signatures(cfg.k, 40, rng)
    pairs = crafted_pairs(signatures, 300, rng)
    boundary = boundary_signatures(cfg.k, need)
    signatures.update(boundary)
    pairs += [(0, i) for i in sorted(boundary)]
    plain = screen_batch(pairs, signatures, cfg)
    calls = count_spy(monkeypatch)
    outcomes, summary = screen_batch(pairs, signatures, cfg, baseline=True)
    assert listed(plain) == (list(outcomes), replace(summary, agree_with_full=None))
    full, _ = screen_batch(pairs, signatures, replace(cfg, schedule=()))
    agree = sum(o.decision == f.decision for o, f in zip(outcomes, full))
    assert summary.agree_with_full == agree
    if name == "no-schedule":
        assert agree == len(pairs)

    ids = sorted(signatures)
    values = np.stack([signatures[i].values for i in ids])
    a = np.searchsorted(ids, [i for i, _ in pairs])
    b = np.searchsorted(ids, [j for _, j in pairs])
    prefix = np.cumsum(values[a] == values[b], axis=1)
    stops = sorted({*cfg.schedule, cfg.k})
    read = 0
    for counts, outcome in zip(prefix.tolist(), outcomes):
        read += next(
            stop
            for stop in stops
            if stop >= outcome.comparisons_used
            and (counts[stop - 1] >= need or counts[stop - 1] + cfg.k - stop < need)
        )
    calls.clear()
    _, _, full_above = screening._walk(values, a, b, cfg._cutoffs, baseline=True)
    assert sum(n * (hi - lo) for n, lo, hi in calls) == read
    assert full_above.tolist() == (prefix[:, -1] >= need).tolist()


def test_one_walk_baseline_of_an_empty_batch():
    cfg = CONFIGS["mid-schedule"]
    outcomes, summary = screen_batch([], {}, cfg, baseline=True)
    assert list(outcomes) == [] and summary.agree_with_full == 0
    assert screen_batch([], {}, cfg)[1].agree_with_full is None


def test_one_walk_baseline_stops_when_the_full_decision_is_certain(monkeypatch):
    """Token-disjoint pairs match in no slot. At T = 0.5 and K = 1000 they
    are discarded at checkpoint 100, and their full-width decision is
    certain at 600, where 0 matches plus the 400 slots left fall short of
    need = 500: with baseline=True no column at or past 600 is read."""
    calls = count_spy(monkeypatch)
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=tuple(range(100, 1000, 100)), k=1000)
    sets = {i: frozenset(range(30 * i, 30 * i + 30)) for i in range(12)}
    signatures = sign_many(make_family(cfg.k, cfg.master_seed), sets)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    outcomes, summary = screen_batch(pairs, signatures, cfg, baseline=True)
    assert {(o.resolution_kind, o.resolution_checkpoint) for o in outcomes} == {
        (FILTERED_EARLY, 100)
    }
    assert summary.agree_with_full == len(pairs)
    late = [(len(pairs), lo, lo + 100) for lo in range(100, 600, 100)]
    assert calls == [(len(pairs), 0, 100), *late]


def test_a_screened_record_reads_like_a_list():
    """screen_batch builds no PairOutcome: the record builds one per key
    when it is read. Indexing (negative too), slicing, iteration and
    reversal agree; its arrays cannot be written. One outcome can be
    replaced, as in a list, and is then read back; the walk's arrays and
    above() keep the walk's results."""
    cfg = replace(CONFIGS["mid-schedule"])  # none of the outcomes other tests built
    rng = np.random.default_rng(6)
    signatures = crafted_signatures(cfg.k, 20, rng)
    pairs = crafted_pairs(signatures, 50, rng)
    outcomes, summary = screen_batch(pairs, signatures, cfg)
    assert isinstance(outcomes, screening.Screened) and cfg._outcomes == {}
    listed_outcomes = list(outcomes)
    assert len(cfg._outcomes) == len({o for o in listed_outcomes}) < len(pairs)
    assert listed_outcomes == oracle_screen_batch(pairs, signatures, cfg, cfg.table)[0]
    assert [outcomes[i] for i in range(-len(pairs), len(pairs))] == listed_outcomes * 2
    assert outcomes[3:40:7] == listed_outcomes[3:40:7]
    assert list(reversed(outcomes)) == listed_outcomes[::-1]
    assert outcomes.ids.tolist() == [list(pair) for pair in pairs]
    above = [o.decision == ABOVE for o in listed_outcomes]
    assert outcomes.above().tolist() == above
    assert sum(above) == len(summary.above_threshold)
    with pytest.raises(IndexError):
        outcomes[len(pairs)]
    for array in (outcomes.ids, outcomes.resolved_at, outcomes.counts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    walked = [array.copy() for array in (outcomes.resolved_at, outcomes.counts)]
    doctored = replace(listed_outcomes[0], decision=BELOW if above[0] else ABOVE)
    outcomes[0] = doctored
    outcomes[-1] = listed_outcomes[1]
    expected = [doctored, *listed_outcomes[1:-1], listed_outcomes[1]]
    assert list(outcomes) == expected and outcomes[0] is doctored
    assert outcomes[-1] is listed_outcomes[1] and outcomes[:] == expected
    assert all(doctored is not o for o in cfg._outcomes.values())
    assert [outcomes.resolved_at.tolist(), outcomes.counts.tolist()] == [
        array.tolist() for array in walked
    ]
    assert outcomes.above().tolist() == above
    with pytest.raises(IndexError):
        outcomes[len(pairs)] = doctored
    with pytest.raises(TypeError):
        outcomes[0:1] = [doctored]


def test_pairs_resolving_alike_share_one_outcome():
    """Pairs that resolve alike share one outcome, within a call and across
    the calls under one configuration, baseline=True included; a config
    made by replace builds its own."""
    cfg = replace(CONFIGS["mid-schedule"])  # none of the outcomes other tests built
    rng = np.random.default_rng(5)
    signatures = crafted_signatures(cfg.k, 10, rng)
    ids = sorted(signatures)
    outcomes, _ = screen_batch([(ids[0], ids[0]), (ids[3], ids[3])], signatures, cfg)
    assert outcomes[0] is outcomes[1]
    assert outcomes[0] == PairOutcome(ABOVE, OUTPUT_EARLY, 50, 50, 1.0)
    pairs = crafted_pairs(signatures, 60, rng)
    first, summary = screen_batch(pairs, signatures, cfg)
    assert first[pairs.index((ids[0], ids[0]))] is outcomes[0]
    again, _ = screen_batch(pairs[::-1], signatures, cfg)
    assert all(a is b for a, b in zip(first, reversed(again)))
    kept, kept_summary = screen_batch(pairs, signatures, cfg, baseline=True)
    assert all(a is b for a, b in zip(first, kept))
    assert replace(kept_summary, agree_with_full=None) == summary
    assert list(first) == oracle_screen_batch(pairs, signatures, cfg, cfg.table)[0]
    other, _ = screen_batch(pairs, signatures, replace(cfg, e=2e-3))
    assert {id(o) for o in other}.isdisjoint(map(id, first))
    assert len(cfg._outcomes) <= (len(cfg.schedule) + 1) * (cfg.k + 1)


@pytest.mark.parametrize("name", ["mid-schedule", "no-schedule"])
def test_pairs_screen_and_write_as_the_equal_list_does(name, tmp_path):
    """A Pairs, as load_pairs gives it, is screened and written as the equal
    list of tuples: the same walk arrays and summary, with and without
    baseline, and the same CSV bytes. The record keeps the Pairs' ids."""
    cfg = CONFIGS[name]
    rng = np.random.default_rng(12)
    signatures = crafted_signatures(cfg.k, 40, rng)
    listed_pairs = crafted_pairs(signatures, 300, rng)
    pairs = Pairs(np.array(listed_pairs, dtype=np.uint64))
    for baseline in (False, True):
        written = []
        for given in (listed_pairs, pairs):
            outcomes, summary = screen_batch(given, signatures, cfg, baseline=baseline)
            path = tmp_path / f"{type(given).__name__}.csv"
            harness.write_outcomes_csv(str(path), given, outcomes)
            arrays = [outcomes.ids, outcomes.resolved_at, outcomes.counts]
            written.append(([a.tolist() for a in arrays], summary, path.read_bytes()))
        assert written[0] == written[1]
        assert np.shares_memory(outcomes.ids, pairs.ids)
        assert 0 < len(summary.above_threshold) < len(pairs)
        assert all(type(v) is int for pair in summary.above_threshold for v in pair)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_entries_are_the_same_by_table_and_by_sort(extra, monkeypatch):
    """Screened.entries looks the keys up in a table over the key space,
    stops·(k + 1), when that is no larger than the number of pairs (the
    join workload: 10,010 keys, 101,025 pairs), and sorts them by np.unique
    otherwise. Both give the distinct keys' outcomes in key order and each
    pair's index among them, which __setitem__ can then change."""
    cfg = ScreenConfig(threshold=0.5, e=0.2, schedule=(4,), k=8)
    stops = np.array(cfg._cutoffs[0])
    space = len(stops) * (cfg.k + 1)
    rng = np.random.default_rng(space + extra)
    resolved_at = rng.integers(0, len(stops), space + extra)
    counts = rng.integers(0, stops[resolved_at] + 1)
    ids = np.zeros((space + extra, 2), dtype=np.uint64)
    record = screening.Screened(cfg, ids, resolved_at, counts)
    unique, sorts = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *args, **kw: sorts.append(args) or unique(*args, **kw))
    outcomes, which = record.entries
    assert len(sorts) == (extra < 0)
    distinct, inverse = unique(resolved_at * (cfg.k + 1) + counts, return_inverse=True)
    assert len(distinct) < space + extra
    assert outcomes == [screening._outcome(key, cfg) for key in distinct.tolist()]
    assert which.tolist() == inverse.tolist()
    record[0] = outcomes[-1]
    assert record[0] is outcomes[-1] and which[0] == len(distinct)


def _one_in_39_signatures(k: int = 1000):
    family = make_family(k, 42)
    a = sign(family, set(range(20)))
    b = sign(family, set(range(19, 39)))
    return a, b


def test_reduced_signatures_are_refused(tmp_path, capsys):
    """Only full-width signatures exist: a J = 1/39 pair is discarded at the
    first checkpoint, and the b-bit caches earlier releases wrote (golden
    files, see test_cache) are refused by screen --cache with exit 1."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, k=1000)
    a, b = _one_in_39_signatures()
    full, _ = screen_batch([(1, 2)], {1: a, 2: b}, cfg)
    assert full[0].resolution_kind == FILTERED_EARLY
    assert full[0].resolution_checkpoint == 100
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n2 3\n")
    for bits in (1, 8):
        path = GOLDEN / f"sign_k64_seed42_b{bits}.mhsg"
        args = ["screen", "--cache", str(path), "--pairs", str(pairs), "--schedule", "32"]
        assert main([*args, "--out", str(tmp_path / "out.csv")]) == 1
        assert f"{path}: corrupt cache" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


OUTSIDE_U64 = [-5, 2**64, 2**70]


@pytest.mark.parametrize("missing", OUTSIDE_U64)
def test_unknown_ids_outside_uint64_are_named(missing):
    """An id outside the unsigned 64-bit range is named by sets.as_u64."""
    cfg = ScreenConfig(schedule=(), k=1000)
    a, b = _one_in_39_signatures()
    signatures = {0: a, 1: b}
    message = f"^set id {missing} outside unsigned 64-bit range$"
    with pytest.raises(ValueError, match=message):
        screen_batch([(0, 1), (1, missing)], signatures, cfg)
    with pytest.raises(ValueError, match=message):
        screen_signatures(signatures, [(missing, 0)], cfg)


def test_first_missing_id_in_pair_order_is_named():
    cfg = ScreenConfig(schedule=(), k=1000)
    a, b = _one_in_39_signatures()
    for pairs in ([(0, 1), (1, 8), (9, 0)], [(0, 1), (1, 8), (3, 0)]):
        with pytest.raises(ValueError, match="^no signature for set id 8$"):
            screen_batch(pairs, {0: a, 1: b}, cfg)


def test_signing_names_the_first_unknown_id_in_pair_order():
    """screen --sets signs the sets the pairs reference; an id with no set
    is named in pair order, before any sorting of the ids. An id that is no
    set id is named as sets.as_u64 names it, before any id is looked up."""
    cfg = ScreenConfig(schedule=(), k=100)
    sets = {0: {1, 2}, 1: {2, 3}}
    for pairs, message in (
        ([(0, 1), (1, 9), (5, 0)], "pair list references unknown set id 9"),
        ([(0, "a"), (1, 2)], "set id 'a' is not an integer"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_screen(sets, pairs, cfg)


def test_non_integer_ids_are_named_not_truncated():
    """A non-integer id is named by sets.as_u64, not screened as set 1,
    which is present, nor reported as an id without a signature."""
    cfg = ScreenConfig(schedule=(), k=1000)
    a, b = _one_in_39_signatures()
    for bad in (1.5, 1.0, "1"):
        message = f"^set id {re.escape(repr(bad))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            screen_batch([(0, 1), (0, bad)], {0: a, 1: b}, cfg)


NOT_TWO_IDS = [
    ([(0, 1, 2), (5,)], "pair 0 is (0, 1, 2), not two set ids"),
    ([(0, 1), (2, 5, 4)], "pair 1 is (2, 5, 4), not two set ids"),
    ([(0,), (2, 5)], "pair 0 is (0,), not two set ids"),
]


@pytest.mark.parametrize("pairs, message", NOT_TWO_IDS)
def test_a_pair_is_exactly_two_set_ids(pairs, message):
    """A malformed pair is named by its index, not screened as the ids
    that happen to fall into its place."""
    a, b = _one_in_39_signatures()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        screen_batch(pairs, {0: a, 1: b}, ScreenConfig(schedule=(), k=1000))


@pytest.mark.parametrize(
    "pairs",
    [pairs for pairs, _ in NOT_TWO_IDS]
    + [pairs for bad in OUTSIDE_U64 for pairs in ([(0, 1), (1, bad)], [(bad, 0)])],
)
def test_run_screen_refuses_a_malformed_list_before_signing(pairs, monkeypatch):
    """A list that is not pairs of set ids gets screen_batch's message from
    run_screen, and no set is signed."""
    cfg = ScreenConfig(schedule=(), k=1000)
    a, b = _one_in_39_signatures()
    with pytest.raises(ValueError) as expected:
        screen_batch(pairs, {0: a, 1: b}, cfg)
    signed = []
    monkeypatch.setattr(harness, "sign_many", lambda *args: signed.append(args))
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        run_screen({0: {1, 2}, 1: {2, 3}}, pairs, cfg)
    assert signed == []


def test_cli_names_an_id_above_uint64_range(tmp_path, capsys):
    sets_path = tmp_path / "sets.txt"
    sets_path.write_text("1 2 3\n2 3 4\n")
    cache_path = str(tmp_path / "sigs.mhsg")
    assert main(["sign", "--sets", str(sets_path), "--k", "100", "--out", cache_path]) == 0
    pairs_path = str(tmp_path / "pairs.txt")
    write_text(pairs_path, f"0 1\n1 {2**64}\n")  # write_pairs refuses the id
    args = ["screen", "--cache", cache_path, "--pairs", pairs_path, "--schedule", "50"]
    assert main(args + ["--out", str(tmp_path / "o.csv")]) == 1
    message = f"error: {pairs_path}:2: set id {2**64} outside unsigned 64-bit range\n"
    assert capsys.readouterr().err == message


def test_mixed_families_are_checked_per_pair():
    """A batch's signatures come from one family of the configured length:
    a mapping that spans two families is refused even where each pair
    shares one."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100,), k=1000)
    a, b = _one_in_39_signatures()
    other = sign(make_family(1000, 7), {1, 2, 3})
    signatures = {0: a, 1: b, 2: other}
    for pairs in ([(0, 1), (2, 2)], [(0, 1), (0, 2)]):
        with pytest.raises(ValueError, match="different hash families"):
            screen_batch(pairs, signatures, cfg)
    short = Signature(values=a.values[:500], fingerprint=a.fingerprint)
    with pytest.raises(ValueError, match="cannot mix signature lengths 500 and 1000"):
        screen_batch([(0, 1)], {0: a, 1: b, 3: short}, cfg)
    short_cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100,), k=500)
    with pytest.raises(ValueError, match="expected signatures of length 500, got 1000"):
        screen_batch([(0, 1)], {0: a, 1: b}, short_cfg)


def test_a_batch_from_another_seed_is_refused(tmp_path):
    """Signatures of the configured length but another seed's family are
    refused, as a matrix, as a dict and as a read cache, with an error that
    names both families; the same batch screens under its own seed."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100,), k=1000)
    matrix = sign_many(make_family(1000, 7), {0: set(range(20)), 1: set(range(19, 39))})
    write_cache(str(tmp_path / "seven.mhsg"), 7, matrix)
    stored = read_cache(str(tmp_path / "seven.mhsg")).signatures
    message = "expected hash family (seed, k) = (42, 1000), got (7, 1000)"
    for signatures in (matrix, dict(matrix), stored):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            screen_batch([(0, 1)], signatures, cfg)
    outcomes, _ = screen_batch([(0, 1)], stored, replace(cfg, master_seed=7))
    assert outcomes[0].resolution_kind == FILTERED_EARLY


def _near_threshold_pair(k: int = 300):
    """Two crafted signatures matching on 27 of every 50 slots: J is about
    0.54 at every checkpoint of (100, 200, 300)."""
    base = np.arange(1, k + 1, dtype=np.uint64)
    other = base + np.uint64(10_000_000)
    matching = [i for i in range(k) if i % 50 < 27]
    other[matching] = base[matching]
    family = (ScreenConfig.master_seed, k)
    return {0: Signature(values=base, fingerprint=family),
            1: Signature(values=other, fingerprint=family)}


def test_a_table_for_another_configuration_is_refused():
    """A table solved for T = 0.95 would discard this J = 0.54 pair at
    k = 100; the config's own table decides it above T after all 300 slots."""
    schedule = (100, 200, 300)
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=schedule, k=300)
    signatures = _near_threshold_pair()
    own = PairOutcome(ABOVE, FULL_COMPARISON, None, 300, 0.54)
    equal = screening.build_threshold_table(0.5, 1e-3, schedule, 1e-3)
    for table in (None, cfg.table, equal):
        outcomes, _ = screen_batch([(0, 1)], signatures, cfg, table)
        assert list(outcomes) == [own]
    foreign = [
        screening.build_threshold_table(0.95, 1e-3, schedule),
        screening.build_threshold_table(0.5, 1e-2, schedule),
        screening.build_threshold_table(0.5, 1e-3, schedule, 1e-2),
        screening.build_threshold_table(0.5, 1e-3, (100, 200)),
    ]
    for table in foreign:
        with pytest.raises(ValueError, match="does not match the configuration's table"):
            screen_batch([(0, 1)], signatures, cfg, table)


def test_a_config_builds_its_table_once_and_keeps_its_value_semantics():
    cfg = ScreenConfig(threshold=0.5, e=1e-3, e_upper=1e-2, schedule=(100, 200), k=300)
    table = build_table(cfg)
    assert table is cfg.table is build_table(cfg)
    assert table == screening.build_threshold_table(0.5, 1e-3, (100, 200), 1e-2)
    twin = ScreenConfig(threshold=0.5, e=1e-3, e_upper=1e-2, schedule=(100, 200), k=300)
    assert cfg == twin and hash(cfg) == hash(twin)
    assert "table" not in asdict(cfg)
    narrower = replace(cfg, schedule=(100,))
    assert narrower.table.checkpoints == (100,)
    assert cfg.table is table


def test_screen_signatures_reuses_a_table_built_before(monkeypatch):
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100, 200, 300), k=300)
    build_table(cfg)
    calls = []
    original = screening.build_threshold_table

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(screening, "build_threshold_table", spy)
    signatures = _near_threshold_pair()
    outcomes, report = screen_signatures(signatures, [(0, 1), (1, 0)], cfg)
    assert calls == []
    assert report.e_upper == 1e-3
    # A new config with the same fields has its own table, built once.
    twin = replace(cfg)
    assert list(screen_signatures(signatures, [(0, 1), (1, 0)], twin)[0]) == list(outcomes)
    screen_batch([(0, 1)], signatures, twin)
    assert calls == [(0.5, 1e-3, (100, 200, 300), None)]


def test_a_baseline_run_screens_once(monkeypatch):
    """run_screen with baseline=True makes one screen_batch call, and its
    accuracy is the share of pairs on which a separate schedule=() screen
    decides alike."""
    # master_seed is signed_sets' seed.
    cfg = ScreenConfig(threshold=0.5, e=0.2, schedule=(10, 20, 40), k=200, master_seed=5)
    rng = np.random.default_rng(12)
    family, sets, _ = signed_sets(cfg.k, 40, rng)
    pairs = crafted_pairs(sets, 300, rng)
    calls = []
    original = harness.screen_batch

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "screen_batch", spy)
    outcomes, report = run_screen(sets, pairs, cfg, baseline=True)
    assert calls == [{"baseline": True}]
    full, _ = screen_batch(pairs, sign_many(family, sets), replace(cfg, schedule=()))
    agree = sum(o.decision == f.decision for o, f in zip(outcomes, full))
    assert report.accuracy == agree / len(pairs) < 1.0


def reference_counts(signatures, pairs, lo, hi):
    """Per pair, by set id, the equal slots in columns [lo, hi)."""
    return [
        int((signatures[i].values[lo:hi] == signatures[j].values[lo:hi]).sum()) for i, j in pairs
    ]


def collision_spy(monkeypatch):
    """Wrap screening._count_collisions; each call appends (pairs, matrix
    rows, lo, hi, whether it counted)."""
    calls = []
    count = screening._count_collisions

    def spy(values, a, b, lo, hi, x):
        counted = count(values, a, b, lo, hi, x)
        calls.append((len(a), len(values), lo, hi, counted))
        return counted

    monkeypatch.setattr(screening, "_count_collisions", spy)
    return calls


def sweep_case(rng: np.random.Generator, clustered: bool = False):
    """Signatures under gapped set ids and pairs among them, with
    duplicate, reversed and self pairs. Half the cases have 1–4 distinct
    values per column (runs of three or more, all-equal columns); the
    others draw each slot from one of a few shared values or a fresh one.
    A clustered case is a block of near-duplicates: 30 rows, each sharing
    30–80% of its slots with the first row, the others fresh."""
    rows, k = (30 if clustered else int(rng.integers(1, 25))), int(rng.integers(1, 41))
    if clustered:
        values = rng.integers(2**32, 2**64 - 1, size=(rows, k), dtype=np.uint64)
        shared = rng.random((rows, k)) < rng.uniform(0.3, 0.8, size=(rows, 1))
        values[shared] = np.broadcast_to(values[0], (rows, k))[shared]
    elif rng.random() < 0.5:
        distinct = rng.integers(1, 5, size=k)
        values = (rng.integers(0, 4, size=(rows, k)) % distinct).astype(np.uint64)
    else:
        values = rng.integers(2**32, 2**64 - 1, size=(rows, k), dtype=np.uint64)
        shared = rng.random((rows, k)) < rng.uniform(0.0, 0.9)
        values[shared] = rng.integers(0, 3, size=int(shared.sum())).astype(np.uint64)
    ids = np.cumsum(rng.integers(2, 9, size=rows)) + 2**40
    signatures = {int(i): Signature(v, fingerprint=(42, k)) for i, v in zip(ids, values)}
    ids = ids.tolist()
    pairs = [
        (ids[i], ids[j]) for i, j in rng.integers(0, rows, size=(int(rng.integers(1, 60)), 2))
    ]
    pairs += [(b, a) for a, b in pairs[:5]] + pairs[:5] + [(ids[0], ids[0])]
    lo = int(rng.integers(0, k))
    return signatures, pairs, lo, int(rng.integers(lo + 1, k + 1))


def test_collision_counts_equal_the_gathered_counts(monkeypatch):
    """A seeded sweep of 240 cases, then 20 clustered ones: two stops that
    split [lo, hi), counted as _walk counts them (_collide until it returns
    False, then _gather_matches), add each pair's equal slots there, as a
    per-pair reference counts them, both when the batch is gathered (these
    batches are too small to be dense) and when every batch is made dense,
    with the columns counted 7 at a time. In the first 240 cases no run of
    collisions is declined; in a clustered block the first tile is declined
    and the rest of the walk is gathered. Rows are found by search, since
    the set ids have gaps."""
    rng = np.random.default_rng(2024)
    calls = collision_spy(monkeypatch)
    for case in range(260):
        clustered = case >= 240
        signatures, pairs, lo, hi = sweep_case(rng, clustered)
        matrix = SignatureMatrix.stack(signatures)
        assert matrix._first is None or len(matrix) == 1
        rows = matrix.rows(pair_ids(pairs)).reshape(-1, 2)
        start = rng.integers(0, 50, size=len(pairs))
        expected = (start + reference_counts(signatures, pairs, lo, hi)).tolist()
        mid = (lo + hi + 1) // 2
        stops = [(lo, mid), (mid, hi)] if mid < hi else [(lo, hi)]
        for dense in (False, True):
            calls.clear()
            x = start.copy()
            with monkeypatch.context() as patch:
                if dense:
                    patch.setattr(screening, "_DENSE_PAIRS", 1)
                    patch.setattr(screening, "_DENSE_TABLE", 10**6)
                    patch.setattr(screening, "_COLLISION_COLUMNS", 7)
                    if not clustered:
                        patch.setattr(screening, "_COLLISION_COST", 0)
                collide = True
                for first, end in stops:
                    args = (matrix.matrix, rows[:, 0], rows[:, 1], first, end, x)
                    if collide:
                        collide = screening._collide(*args)
                    else:
                        screening._gather_matches(*args)
            assert x.tolist() == expected, case
            tiles = [
                (len(pairs), len(matrix), s, min(s + 7, end), not clustered)
                for first, end in stops
                for s in range(first, end, 7)
            ]
            assert calls == ((tiles[:1] if clustered else tiles) if dense else []), case


def test_an_all_equal_block_is_gathered(monkeypatch):
    """1,000 pairs over 60 rows are dense, but in a block whose columns are
    all equal every two rows collide in every slot: the runs hold far more
    row pairs than the 1,000·w comparisons, so the collision counter
    declines and the gather counts w per pair. Over an interval of two
    128-column tiles, only the all-equal tile is gathered."""
    calls = collision_spy(monkeypatch)
    rng = np.random.default_rng(5)
    values = rng.integers(0, 2**64 - 1, size=(60, 256), dtype=np.uint64)
    values[:, 128:] = values[0, 128:]
    a, b = rng.integers(0, 60, size=(2, 1000))
    x = np.zeros(1000, dtype=np.int64)
    assert not screening._collide(values, a, b, 128, 256, x)
    assert calls == [(1000, 60, 128, 256, False)]
    assert x.tolist() == [128] * 1000
    calls.clear()
    x[:] = 0
    assert not screening._collide(values, a, b, 0, 256, x)
    assert calls == [(1000, 60, 0, 128, True), (1000, 60, 128, 256, False)]
    assert x.tolist() == np.where(a == b, 256, 128).tolist()


def gen_sets(per_group: int) -> dict[int, frozenset[int]]:
    """gen's seed-7 sets of 15–25 tokens, per_group pairs at each of
    J = 1/10, 1/2 and 9/10, as the benchmark generates them."""
    groups = tuple(parse_group(f"{j}:{per_group}:15-25") for j in ("1/10", "1/2", "9/10"))
    sets, _ = gen_synthetic(WorkloadSpec(groups=groups, seed=7))
    return sets


def test_a_dense_batch_is_counted_from_collisions(monkeypatch):
    """All 1,770 pairs of 60 gen sets are dense: the walk counts the first
    interval from collisions. Without baseline, only 10 pairs are left after
    it, too few to be dense, and the rest of the walk is gathered; with
    baseline a pair stays until its full-width decision is certain, which
    none is before 300, so [0, 100), [100, 200) and [200, 300) are all
    counted from collisions. With and without baseline, and with an empty
    schedule, its records equal the per-pair oracle's, and those of the
    same pairs screened 100 at a time, which are too few to be dense. The
    same pairs among 60 of 660 signed sets are not dense for the 660-row
    matrix and are gathered."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100, 200, 300), k=400)
    sets = gen_sets(10)
    signatures = sign_many(make_family(cfg.k, cfg.master_seed), sets)
    pairs = list(itertools.combinations(sorted(sets), 2))
    assert len(pairs) == 1770
    expected = oracle_screen_batch(pairs, signatures, cfg, cfg.table)
    calls = collision_spy(monkeypatch)
    chunked = []
    for offset in range(0, len(pairs), 100):
        chunked += screen_batch(pairs[offset : offset + 100], signatures, cfg)[0]
    assert calls == []
    assert chunked == expected[0]
    for baseline in (False, True):
        calls.clear()
        outcomes, summary = screen_batch(pairs, signatures, cfg, baseline=baseline)
        assert calls[0] == (len(pairs), len(sets), 0, 100, True)
        tiles = [(0, 100), (100, 200), (200, 300)] if baseline else [(0, 100)]
        assert calls == [(len(pairs), len(sets), lo, hi, True) for lo, hi in tiles]
        assert (list(outcomes), replace(summary, agree_with_full=None)) == expected
    # A full-width screen counts K = 400 columns 128 at a time.
    calls.clear()
    full_cfg = replace(cfg, schedule=())
    full, _ = screen_batch(pairs, signatures, full_cfg)
    assert [(lo, hi) for _, _, lo, hi, _ in calls] == [(0, 128), (128, 256), (256, 384), (384, 400)]
    assert list(full) == oracle_screen_batch(pairs, signatures, full_cfg, full_cfg.table)[0]
    assert summary.agree_with_full == sum(
        o.decision == f.decision for o, f in zip(outcomes, full)
    )
    # 1,770 pairs among 60 of 660 rows: 660² > 8 · 1,770, so gathered.
    more = {**sets, **{i + 60: tokens for i, tokens in gen_sets(100).items()}}
    signatures = sign_many(make_family(cfg.k, cfg.master_seed), more)
    calls.clear()
    assert listed(screen_batch(pairs, signatures, cfg)) == expected
    assert calls == []


def test_sparse_batches_are_never_counted_from_collisions(monkeypatch):
    """A 100-pair slice, 1,200 generated pairs that reference 2,400 rows,
    and all 190 pairs of 20 sets, too few to be dense, are gathered at
    every stop."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(50, 100, 150), k=200)
    sets, generated = gen_synthetic(
        WorkloadSpec(
            groups=tuple(parse_group(f"{j}:400:15-25") for j in ("1/10", "1/2", "9/10")), seed=7
        )
    )
    signatures = sign_many(make_family(cfg.k, cfg.master_seed), sets)
    calls = collision_spy(monkeypatch)
    reads = count_spy(monkeypatch)
    for pairs in (generated[:100], generated, list(itertools.combinations(range(20), 2))):
        expected = oracle_screen_batch(pairs, signatures, cfg, cfg.table)
        for baseline in (False, True):
            outcomes, summary = screen_batch(pairs, signatures, cfg, baseline=baseline)
            assert (list(outcomes), replace(summary, agree_with_full=None)) == expected
    assert len(generated) == 1200 and max(n for n, _, _ in reads) == 1200
    assert calls == []


def test_run_screen_converts_a_list_of_pairs_once(monkeypatch):
    """run_screen gives a list of pairs and the equal Pairs the same record
    and report, and walks a list into ids once per call."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(20, 40), k=100, master_seed=5)
    rng = np.random.default_rng(31)
    _, sets, _ = signed_sets(cfg.k, 30, rng)
    pairs = crafted_pairs(sets, 200, rng)
    walked = []
    original = pair_ids

    def spy(given):
        walked.append(type(given))
        return original(given)

    monkeypatch.setattr(harness, "pair_ids", spy)
    monkeypatch.setattr(screening, "pair_ids", spy)
    results = {}
    for given in (pairs, Pairs(np.array(pairs, dtype=np.uint64))):
        walked.clear()
        for baseline in (False, True):
            outcomes, report = run_screen(sets, given, cfg, baseline=baseline)
            results.setdefault(baseline, []).append(
                (outcomes.ids.tolist(), list(outcomes), replace(report, wall_time_ms=0.0))
            )
        assert walked.count(list) == (2 if given is pairs else 0)
    assert all(first == second for first, second in results.values())

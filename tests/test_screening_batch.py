"""The checkpoint-major batch walk against a per-pair reference walk, and the
checks screen_batch makes before it compares anything."""

import numpy as np
import pytest

from minscreen import screening
from minscreen.binomial import ThresholdTable
from minscreen.cli import main
from minscreen.harness import screen_signatures
from minscreen.minhash import Signature, make_family, sign, to_b_bit
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
    compare_pair,
    screen_batch,
)
from minscreen.workload import write_pairs

CRAFTED = "crafted-family"


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


def crafted_signatures(k: int, n: int, rng: np.random.Generator) -> dict[int, Signature]:
    """Signatures in a few groups: members of a group copy their group's
    base vector except for a random share of slots, so pairs within a group
    agree on anywhere from none to all of their slots."""
    bases = rng.integers(0, 2**63, size=(4, k), dtype=np.uint64)
    signatures = {}
    for i in range(n):
        values = bases[i % 4].copy()
        redrawn = rng.random(k) < rng.uniform(0.0, 0.7)
        values[redrawn] = rng.integers(2**63, 2**64 - 1, size=int(redrawn.sum()), dtype=np.uint64)
        values.setflags(write=False)
        signatures[1000 + 7 * i] = Signature(values=values, fingerprint=CRAFTED, bits=64)
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
    assert screen_batch(pairs, signatures, cfg) == expected
    outcomes, summary = expected
    kinds = {o.resolution_kind for o in outcomes}
    if cfg.schedule:
        assert kinds == {OUTPUT_EARLY, FILTERED_EARLY, FULL_COMPARISON} or name == "ends-at-k"
    else:
        assert kinds == {FULL_COMPARISON}
    assert 0 < len(summary.above_threshold) < len(pairs)


@pytest.mark.parametrize("name", ["mid-schedule", "no-schedule", "ends-below-k"])
def test_batch_walk_matches_across_many_small_blocks(name, monkeypatch):
    cfg = CONFIGS[name]
    rng = np.random.default_rng(77)
    signatures = crafted_signatures(cfg.k, 60, rng)
    pairs = crafted_pairs(signatures, 400, rng)
    expected = oracle_screen_batch(pairs, signatures, cfg, build_table(cfg))
    # Six signature rows per block, windows of a few dozen columns, which
    # end inside intervals as well as at checkpoints, and steps of a few
    # pairs each.
    monkeypatch.setattr(screening, "_BLOCK_ROWS", 6)
    monkeypatch.setattr(screening, "_WINDOW_BYTES", 6 * 8 * 35)
    monkeypatch.setattr(screening, "_STEP_BYTES", 3 * 2 * 8 * 50)
    split = []
    blocks = screening._blocks
    monkeypatch.setattr(screening, "_blocks", lambda rows: split.append(blocks(rows)) or split[-1])
    assert screen_batch(pairs, signatures, cfg) == expected
    assert len(split[0]) > 100


def test_windows_stay_within_budget_and_stop_at_the_last_checkpoint_reached(monkeypatch):
    rng = np.random.default_rng(9)
    signatures = crafted_signatures(200, 12, rng)
    # Self-pairs all resolve as accepted at the first checkpoint.
    pairs = [(i, i) for i in sorted(signatures)]
    monkeypatch.setattr(screening, "_WINDOW_BYTES", 12 * 8 * 60)
    shapes = []
    count = screening._count_matches

    def spy(window, a, b, lo, hi):
        shapes.append(window.shape)
        return count(window, a, b, lo, hi)

    monkeypatch.setattr(screening, "_count_matches", spy)
    outcomes, _ = screen_batch(pairs, signatures, CONFIGS["mid-schedule"])
    assert {o.resolution_checkpoint for o in outcomes} == {50}
    assert shapes == [(12, 50)]
    shapes.clear()
    # Without checkpoints the windows split the one interval.
    outcomes, _ = screen_batch(pairs, signatures, CONFIGS["no-schedule"])
    assert {o.estimate for o in outcomes} == {1.0}
    assert shapes == [(12, 60)] * 3 + [(12, 20)]


def test_blocks_cover_the_batch_and_respect_the_row_budget(monkeypatch):
    rng = np.random.default_rng(3)
    monkeypatch.setattr(screening, "_BLOCK_ROWS", 10)
    # A join-like prefix that reuses five rows, then pairs of new rows, then
    # pairs drawn from all rows; rows are numbered in order of first use.
    head = [[a, b] for a in range(5) for b in range(a, 5)] * 3
    fresh = [[5 + 2 * i, 6 + 2 * i] for i in range(40)]
    mixed = rng.integers(0, 85, size=(60, 2)).tolist()
    pair_rows = np.array(head + fresh + mixed)
    blocks = screening._blocks(pair_rows)
    # Rows 0..8 fit the ten-row budget; the next fresh pair needs rows 9, 10.
    assert blocks[0] == slice(0, len(head) + 2)
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == len(pair_rows)
    for block in blocks:
        assert len(np.unique(pair_rows[block])) <= 10
    assert screening._blocks(np.empty((0, 2), dtype=np.intp)) == []


def test_empty_pair_list_matches_reference():
    cfg = CONFIGS["mid-schedule"]
    assert screen_batch([], {}, cfg) == oracle_screen_batch([], {}, cfg, build_table(cfg))


def test_pairs_resolving_alike_share_one_outcome():
    cfg = CONFIGS["mid-schedule"]
    rng = np.random.default_rng(5)
    signatures = crafted_signatures(cfg.k, 10, rng)
    ids = sorted(signatures)
    outcomes, _ = screen_batch([(ids[0], ids[0]), (ids[3], ids[3])], signatures, cfg)
    assert outcomes[0] is outcomes[1]
    assert outcomes[0] == PairOutcome(ABOVE, OUTPUT_EARLY, 50, 50, 1.0)


def _one_in_39_signatures(k: int = 1000):
    family = make_family(k, 42)
    a = sign(family, set(range(20)))
    b = sign(family, set(range(19, 39)))
    return a, b


def test_reduced_signatures_are_refused():
    cfg = ScreenConfig(threshold=0.5, e=1e-3, k=1000)
    a, b = _one_in_39_signatures()
    full, _ = screen_batch([(1, 2)], {1: a, 2: b}, cfg)
    assert full[0].resolution_kind == FILTERED_EARLY
    assert full[0].resolution_checkpoint == 100
    one_bit = {1: to_b_bit(a, 1), 2: to_b_bit(b, 1)}
    with pytest.raises(ValueError, match="screening needs full-width signatures"):
        screen_batch([(1, 2)], one_bit, cfg)
    with pytest.raises(ValueError, match="screening needs full-width signatures"):
        compare_pair(one_bit[1], one_bit[2], build_table(cfg), cfg)
    with pytest.raises(ValueError, match="screening needs full-width signatures"):
        screen_signatures(one_bit, [(1, 2)], cfg)
    with pytest.raises(ValueError, match="full-width.*set id 2"):
        screen_batch([(1, 1), (1, 2)], {1: a, 2: to_b_bit(b, 8)}, cfg)


@pytest.mark.parametrize("missing", [-5, 2**64, 2**70])
def test_unknown_ids_outside_uint64_are_named(missing):
    cfg = ScreenConfig(schedule=(), k=1000)
    a, b = _one_in_39_signatures()
    signatures = {0: a, 1: b}
    with pytest.raises(ValueError, match=f"no signature for set id {missing}"):
        screen_batch([(0, 1), (1, missing)], signatures, cfg)
    with pytest.raises(ValueError, match=f"no signature for set id {missing}"):
        screen_signatures(signatures, [(missing, 0)], cfg)


def test_first_missing_id_in_pair_order_is_named():
    cfg = ScreenConfig(schedule=(), k=1000)
    a, b = _one_in_39_signatures()
    with pytest.raises(ValueError, match="set id 8$"):
        screen_batch([(0, 1), (1, 8), (9, 0)], {0: a, 1: b}, cfg)


def test_cli_names_an_id_above_uint64_range(tmp_path, capsys):
    sets_path = tmp_path / "sets.txt"
    sets_path.write_text("1 2 3\n2 3 4\n")
    cache_path = str(tmp_path / "sigs.mhsg")
    assert main(["sign", "--sets", str(sets_path), "--k", "100", "--out", cache_path]) == 0
    pairs_path = str(tmp_path / "pairs.txt")
    write_pairs(pairs_path, [(0, 1), (1, 2**64)])
    args = ["screen", "--cache", cache_path, "--pairs", pairs_path, "--schedule", "50"]
    assert main(args + ["--out", str(tmp_path / "o.csv")]) == 1
    assert f"no signature for set id {2**64}" in capsys.readouterr().err


def test_mixed_families_are_checked_per_pair():
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100,), k=1000)
    a, b = _one_in_39_signatures()
    other = sign(make_family(1000, 7), {1, 2, 3})
    signatures = {0: a, 1: b, 2: other}
    outcomes, _ = screen_batch([(0, 1), (2, 2)], signatures, cfg)
    assert outcomes[1].decision == ABOVE
    with pytest.raises(ValueError, match="different hash families"):
        screen_batch([(0, 1), (0, 2)], signatures, cfg)
    short = Signature(values=a.values[:500], fingerprint=a.fingerprint)
    with pytest.raises(ValueError, match="expected signatures of length 1000, got 1000 and 500"):
        screen_batch([(0, 1), (0, 3)], {**signatures, 3: short}, cfg)

"""The checkpoint-major batch walk against a per-pair reference walk, and the
checks screen_batch makes before it compares anything."""

import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from minscreen import screening
from minscreen.binomial import ThresholdTable
from minscreen.cache import read_cache, write_cache
from minscreen.cli import main
from minscreen.harness import run_screen, screen_signatures
from minscreen.minhash import Signature, make_family, sign, sign_many
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
from minscreen.workload import write_pairs

CRAFTED = "crafted-family"
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
        signatures[1000 + 7 * i] = Signature(values=values, fingerprint=CRAFTED)
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
    cfg = CONFIGS[name]
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
        assert screen_batch(pairs, signatures, cfg) == expected


def test_walk_compares_no_column_past_the_last_checkpoint_reached(monkeypatch):
    """Each interval is compared once, for exactly the pairs still alive
    at its start, and the walk stops at the last checkpoint any pair
    reaches; with schedule=() every pair's K columns are compared once."""
    calls = []
    count = screening._count_matches

    def spy(values, a, b, lo, hi):
        calls.append((len(a), lo, hi))
        return count(values, a, b, lo, hi)

    monkeypatch.setattr(screening, "_count_matches", spy)
    rng = np.random.default_rng(9)
    signatures = crafted_signatures(200, 40, rng)
    pairs = crafted_pairs(signatures, 300, rng)
    for name in ("mid-schedule", "ends-below-k", "ends-at-k", "no-schedule"):
        calls.clear()
        outcomes, summary = screen_batch(pairs, signatures, CONFIGS[name])
        used = [o.comparisons_used for o in outcomes]
        assert [lo for _, lo, _ in calls] == [0] + [hi for _, _, hi in calls[:-1]]
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


def test_signing_names_the_first_unknown_id_in_pair_order():
    """screen --sets signs the sets the pairs reference; an id with no set
    is named in pair order, before any sorting of the ids."""
    cfg = ScreenConfig(schedule=(), k=100)
    sets = {0: {1, 2}, 1: {2, 3}}
    for pairs, unknown in (([(0, 1), (1, 9), (5, 0)], 9), ([(0, "a"), (1, 2)], "a")):
        with pytest.raises(ValueError, match=f"^pair list references unknown set id {unknown}$"):
            run_screen(sets, pairs, cfg)


def test_non_integer_ids_are_named_not_truncated():
    cfg = ScreenConfig(schedule=(), k=1000)
    a, b = _one_in_39_signatures()
    for missing in (1.5, 1.0, "1"):
        with pytest.raises(ValueError, match=f"no signature for set id {missing}$"):
            screen_batch([(0, 1), (0, missing)], {0: a, 1: b}, cfg)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 1, 2), (5,)], "pair 0 is (0, 1, 2), not two set ids"),
        ([(0, 1), (2, 5, 4)], "pair 1 is (2, 5, 4), not two set ids"),
        ([(0,), (2, 5)], "pair 0 is (0,), not two set ids"),
    ],
)
def test_a_pair_is_exactly_two_set_ids(pairs, message):
    """A malformed pair is named by its index, not screened as the ids
    that happen to fall into its place."""
    a, b = _one_in_39_signatures()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        screen_batch(pairs, {0: a, 1: b}, ScreenConfig(schedule=(), k=1000))


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


def _near_threshold_pair(k: int = 300):
    """Two crafted signatures matching on 27 of every 50 slots: J is about
    0.54 at every checkpoint of (100, 200, 300)."""
    base = np.arange(1, k + 1, dtype=np.uint64)
    other = base + np.uint64(10_000_000)
    matching = [i for i in range(k) if i % 50 < 27]
    other[matching] = base[matching]
    return {0: Signature(values=base, fingerprint=CRAFTED),
            1: Signature(values=other, fingerprint=CRAFTED)}


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
        assert outcomes == [own]
        assert screening.compare_pair(signatures[0], signatures[1], table, cfg) == own
    foreign = [
        screening.build_threshold_table(0.95, 1e-3, schedule),
        screening.build_threshold_table(0.5, 1e-2, schedule),
        screening.build_threshold_table(0.5, 1e-3, schedule, 1e-2),
        screening.build_threshold_table(0.5, 1e-3, (100, 200)),
    ]
    for table in foreign:
        with pytest.raises(ValueError, match="does not match the configuration's table"):
            screen_batch([(0, 1)], signatures, cfg, table)
        with pytest.raises(ValueError, match="does not match the configuration's table"):
            screening.compare_pair(signatures[0], signatures[1], table, cfg)


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
    assert screen_signatures(signatures, [(0, 1), (1, 0)], twin)[0] == outcomes
    screen_batch([(0, 1)], signatures, twin)
    assert calls == [(0.5, 1e-3, (100, 200, 300), None)]

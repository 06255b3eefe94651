"""Sequential screening engine: early exits, costs, and batch accounting."""

import json
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from minscreen.binomial import build_threshold_table
from minscreen.harness import report_json, screen_signatures
from minscreen.minhash import Signature
from minscreen.screening import (
    ABOVE,
    BELOW,
    FILTERED_EARLY,
    FULL_COMPARISON,
    OUTPUT_EARLY,
    ScreenConfig,
    build_table,
    filtering_rate,
    screen_batch,
)


def _sig(values: np.ndarray) -> Signature:
    """values as a signature of the default configuration's family."""
    values = values.astype(np.uint64)
    values.setflags(write=False)
    return Signature(values=values, fingerprint=(ScreenConfig.master_seed, len(values)))


def pair_with_matches(k: int, matching) -> tuple[Signature, Signature]:
    """Two signatures agreeing exactly on the given slot indices."""
    base = np.arange(1, k + 1, dtype=np.uint64)
    other = base + np.uint64(10_000_000)
    idx = sorted(matching)
    if idx:
        other[idx] = base[idx]
    return _sig(base), _sig(other)


def random_pair(k: int, p: float, rng: np.random.Generator) -> tuple[Signature, Signature]:
    return pair_with_matches(k, np.flatnonzero(rng.random(k) < p))


def screen_pair(a: Signature, b: Signature, table, cfg: ScreenConfig):
    """screen_batch on a batch of one pair."""
    (outcome,), _ = screen_batch([(0, 1)], {0: a, 1: b}, cfg, table)
    return outcome


def row_at(table, k: int):
    return table.rows[table.checkpoints.index(k)]


def test_twenty_matches_in_first_hundred_is_filtered_early():
    cfg = ScreenConfig(threshold=0.5, e=5.6e-10, schedule=(100,), k=100)
    a, b = pair_with_matches(100, range(20))
    outcome = screen_pair(a, b, build_table(cfg), cfg)
    assert outcome.decision == BELOW
    assert outcome.resolution_kind == FILTERED_EARLY
    assert outcome.resolution_checkpoint == 100
    assert outcome.comparisons_used == 100
    assert outcome.estimate == 0.2


def test_identical_signatures_output_at_first_checkpoint():
    cfg = ScreenConfig(threshold=0.5, e=1e-5, schedule=(100, 200), k=1000)
    base = np.arange(1000, dtype=np.uint64)
    a, b = _sig(base), _sig(base.copy())
    outcome = screen_pair(a, b, build_table(cfg), cfg)
    assert outcome.decision == ABOVE
    assert outcome.resolution_kind == OUTPUT_EARLY
    assert outcome.resolution_checkpoint == 100
    assert outcome.comparisons_used == 100
    assert outcome.estimate == 1.0


def test_acceptance_can_happen_at_a_later_checkpoint():
    # 50 matches of the first 100 sit between the k=100 cutoffs (34, 65);
    # a perfect second hundred pushes the count to 150, past m_u(200)=122.
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100, 200), k=200)
    matches = list(range(50)) + list(range(100, 200))
    a, b = pair_with_matches(200, matches)
    outcome = screen_pair(a, b, build_table(cfg), cfg)
    assert outcome.resolution_kind == OUTPUT_EARLY
    assert outcome.resolution_checkpoint == 200
    assert outcome.estimate == 0.75


def test_full_comparison_tie_counts_as_above():
    cfg = ScreenConfig(threshold=0.5, schedule=(), k=10)
    table = build_table(cfg)
    a, b = pair_with_matches(10, range(5))
    tie = screen_pair(a, b, table, cfg)
    assert tie.decision == ABOVE
    assert tie.resolution_kind == FULL_COMPARISON
    assert tie.resolution_checkpoint is None
    assert tie.comparisons_used == 10
    a, b = pair_with_matches(10, range(4))
    assert screen_pair(a, b, table, cfg).decision == BELOW


def test_fraction_threshold_decides_ties_like_its_float():
    """A Fraction threshold is kept as the float it rounds to, so a full-K
    estimate of 1/3 ties with it and counts as above, and its table is the
    float's table."""
    a, b = pair_with_matches(3, [0])
    decisions = []
    for threshold in (Fraction(1, 3), 1 / 3):
        cfg = ScreenConfig(threshold=threshold, e=1e-3, schedule=(), k=3)
        decisions.append(screen_pair(a, b, build_table(cfg), cfg).decision)
    assert decisions == [ABOVE, ABOVE]
    assert ScreenConfig(threshold=Fraction(1, 3)) == ScreenConfig(threshold=1 / 3)
    assert build_threshold_table(Fraction(1, 3), 1e-3, (2, 3)) == build_threshold_table(
        1 / 3, 1e-3, (2, 3)
    )


def test_config_keeps_python_values_and_reports_them():
    """numpy and Fraction parameters are kept as Python ints and floats, in
    the config, its table and the JSON report."""
    cfg = ScreenConfig(
        threshold=Fraction(1, 2),
        e=np.float32(1e-3),
        e_upper=np.float64(1e-4),
        schedule=np.array([8, 16]),
        k=np.int64(16),
        master_seed=np.uint64(ScreenConfig.master_seed),
    )
    assert [type(value) for value in (cfg.threshold, cfg.e, cfg.e_upper, cfg.k, cfg.master_seed)] == [
        float, float, float, int, int
    ]
    assert (cfg.threshold, cfg.e, cfg.e_upper, cfg.k) == (0.5, float(np.float32(1e-3)), 1e-4, 16)
    assert all(type(k) is int for k in cfg.schedule)
    table = cfg.table
    assert [type(value) for value in (table.threshold, table.e_lower, table.e_upper)] == [float] * 3
    for row in table.rows:
        assert type(row.k) is int and type(row.m_u) is int and type(row.m_l) in (int, type(None))
    a, b = pair_with_matches(16, range(8))
    _, report = screen_signatures({0: a, 1: b}, [(0, 1)], cfg)
    payload = json.loads(report_json(report))
    assert (payload["threshold"], payload["e_upper"], payload["k"]) == (0.5, 1e-4, 16)
    assert payload["e"] == float(np.float32(1e-3))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("threshold", "0.5", "threshold '0.5' is not a real number"),
        ("e", None, "significance e None is not a real number"),
        ("e_upper", Decimal("1e-3"), "significance e_upper Decimal('0.001') is not a real number"),
        ("threshold", 1j, "threshold 1j is not a real number"),
        ("threshold", float("nan"), "threshold must lie in (0, 1), got nan"),
    ],
)
def test_config_refuses_a_value_that_is_not_a_real_number(field, value, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ScreenConfig(**{field: value})


def test_checkpoint_without_discard_cutoff_is_skipped():
    # At t=0.9, e=1e-12 even a zero count is not rare enough to discard,
    # and only a perfect count accepts, so 9 of 10 matches resolves nothing.
    cfg = ScreenConfig(threshold=0.9, e=1e-12, schedule=(10,), k=10)
    table = build_table(cfg)
    (row,) = table.rows
    assert row.m_l is None
    assert row.m_u == 10
    a, b = pair_with_matches(10, range(9))
    outcome = screen_pair(a, b, table, cfg)
    assert outcome.resolution_kind == FULL_COMPARISON
    a, b = pair_with_matches(10, range(10))
    assert screen_pair(a, b, table, cfg).resolution_kind == OUTPUT_EARLY


def test_outcome_invariants_on_random_pairs():
    rng = np.random.default_rng(2024)
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(50, 100, 150), k=200)
    table = build_table(cfg)
    for _ in range(150):
        a, b = random_pair(200, rng.uniform(0.1, 0.9), rng)
        outcome = screen_pair(a, b, table, cfg)
        if outcome.resolution_kind == OUTPUT_EARLY:
            row = row_at(table, outcome.resolution_checkpoint)
            assert outcome.decision == ABOVE
            assert outcome.estimate >= row.t_u
        elif outcome.resolution_kind == FILTERED_EARLY:
            row = row_at(table, outcome.resolution_checkpoint)
            assert outcome.decision == BELOW
            assert outcome.estimate <= row.t_l
        else:
            assert outcome.comparisons_used == cfg.k
            assert outcome.decision == (ABOVE if outcome.estimate >= 0.5 else BELOW)
        assert outcome.comparisons_used <= cfg.k


def test_borderline_pairs_under_tiny_e_fall_through_to_full_comparison():
    rng = np.random.default_rng(7)
    cfg = ScreenConfig(threshold=0.5, e=1e-12, schedule=(100, 200, 300), k=400)
    full_cfg = ScreenConfig(threshold=0.5, e=1e-12, schedule=(), k=400)
    table = build_table(cfg)
    full_table = build_table(full_cfg)
    full_count = 0
    for _ in range(30):
        a, b = random_pair(400, 0.5, rng)
        outcome = screen_pair(a, b, table, cfg)
        reference = screen_pair(a, b, full_table, full_cfg)
        assert outcome.decision == reference.decision
        full_count += outcome.resolution_kind == FULL_COMPARISON
    assert full_count == 30


def test_empty_schedule_equals_plain_threshold_decision():
    rng = np.random.default_rng(99)
    cfg = ScreenConfig(threshold=0.3, schedule=(), k=120)
    table = build_table(cfg)
    for _ in range(50):
        a, b = random_pair(120, rng.uniform(0.0, 1.0), rng)
        outcome = screen_pair(a, b, table, cfg)
        x = int(np.count_nonzero(a.values == b.values))
        assert outcome.decision == (ABOVE if x / 120 >= 0.3 else BELOW)
        assert outcome.resolution_kind == FULL_COMPARISON


def test_resolved_sets_are_nested_across_e():
    """A pair resolved by checkpoint k at significance e1 <= e2 is resolved
    there at e2 as well: cutoffs only tighten as e shrinks."""
    rng = np.random.default_rng(31337)
    pairs = [random_pair(300, 0.45, rng) for _ in range(200)]
    schedule = (100, 200, 300)
    resolved_by = {}
    for e in (1e-6, 0.05):
        cfg = ScreenConfig(threshold=0.5, e=e, schedule=schedule, k=300)
        table = build_table(cfg)
        outcomes = [screen_pair(a, b, table, cfg) for a, b in pairs]
        resolved_by[e] = {
            point: {
                i
                for i, o in enumerate(outcomes)
                if o.resolution_checkpoint is not None and o.resolution_checkpoint <= point
            }
            for point in schedule
        }
    for point in schedule:
        assert resolved_by[1e-6][point] <= resolved_by[0.05][point]
    tight = build_threshold_table(0.5, 1e-6, schedule)
    loose = build_threshold_table(0.5, 0.05, schedule)
    for tight_row, loose_row in zip(tight.rows, loose.rows):
        assert (tight_row.m_l or 0) <= (loose_row.m_l or 0)
        assert tight_row.m_u >= loose_row.m_u


def test_screen_batch_aggregates_and_preserves_order():
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100,), k=100)
    full_a, full_b = pair_with_matches(100, range(100))
    low_a, low_b = pair_with_matches(100, range(10))
    signatures = {0: full_a, 1: full_b, 2: low_a, 3: low_b}
    pairs = [(0, 1), (2, 3), (0, 1)]
    outcomes, summary = screen_batch(pairs, signatures, cfg)
    assert [o.resolution_kind for o in outcomes] == [OUTPUT_EARLY, FILTERED_EARLY, OUTPUT_EARLY]
    assert summary.n_pairs == 3
    assert summary.total_comparisons == 300
    assert summary.baseline_comparisons == 300
    assert summary.filtered_at == {100: 1}
    assert summary.output_at == {100: 2}
    assert summary.full_comparisons == 0
    assert summary.above_threshold == ((0, 1), (0, 1))


def test_screen_batch_identical_pairs_cost_first_checkpoint_only():
    cfg = ScreenConfig(threshold=0.5, e=1e-5, schedule=(100, 200), k=500)
    base = np.arange(500, dtype=np.uint64)
    signatures = {7: _sig(base), 8: _sig(base.copy())}
    pairs = [(7, 8)] * 20
    outcomes, summary = screen_batch(pairs, signatures, cfg)
    assert all(o.resolution_checkpoint == 100 for o in outcomes)
    assert summary.total_comparisons == 20 * 100
    assert summary.baseline_comparisons == 20 * 500


def test_screen_batch_empty_pair_list():
    cfg = ScreenConfig(schedule=(), k=10)
    outcomes, summary = screen_batch([], {}, cfg)
    assert list(outcomes) == []
    assert summary.n_pairs == 0
    assert summary.total_comparisons == 0
    assert summary.above_threshold == ()


def test_screen_batch_reports_missing_signature_id():
    cfg = ScreenConfig(schedule=(), k=10)
    a, b = pair_with_matches(10, range(3))
    with pytest.raises(ValueError, match="651"):
        screen_batch([(0, 651)], {0: a}, cfg)


def test_filtering_rate_trivial_cases():
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100, 200), k=200)
    low = pair_with_matches(200, range(5))
    mid = pair_with_matches(200, range(0, 200, 2))
    signatures = {0: low[0], 1: low[1], 2: mid[0], 3: mid[1]}
    all_low, _ = screen_batch([(0, 1)] * 4, signatures, cfg)
    assert filtering_rate(all_low, 100, cfg.schedule) == (1.0, 1.0)
    none_early, _ = screen_batch([(2, 3)] * 4, signatures, cfg)
    for point in cfg.schedule:
        assert filtering_rate(none_early, point, cfg.schedule) == (0.0, 0.0)


def test_filtering_rate_is_cumulative_and_validates_input():
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100, 200), k=200)
    rng = np.random.default_rng(5)
    signatures = {}
    pairs = []
    for i in range(40):
        a, b = random_pair(200, rng.uniform(0.05, 0.95), rng)
        signatures[2 * i] = a
        signatures[2 * i + 1] = b
        pairs.append((2 * i, 2 * i + 1))
    outcomes, _ = screen_batch(pairs, signatures, cfg)
    strict_100, resolved_100 = filtering_rate(outcomes, 100, cfg.schedule)
    strict_200, resolved_200 = filtering_rate(outcomes, 200, cfg.schedule)
    assert strict_100 <= strict_200
    assert resolved_100 <= resolved_200
    assert strict_200 <= resolved_200
    with pytest.raises(ValueError, match="not in schedule"):
        filtering_rate(outcomes, 150, cfg.schedule)
    with pytest.raises(ValueError, match="zero outcomes"):
        filtering_rate([], 100, cfg.schedule)


def test_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ScreenConfig(schedule=(200, 100), k=1000)
    with pytest.raises(ValueError, match="only"):
        ScreenConfig(schedule=(100, 2000), k=1000)
    with pytest.raises(ValueError, match="threshold"):
        ScreenConfig(threshold=1.0)
    with pytest.raises(ValueError, match="significance"):
        ScreenConfig(e=0.0)
    with pytest.raises(ValueError, match="significance"):
        ScreenConfig(e_upper=2.0)
    with pytest.raises(ValueError, match="at least 1"):
        ScreenConfig(schedule=(), k=0)
    with pytest.raises(ValueError, match="^family size k 10.5 is not an integer$"):
        ScreenConfig(schedule=(), k=10.5)
    with pytest.raises(ValueError, match="^master_seed '42' is not an integer$"):
        ScreenConfig(master_seed="42")
    cfg = ScreenConfig()
    assert cfg.threshold == 0.5
    assert cfg.e == 1e-5
    assert cfg.schedule == tuple(range(100, 1000, 100))
    assert cfg.k == 1000
    assert cfg.master_seed == 42


def test_config_rejects_non_integer_schedule():
    for schedule in ((100.9, "200"), (100, 200.0), ("100",)):
        with pytest.raises(ValueError, match="strictly increasing positive integers"):
            ScreenConfig(schedule=schedule, k=1000)
    cfg = ScreenConfig(schedule=np.arange(100, 1000, 100), k=1000)
    assert cfg.schedule == tuple(range(100, 1000, 100))
    assert all(type(k) is int for k in cfg.schedule)


def test_single_pair_batch_validates_inputs():
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100,), k=100)
    table = build_table(cfg)
    a, b = pair_with_matches(100, range(10))
    foreign = Signature(values=b.values, fingerprint="other-family")
    with pytest.raises(ValueError, match="different hash families"):
        screen_pair(a, foreign, table, cfg)
    short_cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(), k=50)
    with pytest.raises(ValueError, match="length"):
        screen_pair(a, b, build_table(short_cfg), short_cfg)
    wide_table = build_threshold_table(0.5, 1e-3, [100, 200])
    with pytest.raises(ValueError, match="does not match the configuration"):
        screen_pair(a, b, wide_table, cfg)

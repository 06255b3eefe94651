"""End-to-end acceptance checks, one per shipped guarantee.

Each numbered test prints a single ACCEPTANCE line (visible under pytest -s)
before asserting, so a full run yields a nine-line pass/fail scorecard. The
unnumbered tests after them hold the binomial model and the discard-side
bound on the same signatures. Workloads are synthetic with exact rational
similarity, signed once per module where several checks share them.
"""

import math
import random
import statistics
from fractions import Fraction

import numpy as np
import pytest

from minscreen.binomial import E_ROUNDING_SLACK, build_threshold_table
from minscreen.harness import screen_signatures
from minscreen.minhash import make_family, sign_many
from minscreen.screening import (
    ABOVE,
    BELOW,
    FILTERED_EARLY,
    OUTPUT_EARLY,
    ScreenConfig,
    filtering_rate,
    screen_batch,
)
from minscreen.sets import jaccard_fraction
from minscreen.workload import WorkloadGroup, WorkloadSpec, gen_synthetic
from oracles import exhaustive_collision_probability, package_tails

SCHEDULE = tuple(range(100, 1000, 100))


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def signed_workload(groups, workload_seed, cfg):
    spec = WorkloadSpec(groups=tuple(groups), seed=workload_seed)
    sets, pairs = gen_synthetic(spec)
    return sets, pairs, sign_many(make_family(cfg.k, cfg.master_seed), sets)


@pytest.fixture(scope="module")
def mix_06_04():
    """1e4 pairs at exact Jaccard 0.6 plus 1e4 at 0.4, signed with K=1000."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=SCHEDULE, k=1000, master_seed=42)
    sets, pairs, signatures = signed_workload(
        (
            WorkloadGroup(Fraction(3, 5), 10000, 15, 25),
            WorkloadGroup(Fraction(2, 5), 10000, 15, 25),
        ),
        42,
        cfg,
    )
    return pairs, signatures, cfg


@pytest.fixture(scope="module")
def thirds():
    """Thirds at exact Jaccard 0.1 / 0.5 / 0.9, 1000 pairs each, K=1000."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=SCHEDULE, k=1000, master_seed=42)
    sets, pairs, signatures = signed_workload(
        (
            WorkloadGroup(Fraction(1, 10), 1000, 10, 25),
            WorkloadGroup(Fraction(1, 2), 1000, 10, 25),
            WorkloadGroup(Fraction(9, 10), 1000, 10, 25),
        ),
        7,
        cfg,
    )
    return sets, pairs, signatures, cfg


@pytest.fixture(scope="module")
def triplet_08_05_03():
    """4e3 pairs each at exact Jaccard 0.8 / 0.5 / 0.3, signed once with K=1000."""
    cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=SCHEDULE, k=1000, master_seed=42)
    sets, pairs, signatures = signed_workload(
        (
            WorkloadGroup(Fraction(4, 5), 4000, 15, 25),
            WorkloadGroup(Fraction(1, 2), 4000, 15, 25),
            WorkloadGroup(Fraction(3, 10), 4000, 15, 25),
        ),
        9,
        cfg,
    )
    return pairs, signatures, cfg


def test_1_cdf_reference_points():
    """Published 2-significant-figure tail values at k=100, p=0.5."""
    anchors = [
        (10, 1.53e-17),
        (20, 5.6e-10),
        (30, 3.9e-5),
        (40, 0.028),
        (50, 0.539),
        (60, 0.982),
        (100, 1.0),
    ]
    worst = 0.0
    cdf, _ = package_tails(100, 0.5)
    for m, expected in anchors:
        got = cdf(m)
        worst = max(worst, abs(got - expected) / expected)
    verdict(1, worst <= 0.05, f"max relative deviation {worst:.2e} over {len(anchors)} anchors (tol 5e-2)")


def test_2_cutoff_solver_examples():
    """Worked cutoff pair at k=100, T=0.5: discard at 20, accept at 80."""
    row = build_threshold_table(0.5, 5.6e-10, (100,), e_upper=1.35e-10).rows[0]
    m_l, m_u = row.m_l, row.m_u
    ok = m_l == 20 and m_u == 80 and m_l / 100 == 0.2 and m_u / 100 == 0.8
    verdict(2, ok, f"m_l={m_l} (want 20 -> 0.2), m_u={m_u} (want 80 -> 0.8)")


def test_3_exact_oracles_agree():
    """Permutation enumeration equals the Jaccard ratio exactly; the CDF
    matches a big-rational oracle to 1e-9 for every k <= 30."""
    rng = random.Random(8161)
    cases = 0
    for _ in range(240):
        u = rng.randint(2, 6)
        mask_a = rng.randrange(1, 1 << u)
        mask_b = rng.randrange(1, 1 << u)
        a = frozenset(i for i in range(u) if mask_a >> i & 1)
        b = frozenset(i for i in range(u) if mask_b >> i & 1)
        assert exhaustive_collision_probability(a, b, u) == jaccard_fraction(a, b)
        cases += 1

    worst = 0.0
    for p in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9):
        pf = Fraction(p)
        for k in range(1, 31):
            cdf, _ = package_tails(k, p)
            running = Fraction(0)
            for m in range(k + 1):
                running += math.comb(k, m) * pf**m * (1 - pf) ** (k - m)
                exact = float(running)
                got = cdf(m)
                worst = max(worst, abs(got - exact) / exact)
    verdict(
        3,
        cases >= 200 and worst <= 1e-9,
        f"{cases} permutation-oracle cases exact; CDF max rel err {worst:.2e} (tol 1e-9)",
    )


def test_4_estimator_mean_and_variance():
    """Slot-match frequency is unbiased with variance J(1-J)/K, checked
    over 300 hash families on one pair with exact Jaccard 0.5."""
    a = frozenset(range(15))
    b = frozenset(range(5, 20))
    assert jaccard_fraction(a, b) == Fraction(1, 2)
    estimates = []
    for seed in range(300):
        cfg = ScreenConfig(schedule=(), k=1000, master_seed=seed)
        signatures = sign_many(make_family(1000, seed), {0: a, 1: b})
        (outcome,), _ = screen_batch([(0, 1)], signatures, cfg)
        estimates.append(outcome.estimate)
    mean = statistics.fmean(estimates)
    var = statistics.variance(estimates)
    mean_tol = 3 * math.sqrt(0.25 / 1000 / 300)
    expected_var = 0.5 * 0.5 / 1000
    ok = abs(mean - 0.5) <= mean_tol and 0.7 * expected_var <= var <= 1.3 * expected_var
    verdict(
        4,
        ok,
        f"mean {mean:.6f} (|bias| {abs(mean - 0.5):.2e} <= {mean_tol:.2e}), "
        f"variance {var:.3e} within 30% of {expected_var:.1e}",
    )


def test_5_wrong_early_decisions_are_rare(mix_06_04):
    """With e=1e-3 and nine checkpoints, pairs truly above T=0.5 are early-
    discarded (and pairs below are early-accepted) at most 3% of the time."""
    pairs, signatures, cfg = mix_06_04
    above, _ = screen_batch(pairs[:10000], signatures, cfg)
    below, _ = screen_batch(pairs[10000:], signatures, cfg)
    wrong_discard = sum(o.resolution_kind == FILTERED_EARLY for o in above) / len(above)
    wrong_accept = sum(o.resolution_kind == OUTPUT_EARLY for o in below) / len(below)
    ok = wrong_discard <= 0.03 and wrong_accept <= 0.03
    verdict(
        5,
        ok,
        f"J=0.6 filtered-early rate {wrong_discard:.4f}, "
        f"J=0.4 output-early rate {wrong_accept:.4f} (bound 0.03)",
    )


def test_6_empty_schedule_equals_full_comparison(thirds):
    """No checkpoints means every pair is decided exactly like the plain
    full-width comparison, and the self-reported accuracy is exactly 1.0."""
    _, pairs, signatures, base_cfg = thirds
    cfg = ScreenConfig(
        threshold=base_cfg.threshold,
        e=base_cfg.e,
        schedule=(),
        k=base_cfg.k,
        master_seed=base_cfg.master_seed,
    )
    outcomes, report = screen_signatures(signatures, pairs, cfg, baseline=True)
    plain = [
        ABOVE
        if np.count_nonzero(signatures[i].values == signatures[j].values) / cfg.k >= cfg.threshold
        else BELOW
        for i, j in pairs
    ]
    identical = [o.decision for o in outcomes] == plain
    ok = identical and report.accuracy == 1.0
    verdict(
        6,
        ok,
        f"decisions identical to plain full-width run: {identical}, "
        f"reported accuracy {report.accuracy!r} (want exactly 1.0)",
    )


def test_7_comparison_savings_on_mixed_workload(thirds):
    """Mixed thirds at J=0.1/0.5/0.9 resolve early often enough that total
    slot comparisons stay at or below half of the n*K baseline."""
    _, pairs, signatures, cfg = thirds
    _, summary = screen_batch(pairs, signatures, cfg)
    share = summary.total_comparisons / summary.baseline_comparisons
    verdict(
        7,
        share <= 0.5,
        f"{summary.total_comparisons} of {summary.baseline_comparisons} slot "
        f"comparisons used ({share:.1%}, bound 50%)",
    )


def test_8_filtering_rate_monotone_in_e_and_k(thirds):
    """At T=0.3 over pairs with true J=0.1, the filtering rate at k=100
    grows with e, and each per-e curve is nondecreasing in k."""
    _, pairs, signatures, _ = thirds
    pairs_01 = pairs[:1000]
    strict_at_100 = []
    curves_ok = True
    for e in (1e-10, 1e-5, 1e-3):
        cfg = ScreenConfig(threshold=0.3, e=e, schedule=SCHEDULE, k=1000, master_seed=42)
        outcomes, _ = screen_batch(pairs_01, signatures, cfg)
        rates = [filtering_rate(outcomes, point, SCHEDULE) for point in SCHEDULE]
        strict = [r[0] for r in rates]
        resolved = [r[1] for r in rates]
        curves_ok = curves_ok and strict == sorted(strict) and resolved == sorted(resolved)
        strict_at_100.append(strict[0])
    ok = curves_ok and strict_at_100 == sorted(strict_at_100)
    verdict(
        8,
        ok,
        f"strict FR at k=100 across e=1e-10/1e-5/1e-3: "
        f"{[f'{v:.3f}' for v in strict_at_100]}; per-e curves nondecreasing: {curves_ok}",
    )


def test_9_decision_agreement_with_full_run(triplet_08_05_03):
    """Early stopping changes almost no decisions: agreement with the
    full-width run is at least 0.99 at every e, and tightening e helps."""
    pairs, signatures, _ = triplet_08_05_03
    accuracy = {}
    for e in (1e-10, 1e-5, 1e-3):
        cfg = ScreenConfig(threshold=0.5, e=e, schedule=SCHEDULE, k=1000, master_seed=42)
        _, report = screen_signatures(signatures, pairs, cfg, baseline=True)
        accuracy[e] = report.accuracy
    ok = all(v >= 0.99 for v in accuracy.values()) and accuracy[1e-10] >= accuracy[1e-3]
    verdict(
        9,
        ok,
        "agreement by e: "
        + ", ".join(f"{e:g} -> {v:.6f}" for e, v in accuracy.items())
        + " (floor 0.99, tight e must not lose)",
    )


@pytest.mark.parametrize("group, jaccard", [(0, 0.8), (1, 0.5), (2, 0.3)])
def test_slot_matches_follow_the_binomial_model(triplet_08_05_03, group, jaccard):
    """The model every cutoff rests on: over 4,000 pairs at exact Jaccard J,
    the matches X_k among the first k slots have mean k*J and variance
    k*J*(1 - J), and neighbouring slots match independently (lag-1
    correlation of the slot-match indicators near 0)."""
    pairs, signatures, _ = triplet_08_05_03
    ids = np.array(pairs[4000 * group : 4000 * (group + 1)], dtype=np.uint64)
    rows = signatures.rows(ids.ravel()).reshape(-1, 2)
    match = signatures.matrix[rows[:, 0]] == signatures.matrix[rows[:, 1]]
    for k in (100, 1000):
        x = match[:, :k].sum(axis=1)
        assert abs(x.mean() / (k * jaccard) - 1) < 0.01
        assert 0.9 <= x.var(ddof=1) / (k * jaccard * (1 - jaccard)) <= 1.1
    before, after = match[:, :-1], match[:, 1:]
    p_before, p_after = before.mean(), after.mean()
    covariance = (before & after).mean() - p_before * p_after
    lag1 = covariance / math.sqrt(p_before * (1 - p_before) * p_after * (1 - p_after))
    assert abs(lag1) < 5e-3


def test_early_discards_at_the_threshold_stay_within_the_bound(triplet_08_05_03):
    """Where the discard-side guarantee binds, at J = T = 0.5, each of the
    nine checkpoints discards a pair wrongly with probability at most
    (1 + E_ROUNDING_SLACK) * e, so 4,000 pairs see at most 36.18 early
    discards in all."""
    pairs, signatures, cfg = triplet_08_05_03
    at_threshold = pairs[4000:8000]
    outcomes, _ = screen_batch(at_threshold, signatures, cfg)
    discards = sum(o.resolution_kind == FILTERED_EARLY for o in outcomes)
    bound = len(cfg.schedule) * (1 + E_ROUNDING_SLACK) * cfg.e * len(at_threshold)
    assert discards <= bound

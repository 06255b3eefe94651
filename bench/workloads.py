"""Benchmark workloads and their seeded inputs.

Every workload screens at threshold T = 0.5 with e = 1e-3 and signs with one
fixed family seed; only the token ids move with the benchmark seed. Pairs
are built by ``workload.gen_synthetic``, so each pair's exact Jaccard is
known from its construction and never has to be recomputed from the sets.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

from minscreen import workload

THRESHOLD = 0.5
E = 1e-3
FAMILY_SEED = 42


@dataclass(frozen=True)
class Workload:
    """groups use the CLI syntax J:COUNT:LO-HI. With all_pairs the pair list
    is every pair among the generated sets, not just the generated pairs."""

    name: str
    groups: tuple[str, ...]
    k: int
    schedule: tuple[int, ...]
    all_pairs: bool = False

    @property
    def schedule_text(self) -> str:
        return ",".join(str(point) for point in self.schedule)


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thirds",
            ("1/10:3000:15-25", "1/2:3000:15-25", "9/10:3000:15-25"),
            1000,
            tuple(range(100, 1000, 100)),
        ),
        Workload(
            "join",
            ("1/10:75:15-25", "1/2:75:15-25", "9/10:75:15-25"),
            1000,
            tuple(range(100, 1000, 100)),
            all_pairs=True,
        ),
        Workload(
            "wide",
            ("9/20:100:60-80", "1/2:100:60-80", "11/20:100:60-80"),
            4000,
            tuple(range(100, 4000, 100)),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated sets and pairs, on disk and in memory. exact[i] is the
    constructed Jaccard of pairs[i]."""

    sets_path: str
    pairs_path: str
    sets: dict[int, frozenset[int]]
    pairs: list[tuple[int, int]]
    exact: list[Fraction]

    @property
    def tokens(self) -> int:
        return sum(len(tokens) for tokens in self.sets.values())


def make_inputs(wl: Workload, seed: int, workdir: str) -> Inputs:
    """Generate the workload for a seed and write its sets and pairs files."""
    groups = tuple(workload.parse_group(text) for text in wl.groups)
    sets, generated = workload.gen_synthetic(workload.WorkloadSpec(groups=groups, seed=seed))
    generated_j = [g.jaccard for g in groups for _ in range(g.pair_count)]
    if wl.all_pairs:
        # Generated pair p is sets (2p, 2p+1); pairs of sets from different
        # generated pairs are token-disjoint, so their Jaccard is 0.
        pairs = list(itertools.combinations(range(len(sets)), 2))
        exact = [
            generated_j[a // 2] if a // 2 == b // 2 else Fraction(0) for a, b in pairs
        ]
    else:
        pairs, exact = generated, generated_j
    sets_path = os.path.join(workdir, "sets.txt")
    pairs_path = os.path.join(workdir, "pairs.txt")
    workload.write_sets(sets_path, sets)
    workload.write_pairs(pairs_path, pairs)
    return Inputs(sets_path, pairs_path, sets, pairs, exact)

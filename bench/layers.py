"""Traced run: the CLI flows rebuilt from each module's public functions,
with a span around every call into a layer.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends. A span's self time is its duration minus its children's; the
per-layer metrics are medians of self times over every span of a name. The
same flows also run untraced through ``cli.main`` in the same process, and
the difference is reported as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field, replace

from minscreen import binomial, cache, harness, minhash, screening, workload
from minscreen.sets import jaccard_fraction

import checks
import e2e
from workloads import E, FAMILY_SEED, THRESHOLD, Inputs, Workload


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = Span(name, self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def tree_problems(self) -> list[str]:
        """Children lie inside their parent, and each tree's self times add
        up to its root span."""
        problems = []
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                p = self.spans[s.parent]
                if not p.start <= s.start <= s.end <= p.end:
                    problems.append(f"span {i} {s.name} escapes parent {p.name}")
        self_t = self.self_times()
        root_of = []
        for s in self.spans:
            root_of.append(len(root_of) if s.parent is None else root_of[s.parent])
        for i, s in enumerate(self.spans):
            if s.parent is None:
                total = sum(t for t, r in zip(self_t, root_of) if r == i)
                if abs(total - (s.end - s.start)) > 1e-9:
                    problems.append(
                        f"self times of {s.name} add to {total}, root {s.end - s.start}")
        return problems

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def traced_sign(tr: Tracer, wl: Workload, sets_path: str, cache_path: str):
    """minscreen sign."""
    with tr.span("flow.sign"):
        with tr.span("workload.load_sets") as load:
            sets = workload.load_sets(sets_path)
        with tr.span("minhash.make_family"):
            family = minhash.make_family(wl.k, FAMILY_SEED)
        with tr.span("minhash.sign") as sign:
            signatures = {set_id: minhash.sign(family, tokens) for set_id, tokens in sets.items()}
        with tr.span("cache.write_cache") as write:
            cache.write_cache(cache_path, FAMILY_SEED, signatures)
    tokens = sum(len(t) for t in sets.values())
    load.counts.update(sets=len(sets), tokens=tokens)
    sign.counts.update(sets=len(sets), hash_evals=tokens * wl.k)
    write.counts.update(bytes=os.path.getsize(cache_path))
    return signatures


def traced_screen_signatures(tr, signatures, pairs, cfg, baseline=False, sets=None):
    """harness.screen_signatures, one span per layer call."""
    with tr.span("harness.screen_signatures"):
        started = time.perf_counter()
        with tr.span("binomial.build_threshold_table") as table_span:
            table = binomial.build_threshold_table(cfg.threshold, cfg.e, cfg.schedule, cfg.e_upper)
        with tr.span("screening.screen_batch") as screen:
            outcomes, summary = screening.screen_batch(pairs, signatures, cfg, table)
        with tr.span("screening.filtering_rate"):
            rates = {p: screening.filtering_rate(outcomes, p, cfg.schedule) for p in cfg.schedule}
        accuracy = agreement = full = None
        if baseline:
            with tr.span("screening.baseline") as base:
                full, full_summary = screening.screen_batch(
                    pairs, signatures, replace(cfg, schedule=()))
            base.counts.update(pairs=len(pairs), slot_comparisons=full_summary.total_comparisons)
            accuracy = sum(o.decision == f.decision for o, f in zip(outcomes, full)) / len(outcomes)
        if sets is not None:
            with tr.span("sets.jaccard_fraction") as exact:
                truth = [jaccard_fraction(sets[a], sets[b]) >= cfg.threshold for a, b in pairs]
            exact.counts.update(pairs=len(pairs))
            agreement = sum(
                (o.decision == screening.ABOVE) == t for o, t in zip(outcomes, truth)
            ) / len(outcomes)
        report = harness.ExperimentReport(
            n_pairs=len(outcomes), k=cfg.k, threshold=cfg.threshold, e=cfg.e,
            e_upper=cfg.e if cfg.e_upper is None else cfg.e_upper, schedule=cfg.schedule,
            total_comparisons=summary.total_comparisons,
            baseline_comparisons=summary.baseline_comparisons,
            above_threshold_count=len(summary.above_threshold),
            fr_strict={p: r[0] for p, r in rates.items()},
            fr_resolved={p: r[1] for p, r in rates.items()},
            accuracy=accuracy, agreement_vs_exact=agreement,
            wall_time_ms=(time.perf_counter() - started) * 1000.0,
        )
    table_span.counts.update(checkpoints=len(table.rows))
    first, last = cfg.schedule[0], cfg.schedule[-1]
    screen.counts.update(
        pairs=len(pairs),
        slot_comparisons=summary.total_comparisons,
        resolved_at_first=summary.filtered_at[first] + summary.output_at[first],
        full_comparisons=summary.full_comparisons,
        survivors_at_last=sum(o.resolution_checkpoint in (None, last) for o in outcomes),
    )
    return outcomes, full, table, report


def traced_write(tr, out_csv, pairs, outcomes, report):
    with tr.span("harness.write_outcomes_csv"):
        harness.write_outcomes_csv(out_csv, pairs, outcomes)
    with tr.span("harness.report_json"):
        with open(out_csv + ".report.json", "w", encoding="ascii", newline="\n") as fh:
            fh.write(harness.report_json(report))
    with tr.span("harness.format_report"):
        harness.format_report(report)


def screen_config(wl: Workload) -> screening.ScreenConfig:
    return screening.ScreenConfig(threshold=THRESHOLD, e=E, schedule=wl.schedule, k=wl.k,
                                  master_seed=FAMILY_SEED)


def traced_screen_cache(tr, wl, pairs_path, cache_path, out_csv):
    """minscreen screen --cache."""
    with tr.span("flow.screen_cache"):
        with tr.span("workload.load_pairs") as load:
            pairs = workload.load_pairs(pairs_path)
        with tr.span("cache.read_cache") as read:
            stored = cache.read_cache(cache_path)
        cfg = screen_config(wl)
        outcomes, _, table, report = traced_screen_signatures(tr, stored.signatures, pairs, cfg)
        traced_write(tr, out_csv, pairs, outcomes, report)
    load.counts.update(pairs=len(pairs))
    read.counts.update(bytes=os.path.getsize(cache_path))
    return stored, outcomes, table


def traced_oneshot(tr, wl, inputs: Inputs, out_csv):
    """minscreen screen --sets --baseline."""
    with tr.span("flow.oneshot") as root:
        with tr.span("workload.load_pairs") as load_pairs:
            pairs = workload.load_pairs(inputs.pairs_path)
        with tr.span("workload.load_sets") as load_sets:
            sets = workload.load_sets(inputs.sets_path)
        cfg = screen_config(wl)
        with tr.span("harness.sign_all"):
            with tr.span("minhash.make_family"):
                family = minhash.make_family(cfg.k, cfg.master_seed)
            referenced = sorted({set_id for pair in pairs for set_id in pair})
            with tr.span("minhash.sign") as sign:
                signatures = {i: minhash.sign(family, sets[i]) for i in referenced}
        outcomes, full, _, report = traced_screen_signatures(
            tr, signatures, pairs, cfg, baseline=True, sets=sets)
        traced_write(tr, out_csv, pairs, outcomes, report)
    tokens = sum(len(t) for t in sets.values())
    load_pairs.counts.update(pairs=len(pairs))
    load_sets.counts.update(sets=len(sets), tokens=tokens)
    sign.counts.update(sets=len(referenced),
                       hash_evals=sum(len(sets[i]) for i in referenced) * cfg.k)
    return root, outcomes, full


def run(
    wl: Workload, inputs: Inputs, workdir: str, seed: int, seconds: float,
    ops: checks.Ops, spans_path: str,
) -> tuple[dict[str, float], dict]:
    """Measure every per-layer metric; returns (metrics, run details)."""
    paths = {name: os.path.join(workdir, name) for name in (
        "cli.mhsg", "traced.mhsg", "cli_cache.csv", "cli_sets.csv", "traced_cache.csv",
        "traced_sets.csv")}
    truth = checks.truth_decisions(inputs.exact, THRESHOLD)
    family = minhash.make_family(wl.k, FAMILY_SEED)
    screen_args = ["--threshold", repr(THRESHOLD), "--e", repr(E), "--schedule", wl.schedule_text]
    tr = Tracer()
    untraced_s: list[float] = []
    traced_s: list[float] = []
    cli_self_s: list[float] = []
    ref = None

    def cli_timed(argv: list[str]) -> float:
        started = time.perf_counter()
        code = e2e.quiet_cli(argv)
        elapsed = time.perf_counter() - started
        ops.record(f"cli {argv[0]}", [] if code == 0 else [f"exit {code}"])
        return elapsed

    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < 1 or time.perf_counter() < deadline:
        first_span = len(tr.spans)
        untraced = cli_timed(["sign", "--sets", inputs.sets_path, "--k", str(wl.k),
                              "--seed", str(FAMILY_SEED), "--out", paths["cli.mhsg"]])
        signatures = traced_sign(tr, wl, inputs.sets_path, paths["traced.mhsg"])
        problems = []
        if e2e.file_bytes(paths["traced.mhsg"]) != e2e.file_bytes(paths["cli.mhsg"]):
            problems.append("traced sign wrote other bytes than minscreen sign")
        if ref is None:
            problems += checks.signature_problems(signatures, inputs.sets, family, seed)
        ops.record("traced sign", problems)

        untraced += cli_timed(["screen", "--cache", paths["cli.mhsg"], "--pairs", inputs.pairs_path,
                               *screen_args, "--out", paths["cli_cache.csv"]])
        stored, outcomes, table = traced_screen_cache(
            tr, wl, inputs.pairs_path, paths["traced.mhsg"], paths["traced_cache.csv"])
        problems = checks.same_signatures(stored.signatures, signatures, inputs.sets)
        if ref is None:
            matrix = checks.signature_matrix(signatures, len(inputs.sets))
            rows = [(r.k, r.m_l, r.m_u) for r in table.rows]
            ref = checks.reference_screen(matrix, inputs.pairs, rows, THRESHOLD)
            del matrix
            expected = {
                baseline: checks.expected_report(ref, truth, wl.schedule, wl.k, baseline)
                for baseline in (False, True)
            }
            gc.freeze()  # as in e2e.run
        ops.record("traced screen --cache",
                   problems + checks.outcome_problems("screen --cache", outcomes, ref.screened)
                   + output_problems(paths, "cli_cache.csv", "traced_cache.csv", expected[False]))
        del stored, signatures, outcomes

        oneshot = cli_timed(e2e.oneshot_argv(wl, inputs, paths["cli_sets.csv"]))
        untraced += oneshot
        root, outcomes, full = traced_oneshot(tr, wl, inputs, paths["traced_sets.csv"])
        ops.record("traced screen --sets",
                   checks.outcome_problems("screen --sets", outcomes, ref.screened)
                   + checks.outcome_problems("schedule=()", full, ref.baseline)
                   + output_problems(paths, "cli_sets.csv", "traced_sets.csv", expected[True])
                   + ([] if e2e.file_bytes(paths["cli_sets.csv"])
                      == e2e.file_bytes(paths["cli_cache.csv"])
                      else ["screen --sets and screen --cache CSVs differ"]))
        root_i = tr.spans.index(root, first_span)
        children = sum(s.end - s.start for s in tr.spans[first_span:] if s.parent == root_i)
        cli_self_s.append(oneshot - children)
        untraced_s.append(untraced)
        traced_s.append(sum(s.end - s.start for s in tr.spans[first_span:] if s.parent is None))
        wrong = checks.wrong_early(outcomes, truth)
        del outcomes, full
        passes += 1

    ops.record("span trees", tr.tree_problems())
    tr.write(spans_path)
    metrics = layer_metrics(tr, wl, len(inputs.pairs))
    overhead = statistics.median(t - u for t, u in zip(traced_s, untraced_s))
    metrics.update({
        "screening.wrong_early": wrong,
        "screening.wrong_early_bound": (1.0 + binomial.E_ROUNDING_SLACK) * E
        * len(wl.schedule) * len(inputs.pairs),
        "cli.self_s": statistics.median(cli_self_s),
        "trace.untraced_s": statistics.median(untraced_s),
        "trace.traced_s": statistics.median(traced_s),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / statistics.median(untraced_s),
    })
    return metrics, {"passes": passes, "spans": len(tr.spans), "spans_file": spans_path}


def output_problems(paths, cli_name, traced_name, expected) -> list[str]:
    """The CLI and the traced flow wrote the same CSV and a correct report."""
    problems = []
    if e2e.file_bytes(paths[cli_name]) != e2e.file_bytes(paths[traced_name]):
        problems.append(f"{traced_name} differs from {cli_name}")
    for name in (cli_name, traced_name):
        text = e2e.file_bytes(paths[name] + ".report.json").decode()
        problems += checks.report_problems(name, text, expected)
    return problems


def layer_metrics(tr: Tracer, wl: Workload, n_pairs: int) -> dict[str, float]:
    self_t = tr.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tr.spans):
        by_name.setdefault(s.name, []).append(i)

    def secs(name: str) -> float:
        return statistics.median(self_t[i] for i in by_name[name])

    def count(name: str, key: str) -> int:
        return tr.spans[by_name[name][0]].counts[key]

    m: dict[str, float] = {}
    m["workload.load_sets_s"] = secs("workload.load_sets")
    m["workload.load_sets_ns_per_token"] = m["workload.load_sets_s"] / count(
        "workload.load_sets", "tokens") * 1e9
    m["workload.load_pairs_s"] = secs("workload.load_pairs")
    m["workload.load_pairs_ns_per_pair"] = m["workload.load_pairs_s"] / n_pairs * 1e9
    m["minhash.family_s"] = secs("minhash.make_family")
    m["minhash.sign_s"] = secs("minhash.sign")
    m["minhash.hash_evals"] = count("minhash.sign", "hash_evals")
    m["minhash.ns_per_hash"] = m["minhash.sign_s"] / m["minhash.hash_evals"] * 1e9
    m["minhash.us_per_set"] = m["minhash.sign_s"] / count("minhash.sign", "sets") * 1e6
    m["cache.bytes"] = count("cache.write_cache", "bytes")
    m["cache.write_s"] = secs("cache.write_cache")
    m["cache.write_mb_per_s"] = m["cache.bytes"] / 1e6 / m["cache.write_s"]
    m["cache.read_s"] = secs("cache.read_cache")
    m["cache.read_mb_per_s"] = m["cache.bytes"] / 1e6 / m["cache.read_s"]
    m["binomial.table_s"] = secs("binomial.build_threshold_table")
    m["binomial.checkpoints"] = count("binomial.build_threshold_table", "checkpoints")
    m["binomial.ms_per_checkpoint"] = m["binomial.table_s"] / m["binomial.checkpoints"] * 1e3
    m["screening.screen_s"] = secs("screening.screen_batch")
    m["screening.slot_comparisons"] = count("screening.screen_batch", "slot_comparisons")
    m["screening.ns_per_comparison"] = (
        m["screening.screen_s"] / m["screening.slot_comparisons"] * 1e9)
    m["screening.us_per_pair"] = m["screening.screen_s"] / n_pairs * 1e6
    m["screening.baseline_s"] = secs("screening.baseline")
    m["screening.time_vs_baseline"] = m["screening.screen_s"] / m["screening.baseline_s"]
    m["screening.filtering_rate_s"] = secs("screening.filtering_rate")
    for key in ("resolved_at_first", "full_comparisons", "survivors_at_last"):
        m[f"screening.{key}"] = count("screening.screen_batch", key)
    m["sets.exact_truth_s"] = secs("sets.jaccard_fraction")
    m["harness.outcomes_csv_s"] = secs("harness.write_outcomes_csv")
    m["harness.report_json_s"] = secs("harness.report_json")
    return m

"""End-to-end measurement, tracing off.

One closed loop with one client: each operation starts when the previous
one has finished. Every user flow runs once, then again at evenly spread
points of the run until each has had its share of the run's time or its
fewest samples. Each operation's output is checked, the first against the
numpy reference, later ones against the first.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from minscreen import cache, cli, harness, minhash, screening, workload
from minscreen.screening import ScreenConfig

import checks
from workloads import E, FAMILY_SEED, THRESHOLD, Inputs, Workload

# Calls per run of each flow, (fewest, most). A screen_batch call runs
# BATCHES_PER_CALL slices, so the latency percentiles pool at least 250
# samples and at least 10 lie beyond p95.
SAMPLE_LIMITS = {
    "sign": (4, 30), "setup": (3, 30), "screen": (4, 30), "screen_batch": (10, 20),
    "oneshot": (4, 30),
}
BATCH_PAIRS = 100
BATCHES_PER_CALL = 25
CHILD_TIMEOUT_S = 150.0
# The schedule=() check runs on an even sample of at most about this many
# pairs; the traced run checks every pair.
BASELINE_CHECK_PAIRS = 20_000


def child_env(src_dir: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def oneshot_argv(wl: Workload, inputs: Inputs, out_csv: str) -> list[str]:
    """The README flow: screen --sets with the full-K baseline."""
    return [
        "screen", "--sets", inputs.sets_path, "--pairs", inputs.pairs_path,
        "--threshold", repr(THRESHOLD), "--e", repr(E), "--schedule", wl.schedule_text,
        "--k", str(wl.k), "--seed", str(FAMILY_SEED), "--baseline", "--out", out_csv,
    ]


def run_child(argv: list[str], env: dict[str, str], err_path: str) -> tuple[int, float, float]:
    """Run argv in a fresh interpreter; returns (exit code, wall s, peak RSS MiB)."""
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def batch_offsets(n_pairs: int, count: int, first: int) -> list[int]:
    """Start offsets of consecutive BATCH_PAIRS slices, stepping through
    the whole pair list and wrapping."""
    span = max(1, n_pairs - BATCH_PAIRS + 1)
    return [(j * BATCH_PAIRS) % span for j in range(first, first + count)]


class Run:
    """State of one end-to-end run: inputs, samples, and the verified
    first output of each flow that later outputs are compared with."""

    def __init__(self, wl: Workload, inputs: Inputs, workdir: str, seed: int,
                 ops: checks.Ops, src_dir: str) -> None:
        self.wl, self.inputs, self.seed, self.ops = wl, inputs, seed, ops
        self.env = child_env(src_dir)
        self.path = {name: os.path.join(workdir, name) for name in (
            "sigs.mhsg", "screen.csv", "screen.report.json", "oneshot.csv", "oneshot.err")}
        self.truth = checks.truth_decisions(inputs.exact, THRESHOLD)
        self.samples: dict[str, list[float]] = {
            name: [] for name in ("setup", "sign", "screen", "screen_batch", "oneshot", "rss")}
        self.cache_digest = self.ref = self.first_table = self.screen_bytes = None
        self.oneshot_report = None
        self.batches_done = 0

    def sign(self) -> float:
        """minscreen sign: load the sets, sign each, write the .mhsg cache."""
        wl, cache_path = self.wl, self.path["sigs.mhsg"]
        started = time.perf_counter()
        code = quiet_cli(["sign", "--sets", self.inputs.sets_path, "--k", str(wl.k),
                          "--seed", str(FAMILY_SEED), "--out", cache_path])
        elapsed = time.perf_counter() - started
        self.samples["sign"].append(elapsed)
        digest = hashlib.blake2b(file_bytes(cache_path)).digest() if code == 0 else None
        problems = [] if code == 0 else [f"exit {code}"]
        if self.cache_digest is None and not problems:
            problems = cache_roundtrip_problems(cache_path, self.inputs, wl, self.seed)
            self.cache_digest = digest
        elif digest != self.cache_digest:
            problems.append("cache bytes differ from the first sign")
        self.ops.record("sign", problems)
        return elapsed

    def setup(self) -> float:
        """Set-up of a screen from cache, until the first pair can be compared."""
        self.stored = None
        started = time.perf_counter()
        self.pairs = workload.load_pairs(self.inputs.pairs_path)
        self.stored = cache.read_cache(self.path["sigs.mhsg"])
        self.cfg = ScreenConfig(threshold=THRESHOLD, e=E, schedule=self.wl.schedule,
                                k=self.stored.k, master_seed=self.stored.master_seed)
        self.table = screening.build_table(self.cfg)
        elapsed = time.perf_counter() - started
        self.samples["setup"].append(elapsed)
        self.first_table = self.first_table or self.table
        problems = []
        if self.pairs != self.inputs.pairs:
            problems.append("pairs file did not load back as generated")
        got = (self.stored.k, self.stored.master_seed, len(self.stored.signatures))
        if got != (self.wl.k, FAMILY_SEED, len(self.inputs.sets)):
            problems.append(f"cache holds (k, seed, sets) = {got}")
        if self.table.checkpoints != self.wl.schedule or self.table != self.first_table:
            problems.append("threshold table differs between set-ups")
        self.ops.record("setup", problems)
        return elapsed

    def build_reference(self) -> None:
        wl, inputs = self.wl, self.inputs
        matrix = checks.signature_matrix(self.stored.signatures, len(inputs.sets))
        rows = [(row.k, row.m_l, row.m_u) for row in self.table.rows]
        self.ref = checks.reference_screen(matrix, inputs.pairs, rows, THRESHOLD)
        del matrix
        full_cfg = ScreenConfig(threshold=THRESHOLD, e=E, schedule=(), k=wl.k,
                                master_seed=FAMILY_SEED)
        step = max(1, len(inputs.pairs) // BASELINE_CHECK_PAIRS)
        outcomes, _ = screening.screen_batch(inputs.pairs[::step], self.stored.signatures, full_cfg)
        self.ops.record("baseline", checks.outcome_problems(
            "schedule=()", outcomes, self.ref.baseline[::step]))
        self.expected = {
            baseline: checks.expected_report(self.ref, self.truth, wl.schedule, wl.k, baseline)
            for baseline in (False, True)
        }

    def screen(self) -> float:
        """Screen the whole pair list after set-up, then write CSV and report."""
        started = time.perf_counter()
        outcomes, report = harness.screen_signatures(self.stored.signatures, self.pairs, self.cfg)
        harness.write_outcomes_csv(self.path["screen.csv"], self.pairs, outcomes)
        with open(self.path["screen.report.json"], "w", encoding="ascii", newline="\n") as fh:
            fh.write(harness.report_json(report))
        elapsed = time.perf_counter() - started
        self.samples["screen"].append(elapsed)
        problems = checks.report_problems(
            "screen", file_bytes(self.path["screen.report.json"]).decode(), self.expected[False])
        if self.screen_bytes is None:
            problems += checks.outcome_problems("screen", outcomes, self.ref.screened)
            self.screen_bytes = file_bytes(self.path["screen.csv"])
        elif file_bytes(self.path["screen.csv"]) != self.screen_bytes:
            problems.append("outcome CSV differs from the first screen")
        self.ops.record("screen", problems)
        return elapsed

    def screen_batches(self) -> float:
        """Latency of one screen_batch call on a fixed-size slice."""
        started_all = time.perf_counter()
        offsets = batch_offsets(len(self.pairs), BATCHES_PER_CALL, self.batches_done)
        self.batches_done += BATCHES_PER_CALL
        for offset in offsets:
            chunk = self.pairs[offset : offset + BATCH_PAIRS]
            started = time.perf_counter()
            outcomes, _ = screening.screen_batch(
                chunk, self.stored.signatures, self.cfg, self.table)
            self.samples["screen_batch"].append((time.perf_counter() - started) * 1000.0)
            self.ops.record("screen_batch", checks.outcome_problems(
                f"screen_batch@{offset}", outcomes,
                self.ref.screened[offset : offset + BATCH_PAIRS]))
        return time.perf_counter() - started_all

    def oneshot(self) -> float:
        """The one-shot README flow in a fresh process."""
        out_csv = self.path["oneshot.csv"]
        code, wall, rss = run_child(
            [sys.executable, "-m", "minscreen.cli", *oneshot_argv(self.wl, self.inputs, out_csv)],
            self.env, self.path["oneshot.err"])
        self.samples["oneshot"].append(wall)
        self.samples["rss"].append(rss)
        if code != 0:
            problems = [f"exit {code}: {file_bytes(self.path['oneshot.err'])[-300:]!r}"]
        else:
            text = file_bytes(out_csv + ".report.json").decode()
            problems = checks.report_problems("oneshot", text, self.expected[True])
            if file_bytes(out_csv) != self.screen_bytes:
                problems.append("screen --sets CSV differs from the screen-from-cache CSV")
            self.oneshot_report = self.oneshot_report or json.loads(text)
        self.ops.record("oneshot", problems)
        return wall

    def metrics(self) -> dict[str, float]:
        if self.oneshot_report is None:
            raise RuntimeError("no one-shot run succeeded; nothing to report")
        s, report = self.samples, self.oneshot_report
        return {
            "setup_s": statistics.median(s["setup"]),
            "sign_sets_per_s": len(self.inputs.sets) / statistics.median(s["sign"]),
            "screen_pairs_per_s": len(self.inputs.pairs) / statistics.median(s["screen"]),
            "screen_batch_ms_p50": statistics.median(s["screen_batch"]),
            "screen_batch_ms_p95": statistics.quantiles(s["screen_batch"], n=20)[18],
            "oneshot_s": statistics.median(s["oneshot"]),
            "peak_rss_mb": statistics.median(s["rss"]),
            "comparison_share": report["total_comparisons"] / report["baseline_comparisons"],
            "agreement_vs_full": report["accuracy"],
            "agreement_vs_exact": report["agreement_vs_exact"],
        }


def plan(first_seconds: dict[str, float], seconds: float) -> list[str]:
    """Order of the remaining calls after one call of each flow.

    Each flow gets an equal share of the run's time, within its sample
    limits, and its calls are spread evenly over the run, so that every
    median draws on the whole run rather than on one stretch of it: on a
    shared VM the speed of the same code drifts over stretches of seconds.
    """
    share = seconds / len(first_seconds)
    due = []
    for name, took in first_seconds.items():
        low, high = SAMPLE_LIMITS[name]
        calls = min(high, max(low, int(share / max(took, 1e-6))))
        due += [((k + 0.5) / calls, name) for k in range(1, calls)]
    return [name for _, name in sorted(due)]


def run(
    wl: Workload, inputs: Inputs, workdir: str, seed: int, seconds: float,
    ops: checks.Ops, src_dir: str,
) -> tuple[dict[str, float], dict]:
    """Measure every end-to-end metric; returns (metrics, run details)."""
    r = Run(wl, inputs, workdir, seed, ops, src_dir)
    flows = {"sign": r.sign, "setup": r.setup, "screen": r.screen,
             "screen_batch": r.screen_batches, "oneshot": r.oneshot}
    first_seconds = {}
    for name, flow in flows.items():
        first_seconds[name] = flow()
        if name == "setup":
            r.build_reference()
            # Keep the benchmark's own long-lived objects out of the
            # program's garbage collections.
            gc.freeze()
    for name in plan(first_seconds, seconds):
        flows[name]()
    metrics = r.metrics()
    p95 = metrics["screen_batch_ms_p95"]
    details = {
        "samples": {name: len(v) for name, v in r.samples.items()},
        "screen_batch_beyond_p95": sum(v > p95 for v in r.samples["screen_batch"]),
        "batch_pairs": BATCH_PAIRS,
        "cache_bytes": os.path.getsize(r.path["sigs.mhsg"]),
    }
    return metrics, details


def cache_roundtrip_problems(cache_path: str, inputs: Inputs, wl: Workload, seed: int) -> list[str]:
    """The cache reads back to signatures of the sets, and writing what was
    read reproduces the file byte for byte."""
    stored = cache.read_cache(cache_path)
    family = minhash.make_family(wl.k, FAMILY_SEED)
    problems = checks.signature_problems(stored.signatures, inputs.sets, family, seed)
    sample = sorted(inputs.sets)[:: max(1, len(inputs.sets) // 32)]
    fresh = {i: minhash.sign(family, inputs.sets[i]) for i in sample}
    problems += checks.same_signatures(stored.signatures, fresh, sample)
    again = cache_path + ".again"
    cache.write_cache(again, stored.master_seed, stored.signatures)
    if file_bytes(again) != file_bytes(cache_path):
        problems.append("rewriting the read cache changes its bytes")
    os.remove(again)
    return problems

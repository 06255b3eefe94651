"""minscreen benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload thirds --seed 1 --seconds 20 --trace 0

Run from the repository root. Generates the named workload from the seed,
drives the user flows against the package under src/, checks every output
and prints the metrics named in BENCHMARK.json as the last stdout line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. Exits
1 when an output check fails and 2 when the package or BENCHMARK.json is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# numpy and any BLAS it loads stay single-threaded, here and in child
# processes, which inherit this environment: the loop has one client.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cache_sizes() -> dict[str, str]:
    """Per-level data/unified cache sizes of CPU 0, read from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def size_bytes(text: str) -> int | None:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


def environment(wl, inputs, seed: int) -> dict:
    import numpy as np

    from minscreen import minhash

    caches = cache_sizes()
    llc = size_bytes(caches[max(caches)]) if caches else None
    chunk_rows = min(getattr(minhash, "_SIGN_CHUNK", 0), max(len(t) for t in inputs.sets.values()))
    chunk_bytes = chunk_rows * wl.k * 8
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "loop": "closed, one client",
        "workload": {
            "name": wl.name,
            "sets": len(inputs.sets),
            "pairs": len(inputs.pairs),
            "tokens": inputs.tokens,
            "k": wl.k,
            "checkpoints": len(wl.schedule),
            "sign_chunk_bytes": chunk_bytes,
            "sign_chunk_vs_llc": chunk_bytes / llc if llc else None,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="minscreen benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "minscreen", "__init__.py")):
        print(f"error: no minscreen package under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print(f"error: no {spec_path}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")

    os.environ.update(SINGLE_THREAD_ENV)  # before numpy is imported
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spec)


def measure(wl, seed: int, seconds: float, trace: int, spec: dict) -> int:
    """Run one workload, print the metrics and return the exit status."""
    import checks
    import e2e
    import layers
    from workloads import make_inputs

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=WORK)
    ops = checks.Ops()
    try:
        inputs = make_inputs(wl, seed, workdir)
        if trace:
            spans_path = os.path.join(WORK, f"spans-{wl.name}-{seed}.json")
            values, details = layers.run(wl, inputs, workdir, seed, seconds, ops, spans_path)
            declared = spec["per_layer"]
        else:
            values, details = e2e.run(wl, inputs, workdir, seed, seconds, ops, SRC)
            declared = spec["end_to_end"]
        env = environment(wl, inputs, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")
    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"env": env, "run": details,
                      "ops_attempted": ops.attempted, "ops_failed": ops.failed}))
    correct = ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

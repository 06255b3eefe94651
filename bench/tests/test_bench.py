"""Smoke test of the benchmark itself, on a tiny workload.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import e2e  # noqa: E402
import run  # noqa: E402
from minscreen.screening import ABOVE, BELOW  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload("tiny", ("1/10:20:15-25", "1/2:20:15-25", "9/10:20:15-25"), 200, (50, 100, 150))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(capsys, trace, declared):
    status = run.measure(TINY, 5, 0, trace, SPEC)
    result = result_line(capsys)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_flipped_decision_is_counted_as_a_failed_op(capsys, monkeypatch):
    original = e2e.screening.screen_batch
    doctored = []

    def flip_first(pairs, signatures, cfg, table=None):
        outcomes, summary = original(pairs, signatures, cfg, table)
        first = outcomes[0]
        outcomes[0] = replace(first, decision=BELOW if first.decision == ABOVE else ABOVE)
        doctored.append(len(pairs))
        return outcomes, summary

    monkeypatch.setattr(e2e.screening, "screen_batch", flip_first)
    status = run.measure(TINY, 5, 0, 0, SPEC)
    result = result_line(capsys)
    assert status == 1
    assert result["correct"] is False
    assert doctored and result["failed"] == len(doctored)


def test_exits_nonzero_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "thirds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

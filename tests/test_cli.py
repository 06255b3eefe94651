"""Harness plumbing and the command-line workflow, end to end."""

import csv
import io
import json
import re
from pathlib import Path

import pytest

from minscreen.cache import read_cache
from minscreen.cli import main
from minscreen.harness import (
    OUTCOME_COLUMNS,
    outcomes_csv,
    read_outcomes_csv,
    report_fr_curves,
    run_screen,
    screen_signatures,
    sign_all,
    write_outcomes_csv,
)
from minscreen.screening import (
    FILTERED_EARLY,
    OUTPUT_EARLY,
    ScreenConfig,
    build_table,
    compare_pair,
    filtering_rate,
)
from minscreen.minhash import make_family, slot_hash
from minscreen.workload import WorkloadGroup, WorkloadSpec, gen_synthetic, load_sets

GOLDEN = Path(__file__).parent / "golden"


def small_workload():
    spec = WorkloadSpec(
        groups=(
            WorkloadGroup("4/5", 30, 15, 25),
            WorkloadGroup("1/5", 30, 15, 25),
        ),
        seed=11,
    )
    return gen_synthetic(spec)


class TestHarness:
    def test_run_screen_report_fields(self):
        sets, pairs = small_workload()
        cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100, 200), k=400, master_seed=5)
        outcomes, report = run_screen(sets, pairs, cfg, baseline=True)
        assert report.n_pairs == 60
        assert report.baseline_comparisons == 60 * 400
        assert report.total_comparisons <= report.baseline_comparisons
        assert set(report.fr_strict) == {100, 200}
        assert report.accuracy == 1.0
        assert report.agreement_vs_exact == 1.0
        assert report.above_threshold_count == 30
        assert report.e_upper == 1e-3

    def test_empty_schedule_reports_exact_baseline_accuracy(self):
        sets, pairs = small_workload()
        cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(), k=300, master_seed=5)
        outcomes, report = run_screen(sets, pairs, cfg, baseline=True)
        assert report.accuracy == 1.0
        assert report.total_comparisons == report.baseline_comparisons
        assert all(o.resolution_kind == "FullComparison" for o in outcomes)

    def test_report_rates_equal_filtering_rate(self):
        sets, pairs = small_workload()
        cfg = ScreenConfig(threshold=0.5, e=1e-2, schedule=(50, 100, 150), k=200, master_seed=5)
        outcomes, report = run_screen(sets, pairs, cfg)
        for point in cfg.schedule:
            expected = filtering_rate(outcomes, point, cfg.schedule)
            assert (report.fr_strict[point], report.fr_resolved[point]) == expected
        assert report.fr_resolved[150] > report.fr_strict[150] > 0

    @pytest.mark.parametrize("schedule", [(50, 100, 150), ()])
    def test_every_rate_equals_an_independent_count(self, schedule):
        sets, pairs = small_workload()
        cfg = ScreenConfig(threshold=0.5, e=1e-2, schedule=schedule, k=200, master_seed=5)
        outcomes, report = run_screen(sets, pairs, cfg)

        def share(point, kinds):
            hits = sum(
                o.resolution_kind in kinds and o.resolution_checkpoint <= point for o in outcomes
            )
            return hits / len(outcomes)

        points = (1, 49, 50, 75, 100, 120, 150, 199, 200)
        early = {FILTERED_EARLY, OUTPUT_EARLY}
        expected = {p: (share(p, {FILTERED_EARLY}), share(p, early)) for p in points}
        if schedule:
            assert expected[49] == (0.0, 0.0)
            assert expected[75] == expected[50] != (0.0, 0.0)
            assert expected[200][1] > expected[200][0] > 0
        else:
            assert set(expected.values()) == {(0.0, 0.0)}
        assert set(report.fr_strict) == set(report.fr_resolved) == set(schedule)
        for point in schedule:
            assert (report.fr_strict[point], report.fr_resolved[point]) == expected[point]
        rows = report_fr_curves({"run": outcomes}, points).splitlines()[1:]
        assert rows == [f"run,{p},{expected[p][0]!r},{expected[p][1]!r}" for p in points]
        for point in points:
            assert filtering_rate(outcomes, point, points) == expected[point]

    @pytest.mark.parametrize(
        "threshold, a, b, agreement",
        [
            (0.5, {1, 2, 3}, {2, 3, 4}, 1.0),
            (0.3, set(range(7)), set(range(4, 10)), 1.0),
            (0.1, {0}, set(range(10)), 0.0),
        ],
    )
    def test_exact_truth_is_decided_exactly(self, threshold, a, b, agreement):
        # Identical signatures decide the pair as above, so the agreement
        # shows whether exact J >= threshold: J equals the threshold's
        # decimal in each case, and the float 0.1 lies just above 1/10.
        sig = sign_all({0: {1}}, [(0, 0)], ScreenConfig(schedule=(), k=20))[0]
        cfg = ScreenConfig(threshold=threshold, schedule=(), k=20)
        outcomes, report = screen_signatures({0: sig, 1: sig}, [(0, 1)], cfg, sets={0: a, 1: b})
        assert outcomes[0].decision == "AboveThreshold"
        assert report.agreement_vs_exact == agreement

    def test_run_screen_rejects_unknown_ids(self):
        sets, pairs = small_workload()
        cfg = ScreenConfig(schedule=(), k=10)
        with pytest.raises(ValueError, match="unknown set id 9999"):
            run_screen(sets, pairs + [(0, 9999)], cfg)

    def test_outcomes_csv_round_trip(self, tmp_path):
        sets, pairs = small_workload()
        cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100,), k=200, master_seed=5)
        outcomes, _ = run_screen(sets, pairs, cfg)
        path = str(tmp_path / "outcomes.csv")
        write_outcomes_csv(path, pairs, outcomes)
        pairs_back, outcomes_back = read_outcomes_csv(path)
        assert pairs_back == pairs
        assert outcomes_back == outcomes

    def test_outcomes_csv_header_is_pinned(self):
        text = outcomes_csv([], [])
        assert text == ",".join(OUTCOME_COLUMNS) + "\n"

    @pytest.mark.parametrize("source", ["shared", "unshared", "full_k", "empty"])
    def test_outcomes_csv_matches_csv_writer(self, source):
        sets, pairs = small_workload()
        cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(50, 100), k=200, master_seed=5)
        if source == "empty":
            pairs, outcomes = [], []
        elif source == "unshared":
            signatures = sign_all(sets, pairs, cfg)
            table = build_table(cfg)
            outcomes = [compare_pair(signatures[a], signatures[b], table, cfg) for a, b in pairs]
        else:
            if source == "full_k":
                cfg = ScreenConfig(threshold=0.5, schedule=(), k=200, master_seed=5)
            outcomes, _ = run_screen(sets, pairs, cfg)
            assert len({id(o) for o in outcomes}) < len(outcomes)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(OUTCOME_COLUMNS)
        for index, ((id_a, id_b), o) in enumerate(zip(pairs, outcomes)):
            checkpoint = "" if o.resolution_checkpoint is None else o.resolution_checkpoint
            row = [index, id_a, id_b, o.decision, o.resolution_kind, checkpoint]
            writer.writerow(row + [o.comparisons_used, repr(o.estimate)])
        assert outcomes_csv(pairs, outcomes) == buf.getvalue()

    def test_read_outcomes_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not an outcomes CSV"):
            read_outcomes_csv(str(path))

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("0,1,2,Maybe,FilteredEarly,100,100,0.1", "unknown decision 'Maybe'"),
            ("0,1,2,BelowThreshold,Whatever,100,100,0.1", "unknown resolution kind 'Whatever'"),
            (
                "0,1,2,AboveThreshold,FullComparison,100,200,0.9",
                "FullComparison row with resolution_checkpoint '100'",
            ),
            ("0,1,2,AboveThreshold,OutputEarly,,100,0.9", "OutputEarly row without resolution_checkpoint"),
            ("0,1,x,BelowThreshold,FilteredEarly,100,100,0.1", "bad number"),
            ("0,1,2,BelowThreshold,FilteredEarly,1e2,100,0.1", "bad number"),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100,low", "bad number"),
            ("0,1,2,BelowThreshold", "expected 8 fields, got 4"),
            ("0,1,2,BelowThreshold,FilteredEarly,-100,100,0.1", "bad number"),
            ("0,1,2,BelowThreshold,FilteredEarly,1_00,100,0.1", "bad number"),
            ("0,1,+2,BelowThreshold,FilteredEarly,100,100,0.1", "bad number"),
            ("x,1,2,BelowThreshold,FilteredEarly,100,100,0.1", "bad number"),
            ("0,1,2,BelowThreshold,FilteredEarly,100, 100,0.1", "bad number"),
            (
                "0,1,2,BelowThreshold,FilteredEarly,0,0,0.1",
                "resolution_checkpoint 0, expected at least 1",
            ),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100,nan", "estimate 'nan' is not a number"),
            ("0,1,2,AboveThreshold,FullComparison,,100,inf", "estimate 'inf' is not a number"),
            ("0,1,2,AboveThreshold,OutputEarly,100,100,1.5", "estimate '1.5' is not a number"),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100,-0.1", "estimate '-0.1' is not a number"),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100,-0.0", "estimate '-0.0' is not a number"),
            ("0,1,2,AboveThreshold,FilteredEarly,100,100,0.1", "FilteredEarly row with decision AboveThreshold"),
            ("0,1,2,BelowThreshold,OutputEarly,100,100,0.9", "OutputEarly row with decision BelowThreshold"),
            (
                "0,1,2,BelowThreshold,FilteredEarly,100,700,0.1",
                "comparisons_used 700 differs from resolution_checkpoint 100",
            ),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100, 0.1", "estimate ' 0.1' is not written as 0.1"),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100,0.1_5", "estimate '0.1_5' is not written as 0.15"),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100,+0.1", "estimate '+0.1' is not written as 0.1"),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100,1e-1", "estimate '1e-1' is not written as 0.1"),
            ("0,1,2,BelowThreshold,FilteredEarly,100,100,0.10", "estimate '0.10' is not written as 0.1"),
            ("0,1,2,AboveThreshold,FullComparison,,100,1", "estimate '1' is not written as 1.0"),
        ],
    )
    def test_read_outcomes_rejects_bad_rows_at_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "bad.csv"
        good = "0,1,2,BelowThreshold,FilteredEarly,100,100,0.1"
        path.write_text("\n".join([",".join(OUTCOME_COLUMNS), good, row, good, ""]))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: {problem}")):
            read_outcomes_csv(str(path))

    def test_fr_curves_rows_are_cumulative(self):
        sets, pairs = small_workload()
        cfg = ScreenConfig(threshold=0.5, e=1e-3, schedule=(100, 200), k=200, master_seed=5)
        signatures = sign_all(sets, pairs, cfg)
        outcomes, _ = screen_signatures(signatures, pairs, cfg)
        text = report_fr_curves({"run": outcomes}, cfg.schedule)
        lines = text.splitlines()
        assert lines[0] == "source,k,fr_strict,fr_resolved"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["run", "run"]
        assert float(rows[0][2]) <= float(rows[1][2])
        assert float(rows[0][3]) <= float(rows[1][3])

    def test_fr_curves_reject_empty_input(self):
        with pytest.raises(ValueError, match="no outcome sets"):
            report_fr_curves({}, (100,))
        with pytest.raises(ValueError, match="is empty"):
            report_fr_curves({"x": []}, (100,))


@pytest.fixture()
def workdir(tmp_path):
    code = main(
        [
            "gen",
            "--group",
            "0.8:25:15-25",
            "--group",
            "0.25:25:15-25",
            "--seed",
            "13",
            "--out-sets",
            str(tmp_path / "sets.txt"),
            "--out-pairs",
            str(tmp_path / "pairs.txt"),
        ]
    )
    assert code == 0
    return tmp_path


class TestCli:
    def test_gen_sign_screen_fr_pipeline(self, workdir, capsys):
        assert (
            main(
                [
                    "sign",
                    "--sets",
                    str(workdir / "sets.txt"),
                    "--k",
                    "400",
                    "--seed",
                    "21",
                    "--out",
                    str(workdir / "sigs.mhsg"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "screen",
                    "--cache",
                    str(workdir / "sigs.mhsg"),
                    "--pairs",
                    str(workdir / "pairs.txt"),
                    "--threshold",
                    "0.5",
                    "--e",
                    "1e-3",
                    "--schedule",
                    "100,200",
                    "--baseline",
                    "--out",
                    str(workdir / "outcomes.csv"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "accuracy vs full" in out
        report = json.loads((workdir / "outcomes.csv.report.json").read_text())
        assert report["n_pairs"] == 50
        assert report["k"] == 400
        header = (workdir / "outcomes.csv").read_text().splitlines()[0]
        assert header == ",".join(OUTCOME_COLUMNS)
        assert (
            main(
                [
                    "fr",
                    "--outcomes",
                    f"run={workdir / 'outcomes.csv'}",
                    "--schedule",
                    "100,200",
                    "--out",
                    str(workdir / "fr.csv"),
                ]
            )
            == 0
        )
        fr_lines = (workdir / "fr.csv").read_text().splitlines()
        assert fr_lines[0] == "source,k,fr_strict,fr_resolved"
        assert len(fr_lines) == 3

    def test_screen_from_sets_equals_screen_from_cache(self, workdir):
        common = [
            "--pairs",
            str(workdir / "pairs.txt"),
            "--e",
            "1e-3",
            "--schedule",
            "100,200",
        ]
        assert (
            main(
                [
                    "sign",
                    "--sets",
                    str(workdir / "sets.txt"),
                    "--k",
                    "300",
                    "--seed",
                    "42",
                    "--out",
                    str(workdir / "sigs.mhsg"),
                ]
            )
            == 0
        )
        assert (
            main(
                ["screen", "--sets", str(workdir / "sets.txt"), "--k", "300", "--out", str(workdir / "a.csv")]
                + common
            )
            == 0
        )
        assert (
            main(
                ["screen", "--cache", str(workdir / "sigs.mhsg"), "--out", str(workdir / "b.csv")]
                + common
            )
            == 0
        )
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    def test_screen_runs_are_byte_identical(self, workdir):
        argv = [
            "screen",
            "--sets",
            str(workdir / "sets.txt"),
            "--pairs",
            str(workdir / "pairs.txt"),
            "--k",
            "200",
            "--e",
            "1e-3",
            "--schedule",
            "100",
        ]
        assert main(argv + ["--out", str(workdir / "r1.csv")]) == 0
        assert main(argv + ["--out", str(workdir / "r2.csv")]) == 0
        assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()

    def test_screen_empty_schedule_is_plain_baseline(self, workdir):
        assert (
            main(
                [
                    "screen",
                    "--sets",
                    str(workdir / "sets.txt"),
                    "--pairs",
                    str(workdir / "pairs.txt"),
                    "--k",
                    "200",
                    "--schedule",
                    "",
                    "--baseline",
                    "--out",
                    str(workdir / "plain.csv"),
                ]
            )
            == 0
        )
        report = json.loads((workdir / "plain.csv.report.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["total_comparisons"] == report["baseline_comparisons"]

    def test_thresholds_to_stdout_and_file(self, workdir, capsys):
        assert main(["thresholds", "--threshold", "0.5", "--e", "1e-3", "--schedule", "100,200"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "k,m_l,T_L,m_u,T_U"
        assert out.splitlines()[1] == "100,34,0.34,65,0.65"
        path = workdir / "table.csv"
        assert (
            main(
                ["thresholds", "--e", "1e-3", "--schedule", "100", "--out", str(path)]
            )
            == 0
        )
        assert path.read_text().splitlines()[1] == "100,34,0.34,65,0.65"

    def test_sign_has_no_bits_option(self, workdir, capsys):
        out = workdir / "b8.mhsg"
        with pytest.raises(SystemExit) as exc:
            main(["sign", "--sets", str(workdir / "sets.txt"), "--bits", "8", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bits 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--sets", "--cache"])
    def test_screen_refuses_an_empty_pairs_file(self, workdir, capsys, source):
        inputs = {"--sets": workdir / "sets.txt", "--cache": workdir / "sigs.mhsg"}
        assert main(["sign", "--sets", str(inputs["--sets"]), "--out", str(inputs["--cache"])]) == 0
        capsys.readouterr()
        empty = workdir / "empty.txt"
        empty.write_text("")
        out = workdir / "o.csv"
        args = ["screen", source, str(inputs[source]), "--pairs", str(empty), "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: {empty}: no pairs to screen\n")
        assert not out.exists()
        assert not (workdir / "o.csv.report.json").exists()

    @pytest.mark.parametrize(
        "schedule, points",
        [("300,100,100,0", (300, 100, 100, 0)), ("100,100", (100, 100)), ("0", (0,))],
    )
    def test_fr_checks_its_schedule_like_screen_and_thresholds(
        self, workdir, capsys, schedule, points
    ):
        path = workdir / "o.csv"
        row = "0,1,2,AboveThreshold,OutputEarly,100,100,0.9"
        path.write_text(",".join(OUTCOME_COLUMNS) + f"\n{row}\n")
        problem = "checkpoints must be strictly increasing positive integers"
        problem = f"error: {problem}, got {points!r}\n"
        args = ["--sets", str(workdir / "sets.txt"), "--pairs", str(workdir / "pairs.txt")]
        for argv in (
            ["fr", "--outcomes", str(path)],
            ["thresholds"],
            ["screen", *args, "--out", str(workdir / "screened.csv")],
        ):
            assert main([*argv, "--schedule", schedule]) == 1
            assert capsys.readouterr() == ("", problem)

    def test_fr_refuses_rows_it_would_miscount(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        path.write_text(",".join(OUTCOME_COLUMNS) + "\n0,1,2,Maybe,Whatever,100,100,0.5\n")
        assert main(["fr", "--outcomes", str(path), "--schedule", "100"]) == 1
        assert f"{path}:2: unknown decision 'Maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sign", "screen"])
    def test_non_ascii_byte_in_sets_file_names_file_and_line(self, workdir, capsys, command):
        sets = workdir / "sets.txt"
        sets.write_bytes(b"1 2 3\n# comment \xff\n4 5\n")
        args = {
            "sign": ["sign", "--sets", str(sets), "--out", str(workdir / "s.mhsg")],
            "screen": ["screen", "--sets", str(sets), "--pairs", str(workdir / "pairs.txt"),
                       "--out", str(workdir / "o.csv")],
        }[command]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {sets}:2: non-ASCII byte (set id 1)\n"

    def test_non_ascii_byte_in_pairs_file_names_file_and_line(self, workdir, capsys):
        pairs = workdir / "pairs.txt"
        pairs.write_bytes(b"0 1\n\n2 3\xe9\n")
        args = ["screen", "--sets", str(workdir / "sets.txt"), "--pairs", str(pairs)]
        assert main([*args, "--out", str(workdir / "o.csv")]) == 1
        assert capsys.readouterr().err == f"error: {pairs}:3: non-ASCII byte\n"

    def test_non_ascii_byte_in_outcomes_file_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        row = b"0,1,2,AboveThreshold,FullComparison,,100,0.5\n"
        path.write_bytes(",".join(OUTCOME_COLUMNS).encode() + b"\n" + row + b"\x80" + row)
        assert main(["fr", "--outcomes", str(path), "--schedule", "100"]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: non-ASCII byte\n"

    def test_gen_names_a_group_with_a_zero_denominator(self, tmp_path, capsys):
        args = ["gen", "--group", "1/0:5:10-20", "--out-sets", str(tmp_path / "s.txt")]
        assert main([*args, "--out-pairs", str(tmp_path / "p.txt")]) == 1
        assert capsys.readouterr().err == "error: bad group '1/0:5:10-20': zero denominator\n"
        assert not (tmp_path / "s.txt").exists()

    def test_fr_refuses_a_repeated_label(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            path.write_text(",".join(OUTCOME_COLUMNS) + "\n0,1,2,AboveThreshold,OutputEarly,100,100,0.9\n")
        for outcomes, label in (([f"x={a}", f"x={b}"], "x"), ([str(a), str(a)], str(a))):
            args = ["fr", *(f"--outcomes={item}" for item in outcomes), "--schedule", "100"]
            assert main([*args, "--out", str(tmp_path / "fr.csv")]) == 1
            assert capsys.readouterr().err == f"error: --outcomes label {label!r} is given twice\n"
        assert not (tmp_path / "fr.csv").exists()
        assert main(["fr", "--outcomes", f"x={a}", "--outcomes", f"y={a}", "--schedule", "100"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["x,100,0.0,1.0", "y,100,0.0,1.0"]

    @pytest.mark.parametrize("schedule", ["1_00,200", "100,+200"])
    def test_schedule_is_plain_decimal_digits(self, workdir, capsys, schedule):
        assert main(["thresholds", "--schedule", schedule]) == 1
        assert capsys.readouterr().err == (
            f"error: bad schedule {schedule!r}, expected comma-separated integers\n"
        )
        args = ["screen", "--sets", str(workdir / "sets.txt"), "--pairs", str(workdir / "pairs.txt")]
        assert main([*args, "--schedule", schedule, "--out", str(workdir / "o.csv")]) == 1
        assert "bad schedule" in capsys.readouterr().err
        assert main(["thresholds", "--schedule", " 100 , 200 "]) == 0

    def test_error_paths_exit_nonzero_with_diagnostics(self, workdir, capsys):
        assert main(["gen", "--group", "junk", "--out-sets", "s", "--out-pairs", "p"]) == 1
        assert "error:" in capsys.readouterr().err
        assert (
            main(
                [
                    "screen",
                    "--sets",
                    str(workdir / "missing.txt"),
                    "--pairs",
                    str(workdir / "pairs.txt"),
                    "--out",
                    str(workdir / "o.csv"),
                ]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err
        assert main(["fr", "--outcomes", str(workdir / "nothing.csv"), "--schedule", ""]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_cache_flag_conflicts_are_rejected(self, workdir, capsys):
        assert (
            main(
                [
                    "sign",
                    "--sets",
                    str(workdir / "sets.txt"),
                    "--k",
                    "100",
                    "--seed",
                    "3",
                    "--out",
                    str(workdir / "k100.mhsg"),
                ]
            )
            == 0
        )
        code = main(
            [
                "screen",
                "--cache",
                str(workdir / "k100.mhsg"),
                "--pairs",
                str(workdir / "pairs.txt"),
                "--k",
                "200",
                "--out",
                str(workdir / "o.csv"),
            ]
        )
        assert code == 1
        assert "conflicts" in capsys.readouterr().err


class TestGoldenSignatureCache:
    """tests/golden/sign_k256_seed42.mhsg was written by the per-set signer
    that sign_many replaced, from tests/golden/sign_sets.txt (sets of 1, 2,
    22, 700, 3 and 19 tokens; 700 x 256 hash values is more than one block)."""

    SETS = GOLDEN / "sign_sets.txt"
    CACHE = GOLDEN / "sign_k256_seed42.mhsg"

    def test_sign_output_is_byte_identical(self, tmp_path):
        out = tmp_path / "sigs.mhsg"
        args = ["sign", "--sets", str(self.SETS), "--k", "256", "--seed", "42", "--out", str(out)]
        assert main(args) == 0
        assert out.read_bytes() == self.CACHE.read_bytes()

    def test_golden_cache_holds_the_slot_hash_minima(self):
        sets = load_sets(str(self.SETS))
        assert sorted(len(tokens) for tokens in sets.values()) == [1, 2, 3, 19, 22, 700]
        stored = read_cache(str(self.CACHE))
        family = make_family(256, 42)
        add, mid = family.key_add.tolist(), family.key_mid.tolist()
        assert sorted(stored.signatures) == sorted(sets)
        for set_id, tokens in sets.items():
            want = [min(slot_hash(t, add[i], mid[i]) for t in tokens) for i in range(256)]
            assert stored.signatures[set_id].values.tolist() == want

"""minscreen command line.

    minscreen gen --group 0.8:4000:400-500 --group 0.3:4000:400-500 \
        --seed 42 --out-sets sets.txt --out-pairs pairs.txt
    minscreen sign --sets sets.txt --k 1000 --seed 42 --out sigs.mhsg
    minscreen screen --sets sets.txt --pairs pairs.txt --threshold 0.5 \
        --e 1e-3 --schedule 100,200,300,400,500,600,700,800,900 \
        --baseline --out outcomes.csv
    minscreen thresholds --threshold 0.5 --e 1e-3 --schedule 100,200,300
    minscreen fr --outcomes e3=a.csv --outcomes e5=b.csv --schedule 100,200

Exit status is 0 on success, 1 on any error (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import binomial, cache, harness, workload
from .minhash import make_family, sign_many
from .screening import ScreenConfig

# Option defaults are the dataclasses' field defaults, read from the class.
_DEFAULT_SCHEDULE_TEXT = ",".join(str(k) for k in ScreenConfig.schedule)


def _parse_schedule(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(workload.parse_decimal(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad schedule {text!r}, expected comma-separated integers") from None


def _write_out(text: str, out: str | None, what: str) -> None:
    """text on stdout, or in the file out and a line on stdout naming it."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        print(f"{what} written to {out}")


def _cmd_gen(args: argparse.Namespace) -> int:
    groups = tuple(workload.parse_group(text) for text in args.group)
    spec = workload.WorkloadSpec(groups=groups, seed=args.seed)
    sets, pairs = workload.gen_synthetic(spec)
    workload.write_sets(args.out_sets, sets)
    workload.write_pairs(args.out_pairs, pairs)
    print(f"wrote {len(sets)} sets to {args.out_sets} and {len(pairs)} pairs to {args.out_pairs}")
    return 0


def _cmd_sign(args: argparse.Namespace) -> int:
    sets = workload.load_sets(args.sets)
    if not sets:
        raise ValueError(f"{args.sets}: no sets to sign")
    family = make_family(args.k, args.seed)
    signatures = sign_many(family, sets)
    cache.write_cache(args.out, args.seed, signatures)
    print(f"signed {len(signatures)} sets (k={args.k}, seed={args.seed}) into {args.out}")
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    pairs = workload.load_pairs(args.pairs)
    if not pairs:
        raise ValueError(f"{args.pairs}: no pairs to screen")
    k = ScreenConfig.k if args.k is None else args.k
    seed = ScreenConfig.master_seed if args.seed is None else args.seed
    if args.cache is not None:
        stored = cache.read_cache(args.cache)
        if args.k is not None and args.k != stored.k:
            raise ValueError(f"--k {args.k} conflicts with cache k={stored.k}")
        if args.seed is not None and args.seed != stored.master_seed:
            raise ValueError(f"--seed {args.seed} conflicts with cache seed={stored.master_seed}")
        k, seed = stored.k, stored.master_seed
    cfg = ScreenConfig(
        threshold=args.threshold,
        e=args.e,
        e_upper=args.e_upper,
        schedule=_parse_schedule(args.schedule),
        k=k,
        master_seed=seed,
    )
    if args.cache is not None:
        outcomes, report = harness.screen_signatures(
            stored.signatures, pairs, cfg, baseline=args.baseline
        )
    else:
        sets = workload.load_sets(args.sets)
        outcomes, report = harness.run_screen(sets, pairs, cfg, baseline=args.baseline)
    harness.write_outcomes_csv(args.out, pairs, outcomes)
    report_path = args.report if args.report is not None else args.out + ".report.json"
    with open(report_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(harness.report_json(report))
    sys.stdout.write(harness.format_report(report))
    print(f"outcomes written to {args.out}, report to {report_path}")
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    schedule = _parse_schedule(args.schedule)
    table = binomial.build_threshold_table(args.threshold, args.e, schedule, args.e_upper)
    _write_out(binomial.threshold_table_csv(table), args.out, "threshold table")
    return 0


def _cmd_fr(args: argparse.Namespace) -> int:
    schedule = binomial.validate_checkpoints(_parse_schedule(args.schedule))
    if not schedule:
        raise ValueError("fr needs a non-empty --schedule")
    outcome_sets: dict[str, list] = {}
    for item in args.outcomes:
        label, _, path = item.rpartition("=")
        if not label:
            label = path
        if label in outcome_sets:
            raise ValueError(f"--outcomes label {label!r} is given twice")
        _, outcomes = harness.read_outcomes_csv(path)
        outcome_sets[label] = outcomes
    _write_out(harness.report_fr_curves(outcome_sets, schedule), args.out, "filtering-rate curves")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minscreen",
        description="MinHash similarity screening with early-exit checkpoints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic workload")
    p_gen.add_argument(
        "--group",
        action="append",
        required=True,
        metavar="J:COUNT:LO-HI",
        help="pair group: exact Jaccard, pair count, set-size range (repeatable)",
    )
    p_gen.add_argument("--seed", type=int, default=workload.WorkloadSpec.seed)
    p_gen.add_argument("--out-sets", required=True)
    p_gen.add_argument("--out-pairs", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_sign = sub.add_parser("sign", help="sign a sets file into a signature cache")
    p_sign.add_argument("--sets", required=True)
    p_sign.add_argument("--k", type=int, default=ScreenConfig.k)
    p_sign.add_argument("--seed", type=int, default=ScreenConfig.master_seed)
    p_sign.add_argument("--out", required=True)
    p_sign.set_defaults(func=_cmd_sign)

    p_screen = sub.add_parser("screen", help="screen pairs against a similarity threshold")
    source = p_screen.add_mutually_exclusive_group(required=True)
    source.add_argument("--sets")
    source.add_argument("--cache")
    p_screen.add_argument("--pairs", required=True)
    p_screen.add_argument("--threshold", type=float, default=ScreenConfig.threshold)
    p_screen.add_argument("--e", type=float, default=ScreenConfig.e)
    p_screen.add_argument("--e-upper", type=float, default=None, dest="e_upper")
    p_screen.add_argument("--schedule", default=_DEFAULT_SCHEDULE_TEXT)
    p_screen.add_argument("--k", type=int, default=None)
    p_screen.add_argument("--seed", type=int, default=None)
    p_screen.add_argument("--baseline", action="store_true")
    p_screen.add_argument("--out", required=True)
    p_screen.add_argument("--report", default=None)
    p_screen.set_defaults(func=_cmd_screen)

    p_thr = sub.add_parser("thresholds", help="print the cutoff table for a configuration")
    p_thr.add_argument("--threshold", type=float, default=ScreenConfig.threshold)
    p_thr.add_argument("--e", type=float, default=ScreenConfig.e)
    p_thr.add_argument("--e-upper", type=float, default=None, dest="e_upper")
    p_thr.add_argument("--schedule", default=_DEFAULT_SCHEDULE_TEXT)
    p_thr.add_argument("--out", default=None)
    p_thr.set_defaults(func=_cmd_thresholds)

    p_fr = sub.add_parser("fr", help="filtering-rate curves from outcome CSVs")
    p_fr.add_argument(
        "--outcomes",
        action="append",
        required=True,
        metavar="[LABEL=]PATH",
        help="outcomes CSV to include (repeatable)",
    )
    p_fr.add_argument("--schedule", default=_DEFAULT_SCHEDULE_TEXT)
    p_fr.add_argument("--out", default=None)
    p_fr.set_defaults(func=_cmd_fr)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""minscreen command line.

    minscreen gen --group 0.8:4000:400-500 --group 0.3:4000:400-500 \
        --seed 42 --out-sets sets.txt --out-pairs pairs.txt
    minscreen sign --sets sets.txt --k 1000 --seed 42 --out sigs.mhsg
    minscreen screen --sets sets.txt --pairs pairs.txt --threshold 0.5 \
        --e 1e-3 --schedule 100,200,300,400,500,600,700,800,900 \
        --baseline --out outcomes.csv
    minscreen thresholds --threshold 0.5 --e 1e-3 --schedule 100,200,300
    minscreen fr --outcomes e3=a.csv --outcomes e5=b.csv --schedule 100,200

Exit status is 0 on success and 1 on an error the command reports, such
as a bad input, memory that cannot be allocated (a huge --k), or an output
file that is one of the command's inputs or another of its outputs, which
is refused before anything is read or written. A usage error exits 2: an
unknown or missing option, or an integer flag (--k, --seed) that is not
plain decimal digits. Either way the diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import os
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


def _refuse_overwrites(
    inputs: Sequence[tuple[str, str | None]], outputs: Sequence[tuple[str, str | None]]
) -> None:
    """Refuse an output that is, by os.path.realpath, one of the inputs or
    an earlier output. inputs and outputs are (flag, path) pairs, in the
    order the error names them; a path of None (stdout, say) is no file."""
    seen = [(flag, path) for flag, path in inputs if path is not None]
    for flag, path in outputs:
        if path is None:
            continue
        for other_flag, other in seen:
            if os.path.realpath(path) == os.path.realpath(other):
                raise ValueError(f"{flag} {path} would overwrite the {other_flag} file {other}")
        seen.append((flag, path))


def _write_out(text: str, out: str | None, what: str) -> None:
    """text on stdout, or in the file out and a line on stdout naming it."""
    if out is None:
        sys.stdout.write(text)
    else:
        workload.write_text(out, text)
        print(f"{what} written to {out}")


def _cmd_gen(args: argparse.Namespace) -> int:
    _refuse_overwrites((), (("--out-sets", args.out_sets), ("--out-pairs", args.out_pairs)))
    groups = tuple(workload.parse_group(text) for text in args.group)
    spec = workload.WorkloadSpec(groups=groups, seed=args.seed)
    sets, pairs = workload.gen_synthetic(spec)
    workload.write_sets(args.out_sets, sets)
    workload.write_pairs(args.out_pairs, pairs)
    print(f"wrote {len(sets)} sets to {args.out_sets} and {len(pairs)} pairs to {args.out_pairs}")
    return 0


def _cmd_sign(args: argparse.Namespace) -> int:
    _refuse_overwrites((("--sets", args.sets),), (("--out", args.out),))
    sets = workload.load_sets(args.sets)
    if not sets:
        raise ValueError(f"{args.sets}: no sets to sign")
    family = make_family(args.k, args.seed)
    signatures = sign_many(family, sets)
    cache.write_cache(args.out, args.seed, signatures)
    print(f"signed {len(signatures)} sets (k={args.k}, seed={args.seed}) into {args.out}")
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    report_path = args.report if args.report is not None else args.out + ".report.json"
    _refuse_overwrites(
        (("--sets", args.sets), ("--cache", args.cache), ("--pairs", args.pairs)),
        (("--out", args.out), ("--report", report_path)),
    )
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
    workload.write_text(report_path, harness.report_json(report))
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
    labelled: dict[str, str] = {}
    for item in args.outcomes:  # [LABEL=]PATH, the label ending at the first "="
        label, _, path = item.partition("=") if "=" in item else ("", "", item)
        label = label or path
        if not label.isascii():
            raise ValueError(f"--outcomes label {label!r} is not ASCII")
        if label in labelled:
            raise ValueError(f"--outcomes label {label!r} is given twice")
        labelled[label] = path
    _refuse_overwrites([("--outcomes", path) for path in labelled.values()], (("--out", args.out),))
    outcome_sets = {label: harness.read_outcomes_csv(path)[1] for label, path in labelled.items()}
    _write_out(harness.report_fr_curves(outcome_sets, schedule), args.out, "filtering-rate curves")
    return 0


def _add_cutoff_options(parser: argparse.ArgumentParser) -> None:
    """The options that define a cutoff table, shared by screen and thresholds."""
    parser.add_argument("--threshold", type=float, default=ScreenConfig.threshold)
    parser.add_argument("--e", type=float, default=ScreenConfig.e)
    parser.add_argument("--e-upper", type=float, default=None, dest="e_upper")
    parser.add_argument("--schedule", default=_DEFAULT_SCHEDULE_TEXT)


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
    p_gen.add_argument("--seed", type=workload.parse_decimal, default=workload.WorkloadSpec.seed)
    p_gen.add_argument("--out-sets", required=True)
    p_gen.add_argument("--out-pairs", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_sign = sub.add_parser("sign", help="sign a sets file into a signature cache")
    p_sign.add_argument("--sets", required=True)
    p_sign.add_argument("--k", type=workload.parse_decimal, default=ScreenConfig.k)
    p_sign.add_argument("--seed", type=workload.parse_decimal, default=ScreenConfig.master_seed)
    p_sign.add_argument("--out", required=True)
    p_sign.set_defaults(func=_cmd_sign)

    p_screen = sub.add_parser("screen", help="screen pairs against a similarity threshold")
    source = p_screen.add_mutually_exclusive_group(required=True)
    source.add_argument("--sets")
    source.add_argument("--cache")
    p_screen.add_argument("--pairs", required=True)
    _add_cutoff_options(p_screen)
    p_screen.add_argument("--k", type=workload.parse_decimal, default=None)
    p_screen.add_argument("--seed", type=workload.parse_decimal, default=None)
    p_screen.add_argument("--baseline", action="store_true")
    p_screen.add_argument("--out", required=True)
    p_screen.add_argument("--report", default=None)
    p_screen.set_defaults(func=_cmd_screen)

    p_thr = sub.add_parser("thresholds", help="print the cutoff table for a configuration")
    _add_cutoff_options(p_thr)
    p_thr.add_argument("--out", default=None)
    p_thr.set_defaults(func=_cmd_thresholds)

    p_fr = sub.add_parser("fr", help="filtering-rate curves from outcome CSVs")
    p_fr.add_argument(
        "--outcomes",
        action="append",
        required=True,
        metavar="[LABEL=]PATH",
        help="outcomes CSV to include (repeatable); LABEL ends at the first '='",
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points.

Five subcommands::

    escores ingest DATA.jsonl                  validate a dataset
    escores score TEST.jsonl --calibration CAL.jsonl --scores e-combined,p
    escores evaluate DATA.jsonl --grid 0:1:0.01 --csv report.csv
    escores simulate --trials 10000 --seed 1
    escores equivalence --instances 1000

Exit codes: 0 on success, 1 for runtime failures (a violated bound,
an unwritable output), 2 for usage or validation problems (bad flags,
missing or malformed inputs, impossible configurations).  ``--seed``
pins all randomness, so repeated runs produce identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    ConfigurationError,
    EScoresError,
    InvalidInputError,
    InvalidSplitError,
    ResponseSetSizeError,
)
from .estimation import FTransform
from .evaluation import (
    EvaluationReport,
    PreparedDataset,
    SplitPlan,
    Strategy,
    StrategyGrid,
    evaluate_dataset,
    run_equivalence_trials,
    score_prompts,
)
from .io import (
    DatasetParseError,
    DatasetValidationError,
    emit_csv,
    emit_svg_curves,
    parse_dataset,
    parse_grid,
    write_dataset,
)
from .response_sets import IDENTITY_POLICY, PermutationMode, PermutationPolicy
from .scoring import ALL_SCORE_KINDS, ScoreKind
from .synthetic import (
    SyntheticConfig,
    generate_dataset,
    mc_evariable_check,
    require_trial_count,
)

# Not called here any more, but kept as module attributes: the traced
# benchmark run (perfbench/tracing.py) rebinds these names by module.
from .estimation import build_calibration_summary  # noqa: F401
from .response_sets import build_permutation_set, label_response_set  # noqa: F401
from .scoring import score_response_set  # noqa: F401

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _fmt_score(value: float) -> str:
    if value == math.inf:
        return "inf"
    return format(value, ".6g")


def _parse_kinds(text: str) -> tuple[ScoreKind, ...]:
    if text.strip() == "all":
        return ALL_SCORE_KINDS
    kinds: list[ScoreKind] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise InvalidInputError(f"empty entry in score list {text!r}")
        kind = ScoreKind.parse(piece)
        if kind in kinds:
            raise InvalidInputError(f"score kind {kind.name!r} listed twice")
        kinds.append(kind)
    return tuple(kinds)


def _parse_policy(
    permutations: str, permutation_file: "str | None"
) -> PermutationPolicy:
    if permutations != "file":
        if permutation_file is not None:
            raise InvalidInputError(
                "--permutation-file only applies with --permutations file"
            )
        if permutations == "identity":
            return IDENTITY_POLICY
        return PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)
    if permutation_file is None:
        raise InvalidInputError("--permutations file needs --permutation-file")
    raw = json.loads(Path(permutation_file).read_text(encoding="utf-8"))
    if not isinstance(raw, list) or not all(isinstance(p, list) for p in raw):
        raise InvalidInputError(
            f"{permutation_file}: expected a JSON array of index arrays"
        )
    explicit = tuple(tuple(i for i in perm) for perm in raw)
    return PermutationPolicy(PermutationMode.EXPLICIT_LIST, explicit=explicit)


def _dataset_shape(instances) -> str:
    return "prefix" if instances[0].estimates.conditionals is not None else "singular"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    instances = parse_dataset(args.path, args.schema)
    steps = [len(inst.generated.sub_responses) for inst in instances]
    with_errors = sum(
        1 for inst in instances if inst.generated.first_error_index is not None
    )
    print(f"ok: {len(instances)} {_dataset_shape(instances)} records from {args.path}")
    print(f"steps per record: min {min(steps)}, max {max(steps)}")
    print(f"records with errors: {with_errors} of {len(instances)}")
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    kinds = _parse_kinds(args.scores)
    policy = _parse_policy(args.permutations, args.permutation_file)
    test_instances = parse_dataset(args.path, args.schema)
    cal = PreparedDataset(parse_dataset(args.calibration, args.schema), policy)
    test = PreparedDataset(test_instances, policy)
    del test_instances  # only the prepared arrays are used below; keeps peak memory down
    shared = sorted(set(test.prompt_ids).intersection(cal.prompt_ids))
    if shared:
        print(
            f"warning: {len(shared)} prompt id(s) in both the test and the calibration "
            f"file (first {shared[0]!r}); this breaks the exchangeability that the "
            "scores' guarantee assumes",
            file=sys.stderr,
        )

    # an incorrect calibration estimate of 1 has value +inf under transforms 2 and 3
    infinite = int(np.count_nonzero(np.isinf(cal.fstar[FTransform.INVERSE_COMPLEMENT])))
    if infinite and {"e2", "e3", "e-combined"}.intersection(kind.name for kind in kinds):
        print(
            f"warning: {infinite} calibration prompt(s) have an incorrect response with "
            "estimate 1, so their maxima under transforms 2 and 3 are infinite; every "
            "e2 and e3 score of a test response with estimate below 1 is then +inf, "
            "and e-combined reduces to 3 x e1",
            file=sys.stderr,
        )

    scores = score_prompts(
        test, np.arange(test.n_prompts), kinds, cal.fstar, master_seed=args.seed
    )

    table: list[tuple[str, ...]] = []
    for i, (pid, responses) in enumerate(zip(test.prompt_ids, test.responses)):
        lo, hi = test.offsets[i], test.offsets[i + 1]
        labels = test.labels_flat[lo:hi].tolist()
        per_kind = {name: values[lo:hi].tolist() for name, values in scores.items()}
        if args.jsonl:
            record = {
                "id": pid,
                "responses": [list(r.indices) for r in responses],
                "labels": labels,
                "scores": per_kind,
            }
            print(json.dumps(record))
            continue
        for response, label, *row in zip(responses, labels, *per_kind.values()):
            indices = ",".join(str(j) for j in response.indices)
            table.append((pid, indices, "correct" if label == 1 else "error", *map(_fmt_score, row)))

    if not args.jsonl:
        header = ("prompt", "response", "label", *(k.name for k in kinds))
        widths = [
            max(len(header[c]), *(len(row[c]) for row in table)) if table else len(header[c])
            for c in range(len(header))
        ]
        for line in (header, *table):
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return EXIT_OK


def _print_report(report: EvaluationReport) -> None:
    print(
        f"{report.n_splits} splits, {len(report.rows)} grid rows; "
        "worst-case size distortion per score kind:"
    )
    print(f"{'score_kind':<14} {'mean':>10} {'q25':>10} {'q75':>10}")
    for row in report.worst_case:
        print(
            f"{row.score_kind:<14} {_fmt_score(row.mean):>10} "
            f"{_fmt_score(row.q25):>10} {_fmt_score(row.q75):>10}"
        )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    kinds = _parse_kinds(args.scores)
    policy = _parse_policy(args.permutations, args.permutation_file)
    grid = StrategyGrid(strategy=Strategy(args.strategy), parameters=parse_grid(args.grid))
    plan = SplitPlan(seed=args.seed, n_splits=args.splits, test_fraction=args.test_fraction)
    report = evaluate_dataset(
        parse_dataset(args.path, args.schema),
        kinds,
        (grid,),
        plan,
        permutation_policy=policy,
        master_seed=args.seed,
    )
    _print_report(report)
    if args.csv:
        print(f"wrote {emit_csv(report, args.csv)}")
    if args.svg_dir:
        for path in emit_svg_curves(report, args.svg_dir):
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SyntheticConfig(
        n_prompts=args.prompts,
        max_steps=args.steps,
        seed=args.seed,
        error_position_p=args.error_p,
        fully_correct_prob=args.correct_prob,
    )
    transform = FTransform.from_option(args.transform)
    # validate every input before --emit writes anything: a rejected
    # command must leave no files behind
    require_trial_count(args.trials)
    if args.emit is not None:
        instances = generate_dataset(config)
        print(f"wrote {write_dataset(instances, args.emit, schema='prefix')}")

    estimate = mc_evariable_check(config, transform, args.trials)
    mean, se = estimate.mean, estimate.std_error
    print(
        f"trials={estimate.n_trials} prompts={config.n_prompts} "
        f"steps<= {config.max_steps} transform={transform.name.lower()}"
    )
    print(f"mean={mean:.6f}")
    print(f"se={se:.6f}")

    upper_ok = mean <= 1.0 + 3.0 * se
    strictly_positive = config.fully_correct_prob == 0.0
    identity_ok = (not strictly_positive) or abs(mean - 1.0) <= 3.0 * se
    print(f"e-variable bound (mean <= 1 + 3*se): {'PASS' if upper_ok else 'FAIL'}")
    if strictly_positive:
        print(f"identity (|mean - 1| <= 3*se): {'PASS' if identity_ok else 'FAIL'}")
    if upper_ok and identity_ok:
        return EXIT_OK
    print("runtime error: Monte Carlo estimate violates the e-variable bound",
          file=sys.stderr)
    return EXIT_RUNTIME


def _cmd_equivalence(args: argparse.Namespace) -> int:
    trials = run_equivalence_trials(
        args.instances, seed=args.seed, n_max=args.n_max, grid_points=args.grid_points
    )
    verdict = "PASS" if trials.all_equivalent else "FAIL"
    print(
        f"instances={trials.n_instances} failures={trials.failures} -> {verdict}"
    )
    if trials.all_equivalent:
        return EXIT_OK
    print(
        "runtime error: rank-based and threshold-based filtering disagreed",
        file=sys.stderr,
    )
    return EXIT_RUNTIME


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="JSONL dataset")
    parser.add_argument(
        "--schema",
        choices=("auto", "prefix", "singular"),
        default="auto",
        help="record shape to expect (default: detect from the first record)",
    )


def _add_permutation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--permutations",
        choices=("identity", "all", "file"),
        default="identity",
        help="orderings used to expand each generation into a response set",
    )
    parser.add_argument(
        "--permutation-file",
        default=None,
        help="JSON array of 1-based orderings (with --permutations file)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escores",
        description="E-value incorrectness scores for generated responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a JSONL dataset")
    _add_dataset_args(p_ingest)
    p_ingest.set_defaults(handler=_cmd_ingest)

    p_score = sub.add_parser(
        "score", help="score a test dataset against a calibration dataset"
    )
    _add_dataset_args(p_score)
    p_score.add_argument(
        "--calibration", required=True, help="JSONL dataset of calibration prompts"
    )
    p_score.add_argument(
        "--scores",
        default="e-combined",
        help="comma list of score kinds, or 'all' (default: e-combined)",
    )
    p_score.add_argument("--seed", type=int, default=0, help="master seed")
    p_score.add_argument(
        "--jsonl",
        action="store_true",
        help="emit one JSON object per prompt instead of the table",
    )
    _add_permutation_args(p_score)
    p_score.set_defaults(handler=_cmd_score)

    p_eval = sub.add_parser(
        "evaluate", help="split-based grid evaluation, optionally to CSV/SVG"
    )
    _add_dataset_args(p_eval)
    p_eval.add_argument(
        "--scores",
        default="all",
        help="comma list of score kinds, or 'all' (default: all)",
    )
    p_eval.add_argument(
        "--strategy",
        choices=tuple(s.value for s in Strategy),
        default=Strategy.ALPHA_MAX.value,
        help="filtering strategy swept over the grid",
    )
    p_eval.add_argument(
        "--grid",
        default="0:1:0.01",
        help="parameter grid: start:stop:step or a comma list (default 0:1:0.01)",
    )
    p_eval.add_argument("--splits", type=int, default=100, help="number of random splits")
    p_eval.add_argument(
        "--test-fraction",
        type=float,
        default=0.5,
        help="fraction of prompts scored per split (default 0.5)",
    )
    p_eval.add_argument("--seed", type=int, default=0, help="master seed")
    _add_permutation_args(p_eval)
    p_eval.add_argument("--csv", default=None, help="write the report table here")
    p_eval.add_argument(
        "--svg-dir", default=None, help="write three SVG panels per score kind here"
    )
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_sim = sub.add_parser(
        "simulate", help="synthetic data and the e-variable Monte Carlo check"
    )
    p_sim.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed")
    p_sim.add_argument("--prompts", type=int, default=100, help="prompts per trial")
    p_sim.add_argument("--steps", type=int, default=5, help="maximum steps per prompt")
    p_sim.add_argument(
        "--transform",
        type=int,
        choices=(1, 2, 3),
        default=1,
        help="estimate transform option (1 identity, 2 inverse-complement, 3 odds)",
    )
    p_sim.add_argument(
        "--error-p",
        type=float,
        default=0.3,
        help="geometric parameter for the first-error position",
    )
    p_sim.add_argument(
        "--correct-prob",
        type=float,
        default=0.0,
        help="probability a prompt is fully correct (default 0 so every "
        "calibration maximum is strictly positive)",
    )
    p_sim.add_argument(
        "--emit", default=None, help="also write one generated dataset here (JSONL)"
    )
    p_sim.set_defaults(handler=_cmd_simulate)

    p_eq = sub.add_parser(
        "equivalence",
        help="check rank-based filtering against the threshold rule",
    )
    p_eq.add_argument("--instances", type=int, default=1000, help="random instances")
    p_eq.add_argument("--seed", type=int, default=0, help="master seed")
    p_eq.add_argument("--n-max", type=int, default=50, help="largest calibration size")
    p_eq.add_argument(
        "--grid-points", type=int, default=20, help="tolerance grid points per instance"
    )
    p_eq.set_defaults(handler=_cmd_equivalence)

    return parser


def run_command(argv: "Sequence[str] | None" = None) -> int:
    """Parse and run one command, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        DatasetParseError,
        DatasetValidationError,
        InvalidInputError,
        ConfigurationError,
        InvalidSplitError,
        ResponseSetSizeError,
        json.JSONDecodeError,
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EScoresError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except BrokenPipeError:
        # the reader (say, `head`) closed stdout early; die quietly, and
        # point the fd at devnull so the interpreter's exit flush cannot
        # raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    raise SystemExit(run_command())


if __name__ == "__main__":
    main()

"""Command-line entry points.

Five subcommands::

    escores ingest DATA.jsonl                  validate a dataset
    escores score TEST.jsonl --calibration CAL.jsonl --scores e-combined,p
    escores evaluate DATA.jsonl --grid 0:1:0.01 --csv report.csv
    escores simulate --trials 10000 --seed 1
    escores equivalence --instances 1000

Each handler finishes or raises; ``run_command`` maps the outcome
to the exit code: 0 on success, 1 for runtime failures (a failed check,
an unwritable output or a missing output directory), 2 for usage or
validation problems (bad flags, missing or malformed inputs, impossible
configurations).  ``--seed`` pins all randomness, so repeated runs
produce identical output.

``run_command`` is the in-process entry, and it leaves the interpreter as
it found it.  ``main``, the console script and ``python -m escores.cli``,
runs one command per process.  It runs ``run_command`` with the cyclic
garbage collector off and freezes the heap before exit, so that shutdown
does not collect every module, class and function once more: no command
makes a reference cycle beyond the few of argparse's parser, so
reference counting alone frees what a run drops.  It also flushes stdout
itself, so a failed write at exit is mapped as one mid-run is: a reader
gone by then is a quiet exit 1, any other failure an ``i/o error:`` line.

The top level imports only the standard library and ``core``; each
handler imports the modules its command runs.  So ``simulate`` loads
neither the evaluation engine, the dataset reader, the response sets
nor the SVG renderer (``--emit`` loads the dataset writer, ``io``, to
write); ``score`` and ``ingest`` load neither the grid sweep, the
equivalence trials nor ``io``'s dataset writer and report emitters; and
no command loads ``scalar``, the one-response reference forms.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .core import (
    ConfigurationError,
    DatasetParseError,
    DatasetValidationError,
    EScoresError,
    InvalidInputError,
    InvalidSplitError,
    ResponseSetSizeError,
    Strategy,
    _fmt_score,
    _from_package,
    _require_seed,
)

if TYPE_CHECKING:  # pragma: no cover - each command imports what it runs
    from .response_sets import PermutationPolicy
    from .sweep import EvaluationReport

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

#: Package names read from this module when first used.  The handlers
#: call them as bound here, and the traced benchmark run
#: (perfbench/tracing.py) rebinds them here, the ones no handler calls too.
_DEFERRED = frozenset({
    "build_calibration_summary", "build_permutation_set", "emit_csv", "emit_svg_curves",
    "generate_dataset", "label_response_set", "mc_evariable_check", "parse_dataset",
    "score_response_set", "write_dataset",
})

# this module, run as ``escores.cli`` or as ``__main__``: the handlers
# call the deferred names through it, so a rebound name is the one called
_this = sys.modules[__name__]


__getattr__ = _from_package(globals(), _DEFERRED)


def _parse_policy(
    permutations: str, permutation_file: "str | None"
) -> PermutationPolicy:
    from .reader import _load_json
    from .response_sets import IDENTITY_POLICY, PermutationMode, PermutationPolicy

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
    path = Path(permutation_file)
    raw = _load_json(path.read_text(encoding="utf-8", errors="surrogateescape"), path.name)
    if not isinstance(raw, list) or not all(isinstance(p, list) for p in raw):
        raise InvalidInputError(
            f"{permutation_file}: expected a JSON array of index arrays"
        )
    explicit = tuple(tuple(i for i in perm) for perm in raw)
    return PermutationPolicy(PermutationMode.EXPLICIT_LIST, explicit=explicit)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> None:
    import numpy as np

    from .reader import _read_columns

    columns = _read_columns(args.path)
    n = len(columns.ids)
    print(f"ok: {n} {columns.schema} records from {args.path}")
    print(f"steps per record: min {columns.steps.min()}, max {columns.steps.max()}")
    print(f"records with errors: {np.count_nonzero(columns.first_errors)} of {n}")


def _cmd_score(args: argparse.Namespace) -> None:
    import numpy as np

    from .evaluation import (
        PreparedDataset,
        _warn_infinite_maxima,
        _write_score_jsonl,
        _write_score_table,
        score_prompts,
    )
    from .reader import _read_columns
    from .scoring import _parse_kinds

    _require_seed(args.seed)
    kinds = _parse_kinds(args.scores)
    policy = _parse_policy(args.permutations, args.permutation_file)
    test_columns = _read_columns(args.path)
    cal_columns = _read_columns(args.calibration)
    if test_columns.schema != cal_columns.schema:
        warnings.warn(
            f"the test file holds {test_columns.schema} records and the calibration file "
            f"{cal_columns.schema} records; this breaks the exchangeability that the scores' "
            "guarantee assumes"
        )
    # Scoring reads only the calibration prompts' ids and maxima, so the
    # rest of the calibration set goes before the test set is prepared.
    cal = PreparedDataset(cal_columns, policy)
    del cal_columns
    cal_ids, cal_fstar = cal.prompt_ids, cal.fstar
    del cal
    test = PreparedDataset(test_columns, policy)
    del test_columns
    shared = sorted(set(test.prompt_ids).intersection(cal_ids))
    if shared:
        warnings.warn(
            f"{len(shared)} prompt id(s) in both the test and the calibration "
            f"file (first {shared[0]!r}); this breaks the exchangeability that the "
            "scores' guarantee assumes"
        )

    _warn_infinite_maxima(cal_fstar, kinds)

    scores = score_prompts(
        test, np.arange(test.n_prompts), kinds, cal_fstar, master_seed=args.seed
    )
    (_write_score_jsonl if args.jsonl else _write_score_table)(test, scores)


def _print_report(report: EvaluationReport) -> None:
    print(
        f"{report.n_splits} splits, {len(report.means)} grid rows; "
        "worst-case size distortion per score kind:"
    )
    print(f"{'score_kind':<14} {'mean':>10} {'q25':>10} {'q75':>10}")
    for row in report.worst_case:
        print(
            f"{row.score_kind:<14} {_fmt_score(row.mean):>10} "
            f"{_fmt_score(row.q25):>10} {_fmt_score(row.q75):>10}"
        )


def _cmd_evaluate(args: argparse.Namespace) -> None:
    from .evaluation import PreparedDataset, _warn_infinite_maxima, evaluate_dataset
    from .reader import _read_columns
    from .scoring import _parse_kinds
    from .sweep import SplitPlan, parse_grid

    # refused before the first split, not after the last; a missing
    # directory stays the i/o error that writing into it raises
    for option, target in (("--csv", args.csv), ("--svg-dir", args.svg_dir)):
        if target == "":  # names no file: refused, not read as "not given"
            raise InvalidInputError(f"{option} is an empty path")
        if _reads(args, target):
            raise InvalidInputError(f"{option} {target} names a file that evaluate reads")
        ancestor = next((p for p in Path(target or ".").parents if p.exists()), Path("."))
        if not ancestor.is_dir():
            raise InvalidInputError(f"{option} {target}: {ancestor} is not a directory")
    if args.csv and os.path.isdir(args.csv):
        raise InvalidInputError(f"--csv {args.csv} is a directory")
    if args.svg_dir and os.path.exists(args.svg_dir) and not os.path.isdir(args.svg_dir):
        raise InvalidInputError(f"--svg-dir {args.svg_dir} exists and is not a directory")
    kinds = _parse_kinds(args.scores)
    policy = _parse_policy(args.permutations, args.permutation_file)
    grid = parse_grid(args.grid, Strategy(args.strategy))
    plan = SplitPlan(seed=args.seed, n_splits=args.splits, test_fraction=args.test_fraction)
    prepared = PreparedDataset(_read_columns(args.path), policy)
    # every prompt serves as calibration in some split
    _warn_infinite_maxima(prepared.fstar, kinds)
    report = evaluate_dataset(prepared, kinds, (grid,), plan)
    _print_report(report)
    if args.csv:
        print(f"wrote {_this.emit_csv(report, args.csv)}")
    if args.svg_dir:
        for path in _this.emit_svg_curves(report, args.svg_dir):
            print(f"wrote {path}")


def _cmd_simulate(args: argparse.Namespace) -> None:
    from .estimation import FTransform
    from .synthetic import SyntheticConfig, require_trial_count

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
    if args.emit == "":
        raise InvalidInputError("--emit is an empty path")
    if args.emit is not None:
        instances = _this.generate_dataset(config)
        print(f"wrote {_this.write_dataset(instances, args.emit, schema='prefix')}")

    estimate = _this.mc_evariable_check(config, transform, args.trials)
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
    checks = (
        ("violates the e-variable bound", upper_ok),
        ("fails the identity check", identity_ok),
    )
    failed = " and ".join(check for check, ok in checks if not ok)
    if failed:
        raise EScoresError(f"Monte Carlo estimate {failed}")


def _cmd_equivalence(args: argparse.Namespace) -> None:
    from .equivalence import run_equivalence_trials

    trials = run_equivalence_trials(
        args.instances, seed=args.seed, n_max=args.n_max, grid_points=args.grid_points
    )
    verdict = "PASS" if trials.all_equivalent else "FAIL"
    print(
        f"instances={trials.n_instances} failures={trials.failures} -> {verdict}"
    )
    if not trials.all_equivalent:
        raise EScoresError("rank-based and threshold-based filtering disagreed")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="JSONL dataset (its first record fixes its shape)")


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


def _reads(args: argparse.Namespace, filename: "str | None") -> bool:
    """Whether ``filename`` is a file the command reads, as spelled or as the same existing file."""
    named = (getattr(args, name, None) for name in ("path", "calibration", "permutation_file"))
    return filename is not None and any(
        Path(read) == Path(filename)
        or os.path.exists(read) and os.path.exists(filename) and os.path.samefile(read, filename)
        for read in named if read is not None
    )


def run_command(argv: "Sequence[str] | None" = None) -> int:
    """Parse and run one command, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    def show(message, category, filename, lineno, file=None, line=None) -> None:
        print(f"warning: {message}", file=sys.stderr)

    # every warning the filters let through prints as one line, at once
    try:
        with warnings.catch_warnings():
            warnings.showwarning = show
            args.handler(args)
        return EXIT_OK
    except (
        DatasetParseError,
        DatasetValidationError,
        InvalidInputError,
        ConfigurationError,
        InvalidSplitError,
        ResponseSetSizeError,
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EScoresError as exc:  # a failed check of simulate or equivalence
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except BrokenPipeError:
        return _drop_stdout()
    except OSError as exc:
        if isinstance(exc, FileNotFoundError) and _reads(args, exc.filename):
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _drop_stdout() -> int:
    """Send stdout to devnull after a failed write; the exit code is 1.

    A reader that closed stdout early (say, `head`) ends the run quietly,
    and the interpreter's exit flush cannot raise a second time.
    """
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    return EXIT_RUNTIME


def main() -> None:
    """Run one command in a process of its own, without the cyclic collector.

    Interpreter shutdown collects even with the collector off; the freeze
    is what lets it skip that pass.
    """
    gc.disable()
    code = run_command()
    try:
        sys.stdout.flush()
    except OSError as exc:  # as run_command maps it; a failure already mapped keeps its code
        if not isinstance(exc, BrokenPipeError):
            print(f"i/o error: {exc}", file=sys.stderr)
        code = max(code, _drop_stdout())
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()

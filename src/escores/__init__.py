"""E-value incorrectness scores for generated responses.

Scores each candidate response with a nonnegative value calibrated on
held-out prompts so that filtering at any post-hoc tolerance keeps the
expected retained-set error in check; includes rank (p-score) and naive
baselines, filtering strategies, split-based evaluation, synthetic data
generation, and JSONL/CSV/SVG plumbing.

``import escores`` loads no submodule: each public name is imported
from its home module on first access (PEP 562), so a program pays only
for the modules it uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Every public name and the submodule that defines it.
_EXPORTS: dict[str, str] = {
    **dict.fromkeys(
        (
            "CalibrationSummary",
            "ConfigurationError",
            "DatasetParseError",
            "DatasetValidationError",
            "EScoresError",
            "InvalidInputError",
            "InvalidSplitError",
            "LabeledResponseSet",
            "Prompt",
            "Response",
            "ResponseSetSizeError",
            "ScoredResponseSet",
            "Strategy",
            "ext_sum",
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "EstimateSource",
            "FTransform",
            "PromptInstance",
            "aggregate_conditionals",
            "build_calibration_summary",
            "calibration_f_star",
            "transform_estimate",
        ),
        "estimation",
    ),
    **dict.fromkeys(
        ("EquivalenceTrials", "run_equivalence_trials", "threshold_equivalence_check"),
        "equivalence",
    ),
    **dict.fromkeys(
        (
            "PreparedDataset",
            "SplitAssignment",
            "SplitPlan",
            "aggregate_splits",
            "evaluate_dataset",
            "evaluate_split",
            "plan_splits",
        ),
        "evaluation",
    ),
    **dict.fromkeys(
        (
            "FilterOutcome",
            "filter_at_alpha",
            "fractional_inclusion_alpha",
            "max_constrained_alpha",
        ),
        "filtering",
    ),
    **dict.fromkeys(
        (
            "CSV_HEADER",
            "emit_csv",
            "emit_svg_curves",
            "parse_dataset",
            "write_dataset",
        ),
        "io",
    ),
    **dict.fromkeys(
        (
            "IDENTITY_POLICY",
            "MAX_UNCAPPED_PERMUTATION_STEPS",
            "GeneratedResponse",
            "PermutationMode",
            "PermutationPolicy",
            "build_permutation_set",
            "build_prefix_set",
            "label_response_set",
        ),
        "response_sets",
    ),
    **dict.fromkeys(
        (
            "ALL_SCORE_KINDS",
            "RandomDraw",
            "ScoreFamily",
            "ScoreKind",
            "combined_e_score",
            "e_score",
            "naive_score",
            "p_score",
            "p_score_randomized",
            "score_response_set",
            "uniform_block",
            "uniform_draw",
        ),
        "scoring",
    ),
    **dict.fromkeys(
        (
            "EvaluationReport",
            "ReportRow",
            "StrategyGrid",
            "SplitResult",
            "WorstCaseRow",
            "parse_grid",
        ),
        "sweep",
    ),
    **dict.fromkeys(
        (
            "MCEstimate",
            "SyntheticConfig",
            "evariable_statistic",
            "generate_dataset",
            "mc_evariable_check",
        ),
        "synthetic",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    """Import a public name from its home module on first access, then keep it here."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__

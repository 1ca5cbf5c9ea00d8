"""E-value incorrectness scores for generated responses.

Scores each candidate response with a nonnegative value calibrated on
held-out prompts so that filtering at any post-hoc tolerance keeps the
expected retained-set error in check; includes rank (p-score) and naive
baselines, filtering strategies, split-based evaluation, synthetic data
generation, and JSONL/CSV/SVG plumbing.

``import escores`` loads no submodule: each public name is imported
from its home module on first access (PEP 562), so a program pays only
for the modules it uses.  The one-response reference forms (``e_score``,
``score_response_set``, the labeled and scored response sets, the
filtering strategies over one scored set, ...) live in ``scalar``,
which only this table loads: no command runs them.
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
            "Prompt",
            "Response",
            "ResponseSetSizeError",
            "Strategy",
            "ext_sum",
        ),
        "core",
    ),
    **dict.fromkeys(
        ("FTransform", "build_calibration_summary"),
        "estimation",
    ),
    **dict.fromkeys(
        ("EquivalenceTrials", "run_equivalence_trials", "threshold_equivalence_check"),
        "equivalence",
    ),
    **dict.fromkeys(
        ("PreparedDataset", "aggregate_splits", "evaluate_dataset", "evaluate_split"),
        "evaluation",
    ),
    **dict.fromkeys(
        (
            "CSV_HEADER",
            "EstimateSource",
            "PromptInstance",
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
        ),
        "response_sets",
    ),
    **dict.fromkeys(
        (
            "FilterOutcome",
            "LabeledResponseSet",
            "RandomDraw",
            "ScoredResponseSet",
            "aggregate_conditionals",
            "calibration_f_star",
            "combined_e_score",
            "e_score",
            "filter_at_alpha",
            "fractional_inclusion_alpha",
            "label_response_set",
            "max_constrained_alpha",
            "naive_score",
            "p_score",
            "p_score_randomized",
            "score_response_set",
            "transform_estimate",
            "uniform_block",
            "uniform_draw",
        ),
        "scalar",
    ),
    **dict.fromkeys(("ALL_SCORE_KINDS", "ScoreFamily", "ScoreKind"), "scoring"),
    **dict.fromkeys(
        (
            "EvaluationReport",
            "ReportRow",
            "SplitAssignment",
            "SplitPlan",
            "StrategyGrid",
            "WorstCaseRow",
            "parse_grid",
            "plan_splits",
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

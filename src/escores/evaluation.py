"""Split-based evaluation: size distortion, precision/recall, equivalences.

The instance-level accounting is defined by object-level operations
(``instance_metrics``, ``worst_case_distortion``) over one prompt's
scored and labeled responses.  ``evaluate_split`` does the same for a
whole calibration/test split at once with flat numpy arrays, so that
hundred-split sweeps stay fast.  Its scores come from
``scoring.kind_scores``, the code the per-response scores call too.  It
sorts each test prompt's responses once by (score, position); a
filtering strategy then only picks how many of them each prompt keeps,
and every metric follows from that count.  Tests hold it to the exact
rational oracles.

Size distortion for an instance is the error indicator divided by the
tolerance actually used, under extended-real division (no error at zero
tolerance costs nothing; an error at zero tolerance is an infinite
violation).  The worst-case distortion of a score kind on an instance
is the reciprocal of the smallest score among its incorrect responses:
the distortion an adversary could realize by tuning the tolerance, and
0 when the instance has no incorrect response.

``threshold_equivalence_check`` verifies, in exact rational arithmetic,
that filtering by p-score at level alpha keeps precisely the responses
whose value exceeds the ceil((1-alpha)(n+1))-th smallest calibration
value, for any alpha in [1/(n+1), 1].
"""

from __future__ import annotations

import bisect
import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    CalibrationSummary,
    ConfigurationError,
    InvalidInputError,
    InvalidSplitError,
    LabeledResponseSet,
    Response,
    ScoredResponseSet,
    as_exact,
    as_ext_real,
    ext_div,
    ext_recip,
)
from .estimation import (
    FTransform,
    PromptInstance,
    aggregate_conditionals,
    build_calibration_summary,
    masked_f_star,
    transform_values,
)
from .filtering import FilterOutcome, inclusion_target
from .response_sets import IDENTITY_POLICY, PermutationPolicy, build_permutation_set, label_response_set
from .scoring import ScoreFamily, ScoreKind, kind_scores, uniform_block

# Not called here any more, but kept as module attributes: the traced
# benchmark run (perfbench/tracing.py) rebinds these names by module.
from .estimation import calibration_f_star, transform_estimate  # noqa: F401


# ---------------------------------------------------------------------------
# instance-level accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceResult:
    """Per-instance outcome of one score kind under one filtering choice."""

    error: int
    alpha_used: float
    size_distortion: float
    worst_case_distortion: float
    precision: float
    recall: float


def worst_case_distortion(labeled: LabeledResponseSet, scores: ScoredResponseSet) -> float:
    """Reciprocal of the smallest incorrect-response score; 0 when none."""
    score_of = dict(scores.entries)
    for resp in labeled.responses:
        if resp not in score_of:
            raise InvalidInputError(f"no score supplied for response {resp.indices}")
    if set(score_of) != set(labeled.responses):
        raise InvalidInputError("scored set and labeled set cover different responses")
    incorrect = labeled.incorrect_responses()
    if not incorrect:
        return 0.0
    return ext_recip(min(score_of[resp] for resp in incorrect))


def instance_metrics(
    labeled: LabeledResponseSet,
    outcome: FilterOutcome,
    full_scores: ScoredResponseSet,
) -> InstanceResult:
    """Error, distortion, precision, and recall for one filtered instance.

    Precision is the correct share of what was kept (1 for an empty
    selection); recall is the kept share of what was correct (1 when
    nothing was correct to begin with).
    """
    label_of = dict(labeled.entries)
    if set(label_of) != set(full_scores.responses):
        raise InvalidInputError("labeled set and scored set cover different responses")
    outcome_responses = set(outcome.included.responses) | set(outcome.excluded.responses)
    if outcome_responses != set(label_of) or len(outcome.included) + len(outcome.excluded) != len(
        full_scores
    ):
        raise InvalidInputError("filter outcome does not partition the scored set")

    error = 1 if any(label_of[resp] == 0 for resp, _ in outcome.included) else 0
    included_count = len(outcome.included)
    correct_included = sum(label_of[resp] for resp, _ in outcome.included)
    total_correct = labeled.correct_count()
    return InstanceResult(
        error=error,
        alpha_used=outcome.alpha_used,
        size_distortion=ext_div(float(error), outcome.alpha_used),
        worst_case_distortion=worst_case_distortion(labeled, full_scores),
        precision=(correct_included / included_count) if included_count else 1.0,
        recall=(correct_included / total_correct) if total_correct else 1.0,
    )


# ---------------------------------------------------------------------------
# split planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """Seeded repeated-split design: how many splits, what test share."""

    seed: int = 0
    n_splits: int = 100
    test_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidInputError(f"seed must be a nonnegative int, got {self.seed!r}")
        if not isinstance(self.n_splits, int) or self.n_splits < 1:
            raise InvalidInputError(f"n_splits must be >= 1, got {self.n_splits!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidInputError(
                f"test_fraction must lie strictly between 0 and 1, got {self.test_fraction!r}"
            )


@dataclass(frozen=True)
class SplitAssignment:
    """Index sets for one split; indices refer to dataset order."""

    calibration: tuple[int, ...]
    test: tuple[int, ...]


def plan_splits(plan: SplitPlan, n_prompts: int) -> tuple[SplitAssignment, ...]:
    """Seeded shuffles of the prompt indices, one per split.

    The test half takes floor(test_fraction * n) prompts, so at the
    default even split an odd prompt goes to calibration.  Either half
    ending up empty is an error.
    """
    if n_prompts < 2:
        raise InvalidSplitError(f"need at least 2 prompts to split, got {n_prompts}")
    n_test = math.floor(plan.test_fraction * n_prompts)
    if not 1 <= n_test <= n_prompts - 1:
        raise InvalidSplitError(
            f"test_fraction={plan.test_fraction} on {n_prompts} prompts leaves an empty half"
        )
    out = []
    for i in range(plan.n_splits):
        rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(0, i)))
        perm = rng.permutation(n_prompts)
        out.append(
            SplitAssignment(
                calibration=tuple(int(x) for x in perm[n_test:]),
                test=tuple(int(x) for x in perm[:n_test]),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# strategies and report shapes
# ---------------------------------------------------------------------------


class Strategy(enum.Enum):
    ALPHA_MAX = "alpha-max"
    FRACTION = "fraction"


@dataclass(frozen=True)
class Parameter:
    """One grid point: an exact rational value plus its display label."""

    label: str
    value: Fraction

    def __post_init__(self) -> None:
        if self.value < 0:
            raise InvalidInputError(f"parameter must be >= 0, got {self.value}")

    @classmethod
    def of(cls, value: "float | str | int | Fraction") -> "Parameter":
        """Exact value by ``core.as_exact``; the label is the value as written."""
        if isinstance(value, Parameter):
            return value
        exact = as_exact(value, "parameter")
        return cls(value.strip() if isinstance(value, str) else str(value), exact)


@dataclass(frozen=True)
class StrategyGrid:
    """A filtering strategy with the parameter grid to sweep."""

    strategy: Strategy
    parameters: tuple[Parameter, ...]

    def __post_init__(self) -> None:
        params = tuple(Parameter.of(p) for p in self.parameters)
        object.__setattr__(self, "parameters", params)
        if not params:
            raise InvalidInputError("a strategy grid needs at least one parameter")
        if self.strategy is Strategy.FRACTION and any(p.value > 1 for p in params):
            raise InvalidInputError("inclusion fractions cannot exceed 1")
        for param in params:
            if param.value > 1:
                warnings.warn(
                    f"strategy parameter {param.label} exceeds 1; "
                    "rank-based scores never do, so they would retain everything",
                    stacklevel=3,
                )


@dataclass(frozen=True)
class ReportRow:
    score_kind: str
    strategy: str
    parameter: str
    mean_size_distortion: float
    mean_error: float
    mean_alpha: float
    mean_precision: float
    mean_recall: float
    n_test: int
    n_cal: int
    n_splits: int


@dataclass(frozen=True)
class WorstCaseRow:
    """Across-split distribution of the per-split mean worst-case distortion."""

    score_kind: str
    mean: float
    q25: float
    q75: float
    n_splits: int


@dataclass(frozen=True)
class SplitResult:
    rows: tuple[ReportRow, ...]
    worst_case: tuple[tuple[str, float], ...]
    n_test: int
    n_cal: int


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[ReportRow, ...]
    worst_case: tuple[WorstCaseRow, ...]
    n_splits: int

    def find_rows(self, score_kind: str, strategy: str | None = None) -> tuple[ReportRow, ...]:
        return tuple(
            row
            for row in self.rows
            if row.score_kind == score_kind and (strategy is None or row.strategy == strategy)
        )

    def find_worst_case(self, score_kind: str) -> WorstCaseRow:
        for row in self.worst_case:
            if row.score_kind == score_kind:
                return row
        raise InvalidInputError(f"no worst-case row for score kind {score_kind!r}")


# ---------------------------------------------------------------------------
# prepared datasets and the array engine
# ---------------------------------------------------------------------------


class PreparedDataset:
    """Response sets, labels, estimates, transformed values and maxima, flattened.

    Construction builds and labels each prompt's response set and chains
    its estimates, then transforms every estimate and takes every
    prompt's incorrect maxima in whole-array operations.  Responses are
    stored prompt after prompt: prompt i owns ``offsets[i]:offsets[i+1]``.
    Everything split-dependent is left to ``evaluate_split``.
    """

    def __init__(
        self,
        instances: Iterable[PromptInstance],
        permutation_policy: PermutationPolicy | None = None,
    ) -> None:
        policy = permutation_policy if permutation_policy is not None else IDENTITY_POLICY
        self.prompt_ids: list[str] = []
        self.responses: list[list[Response]] = []
        labels: list[int] = []
        estimates: list[float] = []
        seen_ids: set[str] = set()
        for inst in instances:
            pid = inst.prompt_id
            if pid in seen_ids:
                raise InvalidInputError(f"duplicate prompt id {pid!r} in dataset")
            seen_ids.add(pid)
            responses = build_permutation_set(inst.generated, policy)
            labels.extend(label_response_set(inst.generated, responses).labels)
            estimates.extend(aggregate_conditionals(inst.estimates, r) for r in responses)
            self.prompt_ids.append(pid)
            self.responses.append(responses)
        if not self.prompt_ids:
            raise InvalidInputError("cannot prepare an empty dataset")

        self.n_prompts = len(self.prompt_ids)
        self.counts = np.asarray([len(r) for r in self.responses], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        starts = self.offsets[:-1]
        self.labels_flat = np.asarray(labels, dtype=np.int8)
        self.estimates_flat = np.asarray(estimates, dtype=np.float64)
        self.f_flat = {t: transform_values(self.estimates_flat, t) for t in FTransform}
        incorrect = self.labels_flat == 0
        self.fstar = {t: masked_f_star(self.f_flat[t], incorrect, starts) for t in FTransform}
        self.correct_totals = np.add.reduceat(self.labels_flat, starts, dtype=np.int64)

    def gather(self, prompts: np.ndarray) -> np.ndarray:
        """Flat indices of the responses of ``prompts``, prompt after prompt."""
        counts = self.counts[prompts]
        starts = np.cumsum(counts) - counts
        return np.repeat(self.offsets[prompts] - starts, counts) + np.arange(int(counts.sum()))


def _needed_transforms(kinds: Sequence[ScoreKind]) -> set[FTransform]:
    """The transforms whose values ``kinds`` read (naive and p kinds: the estimates)."""
    needed: set[FTransform] = set()
    for kind in kinds:
        if kind.family is ScoreFamily.E_SCORE_COMBINED:
            needed.update(FTransform)
        else:
            needed.add(kind.transform if kind.family is ScoreFamily.E_SCORE else FTransform.IDENTITY)
    return needed


def score_prompts(
    prep: PreparedDataset,
    prompts: np.ndarray,
    kinds: Sequence[ScoreKind],
    cal_fstar: Mapping[FTransform, np.ndarray],
    *,
    master_seed: int = 0,
    split_index: int = 0,
) -> dict[str, np.ndarray]:
    """Score every response of ``prompts`` under each kind, prompt after prompt.

    ``cal_fstar[t]`` holds the calibration prompts' maxima under
    transform t.  Randomized p-scores draw from the (master_seed,
    split_index, prompt id) streams of ``uniform_block``.
    """
    needed = _needed_transforms(kinds)
    summaries = {
        t: build_calibration_summary((float(v) for v in cal_fstar[t]), t) for t in needed
    }
    gather = prep.gather(prompts)
    values = {t: prep.f_flat[t][gather] for t in needed}
    u = None
    if any(kind.family is ScoreFamily.P_SCORE_RANDOMIZED for kind in kinds):
        u = np.concatenate(
            [
                uniform_block(master_seed, split_index, prep.prompt_ids[p], int(prep.counts[p]))
                for p in prompts
            ]
        )
    sorted_cal = np.sort(cal_fstar[FTransform.IDENTITY])
    return {kind.name: kind_scores(kind, values, summaries, sorted_cal, u) for kind in kinds}


def evaluate_split(
    dataset: "PreparedDataset | Sequence[PromptInstance]",
    split: SplitAssignment,
    kinds: Sequence[ScoreKind],
    strategy_grids: Sequence[StrategyGrid] = (),
    *,
    master_seed: int = 0,
    split_index: int = 0,
) -> SplitResult:
    """Score and filter every test prompt against the calibration half.

    Builds one calibration summary per needed transform, scores each
    test prompt's full response set under every requested kind, applies
    every strategy grid point, and averages the instance metrics over
    test prompts.  Also reports the per-kind mean worst-case distortion,
    which needs no strategy at all.
    """
    prep = dataset if isinstance(dataset, PreparedDataset) else PreparedDataset(dataset)
    kinds = tuple(kinds)
    if not kinds:
        raise InvalidInputError("need at least one score kind")
    cal_idx = np.asarray(split.calibration, dtype=np.int64)
    test_idx = np.asarray(split.test, dtype=np.int64)
    if cal_idx.size == 0 or test_idx.size == 0:
        raise InvalidSplitError("both split halves must be nonempty")
    all_idx = np.concatenate([cal_idx, test_idx])
    if all_idx.min() < 0 or all_idx.max() >= prep.n_prompts:
        raise InvalidInputError("split indices out of range for this dataset")
    if np.unique(all_idx).size != all_idx.size:
        raise InvalidInputError("split halves overlap or repeat indices")

    n = int(cal_idx.size)
    cal_fstar = {t: prep.fstar[t][cal_idx] for t in FTransform}
    scores_of = score_prompts(
        prep, test_idx, kinds, cal_fstar, master_seed=master_seed, split_index=split_index
    )

    # flat view of every test response, grouped by test prompt
    counts_t = prep.counts[test_idx]
    starts = np.cumsum(counts_t) - counts_t
    n_test = int(test_idx.size)
    prompt_of = np.repeat(np.arange(n_test), counts_t)
    correct_t = prep.labels_flat[prep.gather(test_idx)].astype(bool)
    ct = prep.correct_totals[test_idx].astype(np.float64)
    sizes, size_of = np.unique(counts_t, return_inverse=True)

    rows: list[ReportRow] = []
    wc: list[tuple[str, float]] = []
    for kind in kinds:
        scores = scores_of[kind.name]

        with np.errstate(divide="ignore"):
            wc_values = 1.0 / np.minimum.reduceat(np.where(correct_t, np.inf, scores), starts)
        wc.append((kind.name, float(np.mean(wc_values))))

        # Each prompt's responses by (score, position), as lexsort is
        # stable; a strategy only picks how many leading ones each prompt
        # keeps.  With a leading 0, cum[ends] - cum[starts] counts them.
        order = np.lexsort((scores, prompt_of))
        sorted_scores = scores[order]
        sorted_correct = correct_t[order]
        incorrect_cum = np.concatenate(([0], np.cumsum(~sorted_correct)))
        correct_cum = np.concatenate(([0], np.cumsum(sorted_correct)))
        for grid in strategy_grids:
            for param in grid.parameters:
                if grid.strategy is Strategy.ALPHA_MAX:
                    # ties at alpha sit together, so the kept ones are a prefix
                    kept = np.add.reduceat(
                        (sorted_scores <= float(param.value)).astype(np.int64), starts
                    )
                else:
                    kept = np.asarray([inclusion_target(param.value, int(k)) for k in sizes])[size_of]
                ends = starts + kept
                alpha_used = np.where(kept > 0, sorted_scores[ends - 1], 0.0)
                err = incorrect_cum[ends] > incorrect_cum[starts]
                cc = correct_cum[ends] - correct_cum[starts]
                with np.errstate(divide="ignore"):
                    sd = np.where(err, 1.0 / alpha_used, 0.0)
                precision = np.where(kept > 0, cc / np.maximum(kept, 1), 1.0)
                recall = np.where(ct > 0, cc / np.maximum(ct, 1.0), 1.0)
                rows.append(
                    ReportRow(
                        score_kind=kind.name,
                        strategy=grid.strategy.value,
                        parameter=param.label,
                        mean_size_distortion=float(np.mean(sd)),
                        mean_error=float(np.mean(err)),
                        mean_alpha=float(np.mean(alpha_used)),
                        mean_precision=float(np.mean(precision)),
                        mean_recall=float(np.mean(recall)),
                        n_test=n_test,
                        n_cal=n,
                        n_splits=1,
                    )
                )

    return SplitResult(rows=tuple(rows), worst_case=tuple(wc), n_test=n_test, n_cal=n)


def aggregate_splits(results: Sequence[SplitResult]) -> EvaluationReport:
    """Average per-split rows position by position; summarize worst cases.

    All splits must share the same row grid (same kinds, strategies, and
    parameters in the same order).  Worst-case rows carry the mean and
    the 25th/75th percentiles of the per-split means.
    """
    results = tuple(results)
    if not results:
        raise InvalidInputError("cannot aggregate zero split results")
    first = results[0]
    key = [(r.score_kind, r.strategy, r.parameter) for r in first.rows]
    wc_key = [name for name, _ in first.worst_case]
    for res in results[1:]:
        if [(r.score_kind, r.strategy, r.parameter) for r in res.rows] != key:
            raise ConfigurationError("split results were computed over different grids")
        if [name for name, _ in res.worst_case] != wc_key:
            raise ConfigurationError("split results cover different score kinds")
        if res.n_test != first.n_test or res.n_cal != first.n_cal:
            raise ConfigurationError("split results have inconsistent half sizes")

    n_splits = len(results)
    rows = []
    for pos, (kind_name, strategy, parameter) in enumerate(key):
        stack = [res.rows[pos] for res in results]
        rows.append(
            ReportRow(
                score_kind=kind_name,
                strategy=strategy,
                parameter=parameter,
                mean_size_distortion=float(np.mean([r.mean_size_distortion for r in stack])),
                mean_error=float(np.mean([r.mean_error for r in stack])),
                mean_alpha=float(np.mean([r.mean_alpha for r in stack])),
                mean_precision=float(np.mean([r.mean_precision for r in stack])),
                mean_recall=float(np.mean([r.mean_recall for r in stack])),
                n_test=first.n_test,
                n_cal=first.n_cal,
                n_splits=n_splits,
            )
        )
    wc_rows = []
    for pos, name in enumerate(wc_key):
        means = np.asarray([res.worst_case[pos][1] for res in results], dtype=np.float64)
        wc_rows.append(
            WorstCaseRow(
                score_kind=name,
                mean=float(np.mean(means)),
                q25=float(np.percentile(means, 25)),
                q75=float(np.percentile(means, 75)),
                n_splits=n_splits,
            )
        )
    return EvaluationReport(rows=tuple(rows), worst_case=tuple(wc_rows), n_splits=n_splits)


def evaluate_dataset(
    dataset: "PreparedDataset | Sequence[PromptInstance]",
    kinds: Sequence[ScoreKind],
    strategy_grids: Sequence[StrategyGrid] = (),
    plan: SplitPlan = SplitPlan(),
    *,
    permutation_policy: PermutationPolicy | None = None,
    master_seed: int | None = None,
) -> EvaluationReport:
    """Run every planned split and aggregate; fully determined by the seeds."""
    prep = (
        dataset
        if isinstance(dataset, PreparedDataset)
        else PreparedDataset(dataset, permutation_policy)
    )
    splits = plan_splits(plan, prep.n_prompts)
    seed = plan.seed if master_seed is None else master_seed
    results = [
        evaluate_split(prep, split, kinds, strategy_grids, master_seed=seed, split_index=i)
        for i, split in enumerate(splits)
    ]
    return aggregate_splits(results)


# ---------------------------------------------------------------------------
# p-score / fixed-threshold equivalence
# ---------------------------------------------------------------------------


def _exact_alpha(alpha: "float | Fraction") -> Fraction:
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int) and not isinstance(alpha, bool):
        return Fraction(alpha)
    value = float(alpha)
    if math.isnan(value) or math.isinf(value):
        raise InvalidInputError(f"alpha must be finite, got {alpha!r}")
    return Fraction(value)


def threshold_equivalence_check(
    f_test_values: Sequence[float],
    cal: CalibrationSummary,
    alpha_grid: Sequence["float | Fraction"],
) -> bool:
    """Does p-score filtering match the order-statistic threshold rule?

    For each alpha, inclusion by p-score (p <= alpha, compared in exact
    rational arithmetic) must equal inclusion by value (f strictly above
    the ceil((1-alpha)(n+1))-th smallest calibration value, or above
    nothing when that index is 0).  Alphas below 1/(n+1) cannot include
    anything under the p-score rule and are rejected as out of range.
    """
    n = cal.n
    values = sorted(cal.per_prompt_fstar)
    lo = Fraction(1, n + 1)
    tests = [as_ext_real(f, "test value") for f in f_test_values]
    at_least = [n - bisect.bisect_left(values, f) for f in tests]  # #{v >= f}, exactly

    for alpha in alpha_grid:
        exact = _exact_alpha(alpha)
        if not lo <= exact <= 1:
            raise InvalidInputError(
                f"alpha {alpha!r} outside [1/(n+1), 1] = [{lo}, 1] for n={n}"
            )
        scaled = (1 - exact) * (n + 1)
        k = -(-scaled.numerator // scaled.denominator)
        tau = values[k - 1] if k >= 1 else None
        for f, count in zip(tests, at_least):
            by_p = Fraction(1 + count, n + 1) <= exact
            by_threshold = True if tau is None else f > tau
            if by_p != by_threshold:
                return False
    return True


@dataclass(frozen=True)
class EquivalenceTrials:
    """Outcome of a batch of randomized equivalence checks."""

    n_instances: int
    failures: int

    @property
    def all_equivalent(self) -> bool:
        return self.failures == 0


def run_equivalence_trials(
    n_instances: int,
    *,
    seed: int = 0,
    n_max: int = 50,
    grid_points: int = 20,
) -> EquivalenceTrials:
    """Randomized instances for the threshold equivalence, ties included.

    Instances rotate through three value styles: continuous values, a
    coarse grid that forces heavy ties, and test values copied from the
    calibration values themselves (plus the extremes 0 and +inf).  Each
    instance checks a grid of exact rationals spanning [1/(n+1), 1],
    with two extra grid points derived from random floats.
    """
    if n_instances < 1 or grid_points < 4 or n_max < 1:
        raise InvalidInputError("need n_instances >= 1, grid_points >= 4, n_max >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    failures = 0
    for i in range(n_instances):
        n = int(rng.integers(1, n_max + 1))
        style = i % 3
        if style == 0:
            cal_values = rng.random(n) * 10.0
            f_tests = list(rng.random(8) * 10.0)
        elif style == 1:
            coarse = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
            cal_values = rng.choice(coarse, n)
            f_tests = list(rng.choice(coarse, 8))
        else:
            cal_values = np.round(rng.random(n), 1)
            picks = rng.integers(0, n, 4)
            f_tests = [float(cal_values[p]) for p in picks] + [0.0, math.inf]
        cal = build_calibration_summary(float(v) for v in cal_values)

        lo = Fraction(1, n + 1)
        span = 1 - lo
        grid: list[Fraction] = [lo, Fraction(1)]
        for j in range(grid_points - 4):
            grid.append(lo + span * Fraction(j + 1, grid_points - 3))
        grid.append(lo + span * Fraction(float(rng.random())))
        grid.append(lo + span * Fraction(float(rng.random())))

        if not threshold_equivalence_check(f_tests, cal, grid):
            failures += 1
    return EquivalenceTrials(n_instances=n_instances, failures=failures)

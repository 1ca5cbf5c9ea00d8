"""Split-based evaluation: size distortion, precision/recall, equivalences.

``evaluate_split`` scores a whole calibration/test split at once with
flat numpy arrays, so that hundred-split sweeps stay fast.  Its scores
come from ``scoring.kind_scores``, the code the per-response scores call
too.  The instance accounting is written once, in ``sweep`` and
``worst_cases``; ``evaluate_split`` averages the worst cases over test
prompts, and ``sweep`` yields its means over test prompts itself.  Tests
hold both to the exact rational oracles.

``evaluate_dataset`` draws split i's shuffle from its seed when it
reaches split i, the shuffle ``plan_splits`` returns for it, and hands
the two halves as index arrays to the core of ``evaluate_split``, which
skips the checks that a shuffle cannot fail; so a run holds one split's
indices at a time, not every split's.  Each split builds only the
calibration summaries its kinds read, from the prepared maxima, checked
as arrays (``estimation._summary_of_array``).

``sweep`` sorts each prompt's responses once by (score, position), so a
filtering strategy only picks how many of them each prompt keeps.  Per
strategy grid it builds one table of the five metrics for every count a
strategy can reach, and a grid point costs one column pick per prompt
and one mean over the picked columns, not a pass over every response;
the picks and means run a bounded block of grid points at a time.
What depends only on the grid and the set sizes is planned once per
split for every kind.  The means are bit-identical to ``np.mean`` over
per-prompt arrays; the ``sweep`` docstring gives the rule that keeps
them so.

A split's result stays in arrays until the report: ``SplitResult``
holds one key per row and one read-only (rows, 5) float64 array of
means, in ``_MEAN_FIELDS`` order, and its ``rows`` are a view built on
demand.  ``aggregate_splits`` stacks the splits' arrays with the split
axis last and C-contiguous, so each mean over splits has ``np.mean``'s
bits, and builds the report's ``ReportRow``s once.

Size distortion for an instance is the error indicator divided by the
tolerance actually used, under extended-real division (no error at zero
tolerance costs nothing; an error at zero tolerance is an infinite
violation).  Precision is the correct share of what was kept (1 for an
empty selection); recall is the kept share of what was correct (1 when
nothing was correct to begin with).  The worst-case distortion of a
score kind on an instance is the reciprocal of the smallest score among
its incorrect responses: the distortion an adversary could realize by
tuning the tolerance, and 0 when the instance has no incorrect response.

``threshold_equivalence_check`` verifies, in exact rational arithmetic,
that filtering by p-score at level alpha keeps precisely the responses
whose value exceeds the ceil((1-alpha)(n+1))-th smallest calibration
value, for any alpha in [1/(n+1), 1].
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    CalibrationSummary,
    ConfigurationError,
    InvalidInputError,
    InvalidSplitError,
    Response,
    Strategy,
    _require_seed,
    as_exact,
    as_ext_real,
)
from .estimation import (
    FTransform,
    PromptInstance,
    _chain,
    _summary_of_array,
    build_calibration_summary,
    masked_f_star,
    transform_values,
)
from .filtering import inclusion_target
from .io import _DatasetColumns
from .response_sets import (
    IDENTITY_POLICY,
    PermutationPolicy,
    _label_table,
    build_permutation_set,
)
from .scoring import (
    ScoreFamily,
    ScoreKind,
    _exceedances,
    _prompt_key,
    _summary_transforms,
    _uniforms,
    kind_scores,
)

# Not called here any more, but kept as module attributes: the traced
# benchmark run (perfbench/tracing.py) rebinds these names by module.
from .estimation import aggregate_conditionals, calibration_f_star, transform_estimate  # noqa: F401
from .response_sets import label_response_set  # noqa: F401
from .scoring import uniform_block  # noqa: F401


# ---------------------------------------------------------------------------
# split planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """Seeded repeated-split design: how many splits, what test share.

    ``test_fraction`` is a number or a decimal string, read by
    ``core.as_exact`` as ``plan_splits`` reads it.
    """

    seed: int = 0
    n_splits: int = 100
    test_fraction: "float | str" = 0.5

    def __post_init__(self) -> None:
        _require_seed(self.seed)
        if not isinstance(self.n_splits, int) or self.n_splits < 1:
            raise InvalidInputError(f"n_splits must be >= 1, got {self.n_splits!r}")
        if not 0 < as_exact(self.test_fraction, "test_fraction") < 1:
            raise InvalidInputError(
                f"test_fraction must lie strictly between 0 and 1, got {self.test_fraction!r}"
            )


@dataclass(frozen=True)
class SplitAssignment:
    """Index sets for one split; indices refer to dataset order."""

    calibration: tuple[int, ...]
    test: tuple[int, ...]


def _test_size(plan: SplitPlan, n_prompts: int) -> int:
    """The test half's size, floor(test_fraction * n); refuses a split with an empty half."""
    if n_prompts < 2:
        raise InvalidSplitError(f"need at least 2 prompts to split, got {n_prompts}")
    n_test = math.floor(as_exact(plan.test_fraction, "test_fraction") * n_prompts)
    if not 1 <= n_test <= n_prompts - 1:
        raise InvalidSplitError(
            f"test_fraction={plan.test_fraction} on {n_prompts} prompts leaves an empty half"
        )
    return n_test


def _split_order(seed: int, split_index: int, n_prompts: int) -> np.ndarray:
    """Split ``split_index``'s seeded shuffle of the prompt indices: test half first."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, split_index)))
    return rng.permutation(n_prompts)


def plan_splits(plan: SplitPlan, n_prompts: int) -> tuple[SplitAssignment, ...]:
    """Seeded shuffles of the prompt indices, one per split.

    The test half takes floor(test_fraction * n) prompts, with the
    fraction read by ``core.as_exact`` as the decimal it spells, as grid
    parameters and inclusion fractions are: 0.29 of 100 prompts is 29.
    At the default even split an odd prompt goes to calibration.  Either
    half ending up empty is an error.  ``evaluate_dataset`` draws the
    same shuffles one split at a time.
    """
    n_test = _test_size(plan, n_prompts)
    out = []
    for i in range(plan.n_splits):
        order = _split_order(plan.seed, i, n_prompts)
        out.append(
            SplitAssignment(
                calibration=tuple(order[n_test:].tolist()), test=tuple(order[:n_test].tolist())
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# strategies and report shapes
# ---------------------------------------------------------------------------


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


_MEAN_FIELDS = tuple(f.name for f in fields(ReportRow) if f.name.startswith("mean_"))


@dataclass(frozen=True, eq=False)
class SplitResult:
    """One split's means over its test prompts, one row per grid point.

    Row j is the grid point ``keys[j]``, a ``(score_kind, strategy,
    parameter label)``, and ``means[j]`` holds its five means in
    ``_MEAN_FIELDS`` order: ``means`` is a read-only (len(keys), 5)
    float64 array.  ``rows`` is a view of the two as ``ReportRow``s with
    ``n_splits=1``, built on each access.  ``worst_case`` pairs each
    score kind with its mean worst-case distortion.
    """

    keys: tuple[tuple[str, str, str], ...]
    means: np.ndarray
    worst_case: tuple[tuple[str, float], ...]
    n_test: int
    n_cal: int

    def __post_init__(self) -> None:
        means = np.array(self.means, dtype=np.float64)
        if means.shape != (len(self.keys), len(_MEAN_FIELDS)):
            raise InvalidInputError(
                f"means of shape {means.shape} do not fit {len(self.keys)} keys"
            )
        means.flags.writeable = False
        object.__setattr__(self, "means", means)

    @property
    def rows(self) -> tuple[ReportRow, ...]:
        """``keys`` and ``means`` as ``ReportRow``s of one split."""
        return tuple(
            ReportRow(*key, *row, self.n_test, self.n_cal, 1)
            for key, row in zip(self.keys, self.means.tolist())
        )

    def __eq__(self, other: object) -> bool:
        # not the dataclass one: its == of two arrays has no single truth value
        if not isinstance(other, SplitResult):
            return NotImplemented
        return (
            self.keys == other.keys
            and np.array_equal(self.means, other.means)
            and self.worst_case == other.worst_case
            and (self.n_test, self.n_cal) == (other.n_test, other.n_cal)
        )


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

    ``instances`` are prompt instances, or the columns that
    ``io``'s reader validates straight from a file; instances are turned
    into the same columns (``_DatasetColumns``), so one core prepares
    both.  A response set depends only on the step count k and the
    policy, so construction builds it once per distinct k and labels it
    once per k for every first-error step (``response_sets._label_table``);
    prompts of the same size share one tuple of responses.  It chains
    the conditionals of all prompts of one k at once
    (``estimation._chain``), then transforms every estimate and takes
    every prompt's incorrect maxima in whole-array operations.
    Responses are stored prompt after prompt: prompt i owns
    ``offsets[i]:offsets[i+1]``.  ``prompt_keys`` (uint64) holds each
    prompt id's hash, the key of its uniform stream; it is computed on
    first read, so only a run with a randomized kind hashes the ids.
    Everything split-dependent is left to ``evaluate_split``.
    """

    def __init__(
        self,
        instances: "Iterable[PromptInstance] | _DatasetColumns",
        permutation_policy: PermutationPolicy | None = None,
    ) -> None:
        policy = permutation_policy if permutation_policy is not None else IDENTITY_POLICY
        if isinstance(instances, _DatasetColumns):
            columns = instances
        else:
            columns = _DatasetColumns.of_instances(instances)
        # in the order the step counts first appear, so a policy that
        # cannot expand one reports the first such prompt's
        sets = {
            k: tuple(build_permutation_set(generated, policy))
            for k, generated in columns.generated.items()
        }
        if columns.duplicate is not None:
            raise InvalidInputError(f"duplicate prompt id {columns.duplicate!r} in dataset")
        if not columns.ids:
            raise InvalidInputError("cannot prepare an empty dataset")

        steps = columns.steps
        self.prompt_ids: list[str] = columns.ids
        self.responses: list[tuple[Response, ...]] = [sets[k] for k in steps.tolist()]
        self.n_prompts = len(self.prompt_ids)
        set_size = np.zeros(max(sets) + 1, dtype=np.int64)
        set_size[list(sets)] = [len(responses) for responses in sets.values()]
        self.counts = set_size[steps]
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        starts = self.offsets[:-1]
        step_starts = np.cumsum(steps) - steps
        self.labels_flat = np.empty(self.offsets[-1], dtype=np.int8)
        self.estimates_flat = np.empty(self.offsets[-1], dtype=np.float64)
        for k, responses in sets.items():
            rows = np.flatnonzero(steps == k)
            flat = starts[rows][:, None] + np.arange(len(responses))
            table = columns.conditionals[step_starts[rows][:, None] + np.arange(k)]
            steps_of = [[i - 1 for i in response.indices] for response in responses]
            self.estimates_flat[flat] = _chain(table, steps_of)
            self.labels_flat[flat] = _label_table(responses, k)[columns.first_errors[rows]]
        if columns.estimates is not None:
            fixed = np.repeat(columns.estimates, self.counts)
            given = ~np.isnan(fixed)
            self.estimates_flat[given] = fixed[given]
        self.f_flat = {t: transform_values(self.estimates_flat, t) for t in FTransform}
        incorrect = self.labels_flat == 0
        self.fstar = {t: masked_f_star(self.f_flat[t], incorrect, starts) for t in FTransform}

    @functools.cached_property
    def prompt_keys(self) -> np.ndarray:
        return np.asarray([_prompt_key(pid) for pid in self.prompt_ids], dtype=np.uint64)

    def gather(self, prompts: np.ndarray) -> np.ndarray:
        """Flat indices of the responses of ``prompts``, prompt after prompt."""
        counts = self.counts[prompts]
        starts = np.cumsum(counts) - counts
        return np.repeat(self.offsets[prompts] - starts, counts) + np.arange(int(counts.sum()))


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
    transform t; the maxima of each transform the kinds read become one
    ``CalibrationSummary`` (``estimation._summary_of_array``), the only
    thing ``kind_scores`` reads of the calibration half, and the p kinds
    rank against one sorted copy of the identity maxima.  Randomized
    p-scores take one uniform per response from a single
    ``scoring._uniforms`` call over the prompts' keys, so each prompt's
    draws equal its own ``uniform_block`` whatever prompts are scored
    with it and in whatever order.
    """
    _require_seed(master_seed)
    read = _summary_transforms(kinds)
    summaries = {t: _summary_of_array(cal_fstar[t], t) for t in read}
    ranked = None
    if any(kind.family in (ScoreFamily.P_SCORE, ScoreFamily.P_SCORE_RANDOMIZED) for kind in kinds):
        ranked = np.sort(np.asarray(cal_fstar[FTransform.IDENTITY], dtype=np.float64))
    if any(kind.family is ScoreFamily.NAIVE for kind in kinds):
        read.add(FTransform.IDENTITY)
    gather = prep.gather(prompts)
    values = {t: prep.f_flat[t][gather] for t in read}
    u = None
    if any(kind.family is ScoreFamily.P_SCORE_RANDOMIZED for kind in kinds):
        u = _uniforms(master_seed, split_index, prep.prompt_keys[prompts], prep.counts[prompts])
    return {kind.name: kind_scores(kind, values, summaries, u, ranked=ranked) for kind in kinds}


def worst_cases(scores: np.ndarray, correct: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per prompt, 1 over its smallest incorrect score, or 0 when it has none.

    ``scores`` and ``correct`` (bool) hold every response, prompt after
    prompt; prompt i owns the next ``counts[i]`` of them.
    """
    starts = np.cumsum(counts) - counts
    with np.errstate(divide="ignore"):
        return 1.0 / np.minimum.reduceat(np.where(correct, np.inf, scores), starts)


# A sweep gathers the metrics of a block of grid points at a time, at
# most this many (point, prompt) cells (one point when there are more
# prompts), so that its memory does not grow with the grid: a full block
# is a 64 KB int64 index and a 320 KB gather.  Twice this ran no faster
# and raised evaluate-perm's peak RSS.
_BLOCK_CELLS = 1 << 13


def _sort_within_prompts(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat positions of each prompt's responses by (score, position).

    The order of ``np.lexsort((scores, owner))``, from one stable
    row-wise argsort per set size over the prompts of that size, laid
    out as a (prompts, size) matrix.
    """
    starts = np.cumsum(counts) - counts
    order = np.empty(scores.size, dtype=np.int64)
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        first = starts[counts == k][:, None]
        flat = first + np.arange(k)
        order[flat] = first + np.argsort(scores[flat], axis=1, kind="stable")
    return order


class _GridPlan:
    """What sweeping one grid needs that the scores do not change.

    Prompt i owns the table columns ``base[i]:base[i] + widths[i]``, led
    by its keep-nothing column, and ``kept`` holds every column's keep
    count.  Alpha-max has a column for every keep count 0..k and walks
    the grid in the order ``walk``; ``lookup`` holds the float values in
    that order.  Fraction has no walk: the j-th column of prompt i keeps
    ``ranks[rank_start[i] + j]``, and ``lookup[p, size_of[i]]`` is the
    column, within prompt i's run, of grid point p; ``size_of[i]``
    numbers prompt i's set size among the distinct ones.  (A plain
    class: a dataclass costs every command about a millisecond of
    import.)
    """

    def __init__(
        self,
        grid: StrategyGrid,
        widths: np.ndarray,
        walk: np.ndarray | None,
        lookup: np.ndarray,
        ranks: np.ndarray | None = None,
        rank_start: np.ndarray | None = None,
        size_of: np.ndarray | None = None,
    ) -> None:
        self.grid = grid
        self.widths = widths
        self.base = np.cumsum(widths) - widths
        self.walk = walk
        self.lookup = lookup
        self.size_of = size_of
        at = np.arange(widths.sum()) - np.repeat(self.base, widths)
        self.kept = at if ranks is None else ranks[at + np.repeat(rank_start, widths)]


def _grid_plans(counts: np.ndarray, strategy_grids: Sequence[StrategyGrid]) -> list[_GridPlan]:
    """Each grid's plan for prompts of these sizes."""
    # bincount and a set, not np.unique: the first call of each of its
    # paths (hashed, or sorted for return_inverse) adds 0.4-0.9 MB of peak RSS
    sizes = np.flatnonzero(np.bincount(counts))
    size_of = np.searchsorted(sizes, counts)
    plans = []
    for grid in strategy_grids:
        if grid.strategy is Strategy.ALPHA_MAX:
            values = np.asarray([float(p.value) for p in grid.parameters])
            walk = np.argsort(values, kind="stable")
            plans.append(_GridPlan(grid, counts + 1, walk, values[walk]))
        else:
            # The target depends only on the size: per distinct size, the
            # ranks some grid point keeps, after rank 0 (keep nothing).
            targets = [
                np.fromiter((inclusion_target(p.value, k) for p in grid.parameters), np.int64)
                for k in sizes.tolist()
            ]
            ranks = [np.asarray(sorted({0, *t.tolist()})) for t in targets]
            lookup = np.stack([np.searchsorted(r, t) for r, t in zip(ranks, targets)], axis=1)
            span = np.asarray([r.size for r in ranks])
            rank_start = (np.cumsum(span) - span)[size_of]
            ranks_flat = np.concatenate(ranks)
            plans.append(
                _GridPlan(grid, span[size_of], None, lookup, ranks_flat, rank_start, size_of)
            )
    return plans


def _sweep(
    scores: np.ndarray,
    correct: np.ndarray,
    counts: np.ndarray,
    plans: Sequence[_GridPlan],
) -> Iterator[tuple[StrategyGrid, np.ndarray]]:
    """``sweep`` over ``_grid_plans(counts, ...)``: each grid with its (points, 5) means."""
    n = counts.size
    starts = np.cumsum(counts) - counts
    order = _sort_within_prompts(scores, counts)
    sorted_scores = scores[order]
    sorted_correct = correct[order]
    del order
    # With a leading 0, correct_cum[end] - correct_cum[start] counts the
    # correct ones among the sorted responses start:end.
    correct_cum = np.concatenate(([0], np.cumsum(sorted_correct)))
    correct_total = correct_cum[starts + counts] - correct_cum[starts]
    per_block = max(1, _BLOCK_CELLS // n)

    def metric_table(plan: _GridPlan) -> np.ndarray:
        """Metrics of keeping each column's count of its prompt's sorted responses."""
        kept = plan.kept
        table = np.empty((5, kept.size))
        size_distortion, error, alpha_used, precision, recall = table
        # Each row is written as soon as it can be, so few temporaries live at once.
        first = np.repeat(starts, plan.widths)
        ends = first + kept
        correct_kept = correct_cum[ends] - correct_cum[first]
        del first
        error[:] = kept > correct_kept  # an incorrect response is kept
        alpha_used[:] = np.where(kept > 0, sorted_scores[ends - 1], 0.0)
        del ends
        with np.errstate(divide="ignore"):
            size_distortion[:] = np.where(error, 1.0 / alpha_used, 0.0)
        precision[:] = np.where(kept > 0, correct_kept / np.maximum(kept, 1), 1.0)
        total = np.repeat(correct_total, plan.widths)
        recall[:] = np.where(total > 0, correct_kept / np.maximum(total, 1), 1.0)
        return table

    def means_of(table: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # per row of cols, the bits of np.mean over the prompts: see sweep's docstring
        return (np.take(table, cols, axis=1).sum(axis=2) / n).T

    for plan in plans:
        points = len(plan.grid.parameters)
        means = np.empty((points, 5))
        table = metric_table(plan)
        if plan.walk is not None:
            # Walk step i passes the responses scoring at most lookup[i],
            # and moves each prompt's column on by as many as it passes
            # of that prompt's, so a tie group passes whole.  Keys sorted
            # by (step, prompt) count the passes of a block of steps with
            # one bincount; a response no step passes has step = points.
            steps = np.searchsorted(plan.lookup, scores, side="left")
            keys = np.sort(steps * n + np.repeat(np.arange(n), counts))
            del steps
            cols = plan.base
            for b in range(0, points, per_block):
                e = min(b + per_block, points)
                lo, hi = np.searchsorted(keys, (b * n, e * n))
                passed = np.bincount(keys[lo:hi] - b * n, minlength=(e - b) * n)
                block = passed.reshape(e - b, n)
                for row in block:  # running sums down the block; np.cumsum(axis=0) is slower
                    row += cols
                    cols = row
                means[plan.walk[b:e]] = means_of(table, block)
        else:
            for b in range(0, points, per_block):
                block = plan.base + np.take(plan.lookup[b : b + per_block], plan.size_of, axis=1)
                means[b : b + per_block] = means_of(table, block)
        yield plan.grid, means


def sweep(
    scores: np.ndarray,
    correct: np.ndarray,
    counts: np.ndarray,
    strategy_grids: Sequence[StrategyGrid],
) -> Iterator[tuple[StrategyGrid, Parameter, tuple[float, ...]]]:
    """Filter every prompt at every grid point; yield the means over prompts.

    Takes the flat layout of ``worst_cases``.  Yields ``(grid, parameter,
    (size_distortion, error, alpha_used, precision, recall))``, each the
    mean over prompts, in grid order.  Alpha-max keeps the responses
    scoring at most the parameter and charges the largest of them;
    fraction keeps the ceil(parameter * size) lowest by (score,
    position) and charges the largest kept score; keeping nothing
    charges 0.

    The table is float64 of shape (5, columns): a column holds the five
    metrics of keeping one prompt's sorted responses up to some count,
    computed with the per-prompt expressions, and each prompt owns a run
    of columns led by its keep-nothing column.  Alpha-max has a column
    for every count 0..k; walking the grid upward by value, each
    response passed moves its prompt one column on, so a tie group
    passes whole.  Fraction keeps ``inclusion_target(v, k)``, which
    depends only on the set size k, so its columns are the ranks some
    grid value asks for at each k.

    Grid points are taken in blocks of at most ``_BLOCK_CELLS`` (point,
    prompt) cells, or of one point when there are more prompts, so
    memory does not grow with the grid.  A block's columns form a
    (points, prompts) index, and its means are
    ``np.take(table, cols, axis=1).sum(axis=2) / n``.  The gather must be
    C-contiguous along the prompt axis: each of its rows is then summed
    pairwise, as ``np.mean`` sums a 1-D array before dividing by the
    count, so every mean is bit-identical to ``np.mean`` over the
    prompts.  ``np.take`` returns C order whatever the index's layout,
    but fancy indexing such as ``table[m][cols]`` follows the index, and
    a column-major index such as ``lookup[b:e][:, size_of]`` then sums
    each mean in another order, which moves last bits.
    """
    for grid, means in _sweep(scores, correct, counts, _grid_plans(counts, strategy_grids)):
        for param, row in zip(grid.parameters, means.tolist()):
            yield grid, param, tuple(row)


def evaluate_split(
    dataset: PreparedDataset,
    split: SplitAssignment,
    kinds: Sequence[ScoreKind],
    strategy_grids: Sequence[StrategyGrid] = (),
    *,
    master_seed: int = 0,
    split_index: int = 0,
) -> SplitResult:
    """Score and filter every test prompt against the calibration half.

    Builds the calibration summaries the requested kinds read, scores
    each test prompt's full response set under every requested kind, and
    reports the means over test prompts that ``sweep`` yields at every
    strategy grid point.  Also reports the per-kind mean of
    ``worst_cases``, which needs no strategy at all.  The split's halves
    must be nonempty, in range and disjoint.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise InvalidInputError("need at least one score kind")
    cal_idx = np.asarray(split.calibration, dtype=np.int64)
    test_idx = np.asarray(split.test, dtype=np.int64)
    if cal_idx.size == 0 or test_idx.size == 0:
        raise InvalidSplitError("both split halves must be nonempty")
    all_idx = np.concatenate([cal_idx, test_idx])
    if all_idx.min() < 0 or all_idx.max() >= dataset.n_prompts:
        raise InvalidInputError("split indices out of range for this dataset")
    if np.bincount(all_idx).max() > 1:  # after the range check: bincount refuses negatives
        raise InvalidInputError("split halves overlap or repeat indices")
    return _evaluate_split(dataset, cal_idx, test_idx, kinds, strategy_grids, master_seed, split_index)


def _evaluate_split(
    dataset: PreparedDataset,
    cal_idx: np.ndarray,
    test_idx: np.ndarray,
    kinds: tuple[ScoreKind, ...],
    strategy_grids: Sequence[StrategyGrid],
    master_seed: int,
    split_index: int,
) -> SplitResult:
    """``evaluate_split`` of halves known to be nonempty, in range and disjoint, for some kinds."""
    cal_fstar = {t: dataset.fstar[t][cal_idx] for t in FTransform}
    scores_of = score_prompts(
        dataset, test_idx, kinds, cal_fstar, master_seed=master_seed, split_index=split_index
    )

    counts = dataset.counts[test_idx]
    correct = dataset.labels_flat[dataset.gather(test_idx)].astype(bool)
    plans = _grid_plans(counts, strategy_grids)
    blocks = [np.empty((0, len(_MEAN_FIELDS)))]  # without grids, no rows
    wc: list[tuple[str, float]] = []
    for kind in kinds:
        scores = scores_of[kind.name]
        wc.append((kind.name, float(np.mean(worst_cases(scores, correct, counts)))))
        blocks.extend(means for _, means in _sweep(scores, correct, counts, plans))
    keys = _row_keys(
        tuple(kind.name for kind in kinds),
        tuple((g.strategy.value, tuple(p.label for p in g.parameters)) for g in strategy_grids),
    )
    return SplitResult(
        keys=keys,
        means=np.concatenate(blocks),
        worst_case=tuple(wc),
        n_test=int(test_idx.size),
        n_cal=int(cal_idx.size),
    )


@functools.lru_cache(maxsize=8)
def _row_keys(
    names: tuple[str, ...], grids: tuple[tuple[str, tuple[str, ...]], ...]
) -> tuple[tuple[str, str, str], ...]:
    """``(score_kind, strategy, parameter label)`` per row, kinds outermost.

    Cached, so that the splits of a run share one tuple: a tuple of
    tuples per split would weigh more than the split's means.
    """
    return tuple(
        (name, strategy, label) for name in names for strategy, labels in grids for label in labels
    )


def _ext_percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile``'s default value of extended nonnegative reals, never ``inf - inf``.

    Numpy's linear method reads the virtual index (n - 1) * q/100 of the
    sorted values and interpolates its two neighbours, reading nan when
    the upper one is +inf.  Here equal neighbours give their value and an
    infinite upper neighbour with a positive weight gives +inf; between
    finite neighbours numpy's own ``_lerp`` arithmetic stands, bit for
    bit.  Written out rather than called: ``np.percentile`` imports
    ``numpy.ma`` on first use.
    """
    ordered = np.sort(values).tolist()
    index = (len(ordered) - 1) * (q / 100)
    below = math.floor(index)
    lower, higher = ordered[below], ordered[math.ceil(index)]
    if lower == higher or math.isinf(higher):
        return higher
    weight = index - below
    step = higher - lower
    return lower + step * weight if weight < 0.5 else higher - step * (1 - weight)


def aggregate_splits(results: Sequence[SplitResult]) -> EvaluationReport:
    """Average the splits' means row by row; summarize worst cases.

    All splits must share the same keys (same kinds, strategies, and
    parameters in the same order).  Worst-case rows carry the mean and
    the 25th/75th percentiles of the per-split means.
    """
    results = tuple(results)
    if not results:
        raise InvalidInputError("cannot aggregate zero split results")
    first = results[0]
    wc_key = [name for name, _ in first.worst_case]
    for res in results[1:]:
        if res.keys != first.keys:
            raise ConfigurationError("split results were computed over different grids")
        if [name for name, _ in res.worst_case] != wc_key:
            raise ConfigurationError("split results cover different score kinds")
        if res.n_test != first.n_test or res.n_cal != first.n_cal:
            raise ConfigurationError("split results have inconsistent half sizes")

    n_splits = len(results)
    n_rows = len(first.keys)
    row_means = np.empty((n_rows, len(_MEAN_FIELDS)))
    # Stacked a block of rows at a time, so that aggregating holds a
    # bounded copy of the splits' means.  Along the last axis of a
    # C-contiguous (rows, 5, splits) block, the mean is each field's
    # np.mean over splits, bit for bit.
    per_block = max(1, _BLOCK_CELLS // (len(_MEAN_FIELDS) * n_splits))
    for b in range(0, n_rows, per_block):
        e = min(b + per_block, n_rows)
        block = np.empty((e - b, len(_MEAN_FIELDS), n_splits))
        stacked = np.stack([res.means[b:e] for res in results], axis=-1, out=block)
        row_means[b:e] = stacked.mean(axis=-1)
    rows = [
        ReportRow(*key, *row, first.n_test, first.n_cal, n_splits)
        for key, row in zip(first.keys, row_means.tolist())
    ]
    wc_rows = []
    for pos, name in enumerate(wc_key):
        means = np.asarray([res.worst_case[pos][1] for res in results], dtype=np.float64)
        wc_rows.append(
            WorstCaseRow(
                score_kind=name,
                mean=float(np.mean(means)),
                q25=_ext_percentile(means, 25),
                q75=_ext_percentile(means, 75),
                n_splits=n_splits,
            )
        )
    return EvaluationReport(rows=tuple(rows), worst_case=tuple(wc_rows), n_splits=n_splits)


_FLOORED_FAMILIES = (ScoreFamily.E_SCORE, ScoreFamily.E_SCORE_COMBINED, ScoreFamily.P_SCORE)


def evaluate_dataset(
    dataset: PreparedDataset,
    kinds: Sequence[ScoreKind],
    strategy_grids: Sequence[StrategyGrid] = (),
    plan: SplitPlan = SplitPlan(),
) -> EvaluationReport:
    """Run every planned split and aggregate; fully determined by the seeds.

    The splits are ``plan_splits``'s, each drawn as an index array when
    its turn comes, so memory does not grow with the number of splits.
    No e-score or p-score can go below 1/(n_cal + 1), so those kinds keep
    nothing at an alpha-max grid point under that floor; such points
    draw one warning.
    """
    kinds = tuple(kinds)
    n_prompts = dataset.n_prompts
    n_test = _test_size(plan, n_prompts)
    n_cal = n_prompts - n_test
    floored = [kind.name for kind in kinds if kind.family in _FLOORED_FAMILIES]
    below = [
        param
        for grid in strategy_grids
        if grid.strategy is Strategy.ALPHA_MAX
        for param in grid.parameters
        if param.value < Fraction(1, n_cal + 1)
    ]
    if floored and below:
        warnings.warn(
            f"{len(below)} alpha-max grid point(s) lie below 1/{n_cal + 1}, the smallest "
            f"score that {', '.join(floored)} can take with {n_cal} calibration prompts; "
            "these kinds keep nothing there",
            stacklevel=2,
        )
    if not kinds:
        raise InvalidInputError("need at least one score kind")
    results = []
    for i in range(plan.n_splits):
        order = _split_order(plan.seed, i, n_prompts)
        results.append(
            _evaluate_split(
                dataset, order[n_test:], order[:n_test], kinds, strategy_grids, plan.seed, i
            )
        )
    return aggregate_splits(results)


# ---------------------------------------------------------------------------
# p-score / fixed-threshold equivalence
# ---------------------------------------------------------------------------


def threshold_equivalence_check(
    f_test_values: Sequence[float],
    cal: CalibrationSummary,
    alpha_grid: Sequence["float | Fraction"],
) -> bool:
    """Does p-score filtering match the order-statistic threshold rule?

    For each alpha, inclusion by p-score (p <= alpha, compared in exact
    rational arithmetic) must equal inclusion by value (f strictly above
    the ceil((1-alpha)(n+1))-th smallest calibration value, or above
    nothing when that index is 0).  The p side takes #{v >= f} from
    ``scoring._exceedances``, the rank count the p kinds score with, and
    the threshold side reads the same sorted maxima.  Each alpha goes
    through ``core.as_exact``, so floats mean their shortest decimal.
    Alphas below 1/(n+1) cannot include anything under the p-score rule
    and are rejected as out of range.
    """
    n = cal.n
    ordered = np.sort(np.asarray(cal.per_prompt_fstar, dtype=np.float64))
    lo = Fraction(1, n + 1)
    tests = [as_ext_real(f, "test value") for f in f_test_values]
    at_least = _exceedances(ordered, np.asarray(tests, dtype=np.float64))[0].tolist()

    for alpha in alpha_grid:
        exact = as_exact(alpha, "alpha")
        if not lo <= exact <= 1:
            raise InvalidInputError(
                f"alpha {alpha!r} outside [1/(n+1), 1] = [{lo}, 1] for n={n}"
            )
        k = inclusion_target(1 - exact, n + 1)
        tau = ordered[k - 1] if k >= 1 else None
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
    rng = np.random.default_rng(np.random.SeedSequence(_require_seed(seed), spawn_key=(2,)))
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

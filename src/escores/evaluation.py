"""Split-based evaluation: size distortion, precision/recall, equivalences.

``evaluate_split`` scores a whole calibration/test split at once with
flat numpy arrays, so that hundred-split sweeps stay fast.  Its scores
come from ``scoring.kind_scores``, the code the per-response scores call
too.  The instance accounting is written once, in ``sweep`` and
``worst_cases``; ``evaluate_split`` averages the worst cases over test
prompts, and ``sweep`` yields its means over test prompts itself.  Tests
hold both to the exact rational oracles.

``evaluate_dataset`` runs ``evaluate_split`` on each of ``plan_splits``'s
splits, drawing split i's shuffle from its seed only when it reaches
split i, so a run holds one split's indices at a time, not every
split's.  A ``PreparedDataset`` holds each response's estimate and
label and each prompt's maxima f* under every transform, not the
transformed values, which only the test half of a split reads.  Each
split builds only the calibration summaries its kinds read, by
``build_calibration_summary`` of the prepared float64 maxima, which it
checks as arrays, and transforms only its test responses' estimates.

``sweep`` sorts each prompt's responses once by (score, position), so a
filtering strategy only picks how many of them each prompt keeps.
Both strategies work out the metrics of each distinct row of keep
counts along the grid once, a bounded block of rows at a time, and
repeat that row for the grid points it stands for.  Alpha-max builds
one table of the five metrics for every count 0..k of every prompt and
walks the grid by value; a row costs one column pick per prompt and one
mean over the picked columns, and only the walk steps that some
response passes start a new row, so a grid costs by its live steps,
at most one per distinct test score, not by its points.  Its error
mean is counted, not gathered: a prompt errs from the row of its
smallest incorrect score on.  Fraction's counts depend only on the set
sizes.  What depends only on the grid and the set sizes is planned once
per split for every kind, from the alpha-max walk order and fraction's
keep counts per set size, which each grid works out once for all the
splits of a run.  The means are bit-identical to ``np.mean`` over
per-prompt arrays; the ``sweep`` docstring gives the rules that keep
them so.

Results stay in arrays through the report: ``SplitResult`` and
``EvaluationReport`` each hold one key per row and one read-only
(rows, 5) float64 array of means, in ``_MEAN_FIELDS`` order, and build
their ``ReportRow``s only when ``rows`` is read.  A split's sweeps fill
its array in place, and the array is kept, not copied.  ``aggregate_splits``
stacks the splits' arrays with the split axis last and C-contiguous, so
each mean over splits has ``np.mean``'s bits.

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
    _seeded_rng,
    as_exact,
    as_ext_real,
)
from .estimation import (
    FTransform,
    PromptInstance,
    _chain,
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


def _draw_splits(plan: SplitPlan, n_prompts: int, n_test: int) -> Iterator[SplitAssignment]:
    """Each split of ``plan`` in turn, its shuffle drawn only when it is reached."""
    for i in range(plan.n_splits):
        order = _seeded_rng(plan.seed, (0, i)).permutation(n_prompts)  # test half first
        yield SplitAssignment(
            calibration=tuple(order[n_test:].tolist()), test=tuple(order[:n_test].tolist())
        )


def plan_splits(plan: SplitPlan, n_prompts: int) -> tuple[SplitAssignment, ...]:
    """Seeded shuffles of the prompt indices, one per split.

    The test half takes floor(test_fraction * n) prompts, with the
    fraction read by ``core.as_exact`` as the decimal it spells, as grid
    parameters and inclusion fractions are: 0.29 of 100 prompts is 29.
    At the default even split an odd prompt goes to calibration.  Either
    half ending up empty is an error.  ``evaluate_dataset`` runs the
    same splits, each drawn when it reaches it.
    """
    return tuple(_draw_splits(plan, n_prompts, _test_size(plan, n_prompts)))


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
        # not a field, so == and hash ignore it: see _inclusion_targets
        object.__setattr__(self, "_targets_of_size", {})
        if not params:
            raise InvalidInputError("a strategy grid needs at least one parameter")
        if self.strategy is Strategy.FRACTION and any(p.value > 1 for p in params):
            raise InvalidInputError("inclusion fractions cannot exceed 1")
        above = [param.label for param in params if param.value > 1]
        if above:
            warnings.warn(
                f"{len(above)} strategy parameter(s) exceed 1 (first {above[0]}); "
                "rank-based scores never do, so they would retain everything",
                stacklevel=3,
            )

    def _inclusion_targets(self, size: int) -> np.ndarray:
        """``inclusion_target(v, size)`` at each parameter v, read-only.

        Computed once per size and kept on the grid, so the splits of a
        run share it: one exact-integer call per grid point.
        """
        targets = self._targets_of_size.get(size)
        if targets is None:
            targets = np.fromiter(
                (inclusion_target(p.value, size) for p in self.parameters), np.int64
            )
            targets.flags.writeable = False
            self._targets_of_size[size] = targets
        return targets

    @functools.cached_property
    def _walk(self) -> tuple[np.ndarray, np.ndarray]:
        """Alpha-max's walk: the parameters' positions by value, and the values in that order.

        Read-only and kept on the grid (not a field, so == and hash
        ignore it), so the splits of a run share it.
        """
        values = np.asarray([float(p.value) for p in self.parameters])
        walk = np.argsort(values, kind="stable")
        lookup = values[walk]
        walk.flags.writeable = lookup.flags.writeable = False
        return walk, lookup


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
class _KeyedMeans:
    """A table of means: one key per row, the rows' means in one array.

    Row j is the grid point ``keys[j]``, a ``(score_kind, strategy,
    parameter label)``, and ``means[j]`` holds its five means in
    ``_MEAN_FIELDS`` order: ``means`` is a read-only (len(keys), 5)
    float64 array.  A read-only C-contiguous float64 array is kept as
    given, as ``evaluate_split`` and ``aggregate_splits`` build them, so
    a table the size of a fine grid is not copied; anything else is
    copied.  ``rows`` is a view of the two as ``ReportRow``s, built on
    each read.
    """

    keys: tuple[tuple[str, str, str], ...]
    means: np.ndarray

    def __post_init__(self) -> None:
        means = self.means
        if not (
            isinstance(means, np.ndarray)
            and means.dtype == np.float64
            and means.flags.c_contiguous
            and not means.flags.writeable
        ):
            means = np.array(means, dtype=np.float64)
            means.flags.writeable = False
        if means.shape != (len(self.keys), len(_MEAN_FIELDS)):
            raise InvalidInputError(
                f"means of shape {means.shape} do not fit {len(self.keys)} keys"
            )
        object.__setattr__(self, "means", means)

    @property
    def rows(self) -> tuple[ReportRow, ...]:
        """``keys`` and ``means`` as ``ReportRow``s; a ``SplitResult``'s have ``n_splits=1``."""
        return tuple(
            ReportRow(*key, *row, self.n_test, self.n_cal, getattr(self, "n_splits", 1))
            for key, row in zip(self.keys, self.means.tolist())
        )

    def __eq__(self, other: object) -> bool:
        # not the dataclass one: its == of two arrays has no single truth value
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.means, other.means) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.name != "means"
        )


@dataclass(frozen=True, eq=False)
class SplitResult(_KeyedMeans):
    """One split's means; ``worst_case`` pairs each score kind with its mean worst case."""

    worst_case: tuple[tuple[str, float], ...]
    n_test: int
    n_cal: int


@dataclass(frozen=True, eq=False)
class EvaluationReport(_KeyedMeans):
    worst_case: tuple[WorstCaseRow, ...]
    n_test: int
    n_cal: int
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
    """Response sets, labels, estimates and per-prompt maxima, flattened.

    ``instances`` are prompt instances, or the columns that
    ``io``'s reader validates straight from a file; instances are turned
    into the same columns (``_DatasetColumns``), so one core prepares
    both.  A response set depends only on the step count k and the
    policy, so construction builds it once per distinct k and labels it
    once per k for every first-error step (``response_sets._label_table``);
    prompts of the same size share one tuple of responses.  It chains
    the conditionals of all prompts of one k at once
    (``estimation._chain``), then takes every prompt's incorrect maxima
    ``fstar`` under each transform in whole-array operations.  It keeps
    no transformed values: ``score_prompts`` transforms the estimates it
    gathers, with the same bits, as every transform is elementwise.  So
    a prepared response holds 9 bytes, its float64 estimate and int8
    label.  Responses are stored prompt after prompt: prompt i owns
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
        incorrect = self.labels_flat == 0
        # each transform's values live only while its maxima are taken
        self.fstar = {
            t: masked_f_star(transform_values(self.estimates_flat, t), incorrect, starts)
            for t in FTransform
        }

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
    ``CalibrationSummary`` (``build_calibration_summary``), the only
    thing ``kind_scores`` reads of the calibration half.  The prompts'
    estimates are gathered once and transformed only under the
    transforms the kinds read.  Randomized p-scores take one uniform per
    response from a single ``scoring._uniforms`` call over the prompts'
    keys, so each prompt's draws equal its own ``uniform_block``
    whatever prompts are scored with it and in whatever order.
    """
    _require_seed(master_seed)
    read = set().union(*(kind.summary_transforms for kind in kinds))
    summaries = {t: build_calibration_summary(cal_fstar[t], t) for t in read}
    if any(kind.family is ScoreFamily.NAIVE for kind in kinds):
        read.add(FTransform.IDENTITY)
    estimates = prep.estimates_flat[prep.gather(prompts)]
    values = {t: transform_values(estimates, t) for t in read}
    u = None
    if any(kind.family is ScoreFamily.P_SCORE_RANDOMIZED for kind in kinds):
        u = _uniforms(master_seed, split_index, prep.prompt_keys[prompts], prep.counts[prompts])
    return {kind.name: kind_scores(kind, values, summaries, u) for kind in kinds}


def smallest_incorrect(scores: np.ndarray, correct: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per prompt, its smallest incorrect score, or +inf when it has none.

    ``scores`` and ``correct`` (bool) hold every response, prompt after
    prompt; prompt i owns the next ``counts[i]`` of them.
    """
    starts = np.cumsum(counts) - counts
    return np.minimum.reduceat(np.where(correct, np.inf, scores), starts)


def worst_cases(smallest: np.ndarray) -> np.ndarray:
    """Per prompt, 1 over its ``smallest_incorrect`` score: 0 when it has none."""
    with np.errstate(divide="ignore"):
        return 1.0 / smallest


# A sweep works out the metrics of a block of rows at a time, at most
# this many (row, prompt) cells (one row when there are more prompts), so
# that its memory does not grow with the grid: a full block is a 64 KB
# int64 index, of table columns (alpha-max) or of keep counts (fraction),
# and 320 KB of metrics.  Twice this ran no faster and raised
# evaluate-perm's peak RSS.
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

    Alpha-max gives prompt i the table columns ``base[i]:base[i] +
    widths[i]``, one for every keep count 0..k, and ``kept`` holds each
    column's count; it walks the grid in the order ``walk``, and
    ``lookup`` holds the float values in that order.  Fraction has
    neither table nor walk: ``rows`` holds the distinct rows of keep
    counts per distinct set size, row r standing for the next
    ``runs[r]`` grid points, and ``size_of[i]`` numbers prompt i's set
    size among the distinct ones.  (A plain class: a dataclass costs
    every command about a millisecond of import.)
    """

    def __init__(
        self, grid: StrategyGrid, counts: np.ndarray, sizes: np.ndarray, size_of: np.ndarray
    ) -> None:
        self.grid = grid
        if grid.strategy is Strategy.ALPHA_MAX:
            self.walk, self.lookup = grid._walk
            self.widths = counts + 1
            self.base = np.cumsum(self.widths) - self.widths
            self.kept = np.arange(self.widths.sum()) - np.repeat(self.base, self.widths)
        else:
            # The target depends only on the size, so a grid point's row
            # changes only where some ceil(v * size) does.
            targets = np.stack([grid._inclusion_targets(k) for k in sizes.tolist()], axis=1)
            new = np.flatnonzero(np.diff(targets, axis=0, prepend=-1).any(axis=1))
            self.walk = None
            self.rows = targets[new]
            self.runs = np.diff(new, append=len(targets))
            self.size_of = size_of


def _grid_plans(counts: np.ndarray, strategy_grids: Sequence[StrategyGrid]) -> list[_GridPlan]:
    """Each grid's plan for prompts of these sizes."""
    # bincount, not np.unique: the first call of each of its paths
    # (hashed, or sorted for return_inverse) adds 0.4-0.9 MB of peak RSS
    sizes = np.flatnonzero(np.bincount(counts))
    size_of = np.searchsorted(sizes, counts)
    return [_GridPlan(grid, counts, sizes, size_of) for grid in strategy_grids]


def _sweep(
    scores: np.ndarray,
    correct: np.ndarray,
    counts: np.ndarray,
    smallest: np.ndarray,
    plans: Sequence[_GridPlan],
    out: np.ndarray,
) -> None:
    """``sweep`` over ``_grid_plans(counts, ...)``, into ``out``: the plans' (points, 5) means in turn.

    ``smallest`` is ``smallest_incorrect`` of the same responses.
    """
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
    gathered = [0, 2, 3, 4]  # every metric but the error, which alpha-max counts

    def metrics(kept: np.ndarray, first: np.ndarray, total: np.ndarray) -> np.ndarray:
        """(5, *kept.shape) metrics of keeping ``kept`` sorted responses from ``first`` on."""
        table = np.empty((5, *kept.shape))
        size_distortion, error, alpha_used, precision, recall = table
        # Rows are written in place, so few temporaries live at once: each
        # is divided everywhere, then takes its default where the divide
        # is not defined.
        last = first + kept
        correct_kept = correct_cum[last]
        correct_kept -= correct_cum[first]
        np.greater(kept, correct_kept, out=error)  # an incorrect response is kept
        last -= 1
        np.take(sorted_scores, last, out=alpha_used)
        del last
        empty = kept == 0
        alpha_used[empty] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0, alpha_used, out=size_distortion)
            np.divide(correct_kept, kept, out=precision)
            np.divide(correct_kept, total, out=recall)
        size_distortion[error == 0] = 0.0
        precision[empty] = 1.0
        recall[..., total == 0] = 1.0  # total is per prompt, the last axis
        return table

    def means_of(block: np.ndarray) -> np.ndarray:
        # per row of a (fields, rows, prompts) block, the bits of np.mean
        # over the prompts: see sweep's docstring
        return (block.sum(axis=2) / n).T

    done = 0
    for plan in plans:
        points = len(plan.grid.parameters)
        means = out[done : done + points]
        done += points
        if plan.walk is not None:
            table = metrics(
                plan.kept, np.repeat(starts, plan.widths), np.repeat(correct_total, plan.widths)
            )[gathered]
            # Walk step i passes the responses scoring at most lookup[i]
            # (a response no step passes has step = points), and moves
            # each prompt's column on by as many as it passes of that
            # prompt's, so a tie group passes whole.  A step is live when
            # it passes some response.  Compact row r holds the columns
            # after the first r live steps, row 0 those of keeping
            # nothing.  row_of maps each step to its row, and step =
            # points to one past the last row.
            steps = np.searchsorted(plan.lookup, scores, side="left")
            live = np.bincount(steps, minlength=points + 1)[:points] > 0
            row_of = np.cumsum(np.append(live, True))
            n_rows = int(row_of[-1])
            compact = np.empty((n_rows, 5))
            # A prompt errs from the row of its smallest incorrect score
            # on, and a sum of 0/1 values is an exact count: counting the
            # prompts that err by each row gives np.mean's bits.
            first_errors = row_of[np.searchsorted(plan.lookup, smallest, side="left")]
            errs = np.bincount(first_errors, minlength=n_rows + 1)[:n_rows]
            compact[:, 1] = np.cumsum(errs) / n
            # Keys sorted by (row, prompt) count the passes of a block of
            # rows with one bincount.
            keys = np.sort(row_of[steps] * n + np.repeat(np.arange(n), counts))
            del steps
            cols = plan.base
            for b in range(0, n_rows, per_block):
                e = min(b + per_block, n_rows)
                lo, hi = np.searchsorted(keys, (b * n, e * n))
                passed = np.bincount(keys[lo:hi] - b * n, minlength=(e - b) * n)
                block = passed.reshape(e - b, n)
                for row in block:  # running sums down the block; np.cumsum(axis=0) is slower
                    row += cols
                    cols = row
                compact[b:e, gathered] = means_of(np.take(table, block, axis=1))
            means[plan.walk] = compact[row_of[:points]]
        else:
            rows = np.empty((len(plan.runs), 5))
            for b in range(0, len(rows), per_block):
                kept = np.take(plan.rows[b : b + per_block], plan.size_of, axis=1)
                rows[b : b + per_block] = means_of(metrics(kept, starts, correct_total))
            means[:] = np.repeat(rows, plan.runs, axis=0)


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

    One function computes the five metrics of keeping a count of a
    prompt's sorted responses, with the per-prompt expressions, for both
    strategies, and both compute each distinct row of keep counts along
    the grid once and repeat its means for the grid points it stands
    for.  Alpha-max builds a float64 table of shape (4, columns), every
    metric but the error, with a column for every count 0..k of every
    prompt.  Walking the grid upward by value, each response passed
    moves its prompt one column on, so a tie group passes whole.  A
    walk step that passes some response is live; compact row r holds the
    columns after the first r live steps, row 0 those of keeping
    nothing, so a grid gathers at most one row per distinct test score,
    plus one, however fine it is.  Fraction keeps
    ``inclusion_target(v, k)``, which depends only on the set size k and
    changes only at multiples of 1/k, so it computes the metrics of its
    distinct rows straight from the counts.

    Rows are taken in blocks of at most ``_BLOCK_CELLS`` (row, prompt)
    cells, or of one row when there are more prompts, so memory does not
    grow with the grid.  A block's metrics form a (fields, rows, prompts)
    array, gathered from the table for alpha-max, and its means are
    ``block.sum(axis=2) / n``.  The block must be C-contiguous along the
    prompt axis: each of its rows is then summed pairwise, as
    ``np.mean`` sums a 1-D array before dividing by the count, so every
    mean is bit-identical to ``np.mean`` over the prompts.  ``np.take``
    returns C order whatever the index's layout, but fancy indexing such
    as ``table[m][cols]`` follows the index, and a column-major index
    then sums each mean in another order, which moves last bits.

    Alpha-max's error mean needs no gather.  A prompt errs exactly when
    it keeps its smallest incorrect score, that is from that score's
    row on, so the mean at row r is the count of prompts whose first
    error row is at most r, over n.  A pairwise sum of 0/1 float64
    values is a sum of integers below 2**53, exact in every order, so
    it equals that count and the quotient has ``np.mean``'s bits.
    """
    pairs = [(grid, param) for grid in strategy_grids for param in grid.parameters]
    means = np.empty((len(pairs), len(_MEAN_FIELDS)))
    smallest = smallest_incorrect(scores, correct, counts)
    _sweep(scores, correct, counts, smallest, _grid_plans(counts, strategy_grids), means)
    for (grid, param), row in zip(pairs, means.tolist()):
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

    cal_fstar = {t: dataset.fstar[t][cal_idx] for t in FTransform}
    scores_of = score_prompts(
        dataset, test_idx, kinds, cal_fstar, master_seed=master_seed, split_index=split_index
    )

    counts = dataset.counts[test_idx]
    correct = dataset.labels_flat[dataset.gather(test_idx)].astype(bool)
    plans = _grid_plans(counts, strategy_grids)
    points = sum(len(grid.parameters) for grid in strategy_grids)
    means = np.empty((len(kinds) * points, len(_MEAN_FIELDS)))
    wc: list[tuple[str, float]] = []
    for i, kind in enumerate(kinds):
        scores = scores_of[kind.name]
        smallest = smallest_incorrect(scores, correct, counts)
        wc.append((kind.name, float(np.mean(worst_cases(smallest)))))
        _sweep(scores, correct, counts, smallest, plans, means[i * points : (i + 1) * points])
    means.flags.writeable = False
    keys = _row_keys(
        tuple(kind.name for kind in kinds),
        tuple((g.strategy.value, tuple(p.label for p in g.parameters)) for g in strategy_grids),
    )
    return SplitResult(
        keys=keys,
        means=means,
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
    row_means.flags.writeable = False
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
    return EvaluationReport(
        first.keys, row_means, tuple(wc_rows), first.n_test, first.n_cal, n_splits
    )


_FLOORED_FAMILIES = (ScoreFamily.E_SCORE, ScoreFamily.E_SCORE_COMBINED, ScoreFamily.P_SCORE)


def evaluate_dataset(
    dataset: PreparedDataset,
    kinds: Sequence[ScoreKind],
    strategy_grids: Sequence[StrategyGrid] = (),
    plan: SplitPlan = SplitPlan(),
) -> EvaluationReport:
    """Run every planned split and aggregate; fully determined by the seeds.

    Runs ``evaluate_split`` on each of ``plan_splits``'s splits, drawn
    only when its turn comes, so memory does not grow with the number of
    splits.  No e-score or p-score can go below 1/(n_cal + 1), so those
    kinds keep nothing at an alpha-max grid point under that floor; such
    points draw one warning.
    """
    kinds = tuple(kinds)
    n_prompts = dataset.n_prompts
    n_test = _test_size(plan, n_prompts)
    n_cal = n_prompts - n_test
    floored = [kind.name for kind in kinds if kind.family in _FLOORED_FAMILIES]
    floor = Fraction(1, n_cal + 1)
    alpha_max = [grid for grid in strategy_grids if grid.strategy is Strategy.ALPHA_MAX]
    below = [param for grid in alpha_max for param in grid.parameters if param.value < floor]
    if floored and below:
        warnings.warn(
            f"{len(below)} alpha-max grid point(s) lie below 1/{n_cal + 1}, the smallest "
            f"score that {', '.join(floored)} can take with {n_cal} calibration prompts; "
            "these kinds keep nothing there",
            stacklevel=2,
        )
    results = [
        evaluate_split(dataset, split, kinds, strategy_grids, master_seed=plan.seed, split_index=i)
        for i, split in enumerate(_draw_splits(plan, n_prompts, n_test))
    ]
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
    rng = _seeded_rng(seed, (2,))
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

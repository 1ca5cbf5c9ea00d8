"""Split plans, strategy grids, the grid sweep and the report types of ``evaluate``.

A ``SplitPlan`` fixes the seeded repeated splits, each a
``SplitAssignment`` of prompt indices.  A ``StrategyGrid`` is a
filtering strategy with the grid to sweep, each point a label and an
int numerator over the grid's one denominator; ``parse_grid`` builds it
from ``--grid`` text with no object per point.  ``sweep`` filters every
test prompt of a split at every grid point and yields the means over
prompts, and ``worst_cases`` gives each prompt's worst-case distortion.
The instance accounting is written once, in these two, and tests hold
both to the exact rational oracles.  Only
``evaluate`` runs this module: ``evaluation``'s split functions import
it when they are called, so ``score``, which prepares and scores but
sweeps nothing, does not load it.

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
splits of a run; what depends on the split's labels but not on the
scores is worked out once per split too.  The means are bit-identical
to ``np.mean`` over per-prompt arrays; the ``sweep`` docstring gives the
rules that keep them so.

Results stay in arrays through the report.  One type holds a split's
result and a run's: an ``EvaluationReport`` holds its kinds, its grids
and one read-only (rows, 5) float64 array of means, one block of rows
per kind and grid, and builds row keys and ``ReportRow``s only when
read.  ``_split_report``, which ``evaluation.evaluate_split`` calls with
a split's scores, is the one writer of that block layout: the split's
sweeps fill its array in place, the array is kept, not copied, and
each kind's worst case is averaged over test prompts.  Such a report
has ``n_splits=1``.  ``evaluation.aggregate_splits`` stacks one-split
reports' arrays with the split axis last and C-contiguous, so each mean
over splits has ``np.mean``'s bits.

Size distortion for an instance is the error indicator divided by the
tolerance actually used, under extended-real division (no error at zero
tolerance costs nothing; an error at zero tolerance is an infinite
violation).  Precision is the correct share of what was kept (1 for an
empty selection); recall is the kept share of what was correct (1 when
nothing was correct to begin with).  The worst-case distortion of a
score kind on an instance is the reciprocal of the smallest score among
its incorrect responses: the distortion an adversary could realize by
tuning the tolerance, and 0 when the instance has no incorrect response.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    InvalidInputError,
    InvalidSplitError,
    Strategy,
    _finite_decimal,
    _require_seed,
    _seeded_rng,
    _warn,
    as_exact,
    inclusion_target,
)


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
    half ending up empty is an error.  ``evaluation.evaluate_dataset``
    runs the same splits, each drawn when it reaches it.
    """
    return tuple(_draw_splits(plan, n_prompts, _test_size(plan, n_prompts)))


# ---------------------------------------------------------------------------
# grids and report shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyGrid:
    """A filtering strategy with the grid to sweep, validated here and nowhere else.

    Point i is ``parameters[i]``, its label as written, and exactly
    ``numerators[i] / denominator`` in lowest terms.  Only this module
    reads that form; ``parse_grid`` and ``of`` build it.
    """

    strategy: Strategy
    parameters: tuple[str, ...]
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        labels, numerators, denominator = tuple(self.parameters), tuple(self.numerators), self.denominator
        if not labels:
            raise InvalidInputError("a strategy grid needs at least one parameter")
        ints = {*map(type, numerators), type(denominator)}
        if len(labels) != len(numerators) or {*map(type, labels)} != {str} or ints != {int}:
            raise InvalidInputError("a strategy grid needs a str label and an int numerator per point")
        if denominator < 1:
            raise InvalidInputError(f"a strategy grid's denominator must be >= 1, got {denominator}")
        if min(numerators) < 0:
            first = next(n for n in numerators if n < 0)
            raise InvalidInputError(f"parameter must be >= 0, got {Fraction(first, denominator)}")
        common = math.gcd(denominator, *numerators)
        if common > 1:
            numerators, denominator = tuple(n // common for n in numerators), denominator // common
        state = dict(parameters=labels, numerators=numerators, denominator=denominator)
        vars(self).update(state, _targets_of_size={})  # frozen; a cache, not a field: == and hash skip it
        if max(numerators) > denominator:
            if self.strategy is Strategy.FRACTION:
                raise InvalidInputError("inclusion fractions cannot exceed 1")
            above = [label for label, n in zip(labels, numerators) if n > denominator]
            _warn(
                f"{len(above)} strategy parameter(s) exceed 1 (first {above[0]}); "
                "rank-based scores never do, so they would retain everything"
            )

    @classmethod
    def of(cls, strategy: Strategy, values: Sequence[float | str | int | Fraction]) -> StrategyGrid:
        """The grid of these values, each exact by ``core.as_exact`` and labelled as written."""
        exact = [as_exact(value, "grid value") for value in values]
        denominator = math.lcm(*(x.denominator for x in exact))
        labels = tuple(v.strip() if isinstance(v, str) else str(v) for v in values)
        numerators = tuple(x.numerator * (denominator // x.denominator) for x in exact)
        return cls(strategy, labels, numerators, denominator)

    def _count_below(self, m: int) -> int:
        """How many points lie below 1/m, counted in exact integers."""
        return sum(n * m < self.denominator for n in self.numerators)

    def _inclusion_targets(self, size: int) -> np.ndarray:
        """``inclusion_target`` of each point at ``size``, read-only, kept for the run's splits."""
        targets = self._targets_of_size.get(size)
        if targets is None:
            d = self.denominator
            targets = np.fromiter((inclusion_target(n, d, size) for n in self.numerators), np.int64)
            targets.flags.writeable = False
            self._targets_of_size[size] = targets
        return targets

    @functools.cached_property
    def _values(self) -> np.ndarray:
        """The points as float64, read-only and kept on the grid: int division rounds correctly."""
        d = self.denominator
        values = np.fromiter((n / d for n in self.numerators), np.float64, len(self.numerators))
        values.flags.writeable = False
        return values

    @functools.cached_property
    def _walk(self) -> tuple[np.ndarray, np.ndarray]:
        """Alpha-max's walk, read-only, for all splits: the points' order by value, and the values."""
        walk = np.argsort(self._values, kind="stable")
        lookup = self._values[walk]
        walk.flags.writeable = lookup.flags.writeable = False
        return walk, lookup


#: The most points a ``start:stop:step`` grid may hold: the 1e-5 grid on
#: [0, 1].  At this cap the grid holds about 13 MB with its float values
#: and walk, and each score kind about 8 MB of means (4 MB per split until
#: aggregated, 4 MB in the report); the sweep costs by live steps, not points.
_MAX_GRID_POINTS = 100_001


def parse_grid(text: str, strategy: Strategy) -> StrategyGrid:
    """``strategy``'s grid from ``start:stop:step`` or a comma list.

    A range's decimal ends are read exactly, so ``0:1:0.01`` is the 101
    points 0, 0.01, ..., 1 with no drift, labelled in plain decimal notation
    and counted before one is built.  A comma list of decimals or ratios like
    ``1/3`` goes through ``StrategyGrid.of``.  Every number must fit a float.
    """
    text = text.strip()
    if not text:
        raise InvalidInputError("empty parameter grid")
    pieces = [piece.strip() for piece in text.split(":" if ":" in text else ",")]
    if ":" not in text:
        if "" in pieces:
            raise InvalidInputError(f"empty entry in grid list {text!r}")
        return StrategyGrid.of(strategy, pieces)
    if len(pieces) != 3:
        raise InvalidInputError(f"grid ranges use start:stop:step, got {text!r}")
    ends = [_finite_decimal(end, f"grid {name}") for name, end in zip(("start", "stop", "step"), pieces)]
    if ends[2] <= 0:
        raise InvalidInputError("grid step must be positive")
    if ends[1] < ends[0]:
        raise InvalidInputError("grid stop must not precede start")
    # Each end as an int count of 10**-places, places the most decimal places
    # of a nonzero end: a zero such as 0e-999999999 asks for no digits.
    places = max([0] + [-number.as_tuple().exponent for number in ends if number])
    if places > 4300:  # a label goes through int -> str, which CPython caps at 4,300 digits
        raise InvalidInputError("grid ends have more than 4,300 decimal places")
    scale = 10**places
    start, stop, step = (p * (scale // q) for p, q in map(Decimal.as_integer_ratio, ends))
    count = (stop - start) // step + 1
    if count > _MAX_GRID_POINTS:
        shown = f"{count:,}" if count < 10**15 else f"{Decimal(count):.2e}"
        raise InvalidInputError(
            f"grid {text!r} has {shown} points, more than the cap of {_MAX_GRID_POINTS:,}"
        )
    points = range(start, start + count * step, step)
    # (whole, part) = divmod(n, 10**places), written out with the trailing
    # zeros stripped; a negative point is refused by the grid, label unread
    digits = f"%d.%0{places}d"
    labels = tuple(
        (digits % split).rstrip("0") if split[1] else str(split[0])
        for split in map(divmod, points, repeat(scale))
    )
    return StrategyGrid(strategy, labels, tuple(points), scale)


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
class EvaluationReport:
    """Means over splits in blocks, one per score kind and grid, and each kind's worst case.

    The rows are the points of each of ``grids`` in turn under each of
    ``kinds``, kinds outermost, and ``means`` holds their five means in
    ``_MEAN_FIELDS`` order, a read-only (rows, 5) float64 array.  A
    read-only C-contiguous float64 array is kept as given, as
    ``_split_report`` and ``evaluation.aggregate_splits`` build them, so
    a table the size of a fine grid is not copied; anything else is
    copied.  ``keys`` and ``rows`` are views of the blocks, built on each
    read.  One split's report has ``n_splits=1`` and worst-case rows
    whose quartiles equal their mean.
    """

    kinds: tuple[str, ...]
    grids: tuple[StrategyGrid, ...]
    means: np.ndarray
    worst_case: tuple[WorstCaseRow, ...]
    n_test: int
    n_cal: int
    n_splits: int

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
        points = sum(len(grid.parameters) for grid in self.grids)
        if means.shape != (len(self.kinds) * points, len(_MEAN_FIELDS)):
            raise InvalidInputError(
                f"means of shape {means.shape} do not fit {len(self.kinds)} kinds of {points} points"
            )
        object.__setattr__(self, "means", means)
        names = tuple(row.score_kind for row in self.worst_case)
        if names != self.kinds:
            raise InvalidInputError(f"worst cases of {names} do not match the score kinds {self.kinds}")

    def _blocks(self) -> Iterator[tuple[str, StrategyGrid, np.ndarray]]:
        """``(kind, grid, its means)`` per block, in row order; ``_split_report`` writes the layout."""
        start = 0
        for kind in self.kinds:
            for grid in self.grids:
                stop = start + len(grid.parameters)
                yield kind, grid, self.means[start:stop]
                start = stop

    @property
    def keys(self) -> tuple[tuple[str, str, str], ...]:
        """``(score_kind, strategy, parameter label)`` per row."""
        blocks = self._blocks()
        return tuple((k, g.strategy.value, label) for k, g, _ in blocks for label in g.parameters)

    @property
    def rows(self) -> tuple[ReportRow, ...]:
        return self._rows(None, None)

    def find_rows(self, score_kind: str, strategy: str | None = None) -> tuple[ReportRow, ...]:
        return self._rows(score_kind, strategy)

    def _rows(self, score_kind: str | None, strategy: str | None) -> tuple[ReportRow, ...]:
        tail = (self.n_test, self.n_cal, self.n_splits)
        return tuple(
            ReportRow(kind, grid.strategy.value, label, *row, *tail)
            for kind, grid, means in self._blocks()
            if score_kind in (None, kind) and strategy in (None, grid.strategy.value)
            for label, row in zip(grid.parameters, means.tolist())
        )

    def find_worst_case(self, score_kind: str) -> WorstCaseRow:
        for row in self.worst_case:
            if row.score_kind == score_kind:
                return row
        raise InvalidInputError(f"no worst-case row for score kind {score_kind!r}")

    def __eq__(self, other: object) -> bool:
        # not the dataclass one: its == of two arrays has no single truth value
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.means, other.means) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.name != "means"
        )


# ---------------------------------------------------------------------------
# the sweep engine
# ---------------------------------------------------------------------------


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


def _size_rows(counts: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Per distinct set size k, ``(k, the first flat position of each prompt of size k)``, a column."""
    starts = np.cumsum(counts) - counts
    return [(k, starts[counts == k][:, None]) for k in np.flatnonzero(np.bincount(counts)).tolist()]


def _sort_within_prompts(scores: np.ndarray, size_rows: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Flat positions of each prompt's responses by (score, position).

    The order of ``np.lexsort((scores, owner))``, from one stable
    row-wise argsort per set size over the prompts of that size, laid
    out as a (prompts, size) matrix; ``size_rows`` is ``_size_rows`` of
    the set sizes.
    """
    order = np.empty(scores.size, dtype=np.int64)
    for k, first in size_rows:
        flat = first + np.arange(k)
        order[flat] = first + np.argsort(scores[flat], axis=1, kind="stable")
    return order


class _GridPlan:
    """What sweeping one grid needs that the scores do not change.

    Alpha-max gives prompt i the table columns ``base[i]:base[i] +
    widths[i]``, one for every keep count 0..k, and ``kept`` holds each
    column's count: the column keeps the sorted responses ``first`` up
    to ``end``, whose last is ``last``, and ``empty`` marks the columns
    that keep nothing.  It walks the grid in the order ``walk``, and
    ``lookup`` holds the float values in that order.  Fraction has
    neither table nor walk: ``rows`` holds the distinct rows of keep
    counts per distinct set size, row r standing for the next
    ``runs[r]`` grid points, and ``size_of[i]`` numbers prompt i's set
    size among the distinct ones.  (A plain class: a dataclass costs
    every command about a millisecond of import.)
    """

    def __init__(
        self,
        grid: StrategyGrid,
        counts: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        size_of: np.ndarray,
    ) -> None:
        self.grid = grid
        if grid.strategy is Strategy.ALPHA_MAX:
            self.walk, self.lookup = grid._walk
            self.widths = counts + 1
            self.base = np.cumsum(self.widths) - self.widths
            self.kept = np.arange(self.widths.sum()) - np.repeat(self.base, self.widths)
            self.first = np.repeat(starts, self.widths)
            self.end = self.first + self.kept
            self.last = self.end - 1
            self.empty = self.kept == 0
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
    """Each grid's plan for prompts of these sizes: built once per split, for every kind."""
    # bincount, not np.unique: the first call of each of its paths
    # (hashed, or sorted for return_inverse) adds 0.4-0.9 MB of peak RSS
    sizes = np.flatnonzero(np.bincount(counts))
    size_of = np.searchsorted(sizes, counts)
    starts = np.cumsum(counts) - counts
    return [_GridPlan(grid, counts, starts, sizes, size_of) for grid in strategy_grids]


def _metrics(
    sorted_scores: np.ndarray,
    correct_cum: np.ndarray,
    first: np.ndarray,
    end: np.ndarray,
    last: np.ndarray,
    kept: np.ndarray,
    empty: np.ndarray,
    total: np.ndarray,
    no_correct: np.ndarray,
) -> np.ndarray:
    """(5, *kept.shape) metrics of keeping ``kept`` sorted responses, ``first`` up to ``end``.

    ``last`` is ``end - 1`` and ``empty`` marks ``kept == 0``; ``total``
    is the prompt's count of correct responses and ``no_correct`` marks
    a zero one.  With a leading 0, ``correct_cum[end] - correct_cum[first]``
    counts the correct ones among the sorted responses ``first:end``.
    """
    table = np.empty((5, *kept.shape))
    size_distortion, error, alpha_used, precision, recall = table
    # Rows are written in place, so few temporaries live at once: each
    # is divided everywhere, then takes its default where the divide
    # is not defined.
    correct_kept = correct_cum[end]
    correct_kept -= correct_cum[first]
    np.greater(kept, correct_kept, out=error)  # an incorrect response is kept
    np.take(sorted_scores, last, out=alpha_used)
    alpha_used[empty] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, alpha_used, out=size_distortion)
        np.divide(correct_kept, kept, out=precision)
        np.divide(correct_kept, total, out=recall)
    size_distortion[error == 0] = 0.0
    precision[empty] = 1.0
    recall[..., no_correct] = 1.0  # no_correct is per prompt, the last axis
    return table


def _split_report(
    scores_of: dict[str, np.ndarray],
    correct: np.ndarray,
    counts: np.ndarray,
    strategy_grids: Sequence[StrategyGrid],
    n_cal: int,
) -> EvaluationReport:
    """One split's report: each kind's scores, by name, swept over every grid.

    Writes the means in ``EvaluationReport``'s block layout, kinds
    outermost, one block per grid, and the mean worst case of each kind.
    """
    grids = tuple(strategy_grids)
    points = sum(len(grid.parameters) for grid in grids)
    means = np.empty((len(scores_of) * points, len(_MEAN_FIELDS)))
    outs = (means[i * points : (i + 1) * points] for i in range(len(scores_of)))
    worst = _sweep_kinds(zip(scores_of.values(), outs), correct, counts, _grid_plans(counts, grids))
    means.flags.writeable = False
    rows = tuple(WorstCaseRow(name, w, w, w, 1) for name, w in zip(scores_of, worst))
    return EvaluationReport(tuple(scores_of), grids, means, rows, counts.size, n_cal, 1)


def _sweep_kinds(
    kinds: Iterable[tuple[np.ndarray, np.ndarray]],
    correct: np.ndarray,
    counts: np.ndarray,
    plans: Sequence[_GridPlan],
) -> list[float]:
    """``sweep`` of several kinds' scores of the same responses, over ``_grid_plans(counts, ...)``.

    Each kind is ``(scores, out)``: ``out`` takes the plans' (points, 5)
    means in turn.  Returns each kind's mean over prompts of
    ``worst_cases``.  What does not depend on the scores (the rows of
    each set size, each response's prompt, the correct totals and the
    alpha-max columns') is worked out once for all the kinds.
    """
    n = counts.size
    starts = np.cumsum(counts) - counts
    size_rows = _size_rows(counts)
    # each response's prompt, which only alpha-max's walk reads
    owner = np.repeat(np.arange(n), counts) if any(plan.walk is not None for plan in plans) else None
    correct_total = np.add.reduceat(correct, starts, dtype=np.int64)
    no_correct = correct_total == 0
    # each alpha-max column's prompt total, and where it is 0
    column_totals = [
        (total, total == 0)
        for total in (np.repeat(correct_total, plan.widths) for plan in plans if plan.walk is not None)
    ]
    per_block = max(1, _BLOCK_CELLS // n)
    gathered = [0, 2, 3, 4]  # every metric but the error, which alpha-max counts

    def means_of(block: np.ndarray) -> np.ndarray:
        # per row of a (fields, rows, prompts) block, the bits of np.mean
        # over the prompts: see sweep's docstring
        return (block.sum(axis=2) / n).T

    worst = []
    for scores, out in kinds:
        smallest = smallest_incorrect(scores, correct, counts)
        worst.append(float(np.mean(worst_cases(smallest))))
        order = _sort_within_prompts(scores, size_rows)
        sorted_scores = scores[order]
        correct_cum = np.concatenate(([0], np.cumsum(correct[order])))
        del order
        done = 0
        totals = iter(column_totals)
        for plan in plans:
            points = len(plan.grid.parameters)
            means = out[done : done + points]
            done += points
            if plan.walk is not None:
                geometry = (plan.first, plan.end, plan.last, plan.kept, plan.empty)
                table = _metrics(sorted_scores, correct_cum, *geometry, *next(totals))[gathered]
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
                # rows with one bincount; one search bounds every block's keys.
                keys = np.sort(row_of[steps] * n + owner)
                del steps
                edges = np.append(np.arange(0, n_rows, per_block), n_rows)
                bounds = np.searchsorted(keys, edges * n).tolist()
                edges = edges.tolist()
                cols = plan.base
                for b, e, lo, hi in zip(edges, edges[1:], bounds, bounds[1:]):
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
                    end = starts + kept
                    table = _metrics(
                        sorted_scores, correct_cum, starts, end, end - 1, kept, kept == 0,
                        correct_total, no_correct,
                    )
                    rows[b : b + per_block] = means_of(table)
                means[:] = np.repeat(rows, plan.runs, axis=0)
    return worst


def sweep(
    scores: np.ndarray,
    correct: np.ndarray,
    counts: np.ndarray,
    strategy_grids: Sequence[StrategyGrid],
) -> Iterator[tuple[StrategyGrid, str, tuple[float, ...]]]:
    """Filter every prompt at every grid point; yield the means over prompts.

    Takes the flat layout of ``worst_cases``.  Yields ``(grid, label,
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
    pairs = [(grid, label) for grid in strategy_grids for label in grid.parameters]
    means = np.empty((len(pairs), len(_MEAN_FIELDS)))
    _sweep_kinds([(scores, means)], correct, counts, _grid_plans(counts, strategy_grids))
    for (grid, label), row in zip(pairs, means.tolist()):
        yield grid, label, tuple(row)


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

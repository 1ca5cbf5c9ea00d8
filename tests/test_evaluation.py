"""Instance accounting, repeated splits, the array engine, and equivalence checks."""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from escores import (
    IDENTITY_POLICY,
    ConfigurationError,
    EstimateSource,
    EvaluationReport,
    FTransform,
    InvalidInputError,
    InvalidSplitError,
    PermutationMode,
    PermutationPolicy,
    PreparedDataset,
    PromptInstance,
    ReportRow,
    ScoreKind,
    ALL_SCORE_KINDS,
    SplitAssignment,
    SplitPlan,
    Strategy,
    StrategyGrid,
    SyntheticConfig,
    aggregate_conditionals,
    aggregate_splits,
    build_calibration_summary,
    build_permutation_set,
    calibration_f_star,
    evaluate_dataset,
    evaluate_split,
    generate_dataset,
    label_response_set,
    plan_splits,
    run_equivalence_trials,
    score_response_set,
    threshold_equivalence_check,
    transform_estimate,
    uniform_block,
    WorstCaseRow,
)

import oracles
import escores.sweep as grid_sweep
from escores import evaluation
from escores.evaluation import score_prompts
from escores.sweep import smallest_incorrect, sweep, worst_cases
from escores.core import as_exact
from escores.io import _columns_of
from escores.sweep import parse_grid
from helpers import (
    POLICIES,
    alpha_max_instance,
    grid_points,
    instance_of,
    make_generated,
    make_instance,
    oracle_fstars,
    oracle_prompt,
    oracle_scores,
    prompt_records,
    split_records,
    worst_case,
)


# ---------------------------------------------------------------------------
# per-instance accounting
# ---------------------------------------------------------------------------


def test_worst_cases_examples() -> None:
    # oracle: incorrect scores {4.95, 6.01, 6.28} -> 1/4.95
    _, _, worst, _, _ = oracles.instance(
        [0, 0, 0], [4.95, 6.01, 6.28], [], Fraction(1)
    )
    assert worst == Fraction(1) / Fraction(4.95)

    # three prompts in the flat layout: the example above, no incorrect
    # response (nothing to distort), an incorrect response with score 0
    smallest = smallest_incorrect(
        np.asarray([4.95, 6.01, 6.28, 0.1, 0.2, 0.0]),
        np.asarray([0, 0, 0, 1, 1, 0], dtype=bool),
        np.asarray([3, 2, 1]),
    )
    assert smallest.tolist() == [4.95, math.inf, 0.0]
    got = worst_cases(smallest)
    assert got[0] == pytest.approx(1 / 4.95, rel=1e-12)
    assert got[1] == 0.0
    assert got[2] == math.inf


def test_sweep_worked_example() -> None:
    # two correct responses included at tolerance 0.01, one excluded correct
    labels = [1, 1, 0, 1]
    scores = [0.005, 0.01, 4.0, 2.0]
    expected = oracles.instance(labels, scores, [0, 1], Fraction(1, 100))
    assert expected[0] == 0
    assert expected[1] == 0
    assert expected[3] == Fraction(1)
    assert expected[4] == Fraction(2, 3)

    size_distortion, error, alpha_used, precision, recall = alpha_max_instance(labels, scores, 0.01)
    assert error == 0
    assert size_distortion == 0.0
    assert alpha_used == 0.01
    assert worst_case(labels, scores) == pytest.approx(0.25, rel=1e-12)
    assert precision == 1.0
    assert recall == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_sweep_error_case() -> None:
    # oracle: an included incorrect response at tolerance 1/2 costs 2
    expected = oracles.instance([1, 0], [0.1, 0.5], [0, 1], Fraction(1, 2))
    assert expected[0] == 1 and expected[1] == 2

    size_distortion, error, _, precision, recall = alpha_max_instance([1, 0], [0.1, 0.5], 0.5)
    assert error == 1
    assert size_distortion == pytest.approx(2.0)
    assert precision == 0.5
    assert recall == 1.0


def test_strategy_grid_warns_once_for_all_its_parameters_above_one() -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        StrategyGrid.of(Strategy.ALPHA_MAX, ("0.5", "1.5", "1", "2", "3/2"))
    assert [str(w.message) for w in caught] == [
        "3 strategy parameter(s) exceed 1 (first 1.5); rank-based scores never do, "
        "so they would retain everything"
    ]


def test_grid_warning_names_the_callers_own_line() -> None:
    """However the grid is built, the "exceed 1" warning points at the line that built it."""
    builders = (
        lambda: parse_grid("0:2:1", Strategy.ALPHA_MAX),
        lambda: StrategyGrid.of(Strategy.ALPHA_MAX, ("0.5", "2")),
        lambda: StrategyGrid(Strategy.ALPHA_MAX, ("2",), (2,), 1),
    )
    for build in builders:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build()
        assert [(w.filename, w.lineno) for w in caught] == [
            (__file__, build.__code__.co_firstlineno)
        ], [str(w.message) for w in caught]


def test_sweep_edge_conventions() -> None:
    size_distortion, error, _, precision, recall = alpha_max_instance([0, 0], [3.0, 4.0], 0.5)
    assert error == 0
    assert precision == 1.0  # empty selection
    assert recall == 1.0  # nothing correct to recall
    assert size_distortion == 0.0
    with pytest.warns(UserWarning, match="exceed 1"):
        size_distortion, error, _, _, _ = alpha_max_instance([0, 0], [3.0, 4.0], 3)
    assert error == 1
    assert size_distortion == pytest.approx(1 / 3.0)
    # an error at tolerance 0 is infinitely distorted
    size_distortion, error, alpha_used, _, _ = alpha_max_instance([0], [0.0], 0)
    assert (error, alpha_used, size_distortion) == (1, 0.0, math.inf)


# Scores with ties, 0 and +inf; thirds make sums that round, so a change
# of summation order shows in the last bit.
SWEEP_SCORES = (0.0, 0.1, 1 / 3, 0.5, 2 / 3, 1.0, 1.5, math.inf)


# A prompt is up to 5 runs of one score, each of up to 8 responses whose
# correctness is the run's bit mask: up to 40 responses, more than the
# fraction grid has values, and tie groups as long as a prompt.
SWEEP_RUNS = st.tuples(st.sampled_from(SWEEP_SCORES), st.integers(1, 8), st.integers(0, 255))


def responses_of_runs(runs) -> list[tuple[float, bool]]:
    return [(score, bool(mask >> i & 1)) for score, n, mask in runs for i in range(n)]


@settings(max_examples=20, deadline=None)
@given(
    prompts=st.lists(
        st.lists(SWEEP_RUNS, min_size=1, max_size=5).map(responses_of_runs),
        min_size=48,
        max_size=80,
    ),
    alphas=st.lists(st.sampled_from((0.0, 0.1, 0.3, 0.5, 1.0)), min_size=1, max_size=6),
    above_one=st.sampled_from((1.5, 2.0, 1e300)),
    fractions=st.lists(st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.7, 1.0)), min_size=1, max_size=6),
    data=st.data(),
)
def test_sweep_means_equal_np_mean_of_one_prompt_sweeps(
    prompts, alphas, above_one, fractions, data
) -> None:
    """Each row of a many-prompt sweep is np.mean over prompts of one-prompt sweeps, bit for bit."""
    # unsorted grids that repeat a value; alpha-max also passes every finite score
    alphas = data.draw(st.permutations(alphas + alphas[:1] + [above_one]))
    fractions = data.draw(st.permutations(fractions + fractions[:1]))
    with pytest.warns(UserWarning, match="exceed 1"):
        alpha_grid = StrategyGrid.of(Strategy.ALPHA_MAX, alphas)
    grids = (alpha_grid, StrategyGrid.of(Strategy.FRACTION, fractions))

    flat = [entry for prompt in prompts for entry in prompt]
    scores = np.asarray([s for s, _ in flat])
    correct = np.asarray([c for _, c in flat])
    counts = np.asarray([len(prompt) for prompt in prompts])
    rows = list(sweep(scores, correct, counts, grids))

    per_prompt = [
        [means for _, _, means in sweep(scores[a:b], correct[a:b], np.asarray([b - a]), grids)]
        for a, b in zip(np.cumsum(counts) - counts, np.cumsum(counts))
    ]
    assert [(g, p) for g, p, _ in rows] == [(g, p) for g in grids for p in g.parameters]
    labels = [[int(c) for _, c in prompt] for prompt in prompts]
    by_score = [[s for s, _ in prompt] for prompt in prompts]
    exact = {grid: _oracle_rows(labels, by_score, grid) for grid in grids}
    for j, (grid, label, means) in enumerate(rows):
        expected = tuple(float(np.mean([one[j][m] for one in per_prompt])) for m in range(5))
        assert means == expected
        want = exact[grid][label]
        assert all(oracles.matches(g, w) for g, w in zip(means, want)), (label, means, want)


# Heavy ties, both zeros and +inf; set sizes of prefix sets and of
# all-permutation sets (325 responses at five steps), mixed in one input.
ORDER_SCORES = (0.0, -0.0, 0.25, 1 / 3, 0.5, 1.0, math.inf)
ORDER_SIZES = st.one_of(st.sampled_from((1, 2, 3, 4, 5, 15, 64, 325)), st.integers(1, 325))


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(ORDER_SIZES, min_size=1, max_size=24), data=st.data())
def test_within_prompt_order_is_lexsort(counts, data) -> None:
    counts = np.asarray(counts)
    scores = data.draw(
        hnp.arrays(
            np.float64,
            int(counts.sum()),
            elements=st.sampled_from(ORDER_SCORES),
            fill=st.sampled_from(ORDER_SCORES),
        )
    )
    owner = np.repeat(np.arange(counts.size), counts)
    got = grid_sweep._sort_within_prompts(scores, grid_sweep._size_rows(counts))
    assert np.array_equal(got, np.lexsort((scores, owner)))


def _sweep_case(seed: int, n_prompts: int, max_size: int):
    """Seeded prompts of 1..max_size responses over ``SWEEP_SCORES``, some of them correct."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, max_size + 1, n_prompts)
    scores = np.asarray(SWEEP_SCORES)[rng.integers(0, len(SWEEP_SCORES), counts.sum())]
    return scores, rng.random(counts.sum()) < 0.6, counts


def test_sweep_across_gather_blocks_equals_np_mean_and_the_oracles() -> None:
    """Sweeps over 200 prompts in several gather blocks, pairwise sums past 128.

    101-point grids over sets of up to 6 responses, the alpha-max one
    unsorted so its walk order crosses blocks too; and a 1,001-point
    fraction grid over sets of up to 64, whose distinct rows of keep
    counts fill several blocks before they are repeated.  The oracles,
    slow on sets of 64, check every 25th point of the fine grid.
    """
    points = parse_grid("0:1:0.01", Strategy.FRACTION)
    order = np.random.default_rng(3).permutation(len(points.parameters))
    shuffled = [points.parameters[i] for i in order]
    fine = parse_grid("0:1:0.001", Strategy.FRACTION)
    large_sets = _sweep_case(19, 200, 64)
    assert 200 * len(order) >= 2 * grid_sweep._BLOCK_CELLS
    (plan,) = grid_sweep._grid_plans(large_sets[2], (fine,))
    assert 200 * len(plan.rows) >= 2 * grid_sweep._BLOCK_CELLS
    assert len(plan.rows) < len(fine.parameters) and max(plan.runs) > 1
    cases = (
        (
            _sweep_case(17, 200, 6),
            (StrategyGrid.of(Strategy.ALPHA_MAX, shuffled), points),
            1,
        ),
        (large_sets, (fine,), 25),
    )

    for (scores, correct, counts), grids, stride in cases:
        rows = list(sweep(scores, correct, counts, grids))
        bounds = list(zip(np.cumsum(counts) - counts, np.cumsum(counts)))
        per_prompt = [
            [means for _, _, means in sweep(scores[a:b], correct[a:b], np.asarray([b - a]), grids)]
            for a, b in bounds
        ]
        assert [(g, p) for g, p, _ in rows] == [(g, p) for g in grids for p in g.parameters]
        labels = [[int(c) for c in correct[a:b]] for a, b in bounds]
        by_score = [scores[a:b].tolist() for a, b in bounds]
        exact = {
            grid: _oracle_rows(labels, by_score, StrategyGrid.of(grid.strategy, grid.parameters[::stride]))
            for grid in grids
        }
        for j, (grid, label, means) in enumerate(rows):
            expected = tuple(float(np.mean([one[j][m] for one in per_prompt])) for m in range(5))
            assert means == expected, (grid.strategy, label)
            if label in exact[grid]:
                want = exact[grid][label]
                assert all(oracles.matches(g, w) for g, w in zip(means, want)), (label, means, want)


def test_fraction_sweep_evaluates_only_its_distinct_rows() -> None:
    """ceil(v * k) changes only at multiples of 1/k: 10,001 points over sizes 1-5 are 11 rows.

    One row for v = 0, and one for each of the ten intervals that
    0 < 1/5 < 1/4 < 1/3 < 2/5 < 1/2 < 3/5 < 2/3 < 3/4 < 4/5 < 1 bound.
    """
    counts = np.asarray([1, 2, 3, 4, 5, 3, 1])
    grid = parse_grid("0:1:0.0001", Strategy.FRACTION)
    (plan,) = grid_sweep._grid_plans(counts, (grid,))
    assert len(plan.rows) == 11 and plan.runs.sum() == len(grid.parameters) == 10_001
    assert plan.rows.tolist()[:3] == [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 2]]
    assert plan.rows.tolist()[-1] == [1, 2, 3, 4, 5]
    # the sweep's means repeat each distinct row over its run of points
    scores = np.arange(counts.sum()) / 16
    correct = np.arange(counts.sum()) % 3 == 0
    means = np.empty((len(grid.parameters), 5))
    grid_sweep._sweep_kinds([(scores, means)], correct, counts, [plan])
    changes = 1 + np.flatnonzero((means[1:] != means[:-1]).any(axis=1))
    assert np.array_equal(changes, np.cumsum(plan.runs)[:-1])


def test_fraction_grid_computes_its_keep_counts_once_per_run(monkeypatch) -> None:
    """The splits of a run share each set size's ceil(v * k) over the grid.

    The grid keeps them for its splits, and stays equal, with an equal
    hash, to a grid of the same points that swept nothing.
    """
    sizes, original = [], grid_sweep.inclusion_target

    def counted(numerator, denominator, size):
        sizes.append(size)
        return original(numerator, denominator, size)

    monkeypatch.setattr(grid_sweep, "inclusion_target", counted)
    grid, fresh = (parse_grid("0:1:0.01", Strategy.FRACTION) for _ in range(2))
    prep = PreparedDataset(random_dataset(11, n_prompts=40))
    kinds = (ScoreKind.parse("e1"),)
    report = evaluate_dataset(prep, kinds, (grid,), SplitPlan(seed=0, n_splits=4))
    assert len(set(sizes)) > 1
    assert all(sizes.count(k) == len(grid.parameters) for k in set(sizes))
    assert grid == fresh and hash(grid) == hash(fresh)
    sizes.clear()
    assert report == evaluate_dataset(prep, kinds, (grid,), SplitPlan(seed=0, n_splits=4))
    assert sizes == []


def test_sweep_memory_does_not_grow_with_the_grid() -> None:
    """A 10,001-point grid over 400 prompts never holds a (points, prompts) array.

    What a sweep holds grows with the grid only by a few numbers per
    point; the (point, prompt) work goes through bounded gather blocks.
    """
    scores, correct, counts = _sweep_case(5, 400, 5)
    grids = tuple(parse_grid("0:1:0.0001", strategy) for strategy in Strategy)
    one_array = len(grids[0].parameters) * len(counts) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in sweep(scores, correct, counts, grids):
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < one_array / 4, (peak, one_array)


def _np_mean_alpha_max_rows(scores, correct, counts, values):
    """Per grid value, ``np.mean`` over prompts of each prompt's five alpha-max metrics.

    Each prompt's metrics come straight from ``scores <= v``, for about
    a million (grid value, response) cells at a time, with no sorting,
    walk or table.
    """
    starts = np.cumsum(counts) - counts
    total = np.add.reduceat(correct, starts, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    rows = []
    for chunk in np.array_split(values, -(-len(values) * scores.size // 10**6)):
        keep = scores <= chunk[:, None]
        kept = np.add.reduceat(keep, starts, axis=1, dtype=np.int64)
        correct_kept = np.add.reduceat(keep & correct, starts, axis=1, dtype=np.int64)
        alpha = np.maximum.reduceat(np.where(keep, scores, 0.0), starts, axis=1)
        error = (kept > correct_kept).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            metrics = (
                np.where(error > 0, 1.0 / alpha, 0.0),
                error,
                alpha,
                np.where(kept > 0, correct_kept / kept, 1.0),
                np.where(total > 0, correct_kept / total, 1.0),
            )
        rows.extend(zip(*([float(np.mean(row)) for row in m] for m in metrics)))
    return rows


def _assert_same_rows(got, want) -> None:
    """``got == want``, naming the first rows that differ rather than diffing 10,001 of them."""
    assert len(got) == len(want)
    differ = [(i, got[i], want[i]) for i in range(len(got)) if got[i] != want[i]]
    assert not differ, (len(differ), differ[:3])


def _special_alpha_grid(floor: Fraction) -> StrategyGrid:
    """Unsorted, with repeated points, points above 1 and points below ``floor``."""
    labels = ["0.5", "0", "1/3", "0.5", "2", "1.5", "0.25", "1", "0", "3/4", "1/3", "0.001"]
    labels += [str(floor / 2), str(floor / 3), str(floor), "1/7", "2"]
    return StrategyGrid.of(Strategy.ALPHA_MAX, labels)


def _scored_split(seed: int, n_prompts: int, kinds):
    """Real scores of a split's test half: p ties across prompts, p-randomized breaks them."""
    prep = PreparedDataset(random_dataset(seed, n_prompts=n_prompts))
    cal, test = np.arange(n_prompts // 2), np.arange(n_prompts // 2, n_prompts)
    scores_of = score_prompts(
        prep, test, kinds, {t: prep.fstar[t][cal] for t in FTransform}, master_seed=seed
    )
    counts = prep.counts[test]
    correct = prep.labels_flat[prep.gather(test)].astype(bool)
    return scores_of, correct, counts, len(cal)


def _tied_prompts(seed: int, n_prompts: int, floor: float):
    """Prompts of 1-4 responses over a small pool of scores, so ties fill prompts and cross them.

    The pool holds 0, multiples of ``floor``, values above 1 and +inf;
    every fifth prompt is all correct and every seventh all incorrect.
    """
    rng = np.random.default_rng(seed)
    pool = np.asarray([0.0, floor, 2 * floor, 0.25, 1 / 3, 0.5, 1.0, 1.5, math.inf])
    counts = rng.integers(1, 5, n_prompts)
    scores = pool[rng.integers(0, len(pool), counts.sum())]
    owner = np.repeat(np.arange(n_prompts), counts)
    correct = (rng.random(counts.sum()) < 0.5) | (owner % 5 == 0)
    correct &= owner % 7 != 0
    return scores, correct, counts


def test_alpha_max_sweep_equals_np_mean_at_every_grid_point() -> None:
    """Alpha-max means equal a direct per-grid-point ``np.mean``, bit for bit.

    On a 10,001-point grid and on an unsorted grid that repeats points
    and has points above 1 and below 1/(n+1); for p, p-randomized, e1
    and naive2 scores of a real split (e1 and naive2 on the second grid
    only, to save time) and for prompts with ties inside and across
    them, +inf scores, and prompts with no incorrect or no correct
    response.  Each sweep of the fine grid spans several gather blocks.
    """
    kinds = tuple(ScoreKind.parse(k) for k in ("p", "p-randomized", "e1", "naive2"))
    scores_of, correct, counts, n_cal = _scored_split(23, 600, kinds)
    floor = Fraction(1, n_cal + 1)
    tied = _tied_prompts(29, 1200, float(floor))
    assert np.isinf(tied[0]).any()
    assert len(set(scores_of["p"].tolist())) < scores_of["p"].size  # p ties
    for _, ok, c in ((None, correct, counts), tied):
        per_prompt = np.add.reduceat(ok, np.cumsum(c) - c, dtype=np.int64)
        assert (per_prompt == 0).any() and (per_prompt == c).any()
    with pytest.warns(UserWarning, match="exceed 1"):
        special = _special_alpha_grid(floor)
    fine = parse_grid("0:1:0.0001", Strategy.ALPHA_MAX)
    cases = [
        ((scores_of[kind.name], correct, counts), grids)
        for kind, grids in zip(kinds, ((fine, special), (fine, special), (special,), (special,)))
    ]
    cases.append((tied, (fine, special)))
    for (scores, ok, c), grids in cases:
        for grid in grids:
            (plan,) = grid_sweep._grid_plans(c, (grid,))
            rows = np.unique(np.searchsorted(plan.lookup, scores)).size  # live steps + 1, or more
            assert grid is special or rows > grid_sweep._BLOCK_CELLS // c.size, (rows, c.size)
            got = [means for _, _, means in sweep(scores, ok, c, (grid,))]
            values = [float(value) for _, value in grid_points(grid)]
            _assert_same_rows(got, _np_mean_alpha_max_rows(scores, ok, c, values))


def test_alpha_max_sweep_gathers_one_row_per_live_step() -> None:
    """A 10,001-point alpha-max grid over five distinct scores of at most 1 gathers 6 rows.

    One row per walk step that some response passes, and one for
    keeping nothing; the error is counted, not gathered, and each
    gathered row stands for the grid points up to the next live step.
    """
    counts = np.asarray([3, 1, 4, 2, 5, 3])
    pool = np.asarray([0.5, 1 / 3, 1.5, 0.0, 1.0, 0.25, 0.5, math.inf])
    scores = pool[np.arange(counts.sum()) % len(pool)]
    correct = np.arange(counts.sum()) % 3 == 0
    grid = parse_grid("0:1:0.0001", Strategy.ALPHA_MAX)
    (plan,) = grid_sweep._grid_plans(counts, (grid,))
    gathered = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def take(a, indices, axis=None, out=None):
            if axis == 1:
                gathered.append(np.shape(indices))
            return np.take(a, indices, axis=axis, out=out)

    means = np.empty((len(grid.parameters), 5))
    with mock.patch.object(grid_sweep, "np", CountingNumpy()):
        grid_sweep._sweep_kinds([(scores, means)], correct, counts, [plan])
    live_steps = 5  # 0, 0.25, 1/3, 0.5 and 1 fall on five grid points
    assert sum(shape[0] for shape in gathered) == live_steps + 1
    assert all(shape[1:] == (counts.size,) for shape in gathered)
    changes = 1 + np.flatnonzero((means[1:] != means[:-1]).any(axis=1))
    assert changes.tolist() == [2500, 3334, 5000, 10000]
    _assert_same_rows(
        list(map(tuple, means.tolist())),
        _np_mean_alpha_max_rows(scores, correct, counts, [float(v) for _, v in grid_points(grid)]),
    )


def test_strategy_grid_keeps_its_alpha_max_walk() -> None:
    """The walk order and its values are built once per grid, for all splits, and read-only."""
    with pytest.warns(UserWarning, match="exceed 1"):
        grid, fresh = (_special_alpha_grid(Fraction(1, 7)) for _ in range(2))
    counts = np.asarray([2, 3])
    first, second = (grid_sweep._grid_plans(counts, (grid,))[0] for _ in range(2))
    assert first.walk is second.walk and first.lookup is second.lookup
    assert not first.walk.flags.writeable and not first.lookup.flags.writeable
    values = [float(value) for _, value in grid_points(grid)]
    assert first.lookup.tolist() == sorted(values)
    assert [values[i] for i in first.walk] == sorted(values)
    assert grid == fresh and hash(grid) == hash(fresh)


# ---------------------------------------------------------------------------
# split planning
# ---------------------------------------------------------------------------


def test_split_plan_validation() -> None:
    with pytest.raises(InvalidInputError):
        SplitPlan(seed=-1)
    with pytest.raises(InvalidInputError):
        SplitPlan(n_splits=0)
    with pytest.raises(InvalidInputError):
        SplitPlan(test_fraction=0.0)
    with pytest.raises(InvalidInputError):
        SplitPlan(test_fraction=1.0)


def test_split_plan_reads_the_test_fraction_as_an_exact_decimal() -> None:
    # a decimal string is accepted, as plan_splits reads it
    (split,) = plan_splits(SplitPlan(n_splits=1, test_fraction="0.3"), 10)
    assert (len(split.test), len(split.calibration)) == (3, 7)
    (split,) = plan_splits(SplitPlan(n_splits=1, test_fraction="1/3"), 9)
    assert len(split.test) == 3
    for bad in ("0.3x", None, [0.5], True, float("nan")):
        with pytest.raises(InvalidInputError, match="test_fraction"):
            SplitPlan(test_fraction=bad)
    for outside in ("0", "1", "-0.5", 1):
        with pytest.raises(InvalidInputError, match="strictly between 0 and 1"):
            SplitPlan(test_fraction=outside)


def test_plan_splits_partitions_and_reproduces() -> None:
    plan = SplitPlan(seed=3, n_splits=4, test_fraction=0.5)
    splits = plan_splits(plan, 5)
    assert len(splits) == 4
    for split in splits:
        # odd prompt goes to the calibration half
        assert len(split.test) == 2
        assert len(split.calibration) == 3
        assert sorted(split.test + split.calibration) == [0, 1, 2, 3, 4]
    assert plan_splits(plan, 5) == splits
    assert plan_splits(SplitPlan(seed=4, n_splits=4), 5) != splits
    # splits within a plan differ from each other
    assert len({s.test for s in plan_splits(SplitPlan(seed=0, n_splits=20), 10)}) > 1


def test_plan_splits_refuses_degenerate_halves() -> None:
    with pytest.raises(InvalidSplitError):
        plan_splits(SplitPlan(), 1)
    with pytest.raises(InvalidSplitError):
        plan_splits(SplitPlan(test_fraction=0.1), 5)  # floor(0.5) = 0 test prompts


def test_plan_splits_size_the_test_half_by_the_exact_decimal() -> None:
    # in binary floating point, 0.29 * 100 is 28.999999999999996
    for split in plan_splits(SplitPlan(test_fraction=0.29), 100):
        assert (len(split.test), len(split.calibration)) == (29, 71)
    # products just below an integer (0.57, 0.58) and just above (0.07, 0.14)
    for fraction, n in [(0.57, 100), (0.58, 200), (0.07, 100), (0.14, 1500)]:
        (split,) = plan_splits(SplitPlan(n_splits=1, test_fraction=fraction), n)
        assert len(split.test) == Fraction(str(fraction)) * n


# ---------------------------------------------------------------------------
# grids and report plumbing
# ---------------------------------------------------------------------------


def test_strategy_grid_of_is_exact() -> None:
    grid = StrategyGrid.of(Strategy.FRACTION, [" 0.3 ", 0.3, 1, Fraction(2, 5), "1/3", "0.10"])
    assert grid.parameters == ("0.3", "0.3", "1", "2/5", "1/3", "0.10")  # as written, stripped
    # floats via repr, not binary float; over the lcm of the denominators
    values = [Fraction(3, 10), Fraction(3, 10), 1, Fraction(2, 5), Fraction(1, 3), Fraction(1, 10)]
    assert grid_points(grid) == list(zip(grid.parameters, values))
    assert grid.denominator == 30 and grid.numerators == (9, 9, 30, 12, 10, 3)
    for bad, message in (
        (math.inf, "grid value must be finite, got inf"),
        ("zero", "grid value must be a decimal string, got 'zero'"),
        (-0.5, "parameter must be >= 0, got -1/2"),
        # every form is held to float range, as a decimal string is
        (10**400, "grid value is too large for a float"),
        (Fraction(10**400, 3), "grid value is too large for a float"),
        (Fraction(1, 10**400), "grid value is too small for a float"),
        ("1/1" + "0" * 400, "grid value is too small for a float"),
        ("1" + "0" * 400 + "/3", "grid value is too large for a float"),
    ):
        with pytest.raises(InvalidInputError) as caught:
            StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5", bad])
        assert str(caught.value) == message


def test_strategy_grid_validation() -> None:
    grid = StrategyGrid.of(Strategy.FRACTION, ["0.5", 1])
    assert grid.parameters == ("0.5", "1")
    with pytest.raises(InvalidInputError, match="cannot exceed 1"):
        StrategyGrid.of(Strategy.FRACTION, ["1.5"])
    with pytest.raises(InvalidInputError, match="at least one parameter"):
        StrategyGrid.of(Strategy.ALPHA_MAX, ())
    # the fields themselves: one label and one int per point, a positive int
    # denominator, no negative point (named as an exact value), lowest terms
    for labels, numerators, denominator, message in (
        (("0.5",), (1, 2), 2, "a str label and an int numerator per point"),
        (("0.5",), (0.5,), 1, "a str label and an int numerator per point"),
        ((0.5,), (1,), 2, "a str label and an int numerator per point"),
        (("0.5",), (1,), 2.0, "a str label and an int numerator per point"),
        (("0.5",), (True,), 2, "a str label and an int numerator per point"),
        (("0.5",), (1,), 0, "denominator must be >= 1, got 0"),
        (("0", "-1/2", "-1"), (0, -2, -4), 4, "parameter must be >= 0, got -1/2"),
    ):
        with pytest.raises(InvalidInputError) as caught:
            StrategyGrid(Strategy.ALPHA_MAX, labels, numerators, denominator)
        assert message in str(caught.value)
    reduced = StrategyGrid(Strategy.ALPHA_MAX, ["0", "0.5", "1"], [0, 50, 100], 100)
    assert (reduced.numerators, reduced.denominator) == ((0, 1, 2), 2)
    listed, ranged = (parse_grid(text, Strategy.ALPHA_MAX) for text in ("0,0.5,1", "0:1:0.5"))
    assert reduced == listed == ranged and hash(reduced) == hash(listed) == hash(ranged)


def _decimal_grid(text: str) -> list[tuple[str, Fraction]]:
    """(label, exact value) per point, as grids were built before they held integers.

    The reference for ``parse_grid``: a range sums ``Decimal``s with every
    digit kept and labels each ``format(p.normalize(), "f")``; a comma
    list reads each value with ``as_exact`` and keeps it as written.
    """
    from decimal import MAX_PREC, Decimal, Inexact, localcontext

    if ":" not in text:
        return [(piece.strip(), as_exact(piece.strip())) for piece in text.split(",")]
    start, stop, step = (Decimal(piece) for piece in text.split(":"))
    with localcontext() as exact:
        exact.prec, exact.traps[Inexact] = MAX_PREC, True
        count = int((stop - start) // step) + 1
        points = [start + index * step for index in range(count)]
        return [(format(p.normalize(), "f"), Fraction(p)) for p in points]


def _assert_grid_is_the_decimal_grid(text: str) -> None:
    """Labels, exact values, float bits, floor counts and keep counts all agree."""
    want = _decimal_grid(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # points above 1
        grid = parse_grid(text, Strategy.ALPHA_MAX)
    assert grid_points(grid) == want, text
    exact = [value for _, value in want]
    floats = np.asarray([float(value) for value in exact])
    assert np.array_equal(grid._values.view(np.int64), floats.view(np.int64)), text
    for m in (1, 9, 10**6):
        # evaluate_dataset's floor expression, with m calibration prompts
        below = sum(n * (m + 1) < grid.denominator for n in grid.numerators)
        assert below == sum(value < Fraction(1, m + 1) for value in exact), (text, m)
    if max(exact) <= 1:  # a fraction grid too
        fraction = parse_grid(text, Strategy.FRACTION)
        for size in (1, 3, 64, 1000):
            targets = [math.ceil(value * size) for value in exact]
            assert fraction._inclusion_targets(size).tolist() == targets, (text, size)


@pytest.mark.parametrize(
    "text",
    [
        "0:1:0.00001",  # the cap
        "0.1:0.3:0.1",
        "0:1e-4:0.00005",
        "0:1:0.3",  # the stop is not on a step
        "0:1e3:1e2",  # a positive exponent, written out in full
        "1e-300:2e-300:1e-301",
        "0.12345678901234567890123456789:1:0.5",
        "1:1.00000000000000000000000000001:0.00000000000000000000000000001",
        "0.000:2.50:0.250",
        "0,1/3,0.5,0.9,1",
        "1/3, 1e-3 ,0.10",
        "0.10,1e-3,2/6,1E+0,0.5e1",
    ],
)
def test_parse_grid_equals_the_decimal_grid(text: str) -> None:
    _assert_grid_is_the_decimal_grid(text)


@settings(max_examples=60, deadline=None)
@given(
    start=st.builds("{}e{}".format, st.integers(0, 10**30), st.integers(-60, 5)),
    step=st.builds("{}e{}".format, st.integers(1, 10**6), st.integers(-60, 3)),
    count=st.integers(0, 40),
    eighths=st.integers(0, 7),
)
def test_parse_grid_range_equals_the_decimal_grid(start: str, step: str, count: int, eighths: int) -> None:
    """Random decimal ranges; the stop overshoots the last step by eighths of a step."""
    from decimal import MAX_PREC, Decimal, Inexact, localcontext

    with localcontext() as exact:
        exact.prec, exact.traps[Inexact] = MAX_PREC, True
        stop = Decimal(start) + Decimal(step) * (count + Decimal(eighths) / 8)
    _assert_grid_is_the_decimal_grid(f"{start}:{stop}:{step}")


def test_a_grid_at_the_cap_retains_under_160_bytes_a_point() -> None:
    """A label and an int per point, plus the float values and the walk: no object per point."""
    parse_grid("0:1:0.5", Strategy.ALPHA_MAX)._walk  # first calls import lazily
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid = parse_grid("0:1:0.00001", Strategy.ALPHA_MAX)
        grid._walk
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(grid.parameters) < 160, retained / len(grid.parameters)


def test_results_refuse_worst_cases_not_named_by_their_kinds() -> None:
    """A worst case per kind, in the kinds' order, or the result is refused."""
    empty = dict(grids=(), means=np.empty((0, 5)), n_test=1, n_cal=1)
    cases = ((("e1",), ("p",)), (("e1", "p"), ("e1",)), (("e1", "p"), ("p", "e1")), ((), ("p",)))
    for kinds, names in cases:
        rows = tuple(WorstCaseRow(name, 1.0, 1.0, 1.0, 1) for name in names)
        with pytest.raises(InvalidInputError, match="do not match the score kinds"):
            EvaluationReport(kinds=kinds, worst_case=rows, n_splits=1, **empty)
    rows = (WorstCaseRow("e1", 1.0, 1.0, 1.0, 1), WorstCaseRow("p", 2.0, 2.0, 2.0, 1))
    split = EvaluationReport(kinds=("e1", "p"), worst_case=rows, n_splits=1, **empty)
    assert [row.score_kind for row in aggregate_splits([split]).worst_case] == ["e1", "p"]


# ---------------------------------------------------------------------------
# the split engine, pinned on a two-prompt dataset
# ---------------------------------------------------------------------------


def two_prompt_dataset():
    errorful = make_instance("p-err", [0.6, 0.5], first_error_index=2)
    clean = make_instance("p-ok", [0.8, 0.25])
    return PreparedDataset([errorful, clean])


def test_evaluate_split_two_prompts_clean_test_half() -> None:
    dataset = two_prompt_dataset()
    split = SplitAssignment(calibration=(0,), test=(1,))
    grids = (
        StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5", 1]),
        StrategyGrid.of(Strategy.FRACTION, ["0.5"]),
    )
    kinds = (ScoreKind.parse("e1"), ScoreKind.parse("p"))
    result = evaluate_split(dataset, split, kinds, grids)
    assert result.n_test == 1 and result.n_cal == 1

    # oracle scores: calibration f* under identity is 0.3 (the incorrect prefix)
    assert oracles.e_score(Fraction("0.8"), [Fraction("0.3")]) == Fraction(11, 16)
    assert oracles.e_score(Fraction("0.2"), [Fraction("0.3")]) == Fraction(5, 4)
    assert oracles.p_score(Fraction("0.8"), [Fraction("0.3")]) == Fraction(1, 2)
    assert oracles.p_score(Fraction("0.2"), [Fraction("0.3")]) == Fraction(1)

    rows = {(r.score_kind, r.strategy, r.parameter): r for r in result.rows}
    tight = rows[("e1", "alpha-max", "0.5")]
    assert tight.mean_error == 0.0
    assert tight.mean_alpha == 0.0  # nothing scored within 0.5
    assert tight.mean_size_distortion == 0.0
    assert tight.mean_precision == 1.0
    assert tight.mean_recall == 0.0

    loose = rows[("e1", "alpha-max", "1")]
    assert loose.mean_alpha == pytest.approx(11 / 16, rel=1e-12)
    assert loose.mean_error == 0.0
    assert loose.mean_precision == 1.0
    assert loose.mean_recall == 0.5

    frac = rows[("e1", "fraction", "0.5")]
    assert frac.mean_alpha == pytest.approx(11 / 16, rel=1e-12)
    assert frac.mean_recall == 0.5

    # the test prompt has no incorrect responses, so nothing can distort
    assert result.find_worst_case("e1").mean == 0.0
    assert result.find_worst_case("p").mean == 0.0


def test_evaluate_split_two_prompts_errorful_test_half() -> None:
    dataset = two_prompt_dataset()
    split = SplitAssignment(calibration=(1,), test=(0,))
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5"]),)
    result = evaluate_split(dataset, split, (ScoreKind.parse("e1"),), grids)

    # calibration prompt is fully correct: f* = 0, so every positive f
    # hits the e-score floor 1/2
    assert oracles.e_score(0.6, [0.0]) == Fraction(1, 2)
    assert oracles.e_score(0.3, [0.0]) == Fraction(1, 2)

    row = result.rows[0]
    assert row.mean_error == 1.0  # the incorrect prefix was included
    assert row.mean_alpha == 0.5
    assert row.mean_size_distortion == pytest.approx(2.0)
    assert row.mean_precision == 0.5
    assert row.mean_recall == 1.0
    assert result.find_worst_case("e1").mean == pytest.approx(2.0)


def test_evaluate_split_validates_split_indices() -> None:
    dataset = two_prompt_dataset()
    kinds = (ScoreKind.parse("naive1"),)
    with pytest.raises(InvalidSplitError):
        evaluate_split(dataset, SplitAssignment((), (0, 1)), kinds)
    with pytest.raises(InvalidInputError):
        evaluate_split(dataset, SplitAssignment((0,), (2,)), kinds)
    with pytest.raises(InvalidInputError, match="out of range"):
        evaluate_split(dataset, SplitAssignment((-1,), (1,)), kinds)  # np.bincount would refuse it
    with pytest.raises(InvalidInputError, match="^split halves overlap or repeat indices$"):
        evaluate_split(dataset, SplitAssignment((0,), (0,)), kinds)
    with pytest.raises(InvalidInputError):
        evaluate_split(dataset, split=SplitAssignment((0,), (1,)), kinds=())


def test_evaluate_split_is_bitwise_deterministic() -> None:
    dataset = two_prompt_dataset()
    split = SplitAssignment(calibration=(0,), test=(1,))
    kinds = (ScoreKind.parse("p-randomized"), ScoreKind.parse("e-combined"))
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.9"]),)
    a = evaluate_split(dataset, split, kinds, grids, master_seed=7, split_index=3)
    b = evaluate_split(dataset, split, kinds, grids, master_seed=7, split_index=3)
    assert a == b
    moved = evaluate_split(dataset, split, kinds, grids, master_seed=8, split_index=3)
    assert a != moved


# ---------------------------------------------------------------------------
# the array engine agrees with scoring one prompt at a time
# ---------------------------------------------------------------------------


def random_dataset(seed: int, n_prompts: int = 8):
    rnd = random.Random(seed)
    instances = []
    for i in range(n_prompts):
        k = rnd.randint(1, 4)
        conds = [rnd.choice([0.0, rnd.random(), rnd.random(), 1.0]) for _ in range(k)]
        fei = rnd.choice([None, rnd.randint(1, k)])
        instances.append(make_instance(f"prompt-{seed}-{i}", conds, fei))
    return instances


def compose_split_by_hand(instances, split, kinds, grids, master_seed, split_index, policy=None):
    """The same evaluation one prompt at a time: the public scoring pieces,
    with the filtering rules and instance accounting of ``oracles``."""
    from escores import IDENTITY_POLICY, build_permutation_set

    policy = policy or IDENTITY_POLICY
    responses, labeled = [], []
    for inst in instances:
        rs = build_permutation_set(inst.generated, policy)
        responses.append(rs)
        labeled.append(label_response_set(inst.generated, rs))

    summaries = {}
    for t in FTransform:
        per_prompt = []
        for i in split.calibration:
            ests = [aggregate_conditionals(instances[i].estimates, r) for r in responses[i]]
            values = dict(zip(responses[i], (transform_estimate(o, t) for o in ests)))
            per_prompt.append(calibration_f_star(labeled[i], values))
        summaries[t] = build_calibration_summary(per_prompt, t)

    def cal_for(kind: ScoreKind):
        if kind.family.value == "naive":
            return None
        if kind.family.value == "e-combined":
            return summaries
        if kind.family.value == "e":
            return summaries[kind.transform]
        return summaries[FTransform.IDENTITY]

    rows = {}
    worst = {}
    for kind in kinds:
        scored_sets = [
            score_response_set(
                instances[i].generated.prompt,
                responses[i],
                instances[i].estimates,
                kind,
                cal_for(kind),
                master_seed=master_seed,
                split_index=split_index,
            )
            for i in split.test
        ]
        # labels and scores in scored order, for the oracle accounting
        prompts = []
        for i, scored in zip(split.test, scored_sets):
            label_of = dict(labeled[i].entries)
            prompts.append(([label_of[r] for r, _ in scored], [s for _, s in scored]))
        worst[kind.name] = sum(
            float(oracles.instance(lab, sc, [], 0)[2]) for lab, sc in prompts
        ) / len(prompts)
        for grid in grids:
            for label, value in grid_points(grid):
                metrics = []
                for lab, sc in prompts:
                    if grid.strategy is Strategy.ALPHA_MAX:
                        # the budget as the sweep reads it, a float
                        included, alpha_used = oracles.max_constrained(sc, float(value))
                    else:
                        included, alpha_used = oracles.fractional(sc, value)
                    error, sd, _, prec, rec = oracles.instance(lab, sc, included, alpha_used)
                    metrics.append((sd, error, alpha_used, prec, rec))
                means = [sum(float(v) for v in column) / len(metrics) for column in zip(*metrics)]
                rows[(kind.name, grid.strategy.value, label)] = dict(
                    zip(("sd", "err", "alpha", "prec", "rec"), means)
                )
    return rows, worst


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_engine_matches_per_prompt_composition(seed: int) -> None:
    instances = random_dataset(seed)
    split = SplitAssignment(calibration=(0, 2, 4, 6), test=(1, 3, 5, 7))
    grids = (
        StrategyGrid.of(Strategy.ALPHA_MAX, ("0.05", "0.5", "1")),
        StrategyGrid.of(Strategy.FRACTION, ("0", "0.3", "1")),
    )
    result = evaluate_split(
        PreparedDataset(instances), split, ALL_SCORE_KINDS, grids, master_seed=seed, split_index=2
    )
    rows, worst = compose_split_by_hand(
        instances, split, ALL_SCORE_KINDS, grids, master_seed=seed, split_index=2
    )
    assert {row.score_kind: row.mean for row in result.worst_case}.keys() == worst.keys()
    for row in result.worst_case:
        assert row.mean == pytest.approx(worst[row.score_kind], rel=1e-9, abs=1e-12), row.score_kind
    assert len(result.rows) == len(rows)
    for row in result.rows:
        expected = rows[(row.score_kind, row.strategy, row.parameter)]
        key = (row.score_kind, row.strategy, row.parameter)
        assert row.mean_size_distortion == pytest.approx(expected["sd"], rel=1e-9, abs=1e-12), key
        assert row.mean_error == pytest.approx(expected["err"], rel=1e-9, abs=1e-12), key
        assert row.mean_alpha == pytest.approx(expected["alpha"], rel=1e-9, abs=1e-12), key
        assert row.mean_precision == pytest.approx(expected["prec"], rel=1e-9, abs=1e-12), key
        assert row.mean_recall == pytest.approx(expected["rec"], rel=1e-9, abs=1e-12), key


def test_engine_matches_composition_under_permutation_policy() -> None:
    instances = random_dataset(11, n_prompts=6)
    policy = PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)
    split = SplitAssignment(calibration=(0, 1, 2), test=(3, 4, 5))
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5"]),)
    kinds = (ScoreKind.parse("e-combined"), ScoreKind.parse("p"))
    prep = PreparedDataset(instances, policy)
    result = evaluate_split(prep, split, kinds, grids, master_seed=0, split_index=0)
    rows, worst = compose_split_by_hand(
        instances, split, kinds, grids, master_seed=0, split_index=0, policy=policy
    )
    for row in result.worst_case:
        assert row.mean == pytest.approx(worst[row.score_kind], rel=1e-9, abs=1e-12)
    for row in result.rows:
        expected = rows[(row.score_kind, row.strategy, row.parameter)]
        assert row.mean_alpha == pytest.approx(expected["alpha"], rel=1e-9, abs=1e-12)
        assert row.mean_error == pytest.approx(expected["err"], rel=1e-9, abs=1e-12)


def test_fraction_targets_near_one_are_exact() -> None:
    # lambda * k overflows int64 for these numerators; ceil(lambda * k) = k regardless
    instances = [
        make_instance(f"p-{i}", [0.9, 0.5, 0.8, 0.25][: 3 + i % 2], first_error_index=i % 3 or None)
        for i in range(6)
    ]
    prep = PreparedDataset(instances, PermutationPolicy(PermutationMode.ALL_PERMUTATIONS))
    split = SplitAssignment(calibration=(0, 1, 2), test=(3, 4, 5))
    for near_one in ("0.999999999999999999", "0.9999999999999999999"):
        grid = StrategyGrid.of(Strategy.FRACTION, [near_one, 1])
        near, one = evaluate_split(prep, split, (ScoreKind.parse("e-combined"),), (grid,)).rows
        assert dataclasses.replace(near, parameter="1") == one


@pytest.mark.parametrize("policy", [None, PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)])
def test_prepared_dataset_builds_each_response_set_once_per_size(monkeypatch, policy) -> None:
    import escores.evaluation as evaluation

    calls = {"build": 0, "label": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        evaluation, "build_permutation_set", counted("build", evaluation.build_permutation_set)
    )
    monkeypatch.setattr(evaluation, "_label_table", counted("label", evaluation._label_table))
    shapes = [(1, None), (2, None), (2, 1), (3, 2), (3, 2), (1, None), (3, None), (2, 1), (1, 1)]
    instances = [
        make_instance(f"p-{i}", [0.9, 0.5, 0.8][:k], first_error_index=fei)
        for i, (k, fei) in enumerate(shapes)
    ]
    prep = PreparedDataset(instances, policy)
    assert calls == {"build": 3, "label": 3}  # one label table per size, every first error
    # prompts of one size share one response set; labels and estimates stay per prompt
    assert prep.responses[0] is prep.responses[5] and isinstance(prep.responses[0], tuple)
    for i, inst in enumerate(instances):
        lo, hi = prep.offsets[i], prep.offsets[i + 1]
        fresh = build_permutation_set(inst.generated, policy or IDENTITY_POLICY)
        assert list(prep.responses[i]) == fresh
        assert prep.labels_flat[lo:hi].tolist() == list(
            label_response_set(inst.generated, fresh).labels
        )
        assert prep.estimates_flat[lo:hi].tolist() == [
            aggregate_conditionals(inst.estimates, r) for r in fresh
        ]


def test_prepared_dataset_rejects_duplicates_and_empty() -> None:
    with pytest.raises(InvalidInputError):
        PreparedDataset([])
    inst = make_instance("dup", [0.5])
    with pytest.raises(InvalidInputError):
        PreparedDataset([inst, make_instance("dup", [0.7])])


def test_prepared_dataset_holds_nine_bytes_per_response() -> None:
    """A prepared response keeps its float64 estimate and int8 label, no transformed copy.

    On 1,000 prompts' permutation sets (85,986 responses) the dataset
    retains about 10.1 bytes per response, its per-prompt arrays and
    shared response sets included.  The bound, 12 bytes per response
    plus 128 per prompt, fails if a float64 copy of the responses'
    values under transform 2 or 3 is kept (18 bytes and more).
    """
    config = SyntheticConfig(n_prompts=1000, seed=3)
    columns = _columns_of(generate_dataset(config))
    policy = PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prep = PreparedDataset(columns, policy)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    responses = int(prep.offsets[-1])
    assert responses > 80 * prep.n_prompts
    assert retained <= 12 * responses + 128 * prep.n_prompts, (retained, responses)


# Exact 0 and 1, the smallest subnormal and a larger one, next to arbitrary values.
_CONDITIONAL = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.5e-310, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def _chained_datasets(draw) -> tuple:
    """Prompts of 1..6 steps and a policy that applies to every one of them.

    A prompt carries conditionals, a response estimate (singular: one
    step), or both.  An explicit list of orderings must be a bijection
    on each prompt's steps, so under it every prompt has the same k.
    """
    mode = draw(st.sampled_from(["identity", "all", "explicit"]))
    shared_k = draw(st.integers(1, 6)) if mode == "explicit" else None
    instances = []
    for i in range(draw(st.integers(1, 6))):
        k = shared_k or draw(st.integers(1, 6 if mode == "identity" else 5))
        shape = draw(st.sampled_from(["conditionals", "singular", "both"]))
        if shape == "singular" and k != 1:
            shape = "conditionals"
        conds = draw(st.lists(_CONDITIONAL, min_size=k, max_size=k))
        estimate = draw(_CONDITIONAL)
        source = EstimateSource(
            conditionals=None if shape == "singular" else dict(enumerate(conds, start=1)),
            response_estimate=None if shape == "conditionals" else estimate,
        )
        fei = draw(st.one_of(st.none(), st.integers(1, k)))
        instances.append(PromptInstance(make_generated(f"p-{i}", k, fei), source))
    if mode == "identity":
        policy = IDENTITY_POLICY
    elif mode == "all":
        policy = PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)
    else:
        orderings = st.permutations(list(range(1, shared_k + 1))).map(tuple)
        policy = PermutationPolicy(
            PermutationMode.EXPLICIT_LIST,
            explicit=tuple(draw(st.lists(orderings, min_size=1, max_size=4))),
        )
    return instances, policy


@settings(max_examples=200, deadline=None)
@given(_chained_datasets())
def test_prepared_estimates_are_the_left_to_right_product(dataset) -> None:
    """Every response's estimate is reduce(mul, its conditionals, 1.0), bit for bit.

    A response estimate, when the source has one, stands for every
    response of the prompt instead.
    """
    instances, policy = dataset
    prep = PreparedDataset(instances, policy)
    expected = []
    for inst in instances:
        source = inst.estimates
        for response in build_permutation_set(inst.generated, policy):
            if source.response_estimate is not None:
                expected.append(source.response_estimate)
            else:
                conds = [source.conditionals[i] for i in response.indices]
                expected.append(functools.reduce(operator.mul, conds, 1.0))
    assert [x.hex() for x in prep.estimates_flat.tolist()] == [x.hex() for x in expected]


# ---------------------------------------------------------------------------
# the split engine against a composition of the rational oracles alone
# ---------------------------------------------------------------------------


def _exact_mean(values) -> "Fraction | float":
    return oracles.x_div(oracles.x_sum(values), Fraction(len(values)))


def _oracle_rows(labels, scores, grid: StrategyGrid) -> dict[str, list]:
    """Exact means of (size distortion, error, alpha_used, precision, recall) per label.

    ``labels`` and ``scores`` hold one list per test prompt.  Filtering
    and instance metrics come from the oracles only; alpha-max filters at
    the float the engine compares against.
    """
    out = {}
    # many parameters keep the same responses, so cache by what is kept
    metrics: dict = {}
    means: dict = {}
    for label, value in grid_points(grid):
        keys = []
        for i, (lab, sc) in enumerate(zip(labels, scores)):
            if grid.strategy is Strategy.ALPHA_MAX:
                included, alpha_used = oracles.max_constrained(sc, float(value))
            else:
                included, alpha_used = oracles.fractional(sc, value)
            key = (i, tuple(included), alpha_used)
            if key not in metrics:
                error, sd, _, precision, recall = oracles.instance(lab, sc, included, alpha_used)
                metrics[key] = (sd, error, alpha_used, precision, recall)
            keys.append(key)
        keys = tuple(keys)
        if keys not in means:
            means[keys] = [_exact_mean(column) for column in zip(*(metrics[k] for k in keys))]
        out[label] = means[keys]
    return out


@settings(max_examples=25, deadline=None)
@given(
    split_records(),
    st.sets(st.fractions(min_value=0, max_value=1, max_denominator=12), max_size=4),
    st.integers(0, 3),
)
def test_evaluate_split_matches_oracle_composition(inputs, fractions, split_index) -> None:
    test_records, cal_records, seed = inputs
    instances = [instance_of(r) for r in test_records + cal_records]
    n_test = len(test_records)
    split = SplitAssignment(
        calibration=tuple(range(n_test, len(instances))), test=tuple(range(n_test))
    )
    lambdas = sorted({Fraction(0), Fraction(1), *fractions})
    fraction_grid = StrategyGrid.of(Strategy.FRACTION, lambdas)
    metrics = ("size_distortion", "error", "alpha", "precision", "recall")
    for mode, (policy, enumerate_set) in POLICIES.items():
        prep = PreparedDataset(instances, policy)
        fstars = oracle_fstars(cal_records, enumerate_set)
        cal_fstar = {t: prep.fstar[t][n_test:] for t in FTransform}
        scores = score_prompts(
            prep, np.arange(n_test), ALL_SCORE_KINDS, cal_fstar,
            master_seed=seed, split_index=split_index,
        )
        # test prompts come first, so their flat offsets are the dataset's
        labels, per_kind = [], {kind.name: [] for kind in ALL_SCORE_KINDS}
        for i, record in enumerate(test_records):
            _, lab, estimates = oracle_prompt(record, enumerate_set)
            labels.append(lab)
            lo, hi = int(prep.offsets[i]), int(prep.offsets[i + 1])
            u = uniform_block(seed, split_index, record["id"], len(estimates))
            for j, o in enumerate(estimates):
                for name, want in oracle_scores(o, fstars, float(u[j])).items():
                    assert oracles.matches(float(scores[name][lo + j]), want), (mode, name, j)
            for name, values in per_kind.items():
                values.append(scores[name][lo:hi].tolist())

        for kind in ALL_SCORE_KINDS:
            sc = per_kind[kind.name]
            finite = {s for prompt in sc for s in prompt if s != math.inf}
            alphas = {0.0, 1.0} | {
                float(a)
                for s in finite
                for a in (np.nextafter(s, -math.inf), s, np.nextafter(s, math.inf))
                if a >= 0
            }
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # alpha-max parameters above 1
                grids = (
                    StrategyGrid.of(Strategy.ALPHA_MAX, sorted(alphas)),
                    fraction_grid,
                )
                result = evaluate_split(
                    prep, split, (kind,), grids, master_seed=seed, split_index=split_index
                )
            rows = {(row.strategy, row.parameter): row for row in result.rows}
            assert len(rows) == sum(len(grid.parameters) for grid in grids)
            for grid in grids:
                for label, want in _oracle_rows(labels, sc, grid).items():
                    row = rows[(grid.strategy.value, label)]
                    got = (
                        row.mean_size_distortion, row.mean_error, row.mean_alpha,
                        row.mean_precision, row.mean_recall,
                    )
                    for g, w, what in zip(got, want, metrics):
                        assert oracles.matches(g, w), (mode, kind.name, label, what, g, w)
            worst = _exact_mean([oracles.instance(lab, s, [], 0)[2] for lab, s in zip(labels, sc)])
            assert oracles.matches(result.find_worst_case(kind.name).mean, worst), (mode, kind.name)


_LOO_KINDS = tuple(ScoreKind.parse(name) for name in ("e1", "e2", "e3", "e-combined", "p"))


def _leave_one_out(records: list[dict]) -> tuple[dict, dict]:
    """Each prompt's worst-case size distortion when held out against all the others.

    Per kind: the exact values from the oracles, and the shipped
    ``evaluate_split``'s over every leave-one-out ``SplitAssignment``.
    """
    exact: dict[str, list] = {kind.name: [] for kind in _LOO_KINDS}
    for j, record in enumerate(records):
        fstars = oracle_fstars(records[:j] + records[j + 1 :], oracles.prefix_set)
        _, labels, estimates = oracle_prompt(record, oracles.prefix_set)
        scored = [oracle_scores(o, fstars, 0) for o in estimates]
        for name, values in exact.items():
            values.append(oracles.instance(labels, [s[name] for s in scored], [], 0)[2])
    prep = PreparedDataset([instance_of(r) for r in records])
    everyone = range(len(records))
    splits = [SplitAssignment(tuple(i for i in everyone if i != j), (j,)) for j in everyone]
    results = [
        {row.score_kind: row.mean for row in evaluate_split(prep, split, _LOO_KINDS).worst_case}
        for split in splits
    ]
    return exact, {name: [result[name] for result in results] for name in exact}


_ULPS = 8 * sys.float_info.epsilon


@st.composite
def _pooled_records(draw) -> list[dict]:
    """Two to nine prefix records over dyadic conditionals and one free float."""
    free = draw(st.floats(min_value=0.01, max_value=0.99))
    groups = "abc"[: draw(st.integers(2, 3))]
    return [r for prefix in groups for r in draw(prompt_records(prefix, free))]


@settings(max_examples=80, deadline=None)
@given(_pooled_records())
def test_leave_one_out_worst_case_averages_exactly_one(records) -> None:
    """The guarantee's exact finite form, over every choice of one held-out prompt.

    Held out against the other n of n + 1 prompts, a prompt's worst-case
    size distortion under e_t is (n + 1) f*_t over the sum of all n + 1
    maxima, and (n + 1)/K for each of K infinite maxima, 0 beside them.
    So over the n + 1 choices it averages exactly 1, or 0 when every
    maximum is 0.  e-combined's is at most the mean of the three, so at
    most 1.  Exchangeability turns this average into the expectation the
    guarantee bounds (Vovk & Wang, Ann. Statist. 2021; leave-one-out as
    in Barber et al., "Predictive inference with the jackknife+", 2021).
    Dyadic conditionals give zero maxima, ties, and estimates of 1, whose
    maxima under transforms 2 and 3 are +inf.
    """
    exact, shipped = _leave_one_out(records)
    n1 = len(records)
    everyone = oracle_fstars(records, oracles.prefix_set)
    for t, name in ((1, "e1"), (2, "e2"), (3, "e3")):
        average = 1 if any(everyone[t]) else 0
        assert sum(exact[name]) == average * n1, name
        assert abs(math.fsum(shipped[name]) / n1 - average) <= _ULPS, (name, shipped[name])
    assert sum(exact["e-combined"]) <= n1
    assert math.fsum(shipped["e-combined"]) / n1 <= 1 + _ULPS, shipped["e-combined"]


def test_p_breaks_the_leave_one_out_identity() -> None:
    """Four prompts, each one erring step: held out, the k-th largest maximum
    has p worst case 4/k, so p averages (4 + 2 + 4/3 + 1)/4 = 25/12, while
    e1 and e2 (one maximum +inf) average 1."""
    records = [
        {"id": f"p{i}", "sub_responses": ["s"], "first_error_index": 1, "oracle_conditionals": [c]}
        for i, c in enumerate((0.25, 0.5, 0.75, 1.0))
    ]
    exact, shipped = _leave_one_out(records)
    assert sum(exact["p"]) / 4 == Fraction(25, 12)
    assert math.fsum(shipped["p"]) / 4 == pytest.approx(25 / 12, rel=1e-15)
    assert sum(exact["e1"]) / 4 == sum(exact["e2"]) / 4 == 1
    assert shipped["e2"] == [0.0, 0.0, 0.0, 4.0]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.text(min_size=1, max_size=8), st.integers(1, 4)), min_size=1, max_size=6,
             unique_by=lambda item: item[0]),
    st.integers(0, 2**130),
    st.integers(0, 2**70),
    st.data(),
)
def test_uniform_draws_match_oracle_and_ignore_order_and_subset(
    prompts, seed, split_index, data
) -> None:
    """Each draw is the oracle's exact value, and ``score_prompts`` draws
    each prompt's own ``uniform_block`` whichever prompts it scores, in
    whatever order."""
    prep = PreparedDataset([make_instance(pid, [0.5] * k) for pid, k in prompts])
    for pid, k in prompts:
        want = [oracles.uniform(seed, split_index, pid, j) for j in range(k)]
        assert uniform_block(seed, split_index, pid, k).tolist() == want
    chosen = data.draw(st.permutations(range(len(prompts))))
    chosen = np.asarray(chosen[: data.draw(st.integers(1, len(prompts)))])
    cal_fstar = {t: np.asarray([0.25, 0.75]) for t in FTransform}
    with mock.patch.object(evaluation, "kind_scores", wraps=evaluation.kind_scores) as spy:
        score_prompts(
            prep, chosen, [ScoreKind.parse("p-randomized")], cal_fstar,
            master_seed=seed, split_index=split_index,
        )
    u = spy.call_args.args[3]  # kind_scores(kind, values, summaries, u)
    own = [uniform_block(seed, split_index, *prompts[p]) for p in chosen]
    assert u.tolist() == np.concatenate(own).tolist()


# ---------------------------------------------------------------------------
# aggregation over splits
# ---------------------------------------------------------------------------


def test_aggregate_splits_averages_rows() -> None:
    dataset = two_prompt_dataset()
    kinds = (ScoreKind.parse("e1"),)
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5"]),)
    a = evaluate_split(dataset, SplitAssignment((0,), (1,)), kinds, grids)
    b = evaluate_split(dataset, SplitAssignment((1,), (0,)), kinds, grids)
    report = aggregate_splits([a, b])
    assert report.n_splits == 2
    row = report.rows[0]
    assert row.n_splits == 2
    assert row.mean_error == pytest.approx(
        (a.rows[0].mean_error + b.rows[0].mean_error) / 2
    )
    assert row.mean_alpha == pytest.approx(
        (a.rows[0].mean_alpha + b.rows[0].mean_alpha) / 2
    )
    wc = report.find_worst_case("e1")
    values = [a.find_worst_case("e1").mean, b.find_worst_case("e1").mean]
    assert wc.mean == pytest.approx(sum(values) / 2)
    assert min(values) <= wc.q25 <= wc.q75 <= max(values)
    with pytest.raises(InvalidInputError):
        report.find_worst_case("naive1")
    assert report.find_rows("e1", "alpha-max") == (row,)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_prompts=st.integers(2, 12),
    strategy=st.sampled_from(list(Strategy)),
    names=st.lists(st.sampled_from([kind.name for kind in ALL_SCORE_KINDS]), min_size=1, unique=True),
    grid=st.sampled_from(["0:1:0.05", "0,1/3,0.5,1", "0.25"]),
)
def test_a_split_is_a_one_split_report_that_aggregates_to_itself(
    seed, n_prompts, strategy, names, grid
) -> None:
    """``evaluate_split`` returns the report of one split, so aggregating it alone changes no bit."""
    prep = PreparedDataset(random_dataset(seed, n_prompts=n_prompts))
    kinds = tuple(ScoreKind.parse(name) for name in dict.fromkeys(["p-randomized", *names]))
    (split,) = plan_splits(SplitPlan(seed=seed, n_splits=1), n_prompts)
    result = evaluate_split(prep, split, kinds, (parse_grid(grid, strategy),), master_seed=seed)
    assert type(result) is EvaluationReport and result.n_splits == 1
    assert all(row.mean == row.q25 == row.q75 and row.n_splits == 1 for row in result.worst_case)
    assert aggregate_splits([result]) == result


def test_aggregate_splits_refuses_a_report_of_more_than_one_split() -> None:
    dataset = two_prompt_dataset()
    kinds = (ScoreKind.parse("e1"),)
    one = evaluate_split(dataset, SplitAssignment((0,), (1,)), kinds)
    two = aggregate_splits([one, evaluate_split(dataset, SplitAssignment((1,), (0,)), kinds)])
    for results in ([two], [one, two]):
        with pytest.raises(ConfigurationError, match="only one-split reports aggregate, got one of 2 splits"):
            aggregate_splits(results)


_MEAN_FIELDS = ("mean_size_distortion", "mean_error", "mean_alpha", "mean_precision", "mean_recall")


def _aggregate_rows_by_field(results):
    """Per row and field, ``np.mean`` over splits of ``getattr`` on each split's rows."""
    per_split = [res.rows for res in results]
    return tuple(
        dataclasses.replace(
            first,
            n_splits=len(results),
            **{f: float(np.mean([getattr(rows[j], f) for rows in per_split])) for f in _MEAN_FIELDS},
        )
        for j, first in enumerate(per_split[0])
    )


@pytest.mark.parametrize("seed", [100, 102, 105])
@pytest.mark.parametrize("n_splits", [1, 3, 7, 12])
def test_aggregate_splits_equals_field_by_field_np_mean(seed: int, n_splits: int) -> None:
    """Bit for bit, +inf included: 12 splits take np.mean's unrolled pairwise sum."""
    prep = PreparedDataset(random_dataset(seed, n_prompts=24))
    kinds = tuple(ScoreKind.parse(k) for k in ("e1", "e-combined", "p", "p-randomized", "naive2"))
    grids = tuple(parse_grid("0:1:0.05", strategy) for strategy in Strategy)
    results = [
        evaluate_split(prep, split, kinds, grids, master_seed=seed, split_index=i)
        for i, split in enumerate(plan_splits(SplitPlan(seed=seed, n_splits=n_splits), 24))
    ]
    report = aggregate_splits(results)
    assert report.n_splits == n_splits
    assert report.rows == _aggregate_rows_by_field(results)
    # conditionals of 1 score some incorrect responses 0, an error at alpha 0
    assert any(math.isinf(row.mean_size_distortion) for row in report.rows)


@pytest.mark.parametrize(
    "means, q25, q75",
    [
        # 3 splits: both quartiles fall between two means (weight 1/2)
        ((1.0, 2.0, math.inf), 1.5, math.inf),
        # 5 splits: both quartiles fall on a mean (weight 0)
        ((1.0, 2.0, 3.0, 4.0, math.inf), 2.0, 4.0),
        ((math.inf,) * 3, math.inf, math.inf),
    ],
)
def test_worst_case_quartiles_of_infinite_means(means, q25, q75) -> None:
    # an incorrect response scoring 0 makes a split's worst-case mean +inf
    results = [
        EvaluationReport(
            kinds=("naive2",), grids=(), means=np.empty((0, 5)),
            worst_case=(WorstCaseRow("naive2", m, m, m, 1),), n_test=1, n_cal=1, n_splits=1,
        )
        for m in means
    ]
    row = aggregate_splits(results).find_worst_case("naive2")
    assert (row.mean, row.q25, row.q75) == (math.inf, q25, q75)


def test_ext_percentile_matches_np_percentile() -> None:
    """Bit for bit ``np.percentile``'s linear value, with its inf rules, over ties, zeros and +inf."""
    rng = random.Random(22)
    for _ in range(1000):
        pool = [0.0, math.inf] + [rng.random() * 10.0 ** rng.randint(-3, 6) for _ in range(5)]
        values = np.asarray(
            [rng.choice(pool) if rng.random() < 0.5 else rng.random() * 7 for _ in range(rng.randint(1, 120))]
        )
        for q in (25, 75, 0, 10, 33.3, 50, 66.7, 90, 100):
            lower = np.percentile(values, q, method="lower")
            higher = np.percentile(values, q, method="higher")
            want = higher if lower == higher or math.isinf(higher) else np.percentile(values, q)
            got = grid_sweep._ext_percentile(values, q)
            assert type(got) is float and got == want, (values.tolist(), q)


def test_split_result_holds_a_read_only_copy_of_means_that_fit_its_keys() -> None:
    """A one-split report and a report of several splits keep their means as one read-only array."""
    kinds = ("e1",)
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5", "1"]),)
    for rest in (
        dict(worst_case=(WorstCaseRow("e1", 2.0, 2.0, 2.0, 1),), n_test=2, n_cal=3, n_splits=1),
        dict(worst_case=(WorstCaseRow("e1", 2.0, 1.0, 3.0, 4),), n_test=2, n_cal=3, n_splits=4),
    ):
        source = np.asarray([[math.inf, 1.0, 0.0, 1.0, 0.5], [0.5, 1.0, 1.0, 0.5, 1.0]])
        result = EvaluationReport(kinds=kinds, grids=grids, means=source, **rest)
        source[0, 0] = 0.0
        assert result.means[0, 0] == math.inf and not result.means.flags.writeable
        assert result.rows[0].mean_size_distortion == math.inf
        n_splits = rest["n_splits"]
        assert result.keys == (("e1", "alpha-max", "0.5"), ("e1", "alpha-max", "1"))
        assert result.rows[1] == ReportRow("e1", "alpha-max", "1", 0.5, 1.0, 1.0, 0.5, 1.0, 2, 3, n_splits)
        same = EvaluationReport(kinds=kinds, grids=grids, means=result.means, **rest)
        assert same.means is result.means  # read-only already: kept, not copied
        assert (same == result) is True and (same != result) is False
        other = EvaluationReport(kinds=kinds, grids=grids, means=source, **rest)
        assert (other == result) is False and (other != result) is True
        assert (result == result.keys) is False
        with pytest.raises(InvalidInputError, match="do not fit"):
            EvaluationReport(kinds=("e1", "p"), grids=grids, means=source, **rest)
    split = EvaluationReport(kinds, grids, result.means, (WorstCaseRow("e1", 2.0, 2.0, 2.0, 1),), 2, 3, 1)
    assert (split == result) is False and (split != result) is True  # one split's report is not four's


def test_aggregate_splits_rejects_mismatched_grids() -> None:
    dataset = two_prompt_dataset()
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5"]),)
    a = evaluate_split(dataset, SplitAssignment((0,), (1,)), (ScoreKind.parse("e1"),), grids)
    b = evaluate_split(dataset, SplitAssignment((0,), (1,)), (ScoreKind.parse("p"),), grids)
    with pytest.raises(ConfigurationError):
        aggregate_splits([a, b])
    # no grid: the keys agree, the score kinds do not
    a, b = (
        evaluate_split(dataset, SplitAssignment((0,), (1,)), (ScoreKind.parse(name),))
        for name in ("e1", "p")
    )
    with pytest.raises(ConfigurationError, match="different score kinds"):
        aggregate_splits([a, b])
    with pytest.raises(InvalidInputError):
        aggregate_splits([])


def test_evaluate_split_refuses_a_score_kind_listed_twice() -> None:
    """With the CLI's wording; a grid listed twice stays allowed, its rows repeated."""
    dataset = two_prompt_dataset()
    split = SplitAssignment((0,), (1,))
    e1, p = ScoreKind.parse("e1"), ScoreKind.parse("p")
    grid = StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5"])
    for kinds, name in (((e1, e1), "e1"), ((p, e1, ScoreKind.parse("p")), "p")):
        with pytest.raises(InvalidInputError, match=f"^score kind '{name}' listed twice$"):
            evaluate_split(dataset, split, kinds, (grid,))
    with pytest.raises(InvalidInputError, match="listed twice"):
        evaluate_dataset(dataset, (e1, e1), (grid,), SplitPlan(n_splits=1))
    result = evaluate_split(dataset, split, (e1,), (grid, grid))
    assert result.keys == (("e1", "alpha-max", "0.5"),) * 2
    assert np.array_equal(result.means[0], result.means[1])


def test_first_split_holds_no_per_row_keys() -> None:
    """A split retains its means and no object per row: under 1.2 times the
    means.  One cached (kind, strategy, label) tuple per row took about 72
    bytes against the row's 40 bytes of means."""
    prep = PreparedDataset(random_dataset(7, n_prompts=40))
    kinds = tuple(ScoreKind.parse(k) for k in ("e1", "p", "naive1"))
    (split,) = plan_splits(SplitPlan(seed=1, n_splits=1), prep.n_prompts)
    evaluate_split(prep, split, kinds, (parse_grid("0:1:0.5", Strategy.ALPHA_MAX),))
    grids = (parse_grid("0:1:0.0001", Strategy.ALPHA_MAX),)
    grids[0]._walk  # the grid's own cache, which every split of a run shares, is not the split's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = evaluate_split(prep, split, kinds, grids)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.means.shape == (3 * 10_001, 5)
    assert retained < 1.2 * result.means.nbytes, retained / result.means.nbytes


def test_aggregate_splits_rejects_mismatched_half_sizes() -> None:
    dataset = PreparedDataset(random_dataset(5, n_prompts=3))
    kinds = (ScoreKind.parse("naive1"),)
    a = evaluate_split(dataset, SplitAssignment((0, 1), (2,)), kinds)
    b = evaluate_split(dataset, SplitAssignment((0,), (1, 2)), kinds)
    with pytest.raises(ConfigurationError):
        aggregate_splits([a, b])


def test_evaluate_dataset_end_to_end_determinism() -> None:
    dataset = PreparedDataset(random_dataset(9, n_prompts=6))
    kinds = (ScoreKind.parse("e-combined"), ScoreKind.parse("p-randomized"))
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.3"]),)
    plan = SplitPlan(seed=2, n_splits=5)
    first = evaluate_dataset(dataset, kinds, grids, plan)
    second = evaluate_dataset(dataset, kinds, grids, plan)
    assert first == second
    assert first.n_splits == 5
    assert {row.score_kind for row in first.rows} == {"e-combined", "p-randomized"}
    assert all(row.n_test == 3 and row.n_cal == 3 for row in first.rows)
    shifted = evaluate_dataset(dataset, kinds, grids, SplitPlan(seed=3, n_splits=5))
    assert shifted != first


def test_split_and_report_fill_their_means_in_place() -> None:
    """``evaluate_split`` and ``aggregate_splits`` peak near the means they keep.

    Each fills one (rows, 5) array that the result keeps without a
    copy.  Per-grid blocks, their concatenation and a copy in the
    result, alive together, peaked at 3.1 times the kept means for a
    split here and 2.0 times for a report.
    """
    prep = PreparedDataset(random_dataset(7, n_prompts=40))
    kinds = tuple(ScoreKind.parse(k) for k in ("e1", "p", "naive1"))
    grids = (parse_grid("0:1:0.0001", Strategy.ALPHA_MAX),)
    (split,) = plan_splits(SplitPlan(seed=1, n_splits=1), prep.n_prompts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # grid points below 1/(n_cal + 1)
        evaluate_split(prep, split, kinds, grids)  # imports lazily

    def traced(run):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    result, peak = traced(lambda: evaluate_split(prep, split, kinds, grids))
    assert result.means.shape == (3 * 10_001, 5) and not result.means.flags.writeable
    assert peak < 2 * result.means.nbytes, peak / result.means.nbytes
    report, peak = traced(lambda: aggregate_splits([result, result]))
    assert np.array_equal(report.means, result.means)
    assert peak < 1.5 * report.means.nbytes, peak / report.means.nbytes


def test_evaluate_dataset_memory_per_split_is_its_means() -> None:
    """Each split holds about one (rows, 5) float64 array of means.

    So 30 more splits raise the traced peak by under twice 30 such
    arrays, a bound that would also allow one full stack of them.  A
    ``ReportRow`` per (row, split) takes several times that.
    """
    prep = PreparedDataset(random_dataset(7, n_prompts=40))
    kinds = tuple(ScoreKind.parse(k) for k in ("e1", "e-combined", "p"))
    grids = tuple(parse_grid("0:1:0.01", strategy) for strategy in Strategy)
    rows = len(kinds) * 2 * len(grids[0].parameters)

    def peak(n_splits: int) -> int:
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # grid points below 1/(n_cal + 1)
                evaluate_dataset(prep, kinds, grids, SplitPlan(seed=1, n_splits=n_splits))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first calls import lazily (numpy.random), which no split holds
    growth = peak(40) - peak(10)
    assert growth < 2 * 30 * rows * 5 * 8, (growth, rows)


def test_aggregate_splits_retains_its_means_per_report_row() -> None:
    """A report keeps the splits' shared kinds and grids and one (rows, 5)
    float64 array of means: 40 bytes per row, bounded here at 48.  One
    ``ReportRow`` per row, as reports were built before, retained about 296."""
    prep = PreparedDataset(random_dataset(7, n_prompts=40))
    kinds = (ScoreKind.parse("e1"), ScoreKind.parse("p"))
    grids = (parse_grid("0:1:0.0001", Strategy.ALPHA_MAX),)
    splits = plan_splits(SplitPlan(seed=1, n_splits=3), prep.n_prompts)
    results = [
        evaluate_split(prep, split, kinds, grids, master_seed=1, split_index=i)
        for i, split in enumerate(splits)
    ]
    aggregate_splits(results)  # the first call's lazy imports are not the report's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = aggregate_splits(results)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(report.means)
    assert rows == 2 * 10_001 and report.grids is results[0].grids
    assert retained <= 48 * rows, retained / rows


def _planned_then_aggregated(prep, kinds, grids, plan):
    """``evaluate_dataset`` through the public pieces: plan, evaluate each split, aggregate."""
    splits = plan_splits(plan, prep.n_prompts)
    return aggregate_splits(
        [
            evaluate_split(prep, split, kinds, grids, master_seed=plan.seed, split_index=i)
            for i, split in enumerate(splits)
        ]
    )


def _assert_reports_equal(got, want) -> None:
    assert got.n_splits == want.n_splits
    for rows, expected in ((got.rows, want.rows), (got.worst_case, want.worst_case)):
        assert len(rows) == len(expected)
        for row, other in zip(rows, expected):
            for field in dataclasses.fields(row):
                assert getattr(row, field.name) == getattr(other, field.name), (row, other)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("test_fraction", ["0.5", "0.29", "1/3"])
def test_evaluate_dataset_equals_planned_splits_evaluated_one_by_one(
    strategy, policy, test_fraction
) -> None:
    """``evaluate_dataset`` draws each split when it reaches it and fills the
    aggregate's arrays as it goes; every field of every row must equal the
    public path's, at an odd prompt count and with ties and infinite values."""
    prep = PreparedDataset(random_dataset(21, n_prompts=17), POLICIES[policy][0])
    grids = (parse_grid("0:1:0.05", strategy),)
    plan = SplitPlan(seed=4, n_splits=7, test_fraction=test_fraction)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # grid points below 1/(n_cal + 1)
        got = evaluate_dataset(prep, ALL_SCORE_KINDS, grids, plan)
        want = _planned_then_aggregated(prep, ALL_SCORE_KINDS, grids, plan)
    assert {row.n_test for row in got.rows} == {math.floor(Fraction(test_fraction) * 17)}
    _assert_reports_equal(got, want)


def test_evaluate_dataset_refuses_what_the_public_pieces_refuse() -> None:
    kinds = (ScoreKind.parse("p"),)
    plan = SplitPlan(n_splits=2, test_fraction="0.1")
    for n_prompts in (1, 5):  # too few to split; an empty test half
        small = PreparedDataset(random_dataset(3, n_prompts=n_prompts))
        with pytest.raises(InvalidSplitError) as planned:
            plan_splits(plan, small.n_prompts)
        with pytest.raises(InvalidSplitError) as evaluated:
            evaluate_dataset(small, kinds, (), plan)
        assert str(evaluated.value) == str(planned.value)
    prep = PreparedDataset(random_dataset(3, n_prompts=5))
    split = plan_splits(SplitPlan(n_splits=1), prep.n_prompts)[0]
    with pytest.raises(InvalidInputError) as one:
        evaluate_split(prep, split, ())
    with pytest.raises(InvalidInputError) as every:
        evaluate_dataset(prep, (), (), SplitPlan(n_splits=1))
    assert str(every.value) == str(one.value) == "need at least one score kind"


def test_evaluate_dataset_memory_does_not_grow_with_prompts_times_splits() -> None:
    """Splits are drawn one at a time, so 48 more splits of 2,001 prompts add
    only their one-split reports (about 700 bytes each with 2 kinds and one
    grid point), and the small tuples that the interpreter's free lists
    keep and tracemalloc still counts: 33-37 KB in all on CPython 3.11.
    The bound is 64 KB.  Planning every split up front held about 36
    bytes per prompt per split, 3.5 MB here.

    Every prompt has three steps, so each split's temporaries have one size
    and the peak differs only by what the splits leave behind.
    """
    rnd = random.Random(11)
    prep = PreparedDataset(
        [
            make_instance(f"p{i}", [rnd.random() for _ in range(3)], rnd.choice([None, 1, 2, 3]))
            for i in range(2001)
        ]
    )
    kinds = (ScoreKind.parse("e-combined"), ScoreKind.parse("p"))
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.5"]),)

    def peak(n_splits: int) -> int:
        tracemalloc.start()
        try:
            evaluate_dataset(prep, kinds, grids, SplitPlan(seed=1, n_splits=n_splits))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first calls import lazily (numpy.random), which no split holds
    growth = peak(50) - peak(2)
    assert growth < 64 * 1024, growth


def test_score_prompts_refuses_a_bad_maximum_with_the_summary_message() -> None:
    """The maxima are checked as arrays, with the per-value check's message
    for the first bad one, and a -0.0 is read as 0.0, as one by one."""
    prep = PreparedDataset(random_dataset(5, n_prompts=6))
    prompts = np.arange(prep.n_prompts)
    for bad in ([0.5, math.nan, -1.0], [0.5, -1.0, math.nan], [-0.25, 0.0], [math.nan]):
        with pytest.raises(InvalidInputError) as one_by_one:
            build_calibration_summary(bad, FTransform.IDENTITY)
        cal_fstar = {t: np.asarray(bad) for t in FTransform}
        with pytest.raises(InvalidInputError) as as_arrays:
            score_prompts(prep, prompts, ALL_SCORE_KINDS, cal_fstar)
        assert str(as_arrays.value) == str(one_by_one.value)
    values = np.asarray([-0.0, 0.0, 0.5, math.inf, 2.0])
    summary = evaluation.build_calibration_summary(values, FTransform.ODDS)
    assert summary == build_calibration_summary(values.tolist(), FTransform.ODDS)
    assert summary._n_infinite == 1
    assert [math.copysign(1.0, v) for v in summary.per_prompt_fstar] == [1.0] * 5


# ---------------------------------------------------------------------------
# p-score filtering vs. the order-statistic threshold
# ---------------------------------------------------------------------------


def test_threshold_equivalence_empty_calibration() -> None:
    cal = build_calibration_summary([])
    assert threshold_equivalence_check([0.5, 0.0, math.inf], cal, [1]) is True
    with pytest.raises(InvalidInputError):
        threshold_equivalence_check([0.5], cal, [Fraction(1, 2)])


def test_threshold_equivalence_small_example_with_ties() -> None:
    cal = build_calibration_summary([0.2, 0.5, 0.5, 0.9])
    f_tests = [0.0, 0.2, 0.5, 0.7, 0.9, 1.5, math.inf]
    grid = [Fraction(1, 5), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(1)]
    # cross-check one point by hand against the oracle's rule
    for f in f_tests:
        by_p = oracles.p_score(f, [0.2, 0.5, 0.5, 0.9]) <= Fraction(2, 5)
        assert by_p == oracles.threshold_includes(f, [0.2, 0.5, 0.5, 0.9], Fraction(2, 5))
    assert threshold_equivalence_check(f_tests, cal, grid) is True


def test_threshold_equivalence_random_instance() -> None:
    rnd = random.Random(13)
    values = [rnd.random() for _ in range(9)]
    cal = build_calibration_summary(values)
    f_tests = [rnd.random() for _ in range(6)] + [values[0], values[3]]
    grid = [Fraction(1, 10) + Fraction(9, 10) * Fraction(j, 9) for j in range(10)]
    assert threshold_equivalence_check(f_tests, cal, grid) is True


def test_threshold_equivalence_rejects_out_of_range_alpha() -> None:
    cal = build_calibration_summary([0.1, 0.2, 0.3])  # n = 3, floor 1/4
    with pytest.raises(InvalidInputError):
        threshold_equivalence_check([0.5], cal, [Fraction(1, 5)])
    with pytest.raises(InvalidInputError):
        threshold_equivalence_check([0.5], cal, [Fraction(5, 4)])
    with pytest.raises(InvalidInputError):
        threshold_equivalence_check([0.5], cal, [math.nan])
    with pytest.raises(InvalidInputError):  # core.as_exact refuses bools
        threshold_equivalence_check([0.5], cal, [True])


def test_equivalence_trials_catch_a_wrong_rank_count(monkeypatch) -> None:
    """The check reads the p kinds' own rank count, so a fault there shows.

    Counting #{v > f} where #{v >= f} is meant drops the ties from every
    p-score; the trials, which force ties, must then report failures.
    """
    import escores.equivalence
    import escores.scoring

    def above_only(ordered, f):
        n = ordered.size
        right = n - np.searchsorted(ordered, f, side="right")
        return right, right

    for module in (escores.scoring, escores.equivalence):
        monkeypatch.setattr(module, "_exceedances", above_only)
    assert run_equivalence_trials(300, seed=0).failures > 0


def test_equivalence_trials_catch_a_wrong_ceiling(monkeypatch) -> None:
    """The check takes its order-statistic index from the fraction strategy's ceiling.

    A floor where ceil((1 - alpha)(n + 1)) is meant moves the threshold
    down one calibration value whenever the product is not an integer;
    the trials must then report failures.
    """
    import escores.equivalence

    def floor_target(numerator, denominator, size):
        return numerator * size // denominator

    monkeypatch.setattr(escores.equivalence, "inclusion_target", floor_target)
    assert run_equivalence_trials(300, seed=0).failures > 0


def test_run_equivalence_trials_small_batch() -> None:
    trials = run_equivalence_trials(30, seed=0, n_max=12, grid_points=6)
    assert trials.n_instances == 30
    assert trials.failures == 0
    assert trials.all_equivalent
    with pytest.raises(InvalidInputError):
        run_equivalence_trials(0)
    with pytest.raises(InvalidInputError):
        run_equivalence_trials(5, grid_points=3)

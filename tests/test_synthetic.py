"""The synthetic generator and its soundness spot-check."""

from __future__ import annotations

import math
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import escores.scoring as scoring
import escores.synthetic as synthetic
from escores import (
    FTransform,
    InvalidInputError,
    PreparedDataset,
    ScoreKind,
    SplitAssignment,
    Strategy,
    StrategyGrid,
    SyntheticConfig,
    build_calibration_summary,
    e_score,
    evaluate_split,
    evariable_statistic,
    generate_dataset,
    mc_evariable_check,
    transform_estimate,
)
from escores.estimation import masked_f_star, transform_values

import oracles


def test_config_validation() -> None:
    with pytest.raises(InvalidInputError):
        SyntheticConfig(n_prompts=0)
    with pytest.raises(InvalidInputError):
        SyntheticConfig(max_steps=0)
    with pytest.raises(InvalidInputError):
        SyntheticConfig(seed=-1)
    with pytest.raises(InvalidInputError):
        SyntheticConfig(error_position_p=0.0)
    with pytest.raises(InvalidInputError):
        SyntheticConfig(error_position_p=1.5)
    with pytest.raises(InvalidInputError):
        SyntheticConfig(fully_correct_prob=-0.2)
    with pytest.raises(InvalidInputError):
        SyntheticConfig(beta_correct=(1.0, 0.0))


def test_generate_dataset_shapes_and_ids() -> None:
    cfg = SyntheticConfig(n_prompts=40, max_steps=4, seed=7)
    instances = generate_dataset(cfg)
    assert len(instances) == 40
    assert [inst.prompt_id for inst in instances] == [
        f"synthetic-{i:06d}" for i in range(40)
    ]
    for inst in instances:
        k = len(inst.generated)
        assert 1 <= k <= 4
        assert inst.estimates.conditionals is not None
        assert sorted(inst.estimates.conditionals) == list(range(1, k + 1))
        for value in inst.estimates.conditionals.values():
            assert 0.0 <= value <= 1.0
        fei = inst.generated.first_error_index
        assert fei is None or 1 <= fei <= k


def test_generate_dataset_is_deterministic() -> None:
    cfg = SyntheticConfig(n_prompts=25, seed=3)
    assert generate_dataset(cfg) == generate_dataset(cfg)
    assert generate_dataset(cfg) != generate_dataset(SyntheticConfig(n_prompts=25, seed=4))


def test_generate_dataset_respects_degenerate_knobs() -> None:
    all_wrong = generate_dataset(
        SyntheticConfig(n_prompts=30, fully_correct_prob=0.0, error_position_p=1.0, seed=1)
    )
    # error at step 1 in every prompt
    assert all(inst.generated.first_error_index == 1 for inst in all_wrong)
    all_right = generate_dataset(SyntheticConfig(n_prompts=30, fully_correct_prob=1.0, seed=1))
    assert all(inst.generated.first_error_index is None for inst in all_right)


def test_error_positions_spread_over_steps() -> None:
    cfg = SyntheticConfig(n_prompts=400, max_steps=5, fully_correct_prob=0.0, seed=5)
    positions = [inst.generated.first_error_index for inst in generate_dataset(cfg)]
    assert None not in positions
    # geometric start decays but still reaches deep steps
    assert positions.count(1) > positions.count(4)
    assert any(p >= 4 for p in positions)


def test_sampler_draws_only_the_cells_a_row_reads(monkeypatch) -> None:
    """Each caller draws the cells its rows read and no more; each cell follows its Beta law.

    ``generate_dataset`` reads every step of a prompt, the Monte Carlo
    check only the steps through each first error, so a fully correct
    row draws nothing there.  The correct and the erroneous cells have
    distinct Beta means, so a cell given the other law's draw, or a run
    shifted off its row, moves a sample mean by far more than the 4
    standard errors allowed.
    """
    cfg = SyntheticConfig(
        n_prompts=4000, max_steps=6, beta_correct=(3.0, 1.5), beta_incorrect=(1.0, 4.0)
    )
    laws = {cfg.beta_correct: [], cfg.beta_incorrect: []}
    for inst in generate_dataset(cfg):
        fei = inst.generated.first_error_index
        for j, value in inst.estimates.conditionals.items():
            laws[cfg.beta_incorrect if fei is not None and j >= fei else cfg.beta_correct].append(value)
    for (a, b), values in laws.items():
        values = np.asarray(values)
        assert np.all((values >= 0.0) & (values <= 1.0))
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - a / (a + b)) <= 4.0 * se, (values.mean(), a / (a + b), se)

    seen = []
    sample_errors, draw_cells = synthetic._sample_errors, synthetic._draw_cells
    monkeypatch.setattr(synthetic, "_sample_errors", lambda *a: seen.append(sample_errors(*a)) or seen[-1])
    monkeypatch.setattr(synthetic, "_draw_cells", lambda *a: seen.append(a[2:]) or draw_cells(*a))
    mc_evariable_check(SyntheticConfig(max_steps=6, seed=3), FTransform.ODDS, 100)
    (_, first_error), drawn = seen
    erring = first_error[first_error > 0]
    assert drawn == ((erring - 1).sum(), erring.size)


def test_tiny_error_position_p_spreads_errors_near_uniformly() -> None:
    """At p = 1e-17, 1 - p rounds to 1: the positions must still be near uniform over 1..steps.

    The truncated geometric tends to the uniform law as p tends to 0, so
    for every step count s each position 1..s takes about 1/s of the
    rows, within 4 standard errors, and the draw warns of nothing.
    """
    cfg = SyntheticConfig(max_steps=5, error_position_p=1e-17, fully_correct_prob=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps, first_error = synthetic._sample_errors(np.random.default_rng(4), cfg, 40000)
    assert np.all((first_error >= 1) & (first_error <= steps))
    for s in range(1, cfg.max_steps + 1):
        counts = np.bincount(first_error[steps == s], minlength=s + 1)[1:]
        n = counts.sum()
        se = math.sqrt(n * (1 / s) * (1 - 1 / s))
        assert np.all(np.abs(counts - n / s) <= 4.0 * se), (s, counts)


@pytest.mark.parametrize(
    "knobs",
    [
        {"max_steps": 1},
        {"error_position_p": 1.0},
        {"fully_correct_prob": 0.0},
        {"fully_correct_prob": 1.0},  # no erroneous cell: an empty Beta draw
    ],
)
def test_degenerate_configs_run_through_both_callers_of_the_sampler(knobs) -> None:
    cfg = SyntheticConfig(n_prompts=20, seed=2, **knobs)
    instances = generate_dataset(cfg)
    assert len(instances) == 20
    for inst in instances:
        assert all(0.0 <= v <= 1.0 for v in inst.estimates.conditionals.values())
    errors = {inst.generated.first_error_index for inst in instances}
    if cfg.error_position_p == 1.0 or cfg.max_steps == 1:
        assert errors <= {None, 1}
    if cfg.fully_correct_prob == 0.0:
        assert None not in errors
    if cfg.fully_correct_prob == 1.0:
        assert errors == {None}
    for transform in FTransform:
        est = mc_evariable_check(cfg, transform, 100)
        assert est.mean <= 1.0 + 3.0 * est.std_error
        if cfg.fully_correct_prob == 1.0:  # every maximum is 0, so is every statistic
            assert est == synthetic.MCEstimate(mean=0.0, std_error=0.0, n_trials=100)


def test_near_oracle_estimator_separates_cleanly() -> None:
    """With almost-perfect estimates, filtering keeps correct responses only."""
    cfg = SyntheticConfig(
        n_prompts=60,
        seed=11,
        beta_correct=(1000.0, 1.0),
        beta_incorrect=(1.0, 1000.0),
    )
    prep = PreparedDataset(generate_dataset(cfg))
    split = SplitAssignment(calibration=tuple(range(30)), test=tuple(range(30, 60)))
    grids = (StrategyGrid.of(Strategy.ALPHA_MAX, ["0.2"]),)
    result = evaluate_split(prep, split, (ScoreKind.parse("e-combined"),), grids)
    row = result.rows[0]
    assert row.mean_error <= 0.05
    assert row.mean_precision >= 0.95
    assert row.mean_recall >= 0.9


def test_evariable_statistic_values() -> None:
    # oracle forms of the same statistic
    assert oracles.x_div(3 * 1, 1 + 1 + 1) == 1
    assert evariable_statistic([1.0, 1.0, 1.0]) == 1.0  # exactly, not approximately
    assert evariable_statistic([0.0, 0.0]) == 0.0
    assert evariable_statistic([2.0, 0.0]) == 0.0  # last value zero
    assert evariable_statistic([0.5, 1.5]) == pytest.approx(1.5, rel=1e-12)
    assert evariable_statistic([1.0, math.inf]) == 2.0
    # an infinite last entry shares the limit with the other infinite one: m / 2
    assert evariable_statistic([math.inf, 1.0, math.inf]) == 1.5
    assert evariable_statistic([math.inf, 1.0]) == 0.0  # finite last, infinite sum
    with pytest.raises(InvalidInputError):
        evariable_statistic([])


row_values = st.one_of(
    st.just(0.0), st.just(math.inf), st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
)


@given(row=st.lists(row_values, min_size=2, max_size=8))
def test_evariable_statistic_is_the_e_value_of_the_last_entry(row: list[float]) -> None:
    """The statistic is 1 / e-score of the last entry against the others, to the oracle."""
    expected = oracles.x_recip(oracles.e_score(row[-1], row[:-1]))
    assert oracles.matches(evariable_statistic(row), expected)


def test_infinite_maxima_keep_the_e_value_mean_at_most_one() -> None:
    """Exchangeable groups with infinite maxima: the e-value's mean stays at most 1.

    Each of a group's 21 maxima is +inf with probability 0.1.  Both the
    scores' reciprocal and the Monte Carlo statistic of the last entry
    against the other 20 must average at most 1, up to three standard
    errors.
    """
    rng = np.random.default_rng(0)
    groups = rng.random((20000, 21))
    groups[rng.random(groups.shape) < 0.1] = math.inf
    rows = groups.tolist()
    from_scores = [1.0 / e_score(row[-1], build_calibration_summary(row[:-1])) for row in rows]
    from_check = [evariable_statistic(row) for row in rows]
    for values in (from_scores, from_check):
        se = statistics.stdev(values) / math.sqrt(len(values))
        assert statistics.fmean(values) <= 1.0 + 3.0 * se, (statistics.fmean(values), se)


def test_mc_check_stays_near_or_below_one() -> None:
    cfg = SyntheticConfig(n_prompts=20, seed=0, fully_correct_prob=0.0)
    est = mc_evariable_check(cfg, FTransform.IDENTITY, n_trials=400)
    assert est.n_trials == 400
    assert est.std_error > 0.0
    assert est.mean <= 1.0 + 3.0 * est.std_error
    for bad in (50, 150.0, "150", True):
        with pytest.raises(InvalidInputError):
            mc_evariable_check(cfg, FTransform.IDENTITY, n_trials=bad)


def test_mc_check_catches_a_wrong_e_value(monkeypatch) -> None:
    """The check reads the scores' own e-value formula, so a fault there shows.

    Writing (n + 2) where (n + 1) is meant inflates every e-value by
    (n + 2)/(n + 1), 11/10 at ten prompts; the Monte Carlo mean must then
    break the bound.
    """
    correct = scoring._e_values
    cal = build_calibration_summary([2.0, 4.0])
    before = e_score(2.0, cal)

    def one_too_many(f, others_sum, n, *rest):
        return correct(f, others_sum, n + 1, *rest)

    for module in (scoring, synthetic):
        monkeypatch.setattr(module, "_e_values", one_too_many)
    assert e_score(2.0, cal) != before
    est = mc_evariable_check(SyntheticConfig(n_prompts=10, seed=1), FTransform.IDENTITY, 2000)
    assert est.mean > 1.0 + 3.0 * est.std_error


def test_mc_check_is_deterministic_per_seed() -> None:
    cfg = SyntheticConfig(n_prompts=10, seed=21)
    a = mc_evariable_check(cfg, FTransform.ODDS, n_trials=150)
    b = mc_evariable_check(cfg, FTransform.ODDS, n_trials=150)
    assert a == b


def test_mc_check_memory_is_bounded_by_the_block() -> None:
    """A million Monte Carlo rows never hold more than a block's arrays at once."""
    cfg = SyntheticConfig(n_prompts=100, seed=1)
    tracemalloc.start()
    try:
        mc_evariable_check(cfg, FTransform.ODDS, 10000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_mc_check_memory_does_not_grow_with_max_steps() -> None:
    """A chain is drawn only through its first error, so long chains cost no more memory."""
    cfg = SyntheticConfig(n_prompts=100, max_steps=200, seed=1)
    tracemalloc.start()
    try:
        mc_evariable_check(cfg, FTransform.ODDS, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


unit_values = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def chains(draw):
    """A (rows x max_steps) block of conditionals in [0, 1] and each row's first error (0 = none)."""
    max_steps = draw(st.integers(1, 6))
    row = st.lists(unit_values, min_size=max_steps, max_size=max_steps)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    first_error = draw(st.lists(st.integers(0, max_steps), min_size=len(rows), max_size=len(rows)))
    return np.asarray(rows, dtype=np.float64), np.asarray(first_error, dtype=np.int64)


@given(block=chains(), transform=st.sampled_from(FTransform))
def test_f_star_is_the_transformed_product_through_the_first_error(block, transform) -> None:
    """The maximum over a chain's incorrect prefixes is its value at the first error, bit for bit.

    The prefix rule masks j >= first error over the transformed cumprod;
    the check's rule multiplies each erring row's run of correct cells
    with one reduceat and then its erroneous cell, straight from the two
    flat draws.  Estimates never grow along a chain of conditionals in
    [0, 1] and every transform is increasing, so both give the same f*.
    """
    conditionals, first_error = block
    step_index = np.arange(1, conditionals.shape[1] + 1)[None, :]
    incorrect = (first_error[:, None] > 0) & (step_index >= first_error[:, None])
    by_prefix = masked_f_star(transform_values(np.cumprod(conditionals, axis=1), transform), incorrect)

    # row-major: each erring row's run of correct cells in turn, then each one's erroneous cell
    correct = conditionals[step_index < first_error[:, None]]
    erroneous = conditionals[step_index == first_error[:, None]]
    by_row = synthetic._f_star_at_first_error(first_error, correct, erroneous, transform)
    assert by_row.view(np.uint64).tolist() == by_prefix.view(np.uint64).tolist()


def _reference_mc(cfg: SyntheticConfig, transform: FTransform, n_trials: int, block_trials: int):
    """Mean and SE from block b's spawned stream, a per-prompt f* loop and the scalar statistic.

    The stream is drawn as the check draws it, through each first error;
    the loop still walks every step and reads a cell past it as 1.
    """
    n_blocks = -(-n_trials // block_trials)
    streams = np.random.SeedSequence(cfg.seed, spawn_key=(1,)).spawn(n_blocks)
    stats = []
    for b, stream in enumerate(streams):
        trials = min(block_trials, n_trials - b * block_trials)
        rng = np.random.default_rng(stream)
        steps, first_error = synthetic._sample_errors(rng, cfg, trials * cfg.n_prompts)
        cells = _flat_cells(rng, cfg, first_error, first_error)
        offsets = np.cumsum(first_error) - first_error
        maxima = []
        for row in range(trials * cfg.n_prompts):
            fstar, estimate = 0.0, 1.0
            for j in range(1, int(steps[row]) + 1):
                estimate *= float(cells[offsets[row] + j - 1]) if j <= first_error[row] else 1.0
                if 0 < first_error[row] <= j:
                    fstar = max(fstar, transform_estimate(estimate, transform))
            maxima.append(fstar)
        for t in range(trials):
            stats.append(evariable_statistic(maxima[t * cfg.n_prompts:(t + 1) * cfg.n_prompts]))
    assert len(stats) == n_trials
    return math.fsum(stats) / n_trials, statistics.stdev(stats) / math.sqrt(n_trials)


@pytest.mark.parametrize(
    ("block_rows", "n_prompts", "n_trials", "block_trials", "correct_prob"),
    [
        (10, 3, 101, 3, 0.3),  # several trials per block, a partial last block of 2
        (16, 4, 100, 4, 0.3),  # several trials per block, 25 full blocks
        # a trial larger than a block: one trial per block; no prompt is fully
        # correct, so no statistic is 0 and a swapped stream shows in the mean
        (4, 9, 100, 1, 0.0),
    ],
)
@pytest.mark.parametrize("transform", [FTransform.IDENTITY, FTransform.ODDS])
def test_mc_check_blocks_match_scalar_reference(
    monkeypatch, block_rows, n_prompts, n_trials, block_trials, correct_prob, transform
) -> None:
    monkeypatch.setattr(synthetic, "_BLOCK_ROWS", block_rows)
    cfg = SyntheticConfig(
        n_prompts=n_prompts, max_steps=4, seed=13, fully_correct_prob=correct_prob
    )
    est = mc_evariable_check(cfg, transform, n_trials)
    mean, se = _reference_mc(cfg, transform, n_trials, block_trials)
    assert est.n_trials == n_trials
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-9)
    assert (est.mean, est.std_error) == _flat_layout_mc(cfg, transform, n_trials)


def _flat_errors(rng: np.random.Generator, cfg: SyntheticConfig, n_rows: int):
    """Step counts and first errors (0 = none), drawn as the sampler first drew them."""
    steps = rng.integers(1, cfg.max_steps + 1, size=n_rows)
    fully_correct = rng.random(n_rows) < cfg.fully_correct_prob
    if cfg.error_position_p >= 1.0:
        positions = np.ones(n_rows, dtype=np.int64)
    else:
        lq = math.log1p(-cfg.error_position_p)
        u = rng.random(n_rows)
        positions = np.ceil(np.log1p(u * np.expm1(steps * lq)) / lq).astype(np.int64)
        positions = np.clip(positions, 1, steps)
    return steps, np.where(fully_correct, 0, positions)


def _flat_cells(rng: np.random.Generator, cfg: SyntheticConfig, first_error, last) -> np.ndarray:
    """The cells j <= ``last`` of each row in one flat array, row i's run after row i - 1's.

    A per-cell mask marks the erroneous cells (at or after the first
    error); the correct ones take the first Beta draw in order, the
    erroneous ones the second.
    """
    offsets = np.cumsum(last) - last
    first_erroneous = offsets + np.where(first_error > 0, first_error - 1, last)
    erroneous = np.arange(last.sum()) >= np.repeat(first_erroneous, last)
    cells = np.empty(erroneous.size)
    n_erroneous = np.count_nonzero(erroneous)
    cells[~erroneous] = rng.beta(*cfg.beta_correct, size=erroneous.size - n_erroneous)
    cells[erroneous] = rng.beta(*cfg.beta_incorrect, size=n_erroneous)
    return cells


def _flat_layout_mc(cfg: SyntheticConfig, transform: FTransform, n_trials: int) -> tuple[float, float]:
    """The check's mean and SE with each block's cells laid out flat, through each first error."""
    block_trials = max(1, synthetic._BLOCK_ROWS // cfg.n_prompts)
    stats = np.empty(n_trials)
    for b, start in enumerate(range(0, n_trials, block_trials)):
        trials = min(block_trials, n_trials - start)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, b)))
        _, first_error = _flat_errors(rng, cfg, trials * cfg.n_prompts)
        cells = _flat_cells(rng, cfg, first_error, first_error)
        erring = first_error > 0
        products = np.ones(first_error.size)
        products[erring] = np.multiply.reduceat(cells, (np.cumsum(first_error) - first_error)[erring])
        fstar = masked_f_star(transform_values(products, transform)[:, None], erring[:, None])
        stats[start:start + trials] = synthetic._evariable_rows(fstar.reshape(trials, cfg.n_prompts))
    return float(np.mean(stats)), float(np.std(stats, ddof=1) / math.sqrt(n_trials))


@pytest.mark.parametrize("max_steps", [1, 4, 200])
@pytest.mark.parametrize("error_p", [1.0, 0.3, 1e-17])
@pytest.mark.parametrize("correct_prob", [0.0, 0.3, 1.0])
def test_samplers_match_the_flat_layout_exactly(max_steps, error_p, correct_prob) -> None:
    """Same stream, same products: the check's mean and SE and the dataset's cells, to the bit.

    The reference lays each block's cells out flat with a per-cell mask
    and multiplies each row's run through its first error with one
    reduceat, the check's first form; the dataset reference reads each
    prompt's run through its step count from the same layout.
    """
    cfg = SyntheticConfig(
        n_prompts=20, max_steps=max_steps, seed=5,
        error_position_p=error_p, fully_correct_prob=correct_prob,
    )
    for transform in FTransform:
        est = mc_evariable_check(cfg, transform, 150)
        assert (est.mean, est.std_error) == _flat_layout_mc(cfg, transform, 150), transform

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    steps, first_error = _flat_errors(rng, cfg, cfg.n_prompts)
    cells = _flat_cells(rng, cfg, first_error, steps).tolist()
    ends = np.cumsum(steps).tolist()
    expected = [
        (fei or None, cells[end - k:end]) for k, fei, end in zip(steps.tolist(), first_error.tolist(), ends)
    ]
    got = [
        (inst.generated.first_error_index, list(inst.estimates.conditionals.values()))
        for inst in generate_dataset(cfg)
    ]
    assert got == expected


"""The synthetic generator and its soundness spot-check."""

from __future__ import annotations

import math
import statistics
import tracemalloc

import numpy as np
import pytest

import escores.synthetic as synthetic
from escores import (
    FTransform,
    InvalidInputError,
    PreparedDataset,
    Parameter,
    ScoreKind,
    SplitAssignment,
    Strategy,
    StrategyGrid,
    SyntheticConfig,
    evaluate_split,
    evariable_statistic,
    generate_dataset,
    mc_evariable_check,
    transform_estimate,
)

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
    grids = (StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.2"),)),)
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
    assert evariable_statistic([math.inf, 1.0]) == 0.0  # finite last, infinite sum
    with pytest.raises(InvalidInputError):
        evariable_statistic([])


def test_mc_check_stays_near_or_below_one() -> None:
    cfg = SyntheticConfig(n_prompts=20, seed=0, fully_correct_prob=0.0)
    est = mc_evariable_check(cfg, FTransform.IDENTITY, n_trials=400)
    assert est.n_trials == 400
    assert est.std_error > 0.0
    assert est.mean <= 1.0 + 3.0 * est.std_error
    for bad in (50, 150.0, "150", True):
        with pytest.raises(InvalidInputError):
            mc_evariable_check(cfg, FTransform.IDENTITY, n_trials=bad)


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


def _reference_mc(cfg: SyntheticConfig, transform: FTransform, n_trials: int, block_trials: int):
    """Mean and SE from block b's spawned stream, a per-prompt f* loop and the scalar statistic."""
    n_blocks = -(-n_trials // block_trials)
    streams = np.random.SeedSequence(cfg.seed, spawn_key=(1,)).spawn(n_blocks)
    stats = []
    for b, stream in enumerate(streams):
        trials = min(block_trials, n_trials - b * block_trials)
        steps, first_error, conditionals = synthetic._sample_arrays(
            np.random.default_rng(stream), cfg, trials * cfg.n_prompts
        )
        maxima = []
        for row in range(trials * cfg.n_prompts):
            fstar, estimate = 0.0, 1.0
            for j in range(1, int(steps[row]) + 1):
                estimate *= float(conditionals[row, j - 1])
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

"""Synthetic prompt generation with controllable estimator quality.

Each synthetic prompt draws a step count uniformly from 1..max_steps,
decides whether the generation is fully correct, and otherwise places
the first error at a truncated-geometric position.  Step-level
conditional estimates are Beta draws whose parameters differ between
truly-correct steps and steps at or after the first error, so the same
machinery produces anything from near-oracle to uninformative
estimators.  Once an error occurs, every later step counts as erroneous
for estimate purposes: a response containing the first error is wrong
no matter how it continues.

``mc_evariable_check`` estimates the mean of the exchangeable-rank
statistic m * last / sum over freshly sampled groups of per-prompt
maxima; its expectation never exceeds 1, which is the soundness
property everything downstream leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import InvalidInputError, as_ext_real
from .estimation import EstimateSource, FTransform, PromptInstance, masked_f_star, transform_values
from .response_sets import GeneratedResponse


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the generator; defaults give a moderately informative oracle."""

    n_prompts: int = 100
    max_steps: int = 5
    seed: int = 0
    error_position_p: float = 0.3
    fully_correct_prob: float = 0.3
    beta_correct: tuple[float, float] = (8.0, 2.0)
    beta_incorrect: tuple[float, float] = (2.0, 8.0)

    def __post_init__(self) -> None:
        if not isinstance(self.n_prompts, int) or self.n_prompts < 1:
            raise InvalidInputError(f"n_prompts must be >= 1, got {self.n_prompts!r}")
        if not isinstance(self.max_steps, int) or self.max_steps < 1:
            raise InvalidInputError(f"max_steps must be >= 1, got {self.max_steps!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidInputError(f"seed must be a nonnegative int, got {self.seed!r}")
        if not 0.0 < self.error_position_p <= 1.0:
            raise InvalidInputError(
                f"error_position_p must lie in (0, 1], got {self.error_position_p!r}"
            )
        if not 0.0 <= self.fully_correct_prob <= 1.0:
            raise InvalidInputError(
                f"fully_correct_prob must lie in [0, 1], got {self.fully_correct_prob!r}"
            )
        for name, pair in (("beta_correct", self.beta_correct), ("beta_incorrect", self.beta_incorrect)):
            if len(pair) != 2 or any(not p > 0 for p in pair):
                raise InvalidInputError(f"{name} must be two positive shape parameters, got {pair!r}")


def _sample_arrays(
    rng: np.random.Generator, cfg: SyntheticConfig, n_rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized draws: step counts, first-error positions (0 = none), conditionals."""
    steps = rng.integers(1, cfg.max_steps + 1, size=n_rows)
    fully_correct = rng.random(n_rows) < cfg.fully_correct_prob

    # Truncated geometric on {1..steps} by inverse CDF, per-row truncation.
    if cfg.error_position_p >= 1.0:
        positions = np.ones(n_rows, dtype=np.int64)
    else:
        q = 1.0 - cfg.error_position_p
        u = rng.random(n_rows)
        mass = 1.0 - q ** steps
        positions = np.ceil(np.log(1.0 - u * mass) / math.log(q)).astype(np.int64)
        positions = np.clip(positions, 1, steps)
    first_error = np.where(fully_correct, 0, positions)

    shape = (n_rows, cfg.max_steps)
    conditionals_correct = rng.beta(cfg.beta_correct[0], cfg.beta_correct[1], size=shape)
    conditionals_incorrect = rng.beta(cfg.beta_incorrect[0], cfg.beta_incorrect[1], size=shape)
    step_index = np.arange(1, cfg.max_steps + 1)[None, :]
    erroneous = (first_error[:, None] > 0) & (step_index >= first_error[:, None])
    conditionals = np.where(erroneous, conditionals_incorrect, conditionals_correct)
    return steps, first_error, conditionals


def generate_dataset(cfg: SyntheticConfig) -> tuple[PromptInstance, ...]:
    """Draw a full synthetic dataset of prompt instances, deterministically."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    steps, first_error, conditionals = _sample_arrays(rng, cfg, cfg.n_prompts)
    instances = []
    for i in range(cfg.n_prompts):
        k = int(steps[i])
        fei = int(first_error[i]) or None
        generated = GeneratedResponse.from_texts(
            prompt_id=f"synthetic-{i:06d}",
            texts=[f"step {j}" for j in range(1, k + 1)],
            first_error_index=fei,
        )
        source = EstimateSource(
            conditionals={j: float(conditionals[i, j - 1]) for j in range(1, k + 1)}
        )
        instances.append(PromptInstance(generated, source))
    return tuple(instances)


def _evariable_rows(groups: np.ndarray) -> np.ndarray:
    """``evariable_statistic`` of each row of a (groups x m) array, without copying it."""
    m = groups.shape[1]
    totals = groups.sum(axis=1)
    last = groups[:, -1]
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = np.where(totals == 0.0, 0.0, (m * last) / totals)
    return np.where(np.isinf(last), float(m), raw)


def evariable_statistic(per_prompt_maxima: Sequence[float]) -> float:
    """m * last / sum for a group of per-prompt maxima, extended-real safe.

    The last entry plays the test role.  An all-zero group yields 0, and
    an infinite last entry yields the limit value m (the sum is then
    infinite as well, and m*f/(f + c) tends to m as f grows).
    """
    values = [as_ext_real(v, "per-prompt maximum") for v in per_prompt_maxima]
    if not values:
        raise InvalidInputError("the statistic needs at least one value")
    return float(_evariable_rows(np.asarray([values]))[0])


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_trials: int


def require_trial_count(n_trials: int) -> int:
    """Reject Monte Carlo trial counts too small for a stable mean."""
    if n_trials < 100:
        raise InvalidInputError(f"need at least 100 trials for a stable mean, got {n_trials}")
    return n_trials


def mc_evariable_check(
    cfg: SyntheticConfig, transform: FTransform, n_trials: int
) -> MCEstimate:
    """Monte Carlo mean of the exchangeable-rank statistic over fresh groups.

    Each trial draws cfg.n_prompts synthetic prompts, computes the
    per-prompt maximum transformed prefix value over incorrect prefixes
    (0 when the prompt is fully correct), and evaluates
    ``evariable_statistic``.  Sampling is vectorized across trials but
    uses the same distributions as ``generate_dataset``.
    """
    n_trials = require_trial_count(n_trials)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    rows = n_trials * cfg.n_prompts
    steps, first_error, conditionals = _sample_arrays(rng, cfg, rows)

    # Prefix estimate of length j is the product of the first j conditionals.
    values = transform_values(np.cumprod(conditionals, axis=1), transform)
    step_index = np.arange(1, cfg.max_steps + 1)[None, :]
    is_incorrect_prefix = (
        (first_error[:, None] > 0)
        & (step_index >= first_error[:, None])
        & (step_index <= steps[:, None])
    )
    fstar = masked_f_star(values, is_incorrect_prefix)

    stats = _evariable_rows(fstar.reshape(n_trials, cfg.n_prompts))
    mean = float(np.mean(stats))
    std_error = float(np.std(stats, ddof=1) / math.sqrt(n_trials))
    return MCEstimate(mean=mean, std_error=std_error, n_trials=n_trials)

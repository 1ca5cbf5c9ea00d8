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

``mc_evariable_check`` estimates, over freshly sampled groups of m
per-prompt maxima, the mean of the e-value m * last / sum of each
group's last entry against the others.  Its expectation never exceeds
1, which is the soundness property everything downstream leans on.  The
statistic is the scores' own e-value: it is computed by the function
that ``e_score`` inverts, so a fault in that formula shows here as a
failed check.  It works through the trials
in fixed blocks of whole trials, each drawn from a stream of its own,
so its memory is bounded by the block and not by the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import InvalidInputError, Prompt, as_ext_real
from .estimation import EstimateSource, FTransform, PromptInstance, masked_f_star, transform_values
from .response_sets import GeneratedResponse
from .scoring import _e_values


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
        generated = GeneratedResponse(
            Prompt(f"synthetic-{i:06d}"), tuple(f"step {j}" for j in range(1, k + 1)), fei
        )
        source = EstimateSource(
            conditionals={j: float(conditionals[i, j - 1]) for j in range(1, k + 1)}
        )
        instances.append(PromptInstance(generated, source))
    return tuple(instances)


def _evariable_rows(groups: np.ndarray) -> np.ndarray:
    """``evariable_statistic`` of each row of a (groups x m) array, without copying it."""
    others = groups[:, :-1]
    return _e_values(groups[:, -1], others.sum(axis=1), others.shape[1], np.isinf(others).sum(axis=1))


def evariable_statistic(per_prompt_maxima: Sequence[float]) -> float:
    """m * last / sum for a group of m per-prompt maxima, extended-real safe.

    The last entry plays the test role: the result is the reciprocal of
    its ``e_score`` against a summary of the others, by the same
    function.  An all-zero group yields 0, and an infinite last entry
    yields m/(k + 1), with k the other entries that are infinite: every
    infinite entry grows together, so the last one's share of the sum
    tends to 1/(k + 1).
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
    if not isinstance(n_trials, int) or isinstance(n_trials, bool) or n_trials < 100:
        raise InvalidInputError(
            f"n_trials must be an int >= 100 (at least 100 trials for a stable mean), "
            f"got {n_trials!r}"
        )
    return n_trials


# Monte Carlo rows drawn at once.  A block holds about six (rows x max_steps)
# float64 working arrays: some 8 MB at five steps.
_BLOCK_ROWS = 1 << 15


def mc_evariable_check(
    cfg: SyntheticConfig, transform: FTransform, n_trials: int
) -> MCEstimate:
    """Monte Carlo mean of the e-value statistic over fresh groups.

    Each trial draws cfg.n_prompts synthetic prompts, computes the
    per-prompt maximum transformed prefix value over incorrect prefixes
    (0 when the prompt is fully correct), and evaluates
    ``evariable_statistic``.  Trials run in blocks of whole trials, about
    ``_BLOCK_ROWS`` prompts each (one trial when a trial is larger), and
    block b draws from child b of ``SeedSequence(cfg.seed, spawn_key=(1,))``
    with the same distributions as ``generate_dataset``.  Memory is
    bounded by the block; only the per-trial statistics span all trials.
    """
    n_trials = require_trial_count(n_trials)
    block_trials = max(1, _BLOCK_ROWS // cfg.n_prompts)
    step_index = np.arange(1, cfg.max_steps + 1)[None, :]
    stats = np.empty(n_trials)
    for b, start in enumerate(range(0, n_trials, block_trials)):
        trials = min(block_trials, n_trials - start)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, b)))
        steps, first_error, conditionals = _sample_arrays(rng, cfg, trials * cfg.n_prompts)

        # Prefix estimate of length j is the product of the first j conditionals.
        values = transform_values(np.cumprod(conditionals, axis=1), transform)
        is_incorrect_prefix = (
            (first_error[:, None] > 0)
            & (step_index >= first_error[:, None])
            & (step_index <= steps[:, None])
        )
        fstar = masked_f_star(values, is_incorrect_prefix)
        stats[start:start + trials] = _evariable_rows(fstar.reshape(trials, cfg.n_prompts))

    mean = float(np.mean(stats))
    std_error = float(np.std(stats, ddof=1) / math.sqrt(n_trials))
    return MCEstimate(mean=mean, std_error=std_error, n_trials=n_trials)

"""Synthetic prompt generation with controllable estimator quality.

Each synthetic prompt draws a step count uniformly from 1..max_steps,
decides whether the generation is fully correct, and otherwise places
the first error at a truncated-geometric position.  Step-level
conditional estimates are Beta draws whose parameters differ between
truly-correct steps and steps at or after the first error, so the same
machinery produces anything from near-oracle to uninformative
estimators.  Once an error occurs, every later step counts as erroneous
for estimate purposes: a response containing the first error is wrong
no matter how it continues.  The sampler draws the step counts and
first errors first, then the Beta conditionals of the steps a caller
reads: every correct cell in one draw, then every erroneous one in
another, each in row order.  ``generate_dataset`` draws through each
prompt's step count.

``mc_evariable_check`` estimates, over freshly sampled groups of m
per-prompt maxima, the mean of the e-value m * last / sum of each
group's last entry against the others.  Its expectation never exceeds
1, which is the soundness property everything downstream leans on.  The
statistic is the scores' own e-value: it is computed by the function
that ``e_score`` inverts, so a fault in that formula shows here as a
failed check.  A prompt's maximum over its incorrect prefixes is its
value at the first error, so the check draws each chain only through
its first error (a fully correct prompt draws no conditional): the
correct cells before it and the one erroneous cell at it.  It multiplies
each chain straight from the two draws and transforms the product.  It
works through the trials in fixed blocks of whole trials, each drawn
from a stream of its own, so its memory is bounded by the block and not
by the trial count or the step count: a block holds about 32,000
prompts and only their cells through each first error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import InvalidInputError, Prompt, _require_seed, _seeded_rng, as_ext_real
from .estimation import FTransform, _e_values, transform_values

if TYPE_CHECKING:  # pragma: no cover - generate_dataset imports the dataset types it builds
    from .io import PromptInstance


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
        _require_seed(self.seed)
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


def _sample_errors(
    rng: np.random.Generator, cfg: SyntheticConfig, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draws of step counts and first-error positions (0 = none)."""
    steps = rng.integers(1, cfg.max_steps + 1, size=n_rows)
    erring = rng.random(n_rows) >= cfg.fully_correct_prob

    # Truncated geometric on {1..steps} by inverse CDF, per-row truncation.
    # log1p and expm1 keep a tiny p from rounding 1 - p to 1 (0/0 then).
    if cfg.error_position_p >= 1.0:
        return steps, erring.astype(np.int64)
    lq = math.log1p(-cfg.error_position_p)
    u = rng.random(n_rows)
    positions = np.ceil(np.log1p(u * np.expm1(steps * lq)) / lq).astype(np.int64)
    return steps, np.clip(positions, 1, steps, out=positions) * erring


def _draw_cells(
    rng: np.random.Generator, cfg: SyntheticConfig, n_correct: int, n_erroneous: int
) -> tuple[np.ndarray, np.ndarray]:
    """Beta conditionals: every correct cell in one draw, then every erroneous one in another.

    Each draw runs in row order, so row i's run follows row i - 1's in
    both: its correct cells are its steps before the first error (all
    its steps when it has none), its erroneous cells the first error and
    every later step it reads.
    """
    return rng.beta(*cfg.beta_correct, size=n_correct), rng.beta(*cfg.beta_incorrect, size=n_erroneous)


def generate_dataset(cfg: SyntheticConfig) -> tuple[PromptInstance, ...]:
    """Draw a full synthetic dataset of prompt instances, deterministically."""
    from .io import EstimateSource, PromptInstance
    from .response_sets import GeneratedResponse

    rng = _seeded_rng(cfg.seed, (0,))
    steps, first_error = _sample_errors(rng, cfg, cfg.n_prompts)
    n_correct = np.where(first_error > 0, first_error - 1, steps)
    total_correct = int(n_correct.sum())
    correct, erroneous = (
        cells.tolist() for cells in _draw_cells(rng, cfg, total_correct, int(steps.sum()) - total_correct)
    )
    instances, ci, ei = [], 0, 0
    for i, (k, fei, nc) in enumerate(zip(steps.tolist(), first_error.tolist(), n_correct.tolist())):
        generated = GeneratedResponse(
            Prompt(f"synthetic-{i:06d}"), tuple(f"step {j}" for j in range(1, k + 1)), fei or None
        )
        cells = correct[ci:ci + nc] + erroneous[ei:ei + k - nc]
        instances.append(PromptInstance(generated, EstimateSource(conditionals=dict(enumerate(cells, 1)))))
        ci, ei = ci + nc, ei + k - nc
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


def _f_star_at_first_error(
    first_error: np.ndarray, correct: np.ndarray, erroneous: np.ndarray, transform: FTransform
) -> np.ndarray:
    """Each row's f*: its transformed estimate at its first error, or 0 when it has none.

    The cells are laid out as ``_draw_cells`` draws them through each
    first error: an erring row has its run of first_error - 1 correct
    cells and one erroneous cell.  Its product is taken left to right
    over the run and then times the erroneous cell, the chained
    estimate's own order, so it matches that estimate bit for bit.
    ``erroneous`` is overwritten with the products.
    """
    erring = np.flatnonzero(first_error > 0)
    runs = first_error[erring] - 1
    long = np.flatnonzero(runs > 0)  # a run of 0 cells leaves the erroneous cell as it is
    lengths = runs[long]
    erroneous[long] *= np.multiply.reduceat(correct, np.cumsum(lengths) - lengths)
    fstar = np.zeros(first_error.size)
    fstar[erring] = transform_values(erroneous, transform)
    return fstar


def _draw_maxima(
    rng: np.random.Generator, cfg: SyntheticConfig, transform: FTransform, n_rows: int
) -> np.ndarray:
    """The f* of ``n_rows`` fresh prompts, each drawn only through its first error.

    A function of its own, so that one block's arrays are freed before
    the next block draws.
    """
    _, first_error = _sample_errors(rng, cfg, n_rows)
    n_erring = np.count_nonzero(first_error)
    correct, erroneous = _draw_cells(rng, cfg, int(first_error.sum()) - n_erring, n_erring)
    return _f_star_at_first_error(first_error, correct, erroneous, transform)


# Monte Carlo rows drawn at once.  A block's working memory peaks at about
# 2.4 MB at five steps and 2.7 MB at 200 (tracemalloc after a warm-up
# call, odds transform, 10,000 trials of 100 prompts): the per-row draws,
# 0.26 MB each as float64, and the cells through each first error.
_BLOCK_ROWS = 1 << 15


def mc_evariable_check(
    cfg: SyntheticConfig, transform: FTransform, n_trials: int
) -> MCEstimate:
    """Monte Carlo mean of the e-value statistic over fresh groups.

    Each trial draws cfg.n_prompts synthetic prompts, computes the
    per-prompt maximum transformed prefix value over incorrect prefixes
    (0 when the prompt is fully correct), and evaluates
    ``evariable_statistic``.  That maximum is the transformed estimate at
    the first error, which ``_f_star_at_first_error`` multiplies straight
    from the block's two Beta draws.  Trials run in blocks of whole
    trials, about ``_BLOCK_ROWS`` prompts each (one trial when a trial is
    larger), and block b draws from child b of
    ``SeedSequence(cfg.seed, spawn_key=(1,))`` with the same distributions
    as ``generate_dataset``.  Memory is bounded by the block; only the
    per-trial statistics span all trials.
    """
    n_trials = require_trial_count(n_trials)
    block_trials = max(1, _BLOCK_ROWS // cfg.n_prompts)
    stats = np.empty(n_trials)
    for b, start in enumerate(range(0, n_trials, block_trials)):
        trials = min(block_trials, n_trials - start)
        fstar = _draw_maxima(_seeded_rng(cfg.seed, (1, b)), cfg, transform, trials * cfg.n_prompts)
        stats[start:start + trials] = _evariable_rows(fstar.reshape(trials, cfg.n_prompts))

    mean = float(np.mean(stats))
    std_error = float(np.std(stats, ddof=1) / math.sqrt(n_trials))
    return MCEstimate(mean=mean, std_error=std_error, n_trials=n_trials)

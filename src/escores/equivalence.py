"""The p-score / fixed-threshold equivalence, checked in exact arithmetic.

``threshold_equivalence_check`` verifies, in exact rational arithmetic,
that filtering by p-score at level alpha keeps precisely the responses
whose value exceeds the ceil((1-alpha)(n+1))-th smallest calibration
value, for any alpha in [1/(n+1), 1].  ``run_equivalence_trials`` runs
it on seeded random instances, ties included; the ``equivalence``
command and acceptance 04 load this module, and no other command does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import CalibrationSummary, InvalidInputError, _seeded_rng, as_exact, as_ext_real
from .estimation import build_calibration_summary
from .filtering import inclusion_target
from .scoring import _exceedances


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
        rest = 1 - exact
        k = inclusion_target(rest.numerator, rest.denominator, n + 1)
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

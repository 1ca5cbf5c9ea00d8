"""Post-hoc tolerance selection and response filtering.

A response is kept when its score is at or below the working tolerance.
Two strategies pick that tolerance after seeing the scores: the
max-constrained strategy uses the largest score still within a stated
budget, and the fractional strategy uses whatever tolerance admits a
target share of the set.  Both report the tolerance they actually used,
which is what the size-distortion accounting downstream divides by.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .core import InvalidInputError, ScoredResponseSet, as_ext_real, as_unit_fraction


@dataclass(frozen=True)
class FilterOutcome:
    """A partition of a scored set, plus the tolerance that produced it."""

    alpha_used: float
    included: ScoredResponseSet
    excluded: ScoredResponseSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_used", as_ext_real(self.alpha_used, "alpha_used"))
        for _, score in self.included:
            if score > self.alpha_used:
                raise InvalidInputError(
                    f"included score {score!r} exceeds alpha_used {self.alpha_used!r}"
                )


def filter_at_alpha(scored: ScoredResponseSet, alpha: float) -> FilterOutcome:
    """Keep exactly the responses scoring <= alpha, in stable order."""
    alpha = as_ext_real(alpha, "alpha")
    included = tuple(entry for entry in scored if entry[1] <= alpha)
    excluded = tuple(entry for entry in scored if entry[1] > alpha)
    return FilterOutcome(
        alpha_used=alpha,
        included=ScoredResponseSet(included),
        excluded=ScoredResponseSet(excluded),
    )


def max_constrained_alpha(scored: ScoredResponseSet, alpha_max: float) -> FilterOutcome:
    """Largest realized score within the budget becomes the tolerance.

    Filtering at that tolerance keeps the same responses as filtering at
    the budget itself, but charges only for the tolerance actually
    needed.  An empty eligible set reports tolerance 0 and keeps
    nothing.  Budgets outside [0, 1] are unusual enough to warn about,
    yet allowed so that parameter sweeps can run unattended.
    """
    alpha_max = as_ext_real(alpha_max, "alpha_max")
    if alpha_max > 1.0:
        warnings.warn(
            f"alpha_max={alpha_max!r} lies outside [0, 1]; proceeding anyway",
            stacklevel=2,
        )
    eligible = [score for _, score in scored if score <= alpha_max]
    if not eligible:
        return FilterOutcome(
            alpha_used=0.0,
            included=ScoredResponseSet(()),
            excluded=ScoredResponseSet(tuple(scored)),
        )
    return filter_at_alpha(scored, max(eligible))


def inclusion_target(fraction: Fraction, size: int) -> int:
    """ceil(fraction * size), the count the fractional strategy keeps, in exact integers."""
    return -(-fraction.numerator * size // fraction.denominator)


def fractional_inclusion_alpha(
    scored: ScoredResponseSet, fraction: "float | str | Fraction"
) -> FilterOutcome:
    """Keep the ceil(fraction * size) lowest-scoring responses.

    The target count is computed with exact rational arithmetic, so a
    fraction written "0.2" over ten responses asks for exactly two, with
    no floating-point ceiling artifacts.  Ties at the threshold are
    broken by original position: the earliest tied responses stay, and
    the included count always equals the target.  The tolerance charged
    is the largest included score, or 0 when the target is zero.
    """
    fraction = as_unit_fraction(fraction, "inclusion fraction")
    size = len(scored)
    if size == 0:
        raise InvalidInputError("cannot filter an empty scored set")
    target = inclusion_target(fraction, size)
    order = sorted(range(size), key=lambda i: (scored.entries[i][1], i))
    chosen = set(order[:target])
    included = tuple(entry for i, entry in enumerate(scored.entries) if i in chosen)
    excluded = tuple(entry for i, entry in enumerate(scored.entries) if i not in chosen)
    alpha_used = max((score for _, score in included), default=0.0)
    return FilterOutcome(
        alpha_used=alpha_used,
        included=ScoredResponseSet(included),
        excluded=ScoredResponseSet(excluded),
    )

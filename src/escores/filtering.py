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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

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


def _partition(
    scored: ScoredResponseSet, keep: Sequence[bool], alpha_used: float
) -> FilterOutcome:
    """Split ``scored`` into the entries ``keep`` marks and the rest, in stable order."""
    return FilterOutcome(
        alpha_used=alpha_used,
        included=ScoredResponseSet(tuple(e for e, k in zip(scored, keep) if k)),
        excluded=ScoredResponseSet(tuple(e for e, k in zip(scored, keep) if not k)),
    )


def filter_at_alpha(scored: ScoredResponseSet, alpha: float) -> FilterOutcome:
    """Keep exactly the responses scoring <= alpha, in stable order."""
    alpha = as_ext_real(alpha, "alpha")
    return _partition(scored, [score <= alpha for _, score in scored], alpha)


def _keep_lowest(scored: ScoredResponseSet, kept: int) -> FilterOutcome:
    """Keep the ``kept`` lowest responses by (score, position), in stable order.

    The tolerance charged is the largest kept score, or 0 when none is kept.
    """
    scores = scored.scores
    chosen = set(sorted(range(len(scores)), key=lambda i: (scores[i], i))[:kept])
    keep = [i in chosen for i in range(len(scores))]
    return _partition(scored, keep, max((scores[i] for i in chosen), default=0.0))


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
    kept = filter_at_alpha(scored, alpha_max)
    return replace(kept, alpha_used=max(kept.included.scores, default=0.0))


def inclusion_target(numerator: int, denominator: int, size: int) -> int:
    """ceil(numerator / denominator * size), the count the fractional strategy keeps, in exact integers."""
    return -(-numerator * size // denominator)


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
    return _keep_lowest(scored, inclusion_target(fraction.numerator, fraction.denominator, size))

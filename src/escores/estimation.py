"""Oracle estimates, their monotone transforms, and calibration summaries.

An oracle estimate is a probability in [0, 1] that a response is
correct.  Three monotone transforms turn an estimate into the
nonnegative value the scores are built from:

    identity            o              range [0, 1]
    inverse complement  1 / (1 - o)    range [1, +inf]
    odds                o / (1 - o)    range [0, +inf]

All three are nondecreasing in the estimate, so they agree on rankings
and differ only in how sharply they reward confident estimates.  For a
calibration prompt the summary statistic is the maximum transformed
value over its incorrect responses (0 when every response is correct);
summing those per-prompt maxima once makes later e-scoring O(1) per
test response.
"""

from __future__ import annotations

import enum
import types
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import (
    CalibrationSummary,
    InvalidInputError,
    LabeledResponseSet,
    Response,
    as_unit_interval,
    ext_sum,
)
from .response_sets import GeneratedResponse


class FTransform(enum.Enum):
    """The three estimate-to-value transforms, by increasing aggressiveness."""

    IDENTITY = 1
    INVERSE_COMPLEMENT = 2
    ODDS = 3

    @property
    def option(self) -> int:
        return self.value

    @classmethod
    def from_option(cls, option: int) -> "FTransform":
        try:
            return cls(option)
        except ValueError:
            raise InvalidInputError(f"transform option must be 1, 2, or 3, got {option!r}") from None


class EstimateLevel(enum.Enum):
    RESPONSE = "response"
    SUB_RESPONSE = "sub_response"


@dataclass(frozen=True)
class EstimateSource:
    """Oracle estimates for one prompt's responses.

    Either a single response-level estimate (singular data: one response
    per prompt), or per-sub-response conditionals keyed by original step
    index, aggregated multiplicatively per response.  When both are
    present the response-level estimate takes precedence.
    """

    conditionals: Mapping[int, float] | None = None
    response_estimate: float | None = None

    def __post_init__(self) -> None:
        if self.conditionals is None and self.response_estimate is None:
            raise InvalidInputError("an estimate source needs conditionals or a response estimate")
        if self.conditionals is not None:
            checked: dict[int, float] = {}
            for idx, value in dict(self.conditionals).items():
                if not isinstance(idx, int) or isinstance(idx, bool) or idx < 1:
                    raise InvalidInputError(f"conditional keys must be ints >= 1, got {idx!r}")
                checked[idx] = as_unit_interval(value, f"conditional estimate for step {idx}")
            object.__setattr__(self, "conditionals", types.MappingProxyType(checked))
        if self.response_estimate is not None:
            object.__setattr__(
                self,
                "response_estimate",
                as_unit_interval(self.response_estimate, "response estimate"),
            )

    @property
    def level(self) -> EstimateLevel:
        if self.response_estimate is not None:
            return EstimateLevel.RESPONSE
        return EstimateLevel.SUB_RESPONSE


@dataclass(frozen=True)
class PromptInstance:
    """A generated response paired with its oracle estimates."""

    generated: GeneratedResponse
    estimates: EstimateSource

    def __post_init__(self) -> None:
        if self.estimates.level is EstimateLevel.SUB_RESPONSE:
            assert self.estimates.conditionals is not None
            missing = [
                i for i in range(1, len(self.generated) + 1)
                if i not in self.estimates.conditionals
            ]
            if missing:
                raise InvalidInputError(
                    f"prompt {self.generated.prompt.id!r}: missing conditional estimates "
                    f"for steps {missing}"
                )

    @property
    def prompt_id(self) -> str:
        return self.generated.prompt.id


def aggregate_conditionals(source: EstimateSource, response: Response) -> float:
    """Estimate that ``response`` is correct, from the source's level.

    Response-level sources return their stored estimate directly.
    Sub-response conditionals multiply along the response's own ordering,
    mirroring a chain rule over its steps.
    """
    if source.response_estimate is not None:
        return source.response_estimate
    assert source.conditionals is not None
    product = 1.0
    for idx in response.indices:
        try:
            product *= source.conditionals[idx]
        except KeyError:
            raise InvalidInputError(f"no conditional estimate for step {idx}") from None
    return product


def transform_values(estimates: np.ndarray, transform: FTransform) -> np.ndarray:
    """Apply one of the three monotone transforms to an array of estimates.

    Estimates must already lie in [0, 1], so 1 - o is never negative and
    an estimate of exactly 1 maps to +inf under the two nonidentity
    transforms.  The identity transform returns its input, uncopied.
    """
    if transform is FTransform.IDENTITY:
        return estimates
    with np.errstate(divide="ignore"):
        if transform is FTransform.INVERSE_COMPLEMENT:
            return 1.0 / (1.0 - estimates)
        if transform is FTransform.ODDS:
            return estimates / (1.0 - estimates)
    raise InvalidInputError(f"unknown transform {transform!r}")


def transform_estimate(estimate: float, transform: FTransform) -> float:
    """Apply one of the three monotone transforms to an estimate in [0, 1]."""
    return float(transform_values(np.float64(as_unit_interval(estimate)), transform))


def masked_f_star(
    values: np.ndarray, incorrect: np.ndarray, starts: np.ndarray | None = None
) -> np.ndarray:
    """Maximum of the nonnegative ``values`` over ``incorrect`` entries, 0 where none.

    One prompt per row of the last axis or, given ``starts``, per flat
    segment from ``starts[i]`` to the next start (each nonempty).
    """
    masked = np.where(incorrect, values, 0.0)
    if starts is None:
        return masked.max(axis=-1, initial=0.0)
    return np.maximum.reduceat(masked, starts)


def calibration_f_star(
    labeled: LabeledResponseSet, values: Mapping[Response, float]
) -> float:
    """Maximum transformed value over the incorrect responses; 0 when none.

    Every labeled response must have a value.  The result does not
    depend on the order of the labeled set.
    """
    for resp in labeled.responses:
        if resp not in values:
            raise InvalidInputError(f"no value supplied for response {resp.indices}")
    row = np.asarray([values[resp] for resp in labeled.responses], dtype=np.float64)
    return float(masked_f_star(row, np.asarray(labeled.labels) == 0))


def build_calibration_summary(
    per_prompt_fstar: Iterable[float], transform: FTransform | None = None
) -> CalibrationSummary:
    """Freeze per-prompt maxima into a summary, computing their sum once."""
    values = tuple(per_prompt_fstar)
    return CalibrationSummary(
        per_prompt_fstar=values,
        fstar_sum=ext_sum(values),
        n=len(values),
        transform=transform,
    )

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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    CalibrationSummary,
    InvalidInputError,
    LabeledResponseSet,
    Response,
    as_ext_real,
    as_unit_interval,
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


@dataclass(frozen=True)
class PromptInstance:
    """A generated response paired with its oracle estimates."""

    generated: GeneratedResponse
    estimates: EstimateSource

    def __post_init__(self) -> None:
        if self.estimates.response_estimate is None:
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
    mirroring a chain rule over its steps.  This is the one-response call
    of the array code that prepares whole datasets.
    """
    return float(_chained_estimates(source, (response,))[0])


def _chained_estimates(source: EstimateSource, responses: Sequence[Response]) -> np.ndarray:
    """The source's estimate of each of ``responses``, in order.

    A response-level estimate stands for every response.  Otherwise the
    estimate of a response is the ``_chain`` of the conditionals of its
    steps, gathered once into a one-row table of the steps any response
    reads.
    """
    if source.response_estimate is not None:
        return np.full(len(responses), source.response_estimate)
    steps = list(dict.fromkeys(i for response in responses for i in response.indices))
    column = {step: j for j, step in enumerate(steps)}
    try:
        row = np.array([[source.conditionals[step] for step in steps]], dtype=np.float64)
    except KeyError as exc:
        raise InvalidInputError(f"no conditional estimate for step {exc.args[0]}") from None
    return _chain(row, [[column[i] for i in response.indices] for response in responses])[0]


def _chain(table: np.ndarray, columns: Sequence[Sequence[int]]) -> np.ndarray:
    """Chain-rule products of ``table``'s columns, shape (rows, len(columns)).

    Entry (r, p) is the product of ``table[r, c]`` over c in
    ``columns[p]``, left to right from the first factor.  The responses
    of one length m cost m column gathers and m - 1 elementwise products
    over every row at once, each product the float multiply of the
    scalar chain in the scalar chain's order, so the results are
    bit-identical to it.
    """
    out = np.empty((table.shape[0], len(columns)))
    by_length: dict[int, list[int]] = {}
    for position, cols in enumerate(columns):
        by_length.setdefault(len(cols), []).append(position)
    for positions in by_length.values():
        cols = np.array([columns[p] for p in positions])
        product = table[:, cols[:, 0]]
        for j in range(1, cols.shape[1]):
            product *= table[:, cols[:, j]]
        out[:, positions] = product
    return out


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


def _e_values(
    f: np.ndarray,
    others_sum: "float | np.ndarray",
    n: "int | np.ndarray",
    infinite_others: "int | np.ndarray" = 0,
) -> np.ndarray:
    """The e-value (n + 1) * f / (f + others_sum) of f against n others.

    The one e-value formula of the package: ``scoring``'s e-scores invert
    it and ``synthetic``'s Monte Carlo check takes it of each group's
    last entry against the rest.  Extended-real rules as in
    ``scoring.kind_scores``; an infinite f against ``infinite_others``
    infinite others has ratio 1/(infinite_others + 1).
    """
    with np.errstate(all="ignore"):
        ratio = f / (f + others_sum)
        limit = np.where(np.isinf(f), 1.0 / (infinite_others + 1), 0.0)
        return (n + 1) * np.where(np.isnan(ratio), limit, ratio)


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
    """Freeze per-prompt maxima into a summary, which computes their sum once."""
    return CalibrationSummary(tuple(per_prompt_fstar), transform)


def _summary_of_array(values: np.ndarray, transform: FTransform | None = None) -> CalibrationSummary:
    """``build_calibration_summary`` of an array of maxima, checked by array operations.

    The first NaN or negative value raises the message that the
    per-value check gives it, and the summary equals the one
    ``build_calibration_summary`` builds from the same values.
    """
    values = np.asarray(values, dtype=np.float64)
    bad = np.isnan(values) | (values < 0.0)
    if bad.any():
        as_ext_real(values[np.argmax(bad)].item(), "calibration value")  # raises
    # abs, as the per-value check: -0.0 becomes 0.0
    return CalibrationSummary._of_checked(tuple(np.abs(values).tolist()), transform)

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

Everything here works on arrays of many responses at once.  The
one-response forms (``aggregate_conditionals``, ``transform_estimate``,
``calibration_f_star``) are in ``scalar`` and call these, and a file's
per-prompt estimates, ``EstimateSource``, are in ``io``.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

from .core import CalibrationSummary, InvalidInputError, as_ext_real


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


def build_calibration_summary(
    per_prompt_fstar: Iterable[float], transform: FTransform | None = None
) -> CalibrationSummary:
    """Freeze per-prompt maxima into a summary, which computes their sum once.

    A one-dimensional float64 array is checked by array operations: its
    first NaN or negative value raises the message that the per-value
    check gives it, and -0.0 reads as 0.0, so the summary equals the one
    built value by value.  Any other input is read once, value by value.
    """
    values = per_prompt_fstar
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1):
        return CalibrationSummary(tuple(values), transform)
    bad = np.isnan(values) | (values < 0.0)
    if bad.any():
        as_ext_real(values[np.argmax(bad)].item(), "calibration value")  # raises
    return CalibrationSummary._of_checked(tuple(np.abs(values).tolist()), transform)

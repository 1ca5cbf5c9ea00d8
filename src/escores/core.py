"""Extended nonnegative real arithmetic and the shared data model.

Every score in this package lives on the extended nonnegative half-line:
a finite float >= 0 or +inf, never NaN and never negative.  Division
follows the convention a/0 = 0 when a = 0 and +inf otherwise, so the
reciprocal of 0 is +inf and the reciprocal of +inf is 0.  The remaining
corner, inf/inf, is defined as 1: it is the limit of f/(f + c) as f
grows with c held finite.  The e-value ratio f/(f + S) refines it: when
f = +inf and k of the calibration maxima in S are +inf too, every
infinite value grows together and the ratio tends to 1/(k + 1), which is
1 again for k = 0.  Taking 1 for every k would give each of K infinite
maxima among n + 1 exchangeable ones the e-value n + 1, a mean of K
where the guarantee needs at most 1.  The count k is taken once, when a
``CalibrationSummary`` is built.

Container types are frozen dataclasses over tuples.  They validate
their invariants at construction time and are immutable afterwards, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .estimation import FTransform

INF = math.inf


class EScoresError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(EScoresError, ValueError):
    """An argument violates a documented precondition or invariant."""


class ConfigurationError(EScoresError):
    """Score kinds, calibration data, or report grids do not fit together."""


class InvalidSplitError(EScoresError):
    """A calibration/test split would leave one side empty or is malformed."""


class ResponseSetSizeError(EScoresError):
    """An all-permutation response set would be combinatorially huge."""


# ---------------------------------------------------------------------------
# extended nonnegative reals
# ---------------------------------------------------------------------------


def as_ext_real(value: float, what: str = "value") -> float:
    """Validate and return ``value`` as an extended nonnegative real.

    Accepts ints, floats, and numpy scalars.  Rejects NaN and negatives.
    """
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be a number, got {value!r}") from exc
    if math.isnan(out):
        raise InvalidInputError(f"{what} must not be NaN")
    if out < 0.0:
        raise InvalidInputError(f"{what} must be >= 0, got {out!r}")
    return abs(out)  # -0.0 becomes 0.0, whose reciprocal is +inf


def _sum_checked(values: Sequence[float]) -> tuple[float, int]:
    """``ext_sum`` of values that ``as_ext_real`` has already validated, and how many are +inf."""
    infinite = sum(map(math.isinf, values))
    return (INF if infinite else math.fsum(values)), infinite


def ext_sum(values: Iterable[float]) -> float:
    """Exactly rounded sum of extended nonnegative reals (0.0 for empty)."""
    return _sum_checked([as_ext_real(v, "summand") for v in values])[0]


# ---------------------------------------------------------------------------
# scalar validators for the narrow value types used throughout
# ---------------------------------------------------------------------------


def as_label(value: int, what: str = "label") -> int:
    """Validate a correctness label: 1 means correct, 0 means incorrect."""
    if isinstance(value, bool):
        return int(value)
    if not isinstance(value, int) or value not in (0, 1):
        raise InvalidInputError(f"{what} must be 0 or 1, got {value!r}")
    return value


def as_unit_interval(value: float, what: str = "estimate") -> float:
    """Validate a finite float in [0, 1] (oracle estimates, uniform draws)."""
    out = as_ext_real(value, what)
    if out > 1.0:
        raise InvalidInputError(f"{what} must be <= 1, got {out!r}")
    return out


def as_exact(value: "float | str | int | Fraction", what: str = "value") -> Fraction:
    """Coerce a number or a decimal string to the exact rational it spells.

    Strings are parsed as exact decimals or ratios ("0.1" -> 1/10,
    "1/3").  Floats go through their shortest round-trip decimal
    representation, so 0.1 also means exactly 1/10 rather than the
    underlying binary value.  Bools are refused.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"{what} must be a decimal string, got {value!r}") from exc
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise InvalidInputError(f"{what} must be finite, got {value!r}")
        return Fraction(repr(float(value)))
    raise InvalidInputError(f"{what} must be a number or decimal string, got {value!r}")


def as_unit_fraction(value: "float | str | Fraction", what: str = "fraction") -> Fraction:
    """Coerce an inclusion fraction to an exact rational in [0, 1] (see ``as_exact``)."""
    frac = as_exact(value, what)
    if not (0 <= frac <= 1):
        raise InvalidInputError(f"{what} must lie in [0, 1], got {frac}")
    return frac


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prompt:
    """A prompt identity: a nonempty id string."""

    id: str

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise InvalidInputError("prompt id must be a nonempty string")


@dataclass(frozen=True)
class Response:
    """An ordered arrangement of sub-responses, stored by original index.

    The tuple of indices is the identity of a response: two responses
    are equal exactly when they arrange the same original sub-responses
    in the same order.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        if len(self.indices) == 0:
            raise InvalidInputError("a response must contain at least one sub-response")
        for i in self.indices:
            if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                raise InvalidInputError(f"response indices must be ints >= 1, got {i!r}")
        if len(set(self.indices)) != len(self.indices):
            raise InvalidInputError(f"response indices must be distinct, got {self.indices}")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class LabeledResponseSet:
    """Pairwise-distinct responses, each tagged 1 (correct) or 0 (incorrect)."""

    entries: tuple[tuple[Response, int], ...]

    def __post_init__(self) -> None:
        entries = tuple((resp, as_label(lab)) for resp, lab in self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for resp, _ in entries:
            if not isinstance(resp, Response):
                raise InvalidInputError(f"expected Response, got {resp!r}")
            if resp in seen:
                raise InvalidInputError(f"duplicate response in labeled set: {resp.indices}")
            seen.add(resp)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Response, int]]:
        return iter(self.entries)

    @property
    def responses(self) -> tuple[Response, ...]:
        return tuple(resp for resp, _ in self.entries)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(lab for _, lab in self.entries)

    def incorrect_responses(self) -> tuple[Response, ...]:
        return tuple(resp for resp, lab in self.entries if lab == 0)

    def correct_count(self) -> int:
        return sum(lab for _, lab in self.entries)


@dataclass(frozen=True)
class ScoredResponseSet:
    """Pairwise-distinct responses, each carrying an extended-real score."""

    entries: tuple[tuple[Response, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((resp, as_ext_real(score, "score")) for resp, score in self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for resp, _ in entries:
            if not isinstance(resp, Response):
                raise InvalidInputError(f"expected Response, got {resp!r}")
            if resp in seen:
                raise InvalidInputError(f"duplicate response in scored set: {resp.indices}")
            seen.add(resp)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Response, float]]:
        return iter(self.entries)

    @property
    def responses(self) -> tuple[Response, ...]:
        return tuple(resp for resp, _ in self.entries)

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(score for _, score in self.entries)


@dataclass(frozen=True)
class CalibrationSummary:
    """Per-prompt maxima of transformed incorrect-response values, plus their sum.

    ``n``, ``fstar_sum`` and the count of infinite maxima are computed
    once at construction; scoring a test response against the summary
    then costs O(1) for e-scores, while rank-based p-scores walk
    ``per_prompt_fstar`` in full.  The optional ``transform`` tag records
    which value transform produced the entries so that mismatched score
    requests can be rejected.
    """

    per_prompt_fstar: tuple[float, ...]
    transform: "FTransform | None" = field(default=None)
    fstar_sum: float = field(init=False)
    n: int = field(init=False)
    _n_infinite: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = tuple(as_ext_real(v, "calibration value") for v in self.per_prompt_fstar)
        total, infinite = _sum_checked(values)
        object.__setattr__(self, "per_prompt_fstar", values)
        object.__setattr__(self, "fstar_sum", total)
        object.__setattr__(self, "n", len(values))
        object.__setattr__(self, "_n_infinite", infinite)

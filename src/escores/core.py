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
instances can be shared freely across threads.  The labeled and scored
response sets share one checked entry container, ``_ResponseEntries``;
each supplies only its value check and its name for the messages.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from decimal import Decimal
    from fractions import Fraction

    import numpy as np

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


class DatasetParseError(EScoresError):
    """A dataset line is not valid JSON or not a JSON object."""


class DatasetValidationError(EScoresError):
    """A dataset record is structurally valid JSON but semantically wrong."""


class Strategy(enum.Enum):
    """The post-hoc tolerance rules of ``filtering`` that a grid sweeps."""

    ALPHA_MAX = "alpha-max"
    FRACTION = "fraction"


# ---------------------------------------------------------------------------
# extended nonnegative reals
# ---------------------------------------------------------------------------


def as_ext_real(value: float, what: str = "value") -> float:
    """Validate and return ``value`` as an extended nonnegative real.

    Accepts ints, floats, and numpy scalars.  Rejects NaN and negatives.
    """
    try:
        out = float(value)
    except OverflowError:  # an int or Fraction beyond float range; its digits are not echoed
        raise InvalidInputError(f"{what} is too large for a float") from None
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


def _require_seed(seed: int) -> int:
    """Validate a random seed: a nonnegative int."""
    if not isinstance(seed, int) or seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative int, got {seed!r}")
    return seed


def _seeded_rng(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """numpy's default generator on ``SeedSequence(seed, spawn_key=spawn_key)``.

    ``numpy.random`` imports ``secrets`` for its ``randbits`` alone, and
    ``secrets`` loads OpenSSL through ``hmac``.  So the first call, when
    neither is loaded yet, imports ``numpy.random`` with a stand-in
    ``secrets`` holding only that function, ``SystemRandom().getrandbits``
    as in ``secrets`` itself, and removes the stand-in afterwards: a later
    ``import secrets`` gets the real module.
    """
    _require_seed(seed)
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        import random
        import types

        stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits
        sys.modules["secrets"] = stand_in
        try:
            import numpy.random  # noqa: F401
        finally:
            if sys.modules.get("secrets") is stand_in:
                del sys.modules["secrets"]
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _require_prompt_id(value: object) -> str:
    """Validate a prompt id: a nonempty string of valid Unicode.

    A prompt's uniform draws are keyed by the SHA-256 of its id's UTF-8
    bytes, which a lone surrogate does not have; only an id that is not
    ASCII can hold one.
    """
    if not isinstance(value, str) or not value:
        raise InvalidInputError("prompt id must be a nonempty string")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidInputError(
                f"prompt id holds a lone surrogate U+{ord(value[exc.start]):04X} at "
                f"character {exc.start + 1}; ids must be valid Unicode"
            ) from None
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
    "1/3"); a decimal must be finite and fit a float.  Floats go through their shortest round-trip decimal
    representation, so 0.1 also means exactly 1/10 rather than the
    underlying binary value.  Bools are refused.
    """
    from fractions import Fraction  # loads decimal: only commands that read exact numbers pay

    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if "/" not in value:  # a ratio has no exponent; a decimal's is checked first
            return Fraction(_finite_decimal(value, what))
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"{what} must be a decimal string, got {value!r}") from exc
        as_ext_real(abs(exact), what)  # a ratio above float range is refused as too large
        return exact
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise InvalidInputError(f"{what} must be finite, got {value!r}")
        return Fraction(repr(float(value)))
    raise InvalidInputError(f"{what} must be a number or decimal string, got {value!r}")


def _finite_decimal(text: str, what: str) -> Decimal:
    """``text`` as a finite ``Decimal`` whose float neither overflows nor underflows to 0.

    A ``Decimal`` only stores its exponent, so 1e999999999 is refused at
    once, where ``Fraction`` would first build that power of ten.
    """
    # only decimal strings load it
    from decimal import Context, Decimal, InvalidOperation, Overflow, Underflow

    try:
        number = Decimal(text)
    except InvalidOperation:
        # Decimal refuses an exponent beyond its own range as it does a
        # malformed string.  A context that traps nothing reads that exponent
        # as an overflow or an underflow (a zero stays 0), and only a
        # malformed string as NaN.
        context = Context(traps=[])
        number = context.create_decimal(text.strip())
        if number.is_nan():
            raise InvalidInputError(f"{what} must be a decimal string, got {text!r}") from None
        if context.flags[Overflow] or context.flags[Underflow]:
            size = "large" if context.flags[Overflow] else "small"
            raise InvalidInputError(f"{what} is too {size} for a float") from None
    if not number.is_finite():
        raise InvalidInputError(f"{what} must be finite, got {text!r}")
    as_float = float(number)
    if math.isinf(as_float) or (as_float == 0 and not number.is_zero()):
        raise InvalidInputError(f"{what} is too {'large' if as_float else 'small'} for a float")
    return number


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
    """A prompt identity: a nonempty id string of valid Unicode."""

    id: str

    def __post_init__(self) -> None:
        _require_prompt_id(self.id)


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


class _ResponseEntries:
    """Pairwise-distinct responses, each paired with a value.

    The one entry check of the response-set containers: each value goes
    through the subclass's ``_check``, then every response must be a
    ``Response`` and appear once in the set that ``_set_name`` names.
    """

    entries: tuple
    _set_name: ClassVar[str]

    def __post_init__(self) -> None:
        entries = tuple((resp, self._check(value)) for resp, value in self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for resp, _ in entries:
            if not isinstance(resp, Response):
                raise InvalidInputError(f"expected Response, got {resp!r}")
            if resp in seen:
                raise InvalidInputError(
                    f"duplicate response in {self._set_name} set: {resp.indices}"
                )
            seen.add(resp)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)

    @property
    def responses(self) -> tuple[Response, ...]:
        return tuple(resp for resp, _ in self.entries)


@dataclass(frozen=True)
class LabeledResponseSet(_ResponseEntries):
    """Pairwise-distinct responses, each tagged 1 (correct) or 0 (incorrect)."""

    entries: tuple[tuple[Response, int], ...]
    _set_name: ClassVar[str] = "labeled"

    def _check(self, value: int) -> int:
        return as_label(value)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(lab for _, lab in self.entries)

    def incorrect_responses(self) -> tuple[Response, ...]:
        return tuple(resp for resp, lab in self.entries if lab == 0)

    def correct_count(self) -> int:
        return sum(lab for _, lab in self.entries)


@dataclass(frozen=True)
class ScoredResponseSet(_ResponseEntries):
    """Pairwise-distinct responses, each carrying an extended-real score."""

    entries: tuple[tuple[Response, float], ...]
    _set_name: ClassVar[str] = "scored"

    def _check(self, value: float) -> float:
        return as_ext_real(value, "score")

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(score for _, score in self.entries)


@dataclass(frozen=True)
class CalibrationSummary:
    """Per-prompt maxima of transformed incorrect-response values, plus their sum.

    ``n``, ``fstar_sum`` and the count of infinite maxima are computed
    once at construction; scoring a test response against the summary
    then costs O(1) for e-scores, while rank-based p-scores read each
    entry of ``per_prompt_fstar`` once.  The optional ``transform`` tag
    records which value transform produced the entries so that
    mismatched score requests can be rejected.
    """

    per_prompt_fstar: tuple[float, ...]
    transform: "FTransform | None" = field(default=None)
    fstar_sum: float = field(init=False)
    n: int = field(init=False)
    _n_infinite: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._freeze(tuple(as_ext_real(v, "calibration value") for v in self.per_prompt_fstar))

    def _freeze(self, values: tuple[float, ...]) -> None:
        total, infinite = _sum_checked(values)
        object.__setattr__(self, "per_prompt_fstar", values)
        object.__setattr__(self, "fstar_sum", total)
        object.__setattr__(self, "n", len(values))
        object.__setattr__(self, "_n_infinite", infinite)

    @classmethod
    def _of_checked(
        cls, values: tuple[float, ...], transform: "FTransform | None" = None
    ) -> "CalibrationSummary":
        """The summary of floats that ``as_ext_real`` returns unchanged, not checked again."""
        summary = object.__new__(cls)
        object.__setattr__(summary, "transform", transform)
        summary._freeze(values)
        return summary

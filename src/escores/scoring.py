"""Incorrectness scores for responses: e-scores, p-scores, naive scores.

Low score means likely correct, high score means likely incorrect.  For
a test response with transformed value f against a calibration summary
of n per-prompt maxima summing to S, the e-score is the reciprocal of
the e-value

    (n + 1) * f / (f + S),

computed under the extended-real rules that ``kind_scores`` states, the
one array implementation of every score; the per-response functions of
``scalar`` validate their input and call it.  The e-score of a response
whose value ties the calibration maxima still certifies the advertised
error rate, which is what makes post-hoc tolerance selection sound.

The combined e-score averages the reciprocals of the per-transform
e-scores and inverts the mean, staying within a factor of the number of
components of the smallest one.  The p-score is the usual rank statistic
(1 + #{f <= fstar_i}) / (n + 1); its randomized variant breaks ties with
a uniform draw and recovers the plain p-score at u = 1.  Naive scores
invert the transformed estimate directly and use no calibration at all.

The uniform draws come from one SplitMix64 finalizer, ``_mix``: it both
absorbs the seed and split index into a prompt's starting state and
turns that state into the prompt's stream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import CalibrationSummary, InvalidInputError, _from_package
from .estimation import FTransform, _e_values

try:
    # CPython's own SHA-256, as random.py takes its sha512: hashlib would
    # load OpenSSL's libcrypto for this one digest
    from _sha2 import sha256 as _sha256
except ImportError:  # Python 3.10 and 3.11
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256 as _sha256


class ScoreFamily(enum.Enum):
    E_SCORE = "e"
    E_SCORE_COMBINED = "e-combined"
    P_SCORE = "p"
    P_SCORE_RANDOMIZED = "p-randomized"
    NAIVE = "naive"


@dataclass(frozen=True)
class ScoreKind:
    """A score family plus, where the family needs one, a transform choice."""

    family: ScoreFamily
    transform: FTransform | None = None

    def __post_init__(self) -> None:
        needs = self.family in (ScoreFamily.E_SCORE, ScoreFamily.NAIVE)
        if needs and self.transform is None:
            raise InvalidInputError(f"{self.family.value} scores need a transform option")
        if not needs and self.transform is not None:
            raise InvalidInputError(f"{self.family.value} scores take no transform option")

    @property
    def summary_transforms(self) -> frozenset[FTransform]:
        """The transforms whose calibration summaries ``kind_scores`` reads for this kind.

        The p kinds read their default ``rank_transform``, the identity.
        """
        if self.family is ScoreFamily.E_SCORE:
            return frozenset({self.transform})
        if self.family is ScoreFamily.E_SCORE_COMBINED:
            return frozenset(FTransform)
        return frozenset() if self.family is ScoreFamily.NAIVE else frozenset({FTransform.IDENTITY})

    @property
    def name(self) -> str:
        return self.family.value + ("" if self.transform is None else str(self.transform.option))

    @classmethod
    def parse(cls, name: str) -> "ScoreKind":
        """The member of ``ALL_SCORE_KINDS`` that ``name`` (or its alias) names."""
        text = name.strip().lower()
        aliases = {"p-rand": "p-randomized", "prand": "p-randomized", "e-comb": "e-combined"}
        text = aliases.get(text, text)
        for kind in ALL_SCORE_KINDS:
            if kind.name == text:
                return kind
        expected = ", ".join(kind.name for kind in ALL_SCORE_KINDS)
        raise InvalidInputError(f"unknown score kind {name!r}; expected one of {expected}")


#: Every scoreable kind, in report order.
ALL_SCORE_KINDS: tuple[ScoreKind, ...] = (
    ScoreKind(ScoreFamily.E_SCORE, FTransform.IDENTITY),
    ScoreKind(ScoreFamily.E_SCORE, FTransform.INVERSE_COMPLEMENT),
    ScoreKind(ScoreFamily.E_SCORE, FTransform.ODDS),
    ScoreKind(ScoreFamily.E_SCORE_COMBINED),
    ScoreKind(ScoreFamily.P_SCORE),
    ScoreKind(ScoreFamily.P_SCORE_RANDOMIZED),
    ScoreKind(ScoreFamily.NAIVE, FTransform.IDENTITY),
    ScoreKind(ScoreFamily.NAIVE, FTransform.INVERSE_COMPLEMENT),
    ScoreKind(ScoreFamily.NAIVE, FTransform.ODDS),
)


def _parse_kinds(text: str) -> tuple[ScoreKind, ...]:
    """The kinds of a comma list of ``ScoreKind.parse`` names, or "all": ``--scores``."""
    if text.strip() == "all":
        return ALL_SCORE_KINDS
    kinds: list[ScoreKind] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise InvalidInputError(f"empty entry in score list {text!r}")
        kind = ScoreKind.parse(piece)
        if kind in kinds:
            raise InvalidInputError(f"score kind {kind.name!r} listed twice")
        kinds.append(kind)
    return tuple(kinds)


def _prompt_key(prompt_id: str) -> int:
    digest = _sha256(prompt_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-gamma state
# increment and the two multipliers of its finalizer.
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on a uint64 array; products wrap mod 2**64.

    Every operand is uint64: a numpy uint64 scalar warns on overflow (so
    ``_absorb`` mixes one-element arrays), and a uint64 mixed with an
    int64 promotes to float64.
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))


def _absorb(state: int, value: int) -> int:
    """Mix ``value``'s 64-bit words into ``state``, low word first (at least one)."""
    while True:
        state = int(_mix(np.array([state ^ (value & _MASK64)], dtype=np.uint64))[0])
        value >>= 64
        if not value:
            return state


def _uniforms(master_seed: int, split_index: int, keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[i]`` uniforms of prompt i's stream, prompt after prompt.

    ``keys`` holds the prompts' ``_prompt_key``s as uint64.  A prompt's
    SplitMix64 generator starts at state ``mix(key ^ mix(mix(seed) ^
    split))`` (a seed or split of 2**64 or more is absorbed 64 bits at a
    time), and draw j is its output j, ``mix(state + (j+1) * gamma)``,
    whose top 53 bits make a float in [0, 1).  Each draw is a pure
    function of (seed, split, key, j), so draws depend neither on which
    prompts are drawn together nor on their order.
    """
    if master_seed < 0 or split_index < 0:
        raise InvalidInputError("master seed and split index must be >= 0")
    base = np.uint64(_absorb(_absorb(0, master_seed), split_index))
    counts = np.asarray(counts, dtype=np.int64)
    states = np.repeat(_mix(keys ^ base), counts)
    firsts = np.repeat(np.cumsum(counts) - counts, counts)
    ordinals = (np.arange(states.size, dtype=np.int64) - firsts + 1).astype(np.uint64)
    bits = _mix(states + ordinals * np.uint64(_GAMMA)) >> np.uint64(11)
    return bits.astype(np.float64) * 2.0**-53


# ---------------------------------------------------------------------------
# the scores themselves
# ---------------------------------------------------------------------------


def kind_scores(
    kind: ScoreKind,
    values: Mapping[FTransform, np.ndarray],
    summaries: Mapping[FTransform, CalibrationSummary],
    u: np.ndarray | None = None,
    *,
    rank_transform: FTransform = FTransform.IDENTITY,
) -> np.ndarray:
    """Score an array of responses under one kind; every score formula lives here.

    ``values[t]`` holds the responses' values under transform t, so
    ``values[IDENTITY]`` holds their estimates, which the naive kinds
    read.  An e kind reads only the sum and count of ``summaries[t]``.
    The p kinds rank ``values[rank_transform]`` against the maxima of
    ``summaries[rank_transform]`` through ``_p_scores``; the randomized
    one breaks ties with ``u``, one uniform per response.

    Arithmetic is IEEE on the extended nonnegative reals, under the
    conventions of ``core``: a/0 = +inf for a > 0, 0/0 = 0,
    finite/inf = 0 and inf/inf = 1, except that the e-value ratio of
    f = +inf against k infinite calibration maxima is 1/(k + 1).  So
    f = +inf scores (k + 1)/(n + 1), the floor 1/(n+1) when no maximum is
    infinite; f = 0 scores +inf, an infinite calibration sum sends every
    finite f to +inf, and a zero component sends the combined score to 0.
    """
    if kind.family is ScoreFamily.NAIVE:
        assert kind.transform is not None
        return _naive_scores(values[FTransform.IDENTITY], kind.transform)
    if kind.family is ScoreFamily.E_SCORE:
        assert kind.transform is not None
        return _e_scores(values[kind.transform], summaries[kind.transform])
    if kind.family is ScoreFamily.E_SCORE_COMBINED:
        return _combined_scores([_e_scores(values[t], summaries[t]) for t in FTransform])
    if kind.family is ScoreFamily.P_SCORE:
        return _p_scores(values[rank_transform], summaries[rank_transform])
    assert u is not None
    return _p_scores(values[rank_transform], summaries[rank_transform], u)


def _exceedances(
    ordered: np.ndarray, f: np.ndarray, strict: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """#{v >= f} for each entry of ``f`` over ``ordered`` (ascending), and #{v > f} when ``strict``.

    The one rank count of the package: ``_p_scores`` and
    ``equivalence.threshold_equivalence_check`` both read it.  Only the
    tie-randomized p-score needs the strict count; without ``strict``
    the second entry is None.
    """
    n = ordered.size
    at_least = n - np.searchsorted(ordered, f, side="left")
    return at_least, (n - np.searchsorted(ordered, f, side="right") if strict else None)


def _p_scores(f: np.ndarray, cal: CalibrationSummary, u: "np.ndarray | None" = None) -> np.ndarray:
    """The p-score of each entry of ``f``, tie-randomized by ``u`` when given.

    The one p formula of the package: it ranks ``f`` through
    ``_exceedances`` among the summary's n maxima, read once each and
    sorted.
    """
    ranked = np.sort(np.fromiter(cal.per_prompt_fstar, np.float64, cal.n))
    at_least, above = _exceedances(ranked, f, strict=u is not None)
    if u is None:
        return (1 + at_least) / (cal.n + 1)
    return (u * (1 + at_least - above) + above) / (cal.n + 1)


def _e_scores(f: np.ndarray, cal: CalibrationSummary) -> np.ndarray:
    total = cal.fstar_sum
    # the count is read only where the limit needs it, so a finite
    # e-score reads just the sum and n
    infinite = cal._n_infinite if math.isinf(total) and np.isinf(f).any() else 0
    with np.errstate(all="ignore"):
        return 1.0 / _e_values(f, total, cal.n, infinite)


def _combined_scores(components: Sequence[np.ndarray]) -> np.ndarray:
    with np.errstate(all="ignore"):
        return 1.0 / (sum(1.0 / s for s in components) / len(components))


def _naive_scores(estimates: np.ndarray, transform: FTransform) -> np.ndarray:
    with np.errstate(all="ignore"):
        if transform is FTransform.IDENTITY:
            return 1.0 / estimates
        if transform is FTransform.INVERSE_COMPLEMENT:
            return 1.0 - estimates
        if transform is FTransform.ODDS:
            return (1.0 - estimates) / estimates
    raise InvalidInputError(f"unknown transform {transform!r}")


#: Names of ``scalar`` that nothing here calls, but that the traced
#: benchmark run (perfbench/tracing.py) rebinds on this module: read from
#: the package when first asked for (PEP 562), so no command loads them.
_DEFERRED = frozenset({"aggregate_conditionals", "transform_estimate", "uniform_block"})
__getattr__ = _from_package(globals(), _DEFERRED)

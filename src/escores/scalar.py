"""The scalar reference forms: one value, one response or one prompt at a time.

Library callers and the acceptance tests use these; no command does.
Each validates its input and calls the array code that the commands run
(``scoring.kind_scores`` and ``scoring._uniforms``, ``estimation._chain``,
``estimation.transform_values`` and ``estimation.masked_f_star``,
``response_sets._label_table``, ``core.inclusion_target``), so every
formula still has one implementation.  The labeled and scored response
sets and the filtering strategies over a scored set live here too, as
only these forms build them.

Only the package's lazy exports load this module, on first use.
``evaluation`` and ``scoring`` hand on the names of it that the traced
benchmark run (perfbench/tracing.py) rebinds on them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    CalibrationSummary,
    ConfigurationError,
    InvalidInputError,
    Prompt,
    Response,
    _require_prompt_id,
    as_exact,
    as_ext_real,
    as_unit_interval,
    inclusion_target,
)
from .estimation import FTransform, _chain, masked_f_star, transform_values
from .response_sets import GeneratedResponse, _label_table
from .scoring import (
    ScoreFamily,
    ScoreKind,
    _combined_scores,
    _e_scores,
    _naive_scores,
    _p_scores,
    _prompt_key,
    _uniforms,
    kind_scores,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from fractions import Fraction

    from .io import EstimateSource


# ---------------------------------------------------------------------------
# labeled and scored response sets
# ---------------------------------------------------------------------------


def as_label(value: int, what: str = "label") -> int:
    """Validate a correctness label: 1 means correct, 0 means incorrect."""
    if isinstance(value, bool):
        return int(value)
    if not isinstance(value, int) or value not in (0, 1):
        raise InvalidInputError(f"{what} must be 0 or 1, got {value!r}")
    return value


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


def label_response_set(
    generated: GeneratedResponse, responses: "list[Response] | tuple[Response, ...]"
) -> LabeledResponseSet:
    """Label each response 0 (incorrect) iff it contains the first-error step.

    A fully correct generation labels everything 1.  Responses must draw
    their indices from the generation's steps.  The one-row call of
    ``response_sets._label_table``.
    """
    responses = tuple(responses)
    labels = _label_table(responses, len(generated))[generated.first_error_index or 0]
    return LabeledResponseSet(tuple(zip(responses, labels.tolist())))


# ---------------------------------------------------------------------------
# estimates and calibration maxima
# ---------------------------------------------------------------------------


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


def transform_estimate(estimate: float, transform: FTransform) -> float:
    """Apply one of the three monotone transforms to an estimate in [0, 1]."""
    return float(transform_values(np.float64(as_unit_interval(estimate)), transform))


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


# ---------------------------------------------------------------------------
# uniform draws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomDraw:
    """A uniform tie-breaking draw plus the derivation path that produced it."""

    u: float
    seed_path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        as_unit_interval(self.u, "uniform draw")
        object.__setattr__(self, "seed_path", tuple(self.seed_path))


def uniform_block(master_seed: int, split_index: int, prompt_id: str, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the (seed, split, prompt) stream.

    The one-prompt view of ``scoring._uniforms``: a pure function of its
    arguments, so draws never depend on evaluation order across prompts
    or splits, and a shorter block is a prefix of a longer one.
    """
    keys = np.asarray([_prompt_key(_require_prompt_id(prompt_id))], dtype=np.uint64)
    return _uniforms(master_seed, split_index, keys, np.asarray([count]))


def uniform_draw(
    master_seed: int, split_index: int, prompt_id: str, response_ordinal: int
) -> RandomDraw:
    """Deterministic uniform draw for one (split, prompt, response) triple."""
    if response_ordinal < 0:
        raise InvalidInputError("response ordinal must be >= 0")
    block = uniform_block(master_seed, split_index, prompt_id, response_ordinal + 1)
    return RandomDraw(
        u=float(block[response_ordinal]),
        seed_path=(master_seed, split_index, _prompt_key(prompt_id), response_ordinal),
    )


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def e_score(f_test: float, cal: CalibrationSummary) -> float:
    """Reciprocal e-value of a test response's transformed value.

    Touches only the summary's precomputed sum and count, never the
    per-prompt list, so each call is O(1) once the summary exists.
    Monotone nonincreasing in f_test, with range [1/(n+1), +inf].
    """
    return float(_e_scores(np.float64(as_ext_real(f_test, "test value")), cal))


def combined_e_score(components: Sequence[float]) -> float:
    """Invert the mean reciprocal of several e-scores.

    The reciprocals are e-values, and an average of e-values is again an
    e-value, so the combination keeps the same guarantee while letting
    any single small component dominate: the result is at most
    len(components) times the smallest component.
    """
    if len(components) == 0:
        raise InvalidInputError("cannot combine zero e-scores")
    return float(_combined_scores(np.asarray([as_ext_real(s, "e-score") for s in components])))


def p_score(f_test: float, cal: CalibrationSummary) -> float:
    """Rank of f_test among the calibration maxima, as a conformal p-value.

    Counts weak exceedances with exact float comparison (ties at +inf
    count), reading each per-prompt maximum once: Theta(n) per call.
    Range [1/(n+1), 1].  ``kind_scores`` reads the maxima once for many
    responses at a time.
    """
    return float(_p_scores(np.float64(as_ext_real(f_test, "test value")), cal))


def p_score_randomized(f_test: float, cal: CalibrationSummary, draw: RandomDraw) -> float:
    """Tie-randomized p-score; u = 1 recovers the plain p-score exactly."""
    return float(_p_scores(np.float64(as_ext_real(f_test, "test value")), cal, np.float64(draw.u)))


def naive_score(estimate: float, transform: FTransform) -> float:
    """Reciprocal transformed estimate, with no calibration correction."""
    return float(_naive_scores(np.float64(as_unit_interval(estimate)), transform))


def _require_summary(
    cal: object, transform: FTransform | None, kind: ScoreKind
) -> CalibrationSummary:
    if not isinstance(cal, CalibrationSummary):
        raise ConfigurationError(
            f"score kind {kind.name!r} needs a single calibration summary, got {type(cal).__name__}"
        )
    if transform is not None and cal.transform is not None and cal.transform is not transform:
        raise ConfigurationError(
            f"score kind {kind.name!r} wants transform {transform.name} but the summary "
            f"was built with {cal.transform.name}"
        )
    return cal


def _summaries_for(kind: ScoreKind, cal: object) -> dict[FTransform, CalibrationSummary]:
    """The validated summaries ``kind`` reads from ``cal``, keyed by transform."""
    if kind.family is ScoreFamily.NAIVE:
        return {}
    if kind.family is not ScoreFamily.E_SCORE_COMBINED:
        summary = _require_summary(cal, kind.transform, kind)
        return {kind.transform or summary.transform or FTransform.IDENTITY: summary}
    if not isinstance(cal, Mapping) or any(t not in cal for t in FTransform):
        raise ConfigurationError(
            "the combined e-score needs a mapping of all three transforms to summaries"
        )
    return {t: _require_summary(cal[t], t, kind) for t in FTransform}


def score_response_set(
    prompt: Prompt,
    responses: Sequence[Response],
    estimates: EstimateSource,
    kind: ScoreKind,
    cal: "CalibrationSummary | Mapping[FTransform, CalibrationSummary] | None" = None,
    *,
    master_seed: int = 0,
    split_index: int = 0,
) -> ScoredResponseSet:
    """Score every response of one prompt under a single score kind.

    ``cal`` is a single summary for e/p kinds, a mapping from all three
    transforms to summaries for the combined kind, and unused for naive
    kinds.  p kinds rank the values under the summary's own transform
    (identity when untagged).  Randomized p-scores draw their uniform per
    response ordinal from (master_seed, split_index, prompt id).
    """
    summaries = _summaries_for(kind, cal)
    estimate_of = _chained_estimates(estimates, responses)
    values = {t: transform_values(estimate_of, t) for t in FTransform}
    u = None
    rank_transform = FTransform.IDENTITY
    if kind.family in (ScoreFamily.P_SCORE, ScoreFamily.P_SCORE_RANDOMIZED):
        (rank_transform,) = summaries
    if kind.family is ScoreFamily.P_SCORE_RANDOMIZED:
        u = uniform_block(master_seed, split_index, prompt.id, len(responses))
    scores = kind_scores(kind, values, summaries, u, rank_transform=rank_transform)
    return ScoredResponseSet(tuple(zip(tuple(responses), scores.tolist())))


# ---------------------------------------------------------------------------
# filtering a scored set
# ---------------------------------------------------------------------------
#
# A response is kept when its score is at or below the working tolerance.
# Two strategies pick that tolerance after seeing the scores: the
# max-constrained strategy uses the largest score still within a stated
# budget, and the fractional strategy uses whatever tolerance admits a
# target share of the set.  Both report the tolerance they actually used,
# which is what the size-distortion accounting downstream divides by.


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


def as_unit_fraction(value: "float | str | Fraction", what: str = "fraction") -> Fraction:
    """Coerce an inclusion fraction to an exact rational in [0, 1] (see ``core.as_exact``)."""
    frac = as_exact(value, what)
    if not (0 <= frac <= 1):
        raise InvalidInputError(f"{what} must lie in [0, 1], got {frac}")
    return frac


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

"""E-scores, p-scores, naive scores, and the per-prompt scoring driver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from escores import (
    ALL_SCORE_KINDS,
    ConfigurationError,
    EstimateSource,
    FTransform,
    InvalidInputError,
    Prompt,
    RandomDraw,
    Response,
    ScoreFamily,
    ScoreKind,
    build_calibration_summary,
    combined_e_score,
    e_score,
    naive_score,
    p_score,
    p_score_randomized,
    score_response_set,
    uniform_block,
    uniform_draw,
)

import oracles
from escores.scoring import _prompt_key, _uniforms

finite_values = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
ext_values = st.one_of(finite_values, st.just(math.inf))


def summary_of(*values: float):
    return build_calibration_summary(values)


# ---------------------------------------------------------------------------
# score kind bookkeeping
# ---------------------------------------------------------------------------


def test_score_kind_names_and_parse_round_trip() -> None:
    names = [kind.name for kind in ALL_SCORE_KINDS]
    assert names == [
        "e1",
        "e2",
        "e3",
        "e-combined",
        "p",
        "p-randomized",
        "naive1",
        "naive2",
        "naive3",
    ]
    for kind in ALL_SCORE_KINDS:
        assert ScoreKind.parse(kind.name) == kind
    assert ScoreKind.parse("p-rand") == ScoreKind(ScoreFamily.P_SCORE_RANDOMIZED)
    with pytest.raises(InvalidInputError):
        ScoreKind.parse("e4")
    with pytest.raises(InvalidInputError):
        ScoreKind(ScoreFamily.E_SCORE)  # transform required
    with pytest.raises(InvalidInputError):
        ScoreKind(ScoreFamily.P_SCORE, FTransform.IDENTITY)  # and forbidden here


# ---------------------------------------------------------------------------
# e-scores
# ---------------------------------------------------------------------------


def test_e_score_worked_example() -> None:
    # oracle: f=2 against maxima [2, 4] gives (3 * 2/8)^{-1} = 4/3
    assert oracles.e_score(2.0, [2.0, 4.0]) == pytest.approx(4.0 / 3.0)
    assert e_score(2.0, summary_of(2.0, 4.0)) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_e_score_endpoints() -> None:
    cal = summary_of(2.0, 4.0)
    assert e_score(0.0, cal) == math.inf
    # an infinitely confident wrong... no: an infinite test value floors the score
    assert e_score(math.inf, cal) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # infinite calibration mass drowns any finite test value
    assert e_score(5.0, summary_of(math.inf, 1.0)) == math.inf
    # an infinite test value against k = 1 infinite maximum: scale both to M,
    # so f/(f + S) = M/(2M + 1) -> 1/(k + 1) = 1/2 and the score is
    # (k + 1)/(n + 1) = 2/3, the p-score of +inf, not the floor 1/3
    assert e_score(math.inf, summary_of(math.inf, 1.0)) == pytest.approx(2.0 / 3.0)


def test_e_score_all_zero_calibration() -> None:
    cal = summary_of(0.0, 0.0)
    assert e_score(1.0, cal) == pytest.approx(1.0 / 3.0)
    assert e_score(0.0, cal) == math.inf


@given(f=ext_values, values=st.lists(ext_values, min_size=1, max_size=8))
def test_e_score_matches_oracle(f: float, values: list[float]) -> None:
    assert oracles.matches(e_score(f, summary_of(*values)), oracles.e_score(f, values))


@given(
    a=finite_values,
    b=finite_values,
    values=st.lists(finite_values, min_size=1, max_size=8),
)
def test_e_score_monotone_nonincreasing(a: float, b: float, values: list[float]) -> None:
    lo, hi = min(a, b), max(a, b)
    cal = summary_of(*values)
    assert e_score(hi, cal) <= e_score(lo, cal)


@given(f=ext_values, values=st.lists(ext_values, min_size=1, max_size=8))
def test_e_score_floor(f: float, values: list[float]) -> None:
    cal = summary_of(*values)
    assert e_score(f, cal) >= 1.0 / (cal.n + 1) - 1e-15


# ---------------------------------------------------------------------------
# combined e-score
# ---------------------------------------------------------------------------


def test_combined_worked_example() -> None:
    # oracle: components (1, 2, 4) -> 3 / (1 + 1/2 + 1/4) = 12/7
    assert oracles.combined_e_score([1.0, 2.0, 4.0]) == pytest.approx(12.0 / 7.0)
    assert combined_e_score([1.0, 2.0, 4.0]) == pytest.approx(12.0 / 7.0, rel=1e-12)


def test_combined_degenerate_cases() -> None:
    assert combined_e_score([5.0, 5.0, 5.0]) == pytest.approx(5.0, rel=1e-12)
    # one zero component forces the combination to zero
    assert combined_e_score([0.0, 2.0, 4.0]) == 0.0
    assert combined_e_score([math.inf, math.inf]) == math.inf
    with pytest.raises(InvalidInputError):
        combined_e_score([])


@given(st.lists(st.floats(min_value=1e-9, max_value=1e9), min_size=1, max_size=5))
def test_combined_bounds(components: list[float]) -> None:
    got = combined_e_score(components)
    assert oracles.matches(got, oracles.combined_e_score(components))
    assert min(components) * (1 - 1e-12) <= got
    assert got <= len(components) * min(components) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# p-scores
# ---------------------------------------------------------------------------


def test_p_score_worked_example() -> None:
    # oracle: f=3 against [1, 2, 4, 5] -> (1 + 2)/5
    assert oracles.p_score(3.0, [1.0, 2.0, 4.0, 5.0]) == pytest.approx(0.6)
    assert p_score(3.0, summary_of(1.0, 2.0, 4.0, 5.0)) == pytest.approx(0.6, rel=1e-12)


def test_p_score_counts_ties() -> None:
    assert p_score(2.0, summary_of(2.0, 2.0, 5.0)) == pytest.approx(1.0)
    assert p_score(math.inf, summary_of(math.inf, 1.0)) == pytest.approx(2.0 / 3.0)
    assert p_score(6.0, summary_of(1.0, 2.0)) == pytest.approx(1.0 / 3.0)


def test_p_score_empty_calibration_is_one() -> None:
    assert p_score(7.0, build_calibration_summary([])) == 1.0


def test_p_score_randomized_worked_example() -> None:
    # oracle: f=3 against [3, 5], u=1/2 -> (0.5 * (1 + 1) + 1)/3 = 2/3
    assert oracles.p_score_randomized(3.0, [3.0, 5.0], 0.5) == pytest.approx(2.0 / 3.0)
    got = p_score_randomized(3.0, summary_of(3.0, 5.0), RandomDraw(0.5))
    assert got == pytest.approx(2.0 / 3.0, rel=1e-12)


@given(f=ext_values, values=st.lists(ext_values, min_size=1, max_size=8))
def test_p_score_randomized_at_one_recovers_plain(f: float, values: list[float]) -> None:
    cal = summary_of(*values)
    assert p_score_randomized(f, cal, RandomDraw(1.0)) == p_score(f, cal)


@given(
    f=ext_values,
    values=st.lists(ext_values, min_size=1, max_size=8),
    u=st.floats(min_value=0.0, max_value=1.0),
)
def test_p_score_randomized_never_exceeds_plain(f: float, values: list[float], u: float) -> None:
    cal = summary_of(*values)
    assert p_score_randomized(f, cal, RandomDraw(u)) <= p_score(f, cal) + 1e-15
    assert oracles.matches(
        p_score_randomized(f, cal, RandomDraw(u)),
        oracles.p_score_randomized(f, values, u),
    )


def test_scores_reject_nan_and_negative_inputs() -> None:
    cal = summary_of(1.0)
    for bad in (math.nan, -1.0):
        with pytest.raises(InvalidInputError):
            e_score(bad, cal)
        with pytest.raises(InvalidInputError):
            p_score(bad, cal)


# ---------------------------------------------------------------------------
# naive scores
# ---------------------------------------------------------------------------


def test_naive_worked_example() -> None:
    # oracle: estimate 1/4 under the identity option -> 4
    assert oracles.naive_score(0.25, 1) == pytest.approx(4.0)
    assert naive_score(0.25, FTransform.IDENTITY) == pytest.approx(4.0, rel=1e-12)
    assert naive_score(0.25, FTransform.INVERSE_COMPLEMENT) == pytest.approx(0.75)
    assert naive_score(0.25, FTransform.ODDS) == pytest.approx(3.0, rel=1e-12)


def test_naive_endpoints() -> None:
    assert naive_score(0.0, FTransform.IDENTITY) == math.inf
    assert naive_score(1.0, FTransform.IDENTITY) == 1.0
    assert naive_score(1.0, FTransform.INVERSE_COMPLEMENT) == 0.0
    assert naive_score(0.0, FTransform.ODDS) == math.inf
    assert naive_score(1.0, FTransform.ODDS) == 0.0
    with pytest.raises(InvalidInputError):
        naive_score(1.5, FTransform.IDENTITY)


@given(est=st.floats(min_value=0.0, max_value=1.0))
def test_naive_matches_oracle(est: float) -> None:
    for t in FTransform:
        assert oracles.matches(naive_score(est, t), oracles.naive_score(est, t.option))


# ---------------------------------------------------------------------------
# deterministic uniform draws
# ---------------------------------------------------------------------------


def test_uniform_draws_are_reproducible_and_keyed() -> None:
    a = uniform_draw(7, 3, "prompt-a", 2)
    b = uniform_draw(7, 3, "prompt-a", 2)
    assert a == b
    assert 0.0 <= a.u <= 1.0
    assert a.seed_path[:2] == (7, 3)
    # different prompt, seed, split, or ordinal moves the draw
    assert uniform_draw(7, 3, "prompt-b", 2).u != a.u
    assert uniform_draw(8, 3, "prompt-a", 2).u != a.u
    assert uniform_draw(7, 4, "prompt-a", 2).u != a.u


def test_uniform_block_prefix_consistency() -> None:
    short = uniform_block(0, 0, "p", 3)
    long = uniform_block(0, 0, "p", 5)
    assert list(short) == list(long[:3])
    with pytest.raises(InvalidInputError):
        uniform_block(-1, 0, "p", 1)



def test_uniform_seed_words_above_64_bits_count() -> None:
    """A seed's 64-bit words are absorbed one at a time; negative keys are refused."""
    high, low = uniform_block(2**64 + 7, 0, "p", 4), uniform_block(7, 0, "p", 4)
    assert (high != low).all()
    for seed, split in ((-1, 0), (0, -1)):
        with pytest.raises(InvalidInputError, match=r"^master seed and split index must be >= 0$"):
            uniform_block(seed, split, "p", 1)


def test_uniform_stream_passes_five_sigma_checks() -> None:
    """100,000 draws over 20,000 consecutive ids at seed 0.

    Every bound is five standard deviations of its statistic under
    independent uniform draws, fixed from that alone.
    """
    n_prompts, per_prompt = 20_000, 5
    keys = np.asarray(
        [_prompt_key(f"synthetic-{i:06d}") for i in range(n_prompts)], dtype=np.uint64
    )
    u = _uniforms(0, 0, keys, np.full(n_prompts, per_prompt))
    n = u.size
    assert n == 100_000
    assert ((u >= 0.0) & (u < 1.0)).all()
    assert abs(u.mean() - 0.5) <= 5 * math.sqrt(1 / 12 / n)
    counts, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    assert np.abs(counts - n / 10).max() <= 5 * math.sqrt(n * 0.1 * 0.9)
    first = u[::per_prompt]  # each prompt's first draw, in id order
    lag1 = np.corrcoef(first[:-1], first[1:])[0, 1]
    assert abs(lag1) <= 5 / math.sqrt(first.size - 1)


# ---------------------------------------------------------------------------
# the per-prompt driver
# ---------------------------------------------------------------------------


def make_inputs():
    prompt = Prompt("driver-prompt")
    responses = [Response((1,)), Response((1, 2))]
    estimates = EstimateSource(conditionals={1: 0.8, 2: 0.5})
    return prompt, responses, estimates


def test_driver_e_score_path() -> None:
    prompt, responses, estimates = make_inputs()
    cal = build_calibration_summary([0.3, 0.9], FTransform.IDENTITY)
    scored = score_response_set(
        prompt, responses, estimates, ScoreKind.parse("e1"), cal
    )
    assert [r.indices for r in scored.responses] == [(1,), (1, 2)]
    assert scored.scores[0] == pytest.approx(oracles.e_score(0.8, [0.3, 0.9]), rel=1e-12)
    assert scored.scores[1] == pytest.approx(oracles.e_score(0.4, [0.3, 0.9]), rel=1e-12)
    # longer prefixes cannot look more correct
    assert scored.scores[1] >= scored.scores[0]


def test_driver_rejects_mismatched_summary_transform() -> None:
    prompt, responses, estimates = make_inputs()
    cal = build_calibration_summary([0.3], FTransform.ODDS)
    with pytest.raises(ConfigurationError):
        score_response_set(prompt, responses, estimates, ScoreKind.parse("e1"), cal)
    with pytest.raises(ConfigurationError):
        score_response_set(prompt, responses, estimates, ScoreKind.parse("e1"), None)


def test_driver_combined_needs_all_transforms() -> None:
    prompt, responses, estimates = make_inputs()
    kind = ScoreKind.parse("e-combined")
    partial = {FTransform.IDENTITY: build_calibration_summary([0.5], FTransform.IDENTITY)}
    with pytest.raises(ConfigurationError):
        score_response_set(prompt, responses, estimates, kind, partial)

    summaries = {
        t: build_calibration_summary([oracles.transform(0.5, t.option)], t)
        for t in FTransform
    }
    scored = score_response_set(prompt, responses, estimates, kind, summaries)
    expected = oracles.combined_e_score(
        [
            oracles.e_score(oracles.transform(0.8, opt), [oracles.transform(0.5, opt)])
            for opt in (1, 2, 3)
        ]
    )
    assert scored.scores[0] == pytest.approx(expected, rel=1e-12)


def test_driver_p_kinds_use_summary_transform() -> None:
    prompt, responses, estimates = make_inputs()
    cal = build_calibration_summary([4.0, 1.0], FTransform.INVERSE_COMPLEMENT)
    scored = score_response_set(prompt, responses, estimates, ScoreKind.parse("p"), cal)
    assert scored.scores[0] == pytest.approx(
        oracles.p_score(oracles.transform(0.8, 2), [4.0, 1.0]), rel=1e-12
    )

    plain = build_calibration_summary([0.5, 0.9])
    scored = score_response_set(prompt, responses, estimates, ScoreKind.parse("p"), plain)
    assert scored.scores[0] == pytest.approx(oracles.p_score(0.8, [0.5, 0.9]), rel=1e-12)


def test_driver_randomized_p_is_reproducible() -> None:
    prompt, responses, estimates = make_inputs()
    cal = build_calibration_summary([0.8, 0.4])
    kind = ScoreKind.parse("p-randomized")
    first = score_response_set(
        prompt, responses, estimates, kind, cal, master_seed=5, split_index=2
    )
    second = score_response_set(
        prompt, responses, estimates, kind, cal, master_seed=5, split_index=2
    )
    assert first.scores == second.scores
    moved = score_response_set(
        prompt, responses, estimates, kind, cal, master_seed=6, split_index=2
    )
    assert first.scores != moved.scores
    # the draws match the keyed stream exactly
    block = uniform_block(5, 2, prompt.id, 2)
    expected = oracles.p_score_randomized(0.8, [0.8, 0.4], float(block[0]))
    assert first.scores[0] == pytest.approx(expected, rel=1e-12)


def test_driver_naive_needs_no_calibration() -> None:
    prompt, responses, estimates = make_inputs()
    scored = score_response_set(prompt, responses, estimates, ScoreKind.parse("naive1"))
    assert scored.scores[0] == pytest.approx(1.25, rel=1e-12)
    assert scored.scores[1] == pytest.approx(2.5, rel=1e-12)


def test_score_response_set_reads_negative_zero_as_zero() -> None:
    """An estimate of -0.0 is 0: its reciprocal scores are +inf, never -inf."""
    estimates = EstimateSource(conditionals={1: -0.0})
    cal = build_calibration_summary([0.5], FTransform.IDENTITY)
    for name in ("naive1", "naive3", "e1"):
        scored = score_response_set(
            Prompt("z"), [Response((1,))], estimates, ScoreKind.parse(name), cal
        )
        assert scored.scores == (math.inf,), name


def test_driver_scores_fall_as_estimates_rise() -> None:
    """Across a family of prompts, a higher estimate never scores worse."""
    cal = build_calibration_summary([0.2, 0.5, 0.7], FTransform.IDENTITY)
    kinds = [ScoreKind.parse("e1"), ScoreKind.parse("p"), ScoreKind.parse("naive1")]
    estimates = [0.1, 0.4, 0.8, 1.0]
    for kind in kinds:
        scores = []
        for est in estimates:
            scored = score_response_set(
                Prompt("q"),
                [Response((1,))],
                EstimateSource(conditionals={1: est}),
                kind,
                cal,
            )
            scores.append(scored.scores[0])
        assert scores == sorted(scores, reverse=True)

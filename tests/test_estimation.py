"""Estimate aggregation, the three transforms, and calibration statistics."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from escores import (
    CalibrationSummary,
    EstimateSource,
    FTransform,
    InvalidInputError,
    PromptInstance,
    Response,
    aggregate_conditionals,
    build_calibration_summary,
    calibration_f_star,
    ext_sum,
    label_response_set,
    transform_estimate,
)

import oracles
from helpers import make_generated


def test_transform_enum_round_trip() -> None:
    for t in FTransform:
        assert FTransform.from_option(t.option) is t
    with pytest.raises(InvalidInputError):
        FTransform.from_option(4)


def test_aggregate_product_of_conditionals() -> None:
    # oracle: 0.9 * 0.8 = 0.72
    assert oracles.aggregate([0.9, 0.8]) == pytest.approx(0.72)
    source = EstimateSource(conditionals={1: 0.9, 2: 0.8})
    got = aggregate_conditionals(source, Response((1, 2)))
    assert got == pytest.approx(0.72, rel=1e-12)
    assert aggregate_conditionals(source, Response((1,))) == pytest.approx(0.9)


def test_aggregate_respects_response_order_selection() -> None:
    source = EstimateSource(conditionals={1: 0.5, 2: 0.25, 3: 1.0})
    assert aggregate_conditionals(source, Response((3, 1))) == pytest.approx(0.5)


def test_response_level_estimate_takes_precedence() -> None:
    source = EstimateSource(conditionals={1: 0.9}, response_estimate=0.42)
    assert aggregate_conditionals(source, Response((1,))) == 0.42


def test_aggregate_requires_coverage() -> None:
    source = EstimateSource(conditionals={1: 0.9})
    with pytest.raises(InvalidInputError):
        aggregate_conditionals(source, Response((1, 2)))


def test_estimate_source_validation() -> None:
    with pytest.raises(InvalidInputError):
        EstimateSource()
    with pytest.raises(InvalidInputError):
        EstimateSource(conditionals={1: 1.5})
    with pytest.raises(InvalidInputError):
        EstimateSource(response_estimate=-0.1)
    with pytest.raises(InvalidInputError, match="keys must be ints >= 1"):
        EstimateSource(conditionals={0: 0.5})
    with pytest.raises(InvalidInputError, match=r"missing conditional estimates for steps \[2\]"):
        PromptInstance(make_generated("p", 2), EstimateSource(conditionals={1: 0.5}))


def test_transform_examples() -> None:
    # oracles: identity, reciprocal complement, odds
    assert oracles.transform(0.8, 1) == pytest.approx(0.8)
    assert oracles.transform(0.8, 2) == pytest.approx(5.0)
    assert oracles.transform(0.8, 3) == pytest.approx(4.0)

    assert transform_estimate(0.8, FTransform.IDENTITY) == pytest.approx(0.8)
    assert transform_estimate(0.8, FTransform.INVERSE_COMPLEMENT) == pytest.approx(
        5.0, rel=1e-12
    )
    assert transform_estimate(0.8, FTransform.ODDS) == pytest.approx(4.0, rel=1e-12)


def test_transform_endpoints() -> None:
    assert transform_estimate(0.0, FTransform.IDENTITY) == 0.0
    assert transform_estimate(1.0, FTransform.IDENTITY) == 1.0
    assert transform_estimate(0.0, FTransform.INVERSE_COMPLEMENT) == 1.0
    assert transform_estimate(1.0, FTransform.INVERSE_COMPLEMENT) == math.inf
    assert transform_estimate(0.0, FTransform.ODDS) == 0.0
    assert transform_estimate(1.0, FTransform.ODDS) == math.inf


def test_transform_rejects_out_of_range() -> None:
    for t in FTransform:
        with pytest.raises(InvalidInputError):
            transform_estimate(1.2, t)
        with pytest.raises(InvalidInputError):
            transform_estimate(-0.2, t)
    with pytest.raises(InvalidInputError, match="unknown transform"):
        transform_estimate(0.5, 2)


@given(est=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_transforms_agree_with_oracle(est: float) -> None:
    for t in FTransform:
        assert oracles.matches(transform_estimate(est, t), oracles.transform(est, t.option))


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=1.0),
)
def test_transforms_are_monotone_and_order_consistent(a: float, b: float) -> None:
    """All three transforms are nondecreasing, so they order estimates alike."""
    lo, hi = min(a, b), max(a, b)
    for t in FTransform:
        assert transform_estimate(lo, t) <= transform_estimate(hi, t)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_prefix_products_nonincreasing(conds: list[float]) -> None:
    source = EstimateSource(conditionals={i + 1: c for i, c in enumerate(conds)})
    values = [
        aggregate_conditionals(source, Response(tuple(range(1, k + 1))))
        for k in range(1, len(conds) + 1)
    ]
    for shorter, longer in zip(values, values[1:]):
        assert longer <= shorter + 1e-15


def test_f_star_takes_max_over_incorrect() -> None:
    # oracle: incorrect values {0.2, 0.5}, correct value {0.9} -> 0.5
    assert oracles.f_star([(0.2, 0), (0.9, 1), (0.5, 0)]) == pytest.approx(0.5)

    g = make_generated("p", 3, first_error_index=2)
    labeled = label_response_set(
        g, [Response((1,)), Response((1, 2)), Response((1, 2, 3))]
    )
    values = {(1,): 0.9, (1, 2): 0.2, (1, 2, 3): 0.5}
    got = calibration_f_star(labeled, {Response(k): v for k, v in values.items()})
    assert got == pytest.approx(0.5)


def test_f_star_zero_when_fully_correct() -> None:
    assert oracles.f_star([(0.9, 1), (0.7, 1)]) == 0.0
    g = make_generated("p", 2)
    labeled = label_response_set(g, [Response((1,)), Response((1, 2))])
    got = calibration_f_star(labeled, {Response((1,)): 0.9, Response((1, 2)): 0.7})
    assert got == 0.0


def test_f_star_requires_value_for_every_response() -> None:
    g = make_generated("p", 2, first_error_index=1)
    labeled = label_response_set(g, [Response((1,)), Response((1, 2))])
    with pytest.raises(InvalidInputError):
        calibration_f_star(labeled, {Response((1,)): 0.9})


def test_f_star_permutation_invariant_under_relabeling() -> None:
    """Shuffling which response carries which value leaves the max alone."""
    g = make_generated("p", 2, first_error_index=1)
    responses = [Response((1,)), Response((1, 2))]
    labeled = label_response_set(g, responses)
    a = calibration_f_star(labeled, {responses[0]: 0.3, responses[1]: 0.8})
    b = calibration_f_star(labeled, {responses[0]: 0.8, responses[1]: 0.3})
    assert a == b == 0.8


def test_build_calibration_summary_example() -> None:
    summary = build_calibration_summary([2.0, 4.0])
    assert summary.n == 2
    assert summary.fstar_sum == 6.0
    assert summary.per_prompt_fstar == (2.0, 4.0)
    assert summary.transform is None


def test_summary_carries_transform_tag() -> None:
    summary = build_calibration_summary([1.0], FTransform.ODDS)
    assert summary.transform is FTransform.ODDS


def test_summary_with_infinite_entry() -> None:
    summary = build_calibration_summary([1.0, math.inf])
    assert summary.fstar_sum == math.inf


@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=20))
def test_summary_sum_matches_ext_sum(values: list[float]) -> None:
    summary = build_calibration_summary(values)
    assert summary.fstar_sum == ext_sum(values)
    assert summary.n == len(values)


def test_only_a_float64_vector_takes_the_array_check() -> None:
    """Other arrays are read value by value, with the per-value messages and summary."""
    good = [0.0, 0.5, math.inf, 2.0]
    with mock.patch.object(
        CalibrationSummary, "_of_checked", wraps=CalibrationSummary._of_checked
    ) as array_path:
        assert build_calibration_summary(np.asarray(good)) == build_calibration_summary(good)
        assert array_path.call_count == 1
        for dtype in (np.float32, object):
            array = np.asarray(good, dtype=dtype)
            assert build_calibration_summary(array) == build_calibration_summary(good)
            for bad in ([0.5, math.nan], [0.5, -1.5], [-0.25, math.nan]):
                with pytest.raises(InvalidInputError) as one_by_one:
                    build_calibration_summary(bad)
                with pytest.raises(InvalidInputError) as as_array:
                    build_calibration_summary(np.asarray(bad, dtype=dtype))
                assert str(as_array.value) == str(one_by_one.value), dtype
        with pytest.raises(InvalidInputError, match="calibration value must be a number, got 'x'"):
            build_calibration_summary(np.asarray([0.5, "x"], dtype=object))
        assert array_path.call_count == 1

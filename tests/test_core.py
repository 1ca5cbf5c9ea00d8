"""Extended-real arithmetic and the shared container types."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from escores import (
    CalibrationSummary,
    InvalidInputError,
    Prompt,
    Response,
    ScoredResponseSet,
    SubResponse,
    ext_add,
    ext_div,
    ext_recip,
    ext_sum,
)
from escores.core import as_ext_real, as_label, as_unit_fraction, as_unit_interval

from helpers import make_labeled, make_scored

INF = math.inf

ext_reals = st.one_of(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.just(INF),
    st.just(0.0),
)


def test_ext_div_convention() -> None:
    assert ext_div(0.0, 0.0) == 0.0
    assert ext_div(1.0, 0.0) == INF
    assert ext_div(3.0, 4.0) == 0.75
    assert ext_div(INF, 2.0) == INF
    assert ext_div(2.0, INF) == 0.0
    assert ext_div(INF, INF) == 1.0
    assert ext_div(0.0, INF) == 0.0


def test_ext_recip_exact_endpoints() -> None:
    assert ext_recip(0.0) == INF
    assert ext_recip(INF) == 0.0
    assert ext_recip(4.0) == 0.25


def test_ext_add_and_sum() -> None:
    assert ext_add(1.0, INF) == INF
    assert ext_add(2.0, 3.0) == 5.0
    assert ext_sum([]) == 0.0
    assert ext_sum([2.0, 4.0]) == 6.0
    assert ext_sum([1.0, INF]) == INF


def test_ext_inputs_validated() -> None:
    with pytest.raises(InvalidInputError):
        ext_div(-1.0, 2.0)
    with pytest.raises(InvalidInputError):
        ext_div(1.0, float("nan"))
    with pytest.raises(InvalidInputError):
        as_ext_real("not a number")


@given(a=ext_reals, b=ext_reals)
def test_ext_arithmetic_closed(a: float, b: float) -> None:
    """Every add/div/recip of valid values is valid: nonnegative, never NaN."""
    for out in (ext_add(a, b), ext_div(a, b), ext_recip(a)):
        assert not math.isnan(out)
        assert out >= 0.0


@given(a=st.floats(min_value=1e-12, max_value=1e12, allow_nan=False))
def test_recip_involution_on_finite_positives(a: float) -> None:
    assert math.isclose(ext_recip(ext_recip(a)), a, rel_tol=1e-15)


def test_scalar_validators() -> None:
    assert as_label(0) == 0
    assert as_label(True) == 1
    with pytest.raises(InvalidInputError):
        as_label(2)
    assert as_unit_interval(1.0) == 1.0
    with pytest.raises(InvalidInputError):
        as_unit_interval(1.5)
    # decimal strings and floats both mean the exact decimal
    assert as_unit_fraction("0.1") == as_unit_fraction(0.1)
    assert as_unit_fraction("0.1").denominator == 10
    with pytest.raises(InvalidInputError):
        as_unit_fraction("7/5")
    with pytest.raises(InvalidInputError):
        as_unit_fraction(float("inf"))
    with pytest.raises(InvalidInputError):
        as_unit_fraction(True)


def test_prompt_and_subresponse_validation() -> None:
    assert Prompt("p-1").text is None
    with pytest.raises(InvalidInputError):
        Prompt("")
    with pytest.raises(InvalidInputError):
        SubResponse(0)


def test_response_identity_and_validation() -> None:
    assert Response((1, 2)) == Response((1, 2))
    assert Response((1, 2)) != Response((2, 1))  # order is identity
    assert len(Response((3, 1))) == 2
    assert Response.prefix(3).indices == (1, 2, 3)
    with pytest.raises(InvalidInputError):
        Response(())
    with pytest.raises(InvalidInputError):
        Response((1, 1))
    with pytest.raises(InvalidInputError):
        Response((0,))


def test_labeled_set_accessors_and_duplicates() -> None:
    labeled = make_labeled([1, 0, 1])
    assert labeled.labels == (1, 0, 1)
    assert labeled.correct_count() == 2
    assert [r.indices for r in labeled.incorrect_responses()] == [(2,)]
    with pytest.raises(InvalidInputError):
        type(labeled)(((Response((1,)), 1), (Response((1,)), 0)))
    with pytest.raises(InvalidInputError):
        type(labeled)(((Response((1,)), 2),))


def test_scored_set_rejects_bad_scores() -> None:
    scored = make_scored([0.5, INF])
    assert scored.scores == (0.5, INF)
    with pytest.raises(InvalidInputError):
        make_scored([-0.1])
    with pytest.raises(InvalidInputError):
        make_scored([float("nan")])
    with pytest.raises(InvalidInputError):
        ScoredResponseSet(((Response((1,)), 1.0), (Response((1,)), 2.0)))


def test_calibration_summary_checks_its_own_sum() -> None:
    summary = CalibrationSummary(per_prompt_fstar=(2.0, 4.0), fstar_sum=6.0, n=2)
    assert summary.fstar_sum == 6.0
    with pytest.raises(InvalidInputError):
        CalibrationSummary(per_prompt_fstar=(2.0, 4.0), fstar_sum=5.0, n=2)
    with pytest.raises(InvalidInputError):
        CalibrationSummary(per_prompt_fstar=(2.0, 4.0), fstar_sum=6.0, n=3)
    inf_summary = CalibrationSummary((1.0, INF), INF, 2)
    assert inf_summary.fstar_sum == INF

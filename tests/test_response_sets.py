"""Prefix sets, permutation super-sets, and first-error labeling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from escores import (
    IDENTITY_POLICY,
    MAX_UNCAPPED_PERMUTATION_STEPS,
    GeneratedResponse,
    InvalidInputError,
    PermutationMode,
    PermutationPolicy,
    Prompt,
    Response,
    ResponseSetSizeError,
    build_permutation_set,
    build_prefix_set,
    label_response_set,
)

import oracles
from escores.response_sets import _label_table
from helpers import make_generated

ALL = PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)


def indices(responses) -> list[tuple[int, ...]]:
    return [r.indices for r in responses]


def test_generated_response_validation() -> None:
    g = make_generated("p", 3, first_error_index=2)
    assert len(g) == 3
    assert g.first_error_index == 2
    with pytest.raises(InvalidInputError):
        make_generated("p", 3, first_error_index=4)
    with pytest.raises(InvalidInputError):
        make_generated("p", 3, first_error_index=0)
    with pytest.raises(InvalidInputError, match="must be int or None"):
        make_generated("p", 3, first_error_index=True)
    with pytest.raises(InvalidInputError):
        GeneratedResponse(Prompt("p"), ())
    for not_texts in ("abc", ["a", 2]):
        with pytest.raises(InvalidInputError, match="step texts"):
            GeneratedResponse(Prompt("p"), not_texts)


def test_prefix_set_matches_enumeration() -> None:
    # oracle first: direct enumeration for k = 2 (and the stated k = 1, 3)
    assert oracles.prefix_set(2) == [(1,), (1, 2)]
    for k in (1, 2, 3):
        got = indices(build_prefix_set(make_generated("p", k)))
        assert got == oracles.prefix_set(k)
    # full generation comes last
    assert indices(build_prefix_set(make_generated("p", 3)))[-1] == (1, 2, 3)


def test_permutation_set_two_steps_matches_enumeration() -> None:
    expected = oracles.permutation_set(2)
    assert set(expected) == {(1,), (1, 2), (2,), (2, 1)}
    got = indices(build_permutation_set(make_generated("p", 2), ALL))
    assert got == expected  # same first-seen enumeration order


def test_permutation_set_identity_reduces_to_prefixes() -> None:
    g = make_generated("p", 3)
    assert indices(build_permutation_set(g, IDENTITY_POLICY)) == indices(
        build_prefix_set(g)
    )


def test_permutation_set_explicit_identity() -> None:
    policy = PermutationPolicy(PermutationMode.EXPLICIT_LIST, explicit=((1, 2),))
    got = indices(build_permutation_set(make_generated("p", 2), policy))
    assert got == [(1,), (1, 2)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_permutation_set_size_formula(k: int) -> None:
    got = build_permutation_set(make_generated("p", k), ALL)
    assert len(got) == oracles.permutation_set_size(k)
    assert len(set(indices(got))) == len(got)


def test_permutation_set_blowup_guard() -> None:
    big = make_generated("p", MAX_UNCAPPED_PERMUTATION_STEPS + 1)
    with pytest.raises(ResponseSetSizeError, match="use at most 8 steps$"):
        build_permutation_set(big, ALL)
    # below the limit every permutation prefix is enumerated
    ok = build_permutation_set(make_generated("p", 5), ALL)
    assert len(ok) == oracles.permutation_set_size(5)


def test_policy_validation() -> None:
    with pytest.raises(InvalidInputError, match="must be a PermutationMode"):
        PermutationPolicy("identity_only")
    with pytest.raises(InvalidInputError, match="must be nonempty"):
        PermutationPolicy(PermutationMode.EXPLICIT_LIST, explicit=())
    with pytest.raises(InvalidInputError):
        PermutationPolicy(PermutationMode.EXPLICIT_LIST)  # missing list
    with pytest.raises(InvalidInputError):
        PermutationPolicy(PermutationMode.IDENTITY_ONLY, explicit=((1,),))
    with pytest.raises(InvalidInputError):
        PermutationPolicy(PermutationMode.EXPLICIT_LIST, explicit=((1, 1),))
    with pytest.raises(InvalidInputError):
        build_permutation_set(
            make_generated("p", 2),
            PermutationPolicy(PermutationMode.EXPLICIT_LIST, explicit=((1, 2, 3),)),
        )


def test_labeling_prefix_chain() -> None:
    g = make_generated("p", 3, first_error_index=3)
    labeled = label_response_set(g, build_prefix_set(g))
    assert list(labeled.labels) == [1, 1, 0]

    all_correct = label_response_set(
        make_generated("p", 3), build_prefix_set(make_generated("p", 3))
    )
    assert list(all_correct.labels) == [1, 1, 1]


def test_labeling_permutation_set_by_membership() -> None:
    g = make_generated("p", 2, first_error_index=1)
    responses = build_permutation_set(g, ALL)
    expected = oracles.labels_for(indices(responses), 1)
    labeled = label_response_set(g, responses)
    assert list(labeled.labels) == expected
    by_indices = {resp.indices: label for resp, label in labeled}
    assert by_indices == {(1,): 0, (1, 2): 0, (2,): 1, (2, 1): 0}


def test_labeling_rejects_out_of_range_response() -> None:
    g = make_generated("p", 2, first_error_index=1)
    with pytest.raises(InvalidInputError):
        label_response_set(g, [Response((3,))])
    # the first response that reads a missing step is named
    with pytest.raises(InvalidInputError, match=r"^response \(2, 3\) references steps beyond"):
        label_response_set(g, [Response((1,)), Response((2, 3)), Response((4,))])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_label_table_matches_the_oracle_for_every_first_error(k: int) -> None:
    responses = tuple(build_permutation_set(make_generated("p", k), ALL))
    table = _label_table(responses, k)
    assert table.dtype == np.int8 and table.shape == (k + 1, len(responses))
    for fei in range(k + 1):
        assert table[fei].tolist() == oracles.labels_for(indices(responses), fei or None)


@given(
    k=st.integers(min_value=1, max_value=6),
    fei=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
)
def test_prefix_labels_monotone(k: int, fei) -> None:
    """Along the prefix chain, once incorrect always incorrect."""
    if fei is not None and fei > k:
        fei = ((fei - 1) % k) + 1
    g = make_generated("p", k, first_error_index=fei)
    labeled = label_response_set(g, build_prefix_set(g))
    labels = list(labeled.labels)
    assert labels == oracles.labels_for(oracles.prefix_set(k), fei)
    for shorter, longer in zip(labels, labels[1:]):
        assert not (shorter == 0 and longer == 1)

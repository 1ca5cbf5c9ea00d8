"""Small builders shared across test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from escores import (
    IDENTITY_POLICY,
    EstimateSource,
    GeneratedResponse,
    LabeledResponseSet,
    PermutationMode,
    PermutationPolicy,
    PromptInstance,
    Response,
    ScoredResponseSet,
)

import oracles


def make_scored(scores) -> ScoredResponseSet:
    """Scored set over single-index responses 1..m, in the given order."""
    return ScoredResponseSet(
        tuple((Response((i + 1,)), float(s)) for i, s in enumerate(scores))
    )


def make_labeled(labels) -> LabeledResponseSet:
    """Labeled set over single-index responses 1..m, in the given order."""
    return LabeledResponseSet(
        tuple((Response((i + 1,)), int(lab)) for i, lab in enumerate(labels))
    )


def make_generated(prompt_id: str, k: int, first_error_index=None) -> GeneratedResponse:
    return GeneratedResponse.from_texts(
        prompt_id, [f"s{j}" for j in range(1, k + 1)], first_error_index=first_error_index
    )


def make_instance(prompt_id: str, conditionals, first_error_index=None) -> PromptInstance:
    """Prompt instance with step-level conditionals given as a sequence."""
    generated = make_generated(prompt_id, len(conditionals), first_error_index)
    source = EstimateSource(
        conditionals={j + 1: float(c) for j, c in enumerate(conditionals)}
    )
    return PromptInstance(generated, source)


def instance_of(record: dict) -> PromptInstance:
    """The prompt instance a prefix-schema record describes."""
    return make_instance(record["id"], record["oracle_conditionals"], record["first_error_index"])


# ---------------------------------------------------------------------------
# small datasets for differential tests against the rational oracles
# ---------------------------------------------------------------------------

# Dyadic conditionals force ties and exact 0/1 estimates (so infinite
# maxima under transforms 2 and 3); one free float per dataset, used at
# most once per prompt, keeps every float product exact.
DYADIC = (0.0, 0.25, 0.5, 1.0)
POLICIES = {
    "identity": (IDENTITY_POLICY, oracles.prefix_set),
    "all": (PermutationPolicy(PermutationMode.ALL_PERMUTATIONS), oracles.permutation_set),
}


@st.composite
def prompt_records(draw, prefix: str, free: float) -> list[dict]:
    """One to three prefix-schema records of at most 4 steps, ids ``prefix0``, ..."""
    records = []
    for i in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 4))
        conditionals = draw(st.lists(st.sampled_from(DYADIC), min_size=k, max_size=k))
        if draw(st.booleans()):
            conditionals[draw(st.integers(0, k - 1))] = free
        records.append(
            {
                "id": f"{prefix}{i}",
                "sub_responses": [f"s{j}" for j in range(k)],
                "first_error_index": draw(st.one_of(st.none(), st.integers(1, k))),
                "oracle_conditionals": conditionals,
            }
        )
    return records


@st.composite
def split_records(draw) -> tuple[list[dict], list[dict], int]:
    """Test records, calibration records (sharing one free float) and a seed."""
    free = draw(st.floats(min_value=0.01, max_value=0.99))
    return (
        draw(prompt_records("t", free)),
        draw(prompt_records("c", free)),
        draw(st.integers(0, 2**16)),
    )


def oracle_prompt(record: dict, enumerate_set) -> tuple[list, list, list]:
    """Responses, labels and exact estimates of one record, by enumeration."""
    k = len(record["sub_responses"])
    responses = enumerate_set(k)
    labels = oracles.labels_for(responses, record["first_error_index"])
    conditionals = record["oracle_conditionals"]
    estimates = [oracles.aggregate([conditionals[i - 1] for i in r]) for r in responses]
    return responses, labels, estimates


def oracle_fstars(cal_records: list[dict], enumerate_set) -> dict[int, list]:
    """Exact calibration maxima per transform option (1, 2, 3)."""
    fstars = {t: [] for t in (1, 2, 3)}
    for record in cal_records:
        _, labels, estimates = oracle_prompt(record, enumerate_set)
        for t in fstars:
            values = [oracles.transform(o, t) for o in estimates]
            fstars[t].append(oracles.f_star(list(zip(values, labels))))
    return fstars


def oracle_scores(estimate, fstars: dict[int, list], u: float) -> dict:
    """Every score kind of one response, by name, from the oracles alone."""
    f = {t: oracles.transform(estimate, t) for t in (1, 2, 3)}
    e = {t: oracles.e_score(f[t], fstars[t]) for t in (1, 2, 3)}
    return {
        "e1": e[1],
        "e2": e[2],
        "e3": e[3],
        "e-combined": oracles.combined_e_score([e[1], e[2], e[3]]),
        "p": oracles.p_score(f[1], fstars[1]),
        "p-randomized": oracles.p_score_randomized(f[1], fstars[1], u),
        "naive1": oracles.naive_score(estimate, 1),
        "naive2": oracles.naive_score(estimate, 2),
        "naive3": oracles.naive_score(estimate, 3),
    }

"""Building and labeling response sets from a generated step sequence.

A generated response is an ordered sequence of sub-responses together
with the position of the first erroneous step, if any.  From it we
derive a set of candidate responses: every prefix of the sequence, and
optionally every prefix of every reordering of the sequence.  A derived
response is incorrect exactly when it contains the first-error step,
which makes labels monotone along the identity prefix chain: once a
prefix turns incorrect, every longer prefix stays incorrect.
``_label_table`` labels a set under every first-error step at once;
``scalar.label_response_set`` is its one-generation form.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, Prompt, Response, ResponseSetSizeError

# Enumerating all permutations is refused beyond this many steps.
MAX_UNCAPPED_PERMUTATION_STEPS = 8


@dataclass(frozen=True)
class GeneratedResponse:
    """One model generation: prompt, ordered step texts, first erroneous step.

    Step i is ``sub_responses[i - 1]``: a step is identified by its
    1-based position, and its text is never used for computation.
    ``first_error_index`` is the 1-based position of the first incorrect
    sub-response, or None when the whole generation is correct.  Steps
    after the first error are not individually judged; containment of
    the first-error step is what makes a derived response incorrect.
    """

    prompt: Prompt
    sub_responses: tuple[str, ...]
    first_error_index: int | None = None

    def __post_init__(self) -> None:
        texts = tuple(self.sub_responses)
        # a bare string would otherwise pass as one step per character
        if isinstance(self.sub_responses, str) or not all(isinstance(t, str) for t in texts):
            raise InvalidInputError(
                f"sub_responses must be a sequence of step texts, got {self.sub_responses!r}"
            )
        object.__setattr__(self, "sub_responses", texts)
        if not self.sub_responses:
            raise InvalidInputError("a generated response needs at least one sub-response")
        fei = self.first_error_index
        if fei is not None:
            if not isinstance(fei, int) or isinstance(fei, bool):
                raise InvalidInputError(f"first_error_index must be int or None, got {fei!r}")
            _check_first_error(fei, len(self.sub_responses))

    def __len__(self) -> int:
        return len(self.sub_responses)


def _check_first_error(fei: int, k: int) -> None:
    """Refuse a first-error step outside 1..k; a long integer is not echoed."""
    if not 1 <= fei <= k:
        shown = f" {fei}" if abs(fei) < 10**9 else ""
        raise InvalidInputError(f"first_error_index{shown} out of range 1..{k}")


class PermutationMode(enum.Enum):
    IDENTITY_ONLY = "identity_only"
    EXPLICIT_LIST = "explicit_list"
    ALL_PERMUTATIONS = "all_permutations"


@dataclass(frozen=True)
class PermutationPolicy:
    """How to expand a generated response into candidate orderings.

    ``explicit`` must be given exactly for EXPLICIT_LIST mode, as a tuple
    of 1-based index permutations.  ALL_PERMUTATIONS on more than
    MAX_UNCAPPED_PERMUTATION_STEPS steps is refused.
    """

    mode: PermutationMode
    explicit: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, PermutationMode):
            raise InvalidInputError(f"mode must be a PermutationMode, got {self.mode!r}")
        if (self.explicit is not None) != (self.mode is PermutationMode.EXPLICIT_LIST):
            raise InvalidInputError("explicit permutations are given exactly for EXPLICIT_LIST mode")
        if self.explicit is not None:
            perms = tuple(tuple(p) for p in self.explicit)
            object.__setattr__(self, "explicit", perms)
            if not perms:
                raise InvalidInputError("explicit permutation list must be nonempty")
            for perm in perms:
                if len(set(perm)) != len(perm) or any(
                    not isinstance(i, int) or isinstance(i, bool) or i < 1 for i in perm
                ):
                    raise InvalidInputError(f"not a valid permutation of 1..k: {perm}")


IDENTITY_POLICY = PermutationPolicy(PermutationMode.IDENTITY_ONLY)


def build_prefix_set(generated: GeneratedResponse) -> list[Response]:
    """All prefixes of the generation, shortest first.

    The i-th element keeps the first i sub-responses in their original
    order, so the result has exactly len(generated) pairwise-distinct
    responses and the full generation comes last.
    """
    return build_permutation_set(generated)


def _check_bijection(perm: tuple[int, ...], k: int) -> None:
    if sorted(perm) != list(range(1, k + 1)):
        raise InvalidInputError(f"permutation {perm} is not a bijection on 1..{k}")


def build_permutation_set(
    generated: GeneratedResponse, policy: PermutationPolicy = IDENTITY_POLICY
) -> list[Response]:
    """Union of prefix sets over the policy's orderings, deduplicated.

    Responses are identified by their ordered index tuples; the first
    occurrence in enumeration order is kept.  IDENTITY_ONLY is the single
    ordering (1, ..., k), so it yields the k prefixes, shortest first.
    ALL_PERMUTATIONS enumerates orderings lexicographically and yields
    sum over i of k!/(k-i)! responses; beyond
    MAX_UNCAPPED_PERMUTATION_STEPS steps it is refused.
    """
    k = len(generated)
    if policy.mode is PermutationMode.IDENTITY_ONLY:
        orderings = [tuple(range(1, k + 1))]
    elif policy.mode is PermutationMode.EXPLICIT_LIST:
        assert policy.explicit is not None
        for perm in policy.explicit:
            _check_bijection(perm, k)
        orderings = policy.explicit
    else:
        if k > MAX_UNCAPPED_PERMUTATION_STEPS:
            raise ResponseSetSizeError(
                f"all permutations of {k} steps would produce "
                f"{sum(math.factorial(k) // math.factorial(k - i) for i in range(1, k + 1))} "
                f"responses; use at most {MAX_UNCAPPED_PERMUTATION_STEPS} steps"
            )
        orderings = itertools.permutations(range(1, k + 1))  # lexicographic

    out: list[Response] = []
    seen: set[tuple[int, ...]] = set()
    for ordering in orderings:
        for i in range(1, k + 1):
            key = tuple(ordering[:i])
            if key not in seen:
                seen.add(key)
                out.append(Response(key))
    return out


def _label_table(responses: "tuple[Response, ...]", k: int) -> np.ndarray:
    """Labels of ``responses`` under every first-error step of a k-step generation.

    Row f of the (k + 1, len(responses)) int8 table labels a generation
    whose first error is step f: 0 for each response that contains step
    f, 1 for the rest, so row 0 (no error) is all 1.
    """
    steps = np.asarray([i for response in responses for i in response.indices], dtype=np.int64)
    owners = np.repeat(np.arange(len(responses)), [len(response) for response in responses])
    beyond = np.flatnonzero(steps > k)
    if beyond.size:
        raise InvalidInputError(
            f"response {responses[owners[beyond[0]]].indices} references steps "
            f"beyond the {k}-step generation"
        )
    table = np.ones((k + 1, len(responses)), dtype=np.int8)
    table[steps, owners] = 0
    return table

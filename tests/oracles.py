"""Brute-force reference implementations, independent of the package.

Everything here recomputes the score formulas from first principles:
exact rational arithmetic (fractions.Fraction) for the finite cases, an
explicit +inf sentinel for the extended points, and plain enumeration
for response sets and ranks.  Tests compute expected values through
these functions first and then assert the implementation against them,
so a shared bug would have to be written twice in two different styles.

Values are Fractions or math.inf; no package code is imported.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

INF = math.inf


def is_inf(value) -> bool:
    return value == INF


def x_of(value):
    """Exact rational for finite int/float/str input; INF passes through."""
    if is_inf(value):
        return INF
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def x_add(a, b):
    if is_inf(a) or is_inf(b):
        return INF
    return x_of(a) + x_of(b)


def x_sum(values):
    total = Fraction(0)
    for v in values:
        if is_inf(v):
            return INF
        total += x_of(v)
    return total


def x_div(a, b):
    if b == 0:
        return Fraction(0) if a == 0 else INF
    if is_inf(b):
        return Fraction(1) if is_inf(a) else Fraction(0)
    if is_inf(a):
        return INF
    return x_of(a) / x_of(b)


def x_recip(a):
    return x_div(Fraction(1), x_of(a))


def transform(estimate, option: int):
    estimate = x_of(estimate)
    if option == 1:
        return estimate
    if option == 2:
        return x_recip(1 - estimate)
    if option == 3:
        return x_div(estimate, 1 - estimate)
    raise ValueError(option)


def aggregate(conditionals) -> Fraction:
    product = Fraction(1)
    for c in conditionals:
        product *= x_of(c)
    return product


def f_star(labeled_values):
    """Max value among label-0 entries of (value, label) pairs; 0 if none."""
    incorrect = [x_of(v) for v, label in labeled_values if label == 0]
    if not incorrect:
        return Fraction(0)
    return max(incorrect)


def e_score(f, fstars):
    f = x_of(f)
    fstars = [x_of(v) for v in fstars]
    n = len(fstars)
    if is_inf(f):
        # scale every infinite value to M and let M grow: with k infinite
        # maxima, f/(f + sum) tends to M/((k + 1)M + finite) -> 1/(k + 1)
        ratio = Fraction(1, 1 + sum(1 for v in fstars if is_inf(v)))
    else:
        ratio = x_div(f, x_add(f, x_sum(fstars)))
    return x_recip((n + 1) * ratio)


def combined_e_score(components):
    reciprocals = [x_recip(x_of(c)) for c in components]
    mean = x_div(x_sum(reciprocals), Fraction(len(components)))
    return x_recip(mean)


def p_score(f, fstars):
    n = len(fstars)
    return Fraction(1 + sum(1 for v in fstars if f <= v), n + 1)


def p_score_randomized(f, fstars, u):
    u = x_of(u)
    n = len(fstars)
    equal = sum(1 for v in fstars if v == f)
    below = sum(1 for v in fstars if f < v)
    return (u * (1 + equal) + below) / (n + 1)


def naive_score(estimate, option: int):
    estimate = x_of(estimate)
    if option == 1:
        return x_recip(estimate)
    if option == 2:
        return 1 - estimate
    if option == 3:
        return x_div(1 - estimate, estimate)
    raise ValueError(option)


# --- response-set enumeration ------------------------------------------------


def prefix_set(k: int) -> list[tuple[int, ...]]:
    return [tuple(range(1, i + 1)) for i in range(1, k + 1)]


def permutation_set(k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for ordering in itertools.permutations(range(1, k + 1)):
        for i in range(1, k + 1):
            key = ordering[:i]
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def permutation_set_size(k: int) -> int:
    return sum(
        math.factorial(k) // math.factorial(k - i) for i in range(1, k + 1)
    )


def labels_for(responses, first_error_index) -> list[int]:
    if first_error_index is None:
        return [1] * len(responses)
    return [0 if first_error_index in resp else 1 for resp in responses]


# --- filtering and instance accounting ---------------------------------------


def ceil_fraction(x: Fraction) -> int:
    return -(-x.numerator // x.denominator)


def filter_at(scores, alpha) -> list[int]:
    return [i for i, s in enumerate(scores) if s <= alpha]


def max_constrained(scores, alpha_max):
    """(included indices, alpha_used) under the budgeted-max strategy."""
    eligible = [s for s in scores if s <= alpha_max]
    if not eligible:
        return [], Fraction(0)
    alpha_used = max(eligible)
    return filter_at(scores, alpha_used), alpha_used


def fractional(scores, lam: Fraction):
    """(included indices, alpha_used) for ceil(lam * m) lowest, stable ties."""
    m = len(scores)
    target = ceil_fraction(lam * m)
    order = sorted(range(m), key=lambda i: (scores[i], i))
    chosen = sorted(order[:target])
    if not chosen:
        return [], Fraction(0)
    return chosen, max(scores[i] for i in chosen)


def instance(labels, scores, included, alpha_used):
    """(error, size_distortion, worst_case, precision, recall) by counting."""
    alpha_used = x_of(alpha_used)
    error = 1 if any(labels[i] == 0 for i in included) else 0
    incorrect = [x_of(scores[i]) for i, label in enumerate(labels) if label == 0]
    worst = x_recip(min(incorrect)) if incorrect else Fraction(0)
    correct_in = sum(labels[i] for i in included)
    total_correct = sum(labels)
    precision = Fraction(correct_in, len(included)) if included else Fraction(1)
    recall = Fraction(correct_in, total_correct) if total_correct else Fraction(1)
    return (
        error,
        x_div(Fraction(error), alpha_used),
        worst,
        precision,
        recall,
    )


def threshold_includes(f, fstars, alpha: Fraction) -> bool:
    """Inclusion by the order-statistic rule: f above the tau_alpha cut."""
    n = len(fstars)
    k = ceil_fraction((1 - alpha) * (n + 1))
    if k < 1:
        return True
    tau = sorted(fstars)[k - 1]
    return f > tau


# --- keyed uniform draws -----------------------------------------------------

_TWO64 = 2**64


def _splitmix_finalize(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % _TWO64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % _TWO64
    return z ^ (z >> 31)


def _words(n: int) -> list[int]:
    """64-bit words of a nonnegative int, least significant first; 0 has one."""
    words = []
    while True:
        n, word = divmod(n, _TWO64)
        words.append(word)
        if n == 0:
            return words


def uniform(seed: int, split: int, prompt_id: str, ordinal: int) -> Fraction:
    """Draw ``ordinal`` of the (seed, split, prompt) stream, exactly.

    The seed's words, then the split's, are folded in by h = finalize(h ^ w)
    from h = 0; the prompt's key (first 8 bytes of its sha256, big-endian)
    gives the generator state finalize(key ^ h).  The generator is stepped
    ordinal + 1 times by the golden gamma, one at a time, and its last
    output's top 53 bits are the draw.
    """
    h = 0
    for word in _words(seed) + _words(split):
        h = _splitmix_finalize(h ^ word)
    key = int(hashlib.sha256(prompt_id.encode("utf-8")).hexdigest()[:16], 16)
    state = _splitmix_finalize(key ^ h)
    for _ in range(ordinal + 1):
        state = (state + 0x9E3779B97F4A7C15) % _TWO64
        out = _splitmix_finalize(state)
    return Fraction(out // 2**11, 2**53)


# --- comparisons --------------------------------------------------------------


def matches(impl: float, oracle, rel: float = 1e-12) -> bool:
    """Implementation float vs exact oracle value, to 12 significant digits.

    Compared in exact rational arithmetic so that oracle values beyond
    float range never overflow; a finite rational too large for a float
    is matched by an implementation that rounded up to +inf, and an
    oracle value below the smallest normal float is matched by anything
    within one smallest-normal of it (relative precision does not exist
    down there, and float arithmetic may flush to zero).
    """
    if is_inf(oracle):
        return impl == INF
    if oracle == 0:
        return impl == 0.0
    if is_inf(impl):
        return abs(x_of(oracle)) >= 2**1023
    target = x_of(oracle)
    diff = abs(x_of(impl) - target)
    smallest_normal = Fraction(1, 2**1022)
    if abs(target) < smallest_normal:
        return diff <= smallest_normal
    return diff <= x_of(rel) * abs(target)

"""End-to-end acceptance gate, one test per numbered criterion.

Each test prints an ``ACCEPTANCE n: PASS``/``FAIL`` line (run with
``pytest -s`` to see them all) and then asserts, so the suite both
reports and enforces the contract:

1. the exchangeable-rank statistic has Monte Carlo mean 1 within noise;
2. every e-score variant (and the reciprocal-estimate baseline) keeps
   the mean worst-case size distortion at or below 1;
3. both rank-based scores break that bound decisively, in the mean and
   in the median over splits;
4. rank-based filtering agrees exactly with order-statistic thresholding
   on randomized instances, ties included;
5. with informative estimators the combined e-score's mean error never
   exceeds the mean tolerance it charged, while rank scores overshoot;
6. every worked example is recomputed by the independent brute-force
   oracles and matches to twelve significant digits;
7. randomized invariant sweep (nestedness, monotonicity, combination
   bounds, label monotonicity, randomized-rank domination, round trips);
8. scoring cost: e-scores touch O(1) summary fields per response,
   rank scores walk all n calibration entries, counted not timed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import statistics
import time
from fractions import Fraction

import pytest

import oracles
from escores import (
    FTransform,
    PermutationMode,
    PermutationPolicy,
    PreparedDataset,
    RandomDraw,
    ScoreKind,
    SplitPlan,
    Strategy,
    SyntheticConfig,
    aggregate_conditionals,
    build_calibration_summary,
    build_permutation_set,
    build_prefix_set,
    calibration_f_star,
    combined_e_score,
    e_score,
    emit_csv,
    evaluate_dataset,
    evaluate_split,
    filter_at_alpha,
    fractional_inclusion_alpha,
    generate_dataset,
    label_response_set,
    max_constrained_alpha,
    naive_score,
    p_score,
    p_score_randomized,
    parse_dataset,
    parse_grid,
    plan_splits,
    run_equivalence_trials,
    threshold_equivalence_check,
    transform_estimate,
    write_dataset,
)
from escores.cli import run_command
from escores.core import Response
from helpers import (
    alpha_max_instance,
    make_generated,
    make_instance,
    make_labeled,
    make_scored,
    worst_case,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


def _mean_se(values) -> tuple[float, float]:
    mean = statistics.fmean(values)
    se = statistics.stdev(values) / math.sqrt(len(values))
    return mean, se


# --- 1: Monte Carlo identity for the exchangeable-rank statistic --------------


def test_01_mc_identity_within_three_se():
    buffer = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = run_command(
            ["simulate", "--trials", "10000", "--seed", "1", "--correct-prob", "0.0"]
        )
    elapsed = time.perf_counter() - started
    out = buffer.getvalue()
    mean = float(re.search(r"^mean=([0-9.]+)$", out, re.M).group(1))
    se = float(re.search(r"^se=([0-9.]+)$", out, re.M).group(1))
    ok = (
        code == 0
        and "identity (|mean - 1| <= 3*se): PASS" in out
        and abs(mean - 1.0) <= 3.0 * se
        and elapsed < 10.0
    )
    _report(1, ok, f"mean={mean:.6f} se={se:.6f} runtime={elapsed:.1f}s")


# --- 2 and 3: worst-case size distortion over repeated splits ------------------

DISTORTION_KINDS = ("e1", "e2", "e3", "e-combined", "naive1", "p", "p-randomized")


@pytest.fixture(scope="module")
def distortion_runs():
    """Per-kind lists of per-split mean worst-case distortion, plus runtime."""
    started = time.perf_counter()
    config = SyntheticConfig(n_prompts=2000, seed=0)
    prepared = PreparedDataset(generate_dataset(config))
    splits = plan_splits(SplitPlan(seed=0, n_splits=100), config.n_prompts)
    kinds = tuple(ScoreKind.parse(name) for name in DISTORTION_KINDS)
    per_kind: dict[str, list[float]] = {name: [] for name in DISTORTION_KINDS}
    for index, split in enumerate(splits):
        result = evaluate_split(prepared, split, kinds, master_seed=0, split_index=index)
        for name, value in result.worst_case:
            per_kind[name].append(value)
    return per_kind, time.perf_counter() - started


def test_02_e_scores_meet_distortion_bound(distortion_runs):
    per_kind, elapsed = distortion_runs
    ok = elapsed < 60.0
    parts = []
    for name in ("e1", "e2", "e3", "e-combined", "naive1"):
        mean, se = _mean_se(per_kind[name])
        ok = ok and mean <= 1.0 + 3.0 * se
        parts.append(f"{name}={mean:.4f}±{se:.4f}")
    _report(2, ok, f"{' '.join(parts)} runtime={elapsed:.1f}s")


# A p-randomized worst case can be (n + 1)/u for a uniform u, which has
# no finite mean, so the mean over splits follows the smallest draws of
# the seed.  The median over splits does not: it must exceed the bound
# of 1 by this margin.  At split and master seeds 0-39 the rank kinds'
# medians lay at 6.6-8.9 and those of e1-e3 and e-combined at 0.98-1.01,
# with no split of theirs above 1.22.
_MEDIAN_MARGIN = 1.0


def test_03_rank_scores_violate_distortion_bound(distortion_runs):
    per_kind, _ = distortion_runs
    parts = []
    ok = True
    for name in ("p", "p-randomized"):
        mean, se = _mean_se(per_kind[name])
        median = statistics.median(per_kind[name])
        ok = ok and mean > 1.0 + 3.0 * se and median > 1.0 + _MEDIAN_MARGIN
        parts.append(f"{name}={mean:.2f}±{se:.2f} median={median:.2f}")
    _report(3, ok, f"{' '.join(parts)}; mean > 1+3se, median > {1.0 + _MEDIAN_MARGIN:g}")


# --- 4: rank filtering vs order-statistic thresholds ---------------------------


def test_04_threshold_rule_agreement():
    started = time.perf_counter()
    trials = run_equivalence_trials(1000, seed=0, n_max=50, grid_points=20)
    elapsed = time.perf_counter() - started
    ok = trials.n_instances == 1000 and trials.failures == 0 and elapsed < 5.0
    _report(4, ok, f"instances={trials.n_instances} failures={trials.failures} "
                   f"runtime={elapsed:.1f}s")


# --- 5: mean error tracks the mean charged tolerance ---------------------------


@pytest.fixture(scope="module")
def trend_runs():
    """Across-split error/tolerance means per (kind, grid point).

    Informative estimators (correct steps ~Beta(4,2), incorrect
    ~Beta(2,4)) over response sets of up to eight steps, so charged
    tolerances accumulate wherever anything is included.
    """
    config = SyntheticConfig(
        n_prompts=800,
        max_steps=8,
        seed=0,
        beta_correct=(4.0, 2.0),
        beta_incorrect=(2.0, 4.0),
    )
    prepared = PreparedDataset(generate_dataset(config))
    splits = plan_splits(SplitPlan(seed=0, n_splits=60), config.n_prompts)
    kinds = (ScoreKind.parse("e-combined"), ScoreKind.parse("p"))
    grid = parse_grid("0:1:0.01", Strategy.ALPHA_MAX)
    errors: dict[tuple[str, str], list[float]] = {}
    alphas: dict[tuple[str, str], list[float]] = {}
    for index, split in enumerate(splits):
        result = evaluate_split(
            prepared, split, kinds, (grid,), master_seed=0, split_index=index
        )
        for row in result.rows:
            key = (row.score_kind, row.parameter)
            errors.setdefault(key, []).append(row.mean_error)
            alphas.setdefault(key, []).append(row.mean_alpha)
    return errors, alphas, grid.parameters


def _trend_violations(errors, alphas, labels, kind: str) -> int:
    violations = 0
    for label in labels:
        errs = errors[(kind, label)]
        mean_error, se = _mean_se(errs)
        mean_alpha = statistics.fmean(alphas[(kind, label)])
        if mean_error > mean_alpha + 2.0 * se:
            violations += 1
    return violations


def test_05_error_tracks_tolerance(trend_runs):
    errors, alphas, labels = trend_runs
    e_violations = _trend_violations(errors, alphas, labels, "e-combined")
    p_violations = _trend_violations(errors, alphas, labels, "p")
    ok = e_violations == 0 and p_violations >= 1
    _report(
        5,
        ok,
        f"grid points={len(labels)} e-combined violations={e_violations} "
        f"p violations={p_violations}",
    )


# --- 6: worked-example battery against the brute-force oracles -----------------


def _battery(tmp_path) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    def add(label: str, ok: bool) -> None:
        checks.append((label, bool(ok)))

    # Response-set enumeration.
    two = make_generated("battery-two", 2)
    add(
        "prefix set k=2",
        [r.indices for r in build_prefix_set(two)] == oracles.prefix_set(2),
    )
    all_perms = PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)
    add(
        "permutation set k=2",
        [r.indices for r in build_permutation_set(two, all_perms)]
        == oracles.permutation_set(2),
    )
    four = make_generated("battery-four", 4)
    add(
        "permutation set size k=4",
        len(build_permutation_set(four, all_perms)) == oracles.permutation_set_size(4),
    )

    # Labeling: fei=1 over the two-step permutation set.
    erring = make_generated("battery-err", 2, first_error_index=1)
    responses = build_permutation_set(erring, all_perms)
    labeled = label_response_set(erring, responses)
    add(
        "labels fei=1 over permutation set",
        [label for _, label in labeled]
        == oracles.labels_for([r.indices for r in responses], 1)
        and {r.indices: label for r, label in labeled}
        == {(1,): 0, (1, 2): 0, (2,): 1, (2, 1): 0},
    )

    # Estimation.
    oracle = oracles.aggregate([Fraction("0.9"), Fraction("0.8")])
    instance = make_instance("battery-agg", [0.9, 0.8])
    add(
        "aggregate two conditionals",
        oracle == Fraction(18, 25)
        and oracles.matches(
            aggregate_conditionals(instance.estimates, Response((1, 2))), oracle
        ),
    )
    oracle = oracles.transform(Fraction("0.8"), 2)
    add(
        "inverse-complement transform",
        oracle == 5
        and oracles.matches(
            transform_estimate(0.8, FTransform.INVERSE_COMPLEMENT), oracle
        ),
    )
    oracle = oracles.f_star([(Fraction("0.2"), 0), (Fraction("0.5"), 0), (Fraction("0.9"), 1)])
    labeled = make_labeled([0, 0, 1])
    values = {Response((1,)): 0.2, Response((2,)): 0.5, Response((3,)): 0.9}
    add(
        "calibration maximum over incorrect",
        oracle == Fraction(1, 2)
        and oracles.matches(calibration_f_star(labeled, values), oracle),
    )
    summary = build_calibration_summary([2.0, 4.0])
    add(
        "summary sum and count",
        oracles.x_sum([2, 4]) == 6
        and summary.fstar_sum == 6.0
        and summary.n == 2,
    )

    # Score families.
    oracle = oracles.e_score(2, [2, 4])
    add(
        "e-score worked example",
        oracle == Fraction(4, 3) and oracles.matches(e_score(2.0, summary), oracle),
    )
    oracle = oracles.combined_e_score([1, 2, 4])
    add(
        "combined e-score worked example",
        oracle == Fraction(12, 7)
        and oracles.matches(combined_e_score([1.0, 2.0, 4.0]), oracle),
    )
    rank_summary = build_calibration_summary([1.0, 2.0, 4.0, 5.0])
    oracle = oracles.p_score(3, [1, 2, 4, 5])
    add(
        "rank score worked example",
        oracle == Fraction(3, 5) and oracles.matches(p_score(3.0, rank_summary), oracle),
    )
    tie_summary = build_calibration_summary([3.0, 5.0])
    oracle = oracles.p_score_randomized(3, [3, 5], Fraction(1, 2))
    add(
        "randomized rank score worked example",
        oracle == Fraction(2, 3)
        and oracles.matches(
            p_score_randomized(3.0, tie_summary, RandomDraw(u=0.5)), oracle
        ),
    )
    oracle = oracles.naive_score(Fraction("0.25"), 1)
    add(
        "reciprocal baseline worked example",
        oracle == 4 and oracles.matches(naive_score(0.25, FTransform.IDENTITY), oracle),
    )

    # Filtering strategies.
    scored = make_scored([0.1, 0.2, 0.3])
    included, alpha_used = oracles.max_constrained(
        [Fraction("0.1"), Fraction("0.2"), Fraction("0.3")], Fraction(1, 2)
    )
    outcome = max_constrained_alpha(scored, 0.5)
    add(
        "budgeted max keeps everything eligible",
        included == [0, 1, 2]
        and alpha_used == Fraction("0.3")
        and [r.indices[0] - 1 for r in outcome.included.responses] == included
        and oracles.matches(outcome.alpha_used, alpha_used),
    )
    scored = make_scored([0.1, 0.2, 0.3, 0.4])
    included, alpha_used = oracles.fractional(
        [Fraction("0.1"), Fraction("0.2"), Fraction("0.3"), Fraction("0.4")],
        Fraction(1, 2),
    )
    outcome = fractional_inclusion_alpha(scored, "0.5")
    add(
        "fractional inclusion picks the lowest half",
        included == [0, 1]
        and alpha_used == Fraction(1, 5)
        and [r.indices[0] - 1 for r in outcome.included.responses] == included
        and oracles.matches(outcome.alpha_used, alpha_used),
    )

    # Instance accounting.
    labels = [1, 1, 0, 1]
    raw_scores = [Fraction("0.005"), Fraction("0.01"), 4, 2]
    error, distortion, worst, precision, recall = oracles.instance(
        labels, raw_scores, [0, 1], Fraction("0.01")
    )
    scores = [0.005, 0.01, 4.0, 2.0]
    got = alpha_max_instance(labels, scores, 0.01)
    got_distortion, got_error, _, got_precision, got_recall = got
    add(
        "clean instance accounting",
        (error, distortion, precision, recall) == (0, 0, 1, Fraction(2, 3))
        and got_error == 0
        and got_distortion == 0.0
        and got_precision == 1.0
        and oracles.matches(got_recall, recall)
        and worst == Fraction(1, 4)
        and oracles.matches(worst_case(labels, scores), worst),
    )
    error, distortion, _, _, _ = oracles.instance(
        [1, 0], [Fraction("0.4"), Fraction("0.5")], [0, 1], Fraction(1, 2)
    )
    got_distortion, got_error, _, _, _ = alpha_max_instance([1, 0], [0.4, 0.5], 0.5)
    add(
        "unit error at tolerance one-half distorts by two",
        error == 1
        and distortion == 2
        and got_error == 1
        and oracles.matches(got_distortion, distortion),
    )
    incorrect = [Fraction(4.95), Fraction(6.01), Fraction(6.28)]
    oracle = oracles.x_recip(min(incorrect))
    add(
        "worst case is the reciprocal minimum",
        oracle == 1 / Fraction(4.95)
        and oracles.matches(worst_case([0, 0, 0], [4.95, 6.01, 6.28]), oracle),
    )

    # Threshold equivalence, brute-forced on both sides.
    rng = random.Random(9)
    cal_values = [round(rng.uniform(0.0, 5.0), 2) for _ in range(9)]
    test_values = [round(rng.uniform(0.0, 6.0), 2) for _ in range(5)]
    test_values += [cal_values[0], 0.0, math.inf]
    grid = [Fraction(k, 10) for k in range(1, 11)]
    exact_cal = [Fraction(v) for v in cal_values]
    brute_agree = all(
        (Fraction(1 + sum(1 for v in exact_cal if Fraction(f) <= v), 10) <= alpha)
        == oracles.threshold_includes(Fraction(f), exact_cal, alpha)
        for f in test_values
        if not math.isinf(f)
        for alpha in grid
    )
    add(
        "threshold rule agrees on a random instance",
        brute_agree
        and threshold_equivalence_check(
            test_values, build_calibration_summary(cal_values), grid
        ),
    )
    tie_cal = [2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 7.0, 8.0, 9.0]
    tie_tests = [2.0, 3.0, 5.0, 9.0, 0.0, math.inf]
    exact_cal = [Fraction(v) for v in tie_cal]
    brute_agree = all(
        (Fraction(1 + sum(1 for v in exact_cal if Fraction(f) <= v), 10) <= alpha)
        == oracles.threshold_includes(Fraction(f), exact_cal, alpha)
        for f in tie_tests
        if not math.isinf(f)
        for alpha in grid
    )
    add(
        "threshold rule survives exact ties",
        brute_agree
        and threshold_equivalence_check(
            tie_tests, build_calibration_summary(tie_cal), grid
        ),
    )

    # Report plumbing: a 101-point grid yields a header plus one row each.
    instances = [
        make_instance("battery-csv-1", [0.9]),
        make_instance("battery-csv-2", [0.4], first_error_index=1),
        make_instance("battery-csv-3", [0.7]),
        make_instance("battery-csv-4", [0.2], first_error_index=1),
    ]
    grid = parse_grid("0:1:0.01", Strategy.ALPHA_MAX)
    expected_lines = 1 + len(grid.parameters)
    report = evaluate_dataset(
        PreparedDataset(instances),
        (ScoreKind.parse("p"),),
        (grid,),
        SplitPlan(seed=0, n_splits=2),
    )
    path = emit_csv(report, tmp_path / "battery.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    add("csv emits header plus one row per grid point", len(lines) == expected_lines == 102)

    return checks


def test_06_worked_example_battery(tmp_path):
    checks = _battery(tmp_path)
    failed = [label for label, ok in checks if not ok]
    _report(
        6,
        not failed,
        f"{len(checks)} worked examples" + (f"; failed: {failed}" if failed else ""),
    )


# --- 7: randomized invariant sweep ---------------------------------------------


def _random_summary(rng: random.Random):
    values = []
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        if roll < 0.05:
            values.append(0.0)
        elif roll < 0.10:
            values.append(math.inf)
        else:
            values.append(rng.uniform(0.0, 4.0))
    return build_calibration_summary(values)


def _random_value(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.05:
        return 0.0
    if roll < 0.10:
        return math.inf
    return rng.uniform(0.0, 4.0)


def test_07_randomized_invariants(tmp_path):
    rng = random.Random(20260816)
    started = time.perf_counter()
    counts: dict[str, int] = {}

    # Nestedness: a looser tolerance never drops an included response.
    for _ in range(2000):
        scored = make_scored([_random_value(rng) for _ in range(rng.randint(1, 8))])
        low, high = sorted((rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)))
        tight = set(filter_at_alpha(scored, low).included.responses)
        loose = set(filter_at_alpha(scored, high).included.responses)
        assert tight <= loose
    counts["nestedness"] = 2000

    # Monotonicity: every family's score is nonincreasing in the value
    # (for the baseline, in the estimate).
    for _ in range(500):
        summary = _random_summary(rng)
        f_low, f_high = sorted((_random_value(rng), _random_value(rng)))
        if rng.random() < 0.1:
            f_high = f_low
        assert e_score(f_low, summary) >= e_score(f_high, summary)
        assert p_score(f_low, summary) >= p_score(f_high, summary)
        draw = RandomDraw(u=rng.random())
        assert p_score_randomized(f_low, summary, draw) >= p_score_randomized(
            f_high, summary, draw
        )
        est_low, est_high = sorted((rng.random(), rng.random()))
        for transform in FTransform:
            assert naive_score(est_low, transform) >= naive_score(est_high, transform)
        others = [_random_summary(rng) for _ in range(2)]
        lows = [e_score(f_low, s) for s in (summary, *others)]
        highs = [e_score(f_high, s) for s in (summary, *others)]
        assert combined_e_score(lows) >= combined_e_score(highs)
    counts["monotonicity"] = 500 * 5

    # Combination bounds: between the smallest component and len times it.
    for _ in range(1500):
        components = [_random_value(rng) for _ in range(rng.randint(1, 5))]
        combined = combined_e_score(components)
        smallest = min(components)
        if smallest == 0.0:
            assert combined == 0.0
        elif math.isinf(smallest):
            assert math.isinf(combined)
        else:
            assert smallest * (1.0 - 1e-12) <= combined
            assert combined <= len(components) * smallest * (1.0 + 1e-12)
    counts["combination bounds"] = 1500

    # Prefix labels flip once: correct prefixes, then incorrect forever.
    for _ in range(1500):
        k = rng.randint(1, 8)
        fei = None if rng.random() < 0.3 else rng.randint(1, k)
        generated = make_generated("invariant", k, first_error_index=fei)
        labeled = label_response_set(generated, build_prefix_set(generated))
        labels = [label for _, label in labeled]
        assert labels == sorted(labels, reverse=True)
        assert sum(labels) == (k if fei is None else fei - 1)
    counts["label monotonicity"] = 1500

    # The tie-randomized rank score never exceeds the plain one at u <= 1.
    for _ in range(1500):
        summary = _random_summary(rng)
        value = summary.per_prompt_fstar[0] if rng.random() < 0.3 else _random_value(rng)
        draw = RandomDraw(u=rng.random())
        assert p_score_randomized(value, summary, draw) <= p_score(value, summary)
    counts["randomized rank domination"] = 1500

    # Serialization round trip: parse(write(x)) == x, batched.
    total = 0
    for batch in range(25):
        instances = []
        for index in range(50):
            k = rng.randint(1, 5)
            fei = None if rng.random() < 0.4 else rng.randint(1, k)
            conditionals = [rng.random() for _ in range(k)]
            instances.append(
                make_instance(f"round-trip-{batch}-{index}", conditionals, fei)
            )
        path = tmp_path / f"batch-{batch}.jsonl"
        write_dataset(instances, path, schema="prefix")
        assert parse_dataset(path) == tuple(instances)
        total += len(instances)
    counts["serialization round trip"] = total

    elapsed = time.perf_counter() - started
    n_cases = sum(counts.values())
    ok = n_cases >= 10000 and elapsed < 30.0
    detail = " ".join(f"{name}={count}" for name, count in counts.items())
    _report(7, ok, f"{detail} total={n_cases} runtime={elapsed:.1f}s")


# --- 8: access-counted complexity contract --------------------------------------


class _CountingValues:
    """Sequence stand-in that counts every element it hands out."""

    def __init__(self, owner: "_CountingSummary", values: tuple[float, ...]):
        self._owner = owner
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        for value in self._values:
            self._owner.element_reads += 1
            yield value

    def __getitem__(self, index: int) -> float:
        self._owner.element_reads += 1
        return self._values[index]


class _CountingSummary:
    """Duck-typed calibration summary that counts field and element reads."""

    def __init__(self, values):
        self._values = tuple(float(v) for v in values)
        self._sum = math.fsum(self._values)
        self.summary_reads = 0
        self.element_reads = 0

    @property
    def n(self) -> int:
        self.summary_reads += 1
        return len(self._values)

    @property
    def fstar_sum(self) -> float:
        self.summary_reads += 1
        return self._sum

    @property
    def per_prompt_fstar(self) -> _CountingValues:
        return _CountingValues(self, self._values)


class _CountingIterable:
    """Iterable that counts how many values a consumer pulls from it."""

    def __init__(self, values):
        self._values = list(values)
        self.pulled = 0

    def __iter__(self):
        for value in self._values:
            self.pulled += 1
            yield value


def test_08_access_count_contract():
    rng = random.Random(4)
    m = 50
    tests = [rng.uniform(0.0, 4.0) for _ in range(m)]
    details = []
    ok = True

    e_reads_by_n = {}
    for n in (200, 4000):
        values = [rng.uniform(0.0, 4.0) for _ in range(n)]
        real = build_calibration_summary(values)

        counting = _CountingSummary(values)
        for f in tests:
            assert e_score(f, counting) == e_score(f, real)
        ok = ok and counting.element_reads == 0
        e_reads_by_n[n] = counting.summary_reads

        counting = _CountingSummary(values)
        for f in tests:
            assert p_score(f, counting) == p_score(f, real)
        ok = ok and counting.element_reads == m * n
        details.append(
            f"n={n}: e element reads=0, p element reads={m}*{n}"
        )

    # O(1) per response for e-scores: the same bounded number of summary
    # field reads regardless of n, and an exact per-response count.
    per_response = {n: reads / m for n, reads in e_reads_by_n.items()}
    ok = ok and len(set(e_reads_by_n.values())) == 1
    ok = ok and all(reads == 2.0 for reads in per_response.values())

    # One O(n) build: the summary consumes its input exactly once.
    source = _CountingIterable(rng.uniform(0.0, 4.0) for _ in range(300))
    build_calibration_summary(source)
    ok = ok and source.pulled == 300

    _report(
        8,
        ok,
        f"{'; '.join(details)}; e summary reads/response="
        f"{sorted(set(per_response.values()))} build pulls=300",
    )

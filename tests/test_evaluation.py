"""Instance metrics, repeated splits, the array engine, and equivalence checks."""

from __future__ import annotations

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escores import (
    ConfigurationError,
    FTransform,
    InvalidInputError,
    InvalidSplitError,
    Parameter,
    PermutationMode,
    PermutationPolicy,
    PreparedDataset,
    ScoreKind,
    ALL_SCORE_KINDS,
    SplitAssignment,
    SplitPlan,
    Strategy,
    StrategyGrid,
    aggregate_conditionals,
    aggregate_splits,
    build_calibration_summary,
    calibration_f_star,
    evaluate_dataset,
    evaluate_split,
    filter_at_alpha,
    fractional_inclusion_alpha,
    instance_metrics,
    label_response_set,
    max_constrained_alpha,
    plan_splits,
    run_equivalence_trials,
    score_response_set,
    threshold_equivalence_check,
    transform_estimate,
    uniform_block,
    worst_case_distortion,
)

import oracles
from escores.evaluation import score_prompts
from helpers import (
    POLICIES,
    instance_of,
    make_instance,
    make_labeled,
    make_scored,
    oracle_fstars,
    oracle_prompt,
    oracle_scores,
    split_records,
)


# ---------------------------------------------------------------------------
# per-instance accounting
# ---------------------------------------------------------------------------


def test_worst_case_distortion_examples() -> None:
    # oracle: incorrect scores {4.95, 6.01, 6.28} -> 1/4.95
    _, _, worst, _, _ = oracles.instance(
        [0, 0, 0], [4.95, 6.01, 6.28], [], Fraction(1)
    )
    assert worst == Fraction(1) / Fraction(4.95)

    labeled = make_labeled([0, 0, 0])
    scored = make_scored([4.95, 6.01, 6.28])
    assert worst_case_distortion(labeled, scored) == pytest.approx(1 / 4.95, rel=1e-12)
    # no incorrect responses: nothing to distort
    assert worst_case_distortion(make_labeled([1, 1]), make_scored([0.1, 0.2])) == 0.0
    # an incorrect response with score 0 blows up
    assert worst_case_distortion(make_labeled([0]), make_scored([0.0])) == math.inf


def test_worst_case_distortion_requires_matching_sets() -> None:
    with pytest.raises(InvalidInputError):
        worst_case_distortion(make_labeled([0, 1]), make_scored([0.5]))


def test_instance_metrics_worked_example() -> None:
    # two correct responses included at tolerance 0.01, one excluded correct
    labels = [1, 1, 0, 1]
    scores = [0.005, 0.01, 4.0, 2.0]
    expected = oracles.instance(labels, scores, [0, 1], Fraction(1, 100))
    assert expected[0] == 0
    assert expected[1] == 0
    assert expected[3] == Fraction(1)
    assert expected[4] == Fraction(2, 3)

    labeled = make_labeled(labels)
    scored = make_scored(scores)
    got = instance_metrics(labeled, filter_at_alpha(scored, 0.01), scored)
    assert got.error == 0
    assert got.size_distortion == 0.0
    assert got.alpha_used == 0.01
    assert got.worst_case_distortion == pytest.approx(0.25, rel=1e-12)
    assert got.precision == 1.0
    assert got.recall == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_instance_metrics_error_case() -> None:
    # oracle: an included incorrect response at tolerance 1/2 costs 2
    expected = oracles.instance([1, 0], [0.1, 0.5], [0, 1], Fraction(1, 2))
    assert expected[0] == 1 and expected[1] == 2

    labeled = make_labeled([1, 0])
    scored = make_scored([0.1, 0.5])
    got = instance_metrics(labeled, filter_at_alpha(scored, 0.5), scored)
    assert got.error == 1
    assert got.size_distortion == pytest.approx(2.0)
    assert got.precision == 0.5
    assert got.recall == 1.0


def test_instance_metrics_edge_conventions() -> None:
    labeled = make_labeled([0, 0])
    scored = make_scored([3.0, 4.0])
    got = instance_metrics(labeled, filter_at_alpha(scored, 0.5), scored)
    assert got.error == 0
    assert got.precision == 1.0  # empty selection
    assert got.recall == 1.0  # nothing correct to recall
    assert got.size_distortion == 0.0
    # an error at tolerance 0 is infinitely distorted
    bad = instance_metrics(labeled, filter_at_alpha(scored, 3.0), scored)
    assert bad.error == 1
    assert bad.size_distortion == pytest.approx(1 / 3.0)


def test_instance_metrics_rejects_mismatched_partition() -> None:
    labeled = make_labeled([1, 1])
    scored = make_scored([0.1, 0.2])
    foreign = filter_at_alpha(make_scored([0.1, 0.2, 0.3]), 0.15)
    with pytest.raises(InvalidInputError):
        instance_metrics(labeled, foreign, scored)
    with pytest.raises(InvalidInputError):
        instance_metrics(make_labeled([1, 1, 1]), filter_at_alpha(scored, 0.15), scored)


# ---------------------------------------------------------------------------
# split planning
# ---------------------------------------------------------------------------


def test_split_plan_validation() -> None:
    with pytest.raises(InvalidInputError):
        SplitPlan(seed=-1)
    with pytest.raises(InvalidInputError):
        SplitPlan(n_splits=0)
    with pytest.raises(InvalidInputError):
        SplitPlan(test_fraction=0.0)
    with pytest.raises(InvalidInputError):
        SplitPlan(test_fraction=1.0)


def test_plan_splits_partitions_and_reproduces() -> None:
    plan = SplitPlan(seed=3, n_splits=4, test_fraction=0.5)
    splits = plan_splits(plan, 5)
    assert len(splits) == 4
    for split in splits:
        # odd prompt goes to the calibration half
        assert len(split.test) == 2
        assert len(split.calibration) == 3
        assert sorted(split.test + split.calibration) == [0, 1, 2, 3, 4]
    assert plan_splits(plan, 5) == splits
    assert plan_splits(SplitPlan(seed=4, n_splits=4), 5) != splits
    # splits within a plan differ from each other
    assert len({s.test for s in plan_splits(SplitPlan(seed=0, n_splits=20), 10)}) > 1


def test_plan_splits_refuses_degenerate_halves() -> None:
    with pytest.raises(InvalidSplitError):
        plan_splits(SplitPlan(), 1)
    with pytest.raises(InvalidSplitError):
        plan_splits(SplitPlan(test_fraction=0.1), 5)  # floor(0.5) = 0 test prompts


# ---------------------------------------------------------------------------
# grids and report plumbing
# ---------------------------------------------------------------------------


def test_parameter_of_is_exact() -> None:
    p = Parameter.of("0.3")
    assert p.label == "0.3" and p.value == Fraction(3, 10)
    assert Parameter.of(0.3).value == Fraction(3, 10)  # via repr, not binary float
    assert Parameter.of(1).value == Fraction(1)
    assert Parameter.of(Fraction(2, 5)).value == Fraction(2, 5)
    with pytest.raises(InvalidInputError):
        Parameter.of(math.inf)
    with pytest.raises(InvalidInputError):
        Parameter.of("zero")
    with pytest.raises(InvalidInputError):
        Parameter.of(-0.5)


def test_strategy_grid_validation() -> None:
    grid = StrategyGrid(Strategy.FRACTION, (Parameter.of("0.5"), Parameter.of(1)))
    assert [p.label for p in grid.parameters] == ["0.5", "1"]
    with pytest.raises(InvalidInputError):
        StrategyGrid(Strategy.FRACTION, (Parameter.of("1.5"),))
    with pytest.raises(InvalidInputError):
        StrategyGrid(Strategy.ALPHA_MAX, ())


# ---------------------------------------------------------------------------
# the split engine, pinned on a two-prompt dataset
# ---------------------------------------------------------------------------


def two_prompt_dataset():
    errorful = make_instance("p-err", [0.6, 0.5], first_error_index=2)
    clean = make_instance("p-ok", [0.8, 0.25])
    return [errorful, clean]


def test_evaluate_split_two_prompts_clean_test_half() -> None:
    dataset = two_prompt_dataset()
    split = SplitAssignment(calibration=(0,), test=(1,))
    grids = (
        StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.5"), Parameter.of(1))),
        StrategyGrid(Strategy.FRACTION, (Parameter.of("0.5"),)),
    )
    kinds = (ScoreKind.parse("e1"), ScoreKind.parse("p"))
    result = evaluate_split(dataset, split, kinds, grids)
    assert result.n_test == 1 and result.n_cal == 1

    # oracle scores: calibration f* under identity is 0.3 (the incorrect prefix)
    assert oracles.e_score(Fraction("0.8"), [Fraction("0.3")]) == Fraction(11, 16)
    assert oracles.e_score(Fraction("0.2"), [Fraction("0.3")]) == Fraction(5, 4)
    assert oracles.p_score(Fraction("0.8"), [Fraction("0.3")]) == Fraction(1, 2)
    assert oracles.p_score(Fraction("0.2"), [Fraction("0.3")]) == Fraction(1)

    rows = {(r.score_kind, r.strategy, r.parameter): r for r in result.rows}
    tight = rows[("e1", "alpha-max", "0.5")]
    assert tight.mean_error == 0.0
    assert tight.mean_alpha == 0.0  # nothing scored within 0.5
    assert tight.mean_size_distortion == 0.0
    assert tight.mean_precision == 1.0
    assert tight.mean_recall == 0.0

    loose = rows[("e1", "alpha-max", "1")]
    assert loose.mean_alpha == pytest.approx(11 / 16, rel=1e-12)
    assert loose.mean_error == 0.0
    assert loose.mean_precision == 1.0
    assert loose.mean_recall == 0.5

    frac = rows[("e1", "fraction", "0.5")]
    assert frac.mean_alpha == pytest.approx(11 / 16, rel=1e-12)
    assert frac.mean_recall == 0.5

    # the test prompt has no incorrect responses, so nothing can distort
    assert dict(result.worst_case)["e1"] == 0.0
    assert dict(result.worst_case)["p"] == 0.0


def test_evaluate_split_two_prompts_errorful_test_half() -> None:
    dataset = two_prompt_dataset()
    split = SplitAssignment(calibration=(1,), test=(0,))
    grids = (StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.5"),)),)
    result = evaluate_split(dataset, split, (ScoreKind.parse("e1"),), grids)

    # calibration prompt is fully correct: f* = 0, so every positive f
    # hits the e-score floor 1/2
    assert oracles.e_score(0.6, [0.0]) == Fraction(1, 2)
    assert oracles.e_score(0.3, [0.0]) == Fraction(1, 2)

    row = result.rows[0]
    assert row.mean_error == 1.0  # the incorrect prefix was included
    assert row.mean_alpha == 0.5
    assert row.mean_size_distortion == pytest.approx(2.0)
    assert row.mean_precision == 0.5
    assert row.mean_recall == 1.0
    assert dict(result.worst_case)["e1"] == pytest.approx(2.0)


def test_evaluate_split_validates_split_indices() -> None:
    dataset = two_prompt_dataset()
    kinds = (ScoreKind.parse("naive1"),)
    with pytest.raises(InvalidSplitError):
        evaluate_split(dataset, SplitAssignment((), (0, 1)), kinds)
    with pytest.raises(InvalidInputError):
        evaluate_split(dataset, SplitAssignment((0,), (2,)), kinds)
    with pytest.raises(InvalidInputError):
        evaluate_split(dataset, SplitAssignment((0,), (0,)), kinds)
    with pytest.raises(InvalidInputError):
        evaluate_split(dataset, split=SplitAssignment((0,), (1,)), kinds=())


def test_evaluate_split_is_bitwise_deterministic() -> None:
    dataset = two_prompt_dataset()
    split = SplitAssignment(calibration=(0,), test=(1,))
    kinds = (ScoreKind.parse("p-randomized"), ScoreKind.parse("e-combined"))
    grids = (StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.9"),)),)
    a = evaluate_split(dataset, split, kinds, grids, master_seed=7, split_index=3)
    b = evaluate_split(dataset, split, kinds, grids, master_seed=7, split_index=3)
    assert a == b
    moved = evaluate_split(dataset, split, kinds, grids, master_seed=8, split_index=3)
    assert a != moved


# ---------------------------------------------------------------------------
# the array engine agrees with scoring one prompt at a time
# ---------------------------------------------------------------------------


def random_dataset(seed: int, n_prompts: int = 8):
    rnd = random.Random(seed)
    instances = []
    for i in range(n_prompts):
        k = rnd.randint(1, 4)
        conds = [rnd.choice([0.0, rnd.random(), rnd.random(), 1.0]) for _ in range(k)]
        fei = rnd.choice([None, rnd.randint(1, k)])
        instances.append(make_instance(f"prompt-{seed}-{i}", conds, fei))
    return instances


def compose_split_by_hand(instances, split, kinds, grids, master_seed, split_index, policy=None):
    """The same evaluation via the one-prompt-at-a-time public pieces."""
    from escores import IDENTITY_POLICY, build_permutation_set

    policy = policy or IDENTITY_POLICY
    responses, labeled = [], []
    for inst in instances:
        rs = build_permutation_set(inst.generated, policy)
        responses.append(rs)
        labeled.append(label_response_set(inst.generated, rs))

    summaries = {}
    for t in FTransform:
        per_prompt = []
        for i in split.calibration:
            ests = [aggregate_conditionals(instances[i].estimates, r) for r in responses[i]]
            values = dict(zip(responses[i], (transform_estimate(o, t) for o in ests)))
            per_prompt.append(calibration_f_star(labeled[i], values))
        summaries[t] = build_calibration_summary(per_prompt, t)

    def cal_for(kind: ScoreKind):
        if kind.family.value == "naive":
            return None
        if kind.family.value == "e-combined":
            return summaries
        if kind.family.value == "e":
            return summaries[kind.transform]
        return summaries[FTransform.IDENTITY]

    rows = {}
    worst = {}
    for kind in kinds:
        scored_sets = [
            score_response_set(
                instances[i].generated.prompt,
                responses[i],
                instances[i].estimates,
                kind,
                cal_for(kind),
                master_seed=master_seed,
                split_index=split_index,
            )
            for i in split.test
        ]
        worst[kind.name] = sum(
            worst_case_distortion(labeled[i], scored)
            for i, scored in zip(split.test, scored_sets)
        ) / len(split.test)
        for grid in grids:
            for param in grid.parameters:
                metrics = []
                for i, scored in zip(split.test, scored_sets):
                    if grid.strategy is Strategy.ALPHA_MAX:
                        outcome = max_constrained_alpha(scored, float(param.value))
                    else:
                        outcome = fractional_inclusion_alpha(scored, param.value)
                    metrics.append(instance_metrics(labeled[i], outcome, scored))
                rows[(kind.name, grid.strategy.value, param.label)] = {
                    "sd": sum(m.size_distortion for m in metrics) / len(metrics),
                    "err": sum(m.error for m in metrics) / len(metrics),
                    "alpha": sum(m.alpha_used for m in metrics) / len(metrics),
                    "prec": sum(m.precision for m in metrics) / len(metrics),
                    "rec": sum(m.recall for m in metrics) / len(metrics),
                }
    return rows, worst


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_engine_matches_per_prompt_composition(seed: int) -> None:
    instances = random_dataset(seed)
    split = SplitAssignment(calibration=(0, 2, 4, 6), test=(1, 3, 5, 7))
    grids = (
        StrategyGrid(Strategy.ALPHA_MAX, tuple(Parameter.of(v) for v in ("0.05", "0.5", "1"))),
        StrategyGrid(Strategy.FRACTION, tuple(Parameter.of(v) for v in ("0", "0.3", "1"))),
    )
    result = evaluate_split(
        instances, split, ALL_SCORE_KINDS, grids, master_seed=seed, split_index=2
    )
    rows, worst = compose_split_by_hand(
        instances, split, ALL_SCORE_KINDS, grids, master_seed=seed, split_index=2
    )
    assert dict(result.worst_case).keys() == worst.keys()
    for name, value in result.worst_case:
        assert value == pytest.approx(worst[name], rel=1e-9, abs=1e-12), name
    assert len(result.rows) == len(rows)
    for row in result.rows:
        expected = rows[(row.score_kind, row.strategy, row.parameter)]
        key = (row.score_kind, row.strategy, row.parameter)
        assert row.mean_size_distortion == pytest.approx(expected["sd"], rel=1e-9, abs=1e-12), key
        assert row.mean_error == pytest.approx(expected["err"], rel=1e-9, abs=1e-12), key
        assert row.mean_alpha == pytest.approx(expected["alpha"], rel=1e-9, abs=1e-12), key
        assert row.mean_precision == pytest.approx(expected["prec"], rel=1e-9, abs=1e-12), key
        assert row.mean_recall == pytest.approx(expected["rec"], rel=1e-9, abs=1e-12), key


def test_engine_matches_composition_under_permutation_policy() -> None:
    instances = random_dataset(11, n_prompts=6)
    policy = PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)
    split = SplitAssignment(calibration=(0, 1, 2), test=(3, 4, 5))
    grids = (StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.5"),)),)
    kinds = (ScoreKind.parse("e-combined"), ScoreKind.parse("p"))
    prep = PreparedDataset(instances, policy)
    result = evaluate_split(prep, split, kinds, grids, master_seed=0, split_index=0)
    rows, worst = compose_split_by_hand(
        instances, split, kinds, grids, master_seed=0, split_index=0, policy=policy
    )
    for name, value in result.worst_case:
        assert value == pytest.approx(worst[name], rel=1e-9, abs=1e-12)
    for row in result.rows:
        expected = rows[(row.score_kind, row.strategy, row.parameter)]
        assert row.mean_alpha == pytest.approx(expected["alpha"], rel=1e-9, abs=1e-12)
        assert row.mean_error == pytest.approx(expected["err"], rel=1e-9, abs=1e-12)


def test_fraction_targets_near_one_are_exact() -> None:
    # lambda * k overflows int64 for these numerators; ceil(lambda * k) = k regardless
    instances = [
        make_instance(f"p-{i}", [0.9, 0.5, 0.8, 0.25][: 3 + i % 2], first_error_index=i % 3 or None)
        for i in range(6)
    ]
    prep = PreparedDataset(instances, PermutationPolicy(PermutationMode.ALL_PERMUTATIONS))
    split = SplitAssignment(calibration=(0, 1, 2), test=(3, 4, 5))
    for near_one in ("0.999999999999999999", "0.9999999999999999999"):
        grid = StrategyGrid(Strategy.FRACTION, (Parameter.of(near_one), Parameter.of(1)))
        near, one = evaluate_split(prep, split, (ScoreKind.parse("e-combined"),), (grid,)).rows
        assert dataclasses.replace(near, parameter="1") == one


def test_prepared_dataset_rejects_duplicates_and_empty() -> None:
    with pytest.raises(InvalidInputError):
        PreparedDataset([])
    inst = make_instance("dup", [0.5])
    with pytest.raises(InvalidInputError):
        PreparedDataset([inst, make_instance("dup", [0.7])])


# ---------------------------------------------------------------------------
# the split engine against a composition of the rational oracles alone
# ---------------------------------------------------------------------------


def _exact_mean(values) -> "Fraction | float":
    return oracles.x_div(oracles.x_sum(values), Fraction(len(values)))


def _oracle_rows(labels, scores, grid: StrategyGrid) -> dict[str, list]:
    """Exact means of (size distortion, error, alpha_used, precision, recall) per label.

    ``labels`` and ``scores`` hold one list per test prompt.  Filtering
    and instance metrics come from the oracles only; alpha-max filters at
    the float the engine compares against.
    """
    out = {}
    # many parameters keep the same responses, so cache by what is kept
    metrics: dict = {}
    means: dict = {}
    for param in grid.parameters:
        keys = []
        for i, (lab, sc) in enumerate(zip(labels, scores)):
            if grid.strategy is Strategy.ALPHA_MAX:
                included, alpha_used = oracles.max_constrained(sc, float(param.value))
            else:
                included, alpha_used = oracles.fractional(sc, param.value)
            key = (i, tuple(included), alpha_used)
            if key not in metrics:
                error, sd, _, precision, recall = oracles.instance(lab, sc, included, alpha_used)
                metrics[key] = (sd, error, alpha_used, precision, recall)
            keys.append(key)
        keys = tuple(keys)
        if keys not in means:
            means[keys] = [_exact_mean(column) for column in zip(*(metrics[k] for k in keys))]
        out[param.label] = means[keys]
    return out


@settings(max_examples=25, deadline=None)
@given(
    split_records(),
    st.sets(st.fractions(min_value=0, max_value=1, max_denominator=12), max_size=4),
    st.integers(0, 3),
)
def test_evaluate_split_matches_oracle_composition(inputs, fractions, split_index) -> None:
    test_records, cal_records, seed = inputs
    instances = [instance_of(r) for r in test_records + cal_records]
    n_test = len(test_records)
    split = SplitAssignment(
        calibration=tuple(range(n_test, len(instances))), test=tuple(range(n_test))
    )
    lambdas = sorted({Fraction(0), Fraction(1), *fractions})
    fraction_grid = StrategyGrid(Strategy.FRACTION, tuple(Parameter.of(v) for v in lambdas))
    metrics = ("size_distortion", "error", "alpha", "precision", "recall")
    for mode, (policy, enumerate_set) in POLICIES.items():
        prep = PreparedDataset(instances, policy)
        fstars = oracle_fstars(cal_records, enumerate_set)
        cal_fstar = {t: prep.fstar[t][n_test:] for t in FTransform}
        scores = score_prompts(
            prep, np.arange(n_test), ALL_SCORE_KINDS, cal_fstar,
            master_seed=seed, split_index=split_index,
        )
        # test prompts come first, so their flat offsets are the dataset's
        labels, per_kind = [], {kind.name: [] for kind in ALL_SCORE_KINDS}
        for i, record in enumerate(test_records):
            _, lab, estimates = oracle_prompt(record, enumerate_set)
            labels.append(lab)
            lo, hi = int(prep.offsets[i]), int(prep.offsets[i + 1])
            u = uniform_block(seed, split_index, record["id"], len(estimates))
            for j, o in enumerate(estimates):
                for name, want in oracle_scores(o, fstars, float(u[j])).items():
                    assert oracles.matches(float(scores[name][lo + j]), want), (mode, name, j)
            for name, values in per_kind.items():
                values.append(scores[name][lo:hi].tolist())

        for kind in ALL_SCORE_KINDS:
            sc = per_kind[kind.name]
            finite = {s for prompt in sc for s in prompt if s != math.inf}
            alphas = {0.0, 1.0} | {
                float(a)
                for s in finite
                for a in (np.nextafter(s, -math.inf), s, np.nextafter(s, math.inf))
                if a >= 0
            }
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # alpha-max parameters above 1
                grids = (
                    StrategyGrid(Strategy.ALPHA_MAX, tuple(Parameter.of(a) for a in sorted(alphas))),
                    fraction_grid,
                )
                result = evaluate_split(
                    prep, split, (kind,), grids, master_seed=seed, split_index=split_index
                )
            rows = {(row.strategy, row.parameter): row for row in result.rows}
            assert len(rows) == sum(len(grid.parameters) for grid in grids)
            for grid in grids:
                for label, want in _oracle_rows(labels, sc, grid).items():
                    row = rows[(grid.strategy.value, label)]
                    got = (
                        row.mean_size_distortion, row.mean_error, row.mean_alpha,
                        row.mean_precision, row.mean_recall,
                    )
                    for g, w, what in zip(got, want, metrics):
                        assert oracles.matches(g, w), (mode, kind.name, label, what, g, w)
            worst = _exact_mean([oracles.instance(lab, s, [], 0)[2] for lab, s in zip(labels, sc)])
            assert oracles.matches(dict(result.worst_case)[kind.name], worst), (mode, kind.name)


# ---------------------------------------------------------------------------
# aggregation over splits
# ---------------------------------------------------------------------------


def test_aggregate_splits_averages_rows() -> None:
    dataset = two_prompt_dataset()
    kinds = (ScoreKind.parse("e1"),)
    grids = (StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.5"),)),)
    a = evaluate_split(dataset, SplitAssignment((0,), (1,)), kinds, grids)
    b = evaluate_split(dataset, SplitAssignment((1,), (0,)), kinds, grids)
    report = aggregate_splits([a, b])
    assert report.n_splits == 2
    row = report.rows[0]
    assert row.n_splits == 2
    assert row.mean_error == pytest.approx(
        (a.rows[0].mean_error + b.rows[0].mean_error) / 2
    )
    assert row.mean_alpha == pytest.approx(
        (a.rows[0].mean_alpha + b.rows[0].mean_alpha) / 2
    )
    wc = report.find_worst_case("e1")
    values = [dict(a.worst_case)["e1"], dict(b.worst_case)["e1"]]
    assert wc.mean == pytest.approx(sum(values) / 2)
    assert min(values) <= wc.q25 <= wc.q75 <= max(values)
    with pytest.raises(InvalidInputError):
        report.find_worst_case("naive1")
    assert report.find_rows("e1", "alpha-max") == (row,)


def test_aggregate_splits_rejects_mismatched_grids() -> None:
    dataset = two_prompt_dataset()
    grids = (StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.5"),)),)
    a = evaluate_split(dataset, SplitAssignment((0,), (1,)), (ScoreKind.parse("e1"),), grids)
    b = evaluate_split(dataset, SplitAssignment((0,), (1,)), (ScoreKind.parse("p"),), grids)
    with pytest.raises(ConfigurationError):
        aggregate_splits([a, b])
    with pytest.raises(InvalidInputError):
        aggregate_splits([])


def test_aggregate_splits_rejects_mismatched_half_sizes() -> None:
    instances = random_dataset(5, n_prompts=3)
    kinds = (ScoreKind.parse("naive1"),)
    a = evaluate_split(instances, SplitAssignment((0, 1), (2,)), kinds)
    b = evaluate_split(instances, SplitAssignment((0,), (1, 2)), kinds)
    with pytest.raises(ConfigurationError):
        aggregate_splits([a, b])


def test_evaluate_dataset_end_to_end_determinism() -> None:
    instances = random_dataset(9, n_prompts=6)
    kinds = (ScoreKind.parse("e-combined"), ScoreKind.parse("p-randomized"))
    grids = (StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.3"),)),)
    plan = SplitPlan(seed=2, n_splits=5)
    first = evaluate_dataset(instances, kinds, grids, plan)
    second = evaluate_dataset(instances, kinds, grids, plan)
    assert first == second
    assert first.n_splits == 5
    assert {row.score_kind for row in first.rows} == {"e-combined", "p-randomized"}
    assert all(row.n_test == 3 and row.n_cal == 3 for row in first.rows)
    shifted = evaluate_dataset(instances, kinds, grids, SplitPlan(seed=3, n_splits=5))
    assert shifted != first


# ---------------------------------------------------------------------------
# p-score filtering vs. the order-statistic threshold
# ---------------------------------------------------------------------------


def test_threshold_equivalence_empty_calibration() -> None:
    cal = build_calibration_summary([])
    assert threshold_equivalence_check([0.5, 0.0, math.inf], cal, [1]) is True
    with pytest.raises(InvalidInputError):
        threshold_equivalence_check([0.5], cal, [Fraction(1, 2)])


def test_threshold_equivalence_small_example_with_ties() -> None:
    cal = build_calibration_summary([0.2, 0.5, 0.5, 0.9])
    f_tests = [0.0, 0.2, 0.5, 0.7, 0.9, 1.5, math.inf]
    grid = [Fraction(1, 5), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(1)]
    # cross-check one point by hand against the oracle's rule
    for f in f_tests:
        by_p = oracles.p_score(f, [0.2, 0.5, 0.5, 0.9]) <= Fraction(2, 5)
        assert by_p == oracles.threshold_includes(f, [0.2, 0.5, 0.5, 0.9], Fraction(2, 5))
    assert threshold_equivalence_check(f_tests, cal, grid) is True


def test_threshold_equivalence_random_instance() -> None:
    rnd = random.Random(13)
    values = [rnd.random() for _ in range(9)]
    cal = build_calibration_summary(values)
    f_tests = [rnd.random() for _ in range(6)] + [values[0], values[3]]
    grid = [Fraction(1, 10) + Fraction(9, 10) * Fraction(j, 9) for j in range(10)]
    assert threshold_equivalence_check(f_tests, cal, grid) is True


def test_threshold_equivalence_rejects_out_of_range_alpha() -> None:
    cal = build_calibration_summary([0.1, 0.2, 0.3])  # n = 3, floor 1/4
    with pytest.raises(InvalidInputError):
        threshold_equivalence_check([0.5], cal, [Fraction(1, 5)])
    with pytest.raises(InvalidInputError):
        threshold_equivalence_check([0.5], cal, [Fraction(5, 4)])
    with pytest.raises(InvalidInputError):
        threshold_equivalence_check([0.5], cal, [math.nan])


def test_run_equivalence_trials_small_batch() -> None:
    trials = run_equivalence_trials(30, seed=0, n_max=12, grid_points=6)
    assert trials.n_instances == 30
    assert trials.failures == 0
    assert trials.all_equivalent
    with pytest.raises(InvalidInputError):
        run_equivalence_trials(0)
    with pytest.raises(InvalidInputError):
        run_equivalence_trials(5, grid_points=3)

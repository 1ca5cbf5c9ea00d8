"""Prepared datasets, their scores, and the split-based evaluation.

A ``PreparedDataset`` holds each response's estimate and label and each
prompt's maxima f* under every transform, not the transformed values.
``score_prompts`` scores every response of some prompts against the
calibration maxima of others, through ``scoring.kind_scores``, the code
the per-response scores of ``scalar`` call too: ``score`` runs it on a
whole test file and writes the scores in one of its two text forms (the
end of this module), and ``evaluate_split`` runs it on each split's test
half.  Each call builds only the calibration summaries its kinds read,
by ``build_calibration_summary`` of the prepared float64 maxima, which
it checks as arrays, and transforms only its prompts' estimates.

``evaluate_split`` scores a whole calibration/test split at once with
flat numpy arrays, so that hundred-split sweeps stay fast, and hands the
scores to ``sweep``, which sweeps them and writes the one-split
``EvaluationReport`` in its block layout; nothing here reads that
layout or a grid's points.  ``evaluate_dataset`` runs it on each split
of a ``SplitPlan``, drawing split i's shuffle from its seed only when it
reaches split i, so a run holds one split's indices at a time, not
every split's, and ``aggregate_splits`` averages the one-split reports
block of rows by block of rows.  The split plans, the grid sweep and
the report type are in ``sweep``, which these three import when they
are called, so ``score`` loads neither it nor ``fractions`` or
``decimal``.  Only ``score`` and ``evaluate`` load this module.
"""

from __future__ import annotations

import functools
import json
import sys
import warnings
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    ConfigurationError,
    InvalidInputError,
    InvalidSplitError,
    Response,
    Strategy,
    _fmt_score,
    _from_package,
    _require_seed,
)
from .estimation import (
    FTransform,
    _chain,
    build_calibration_summary,
    masked_f_star,
    transform_values,
)
from .reader import _DatasetColumns
from .response_sets import (
    IDENTITY_POLICY,
    PermutationPolicy,
    _label_table,
    build_permutation_set,
)
from .scoring import (
    ScoreFamily,
    ScoreKind,
    _prompt_key,
    _uniforms,
    kind_scores,
)

if TYPE_CHECKING:  # pragma: no cover - the split functions import the sweep when called
    from .io import PromptInstance
    from .sweep import EvaluationReport, SplitAssignment, SplitPlan, StrategyGrid

#: Names that nothing here calls, but that the traced benchmark run
#: (perfbench/tracing.py) rebinds on this module: the scalar forms, and
#: ``sweep``'s split planner.  Read from the package when first asked for
#: (PEP 562), so no command loads them for this module.
_DEFERRED = frozenset({
    "aggregate_conditionals", "calibration_f_star", "label_response_set", "plan_splits",
    "transform_estimate", "uniform_block",
})


__getattr__ = _from_package(globals(), _DEFERRED)


# ---------------------------------------------------------------------------
# prepared datasets and the array engine
# ---------------------------------------------------------------------------


class PreparedDataset:
    """Response sets, labels, estimates and per-prompt maxima, flattened.

    ``instances`` are prompt instances, or the columns that
    ``reader._read_columns`` validates straight from a file; instances
    are turned into the same columns (``io._columns_of``), so one core
    prepares both.  A response set depends only on the step count k and
    the policy, so construction builds it once per distinct k and labels it
    once per k for every first-error step (``response_sets._label_table``);
    prompts of the same size share one tuple of responses.  It chains
    the conditionals of all prompts of one k at once
    (``estimation._chain``), then takes every prompt's incorrect maxima
    ``fstar`` under each transform in whole-array operations.  It keeps
    no transformed values: ``score_prompts`` transforms the estimates it
    gathers, with the same bits, as every transform is elementwise.  So
    a prepared response holds 9 bytes, its float64 estimate and int8
    label.  Responses are stored prompt after prompt: prompt i owns
    ``offsets[i]:offsets[i+1]``.  ``prompt_keys`` (uint64) holds each
    prompt id's hash, the key of its uniform stream; it is computed on
    first read, so only a run with a randomized kind hashes the ids.
    Everything split-dependent is left to ``evaluate_split``.
    """

    def __init__(
        self,
        instances: "Iterable[PromptInstance] | _DatasetColumns",
        permutation_policy: PermutationPolicy | None = None,
    ) -> None:
        policy = permutation_policy if permutation_policy is not None else IDENTITY_POLICY
        if isinstance(instances, _DatasetColumns):
            columns = instances
        else:
            from .io import _columns_of

            columns = _columns_of(instances)
        # in the order the step counts first appear, so a policy that
        # cannot expand one reports the first such prompt's
        sets = {
            k: tuple(build_permutation_set(generated, policy))
            for k, generated in columns.generated.items()
        }
        if columns.duplicate is not None:
            raise InvalidInputError(f"duplicate prompt id {columns.duplicate!r} in dataset")
        if not columns.ids:
            raise InvalidInputError("cannot prepare an empty dataset")

        steps = columns.steps
        self.prompt_ids: list[str] = columns.ids
        self.responses: list[tuple[Response, ...]] = [sets[k] for k in steps.tolist()]
        self.n_prompts = len(self.prompt_ids)
        set_size = np.zeros(max(sets) + 1, dtype=np.int64)
        set_size[list(sets)] = [len(responses) for responses in sets.values()]
        self.counts = set_size[steps]
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        starts = self.offsets[:-1]
        step_starts = np.cumsum(steps) - steps
        self.labels_flat = np.empty(self.offsets[-1], dtype=np.int8)
        self.estimates_flat = np.empty(self.offsets[-1], dtype=np.float64)
        for k, responses in sets.items():
            rows = np.flatnonzero(steps == k)
            flat = starts[rows][:, None] + np.arange(len(responses))
            table = columns.conditionals[step_starts[rows][:, None] + np.arange(k)]
            steps_of = [[i - 1 for i in response.indices] for response in responses]
            self.estimates_flat[flat] = _chain(table, steps_of)
            self.labels_flat[flat] = _label_table(responses, k)[columns.first_errors[rows]]
        if columns.estimates is not None:
            fixed = np.repeat(columns.estimates, self.counts)
            given = ~np.isnan(fixed)
            self.estimates_flat[given] = fixed[given]
        incorrect = self.labels_flat == 0
        # each transform's values live only while its maxima are taken
        self.fstar = {
            t: masked_f_star(transform_values(self.estimates_flat, t), incorrect, starts)
            for t in FTransform
        }

    @functools.cached_property
    def prompt_keys(self) -> np.ndarray:
        return np.asarray([_prompt_key(pid) for pid in self.prompt_ids], dtype=np.uint64)

    def gather(self, prompts: np.ndarray) -> np.ndarray:
        """Flat indices of the responses of ``prompts``, prompt after prompt."""
        counts = self.counts[prompts]
        starts = np.cumsum(counts) - counts
        return np.repeat(self.offsets[prompts] - starts, counts) + np.arange(int(counts.sum()))


def score_prompts(
    prep: PreparedDataset,
    prompts: np.ndarray,
    kinds: Sequence[ScoreKind],
    cal_fstar: Mapping[FTransform, np.ndarray],
    *,
    master_seed: int = 0,
    split_index: int = 0,
) -> dict[str, np.ndarray]:
    """Score every response of ``prompts`` under each kind, prompt after prompt.

    ``cal_fstar[t]`` holds the calibration prompts' maxima under
    transform t; the maxima of each transform the kinds read become one
    ``CalibrationSummary`` (``build_calibration_summary``), the only
    thing ``kind_scores`` reads of the calibration half.  The prompts'
    estimates are gathered once and transformed only under the
    transforms the kinds read.  Randomized p-scores take one uniform per
    response from a single ``scoring._uniforms`` call over the prompts'
    keys, so each prompt's draws equal its own ``uniform_block``
    whatever prompts are scored with it and in whatever order.
    """
    _require_seed(master_seed)
    read = set().union(*(kind.summary_transforms for kind in kinds))
    summaries = {t: build_calibration_summary(cal_fstar[t], t) for t in read}
    if any(kind.family is ScoreFamily.NAIVE for kind in kinds):
        read.add(FTransform.IDENTITY)
    estimates = prep.estimates_flat[prep.gather(prompts)]
    values = {t: transform_values(estimates, t) for t in read}
    u = None
    if any(kind.family is ScoreFamily.P_SCORE_RANDOMIZED for kind in kinds):
        u = _uniforms(master_seed, split_index, prep.prompt_keys[prompts], prep.counts[prompts])
    return {kind.name: kind_scores(kind, values, summaries, u) for kind in kinds}


def _warn_infinite_maxima(
    fstar: Mapping[FTransform, np.ndarray], kinds: Sequence[ScoreKind]
) -> None:
    """Warn when a kind reads transforms 2 or 3 and some calibration maximum is infinite.

    ``fstar`` holds the calibration prompts' maxima per transform, as a
    ``PreparedDataset`` does.
    """
    if not any(kind.summary_transforms - {FTransform.IDENTITY} for kind in kinds):
        return
    # an incorrect calibration estimate of 1 has value +inf under transforms 2 and 3
    infinite = int(np.count_nonzero(np.isinf(fstar[FTransform.INVERSE_COMPLEMENT])))
    if infinite:
        warnings.warn(
            f"{infinite} calibration prompt(s) have an incorrect response with "
            "estimate 1, so their maxima under transforms 2 and 3 are infinite; every "
            "e2 and e3 score of a test response with estimate below 1 is then +inf, "
            "and e-combined reduces to 3 x e1"
        )


def evaluate_split(
    dataset: PreparedDataset,
    split: SplitAssignment,
    kinds: Sequence[ScoreKind],
    strategy_grids: Sequence[StrategyGrid] = (),
    *,
    master_seed: int = 0,
    split_index: int = 0,
) -> EvaluationReport:
    """Score and filter every test prompt against the calibration half: a one-split report.

    Builds the calibration summaries the requested kinds read, scores
    each test prompt's full response set under every requested kind, and
    reports the means over test prompts that ``sweep`` yields at every
    strategy grid point, with each kind's mean worst case over test
    prompts, which needs no strategy at all.  The report has
    ``n_splits=1``, and each worst-case row's quartiles equal its mean.
    The halves must be nonempty, in range and disjoint, and no kind may
    be listed twice.
    """
    from .sweep import _split_report

    kinds = tuple(kinds)
    if not kinds:
        raise InvalidInputError("need at least one score kind")
    names = tuple(kind.name for kind in kinds)
    if twice := [name for i, name in enumerate(names) if name in names[:i]]:
        raise InvalidInputError(f"score kind {twice[0]!r} listed twice")
    cal_idx = np.asarray(split.calibration, dtype=np.int64)
    test_idx = np.asarray(split.test, dtype=np.int64)
    if cal_idx.size == 0 or test_idx.size == 0:
        raise InvalidSplitError("both split halves must be nonempty")
    all_idx = np.concatenate([cal_idx, test_idx])
    if all_idx.min() < 0 or all_idx.max() >= dataset.n_prompts:
        raise InvalidInputError("split indices out of range for this dataset")
    if np.bincount(all_idx).max() > 1:  # after the range check: bincount refuses negatives
        raise InvalidInputError("split halves overlap or repeat indices")

    cal_fstar = {t: dataset.fstar[t][cal_idx] for t in FTransform}
    scores_of = score_prompts(
        dataset, test_idx, kinds, cal_fstar, master_seed=master_seed, split_index=split_index
    )
    correct = dataset.labels_flat[dataset.gather(test_idx)].astype(bool)
    return _split_report(scores_of, correct, dataset.counts[test_idx], strategy_grids, int(cal_idx.size))


def aggregate_splits(results: Sequence[EvaluationReport]) -> EvaluationReport:
    """Average one-split reports' means row by row; summarize worst cases.

    Each report must be of one split, as ``evaluate_split`` returns, and
    all must share the same score kinds and grids, in the same order,
    and the same half sizes.  Worst-case rows carry the mean and the
    25th/75th percentiles of the per-split means.
    """
    from .sweep import _BLOCK_CELLS, _MEAN_FIELDS, EvaluationReport, WorstCaseRow, _ext_percentile

    results = tuple(results)
    if not results:
        raise InvalidInputError("cannot aggregate zero split results")
    first = results[0]
    for res in results:
        if res.n_splits != 1:
            raise ConfigurationError(f"only one-split reports aggregate, got one of {res.n_splits} splits")
        if res.kinds != first.kinds:
            raise ConfigurationError("split results cover different score kinds")
        if res.grids != first.grids:
            raise ConfigurationError("split results were computed over different grids")
        if res.n_test != first.n_test or res.n_cal != first.n_cal:
            raise ConfigurationError("split results have inconsistent half sizes")

    n_splits = len(results)
    n_rows = len(first.means)
    row_means = np.empty((n_rows, len(_MEAN_FIELDS)))
    # Stacked a block of rows at a time, so that aggregating holds a
    # bounded copy of the splits' means.  Along the last axis of a
    # C-contiguous (rows, 5, splits) block, the mean is each field's
    # np.mean over splits, bit for bit.
    per_block = max(1, _BLOCK_CELLS // (len(_MEAN_FIELDS) * n_splits))
    for b in range(0, n_rows, per_block):
        e = min(b + per_block, n_rows)
        block = np.empty((e - b, len(_MEAN_FIELDS), n_splits))
        stacked = np.stack([res.means[b:e] for res in results], axis=-1, out=block)
        row_means[b:e] = stacked.mean(axis=-1)
    row_means.flags.writeable = False
    wc_rows = []
    for pos, name in enumerate(first.kinds):
        means = np.asarray([res.worst_case[pos].mean for res in results], dtype=np.float64)
        wc_rows.append(
            WorstCaseRow(
                score_kind=name,
                mean=float(np.mean(means)),
                q25=_ext_percentile(means, 25),
                q75=_ext_percentile(means, 75),
                n_splits=n_splits,
            )
        )
    return EvaluationReport(
        first.kinds, first.grids, row_means, tuple(wc_rows), first.n_test, first.n_cal, n_splits
    )


_FLOORED_FAMILIES = (ScoreFamily.E_SCORE, ScoreFamily.E_SCORE_COMBINED, ScoreFamily.P_SCORE)


def evaluate_dataset(
    dataset: PreparedDataset,
    kinds: Sequence[ScoreKind],
    strategy_grids: Sequence[StrategyGrid] = (),
    plan: SplitPlan | None = None,
) -> EvaluationReport:
    """Run every planned split and aggregate; fully determined by the seeds.

    Runs ``evaluate_split`` on each of ``plan_splits``'s splits, drawn
    only when its turn comes, so memory does not grow with the number of
    splits.  No e-score or p-score can go below 1/(n_cal + 1), so those
    kinds keep nothing at an alpha-max grid point under that floor; such
    points draw one warning.  ``plan`` defaults to ``SplitPlan()``, built
    per call, so that importing this module reads no exact number.
    """
    from .sweep import SplitPlan, _draw_splits, _test_size

    if plan is None:
        plan = SplitPlan()
    kinds = tuple(kinds)
    n_prompts = dataset.n_prompts
    n_test = _test_size(plan, n_prompts)
    n_cal = n_prompts - n_test
    floored = [kind.name for kind in kinds if kind.family in _FLOORED_FAMILIES]
    alpha_max = [grid for grid in strategy_grids if grid.strategy is Strategy.ALPHA_MAX]
    below = sum(grid._count_below(n_cal + 1) for grid in alpha_max)
    if floored and below:
        warnings.warn(
            f"{below} alpha-max grid point(s) lie below 1/{n_cal + 1}, the smallest "
            f"score that {', '.join(floored)} can take with {n_cal} calibration prompts; "
            "these kinds keep nothing there",
            stacklevel=2,
        )
    results = [
        evaluate_split(dataset, split, kinds, strategy_grids, master_seed=plan.seed, split_index=i)
        for i, split in enumerate(_draw_splits(plan, n_prompts, n_test))
    ]
    return aggregate_splits(results)


# ---------------------------------------------------------------------------
# score's output: a prepared test set's scores as JSONL or as a table
# ---------------------------------------------------------------------------


# Responses per write, in both forms of score's output: each write is one
# bounded block of lines, not one call per line nor the whole output joined.
_WRITE_BLOCK = 512


def _write_blocks(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """The ``(first, last)`` prompt ranges of score's writes, in order.

    Each range holds the most prompts whose responses fit in
    ``_WRITE_BLOCK``, and always at least one prompt, so a prompt whose
    set is larger than a block is written alone.
    """
    first, n_prompts = 0, len(offsets) - 1
    while first < n_prompts:
        # the last prompt boundary at most one block past this one
        last = int(np.searchsorted(offsets, offsets[first] + _WRITE_BLOCK, side="right")) - 1
        last = max(last, first + 1)
        yield first, last
        first = last


def _write_score_jsonl(test: PreparedDataset, scores: dict[str, np.ndarray]) -> None:
    """One JSON object per prompt, byte for byte ``json.dumps`` of its record.

    Each response set has one line template: a head with the id and one
    ``%r`` per label, then a tail with one ``%r`` per score in each kind's
    list, so a line is one ``%``.  ``%r`` of a float is the cell that
    ``repr`` of a float list writes, and ``json.dumps`` too, bar the
    tokens of non-finite floats: those are rewritten in the tail only, so
    an id keeps its bytes.  A block's prompts of one response set take
    their scores from one gather and one ``tolist()``.
    """
    names = [json.dumps(name) for name in scores]
    # (line, head, tail) per response set: prompts of one step count share one tuple
    templates: dict[int, tuple[str, str, str]] = {}
    for first, last in _write_blocks(test.offsets):
        lo, hi = int(test.offsets[first]), int(test.offsets[last])
        starts = test.offsets[first:last] - lo
        labels = test.labels_flat[lo:hi]
        block = np.stack([values[lo:hi] for values in scores.values()])  # (kinds, responses)
        members: dict[int, list[int]] = {}
        for i, responses in enumerate(test.responses[first:last]):
            members.setdefault(id(responses), []).append(i)
        lines = [""] * (last - first)
        for key, rows in members.items():
            responses = test.responses[first + rows[0]]
            if key not in templates:
                cells = ", ".join(["%r"] * len(responses))
                encoded = json.dumps([list(r.indices) for r in responses])
                head = f'{{"id": %s, "responses": {encoded}, "labels": [{cells}], "scores": {{'
                tail = ", ".join(f"{name}: [{cells}]" for name in names) + "}}"
                templates[key] = head + tail, head, tail
            line, head, tail = templates[key]
            at = starts[rows][:, None] + np.arange(len(responses))
            values = block[:, at].transpose(1, 0, 2).reshape(len(rows), -1)
            finite = bool(np.isfinite(values).all())
            ids = (json.dumps(test.prompt_ids[first + i]) for i in rows)
            for i, pid, label, score in zip(rows, ids, labels[at].tolist(), values.tolist()):
                if finite:
                    lines[i] = line % (pid, *label, *score)
                else:
                    lines[i] = head % (pid, *label) + _json_non_finite(tail % tuple(score))
        sys.stdout.write("\n".join(lines) + "\n")


def _json_non_finite(text: str) -> str:
    """``repr``'s inf and nan tokens as ``json.dumps`` writes them."""
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def _write_score_table(test: PreparedDataset, scores: dict[str, np.ndarray]) -> None:
    """One row per response, each column padded to its widest cell."""
    header = ("prompt", "response", "label", *scores)
    encoded: dict[int, list[str]] = {}  # prompts of one step count share one tuple of responses
    for responses in test.responses:
        if id(responses) not in encoded:
            encoded[id(responses)] = [",".join(map(str, r.indices)) for r in responses]
    columns = [
        [pid for pid, count in zip(test.prompt_ids, test.counts.tolist()) for _ in range(count)],
        [cell for responses in test.responses for cell in encoded[id(responses)]],
        [("error", "correct")[label] for label in test.labels_flat.tolist()],
        *([_fmt_score(v) for v in values.tolist()] for values in scores.values()),
    ]
    row = "  ".join(f"{{:<{max(len(name), *map(len, cells))}}}" for name, cells in zip(header, columns))
    sys.stdout.write(row.format(*header).rstrip() + "\n")
    for first, last in _write_blocks(test.offsets):
        lo, hi = test.offsets[first], test.offsets[last]
        block = zip(*(cells[lo:hi] for cells in columns))
        sys.stdout.write("".join(row.format(*cells).rstrip() + "\n" for cells in block))

"""Spans and counters around the package's public functions, from outside it.

The package has no timers of its own, so the traced run rebinds the
names each caller looks up (``escores.cli.parse_dataset``,
``escores.evaluation.uniform_block``, ...) to wrappers that record a
span or bump a counter, and puts every original back afterwards.
``PreparedDataset`` is traced by wrapping its ``__init__``: rebinding
the class itself would break the ``isinstance`` checks in
``evaluate_split`` and ``evaluate_dataset``.

Spans stay in memory as (name, start, end, parent).  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from workloads import ALL_KINDS

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("cli.run_command_s", "s"),
    ("cli.run_command_traced_s", "s"),
    ("cli.trace_overhead_s", "s"),
    ("io.parse_dataset.s", "s"),
    ("io.parse_dataset.records", "count"),
    ("io.parse_dataset.bytes", "bytes"),
    ("io.emit_csv.s", "s"),
    ("io.emit_svg_curves.s", "s"),
    ("svg.render_panel.calls", "count"),
    ("io.stdout_bytes", "bytes"),
    ("io.write_dataset.s", "s"),
    ("response_sets.build_permutation_set.s", "s"),
    ("response_sets.build_permutation_set.calls", "count"),
    ("response_sets.responses", "count"),
    ("response_sets.label_response_set.s", "s"),
    ("estimation.aggregate_conditionals.calls", "count"),
    ("estimation.transform_estimate.calls", "count"),
    ("estimation.calibration_f_star.calls", "count"),
    ("estimation.build_calibration_summary.s", "s"),
    ("estimation.build_calibration_summary.calls", "count"),
    ("estimation.calibration_values", "count"),
    ("evaluation.PreparedDataset.s", "s"),
    ("evaluation.PreparedDataset.self_s", "s"),
    ("evaluation.prepared_responses", "count"),
    ("evaluation.plan_splits.s", "s"),
    ("evaluation.evaluate_split.s", "s"),
    ("evaluation.evaluate_split.self_s", "s"),
    ("evaluation.evaluate_split.median_s", "s"),
    ("evaluation.evaluate_split.calls", "count"),
    ("evaluation.grid_cells", "count"),
    ("evaluation.aggregate_splits.s", "s"),
    *((f"scoring.score_response_set.{kind}.s", "s") for kind in ALL_KINDS),
    ("scoring.responses_scored", "count"),
    ("scoring.p_calibration_reads", "count"),
    ("scoring.uniform_block.s", "s"),
    ("scoring.uniform_block.calls", "count"),
    ("scoring.uniform_draws", "count"),
    ("synthetic.mc_evariable_check.s", "s"),
    ("synthetic.mc_rows", "count"),
    ("synthetic.generate_dataset.s", "s"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root


class Tracer:
    """Records spans and counts; ``install`` patches, ``restore`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self.counts[f"{name}.calls"] += 1
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(index)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def _patch(self, owner: object, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(wrapper_of(original)))
        self._patches.append((owner, attr, original))

    def span(self, owner: object, attr: str, name: "str | Callable", after: Callable | None = None) -> None:
        """Trace ``owner.attr``; ``name`` may derive the span name from the arguments."""

        def wrapper_of(original):
            def wrapper(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                result = self.call(label, original, *args, **kwargs)
                if after is not None:
                    after(self.counts, args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, wrapper_of)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span: it runs once per response."""
        key = f"{name}.calls"

        def wrapper_of(original):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, wrapper_of)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, list[float]]]:
        """Per span name: total time, self time and every single duration."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            total[span.name] += duration
            own[span.name] += duration - child[i]
            durations[span.name].append(duration)
        return total, own, durations


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _after_parse(counts, args, kwargs, result) -> None:
    counts["io.parse_dataset.records"] += len(result)
    counts["io.parse_dataset.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _after_permutation_set(counts, args, kwargs, result) -> None:
    counts["response_sets.responses"] += len(result)


def _after_summary(counts, args, kwargs, result) -> None:
    counts["estimation.calibration_values"] += result.n


def _after_prepare(counts, args, kwargs, result) -> None:
    counts["evaluation.prepared_responses"] += int(args[0].offsets[-1])


def _after_split(counts, args, kwargs, result) -> None:
    prep = _arg(args, kwargs, 0, "dataset")
    split = _arg(args, kwargs, 1, "split")
    kinds = _arg(args, kwargs, 2, "kinds")
    grids = _arg(args, kwargs, 3, "strategy_grids") if len(args) > 3 or "strategy_grids" in kwargs else ()
    responses = sum(int(prep.counts[i]) for i in split.test)
    points = sum(len(grid.parameters) for grid in grids)
    counts["evaluation.grid_cells"] += responses * len(kinds) * points


def _score_name(args, kwargs) -> str:
    return f"scoring.score_response_set.{_arg(args, kwargs, 3, 'kind').name}"


def _after_score(counts, args, kwargs, result) -> None:
    responses = len(_arg(args, kwargs, 1, "responses"))
    counts["scoring.responses_scored"] += responses
    if _arg(args, kwargs, 3, "kind").name in ("p", "p-randomized"):
        counts["scoring.p_calibration_reads"] += responses * _arg(args, kwargs, 4, "cal").n


def _after_uniform(counts, args, kwargs, result) -> None:
    counts["scoring.uniform_draws"] += _arg(args, kwargs, 3, "count")


def _after_mc(counts, args, kwargs, result) -> None:
    cfg = _arg(args, kwargs, 0, "cfg")
    counts["synthetic.mc_rows"] += _arg(args, kwargs, 2, "n_trials") * cfg.n_prompts


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI commands cross."""
    import escores.cli as cli
    import escores.evaluation as evaluation
    import escores.io as io
    import escores.scoring as scoring

    tracer.span(cli, "parse_dataset", "io.parse_dataset", _after_parse)
    tracer.span(cli, "emit_csv", "io.emit_csv")
    tracer.span(cli, "emit_svg_curves", "io.emit_svg_curves")
    tracer.span(cli, "write_dataset", "io.write_dataset")
    tracer.span(io, "render_panel", "svg.render_panel")
    tracer.span(cli, "generate_dataset", "synthetic.generate_dataset")
    tracer.span(cli, "mc_evariable_check", "synthetic.mc_evariable_check", _after_mc)
    for owner in (cli, evaluation):
        tracer.span(owner, "build_permutation_set", "response_sets.build_permutation_set", _after_permutation_set)
        tracer.span(owner, "label_response_set", "response_sets.label_response_set")
        tracer.span(owner, "build_calibration_summary", "estimation.build_calibration_summary", _after_summary)
    for owner in (evaluation, scoring):
        tracer.count(owner, "aggregate_conditionals", "estimation.aggregate_conditionals")
        tracer.count(owner, "transform_estimate", "estimation.transform_estimate")
        tracer.span(owner, "uniform_block", "scoring.uniform_block", _after_uniform)
    tracer.count(evaluation, "calibration_f_star", "estimation.calibration_f_star")
    tracer.span(evaluation.PreparedDataset, "__init__", "evaluation.PreparedDataset", _after_prepare)
    tracer.span(evaluation, "plan_splits", "evaluation.plan_splits")
    tracer.span(evaluation, "evaluate_split", "evaluation.evaluate_split", _after_split)
    tracer.span(evaluation, "aggregate_splits", "evaluation.aggregate_splits")
    tracer.span(cli, "score_response_set", _score_name, _after_score)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span- and count-derived entries of ``PER_LAYER`` for one traced run."""
    total, own, durations = tracer.totals()
    counts = tracer.counts
    metrics: dict[str, float] = {"cli.self_s": own.get("cli.run_command", 0.0)}
    for name in (
        "io.parse_dataset", "io.emit_csv", "io.emit_svg_curves", "io.write_dataset",
        "response_sets.build_permutation_set", "response_sets.label_response_set",
        "estimation.build_calibration_summary", "evaluation.PreparedDataset",
        "evaluation.plan_splits", "evaluation.evaluate_split", "evaluation.aggregate_splits",
        "scoring.uniform_block", "synthetic.mc_evariable_check", "synthetic.generate_dataset",
        *(f"scoring.score_response_set.{kind}" for kind in ALL_KINDS),
    ):
        metrics[f"{name}.s"] = total.get(name, 0.0)
    for name in ("evaluation.PreparedDataset", "evaluation.evaluate_split"):
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    splits = durations.get("evaluation.evaluate_split")
    metrics["evaluation.evaluate_split.median_s"] = statistics.median(splits) if splits else 0.0
    for name, unit in PER_LAYER:
        if unit != "s":
            metrics.setdefault(name, counts.get(name, 0))
    return metrics


def dominant_span(tracer: Tracer) -> tuple[str, float]:
    """The span name with the largest self time, kinds of a scorer folded together."""
    _, own, _ = tracer.totals()
    folded: dict[str, float] = defaultdict(float)
    for name, seconds in own.items():
        if name.startswith("scoring.score_response_set."):
            name = "scoring.score_response_set.*"
        folded[name] += seconds
    return max(folded.items(), key=lambda item: item[1])

"""Dataset files as prompt instances, and report files.

A ``PromptInstance`` pairs one generation with its oracle estimates, an
``EstimateSource``: the objects ``parse_dataset`` reads a dataset file
into, ``write_dataset`` writes and ``synthetic.generate_dataset`` draws.
The records are checked by ``reader._read_columns``, the one reader,
whose faults ``parse_dataset`` raises.  Reports are written as CSV (one
row per score kind / strategy / parameter) and, optionally, as SVG
curve panels.

The commands read their datasets through ``reader`` alone, so this
module loads only for a command that writes a file: ``evaluate`` with
``--csv`` or ``--svg-dir``, and ``simulate --emit``.
"""

from __future__ import annotations

import json
import math
import sys
import types
from dataclasses import dataclass
from itertools import groupby, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .core import (  # noqa: F401 - the two dataset errors, which parse_dataset raises, are read here too
    DatasetParseError,
    DatasetValidationError,
    InvalidInputError,
    Prompt,
    _fmt_score,
    as_unit_interval,
)
from .reader import _DatasetColumns, _read_columns
from .response_sets import GeneratedResponse

if TYPE_CHECKING:  # pragma: no cover - the emitters import what they run
    from .sweep import EvaluationReport, StrategyGrid


@dataclass(frozen=True)
class EstimateSource:
    """Oracle estimates for one prompt's responses.

    Either a single response-level estimate (singular data: one response
    per prompt), or per-sub-response conditionals keyed by original step
    index, aggregated multiplicatively per response.  When both are
    present the response-level estimate takes precedence.
    """

    conditionals: Mapping[int, float] | None = None
    response_estimate: float | None = None

    def __post_init__(self) -> None:
        if self.conditionals is None and self.response_estimate is None:
            raise InvalidInputError("an estimate source needs conditionals or a response estimate")
        if self.conditionals is not None:
            checked: dict[int, float] = {}
            for idx, value in dict(self.conditionals).items():
                if not isinstance(idx, int) or isinstance(idx, bool) or idx < 1:
                    raise InvalidInputError(f"conditional keys must be ints >= 1, got {idx!r}")
                checked[idx] = as_unit_interval(value, f"conditional estimate for step {idx}")
            object.__setattr__(self, "conditionals", types.MappingProxyType(checked))
        if self.response_estimate is not None:
            object.__setattr__(
                self,
                "response_estimate",
                as_unit_interval(self.response_estimate, "response estimate"),
            )


@dataclass(frozen=True)
class PromptInstance:
    """A generated response paired with its oracle estimates."""

    generated: GeneratedResponse
    estimates: EstimateSource

    def __post_init__(self) -> None:
        if self.estimates.response_estimate is None:
            assert self.estimates.conditionals is not None
            missing = [
                i for i in range(1, len(self.generated) + 1)
                if i not in self.estimates.conditionals
            ]
            if missing:
                raise InvalidInputError(
                    f"prompt {self.generated.prompt.id!r}: missing conditional estimates "
                    f"for steps {missing}"
                )

    @property
    def prompt_id(self) -> str:
        return self.generated.prompt.id


def _columns_of(instances: Iterable[PromptInstance]) -> _DatasetColumns:
    """The columns of validated prompt instances, read up to the first repeated id."""
    ids: list[str] = []
    steps: list[int] = []
    first_errors: list[int] = []
    conditionals: list[float] = []
    estimates: list[float] = []
    generated: dict[int, GeneratedResponse] = {}
    seen: set[str] = set()
    duplicate = None
    for inst in instances:
        pid = inst.prompt_id
        if pid in seen:
            duplicate = pid
            break
        seen.add(pid)
        k = len(inst.generated)
        generated.setdefault(k, inst.generated)
        ids.append(pid)
        steps.append(k)
        first_errors.append(inst.generated.first_error_index or 0)
        source = inst.estimates
        if source.response_estimate is None:
            estimates.append(math.nan)
            conditionals.extend(source.conditionals[i] for i in range(1, k + 1))
        else:
            estimates.append(source.response_estimate)
            conditionals.extend([1.0] * k)
    fixed = np.asarray(estimates, dtype=np.float64)
    return _DatasetColumns(
        ids,
        np.asarray(steps, dtype=np.int64),
        np.asarray(first_errors, dtype=np.int64),
        np.asarray(conditionals, dtype=np.float64),
        None if np.isnan(fixed).all() else fixed,
        generated,
        duplicate=duplicate,
    )


def parse_dataset(path: "str | Path") -> tuple[PromptInstance, ...]:
    """Read a JSONL dataset into prompt instances.

    The first record's shape, prefix or singular, is the file's.  Blank
    lines are skipped.  Raises :class:`DatasetParseError` for bytes that
    are not UTF-8 or malformed JSON and :class:`DatasetValidationError`
    for bad records (with line numbers), duplicate ids, mixed shapes, or
    an empty file.
    """
    columns = _read_columns(path, keep_texts=True)
    first_errors = columns.first_errors.tolist()
    instances = []
    if columns.estimates is not None:
        for pid, texts, first_error, estimate in zip(
            columns.ids, columns.texts, first_errors, columns.estimates.tolist()
        ):
            generated = GeneratedResponse(Prompt(pid), texts, first_error or None)
            instances.append(PromptInstance(generated, EstimateSource(response_estimate=estimate)))
        return tuple(instances)
    conditionals = columns.conditionals.tolist()
    start = 0
    for pid, texts, first_error in zip(columns.ids, columns.texts, first_errors):
        generated = GeneratedResponse(Prompt(pid), texts, first_error or None)
        values = conditionals[start : start + len(texts)]
        start += len(texts)
        source = EstimateSource(conditionals={i: v for i, v in enumerate(values, start=1)})
        instances.append(PromptInstance(generated, source))
    return tuple(instances)


def write_dataset(
    instances: Iterable[PromptInstance], path: "str | Path", schema: str = "prefix"
) -> Path:
    """Write prompt instances as JSONL in the given schema.

    The singular schema can only hold one-step instances with a
    whole-response estimate; the prefix schema requires step-level
    conditionals.  Unrepresentable instances raise.
    """
    if schema not in ("prefix", "singular"):
        raise InvalidInputError(
            f"schema must be 'prefix' or 'singular', got {schema!r}"
        )
    path = Path(path)
    lines = []
    for instance in instances:
        generated = instance.generated
        if schema == "prefix":
            if instance.estimates.conditionals is None:
                raise InvalidInputError(
                    f"instance {instance.prompt_id!r} has no step-level "
                    "conditionals; use the singular schema"
                )
            record = {
                "id": instance.prompt_id,
                "sub_responses": list(generated.sub_responses),
                "first_error_index": generated.first_error_index,
                "oracle_conditionals": [
                    instance.estimates.conditionals[i + 1]
                    for i in range(len(generated.sub_responses))
                ],
            }
        else:
            if len(generated.sub_responses) != 1:
                raise InvalidInputError(
                    f"instance {instance.prompt_id!r} has "
                    f"{len(generated.sub_responses)} steps; the singular "
                    "schema holds single responses only"
                )
            if instance.estimates.response_estimate is None:
                raise InvalidInputError(
                    f"instance {instance.prompt_id!r} has no whole-response "
                    "estimate; use the prefix schema"
                )
            record = {
                "id": instance.prompt_id,
                "response": generated.sub_responses[0],
                "correct": generated.first_error_index is None,
                "oracle_estimate": instance.estimates.response_estimate,
            }
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


#: The CSV columns: one per ``ReportRow`` field, in field order.  Spelled
#: out, so that reading or writing a dataset does not load ``sweep``, the
#: report types' module; a test holds it to the fields.
CSV_HEADER = (
    "score_kind", "strategy", "parameter", "mean_size_distortion", "mean_error", "mean_alpha",
    "mean_precision", "mean_recall", "n_test", "n_cal", "n_splits",
)


def emit_csv(report: EvaluationReport, path: "str | Path") -> Path:
    """Write one CSV row per report row, numbers at six significant digits."""
    import csv

    if not len(report.means):
        raise InvalidInputError("report has no rows to write")
    path = Path(path)
    block = 4096  # rows whose means are boxed at a time, so memory does not grow with the grid
    # n_test, n_cal and n_splits repeat on every row, as the strings csv makes of ints
    tail = [repeat(str(n)) for n in (report.n_test, report.n_cal, report.n_splits)]
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for kind, grid, means in report._blocks():
            strategy = grid.strategy.value
            for b in range(0, len(means), block):
                # a block's columns, zipped into rows: the three key fields, the five means, the tail
                labels = grid.parameters[b : b + block]
                columns = [map(_fmt_score, column) for column in means[b : b + block].T.tolist()]
                writer.writerows(zip(repeat(kind), repeat(strategy), labels, *columns, *tail))
    return path


# The panels drawn per score kind: file suffix, title, x and y axis
# labels, the ``CSV_HEADER`` columns of x and y, and the reference geometry.
_PANELS = (
    ("size_distortion", "size distortion", "parameter", "mean size distortion",
     "parameter", "mean_size_distortion", {"reference_y": 1.0}),
    ("error_vs_alpha", "realized error", "mean level used", "mean error",
     "mean_alpha", "mean_error", {"identity_line": True}),
    ("precision_recall", "precision vs recall", "mean recall", "mean precision",
     "mean_recall", "mean_precision", {"fixed_range": (-0.02, 1.02, -0.02, 1.02)}),
)


def emit_svg_curves(report: EvaluationReport, out_dir: "str | Path") -> list[Path]:
    """Render three SVG panels per score kind in the report.

    For each score kind: retained-set size distortion against the
    strategy parameter (with a reference line at 1), realized error
    against the mean level actually used (with the identity diagonal),
    and precision against recall, one series per strategy.  Returns
    the written paths.
    """
    if not len(report.means):
        raise InvalidInputError("report has no rows to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # this module's attributes, so the renderer loads only here, and a
    # name rebound on this module (the traced benchmark run's) is the one called
    this = sys.modules[__name__]

    def column(name: str, grid: StrategyGrid, means: np.ndarray) -> list[float]:
        values = grid._values if name == "parameter" else means[:, CSV_HEADER.index(name) - 3]
        return values.tolist()  # the grid's own values, or a mean column after the 3 key columns

    written: list[Path] = []
    for kind, blocks in groupby(report._blocks(), key=lambda block: block[0]):
        blocks = list(blocks)
        for suffix, title, x_label, y_label, x, y, reference in _PANELS:
            # a series per strategy, in first-appearance order, of its grids' points in grid order
            merged: dict[str, list[tuple[float, float]]] = {}
            for _, grid, means in blocks:
                points = zip(column(x, grid, means), column(y, grid, means))
                merged.setdefault(grid.strategy.value, []).extend(points)
            series = list(merged.items())
            target = out / f"{this.slugify(kind)}_{suffix}.svg"
            content = this.render_panel(f"{kind}: {title}", series, x_label, y_label, **reference)
            target.write_text(content, encoding="utf-8")
            written.append(target)
    return written


def __getattr__(name: str) -> object:
    """The SVG renderer's names, loaded when first read (PEP 562)."""
    if name not in ("render_panel", "slugify"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import svg

    value = globals()[name] = getattr(svg, name)
    return value

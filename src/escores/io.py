"""Dataset files and report files.

Datasets are JSON Lines.  Two record shapes are understood:

* step-level (``"prefix"`` schema)::

      {"id": "p-1", "sub_responses": ["...", "..."],
       "first_error_index": 2, "oracle_conditionals": [0.9, 0.4]}

  ``first_error_index`` is ``null`` for fully correct responses, and
  ``oracle_conditionals[i]`` is the correctness estimate for step
  ``i + 1`` given the steps before it.

* whole-response (``"singular"`` schema)::

      {"id": "p-1", "response": "...", "correct": false,
       "oracle_estimate": 0.35}

A file must stick to one shape; mixing them raises.  Reports are
written as CSV (one row per score kind / strategy / parameter) and,
optionally, as SVG curve panels.
"""

from __future__ import annotations

import csv
import json
import warnings
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .core import EScoresError, InvalidInputError
from .estimation import EstimateSource, PromptInstance
from .evaluation import EvaluationReport, Parameter
from .response_sets import GeneratedResponse
from .svg import Series, render_panel, slugify


class DatasetParseError(EScoresError):
    """A dataset line is not valid JSON or not a JSON object."""


class DatasetValidationError(EScoresError):
    """A dataset record is structurally valid JSON but semantically wrong."""


_SCHEMAS = ("auto", "prefix", "singular")

_PREFIX_KNOWN = {"id", "sub_responses", "first_error_index", "oracle_conditionals"}
_SINGULAR_KNOWN = {"id", "response", "correct", "oracle_estimate"}


def _where(source: str, lineno: int) -> str:
    return f"{source}:{lineno}"


def _detect_schema(record: dict, where: str) -> str:
    has_prefix = "sub_responses" in record
    has_singular = "response" in record
    if has_prefix and has_singular:
        raise DatasetValidationError(
            f"{where}: record mixes 'sub_responses' and 'response' fields"
        )
    if has_prefix:
        return "prefix"
    if has_singular:
        return "singular"
    raise DatasetValidationError(
        f"{where}: record has neither 'sub_responses' (prefix schema) "
        "nor 'response' (singular schema)"
    )


def _required(record: dict, name: str, where: str) -> object:
    if name not in record:
        raise DatasetValidationError(f"{where}: missing required field {name!r}")
    return record[name]


def _record_id(record: dict, where: str) -> str:
    value = _required(record, "id", where)
    if not isinstance(value, str) or not value:
        raise DatasetValidationError(f"{where}: 'id' must be a non-empty string")
    return value


def _warn_unknown(record: dict, known: set, where: str, warned: set) -> None:
    for name in record:
        if name not in known and name not in warned:
            warned.add(name)
            warnings.warn(
                f"{where}: ignoring unknown field {name!r} "
                "(reported once per field)",
                stacklevel=2,
            )


def _as_number(value: object, what: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetValidationError(f"{where}: {what} must be a number")
    return float(value)


def _parse_prefix_record(record: dict, where: str, warned: set) -> PromptInstance:
    prompt_id = _record_id(record, where)
    _warn_unknown(record, _PREFIX_KNOWN, where, warned)

    texts = _required(record, "sub_responses", where)
    if (
        not isinstance(texts, list)
        or not texts
        or not all(isinstance(t, str) for t in texts)
    ):
        raise DatasetValidationError(
            f"{where}: 'sub_responses' must be a non-empty list of strings"
        )

    first_error = record.get("first_error_index")
    if first_error is not None:
        if isinstance(first_error, bool) or not isinstance(first_error, int):
            raise DatasetValidationError(
                f"{where}: 'first_error_index' must be an integer or null"
            )

    conditionals = _required(record, "oracle_conditionals", where)
    if not isinstance(conditionals, list) or len(conditionals) != len(texts):
        raise DatasetValidationError(
            f"{where}: 'oracle_conditionals' must be a list with one entry "
            f"per sub-response (expected {len(texts)})"
        )
    values = [
        _as_number(v, f"'oracle_conditionals[{i}]'", where)
        for i, v in enumerate(conditionals)
    ]

    try:
        generated = GeneratedResponse.from_texts(
            prompt_id, texts, first_error_index=first_error
        )
        source = EstimateSource(
            conditionals={i + 1: v for i, v in enumerate(values)}
        )
        return PromptInstance(generated=generated, estimates=source)
    except InvalidInputError as exc:
        raise DatasetValidationError(f"{where}: {exc}") from exc


def _parse_singular_record(record: dict, where: str, warned: set) -> PromptInstance:
    prompt_id = _record_id(record, where)
    _warn_unknown(record, _SINGULAR_KNOWN, where, warned)

    text = _required(record, "response", where)
    if not isinstance(text, str):
        raise DatasetValidationError(f"{where}: 'response' must be a string")

    correct = _required(record, "correct", where)
    if not isinstance(correct, bool):
        raise DatasetValidationError(f"{where}: 'correct' must be true or false")

    estimate = _as_number(
        _required(record, "oracle_estimate", where), "'oracle_estimate'", where
    )

    try:
        generated = GeneratedResponse.from_texts(
            prompt_id, [text], first_error_index=None if correct else 1
        )
        source = EstimateSource(response_estimate=estimate)
        return PromptInstance(generated=generated, estimates=source)
    except InvalidInputError as exc:
        raise DatasetValidationError(f"{where}: {exc}") from exc


def parse_dataset(path: "str | Path", schema: str = "auto") -> tuple[PromptInstance, ...]:
    """Read a JSONL dataset into prompt instances.

    ``schema`` is ``"prefix"``, ``"singular"``, or ``"auto"`` to accept
    whichever shape the first record has.  Blank lines are skipped.
    Raises :class:`DatasetParseError` for malformed JSON and
    :class:`DatasetValidationError` for bad records (with line numbers),
    duplicate ids, mixed schemas, or an empty file.
    """
    if schema not in _SCHEMAS:
        raise InvalidInputError(
            f"schema must be one of {_SCHEMAS}, got {schema!r}"
        )
    path = Path(path)
    source = path.name
    expected = None if schema == "auto" else schema

    instances: list[PromptInstance] = []
    seen: dict[str, int] = {}
    warned: set = set()
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = _where(source, lineno)
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetParseError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DatasetParseError(f"{where}: each line must be a JSON object")

            found = _detect_schema(record, where)
            if expected is None:
                expected = found
            elif found != expected:
                raise DatasetValidationError(
                    f"{where}: mixed schemas: expected a {expected} record, "
                    f"found a {found} record"
                )

            if expected == "prefix":
                instance = _parse_prefix_record(record, where, warned)
            else:
                instance = _parse_singular_record(record, where, warned)

            if instance.prompt_id in seen:
                raise DatasetValidationError(
                    f"{where}: duplicate id {instance.prompt_id!r} "
                    f"(first seen on line {seen[instance.prompt_id]})"
                )
            seen[instance.prompt_id] = lineno
            instances.append(instance)

    if not instances:
        raise DatasetValidationError(f"{source}: no records found")
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
                "sub_responses": [s.text or "" for s in generated.sub_responses],
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
                "response": generated.sub_responses[0].text or "",
                "correct": generated.first_error_index is None,
                "oracle_estimate": instance.estimates.response_estimate,
            }
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


CSV_HEADER = (
    "score_kind",
    "strategy",
    "parameter",
    "mean_size_distortion",
    "mean_error",
    "mean_alpha",
    "mean_precision",
    "mean_recall",
    "n_test",
    "n_cal",
    "n_splits",
)


def _csv_number(value: float) -> str:
    if value == float("inf"):
        return "inf"
    return format(value, ".6g")


def emit_csv(report: EvaluationReport, path: "str | Path") -> Path:
    """Write one CSV row per report row, numbers at six significant digits."""
    if not report.rows:
        raise InvalidInputError("report has no rows to write")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in report.rows:
            writer.writerow(
                (
                    row.score_kind,
                    row.strategy,
                    row.parameter,
                    _csv_number(row.mean_size_distortion),
                    _csv_number(row.mean_error),
                    _csv_number(row.mean_alpha),
                    _csv_number(row.mean_precision),
                    _csv_number(row.mean_recall),
                    row.n_test,
                    row.n_cal,
                    row.n_splits,
                )
            )
    return path


def emit_svg_curves(report: EvaluationReport, out_dir: "str | Path") -> list[Path]:
    """Render three SVG panels per score kind in the report.

    For each score kind: retained-set size distortion against the
    strategy parameter (with a reference line at 1), realized error
    against the mean level actually used (with the identity diagonal),
    and precision against recall.  Returns the written paths.
    """
    if not report.rows:
        raise InvalidInputError("report has no rows to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    kinds: list[str] = []
    for row in report.rows:
        if row.score_kind not in kinds:
            kinds.append(row.score_kind)

    written: list[Path] = []
    for kind in kinds:
        rows = [r for r in report.rows if r.score_kind == kind]
        strategies: list[str] = []
        for row in rows:
            if row.strategy not in strategies:
                strategies.append(row.strategy)

        def series_for(x_of, y_of) -> list[Series]:
            built = []
            for strategy in strategies:
                pts = tuple(
                    (x_of(r), y_of(r)) for r in rows if r.strategy == strategy
                )
                built.append(Series(name=strategy, points=pts))
            return built

        slug = slugify(kind)
        panels = (
            (
                f"{slug}_size_distortion.svg",
                render_panel(
                    f"{kind}: size distortion",
                    series_for(
                        lambda r: float(Fraction(r.parameter)),
                        lambda r: r.mean_size_distortion,
                    ),
                    "parameter",
                    "mean size distortion",
                    reference_y=1.0,
                ),
            ),
            (
                f"{slug}_error_vs_alpha.svg",
                render_panel(
                    f"{kind}: realized error",
                    series_for(lambda r: r.mean_alpha, lambda r: r.mean_error),
                    "mean level used",
                    "mean error",
                    identity_line=True,
                ),
            ),
            (
                f"{slug}_precision_recall.svg",
                render_panel(
                    f"{kind}: precision vs recall",
                    series_for(lambda r: r.mean_recall, lambda r: r.mean_precision),
                    "mean recall",
                    "mean precision",
                    fixed_range=(-0.02, 1.02, -0.02, 1.02),
                ),
            ),
        )
        for name, content in panels:
            target = out / name
            target.write_text(content, encoding="utf-8")
            written.append(target)
    return written


def _decimal_label(value: Decimal) -> str:
    text = str(value.normalize())
    if "E" in text or "e" in text:
        text = format(value.normalize(), "f")
    return text


def parse_grid(text: str) -> tuple[Parameter, ...]:
    """Parse a parameter grid from ``start:stop:step`` or a comma list.

    Range endpoints and steps are decimal strings evaluated exactly, so
    ``0:1:0.01`` yields the 101 parameters 0, 0.01, ..., 1 with no
    floating-point drift.  Comma lists accept decimals or fractions
    like ``1/3``.
    """
    text = text.strip()
    if not text:
        raise InvalidInputError("empty parameter grid")
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise InvalidInputError(
                f"grid ranges use start:stop:step, got {text!r}"
            )
        try:
            start, stop, step = (Decimal(p.strip()) for p in pieces)
        except InvalidOperation as exc:
            raise InvalidInputError(f"invalid grid range {text!r}: {exc}") from exc
        if step <= 0:
            raise InvalidInputError("grid step must be positive")
        if stop < start:
            raise InvalidInputError("grid stop must not precede start")
        values: list[Parameter] = []
        index = 0
        while True:
            current = start + index * step
            if current > stop:
                break
            label = _decimal_label(current)
            values.append(Parameter(label=label, value=Fraction(current)))
            index += 1
        return tuple(values)

    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise InvalidInputError(f"empty entry in grid list {text!r}")
        values.append(Parameter.of(piece))
    return tuple(values)

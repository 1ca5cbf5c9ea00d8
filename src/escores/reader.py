"""The JSONL dataset reader: each record checked once, into columns.

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

A file's first record fixes its shape; mixing shapes raises.  One
reader, ``_read_columns``, checks each record once and appends it to
columns (ids, step counts, first errors, flat conditionals or response
estimates) that ``PreparedDataset`` prepares directly.  The commands
read through it, and ``io.parse_dataset`` builds its prompt instances
from the same columns, so every fault has one message and one line
number.  This module holds the reader alone: ``score``, ``ingest`` and
``evaluate`` load it, and none of them loads ``io``'s writers and
emitters unless it writes a report.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import (
    DatasetParseError,
    DatasetValidationError,
    InvalidInputError,
    Prompt,
    _require_prompt_id,
    _warn,
    as_unit_interval,
)
from .response_sets import GeneratedResponse, _check_first_error


_PREFIX_KNOWN = {"id", "sub_responses", "first_error_index", "oracle_conditionals"}
_SINGULAR_KNOWN = {"id", "response", "correct", "oracle_estimate"}


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
    if not value.isascii():  # only such an id can hold a lone surrogate
        try:
            _require_prompt_id(value)
        except InvalidInputError as exc:
            raise DatasetValidationError(f"{where}: {exc}") from None
    return value


def _warn_unknown(record: dict, known: set, where: str, warned: set) -> None:
    for name in record:
        if name not in known and name not in warned:
            warned.add(name)
            _warn(f"{where}: ignoring unknown field {name!r} (reported once per field)")


def _as_number(value: object, what: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetValidationError(f"{where}: {what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise DatasetValidationError(f"{where}: {what} is too large for a float") from None


def _load_json(text: str, where: str) -> object:
    """Parse one JSON document from text read with ``errors="surrogateescape"``.

    Those errors decode a byte that is not UTF-8 to a lone surrogate,
    which strict UTF-8 never yields, so the byte is refused here, at the
    line it is on.  Every failure is a ``DatasetParseError`` led by
    ``where``.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(text[exc.start]) - 0xDC00
            raise DatasetParseError(
                f"{where}: not valid UTF-8: byte 0x{byte:02x} at character {exc.start + 1}"
            ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"{where}: invalid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past the interpreter's digit limit, or nesting past its depth
        raise DatasetParseError(f"{where}: {exc}") from exc


def _read_prefix_record(record: dict, where: str, warned: set, conditionals: list) -> tuple:
    """Check a prefix record and append its conditionals: (id, texts, first error)."""
    prompt_id = _record_id(record, where)
    if not record.keys() <= _PREFIX_KNOWN:
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

    values = _required(record, "oracle_conditionals", where)
    if not isinstance(values, list) or len(values) != len(texts):
        raise DatasetValidationError(
            f"{where}: 'oracle_conditionals' must be a list with one entry "
            f"per sub-response (expected {len(texts)})"
        )
    # a float in (0, 1] is a value the checks below return unchanged;
    # anything else (an int, a zero, a fault) takes them
    checked = all(type(v) is float and 0.0 < v <= 1.0 for v in values)
    if not checked:
        values = [
            _as_number(v, f"'oracle_conditionals[{i}]'", where)
            for i, v in enumerate(values)
        ]
    try:
        if first_error is not None:
            _check_first_error(first_error, len(texts))
        if not checked:
            values = [
                as_unit_interval(v, f"conditional estimate for step {i}")
                for i, v in enumerate(values, start=1)
            ]
    except InvalidInputError as exc:
        raise DatasetValidationError(f"{where}: {exc}") from exc
    conditionals.extend(values)
    return prompt_id, texts, first_error


def _read_singular_record(record: dict, where: str, warned: set, estimates: list) -> tuple:
    """Check a singular record and append its estimate: (id, texts, first error)."""
    prompt_id = _record_id(record, where)
    if not record.keys() <= _SINGULAR_KNOWN:
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
        estimates.append(as_unit_interval(estimate, "response estimate"))
    except InvalidInputError as exc:
        raise DatasetValidationError(f"{where}: {exc}") from exc
    return prompt_id, [text], None if correct else 1


class _DatasetColumns:
    """A dataset as flat columns, prompt after prompt: what ``PreparedDataset`` reads.

    Prompt i has id ``ids[i]``, ``steps[i]`` steps and first error
    ``first_errors[i]`` (0 when fully correct).  ``conditionals`` holds
    every prompt's step conditionals in step order, ``steps[i]`` of
    them per prompt.  ``estimates`` is None unless some prompt has a
    response-level estimate; then it holds one per prompt, NaN where the
    prompt chains its conditionals instead, and such a prompt's
    conditionals are 1.0.  ``generated[k]`` is one generation of k
    steps, the one the permutation policy expands, with the step counts
    in the order they first appear.  ``texts`` holds each prompt's step
    texts when the reader keeps them.  ``duplicate`` names a repeated
    prompt id, the first one, when reading stopped at it.  The reader
    builds the columns of a file, ``io._columns_of`` those of prompt
    instances.
    """

    def __init__(
        self,
        ids: list[str],
        steps: np.ndarray,
        first_errors: np.ndarray,
        conditionals: np.ndarray,
        estimates: np.ndarray | None,
        generated: dict[int, GeneratedResponse],
        texts: list[tuple[str, ...]] | None = None,
        duplicate: str | None = None,
    ) -> None:
        self.ids = ids
        self.steps = steps
        self.first_errors = first_errors
        self.conditionals = conditionals
        self.estimates = estimates
        self.generated = generated
        self.texts = texts
        self.duplicate = duplicate

    @property
    def schema(self) -> str:
        """The record shape: "singular" when prompts carry response-level estimates."""
        return "prefix" if self.estimates is None else "singular"


def _read_columns(path: "str | Path", keep_texts: bool = False) -> _DatasetColumns:
    """Validate a JSONL dataset record by record into columns.

    The one reader of dataset files, for ``io.parse_dataset`` and the
    commands alike; its faults are ``parse_dataset``'s.  It builds one
    ``GeneratedResponse`` per distinct step count, and keeps the step
    texts only when asked.
    """
    path = Path(path)
    source = path.name
    expected = None

    ids: list[str] = []
    steps: list[int] = []
    first_errors: list[int] = []
    values: list[float] = []  # the conditionals, or one estimate per singular record
    texts: list[tuple[str, ...]] | None = [] if keep_texts else None
    generated: dict[int, GeneratedResponse] = {}
    seen: dict[str, int] = {}
    warned: set = set()
    with path.open(encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{source}:{lineno}"
            record = _load_json(line, where)
            if not isinstance(record, dict):
                raise DatasetParseError(f"{where}: each line must be a JSON object")

            found = _detect_schema(record, where)
            expected = expected or found
            if found != expected:
                raise DatasetValidationError(
                    f"{where}: mixed schemas: expected a {expected} record, "
                    f"found a {found} record"
                )
            read_record = _read_prefix_record if found == "prefix" else _read_singular_record
            prompt_id, step_texts, first_error = read_record(record, where, warned, values)

            if prompt_id in seen:
                raise DatasetValidationError(
                    f"{where}: duplicate id {prompt_id!r} "
                    f"(first seen on line {seen[prompt_id]})"
                )
            seen[prompt_id] = lineno
            k = len(step_texts)
            if k not in generated:
                generated[k] = GeneratedResponse(Prompt(prompt_id), step_texts, first_error)
            ids.append(prompt_id)
            steps.append(k)
            first_errors.append(first_error or 0)
            if texts is not None:
                texts.append(tuple(step_texts))

    if not ids:
        raise DatasetValidationError(f"{source}: no records found")
    flat = np.asarray(values, dtype=np.float64)
    singular = expected == "singular"
    return _DatasetColumns(
        ids,
        np.asarray(steps, dtype=np.int64),
        np.asarray(first_errors, dtype=np.int64),
        np.ones(len(ids)) if singular else flat,
        flat if singular else None,
        generated,
        texts,
    )

"""Dataset files, CSV/SVG report emission, and grid parsing."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from escores import (
    CSV_HEADER,
    DatasetParseError,
    DatasetValidationError,
    EstimateSource,
    EvaluationReport,
    FTransform,
    InvalidInputError,
    PermutationMode,
    PermutationPolicy,
    PreparedDataset,
    PromptInstance,
    ReportRow,
    ScoreKind,
    SplitAssignment,
    SplitPlan,
    Strategy,
    StrategyGrid,
    WorstCaseRow,
    emit_csv,
    emit_svg_curves,
    evaluate_dataset,
    evaluate_split,
    parse_dataset,
    parse_grid,
    write_dataset,
)
from escores.cli import EXIT_USAGE, run_command
from escores.core import as_exact
from escores.io import _fmt_score, _read_columns
from escores.svg import slugify

from helpers import grid_points, make_generated, make_instance


def write_lines(path: Path, *lines: str) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


PREFIX_RECORD = (
    '{"id": "p-1", "sub_responses": ["a", "b"], "first_error_index": 2, '
    '"oracle_conditionals": [0.9, 0.4]}'
)


# ---------------------------------------------------------------------------
# parsing datasets
# ---------------------------------------------------------------------------


def test_parse_prefix_records(tmp_path: Path) -> None:
    path = write_lines(
        tmp_path / "data.jsonl",
        PREFIX_RECORD,
        "",  # blank lines are skipped
        '{"id": "p-2", "sub_responses": ["x"], "first_error_index": null, '
        '"oracle_conditionals": [0.75]}',
    )
    instances = parse_dataset(path)
    assert len(instances) == 2
    first, second = instances
    assert first.prompt_id == "p-1"
    assert len(first.generated) == 2
    assert first.generated.first_error_index == 2
    assert first.estimates.conditionals == {1: 0.9, 2: 0.4}
    assert second.generated.first_error_index is None
    assert second.estimates.conditionals == {1: 0.75}


def test_parse_singular_records(tmp_path: Path) -> None:
    path = write_lines(
        tmp_path / "data.jsonl",
        '{"id": "s-1", "response": "four", "correct": true, "oracle_estimate": 0.9}',
        '{"id": "s-2", "response": "five", "correct": false, "oracle_estimate": 0.2}',
    )
    instances = parse_dataset(path)
    assert [inst.prompt_id for inst in instances] == ["s-1", "s-2"]
    assert instances[0].generated.first_error_index is None
    assert instances[1].generated.first_error_index == 1
    assert instances[0].estimates.response_estimate == 0.9
    assert len(instances[1].generated) == 1


def test_parse_reports_line_numbers(tmp_path: Path) -> None:
    bad_fei = write_lines(
        tmp_path / "bad.jsonl",
        '{"id": "p-1", "sub_responses": ["a"], "first_error_index": 7, '
        '"oracle_conditionals": [0.5]}',
    )
    with pytest.raises(DatasetValidationError, match=r"bad\.jsonl:1"):
        parse_dataset(bad_fei)

    second_line = write_lines(
        tmp_path / "later.jsonl",
        PREFIX_RECORD,
        '{"id": "p-2", "sub_responses": ["a", "b"], "first_error_index": null, '
        '"oracle_conditionals": [0.5]}',
    )
    with pytest.raises(DatasetValidationError, match=r"later\.jsonl:2.*oracle_conditionals"):
        parse_dataset(second_line)


def test_out_of_range_first_error_index_is_echoed_only_when_short(tmp_path: Path) -> None:
    record = (
        '{"id": "p-1", "sub_responses": ["a", "b"], "first_error_index": %s, '
        '"oracle_conditionals": [0.9, 0.4]}'
    )
    short = write_lines(tmp_path / "short.jsonl", record % 3)
    with pytest.raises(DatasetValidationError) as caught:
        parse_dataset(short)
    assert str(caught.value).endswith("short.jsonl:1: first_error_index 3 out of range 1..2")
    long = write_lines(tmp_path / "long.jsonl", record % ("1" + "0" * 4000))
    with pytest.raises(DatasetValidationError) as caught:
        parse_dataset(long)
    assert str(caught.value).endswith("long.jsonl:1: first_error_index out of range 1..2")


def test_parse_rejects_malformed_json(tmp_path: Path) -> None:
    with pytest.raises(DatasetParseError, match=r"broken\.jsonl:1"):
        parse_dataset(write_lines(tmp_path / "broken.jsonl", "{not json"))
    with pytest.raises(DatasetParseError, match="JSON object"):
        parse_dataset(write_lines(tmp_path / "array.jsonl", "[1, 2]"))


def test_parse_rejects_mixed_schemas(tmp_path: Path) -> None:
    path = write_lines(
        tmp_path / "mixed.jsonl",
        PREFIX_RECORD,
        '{"id": "s-1", "response": "four", "correct": true, "oracle_estimate": 0.9}',
    )
    with pytest.raises(DatasetValidationError, match=r"mixed\.jsonl:2.*mixed schemas"):
        parse_dataset(path)
    # the first record fixes the shape, whichever it is
    flipped = write_lines(
        tmp_path / "flipped.jsonl",
        '{"id": "s-1", "response": "four", "correct": true, "oracle_estimate": 0.9}',
        PREFIX_RECORD,
    )
    with pytest.raises(DatasetValidationError, match="expected a singular record, found a prefix"):
        parse_dataset(flipped)
    both = (
        '{"id": "b", "sub_responses": ["a"], "response": "a", '
        '"first_error_index": null, "oracle_conditionals": [0.5], '
        '"correct": true, "oracle_estimate": 0.5}'
    )
    with pytest.raises(DatasetValidationError, match="mixes"):
        parse_dataset(write_lines(tmp_path / "both.jsonl", both))


def test_parse_rejects_duplicate_ids(tmp_path: Path) -> None:
    path = write_lines(tmp_path / "dup.jsonl", PREFIX_RECORD, PREFIX_RECORD)
    with pytest.raises(DatasetValidationError, match="first seen on line 1"):
        parse_dataset(path)


def test_parse_rejects_empty_and_missing_files(tmp_path: Path) -> None:
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n\n", encoding="utf-8")
    with pytest.raises(DatasetValidationError, match="no records"):
        parse_dataset(empty)
    with pytest.raises(FileNotFoundError):
        parse_dataset(tmp_path / "missing.jsonl")


def test_parse_field_validation(tmp_path: Path) -> None:
    cases = [
        ('{"sub_responses": ["a"], "oracle_conditionals": [0.5]}', "'id'"),
        ('{"id": "x", "sub_responses": [], "oracle_conditionals": []}', "sub_responses"),
        (
            '{"id": "x", "sub_responses": ["a"], "first_error_index": true, '
            '"oracle_conditionals": [0.5]}',
            "first_error_index",
        ),
        (
            '{"id": "x", "sub_responses": ["a"], "first_error_index": null, '
            '"oracle_conditionals": [true]}',
            "must be a number",
        ),
        (
            '{"id": "x", "sub_responses": ["a"], "first_error_index": null, '
            '"oracle_conditionals": [1.7]}',
            "x:1",
        ),
        ('{"id": "x", "response": "a", "correct": "yes", "oracle_estimate": 0.5}', "correct"),
        ('{"id": "x", "response": "a", "correct": true}', "oracle_estimate"),
    ]
    for line, needle in cases:
        path = write_lines(tmp_path / "x", line)
        with pytest.raises(DatasetValidationError, match=needle):
            parse_dataset(path)


def test_parse_warns_once_per_unknown_field(tmp_path: Path) -> None:
    record = (
        '{"id": "p-%d", "sub_responses": ["a"], "first_error_index": null, '
        '"oracle_conditionals": [0.5], "model": "m", "notes": "n"}'
    )
    path = write_lines(tmp_path / "extra.jsonl", record % 1, record % 2)
    with pytest.warns(UserWarning) as caught:
        instances = parse_dataset(path)
    assert len(instances) == 2
    messages = [str(w.message) for w in caught]
    assert sum("'model'" in m for m in messages) == 1
    assert sum("'notes'" in m for m in messages) == 1
    singular = write_lines(
        tmp_path / "singular.jsonl",
        '{"id": "s-1", "response": "a", "correct": true, "oracle_estimate": 0.9, "model": "m"}',
    )
    with pytest.warns(UserWarning, match="ignoring unknown field 'model'"):
        assert len(parse_dataset(singular)) == 1


# One fault per file, on line 3 after two good records, with the exact
# message every reader of the file must give.  A record with two faults
# reports the first one checked.
_GOOD = (
    '{"id": "p-1", "sub_responses": ["a", "b"], "first_error_index": 2, '
    '"oracle_conditionals": [0.9, 0.4]}',
    '{"id": "p-2", "sub_responses": ["a"], "first_error_index": null, '
    '"oracle_conditionals": [0.75]}',
)
_SINGULAR_GOOD = (
    '{"id": "s-1", "response": "a", "correct": true, "oracle_estimate": 0.9}',
    '{"id": "s-2", "response": "b", "correct": false, "oracle_estimate": 0.2}',
)


def _prefix(conditionals: str, first_error: str = "null", prompt_id: str = "p-3") -> str:
    steps = ", ".join('"s"' for _ in conditionals.split(","))
    return (
        f'{{"id": "{prompt_id}", "sub_responses": [{steps}], '
        f'"first_error_index": {first_error}, "oracle_conditionals": [{conditionals}]}}'
    )


FAULTS = {
    "bad-utf8": (_GOOD, b'{"id": "p-\xff3"}', DatasetParseError,
                 "not valid UTF-8: byte 0xff at character 11"),
    "bad-json": (_GOOD, '{"id": "p-3", ', DatasetParseError,
                 "invalid JSON: Expecting property name enclosed in double quotes: "
                 "line 2 column 1 (char 15)"),
    "not-an-object": (_GOOD, "[1, 2]", DatasetParseError, "each line must be a JSON object"),
    "neither-schema": (_GOOD, '{"id": "p-3"}', DatasetValidationError,
                       "record has neither 'sub_responses' (prefix schema) nor 'response' "
                       "(singular schema)"),
    "both-schemas": (_GOOD, '{"id": "p-3", "sub_responses": ["a"], "response": "a"}',
                     DatasetValidationError,
                     "record mixes 'sub_responses' and 'response' fields"),
    "missing-id": (_GOOD, '{"sub_responses": ["a"], "oracle_conditionals": [0.5]}',
                   DatasetValidationError, "missing required field 'id'"),
    "empty-id": (_GOOD, _prefix("0.5", prompt_id=""), DatasetValidationError,
                 "'id' must be a non-empty string"),
    # valid JSON and ASCII text, yet the id has no UTF-8 bytes to key its draws by
    "lone-surrogate-id": (_GOOD, _prefix("0.5", prompt_id="p-\\ud800"), DatasetValidationError,
                          "prompt id holds a lone surrogate U+D800 at character 3; "
                          "ids must be valid Unicode"),
    "missing-field": (_GOOD, '{"id": "p-3", "sub_responses": ["a"], "first_error_index": null}',
                      DatasetValidationError, "missing required field 'oracle_conditionals'"),
    "wrong-type": (_GOOD, '{"id": "p-3", "sub_responses": "a", "oracle_conditionals": [0.5]}',
                   DatasetValidationError, "'sub_responses' must be a non-empty list of strings"),
    "first-error-bool": (_GOOD, _prefix("0.5", "true"), DatasetValidationError,
                         "'first_error_index' must be an integer or null"),
    "conditionals-short": (_GOOD,
                           '{"id": "p-3", "sub_responses": ["a", "b"], '
                           '"oracle_conditionals": [0.5]}',
                           DatasetValidationError,
                           "'oracle_conditionals' must be a list with one entry per "
                           "sub-response (expected 2)"),
    # every value's type is checked before any value's range
    "range-then-type": (_GOOD, _prefix('1.5, "x"'), DatasetValidationError,
                        "'oracle_conditionals[1]' must be a number"),
    "conditional-bool": (_GOOD, _prefix("true"), DatasetValidationError,
                         "'oracle_conditionals[0]' must be a number"),
    "conditional-huge-int": (_GOOD, _prefix("1" + "0" * 400), DatasetValidationError,
                             "'oracle_conditionals[0]' is too large for a float"),
    "nan": (_GOOD, _prefix("NaN"), DatasetValidationError,
            "conditional estimate for step 1 must not be NaN"),
    "infinity": (_GOOD, _prefix("Infinity"), DatasetValidationError,
                 "conditional estimate for step 1 must be <= 1, got inf"),
    "negative": (_GOOD, _prefix("0.5, -0.25"), DatasetValidationError,
                 "conditional estimate for step 2 must be >= 0, got -0.25"),
    "above-one": (_GOOD, _prefix("1.5"), DatasetValidationError,
                  "conditional estimate for step 1 must be <= 1, got 1.5"),
    "first-error-out-of-range": (_GOOD, _prefix("0.5", "3"), DatasetValidationError,
                                 "first_error_index 3 out of range 1..1"),
    "first-error-and-value": (_GOOD, _prefix("1.5", "3"), DatasetValidationError,
                              "first_error_index 3 out of range 1..1"),
    "duplicate-id": (_GOOD, _prefix("0.5", prompt_id="p-1"), DatasetValidationError,
                     "duplicate id 'p-1' (first seen on line 1)"),
    "mixed-schemas": (_GOOD,
                      '{"id": "p-3", "response": "a", "correct": true, "oracle_estimate": 0.5}',
                      DatasetValidationError,
                      "mixed schemas: expected a prefix record, found a singular record"),
    "singular-correct-string": (_SINGULAR_GOOD,
                                '{"id": "s-3", "response": "a", "correct": "yes", '
                                '"oracle_estimate": 0.5}',
                                DatasetValidationError, "'correct' must be true or false"),
    "singular-missing-estimate": (_SINGULAR_GOOD, '{"id": "s-3", "response": "a", "correct": true}',
                                  DatasetValidationError,
                                  "missing required field 'oracle_estimate'"),
    "singular-response-list": (_SINGULAR_GOOD,
                               '{"id": "s-3", "response": ["a"], "correct": true, '
                               '"oracle_estimate": 0.5}',
                               DatasetValidationError, "'response' must be a string"),
    "singular-above-one": (_SINGULAR_GOOD,
                           '{"id": "s-3", "response": "a", "correct": true, '
                           '"oracle_estimate": 1.5}',
                           DatasetValidationError, "response estimate must be <= 1, got 1.5"),
    "singular-estimate-string": (_SINGULAR_GOOD,
                                 '{"id": "s-3", "response": "a", "correct": true, '
                                 '"oracle_estimate": "0.5"}',
                                 DatasetValidationError, "'oracle_estimate' must be a number"),
    "singular-mixed": (_SINGULAR_GOOD, _GOOD[0], DatasetValidationError,
                       "mixed schemas: expected a singular record, found a prefix record"),
}


def _write_bytes(path: Path, lines) -> Path:
    path.write_bytes(b"".join(
        (line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n" for line in lines
    ))
    return path


def _every_reader(capsys, path: Path, good: Path) -> list[tuple[int, str]]:
    """Exit code and stderr of ingest, score (as test, then calibration) and evaluate."""
    results = []
    for argv in (
        ("ingest", str(path)),
        ("score", str(path), "--calibration", str(good)),
        ("score", str(good), "--calibration", str(path)),
        ("evaluate", str(path), "--splits", "2", "--grid", "0.5,1"),
    ):
        code = run_command(list(argv))
        results.append((code, capsys.readouterr().err))
    return results


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_every_reader_reports_a_fault_alike(name: str, tmp_path: Path, capsys) -> None:
    good_lines, bad, error, message = FAULTS[name]
    path = _write_bytes(tmp_path / "data.jsonl", (*good_lines, bad))
    with pytest.raises(error) as caught:
        parse_dataset(path)
    assert type(caught.value) is error
    assert str(caught.value) == f"data.jsonl:3: {message}"
    good = _write_bytes(tmp_path / "good.jsonl", [_prefix("0.3", "1", "c-1"), _prefix("0.3", prompt_id="c-2")])
    expected = (EXIT_USAGE, f"validation error: data.jsonl:3: {message}\n")
    assert _every_reader(capsys, path, good) == [expected] * 4


def test_every_reader_warns_once_per_unknown_field_before_a_fault(tmp_path: Path, capsys) -> None:
    extra = [line[:-1] + ', "model": "m"}' for line in _GOOD]
    extra[1] = extra[1][:-1] + ', "notes": "n"}'
    path = _write_bytes(tmp_path / "data.jsonl", (*extra, _prefix("1.5", "3")))
    good = _write_bytes(tmp_path / "good.jsonl", [_prefix("0.3", "1", "c-1"), _prefix("0.3", prompt_id="c-2")])
    expected = (
        EXIT_USAGE,
        "warning: data.jsonl:1: ignoring unknown field 'model' (reported once per field)\n"
        "warning: data.jsonl:2: ignoring unknown field 'notes' (reported once per field)\n"
        "validation error: data.jsonl:3: first_error_index 3 out of range 1..1\n",
    )
    assert _every_reader(capsys, path, good) == [expected] * 4


def _random_dataset(rng: random.Random, schema: str, n: int) -> list[str]:
    """JSONL lines whose values include the spellings 0, 1, 1.0 and -0.0."""
    spellings = ("0", "1", "1.0", "-0.0", "0.5", "0.25")
    lines = []
    for i in range(n):
        if schema == "singular":
            value = rng.choice(spellings + (repr(rng.random()),))
            correct = rng.choice(("true", "false"))
            lines.append(
                f'{{"id": "s-{i}", "response": "r", "correct": {correct}, "oracle_estimate": {value}}}'
            )
            continue
        k = rng.randint(1, 4)
        values = ", ".join(rng.choice(spellings + (repr(rng.random()),)) for _ in range(k))
        first_error = rng.choice(("null", str(rng.randint(1, k))))
        steps = ", ".join('"s"' for _ in range(k))
        lines.append(
            f'{{"id": "p-{i}", "sub_responses": [{steps}], '
            f'"first_error_index": {first_error}, "oracle_conditionals": [{values}]}}'
        )
    return lines


@pytest.mark.parametrize("schema", ["prefix", "singular"])
@pytest.mark.parametrize("seed", range(4))
def test_column_reader_prepares_what_parsed_instances_do(schema: str, seed: int, tmp_path: Path) -> None:
    rng = random.Random(seed)
    lines = _random_dataset(rng, schema, 60)
    path = write_lines(tmp_path / "data.jsonl", *lines)
    policies = [None] if schema == "singular" else [None, PermutationPolicy(PermutationMode.ALL_PERMUTATIONS)]
    for policy in policies:
        columns = PreparedDataset(_read_columns(path), policy)
        instances = PreparedDataset(parse_dataset(path), policy)
        for name in ("estimates_flat", "labels_flat", "counts", "prompt_keys", "offsets"):
            a, b = getattr(columns, name), getattr(instances, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        # equal estimates give equal transformed values, which are elementwise
        for t in FTransform:
            assert columns.fstar[t].tobytes() == instances.fstar[t].tobytes()
        assert columns.prompt_ids == instances.prompt_ids == [json.loads(x)["id"] for x in lines]
        assert columns.responses == instances.responses
        # independently: each estimate is the left-to-right product of the
        # steps' values, -0.0 read as 0.0; each label says the first error is absent
        expected, labels = [], []
        for line, responses in zip(lines, columns.responses):
            record = json.loads(line)
            if schema == "singular":
                values, first_error = [record["oracle_estimate"]], None if record["correct"] else 1
            else:
                values, first_error = record["oracle_conditionals"], record["first_error_index"]
            for response in responses:
                expected.append(math.prod(abs(float(values[i - 1])) for i in response.indices))
                labels.append(int(first_error not in response.indices))
        assert columns.estimates_flat.tobytes() == np.asarray(expected).tobytes()
        assert not np.signbit(columns.estimates_flat).any()
        assert columns.labels_flat.tolist() == labels


def test_prepared_instances_report_a_policy_fault_before_a_later_duplicate() -> None:
    explicit = PermutationPolicy(PermutationMode.EXPLICIT_LIST, explicit=((2, 1),))
    one_step = make_instance("a", [0.5])
    two_steps = make_instance("b", [0.5, 0.5])
    with pytest.raises(InvalidInputError, match=r"not a bijection on 1\.\.1"):
        PreparedDataset([one_step, two_steps, one_step], explicit)
    with pytest.raises(InvalidInputError, match="duplicate prompt id 'b' in dataset"):
        PreparedDataset([two_steps, two_steps, one_step], explicit)
    with pytest.raises(InvalidInputError, match="cannot prepare an empty dataset"):
        PreparedDataset([])


# ---------------------------------------------------------------------------
# writing datasets
# ---------------------------------------------------------------------------


def test_prefix_round_trip(tmp_path: Path) -> None:
    instances = (
        make_instance("r-1", [0.9, 0.4], first_error_index=2),
        make_instance("r-2", [0.123456789]),
    )
    path = write_dataset(instances, tmp_path / "out.jsonl")
    assert parse_dataset(path) == instances


def test_singular_round_trip(tmp_path: Path) -> None:
    instances = (
        PromptInstance(make_generated("s-1", 1), EstimateSource(response_estimate=0.35)),
        PromptInstance(
            make_generated("s-2", 1, first_error_index=1),
            EstimateSource(response_estimate=0.8),
        ),
    )
    path = write_dataset(instances, tmp_path / "out.jsonl", schema="singular")
    assert parse_dataset(path) == instances


def test_write_rejects_unrepresentable_instances(tmp_path: Path) -> None:
    two_step = make_instance("p", [0.5, 0.5])
    with pytest.raises(InvalidInputError, match="singular"):
        write_dataset([two_step], tmp_path / "x.jsonl", schema="singular")
    with pytest.raises(InvalidInputError, match="no whole-response estimate"):
        write_dataset([make_instance("p", [0.5])], tmp_path / "x.jsonl", schema="singular")
    response_level = PromptInstance(
        make_generated("p", 1), EstimateSource(response_estimate=0.5)
    )
    with pytest.raises(InvalidInputError, match="conditionals"):
        write_dataset([response_level], tmp_path / "x.jsonl", schema="prefix")
    with pytest.raises(InvalidInputError):
        write_dataset([two_step], tmp_path / "x.jsonl", schema="csv")


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def small_report() -> EvaluationReport:
    return EvaluationReport(
        kinds=("e1", "p"),
        grids=(StrategyGrid.of(Strategy.ALPHA_MAX, ["0.1"]),),
        means=[[1.0 / 3.0, 0.125, 0.0625, 1.0, 0.875], [math.inf, 0.125, 0.1, 1.0, 0.875]],
        worst_case=(WorstCaseRow("e1", 1.5, 1.0, 2.0, 2), WorstCaseRow("p", 2.0, 1.0, 3.0, 2)),
        n_test=4,
        n_cal=4,
        n_splits=2,
    )


def test_csv_header_is_the_report_row_fields_in_order() -> None:
    """``io`` spells the header out, so reading a dataset never loads ``evaluation``."""
    import dataclasses

    assert CSV_HEADER == tuple(field.name for field in dataclasses.fields(ReportRow))


def test_emit_csv_exact_shape(tmp_path: Path) -> None:
    path = emit_csv(small_report(), tmp_path / "report.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["score_kind"] == "e1"
    assert rows[0]["mean_size_distortion"] == "0.333333"  # six significant digits
    assert rows[0]["mean_alpha"] == "0.0625"
    assert rows[1]["mean_size_distortion"] == "inf"
    assert rows[1]["n_splits"] == "2"


def test_emit_csv_refuses_empty_report(tmp_path: Path) -> None:
    empty = EvaluationReport(
        kinds=(), grids=(), means=np.empty((0, 5)), worst_case=(), n_test=1, n_cal=1, n_splits=1
    )
    with pytest.raises(InvalidInputError):
        emit_csv(empty, tmp_path / "report.csv")


def test_emit_csv_one_line_per_grid_point(tmp_path: Path) -> None:
    instances = [
        make_instance(f"g-{i}", [0.2 + 0.15 * i], first_error_index=1 if i % 2 else None)
        for i in range(4)
    ]
    grid = parse_grid("0:1:0.01", Strategy.ALPHA_MAX)
    report = evaluate_dataset(
        PreparedDataset(instances), (ScoreKind.parse("p"),), (grid,), SplitPlan(seed=0, n_splits=2)
    )
    path = emit_csv(report, tmp_path / "grid.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 102  # header plus one row per grid point


@pytest.mark.parametrize(
    "grids",
    [
        (("alpha-max", "0:1:0.05"),),
        (("fraction", "0,1/3,0.5,1"), ("alpha-max", "0.05,1/3,0.5")),
        (("alpha-max", "0:1:0.25"), ("fraction", "1/3,0.1,1"), ("alpha-max", "1/3,0.9")),
    ],
)
def test_emit_csv_writes_the_report_rows(grids, tmp_path: Path) -> None:
    """The CSV is ``csv.writer`` over the header and ``report.rows``, means at six digits."""
    instances = [
        make_instance(
            f"c-{i}",
            [0.95 - 0.1 * (i % 5), 0.6 + 0.05 * (i % 7)][: 1 + i % 2],
            first_error_index=None if i % 3 == 0 else 1,
        )
        for i in range(12)
    ]
    kinds = tuple(ScoreKind.parse(k) for k in ("e-combined", "p", "naive1"))
    strategy_grids = tuple(parse_grid(text, Strategy(s)) for s, text in grids)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the p floor at low alpha-max points
        report = evaluate_dataset(
            PreparedDataset(instances), kinds, strategy_grids, SplitPlan(seed=4, n_splits=3)
        )
    path = emit_csv(report, tmp_path / "report.csv")
    want = tmp_path / "want.csv"
    with want.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in report.rows:
            cells = [getattr(row, name) for name in CSV_HEADER]
            writer.writerow(cells[:3] + [_fmt_score(v) for v in cells[3:8]] + cells[8:])
    assert path.read_bytes() == want.read_bytes()
    assert len(report.rows) == len(kinds) * sum(len(g.parameters) for g in strategy_grids)


# ---------------------------------------------------------------------------
# SVG reports
# ---------------------------------------------------------------------------


def test_emit_svg_three_panels_per_kind(tmp_path: Path) -> None:
    paths = emit_svg_curves(small_report(), tmp_path / "plots")
    names = sorted(p.name for p in paths)
    assert names == [
        "e1_error_vs_alpha.svg",
        "e1_precision_recall.svg",
        "e1_size_distortion.svg",
        "p_error_vs_alpha.svg",
        "p_precision_recall.svg",
        "p_size_distortion.svg",
    ]
    for path in paths:
        content = path.read_text(encoding="utf-8")
        root = ET.fromstring(content)  # well-formed XML
        assert root.tag.endswith("svg")
        assert 'width="560"' in content


def test_emit_svg_is_byte_deterministic(tmp_path: Path) -> None:
    first = emit_svg_curves(small_report(), tmp_path / "a")
    second = emit_svg_curves(small_report(), tmp_path / "b")
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes()


def test_emit_svg_two_strategy_panels_match_golden_hash(tmp_path: Path) -> None:
    # every panel draws one series per strategy; pinned so that a change to
    # the panel layout shows here, not only in the single-strategy goldens
    instances = []
    for i in range(24):
        k = 1 + i % 3
        conditionals = [0.95 - 0.1 * (i % 5), 0.6 + 0.05 * (i % 7), 0.3 + 0.1 * (i % 4)][:k]
        first_error = None if i % 4 == 0 else 1 + i % k
        instances.append(make_instance(f"s-{i}", conditionals, first_error_index=first_error))
    grids = (
        parse_grid("0:1:0.125", Strategy.ALPHA_MAX),
        parse_grid("0,1/3,0.5,0.9,1", Strategy.FRACTION),
    )
    kinds = (ScoreKind.parse("e-combined"), ScoreKind.parse("p"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the p floor at alpha-max 0
        report = evaluate_dataset(
            PreparedDataset(instances), kinds, grids, SplitPlan(seed=3, n_splits=4)
        )
    assert {row.strategy for row in report.rows} == {"alpha-max", "fraction"}
    paths = sorted(emit_svg_curves(report, tmp_path / "plots"))
    assert len(paths) == 6
    text = "".join(p.read_text(encoding="utf-8") for p in paths)
    assert text.count(">alpha-max</text>") == text.count(">fraction</text>") == 6
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "c038b32428418dc46256bffd76f4742a3c10623a84119921160abf429aa20f5d"


def test_emit_svg_merges_the_grids_of_a_strategy_in_first_appearance_order(tmp_path: Path) -> None:
    # each kind's panels in kind order, one series per strategy in the order it
    # first appears among the grids, the points of its grids in grid order; a
    # label repeats across grids, and "1/4" and "0.25" are one value.  The digest
    # is the one these rows gave when a report held one key per row.
    grids = (
        parse_grid("0.5,0.1,1", Strategy.FRACTION),
        parse_grid("1/4,0.5,0.1", Strategy.ALPHA_MAX),
        parse_grid("0.25,0.5", Strategy.FRACTION),
    )
    means = [
        [0.5 + (j % 4) / 3, 0.05 * j, 0.01 + 0.04 * j, 1 - 0.03 * j, 0.4 + 0.05 * j]
        for j in range(2 * 8)
    ]
    means[4][0] = math.inf
    worst = tuple(WorstCaseRow(kind, 1.0, 0.5, 1.5, 3) for kind in ("p", "e1"))
    report = EvaluationReport(("p", "e1"), grids, means, worst, n_test=6, n_cal=6, n_splits=3)
    paths = emit_svg_curves(report, tmp_path / "plots")
    assert [p.name for p in paths] == [
        f"{kind}_{panel}.svg"
        for kind in ("p", "e1")
        for panel in ("size_distortion", "error_vs_alpha", "precision_recall")
    ]
    text = "".join(p.read_text(encoding="utf-8") for p in paths)
    assert text.count(">fraction</text>") == text.count(">alpha-max</text>") == 6
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "3dc25bc660b6eb80e45084135a491ca2d474b4230440784e549fbfb477f300bc"


def test_emit_svg_builds_no_rows_and_parses_no_label(tmp_path: Path, monkeypatch) -> None:
    import escores.io
    import escores.sweep

    instances = [
        make_instance(f"g-{i}", [0.2 + 0.15 * i], first_error_index=1 if i % 2 else None)
        for i in range(6)
    ]
    grid = parse_grid("0:1:0.01", Strategy.ALPHA_MAX)
    kinds = (ScoreKind.parse("p-randomized"), ScoreKind.parse("naive1"))  # neither floored
    report = evaluate_dataset(PreparedDataset(instances), kinds, (grid,), SplitPlan(seed=0, n_splits=2))
    assert len(report.means) == 2 * 101
    rows, parsed = [], []
    monkeypatch.setattr(
        escores.sweep, "ReportRow", lambda *a: rows.append(a) or ReportRow(*a)
    )
    monkeypatch.setattr(escores.sweep, "as_exact", lambda *a: parsed.append(a) or as_exact(*a))
    assert len(emit_svg_curves(report, tmp_path / "plots")) == 6
    assert rows == [] and parsed == []


def test_emit_svg_refuses_empty_report(tmp_path: Path) -> None:
    with pytest.raises(InvalidInputError):
        emit_svg_curves(EvaluationReport((), (), np.empty((0, 5)), (), 1, 1, 1), tmp_path / "plots")
    with pytest.raises(InvalidInputError, match="cannot build a file name"):
        slugify("")


# ---------------------------------------------------------------------------
# parameter grids and run configuration
# ---------------------------------------------------------------------------


def _points(text: str) -> list[tuple[str, Fraction]]:
    """(label, exact value) per point of the alpha-max grid ``text``."""
    return grid_points(parse_grid(text, Strategy.ALPHA_MAX))


def test_parse_grid_range_is_exact() -> None:
    grid = _points("0:1:0.01")
    assert len(grid) == 101
    assert grid[0] == ("0", 0)
    assert grid[1] == ("0.01", Fraction(1, 100))
    assert grid[10][0] == "0.1"
    assert grid[100] == ("1", 1)
    assert [value for _, value in grid] == [Fraction(i, 100) for i in range(101)]
    # past the 28 digits of Decimal's default context: nothing rounds, no point repeats
    assert [label for label, _ in _points("0.12345678901234567890123456789:1:0.5")] == [
        "0.12345678901234567890123456789", "0.62345678901234567890123456789",
    ]
    with pytest.warns(UserWarning, match="exceed 1"):
        tiny = _points("1:1.00000000000000000000000000001:0.00000000000000000000000000001")
    assert [value for _, value in tiny] == [1, 1 + Fraction(1, 10**29)]


def test_parse_grid_comma_list() -> None:
    grid = _points("0.05, 1/3 ,1")
    assert [value for _, value in grid] == [Fraction(1, 20), Fraction(1, 3), Fraction(1)]
    assert grid[1][0] == "1/3"


def test_parse_grid_stop_inclusion() -> None:
    assert [label for label, _ in _points("0:0.5:0.2")] == ["0", "0.2", "0.4"]
    assert [label for label, _ in _points("0.5:0.5:0.1")] == ["0.5"]


def test_parse_grid_rejects_bad_input(tmp_path: Path, capsys) -> None:
    for bad in (
        "", "0:1", "0:1:0", "1:0:0.1", "a:b:c", "0.1,,0.3", "x",
        # numbers that are not finite or do not fit a float
        "inf:inf:1", "nan:1:0.1", "0:1:inf", "0:1e999999999:1e999999998", "1e5000", "0.5,1e400",
        "1" + "0" * 400 + "/1",
    ):
        with pytest.raises(InvalidInputError):
            parse_grid(bad, Strategy.ALPHA_MAX)
    # an exponent beyond Decimal's own range is as large or as small as a float's, not malformed
    for bad, message in (
        ("1e9999999999999999999999", "grid value is too large for a float"),
        ("1e-9999999999999999999999", "grid value is too small for a float"),
        ("0:1:1e-9999999999999999999999", "grid step is too small for a float"),
        ("abc", "grid value must be a decimal string, got 'abc'"),
        # a label is written through int -> str, which CPython caps at 4,300 digits
        ("1:2:1." + "0" * 4300 + "1", "grid ends have more than 4,300 decimal places"),
    ):
        with pytest.raises(InvalidInputError) as caught:
            parse_grid(bad, Strategy.ALPHA_MAX)
        assert str(caught.value) == message
    assert _points("0e9999999999999999999999") == [("0e9999999999999999999999", 0)]
    assert _points("0e999999999") == [("0e999999999", 0)]
    # these once looped without end, spun building a huge Fraction or summed a
    # billion-digit Decimal, so a child process reads them under a time limit
    program = (
        "from escores import InvalidInputError, SplitPlan, Strategy, parse_grid\n"
        "for bad in ('0:inf:1', '1e999999999', '1e-999999999', '0:1:1e-999999999'):\n"
        "    try:\n"
        "        parse_grid(bad, Strategy.ALPHA_MAX)\n"
        "    except InvalidInputError as exc:\n"
        "        print(exc)\n"
        "try:\n"
        "    SplitPlan(test_fraction='1e999999999')\n"
        "except InvalidInputError as exc:\n"
        "    print(exc)\n"
        "print(*parse_grid('0e-999999999:1:1', Strategy.ALPHA_MAX).parameters)\n"
    )
    done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines() == [
        "grid stop must be finite, got 'inf'",
        "grid value is too large for a float",
        "grid value is too small for a float",
        "grid step is too small for a float",
        "test_fraction is too large for a float",
        "0 1",
    ], done.stderr
    data = write_dataset([make_instance("g-1", [0.5]), make_instance("g-2", [0.7])], tmp_path / "d.jsonl")
    assert run_command(["evaluate", str(data), "--grid", "inf:inf:1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "validation error: grid start must be finite, got 'inf'\n"


@pytest.mark.parametrize(
    "grid, count",
    [("0:1:1e-9", "1,000,000,001"), ("1:2:1e-30", "1.00e+30"), ("0:100001:1", "100,002")],
)
def test_parse_grid_refuses_a_grid_past_the_cap_before_anything_is_read(
    grid: str, count: str, tmp_path: Path, capsys
) -> None:
    """The points are counted before one is built, and before the dataset is read."""
    report = tmp_path / "report.csv"
    argv = ["evaluate", str(tmp_path / "absent.jsonl"), "--grid", grid, "--csv", str(report)]
    assert run_command(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"validation error: grid {grid!r} has {count} points, more than the cap of 100,001\n"
    )
    assert not report.exists()


def test_parse_grid_builds_a_grid_at_the_cap() -> None:
    with pytest.warns(UserWarning, match="exceed 1"):
        grid = parse_grid("0:100000:1", Strategy.ALPHA_MAX)
    assert len(grid.parameters) == 100_001 and grid.parameters[-1] == "100000"


def test_evaluate_input_validation(tmp_path: Path, capsys) -> None:
    """Each check once made up front for an evaluation run, at its owner."""
    # a missing input is a usage error of the command
    assert run_command(["evaluate", str(tmp_path / "nope.jsonl")]) == EXIT_USAGE
    assert "usage error:" in capsys.readouterr().err
    split = SplitAssignment(calibration=(0,), test=(1,))
    two = PreparedDataset([make_instance("v-1", [0.5]), make_instance("v-2", [0.7])])
    with pytest.raises(InvalidInputError, match="score kind"):
        evaluate_split(two, split, ())
    with pytest.warns(UserWarning, match="exceed 1"):
        StrategyGrid.of(Strategy.ALPHA_MAX, ["0.1", "2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        StrategyGrid.of(Strategy.ALPHA_MAX, ["0.1", "1"])

"""Dataset files, CSV/SVG report emission, and grid parsing."""

from __future__ import annotations

import csv
import math
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from escores import (
    CSV_HEADER,
    DatasetParseError,
    DatasetValidationError,
    EstimateSource,
    EvaluationReport,
    InvalidInputError,
    Parameter,
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

from helpers import make_generated, make_instance


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
    instances = parse_dataset(path, schema="singular")
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
    # forcing a schema rejects the other shape on line 1
    with pytest.raises(DatasetValidationError, match="expected a singular record"):
        parse_dataset(write_lines(tmp_path / "forced.jsonl", PREFIX_RECORD), schema="singular")
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


def test_parse_rejects_empty_and_bad_schema(tmp_path: Path) -> None:
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n\n", encoding="utf-8")
    with pytest.raises(DatasetValidationError, match="no records"):
        parse_dataset(empty)
    with pytest.raises(InvalidInputError):
        parse_dataset(empty, schema="bogus")
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
    assert parse_dataset(path, schema="singular") == instances


def test_write_rejects_unrepresentable_instances(tmp_path: Path) -> None:
    two_step = make_instance("p", [0.5, 0.5])
    with pytest.raises(InvalidInputError, match="singular"):
        write_dataset([two_step], tmp_path / "x.jsonl", schema="singular")
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
    row = dict(
        strategy="alpha-max",
        parameter="0.1",
        mean_error=0.125,
        mean_precision=1.0,
        mean_recall=0.875,
        n_test=4,
        n_cal=4,
        n_splits=2,
    )
    return EvaluationReport(
        rows=(
            ReportRow(
                score_kind="e1", mean_size_distortion=1.0 / 3.0, mean_alpha=0.0625, **row
            ),
            ReportRow(
                score_kind="p", mean_size_distortion=math.inf, mean_alpha=0.1, **row
            ),
        ),
        worst_case=(WorstCaseRow("e1", 1.5, 1.0, 2.0, 2),),
        n_splits=2,
    )


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
    empty = EvaluationReport(rows=(), worst_case=(), n_splits=1)
    with pytest.raises(InvalidInputError):
        emit_csv(empty, tmp_path / "report.csv")


def test_emit_csv_one_line_per_grid_point(tmp_path: Path) -> None:
    instances = [
        make_instance(f"g-{i}", [0.2 + 0.15 * i], first_error_index=1 if i % 2 else None)
        for i in range(4)
    ]
    grid = StrategyGrid(Strategy.ALPHA_MAX, parse_grid("0:1:0.01"))
    report = evaluate_dataset(
        instances, (ScoreKind.parse("p"),), (grid,), SplitPlan(seed=0, n_splits=2)
    )
    path = emit_csv(report, tmp_path / "grid.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 102  # header plus one row per grid point


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


def test_emit_svg_refuses_empty_report(tmp_path: Path) -> None:
    with pytest.raises(InvalidInputError):
        emit_svg_curves(EvaluationReport((), (), 1), tmp_path / "plots")


# ---------------------------------------------------------------------------
# parameter grids and run configuration
# ---------------------------------------------------------------------------


def test_parse_grid_range_is_exact() -> None:
    grid = parse_grid("0:1:0.01")
    assert len(grid) == 101
    assert grid[0].label == "0" and grid[0].value == 0
    assert grid[1].label == "0.01" and grid[1].value == Fraction(1, 100)
    assert grid[10].label == "0.1"
    assert grid[100].label == "1" and grid[100].value == 1
    assert [p.value for p in grid] == [Fraction(i, 100) for i in range(101)]


def test_parse_grid_comma_list() -> None:
    grid = parse_grid("0.05, 1/3 ,1")
    assert [p.value for p in grid] == [Fraction(1, 20), Fraction(1, 3), Fraction(1)]
    assert grid[1].label == "1/3"


def test_parse_grid_stop_inclusion() -> None:
    assert [p.label for p in parse_grid("0:0.5:0.2")] == ["0", "0.2", "0.4"]
    assert [p.label for p in parse_grid("0.5:0.5:0.1")] == ["0.5"]


def test_parse_grid_rejects_bad_input() -> None:
    for bad in ("", "0:1", "0:1:0", "1:0:0.1", "a:b:c", "0.1,,0.3", "x"):
        with pytest.raises(InvalidInputError):
            parse_grid(bad)


def test_evaluate_input_validation(tmp_path: Path, capsys) -> None:
    """Each check once made up front for an evaluation run, at its owner."""
    data = write_lines(tmp_path / "d.jsonl", PREFIX_RECORD)
    # a missing input is a usage error of the command
    assert run_command(["evaluate", str(tmp_path / "nope.jsonl")]) == EXIT_USAGE
    assert "usage error:" in capsys.readouterr().err
    with pytest.raises(InvalidInputError, match="schema"):
        parse_dataset(data, schema="yaml")
    split = SplitAssignment(calibration=(0,), test=(1,))
    two = [make_instance("v-1", [0.5]), make_instance("v-2", [0.7])]
    with pytest.raises(InvalidInputError, match="score kind"):
        evaluate_split(two, split, ())
    with pytest.warns(UserWarning, match="exceeds 1"):
        StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.1"), Parameter.of("2")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        StrategyGrid(Strategy.ALPHA_MAX, (Parameter.of("0.1"), Parameter.of("1")))

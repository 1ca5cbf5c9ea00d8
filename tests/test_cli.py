"""The command-line interface: subcommands, output shapes, exit codes."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from escores import (
    ALL_SCORE_KINDS,
    FTransform,
    PreparedDataset,
    ScoreKind,
    SyntheticConfig,
    generate_dataset,
    parse_dataset,
    uniform_block,
    write_dataset,
)
from escores.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, run_command
from escores.core import _fmt_score
from escores.estimation import transform_values
from escores.evaluation import (
    _WRITE_BLOCK,
    _warn_infinite_maxima,
    _write_score_jsonl,
    _write_score_table,
    score_prompts,
)

import oracles
from helpers import (
    POLICIES,
    make_instance,
    oracle_fstars,
    oracle_prompt,
    oracle_scores,
    split_records,
)


def six_prompts(prefix: str) -> list:
    return [
        make_instance(f"{prefix}-1", [0.9, 0.7], first_error_index=None),
        make_instance(f"{prefix}-2", [0.6, 0.2], first_error_index=2),
        make_instance(f"{prefix}-3", [0.8], first_error_index=1),
        make_instance(f"{prefix}-4", [0.95, 0.9, 0.85], first_error_index=None),
        make_instance(f"{prefix}-5", [0.5, 0.45], first_error_index=1),
        make_instance(f"{prefix}-6", [0.85, 0.8], first_error_index=None),
    ]


@pytest.fixture()
def dataset(tmp_path: Path) -> Path:
    return write_dataset(six_prompts("a"), tmp_path / "data.jsonl")


@pytest.fixture()
def calibration(tmp_path: Path) -> Path:
    """The same six prompts as ``dataset`` under ids of their own."""
    return write_dataset(six_prompts("c"), tmp_path / "cal.jsonl")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_reports_dataset_shape(dataset: Path, capsys) -> None:
    code, out, err = run(capsys, "ingest", str(dataset))
    assert code == EXIT_OK
    assert err == ""
    assert f"ok: 6 prefix records from {dataset}" in out
    assert "steps per record: min 1, max 3" in out
    assert "records with errors: 3 of 6" in out


def test_ingest_rejects_bad_records(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id": "x", "sub_responses": ["a"], "first_error_index": 7, '
        '"oracle_conditionals": [0.5]}\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "ingest", str(bad))
    assert code == EXIT_USAGE
    assert "validation error: bad.jsonl:1" in err

    code, _, err = run(capsys, "ingest", str(tmp_path / "missing.jsonl"))
    assert code == EXIT_USAGE
    assert "usage error:" in err


_VALID_LINE = (
    b'{"id": "v", "sub_responses": ["a"], "first_error_index": null, '
    b'"oracle_conditionals": [0.5]}\n'
)
_TOO_LARGE = b"1" + b"0" * 400  # an integer no float can hold
_TOO_LONG = b"1" + b"0" * 4400  # more digits than Python converts by default


def error_line(capsys, *argv: str) -> str:
    """The stderr of a command that must fail with one validation error line."""
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["ingest", "score", "evaluate"])
def test_non_utf8_dataset_is_one_validation_error(
    command: str, dataset: Path, tmp_path: Path, capsys
) -> None:
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(_VALID_LINE + b"\xff\xfe\n" + _VALID_LINE)
    argv = {
        "ingest": ["ingest", str(bad)],
        "score": ["score", str(dataset), "--calibration", str(bad)],
        "evaluate": ["evaluate", str(bad)],
    }[command]
    err = error_line(capsys, *argv)
    assert err == "validation error: bad.jsonl:2: not valid UTF-8: byte 0xff at character 1\n"


def test_non_utf8_or_malformed_permutation_file_names_the_file(
    dataset: Path, tmp_path: Path, capsys
) -> None:
    perms = tmp_path / "perms.json"
    argv = ("evaluate", str(dataset), "--permutations", "file", "--permutation-file", str(perms))
    perms.write_bytes(b"[[1, 2]]\xff")
    err = error_line(capsys, *argv)
    assert err == "validation error: perms.json: not valid UTF-8: byte 0xff at character 9\n"
    perms.write_bytes(b"[[1, 2]\n[2, 1]]")
    err = error_line(capsys, *argv)
    assert err.startswith("validation error: perms.json: invalid JSON: Expecting ',' delimiter")
    perms.write_bytes(b"[[" + _TOO_LONG + b"]]")
    err = error_line(capsys, *argv)
    assert err.startswith("validation error: perms.json: ")


@pytest.mark.parametrize(
    "bad_line, message",
    [
        (
            b'{"id": "b", "sub_responses": ["a", "b"], "first_error_index": null, '
            b'"oracle_conditionals": [0.5, ' + _TOO_LARGE + b"]}\n",
            "big.jsonl:2: 'oracle_conditionals[1]' is too large for a float",
        ),
        (
            b'{"id": "b", "sub_responses": ["a"], "first_error_index": '
            + _TOO_LONG
            + b', "oracle_conditionals": [0.5]}\n',
            "big.jsonl:2: ",
        ),
        (
            b'{"id": "b", "sub_responses": ["a"], "first_error_index": null, '
            b'"oracle_conditionals": [0.5], "extra": ' + _TOO_LONG + b"}\n",
            "big.jsonl:2: ",
        ),
    ],
    ids=["conditional-too-large", "first-error-too-long", "unknown-field-too-long"],
)
def test_huge_integer_literals_are_one_validation_error(
    bad_line: bytes, message: str, tmp_path: Path, capsys
) -> None:
    big = tmp_path / "big.jsonl"
    big.write_bytes(_VALID_LINE + bad_line + b"\xff\n")
    err = error_line(capsys, "ingest", str(big))
    assert err.startswith(f"validation error: {message}"), err
    # with the faults the other way round, the first in file order is still reported
    big.write_bytes(_VALID_LINE + b"\xff\n" + bad_line)
    err = error_line(capsys, "ingest", str(big))
    assert err.startswith("validation error: big.jsonl:2: not valid UTF-8"), err


def test_deeply_nested_json_is_one_validation_error(tmp_path: Path, capsys) -> None:
    deep = tmp_path / "deep.jsonl"
    deep.write_bytes(_VALID_LINE + b"[" * 100_000 + b"]" * 100_000 + b"\n")
    err = error_line(capsys, "ingest", str(deep))
    assert err.startswith("validation error: deep.jsonl:2: maximum recursion depth exceeded")


def test_huge_singular_estimate_is_one_validation_error(tmp_path: Path, capsys) -> None:
    big = tmp_path / "big.jsonl"
    big.write_bytes(
        b'{"id": "s", "response": "a", "correct": true, "oracle_estimate": 0.5}\n'
        b'{"id": "b", "response": "a", "correct": true, "oracle_estimate": ' + _TOO_LARGE + b"}\n"
    )
    err = error_line(capsys, "ingest", str(big))
    assert err == "validation error: big.jsonl:2: 'oracle_estimate' is too large for a float\n"


def test_score_table_output(dataset: Path, calibration: Path, capsys) -> None:
    code, out, err = run(
        capsys,
        "score",
        str(dataset),
        "--calibration",
        str(calibration),
        "--scores",
        "e-combined,p,naive1",
    )
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    header = lines[0].split()
    assert header == ["prompt", "response", "label", "e-combined", "p", "naive1"]
    # one row per prefix of every prompt: 2 + 2 + 1 + 3 + 2 + 2
    assert len(lines) == 1 + 12
    first = lines[1].split()
    assert first[0] == "a-1" and first[1] == "1" and first[2] == "correct"
    assert any(row.split()[2] == "error" for row in lines[1:])


def test_score_jsonl_output_and_determinism(dataset: Path, calibration: Path, capsys) -> None:
    argv = (
        "score",
        str(dataset),
        "--calibration",
        str(calibration),
        "--scores",
        "all",
        "--jsonl",
        "--seed",
        "5",
    )
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["id"] for r in records] == ["a-1", "a-2", "a-3", "a-4", "a-5", "a-6"]
    first = records[0]
    assert first["responses"] == [[1], [1, 2]]
    assert first["labels"] == [1, 1]
    assert set(first["scores"]) == {
        "e1", "e2", "e3", "e-combined", "p", "p-randomized", "naive1", "naive2", "naive3",
    }
    assert all(len(v) == 2 for v in first["scores"].values())

    code2, out2, _ = run(capsys, *argv)
    assert code2 == EXIT_OK and out2 == out
    _, moved, _ = run(capsys, *argv[:-1], "6")
    assert moved != out  # the seed moves the randomized draws
    code3, wide, _ = run(capsys, *argv[:-1], str(2**64 + 5))
    assert code3 == EXIT_OK and wide != out  # a seed's words above 64 bits count too


def test_score_writes_infinite_scores_as_json_dumps_does(tmp_path: Path, capsys) -> None:
    # the erring response has estimate 0: e1, e3, naive1 and naive3 are +inf
    test = tmp_path / "test.jsonl"
    test.write_text(
        '{"id": "t-1", "sub_responses": ["a", "b"], "first_error_index": 2, '
        '"oracle_conditionals": [1.0, 0.0]}\n',
        encoding="utf-8",
    )
    cal = tmp_path / "cal.jsonl"
    cal.write_text(
        '{"id": "c-1", "sub_responses": ["a"], "first_error_index": 1, '
        '"oracle_conditionals": [0.5]}\n',
        encoding="utf-8",
    )
    argv = ("score", str(test), "--calibration", str(cal), "--scores", "all")
    code, out, err = run(capsys, *argv, "--jsonl")
    assert code == EXIT_OK and err == ""
    assert out == (
        '{"id": "t-1", "responses": [[1], [1, 2]], "labels": [1, 0], "scores": '
        '{"e1": [0.75, Infinity], "e2": [0.5, 1.5], "e3": [0.5, Infinity], '
        '"e-combined": [0.5625, 4.5], "p": [0.5, 1.0], '
        '"p-randomized": [0.15310912858353226, 0.627467701455158], '
        '"naive1": [1.0, Infinity], "naive2": [0.0, 1.0], "naive3": [0.0, Infinity]}}\n'
    )
    assert out == json.dumps(json.loads(out)) + "\n"
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == [
        "prompt  response  label    e1    e2   e3   e-combined  p    p-randomized  naive1  naive2  naive3",
        "t-1     1         correct  0.75  0.5  0.5  0.5625      0.5  0.153109      1       0       0",
        "t-1     1,2       error    inf   1.5  inf  4.5         1    0.627468      inf     1       inf",
    ]


@pytest.mark.parametrize("permutations", sorted(POLICIES))
def test_score_jsonl_keeps_ids_that_look_like_tokens_or_templates(
    permutations: str, tmp_path: Path, capsys
) -> None:
    """Each line is ``json.dumps`` of its record, whatever the id spells.

    An id such as ``inf-1`` or ``nan`` must survive the rewrite of the
    scores' non-finite tokens, and an id holding ``%`` the line template,
    on lines with infinite scores and on lines without.  Prompts of one
    step count share a template, within a block and across blocks.
    """
    rng = random.Random(36)
    # one-step prompts whose step errs with estimate 0: e1, e3, naive1 and naive3 are +inf
    infinite = ("inf-1", "nan", "a%sb", "100%%")
    finite = ("%r%d", "x\\u%", "Infinity%s", "%(id)s")
    instances = [make_instance(pid, [0.0], 1) for pid in infinite]
    instances += [make_instance(pid, [0.5] * (2 + i % 3), None) for i, pid in enumerate(finite)]
    for i in range(300):
        k = rng.randint(1, 4)
        conditionals = [rng.uniform(0.05, 0.95) for _ in range(k)]
        instances.append(make_instance(f"t-{i}", conditionals, rng.choice((None, rng.randint(1, k)))))
    rng.shuffle(instances)
    test = write_dataset(instances, tmp_path / "test.jsonl")
    cal = write_dataset(
        [make_instance(f"c-{i}", [rng.random(), rng.random()], rng.choice((None, 1, 2))) for i in range(20)],
        tmp_path / "cal.jsonl",
    )
    policy = POLICIES[permutations][0]
    prep = PreparedDataset(parse_dataset(test), policy)
    scores = score_prompts(
        prep, np.arange(prep.n_prompts), ALL_SCORE_KINDS,
        PreparedDataset(parse_dataset(cal), policy).fstar, master_seed=2,
    )
    records = []
    for i, (pid, responses) in enumerate(zip(prep.prompt_ids, prep.responses)):
        lo, hi = prep.offsets[i], prep.offsets[i + 1]
        records.append(json.dumps({
            "id": pid, "responses": [list(r.indices) for r in responses],
            "labels": prep.labels_flat[lo:hi].tolist(),
            "scores": {name: values[lo:hi].tolist() for name, values in scores.items()},
        }) + "\n")
    assert prep.offsets[-1] > _WRITE_BLOCK
    for pid in infinite + finite:
        (record,) = (r for r in records if r.startswith(f'{{"id": {json.dumps(pid)}, '))
        assert ("Infinity" in record.split('"scores"')[1]) is (pid in infinite), record

    code, out, err = run(
        capsys, "score", str(test), "--calibration", str(cal), "--scores", "all", "--seed", "2",
        "--permutations", permutations, "--jsonl",
    )
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines(keepends=True) == records
    assert [json.loads(line)["id"] for line in out.splitlines()] == prep.prompt_ids


def test_score_output_over_many_prompts_matches_record_by_record_formatting(
    tmp_path: Path, capsys
) -> None:
    """Both output forms, past any block boundary, against one record at a time.

    Prompt 600 has 6 steps: under ``--permutations all`` its 1,956
    responses are more than one write block holds, so it is a block alone.
    """
    rng = random.Random(20)
    instances = []
    for i in range(1100):
        k = 6 if i == 600 else rng.randint(1, 4)
        conditionals = [rng.choice((0.0, 1.0, rng.random())) for _ in range(k)]
        first_error = rng.choice((None, rng.randint(1, k)))
        instances.append(make_instance(f"é-{i}" if i % 7 == 0 else f"t-{i}", conditionals, first_error))
    test = write_dataset(instances, tmp_path / "test.jsonl")
    cal = write_dataset(
        [make_instance(f"c-{i}", [rng.random(), rng.random()], rng.choice((None, 1, 2))) for i in range(50)],
        tmp_path / "cal.jsonl",
    )
    kinds = ("e1", "e2", "e3", "e-combined", "p", "p-randomized", "naive1", "naive2", "naive3")
    for permutations, (policy, _) in POLICIES.items():
        prep = PreparedDataset(parse_dataset(test), policy)
        assert int(np.diff(prep.offsets).max()) == (1956 if permutations == "all" else 6)
        scores = score_prompts(
            prep, np.arange(prep.n_prompts), [ScoreKind.parse(k) for k in kinds],
            PreparedDataset(parse_dataset(cal), policy).fstar, master_seed=3,
        )
        records, rows = [], [("prompt", "response", "label", *kinds)]
        for i, (pid, responses) in enumerate(zip(prep.prompt_ids, prep.responses)):
            lo, hi = prep.offsets[i], prep.offsets[i + 1]
            labels = prep.labels_flat[lo:hi].tolist()
            per_kind = {name: values[lo:hi].tolist() for name, values in scores.items()}
            records.append(json.dumps({
                "id": pid, "responses": [list(r.indices) for r in responses],
                "labels": labels, "scores": per_kind,
            }) + "\n")
            for j, (response, label) in enumerate(zip(responses, labels)):
                cells = ("inf" if v[j] == math.inf else format(v[j], ".6g") for v in per_kind.values())
                rows.append((pid, ",".join(map(str, response.indices)), ("error", "correct")[label], *cells))
        widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
        table = "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in rows)
        assert "Infinity" in "".join(records) and "\\u00e9" in records[0]

        argv = (
            "score", str(test), "--calibration", str(cal), "--scores", "all", "--seed", "3",
            "--permutations", permutations,
        )
        code, out, err = run(capsys, *argv, "--jsonl")
        assert code == EXIT_OK and err == ""
        assert out == "".join(records)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert out == table


def test_score_table_holds_its_cells_once() -> None:
    """The table writer's traced peak is a bounded multiple of one score column's cells.

    It keeps one formatted cell per response and column, and pads and
    joins only the block of prompts it is writing; a padded copy of every
    cell, or every row held at once, would more than double the peak.
    """
    test = PreparedDataset(generate_dataset(SyntheticConfig(n_prompts=1000, seed=4)))
    cal = PreparedDataset(generate_dataset(SyntheticConfig(n_prompts=200, seed=5)))
    scores = score_prompts(test, np.arange(test.n_prompts), ALL_SCORE_KINDS, cal.fstar, master_seed=0)
    one_column = sum(sys.getsizeof(_fmt_score(v)) + 8 for v in scores["e-combined"].tolist())
    peak = _traced_peak(_write_score_table, test, scores)
    assert test.offsets[-1] > 2500
    assert peak < 16 * one_column, (test.offsets[-1], peak / one_column)


def test_score_jsonl_holds_one_block_of_responses_at_a_time() -> None:
    """The JSONL writer's traced peak is a bounded multiple of one block's cells.

    Under ``--permutations all`` a 5-step prompt has 325 responses, so a
    block of 512 prompts would grow with the sets; a block of 512
    responses keeps the peak flat as the data grows tenfold.
    """
    policy = POLICIES["all"][0]
    cal = PreparedDataset(generate_dataset(SyntheticConfig(n_prompts=50, seed=5)), policy)
    for n_prompts in (30, 300):
        test = PreparedDataset(generate_dataset(SyntheticConfig(n_prompts=n_prompts, seed=4)), policy)
        scores = score_prompts(test, np.arange(test.n_prompts), ALL_SCORE_KINDS, cal.fstar, master_seed=0)
        block = scores["e-combined"][:_WRITE_BLOCK].tolist()
        one_block = sum(sys.getsizeof(repr(v)) + 8 for v in block)
        peak = _traced_peak(_write_score_jsonl, test, scores)
        assert test.offsets[-1] > 6 * _WRITE_BLOCK
        assert peak < 16 * one_block, (test.offsets[-1], peak / one_block)


def _traced_peak(writer, test: PreparedDataset, scores: dict) -> int:
    """The traced memory peak of one of score's writers, above what it started with."""

    class Discard:
        def write(self, text: str) -> int:
            return len(text)

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            before = tracemalloc.get_traced_memory()[0]
            writer(test, scores)
            return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_score_warns_on_prompt_ids_shared_with_calibration(
    dataset: Path, calibration: Path, capsys
) -> None:
    argv = ("score", str(dataset), "--scores", "all", "--jsonl", "--calibration")
    code, out, err = run(capsys, *argv, str(dataset))
    assert code == EXIT_OK
    assert err == (
        "warning: 6 prompt id(s) in both the test and the calibration file "
        "(first 'a-1'); this breaks the exchangeability that the scores' "
        "guarantee assumes\n"
    )
    # same calibration content under other ids: the same scores, no warning
    code, disjoint_out, err = run(capsys, *argv, str(calibration))
    assert code == EXIT_OK and err == ""
    assert out == disjoint_out


def test_score_warns_on_test_and_calibration_files_of_different_shapes(
    dataset: Path, tmp_path: Path, capsys
) -> None:
    singular = tmp_path / "singular.jsonl"
    singular.write_text(
        '{"id": "s-1", "response": "a", "correct": false, "oracle_estimate": 0.4}\n'
        '{"id": "s-2", "response": "b", "correct": true, "oracle_estimate": 0.9}\n',
        encoding="utf-8",
    )
    argv = ("score", str(dataset), "--calibration", str(singular), "--scores", "all", "--jsonl")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert err == (
        "warning: the test file holds prefix records and the calibration file singular "
        "records; this breaks the exchangeability that the scores' guarantee assumes\n"
    )
    # the warning is all that the mismatch adds: silenced, the run is the same
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(capsys, *argv) == (code, out, "")
    # files of one shape, singular here, have nothing to warn about
    other = tmp_path / "other.jsonl"
    other.write_text(singular.read_text(encoding="utf-8").replace('"s-', '"t-'), encoding="utf-8")
    code, out, err = run(capsys, "score", str(other), "--calibration", str(singular))
    assert code == EXIT_OK and out.count("\nt-") == 2 and err == ""


def test_score_warns_on_infinite_calibration_maxima(
    dataset: Path, tmp_path: Path, capsys
) -> None:
    # c-1's incorrect first prefix has estimate exactly 1: f* = +inf under transforms 2, 3
    cal = write_dataset(
        [make_instance("c-1", [1.0, 0.5], first_error_index=1), make_instance("c-2", [0.9])],
        tmp_path / "cal-inf.jsonl",
    )
    argv = ("score", str(dataset), "--calibration", str(cal), "--jsonl", "--scores")
    code, out, err = run(capsys, *argv, "e1,e2,e-combined")
    assert code == EXIT_OK
    assert err == (
        "warning: 1 calibration prompt(s) have an incorrect response with estimate 1, "
        "so their maxima under transforms 2 and 3 are infinite; every e2 and e3 score "
        "of a test response with estimate below 1 is then +inf, and e-combined reduces "
        "to 3 x e1\n"
    )
    for record in map(json.loads, out.splitlines()):
        scores = record["scores"]
        assert all(e2 == math.inf for e2 in scores["e2"])
        assert scores["e-combined"] == pytest.approx([3 * e1 for e1 in scores["e1"]], rel=1e-12)

    # kinds that never read transforms 2 or 3 have nothing to warn about
    code, _, err = run(capsys, *argv, "p,naive1")
    assert code == EXIT_OK and err == ""


@pytest.mark.parametrize("kind", ALL_SCORE_KINDS, ids=lambda kind: kind.name)
def test_infinite_maxima_warn_exactly_the_kinds_that_read_transforms_2_and_3(kind) -> None:
    # c-1's incorrect first prefix has estimate exactly 1: f* = +inf under transforms 2, 3
    cal = PreparedDataset(
        [make_instance("c-1", [1.0, 0.5], first_error_index=1), make_instance("c-2", [0.9])]
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _warn_infinite_maxima(cal.fstar, (kind,))
    assert len(caught) == (kind.name in ("e2", "e3", "e-combined"))


def test_evaluate_warns_on_infinite_calibration_maxima(tmp_path: Path, capsys) -> None:
    """30 incorrect prompts whose every conditional is 1: evaluate warns as score does."""
    instances = list(generate_dataset(SyntheticConfig(n_prompts=400, seed=2)))
    incorrect = [i for i, inst in enumerate(instances) if inst.generated.first_error_index][:30]
    for i in incorrect:
        inst = instances[i]
        instances[i] = make_instance(
            inst.prompt_id, [1.0] * len(inst.generated), inst.generated.first_error_index
        )
    data = write_dataset(instances, tmp_path / "data-inf.jsonl")
    argv = ("evaluate", str(data), "--splits", "3", "--grid", "0.25,0.5", "--scores")
    code, out, err = run(capsys, *argv, "e1,e2,e-combined")
    assert code == EXIT_OK
    assert err == (
        "warning: 30 calibration prompt(s) have an incorrect response with estimate 1, "
        "so their maxima under transforms 2 and 3 are infinite; every e2 and e3 score "
        "of a test response with estimate below 1 is then +inf, and e-combined reduces "
        "to 3 x e1\n"
    )
    # the warning is all that it adds: silenced, the run is the same
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(capsys, *argv, "e1,e2,e-combined") == (code, out, "")
    # kinds that never read transforms 2 or 3 have nothing to warn about
    code, _, err = run(capsys, *argv, "e1,p")
    assert code == EXIT_OK and err == ""


def test_library_warnings_print_as_one_line(dataset: Path, tmp_path: Path, capsys) -> None:
    extra = tmp_path / "extra.jsonl"
    extra.write_text(
        '{"id": "x", "sub_responses": ["a"], "first_error_index": null, '
        '"oracle_conditionals": [0.5], "model": "m"}\n',
        encoding="utf-8",
    )
    code, _, err = run(capsys, "ingest", str(extra))
    assert code == EXIT_OK
    assert err == (
        "warning: extra.jsonl:1: ignoring unknown field 'model' (reported once per field)\n"
    )

    code, _, err = run(capsys, "evaluate", str(dataset), "--grid", "0,2", "--splits", "2")
    assert code == EXIT_OK
    assert err == (
        "warning: 1 strategy parameter(s) exceed 1 (first 2); rank-based scores never do, "
        "so they would retain everything\n"
        "warning: 1 alpha-max grid point(s) lie below 1/4, the smallest score that e1, "
        "e2, e3, e-combined, p can take with 3 calibration prompts; these kinds keep "
        "nothing there\n"
    )


def test_evaluate_warns_on_grid_points_below_the_score_floor(dataset: Path, capsys) -> None:
    # three calibration prompts: no e-score or p-score goes below 1/4
    argv = ("evaluate", str(dataset), "--splits", "2", "--grid")
    kinds = "e1,e-combined,p,p-randomized,naive2"
    code, _, err = run(capsys, *argv, "0,0.1,0.2,0.5", "--scores", kinds)
    assert code == EXIT_OK
    assert err == (
        "warning: 3 alpha-max grid point(s) lie below 1/4, the smallest score that e1, "
        "e-combined, p can take with 3 calibration prompts; these kinds keep nothing there\n"
    )
    # kinds without the floor, the fraction strategy, and a grid that starts at the floor
    for args in (
        ("0,0.1,0.2,0.5", "--scores", "naive1,p-randomized"),
        ("0,0.1,0.2,0.5", "--strategy", "fraction"),
        ("0.25,0.5", "--scores", "e1,e-combined,p"),
    ):
        code, _, err = run(capsys, *argv, *args)
        assert code == EXIT_OK and err == "", args


def test_score_rejects_duplicate_kinds(dataset: Path, capsys) -> None:
    code, _, err = run(
        capsys, "score", str(dataset), "--calibration", str(dataset), "--scores", "p,p"
    )
    assert code == EXIT_USAGE
    assert "listed twice" in err


def test_evaluate_writes_csv_and_svg(dataset: Path, tmp_path: Path, capsys) -> None:
    csv_path = tmp_path / "report.csv"
    svg_dir = tmp_path / "plots"
    code, out, err = run(
        capsys,
        "evaluate",
        str(dataset),
        "--scores",
        "e-combined,p",
        "--grid",
        "0:1:0.25",
        "--splits",
        "4",
        "--csv",
        str(csv_path),
        "--svg-dir",
        str(svg_dir),
    )
    assert code == EXIT_OK, err
    assert "4 splits, 10 grid rows" in out
    assert "e-combined" in out and out.count("wrote ") == 7  # one CSV, six SVGs
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 11  # header + 2 kinds x 5 grid points
    assert lines[0].startswith("score_kind,strategy,parameter")
    assert sorted(p.name for p in svg_dir.iterdir()) == [
        "e_combined_error_vs_alpha.svg",
        "e_combined_precision_recall.svg",
        "e_combined_size_distortion.svg",
        "p_error_vs_alpha.svg",
        "p_precision_recall.svg",
        "p_size_distortion.svg",
    ]


def test_evaluate_refuses_a_csv_over_a_file_it_reads(tmp_path: Path, capsys, monkeypatch) -> None:
    """``--csv`` naming the dataset or the permutation file, as spelled or as
    another name of the same file, is one validation error before anything
    is read or written, and the file keeps its bytes."""
    data = write_dataset(
        [make_instance(f"t-{i}", [0.9, 0.4 + 0.1 * i], 2 if i % 2 else None) for i in range(4)],
        tmp_path / "two.jsonl",
    )
    perms = tmp_path / "perms.json"
    perms.write_text("[[1, 2], [2, 1]]", encoding="utf-8")
    os.link(data, tmp_path / "link.jsonl")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    before = {path: path.read_bytes() for path in (data, perms)}
    argv = ["evaluate", str(data), "--permutations", "file", "--permutation-file", str(perms)]
    code, out, err = run(capsys, *argv, "--grid", "0.5,1", "--splits", "2", "--csv", "r.csv")
    assert (code, err) == (EXIT_OK, "") and "wrote r.csv" in out, err
    for target in (str(data), "two.jsonl", "sub/../two.jsonl", "link.jsonl", "./perms.json"):
        err = error_line(capsys, *argv, "--csv", target)
        assert err == f"validation error: --csv {target} names a file that evaluate reads\n"
        assert {path: path.read_bytes() for path in before} == before


def test_evaluate_refuses_an_svg_dir_over_a_file_it_reads(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    """``--svg-dir`` naming a file that evaluate reads is refused as ``--csv`` is:
    one validation error with nothing read, not an i/o error after every split."""
    data = write_dataset(
        [make_instance(f"t-{i}", [0.9, 0.4 + 0.1 * i], 2 if i % 2 else None) for i in range(4)],
        tmp_path / "two.jsonl",
    )
    os.link(data, tmp_path / "link.jsonl")
    monkeypatch.chdir(tmp_path)
    before = data.read_bytes()

    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr("escores.reader._read_columns", unread)
    for target in (str(data), "two.jsonl", "./two.jsonl", "link.jsonl"):
        err = error_line(capsys, "evaluate", str(data), "--splits", "2", "--svg-dir", target)
        assert err == f"validation error: --svg-dir {target} names a file that evaluate reads\n"
        assert data.read_bytes() == before


def test_evaluate_refuses_an_unusable_output_path_before_reading(
    dataset: Path, tmp_path: Path, capsys, monkeypatch
) -> None:
    """A ``--csv`` that is a directory or under a file, a ``--svg-dir`` that
    is a file or under one, and an empty one of either are one validation
    error each, with nothing read or written, not an i/o error after every
    split or a run that writes nothing."""
    (tmp_path / "adir").mkdir()
    (tmp_path / "notes.txt").write_text("kept\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr("escores.reader._read_columns", unread)
    argv = ("evaluate", str(dataset), "--splits", "2", "--grid", "0.5,1")
    for option, target, reason in (
        ("--csv", "adir", "--csv adir is a directory"),
        ("--csv", "adir/", "--csv adir/ is a directory"),
        ("--csv", "notes.txt/r.csv", "--csv notes.txt/r.csv: notes.txt is not a directory"),
        ("--svg-dir", "notes.txt", "--svg-dir notes.txt exists and is not a directory"),
        ("--svg-dir", "notes.txt/plots", "--svg-dir notes.txt/plots: notes.txt is not a directory"),
        ("--svg-dir", "notes.txt/a/plots", "--svg-dir notes.txt/a/plots: notes.txt is not a directory"),
        ("--csv", "", "--csv is an empty path"),
        ("--svg-dir", "", "--svg-dir is an empty path"),
    ):
        code, out, err = run(capsys, *argv, option, target)
        assert (code, out, err) == (EXIT_USAGE, "", f"validation error: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "data.jsonl", "notes.txt"]
    assert not any((tmp_path / "adir").iterdir())
    assert (tmp_path / "notes.txt").read_text(encoding="utf-8") == "kept\n"


def test_simulate_refuses_an_empty_emit_path_before_generating(tmp_path: Path, capsys, monkeypatch) -> None:
    """An empty ``--emit`` names no file: one validation error, not an i/o error once the dataset is generated."""
    monkeypatch.chdir(tmp_path)

    def ungenerated(config):
        raise AssertionError("the dataset was generated")

    monkeypatch.setattr("escores.cli.generate_dataset", ungenerated)
    code, out, err = run(capsys, "simulate", "--prompts", "40", "--trials", "100", "--emit", "")
    assert (code, out, err) == (EXIT_USAGE, "", "validation error: --emit is an empty path\n")
    assert not any(tmp_path.iterdir())


def test_evaluate_writes_into_existing_and_new_output_directories(
    dataset: Path, tmp_path: Path, capsys
) -> None:
    """What the refusals leave alone: a --csv in an existing directory, and
    a --svg-dir that exists as a directory or is yet to be made."""
    (tmp_path / "out").mkdir()
    argv = ("evaluate", str(dataset), "--splits", "2", "--grid", "0.5,1", "--scores", "e1")
    for svg_dir in (tmp_path / "out", tmp_path / "new" / "plots"):
        code, out, err = run(capsys, *argv, "--csv", str(tmp_path / "out" / "r.csv"), "--svg-dir", str(svg_dir))
        assert (code, err) == (EXIT_OK, ""), err
        assert f"wrote {tmp_path / 'out' / 'r.csv'}" in out and len(list(svg_dir.glob("*.svg"))) == 3


def test_evaluate_fraction_strategy(dataset: Path, capsys) -> None:
    code, out, err = run(
        capsys,
        "evaluate",
        str(dataset),
        "--scores",
        "p",
        "--strategy",
        "fraction",
        "--grid",
        "0,0.5,1",
        "--splits",
        "2",
    )
    assert code == EXIT_OK, err
    assert "2 splits, 3 grid rows" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "{data}", "--calibration", "{cal}", "--scores", "e1"],
        ["score", "{data}", "--calibration", "{cal}", "--scores", "p-randomized"],
        ["evaluate", "{data}", "--splits", "2"],
        ["simulate", "--trials", "100"],
        ["equivalence", "--instances", "5"],
        ["score", "MISSING.jsonl", "--calibration", "MISSING.jsonl"],
        ["evaluate", "MISSING.jsonl"],
    ],
    ids=[
        "score-e1", "score-p-randomized", "evaluate", "simulate", "equivalence",
        "score-missing-files", "evaluate-missing-file",
    ],
)
def test_negative_seed_is_a_validation_error(argv, dataset: Path, calibration: Path, capsys) -> None:
    """Every seeded command refuses --seed -1 alike, whatever it would draw, before it reads."""
    argv = [a.format(data=dataset, cal=calibration) for a in argv]
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert (code, out, err) == (
        EXIT_USAGE, "", "validation error: seed must be a nonnegative int, got -1\n"
    )


def test_evaluate_usage_failures(dataset: Path, tmp_path: Path, capsys) -> None:
    # a fraction grid above 1 is impossible, not just unusual
    code, _, err = run(
        capsys,
        "evaluate",
        str(dataset),
        "--strategy",
        "fraction",
        "--grid",
        "0:2:1",
        "--splits",
        "2",
    )
    assert code == EXIT_USAGE
    assert "validation error:" in err

    # too few prompts to split
    single = write_dataset([make_instance("only", [0.5])], tmp_path / "one.jsonl")
    code, _, err = run(capsys, "evaluate", str(single), "--splits", "2")
    assert code == EXIT_USAGE
    assert "validation error:" in err

    # unknown flag is an argparse usage error
    code, _, _ = run(capsys, "evaluate", str(dataset), "--frobnicate")
    assert code == EXIT_USAGE

    # unknown subcommand
    code, _, _ = run(capsys, "discombobulate")
    assert code == EXIT_USAGE


def test_permutation_file_flow(dataset: Path, tmp_path: Path, capsys) -> None:
    perm_file = tmp_path / "perms.json"
    perm_file.write_text("[[1, 2]]", encoding="utf-8")
    code, out, err = run(
        capsys,
        "score",
        str(dataset),
        "--calibration",
        str(dataset),
        "--scores",
        "p",
        "--permutations",
        "file",
        "--permutation-file",
        str(perm_file),
    )
    # explicit orderings must match each prompt's step count; the
    # three-step prompt cannot take a two-step ordering
    assert code == EXIT_USAGE
    assert "validation error:" in err

    two_step = write_dataset(
        [make_instance("t-1", [0.9, 0.8]), make_instance("t-2", [0.4, 0.3], 1)],
        tmp_path / "two.jsonl",
    )
    code, out, err = run(
        capsys,
        "score",
        str(two_step),
        "--calibration",
        str(two_step),
        "--scores",
        "p",
        "--permutations",
        "file",
        "--permutation-file",
        str(perm_file),
    )
    assert code == EXIT_OK, err
    assert "1,2" in out

    code, _, err = run(
        capsys, "score", str(dataset), "--calibration", str(dataset),
        "--permutations", "file",
    )
    assert code == EXIT_USAGE
    assert "needs --permutation-file" in err

    code, _, err = run(
        capsys, "score", str(dataset), "--calibration", str(dataset),
        "--permutation-file", str(perm_file),
    )
    assert code == EXIT_USAGE
    assert "only applies" in err


def test_simulate_reports_bound(capsys) -> None:
    code, out, err = run(
        capsys,
        "simulate",
        "--trials",
        "400",
        "--prompts",
        "20",
        "--seed",
        "3",
    )
    assert code == EXIT_OK, err
    assert "trials=400 prompts=20" in out
    assert "transform=identity" in out
    mean_line = next(line for line in out.splitlines() if line.startswith("mean="))
    se_line = next(line for line in out.splitlines() if line.startswith("se="))
    mean = float(mean_line.split("=")[1])
    se = float(se_line.split("=")[1])
    assert 0.0 < mean <= 1.0 + 3.0 * se
    assert "e-variable bound (mean <= 1 + 3*se): PASS" in out
    assert "identity (|mean - 1| <= 3*se): PASS" in out


def test_simulate_names_the_check_that_failed(capsys) -> None:
    code, out, err = run(
        capsys, "simulate", "--prompts", "2000", "--trials", "100", "--seed", "7", "--steps", "8"
    )
    assert code == EXIT_RUNTIME
    assert "e-variable bound (mean <= 1 + 3*se): PASS" in out
    assert "identity (|mean - 1| <= 3*se): FAIL" in out
    assert err == "runtime error: Monte Carlo estimate fails the identity check\n"


def test_simulate_fails_both_checks_through_run_command(capsys, monkeypatch) -> None:
    from escores import cli
    from escores.synthetic import MCEstimate

    monkeypatch.setattr(
        cli, "mc_evariable_check", lambda config, transform, n_trials: MCEstimate(1.5, 0.01, n_trials)
    )
    code, out, err = run(capsys, "simulate", "--trials", "100", "--correct-prob", "0")
    assert code == EXIT_RUNTIME
    assert "e-variable bound (mean <= 1 + 3*se): FAIL" in out
    assert "identity (|mean - 1| <= 3*se): FAIL" in out
    assert err == (
        "runtime error: Monte Carlo estimate violates the e-variable bound "
        "and fails the identity check\n"
    )


def test_equivalence_failure_is_a_runtime_error(capsys, monkeypatch) -> None:
    import escores.equivalence as equivalence

    monkeypatch.setattr(
        equivalence, "run_equivalence_trials", lambda n, **_: equivalence.EquivalenceTrials(n, 1)
    )
    code, out, err = run(capsys, "equivalence", "--instances", "5")
    assert code == EXIT_RUNTIME
    assert "instances=5 failures=1 -> FAIL" in out
    assert err == "runtime error: rank-based and threshold-based filtering disagreed\n"


def test_simulate_emits_parseable_dataset(tmp_path: Path, capsys) -> None:
    emitted = tmp_path / "synthetic.jsonl"
    code, out, err = run(
        capsys,
        "simulate",
        "--trials",
        "150",
        "--prompts",
        "15",
        "--steps",
        "3",
        "--transform",
        "2",
        "--emit",
        str(emitted),
    )
    assert code == EXIT_OK, err
    assert f"wrote {emitted}" in out
    assert "transform=inverse_complement" in out

    code, out, err = run(capsys, "ingest", str(emitted))
    assert code == EXIT_OK
    assert "ok: 15 prefix records" in out


def test_simulate_rejects_bad_trials(capsys) -> None:
    code, _, err = run(capsys, "simulate", "--trials", "10")
    assert code == EXIT_USAGE
    assert "validation error:" in err


def test_simulate_rejects_bad_trials_before_writing_emit(tmp_path: Path, capsys) -> None:
    emitted = tmp_path / "rejected.jsonl"
    code, out, err = run(capsys, "simulate", "--trials", "10", "--emit", str(emitted))
    assert code == EXIT_USAGE
    assert "at least 100 trials" in err
    assert "wrote" not in out
    assert not emitted.exists()


def test_a_missing_output_directory_is_an_io_error(dataset: Path, tmp_path: Path, capsys) -> None:
    """A missing input is a usage error; an output that cannot be created is an i/o failure."""
    missing = tmp_path / "missing"
    code, out, err = run(
        capsys, "evaluate", str(dataset), "--splits", "2", "--grid", "0.5,1",
        "--csv", str(missing / "report.csv"),
    )
    assert code == EXIT_RUNTIME
    assert "worst-case size distortion" in out
    assert err.splitlines()[-1].startswith("i/o error: ")

    code, out, err = run(capsys, "simulate", "--trials", "100", "--emit", str(missing / "d.jsonl"))
    assert code == EXIT_RUNTIME
    assert err.splitlines() == [f"i/o error: [Errno 2] No such file or directory: {str(missing / 'd.jsonl')!r}"]
    assert not missing.exists()


def test_score_dies_quietly_when_stdout_closes_early(tmp_path: Path) -> None:
    big = write_dataset(
        generate_dataset(SyntheticConfig(n_prompts=2000, seed=4)),
        tmp_path / "big.jsonl",
    )
    cal = write_dataset(six_prompts("c"), tmp_path / "cal.jsonl")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "escores.cli",
            "score",
            str(big),
            "--calibration",
            str(cal),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout is not None and proc.stderr is not None
    # read one line so the table is flowing, then slam the pipe shut the
    # way `head` does; the table is far larger than the pipe buffer, so
    # the process is still writing and must hit EPIPE
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_RUNTIME
    assert err == b""


def test_score_dies_quietly_on_a_closed_stdout_in_process(
    dataset: Path, calibration: Path, tmp_path: Path, capsys, monkeypatch
) -> None:
    """``run_command``'s broken-pipe branch: exit 1, nothing on stderr, stdout sent to
    devnull, and no descriptor left open however often it runs."""

    class ClosedPipe(io.StringIO):
        def __init__(self, fd: int) -> None:
            super().__init__()
            self.fd = fd

        def write(self, text: str) -> int:
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self) -> int:
            return self.fd

    with open(tmp_path / "stdout", "w") as target:
        before = len(os.listdir("/dev/fd"))
        for _ in range(5):
            monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
            code = run_command(["score", str(dataset), "--calibration", str(calibration)])
            monkeypatch.undo()
            assert (code, capsys.readouterr().err) == (EXIT_RUNTIME, "")
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        # the branch closes the devnull descriptor it opens for its dup2
        assert len(os.listdir("/dev/fd")) == before


def _console(argv, **kwargs) -> subprocess.CompletedProcess:
    """One command through ``main``: ``python -m escores.cli`` in a fresh interpreter,
    from any directory, its stdout block-buffered as on a pipe or a file."""
    package = str(Path(sys.modules["escores"].__file__).parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "escores.cli", *argv], env=env, timeout=120, **kwargs
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate", "{data}", "--splits", "2", "--grid", "0.5,1"),
        ("simulate", "--trials", "100", "--prompts", "10"),
    ],
    ids=["evaluate", "simulate"],
)
def test_console_script_exits_quietly_into_a_pipe_closed_before_its_exit_flush(
    argv, dataset: Path
) -> None:
    """With stdout buffered, a short output first reaches the pipe at ``main``'s
    own flush, which takes ``run_command``'s quiet branch: exit 1, nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = _console([arg.format(data=dataset) for arg in argv], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (EXIT_RUNTIME, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_console_script_reports_a_failed_exit_flush_as_an_io_error() -> None:
    with open("/dev/full", "w") as full:
        done = _console(
            ["simulate", "--trials", "100", "--prompts", "10"],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert (done.returncode, done.stderr) == (
        EXIT_RUNTIME, "i/o error: [Errno 28] No space left on device\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "{data}", "--scores", "e1,,p"], "empty entry in score list 'e1,,p'"),
        (["evaluate", "{data}", "--grid", "1/0"], "grid value must be a decimal string, got '1/0'"),
        (
            ["score", "{data}", "--calibration", "{data}", "--permutations", "file",
             "--permutation-file", "{perms}"],
            "{perms}: expected a JSON array of index arrays",
        ),
        (
            ["evaluate", "{data}", "--permutations", "file", "--permutation-file", "{empty}"],
            "explicit permutation list must be nonempty",
        ),
    ],
    ids=["empty-score-entry", "zero-denominator-grid", "flat-permutation-file", "empty-permutation-file"],
)
def test_malformed_options_are_one_validation_error(
    argv, message, dataset: Path, tmp_path: Path, capsys
) -> None:
    perms = tmp_path / "perms.json"
    perms.write_text("[1,2]", encoding="utf-8")
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    names = {"data": dataset, "perms": perms, "empty": empty}
    argv = [a.format(**names) for a in argv]
    assert error_line(capsys, *argv) == f"validation error: {message.format(**names)}\n"


def test_equivalence_passes(capsys) -> None:
    code, out, err = run(
        capsys, "equivalence", "--instances", "45", "--n-max", "15", "--grid-points", "6"
    )
    assert code == EXIT_OK, err
    assert "instances=45 failures=0 -> PASS" in out


def test_help_exits_cleanly(capsys) -> None:
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "ingest" in out and "simulate" in out


def test_benchmark_tracing_finds_every_name_it_rebinds(
    dataset: Path, capsys, monkeypatch
) -> None:
    """The traced benchmark run wraps package names; a refactor must keep them."""
    import escores.evaluation as evaluation
    import escores.io as escores_io
    import escores.scoring as scoring
    from escores import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    modules = (cli, evaluation, escores_io, scoring)
    before = [dict(vars(module)) for module in modules]
    init = evaluation.PreparedDataset.__init__
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        code, _, err = run(
            capsys, "evaluate", str(dataset), "--permutations", "all", "--splits", "2",
            "--scores", "e-combined,p", "--grid", "0.5,1",
        )
    finally:
        tracer.restore()
    assert code == EXIT_OK, err
    assert {"evaluation.PreparedDataset", "response_sets.build_permutation_set"} <= {
        span.name for span in tracer.spans
    }
    assert tracer.counts["response_sets.build_permutation_set.calls"] == 3  # steps 1, 2, 3
    # evaluate runs each split, and builds each summary, through the public names:
    # e-combined reads all 3 transforms, in each of 2 splits of 3 calibration prompts
    assert tracer.counts["evaluation.evaluate_split.calls"] == 2
    assert tracer.counts["estimation.build_calibration_summary.calls"] == 3 * 2
    assert tracer.counts["estimation.calibration_values"] == 3 * 2 * 3
    assert tracer.counts["evaluation.grid_cells"] > 0
    for module, names in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in names.items()), module
    assert evaluation.PreparedDataset.__init__ is init


def test_benchmark_tracing_sees_score(
    dataset: Path, calibration: Path, capsys, monkeypatch
) -> None:
    """``score`` prepares and scores through the names the traced run wraps on
    ``evaluation``, so the score workload's per-layer metrics stay live."""
    import escores.evaluation as evaluation
    import escores.io as escores_io
    import escores.scoring as scoring
    from escores import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    modules = (cli, evaluation, escores_io, scoring)
    before = [dict(vars(module)) for module in modules]
    init = evaluation.PreparedDataset.__init__
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        code, out, err = run(
            capsys, "score", str(dataset), "--calibration", str(calibration),
            "--scores", "e-combined,p", "--jsonl",
        )
    finally:
        tracer.restore()
    assert code == EXIT_OK, err
    assert len(out.splitlines()) == 6
    # the calibration set, then the test set
    assert [span.name for span in tracer.spans].count("evaluation.PreparedDataset") == 2
    # one summary per transform that e-combined and p read, for the one calibration set
    assert tracer.counts["estimation.build_calibration_summary.calls"] == 3
    for module, names in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in names.items()), module
    assert evaluation.PreparedDataset.__init__ is init


def test_benchmark_tracing_sees_the_names_the_handlers_call_late(
    dataset: Path, tmp_path: Path, capsys, monkeypatch
) -> None:
    """The handlers call the deferred names as bound on ``cli`` now, so their spans record."""
    import escores
    from escores import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    before = dict(vars(cli))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        simulated = run(
            capsys, "simulate", "--trials", "100", "--prompts", "10", "--emit", str(tmp_path / "d.jsonl")
        )
        evaluated = run(
            capsys, "evaluate", str(dataset), "--splits", "2", "--grid", "0.5,1", "--scores", "e1,p",
            "--csv", str(tmp_path / "report.csv"), "--svg-dir", str(tmp_path / "svg"),
        )
    finally:
        tracer.restore()
    assert simulated[0] == EXIT_OK, simulated[2]
    assert evaluated[0] == EXIT_OK, evaluated[2]
    assert {
        "synthetic.mc_evariable_check", "synthetic.generate_dataset", "io.write_dataset",
        "io.emit_csv", "io.emit_svg_curves", "svg.render_panel",
    } <= {span.name for span in tracer.spans}
    assert tracer.counts["synthetic.mc_rows"] == 100 * 10
    assert tracer.counts["svg.render_panel.calls"] == 2 * 3  # three panels per score kind
    home = {name: getattr(escores, name) for name in cli._DEFERRED}
    assert all(vars(cli)[name] is value for name, value in {**home, **before}.items())


def _modules_after(*argv: str) -> set[str]:
    """The modules a fresh interpreter holds after one command, which must succeed."""
    program = (
        "import contextlib, io, json, sys\n"
        "from escores.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run_command(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program, *argv], capture_output=True, text=True, timeout=120
    )
    code, modules = json.loads(done.stdout)
    assert code == EXIT_OK, done.stderr
    return set(modules)


def test_each_command_loads_only_the_modules_it_runs(dataset: Path, calibration: Path) -> None:
    # the scalar reference forms are for library callers: no command loads them
    scalar = "escores.scalar"
    simulate = _modules_after("simulate", "--trials", "100", "--prompts", "10")
    assert {m for m in simulate if m.split(".")[0] == "escores"} == {
        "escores", "escores.cli", "escores.core", "escores.estimation", "escores.synthetic",
    }
    # only exact numbers (grids, fractions, the SVG x values) load these
    assert not {"fractions", "decimal"} & simulate
    # numpy.random is imported without secrets, whose hmac loads OpenSSL
    openssl = {"secrets", "hmac", "hashlib", "_hashlib"}
    assert not openssl & simulate
    # --emit writes a dataset: the generator's types and the writer load then
    emit = str(dataset.with_name("emitted.jsonl"))
    emitted = _modules_after("simulate", "--trials", "100", "--prompts", "10", "--emit", emit)
    assert {"escores.io", "escores.response_sets"} <= emitted
    assert not {scalar, "escores.evaluation", "escores.svg"} & emitted
    # 3 splits put both quartiles between two means: the interpolating path
    evaluate = _modules_after("evaluate", str(dataset), "--splits", "3", "--grid", "0.5,1")
    assert {"escores.evaluation", "escores.sweep", "escores.reader"} <= evaluate
    # evaluate writes no file here, so neither the writers nor the emitters load
    assert not {"escores.synthetic", "escores.equivalence", "escores.io", scalar, "numpy.ma"} & evaluate
    assert not openssl & evaluate
    equivalence = _modules_after("equivalence", "--instances", "5")
    assert "escores.equivalence" in equivalence
    assert not {"escores.sweep", "escores.evaluation", scalar} & equivalence
    assert not openssl & equivalence
    # score prepares and scores: no sweep, report type, trial, writer, emitter,
    # scalar form or exact number
    unused = {
        "escores.sweep", "escores.equivalence", "escores.io", "escores.svg", scalar,
        "fractions", "decimal", "csv",
    }
    for form in ("--jsonl", None):
        argv = ("score", str(dataset), "--calibration", str(calibration), "--scores", "all", form)
        score = _modules_after(*filter(None, argv))
        assert {"escores.evaluation", "escores.reader"} <= score
        assert not unused & score, form
        # the prompt keys' SHA-256 is CPython's own, not OpenSSL's
        assert not {"_hashlib", "numpy.ma", "escores.synthetic"} & score

    program = "import escores, sys; print([m for m in sys.modules if m.startswith('escores.')])"
    done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]", done.stderr


def test_ingest_loads_neither_the_engine_nor_the_emitters(dataset: Path) -> None:
    """The reader lives in ``reader``, apart from ``io``'s writers and emitters."""
    ingest = _modules_after("ingest", str(dataset))
    assert "escores.reader" in ingest
    engine = {
        "escores.evaluation", "escores.scoring", "escores.io", "escores.scalar", "escores.svg",
        "csv", "fractions", "decimal",
    }
    assert not engine & ingest


def _dataclasses_after(*argv: str) -> list[str]:
    """The package's dataclasses that a fresh interpreter processes for one command."""
    program = (
        "import contextlib, dataclasses, io, json, sys\n"
        "seen, process = [], dataclasses._process_class\n"
        "def counted(cls, *args, **kwargs):\n"
        "    seen.append(f'{cls.__module__}.{cls.__qualname__}')\n"
        "    return process(cls, *args, **kwargs)\n"
        "dataclasses._process_class = counted\n"
        "from escores.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run_command(sys.argv[1:])\n"
        "print(json.dumps([code, [name for name in seen if name.startswith('escores.')]]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program, *argv], capture_output=True, text=True, timeout=120
    )
    code, names = json.loads(done.stdout)
    assert code == EXIT_OK, done.stderr
    return sorted(names)


def test_each_command_processes_only_the_dataclasses_it_builds(
    dataset: Path, calibration: Path
) -> None:
    """Processing a dataclass costs start-up time whether or not one is built.

    The response-set containers of the scalar forms, the dataset files'
    prompt instances and the split plans are off the paths that do not
    build them.
    """
    shared = ["escores.core.CalibrationSummary", "escores.core.Prompt", "escores.core.Response"]
    response_sets = ["escores.response_sets.GeneratedResponse", "escores.response_sets.PermutationPolicy"]
    assert _dataclasses_after("ingest", str(dataset)) == sorted(shared + response_sets)
    assert _dataclasses_after(
        "score", str(dataset), "--calibration", str(calibration), "--scores", "all", "--jsonl"
    ) == sorted([*shared, *response_sets, "escores.scoring.ScoreKind"])
    assert _dataclasses_after("simulate", "--trials", "100", "--prompts", "10") == sorted(
        [*shared, "escores.synthetic.MCEstimate", "escores.synthetic.SyntheticConfig"]
    )
    sweep = [
        f"escores.sweep.{name}"
        for name in (
            "EvaluationReport", "ReportRow", "SplitAssignment", "SplitPlan", "StrategyGrid",
            "WorstCaseRow",
        )
    ]
    assert _dataclasses_after("evaluate", str(dataset), "--splits", "2", "--grid", "0.5,1") == sorted(
        [*shared, *response_sets, "escores.scoring.ScoreKind", *sweep]
    )


def test_every_public_name_is_its_home_modules_object() -> None:
    import escores
    from escores import core, evaluation
    from escores import io as escores_io

    for name in escores.__all__:
        value = getattr(escores, name)
        home = f"escores.{escores._EXPORTS[name]}"
        assert value is getattr(importlib.import_module(home), name), name
        if isinstance(value, type) or callable(value):
            assert value.__module__ == home, name
    assert escores_io.DatasetParseError is core.DatasetParseError
    assert escores_io.DatasetValidationError is core.DatasetValidationError
    assert evaluation.Strategy is core.Strategy
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        escores.nonexistent  # noqa: B018
    assert dir(escores) == escores.__all__


# ---------------------------------------------------------------------------
# the whole score pipeline against the rational oracles
# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@settings(max_examples=25, deadline=None)
@given(split_records())
def test_score_matches_oracle_composition(inputs) -> None:
    test_records, cal_records, seed = inputs
    with tempfile.TemporaryDirectory() as tmp:
        test_path, cal_path = Path(tmp) / "test.jsonl", Path(tmp) / "cal.jsonl"
        _write_jsonl(test_path, test_records)
        _write_jsonl(cal_path, cal_records)
        for mode, (policy, enumerate_set) in POLICIES.items():
            fstars = oracle_fstars(cal_records, enumerate_set)
            prep = PreparedDataset(parse_dataset(cal_path), policy)
            flat = [o for record in cal_records for o in oracle_prompt(record, enumerate_set)[2]]
            for transform in FTransform:
                values = transform_values(prep.estimates_flat, transform)
                assert len(values) == len(flat)
                for got, o in zip(values, flat):
                    assert oracles.matches(float(got), oracles.transform(o, transform.option)), mode
                for got, want in zip(prep.fstar[transform], fstars[transform.option]):
                    assert oracles.matches(float(got), want), mode

            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run_command(
                    ["score", str(test_path), "--calibration", str(cal_path), "--scores",
                     "all", "--jsonl", "--seed", str(seed), "--permutations", mode]
                )
            assert code == EXIT_OK
            lines = stdout.getvalue().splitlines()
            assert len(lines) == len(test_records)
            for line, record in zip(lines, test_records):
                got = json.loads(line)
                responses, labels, estimates = oracle_prompt(record, enumerate_set)
                assert got["id"] == record["id"]
                assert [tuple(r) for r in got["responses"]] == responses
                assert got["labels"] == labels
                u = uniform_block(seed, 0, record["id"], len(responses))
                for j, o in enumerate(estimates):
                    for kind, value in oracle_scores(o, fstars, float(u[j])).items():
                        assert oracles.matches(got["scores"][kind][j], value), (mode, kind, j)


# ---------------------------------------------------------------------------
# golden outputs: seeded CLI runs pinned byte for byte
# ---------------------------------------------------------------------------


def _golden_instances(prefix: str, n_prompts: int, rnd: random.Random) -> list:
    """Prompts of 1-4 steps, with repeated and zero conditionals among random ones.

    No conditional is 1, so no naive2 or naive3 score is 0 and every
    worst-case mean is finite; the hashes below were pinned on this data.
    """
    instances = []
    for i in range(n_prompts):
        k = rnd.randint(1, 4)
        conditionals = [
            rnd.choice([0.0, 0.5, 0.5, round(rnd.uniform(0.01, 0.99), 3)]) for _ in range(k)
        ]
        first_error = rnd.choice([None, None, *range(1, k + 1)])
        instances.append(make_instance(f"{prefix}-{i}", conditionals, first_error))
    return instances


# sha256 of stdout (temporary paths replaced by TMP), of each CSV and of
# each SVG directory; all of it is printed at six significant digits except
# score.jsonl.out, whose scores are full float reprs.  Every score and
# evaluate digest but the two permutations ones covers p-randomized, so it
# moves with the uniform stream.  ingest.out, simulate.out and the *.jsonl
# digests pin the generate, parse and write paths: the dataset files that
# write_dataset, simulate --emit and a singular round trip write.
GOLDEN = {
    "alpha-max.out": "1b38b444b0fcaca76615aa3578d6338112646c94571534a10a2fe9d554cd953e",
    "fraction.out": "ab29a48ea71ce1ed7bac00ab198af12b5ba58081c5fff5117f27e864caed8091",
    "permutations.out": "dfcfa31054107c91a70b07a277d56edc1160dc3d795d3d52e8c1eccee54e6635",
    "score.out": "650590b452f3cbd42a2898b6d25fb6de0084896525b52ceba9b97495c1682897",
    "score.jsonl.out": "9bd91547f35f4e3db297ec9b052e2417f25f1d41c3908c17ee39c374603969aa",
    "alpha-max.csv": "825201554b46a4bec42da0385228499ad65d0d62c81a2ea247201282b8816402",
    "fraction.csv": "a31272bb7bf4e7218e8301484268625c035017b99bddd340f2ecf9e51b92e2da",
    "permutations.csv": "84a4244198ebda738f33adf8ee123457fdbbe399524027fcc8e5b43f39e398b3",
    "svg-alpha-max": "8822530ea717a68e5ae15d3980ff74e6056d7800a30dab4ac7e3c2eb4ac30ab8",
    "svg-fraction": "d8e26c4e976b0be843635d355ff7e62341024624f3fcb22119137f832123ea87",
    "ingest.out": "44b88601a67c60e6c6361d8d8afcd672cf4f8ca2f66354bf4ae06459efda68c7",
    "simulate.out": "e2b9ebf6bc42403be9eff55a9fcc0aa975cf0b66aff8ad5608470fac7c55f8b2",
    "data.jsonl": "34e9f32b3d420bdf8837caa9229c7c4a51de92c5f8aff10ad1c5f035f745cd18",
    "cal.jsonl": "dc4d569fb574ce52bca0b4ac923077035937f3d32e5c0d1e96e279da0b865702",
    "simulate.jsonl": "28819555b9f20aa28e1f34cde349f69b54ac826933d452cc55e0995b02abc3bc",
    "singular.jsonl": "c814ce160bf885195c838d47a670a9c6750330c45617f1d8526384b2fa898b43",
}

SINGULAR_RECORDS = (
    '{"id": "s-1", "response": "Paris is in France.", "correct": true, '
    '"oracle_estimate": 0.875}\n'
    '{"id": "s-2", "response": "Lyon is the capital.", "correct": false, '
    '"oracle_estimate": 0.3}\n'
)


def test_cli_outputs_match_golden_hashes(tmp_path: Path, capsys) -> None:
    rnd = random.Random(20261018)
    data = write_dataset(_golden_instances("g", 60, rnd), tmp_path / "data.jsonl")
    cal = write_dataset(_golden_instances("c", 40, rnd), tmp_path / "cal.jsonl")
    evaluate = ("evaluate", str(data), "--seed", "3", "--csv")
    commands = {
        "alpha-max": (
            *evaluate, str(tmp_path / "alpha-max.csv"), "--scores", "all",
            "--grid", "0:1:0.05", "--splits", "3", "--svg-dir", str(tmp_path / "svg-alpha-max"),
        ),
        "fraction": (
            *evaluate, str(tmp_path / "fraction.csv"), "--scores", "all", "--strategy",
            "fraction", "--grid", "0:1:0.1", "--splits", "3", "--svg-dir",
            str(tmp_path / "svg-fraction"),
        ),
        "permutations": (
            *evaluate, str(tmp_path / "permutations.csv"), "--permutations", "all",
            "--scores", "e-combined,p", "--strategy", "fraction", "--grid", "0:1:0.1",
            "--splits", "2",
        ),
        "score": ("score", str(data), "--calibration", str(cal), "--scores", "all", "--seed", "3"),
        "score.jsonl": (
            "score", str(data), "--calibration", str(cal), "--scores", "all", "--seed", "3",
            "--jsonl",
        ),
        "ingest": ("ingest", str(data)),
        "simulate": (
            "simulate", "--prompts", "30", "--steps", "4", "--trials", "100", "--seed", "5",
            "--emit", str(tmp_path / "simulate.jsonl"),
        ),
    }
    singular_in = tmp_path / "singular-in.txt"
    singular_in.write_text(SINGULAR_RECORDS, encoding="utf-8")
    write_dataset(parse_dataset(singular_in), tmp_path / "singular.jsonl", "singular")
    got = {}
    for name, argv in commands.items():
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK, name
        got[f"{name}.out"] = out.replace(str(tmp_path), "TMP")
    for path in sorted([*tmp_path.glob("*.csv"), *tmp_path.glob("*.jsonl")]):
        got[path.name] = path.read_text(encoding="utf-8")
    for svg_dir in sorted(tmp_path.glob("svg-*")):  # each directory's files, concatenated by name
        files = sorted(svg_dir.iterdir())
        got[svg_dir.name] = "".join(p.read_text(encoding="utf-8") for p in files)
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in got.items()}
    assert digests == GOLDEN


def test_console_script_matches_run_command(tmp_path: Path, capsys, monkeypatch) -> None:
    """``python -m escores.cli``, which runs through ``main``, gives each golden
    command the stdout, stderr, exit code and written files of ``run_command``
    in process, a validation error and a failed check included."""
    rnd = random.Random(20261018)
    data = write_dataset(_golden_instances("g", 60, rnd), tmp_path / "data.jsonl")
    cal = write_dataset(_golden_instances("c", 40, rnd), tmp_path / "cal.jsonl")
    score = ("score", str(data), "--calibration", str(cal), "--scores", "all", "--seed", "3")
    commands = {
        "ingest": ("ingest", str(data)),
        "score": score,
        "score.jsonl": (*score, "--jsonl"),
        "evaluate": (
            "evaluate", str(data), "--seed", "3", "--scores", "all", "--grid", "0:1:0.05",
            "--splits", "3", "--csv", "report.csv", "--svg-dir", "svg",
        ),
        "simulate": (
            "simulate", "--prompts", "30", "--steps", "4", "--trials", "100", "--seed", "5",
            "--emit", "simulate.jsonl",
        ),
        "validation": ("evaluate", str(data), "--grid", "1/0"),
        "failed-check": (
            "simulate", "--prompts", "2000", "--trials", "100", "--seed", "7", "--steps", "8",
        ),
    }

    def files(directory: Path) -> dict:
        return {
            str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()
        }

    codes = {}
    for name, argv in commands.items():
        here, there = tmp_path / f"{name}-run", tmp_path / f"{name}-console"
        here.mkdir()
        there.mkdir()
        monkeypatch.chdir(here)
        in_process = (*run(capsys, *argv), files(here))
        done = _console(argv, cwd=there, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr, files(there)) == in_process, name
        codes[name] = done.returncode
    assert codes == {
        **dict.fromkeys(commands, EXIT_OK), "validation": EXIT_USAGE, "failed-check": EXIT_RUNTIME,
    }


def test_main_runs_without_the_collector_and_freezes_the_heap_before_exit(dataset: Path) -> None:
    program = (
        "import atexit, gc, sys\n"
        "from escores.cli import main\n"
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "main()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program, "ingest", str(dataset)], capture_output=True, text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (EXIT_OK, "False True\n")


def _cycles_of(call) -> int:
    """The objects that ``call`` leaves in reference cycles, which only the collector frees."""
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        found = gc.collect()
        gc.enable()
    return found


def test_commands_make_no_cycles_beyond_their_parsers(
    dataset: Path, calibration: Path, tmp_path: Path, capsys, monkeypatch
) -> None:
    """``main`` runs with the collector off, so a command must leave nothing for it:
    each run leaves exactly the cycles that parsing its argv leaves, however many
    splits it runs."""
    monkeypatch.chdir(tmp_path)
    score = ("score", str(dataset), "--calibration", str(calibration), "--scores", "all")
    commands = [
        ("ingest", str(dataset)),
        score,
        (*score, "--jsonl"),
        ("evaluate", str(dataset), "--splits", "2", "--csv", "r.csv", "--svg-dir", "svg"),
        ("evaluate", str(dataset), "--splits", "20", "--csv", "r.csv", "--svg-dir", "svg"),
        ("evaluate", str(dataset), "--permutations", "all", "--strategy", "fraction", "--splits", "2"),
        ("simulate", "--trials", "100", "--prompts", "10"),
        ("simulate", "--trials", "100", "--prompts", "10", "--emit", "d.jsonl"),
        ("equivalence", "--instances", "5"),
        ("evaluate", str(dataset), "--grid", "1/0"),  # a validation error
    ]
    cycles = {}
    for argv in commands:
        run_command(argv)  # imports and first-use caches are not the run's garbage
        cycles[argv] = _cycles_of(lambda: run_command(argv))
        assert cycles[argv] == _cycles_of(lambda: build_parser().parse_args(argv)), argv
    capsys.readouterr()
    assert cycles[commands[3]] == cycles[commands[4]]


def test_run_command_leaves_the_collector_as_it_found_it(dataset: Path, capsys) -> None:
    assert run(capsys, "ingest", str(dataset))[0] == EXIT_OK
    assert gc.isenabled() and gc.get_freeze_count() == 0

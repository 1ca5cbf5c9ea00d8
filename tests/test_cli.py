"""The command-line interface: subcommands, output shapes, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from escores import (
    FTransform,
    PreparedDataset,
    parse_dataset,
    uniform_block,
    write_dataset,
)
from escores.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, run_command

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


def test_score_dies_quietly_when_stdout_closes_early(tmp_path: Path) -> None:
    from escores import SyntheticConfig, generate_dataset

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
                assert len(prep.f_flat[transform]) == len(flat)
                for got, o in zip(prep.f_flat[transform], flat):
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

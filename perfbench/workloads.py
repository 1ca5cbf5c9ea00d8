"""The four benchmark workloads: inputs, command lines and output checks.

Each workload is one ``escores`` CLI command.  Its inputs are drawn from
``escores.synthetic.generate_dataset`` with ``SyntheticConfig`` defaults
and written with ``escores.io.write_dataset``; the only thing the
program receives is the generated files plus the command line.  The
benchmark seed fixes every input and every ``--seed`` passed on.

Datasets are stratified by step count: a pool twice the wanted size is
drawn and the first ``n / max_steps`` prompts of each step count are
kept, in pool order.  ``SyntheticConfig`` draws step counts uniformly,
so this keeps the input distribution but removes the seed-to-seed
spread in the number of responses, which under ``--permutations all``
grows as k! and would otherwise dominate the run-to-run spread.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

#: Prompts per dataset, splits and trials; ``SMOKE`` is the self-test size.
FULL = {
    "score_test": 2000,
    "score_cal": 1000,
    "grid_data": 2000,
    "grid_splits": 10,
    "perm_data": 1000,
    "perm_splits": 5,
    "mc_trials": 10000,
    "mc_prompts": 100,
    "oracle_sample": 12,
}
SMOKE = {
    "score_test": 40,
    "score_cal": 20,
    "grid_data": 40,
    "grid_splits": 2,
    "perm_data": 20,
    "perm_splits": 2,
    "mc_trials": 200,
    "mc_prompts": 20,
    "oracle_sample": 5,
}

GRID = "0:1:0.01"
GRID_POINTS = 101
ALL_KINDS = (
    "e1", "e2", "e3", "e-combined", "p", "p-randomized", "naive1", "naive2", "naive3",
)


@dataclass
class Prepared:
    """What one set-up leaves for the runs: datasets and the work count."""

    datasets: dict[str, tuple]  # file name -> prompt instances
    items: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    setup: Callable[[Path, dict, int, object], Prepared]
    argv: Callable[[dict, int], list[str]]
    outputs: tuple[str, ...]  # files or directories the command writes
    check: Callable[[Path, bytes, Prepared, dict, int, object], list[str]]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def balanced_dataset(escores, n_prompts: int, seed: int, id_prefix: str, call) -> tuple:
    """``n_prompts`` synthetic prompts, equally many of each step count."""
    defaults = escores.SyntheticConfig()
    if n_prompts % defaults.max_steps:
        raise ValueError(f"{n_prompts} prompts do not split evenly over step counts")
    per_k = n_prompts // defaults.max_steps
    pool_size = 2 * n_prompts
    while True:
        config = escores.SyntheticConfig(n_prompts=pool_size, seed=seed)
        pool = call("synthetic.generate_dataset", escores.generate_dataset, config)
        taken = {k: 0 for k in range(1, defaults.max_steps + 1)}
        chosen = []
        for inst in pool:
            k = len(inst.generated)
            if taken[k] < per_k:
                taken[k] += 1
                chosen.append(inst)
        if len(chosen) == n_prompts:
            break
        pool_size *= 2
    return tuple(
        dataclasses.replace(
            inst,
            generated=dataclasses.replace(
                inst.generated, prompt=escores.Prompt(f"{id_prefix}{i:06d}")
            ),
        )
        for i, inst in enumerate(chosen)
    )


def _write(escores, workdir: Path, name: str, instances: tuple, call) -> None:
    call("io.write_dataset", escores.write_dataset, instances, workdir / name, "prefix")


def _input_seed(seed: int, role: int) -> int:
    # disjoint generator streams for test (0), calibration (1) and split data (2)
    return 3 * seed + role


def _prefix_responses(instances) -> int:
    return sum(len(inst.generated) for inst in instances)


def _permutation_responses(instances) -> int:
    return sum(
        sum(math.perm(k, i) for i in range(1, k + 1))
        for k in (len(inst.generated) for inst in instances)
    )


def _setup_score(workdir: Path, sizes: dict, seed: int, call) -> Prepared:
    import escores

    test = balanced_dataset(escores, sizes["score_test"], _input_seed(seed, 0), "synthetic-", call)
    # calibration ids must not collide with test ids: a prompt in both
    # halves breaks the exchangeability the guarantee rests on
    cal = balanced_dataset(escores, sizes["score_cal"], _input_seed(seed, 1), "cal-", call)
    _write(escores, workdir, "test.jsonl", test, call)
    _write(escores, workdir, "cal.jsonl", cal, call)
    return Prepared({"test.jsonl": test, "cal.jsonl": cal}, _prefix_responses(test) * len(ALL_KINDS))


def _setup_grid(workdir: Path, sizes: dict, seed: int, call) -> Prepared:
    import escores

    data = balanced_dataset(escores, sizes["grid_data"], _input_seed(seed, 2), "synthetic-", call)
    _write(escores, workdir, "data.jsonl", data, call)
    return Prepared({"data.jsonl": data}, _prefix_responses(data))


def _setup_perm(workdir: Path, sizes: dict, seed: int, call) -> Prepared:
    import escores

    data = balanced_dataset(escores, sizes["perm_data"], _input_seed(seed, 2), "synthetic-", call)
    _write(escores, workdir, "data.jsonl", data, call)
    return Prepared({"data.jsonl": data}, _permutation_responses(data))


def _setup_mc(workdir: Path, sizes: dict, seed: int, call) -> Prepared:
    return Prepared({}, sizes["mc_trials"] * sizes["mc_prompts"])


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def _conditionals(inst) -> list[float]:
    conds = inst.estimates.conditionals
    return [conds[j] for j in range(1, len(inst.generated) + 1)]


def _labels(inst) -> list[int]:
    fei = inst.generated.first_error_index
    return [0 if fei is not None and fei <= i else 1 for i in range(1, len(inst.generated) + 1)]


def _oracle_fstars(oracles, cal_instances, option: int) -> list:
    fstars = []
    for inst in cal_instances:
        conds = _conditionals(inst)
        values = [oracles.transform(oracles.aggregate(conds[:i]), option) for i in range(1, len(conds) + 1)]
        fstars.append(oracles.f_star(list(zip(values, _labels(inst)))))
    return fstars


def _check_score(workdir: Path, stdout: bytes, prepared: Prepared, sizes: dict, seed: int, oracles) -> list[str]:
    test = prepared.datasets["test.jsonl"]
    cal = prepared.datasets["cal.jsonl"]
    lines = stdout.decode("utf-8").splitlines()
    if len(lines) != len(test):
        return [f"score: {len(lines)} JSONL records for {len(test)} test prompts"]
    records = [json.loads(line) for line in lines]
    problems = []
    for record, inst in zip(records, test):
        k = len(inst.generated)
        if record["id"] != inst.prompt_id:
            problems.append(f"score: record {record['id']!r} where {inst.prompt_id!r} belongs")
        if record["responses"] != [list(range(1, i + 1)) for i in range(1, k + 1)]:
            problems.append(f"score: {inst.prompt_id}: responses are not the {k} prefixes")
        if record["labels"] != _labels(inst):
            problems.append(f"score: {inst.prompt_id}: wrong labels {record['labels']}")
        scores = record["scores"]
        if tuple(scores) != ALL_KINDS or any(len(v) != k for v in scores.values()):
            problems.append(f"score: {inst.prompt_id}: wrong score kinds or lengths")
    if problems:
        return problems[:5]

    # recompute a seeded sample of prompts exactly with the rational oracles
    n = len(cal)
    fstars = {t: _oracle_fstars(oracles, cal, t) for t in (1, 2, 3)}
    # oracles.e_score sees its calibration list only through its length and
    # exact sum, and re-adds it on every call; a list of the same length and
    # sum gives the same value without re-adding n rationals each time
    sum_lists = {t: [0] * (n - 1) + [oracles.x_sum(fstars[t])] for t in (1, 2, 3)}
    sample = sorted(random.Random(seed).sample(range(len(test)), min(sizes["oracle_sample"], len(test))))
    for index in sample:
        inst, scores = test[index], records[index]["scores"]
        conds = _conditionals(inst)
        for j in range(len(conds)):
            estimate = oracles.aggregate(conds[: j + 1])
            f = {t: oracles.transform(estimate, t) for t in (1, 2, 3)}
            e = {t: oracles.e_score(f[t], sum_lists[t]) for t in (1, 2, 3)}
            expected = {
                "e1": e[1],
                "e2": e[2],
                "e3": e[3],
                "e-combined": oracles.combined_e_score([e[1], e[2], e[3]]),
                "p": oracles.p_score(f[1], fstars[1]),
                "naive1": oracles.naive_score(estimate, 1),
                "naive2": oracles.naive_score(estimate, 2),
                "naive3": oracles.naive_score(estimate, 3),
            }
            for kind, value in expected.items():
                if not oracles.matches(scores[kind][j], value):
                    problems.append(
                        f"score: {inst.prompt_id} response {j + 1} {kind}={scores[kind][j]!r}, oracle {float(value)!r}"
                    )
            # the uniform stream is not pinned: only its bounds are checked
            above = sum(1 for v in fstars[1] if f[1] < v)
            low, high = Fraction(above, n + 1), expected["p"]
            slack = high * Fraction(1, 10**12)
            if not low - slack <= oracles.x_of(scores["p-randomized"][j]) <= high + slack:
                problems.append(
                    f"score: {inst.prompt_id} response {j + 1} p-randomized={scores['p-randomized'][j]!r} "
                    f"outside [{float(low)!r}, {float(high)!r}]"
                )
    return problems[:5]


def _check_report(stdout: bytes, csv_path: Path, kinds: tuple[str, ...], n_prompts: int, splits: int) -> list[str]:
    text = stdout.decode("utf-8")
    if not text.startswith(f"{splits} splits, {len(kinds) * GRID_POINTS} grid rows"):
        return [f"evaluate: unexpected summary line {text.splitlines()[:1]}"]
    with csv_path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(kinds) * GRID_POINTS:
        return [f"evaluate: {len(rows)} CSV rows, expected {len(kinds) * GRID_POINTS}"]
    n_test = n_prompts // 2
    problems = []
    previous: dict[str, tuple[float, float]] = {}
    for i, row in enumerate(rows):
        where = f"evaluate: row {i + 2} ({row['score_kind']}, {row['parameter']})"
        if row["score_kind"] != kinds[i // GRID_POINTS]:
            problems.append(f"{where}: score kind out of order")
        if (int(row["n_test"]), int(row["n_cal"]), int(row["n_splits"])) != (n_test, n_prompts - n_test, splits):
            problems.append(f"{where}: n_test/n_cal/n_splits = {row['n_test']}/{row['n_cal']}/{row['n_splits']}")
        for column in ("mean_error", "mean_precision", "mean_recall"):
            if not 0.0 <= float(row[column]) <= 1.0:
                problems.append(f"{where}: {column}={row[column]} outside [0, 1]")
        if float(row["mean_size_distortion"]) < 0.0 or float(row["mean_alpha"]) < 0.0:
            problems.append(f"{where}: negative distortion or alpha")
        if row["strategy"] == "alpha-max":
            if float(row["mean_alpha"]) > float(Fraction(row["parameter"])):
                problems.append(f"{where}: mean_alpha {row['mean_alpha']} above the parameter")
            current = (float(row["mean_error"]), float(row["mean_recall"]))
            before = previous.get(row["score_kind"])
            if before is not None and (current[0] < before[0] or current[1] < before[1]):
                problems.append(f"{where}: error or recall decreased along the grid")
            previous[row["score_kind"]] = current
    return problems[:5]


def _check_grid(workdir: Path, stdout: bytes, prepared: Prepared, sizes: dict, seed: int, oracles) -> list[str]:
    problems = _check_report(stdout, workdir / "report.csv", ALL_KINDS, sizes["grid_data"], sizes["grid_splits"])
    svgs = sorted((workdir / "svg").glob("*.svg"))
    if len(svgs) != 3 * len(ALL_KINDS):
        problems.append(f"evaluate: {len(svgs)} SVG panels, expected {3 * len(ALL_KINDS)}")
    return problems


def _check_perm(workdir: Path, stdout: bytes, prepared: Prepared, sizes: dict, seed: int, oracles) -> list[str]:
    return _check_report(stdout, workdir / "report.csv", ("e-combined", "p"), sizes["perm_data"], sizes["perm_splits"])


def _check_mc(workdir: Path, stdout: bytes, prepared: Prepared, sizes: dict, seed: int, oracles) -> list[str]:
    text = stdout.decode("utf-8")
    if f"trials={sizes['mc_trials']} prompts={sizes['mc_prompts']}" not in text:
        return [f"simulate: unexpected header in {text.splitlines()[:1]}"]
    if "e-variable bound (mean <= 1 + 3*se): PASS" not in text:
        return ["simulate: the e-variable bound line does not read PASS"]
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="score-all",
            why="per-response scoring of every kind against one shared calibration; "
            "the scalar p-score walks dominate, the evaluation engine never runs",
            item="scored response x kind",
            setup=_setup_score,
            argv=lambda sizes, seed: [
                "score", "test.jsonl", "--calibration", "cal.jsonl",
                "--scores", "all", "--jsonl", "--seed", str(seed),
            ],
            outputs=(),
            check=_check_score,
        ),
        Workload(
            name="evaluate-grid",
            why="the paper's repeated-split protocol on prefix sets; "
            "the per-grid-point sweep in evaluate_split dominates",
            item="prepared response",
            setup=_setup_grid,
            argv=lambda sizes, seed: [
                "evaluate", "data.jsonl", "--scores", "all", "--strategy", "alpha-max",
                "--grid", GRID, "--splits", str(sizes["grid_splits"]), "--seed", str(seed),
                "--csv", "report.csv", "--svg-dir", "svg",
            ],
            outputs=("report.csv", "svg"),
            check=_check_grid,
        ),
        Workload(
            name="evaluate-perm",
            why="all-permutation response sets (~82 per prompt): dataset preparation "
            "dominates and the fraction sweep runs; bypasses any prefix fast path",
            item="prepared response",
            setup=_setup_perm,
            argv=lambda sizes, seed: [
                "evaluate", "data.jsonl", "--permutations", "all", "--scores", "e-combined,p",
                "--strategy", "fraction", "--grid", GRID, "--splits", str(sizes["perm_splits"]),
                "--seed", str(seed), "--csv", "report.csv",
            ],
            outputs=("report.csv",),
            check=_check_perm,
        ),
        Workload(
            name="simulate-mc",
            why="the vectorised Monte Carlo e-variable check, memory-bound; "
            "the only workload of the synthetic layer",
            item="Monte Carlo row",
            setup=_setup_mc,
            argv=lambda sizes, seed: [
                "simulate", "--trials", str(sizes["mc_trials"]), "--prompts", str(sizes["mc_prompts"]),
                "--correct-prob", "0.3", "--seed", str(seed),
            ],
            outputs=(),
            check=_check_mc,
        ),
    )
}

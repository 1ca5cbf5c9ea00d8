"""Benchmark of the ``escores`` command line: four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload score-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --smoke

``--trace 0`` runs the workload's command as child processes and reports
the end-to-end metrics; ``--trace 1`` runs the same command in this
process, untraced and traced in turn, and reports the per-layer metrics
(see ``tracing.py``).  ``--smoke`` runs every workload at a tiny size in
both modes as the benchmark's own self-test.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is the package under ``src/`` of the checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 3
#: Timed repetitions per run even when ``--seconds`` is already spent.
MIN_RUNS = 3
#: A child still running after this many seconds is killed and counted failed.
CHILD_TIMEOUT = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
)

CLI_MAIN = "from escores.cli import main; main()"


class BenchmarkError(Exception):
    """The benchmark cannot run here: no program, or it does not start."""


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool


@dataclass
class Outcome:
    """What one workload run measured and how many of its runs failed."""

    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Launcher:
    """The ``launcher.py`` process that starts every child (see there why)."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run(self, args: list[str], workdir: Path) -> ChildRun:
        """One child interpreter, its output in ``stdout.txt`` and ``stderr.txt``."""
        request = {
            "argv": [sys.executable, *args],
            "cwd": str(workdir),
            "env": self._env,
            "stdout": str(workdir / "stdout.txt"),
            "stderr": str(workdir / "stderr.txt"),
            "timeout": CHILD_TIMEOUT,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise BenchmarkError("the launcher process died")
        return ChildRun(**json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def _clear(workdir: Path, outputs: tuple[str, ...]) -> None:
    for name in ("stdout.txt", "stderr.txt", *outputs):
        path = workdir / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def _digest(workdir: Path, outputs: tuple[str, ...]) -> str:
    """sha256 over standard output and every file the command wrote."""
    sha = hashlib.sha256((workdir / "stdout.txt").read_bytes())
    for name in outputs:
        path = workdir / name
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for file in files:
            if file.is_file():
                sha.update(str(file.relative_to(workdir)).encode())
                sha.update(file.read_bytes())
    return sha.hexdigest()


def _repeat_problems(workdir: Path, outputs: tuple[str, ...], expected: str, first: list[str]) -> list[str]:
    """A repeat must write what the first, fully checked run wrote."""
    if _digest(workdir, outputs) != expected:
        return ["output differs from the first run's"]
    if first:
        return ["output repeats the first run's, which failed its check"]
    return []


def _child_problems(run: ChildRun, workdir: Path) -> list[str]:
    if run.timed_out:
        return [f"timed out after {CHILD_TIMEOUT:.0f} s"]
    if run.returncode != 0:
        tail = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        return [f"exit code {run.returncode}: {' | '.join(tail)}"]
    return []


def _setup(workload, workdir: Path, sizes: dict, seed: int, launcher: Launcher, traced: bool, references=None):
    """Set up ``SETUP_REPEATS`` times: write the inputs, start the program once.

    Returns the last set-up's inputs, the set-up times, the start-up times
    of the probe and, when traced, one tracer per set-up.  A reference
    time is appended to ``references`` after each set-up when it is given.
    """
    setup_s, startup_s, tracers = [], [], []
    for _ in range(SETUP_REPEATS):
        tracer = tracing.Tracer() if traced else None
        call = tracer.call if tracer else (lambda name, fn, *args, **kwargs: fn(*args, **kwargs))
        start = time.perf_counter()
        prepared = workload.setup(workdir, sizes, seed, call)
        written = time.perf_counter() - start
        probe = launcher.run(["-c", "import escores.cli"], workdir)
        if probe.returncode != 0:
            raise BenchmarkError(f"the package does not import: {_child_problems(probe, workdir)}")
        setup_s.append(written + probe.wall_s)
        startup_s.append(probe.wall_s)
        if tracer:
            tracers.append(tracer)
        if references is not None:
            references.append(reference.reference_s())
    return prepared, setup_s, startup_s, tracers


def measure_children(workload, sizes, seed, seconds, oracles, launcher, workdir) -> Outcome:
    """End-to-end metrics: the command as child processes, tracing off."""
    setup_refs = [reference.reference_s()]
    prepared, setup_s, _, _ = _setup(workload, workdir, sizes, seed, launcher, False, setup_refs)
    argv = ["-c", CLI_MAIN, *workload.argv(sizes, seed)]
    outcome = Outcome(metrics={})

    # untimed warm-up; its output gets the full check, the repeats must match it
    _clear(workdir, workload.outputs)
    warm = launcher.run(argv, workdir)
    first = _child_problems(warm, workdir)
    if not first:
        first = workload.check(workdir, (workdir / "stdout.txt").read_bytes(), prepared, sizes, seed, oracles)
    expected = _digest(workdir, workload.outputs)
    outcome.record(first)

    runs: list[ChildRun] = []
    refs = [reference.reference_s()]
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        _clear(workdir, workload.outputs)
        run = launcher.run(argv, workdir)
        refs.append(reference.reference_s())
        runs.append(run)
        problems = _child_problems(run, workdir) or _repeat_problems(workdir, workload.outputs, expected, first)
        outcome.record(problems)

    walls = [r.wall_s for r in runs]
    cpus = [r.cpu_s for r in runs]
    wall = statistics.median(reference.scaled(walls, refs))
    outcome.metrics = {
        "setup_s": statistics.median(reference.scaled(setup_s, setup_refs)),
        "wall_s": wall,
        "cpu_s": statistics.median(reference.scaled(cpus, refs)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "items_per_s": prepared.items / wall,
    }
    outcome.notes.append(f"{len(runs)} timed runs of {prepared.items} items ({workload.item}) plus 1 warm-up")
    outcome.notes.append(
        f"unscaled medians: setup {statistics.median(setup_s):.4f} s, wall {statistics.median(walls):.4f} s, "
        f"cpu {statistics.median(cpus):.4f} s; reference {statistics.median(refs + setup_refs):.4f} s "
        f"(scaled to {reference.REFERENCE_S} s)"
    )
    return outcome


def _run_in_process(argv: list[str], workdir: Path, tracer: "tracing.Tracer | None") -> tuple[float, int, bytes]:
    import escores.cli as cli

    if tracer:
        tracing.install(tracer)
    try:
        with open(workdir / "stdout.txt", "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            os.chdir(workdir)
            start = time.perf_counter()
            if tracer:
                code = tracer.call("cli.run_command", cli.run_command, argv)
            else:
                code = cli.run_command(argv)
            elapsed = time.perf_counter() - start
    finally:
        os.chdir(ROOT)
        if tracer:
            tracer.restore()
    return elapsed, code, (workdir / "stdout.txt").read_bytes()


def measure_layers(workload, sizes, seed, seconds, oracles, launcher, workdir) -> Outcome:
    """Per-layer metrics: the command in process, untraced and traced in turn."""
    prepared, _, startup_s, setup_tracers = _setup(workload, workdir, sizes, seed, launcher, True)
    argv = workload.argv(sizes, seed)
    outcome = Outcome(metrics={})

    def one(tracer):
        _clear(workdir, workload.outputs)
        try:
            elapsed, code, stdout = _run_in_process(argv, workdir, tracer)
        except Exception:  # a crash counts as a failed run; the rest still runs
            return math.nan, [traceback.format_exc(limit=-3)], b""
        return elapsed, (["exit code %d" % code] if code else []), stdout

    _, first, stdout = one(None)
    if not first:
        first = workload.check(workdir, stdout, prepared, sizes, seed, oracles)
    expected = _digest(workdir, workload.outputs)
    outcome.record(first)

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_RUNS or time.perf_counter() - start < seconds:
        pair = (None, tracing.Tracer())
        # alternate which of the pair runs first, so neither always runs warm
        for tracer in pair if len(traced) % 2 == 0 else pair[::-1]:
            elapsed, problems, stdout = one(tracer)
            outcome.record(problems or _repeat_problems(workdir, workload.outputs, expected, first))
            (traced if tracer else plain).append(elapsed)
            if tracer:
                tracers.append(tracer)

    per_run = [tracing.layer_metrics(t) for t in tracers]
    per_setup = [tracing.layer_metrics(t) for t in setup_tracers]
    # counts repeat exactly from run to run; the low median keeps them whole
    def median(values, unit):
        return statistics.median(values) if unit == "s" else statistics.median_low(values)

    metrics = {name: median([m[name] for m in per_run], unit) for name, unit in tracing.PER_LAYER if name in per_run[0]}
    for name in ("synthetic.generate_dataset.s", "io.write_dataset.s"):
        metrics[name] = statistics.median(m[name] for m in per_setup)
    metrics["cli.startup_s"] = statistics.median(startup_s)
    metrics["cli.run_command_s"] = statistics.median(plain)
    metrics["cli.run_command_traced_s"] = statistics.median(traced)
    metrics["cli.trace_overhead_s"] = metrics["cli.run_command_traced_s"] - metrics["cli.run_command_s"]
    metrics["io.stdout_bytes"] = len(stdout)
    outcome.metrics = {name: metrics[name] for name, _ in tracing.PER_LAYER}
    dominant, self_s = tracing.dominant_span(tracers[-1])
    outcome.notes.append(f"{len(traced)} untraced + {len(traced)} traced in-process runs plus 1 warm-up")
    outcome.notes.append(f"dominant span by self time: {dominant} ({self_s:.4f} s)")
    return outcome


def environment(seed: int, cpus: set[int]) -> dict:
    """Where the figures come from.  CPU governor, page cache and other
    tenants of the machine are not controlled by the benchmark."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    sha = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "cpu_model": cpu_model,
        "git_sha": sha,
        "seed": seed,
        "uncontrolled": "CPU frequency governor, page cache, other processes on the machine",
    }


def _units(trace: bool) -> dict[str, str]:
    return dict(tracing.PER_LAYER if trace else END_TO_END)


def _print_outcome(name: str, outcome: Outcome, trace: bool) -> None:
    units = _units(trace)
    print(f"== {name} ({'per-layer, traced' if trace else 'end to end'})")
    for note in outcome.notes:
        print(f"   {note}")
    for metric, value in outcome.metrics.items():
        print(f"   {metric:<44} {value:>16.6g} {units[metric]}")
    ratio = outcome.failed / outcome.attempted
    print(f"   {'failed_ratio':<44} {ratio:>16.6g} ({outcome.failed} of {outcome.attempted} runs)")
    for problem in outcome.problems[:10]:
        print(f"   FAILED: {problem}")


def _load_oracles():
    spec = importlib.util.spec_from_file_location("escores_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(outcomes: dict[str, Outcome], trace: bool, single: bool) -> dict:
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    units = _units(trace)

    def metrics_of(outcome):
        return {m: {"value": v, "unit": units[m]} for m, v in outcome.metrics.items()}

    metrics = (
        metrics_of(next(iter(outcomes.values())))
        if single
        else {name: metrics_of(o) for name, o in outcomes.items()}
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(names: list[str], sizes: dict, seed: int, seconds: float, trace: bool, single: bool, env: dict) -> dict:
    oracles = _load_oracles()
    print("environment: " + json.dumps(env, sort_keys=True))
    measure = measure_layers if trace else measure_children
    outcomes = {}
    launcher = Launcher()
    try:
        for name in names:
            # one directory per process: concurrent runs must not share files
            workdir = WORK / f"{name}-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                outcomes[name] = measure(workloads.WORKLOADS[name], sizes, seed, seconds, oracles, launcher, workdir)
            finally:
                shutil.rmtree(workdir)
            _print_outcome(name, outcomes[name], trace)
    finally:
        launcher.close()
    result = _result_line(outcomes, trace, single)
    label = names[0] if single else "all"
    (WORK / f"result-{label}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"environment": env, "notes": {n: o.notes for n, o in outcomes.items()}, "result": result}, indent=1)
        + "\n"
    )
    return result


def smoke(seed: int, env: dict) -> bool:
    """Every workload at a tiny size, both modes; metric names must match BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: [m["name"] for m in declared["end_to_end"]],
        True: [m["name"] for m in declared["per_layer"]],
    }
    ok = True
    for trace in (False, True):
        result = run(list(workloads.WORKLOADS), workloads.SMOKE, seed, 0.0, trace, False, env)
        for name, metrics in result["metrics"].items():
            values = [m["value"] for m in metrics.values()]
            if sorted(metrics) != sorted(expected[trace]) or not all(math.isfinite(v) for v in values):
                print(f"smoke: {name} reports {sorted(metrics)}, BENCHMARK.json declares {sorted(expected[trace])}")
                ok = False
        ok = ok and result["correct"]
    print(f"smoke: {'PASS' if ok else 'FAIL'}")
    return ok


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in (SRC / "escores" / "cli.py", ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        print(f"perfbench: the program is not here: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpus = os.sched_getaffinity(0)
    # the benchmark, its launcher and every child share one CPU, so that the
    # reference work measures the speed of the CPU the commands ran on
    os.sched_setaffinity(0, {min(cpus)})
    try:
        env = environment(args.seed, cpus)
        if args.smoke:
            return 0 if smoke(args.seed, env) else 1
        single = args.workload != "all"
        names = [args.workload] if single else list(workloads.WORKLOADS)
        result = run(names, workloads.FULL, args.seed, args.seconds, bool(args.trace), single, env)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Start benchmark commands from a small process and report what they used.

At exec, Linux folds the peak RSS of a process's old address space into
the ``ru_maxrss`` that ``wait4`` reports.  A command forked straight from
the benchmark, which holds the generated datasets and numpy, would
report the benchmark's own footprint whenever that is larger.  This
process holds nothing else, so the figures it returns are the
command's.  It reads one JSON request per line on standard input and
answers each with one JSON line on standard output.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    """Run one command with its output in files; time it and ``wait4`` it.

    Files rather than pipes: a pipe read only after the wait fills up and
    deadlocks once the command writes more than the pipe holds.
    """
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"], env=request["env"])
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        "returncode": proc.returncode,
        "timed_out": killed.is_set(),
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

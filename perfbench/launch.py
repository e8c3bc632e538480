"""Run one program; print its wall time, its own peak RSS and its exit code.

    python3 perfbench/launch.py STDOUT_PATH PROGRAM [ARG...]

Linux counts the resident size of the image a process replaces at exec
toward that process's ru_maxrss, so a child spawned straight from the
benchmark (which holds whole artifacts in memory while checking them)
would report at least the benchmark's own peak. This launcher is small:
it starts the program, reaps it with wait4, whose rusage covers that
child alone, and prints one JSON object with ``wall_s``,
``peak_rss_kib`` and ``exit_code`` on its own stdout. The program's
stdout goes to STDOUT_PATH; its stderr is passed through.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    stdout_path, argv = sys.argv[1], sys.argv[2:]
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "peak_rss_kib": usage.ru_maxrss,
                      "exit_code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start child processes on request and report each one's own resource use.

Reads one JSON request per line from standard input,
``{"argv": [...], "cwd": DIR, "env": {...}, "timeout": SECONDS}``, runs the
command with its output in DIR/stdout and DIR/stderr, kills it at the
timeout, and answers with one JSON line: ``code``, ``wall``, ``cpu``,
``rss_mb`` and ``killed``.  Exits at the end of its input.

A child's ``ru_maxrss`` includes the memory of the process it was started
from, so children are started from this small process rather than from the
benchmark, which holds inputs and reference answers of up to hundreds of MB.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    cwd = request["cwd"]
    env = dict(os.environ, **request["env"])
    start = perf_counter()
    with open(os.path.join(cwd, "stdout"), "wb") as out, \
            open(os.path.join(cwd, "stderr"), "wb") as err:
        proc = subprocess.Popen(request["argv"], cwd=cwd, env=env, stdout=out, stderr=err)
    timer = threading.Timer(request["timeout"], proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "killed": os.WIFSIGNALED(status),
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

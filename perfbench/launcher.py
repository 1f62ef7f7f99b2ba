"""Runs the benchmark's child processes one at a time.

    python3 perfbench/launcher.py WORKDIR

Reads one JSON request per line on standard input, {"argv": [...],
"timeout": seconds}, runs it to completion and answers with one JSON
line: wall seconds, exit code (null on a timeout, after which the child
is killed), its output, and its peak RSS from the child's rusage.

This is a small stdlib-only process of its own because Linux reports a
child's peak RSS as at least the peak RSS of the process that started
it.  Started from run.py, which holds numpy and the oracles, every
job would read as large as run.py.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time


def run(argv: list[str], timeout: float, out_path: str, err_path: str) -> dict:
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        ready = []
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            # reaps the child whatever happened, so none outlives the run
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "seconds": seconds,
            "rc": proc.returncode if ready else None,
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace")[-2000:],
            "rss_mb": usage.ru_maxrss / 1024.0,
        }


def main(workdir: str) -> int:
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["timeout"], out_path, err_path)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))

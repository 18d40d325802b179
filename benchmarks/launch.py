"""Run one program command and report its wall time and resource use.

Usage: python3 -S launch.py TIMEOUT_S REPORT_JSON ARGV...

The benchmark starts every program command through this small interpreter.
Linux carries a parent's peak resident set into a child at exec, so a child
started straight from the benchmark, which holds the reference data, would
report the benchmark's peak instead of its own.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout, report, command = float(argv[0]), argv[1], argv[2:]
    start = time.perf_counter()
    child = subprocess.Popen(command)
    timer = threading.Timer(timeout, child.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"code": child.returncode, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

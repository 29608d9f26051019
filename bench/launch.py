"""Run one command and report its cost on a side pipe.

    python -I -S bench/launch.py FD PROGRAM [ARG...]

Writes ``exit wall_s cpu_s peak_rss_kb`` to file descriptor FD once PROGRAM
has ended, and exits with PROGRAM's exit code.  A process cannot learn a
child's own peak memory from ``wait4``: at ``exec`` Linux charges the memory
of the process that forked the child to the child's peak.  This launcher is
small, so what it forks and execs reports its own peak, not the driver's.
The launcher's start-up is outside the reported wall time.
"""

import os
import sys
import time


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(fd)
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    os.write(fd, f"{code} {wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n".encode())
    os.close(fd)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())

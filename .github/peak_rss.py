"""Run one command and check its exit code and peak resident memory.

Usage: python .github/peak_rss.py MAX_MB EXPECTED_EXIT -- CMD...

Prints the command, its exit code and its peak RSS in MB, and exits 1 unless
the command exited with EXPECTED_EXIT and peaked at or below MAX_MB.  The
figure is ``ru_maxrss`` from ``os.wait4``, which counts the forked child
before ``exec`` too: it is the larger of this launcher's own size at the fork
and the command's peak (the largest of the command and the children it waited
for).  So it never reads below the launcher's size: ``-- true`` reports
13.6 MB under CPython 3.11 on x86-64 Linux.
"""

import os
import subprocess
import sys


def main(argv: list) -> int:
    if len(argv) < 4 or argv[2] != "--":
        sys.exit(__doc__.strip().splitlines()[2])
    max_mb, expected, cmd = float(argv[0]), int(argv[1]), argv[3:]
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    code, peak_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{' '.join(cmd)}: exit {code}, peak RSS {peak_mb:.1f} MB")
    return int(code != expected or peak_mb > max_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

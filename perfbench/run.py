#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload static-fresh --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds `bin/pti.exe` and
`perfbench/pbench.exe` with dune (into `_build/`), then runs the
benchmark, which writes only under `.perfbench/`. The benchmark's
report goes to stdout; its last line is the JSON result. Exits non-zero
without a result when the repository is not there to build.
"""

import os
import signal
import subprocess
import sys

PBENCH = os.path.join("_build", "default", "perfbench", "pbench.exe")
PTI = os.path.join("_build", "default", "bin", "pti.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        sys.stderr.write("run.py: run from the repository root "
                         "(dune-project, lib/ and bin/ are missing)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/pti.exe",
         "./perfbench/pbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode or 1
    # its own session, so a run gone past its time limit is stopped
    # together with the daemon it started
    proc = subprocess.Popen([PBENCH, "--pti", PTI] + sys.argv[1:],
                            start_new_session=True)
    try:
        return proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("run.py: benchmark exceeded its time limit\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

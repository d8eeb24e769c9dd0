"""Set-up probe: a fresh interpreter imports persvec, sets one workload up
on inputs already generated in WORKDIR, and prints the seconds elapsed
since START, a ``time.monotonic()`` reading the parent took just before
starting this process.

    python3 perfbench/probe.py WORKLOAD WORKDIR SLOT START
"""

import sys
import time

import run

if __name__ == "__main__":
    run.bootstrap()
    import jobs

    name, workdir, slot, start = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    jobs.WORKLOADS[name](workdir, slot).setup()
    print(time.monotonic() - start)

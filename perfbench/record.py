"""Record the reference outputs in ref/ from the program as it is now.

Run from the repository root, only when the program's outputs are meant
to change, since every later run is checked against what this writes:

    python3 perfbench/record.py [workload ...]
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def record(name: str) -> None:
    import jobs
    import refcheck

    refs = {}
    for slot in range(refcheck.SLOTS):
        workdir = run.work_dir(f"record-{name}")
        try:
            w = jobs.WORKLOADS[name](workdir, slot)
            w.generate()
            w.setup()
            w.reset()
            failed = [op for op, _, ok in w.job() if not ok]
            if failed:
                sys.exit(f"{name} slot {slot}: operations failed: {failed}")
            refs[str(slot)] = w.snapshot()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name} slot {slot} recorded", flush=True)
    with open(refcheck.ref_path(name), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
            for k, v in refs.items()) + "\n}\n")


if __name__ == "__main__":
    run.bootstrap()
    import jobs

    for name in sys.argv[1:] or list(jobs.WORKLOADS):
        record(name)

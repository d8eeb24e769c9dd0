"""Reference outputs recorded from the program, and the check against them.

Inputs come from ``SLOTS`` recorded seed slots: a run with seed ``s`` uses
slot ``s % SLOTS``, so every seed has reference outputs.  A reference is a
workload's ``snapshot``: per operation, an ``exact`` part (hashes of PR
tables, rankings and diagram CSVs, shapes and ids) that must match
exactly, and a ``close`` part (sampled matrix cells and coefficients, as
``[re, im]``) that must match within ``REL_TOL``.
"""

from __future__ import annotations

import json
import os

SLOTS = 32
# Reordering the root sums moves coefficients of these inputs by < 1e-14
# relative, so 1e-9 admits any summation order and flags real changes.
REL_TOL = 1e-9
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")


def ref_path(workload: str) -> str:
    return os.path.join(REF_DIR, f"{workload}.json")


def load_reference(workload: str, slot: int) -> dict:
    with open(ref_path(workload), encoding="utf-8") as fh:
        refs = json.load(fh)
    if str(slot) not in refs:
        raise ValueError(f"no reference outputs for {workload} slot {slot}")
    return refs[str(slot)]


def _close(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return False
    for key, (re, im) in want.items():
        w, g = complex(re, im), complex(*got[key])
        if not abs(g - w) <= REL_TOL * abs(w):
            return False
    return True


def mismatches(snapshot: dict, reference: dict) -> set[str]:
    """Names of the operations whose outputs differ from the reference."""
    snapshot = json.loads(json.dumps(snapshot))
    bad = set(snapshot.keys() ^ reference.keys())
    for key in snapshot.keys() & reference.keys():
        got, want = snapshot[key], reference[key]
        if got.get("exact") != want.get("exact") or not _close(
                got.get("close", {}), want.get("close", {})):
            bad.add(key)
    return bad

"""Time the exact bottleneck on fixed, seeded pairs and count its probes.

    PYTHONPATH=src python3 experiments/bottleneck_pairs.py [--small]

Two sets of pairs, both drawn from fixed seeds:

* re-ranked pairs: the ``query-rerank`` benchmark's shape, a
  ``synthetic_database(30, 10, base_points=6, noise_points=54, seed=42)``
  embedded under T, each query against the 10 heads of its d1 prefilter
  (``two_stage_query`` with 10 candidates);
* all-big pairs: n points a side, births U(0, 10) and gaps U(1, 2), a then
  b drawn from ``random.Random(seed)``, seeds 5 and 6.

For the re-ranked pairs it prints the time per pair (best of the repeats,
caches warm), the probes per pair, the share of pairs answered by the probe
at L and by the jump it returns, and the candidate lists sorted.  For the
all-big pairs it prints one table row per n: the best time of one
distance per seed.  ``--small`` takes 20 queries, n up to 200 and one
repeat, for a run of a few seconds.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import numpy as np

from persvec import metrics
from persvec.diagram import PersistenceDiagram
from persvec.retrieval import embed_database, synthetic_database, two_stage_query


def rerank_pairs(queries: int) -> list[tuple[PersistenceDiagram, PersistenceDiagram]]:
    db = embed_database(synthetic_database(30, 10, base_points=6, noise_points=54, seed=42), "T")
    diagrams = {e.model_id: e.diagram for e in db.entries}
    picks = random.Random(42).sample(db.ids, queries)
    return [(diagrams[q], diagrams[h]) for q in picks for h in two_stage_query(q, db, "T", "d1", 10)[:10]]


def all_big_pair(n: int, seed: int) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    rng = random.Random(seed)
    sides = []
    for _ in range(2):
        points = []
        for _ in range(n):
            birth = rng.uniform(0, 10)
            points.append((birth, birth + rng.uniform(1, 2)))
        sides.append(PersistenceDiagram.from_pairs(points))
    return sides[0], sides[1]


def best_time(pairs, repeats: int) -> float:
    for a, b in pairs:  # expand every diagram before timing
        a._expanded(), b._expanded()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for a, b in pairs:
            metrics.bottleneck_distance(a, b)
        best = min(best, time.perf_counter() - start)
    return best


def probe_counts(pairs) -> dict[str, int]:
    """Probes, sorts and the pairs answered at L and at its jump, with spies on
    ``metrics._feasible`` and ``np.sort`` that are removed afterwards."""
    feasible, sort = metrics._feasible, np.sort
    counts = {"pairs": len(pairs), "probes": 0, "at L": 0, "at first jump": 0, "lists sorted": 0}
    jumps = []

    def probe(*args):
        jumps.append(feasible(*args))
        return jumps[-1]

    def counted_sort(*args, **kw):
        counts["lists sorted"] += 1
        return sort(*args, **kw)

    metrics._feasible, np.sort = probe, counted_sort
    try:
        for a, b in pairs:
            jumps.clear()
            answer = metrics.bottleneck_distance(a, b)
            counts["probes"] += len(jumps)
            counts["at L"] += jumps[0] is None
            counts["at first jump"] += bool(jumps[0] is not None and answer == jumps[0])
    finally:
        metrics._feasible, np.sort = feasible, sort
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="20 queries, n up to 200, one repeat")
    args = parser.parse_args(argv)
    queries, sizes, repeats = (20, (60, 200), 1) if args.small else (100, (60, 200, 400, 500, 600, 800, 1200), 7)

    pairs = rerank_pairs(queries)
    metrics.bottleneck_distance(*all_big_pair(60, 1))  # warm-up
    per_pair = best_time(pairs, repeats) / len(pairs)
    counts = probe_counts(pairs)
    n = counts["pairs"]
    print(f"re-ranked pairs: {n} ({queries} queries x 10 heads), best of {repeats}")
    print(f"  time per pair      {per_pair * 1e6:.1f} us")
    print(f"  probes per pair    {counts['probes'] / n:.2f}")
    print(f"  answered at L      {counts['at L'] / n:.1%}")
    print(f"  at the first jump  {counts['at first jump'] / n:.1%}")
    print(f"  lists sorted       {counts['lists sorted']}")
    print(f"all-big pairs, one distance, best of {repeats}, seconds")
    print("| n | seed 5 | seed 6 |")
    print("|---|---|---|")
    for size in sizes:
        times = [best_time([all_big_pair(size, seed)], repeats) for seed in (5, 6)]
        print(f"| {size} | {times[0]:.4f} | {times[1]:.4f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

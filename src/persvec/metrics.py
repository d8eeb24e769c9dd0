"""Distances: coefficient-vector metrics and the bottleneck matching distance.

Coefficient vectors are compared entrywise with one of three weightings
(tokens ``d1``, ``d2``, ``d3`` in the CLI and file formats):

* ``d1``: sum of |a_j - b_j|
* ``d2``: sum of |a_j - b_j| / j, discounting higher coefficients
* ``d3``: sum of |a_j - b_j| ** (1/j), flattening them instead

Diagrams themselves are compared with the bottleneck distance: the best
worst-case point matching, where any point may also be destroyed into
the diagonal at half its gap.  Only proper points take part; classes
that never die are not represented and are ignored here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .coefficients import CoefficientVector
from .diagram import PersistenceDiagram

COEFFICIENT_METRICS = ("d1", "d2", "d3")
METRICS = COEFFICIENT_METRICS + ("bottleneck",)


def coefficient_distance(a: CoefficientVector, b: CoefficientVector, kind: str) -> float:
    """Entrywise distance between two coefficient vectors.

    Both vectors must come from the same embedding setup: equal width
    (padding degree) and equal coefficient count.
    """
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    if a.count != b.count:
        raise ValueError(f"coefficient count mismatch: {a.count} vs {b.count}")
    gaps = [abs(x - y) for x, y in zip(a.coefficients, b.coefficients)]
    if kind == "d1":
        terms = gaps
    elif kind == "d2":
        terms = [g / j for j, g in enumerate(gaps, start=1)]
    elif kind == "d3":
        terms = [g ** (1.0 / j) for j, g in enumerate(gaps, start=1)]
    else:
        raise ValueError(f"unknown metric {kind!r}, expected one of {COEFFICIENT_METRICS}")
    # Plain left-to-right addition, as _coefficient_rows does: the builtin
    # sum() compensates float rounding from Python 3.12 on.
    total = 0.0
    for t in terms:
        total += t
    return total


def _coefficient_rows(q: np.ndarray, rows: np.ndarray, kind: str) -> np.ndarray:
    """``kind`` distances from the complex k-vector ``q`` to each row of an (n, k) array.

    The numpy form of :func:`coefficient_distance`, which stays the
    scalar reference: every value is the float it returns.  The gap is
    ``np.hypot``, the libm call behind ``abs(complex)``; d3 takes
    ``np.float_power``, the libm ``pow`` behind ``float ** float``
    (``np.abs`` and ``np.power`` may take SIMD paths that differ in the
    last bit); and the k terms are added left to right by a cumulative
    sum.
    """
    if kind not in COEFFICIENT_METRICS:
        raise ValueError(f"unknown metric {kind!r}, expected one of {COEFFICIENT_METRICS}")
    diff = q - rows
    terms = np.hypot(diff.real, diff.imag)
    j = np.arange(1, rows.shape[1] + 1)
    if kind == "d2":
        terms /= j
    elif kind == "d3":
        terms = np.float_power(terms, 1.0 / j)
    return np.cumsum(terms, axis=1)[:, -1]


def point_distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Matching cost between two diagram points.

    The cheaper of moving one onto the other (sup-norm) and destroying
    both into the diagonal (the larger of their half-gaps).
    """
    u1, v1 = p
    u2, v2 = q
    for u, v in (p, q):
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError(f"non-finite point ({u}, {v})")
        if u > v:
            raise ValueError(f"point ({u}, {v}) lies below the diagonal")
    move = max(abs(u1 - u2), abs(v1 - v2))
    destroy = max((v1 - u1) / 2.0, (v2 - u2) / 2.0)
    return min(move, destroy)


def _cost_matrix(a: PersistenceDiagram, b: PersistenceDiagram) -> np.ndarray:
    """Square matching-cost matrix with diagonal stand-ins.

    Rows are the m points of ``a`` followed by n stand-ins, columns the
    n points of ``b`` followed by m stand-ins.  A point matched to a
    stand-in is destroyed at half its gap; two stand-ins pair for free,
    so unequal point counts never block a perfect matching.  Point cells
    follow :func:`point_distance` operation for operation, so each holds
    the same float; the points were validated when they were built.
    """
    ua, va = np.repeat(a.births, a.multiplicities), np.repeat(a.deaths, a.multiplicities)
    ub, vb = np.repeat(b.births, b.multiplicities), np.repeat(b.deaths, b.multiplicities)
    m, n = len(ua), len(ub)
    half_a = (va - ua) / 2.0
    half_b = (vb - ub) / 2.0
    cost = np.zeros((m + n, m + n), dtype=float)
    move = np.maximum(np.abs(ua[:, None] - ub[None, :]), np.abs(va[:, None] - vb[None, :]))
    cost[:m, :n] = np.minimum(move, np.maximum(half_a[:, None], half_b[None, :]))
    cost[:m, n:] = half_a[:, None]
    cost[m:, :n] = half_b[None, :]
    return cost


def _has_perfect_matching(cost: np.ndarray, threshold: float) -> bool:
    mask = cost <= threshold
    size = len(mask)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    # Row-major flat positions give each row's columns in order.
    indices = (np.flatnonzero(mask) % size).astype(np.int32)
    edges = np.ones(len(indices), dtype=bool)
    graph = csr_matrix((edges, indices, indptr), shape=mask.shape)
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool(np.all(match >= 0))


def bottleneck_distance(a: PersistenceDiagram, b: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two diagrams.

    The optimum is always one of the pairwise costs, and feasibility
    (a perfect matching using only edges of cost <= t) only gets easier
    as t grows, so the smallest feasible cost is the exact answer.  The
    search for it starts at a lower bound: every row and every column
    must be matched, so the answer is at least L, the larger of the
    largest row minimum and the largest column minimum, and L is itself
    a cost.  From L the search gallops upward through the sorted costs
    (steps of 1, 2, 4, ...) until a probe is feasible, then bisects the
    last bracket.  Skipping the costs below L drops only infeasible
    thresholds, so the result is the one a bisection over all costs
    finds, in a few probes when the answer lies near L.
    """
    cost = _cost_matrix(a, b)
    if cost.size == 0:
        return 0.0
    bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    candidates = np.unique(cost[cost >= bound])
    # Every candidate below lo is infeasible; candidates[hi] is feasible
    # once probed, and the largest cost always is (the graph is complete).
    last = len(candidates) - 1
    lo = hi = 0
    step = 1
    while hi < last and not _has_perfect_matching(cost, candidates[hi]):
        lo = hi + 1
        hi = min(hi + step, last)
        step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def bottleneck_bruteforce(
    a: PersistenceDiagram, b: PersistenceDiagram, cap: int = 8
) -> float:
    """Bottleneck by exhaustive search over all matchings.

    Independent cross-check for :func:`bottleneck_distance`; refuses
    inputs with more than ``cap`` points in total (with multiplicity)
    since the search is factorial.  Branches that already reach the best
    max cost found so far are cut off, which never changes the minimum.
    """
    total = a.total_multiplicity() + b.total_multiplicity()
    if total > cap:
        raise ValueError(f"{total} points exceeds exhaustive-search cap {cap}")
    cost = _cost_matrix(a, b)
    size = cost.shape[0]
    if size == 0:
        return 0.0
    best = math.inf
    used = [False] * size

    def search(row: int, cur: float) -> None:
        nonlocal best
        if cur >= best:
            return
        if row == size:
            best = cur
            return
        for col in range(size):
            if not used[col]:
                used[col] = True
                search(row + 1, max(cur, cost[row, col]))
                used[col] = False

    search(0, 0.0)
    return best

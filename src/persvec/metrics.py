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
from scipy.sparse import csr_array
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


@np.errstate(over="ignore")  # an overflow gives inf, as in the scalar form: no warning
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


@np.errstate(over="ignore")  # an overflow gives inf, as in point_distance: no warning
def _cross_costs(a: PersistenceDiagram, b: PersistenceDiagram):
    """Point-to-point matching costs and the half-gap of every point.

    Returns the (m, n) block of costs between the m points of ``a`` and
    the n points of ``b`` (each repeated by its multiplicity) and the two
    half-gap vectors, the costs of destroying each point into the
    diagonal.  Cells follow :func:`point_distance` operation for
    operation, so each holds the same float; the points were validated
    when they were built.
    """
    ua, va = np.repeat(a.births, a.multiplicities), np.repeat(a.deaths, a.multiplicities)
    ub, vb = np.repeat(b.births, b.multiplicities), np.repeat(b.deaths, b.multiplicities)
    half_a = (va - ua) / 2.0
    half_b = (vb - ub) / 2.0
    move = np.maximum(np.abs(ua[:, None] - ub[None, :]), np.abs(va[:, None] - vb[None, :]))
    return np.minimum(move, np.maximum(half_a[:, None], half_b[None, :])), half_a, half_b


def _cost_matrix(a: PersistenceDiagram, b: PersistenceDiagram) -> np.ndarray:
    """Square matching-cost matrix with diagonal stand-ins.

    Rows are the m points of ``a`` followed by n stand-ins, columns the
    n points of ``b`` followed by m stand-ins.  A point matched to a
    stand-in is destroyed at half its gap; two stand-ins pair for free,
    so unequal point counts never block a perfect matching.  The
    reference form of the problem :func:`bottleneck_distance` solves on
    the (m, n) block alone; :func:`bottleneck_bruteforce` searches it.
    """
    cross, half_a, half_b = _cross_costs(a, b)
    m, n = cross.shape
    cost = np.zeros((m + n, m + n), dtype=float)
    cost[:m, :n] = cross
    cost[:m, n:] = half_a[:, None]
    cost[m:, :n] = half_b[None, :]
    return cost


# A side with at most this many big points is matched by the
# plain-Python augmenting-path search, a larger one by scipy.  Measured
# on 60-point pairs with 1-7 big points, Kuhn took 0.3-0.7x scipy's
# time per pair; on pairs of 8-40 big points, alone or among 60, it was
# the faster up to about 16; scipy's Hopcroft-Karp was about 1.1x
# faster at 20-40 and 3-5x faster on pairs of 60 and 200 points that
# are all big.  The bound also caps the depth of Kuhn's recursion.
_KUHN_MAX_BIG = 16


def _augment(row: int, neighbours: list[list[int]], owner: dict, seen: set) -> bool:
    """Kuhn's step: give ``row`` a column, moving earlier rows along an
    augmenting path through columns not yet ``seen`` if need be."""
    for col in neighbours[row]:
        if col not in seen:
            seen.add(col)
            if col not in owner or _augment(owner[col], neighbours, owner, seen):
                owner[col] = row
                return True
    return False


def _row_cover(adj: np.ndarray):
    """The columns used by a matching that covers every row of the
    bipartite graph ``adj`` (rows x columns, boolean), or None if no
    matching does."""
    rows, cols = np.nonzero(adj)
    if len(adj) > _KUHN_MAX_BIG:
        indptr = np.searchsorted(rows, np.arange(len(adj) + 1))
        graph = csr_array((np.ones(len(cols), dtype=bool), cols, indptr), shape=adj.shape)
        match = maximum_bipartite_matching(graph, perm_type="column")
        return match if np.all(match >= 0) else None
    neighbours: list[list[int]] = [[] for _ in range(len(adj))]
    for row, col in zip(rows.tolist(), cols.tolist()):
        neighbours[row].append(col)
    # Kuhn: a row with no augmenting path now never gets one later, so
    # the first such row settles it.
    owner: dict[int, int] = {}
    if all(_augment(row, neighbours, owner, set()) for row in range(len(adj))):
        return list(owner)
    return None


def _feasible(cross: np.ndarray, half_a: np.ndarray, half_b: np.ndarray, t: float) -> bool:
    """Whether a perfect matching of the stand-in graph uses only costs <= t.

    A point whose half-gap is at most t (small) can always go to a
    stand-in, and leftover stand-ins pair off at cost 0, so only the big
    points need a partner in the cross graph ``cross <= t``.  A matching
    that covers every big point of ``a`` and one that covers every big
    point of ``b`` give one matching that covers both
    (Mendelsohn-Dulmage), so each side is tested on its own, the second
    only when the first matching misses a big point of ``b``.
    """
    adj = cross <= t
    big_b = half_b > t
    rows, cols = adj[half_a > t], adj[:, big_b]
    if not (rows.any(axis=1).all() and cols.any(axis=0).all()):
        return False
    used = _row_cover(rows)
    if used is None:
        return False
    covered = np.zeros(len(big_b), dtype=bool)
    covered[used] = True
    return bool(covered[big_b].all()) or _row_cover(cols.T) is not None


def bottleneck_distance(a: PersistenceDiagram, b: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two diagrams.

    The problem is a perfect matching on the square matrix of
    :func:`_cost_matrix`: the optimum is always one of its costs, and
    feasibility (a perfect matching using only costs <= t) only gets
    easier as t grows, so the smallest feasible cost is the exact answer.
    That matrix is never built: its costs are the (m, n) cross block,
    the half-gaps and 0, and :func:`_feasible` decides each threshold on
    the cross block.  The search starts at a lower bound: every row and
    every column must be matched, so the answer is at least L, the
    largest row or column minimum.  A point's minimum is the smaller of
    its cheapest cross cost and its half-gap, a stand-in's is 0, and L
    is itself a cost.  From L the search gallops upward through the
    sorted costs (steps of 1, 2, 4, ...) until a probe is feasible, then
    bisects the last bracket.  Skipping the costs below L drops only
    infeasible thresholds, so the result is the one a bisection over all
    costs finds, in a few probes when the answer lies near L.
    """
    cross, half_a, half_b = _cross_costs(a, b)
    if not cross.size:
        # every point goes to the diagonal
        return float(np.concatenate((half_a, half_b)).max(initial=0.0))
    bound = max(
        np.minimum(cross.min(axis=1), half_a).max(),
        np.minimum(cross.min(axis=0), half_b).max(),
    )
    costs = np.concatenate((cross.ravel(), half_a, half_b, [0.0]))
    candidates = np.unique(costs[costs >= bound])
    # Every candidate below lo is infeasible; candidates[hi] is feasible
    # once probed, and the largest cost always is (no point is big).
    last = len(candidates) - 1
    lo = hi = 0
    step = 1
    while hi < last and not _feasible(cross, half_a, half_b, candidates[hi]):
        lo = hi + 1
        hi = min(hi + step, last)
        step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(cross, half_a, half_b, candidates[mid]):
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

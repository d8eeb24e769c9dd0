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

from .coefficients import CoefficientVector, _check_shape
from .diagram import PersistenceDiagram, _run_starts
from .transforms import _check_point

COEFFICIENT_METRICS = ("d1", "d2", "d3")
METRICS = COEFFICIENT_METRICS + ("bottleneck",)


def _check_metric(kind: str) -> None:
    """The metric-kind rule: a coefficient metric is one of ``COEFFICIENT_METRICS``."""
    if kind not in COEFFICIENT_METRICS:
        raise ValueError(f"unknown metric {kind!r}, expected one of {COEFFICIENT_METRICS}")


def coefficient_distance(a: CoefficientVector, b: CoefficientVector, kind: str) -> float:
    """Entrywise distance between two coefficient vectors.

    Both vectors must come from the same embedding setup: equal width
    (padding degree) and equal coefficient count.
    """
    _check_shape((a.width, a.count), b)
    _check_metric(kind)
    terms = [abs(x - y) for x, y in zip(a.coefficients, b.coefficients)]
    if kind == "d2":
        terms = [g / j for j, g in enumerate(terms, start=1)]
    elif kind == "d3":
        terms = [g ** (1.0 / j) for j, g in enumerate(terms, start=1)]
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
    _check_metric(kind)
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
    _check_point(*p)
    _check_point(*q)
    (u1, v1), (u2, v2) = p, q
    move = max(abs(u1 - u2), abs(v1 - v2))
    destroy = max((v1 - u1) / 2.0, (v2 - u2) / 2.0)
    return min(move, destroy)


@np.errstate(over="ignore")  # an overflow gives inf, as in point_distance: no warning
def _cost_matrix(a: PersistenceDiagram, b: PersistenceDiagram) -> np.ndarray:
    """Square matching-cost matrix with diagonal stand-ins.

    Rows are the m points of ``a`` (repeated by multiplicity) followed by
    n stand-ins, columns the n points of ``b`` followed by m stand-ins.
    Point-to-point cells follow :func:`point_distance` operation for
    operation, so each holds the same float.  A point matched to a
    stand-in is destroyed at half its gap; two stand-ins pair for free,
    so unequal point counts never block a perfect matching.  The
    reference form of the problem :func:`bottleneck_distance` solves on
    the (m, n) move block alone; :func:`bottleneck_bruteforce` searches it.
    """
    (ua, va, half_a), (ub, vb, half_b) = a._expanded(), b._expanded()
    m, n = len(ua), len(ub)
    cost = np.zeros((m + n, m + n), dtype=float)
    move = np.maximum(np.abs(ua[:, None] - ub[None, :]), np.abs(va[:, None] - vb[None, :]))
    cost[:m, :n] = np.minimum(move, np.maximum(half_a[:, None], half_b[None, :]))
    cost[:m, n:] = half_a[:, None]
    cost[m:, :n] = half_b[None, :]
    return cost


def _row_cover(adj: np.ndarray):
    """``(used, None)``, ``used`` the columns of a matching of the bipartite
    graph ``adj`` (rows x columns, boolean) that covers every row, in row
    order, or ``(None, rows)``: ``rows`` have fewer neighbours than rows.

    Each row's edges become one Python-int bitset, and rows are matched
    in order.  A row takes its lowest free column; if it has none, a
    breadth-first search over alternating paths from it (Kuhn 1955;
    Hopcroft & Karp 1973) looks for a free column, and the path to the
    first one found is flipped.  If the search runs dry, each column it
    reached is matched to a row it visited, so those rows have one
    neighbour fewer than rows.  A search visits each row and column at
    most once, so a cover costs O(m (m + n)) steps on n/64-word integers.
    """
    m, n = adj.shape
    packed = np.packbits(adj, axis=1, bitorder="little").tobytes()
    width = (n + 7) // 8
    edges = [int.from_bytes(packed[k * width:(k + 1) * width], "little") for k in range(m)]
    row_col = [-1] * m
    col_row = [-1] * n
    free = (1 << n) - 1
    for start in range(m):
        row, open_ = start, edges[start] & free
        if not open_:
            # breadth first; every column reached is matched, or the row
            # that reached it would have had a free column
            queue, seen, parent = [start], 0, {}  # parent: column -> the row that reached it
            for source in queue:
                reach = edges[source] & ~seen
                seen |= reach
                while reach:
                    col = (reach & -reach).bit_length() - 1
                    reach ^= 1 << col
                    parent[col] = source
                    row = col_row[col]
                    open_ = edges[row] & free
                    if open_:
                        break
                    queue.append(row)
                if open_:
                    break
            else:
                return None, np.array(queue)
        col = (open_ & -open_).bit_length() - 1
        free ^= 1 << col
        while True:  # flip the path from row back to start
            row_col[row], col_row[col], col = col, row, row_col[row]
            if row == start:
                break
            row = parent[col]
    return np.fromiter(row_col, np.intp, m), None


def _feasible(move: np.ndarray, half_a: np.ndarray, half_b: np.ndarray, t: float):
    """None if a perfect matching of the stand-in graph uses only costs <= t,
    else a cost t1 > t below which no threshold is feasible.

    A point whose half-gap is at most t (small) can always go to a
    stand-in, and leftover stand-ins pair off at cost 0, so only the big
    points need a partner.  A big point's cross cost is the smaller of the
    sup-norm move and a half-gap above t, so its edges are the cells of
    ``move <= t`` in its row or column (Efrat, Itai & Katz 2001).  Probes
    run at t >= L, so every big point has an edge.  Matchings that cover
    every big point of ``a`` and every one of ``b`` give one that covers
    both (Mendelsohn-Dulmage), so each side is tested on its own, the
    second only when the first misses a big point of ``b``.  A side that
    fails has rows S with fewer neighbours N(S), read from the move block
    as the columns whose cheapest move from S is at most t, and t1 is the
    smallest half-gap in S or move from S to a column outside N(S): for
    t' in [t, t1) every row of S stays big and N(S) gains no edge, so S
    still breaks Hall's condition.  t1 is a half-gap, or a move at most
    its row's half-gap, which is that row's cross cell, so it is a cost.
    """
    big_a, big_b = half_a > t, half_b > t
    used, rows = _row_cover(move[big_a] <= t)  # distinct columns, so a count shows all of big_b
    if rows is None and np.count_nonzero(big_b[used]) < np.count_nonzero(big_b):
        used, rows = _row_cover((move[:, big_b] <= t).T)
        move, half_a, big_a = move.T, half_b, big_b
    if rows is None:
        return None
    rows = np.flatnonzero(big_a)[rows]
    near = move[rows].min(axis=0, initial=np.inf)  # each column's cheapest move from S
    return min(half_a[rows].min(), near[near > t].min(initial=np.inf))


def bottleneck_distance(a: PersistenceDiagram, b: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two diagrams.

    The problem is a perfect matching on the square matrix of
    :func:`_cost_matrix`: the optimum is always one of its costs, and
    feasibility (a perfect matching using only costs <= t) only gets
    easier as t grows, so the smallest feasible cost is the exact answer.
    That matrix is never built: its costs are the (m, n) cross block (each
    cell the smaller of the sup-norm move and the larger half-gap), the
    half-gaps and 0.  Each pair builds the move block from the expanded
    columns, and :func:`_feasible` decides every threshold on it.  Every
    row and column must be matched, so the answer is at least L, the
    largest row or column minimum, a cost read from the move block (a
    capped cell's larger half-gap is at least the point's own).  L is
    probed first, then the jump t1 its failure returns (the threshold
    raising of Derigs & Zimmermann 1978).  Only if both fail is the cross
    block built and its costs from the second jump up sorted, for one
    exponential search (Bentley & Yao 1976) that gallops until a probe is
    feasible, then bisects, and moves ``lo`` to a failed probe's jump when
    that is further.  It probes no more than that search over every cost
    above L, so an answer at index k of them takes at most
    2 ceil(log2(k + 2)) - 1 probes after L.  Only costs with nothing
    feasible below them are ever skipped.
    """
    (ua, va, half_a), (ub, vb, half_b) = a._expanded(), b._expanded()
    with np.errstate(over="ignore"):  # an overflow gives inf, as in point_distance: no warning
        move = np.maximum(np.abs(ua[:, None] - ub[None, :]), np.abs(va[:, None] - vb[None, :]))
    t = max(np.minimum(move.min(axis=1, initial=np.inf), half_a).max(initial=0.0),
            np.minimum(move.min(axis=0, initial=np.inf), half_b).max(initial=0.0))
    for _ in range(2):  # L, then the first jump, with no cost list
        jump = _feasible(move, half_a, half_b, t)
        if jump is None:
            return float(t)
        t = jump
    cross = np.minimum(move, np.maximum(half_a[:, None], half_b[None, :]))
    costs = np.concatenate((cross.ravel(), half_a, half_b))
    candidates = np.sort(costs[costs >= t])
    candidates = candidates[_run_starts(candidates)]
    # Nothing below lo is feasible and candidates[hi] is (the largest cost always
    # is); mid gallops (1, 5, 13, ...) until a probe is feasible, then bisects.
    lo, hi, step = 0, len(candidates) - 1, 2
    while lo < hi:
        mid = min(lo + step - 1, (lo + hi) // 2)
        jump = _feasible(move, half_a, half_b, candidates[mid])
        if jump is None:
            hi = mid
        else:
            lo, step = max(mid + 1, int(np.searchsorted(candidates, jump))), 2 * step
    return float(candidates[lo])


def bottleneck_bruteforce(a: PersistenceDiagram, b: PersistenceDiagram) -> float:
    """Bottleneck by exhaustive search over all matchings.

    Independent cross-check for :func:`bottleneck_distance`; refuses
    inputs with more than 8 points in total (with multiplicity) since
    the search is factorial.  Branches that already reach the best max
    cost found so far are cut off, which never changes the minimum.
    """
    total = a.total_multiplicity() + b.total_multiplicity()
    if total > 8:
        raise ValueError(f"{total} points exceeds exhaustive-search cap 8")
    cost = _cost_matrix(a, b)
    size = cost.shape[0]
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

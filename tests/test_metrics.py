import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from persvec import metrics
from persvec.coefficients import CoefficientVector
from persvec.diagram import PersistenceDiagram
from persvec.metrics import (
    COEFFICIENT_METRICS,
    _coefficient_rows,
    _cost_matrix,
    bottleneck_bruteforce,
    bottleneck_distance,
    coefficient_distance,
    point_distance,
)


def random_diagram(rng, max_points=4, max_mult=2):
    pts = []
    for _ in range(rng.randrange(0, max_points + 1)):
        b = rng.uniform(0, 2)
        d = b + rng.uniform(0.05, 2)
        pts.append((b, d, rng.randrange(1, max_mult + 1)))
    return PersistenceDiagram.from_pairs(pts)


def vec(*coeffs, width=9):
    return CoefficientVector(tuple(complex(c) for c in coeffs), width=width)


# ---------------------------------------------------------------- points


def test_point_distance_hand_values():
    # moving beats destroying
    assert point_distance((0, 2), (0, 4)) == 2.0
    # destroying both beats the 3-wide move
    assert point_distance((1, 3), (4, 5)) == 1.0
    assert point_distance((0, 2), (0, 2)) == 0.0


def test_point_distance_symmetric():
    rng = random.Random(5)
    for _ in range(100):
        p = (rng.uniform(0, 3), rng.uniform(3, 6))
        q = (rng.uniform(0, 3), rng.uniform(3, 6))
        assert point_distance(p, q) == point_distance(q, p)


def test_point_distance_validation():
    with pytest.raises(ValueError):
        point_distance((2, 1), (0, 1))
    with pytest.raises(ValueError):
        point_distance((0, 1), (math.nan, 2))


# ---------------------------------------------------------- coefficients


def test_coefficient_distance_hand_values():
    a = vec(0, 4)
    b = vec(0, 0)
    assert coefficient_distance(a, b, "d1") == 4.0
    assert coefficient_distance(a, b, "d2") == 2.0  # 4 discounted by j=2
    assert coefficient_distance(a, b, "d3") == 2.0  # sqrt(4)


def test_coefficient_distance_single_entry():
    a = vec(3 + 4j)
    b = vec(0)
    for kind in COEFFICIENT_METRICS:
        assert coefficient_distance(a, b, kind) == 5.0


def test_coefficient_distance_errors():
    a = vec(1j, 2j)
    with pytest.raises(ValueError):
        coefficient_distance(a, vec(1j), "d1")  # count mismatch
    with pytest.raises(ValueError):
        coefficient_distance(a, CoefficientVector((1j, 2j), width=4), "d1")
    with pytest.raises(ValueError):
        coefficient_distance(a, a, "d9")


def test_coefficient_rows_errors():
    q, rows = np.array([1j, 2j]), np.array([[0j, 1j], [2j, 0j]])
    with pytest.raises(ValueError) as scalar:
        coefficient_distance(vec(1j, 2j), vec(1j, 2j), "d9")
    with pytest.raises(ValueError) as kernel:
        _coefficient_rows(q, rows, "d9")
    assert str(kernel.value) == str(scalar.value)
    assert _coefficient_rows(q, rows, "d1").tolist() == [2.0, 3.0]


def test_coefficient_metrics_are_metrics():
    rng = random.Random(17)
    for _ in range(50):
        vs = [
            vec(*[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)])
            for _ in range(3)
        ]
        a, b, c = vs
        for kind in COEFFICIENT_METRICS:
            dab = coefficient_distance(a, b, kind)
            dba = coefficient_distance(b, a, kind)
            assert dab == dba
            assert coefficient_distance(a, a, kind) == 0.0
            dac = coefficient_distance(a, c, kind)
            dcb = coefficient_distance(c, b, kind)
            assert dab <= dac + dcb + 1e-9


def test_d1_dominates_d2():
    rng = random.Random(23)
    for _ in range(30):
        a = vec(*[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)])
        b = vec(*[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)])
        assert coefficient_distance(a, b, "d2") <= coefficient_distance(a, b, "d1")


# ------------------------------------------------------------ bottleneck


def test_bottleneck_hand_values():
    empty = PersistenceDiagram()
    one = PersistenceDiagram.from_pairs([(0, 2)])
    assert bottleneck_distance(one, empty) == 1.0  # destroyed at half gap
    assert bottleneck_distance(empty, empty) == 0.0
    tall = PersistenceDiagram.from_pairs([(0, 4)])
    assert bottleneck_distance(tall, one) == 2.0
    doubled = PersistenceDiagram.from_pairs([(0, 2, 2)])
    assert bottleneck_distance(doubled, one) == 1.0  # extra copy destroyed


def test_bottleneck_multiplicity_expansion():
    a = PersistenceDiagram.from_pairs([(0, 2, 3)])
    b = PersistenceDiagram.from_pairs([(0, 2)])
    assert bottleneck_distance(a, b) == 1.0
    assert bottleneck_bruteforce(a, b) == 1.0


def test_bottleneck_self_distance_zero():
    rng = random.Random(31)
    for _ in range(20):
        d = random_diagram(rng)
        assert bottleneck_distance(d, d) == 0.0


def test_bottleneck_symmetry():
    rng = random.Random(37)
    for _ in range(30):
        a, b = random_diagram(rng), random_diagram(rng)
        assert bottleneck_distance(a, b) == bottleneck_distance(b, a)


def test_bottleneck_triangle_inequality():
    rng = random.Random(41)
    for _ in range(30):
        a, b, c = (random_diagram(rng) for _ in range(3))
        dab = bottleneck_distance(a, b)
        dac = bottleneck_distance(a, c)
        dcb = bottleneck_distance(c, b)
        assert dab <= dac + dcb + 1e-12


def test_bottleneck_agrees_with_bruteforce():
    rng = random.Random(43)
    for _ in range(60):
        a = random_diagram(rng, max_points=3, max_mult=2)
        b = random_diagram(rng, max_points=3, max_mult=2)
        if a.total_multiplicity() + b.total_multiplicity() > 8:
            continue
        fast = bottleneck_distance(a, b)
        slow = bottleneck_bruteforce(a, b)
        assert abs(fast - slow) <= 1e-12


def expanded(diagram):
    return [(p.birth, p.death) for p in diagram for _ in range(p.multiplicity)]


def test_cost_matrix_cells_equal_point_distance():
    # The brute-force oracle shares _cost_matrix with bottleneck_distance,
    # so every cell is tied here to the scalar point_distance reference.
    rng = random.Random(47)
    empty = PersistenceDiagram()
    one = PersistenceDiagram.from_pairs([(0.25, 1.5, 2), (1.0, 1.75)])
    cases = [(one, empty), (empty, one), (empty, empty)]
    for _ in range(40):
        cases.append((random_diagram(rng, 6, 3), random_diagram(rng, 6, 3)))
    assert any(p.multiplicity > 1 for a, _ in cases for p in a)
    for a, b in cases:
        pa, pb = expanded(a), expanded(b)
        m, n = len(pa), len(pb)
        cost = _cost_matrix(a, b)
        assert cost.shape == (m + n, m + n)
        for i, p in enumerate(pa):
            for j, q in enumerate(pb):
                assert cost[i, j] == point_distance(p, q)
            assert all(c == (p[1] - p[0]) / 2.0 for c in cost[i, n:])
        for j, q in enumerate(pb):
            assert all(c == (q[1] - q[0]) / 2.0 for c in cost[m:, j])
        assert not cost[m:, n:].any()
    assert bottleneck_distance(empty, empty) == 0.0


@st.composite
def grid_diagram_pairs(draw):
    """Two diagrams on a half-integer grid, at most 8 points in total.

    Only 12 grid points exist, so costs tie often, the search's lower
    bound is often the answer, and the two diagrams often share points.
    """
    grid = st.tuples(st.integers(0, 3), st.integers(1, 3))
    budget_a = draw(st.integers(0, 8))
    pair = []
    for budget in (budget_a, 8 - budget_a):
        pts = []
        for birth, gap in draw(st.lists(grid, min_size=1, max_size=4)):
            if budget == 0:
                break
            mult = draw(st.integers(1, min(3, budget)))
            budget -= mult
            pts.append((birth / 2, (birth + gap) / 2, mult))
        pair.append(PersistenceDiagram.from_pairs(pts))
    return tuple(pair)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(grid_diagram_pairs())
def test_bottleneck_equals_bruteforce_on_grid_ties(pair):
    a, b = pair
    assert bottleneck_distance(a, b) == bottleneck_bruteforce(a, b)


def plain_bisection(cost):
    """All distinct costs and the index of the smallest one a perfect matching fits under.

    Bisects over every cost, not just those above a lower bound, and
    decides feasibility with scipy's assignment solver on the 0/1
    "too expensive" matrix, independently of the code under test.
    """
    candidates = np.unique(cost)
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        over = (cost > candidates[mid]).astype(float)
        rows, cols = linear_sum_assignment(over)
        if over[rows, cols].sum() == 0:
            hi = mid
        else:
            lo = mid + 1
    return candidates, lo


def test_bottleneck_equals_plain_bisection_far_above_lower_bound():
    # Diagrams of 20-40 points put the answer well above the search's
    # lower bound L, past the first galloping steps, so a fault in the
    # final bisection shows here; the small-diagram tests rarely get there.
    rng = random.Random(53)

    def wide_diagram():
        pts = []
        for _ in range(rng.randint(20, 40)):
            birth = rng.uniform(0, 1)
            pts.append((birth, birth + rng.uniform(0.01, 0.6)))
        return PersistenceDiagram.from_pairs(pts)

    far = 0
    for _ in range(20):
        a, b = wide_diagram(), wide_diagram()
        cost = _cost_matrix(a, b)
        candidates, answer = plain_bisection(cost)
        bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
        if answer - np.searchsorted(candidates, bound) >= 2:
            far += 1
        assert bottleneck_distance(a, b) == candidates[answer]
    assert far >= 15


@st.composite
def reduced_graph_pairs(draw):
    """Two diagrams of 0-40 points each (with multiplicity) for the reduced search.

    Each side is empty, all small (gaps below 0.05, near the diagonal),
    all big (gaps of 0.5-2), or mixed, and may carry a few points far out
    whose half-gaps or distances overflow to inf.  Big sides of up to 40
    points take both the Kuhn and the scipy matcher.
    """
    small = st.floats(1e-6, 0.05)
    big = st.floats(0.5, 2)
    huge = st.sampled_from([(-1.5e308, 1e308), (-1e308, 1.5e308), (1e308, 1.5e308), (-1.5e308, -1e308)])
    pair = []
    for _ in range(2):
        gap = draw(st.sampled_from([small, big, st.one_of(small, big)]))
        budget = draw(st.sampled_from([0, 3, 12, 40]))
        pts = [(birth, death, 1) for birth, death in draw(st.lists(huge, max_size=min(budget, 2)))]
        budget -= len(pts)
        for birth, width, mult in draw(st.lists(st.tuples(st.floats(0, 2), gap, st.integers(1, 3)),
                                                min_size=budget, max_size=budget)):
            if budget:
                pts.append((birth, birth + width, min(mult, budget)))
                budget -= pts[-1][2]
        pair.append(PersistenceDiagram.from_pairs(pts))
    return tuple(pair)


def test_bottleneck_equals_plain_bisection_on_reduced_graph(monkeypatch):
    # bottleneck_distance never builds the stand-in matrix; the reference
    # bisects over every cost of it with an independent assignment solver.
    sides = []
    row_cover = metrics._row_cover

    def spy(adj):
        sides.append(len(adj))
        return row_cover(adj)

    monkeypatch.setattr(metrics, "_row_cover", spy)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(reduced_graph_pairs())
    def check(pair):
        a, b = pair
        candidates, answer = plain_bisection(_cost_matrix(a, b))
        assert bottleneck_distance(a, b) == (candidates[answer] if len(candidates) else 0.0)

    check()
    # both matchers ran on sides with big points
    assert any(0 < size <= metrics._KUHN_MAX_BIG for size in sides)
    assert max(sides) > metrics._KUHN_MAX_BIG


def test_bruteforce_cap():
    big = PersistenceDiagram.from_pairs([(0, 1, 9)])
    with pytest.raises(ValueError, match="cap"):
        bottleneck_bruteforce(big, PersistenceDiagram())
    # raising the cap is allowed, if you have the patience
    assert bottleneck_bruteforce(big, PersistenceDiagram(), cap=9) == 0.5

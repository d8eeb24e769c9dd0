import importlib.util
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx import Graph
from networkx.algorithms.bipartite import hopcroft_karp_matching
from scipy.optimize import linear_sum_assignment

from persvec import metrics
from persvec.coefficients import CoefficientVector
from persvec.diagram import PersistenceDiagram
from persvec.mesh import (
    FILTERS,
    MeshFrame,
    axis_vector,
    center_of_mass,
    mesh_zero_persistence,
    normalize_mesh,
    parse_off,
    zero_persistence,
)
from persvec.metrics import (
    COEFFICIENT_METRICS,
    _coefficient_rows,
    _cost_matrix,
    bottleneck_bruteforce,
    bottleneck_distance,
    coefficient_distance,
    point_distance,
)
from persvec.retrieval import synthetic_database
from test_cli import sphere_grid_off


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
    a = vec(1j, 2j)  # width 9
    with pytest.raises(ValueError, match=r"^mixed \(width, count\) shapes \(9, 2\) vs \(9, 1\)$"):
        coefficient_distance(a, vec(1j), "d1")
    with pytest.raises(ValueError, match=r"^mixed \(width, count\) shapes \(9, 2\) vs \(4, 2\)$"):
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


def large_cross_class_pairs():
    """Synthetic pairs of 300 and of 1,000 points from different classes.

    Each answer lies far above L: at index 160, 119, 1,232 and 420 of the
    costs above L, while most sphere-grid pairs of the mesh-size gate below
    answer at L.
    """
    for base, noise in ((30, 270), (100, 900)):
        db = synthetic_database(4, 3, base_points=base, noise_points=noise, seed=5)
        for i, j in ((0, 3), (2, 9)):
            yield db.entries[i].diagram, db.entries[j].diagram


def test_bottleneck_equals_plain_bisection_far_above_lower_bound():
    # Diagrams of 20-40 points, and the large pairs, put the answer well
    # above the search's lower bound L, past the first galloping steps and
    # into the bisection that follows; the small-diagram tests rarely get
    # there.
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
    for a, b in large_cross_class_pairs():
        cost = _cost_matrix(a, b)
        candidates, answer = plain_bisection(cost)
        bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
        assert candidates[answer] > bound
        assert bottleneck_distance(a, b) == candidates[answer]


@st.composite
def reduced_graph_pairs(draw):
    """Two diagrams of 0-40 points each (with multiplicity) for the reduced search.

    Each side is empty, all small (gaps below 0.05, near the diagonal),
    all big (gaps of 0.5-2), or mixed, and may carry a few points far out
    whose half-gaps or distances overflow to inf.  Big sides run from 1
    to 40 points.
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
    sides, probes = [], []  # probes: per probe, whether each row cover it ran succeeded
    row_cover, feasible = metrics._row_cover, metrics._feasible

    def spy(adj):
        sides.append(len(adj))
        used = row_cover(adj)
        probes[-1].append(used[0] is not None)
        return used

    def probe(*args):
        probes.append([])
        return feasible(*args)

    monkeypatch.setattr(metrics, "_row_cover", spy)
    monkeypatch.setattr(metrics, "_feasible", probe)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(reduced_graph_pairs())
    def check(pair):
        a, b = pair
        candidates, answer = plain_bisection(_cost_matrix(a, b))
        assert bottleneck_distance(a, b) == (candidates[answer] if len(candidates) else 0.0)

    check()
    # the matcher ran on sides of 1-16 big points and of more than 16
    assert any(0 < size <= 16 for size in sides)
    assert max(sides) > 16
    # every outcome of a probe: the first cover fails; it covers every big
    # point of b; it does not, and the second cover succeeds; or it fails
    assert {tuple(p) for p in probes} == {(False,), (True,), (True, True), (True, False)}


def test_bottleneck_probes_lower_bound_first(monkeypatch):
    # L is probed before any candidate above it is sorted: a pair whose
    # answer is L takes exactly that one probe, and a pair whose answer lies
    # above L goes on only after the probe at L failed.
    probes = []  # per pair, (t, feasible) for each probe
    feasible = metrics._feasible

    def spy(cross, half_a, half_b, t):
        ok = feasible(cross, half_a, half_b, t)
        probes[-1].append((t, ok is None))
        return ok

    monkeypatch.setattr(metrics, "_feasible", spy)
    outcomes = {"at L": 0, "above L": 0}

    def check(a, b):
        probes.append([])
        answer = bottleneck_distance(a, b)
        cost = _cost_matrix(a, b)
        bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
        (first, ok), *rest = probes[-1]
        assert first == bound
        if answer == bound:
            assert ok and not rest
            outcomes["at L"] += 1
        else:
            assert not ok and answer > bound
            outcomes["above L"] += 1

    # pairs shaped like the benchmark's re-ranking: 60-point diagrams,
    # within a class and across classes
    db = synthetic_database(30, 10, base_points=6, noise_points=54, seed=42)
    rng = random.Random(42)
    for i in range(0, len(db), 10):
        check(db.entries[i].diagram, db.entries[i + rng.randrange(1, 10)].diagram)
        check(db.entries[i].diagram, db.entries[rng.randrange(len(db))].diagram)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(grid_diagram_pairs())
    def grid(pair):
        check(*pair)

    grid()
    assert min(outcomes.values()) >= 20, outcomes


def test_bound_and_probes_from_move_block_match_cost_matrix(monkeypatch):
    # L and every probe read the sup-norm move block alone.  The stand-in
    # matrix, capped cross block included, is the reference: L is its
    # largest row or column minimum, its cross block is the move block
    # capped at the larger half-gap, and a probe at any candidate from L
    # up is feasible exactly from the answer plain_bisection finds on it.
    calls = []
    feasible = metrics._feasible

    def spy(*args):
        calls.append(args)
        return feasible(*args)

    monkeypatch.setattr(metrics, "_feasible", spy)

    def check(pair):
        a, b = pair
        calls.clear()
        bottleneck_distance(a, b)
        move, half_a, half_b, bound = calls[0]
        cost = _cost_matrix(a, b)
        m, n = move.shape
        assert np.array_equal(np.minimum(move, np.maximum.outer(half_a, half_b)), cost[:m, :n])
        L = max(cost.min(axis=1).max(), cost.min(axis=0).max()) if cost.size else 0.0
        assert float(bound).hex() == float(L).hex()
        candidates, answer = plain_bisection(cost)
        for k in range(np.searchsorted(candidates, L), len(candidates)):
            assert (feasible(move, half_a, half_b, candidates[k]) is None) == (k >= answer), (k, answer)

    for strategy in (reduced_graph_pairs(), grid_diagram_pairs()):
        settings(derandomize=True, database=None, max_examples=200, deadline=None)(
            given(strategy)(check))()


def test_search_above_lower_bound_loads_no_numpy_ma():
    """Sorting the candidates above L must not import ``numpy.ma``, as the first
    ``np.unique`` of a process does (about 15 ms).  Here L is 1: the lone point
    of ``a`` is 1 from both points of ``b``, but the probe at 1 fails, since one
    of them must go to the diagonal, and the answer is the half-gap 4.5, the
    jump of the probe at 1, so no candidate is sorted.  In the second pair L
    is 1 again, and the jumps 1.5 and 2.5 (one big point of ``a`` for three
    and then two of ``b``) take the search to the candidate sort, whose
    first probe, at 2.5, is feasible."""
    import persvec

    code = ("import sys; import numpy as np; from persvec.diagram import PersistenceDiagram as D; "
            "from persvec.metrics import bottleneck_distance; sort, sorts = np.sort, []; "
            "np.sort = lambda *args, **kw: sorts.append(1) or sort(*args, **kw); "
            "print(bottleneck_distance(D.from_pairs([(0, 10)]), D.from_pairs([(0, 9), (0, 11)])), len(sorts), "
            "bottleneck_distance(D.from_pairs([(0, 5)]), D.from_pairs([(1, 4), (0, 6), (1, 6)])), len(sorts), "
            "'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(persvec.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "4.5 0 2.5 1 False\n"


def test_bottleneck_search_probes_within_exponential_search_bound(monkeypatch):
    # After the probe at L, an answer at index k of the sorted costs above L
    # takes at most 2 ceil(log2(k + 2)) - 1 probes: a linear scan breaks
    # this far above L, and a bisection over all of them near L.
    probes = []
    feasible = metrics._feasible

    def spy(*args):
        probes[-1] += 1
        return feasible(*args)

    monkeypatch.setattr(metrics, "_feasible", spy)
    ks = []

    def check(a, b):
        probes.append(0)
        answer = bottleneck_distance(a, b)
        cost = _cost_matrix(a, b)
        bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
        if answer > bound:
            k = int(np.searchsorted(np.unique(cost[cost > bound]), answer))
            assert probes[-1] - 1 <= 2 * math.ceil(math.log2(k + 2)) - 1, (k, probes[-1])
            ks.append(k)

    db = synthetic_database(30, 10, base_points=6, noise_points=54, seed=42)
    rng = random.Random(42)
    for i in range(0, len(db), 10):
        check(db.entries[i].diagram, db.entries[i + rng.randrange(1, 10)].diagram)
        check(db.entries[i].diagram, db.entries[rng.randrange(len(db))].diagram)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(grid_diagram_pairs())
    def grid(pair):
        check(*pair)

    grid()
    for a, b in large_cross_class_pairs():
        check(a, b)
    assert len(ks) >= 40 and ks.count(0) >= 10 and max(ks) >= 1000, (len(ks), ks.count(0), max(ks))


def sphere_grid_diagram(seed, n_lat, n_lon, filter_name):
    """The diagram ``persvec diagram`` computes for a seeded noisy sphere grid."""
    mesh = parse_off(sphere_grid_off(np.random.default_rng(seed), n_lat, n_lon))
    centered = normalize_mesh(mesh, center_of_mass(mesh))
    frame = MeshFrame(np.zeros(3), axis_vector(centered, np.zeros(3))[0])
    return mesh_zero_persistence(centered, FILTERS[filter_name](centered, frame))


@pytest.mark.parametrize("n_lat, n_lon, filter_name, seeds, above_bound",
                         [(60, 80, "line", (1, 2), False), (60, 80, "plane", (1, 2), False),
                          (120, 160, "line", (1, 2), False), (60, 80, "line", (6, 7), True)])
def test_bottleneck_equals_plain_bisection_on_mesh_diagrams(n_lat, n_lon, filter_name, seeds, above_bound):
    # Mesh-size diagrams (about 200-300 points on 60 x 80 grids, 1,400-1,600
    # on 120 x 160), far past the sizes the other exactness checks reach;
    # the size check keeps them that large.  The pairs of seeds 1 and 2
    # answer at the lower bound L; that of seeds 6 and 7 (308 and 298
    # points) answers at index 423 of the 759 costs above it, so the
    # search and the matcher run past L on a mesh diagram.
    a, b = (sphere_grid_diagram(seed, n_lat, n_lon, filter_name) for seed in seeds)
    assert min(a.total_multiplicity(), b.total_multiplicity()) > n_lat * n_lon // 25
    cost = _cost_matrix(a, b)
    candidates, answer = plain_bisection(cost)
    bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    assert (candidates[answer] > bound) == above_bound
    assert bottleneck_distance(a, b) == candidates[answer]


SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "experiments", "bottleneck_pairs.py")


def all_big_pair(n, seed):
    """The all-big pair of ``experiments/bottleneck_pairs.py``: n points a
    side whose half-gaps (0.5-1) exceed most costs between them."""
    spec = importlib.util.spec_from_file_location("bottleneck_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.all_big_pair(n, seed)


def test_failed_probes_jump_to_a_cost_at_most_the_answer(monkeypatch):
    # A failed probe at t returns its jump: a cost of the stand-in matrix
    # with t < jump <= answer, so nothing it skips can be the answer.  Both
    # branches of the search loop run: a feasible probe, and a failed one
    # whose jump passes mid + 1; the exponential-search bound holds.
    probes = []  # (t, jump) for each probe of the current pair
    feasible = metrics._feasible

    def spy(*args):
        jump = feasible(*args)
        probes.append((args[3], jump))
        return jump

    monkeypatch.setattr(metrics, "_feasible", spy)
    loop = {"feasible": 0, "jump past mid + 1": 0}

    def check(a, b):
        probes.clear()
        answer = bottleneck_distance(a, b)
        cost = _cost_matrix(a, b)
        costs = np.unique(cost)
        if 0 < len(cost) <= 300:  # the large pairs' answers are checked elsewhere
            candidates, index = plain_bisection(cost)
            assert answer == candidates[index]
        bound = probes[0][0]  # L, probed first
        if answer > bound:
            k = int(np.searchsorted(costs[costs > bound], answer))
            assert len(probes) - 1 <= 2 * math.ceil(math.log2(k + 2)) - 1, (k, len(probes))
        for i, (t, jump) in enumerate(probes):
            if jump is not None:
                assert jump in costs and t < jump <= answer, (t, jump, answer)
            if i >= 2 and jump is None:
                loop["feasible"] += 1
            elif i >= 2 and np.searchsorted(costs, jump) > np.searchsorted(costs, t) + 1:
                loop["jump past mid + 1"] += 1

    for strategy in (reduced_graph_pairs(), grid_diagram_pairs()):
        settings(derandomize=True, database=None, max_examples=300, deadline=None)(
            given(strategy)(lambda pair: check(*pair)))()
    for a, b in large_cross_class_pairs():
        check(a, b)
    check(*(sphere_grid_diagram(seed, 60, 80, "line") for seed in (6, 7)))
    for seed in range(1, 8):
        for n in (60, 100):
            check(*all_big_pair(n, seed))
    assert min(loop.values()) >= 1, loop


def test_bottleneck_symmetric_to_the_bit():
    # A matrix computes each pair in one orientation and two_stage_query in
    # the other; the move block of (b, a) is the transpose of that of (a, b),
    # so both searches end at the same cost, float for float.
    def check(a, b):
        assert bottleneck_distance(a, b).hex() == bottleneck_distance(b, a).hex()

    for strategy in (reduced_graph_pairs(), grid_diagram_pairs()):
        settings(derandomize=True, database=None, max_examples=300, deadline=None)(
            given(strategy)(lambda pair: check(*pair)))()
    for a, b in large_cross_class_pairs():
        check(a, b)
    for seed in range(1, 8):
        for n in (60, 100):
            check(*all_big_pair(n, seed))


def test_bottleneck_memory_stays_near_the_move_block():
    # The search holds the (m, n) move block and a few arrays of its size,
    # about 27 bytes a cell on the 1,000-point pairs; the (m + n)^2 stand-in
    # matrix alone would take 32.
    for a, b in list(large_cross_class_pairs())[2:]:
        bottleneck_distance(a, b)  # expands both diagrams
        tracemalloc.start()
        try:
            bottleneck_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = a.total_multiplicity() * b.total_multiplicity()
        assert cells == 10**6 and peak <= 40 * cells, peak


def test_pair_answered_by_first_jump_takes_two_probes_and_no_sort(monkeypatch):
    # On pairs shaped like the benchmark's re-ranking, an answer at the
    # jump of the probe at L takes that probe and one at the jump, and no
    # candidate list is sorted; only a third probe follows a sort.
    probes, sorts = [], []
    feasible, sort = metrics._feasible, np.sort

    def spy(*args):
        probes.append(feasible(*args))
        return probes[-1]

    monkeypatch.setattr(metrics, "_feasible", spy)
    monkeypatch.setattr(np, "sort", lambda *args, **kw: sorts.append(1) or sort(*args, **kw))
    at_jump = 0
    db = synthetic_database(30, 10, base_points=6, noise_points=54, seed=42)
    rng = random.Random(42)
    for i in range(0, len(db), 10):  # each class: four pairs within it, six across
        for j in [i + k for k in rng.sample(range(1, 10), 4)] + rng.sample(range(len(db)), 6):
            probes.clear()
            sorts.clear()
            answer = bottleneck_distance(db.entries[i].diagram, db.entries[j].diagram)
            if probes[0] is not None and answer == probes[0]:
                assert probes[1:] == [None] and not sorts
                at_jump += 1
            assert len(sorts) == (len(probes) > 2)
    assert at_jump >= 30, at_jump


def test_bottleneck_pairs_script_runs_small():
    # experiments/bottleneck_pairs.py is the command behind the README's
    # bottleneck numbers; --small runs every step on fewer, smaller pairs.
    import persvec

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(persvec.__file__)))
    out = subprocess.run([sys.executable, SCRIPT, "--small"], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    lines = out.stdout.splitlines()
    assert lines[0] == "re-ranked pairs: 200 (20 queries x 10 heads), best of 1"
    assert [line.split()[0] for line in lines[1:6]] == ["time", "probes", "answered", "at", "lists"]
    assert [line.split("|")[1].strip() for line in lines[-2:]] == ["60", "200"]


@st.composite
def perturbed_graphs(draw):
    """Vertex values f and g on one random graph of 1-120 vertices.

    f takes at most six levels, so values tie.  g moves each vertex of f
    by at most a scale of 1e-3 to 0.3; in half the cases it leaves about
    half of them where they are, so g keeps ties too.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    f = rng.integers(0, draw(st.integers(1, 6)), n) / 4
    edges = rng.integers(0, n, size=(draw(st.integers(n, 3 * n)), 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    scale = draw(st.floats(1e-3, 0.3))
    moved = rng.random(n) < draw(st.sampled_from([1.0, 0.5]))
    g = f + np.where(moved, rng.uniform(-scale, scale, n), 0.0)
    return f, g, edges


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(perturbed_graphs())
def test_bottleneck_stability_under_perturbed_values(graph):
    # Stability of persistence diagrams (Cohen-Steiner, Edelsbrunner and
    # Harer 2007): the diagrams of f and g on one graph lie within
    # max|f - g| of each other.  Some examples meet the bound exactly, so a
    # fault that moves a point or overestimates a distance in either
    # zero_persistence or bottleneck_distance breaks it.  Both sides have
    # the same number of essential classes, which the distance ignores.
    f, g, edges = graph
    distance = bottleneck_distance(zero_persistence(f, edges), zero_persistence(g, edges))
    assert distance <= np.abs(f - g).max()


def test_row_cover_agrees_with_hopcroft_karp():
    # networkx's pure-Python Hopcroft-Karp decides whether a matching
    # covers every row, independently of the code under test.
    rng = np.random.default_rng(15)
    graphs = [np.zeros((0, 4), dtype=bool), np.zeros((0, 0), dtype=bool), np.zeros((3, 0), dtype=bool)]
    for shape in [(1, 1), (5, 3), (3, 5), (60, 60), (60, 40), (40, 60), (300, 300), (200, 300), (300, 200)]:
        graphs += [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
    for density in (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9):
        for _ in range(30):
            graphs.append(rng.random(rng.integers(1, 61, size=2)) < density)
    for density in (0.02, 0.05, 0.2, 0.5, 0.9):
        for _ in range(4):
            graphs.append(rng.random(rng.integers(100, 301, size=2)) < density)
    # a chain that the greedy pass matches except for its last row, whose
    # one augmenting path runs back through every row: row i -> {i, i+1},
    # the last row -> {0}
    chain = np.zeros((300, 300), dtype=bool)
    chain[np.arange(299), np.arange(299)] = chain[np.arange(299), np.arange(1, 300)] = True
    chain[299, 0] = True
    graphs.append(chain)
    # Hall violations with no empty row: k + 1 rows share k columns, the
    # other rows have columns to spare
    for m, n, k in ((100, 120, 10), (150, 150, 40), (250, 300, 99), (120, 100, 60)):
        adj = rng.random((m, n)) < 0.1
        adj[:, 0] = True
        tight = rng.choice(m, k + 1, replace=False)
        adj[tight] = False
        adj[np.ix_(tight, rng.choice(n, k, replace=False))] = True
        graphs.append(adj)
    outcomes = {"cover": 0, "isolated row": 0, "Hall violation": 0}
    for adj in graphs:
        m, n = adj.shape
        graph = Graph()
        graph.add_nodes_from(range(m + n))
        graph.add_edges_from((i, m + j) for i, j in zip(*np.nonzero(adj)))
        matched = sum(1 for node in hopcroft_karp_matching(graph, top_nodes=range(m)) if node < m)
        used, violator = metrics._row_cover(adj)
        if matched < m:
            assert used is None, adj.shape
            outcomes["Hall violation" if adj.any(axis=1).all() else "isolated row"] += 1
            # the rows reported are distinct and reach fewer columns
            rows = violator
            assert len(set(rows.tolist())) == len(rows) > np.count_nonzero(adj[rows].any(axis=0)), adj.shape
        else:
            assert used is not None and violator is None and len(used) == m == len(set(used)), adj.shape
            assert all(adj[i, j] for i, j in enumerate(used)), adj.shape
            outcomes["cover"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_bruteforce_cap():
    big = PersistenceDiagram.from_pairs([(0, 1, 9)])
    with pytest.raises(ValueError, match="^9 points exceeds exhaustive-search cap 8$"):
        bottleneck_bruteforce(big, PersistenceDiagram())

"""Acceptance gate: ten go/no-go criteria, one test per criterion.

Every test funnels through ``_verdict``, which prints a single pass/fail
line (echoed again in the terminal summary via conftest) and asserts the
same condition, so the -v report always carries one line per criterion.
"""

import math
import random
import statistics
import time
from itertools import combinations

from persvec.coefficients import (
    CoefficientVector,
    elementary_symmetric,
    embed_diagram,
    embed_roots,
)
from persvec.diagram import PersistenceDiagram
from persvec.mesh import TriangleMesh, mesh_zero_persistence, multiplicity0, triangle_edges
from persvec.metrics import (
    bottleneck_bruteforce,
    bottleneck_distance,
    coefficient_distance,
)
from persvec.retrieval import (
    DistanceMatrix,
    embed_database,
    pr_curve,
    synthetic_database,
    two_stage_query,
)
from persvec.transforms import ComplexRoot, ComplexRootList, transform_point

VERDICT_LINES = []


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    VERDICT_LINES.append(line)
    print(line)
    assert ok, line


# --- 1: fast bottleneck against exhaustive matching ------------------------

def _small_diagram(rng, budget):
    pts = []
    remaining = budget
    while remaining and rng.random() < 0.85:
        mult = rng.randint(1, min(2, remaining))
        b = rng.uniform(0.0, 2.0)
        pts.append((b, b + rng.uniform(0.01, 1.5), mult))
        remaining -= mult
    return PersistenceDiagram.from_pairs(pts, essential_count=rng.randint(0, 2))


def test_criterion_01_bottleneck_matches_bruteforce():
    rng = random.Random(20260819)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        # each side stays below 8 points; the pair stays within the
        # exhaustive oracle's combined r + r' <= 8 precondition
        a = _small_diagram(rng, rng.randint(0, 8))
        b = _small_diagram(rng, 8 - a.total_multiplicity())
        worst = max(worst, abs(bottleneck_distance(a, b) - bottleneck_bruteforce(a, b)))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "bottleneck equals exhaustive matching on 200 random pairs (<=1e-12, <10s)",
        worst <= 1e-12 and elapsed < 10.0,
        f"max diff {worst:.2e}, {elapsed:.2f}s",
    )


# --- 2: union-find diagram against rank-based multiplicities ----------------

def _random_mesh(rng):
    n = rng.randint(4, 30)
    values = [x / 250.0 for x in rng.sample(range(1000), n)]
    verts = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(n)]
    tris = [rng.sample(range(n), 3) for _ in range(rng.randint(1, 2 * n))]
    return TriangleMesh(verts, tris), values


def test_criterion_02_diagram_matches_rank_multiplicities():
    rng = random.Random(4242)
    mismatches = 0
    for _ in range(50):
        mesh, values = _random_mesh(rng)
        diag = mesh_zero_persistence(mesh, values)
        got = {(p.birth, p.death): p.multiplicity for p in diag.points}
        edges = triangle_edges(mesh)
        levels = sorted(values)
        expected = {}
        for u, v in combinations(levels, 2):
            m = multiplicity0(values, edges, u, v)
            if m:
                expected[(u, v)] = m
        if got != expected:
            mismatches += 1
    _verdict(
        2,
        "degree-0 diagram equals rank multiplicities on 50 random meshes (exact)",
        mismatches == 0,
        f"{mismatches} of 50 meshes disagree" if mismatches else "exact on all 50",
    )


# --- 3: coefficients against subset enumeration -----------------------------

def _esp_bruteforce(roots, count):
    return tuple(
        sum(math.prod(c) for c in combinations(roots, j)) if j <= len(roots) else 0j
        for j in range(1, count + 1)
    )


def test_criterion_03_coefficients_match_subset_enumeration():
    hand_a = elementary_symmetric([1, 2, 3], 3)
    hand_b = elementary_symmetric([1j, -1j], 2)
    hands_ok = hand_a == (6 + 0j, 11 + 0j, 6 + 0j) and hand_b == (0j, 1 + 0j)

    rng = random.Random(99)
    worst = 0.0
    for _ in range(110):
        n = rng.randint(0, 12)
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        if n and rng.random() < 0.3:
            roots[rng.randrange(n)] = 0j  # exercise the zero-skip path
        count = rng.randint(1, n + 2)
        got = elementary_symmetric(roots, count)
        ref = _esp_bruteforce(roots, count)
        for a, b in zip(got, ref):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    _verdict(
        3,
        "coefficients match subset enumeration on 110 root lists (1e-10 rel) "
        "and the {1,2,3} / {i,-i} cases exactly",
        hands_ok and worst <= 1e-10,
        f"hand cases exact: {hands_ok}, worst rel diff {worst:.2e}",
    )


# --- 4: zero-padding roots vs zero-extending coefficients -------------------

def _esp_literal(roots, count):
    """Plain descending recurrence with no zero-skip, as a reference."""
    coeffs = [0j] * (count + 1)
    coeffs[0] = 1 + 0j
    for z in roots:
        for j in range(count, 0, -1):
            coeffs[j] += z * coeffs[j - 1]
    return tuple(coeffs[1:])


def test_criterion_04_padding_soundness():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(60):
        w = rng.randint(1, 12)
        values = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(w)]
        if w > 1 and rng.random() < 0.25:
            values[-1] = values[0]  # duplicate -> multiplicity merge
        roots = ComplexRootList(tuple(ComplexRoot(v) for v in values))
        m = rng.randint(w, 4 * w)
        produced = embed_roots(roots, m, count=m).coefficients
        extended = elementary_symmetric(roots.expand(), w) + (0j,) * (m - w)
        literal = _esp_literal(roots.expand() + [0j] * (m - w), m)
        for a, b, c in zip(produced, extended, literal):
            scale = max(1.0, abs(c))
            worst = max(worst, abs(a - c) / scale, abs(b - c) / scale)
    _verdict(
        4,
        "zero-extended coefficients equal zero-padded roots up to M = 4x width "
        "(1e-12 rel)",
        worst <= 1e-12,
        f"worst rel diff {worst:.2e}",
    )


# --- 5: modulus law and diagonal collapse -----------------------------------

def test_criterion_05_transform_laws():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(10_000):
        u = rng.uniform(-5.0, 5.0)
        v = u + rng.uniform(1e-9, 5.0)
        expected = (v - u) / math.sqrt(2.0)
        for kind in ("S", "T"):
            worst = max(worst, abs(abs(transform_point(kind, u, v)) - expected))
    collapse_ok = all(
        transform_point(kind, u, u) == 0j
        for kind in ("S", "T")
        for u in (-3.5, 0.0, 1e-7, 2.25, 1e300)
    ) and transform_point("S", 0.0, 0.0) == 0j
    _verdict(
        5,
        "|S| and |T| equal gap/sqrt(2) on 10^4 points (1e-12); diagonal maps to 0 "
        "exactly",
        worst <= 1e-12 and collapse_ok,
        f"worst modulus diff {worst:.2e}, exact diagonal collapse: {collapse_ok}",
    )


# --- 6: metric axioms --------------------------------------------------------

def test_criterion_06_metric_axioms():
    rng = random.Random(6)
    k, m = 5, 9

    def vec():
        return CoefficientVector(
            tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(k)), m
        )

    bad = 0
    for _ in range(10_000):
        a, b, c = vec(), vec(), vec()
        for kind in ("d1", "d2", "d3"):
            ab = coefficient_distance(a, b, kind)
            if coefficient_distance(a, a, kind) != 0.0:
                bad += 1
            if ab != coefficient_distance(b, a, kind):
                bad += 1
            if coefficient_distance(a, c, kind) > ab + coefficient_distance(b, c, kind) + 1e-12:
                bad += 1

    bn_bad = 0
    for _ in range(200):
        da, db_, dc = (_small_diagram(rng, 4) for _ in range(3))
        ab = bottleneck_distance(da, db_)
        if abs(ab - bottleneck_distance(db_, da)) > 1e-12:
            bn_bad += 1
        if bottleneck_distance(da, dc) > ab + bottleneck_distance(db_, dc) + 1e-12:
            bn_bad += 1
        if bottleneck_distance(da, da) != 0.0:
            bn_bad += 1
    _verdict(
        6,
        "d1/d2/d3 axioms on 10^4 triples and bottleneck symmetry/triangle on 200 "
        "triples (slack 1e-12)",
        bad == 0 and bn_bad == 0,
        f"coefficient violations {bad}, bottleneck violations {bn_bad}",
    )


# --- 7: continuity of coefficients under jitter ------------------------------

def test_criterion_07_continuity_probe():
    rng = random.Random(77)
    n = 8
    base_pairs = []
    for _ in range(n):
        b = rng.uniform(0.0, 2.0)
        base_pairs.append((b, b + rng.uniform(0.3, 1.2)))
    base_vec = embed_diagram(PersistenceDiagram.from_pairs(base_pairs), "R", n, count=n)

    def jittered_vec(dirs, scale):
        pairs = [
            (b + dx * scale, d + dy * scale)
            for (b, d), (dx, dy) in zip(base_pairs, dirs)
        ]
        return embed_diagram(PersistenceDiagram.from_pairs(pairs), "R", n, count=n)

    bound_breaks = 0
    shrink_ok = True
    shrink_counts = []
    for delta in (1e-2, 1e-3, 1e-4):
        closer = 0
        for _ in range(200):
            dirs = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            coarse = jittered_vec(dirs, delta)
            if abs(coarse.coefficients[0] - base_vec.coefficients[0]) > n * delta * math.sqrt(2):
                bound_breaks += 1
            fine = jittered_vec(dirs, delta / 10.0)
            if coefficient_distance(base_vec, fine, "d1") < coefficient_distance(
                base_vec, coarse, "d1"
            ):
                closer += 1
        shrink_counts.append(closer)
        if closer < 190:  # 95% of 200
            shrink_ok = False
    _verdict(
        7,
        "jitter <= delta moves c1 by <= M*delta*sqrt(2) and d1 shrinks with "
        "delta/10 on >=95% of trials",
        bound_breaks == 0 and shrink_ok,
        f"bound breaks {bound_breaks}, closer-at-delta/10 counts {shrink_counts}/200",
    )


# --- 8: precision/recall protocol sanity -------------------------------------

def test_criterion_08_pr_protocol_sanity():
    # perfect ranking: members of the query's class strictly closest
    ids = tuple(f"m{i:02d}" for i in range(12))
    labels = {f"m{i:02d}": f"c{i // 4}" for i in range(12)}
    values = [[0.0] * 12 for _ in range(12)]
    for i in range(12):
        for j in range(i + 1, 12):
            close = labels[ids[i]] == labels[ids[j]]
            d = 0.01 * (j - i) if close else 10.0 + i + j
            values[i][j] = values[j][i] = d
    table = pr_curve(DistanceMatrix(ids, values), labels)
    perfect_ok = bool(table.rows) and all(p == 1.0 for _, p in table.rows)

    # random matrices: 12 classes x 19 members, 20 seeds
    n = 228
    rids = tuple(f"r{i:03d}" for i in range(n))
    rlabels = {f"r{i:03d}": f"k{i // 19:02d}" for i in range(n)}
    per_seed = []
    for seed in range(20):
        rng = random.Random(1000 + seed)
        vals = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d = rng.uniform(0.0, 1.0)
                vals[i][j] = vals[j][i] = d
        rt = pr_curve(DistanceMatrix(rids, vals), rlabels)
        per_seed.append(statistics.fmean(p for _, p in rt.rows))
    grand = statistics.fmean(per_seed)
    sigma = statistics.stdev(per_seed)
    target = 18.0 / 227.0
    random_ok = abs(grand - target) <= 3.0 * sigma
    _verdict(
        8,
        "perfect ranking gives precision 1.0 everywhere; random-matrix mean "
        "precision within 3 sigma of 18/227",
        perfect_ok and random_ok,
        f"perfect half: {perfect_ok}; random half: grand mean {grand:.5f} vs "
        f"target {target:.5f}, gap {abs(grand - target):.5f}, 3*sigma {3 * sigma:.5f}",
    )


# --- 9: two-stage retrieval at full depth ------------------------------------

def test_criterion_09_two_stage_matches_pure_bottleneck():
    db = embed_database(synthetic_database(3, 20, seed=12), "T")
    ids = db.ids
    mismatched = []
    for query_id in ("c00m00", "c01m07", "c02m19"):
        ranking = two_stage_query(query_id, db, "T", "d1", len(ids) - 1)
        q = db.entry(query_id).diagram
        oracle = sorted(
            (i for i in ids if i != query_id),
            key=lambda i: (bottleneck_distance(q, db.entry(i).diagram), i),
        )
        if ranking != oracle:
            mismatched.append(query_id)
    _verdict(
        9,
        "candidates = N-1 two-stage ranking equals pure bottleneck ranking on a "
        "60-model database (exact)",
        not mismatched,
        f"mismatched queries: {mismatched}" if mismatched else "3 queries exact",
    )


# --- 10: cost scaling ---------------------------------------------------------

def _best_time(fn, reps, rounds=5):
    best = math.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def test_criterion_10_scaling():
    rng = random.Random(1010)
    content = [complex(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)) for _ in range(400)]

    def padded(m):
        return content + [0j] * (m - len(content))

    r512, r1024 = padded(512), padded(1024)
    # best of 5 rounds each, alternating the two widths round by round, so
    # a slow spell on the host falls on both sides of the ratio
    t512 = t1024 = math.inf
    for _ in range(5):
        t512 = min(t512, _best_time(lambda: elementary_symmetric(r512, 8), reps=20, rounds=1))
        t1024 = min(t1024, _best_time(lambda: elementary_symmetric(r1024, 8), reps=20, rounds=1))
    ratio = t1024 / t512
    grows_linearly = ratio <= 1.6

    def diag60():
        pts = []
        for _ in range(60):
            b = rng.uniform(0.0, 3.0)
            pts.append((b, b + rng.uniform(0.05, 2.0)))
        return PersistenceDiagram.from_pairs(pts)

    da, db_ = diag60(), diag60()
    t_bottleneck = _best_time(lambda: bottleneck_distance(da, db_), reps=1, rounds=3)
    va = embed_diagram(da, "R", 60, count=8)
    vb = embed_diagram(db_, "R", 60, count=8)
    t_coeff = _best_time(lambda: coefficient_distance(va, vb, "d1"), reps=2000, rounds=3)
    value = bottleneck_distance(da, db_)
    gap_ok = math.isfinite(value) and value > 0.0 and t_bottleneck >= 10.0 * t_coeff
    _verdict(
        10,
        "k=8 coefficient cost grows <=1.6x when the padded width doubles 512->1024; "
        "bottleneck on 60-point diagrams is >=10x slower than a k=8 comparison",
        grows_linearly and gap_ok,
        f"width-doubling ratio {ratio:.2f}; bottleneck {t_bottleneck * 1e3:.2f}ms vs "
        f"coefficient {t_coeff * 1e6:.2f}us ({t_bottleneck / t_coeff:.0f}x)",
    )

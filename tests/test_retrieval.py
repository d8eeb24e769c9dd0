import math
import random
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persvec.retrieval as retrieval
from persvec.coefficients import CoefficientVector
from persvec.diagram import PersistenceDiagram
from persvec.metrics import COEFFICIENT_METRICS, bottleneck_distance, coefficient_distance
from persvec.retrieval import (
    DatabaseEntry,
    DistanceMatrix,
    LabeledDatabase,
    PRTable,
    database_labels,
    distance_matrix,
    embed_database,
    parse_index,
    parse_labels,
    parse_matrix,
    parse_pr_table,
    pr_curve,
    serialize_index,
    serialize_labels,
    serialize_matrix,
    serialize_pr_table,
    synthetic_database,
    two_stage_query,
)


def diagram_db(diagrams, labels=None):
    entries = []
    for i, d in enumerate(diagrams):
        label = labels[i] if labels else "x"
        entries.append(DatabaseEntry(f"m{i:02d}", label, d))
    return LabeledDatabase(tuple(entries))


def random_diagrams(rng, n, max_points=5):
    out = []
    for _ in range(n):
        pts = []
        for _ in range(rng.randrange(1, max_points + 1)):
            b = rng.uniform(0, 1)
            pts.append((b, b + rng.uniform(0.05, 1)))
        out.append(PersistenceDiagram.from_pairs(pts))
    return out


# ----------------------------------------------------------------- types


def test_database_validation():
    d = PersistenceDiagram.from_pairs([(0, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        LabeledDatabase((DatabaseEntry("a", "x", d), DatabaseEntry("a", "y", d)))
    with pytest.raises(ValueError, match="commas"):
        DatabaseEntry("a,b", "x", d)
    with pytest.raises(ValueError, match="unknown transform"):
        DatabaseEntry("a", "x", d, {"Q": CoefficientVector((1j,), width=2)})
    with pytest.raises(ValueError, match="inconsistent"):
        LabeledDatabase(
            (
                DatabaseEntry("a", "x", d, {"R": CoefficientVector((1j,), width=2)}),
                DatabaseEntry("b", "x", d, {"R": CoefficientVector((1j, 2j), width=2)}),
            )
        )
    db = LabeledDatabase((DatabaseEntry("a", "x", d),))
    assert db.entry("a").label == "x"
    with pytest.raises(ValueError, match="unknown model id"):
        db.entry("zzz")


def test_distance_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        DistanceMatrix(("a", "b"), np.array([[0, 1], [2, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        DistanceMatrix(("a", "b"), np.array([[1, 2], [2, 0.0]]))
    with pytest.raises(ValueError, match="non-negative"):
        DistanceMatrix(("a", "b"), np.array([[0, -1], [-1, 0.0]]))
    with pytest.raises(ValueError, match="duplicate"):
        DistanceMatrix(("a", "a"), np.zeros((2, 2)))


def test_pr_table_validation():
    PRTable(((0.5, 1.0), (1.0, 0.25)))
    with pytest.raises(ValueError):
        PRTable(((0.5, 1.0), (0.5, 0.5)))  # not increasing
    with pytest.raises(ValueError):
        PRTable(((1.5, 0.5),))
    with pytest.raises(ValueError):
        PRTable(((0.5, 1.5),))


# ------------------------------------------------------------- embedding


def test_embed_database_uses_largest_diagram():
    diagrams = [
        PersistenceDiagram.from_pairs([(0, 1)]),
        PersistenceDiagram.from_pairs([(0, 1), (0.2, 0.9), (0.1, 1.1, 7)]),
    ]
    db = embed_database(diagram_db(diagrams), "S")
    widths = {e.vectors["S"].width for e in db.entries}
    assert widths == {9}
    counts = {e.vectors["S"].count for e in db.entries}
    assert counts == {3}  # floor(sqrt(9))


def test_embed_database_errors():
    with pytest.raises(ValueError, match="empty database"):
        embed_database(LabeledDatabase(), "R")
    with pytest.raises(ValueError, match="no diagram"):
        embed_database(LabeledDatabase((DatabaseEntry("a", "x"),)), "R")
    empty = diagram_db([PersistenceDiagram()])
    with pytest.raises(ValueError, match="empty"):
        embed_database(empty, "R")
    with pytest.raises(ValueError, match="unknown transform"):
        embed_database(diagram_db(random_diagrams(random.Random(0), 2)), "Z")


# -------------------------------------------------------- distance matrix


def test_distance_matrix_single_entry():
    db = diagram_db([PersistenceDiagram.from_pairs([(0, 1)])])
    mat = distance_matrix(db, "bottleneck")
    assert mat.values.shape == (1, 1)
    assert mat.values[0, 0] == 0.0


def test_distance_matrix_identical_diagrams():
    d = PersistenceDiagram.from_pairs([(0, 1), (0.5, 2)])
    db = embed_database(diagram_db([d, d]), "R")
    assert distance_matrix(db, "bottleneck").values[0, 1] == 0.0
    assert distance_matrix(db, "d1", transform="R").values[0, 1] == 0.0


def test_distance_matrix_matches_cellwise_recomputation():
    rng = random.Random(3)
    diagrams = random_diagrams(rng, 5)
    db = embed_database(diagram_db(diagrams), "T")
    bmat = distance_matrix(db, "bottleneck")
    for i in range(5):
        for j in range(5):
            want = bottleneck_distance(diagrams[i], diagrams[j])
            assert abs(bmat.values[i, j] - want) <= 1e-12
    cmat = distance_matrix(db, "d2", transform="T")
    vecs = [e.vectors["T"] for e in db.entries]
    for i in range(5):
        for j in range(i + 1, 5):
            want = coefficient_distance(vecs[i], vecs[j], "d2")
            assert cmat.values[i, j] == want


# a zero, or a mantissa in [1, 10) times 10**-30 .. 10**30, either sign
component = st.just(0.0) | st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from((1.0, -1.0)),
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-30, 30),
)


@st.composite
def coefficient_rows(draw):
    """2-6 rows of k <= 5 complex coefficients, plus an optional truncation count."""
    k = draw(st.integers(1, 5))
    row = st.lists(st.builds(complex, component, component), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=2, max_size=6))
    return rows, draw(st.none() | st.integers(1, k))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(coefficient_rows())
def test_coefficient_matrix_equals_coefficient_distance(case):
    rows, count = case
    width = len(rows[0]) + 1
    db = LabeledDatabase(
        tuple(
            DatabaseEntry(f"m{i}", "x", None, {"R": CoefficientVector(tuple(r), width)})
            for i, r in enumerate(rows)
        )
    )
    vecs = [e.vectors["R"] for e in db.entries]
    if count is not None:
        vecs = [v.truncate(count) for v in vecs]
    for kind in COEFFICIENT_METRICS:
        values = distance_matrix(db, kind, transform="R", count=count).values
        for i, a in enumerate(vecs):
            for j, b in enumerate(vecs):
                want = 0.0 if i == j else coefficient_distance(a, b, kind)
                assert values[i, j] == want, (kind, i, j)


def test_distance_matrix_parallel_matches_sequential():
    rng = random.Random(11)
    diagrams = random_diagrams(rng, 6, max_points=4)
    db = embed_database(diagram_db(diagrams), "S")
    for metric, transform in (("bottleneck", None), ("d3", "S")):
        seq = distance_matrix(db, metric, transform=transform, threads=1)
        par = distance_matrix(db, metric, transform=transform, threads=3)
        assert np.array_equal(seq.values, par.values)


def test_distance_matrix_caps_workers_at_cpu_count(monkeypatch):
    requested = []

    class InlinePool:
        """Records the requested worker count and runs every task in-process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(retrieval, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(retrieval.os, "cpu_count", lambda: 2)
    db = diagram_db(random_diagrams(random.Random(13), 6, max_points=4))
    seq = distance_matrix(db, "bottleneck", threads=1)
    par = distance_matrix(db, "bottleneck", threads=10**6)
    assert requested == [2]
    assert np.array_equal(seq.values, par.values)
    # an unknown CPU count runs serially
    monkeypatch.setattr(retrieval.os, "cpu_count", lambda: None)
    assert np.array_equal(distance_matrix(db, "bottleneck", threads=10**6).values, seq.values)
    assert requested == [2]


def test_distance_matrix_errors():
    db = diagram_db(random_diagrams(random.Random(5), 3))
    with pytest.raises(ValueError, match="embedding"):
        distance_matrix(db, "d1", transform="R")  # never embedded
    with pytest.raises(ValueError, match="transform"):
        distance_matrix(db, "bottleneck", transform="R")
    with pytest.raises(ValueError, match="needs a transform"):
        distance_matrix(db, "d1")
    with pytest.raises(ValueError, match="unknown metric"):
        distance_matrix(db, "euclid")
    with pytest.raises(ValueError, match="threads"):
        distance_matrix(db, "bottleneck", threads=0)


# -------------------------------------------------------------------- PR


def perfect_matrix():
    # two classes of three; same-class pairs strictly closer
    ids = ("a0", "a1", "a2", "b0", "b1", "b2")
    values = np.full((6, 6), 10.0)
    for i in range(6):
        values[i, i] = 0.0
    for block in (range(0, 3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    values[i, j] = 1.0
    labels = {i: i[0] for i in ids}
    return DistanceMatrix(ids, values), labels


def test_pr_curve_perfect_ranking():
    matrix, labels = perfect_matrix()
    table = pr_curve(matrix, labels)
    assert [r for r, _ in table.rows] == [0.5, 1.0]
    assert all(p == 1.0 for _, p in table.rows)


def test_pr_curve_adversarial_ties():
    # all distances equal; ties resolve by ascending id, so for query
    # "a" its class partner "z" sits at the very end of the ranking
    ids = ("a", "b", "c", "z")
    values = np.ones((4, 4)) - np.eye(4)
    labels = {"a": "x", "z": "x", "b": "y", "c": "y"}
    table = pr_curve(DistanceMatrix(ids, values), labels)
    assert len(table.rows) == 1
    recall, precision = table.rows[0]
    assert recall == 1.0
    # per query: a -> 1/3 (worst case, R/(N-1)), z -> 1, b -> 1/2, c -> 1/2
    assert abs(precision - 7 / 12) < 1e-15


def test_pr_curve_label_renaming_invariant():
    matrix, labels = perfect_matrix()
    renamed = {k: v + "_renamed" for k, v in labels.items()}
    assert pr_curve(matrix, labels) == pr_curve(matrix, renamed)


def test_pr_curve_order_permutation_invariant():
    rng = random.Random(23)
    ids = tuple(f"m{i}" for i in range(8))
    raw = np.zeros((8, 8))
    for i in range(8):
        for j in range(i + 1, 8):
            raw[i, j] = raw[j, i] = rng.uniform(0.1, 2)
    labels = {mid: ("even" if int(mid[1:]) % 2 == 0 else "odd") for mid in ids}
    base = pr_curve(DistanceMatrix(ids, raw), labels)
    perm = list(range(8))
    rng.shuffle(perm)
    pids = tuple(ids[p] for p in perm)
    pvals = raw[np.ix_(perm, perm)]
    assert pr_curve(DistanceMatrix(pids, pvals), labels) == base


def sort_based_pr(matrix, labels):
    """The precision/recall protocol with one Python sort per query: pr_curve's reference."""
    ids = matrix.ids
    class_sizes = Counter(labels[mid] for mid in ids)
    grid = max(class_sizes.values()) - 1
    n = len(ids)
    per_query = {}
    for qi in range(n):
        qclass = labels[ids[qi]]
        order = sorted(
            (x for x in range(n) if x != qi),
            key=lambda x: (matrix.values[qi, x], ids[x]),
        )
        relevant = class_sizes[qclass] - 1
        precisions = []
        hits = 0
        for rank, x in enumerate(order, start=1):
            if labels[ids[x]] == qclass:
                hits += 1
                precisions.append(hits / rank)
                if hits == relevant:
                    break
        for t in range(relevant - 2, -1, -1):
            precisions[t] = max(precisions[t], precisions[t + 1])
        per_query[ids[qi]] = [
            precisions[-((-i * relevant) // grid) - 1] for i in range(1, grid + 1)
        ]
    rows = []
    for i in range(grid):
        # left to right: the builtin sum() compensates from Python 3.12 on
        total = 0.0
        for q in sorted(per_query):
            total += per_query[q][i]
        rows.append(((i + 1) / grid, total / n))
    return PRTable(tuple(rows))


def test_pr_curve_matches_sort_based_protocol():
    # Three distances (zero in both signs) make ties everywhere; ids run
    # past m9, so string order (m10 < m9) differs from numeric order.
    rng = random.Random(59)
    for _ in range(25):
        sizes = [rng.randint(2, 7) for _ in range(rng.randint(2, 5))]
        n = sum(sizes)
        ids = [f"m{i}" for i in range(n)]
        rng.shuffle(ids)
        classes = [f"k{c}" for c, size in enumerate(sizes) for _ in range(size)]
        labels = dict(zip(ids, classes))
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = rng.choice((0.0, -0.0, 0.5, 1.0))
        matrix = DistanceMatrix(tuple(ids), values)
        assert pr_curve(matrix, labels) == sort_based_pr(matrix, labels)


def test_pr_curve_errors():
    matrix, labels = perfect_matrix()
    with pytest.raises(ValueError, match="label"):
        pr_curve(matrix, {k: v for k, v in labels.items() if k != "a0"})
    with pytest.raises(ValueError, match="two classes"):
        pr_curve(matrix, {k: "same" for k in labels})
    lonely = dict(labels)
    lonely["a0"] = "lonely"
    with pytest.raises(ValueError, match="single member"):
        pr_curve(matrix, lonely)


# --------------------------------------------------------------- queries


def test_two_stage_query_full_candidates_is_pure_bottleneck():
    rng = random.Random(31)
    diagrams = random_diagrams(rng, 7, max_points=4)
    db = embed_database(diagram_db(diagrams), "S")
    qid = "m03"
    qd = diagrams[3]
    want = sorted(
        (e.model_id for e in db.entries if e.model_id != qid),
        key=lambda mid: (bottleneck_distance(qd, db.entry(mid).diagram), mid),
    )
    got = two_stage_query(qid, db, "S", "d1", candidates=len(db) - 1)
    assert got == want


def test_two_stage_query_single_candidate():
    rng = random.Random(37)
    diagrams = random_diagrams(rng, 6, max_points=4)
    db = embed_database(diagram_db(diagrams), "R")
    qvec = db.entry("m00").vectors["R"]
    nearest = min(
        (e for e in db.entries if e.model_id != "m00"),
        key=lambda e: (coefficient_distance(qvec, e.vectors["R"], "d2"), e.model_id),
    )
    got = two_stage_query("m00", db, "R", "d2", candidates=1)
    assert got[0] == nearest.model_id
    assert sorted(got) == sorted(e.model_id for e in db.entries if e.model_id != "m00")


def test_two_stage_query_errors():
    db = embed_database(diagram_db(random_diagrams(random.Random(41), 4)), "R")
    with pytest.raises(ValueError, match="unknown model id"):
        two_stage_query("nope", db, "R", "d1", candidates=1)
    with pytest.raises(ValueError, match="candidates"):
        two_stage_query("m00", db, "R", "d1", candidates=0)
    with pytest.raises(ValueError, match="candidates"):
        two_stage_query("m00", db, "R", "d1", candidates=4)
    with pytest.raises(ValueError, match="prefilter"):
        two_stage_query("m00", db, "R", "bottleneck", candidates=2)


# ------------------------------------------------------------- index file


def test_index_roundtrip_empty():
    text = serialize_index(LabeledDatabase(), kind="R")
    assert parse_index(text).entries == ()


def test_index_roundtrip_bit_exact():
    rng = random.Random(43)
    db = embed_database(diagram_db(random_diagrams(rng, 10)), "T")
    loaded = parse_index(serialize_index(db))
    assert loaded.ids == db.ids
    for a, b in zip(db.entries, loaded.entries):
        assert a.vectors["T"] == b.vectors["T"]
        assert b.diagram is None and b.label == ""


def test_index_parse_errors():
    good = 'm00,R,4,2,1.0,0.5,0.25,0.125'
    with pytest.raises(ValueError, match="header"):
        parse_index(good + "\n")
    header = "# coefficient-index v1\n"
    with pytest.raises(ValueError, match="header"):
        parse_index("# coefficient-index v2\n" + good + "\n")
    with pytest.raises(ValueError, match="mixed"):
        parse_index(header + good + "\nm01,R,4,1,1.0,0.5\n")
    with pytest.raises(ValueError, match="coefficient fields"):
        parse_index(header + "m00,R,4,2,1.0,0.5\n")
    with pytest.raises(ValueError, match="unknown transform"):
        parse_index(header + "m00,Q,4,2,1.0,0.5,0.25,0.125\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_index(header + "m00,R,4,2,1.0,abc,0.25,0.125\n")


def test_serialize_index_needs_unique_kind():
    d = PersistenceDiagram.from_pairs([(0, 1)])
    db = embed_database(embed_database(diagram_db([d, d]), "R"), "S")
    with pytest.raises(ValueError, match="specify"):
        serialize_index(db)
    assert "S" in serialize_index(db, kind="S").splitlines()[1]


# ------------------------------------------------------------ CSV formats


def test_matrix_csv_roundtrip():
    rng = random.Random(47)
    n = 4
    vals = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            vals[i, j] = vals[j, i] = rng.uniform(0, 3)
    mat = DistanceMatrix(tuple(f"m{i}" for i in range(n)), vals)
    again = parse_matrix(serialize_matrix(mat))
    assert again.ids == mat.ids
    assert np.array_equal(again.values, mat.values)


def test_matrix_csv_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError, match="rows"):
        parse_matrix("a,b\n0.0,1.0\n")
    with pytest.raises(ValueError, match="fields"):
        parse_matrix("a,b\n0.0,1.0\n1.0\n")
    with pytest.raises(ValueError, match="malformed value"):
        parse_matrix("a,b\n0.0,x\n1.0,0.0\n")


def test_matrix_csv_is_per_cell_repr():
    tiny, sum_, huge = 5e-324, 0.1 + 0.2, 1e300
    values = np.array([[0.0, tiny, sum_], [tiny, 0.0, huge], [sum_, huge, 0.0]])
    text = serialize_matrix(DistanceMatrix(("a", "b", "c"), values))
    assert text == (
        "a,b,c\n"
        "0.0,5e-324,0.30000000000000004\n"
        "5e-324,0.0,1e+300\n"
        "0.30000000000000004,1e+300,0.0\n"
    )
    assert text.splitlines()[1:] == [",".join(repr(float(x)) for x in row) for row in values]
    assert np.array_equal(parse_matrix(text).values, values)


def test_pr_csv_roundtrip():
    table = PRTable(((0.25, 1.0), (0.5, 0.75), (1.0, 0.5)))
    assert parse_pr_table(serialize_pr_table(table)) == table
    with pytest.raises(ValueError, match="header"):
        parse_pr_table("0.5,1.0\n")


def test_labels_csv_roundtrip():
    labels = {"m00": "cat", "m01": "dog", "m02": "cat"}
    assert parse_labels(serialize_labels(labels)) == labels
    with pytest.raises(ValueError, match="header"):
        parse_labels("m00,cat\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_labels("id,class\nm00,cat\nm00,dog\n")


# --------------------------------------------------------------- synthetic


def test_synthetic_database_shape_and_determinism():
    db = synthetic_database(3, 4, base_points=5, noise_points=2, seed=99)
    assert len(db) == 12
    assert db.ids[0] == "c00m00" and db.ids[-1] == "c02m03"
    labels = database_labels(db)
    assert labels["c01m02"] == "class01"
    sizes = {e.diagram.total_multiplicity() for e in db.entries}
    assert sizes == {7}  # 5 template + 2 noise points
    again = synthetic_database(3, 4, base_points=5, noise_points=2, seed=99)
    assert [e.diagram for e in db.entries] == [e.diagram for e in again.entries]
    other = synthetic_database(3, 4, base_points=5, noise_points=2, seed=100)
    assert [e.diagram for e in db.entries] != [e.diagram for e in other.entries]


def test_synthetic_database_validation():
    with pytest.raises(ValueError):
        synthetic_database(0, 4)
    with pytest.raises(ValueError):
        synthetic_database(2, 2, jitter=-0.1)

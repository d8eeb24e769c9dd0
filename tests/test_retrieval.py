import math
import random
import tracemalloc
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persvec.coefficients as coefficients
import persvec.retrieval as retrieval
from persvec.coefficients import (
    CoefficientVector,
    default_coefficient_count,
    embed_diagram,
    embed_diagrams,
    embed_roots,
)
from persvec.diagram import PersistenceDiagram
from persvec.mesh import MeshFrame
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
from persvec.transforms import TRANSFORMS, transform_diagram


def diagram_db(diagrams, labels=None):
    entries = []
    for i, d in enumerate(diagrams):
        label = labels[i] if labels else "x"
        entries.append(DatabaseEntry(f"m{i:02d}", label, d))
    return LabeledDatabase(tuple(entries))


def truncated(db, transform, count):
    """``db`` with every ``transform`` vector cut to its first ``count`` coefficients."""
    return LabeledDatabase(tuple(
        DatabaseEntry(e.model_id, e.label, e.diagram, {transform: e.vectors[transform].truncate(count)})
        for e in db.entries
    ))


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
    with pytest.raises(ValueError, match=r"^inconsistent 'R' embeddings, mixed \(width, count\) "
                                         r"shapes \(2, 1\) vs \(2, 2\)$"):
        LabeledDatabase(
            (
                DatabaseEntry("a", "x", d, {"R": CoefficientVector((1j,), width=2)}),
                DatabaseEntry("b", "x", d, {"R": CoefficientVector((1j, 2j), width=2)}),
            )
        )
    db = LabeledDatabase((DatabaseEntry("a", "x", d), DatabaseEntry("b", "y", d)))
    assert db.entry("a").label == "x"
    assert (db.position("a"), db.position("b")) == (0, 1)
    with pytest.raises(ValueError, match="unknown model id"):
        db.entry("zzz")
    with pytest.raises(ValueError, match="unknown model id"):
        db.position("zzz")


def test_distance_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        DistanceMatrix(("a", "b"), np.array([[0, 1], [2, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        DistanceMatrix(("a", "b"), np.array([[1, 2], [2, 0.0]]))
    with pytest.raises(ValueError, match="non-negative"):
        DistanceMatrix(("a", "b"), np.array([[0, -1], [-1, 0.0]]))
    with pytest.raises(ValueError, match="duplicate"):
        DistanceMatrix(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^expected a 2x2 matrix, got shape \(2, 3\)$"):
        DistanceMatrix(("a", "b"), np.zeros((2, 3)))


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


def test_distance_matrix_and_mesh_frame_hold_read_only_views():
    d = PersistenceDiagram.from_pairs([(0, 1)])
    matrix = distance_matrix(embed_database(diagram_db([d, d]), "R"), "d1", transform="R")
    with pytest.raises(ValueError, match="read-only"):
        matrix.values[0, 1] = -1.0
    center, axis = np.zeros(3), np.array([0, 0, 1.0])
    frame = MeshFrame(center, axis)
    for held in (frame.center, frame.axis):
        with pytest.raises(ValueError, match="read-only"):
            held[2] = 5.0
    values = np.zeros((1, 1))
    assert np.shares_memory(DistanceMatrix(("a",), values).values, values)  # a view, not a copy
    assert values.flags.writeable and center.flags.writeable and axis.flags.writeable


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
    if count is not None:
        db = truncated(db, "R", count)
    vecs = [e.vectors["R"] for e in db.entries]
    for kind in COEFFICIENT_METRICS:
        values = distance_matrix(db, kind, transform="R").values
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


def test_each_diagram_is_expanded_once_per_process(monkeypatch):
    # The bottleneck reads each diagram's points, repeated by multiplicity,
    # from columns built on its first comparison: repeated queries, a
    # query compared with itself and a matrix row block expand no diagram
    # twice.
    db = embed_database(synthetic_database(4, 5, noise_points=10, seed=4), "T")
    diagrams = [entry.diagram for entry in db.entries]
    expanded = Counter()
    repeat = np.repeat

    def spy(values, *args, **kwargs):
        expanded[id(values)] += 1
        return repeat(values, *args, **kwargs)

    monkeypatch.setattr(np, "repeat", spy)
    for qid in db.ids * 2:
        two_stage_query(qid, db, "T", "d1", 5)
    assert bottleneck_distance(diagrams[0], diagrams[0]) == 0.0
    retrieval._upper_rows(diagrams, range(len(diagrams) - 1))
    assert all(expanded[id(d.births)] == expanded[id(d.deaths)] == 1 for d in diagrams)
    assert sum(expanded.values()) == 2 * len(diagrams)


def test_bottleneck_matrix_memory_peak_per_cell(monkeypatch):
    # The matrix is 16 bytes per upper-triangle cell and its rows 8 more.  A
    # list of pairs or of (i, j, d) cells costs far more per cell.  The distance
    # itself allocates only while it runs, and 79,800 pairs of it under
    # tracemalloc take about 20 s on a 2-CPU x86-64 host, so a stand-in gives
    # each pair its value.
    rng = random.Random(400)
    births = [rng.uniform(0, 1) for _ in range(400)]
    db = diagram_db([PersistenceDiagram.from_pairs([(b, b + 0.5)]) for b in births])
    monkeypatch.setattr(retrieval, "bottleneck_distance",
                        lambda a, b: abs(float(a.births[0]) - float(b.births[0])))
    cells = 400 * 399 // 2
    tracemalloc.start()
    try:
        values = distance_matrix(db, "bottleneck").values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values[3, 7] == values[7, 3] == abs(births[3] - births[7])
    assert peak < 64 * cells, peak / cells


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
    with pytest.raises(ValueError, match="^cannot build a distance matrix for an empty database$"):
        distance_matrix(LabeledDatabase(), "bottleneck")


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


def pr_case(rng, sizes, cell):
    """A matrix with ``cell(i, j)`` above the diagonal over shuffled ids
    m0, m1, ... (past m9 string order differs from numeric order), and
    labels for classes of ``sizes``."""
    n = sum(sizes)
    ids = [f"m{i}" for i in range(n)]
    rng.shuffle(ids)
    classes = [f"k{c}" for c, size in enumerate(sizes) for _ in range(size)]
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = cell(i, j)
    return DistanceMatrix(tuple(ids), values), dict(zip(ids, classes))


def with_ties(rng, matrix):
    """``matrix`` with a few cells copied from others in their row, and one
    off-diagonal zero that ties with its rows' diagonal; other rows stay tie-free."""
    values, n = matrix.values.copy(), len(matrix.ids)
    for _ in range(rng.randint(1, 3)):
        i, j, k = rng.sample(range(n), 3)
        values[i, j] = values[j, i] = values[i, k]
    i, j = rng.sample(range(n), 2)
    values[i, j] = values[j, i] = rng.choice((0.0, -0.0))
    return DistanceMatrix(matrix.ids, values)


def tied_rows(matrix):
    ranked = np.sort(matrix.values, axis=1)
    return int((ranked[:, 1:] == ranked[:, :-1]).any(axis=1).sum())


def test_pr_curve_matches_sort_based_protocol(monkeypatch):
    rng = random.Random(59)
    ranked = []
    real_ranked = retrieval._ranked

    def counted(distances, id_rank):
        ranked.append(len(distances))
        return real_ranked(distances, id_rank)

    monkeypatch.setattr(retrieval, "_ranked", counted)

    def check(matrix, labels):
        ranked.clear()
        assert pr_curve(matrix, labels) == sort_based_pr(matrix, labels)
        assert len(ranked) == tied_rows(matrix)  # only rows with ties take the lexsort

    for _ in range(25):
        sizes = [rng.randint(2, 7) for _ in range(rng.randint(2, 5))]
        # three distances (zero in both signs) make ties everywhere
        check(*pr_case(rng, sizes, lambda i, j: rng.choice((0.0, -0.0, 0.5, 1.0))))
        # distinct distances: every row has one ascending order
        matrix, labels = pr_case(rng, sizes, lambda i, j: rng.uniform(0.1, 2.0))
        assert tied_rows(matrix) == 0
        check(matrix, labels)
        # tied rows next to tie-free ones
        mixed = with_ties(rng, matrix)
        assert 0 < tied_rows(mixed) < len(mixed.ids)
        check(mixed, labels)
    # query rows in blocks of one to three, the last block ragged
    matrix, labels = pr_case(rng, [2, 3, 40, 31, 75], lambda i, j: rng.uniform(0.1, 2.0))
    matrix = with_ties(rng, matrix)
    n = len(matrix.ids)
    for budget in (n - 1, 2 * n, 3 * n + 2):
        monkeypatch.setattr(coefficients, "_BLOCK_ELEMENTS", budget)
        check(matrix, labels)


def test_pr_curve_memory_peak():
    # the rows are ranked in blocks of at most _BLOCK_ELEMENTS cells, so the
    # sort's temporaries never grow to several N x N arrays (8 MB each here)
    rng = np.random.default_rng(1000)
    upper = np.triu(rng.uniform(0.1, 2.0, (1000, 1000)), 1)
    ids = tuple(f"m{i}" for i in range(1000))
    matrix = DistanceMatrix(ids, upper + upper.T)
    labels = {mid: f"k{i % 20}" for i, mid in enumerate(ids)}
    tracemalloc.start()
    try:
        table = pr_curve(matrix, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 49
    assert peak < 4 * 2**20, peak


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


def sort_based_two_stage(query_id, db, transform, kind, candidates):
    """The two-stage protocol as two Python sorts: two_stage_query's reference."""
    query = db.entry(query_id)
    others = sorted(
        (e for e in db.entries if e.model_id != query_id),
        key=lambda e: (coefficient_distance(query.vectors[transform], e.vectors[transform], kind),
                       e.model_id),
    )
    head = sorted(
        others[:candidates],
        key=lambda e: (bottleneck_distance(query.diagram, e.diagram), e.model_id),
    )
    return [e.model_id for e in head + others[candidates:]]


def test_two_stage_query_matches_sort_based_protocol():
    # Repeated diagrams tie both stages; ids run past m9 in shuffled order,
    # so string order (m10 < m9) differs from numeric and database order.
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(3, 16)
        distinct = random_diagrams(rng, rng.randint(1, n), max_points=16)
        ids = [f"m{i}" for i in range(n)]
        rng.shuffle(ids)
        transform = rng.choice(sorted(TRANSFORMS))
        db = embed_database(
            LabeledDatabase(
                tuple(DatabaseEntry(mid, "x", rng.choice(distinct)) for mid in ids)
            ),
            transform,
        )
        k = db.entries[0].vectors[transform].count
        for kind in COEFFICIENT_METRICS:
            for count in (k, rng.randint(1, k)):
                cut = truncated(db, transform, count)
                qid = rng.choice(ids)
                cands = rng.randint(1, n - 1)
                got = two_stage_query(qid, cut, transform, kind, cands)
                want = sort_based_two_stage(qid, cut, transform, kind, cands)
                assert got == want, (kind, count, qid, cands)


def test_a_smaller_count_is_the_exact_prefix_of_a_larger_one():
    # Embedding at k' and truncating an embedding at k give the same bits, so
    # distances and rankings at k' need no count option of their own.
    db = synthetic_database(5, 6, base_points=8, noise_points=20, seed=4)
    k = 9
    for transform in sorted(TRANSFORMS):
        full = embed_database(db, transform, k)
        for count in range(1, k + 1):
            small, cut = embed_database(db, transform, count), truncated(full, transform, count)
            assert [e.vectors for e in small.entries] == [e.vectors for e in cut.entries]
            for kind in COEFFICIENT_METRICS:
                a = distance_matrix(small, kind, transform=transform).values
                b = distance_matrix(cut, kind, transform=transform).values
                assert np.array_equal(a.view("i8"), b.view("i8")), (transform, count, kind)
                for qid in ("c00m00", "c03m04"):
                    assert (two_stage_query(qid, small, transform, kind, 3)
                            == two_stage_query(qid, cut, transform, kind, 3)), (transform, count, kind)


def test_database_builds_ids_ranks_and_stacked_vectors_once():
    db = embed_database(synthetic_database(6, 5, noise_points=10, seed=9), "T")
    assert db.ids is db.ids
    stacked = retrieval._stacked_vectors(db, "T")
    assert retrieval._stacked_vectors(db, "T") is stacked
    assert stacked.shape == (30, db.entries[0].vectors["T"].count)
    with pytest.raises(ValueError, match="read-only"):
        stacked[0, 0] = 0
    # a failure is not kept: every call looks again and names the same entry
    for _ in range(2):
        with pytest.raises(ValueError, match="^entry 'c00m00' has no 'S' embedding$"):
            retrieval._stacked_vectors(db, "S")


def test_two_stage_query_on_a_reused_database_matches_a_fresh_one():
    db = embed_database(embed_database(synthetic_database(6, 5, noise_points=10, seed=9), "T"), "S")
    rng = random.Random(23)
    for _ in range(20):
        qid, kind, cands = rng.choice(db.ids), rng.choice(COEFFICIENT_METRICS), rng.randint(1, 29)
        for transform in ("T", "S"):
            fresh = LabeledDatabase(db.entries)
            assert (two_stage_query(qid, db, transform, kind, cands)
                    == two_stage_query(qid, fresh, transform, kind, cands)), (qid, transform)


def test_two_stage_query_errors():
    db = embed_database(diagram_db(random_diagrams(random.Random(41), 4)), "R")
    with pytest.raises(ValueError, match="unknown model id"):
        two_stage_query("nope", db, "R", "d1", candidates=1)
    with pytest.raises(ValueError, match="candidates"):
        two_stage_query("m00", db, "R", "d1", candidates=0)
    with pytest.raises(ValueError, match="candidates"):
        two_stage_query("m00", db, "R", "d1", candidates=4)
    with pytest.raises(ValueError, match="^unknown metric 'bottleneck'"):
        two_stage_query("m00", db, "R", "bottleneck", candidates=2)


@pytest.mark.parametrize("kind", ["d4", "D1", "", "bottleneck"])
def test_every_entry_point_keeps_one_metric_kind_rule(kind):
    db = embed_database(diagram_db(random_diagrams(random.Random(8), 3)), "R")
    vec = db.entries[0].vectors["R"]
    calls = {
        "coefficient_distance": lambda: coefficient_distance(vec, vec, kind),
        "two_stage_query": lambda: two_stage_query("m00", db, "R", kind, candidates=1),
    }
    if kind != "bottleneck":  # which distance_matrix takes, on the diagrams
        calls["distance_matrix"] = lambda: distance_matrix(db, kind, transform="R")
        calls["distance_matrix, no transform"] = lambda: distance_matrix(db, kind)
    for name, call in calls.items():
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"unknown metric {kind!r}, expected one of ('d1', 'd2', 'd3')", name


@pytest.mark.parametrize("count", [0, 4])
@pytest.mark.parametrize(
    "entry",
    ["embed_roots", "embed_diagram", "embed_diagrams", "CoefficientVector", "truncate",
     "parse_index"],
)
def test_every_entry_point_keeps_one_count_rule(entry, count):
    d = PersistenceDiagram.from_pairs([(0, 1), (0.5, 2), (1, 3)])  # width 3
    db = embed_database(diagram_db([d, d]), "R", 3)  # every vector keeps all 3 coefficients
    row = ",".join(["a", "R", "3", str(count)] + ["0.5"] * (2 * count))
    call = {
        "embed_roots": lambda: embed_roots(transform_diagram(d, "R"), 3, count),
        "embed_diagram": lambda: embed_diagram(d, "R", 3, count),
        "embed_diagrams": lambda: embed_diagrams([d, d], "R", 3, count),
        "CoefficientVector": lambda: CoefficientVector((0.5j,) * count, 3),
        "truncate": lambda: db.entries[0].vectors["R"].truncate(count),
        "parse_index": lambda: parse_index(f"# coefficient-index v1\n{row}\n"),
    }[entry]
    with pytest.raises(ValueError) as exc:
        call()
    prefix = "line 2: " if entry == "parse_index" else ""
    assert str(exc.value) == f"{prefix}count must be between 1 and 3, got {count}"


@pytest.mark.parametrize(
    "width", [0, -2, 2.0, "2", True, np.True_, np.float64(2)],
    ids=["0", "-2", "float", "str", "True", "numpy True", "numpy float"],
)
def test_every_entry_point_keeps_one_width_rule(width):
    d = PersistenceDiagram.from_pairs([(0, 1)])
    calls = {
        "CoefficientVector": lambda: CoefficientVector((0.5j,), width),
        "default_coefficient_count": lambda: default_coefficient_count(width),
        "embed_roots": lambda: embed_roots(transform_diagram(d, "R"), width, 1),
        "embed_diagram": lambda: embed_diagram(d, "R", width),
        "embed_diagrams": lambda: embed_diagrams([d, d], "R", width),
    }
    shown = width.item() if isinstance(width, np.generic) else width
    for name, call in calls.items():
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"width must be a positive integer, got {shown!r}", name


def test_numpy_integer_widths_give_the_int_width_vectors():
    d = PersistenceDiagram.from_pairs([(0, 1), (0.5, 2)])
    for kind in TRANSFORMS:
        want = embed_diagram(d, kind, 2)
        for width in (np.int64(2), np.uint8(2)):
            assert embed_diagram(d, kind, width) == want
            assert embed_diagrams([d, d], kind, width) == [want, want]
            vec = CoefficientVector(want.coefficients, width)
            assert vec == want and type(vec.width) is int
    db = LabeledDatabase((DatabaseEntry("a", "", None, {"R": CoefficientVector((0.5j,), np.int64(2))}),))
    assert serialize_index(db, "R").splitlines()[1] == "a,R,2,1,0.0,0.5"


# ------------------------------------------------------------- index file


def test_index_roundtrip_empty():
    text = serialize_index(LabeledDatabase(), kind="R")
    assert parse_index(text).entries == ()


def test_index_roundtrip_bit_exact():
    rng = random.Random(43)
    db = embed_database(diagram_db(random_diagrams(rng, 10)), "T")
    loaded = parse_index(serialize_index(db, "T"))
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


@pytest.mark.parametrize(
    "rows, lineno, message",
    [
        (["a,R,3,0"], 2, "count must be between 1 and 3, got 0"),
        (["a,R,0,1,1.0,0.5"], 2, "width must be a positive integer, got 0"),
        (["a,R,3,1,inf,0.5"], 2, "coefficient 1 is not finite"),
        ([",R,3,1,1.0,0.5"], 2, "model id must not be empty"),
        (["a,R,3,1,1.0,0.5", "a,R,3,1,2.0,0.5"], 3, "duplicate model id 'a'"),
        (["a,R,3,1,1.0,0.5", "b,S,3,1,1.0,0.5"], 3, "mixed index kinds ['R', 'S']"),
    ],
)
def test_index_parse_errors_name_the_line(rows, lineno, message):
    with pytest.raises(ValueError) as exc:
        parse_index("# coefficient-index v1\n" + "\n".join(rows) + "\n")
    assert str(exc.value).startswith(f"line {lineno}: {message}")


def test_serialize_index_needs_unique_kind():
    d = PersistenceDiagram.from_pairs([(0, 1)])
    db = embed_database(embed_database(diagram_db([d, d]), "R"), "S")
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
    with pytest.raises(ValueError, match="^need at least one template point per class$"):
        synthetic_database(2, 2, base_points=0)
    with pytest.raises(ValueError, match="^noise_points must be non-negative$"):
        synthetic_database(2, 2, noise_points=-1)

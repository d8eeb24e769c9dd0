import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persvec.diagram as diagram_module
from persvec.diagram import (
    PersistenceDiagram,
    PersistencePoint,
    parse_diagram,
    serialize_diagram,
)
from persvec.mesh import TriangleMesh, mesh_zero_persistence
from persvec.metrics import bottleneck_distance
from persvec.retrieval import DatabaseEntry, LabeledDatabase, embed_database


def test_point_validation():
    p = PersistencePoint(0.0, 1.0)
    assert p.multiplicity == 1
    assert p.persistence == 1.0
    with pytest.raises(ValueError):
        PersistencePoint(1.0, 1.0)  # on the diagonal
    with pytest.raises(ValueError):
        PersistencePoint(2.0, 1.0)  # below the diagonal
    with pytest.raises(ValueError):
        PersistencePoint(0.0, math.inf)
    with pytest.raises(ValueError):
        PersistencePoint(math.nan, 1.0)
    with pytest.raises(ValueError):
        PersistencePoint(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        PersistencePoint(0.0, 1.0, -3)


def test_coincident_points_merge():
    d = PersistenceDiagram.from_pairs([(0, 1), (0, 2), (0, 1, 3)])
    assert d.points == (
        PersistencePoint(0.0, 1.0, 4),
        PersistencePoint(0.0, 2.0, 1),
    )
    assert d.total_multiplicity() == 5
    assert len(d) == 2


def test_merge_is_order_independent():
    pairs = [(0, 1, 2), (0.5, 3), (0, 2), (0, 1)]
    rng = random.Random(7)
    base = PersistenceDiagram.from_pairs(pairs)
    for _ in range(10):
        rng.shuffle(pairs)
        assert PersistenceDiagram.from_pairs(pairs) == base


def test_empty_diagram():
    d = PersistenceDiagram()
    assert len(d) == 0
    assert d.total_multiplicity() == 0
    assert d.essential_count == 0
    assert parse_diagram(serialize_diagram(d)) == d


def test_parse_basic():
    text = "# header\n0,1\n0.5,2.5,3\n\n# trailing comment\n"
    d = parse_diagram(text)
    assert d.points == (
        PersistencePoint(0.0, 1.0, 1),
        PersistencePoint(0.5, 2.5, 3),
    )
    assert d.essential_count == 0


def test_parse_merges_duplicate_rows():
    d = parse_diagram("0,1\n0,2\n0,1\n")
    assert d.points == (
        PersistencePoint(0.0, 1.0, 2),
        PersistencePoint(0.0, 2.0, 1),
    )


def test_parse_counts_essential_rows():
    d = parse_diagram("0,inf\n1,2\n0.5,inf,4\n")
    assert d.essential_count == 5
    assert d.points == (PersistencePoint(1.0, 2.0),)


def test_parse_errors():
    for bad in [
        "0\n",  # too few fields
        "0,1,2,3\n",  # too many fields
        "a,b\n",  # not numbers
        "0,1,x\n",  # bad multiplicity
        "0,1,0\n",  # zero multiplicity
        "0,1,-2\n",  # negative multiplicity
        "1,1\n",  # diagonal
        "3,1\n",  # below diagonal
        "inf,inf\n",  # non-finite birth
        "-inf,1\n",
        "nan,2\n",
        "0,-inf\n",  # death at minus infinity is not an essential class
        "0,nan\n",
    ]:
        with pytest.raises(ValueError):
            parse_diagram(bad)


def test_parse_error_reports_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_diagram("# ok\n0,1\n5,2\n")


def test_serialize_is_sorted_and_exact():
    d = PersistenceDiagram.from_pairs([(0.3, 0.7), (0.1, 0.9, 2)])
    text = serialize_diagram(d)
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert body == ["0.1,0.9,2", "0.3,0.7,1"]


def test_roundtrip_random_diagrams():
    # Round-trip must be bit-exact, including awkward floats and the
    # essential-class count.
    rng = random.Random(20240817)
    for _ in range(100):
        pts = []
        for _ in range(rng.randrange(0, 12)):
            b = rng.uniform(-5, 5)
            d = b + rng.uniform(1e-9, 7.0)
            pts.append((b, d, rng.randrange(1, 4)))
        diag = PersistenceDiagram.from_pairs(pts, essential_count=rng.randrange(0, 3))
        again = parse_diagram(serialize_diagram(diag))
        assert again == diag


def test_from_pairs_accepts_mixed_tuples():
    d = PersistenceDiagram.from_pairs([(0, 1), (2, 3, 2)], essential_count=1)
    assert d.total_multiplicity() == 3
    assert d.essential_count == 1


def test_negative_essential_count_rejected():
    with pytest.raises(ValueError):
        PersistenceDiagram((), essential_count=-1)


def test_fractional_multiplicity_rejected():
    with pytest.raises(ValueError, match="multiplicity"):
        PersistenceDiagram.from_pairs([(0, 1, 2.5)])
    with pytest.raises(ValueError, match="line 1: malformed multiplicity"):
        parse_diagram("0,1,2.5\n")
    d = PersistenceDiagram.from_pairs([(0, 1, 2.0), (0, 1, np.float32(3))])
    (point,) = d.points
    assert point.multiplicity == 5 and isinstance(point.multiplicity, int)


@pytest.mark.parametrize("mult", [2**63, 2**64, 10**30, float(2**63), math.inf, math.nan])
def test_multiplicity_beyond_int64_is_a_value_error(mult):
    with pytest.raises(ValueError, match="multiplicity"):
        PersistenceDiagram.from_pairs([(0, 2), (0, 1, mult)])


def test_parse_names_the_line_of_a_multiplicity_beyond_int64():
    assert parse_diagram(f"0,1,{2**63 - 1}\n").total_multiplicity() == 2**63 - 1
    with pytest.raises(ValueError, match=f"^line 3: point .* multiplicity {2**63} "):
        parse_diagram(f"# c\n0,1\n0,2,{2**63}\n")


def test_first_bad_line_is_reported():
    # a point error on line 2 comes before the syntax error on line 3
    with pytest.raises(ValueError, match="^line 2: point"):
        parse_diagram("0,1\n2,1\n0,x\n")
    with pytest.raises(ValueError, match="^line 3: malformed"):
        parse_diagram("0,1\n1,2\n0,x\n5,1\n")
    with pytest.raises(ValueError, match="^line 2: an essential row"):
        parse_diagram("0,1\nnan,inf\n5,1\n")


def test_total_multiplicity_is_exact_and_merges_never_wrap():
    big = 2**62
    d = PersistenceDiagram.from_pairs([(0, 1, big), (0, 2, big), (0, 3, big)])
    assert d.total_multiplicity() == 3 * big
    assert isinstance(d.total_multiplicity(), int)
    with pytest.raises(ValueError, match="64-bit"):
        PersistenceDiagram.from_pairs([(0, 1, big), (0, 1, big)])


def test_columns_are_read_only_and_survive_pickling():
    d = PersistenceDiagram.from_pairs([(0, 1, 2), (-0.0, 2)], essential_count=3)
    assert d.births.dtype == d.deaths.dtype == np.float64
    assert d.multiplicities.dtype == np.int64
    with pytest.raises(ValueError):
        d.births[0] = 5.0
    with pytest.raises(AttributeError):
        d.essential_count = 0
    again = pickle.loads(pickle.dumps(d))
    assert again == d and hash(again) == hash(d)
    assert serialize_diagram(again) == serialize_diagram(d)
    assert not again.births.flags.writeable


# Grid values with signed zeros, subnormals, huge magnitudes and many ties.
GRID = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0, 0.5, 1e-300]


@st.composite
def tie_heavy_rows(draw):
    """Valid (birth, death[, multiplicity]) rows drawn from GRID, with repeats."""
    pairs = [(b, d) for b in GRID for d in GRID if b < d]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=14))
    if picks:
        picks += draw(st.lists(st.sampled_from(picks), max_size=6))
    rows = []
    for b, d in picks:
        mult = draw(st.none() | st.integers(1, 4))
        rows.append((b, d) if mult is None else (b, d, mult))
    return draw(st.permutations(rows)), draw(st.integers(0, 3))


def dict_merge_text(rows, essential):
    """The reference merge: rows summed in a dict keyed by (birth, death),
    which keeps the first-seen key (-0.0 == 0.0), then sorted and serialized."""
    merged = {}
    for row in rows:
        key = (float(row[0]), float(row[1]))
        merged[key] = merged.get(key, 0) + (row[2] if len(row) == 3 else 1)
    lines = ["# birth,death,multiplicity"]
    lines += [f"{b!r},{d!r},{m}" for (b, d), m in sorted(merged.items())]
    if essential:
        lines.append(f"0,inf,{essential}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(tie_heavy_rows())
def test_array_merge_matches_dict_merge(case):
    rows, essential = case
    want = dict_merge_text(rows, essential)
    assert serialize_diagram(PersistenceDiagram.from_pairs(rows, essential)) == want
    columns = [[row[0] for row in rows], [row[1] for row in rows]]
    mults = np.array([row[2] if len(row) == 3 else 1 for row in rows], dtype=np.int64)
    built = PersistenceDiagram(*columns, mults, essential_count=essential)
    assert serialize_diagram(built) == want
    text = "".join(",".join(repr(x) for x in row) + "\n" for row in rows)
    assert serialize_diagram(parse_diagram(text + "0,inf\n" * essential)) == want


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(tie_heavy_rows())
def test_serialize_parse_round_trip(case):
    rows, essential = case
    d = PersistenceDiagram.from_pairs(rows, essential)
    text = serialize_diagram(d)
    again = parse_diagram(text)
    assert again == d
    assert again.essential_count == essential
    assert serialize_diagram(again) == text


def test_pipeline_builds_no_point_objects(monkeypatch):
    built = []
    original = PersistencePoint.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(diagram_module.PersistencePoint, "__post_init__", counting)
    rng = random.Random(11)
    texts = []
    for _ in range(4):
        rows = []
        for _ in range(rng.randrange(1, 8)):
            b = rng.uniform(0, 1)
            rows.append(f"{b!r},{b + rng.uniform(0.01, 1)!r},{rng.randrange(1, 3)}")
        texts.append("\n".join(rows) + "\n0,inf\n")
    diagrams = [parse_diagram(t) for t in texts]
    mesh = TriangleMesh(np.vstack([np.zeros(3), np.eye(3)]), [[0, 1, 3], [1, 2, 3]])
    diagrams.append(mesh_zero_persistence(mesh, [0.0, 1.0, 0.3, 2.0]))
    assert diagrams[-1] == PersistenceDiagram([0.3], [1.0], essential_count=1)
    db = LabeledDatabase(
        tuple(DatabaseEntry(f"m{i}", "x", d) for i, d in enumerate(diagrams))
    )
    for kind in ("R", "S", "T"):
        db = embed_database(db, kind)
    for a in diagrams:
        for b in diagrams:
            bottleneck_distance(a, b)
        parse_diagram(serialize_diagram(a))
    assert built == []
    PersistencePoint(0.0, 1.0)
    assert len(built) == 1

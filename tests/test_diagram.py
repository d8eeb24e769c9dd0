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
    _BadRow,
    parse_diagram,
    serialize_diagram,
)
from persvec.mesh import TriangleMesh, mesh_zero_persistence
from persvec.metrics import bottleneck_distance
from persvec.retrieval import DatabaseEntry, LabeledDatabase, embed_database
from persvec.transforms import ComplexRoot, ComplexRootList


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
    for columns in (([0.0, 1.0], [2.0]), ([0.0], [1.0], [1, 1]), ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError, match="^births, deaths and multiplicities must be 1-D and of equal"):
            PersistenceDiagram(*columns)


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


def test_repr_evaluates_to_an_equal_diagram():
    d = PersistenceDiagram.from_pairs([(0.25, 0.5), (-0.0, 1.0, 3), (0.25, 0.5, 2)], essential_count=2)
    assert repr(d) == "PersistenceDiagram.from_pairs([(-0.0, 1.0, 3), (0.25, 0.5, 3)], 2)"
    back = eval(repr(d), {"PersistenceDiagram": PersistenceDiagram})
    assert back == d and repr(back) == repr(d)
    assert math.copysign(1.0, back.births[0]) == -1.0


def test_diagrams_and_root_lists_are_unequal_to_other_types():
    d = PersistenceDiagram.from_pairs([(0.0, 1.0)])
    roots = ComplexRootList((ComplexRoot(1j),))
    for value, other in [(d, roots), (roots, d), (d, d._rows()), (roots, roots.roots), (d, None), (roots, 1j)]:
        assert value.__eq__(other) is NotImplemented
        assert value != other and not value == other


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


def per_line_parse_diagram(text):
    """The per-line diagram reader as first written, kept as the reference:
    rows are read line by line, and the first bad line is named."""
    essential, rows, linenos = 0, [], []

    def build():
        try:
            return PersistenceDiagram.from_pairs(rows, essential)
        except _BadRow as exc:
            raise ValueError(f"line {linenos[exc.args[1]]}: {exc}") from None

    def multiplicity(field):
        try:
            return int(field)
        except ValueError:
            if (x := float(field)).is_integer():
                return int(x)
            raise

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            if len(fields) not in (2, 3):
                raise ValueError(f"expected 2 or 3 fields, got {len(fields)}")
            try:
                birth, death = float(fields[0]), float(fields[1])
            except ValueError:
                raise ValueError(f"malformed number in {line!r}") from None
            try:
                mult = multiplicity(fields[2]) if len(fields) == 3 else 1
            except ValueError:
                raise ValueError(f"malformed multiplicity {fields[2].strip()!r}") from None
            if death == math.inf and not (math.isfinite(birth) and 1 <= mult < 2**63
                                          and essential + mult < 2**63):
                raise ValueError("an essential row needs a finite birth and a multiplicity "
                                 "from 1 to 2**63 - 1, also summed over the essential rows")
        except ValueError as exc:
            build()
            raise ValueError(f"line {lineno}: {exc}") from None
        if death == math.inf:
            essential += mult
        else:
            rows.append((birth, death, mult))
            linenos.append(lineno)
    return build()


def fuzzed_diagram(rng):
    """A small diagram CSV; most carry one defect or oddity."""
    counted = rng.random() < 0.5  # the same field count on every row, unless defect 1
    rows = []
    for _ in range(rng.randrange(7)):
        b = rng.choice([rng.uniform(-5, 5), float(rng.randrange(-3, 3)), 5e-324, -1e-300])
        row = [repr(b), repr(b + rng.choice([rng.uniform(1e-9, 5), 1.0, 1e300]))]
        rows.append(row + [str(rng.randrange(1, 4))] * counted)
    if rng.random() < 0.3:  # essential rows
        for _ in range(rng.randrange(1, 3)):
            rows.insert(rng.randrange(len(rows) + 1),
                        [repr(rng.uniform(-5, 5)), "inf"] + [str(rng.randrange(1, 4))] * counted)
    if rows and rng.random() < 0.2:  # a repeated row, which merges
        rows.append(list(rng.choice(rows)))
    defect = rng.randrange(18)
    row = rng.choice(rows) if rows else None
    if row is None:
        pass
    elif defect == 0:  # mixed 2- and 3-field rows
        row[2:] = [] if len(row) == 3 else ["2"]
    elif defect == 1:  # multiplicities at and past the edges of the rule
        row[2:] = [rng.choice(["2.0", "1_0", "0", "-1", "1.5", "1e1", "x", "", str(2**63 - 1), str(2**63)])]
    elif defect == 2:  # essential rows whose sum passes 2**63
        rows += [["0", "inf", str(2**62)], ["1", "inf", str(2**62)]]
    elif defect == 3:  # non-finite fields
        row[rng.randrange(2)] = rng.choice(["inf", "-inf", "nan", "Infinity"])
    elif defect == 4:  # signed zeros
        row[0:2] = rng.choice([["-0.0", "1"], ["-1", "-0.0"], ["0.0", "-0.0"]])
    elif defect == 5:  # spaces around fields
        row[:] = [rng.choice(["", " ", "  ", "\t"]) + f + rng.choice(["", " ", "\t"]) for f in row]
    elif defect == 6:  # a field count off the format
        row[1:] = row[1:] + [rng.choice(["1", ""])] * 2 if rng.random() < 0.5 else []
    elif defect == 7:  # malformed numbers
        row[rng.randrange(2)] = rng.choice(["abc", "1.2.3", "0x1", "1_0.5", "\u0663", "1\x00"])
    elif defect == 8:  # a point on or below the diagonal
        row[1] = row[0] if rng.random() < 0.5 else repr(float(row[0]) - 1)
    elif defect == 9:  # a comment after a row
        row[-1] += rng.choice([" # note", "#"])
    lines = [",".join(row) for row in rows]
    for _ in range(rng.randrange(3) if rng.random() < 0.4 else 0):  # comment and blank lines
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "   ", "\t", "# note", "  # 1,2"]))
    if rng.random() < 0.7:
        lines.insert(0, rng.choice(["# birth,death,multiplicity", "# birth,death", " # header"]))
    eol = rng.choice(["\n"] * 6 + ["\r\n", "\x0b"])
    return eol.join(lines) + rng.choice(["", eol, eol * 2])


def diagram_outcome(parser, text):
    try:
        d = parser(text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", d.births.tobytes(), d.deaths.tobytes(), d.multiplicities.tobytes(), d.essential_count)


def test_parse_diagram_matches_per_line_parser(monkeypatch):
    bulk_diagram, bulk = diagram_module._bulk_diagram, []

    def spy(text):
        diagram = bulk_diagram(text)
        bulk.append(diagram is not None)
        return diagram

    monkeypatch.setattr(diagram_module, "_bulk_diagram", spy)
    rng = random.Random(2727)
    kinds = {"ok": 0, "error": 0}
    for _ in range(600):
        text = fuzzed_diagram(rng)
        want = diagram_outcome(per_line_parse_diagram, text)
        assert diagram_outcome(parse_diagram, text) == want, text
        kinds[want[0]] += 1
    assert min(kinds.values()) > 200, kinds
    assert sum(bulk) > 120, sum(bulk)  # texts read in one numpy pass


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


MULTIPLICITY_RULE = [
    (1, True),
    (2.0, True),
    (np.int64(2), True),
    (2**63 - 1, True),
    (0, False),
    (-1, False),
    (1.5, False),
    (2**63, False),
    (math.nan, False),
]


def stored_multiplicity(make):
    """What ``make()`` stores for the multiplicity, or None if it raises ValueError."""
    try:
        return make()
    except ValueError:
        return None


@pytest.mark.parametrize("value, valid", MULTIPLICITY_RULE, ids=repr)
def test_every_entry_point_keeps_one_multiplicity_rule(value, valid):
    stored = {
        "point": lambda: PersistenceDiagram([0.0], [1.0], [value]).total_multiplicity(),
        "essential_count": lambda: PersistenceDiagram(essential_count=value).essential_count,
        "point row": lambda: parse_diagram(f"0,1,{value}\n").total_multiplicity(),
        "essential row": lambda: parse_diagram(f"0,inf,{value}\n").essential_count,
        "root": lambda: ComplexRootList([ComplexRoot(1j, value)]).width,
    }
    got = {name: stored_multiplicity(make) for name, make in stored.items()}
    want = {name: int(value) if valid else None for name in stored}
    if value == 0:
        want["essential_count"] = 0  # no essential class at all
    assert got == want
    assert {type(m) for m in got.values()} <= {int, type(None)}


def test_essential_rows_beyond_int64_in_total_name_the_line():
    assert parse_diagram(f"0,inf,{2**63 - 2}\n1,inf\n").essential_count == 2**63 - 1
    with pytest.raises(ValueError, match="^line 3: an essential row"):
        parse_diagram(f"0,inf,{2**63 - 2}\n0,1\n1,inf,2\n")


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


def test_merge_overflow_names_the_row_where_its_total_reaches_the_limit():
    big, message = 2**62, "a merged multiplicity does not fit a 64-bit integer"
    with pytest.raises(ValueError, match=f"^line 3: {message}$"):
        parse_diagram(f"# c\n0,1,{big}\n0,1,{big}\n")
    # (0, 1) and (-0.0, 1) reach 2**63 on line 7, past a blank and an
    # essential row; (0, 2) stops at 2**63 - 3
    text = f"0,2,5\n0,1,{big}\n\n0,2,{2**63 - 8}\n0,inf,3\n0,1,{big - 1}\n-0.0,1,1\n"
    with pytest.raises(ValueError, match=f"^line 7: {message}$"):
        parse_diagram(text)
    # the first such row in input order, not in (birth, death) order
    with pytest.raises(ValueError, match=f"^line 3: {message}$"):
        parse_diagram(f"0,1,{big}\n5,6,{big}\n5,6,{big}\n0,1,{big}\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        PersistenceDiagram.from_pairs([(5, 6, big), (0, 1, big), (5, 6, big)])


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


def test_expanded_columns_are_built_once_read_only_and_left_out_of_pickles():
    d = PersistenceDiagram.from_pairs([(0, 1, 2), (-0.0, 2)], essential_count=3)
    before = (hash(d), repr(d), pickle.dumps(d))
    columns = d._expanded()
    assert d._expanded() is columns
    assert [x.tolist() for x in columns] == [[0.0, 0.0, -0.0], [1.0, 1.0, 2.0], [0.5, 0.5, 1.0]]
    assert math.copysign(1.0, columns[0][2]) == -1.0
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 5.0
    assert (hash(d), repr(d), pickle.dumps(d)) == before
    assert d == PersistenceDiagram.from_pairs([(0, 1, 2), (-0.0, 2)], essential_count=3)
    # a round trip starts with an empty slot and builds the same columns
    again = pickle.loads(pickle.dumps(d))
    assert again == d and hash(again) == hash(d) and repr(again) == repr(d)
    with pytest.raises(AttributeError):
        again._columns
    assert [x.tolist() for x in again._expanded()] == [x.tolist() for x in columns]


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


ESSENTIAL_COUNTS = st.one_of(
    st.integers(0, 2**63 - 1),
    st.integers(0, 2**63 - 1).map(float).filter(lambda x: x < 2**63),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tie_heavy_rows(), ESSENTIAL_COUNTS)
def test_essential_count_round_trip(case, essential):
    rows, _ = case
    d = PersistenceDiagram.from_pairs(rows, essential)
    assert d.essential_count == essential and type(d.essential_count) is int
    again = parse_diagram(serialize_diagram(d))
    assert again == d and type(again.essential_count) is int


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(tie_heavy_rows())
def test_points_equal_validated_construction(case):
    rows, essential = case
    d = PersistenceDiagram.from_pairs(rows, essential)
    points = d.points
    want = tuple(PersistencePoint(*row) for row in d._rows())
    assert points == want
    assert [hash(p) for p in points] == [hash(p) for p in want]
    for p, w in zip(points, want):
        assert (repr(p.birth), repr(p.death)) == (repr(w.birth), repr(w.death))
        assert type(p.multiplicity) is int and type(p.birth) is float


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

"""The text formats' shared rules: one line reader and one token rule.

Every CSV reader skips blank and ``#`` lines and names a bad row by its
line in the file; every id and label is a token that each format reads
back unchanged.  Matrix rows go through orjson where it gives the bytes
and bits of ``repr`` and ``float``, so both are checked here against a
reference built from ``repr`` and ``float`` alone.
"""

import math
import struct
import sys
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persvec.coefficients import CoefficientVector
from persvec.diagram import PersistenceDiagram, _BadRow, parse_diagram, serialize_diagram
from persvec.retrieval import (
    DatabaseEntry,
    DistanceMatrix,
    LabeledDatabase,
    PRTable,
    _check_token,
    parse_index,
    parse_labels,
    parse_matrix,
    parse_pr_table,
    serialize_index,
    serialize_labels,
    serialize_matrix,
    serialize_pr_table,
)
from persvec.transforms import TRANSFORMS

# ------------------------------------------------------------- line numbers


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_diagram, "# d\n0,1\n\n# note\n   \n0,x\n", "line 6: malformed number"),
        (parse_index, "# coefficient-index v1\n\n# note\na,R,3,0\n", "line 4: count must be between"),
        (parse_matrix, "a,b\n\n# note\n0.0,1.0\n1.0\n", "line 5: matrix row has 1 fields"),
        (parse_matrix, "a,b\n# note\n\n0.0,x\n1.0,0.0\n", "line 4: matrix row has a malformed"),
        (parse_labels, "id,class\n\n\na,x\nb\n", "line 5: label must not be empty"),
        (parse_labels, "id,class\n# note\na,x\n\na,y\n", "line 5: duplicate model id 'a'"),
        (parse_pr_table, "recall,precision\n\n# note\n0.5,x\n", "line 4: malformed number"),
        (parse_pr_table, "recall,precision\n# note\n\n0.5\n", "line 4: expected 2 fields"),
        # checks the constructors make after parsing
        (parse_matrix, "a,b\n# c\n0.0,-1.0\n-1.0,0.0\n", "line 3: matrix entries must be non-n"),
        (parse_matrix, "a,b\n0.0,1.0\n\n1.0,nan\n", "line 4: matrix entries must be finite"),
        (parse_matrix, "a,b\n0.0,1.0\n# c\n1.0,2.0\n", "line 4: matrix diagonal must be zero"),
        (parse_matrix, "a,b,c\n0,1,2\n\n1,0,3\n2,4,0\n", "line 4: matrix must be symmetric"),
        (parse_matrix, "# c\n\na,#b\n0.0,1.0\n1.0,0.0\n", "line 3: model id '#b' must not"),
        (parse_matrix, "\na,a\n0.0,1.0\n1.0,0.0\n", "line 2: duplicate model id 'a'"),
        (parse_pr_table, "recall,precision\n\n# c\n1.5,0.5\n", "line 4: recall level 1.5 out"),
        (parse_pr_table, "recall,precision\n0.5,1\n# c\n0.5,1\n", "line 4: recall levels must"),
        (parse_pr_table, "recall,precision\n\n1.0,2.0\n", "line 3: precision 2.0 outside"),
        # a bad row is reported before a malformed line after it
        (parse_pr_table, "recall,precision\n1.5,0.5\nx,y\n", "line 2: recall level 1.5 out"),
        (parse_index, "# coefficient-index v1\na,R,3,1,1.0,0.5\n\na,R,3,1,2.0,0.5\nb,R,x\n",
         "line 4: duplicate model id 'a'"),
    ],
)
def test_bad_row_after_blank_and_comment_lines_names_its_file_line(parse, text, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LabeledDatabase((DatabaseEntry("a"), DatabaseEntry("b"), DatabaseEntry("a"))),
         "duplicate model id 'a'"),
        (lambda: DistanceMatrix(("a", "b", "a"), np.zeros((3, 3))), "duplicate model id 'a'"),
        (lambda: parse_index("# coefficient-index v1\na,R,3,1,1.0,0.5\nb,R,3,1,0.0,0.5\n"
                             "# c\na,R,3,1,2.0,0.5\n"), "line 5: duplicate model id 'a'"),
        # the ids are the header: a duplicate names its line, not a row's
        (lambda: parse_matrix("# c\na,b,a\n0,1,2\n1,0,3\n2,3,0\n"), "line 2: duplicate model id 'a'"),
        (lambda: parse_labels("id,class\na,x\n\nb,x\na,y\n"), "line 5: duplicate model id 'a'"),
    ],
    ids=["LabeledDatabase", "DistanceMatrix", "parse_index", "parse_matrix", "parse_labels"],
)
def test_every_entry_point_keeps_one_unique_id_rule(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_comment_and_blank_lines_are_skipped_in_every_format():
    assert parse_labels("# made by hand\n\nid,class\n# a row\na,x\n") == {"a": "x"}
    assert parse_pr_table("# note\nrecall,precision\n\n1.0,0.5\n# end\n").rows == ((1.0, 0.5),)
    matrix = parse_matrix("\n# note\na,b\n0.0,1.0\n# between\n1.0,0.0\n")
    assert matrix.ids == ("a", "b") and matrix.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]


# --------------------------------------------------------------- token rule

UNREADABLE = [
    "",
    "#a",
    " a",
    "a ",
    "\ta",
    "\xa0a",
    "a,b",
    "a\nb",
    "a\rb",
    "a\r\nb",
    "a\x0bb",
    "a\x0cb",
    "a\x1cb",
    "a\x1db",
    "a\x1eb",
    "a\x85b",
    "a\u2028b",
    "a\u2029b",
]


@pytest.mark.parametrize("bad", UNREADABLE)
def test_constructors_reject_ids_and_labels_that_would_not_read_back(bad):
    with pytest.raises(ValueError, match="model id"):
        DatabaseEntry(bad)
    with pytest.raises(ValueError, match="model id"):
        DistanceMatrix((bad,), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="model id"):
        serialize_labels({bad: "x"})
    with pytest.raises(ValueError, match="label"):
        serialize_labels({"a": bad})
    if bad:  # an empty label marks an unlabeled entry
        with pytest.raises(ValueError, match="label"):
            DatabaseEntry("a", bad)


def test_parse_labels_applies_the_token_rule():
    with pytest.raises(ValueError, match=r"^line 2: label '#x' must not"):
        parse_labels("id,class\na,#x\n")
    with pytest.raises(ValueError, match=r"^line 3: label 'x,y' must not contain commas"):
        parse_labels("id,class\n\na,x,y\n")
    with pytest.raises(ValueError, match=r"^line 2: model id must not be empty"):
        parse_labels("id,class\n,x\n")
    with pytest.raises(ValueError, match=r"^line 2: model id must not be empty$"):
        parse_labels("id,class\n,#x\n")  # a bad id is named before a bad label


def test_interior_hash_space_and_non_ascii_are_tokens():
    for token in ("a#b", "a b", "é漢", "a\x1fb", "a\tb"):
        assert _check_token(token, "model id") == token
        assert parse_labels(serialize_labels({token: token})) == {token: token}


# -------------------------------------------------------------- round trips


def _reads_back(value: str) -> bool:
    try:
        _check_token(value, "token")
    except ValueError:
        return False
    return True


# interior '#', spaces, a whitespace separator and non-ASCII come up often
tokens = st.text(
    st.sampled_from("ab#é漢 \t\x1f\xa0-") | st.characters(codec="utf-8"), min_size=1, max_size=6
).filter(_reads_back)
special = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 7, 1e308])
non_negative = special | st.floats(min_value=0.0, allow_infinity=False)
finite = special | special.map(lambda x: -x) | st.floats(allow_nan=False, allow_infinity=False)
NOISE = ["", "   ", "\t", "#", "# note, with, commas", "  # indented note"]


def with_noise(data, text: str) -> str:
    """``text`` with blank and ``#`` lines inserted anywhere after its first line."""
    first, *rest = text.splitlines()
    for _ in range(data.draw(st.integers(0, 4))):
        rest.insert(data.draw(st.integers(0, len(rest))), data.draw(st.sampled_from(NOISE)))
    return "\n".join([first, *rest]) + "\n"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_index_round_trip(data):
    kind = data.draw(st.sampled_from(sorted(TRANSFORMS)))
    count = data.draw(st.integers(1, 3))
    width = data.draw(st.integers(count, 5))
    coefficients = st.lists(st.builds(complex, finite, finite), min_size=count, max_size=count)
    db = LabeledDatabase(
        tuple(
            DatabaseEntry(mid, "", None, {kind: CoefficientVector(data.draw(coefficients), width)})
            for mid in data.draw(st.lists(tokens, unique=True, max_size=5))
        )
    )
    text = serialize_index(db, kind)
    again = parse_index(with_noise(data, text))
    assert again.entries == db.entries
    assert serialize_index(again, kind) == text  # the sign of every zero survives too


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_matrix_round_trip(data):
    ids = data.draw(st.lists(tokens, unique=True, min_size=1, max_size=5))
    n = len(ids)
    values = np.zeros((n, n))
    for i in range(n):
        values[i, i] = data.draw(st.sampled_from([0.0, -0.0]))
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = data.draw(non_negative)
    matrix = DistanceMatrix(tuple(ids), values)
    again = parse_matrix(with_noise(data, serialize_matrix(matrix)))
    assert again.ids == matrix.ids
    assert again.values.tobytes() == matrix.values.tobytes()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_labels_round_trip(data):
    labels = data.draw(st.dictionaries(tokens, tokens, max_size=6))
    assert parse_labels(with_noise(data, serialize_labels(labels))) == labels


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_pr_table_round_trip(data):
    level = st.sampled_from([5e-324, 1.0]) | st.floats(0.0, 1.0, exclude_min=True)
    recalls = sorted(set(data.draw(st.lists(level, max_size=6))))
    precision = st.sampled_from([-0.0, 5e-324]) | st.floats(0.0, 1.0)
    precisions = data.draw(st.lists(precision, min_size=len(recalls), max_size=len(recalls)))
    table = PRTable(tuple(zip(recalls, precisions)))
    text = serialize_pr_table(table)
    again = parse_pr_table(with_noise(data, text))
    assert again == table
    assert serialize_pr_table(again) == text


# ------------------------------------------------------ matrix row paths


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def bit_patterns(lo: float, hi: float):
    """Non-negative doubles from ``lo`` to ``hi`` with uniformly drawn bit patterns."""
    return st.integers(_bits(lo), _bits(hi)).map(_float)


LOW, HIGH = 1e-4, 1e16  # orjson and repr write the same digits in [LOW, HIGH)
plain_cells = bit_patterns(LOW, math.nextafter(HIGH, 0)) | st.sampled_from(
    [0.0, -0.0, LOW, math.nextafter(LOW, math.inf), math.nextafter(HIGH, 0)]
)
any_cells = (
    plain_cells
    | bit_patterns(0.0, sys.float_info.max)
    | bit_patterns(5e-324, math.nextafter(sys.float_info.min, 0))  # subnormals
    | st.sampled_from([math.nextafter(LOW, 0), HIGH, math.nextafter(HIGH, math.inf)])
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_serialize_matrix_is_byte_identical_to_repr(data):
    n = data.draw(st.integers(1, 6))
    cells = data.draw(st.sampled_from([plain_cells, any_cells]))
    values = np.zeros((n, n))
    for i in range(n):
        values[i, i] = data.draw(st.sampled_from([0.0, -0.0]))
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = data.draw(cells)
    matrix = DistanceMatrix(tuple(f"m{i}" for i in range(n)), values)
    rows = [",".join(map(repr, row)) for row in values.tolist()]
    assert serialize_matrix(matrix) == "\n".join([",".join(matrix.ids), *rows]) + "\n"


def test_serialize_matrix_writes_any_memory_layout():
    # DistanceMatrix keeps the layout np.asarray gives it; orjson's numpy
    # writer takes C-ordered rows only
    upper = np.triu(np.random.default_rng(7).uniform(0.1, 2.0, (5, 5)), 1)
    values = upper + upper.T
    values[1, 3] = values[3, 1] = 1e-5  # rows 1 and 3 are written with repr
    rows = [",".join(map(repr, row)) for row in values.tolist()]
    ids = tuple(f"m{i}" for i in range(5))
    want = "\n".join([",".join(ids), *rows]) + "\n"
    for layout in (np.asfortranarray(values), values.copy().T):
        matrix = DistanceMatrix(ids, layout)
        assert not matrix.values.flags.c_contiguous
        assert serialize_matrix(matrix) == want


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_serialize_diagram_is_byte_identical_to_repr(data):
    coordinate = st.sampled_from([plain_cells, any_cells]).flatmap(
        lambda cells: st.tuples(cells, st.booleans()).map(lambda c: -c[0] if c[1] else c[0]))
    pairs = data.draw(st.lists(st.tuples(coordinate, coordinate).filter(lambda p: p[0] != p[1]), max_size=8))
    mults = st.integers(1, 4) | st.integers(1, 2**63 - 1)
    rows = [(min(p), max(p), data.draw(mults)) for p in pairs]
    rows = [row for i, row in enumerate(rows) if row[:2] not in (r[:2] for r in rows[:i])]  # no merges
    essential = data.draw(st.sampled_from([0, 1, 2**63 - 1]) | st.integers(0, 9))
    diagram = PersistenceDiagram.from_pairs(rows, essential)
    lines = ["# birth,death,multiplicity"] + [f"{b!r},{d!r},{m}" for b, d, m in diagram._rows()]
    text = "\n".join(lines + [f"0,inf,{essential}"] * bool(essential)) + "\n"
    assert serialize_diagram(diagram) == text
    again = parse_diagram(text)
    assert again == diagram and again.essential_count == essential
    assert again.births.tobytes() == diagram.births.tobytes()
    assert again.deaths.tobytes() == diagram.deaths.tobytes()


def parse_outcome(text: str):
    """The parsed values' bytes, or the error text."""
    try:
        return parse_matrix(text).values.tobytes()
    except ValueError as exc:
        return str(exc)


def halfway(x: float) -> str:
    """The exact decimal midway between ``x`` and the next double up."""
    with localcontext(Context(prec=1200)):
        return str((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2)


json_floats = (
    st.from_regex(r"\A-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?\Z")
    | any_cells.map(repr)
    | bit_patterns(0.0, math.nextafter(sys.float_info.max, 0)).map(halfway)
)
# cells of one line each, none of which would start a row as a "#" comment
decimals = (
    json_floats
    | st.from_regex(r"\A[+-]?(\d{1,25}\.?\d{0,25}|\.\d{1,25})([eE][+-]?\d{1,3})?\Z")
    | st.integers(0, 10**40).map(str)
    | st.text(st.sampled_from("0123456789.eE+-_ infa"), max_size=12)
    | st.text(max_size=6)
).filter(lambda cell: cell.splitlines() in ([cell], []) and cell.lstrip()[:1] != "#")


def float_outcome(rows: list[list[str]]):
    """What ``parse_matrix`` gives for these rows of cells, read by ``split`` and ``float``."""
    n = len(rows)
    values = np.empty((n, n))
    for i, cells in enumerate(rows):
        fields = ",".join(cells).split(",")  # a drawn cell may hold a comma
        if len(fields) != n:
            return f"line {i + 2}: matrix row has {len(fields)} fields, expected {n}"
        try:
            values[i] = list(map(float, fields))
        except ValueError:
            return f"line {i + 2}: matrix row has a malformed value"
    try:
        return DistanceMatrix(tuple(f"m{i}" for i in range(n)), values).values.tobytes()
    except _BadRow as exc:
        return f"line {exc.args[1] + 2}: {exc}"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_parse_matrix_is_bit_identical_to_float(data):
    n = data.draw(st.integers(1, 4))
    cells = data.draw(st.sampled_from([json_floats, decimals]))
    rows = [[data.draw(st.sampled_from(["0.0", "-0.0", "0", "-0"]))] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(cells)
    text = ",".join(f"m{i}" for i in range(n)) + "\n" + "\n".join(map(",".join, rows)) + "\n"
    assert parse_outcome(text) == float_outcome(rows)


FINITE = "line 2: matrix entries must be finite"


@pytest.mark.parametrize(
    "cell, expected",
    [
        ("-0", -0.0),  # orjson reads the int 0
        ("1", 1.0),
        ("01", 1.0),  # the rest are not JSON numbers
        ("1e400", FINITE),
        (".5", 0.5),
        ("5.", 5.0),
        ("+1", 1.0),
        ("1_0", 10.0),
        (" 1.0", 1.0),
        ("inf", FINITE),
        ("nan", FINITE),
        (str(2**63 + 1), float(2**63 + 1)),
    ],
)
def test_cells_json_reads_differently_parse_as_float_reads_them(cell, expected):
    outcome = parse_outcome(f"a,b\n0.0,{cell}\n{cell},0.0\n")
    if isinstance(expected, str):
        assert outcome == expected
    else:
        assert outcome == np.array([[0.0, expected], [expected, 0.0]]).tobytes()

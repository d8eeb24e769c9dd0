"""The text formats' shared rules: one line reader and one token rule.

Every CSV reader skips blank and ``#`` lines and names a bad row by its
line in the file; every id and label is a token that each format reads
back unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persvec.coefficients import CoefficientVector
from persvec.diagram import parse_diagram
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
        (parse_index, "# coefficient-index v1\n\n# note\na,R,3,0\n", "line 4: need between"),
        (parse_matrix, "a,b\n\n# note\n0.0,1.0\n1.0\n", "line 5: matrix row has 1 fields"),
        (parse_matrix, "a,b\n# note\n\n0.0,x\n1.0,0.0\n", "line 4: matrix row has a malformed"),
        (parse_labels, "id,class\n\n\na,x\nb\n", "line 5: label must not be empty"),
        (parse_labels, "id,class\n# note\na,x\n\na,y\n", "line 5: duplicate id 'a'"),
        (parse_pr_table, "recall,precision\n\n# note\n0.5,x\n", "line 4: malformed number"),
        (parse_pr_table, "recall,precision\n# note\n\n0.5\n", "line 4: expected 2 fields"),
    ],
)
def test_bad_row_after_blank_and_comment_lines_names_its_file_line(parse, text, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value).startswith(message)


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

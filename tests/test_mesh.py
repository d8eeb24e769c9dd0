import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persvec import mesh as mesh_module
from persvec.diagram import PersistenceDiagram, serialize_diagram
from persvec.mesh import (
    MeshFrame,
    TriangleMesh,
    axis_vector,
    beta0,
    center_of_mass,
    filter_line,
    filter_plane,
    mesh_zero_persistence,
    multiplicity0,
    normalize_mesh,
    parse_off,
    triangle_edges,
    zero_persistence,
)
from test_cli import sphere_grid_off

TETRA_OFF = """\
OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""


def random_rotation(rng):
    m = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


# ----------------------------------------------------------------- types


def test_mesh_validation():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError, match="out of range"):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))
    with pytest.raises(ValueError, match=r"^triangle \(0, 1, 1\) repeats a vertex$"):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))
    with pytest.raises(ValueError, match="finite"):
        TriangleMesh(np.array([[0, 0, np.inf]]), np.zeros((0, 3), dtype=int))


def test_mesh_rejects_non_integer_indices():
    with pytest.raises(ValueError, match="integer"):
        TriangleMesh(np.eye(3), [[0.7, 1, 2]])
    for bad in (np.nan, np.inf, 1e300):
        with pytest.raises(ValueError, match="integer"):
            TriangleMesh(np.eye(3), np.array([[0, 1, bad]]))
    with pytest.raises(ValueError, match="index array"):
        TriangleMesh(np.eye(3), [["0", "1", "2"]])
    # integral floats are indices, not truncations
    mesh = TriangleMesh(np.eye(3), [[0.0, 1.0, 2.0]])
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.tolist() == [[0, 1, 2]]


def test_frame_validation():
    MeshFrame(np.zeros(3), np.array([0, 0, 1.0]))
    with pytest.raises(ValueError, match="unit"):
        MeshFrame(np.zeros(3), np.array([0, 0, 2.0]))
    for center, axis in ((np.array([np.nan, 0, 0]), np.array([0, 0, 1.0])),
                         (np.zeros(3), np.array([0, 0, np.inf]))):
        with pytest.raises(ValueError, match="^frame entries must be finite$"):
            MeshFrame(center, axis)


# ------------------------------------------------------------------- OFF


def test_parse_off_tetrahedron():
    mesh = parse_off(TETRA_OFF)
    assert mesh.vertex_count == 4
    assert mesh.triangles.shape == (4, 3)
    assert len(triangle_edges(mesh)) == 6


def test_parse_off_vertices_only():
    mesh = parse_off("OFF\n2 0 0\n0 0 0\n1 1 1\n")
    assert mesh.vertex_count == 2
    assert mesh.triangles.shape == (0, 3)


def test_parse_off_comments_and_colors():
    text = (
        "# a comment\nOFF\n3 1 0\n0 0 0\n1 0 0  # inline\n0 1 0\n"
        "3 0 1 2 255 0 0\n"
    )
    mesh = parse_off(text)
    assert mesh.triangles.tolist() == [[0, 1, 2]]


def per_line_parse_off(text):
    """The per-line OFF parser as first written, kept as the reference; a
    face index past 64 bits is left to TriangleMesh's index-row rule."""
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ValueError("empty OFF file")
    pos = 0
    if lines[pos] != "OFF":
        raise ValueError(f"expected OFF header, got {lines[pos]!r}")
    pos += 1
    if pos >= len(lines):
        raise ValueError("truncated OFF file: missing counts line")
    counts = lines[pos].split()
    pos += 1
    if len(counts) < 2:
        raise ValueError(f"counts line needs at least 2 numbers, got {lines[pos - 1]!r}")
    try:
        n_vertices, n_faces = int(counts[0]), int(counts[1])
    except ValueError:
        raise ValueError(f"malformed counts line {lines[pos - 1]!r}") from None
    if n_vertices < 1 or n_faces < 0:
        raise ValueError(f"bad counts: {n_vertices} vertices, {n_faces} faces")
    if len(lines) - pos < n_vertices + n_faces:
        raise ValueError(
            f"truncated OFF file: expected {n_vertices + n_faces} body lines, "
            f"found {len(lines) - pos}"
        )
    vertices = np.empty((n_vertices, 3), dtype=float)
    for i in range(n_vertices):
        fields = lines[pos + i].split()
        if len(fields) < 3:
            raise ValueError(f"vertex line {i} has {len(fields)} fields, need 3")
        try:
            vertices[i] = [float(fields[0]), float(fields[1]), float(fields[2])]
        except ValueError:
            raise ValueError(f"malformed vertex line {lines[pos + i]!r}") from None
    pos += n_vertices
    triangles = []
    for i in range(n_faces):
        fields = lines[pos + i].split()
        try:
            k = int(fields[0])
        except (ValueError, IndexError):
            raise ValueError(f"malformed face line {lines[pos + i]!r}") from None
        if k != 3:
            raise ValueError(f"face {i} has {k} vertices, only triangles are supported")
        if len(fields) < 4:
            raise ValueError(f"face line {i} is missing indices")
        try:
            triangles.append([int(fields[1]), int(fields[2]), int(fields[3])])
        except ValueError:
            raise ValueError(f"malformed face line {lines[pos + i]!r}") from None
    return TriangleMesh(vertices, np.array(triangles, dtype=object))


def fuzzed_off(rng):
    """A small OFF text; about half carry one defect or oddity."""
    n = rng.randint(3, 7)
    m = rng.randint(0, 6)
    seps = [" ", "  ", "\t", " \t "]

    def join(tokens):
        out = tokens[0]
        for t in tokens[1:]:
            out += rng.choice(seps) + t
        return out

    verts = [[f"{rng.uniform(-9, 9):.{rng.randint(0, 6)}f}" for _ in range(3)] for _ in range(n)]
    faces = [["3"] + [str(i) for i in rng.sample(range(n), 3)] for _ in range(m)]
    defect = rng.randrange(22)
    if defect == 0:  # colour tokens on a vertex line
        rng.choice(verts).extend(["0.5", "0.25", "1"])
    elif defect == 1 and m:  # colour tokens on a face line
        rng.choice(faces).extend(["255", "0", "0"])
    elif defect == 2 and n >= 2:  # ragged vertex lines, token total unchanged
        i = rng.randrange(n - 1)
        verts[i], verts[i + 1] = verts[i][:2], verts[i + 1] + verts[i][2:]
    elif defect == 3 and m >= 2:  # ragged face lines, token total unchanged
        i = rng.randrange(m - 1)
        faces[i], faces[i + 1] = faces[i][:3], faces[i + 1] + faces[i][3:]
    elif defect == 4:  # malformed coordinate
        rng.choice(verts)[rng.randrange(3)] = rng.choice(["1.2.3", "abc", "1e", "--1", "0x1"])
    elif defect == 5 and m:  # malformed index
        rng.choice(faces)[rng.randrange(1, 4)] = rng.choice(["1.0", "1.5", "x", "1e1", "0x1"])
    elif defect == 6:  # underscores are valid Python numerals
        rng.choice(verts)[0] = "1_0.5"
        if m:
            faces[0][1] = "0_0"
    elif defect == 7 and m:  # index overflowing int64
        rng.choice(faces)[rng.randrange(1, 4)] = "99999999999999999999"
    elif defect == 8 and m:  # not a triangle
        rng.choice(faces)[0] = rng.choice(["4", "2", "03", "+3"])
    elif defect == 9 and m:  # index out of range, negative or repeated
        face = rng.choice(faces)
        face[1:] = rng.choice([[str(n), "0", "1"], ["-1", "0", "1"], ["0", "0", "1"]])
    elif defect == 10:  # short vertex line
        rng.choice(verts).pop()
    elif defect == 11:  # non-finite coordinate
        rng.choice(verts)[1] = rng.choice(["nan", "inf", "-Infinity"])
    elif defect == 15:  # a non-ASCII digit, which float() and int() accept
        if m and rng.random() < 0.5:
            rng.choice(faces)[rng.randrange(1, 4)] = "\u0663"
        else:
            rng.choice(verts)[rng.randrange(3)] = "\u0663"
    elif defect == 16:  # Unicode whitespace between fields (\x0b also ends a line)
        seps.append(rng.choice(["\xa0", "\u2003", "\x0b"]))
    elif defect == 17:  # numerals at the edge of float()'s syntax
        rng.choice(verts)[rng.randrange(3)] = rng.choice(["inf", "nan", "1e400", ".5", "1.", "+1"])
    elif defect == 18:  # a NUL after a field
        row = rng.choice(faces) if m and rng.random() < 0.5 else rng.choice(verts)
        row[rng.randrange(len(row))] += "\x00"
    body = [join(v) for v in verts] + [join(f) for f in faces]
    if defect == 12:  # surplus body lines are ignored
        body += rng.choice([["1 2 3"], ["x"], ["", "3 0 1 2", "   "]])
    elif defect == 13:  # one body line too few
        body.pop()
    elif defect == 19:  # a vertex block of blank lines, which numpy reads as no data
        body[:n] = [rng.choice(["", "  "])] * n
    elif defect == 20:  # a line break that numpy reads as whitespace
        body[rng.randrange(len(body))] += rng.choice(["\x1c", "\x0c", "\r"]) + "1"
    noisy = rng.random() < 0.3  # else no comment or blank line: blocks read as slices
    lines = ["OFF", f"{n} {m} 0"]
    for line in body:
        if noisy and rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "# note", "\t# 1 2 3"]))
        if noisy and rng.random() < 0.15:
            line += rng.choice([" # trailing", "#", "\t"])
        lines.append(rng.choice(["", " ", "\t"]) + line)
    if defect == 14:
        lines.insert(0, "# leading comment")
    eol = rng.choice(["\n"] * 8 + ["\r\n", "\r"])
    return eol.join(lines) + rng.choice(["", eol, eol * 2])


def parse_outcome(parser, text):
    try:
        mesh = parser(text)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", mesh.vertices.dtype, mesh.vertices.tobytes(), mesh.triangles.shape,
            mesh.triangles.dtype, mesh.triangles.tobytes())


def test_parse_off_matches_per_line_parser(monkeypatch):
    bulk_off, sliced = mesh_module._bulk_off, []

    def spy(text):
        mesh = bulk_off(text)
        sliced.append(mesh is not None)
        return mesh

    monkeypatch.setattr(mesh_module, "_bulk_off", spy)
    rng = random.Random(6060)
    kinds = {"ok": 0, "error": 0}
    for _ in range(600):
        text = fuzzed_off(rng)
        want = parse_outcome(per_line_parse_off, text)
        assert parse_outcome(parse_off, text) == want, text
        kinds[want[0]] += 1
    assert kinds["ok"] > 200 and kinds["error"] > 200, kinds
    assert sum(sliced) > 60, sum(sliced)  # texts whose blocks were read as slices


def test_parse_off_refuses_ints_read_through_float(monkeypatch):
    """From numpy 1.23 on, a release may read an int field such as ``1.5``
    through float and truncate it, with only a DeprecationWarning, which
    is ignored by default outside pytest.  Such a reader must not turn
    ``3 0 1.5 2`` into the triangle (0, 1, 2)."""
    real = np.loadtxt

    def truncating_loadtxt(block, dtype=float, **kwargs):
        if dtype is not np.int64:
            return real(block, dtype=dtype, **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return real(block, dtype=float, **kwargs).astype(np.int64)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(ValueError, match="malformed face line '3 0 1.5 2'"):
            parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1.5 2\n")
        assert parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n").triangles.tolist() == [[0, 1, 2]]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_off_round_trip(data):
    """Any finite vertices and proper triangles, written as OFF, read back bit for bit."""
    n = data.draw(st.integers(1, 7))
    coord = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, -1e308, 2.2250738585072014e-308 / 3]
    )
    points = st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n)
    vertices = np.array(data.draw(points))
    triangle = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    triangles = np.array(data.draw(st.lists(triangle, max_size=6)) if n >= 3 else [], dtype=int)
    sep = st.sampled_from([" ", "  ", "\t", " \t "])
    noise = st.sampled_from(["", "   ", "# note", "\t# 1 2 3"])

    def line(tokens):
        text = tokens[0]
        for token in tokens[1:]:
            text += data.draw(sep) + token
        return text + data.draw(st.sampled_from(["", " ", " # trailing", "#"]))

    lines = ["OFF", f"{n} {len(triangles)} 0"]
    lines += [line([repr(float(x)) for x in v]) for v in vertices]
    colours = data.draw(st.booleans())  # trailing face colours take the per-line path
    lines += [line(["3", *map(str, t)] + ["255", "0", "0"] * colours) for t in triangles]
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(noise))
    mesh = parse_off("\n".join(lines) + "\n")
    assert mesh.vertices.tobytes() == vertices.reshape(n, 3).tobytes()
    assert mesh.triangles.tolist() == triangles.reshape(-1, 3).tolist()


def test_parse_off_ragged_lines_are_not_reflowed():
    # token totals match a 2-vertex mesh, but the first line is short
    with pytest.raises(ValueError, match="vertex line 0 has 2 fields"):
        parse_off("OFF\n2 0 0\n0 0\n0 0 0 0\n")
    with pytest.raises(ValueError, match="missing indices"):
        parse_off("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n2 3 0 1 2\n")


def test_parse_off_errors():
    with pytest.raises(ValueError, match="header"):
        parse_off("PLY\n1 0 0\n0 0 0\n")
    with pytest.raises(ValueError, match="triangles"):
        parse_off("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n4 0 1 2 3\n")
    with pytest.raises(ValueError, match="truncated"):
        parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")
    with pytest.raises(ValueError):
        parse_off("")
    with pytest.raises(ValueError, match="^truncated OFF file: missing counts line$"):
        parse_off("OFF\n# only a comment\n")
    with pytest.raises(ValueError, match="^bad counts: 0 vertices, 0 faces$"):
        parse_off("OFF\n0 0 0\n")
    with pytest.raises(ValueError, match="^bad counts: 2 vertices, -1 faces$"):
        parse_off("OFF\n2 -1 0\n0 0 0\n1 1 1\n")


# ----------------------------------------------------------------- frame


def test_center_of_mass_hand_values():
    mesh = TriangleMesh(np.array([[0, 0, 0], [2, 0, 0.0]]), np.zeros((0, 3), int))
    assert np.allclose(center_of_mass(mesh), [1, 0, 0], atol=0)
    single = TriangleMesh(np.array([[3.5, -1, 2.0]]), np.zeros((0, 3), int))
    assert np.allclose(center_of_mass(single), [3.5, -1, 2.0], atol=0)


def test_center_of_mass_matches_compensated_sum():
    rng = random.Random(71)
    pts = np.array([[rng.uniform(-5, 5) for _ in range(3)] for _ in range(137)])
    mesh = TriangleMesh(pts, np.zeros((0, 3), int))
    got = center_of_mass(mesh)
    want = [math.fsum(pts[:, k]) / len(pts) for k in range(3)]
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_axis_vector_hand_value():
    # B = (0,0,4/3); offsets along z: -4/3, -1/3, 5/3
    # numerator z: 16/9*(-1) + 1/9*(-1/3)/(1/3)... -> -16/9 - 1/9 + 25/9 = 8/9
    # denominator: (16+1+25)/9 = 42/9, so raw = (0,0,4/21)
    mesh = TriangleMesh(
        np.array([[0, 0, 0], [0, 0, 1], [0, 0, 3.0]]), np.zeros((0, 3), int)
    )
    center = center_of_mass(mesh)
    assert np.allclose(center, [0, 0, 4 / 3], atol=1e-15)
    axis, raw = axis_vector(mesh, center)
    assert np.max(np.abs(raw - np.array([0, 0, 4 / 21]))) < 1e-12
    assert np.max(np.abs(axis - np.array([0, 0, 1.0]))) < 1e-12


def test_axis_vector_degenerate_inputs():
    sym = TriangleMesh(
        np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1.0]]
        ),
        np.zeros((0, 3), int),
    )
    with pytest.raises(ValueError):
        axis_vector(sym, np.zeros(3))
    two = TriangleMesh(np.array([[0, 0, 0], [0, 0, 2.0]]), np.zeros((0, 3), int))
    with pytest.raises(ValueError):
        axis_vector(two, np.array([0, 0, 1.0]))
    point = TriangleMesh(np.array([[1, 1, 1.0]]), np.zeros((0, 3), int))
    with pytest.raises(ValueError, match="coincide"):
        axis_vector(point, np.array([1, 1, 1.0]))


def test_axis_vector_is_scale_and_translation_invariant():
    rng = random.Random(13)
    pts = np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(20)])
    mesh = TriangleMesh(pts, np.zeros((0, 3), int))
    axis, _ = axis_vector(mesh, center_of_mass(mesh))
    moved = TriangleMesh(pts * 7.5 + np.array([3, -1, 2.0]), np.zeros((0, 3), int))
    axis2, _ = axis_vector(moved, center_of_mass(moved))
    assert np.max(np.abs(axis - axis2)) < 1e-12


def test_normalize_mesh():
    mesh = TriangleMesh(np.array([[0, 0, 0], [0, 0, 4.0]]), np.zeros((0, 3), int))
    out = normalize_mesh(mesh, center_of_mass(mesh))
    assert np.allclose(out.vertices, [[0, 0, -1], [0, 0, 1]], atol=1e-15)
    again = normalize_mesh(out, center_of_mass(out))
    assert np.max(np.abs(again.vertices - out.vertices)) < 1e-15
    rng = random.Random(5)
    pts = np.array([[rng.uniform(-9, 9) for _ in range(3)] for _ in range(40)])
    normed = normalize_mesh(TriangleMesh(pts, np.zeros((0, 3), int)), pts.mean(axis=0))
    assert abs(np.linalg.norm(normed.vertices, axis=1).max() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        normalize_mesh(
            TriangleMesh(np.array([[1, 2, 3.0]]), np.zeros((0, 3), int)),
            np.array([1, 2, 3.0]),
        )


# --------------------------------------------------------------- filters


def test_filter_line_hand_values():
    # distances 1, 0, 0 and 2 from the line, so the rescale halves them
    mesh = TriangleMesh(
        np.array([[0.6, 0.8, 0], [0, 0, 0.5], [0, 0, -0.3], [0, 2, 0.1]]), np.zeros((0, 3), int)
    )
    frame = MeshFrame(np.zeros(3), np.array([0, 0, 1.0]))
    scaled = filter_line(mesh, frame)
    assert abs(scaled[0] - 0.5) < 1e-12
    assert scaled[1] == 0.0 and scaled[2] == 0.0  # on the line
    assert scaled.min() == 0.0 and scaled.max() == 1.0


def test_filter_plane_hand_values():
    # distances 0.5, 0 and 1 from the plane: the rescale is the identity
    mesh = TriangleMesh(
        np.array([[0.3, 0.4, 0.5], [0.9, -0.2, 0], [0.1, 0.1, -1]]), np.zeros((0, 3), int)
    )
    frame = MeshFrame(np.zeros(3), np.array([0, 0, 1.0]))
    scaled = filter_plane(mesh, frame)
    assert abs(scaled[0] - 0.5) < 1e-12
    assert scaled[1] == 0.0  # in the plane
    assert scaled[2] == 1.0


def test_filters_rigid_motion_invariant():
    rng = random.Random(29)
    pts = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(25)])
    mesh = TriangleMesh(pts, np.zeros((0, 3), int))
    frame = MeshFrame(np.array([0.1, 0, 0]), np.array([0, 0, 1.0]))
    rot = random_rotation(rng)
    shift = np.array([2.0, -1.0, 0.5])
    moved = TriangleMesh(pts @ rot.T + shift, np.zeros((0, 3), int))
    moved_frame = MeshFrame(rot @ frame.center + shift, rot @ frame.axis)
    for fn in (filter_line, filter_plane):
        a = fn(mesh, frame)
        b = fn(moved, moved_frame)
        assert np.max(np.abs(a - b)) < 1e-12


def test_full_chain_scale_invariance():
    # scaling the raw model must not change the normalized filter values
    rng = random.Random(31)
    pts = np.array([[rng.uniform(-3, 3) for _ in range(3)] for _ in range(30)])

    def chain(vertices):
        mesh = TriangleMesh(vertices, np.zeros((0, 3), int))
        normed = normalize_mesh(mesh, center_of_mass(mesh))
        axis, _ = axis_vector(normed, np.zeros(3))
        frame = MeshFrame(np.zeros(3), axis)
        return filter_line(normed, frame), filter_plane(normed, frame)

    la, pa = chain(pts)
    lb, pb = chain(pts * 123.4)
    assert np.max(np.abs(la - lb)) < 1e-12
    assert np.max(np.abs(pa - pb)) < 1e-12


def test_constant_filter_is_an_error():
    # all vertices equidistant from the line: a square around the axis
    mesh = TriangleMesh(
        np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0.0]]),
        np.zeros((0, 3), int),
    )
    frame = MeshFrame(np.zeros(3), np.array([0, 0, 1.0]))
    with pytest.raises(ValueError, match="^line-distance filter is constant across the mesh$"):
        filter_line(mesh, frame)


# ----------------------------------------------------------- persistence


def test_zero_persistence_path_hand_value():
    diag = zero_persistence([0, 2, 1], path_edges(3))
    assert diag == PersistenceDiagram.from_pairs([(1, 2)], essential_count=1)


def test_zero_persistence_constant_function():
    diag = zero_persistence([5, 5, 5, 5], path_edges(4))
    assert len(diag) == 0
    assert diag.essential_count == 1


def test_zero_persistence_merge_pattern():
    # four local minima merging pairwise then together, one survivor
    values = [0, 2, 1, 2, 1, 3, 1, 4]
    diag = zero_persistence(values, path_edges(8))
    assert diag == PersistenceDiagram.from_pairs(
        [(1, 2, 2), (1, 3, 1)], essential_count=1
    )


def test_zero_persistence_disconnected():
    diag = zero_persistence([0, 1, 0, 1], [(0, 1), (2, 3)])
    assert diag.essential_count == 2
    assert len(diag) == 0


def test_zero_persistence_permutation_invariant():
    rng = random.Random(47)
    values = [0, 2, 1, 2, 1, 3, 1, 4]
    edges = path_edges(8)
    base = zero_persistence(values, edges)
    for _ in range(10):
        perm = list(range(8))
        rng.shuffle(perm)
        pvalues = [0.0] * 8
        for old, new in enumerate(perm):
            pvalues[new] = values[old]
        pedges = [(perm[a], perm[b]) for a, b in edges]
        assert zero_persistence(pvalues, pedges) == base
        assert serialize_diagram(zero_persistence(pvalues, pedges)) == serialize_diagram(base)


def test_zero_persistence_bytes_ignore_signed_zeros():
    # -0.0 == 0.0, so which of two such births survives a merge depends on
    # edge and vertex order; the bytes written must not
    rng = np.random.default_rng(2020)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        values = rng.choice([-0.0, 0.0, 0.5, 1.0], n)
        edges = rng.integers(0, n, (int(rng.integers(1, 2 * n + 1)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        base = serialize_diagram(zero_persistence(values, edges))
        for _ in range(20):
            perm = rng.permutation(n)
            relabeled = np.empty(n)
            relabeled[perm] = values
            shuffled = perm[rng.permutation(edges)]
            assert serialize_diagram(zero_persistence(relabeled, shuffled)) == base


def test_zero_persistence_validation():
    with pytest.raises(ValueError):
        zero_persistence([], [])
    with pytest.raises(ValueError):
        zero_persistence([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        zero_persistence([0, 1], [(1, 1)])
    with pytest.raises(ValueError):
        zero_persistence([0, math.inf], [(0, 1)])


def test_zero_persistence_rejects_non_integer_edges():
    with pytest.raises(ValueError, match="integer"):
        zero_persistence([0, 1, 2], [(0.5, 1)])
    with pytest.raises(ValueError, match="integer"):
        zero_persistence([0, 1, 2], np.array([[0, 1], [1, 2.5]]))
    with pytest.raises(ValueError, match="index array"):
        zero_persistence([0, 1, 2], [(0, 1, 2)])
    assert zero_persistence([0, 2, 1], [(0.0, 1.0), (1.0, 2.0)]) == zero_persistence(
        [0, 2, 1], [(0, 1), (1, 2)]
    )


def test_zero_persistence_names_first_bad_edge():
    with pytest.raises(ValueError, match=r"^edge \(1, 1\) repeats a vertex$"):
        zero_persistence([0, 1, 2], [(0, 1), (1, 1), (0, 5)])
    with pytest.raises(ValueError, match=r"^edge \(0, 5\) is out of range for 3 vertices$"):
        zero_persistence([0, 1, 2], np.array([(0, 1), (0, 5), (1, 1)]))
    with pytest.raises(ValueError, match=r"^edge \(-1, 1\) is out of range"):
        zero_persistence([0, 1, 2], [(-1, 1)])
    with pytest.raises(ValueError, match=r"^edge \(5, 5\) is out of range"):
        zero_persistence([0, 1, 2], [(5, 5)])


SQUARE = "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TriangleMesh(np.eye(3), [[0, 1, 2], [2, 1, 2], [0, 1, 3]]),
         "triangle (2, 1, 2) repeats a vertex"),
        (lambda: TriangleMesh(np.eye(3), [[0, 1, 2], [0, -1, 2], [1, 1, 2]]),
         "triangle (0, -1, 2) is out of range for 3 vertices"),
        (lambda: TriangleMesh(np.eye(3), [[0, 1, 2], [0, 1, 2.5], [0, 1, 3]]),
         "triangle (0.0, 1.0, 2.5) has an index that is not a 64-bit integer"),
        (lambda: zero_persistence([0, 1, 2], [(0, 1), (2, 2), (0, 3)]), "edge (2, 2) repeats a vertex"),
        (lambda: zero_persistence([0, 1, 2], [(0, 1), (2, 3), (1, 1)]),
         "edge (2, 3) is out of range for 3 vertices"),
        (lambda: zero_persistence([0, 1, 2], [(0, 1), (0.5, 1), (1, 1)]),
         "edge (0.5, 1.0) has an index that is not a 64-bit integer"),
        (lambda: parse_off(SQUARE + "3 0 1 2\n3 0 2 0\n"), "triangle (0, 2, 0) repeats a vertex"),
        (lambda: parse_off(SQUARE + "3 0 1 2\n3 0 2 4 255 0 0\n"),
         "triangle (0, 2, 4) is out of range for 4 vertices"),
        (lambda: parse_off(SQUARE + "3 0 1 9\n3 0 1 99999999999999999999\n"),
         "triangle (0, 1, 9) is out of range for 4 vertices"),
        (lambda: parse_off(SQUARE + "3 0 1 2\n3 0 2 -99999999999999999999 255\n"),
         "triangle (0, 2, -99999999999999999999) has an index that is not a 64-bit integer"),
    ],
    ids=["TriangleMesh repeat", "TriangleMesh range", "TriangleMesh fraction", "zero_persistence repeat",
         "zero_persistence range", "zero_persistence fraction", "parse_off repeat", "parse_off range",
         "parse_off range before overflow", "parse_off per-line overflow"],
)
def test_every_entry_point_keeps_one_index_row_rule(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_triangle_mesh_holds_read_only_views_of_its_input():
    vertices, triangles = np.eye(3), np.array([[0, 1, 2]])
    meshes = [TriangleMesh(vertices, triangles)]
    meshes.append(normalize_mesh(meshes[0], center_of_mass(meshes[0])))
    for mesh in meshes:
        assert not mesh.vertices.flags.writeable and not mesh.triangles.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mesh.triangles[0, 0] = 1
    assert vertices.flags.writeable and triangles.flags.writeable
    assert np.shares_memory(meshes[0].vertices, vertices)  # a view, not a copy
    assert np.shares_memory(meshes[0].triangles, triangles)
    assert meshes[1].triangles.base is meshes[0].triangles.base  # checked once, then reused


def test_mesh_zero_persistence_single_triangle():
    mesh = TriangleMesh(np.eye(3), np.array([[0, 1, 2]]))
    diag = mesh_zero_persistence(mesh, [0, 1, 2])
    assert len(diag) == 0 and diag.essential_count == 1
    with pytest.raises(ValueError):
        mesh_zero_persistence(mesh, [0, 1])


# ------------------------------------------------------- rank counting


def test_beta0_trivial_levels():
    values = [0, 2, 1, 2, 1, 3, 1, 4]
    edges = path_edges(8)
    assert beta0(values, edges, 4, 4) == 1  # whole connected graph
    assert beta0(values, edges, -0.5, 4) == 0  # empty sublevel start
    with pytest.raises(ValueError):
        beta0(values, edges, 2, 1)


def test_beta0_merge_pattern_ranks():
    values = [0, 2, 1, 2, 1, 3, 1, 4]
    edges = path_edges(8)
    e = 0.25
    assert beta0(values, edges, 1 + e, 2 - e) == 4
    assert beta0(values, edges, 1 + e, 2 + e) == 2
    assert beta0(values, edges, 1 - e, 2 - e) == 1
    assert beta0(values, edges, 1 - e, 2 + e) == 1


def test_multiplicity0_merge_pattern():
    values = [0, 2, 1, 2, 1, 3, 1, 4]
    edges = path_edges(8)
    assert multiplicity0(values, edges, 1, 2) == 2
    assert multiplicity0(values, edges, 1, 3) == 1
    assert multiplicity0(values, edges, 0, 2) == 0  # no such diagram point
    assert multiplicity0(values, edges, 2, 3) == 0


def test_multiplicity0_eps_validation():
    values = [0, 1, 0.5]
    edges = path_edges(3)
    with pytest.raises(ValueError):
        multiplicity0(values, edges, 1, 1)  # diagonal
    for u, v in [(0, math.inf), (-math.inf, 0), (-1e308, 1e308), (0, math.nan)]:
        with pytest.raises(ValueError, match="must satisfy u < v and a finite v - u"):
            multiplicity0(values, edges, u, v)


def test_multiplicity0_checks_once_and_builds_two_partitions(monkeypatch):
    calls = {"_check_graph": 0, "_sublevel_components": 0}
    for name in calls:
        real = getattr(mesh_module, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mesh_module, name, counted)
    assert multiplicity0([0, 2, 1, 2, 1, 3, 1, 4], path_edges(8), 1, 2) == 2
    assert calls == {"_check_graph": 1, "_sublevel_components": 2}


def two_level_beta0(values, edges, u, v):
    """beta0 as two partitions: the level-v components that hold a level-u component."""

    def partition(level):
        parent = {i: i for i, x in enumerate(values) if x <= level}

        def root(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for a, b in edges:
            if max(values[a], values[b]) <= level:
                parent[root(a)] = root(b)
        return parent, root

    below_u, root_u = partition(u)
    below_v, root_v = partition(v)
    return len({root_v(r) for r in {root_u(i) for i in below_u}})


def test_beta0_equals_the_two_level_count():
    rng = random.Random(1919)
    for _ in range(200):
        n = rng.randrange(1, 11)
        values = [rng.randrange(5) / 2 for _ in range(n)]  # five levels: values tie
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randrange(2 * n))] if n > 1 else []
        edges = sorted({(min(p), max(p)) for p in pairs})  # isolated vertices and parts come up
        levels = sorted(set(values))
        probes = levels + [(a + b) / 2 for a, b in zip(levels, levels[1:])] + [-1.0, 3.0]
        for u in probes:
            for v in probes:
                if u <= v:  # u == v included
                    assert beta0(values, edges, u, v) == two_level_beta0(values, edges, u, v)


def random_graph(rng, max_vertices=10):
    n = rng.randrange(2, max_vertices + 1)
    values = list(range(n))
    rng.shuffle(values)
    values = [v + rng.random() * 0.5 for v in values]  # distinct by construction
    edges = set()
    for _ in range(rng.randrange(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return values, sorted(edges)


def test_sweep_agrees_with_rank_oracle():
    # the union-find sweep and the alternating rank formula must name
    # exactly the same multiset of points
    rng = random.Random(20240818)
    for _ in range(50):
        values, edges = random_graph(rng)
        diag = zero_persistence(values, edges)
        for p in diag:
            assert (
                multiplicity0(values, edges, p.birth, p.death) == p.multiplicity
            )
        # and nothing extra: any other value pair has multiplicity 0
        stored = {(p.birth, p.death) for p in diag}
        levels = sorted(values)
        for i, u in enumerate(levels):
            for v in levels[i + 1 :]:
                if (u, v) not in stored:
                    assert multiplicity0(values, edges, u, v) == 0


def test_sum_rule_births_are_conserved():
    # every local minimum starts a component; it either merges away
    # (one diagram point) or survives (essential)
    rng = random.Random(97)
    for _ in range(30):
        values, edges = random_graph(rng, max_vertices=14)
        neighbours = {i: set() for i in range(len(values))}
        for a, b in edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        minima = sum(
            all(values[j] > values[i] for j in neighbours[i])
            for i in range(len(values))
        )
        diag = zero_persistence(values, edges)
        assert diag.total_multiplicity() + diag.essential_count == minima


@st.composite
def tied_graphs(draw):
    """Grid-valued vertex functions (at most five levels, so values repeat)
    on a random graph or on the edge graph of a small random mesh; isolated
    vertices and disconnected parts come up on their own."""
    n = draw(st.integers(1, 9))
    values = draw(st.lists(st.integers(0, 4).map(lambda k: k / 2), min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        tris = draw(st.lists(st.permutations(range(n)).map(lambda p: p[:3]), max_size=2 * n))
        edges = [tuple(e) for e in triangle_edges(TriangleMesh(np.zeros((n, 3)), tris)).tolist()]
    else:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, max_size=2 * n)) if n >= 2 else []
    if draw(st.booleans()):
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return values, edges


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tied_graphs())
def test_sweep_agrees_with_rank_oracle_under_ties(graph):
    values, edges = graph
    diag = zero_persistence(values, edges)
    stored = {(p.birth, p.death): p.multiplicity for p in diag}
    levels = sorted(set(values))
    assert set(stored) <= {(u, v) for u in levels for v in levels if u < v}
    for i, u in enumerate(levels):
        for v in levels[i + 1 :]:
            assert multiplicity0(values, edges, u, v) == stored.get((u, v), 0)
    top = levels[-1]
    assert diag.essential_count == beta0(values, edges, top, top)


def test_triangle_edges_is_sorted_int64_array():
    rng = random.Random(606)
    cases = []
    for _ in range(30):
        n = rng.randint(3, 40)
        cases.append((n, [rng.sample(range(n), 3) for _ in range(rng.randint(0, 3 * n))]))
    cases.append((5, []))  # zero triangles
    cases.append((6, [[0, 1, 2], [2, 1, 0], [0, 1, 2], [1, 2, 0], [5, 4, 3], [3, 4, 5], [0, 1, 2]]))
    big = 2**16 + 7  # keys lo * n + hi pass 32 bits
    tris = [rng.sample(range(big), 3) for _ in range(300)]
    tris += [t[::-1] for t in tris[:50]] + tris[:50] + [[big - 1, big - 2, big - 3], [0, 1, big - 1]]
    cases.append((big, tris))
    for n, tris in cases:
        edges = triangle_edges(TriangleMesh(np.zeros((n, 3)), tris))
        want = sorted({(min(x, y), max(x, y)) for a, b, c in tris for x, y in ((a, b), (b, c), (a, c))})
        assert edges.dtype == np.int64 and edges.shape == (len(want), 2)
        assert [tuple(e) for e in edges.tolist()] == want


def edge_sweep(values, edges):
    """Reference for zero_persistence: the elder-rule union-find run over
    every edge of the graph, not just the lowest edge between two basins."""
    f, e = mesh_module._check_graph(values, edges)
    levels = np.maximum(f[e[:, 0]], f[e[:, 1]])
    order = np.argsort(levels, kind="stable")
    heads, tails = e[order].T.tolist()
    parent = list(range(len(f)))
    birth = f.tolist()
    births, deaths = [], []
    for level, a, b in zip(levels[order].tolist(), heads, tails):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            continue
        if birth[b] < birth[a]:
            a, b = b, a
        if birth[b] < level:
            births.append(birth[b])
            deaths.append(level)
        parent[b] = a
    roots = sum(i == p for i, p in enumerate(parent))
    return PersistenceDiagram(births, deaths, essential_count=roots)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(tied_graphs())
@example(([0.5], []))
@example(([1.0, 1.0, 1.0], [(0, 1), (1, 0), (0, 1), (1, 2)]))
def test_zero_persistence_matches_edge_sweep_bytes(graph):
    values, edges = graph
    assert serialize_diagram(zero_persistence(values, edges)) == serialize_diagram(edge_sweep(values, edges))


@pytest.mark.parametrize("seed, n_lat, n_lon", [(1, 40, 40), (2, 48, 40), (3, 40, 56)])
def test_mesh_zero_persistence_matches_edge_sweep_on_sphere_grids(seed, n_lat, n_lon):
    mesh = parse_off(sphere_grid_off(np.random.default_rng(seed), n_lat, n_lon))
    centered = normalize_mesh(mesh, center_of_mass(mesh))
    frame = MeshFrame(np.zeros(3), axis_vector(centered, np.zeros(3))[0])
    for filt in (filter_line, filter_plane):
        values = filt(centered, frame)
        diag = mesh_zero_persistence(centered, values)
        assert len(diag) > 10  # the noise leaves many basins to merge
        assert serialize_diagram(diag) == serialize_diagram(edge_sweep(values, triangle_edges(centered)))


@pytest.mark.parametrize("kind", ["ramp", "alternating", "random"])
def test_zero_persistence_matches_edge_sweep_on_long_paths(kind):
    # a ramp is one basin reached by the most pointer-jumping rounds; alternating
    # values make every other vertex a basin, so contraction saves no merge
    n = 2**17
    values = {"ramp": np.arange(n, dtype=float)[::-1], "alternating": np.arange(n) % 2 * 1.0,
              "random": np.random.default_rng(17).random(n)}[kind]
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    assert serialize_diagram(zero_persistence(values, edges)) == serialize_diagram(edge_sweep(values, edges))


def test_zero_persistence_memory_peak_per_edge():
    # a 200 x 200 grid wrapped in longitude, as the sphere meshes are: 119,600 edges
    i, j = np.meshgrid(np.arange(199), np.arange(200), indexing="ij")
    v00, v01 = i * 200 + j, i * 200 + (j + 1) % 200
    tris = np.concatenate([np.stack([v00, v00 + 200, v01 + 200], axis=-1).reshape(-1, 3),
                           np.stack([v00, v01 + 200, v01], axis=-1).reshape(-1, 3)])
    edges = triangle_edges(TriangleMesh(np.zeros((200 * 200, 3)), tris))
    values = np.random.default_rng(200).random(200 * 200)
    assert len(edges) == 119_600
    tracemalloc.start()
    try:
        zero_persistence(values, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * len(edges)

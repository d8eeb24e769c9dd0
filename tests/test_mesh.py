import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persvec.diagram import PersistenceDiagram
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
    with pytest.raises(ValueError, match="degenerate"):
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
    """The per-line OFF parser as first written, kept as the reference; an
    int64-overflowing face index is a ValueError naming the face."""
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
    triangles = np.empty((n_faces, 3), dtype=int)
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
            triangles[i] = [int(fields[1]), int(fields[2]), int(fields[3])]
        except ValueError:
            raise ValueError(f"malformed face line {lines[pos + i]!r}") from None
        except OverflowError:
            raise ValueError(f"face {i} has an index that is not a 64-bit integer") from None
    return TriangleMesh(vertices, triangles)


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
    defect = rng.randrange(16)
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
        rng.choice(faces)[rng.randrange(1, 4)] = rng.choice(["1.0", "x", "1e1", "0x1"])
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
    body = [join(v) for v in verts] + [join(f) for f in faces]
    if defect == 12:  # surplus body lines are ignored
        body.append("1 2 3")
    elif defect == 13:  # one body line too few
        body.pop()
    lines = ["OFF", f"{n} {m} 0"]
    for line in body:
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "# note", "\t# 1 2 3"]))
        if rng.random() < 0.15:
            line += rng.choice([" # trailing", "#", "\t"])
        lines.append(rng.choice(["", " ", "\t"]) + line)
    if defect == 14:
        lines.insert(0, "# leading comment")
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"])


def parse_outcome(parser, text):
    try:
        mesh = parser(text)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", mesh.vertices.dtype, mesh.vertices.tobytes(), mesh.triangles.shape,
            mesh.triangles.dtype, mesh.triangles.tobytes())


def test_parse_off_matches_per_line_parser():
    rng = random.Random(6060)
    kinds = {"ok": 0, "error": 0}
    for _ in range(600):
        text = fuzzed_off(rng)
        want = parse_outcome(per_line_parse_off, text)
        assert parse_outcome(parse_off, text) == want, text
        kinds[want[0]] += 1
    assert kinds["ok"] > 200 and kinds["error"] > 200, kinds


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
    mesh = TriangleMesh(
        np.array([[0.6, 0.8, 0], [0, 0, 0.5], [0, 0, -0.3]]), np.zeros((0, 3), int)
    )
    frame = MeshFrame(np.zeros(3), np.array([0, 0, 1.0]))
    raw = filter_line(mesh, frame, rescale=False)
    assert abs(raw[0] - 1.0) < 1e-12
    assert raw[1] == 0.0 and raw[2] == 0.0  # on the line
    scaled = filter_line(mesh, frame)
    assert scaled.min() == 0.0 and scaled.max() == 1.0


def test_filter_plane_hand_values():
    mesh = TriangleMesh(
        np.array([[0.3, 0.4, 0.5], [0.9, -0.2, 0]]), np.zeros((0, 3), int)
    )
    frame = MeshFrame(np.zeros(3), np.array([0, 0, 1.0]))
    raw = filter_plane(mesh, frame, rescale=False)
    assert abs(raw[0] - 0.5) < 1e-12
    assert raw[1] == 0.0  # in the plane


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
        a = fn(mesh, frame, rescale=False)
        b = fn(moved, moved_frame, rescale=False)
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


def test_constant_filter_warns_and_zeroes():
    # all vertices equidistant from the line: a square around the axis
    mesh = TriangleMesh(
        np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0.0]]),
        np.zeros((0, 3), int),
    )
    frame = MeshFrame(np.zeros(3), np.array([0, 0, 1.0]))
    with pytest.warns(UserWarning, match="constant"):
        values = filter_line(mesh, frame)
    assert np.all(values == 0.0)


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
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        zero_persistence([0, 1, 2], [(0, 1), (1, 1), (0, 5)])
    with pytest.raises(ValueError, match=r"^edge \(0, 5\) is out of range for 3 vertices$"):
        zero_persistence([0, 1, 2], np.array([(0, 1), (0, 5), (1, 1)]))
    with pytest.raises(ValueError, match=r"^edge \(-1, 1\) is out of range"):
        zero_persistence([0, 1, 2], [(-1, 1)])
    with pytest.raises(ValueError, match=r"^edge \(5, 5\) is out of range"):
        zero_persistence([0, 1, 2], [(5, 5)])


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
    with pytest.raises(ValueError):
        multiplicity0(values, edges, 0, 1, eps=-0.1)
    with pytest.raises(ValueError):
        multiplicity0(values, edges, 0, 1, eps=0.5)  # cannot separate u from v
    with pytest.raises(ValueError):
        multiplicity0(values, edges, 0, 1, eps=0.4)  # coarser than value gaps


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
    for _ in range(30):
        n = rng.randint(3, 40)
        tris = [rng.sample(range(n), 3) for _ in range(rng.randint(0, 3 * n))]
        edges = triangle_edges(TriangleMesh(np.zeros((n, 3)), tris))
        want = sorted({(min(x, y), max(x, y)) for a, b, c in tris for x, y in ((a, b), (b, c), (a, c))})
        assert edges.dtype == np.int64 and edges.shape == (len(want), 2)
        assert [tuple(e) for e in edges.tolist()] == want

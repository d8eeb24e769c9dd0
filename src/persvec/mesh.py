"""Triangle meshes, shape-aligned scalar filters, and degree-0 persistence.

The shape pipeline: parse an OFF file, find the vertex center of mass,
normalize into the unit sphere, pick a data-driven axis, evaluate one of
two scalar functions per vertex (distance to the axis line, or distance
to the plane normal to it), and take the 0th persistence diagram of the
sublevel filtration on the mesh's edge graph.

Persistence itself only needs vertex values and an edge list, so the
core functions (:func:`zero_persistence`, :func:`beta0`,
:func:`multiplicity0`) work on any finite graph; triangle meshes pass
through :func:`triangle_edges` / :func:`mesh_zero_persistence`.
`zero_persistence` contracts each descending basin (the vertices that
flow down to one local minimum) in numpy and runs the union-find sweep
only over the lowest edge between two basins.  `beta0` is a deliberately
naive component count, read from the rank's definition, used as an
independent check on that sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import PersistenceDiagram, _bulk_block, _lf_lines, _readonly, _run_starts


def _index_rows(entries, width: int, vertices: int, what: str) -> np.ndarray:
    """Triangle or edge indices as an (m, width) int64 array.

    The index-row rule: each row names ``width`` distinct vertices out of
    ``vertices``, by integer indices.  The first row that breaks it is a
    ValueError; a fractional or non-finite entry is never truncated, and
    an int past 64 bits (in an object array) never wraps.
    """
    rows = np.asarray(entries)
    if rows.size == 0:
        rows = rows.reshape(0, width)
    wide = rows.dtype == object and all(isinstance(x, int) for x in rows.flat)  # ints past 64 bits
    if rows.ndim != 2 or rows.shape[1] != width or not (wide or rows.dtype.kind in "biuf"):
        raise ValueError(f"{what}s must be an (m, {width}) index array")
    with np.errstate(invalid="ignore"):
        ints = (rows.clip(-(2**63), 2**63 - 1) if wide else rows).astype(np.int64, copy=False)
    cols = ints.view(np.uint64).T  # a negative index wraps past any vertex count
    bad = np.zeros(len(rows), dtype=bool)
    for i in range(width):
        bad |= (ints[:, i] != rows[:, i]) | (cols[i] >= vertices)
        for j in range(i):
            bad |= cols[i] == cols[j]
    if bad.any():
        first = int(np.argmax(bad))
        row, index = rows[first], ints[first]
        if (index != row).any():
            raise ValueError(f"{what} {tuple(row.tolist())} has an index that is not a 64-bit integer")
        if ((index < 0) | (index >= vertices)).any():
            raise ValueError(f"{what} {tuple(index.tolist())} is out of range for {vertices} vertices")
        raise ValueError(f"{what} {tuple(index.tolist())} repeats a vertex")
    return ints


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Vertex positions (n, 3) and triangle index triples (m, 3), held as read-only views."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3 or verts.shape[0] < 1:
            raise ValueError("vertices must be an (n, 3) array with n >= 1")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertex coordinates must be finite")
        self._hold(verts, _index_rows(self.triangles, 3, len(verts), "triangle"))

    @classmethod
    def _trusted(cls, vertices: np.ndarray, triangles: np.ndarray) -> "TriangleMesh":
        """A mesh from finite (n, 3) floats and triangles already checked by :func:`_index_rows`."""
        return object.__new__(cls)._hold(vertices, triangles)

    def _hold(self, vertices: np.ndarray, triangles: np.ndarray) -> "TriangleMesh":
        object.__setattr__(self, "vertices", _readonly(vertices.view()))
        object.__setattr__(self, "triangles", _readonly(triangles.view()))
        return self

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True, eq=False)
class MeshFrame:
    """A reference point and a unit direction fixed to a shape, held as read-only views."""

    center: np.ndarray
    axis: np.ndarray

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float).reshape(3)
        axis = np.asarray(self.axis, dtype=float).reshape(3)
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(axis))):
            raise ValueError("frame entries must be finite")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
            raise ValueError(f"axis must be unit length, got norm {np.linalg.norm(axis)}")
        object.__setattr__(self, "center", _readonly(center.view()))
        object.__setattr__(self, "axis", _readonly(axis.view()))


# ------------------------------------------------------------------ OFF


def _bulk_off(text: str) -> TriangleMesh | None:
    """The mesh of a plain OFF text (``OFF`` on its first line, no ``#``, no
    line break but ``\\n``), its two blocks read from slices of the text;
    None (the per-line reader takes over) where that would not be its reading,
    as where a block holds a blank line or another field count."""
    if not (text.startswith("OFF\n") and "#" not in text and _lf_lines(text)):
        return None
    ends = np.flatnonzero(np.frombuffer(text.encode(), np.uint8) == ord("\n"))
    if not text.endswith("\n"):
        ends = np.append(ends, len(text))
    try:
        n_vertices, n_faces = map(int, text[4 : ends[1]].split()[:2])
    except (IndexError, ValueError):
        return None
    if n_vertices < 1 or n_faces < 0 or len(ends) < 2 + n_vertices + n_faces:
        return None
    face_start = ends[1 + n_vertices] + 1
    vertices = _bulk_block(text[ends[1] + 1 : face_start], float, (n_vertices, 3))
    faces = _bulk_block(text[face_start : ends[1 + n_vertices + n_faces] + 1], np.int64, (n_faces, 4))
    if vertices is None or faces is None or not np.all(faces[:, 0] == 3):
        return None
    return TriangleMesh(vertices, faces[:, 1:])


def parse_off(text: str) -> TriangleMesh:
    """Parse an ASCII OFF file with triangle faces.

    Layout: ``OFF`` header, a counts line (vertices, faces, and an
    ignored edge count), one line per vertex with three coordinates,
    then one line per face as ``3 i j k`` (trailing tokens, e.g. face
    colors, are ignored).  ``#`` starts a comment.  A text :func:`_bulk_off`
    reads skips the per-line reader; errors come from it and name the line.
    """
    if (mesh := _bulk_off(text)) is not None:
        return mesh
    lines = [line for raw in text.splitlines() if (line := raw.partition("#")[0].strip())]
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
    try:
        return TriangleMesh(vertices, np.array(triangles, dtype=np.int64))
    except OverflowError:  # an index past 64 bits, which the index-row rule names
        return TriangleMesh(vertices, np.array(triangles, dtype=object))


# ---------------------------------------------------------------- frame


def center_of_mass(mesh: TriangleMesh) -> np.ndarray:
    """Plain arithmetic mean of the vertex positions; not finite where the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return mesh.vertices.mean(axis=0)


def axis_vector(mesh: TriangleMesh, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant direction of a shape about ``center``.

    The raw vector is the norm-weighted mean of the centered vertices,
    sum((v_i - c) * |v_i - c|) / sum(|v_i - c|^2): translation invariant
    by construction and scale invariant by the quadratic denominator.
    Returns (unit axis, raw vector).

    Raises ValueError when every vertex sits at ``center`` and when the
    shape is balanced enough that the raw vector cancels to nearly zero
    (norm below 1e-9), in which case no direction is defined.
    """
    offsets = mesh.vertices - np.asarray(center, dtype=float).reshape(3)
    norms = np.linalg.norm(offsets, axis=1)
    denom = float(np.sum(norms**2))
    if denom == 0.0:
        raise ValueError("all vertices coincide with the center; no axis exists")
    raw = (offsets * norms[:, None]).sum(axis=0) / denom
    length = float(np.linalg.norm(raw))
    if length < 1e-9:
        raise ValueError(
            f"axis vector cancels out (norm {length:.3e}); direction is undefined"
        )
    return raw / length, raw


def normalize_mesh(mesh: TriangleMesh, center: np.ndarray) -> TriangleMesh:
    """Translate ``center`` to the origin and scale the farthest vertex to norm 1.

    Raises ValueError when that vertex's distance does not fit a float:
    coordinates beyond about 1e154 square past the largest double.
    """
    with np.errstate(over="ignore"):
        offsets = mesh.vertices - np.asarray(center, dtype=float).reshape(3)
        radius = float(np.linalg.norm(offsets, axis=1).max())
    if not np.isfinite(radius):
        raise ValueError("vertex coordinates too large: the farthest vertex's distance overflows")
    if radius == 0.0:
        raise ValueError("all vertices coincide with the center; cannot normalize")
    return TriangleMesh._trusted(offsets / radius, mesh.triangles)


# -------------------------------------------------------------- filters


def _rescale_unit(raw: np.ndarray, what: str) -> np.ndarray:
    """Min-max rescale to [0, 1]; a constant filter has no scale to take."""
    lo, hi = float(raw.min()), float(raw.max())
    if hi == lo:
        raise ValueError(f"{what} is constant across the mesh")
    return (raw - lo) / (hi - lo)


def filter_line(mesh: TriangleMesh, frame: MeshFrame) -> np.ndarray:
    """Distance from each vertex to the line through the frame center
    along the frame axis, min-max rescaled to [0, 1]."""
    offsets = mesh.vertices - frame.center
    along = offsets @ frame.axis
    raw = np.linalg.norm(offsets - np.outer(along, frame.axis), axis=1)
    return _rescale_unit(raw, "line-distance filter")


def filter_plane(mesh: TriangleMesh, frame: MeshFrame) -> np.ndarray:
    """Distance from each vertex to the plane through the frame center
    orthogonal to the frame axis, min-max rescaled to [0, 1]."""
    raw = np.abs((mesh.vertices - frame.center) @ frame.axis)
    return _rescale_unit(raw, "plane-distance filter")


FILTERS = {"line": filter_line, "plane": filter_plane}


# -------------------------------------------------- sublevel persistence


def triangle_edges(mesh: TriangleMesh) -> np.ndarray:
    """Deduplicated edges of the mesh's triangles as an (E, 2) int64
    array of rows (lo, hi), lo < hi, in lexicographic order."""
    n = mesh.vertex_count
    a = mesh.triangles[:, [0, 1, 0]].ravel()
    b = mesh.triangles[:, [1, 2, 2]].ravel()
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return np.column_stack(np.divmod(keys[_run_starts(keys)], n))


def _check_graph(values, edges) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or not f.size:
        raise ValueError("need a flat sequence of at least one vertex value")
    if not np.all(np.isfinite(f)):
        raise ValueError("vertex values must be finite")
    # + 0.0 turns -0.0 into 0.0, so which of two equal births survives cannot show in the bytes
    return f + 0.0, _index_rows(edges, 2, len(f), "edge")


def zero_persistence(values, edges) -> PersistenceDiagram:
    """Degree-0 sublevel persistence of vertex values on a graph.

    Vertices enter at their own value, an edge at the larger of its
    endpoint values.  Every vertex first follows strictly lower
    neighbours down to a local minimum; the vertices that reach one
    minimum form its basin, born at the minimum's value.  A vertex joins
    its minimum through edges no higher than its own value, so only the
    lowest edge between two basins can merge anything.  Sweeping those
    edges upward (stable argsort of levels) through a union-find with
    path halving, each union kills the younger of the two components
    (larger birth) and records (its birth, edge level) when that pair is
    off the diagonal.  Neither the lower neighbour a vertex follows, nor
    the order of equal-level edges, nor the survivor of equal births
    changes a pair's bytes (values are read with -0.0 as 0.0).
    Components alive at the end are tallied in ``essential_count``, one
    per connected component.
    """
    f, e = _check_graph(values, edges)
    head, tail = e.T
    levels = np.maximum(f[head], f[tail])
    down = np.arange(len(f))  # a strictly lower neighbour, or the vertex itself at a local minimum
    for low, high in ((head, tail), (tail, head)):
        lower = f[low] < levels  # the edge falls from high to low
        down[high[lower]] = low[lower]
    while not np.array_equal(jumped := down[down], down):  # values fall along pointers: this stops
        down = jumped
    minima = down == np.arange(len(f))
    basin = (np.cumsum(minima) - 1)[down]  # numbered in the order of their minima
    n = int(minima.sum())
    lo, hi = np.minimum(basin[head], basin[tail]), np.maximum(basin[head], basin[tail])
    cross = lo != hi
    keys = lo[cross] * n + hi[cross]
    order = np.argsort(keys)
    keys = keys[order]
    first = _run_starts(keys)  # the runs of one basin pair, which merges at its lowest edge
    levels = np.minimum.reduceat(levels[cross][order], np.flatnonzero(first))
    order = np.argsort(levels, kind="stable")
    heads, tails = (x.tolist() for x in np.divmod(keys[first][order], n))
    parent = list(range(n))
    birth = f[minima].tolist()  # a component's birth, kept at its root
    births: list[float] = []
    deaths: list[float] = []
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


def mesh_zero_persistence(mesh: TriangleMesh, values) -> PersistenceDiagram:
    """Degree-0 persistence of per-vertex values on a triangle mesh."""
    f = np.asarray(values, dtype=float)
    if f.shape != (mesh.vertex_count,):
        raise ValueError(
            f"expected {mesh.vertex_count} vertex values, got shape {f.shape}"
        )
    return zero_persistence(f, triangle_edges(mesh))


def _root(parent: dict[int, int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]  # path halving
        i = parent[i]
    return i


def _sublevel_components(f, edges, level) -> dict[int, int]:
    """Union-find parents of the vertices at or below ``level``."""
    parent = {i: i for i, x in enumerate(f) if x <= level}
    for a, b in edges:
        if a in parent and b in parent and max(f[a], f[b]) <= level:
            parent[_root(parent, a)] = _root(parent, b)
    return parent


def _rank(f, below_v: dict[int, int], u: float) -> int:
    """Level-v components (the partition ``below_v``) that hold a vertex of value <= u."""
    return len({_root(below_v, i) for i in below_v if f[i] <= u})


def beta0(values, edges, u: float, v: float) -> int:
    """Number of components at level u that are still separate at level v.

    Brute force by design: partition the level-v sublevel graph and count
    the components that hold a vertex of value <= u (each level-u
    component lies inside one of them, as u <= v).  Serves as the
    ground-truth oracle for :func:`zero_persistence` via :func:`multiplicity0`.
    """
    if u > v:
        raise ValueError(f"need u <= v, got u={u}, v={v}")
    f, edges = (x.tolist() for x in _check_graph(values, edges))
    return _rank(f, _sublevel_components(f, edges, v), u)


def multiplicity0(values, edges, u: float, v: float) -> int:
    """Multiplicity of (u, v) as a degree-0 persistence point.

    Evaluates the alternating rank count
    beta0(u+e, v-e) - beta0(u-e, v-e) - beta0(u+e, v+e) + beta0(u-e, v+e)
    at a probe offset ``e`` small enough that no function value and
    neither of u, v is crossed: a quarter of the smallest positive gap
    between distinct values, capped at (v-u)/4.  The terms share the
    partitions at v-e and v+e.
    """
    if not (u < v and np.isfinite(v - u)):  # the probe offset needs a finite v - u
        raise ValueError(f"(u, v) must satisfy u < v and a finite v - u, got ({u}, {v})")
    f, edges = (x.tolist() for x in _check_graph(values, edges))
    levels = sorted(set(f))
    eps = min([(v - u) / 4.0] + [(b - a) / 4.0 for a, b in zip(levels, levels[1:])])
    below, above = (_sublevel_components(f, edges, v + s) for s in (-eps, eps))
    return (_rank(f, below, u + eps) - _rank(f, below, u - eps)
            - _rank(f, above, u + eps) + _rank(f, above, u - eps))

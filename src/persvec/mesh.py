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
`beta0` is a deliberately naive two-level component count used as an
independent check on the union-find sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import DisjointSet

from .diagram import PersistenceDiagram


def _index_rows(entries, width: int, what: str) -> np.ndarray:
    """Triangle or edge indices as an (m, width) int64 array; a row with a
    fractional or non-finite entry is a ValueError, never truncated."""
    rows = np.asarray(entries)
    if rows.size == 0:
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width or rows.dtype.kind not in "biuf":
        raise ValueError(f"{what}s must be an (m, {width}) index array")
    with np.errstate(invalid="ignore"):
        ints = rows.astype(np.int64)
    exact = (ints == rows).all(axis=1)
    if not exact.all():
        bad = tuple(rows[int(np.argmin(exact))].tolist())
        raise ValueError(f"{what} {bad} has an index that is not a 64-bit integer")
    return ints


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Vertex positions (n, 3) and triangle index triples (m, 3)."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3 or verts.shape[0] < 1:
            raise ValueError("vertices must be an (n, 3) array with n >= 1")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertex coordinates must be finite")
        tris = _index_rows(self.triangles, 3, "triangle")
        n = verts.shape[0]
        if tris.size:
            if tris.min() < 0 or tris.max() >= n:
                raise ValueError("triangle index out of range")
            degenerate = (
                (tris[:, 0] == tris[:, 1])
                | (tris[:, 1] == tris[:, 2])
                | (tris[:, 0] == tris[:, 2])
            )
            if degenerate.any():
                bad = int(np.argmax(degenerate))
                raise ValueError(f"degenerate triangle {tuple(tris[bad].tolist())} repeats an index")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True, eq=False)
class MeshFrame:
    """A reference point and a unit direction fixed to a shape."""

    center: np.ndarray
    axis: np.ndarray

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float).reshape(3)
        axis = np.asarray(self.axis, dtype=float).reshape(3)
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(axis))):
            raise ValueError("frame entries must be finite")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
            raise ValueError(f"axis must be unit length, got norm {np.linalg.norm(axis)}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axis", axis)


# ------------------------------------------------------------------ OFF


def _bulk_block(block: list[str], width: int, dtype) -> np.ndarray | None:
    """Lines of exactly ``width`` fields as one array, converted in one pass;
    None (per-line parsing takes over) on any other field count or bad field."""
    if any(len(line.split()) != width for line in block):
        return None
    try:
        return np.array(" ".join(block).split(), dtype=dtype).reshape(-1, width)
    except (ValueError, OverflowError):
        return None


def parse_off(text: str) -> TriangleMesh:
    """Parse an ASCII OFF file with triangle faces.

    Layout: ``OFF`` header, a counts line (vertices, faces, and an
    ignored edge count), one line per vertex with three coordinates,
    then one line per face as ``3 i j k`` (trailing tokens, e.g. face
    colors, are ignored).  ``#`` starts a comment.
    """
    raw_lines = text.splitlines()
    if "#" in text:
        raw_lines = [raw.split("#", 1)[0] for raw in raw_lines]
    lines = [line for line in map(str.strip, raw_lines) if line]
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
    vertices = _bulk_block(lines[pos : pos + n_vertices], 3, float)
    if vertices is None:
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
    faces = _bulk_block(lines[pos : pos + n_faces], 4, np.int64)
    if faces is not None and np.all(faces[:, 0] == 3):
        return TriangleMesh(vertices, faces[:, 1:])
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


# ---------------------------------------------------------------- frame


def center_of_mass(mesh: TriangleMesh) -> np.ndarray:
    """Plain arithmetic mean of the vertex positions."""
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
    """Translate ``center`` to the origin and scale the farthest vertex to norm 1."""
    offsets = mesh.vertices - np.asarray(center, dtype=float).reshape(3)
    radius = float(np.linalg.norm(offsets, axis=1).max())
    if radius == 0.0:
        raise ValueError("all vertices coincide with the center; cannot normalize")
    return TriangleMesh(offsets / radius, mesh.triangles)


# -------------------------------------------------------------- filters


def _rescale_unit(raw: np.ndarray, what: str) -> np.ndarray:
    lo, hi = float(raw.min()), float(raw.max())
    if hi == lo:
        warnings.warn(
            f"{what} is constant across the mesh; emitting all zeros",
            stacklevel=3,
        )
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def filter_line(mesh: TriangleMesh, frame: MeshFrame, rescale: bool = True) -> np.ndarray:
    """Distance from each vertex to the line through the frame center
    along the frame axis, min-max rescaled to [0, 1] unless ``rescale``
    is off."""
    offsets = mesh.vertices - frame.center
    along = offsets @ frame.axis
    raw = np.linalg.norm(offsets - np.outer(along, frame.axis), axis=1)
    return _rescale_unit(raw, "line-distance filter") if rescale else raw


def filter_plane(mesh: TriangleMesh, frame: MeshFrame, rescale: bool = True) -> np.ndarray:
    """Distance from each vertex to the plane through the frame center
    orthogonal to the frame axis, min-max rescaled to [0, 1] unless
    ``rescale`` is off."""
    raw = np.abs((mesh.vertices - frame.center) @ frame.axis)
    return _rescale_unit(raw, "plane-distance filter") if rescale else raw


FILTERS = {"line": filter_line, "plane": filter_plane}


# -------------------------------------------------- sublevel persistence


def triangle_edges(mesh: TriangleMesh) -> np.ndarray:
    """Deduplicated edges of the mesh's triangles as an (E, 2) int64
    array of rows (lo, hi), lo < hi, in lexicographic order."""
    n = mesh.vertex_count
    a = mesh.triangles[:, [0, 1, 0]].ravel()
    b = mesh.triangles[:, [1, 2, 2]].ravel()
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return np.column_stack(np.divmod(keys, n))


def _check_graph(values, edges) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or not f.size:
        raise ValueError("need a flat sequence of at least one vertex value")
    if not np.all(np.isfinite(f)):
        raise ValueError("vertex values must be finite")
    e = _index_rows(edges, 2, "edge")
    n = len(f)
    bad = ((e < 0) | (e >= n)).any(axis=1) | (e[:, 0] == e[:, 1])
    if bad.any():
        a, b = e[int(np.argmax(bad))].tolist()
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) is out of range for {n} vertices")
        raise ValueError(f"self-loop at vertex {a}")
    return f, e


def zero_persistence(values, edges) -> PersistenceDiagram:
    """Degree-0 sublevel persistence of vertex values on a graph.

    Vertices enter at their own value, an edge at the larger of its
    endpoint values.  Sweeping edges upward (stable argsort of levels)
    through a union-find with path halving, each union kills the younger
    of the two components (larger birth) and records (its birth, edge
    level) when that pair is off the diagonal.  Neither the order of
    equal-level edges nor the survivor of equal births changes a pair.
    Components alive at the end are tallied in ``essential_count``,
    one per connected component.
    """
    f, e = _check_graph(values, edges)
    levels = np.maximum(f[e[:, 0]], f[e[:, 1]])
    order = np.argsort(levels, kind="stable")
    heads, tails = e[order].T.tolist()
    parent = list(range(len(f)))
    birth = f.tolist()  # a component's birth, kept at its root
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


def _sublevel_components(f, edges, level) -> tuple[DisjointSet, list[int]]:
    alive = [i for i, x in enumerate(f) if x <= level]
    ds = DisjointSet(alive)
    present = set(alive)
    for a, b in edges:
        if a in present and b in present and max(f[a], f[b]) <= level:
            ds.merge(a, b)
    return ds, alive


def beta0(values, edges, u: float, v: float) -> int:
    """Number of components at level u that are still separate at level v.

    Brute force by design: build the two sublevel graphs independently
    and count how many level-v components contain at least one level-u
    component.  Serves as the ground-truth oracle for
    :func:`zero_persistence` via :func:`multiplicity0`.
    """
    if u > v:
        raise ValueError(f"need u <= v, got u={u}, v={v}")
    f, edges = (x.tolist() for x in _check_graph(values, edges))
    ds_u, alive_u = _sublevel_components(f, edges, u)
    if not alive_u:
        return 0
    ds_v, _ = _sublevel_components(f, edges, v)
    reps = {ds_u[i] for i in alive_u}
    return len({ds_v[r] for r in reps})


def multiplicity0(values, edges, u: float, v: float, eps: float | None = None) -> int:
    """Multiplicity of (u, v) as a degree-0 persistence point.

    Evaluates the alternating rank count
    beta0(u+e, v-e) - beta0(u-e, v-e) - beta0(u+e, v+e) + beta0(u-e, v+e)
    at a probe offset ``e`` small enough that no function value and
    neither of u, v is crossed; by default a quarter of the smallest
    positive gap between distinct values (capped at (v-u)/4).
    """
    if not u < v:
        raise ValueError(f"(u, v) must satisfy u < v, got ({u}, {v})")
    f = _check_graph(values, edges)[0].tolist()
    levels = sorted(set(f))
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    min_gap = min(gaps) if gaps else None
    if eps is None:
        eps = (v - u) / 4.0
        if min_gap is not None:
            eps = min(eps, min_gap / 4.0)
    else:
        if not (eps > 0):
            raise ValueError(f"eps must be positive, got {eps}")
        if eps >= (v - u) / 2.0:
            raise ValueError(f"eps {eps} cannot separate u={u} from v={v}")
        if min_gap is not None and eps >= min_gap / 2.0:
            raise ValueError(
                f"eps {eps} is too coarse for the value spacing {min_gap}"
            )
    return (
        beta0(f, edges, u + eps, v - eps)
        - beta0(f, edges, u - eps, v - eps)
        - beta0(f, edges, u + eps, v + eps)
        + beta0(f, edges, u - eps, v + eps)
    )

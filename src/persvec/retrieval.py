"""Retrieval over databases of fingerprinted diagrams.

A database is a list of labeled models, each carrying its persistence
diagram and any coefficient vectors computed for it.  This module fills
all-pairs distance matrices (coefficient metrics in one vectorised
pass, the bottleneck optionally in parallel), scores rankings with an
interpolated precision/recall protocol, runs the two-stage
prefilter-then-rerank query, and persists coefficient indexes to CSV.

The PR protocol, spelled out because conventions differ: every model
queries the rest of the database, ranked by ascending distance with
ties broken by model id.  With R_q relevant items for query q, precision
is taken at each relevant retrieval, interpolated as the maximum
precision at recall >= level, sampled on the grid {1/R, ..., R/R} where
R is the largest R_q, then averaged over queries level by level.
"""

from __future__ import annotations

import os
import random
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coefficients import CoefficientVector, default_coefficient_count, embed_diagram
from .diagram import PersistenceDiagram
from .metrics import COEFFICIENT_METRICS, bottleneck_distance, coefficient_distance
from .transforms import TRANSFORMS

INDEX_HEADER = "# coefficient-index v1"


def _check_token(value: str, what: str) -> str:
    if not value:
        raise ValueError(f"{what} must not be empty")
    if "," in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} {value!r} must not contain commas or newlines")
    return value


@dataclass
class DatabaseEntry:
    """One model: id, class label, diagram, and per-transform vectors."""

    model_id: str
    label: str = ""
    diagram: PersistenceDiagram | None = None
    vectors: dict[str, CoefficientVector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_token(self.model_id, "model id")
        if self.label:
            _check_token(self.label, "label")
        for kind in self.vectors:
            if kind not in TRANSFORMS:
                raise ValueError(f"unknown transform kind {kind!r} in vectors")


@dataclass
class LabeledDatabase:
    """Entries with unique ids; per-transform embeddings share one shape."""

    entries: tuple[DatabaseEntry, ...] = ()

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        seen: set[str] = set()
        shapes: dict[str, tuple[int, int]] = {}
        for e in entries:
            if e.model_id in seen:
                raise ValueError(f"duplicate model id {e.model_id!r}")
            seen.add(e.model_id)
            for kind, vec in e.vectors.items():
                shape = (vec.width, vec.count)
                if shapes.setdefault(kind, shape) != shape:
                    raise ValueError(
                        f"inconsistent {kind!r} embeddings: "
                        f"{shapes[kind]} vs {shape} (width, count)"
                    )
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.model_id for e in self.entries)

    def entry(self, model_id: str) -> DatabaseEntry:
        for e in self.entries:
            if e.model_id == model_id:
                return e
        raise ValueError(f"unknown model id {model_id!r}")


@dataclass(eq=False)
class DistanceMatrix:
    """Symmetric all-pairs distances with a zero diagonal."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(_check_token(i, "model id") for i in self.ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ids in distance matrix")
        values = np.asarray(self.values, dtype=float)
        n = len(ids)
        if values.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must be finite")
        if np.any(values < 0):
            raise ValueError("matrix entries must be non-negative")
        if not np.array_equal(values, values.T):
            raise ValueError("matrix must be symmetric")
        if np.any(np.diag(values) != 0):
            raise ValueError("matrix diagonal must be zero")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PRTable:
    """(recall level, mean precision) rows at strictly increasing recall."""

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        rows = tuple((float(r), float(p)) for r, p in self.rows)
        prev = 0.0
        for r, p in rows:
            if not 0.0 < r <= 1.0:
                raise ValueError(f"recall level {r} outside (0, 1]")
            if r <= prev:
                raise ValueError("recall levels must be strictly increasing")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"precision {p} outside [0, 1]")
            prev = r
        object.__setattr__(self, "rows", rows)


# --------------------------------------------------------------- embedding


def embed_database(
    db: LabeledDatabase, kind: str, count: int | None = None
) -> LabeledDatabase:
    """Attach a ``kind`` coefficient vector to every entry.

    The padding width is the largest diagram size in the database, so
    all vectors share one shape; ``count`` defaults to floor(sqrt(width)).
    """
    if kind not in TRANSFORMS:
        raise ValueError(f"unknown transform {kind!r}")
    if not db.entries:
        raise ValueError("cannot embed an empty database")
    for e in db.entries:
        if e.diagram is None:
            raise ValueError(f"entry {e.model_id!r} has no diagram to embed")
    width = max(e.diagram.total_multiplicity() for e in db.entries)
    if width == 0:
        raise ValueError("every diagram in the database is empty; nothing to embed")
    if count is None:
        count = default_coefficient_count(width)
    entries = []
    for e in db.entries:
        vectors = dict(e.vectors)
        vectors[kind] = embed_diagram(e.diagram, kind, width, count)
        entries.append(DatabaseEntry(e.model_id, e.label, e.diagram, vectors))
    return LabeledDatabase(tuple(entries))


def database_labels(db: LabeledDatabase) -> dict[str, str]:
    return {e.model_id: e.label for e in db.entries}


# ---------------------------------------------------------- distance matrix


def _bottleneck_cells(diagrams, pairs):
    return [(i, j, bottleneck_distance(diagrams[i], diagrams[j])) for i, j in pairs]


def _bottleneck_matrix(diagrams: list[PersistenceDiagram], threads: int) -> np.ndarray:
    n = len(diagrams)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    workers = min(threads, os.cpu_count() or 1)
    if workers == 1 or len(pairs) < 2:
        cells = _bottleneck_cells(diagrams, pairs)
    else:
        chunks = [pairs[c::workers] for c in range(workers) if pairs[c::workers]]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_bottleneck_cells, diagrams, chunk) for chunk in chunks]
            cells = [cell for fut in futures for cell in fut.result()]
    values = np.zeros((n, n), dtype=float)
    for i, j, d in cells:
        values[i, j] = values[j, i] = d
    return values


def _coefficient_matrix(coeffs: np.ndarray, kind: str) -> np.ndarray:
    """All-pairs ``kind`` distances between the rows of an (N, k) complex array.

    Every cell is the float :func:`coefficient_distance` returns: the gap
    is ``np.hypot``, the libm call behind ``abs(complex)``; d3 takes
    ``np.float_power``, the libm ``pow`` behind ``float ** float``
    (``np.abs`` and ``np.power`` may take SIMD paths that differ in the
    last bit); and the k terms are added left to right by a cumulative
    sum.  One row of the upper triangle is built at a time, so memory
    stays O(N * k) beyond the result.
    """
    n, k = coeffs.shape
    j = np.arange(1, k + 1)
    values = np.zeros((n, n), dtype=float)
    for i in range(n - 1):
        diff = coeffs[i] - coeffs[i + 1 :]
        terms = np.hypot(diff.real, diff.imag)
        if kind == "d2":
            terms /= j
        elif kind == "d3":
            terms = np.float_power(terms, 1.0 / j)
        row = np.cumsum(terms, axis=1)[:, -1]
        values[i, i + 1 :] = row
        values[i + 1 :, i] = row
    return values


def distance_matrix(
    db: LabeledDatabase,
    metric: str,
    transform: str | None = None,
    count: int | None = None,
    threads: int = 1,
) -> DistanceMatrix:
    """All-pairs distances; each unordered pair is computed exactly once.

    ``metric`` is one of d1/d2/d3 (requires ``transform`` and embedded
    vectors, optionally truncated to ``count``) or "bottleneck" (works
    on the diagrams directly; ``transform`` must be omitted).  The
    coefficient metrics are computed in one vectorised pass over the
    stacked vectors, and ``threads`` has no effect on them.  For the
    bottleneck, ``threads`` > 1 splits the pairs across at most
    ``threads`` worker processes, never more than the machine's CPU
    count; cells are keyed by index, so the result is
    schedule-independent.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not db.entries:
        raise ValueError("cannot build a distance matrix for an empty database")
    if metric == "bottleneck":
        if transform is not None:
            raise ValueError("the bottleneck metric does not take a transform")
        diagrams = []
        for e in db.entries:
            if e.diagram is None:
                raise ValueError(f"entry {e.model_id!r} has no diagram")
            diagrams.append(e.diagram)
        values = _bottleneck_matrix(diagrams, threads)
    elif metric in COEFFICIENT_METRICS:
        if transform is None:
            raise ValueError(f"metric {metric!r} needs a transform kind")
        rows = []
        for e in db.entries:
            vec = e.vectors.get(transform)
            if vec is None:
                raise ValueError(f"entry {e.model_id!r} has no {transform!r} embedding")
            if count is not None:
                vec = vec.truncate(count)
            rows.append(vec.coefficients)
        values = _coefficient_matrix(np.array(rows, dtype=complex), metric)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return DistanceMatrix(tuple(e.model_id for e in db.entries), values)


# ------------------------------------------------------------------ PR


def pr_curve(matrix: DistanceMatrix, labels: Mapping[str, str]) -> PRTable:
    """Interpolated, macro-averaged precision/recall over all queries.

    See the module docstring for the exact protocol.  Every class must
    have at least two members (each query needs a nonzero relevant set)
    and there must be at least two classes.
    """
    ids = matrix.ids
    for mid in ids:
        if mid not in labels:
            raise ValueError(f"no class label for {mid!r}")
    class_sizes: dict[str, int] = {}
    for mid in ids:
        class_sizes[labels[mid]] = class_sizes.get(labels[mid], 0) + 1
    if len(class_sizes) < 2:
        raise ValueError("need at least two classes to evaluate retrieval")
    for cls, size in sorted(class_sizes.items()):
        if size < 2:
            raise ValueError(f"class {cls!r} has a single member")

    grid = max(class_sizes.values()) - 1
    n = len(ids)
    by_id = sorted(range(n), key=ids.__getitem__)
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[by_id] = np.arange(n)
    class_code = {cls: c for c, cls in enumerate(class_sizes)}
    codes = np.array([class_code[labels[mid]] for mid in ids])
    levels = np.arange(1, grid + 1)
    at_levels = np.empty((n, grid))
    for qi in range(n):
        # rank by (distance, id); the query itself sorts among the zeros
        order = np.lexsort((id_rank, matrix.values[qi]))
        order = order[order != qi]
        relevant = class_sizes[labels[ids[qi]]] - 1
        hit_ranks = np.flatnonzero(codes[order] == codes[qi]) + 1
        precisions = np.arange(1, relevant + 1) / hit_ranks
        # interpolate: best precision at recall >= level
        precisions = np.maximum.accumulate(precisions[::-1])[::-1]
        # smallest t with t/relevant >= i/grid, in exact integer math
        at_levels[qi] = precisions[-((-levels * relevant) // grid) - 1]
    # average in sorted-id order, adding strictly left to right, so
    # database order cannot even shift rounding
    totals = np.cumsum(at_levels[by_id], axis=0)[-1]
    rows = [((i + 1) / grid, total / n) for i, total in enumerate(totals.tolist())]
    return PRTable(tuple(rows))


# ---------------------------------------------------------------- queries


def two_stage_query(
    query_id: str,
    db: LabeledDatabase,
    transform: str,
    kind: str,
    candidates: int,
    count: int | None = None,
) -> list[str]:
    """Full ranking: cheap prefilter, exact re-rank of the head.

    All other models are ranked by coefficient distance (``kind`` over
    ``transform`` vectors, ties by id); the best ``candidates`` are
    re-ranked by bottleneck distance and returned first, followed by the
    rest in prefilter order.  The tail is kept so the result is always
    a complete ranking; the cut only bounds where bottleneck is spent.
    """
    if kind not in COEFFICIENT_METRICS:
        raise ValueError(f"prefilter metric must be one of {COEFFICIENT_METRICS}")
    query = db.entry(query_id)
    others = [e for e in db.entries if e.model_id != query_id]
    if not 1 <= candidates <= len(others):
        raise ValueError(
            f"candidates must be between 1 and {len(others)}, got {candidates}"
        )

    def vector_of(e: DatabaseEntry) -> CoefficientVector:
        vec = e.vectors.get(transform)
        if vec is None:
            raise ValueError(f"entry {e.model_id!r} has no {transform!r} embedding")
        return vec.truncate(count) if count is not None else vec

    qvec = vector_of(query)
    others.sort(
        key=lambda e: (coefficient_distance(qvec, vector_of(e), kind), e.model_id)
    )
    head, tail = others[:candidates], others[candidates:]
    if query.diagram is None:
        raise ValueError(f"entry {query_id!r} has no diagram for re-ranking")
    for e in head:
        if e.diagram is None:
            raise ValueError(f"entry {e.model_id!r} has no diagram for re-ranking")
    head.sort(
        key=lambda e: (bottleneck_distance(query.diagram, e.diagram), e.model_id)
    )
    return [e.model_id for e in head] + [e.model_id for e in tail]


# -------------------------------------------------------------- index file


def _atomic_write(path, text: str) -> None:
    """Write via a temp file in the target directory, rename on success."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".part-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def serialize_index(db: LabeledDatabase, kind: str | None = None) -> str:
    """Index CSV: one row per model — id, kind, width, count, re/im pairs."""
    if kind is None:
        kinds = {k for e in db.entries for k in e.vectors}
        if len(kinds) != 1:
            raise ValueError(
                f"database holds {sorted(kinds)} embeddings; specify which to save"
            )
        kind = kinds.pop()
    lines = [INDEX_HEADER]
    for e in db.entries:
        vec = e.vectors.get(kind)
        if vec is None:
            raise ValueError(f"entry {e.model_id!r} has no {kind!r} embedding")
        fields = [e.model_id, kind, str(vec.width), str(vec.count)]
        for c in vec.coefficients:
            fields.append(repr(c.real))
            fields.append(repr(c.imag))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def parse_index(text: str) -> LabeledDatabase:
    """Inverse of :func:`serialize_index`; labels and diagrams come back empty.

    All rows must agree on (kind, width, count); the leading version
    line is checked so stale or foreign files fail loudly.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != INDEX_HEADER:
        raise ValueError(
            f"bad index header (expected {INDEX_HEADER!r}): wrong version or not an index"
        )
    entries = []
    shape: tuple[str, int, int] | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 4:
            raise ValueError(f"line {lineno}: corrupt index row")
        model_id, kind = fields[0], fields[1]
        if kind not in TRANSFORMS:
            raise ValueError(f"line {lineno}: unknown transform {kind!r}")
        try:
            width, cnt = int(fields[2]), int(fields[3])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed width/count") from None
        if len(fields) != 4 + 2 * cnt:
            raise ValueError(
                f"line {lineno}: expected {2 * cnt} coefficient fields, "
                f"got {len(fields) - 4}"
            )
        try:
            coeffs = tuple(
                complex(float(fields[4 + 2 * t]), float(fields[5 + 2 * t]))
                for t in range(cnt)
            )
        except ValueError:
            raise ValueError(f"line {lineno}: malformed coefficient") from None
        if shape is None:
            shape = (kind, width, cnt)
        elif shape != (kind, width, cnt):
            raise ValueError(
                f"line {lineno}: mixed index shapes {shape} vs {(kind, width, cnt)}"
            )
        entries.append(
            DatabaseEntry(model_id, "", None, {kind: CoefficientVector(coeffs, width)})
        )
    return LabeledDatabase(tuple(entries))


def save_index(db: LabeledDatabase, path, kind: str | None = None) -> None:
    _atomic_write(path, serialize_index(db, kind))


def load_index(path) -> LabeledDatabase:
    with open(path, encoding="utf-8") as fh:
        return parse_index(fh.read())


# ------------------------------------------------------------- CSV formats


def serialize_matrix(matrix: DistanceMatrix) -> str:
    lines = [",".join(matrix.ids)]
    for row in matrix.values.tolist():
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> DistanceMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    ids = tuple(f.strip() for f in lines[0].split(","))
    n = len(ids)
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    values = np.empty((n, n), dtype=float)
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != n:
            raise ValueError(f"matrix row {i} has {len(fields)} fields, expected {n}")
        try:
            values[i] = list(map(float, fields))
        except ValueError:
            raise ValueError(f"matrix row {i} has a malformed value") from None
    return DistanceMatrix(ids, values)


def serialize_pr_table(table: PRTable) -> str:
    lines = ["recall,precision"]
    for recall, precision in table.rows:
        lines.append(f"{recall!r},{precision!r}")
    return "\n".join(lines) + "\n"


def parse_pr_table(text: str) -> PRTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "recall,precision":
        raise ValueError("expected a 'recall,precision' header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 2 fields")
        try:
            rows.append((float(fields[0]), float(fields[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed number") from None
    return PRTable(tuple(rows))


def serialize_labels(labels: Mapping[str, str]) -> str:
    lines = ["id,class"]
    for mid in sorted(labels):
        _check_token(mid, "model id")
        _check_token(labels[mid], "label")
        lines.append(f"{mid},{labels[mid]}")
    return "\n".join(lines) + "\n"


def parse_labels(text: str) -> dict[str, str]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "id,class":
        raise ValueError("expected an 'id,class' header")
    labels: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ValueError(f"line {lineno}: expected 'id,class'")
        if fields[0] in labels:
            raise ValueError(f"line {lineno}: duplicate id {fields[0]!r}")
        labels[fields[0]] = fields[1]
    return labels


# --------------------------------------------------------------- synthetic


def synthetic_database(
    classes: int,
    per_class: int,
    base_points: int = 6,
    jitter: float = 0.02,
    noise_points: int = 3,
    noise_band: float = 0.05,
    seed: int = 0,
) -> LabeledDatabase:
    """Seeded toy database: per-class template diagrams plus perturbation.

    Each class gets ``base_points`` template points with births in
    [0, 0.5] and gaps in [0.2, 0.5].  Every member jitters each template
    point by uniform offsets in [-jitter, jitter] per coordinate (pushed
    back above the diagonal if needed) and adds ``noise_points`` extra
    points in a band of height ``noise_band`` over the diagonal.
    """
    if classes < 1 or per_class < 1:
        raise ValueError("need at least one class and one member per class")
    if base_points < 1:
        raise ValueError("need at least one template point per class")
    if jitter < 0 or noise_band < 0 or noise_points < 0:
        raise ValueError("jitter, noise_points and noise_band must be non-negative")
    rng = random.Random(seed)
    entries = []
    for ci in range(classes):
        template = []
        for _ in range(base_points):
            birth = rng.uniform(0.0, 0.5)
            template.append((birth, birth + rng.uniform(0.2, 0.5)))
        for mi in range(per_class):
            points = []
            for birth, death in template:
                b = birth + rng.uniform(-jitter, jitter)
                d = death + rng.uniform(-jitter, jitter)
                if d <= b:
                    d = b + 1e-9
                points.append((b, d))
            for _ in range(noise_points):
                b = rng.uniform(0.0, 1.0)
                gap = rng.uniform(0.0, noise_band)
                points.append((b, b + (gap if gap > 0 else 1e-9)))
            entries.append(
                DatabaseEntry(
                    f"c{ci:02d}m{mi:02d}",
                    f"class{ci:02d}",
                    PersistenceDiagram.from_pairs(points),
                )
            )
    return LabeledDatabase(tuple(entries))

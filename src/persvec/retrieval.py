"""Retrieval over databases of fingerprinted diagrams.

A database is a list of labeled models, each carrying its persistence
diagram and any coefficient vectors computed for it.  This module fills
all-pairs distance matrices row by row (coefficient rows in numpy,
bottleneck rows optionally in parallel), scores rankings with an
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

import functools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import orjson

from . import coefficients
from .coefficients import CoefficientVector, _check_shape, embed_diagrams
from .coefficients import embed_diagram  # noqa: F401 -- perfbench's tracer wraps it here
from .diagram import PersistenceDiagram, _BadRow, _parse_rows, _plain_floats, _readonly, _records
from .metrics import _check_metric, _coefficient_rows, bottleneck_distance
from .metrics import coefficient_distance  # noqa: F401 -- perfbench's tracer wraps it here
from .transforms import get_transform

INDEX_HEADER = "# coefficient-index v1"


def _check_token(value: str, what: str) -> str:
    """``value`` if every CSV format of the package reads it back as itself."""
    if not value:
        raise ValueError(f"{what} must not be empty")
    if "," in value or value.splitlines() != [value] or value != value.strip() or value[0] == "#":
        raise ValueError(f"{what} {value!r} must not contain commas or line breaks, "
                         "start with '#' or start or end with whitespace")
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
            get_transform(kind)


@dataclass
class LabeledDatabase:
    """Entries with unique ids; per-transform embeddings share one (width, count) shape.
    The first entry ``i`` that breaks either rule raises ``_BadRow(message, i)``.

    A database is read as built: the rules are checked only at construction,
    and the ids, their ranks and each transform's stacked vectors are derived
    once (the latter two on first use), so its entries must not change."""

    entries: tuple[DatabaseEntry, ...] = ()

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        positions: dict[str, int] = {}
        shapes: dict[str, tuple[int, int]] = {}
        for i, e in enumerate(entries):
            if positions.setdefault(e.model_id, i) != i:
                raise _BadRow(f"duplicate model id {e.model_id!r}", i)
            for kind, vec in e.vectors.items():
                try:
                    _check_shape(shapes.setdefault(kind, (vec.width, vec.count)), vec)
                except ValueError as exc:
                    raise _BadRow(f"inconsistent {kind!r} embeddings, {exc}", i) from None
        self.entries = entries
        self._positions = positions
        self._ids = tuple(positions)
        self._stacked: dict[str, np.ndarray] = {}  # filled by _stacked_vectors

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @functools.cached_property
    def _rank_by_id(self) -> np.ndarray:
        return _readonly(_id_rank(self._ids))

    def position(self, model_id: str) -> int:
        """Index of the entry with this id."""
        try:
            return self._positions[model_id]
        except KeyError:
            raise ValueError(f"unknown model id {model_id!r}") from None

    def entry(self, model_id: str) -> DatabaseEntry:
        return self.entries[self.position(model_id)]


def _reject_rows(bad: np.ndarray, message: str) -> None:
    """Raise ``_BadRow(message, i)`` for the first row ``i`` of ``bad`` that holds a True."""
    rows = bad if bad.ndim == 1 else bad.any(axis=1)
    if rows.any():
        raise _BadRow(message, int(np.argmax(rows)))


@dataclass(eq=False)
class DistanceMatrix:
    """Symmetric all-pairs distances with a zero diagonal, held as a read-only view."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        try:
            LabeledDatabase(tuple(map(DatabaseEntry, ids)))  # the ids' token and unique-id rules
        except _BadRow as exc:  # an id is no matrix row: parse_matrix names the ids' line
            raise ValueError(str(exc)) from None
        values = np.asarray(self.values, dtype=float)
        n = len(ids)
        if values.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {values.shape}")
        _reject_rows(~np.isfinite(values), "matrix entries must be finite")
        _reject_rows(values < 0, "matrix entries must be non-negative")
        _reject_rows(values != values.T, "matrix must be symmetric")
        _reject_rows(np.diag(values) != 0, "matrix diagonal must be zero")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", _readonly(values.view()))


@dataclass(frozen=True)
class PRTable:
    """(recall level, mean precision) rows at strictly increasing recall."""

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        rows = tuple((float(r), float(p)) for r, p in self.rows)
        prev = 0.0
        for i, (r, p) in enumerate(rows):
            if not 0.0 < r <= 1.0:
                raise _BadRow(f"recall level {r} outside (0, 1]", i)
            if r <= prev:
                raise _BadRow("recall levels must be strictly increasing", i)
            if not 0.0 <= p <= 1.0:
                raise _BadRow(f"precision {p} outside [0, 1]", i)
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
    if not db.entries:
        raise ValueError("cannot embed an empty database")
    diagrams = _diagrams(db.entries, "to embed")
    width = max(d.total_multiplicity() for d in diagrams)
    if width == 0:
        raise ValueError("every diagram in the database is empty; nothing to embed")
    vectors = embed_diagrams(diagrams, kind, width, count)
    return LabeledDatabase(tuple(
        DatabaseEntry(e.model_id, e.label, e.diagram, {**e.vectors, kind: vec})
        for e, vec in zip(db.entries, vectors)
    ))


def _diagrams(entries, purpose: str) -> list[PersistenceDiagram]:
    for e in entries:
        if e.diagram is None:
            raise ValueError(f"entry {e.model_id!r} has no diagram {purpose}")
    return [e.diagram for e in entries]


def database_labels(db: LabeledDatabase) -> dict[str, str]:
    return {e.model_id: e.label for e in db.entries}


# ---------------------------------------------------------- distance matrix


def _mirrored(n: int, rows) -> np.ndarray:
    """The symmetric n x n matrix, zero on the diagonal, whose upper
    triangle's row i (columns i+1..n-1) is the i-th of ``rows``."""
    values = np.zeros((n, n), dtype=float)
    for i, row in enumerate(rows):
        values[i, i + 1 :] = row
        values[i + 1 :, i] = row
    return values


def _bottleneck_row(query: PersistenceDiagram, diagrams) -> np.ndarray:
    """Bottleneck distances from ``query`` to each of ``diagrams``: the one
    place the matrix and the query re-rank reach the exact distance."""
    return np.array([bottleneck_distance(query, d) for d in diagrams], dtype=float)


def _upper_rows(diagrams: list[PersistenceDiagram], rows: range) -> list[np.ndarray]:
    """For each i in ``rows``, diagram i against diagrams i+1..N-1."""
    return [_bottleneck_row(diagrams[i], diagrams[i + 1 :]) for i in rows]


def _bottleneck_matrix(diagrams: list[PersistenceDiagram], threads: int) -> np.ndarray:
    n = len(diagrams)
    workers = min(threads, os.cpu_count() or 1, n - 1)
    if workers <= 1:
        return _mirrored(n, _upper_rows(diagrams, range(n - 1)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_upper_rows, diagrams, range(c, n - 1, workers)) for c in range(workers)]
        strides = [fut.result() for fut in futures]
    return _mirrored(n, (strides[i % workers][i // workers] for i in range(n - 1)))


def _stacked_vectors(db: LabeledDatabase, transform: str) -> np.ndarray:
    """The entries' ``transform`` vectors as a read-only (N, k) complex
    array, built on the first call for ``db`` and ``transform``."""
    stacked = db._stacked.get(transform)
    if stacked is None:
        rows = []
        for e in db.entries:
            vec = e.vectors.get(transform)
            if vec is None:
                raise ValueError(f"entry {e.model_id!r} has no {transform!r} embedding")
            rows.append(vec.coefficients)
        stacked = db._stacked[transform] = _readonly(np.array(rows, dtype=complex))
    return stacked


def distance_matrix(
    db: LabeledDatabase,
    metric: str,
    transform: str | None = None,
    threads: int = 1,
) -> DistanceMatrix:
    """All-pairs distances; each unordered pair is computed exactly once.

    ``metric`` is one of d1/d2/d3 (requires ``transform`` and embedded
    vectors, compared at their embedded count) or "bottleneck" (works
    on the diagrams directly; ``transform`` must be omitted).  Both are
    built row by row: row i holds model i against models i+1..N-1 and
    is mirrored into the matrix.  A coefficient row is one numpy pass
    over the stacked vectors, and ``threads`` has no effect on it.  For
    the bottleneck, ``threads`` > 1 deals the rows out in strides to at
    most ``threads`` worker processes, never more than the machine's
    CPU count or N-1; each row keeps its index, so the result is
    schedule-independent.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not db.entries:
        raise ValueError("cannot build a distance matrix for an empty database")
    if metric == "bottleneck":
        if transform is not None:
            raise ValueError("the bottleneck metric does not take a transform")
        values = _bottleneck_matrix(_diagrams(db.entries, "to compare"), threads)
    else:
        _check_metric(metric)
        if transform is None:
            raise ValueError(f"metric {metric!r} needs a transform kind")
        coeffs = _stacked_vectors(db, transform)
        rows = (_coefficient_rows(coeffs[i], coeffs[i + 1 :], metric) for i in range(len(db) - 1))
        values = _mirrored(len(db), rows)
    return DistanceMatrix(db.ids, values)


# ------------------------------------------------------------------ PR


def _id_rank(ids) -> np.ndarray:
    """Each position's rank in ascending id order: the tie-break key of :func:`_ranked`."""
    return np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


def _ranked(distances: np.ndarray, id_rank: np.ndarray) -> np.ndarray:
    """Positions by ascending distance, ties broken by id: the one ranking rule."""
    return np.lexsort((id_rank, distances))


def pr_curve(matrix: DistanceMatrix, labels: Mapping[str, str]) -> PRTable:
    """Interpolated, macro-averaged precision/recall over all queries.

    See the module docstring for the exact protocol.  Every class must
    have at least two members (each query needs a nonzero relevant set)
    and there must be at least two classes.
    """
    ids = matrix.ids
    class_sizes: dict[str, int] = {}
    for mid in ids:
        if mid not in labels:
            raise ValueError(f"no class label for {mid!r}")
        class_sizes[labels[mid]] = class_sizes.get(labels[mid], 0) + 1
    if len(class_sizes) < 2:
        raise ValueError("need at least two classes to evaluate retrieval")
    for cls, size in sorted(class_sizes.items()):
        if size < 2:
            raise ValueError(f"class {cls!r} has a single member")

    grid = max(class_sizes.values()) - 1
    n = len(ids)
    id_rank = _id_rank(ids)
    class_code = {cls: c for c, cls in enumerate(class_sizes)}
    codes = np.array([class_code[labels[mid]] for mid in ids])
    relevant = np.array(list(class_sizes.values()))[codes] - 1
    levels = np.arange(1, grid + 1)
    at_levels = np.empty((n, grid))
    step = max(1, coefficients._BLOCK_ELEMENTS // n)  # query rows per block
    for start in range(0, n, step):
        block = matrix.values[start : start + step]
        queries = np.arange(start, start + len(block))
        # one sort ranks every row; a row without two equal values has a single
        # ascending order, and a row with ties is ranked by (distance, id)
        order = np.argsort(block, axis=1)
        ranked = np.take_along_axis(block, order, axis=1)
        for r in np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)).tolist():
            order[r] = _ranked(block[r], id_rank)
        order = order[order != queries[:, None]].reshape(len(block), n - 1)
        hit_ranks = np.nonzero(codes[order] == codes[queries, None])[1] + 1
        end = 0
        for qi, rel in zip(queries.tolist(), relevant[queries].tolist()):
            precisions = np.arange(1, rel + 1) / hit_ranks[end : end + rel]
            end += rel
            # interpolate: best precision at recall >= level
            precisions = np.maximum.accumulate(precisions[::-1])[::-1]
            # smallest t with t/rel >= i/grid, in exact integer math
            at_levels[qi] = precisions[-((-levels * rel) // grid) - 1]
    # average in sorted-id order, adding strictly left to right, so
    # database order cannot even shift rounding
    totals = np.cumsum(at_levels[np.argsort(id_rank)], axis=0)[-1]
    rows = [((i + 1) / grid, total / n) for i, total in enumerate(totals.tolist())]
    return PRTable(tuple(rows))


# ---------------------------------------------------------------- queries


def two_stage_query(
    query_id: str,
    db: LabeledDatabase,
    transform: str,
    kind: str,
    candidates: int,
) -> list[str]:
    """Full ranking: cheap prefilter, exact re-rank of the head.

    All other models are ranked by coefficient distance (``kind`` over
    ``transform`` vectors, ties by id); the best ``candidates`` are
    re-ranked by bottleneck distance and returned first, followed by the
    rest in prefilter order.  The tail is kept so the result is always
    a complete ranking; the cut only bounds where bottleneck is spent.
    """
    _check_metric(kind)
    qi = db.position(query_id)
    others = np.delete(np.arange(len(db)), qi)
    if not 1 <= candidates <= len(others):
        raise ValueError(
            f"candidates must be between 1 and {len(others)}, got {candidates}"
        )
    coeffs = _stacked_vectors(db, transform)
    ids, id_rank = db.ids, db._rank_by_id
    prefilter = _coefficient_rows(coeffs[qi], coeffs[others], kind)
    ranked = others[_ranked(prefilter, id_rank[others])]
    head, tail = ranked[:candidates], ranked[candidates:]
    query, *rivals = _diagrams([db.entries[i] for i in (qi, *head)], "for re-ranking")
    head = head[_ranked(_bottleneck_row(query, rivals), id_rank[head])]
    return [ids[i] for i in np.concatenate((head, tail)).tolist()]


# -------------------------------------------------------------- index file


def _atomic_write(path, text: str) -> None:
    """Write via a temp file in the target directory, rename on success.

    The temp file is created with mode 0o666, so the umask sets the mode
    the written file keeps, as it does for a file ``open`` creates."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(directory, f".part-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # name the destination, not a temp file never made
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name the destination, not the temp file removed below
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def serialize_index(db: LabeledDatabase, kind: str) -> str:
    """Index CSV: one row per model — id, kind, width, count, re/im pairs."""
    lines = [INDEX_HEADER]
    for e, row in zip(db.entries, _stacked_vectors(db, kind).tolist()):
        fields = [e.model_id, kind, str(e.vectors[kind].width), str(len(row))]
        fields += [repr(x) for c in row for x in (c.real, c.imag)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def parse_index(text: str) -> LabeledDatabase:
    """Inverse of :func:`serialize_index`; labels and diagrams come back empty.

    Rows must share one transform kind (ids and shapes are checked by
    :class:`LabeledDatabase`); the version line is checked so stale or
    foreign files fail loudly.  Every error in a row names the first bad line.
    """
    if not text or text.splitlines()[0].strip() != INDEX_HEADER:
        raise ValueError(
            f"bad index header (expected {INDEX_HEADER!r}): wrong version or not an index"
        )
    kinds: set[str] = set()

    def read(line: str) -> DatabaseEntry:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 4:
            raise ValueError("corrupt index row")
        model_id, kind = fields[0], fields[1]
        try:
            width, cnt = int(fields[2]), int(fields[3])
        except ValueError:
            raise ValueError("malformed width/count") from None
        if len(fields) != 4 + 2 * cnt:
            raise ValueError(f"expected {2 * cnt} coefficient fields, got {len(fields) - 4}")
        try:
            parts = [float(f) for f in fields[4:]]
        except ValueError:
            raise ValueError("malformed coefficient") from None
        coeffs = tuple(map(complex, parts[::2], parts[1::2]))
        entry = DatabaseEntry(model_id, "", None, {kind: CoefficientVector(coeffs, width)})
        kinds.add(kind)
        if len(kinds) > 1:
            raise ValueError(f"mixed index kinds {sorted(kinds)}")
        return entry

    return _parse_rows(_records(text), read, LabeledDatabase)


def save_index(db: LabeledDatabase, path, kind: str) -> None:
    _atomic_write(path, serialize_index(db, kind))


def load_index(path) -> LabeledDatabase:
    with open(path, encoding="utf-8") as fh:
        return parse_index(fh.read())


# ------------------------------------------------------------- CSV formats


def serialize_matrix(matrix: DistanceMatrix) -> str:
    """Matrix CSV: the ids, then one row per model, each cell as ``repr`` writes it.

    A row whose cells :func:`_plain_floats` all covers is written by
    orjson's numpy writer; any other row is joined from ``repr``.
    """
    values = np.ascontiguousarray(matrix.values)  # orjson writes C-ordered rows only
    plain = _plain_floats(values).all(axis=1)
    lines = [",".join(matrix.ids)]
    for row, fast in zip(values, plain.tolist()):
        lines.append(orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
                     if fast else ",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def _json_row(line: str, n: int) -> list[float] | None:
    """The row's cells if orjson reads ``line`` as exactly ``n`` JSON floats, else None.

    orjson rounds JSON numbers as ``float`` does; ints (``-0`` reads as 0) and
    what JSON lacks (``inf``, ``.5``, ``1_0``) are left to ``float`` and its errors.
    """
    try:
        row = orjson.loads(f"[{line}]")
    except orjson.JSONDecodeError:
        return None
    return row if len(row) == n and set(map(type, row)) == {float} else None


def parse_matrix(text: str) -> DistanceMatrix:
    """Inverse of :func:`serialize_matrix`; every error in a row names its line."""
    records = list(_records(text))
    if not records:
        raise ValueError("empty matrix file")
    ids = tuple(f.strip() for f in records[0][1].split(","))
    n = len(ids)
    if len(records) - 1 != n:
        raise ValueError(f"expected {n} matrix rows, found {len(records) - 1}")
    values = np.empty((n, n), dtype=float)
    for i, (lineno, line) in enumerate(records[1:]):
        row = _json_row(line, n)
        if row is None:
            fields = line.split(",")
            if len(fields) != n:
                raise ValueError(
                    f"line {lineno}: matrix row has {len(fields)} fields, expected {n}"
                )
            try:
                row = list(map(float, fields))
            except ValueError:
                raise ValueError(f"line {lineno}: matrix row has a malformed value") from None
        values[i] = row
    try:
        return DistanceMatrix(ids, values)
    except _BadRow as exc:
        raise ValueError(f"line {records[exc.args[1] + 1][0]}: {exc}") from None
    except ValueError as exc:  # the ids
        raise ValueError(f"line {records[0][0]}: {exc}") from None


def serialize_pr_table(table: PRTable) -> str:
    lines = ["recall,precision"]
    for recall, precision in table.rows:
        lines.append(f"{recall!r},{precision!r}")
    return "\n".join(lines) + "\n"


def parse_pr_table(text: str) -> PRTable:
    records = _records(text)
    if next(records, (0, ""))[1] != "recall,precision":
        raise ValueError("expected a 'recall,precision' header")

    def read(line: str) -> tuple[float, float]:
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError("expected 2 fields")
        try:
            return float(fields[0]), float(fields[1])
        except ValueError:
            raise ValueError("malformed number") from None

    return _parse_rows(records, read, PRTable)


def serialize_labels(labels: Mapping[str, str]) -> str:
    lines = ["id,class"]
    for mid in sorted(labels):
        _check_token(mid, "model id")
        _check_token(labels[mid], "label")
        lines.append(f"{mid},{labels[mid]}")
    return "\n".join(lines) + "\n"


def parse_labels(text: str) -> dict[str, str]:
    records = _records(text)
    if next(records, (0, ""))[1] != "id,class":
        raise ValueError("expected an 'id,class' header")

    def read(line: str) -> DatabaseEntry:
        mid, _, label = (f.strip() for f in line.partition(","))  # a 3rd field leaves a comma
        entry = DatabaseEntry(mid)  # the id first; unlike an entry's, a row's label is required
        entry.label = _check_token(label, "label")
        return entry

    return database_labels(_parse_rows(records, read, LabeledDatabase))


# --------------------------------------------------------------- synthetic


def synthetic_database(
    classes: int,
    per_class: int,
    base_points: int = 6,
    noise_points: int = 3,
    seed: int = 0,
) -> LabeledDatabase:
    """Seeded toy database: per-class template diagrams plus perturbation.

    Each class gets ``base_points`` template points with births in
    [0, 0.5] and gaps in [0.2, 0.5].  Every member jitters each template
    point by uniform offsets in [-0.02, 0.02] per coordinate, which keeps
    its gap at least 0.16, and adds ``noise_points`` extra points in a
    band of height 0.05 over the diagonal.
    """
    if classes < 1 or per_class < 1:
        raise ValueError("need at least one class and one member per class")
    if base_points < 1:
        raise ValueError("need at least one template point per class")
    if noise_points < 0:
        raise ValueError("noise_points must be non-negative")
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
                points.append((birth + rng.uniform(-0.02, 0.02), death + rng.uniform(-0.02, 0.02)))
            for _ in range(noise_points):
                b = rng.uniform(0.0, 1.0)
                gap = rng.uniform(0.0, 0.05)
                points.append((b, b + (gap if gap > 0 else 1e-9)))
            entries.append(
                DatabaseEntry(
                    f"c{ci:02d}m{mi:02d}",
                    f"class{ci:02d}",
                    PersistenceDiagram.from_pairs(points),
                )
            )
    return LabeledDatabase(tuple(entries))

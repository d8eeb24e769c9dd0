"""Persistence diagrams: representation, validation, and CSV round-trip.

A diagram is a finite multiset of proper points (birth, death) with
birth < death, each carrying a positive integer multiplicity.  It is
stored as read-only columns ``births``, ``deaths`` (float64) and
``multiplicities`` (int64), one entry per distinct point in (birth,
death) order.  Points whose class never dies are not stored; parsing
counts them in ``essential_count``.  Every way of building a diagram or
a :class:`PersistencePoint` checks points in :func:`_point_columns`,
and every multiplicity is checked by :func:`_exact_multiplicity`.

File format: CSV rows ``birth,death,multiplicity`` (multiplicity
optional, default 1), ``#`` comment lines allowed, UTF-8, LF endings.
An infinite death is written as the literal ``inf``.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
import orjson

_LIMIT = 2**63  # multiplicities are stored as int64
_ROWS = np.dtype([("birth", float), ("death", float)])  # diagram CSV rows, as numpy reads them
_COUNTED_ROWS = np.dtype([*_ROWS.descr, ("multiplicity", np.int64)])


class _BadRow(ValueError):
    """Raised by a constructor as ``_BadRow(message, index)``, index being the
    position of the first bad input row; a parser turns it into the row's file line."""

    def __str__(self) -> str:
        return self.args[0]


def _exact_multiplicity(x) -> int:
    """The multiplicity rule: ``x`` as an int if it equals an int from 1 to 2**63 - 1, else 0."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, (int, float)) and 1 <= x < _LIMIT and x == int(x):
        return int(x)
    return 0


def _point_columns(births, deaths, multiplicities=None):
    """Check the point invariant; return the columns as float64, float64, int64.

    Every point needs finite coordinates, birth < death, and an integral
    multiplicity (integral floats included) from 1 to 2**63 - 1; without
    multiplicities each point counts once.  The first point that breaks
    this raises :class:`_BadRow`.
    """
    b, d = np.asarray(births, dtype=float), np.asarray(deaths, dtype=float)
    given = np.ones(b.shape, np.int64) if multiplicities is None else multiplicities
    m = np.asarray(given)
    if not (b.ndim == 1 and b.shape == d.shape == m.shape):
        raise ValueError("births, deaths and multiplicities must be 1-D and of equal length")
    if m.dtype != np.int64:  # floats, ints beyond 64 bits, ...: exactly, one by one
        m = np.array([_exact_multiplicity(x) for x in given], dtype=np.int64)
    ok = np.isfinite(b) & np.isfinite(d) & (b < d) & (m >= 1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise _BadRow(
            f"point ({b[i]}, {d[i]}) with multiplicity {given[i]} needs finite coordinates, "
            "birth < death and an integer multiplicity from 1 to 2**63 - 1",
            i,
        )
    return b, d, m


def _readonly(array: np.ndarray) -> np.ndarray:
    """``array``, flagged read-only."""
    array.flags.writeable = False
    return array


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of the sorted columns ``keys`` starts, as a bool mask.
    With a sort it stands in for ``np.unique``, whose first call in a process imports
    ``numpy.ma`` (about 15 ms) and which takes a slow path on int64 keys."""
    first = np.ones(len(keys[0]), dtype=bool)
    first[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return first


def _merged(keys: tuple[np.ndarray, ...], m: np.ndarray):
    """Sort rows by ``keys`` (most significant first), summing the multiplicities of
    rows equal in every key; return the sorted keys and multiplicities.

    The sort is stable and -0.0 == 0.0, so each merged row keeps the key values
    of its first input row, as a dict keyed by them would.
    """
    order = np.lexsort(keys[::-1])
    keys, m = [k[order] for k in keys], m[order]
    starts = np.flatnonzero(_run_starts(*keys))
    if len(starts) == len(m):
        return (*keys, m)
    if int(m.max()) > (_LIMIT - 1) // len(m):  # int64 sums could wrap: add exactly
        if max(np.add.reduceat(m.astype(object), starts)) >= _LIMIT:
            # each group's running total, exactly; the stable sort keeps a group's
            # rows in input order, so its first row past the limit comes first
            running = np.cumsum(m.astype(object))
            running -= np.repeat((running - m)[starts], np.diff([*starts, len(m)]))
            raise _BadRow("a merged multiplicity does not fit a 64-bit integer",
                          int(order[running >= _LIMIT].min()))
    return (*(k[starts] for k in keys), np.add.reduceat(m, starts))


@dataclass(frozen=True, order=True)
class PersistencePoint:
    """A proper diagram point: born at ``birth``, dead at ``death``."""

    birth: float
    death: float
    multiplicity: int = 1

    def __post_init__(self) -> None:
        columns = _point_columns([self.birth], [self.death], [self.multiplicity])
        for name, column in zip(("birth", "death", "multiplicity"), columns):
            object.__setattr__(self, name, column.item())

    @property
    def persistence(self) -> float:
        return self.death - self.birth


class PersistenceDiagram:
    """Immutable multiset of proper points, stored as read-only columns.

    Build one from columns, ``PersistenceDiagram(births, deaths,
    multiplicities=None, essential_count=0)`` (multiplicities default to
    1), from tuples with :meth:`from_pairs`, or from CSV with
    :func:`parse_diagram`.  Coincident input points are merged on construction by summing
    multiplicities, so no two stored points share coordinates.  Equality
    of coordinates is exact floating equality (-0.0 equals 0.0): inputs
    at different float values stay distinct, no tolerance is involved.
    """

    __slots__ = ("births", "deaths", "multiplicities", "essential_count", "_columns")

    def __init__(self, births=(), deaths=(), multiplicities=None, essential_count: int = 0) -> None:
        if not (essential := _exact_multiplicity(essential_count)) and essential_count != 0:
            raise ValueError(f"essential_count {essential_count!r} is not an integer in [0, 2**63)")
        b, d, m = _point_columns(births, deaths, multiplicities)
        for name, column in zip(self.__slots__, map(_readonly, _merged((b, d), m))):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "essential_count", essential)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple],
        essential_count: int = 0,
    ) -> "PersistenceDiagram":
        """Build from (birth, death) or (birth, death, multiplicity) tuples."""
        rows = [pair if len(pair) == 3 else (*pair, 1) for pair in pairs]
        births, deaths, mults = list(zip(*rows, strict=True)) or ((), (), ())
        return cls(births, deaths, mults, essential_count)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("PersistenceDiagram is immutable")

    def _expanded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only u, v (the points repeated by multiplicity, in (birth, death) order)
        and half-gaps (v - u) / 2, built on first use in a slot that pickling leaves out."""
        if not hasattr(self, "_columns"):
            u, v = np.repeat(self.births, self.multiplicities), np.repeat(self.deaths, self.multiplicities)
            with np.errstate(over="ignore"):  # an overflow gives inf, as in point_distance
                columns = tuple(map(_readonly, (u, v, (v - u) / 2.0)))
            object.__setattr__(self, "_columns", columns)
        return self._columns

    def _rows(self) -> list[tuple[float, float, int]]:
        return list(zip(self.births.tolist(), self.deaths.tolist(), self.multiplicities.tolist()))

    @property
    def points(self) -> tuple[PersistencePoint, ...]:
        """The points as objects, in (birth, death) order."""
        return tuple(PersistencePoint(*row) for row in self._rows())

    def total_multiplicity(self) -> int:
        """Number of proper points counted with multiplicity, as an exact int."""
        return sum(self.multiplicities.tolist())

    def __len__(self) -> int:
        return len(self.births)

    def __iter__(self) -> Iterator[PersistencePoint]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return (self._rows(), self.essential_count) == (other._rows(), other.essential_count)

    def __hash__(self) -> int:
        return hash((tuple(self._rows()), self.essential_count))

    def __reduce__(self):
        return type(self), (self.births, self.deaths, self.multiplicities, self.essential_count)

    def __repr__(self) -> str:
        return f"PersistenceDiagram.from_pairs({self._rows()!r}, {self.essential_count!r})"


def _records(text: str) -> Iterator[tuple[int, str]]:
    """(file line number, stripped line) of each line that is neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if (line := raw.strip()) and not line.startswith("#"):
            yield lineno, line


def _parse_rows(records: Iterable[tuple[int, str]], read: Callable, build: Callable):
    """``build(rows)`` of the rows ``read(line)`` makes (None: no row); errors name the first bad
    line.  ``build`` raises ``_BadRow(message, i)`` for row i, and runs on the rows before a
    line ``read`` rejects, so a bad row on an earlier line is reported first."""
    rows, linenos = [], []

    def built():
        try:
            return build(rows)
        except _BadRow as exc:
            raise ValueError(f"line {linenos[exc.args[1]]}: {exc}") from None

    for lineno, line in records:
        try:
            row = read(line)
        except ValueError as exc:
            built()
            raise ValueError(f"line {lineno}: {exc}") from None
        if row is not None:
            rows.append(row)
            linenos.append(lineno)
    return built()


def _integer(text: str) -> int:
    """The integer ``text`` spells, as ``2`` or as ``2.0``; else ValueError."""
    try:
        return int(text)
    except ValueError:
        if (x := float(text)).is_integer():
            return int(x)
        raise


def _lf_lines(text: str) -> bool:
    """Whether ``text`` is ASCII with no line break but ``\\n``, so that numpy's
    reader sees exactly the lines ``str.splitlines`` makes of it."""
    return text.isascii() and not any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e")


def _bulk_block(block: str, dtype, shape, delimiter=None) -> np.ndarray | None:
    """``block`` as an array of ``shape`` (None: any row count of a structured
    ``dtype``), read by numpy's C reader, which reads every field it accepts as
    ``float()``/``int()`` do.  None (the caller reads line by line) on another
    shape, on a field it rejects (``1_0``, ``2.0`` as an int, a non-ASCII digit,
    an int past 64 bits) and on a block of blank lines, where loadtxt would warn
    "input contained no data".  A release may read an int field such as ``1.5``
    through float with only a DeprecationWarning; while loadtxt runs, the
    process-wide warning filters raise that warning as an error."""
    if shape and not shape[0]:
        return np.empty(shape, dtype)
    if not block or block.isspace():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(io.StringIO(block), dtype=dtype, delimiter=delimiter,
                              comments=None, ndmin=len(shape) if shape else 1)
    except (ValueError, DeprecationWarning):
        return None
    return rows if shape is None or rows.shape == shape else None


def _bulk_diagram(text: str) -> PersistenceDiagram | None:
    """The diagram of a text with at most one ``#`` line, its first, read in one
    numpy pass; None where per-line parsing must decide (it also names the line)."""
    body = text.partition("\n")[2] if text.startswith("#") else text
    if "#" in body or not _lf_lines(text):
        return None
    counted = body.partition("\n")[0].count(",") == 2  # the first row's fields pick the row type
    rows = _bulk_block(body, _COUNTED_ROWS if counted else _ROWS, None, delimiter=",")
    if rows is None:
        return None
    b, d = rows["birth"], rows["death"]
    m = rows["multiplicity"] if counted else np.ones(len(rows), np.int64)
    essential, count = d == math.inf, 0
    if essential.any():
        if not (np.isfinite(b[essential]).all() and (m[essential] >= 1).all()):
            return None
        b, d, m, count = b[~essential], d[~essential], m[~essential], sum(m[essential].tolist())
    try:
        return PersistenceDiagram(b, d, m, count)
    except ValueError:
        return None


def parse_diagram(text: str) -> PersistenceDiagram:
    """Parse diagram CSV.

    Rows with an ``inf`` death are counted into ``essential_count`` and
    dropped; the other rows are points, validated and merged by the
    :class:`PersistenceDiagram` constructor.  Raises ValueError naming the
    first bad line: a malformed row, an invalid point, or an essential row
    with a non-finite birth or a multiplicity (or running total) off the rule.
    """
    if (diagram := _bulk_diagram(text)) is not None:
        return diagram
    essential = 0

    def read(line: str):
        nonlocal essential
        fields = line.split(",")
        if len(fields) not in (2, 3):
            raise ValueError(f"expected 2 or 3 fields, got {len(fields)}")
        try:
            birth, death = float(fields[0]), float(fields[1])
        except ValueError:
            raise ValueError(f"malformed number in {line!r}") from None
        try:
            mult = _integer(fields[2]) if len(fields) == 3 else 1
        except ValueError:
            raise ValueError(f"malformed multiplicity {fields[2].strip()!r}") from None
        if death != math.inf:
            return birth, death, mult
        if not (math.isfinite(birth) and _exact_multiplicity(mult)
                and _exact_multiplicity(essential + mult)):
            raise ValueError("an essential row needs a finite birth and a multiplicity "
                             "from 1 to 2**63 - 1, also summed over the essential rows")
        essential += mult

    return _parse_rows(_records(text), read,
                       lambda rows: PersistenceDiagram.from_pairs(rows, essential))


def _plain_floats(values: np.ndarray) -> np.ndarray:
    """Where ``orjson.dumps`` writes a float as ``repr`` does: zero and [1e-4,
    1e16), in plain notation.  Elsewhere ``repr`` may write an exponent
    (``1e-05``, ``1e+16``) where orjson does not; negatives are left to it too."""
    return (values == 0) | ((values >= 1e-4) & (values < 1e16))


def serialize_diagram(diagram: PersistenceDiagram) -> str:
    """Serialize to CSV, sorted by (birth, death).

    Uses shortest round-trip float formatting, so
    ``parse_diagram(serialize_diagram(d)) == d`` exactly: one ``orjson.dumps``
    writes the rows, then ``repr`` each row :func:`_plain_floats` does not cover.
    """
    rows = diagram._rows()
    lines = orjson.dumps(rows)[2:-2].decode().split("],[") if rows else []
    for i in np.flatnonzero(~(_plain_floats(diagram.births) & _plain_floats(diagram.deaths))):
        lines[i] = "{!r},{!r},{}".format(*rows[i])
    if diagram.essential_count:
        # Individual birth levels of never-dying classes are not retained,
        # only their count; 0 is written as a placeholder birth.
        lines.append(f"0,inf,{diagram.essential_count}")
    return "\n".join(["# birth,death,multiplicity", *lines]) + "\n"

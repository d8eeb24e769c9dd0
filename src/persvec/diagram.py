"""Persistence diagrams: representation, validation, and CSV round-trip.

A diagram is a finite multiset of proper points (birth, death) with
birth < death, each carrying a positive integer multiplicity.  It is
stored as read-only columns ``births``, ``deaths`` (float64) and
``multiplicities`` (int64), one entry per distinct point in (birth,
death) order.  Points whose class never dies are not stored; parsing
counts them in ``essential_count``.  Every way of building a diagram or
a :class:`PersistencePoint` checks points in one function,
:func:`_point_columns`.

File format: CSV rows ``birth,death,multiplicity`` (multiplicity
optional, default 1), ``#`` comment lines allowed, UTF-8, LF endings.
An infinite death is written as the literal ``inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

_LIMIT = 2**63  # multiplicities are stored as int64


class _InvalidPoint(ValueError):
    """Raised as ``_InvalidPoint(message, index)``, index being the input position."""

    def __str__(self) -> str:
        return self.args[0]


def _exact_multiplicity(x) -> int:
    """``x`` as an int if it is an integer (or integral float) from 1 to 2**63 - 1, else 0."""
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
    this raises :class:`_InvalidPoint`.
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
        raise _InvalidPoint(
            f"point ({b[i]}, {d[i]}) with multiplicity {given[i]} needs finite coordinates, "
            "birth < death and an integer multiplicity from 1 to 2**63 - 1",
            i,
        )
    return b, d, m


def _merged(b: np.ndarray, d: np.ndarray, m: np.ndarray):
    """Sort points by (birth, death), summing the multiplicities of coincident ones.

    The sort is stable and -0.0 == 0.0, so each merged point keeps the
    coordinates of its first input point, as a dict keyed by the pair would.
    """
    order = np.lexsort((d, b))
    b, d, m = b[order], d[order], m[order]
    first = np.ones(len(b), dtype=bool)
    first[1:] = (b[1:] != b[:-1]) | (d[1:] != d[:-1])
    starts = np.flatnonzero(first)
    if len(starts) == len(b):
        return b, d, m
    if int(m.max()) > (_LIMIT - 1) // len(m):  # int64 sums could wrap: add exactly
        if max(np.add.reduceat(m.astype(object), starts)) >= _LIMIT:
            raise ValueError("a merged multiplicity does not fit a 64-bit integer")
    return b[starts], d[starts], np.add.reduceat(m, starts)


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

    __slots__ = ("births", "deaths", "multiplicities", "essential_count")

    def __init__(
        self, births=(), deaths=(), multiplicities=None, essential_count: int = 0
    ) -> None:
        if essential_count < 0:
            raise ValueError("essential_count must be non-negative")
        columns = _merged(*_point_columns(births, deaths, multiplicities))
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "essential_count", essential_count)

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


def parse_diagram(text: str) -> PersistenceDiagram:
    """Parse diagram CSV.

    Rows with an ``inf`` death are counted into ``essential_count`` and
    dropped; the other rows are points, validated and merged by the
    :class:`PersistenceDiagram` constructor.  Raises ValueError naming the
    first bad line: a malformed row, an invalid point, or an essential row
    with a non-finite birth or a multiplicity below 1.
    """
    births: list[float] = []
    deaths: list[float] = []
    mults: list[int] = []
    linenos: list[int] = []
    essential = 0

    def build() -> PersistenceDiagram:
        try:
            return PersistenceDiagram(births, deaths, mults, essential)
        except _InvalidPoint as exc:
            raise ValueError(f"line {linenos[exc.args[1]]}: {exc}") from None

    def bad_line(lineno: int, message: str) -> ValueError:
        build()  # an invalid point on an earlier line is reported first
        return ValueError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) not in (2, 3):
            raise bad_line(lineno, f"expected 2 or 3 fields, got {len(fields)}")
        try:
            birth, death = float(fields[0]), float(fields[1])
        except ValueError:
            raise bad_line(lineno, f"malformed number in {line!r}") from None
        try:
            mult = int(fields[2]) if len(fields) == 3 else 1
        except ValueError:
            raise bad_line(lineno, f"malformed multiplicity {fields[2].strip()!r}") from None
        if death == math.inf:
            if not (math.isfinite(birth) and mult >= 1):
                raise bad_line(lineno, "an essential row needs a finite birth and multiplicity >= 1")
            essential += mult
        else:
            births.append(birth)
            deaths.append(death)
            mults.append(mult)
            linenos.append(lineno)
    return build()


def serialize_diagram(diagram: PersistenceDiagram) -> str:
    """Serialize to CSV, sorted by (birth, death).

    Uses shortest round-trip float formatting, so
    ``parse_diagram(serialize_diagram(d)) == d`` exactly.
    """
    lines = ["# birth,death,multiplicity"] + [f"{b!r},{d!r},{m}" for b, d, m in diagram._rows()]
    if diagram.essential_count:
        # Individual birth levels of never-dying classes are not retained,
        # only their count; 0 is written as a placeholder birth.
        lines.append(f"0,inf,{diagram.essential_count}")
    return "\n".join(lines) + "\n"

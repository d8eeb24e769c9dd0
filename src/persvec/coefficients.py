"""Coefficient vectors: elementary symmetric polynomials of complex roots.

A root multiset of width M determines a degree-M monic polynomial; its
coefficients (up to sign) are the elementary symmetric polynomials
e_1 .. e_M of the roots.  A fingerprint keeps only the first ``count``
of them, by default floor(sqrt(M)).

Root lists of different sizes are compared by zero-padding the shorter
one up to a common width M before taking coefficients.  Zeros leave
every e_j unchanged (a product containing 0 is 0), so padding never
alters the values, only the nominal degree.  The padding zeros are
therefore never built, and the computation skips zero roots outright,
which makes its cost depend on the number of nonzero roots rather than
on the padded width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .transforms import ComplexRootList, transform_diagram


@dataclass(frozen=True)
class CoefficientVector:
    """First ``count`` elementary symmetric values of a width-M root multiset.

    ``coefficients[j-1]`` holds e_j; the trivial e_0 = 1 is not stored.
    ``width`` is the padded degree M the vector was computed at; two
    vectors are only comparable at equal width and count, and a vector
    always keeps 1 <= count <= width.
    """

    coefficients: tuple[complex, ...]
    width: int

    def __post_init__(self) -> None:
        if not isinstance(self.width, int) or self.width < 1:
            raise ValueError(f"width must be a positive integer, got {self.width}")
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not 1 <= len(coeffs) <= self.width:
            raise ValueError(
                f"need between 1 and {self.width} coefficients, got {len(coeffs)}"
            )
        for j, c in enumerate(coeffs, start=1):
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"coefficient {j} is not finite: {c}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def count(self) -> int:
        return len(self.coefficients)

    def truncate(self, count: int) -> "CoefficientVector":
        """Drop trailing coefficients, keeping the first ``count``."""
        if not 1 <= count <= self.count:
            raise ValueError(f"cannot truncate {self.count} coefficients to {count}")
        return CoefficientVector(self.coefficients[:count], self.width)


def default_coefficient_count(width: int) -> int:
    """floor(sqrt(width)): the default number of coefficients to keep."""
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    return math.isqrt(width)


def elementary_symmetric(roots: Iterable[complex], count: int) -> tuple[complex, ...]:
    """Return (e_1, ..., e_count) of the given plain root values.

    Incremental update: inserting a root z maps e_j to e_j + z * e_{j-1},
    applied for j descending so each pass reuses the previous root set's
    values.  Zero roots are skipped; they contribute nothing to any e_j.

    Raises OverflowError naming the lowest coefficient that left the
    finite float range.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    coeffs = [0j] * (count + 1)
    coeffs[0] = 1 + 0j
    seen = 0
    for z in roots:
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"non-finite root {z}")
        if z == 0:
            continue
        seen += 1
        for j in range(min(seen, count), 0, -1):
            coeffs[j] += z * coeffs[j - 1]
    for j in range(1, count + 1):
        c = coeffs[j]
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise OverflowError(f"coefficient {j} overflowed the float range")
    return tuple(coeffs[1:])


def embed_roots(roots: ComplexRootList, width: int, count: int | None = None) -> CoefficientVector:
    """Coefficient vector of a root list zero-padded to ``width``.

    ``count`` defaults to floor(sqrt(width)) and must lie in [1, width].
    """
    if roots.width > width:
        raise ValueError(f"cannot pad width {roots.width} down to {width}")
    if count is None:
        count = default_coefficient_count(width)
    if not 1 <= count <= width:
        raise ValueError(f"count must be between 1 and the width {width}, got {count}")
    return CoefficientVector(elementary_symmetric(roots.expand(), count), width)


def embed_diagram(diagram, kind: str, width: int, count: int | None = None) -> CoefficientVector:
    """Diagram -> roots under transform ``kind`` -> padded coefficient vector.

    ``width`` must be at least the diagram's total multiplicity; in a
    database it is the largest diagram's size, so every model embeds
    into vectors of one common shape.
    """
    return embed_roots(transform_diagram(diagram, kind), width, count)
